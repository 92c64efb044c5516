"""The pytest configuration: warnings are errors, yet a failing property test
is reported as one failure and the rest of the run goes on."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FORCED = '''
from hypothesis import given, settings, strategies as st


@settings(max_examples=5, database=None)
@given(st.integers())
def test_fails(x):
    assert x != x


def test_runs_after():
    pass
'''


def test_a_failing_hypothesis_test_does_not_abort_the_run(tmp_path):
    # hypothesis's failure report can raise a DeprecationWarning of its own,
    # which "error" would turn into an INTERNALERROR that ends the session
    (tmp_path / "test_forced.py").write_text(FORCED)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "test_forced.py"],
        capture_output=True, cwd=tmp_path, text=True, timeout=600,
    )
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout, done.stdout[-2000:]
