"""Every demo runs to exit 0, and the exact demos print what they printed before."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted(path.name for path in (ROOT / "demos").glob("*.py"))

# sha256 of the stdout of the demos that use exact arithmetic only, so the
# digests hold on every platform.  The float demos (03, 04) only have to run.
EXACT_STDOUT = {
    "01_extended_algebra.py": "48932427b163da903a4e23205f8cf1456aae36a78ed6278eebc17cf33f26f0c8",
    "02_invariant_search.py": "0a032dd3431fcbb7807dd4c1c66d8d9bae2532ff2f9b15a6954b2e6bd0cb0e33",
}


def test_every_demo_is_listed():
    assert len(DEMOS) == 4 and set(EXACT_STDOUT) < set(DEMOS)


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs_and_exact_output_is_unchanged(demo):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        capture_output=True, cwd=ROOT, env={**os.environ, "PYTHONPATH": path}, timeout=600,
    )
    assert done.returncode == 0, done.stderr.decode()
    if demo in EXACT_STDOUT:
        assert hashlib.sha256(done.stdout).hexdigest() == EXACT_STDOUT[demo]
