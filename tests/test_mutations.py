"""Each term of the group law fails a report row when it is broken.

`MUTATIONS` is one table, {name: (module attribute, replacement, argv, rows that
must FAIL)}.  Each entry runs `cli.main` in-process, first as it is, where no row
may fail, then with the attribute of `galilei21`'s module replaced, where exactly
the named rows must fail.  `cli._certified` keeps one certificate per exact row
and process, so it is cleared before and after each run: a certificate of the
intact law would hide a mutation, and one of a mutated law would outlive it.

Two blind spots show here.  A reversed rotation sign is a group law too (theta
read as -theta), so no `group` row sees it; only the `contract` slopes of `mass`
and `diagram`, whose Poincare side keeps the true rotation, do.  And the l theta
tau' term has no entry: with it zeroed every `group` report still passes, since
no row yet pairs a whole turn with a time translation.
"""

import importlib
import json

import pytest

from galilei21 import cli, group
from galilei21.algebra import ExtensionParams

_xi, _k_map, _rotated = group.cocycle_exponent, group.eliminate_k_map, group._rotated


def _reversed_rotation(cs, vec):
    """`_rotated` by R(-theta): sin theta's sign flipped."""
    return _rotated(None if cs is None else (cs[0], -cs[1]), vec)


GROUP = ["group", "--k=3/2", "--m=-5/4", "--samples=200"]
CONTRACT = ["contract", "--samples=20", "--c-grid=1e2:1e6:logx2"]
K_REMOVAL = {"k_removal_homomorphism", "k_removal_homomorphism_exact"}
SLOPES = {f"slope[{i}]" for i in range(20)}

MUTATIONS = {
    "k_term": ("group.cocycle_exponent",
               lambda p, g, h, rotated=None: _xi(ExtensionParams(0, p.m, p.l), g, h, rotated), GROUP, K_REMOVAL),
    "m_term": ("group.cocycle_exponent",
               lambda p, g, h, rotated=None: _xi(ExtensionParams(p.k, 0, p.l), g, h, rotated), GROUP, K_REMOVAL),
    "k_map_sign": ("group.eliminate_k_map",
                   lambda p, g: _k_map(ExtensionParams(-p.k, p.m, p.l), g), GROUP, K_REMOVAL),
    "rotation_sign[group]": ("group._rotated", _reversed_rotation, GROUP, set()),
    "rotation_sign[mass]": ("group._rotated", _reversed_rotation, [*CONTRACT, "--experiment=mass"], SLOPES),
    "rotation_sign[diagram]": ("group._rotated", _reversed_rotation, [*CONTRACT, "--experiment=diagram"], SLOPES),
}


def _failing_rows(tmp_path, argv) -> set:
    cli._certified.cache_clear()
    out = tmp_path / "report.json"
    code = cli.main([*argv, "--format=json", f"--out={out}"])
    cli._certified.cache_clear()
    failing = {check["name"] for check in json.loads(out.read_text())["checks"] if not check["pass"]}
    assert code == (1 if failing else 0)
    return failing


@pytest.mark.parametrize("name", MUTATIONS)
def test_a_broken_term_fails_exactly_its_rows(tmp_path, monkeypatch, name):
    attribute, replacement, argv, rows = MUTATIONS[name]
    module, attr = attribute.split(".")
    assert _failing_rows(tmp_path, argv) == set()  # the mutation undone
    monkeypatch.setattr(importlib.import_module(f"galilei21.{module}"), attr, replacement)
    assert _failing_rows(tmp_path, argv) == rows
