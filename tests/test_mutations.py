"""Each term of the group law, the algebra, its invariants and the contraction
limits fails a report row when it is broken.

`MUTATIONS` is one table, {name: (module attribute, replacement, argv, rows that
must FAIL)}.  Each entry runs `cli.main` in-process, first as it is, where no row
may fail, then with the attribute of `galilei21`'s module replaced, where exactly
the named rows must fail.  `cli._certified` keeps one certificate per exact row
and process, so it is cleared before and after each run: a certificate of the
intact law would hide a mutation, and one of a mutated law would outlive it.

Three blind spots show here.  A reversed rotation sign is a group law too (theta
read as -theta), so no `group` row sees it; only the `contract` slopes of `mass`
and `diagram`, whose Poincare side keeps the true rotation, do.  The l theta
tau' term has no entry: with it zeroed every `group` report still passes, since
no row yet pairs a whole turn with a time translation.  And a dropped [M, H] = l
is seen only by `casimir` at m != 0: no `verify-algebra` row and no m = 0
`casimir` row fails (measured at --k=5/2 --m=0 --l=-3).

An inverse without its exponent is no blind spot at m = 0, l = 0, where theory
makes the exponent vanish: xi(g, g^-1) = -(k/2) v x (-v) = 0.  Its entry runs at
m != 0.
"""

import dataclasses
import importlib
import json

import pytest

from galilei21 import algebra, cli, enveloping, group
from galilei21.algebra import ExtensionParams
from test_contraction import MUTANTS

_xi, _k_map, _rotated, _inverse = group.cocycle_exponent, group.eliminate_k_map, group._rotated, group.inverse
_k_change, _algebra, _energy = algebra.eliminate_k_change, algebra.make_galilei_algebra, enveloping.internal_energy


def _reversed_rotation(cs, vec):
    """`_rotated` by R(-theta): sin theta's sign flipped."""
    return _rotated(None if cs is None else (cs[0], -cs[1]), vec)


def _untransposed_inverse(p, g):
    """`inverse` with u and v rotated by R(theta), g's rotation, not by its transpose."""
    v = _rotated(g.rotation, (-g.v[0], -g.v[1]))
    u = _rotated(g.rotation, (g.v[0] * g.tau - g.u[0], g.v[1] * g.tau - g.u[1]))
    partial = group.GroupElement(0, -g.tau, u, v, -g.theta)
    return dataclasses.replace(partial, phase=-g.phase - _xi(p, g, partial))


def _doubled_momentum_coefficient(p):
    """`internal_energy` at m/2: the P1^2 and P2^2 coefficient -1/(2m) doubled."""
    return _energy(ExtensionParams(p.k, p.m / 2, p.l))


GROUP = ["group", "--k=3/2", "--m=-5/4", "--samples=200"]
CONTRACT = ["contract", "--samples=20", "--c-grid=1e2:1e6:logx2"]
K_REMOVAL = {"k_removal_homomorphism", "k_removal_homomorphism_exact"}
SLOPES = {f"slope[{i}]" for i in range(20)}
LIMITS = {f"limit_agreement[{i}]" for i in range(20)}
VERIFY = ["verify-algebra", "--k=3/2", "--m=2", "--l=1/3"]
CASIMIR = ["casimir", "--k=3/2", "--m=2", "--max-degree=4"]

MUTATIONS = {
    "k_term": ("group.cocycle_exponent",
               lambda p, g, h, rotated=None: _xi(ExtensionParams(0, p.m, p.l), g, h, rotated), GROUP, K_REMOVAL),
    "m_term": ("group.cocycle_exponent",
               lambda p, g, h, rotated=None: _xi(ExtensionParams(p.k, 0, p.l), g, h, rotated), GROUP, K_REMOVAL),
    "k_map_sign": ("group.eliminate_k_map",
                   lambda p, g: _k_map(ExtensionParams(-p.k, p.m, p.l), g), GROUP, K_REMOVAL),
    "inverse_transpose": ("group.inverse", _untransposed_inverse, GROUP, {"inverse_round_trip"}),
    "inverse_exponent": ("group.inverse", lambda p, g: _inverse(ExtensionParams(0, 0, 0), g), GROUP,
                         {"inverse_round_trip"}),
    "rotation_sign[group]": ("group._rotated", _reversed_rotation, GROUP, set()),
    "rotation_sign[mass]": ("group._rotated", _reversed_rotation, [*CONTRACT, "--experiment=mass"], SLOPES),
    "rotation_sign[diagram]": ("group._rotated", _reversed_rotation, [*CONTRACT, "--experiment=diagram"], SLOPES),
    "k_change_sign": ("algebra.eliminate_k_change", lambda p: _k_change(ExtensionParams(-p.k, p.m, p.l)),
                      VERIFY, {"k_removal", "k_removal_random_charges"}),
    "m_h_bracket": ("algebra.make_galilei_algebra", lambda p: _algebra(ExtensionParams(p.k, p.m, 0)),
                    [*CASIMIR, "--l=1/3"],
                    {"central[internal_angular_momentum]", "central[internal_energy]", "energy_defect_equals_l"}),
    "energy_coefficient": ("enveloping.internal_energy", _doubled_momentum_coefficient, [*CASIMIR, "--l=0"],
                           {"central[internal_energy]", "centralizer_dimension", "energy_defect_equals_l"}),
    # at l != 0 the candidate is not central either way: only its brackets' values tell
    "energy_coefficient[l!=0]": ("enveloping.internal_energy", _doubled_momentum_coefficient, [*CASIMIR, "--l=1/3"],
                                 {"energy_defect_equals_l"}),
    "wigner_sign[thomas]": ("contraction._wigner_angle", MUTANTS["wigner"][1], [*CONTRACT, "--experiment=thomas"],
                            SLOPES | LIMITS),
    "mass_coboundary[mass]": ("contraction.mass_cocycle_exponent", MUTANTS["mass"][1],
                              [*CONTRACT, "--experiment=mass"], SLOPES),
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
