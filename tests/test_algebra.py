import copy
import json
import math
import pickle
import random
import weakref
from fractions import Fraction as F

import pytest

from galilei21 import algebra, cli, group
from galilei21.algebra import (
    ExtensionParams,
    LieAlgebra,
    Poly,
    antisymmetry_defect,
    apply_basis_change,
    eliminate_k_change,
    jacobi_defect,
    jacobi_entries,
    make_galilei_algebra,
)
from galilei21.cli import main
from galilei21.enveloping import NOPoly
from scalar_sampler import random_params


def galg(k, m, l):
    return make_galilei_algebra(ExtensionParams(F(k), F(m), F(l)))


def shift_k_away(p):
    """g_(k,m,l) in the basis of `eliminate_k_change`, with its closed-form inverse."""
    inverse = eliminate_k_change(ExtensionParams(-p.k, p.m, p.l))
    return apply_basis_change(make_galilei_algebra(p), eliminate_k_change(p), inverse)


def test_bracket_table_matches_definition():
    alg = galg(1, 2, 3)
    get = lambda a, b: {lbl: c for lbl, c in zip(alg.labels, alg.tensor[alg.index(a)][alg.index(b)]) if c}
    assert get("N1", "P1") == {"E": F(2)}
    assert get("N1", "P2") == {}
    assert get("H", "P1") == {}
    assert get("N1", "H") == {"P1": F(1)}
    assert get("N1", "N2") == {"E": F(1)}
    assert get("M", "H") == {"E": F(3)}
    assert get("M", "P1") == {"P2": F(1)}
    assert get("M", "P2") == {"P1": F(-1)}
    assert get("M", "N1") == {"N2": F(1)}
    assert get("N2", "H") == {"P2": F(1)}
    assert get("N2", "P2") == {"E": F(2)}
    assert get("M", "N2") == {"N1": F(-1)}
    # E is central
    assert not any(any(row) for row in alg.tensor[alg.index("E")])


def test_zero_charges_give_plain_galilei_plus_decoupled_center():
    alg = galg(0, 0, 0)
    e_idx = alg.index("E")
    for i in range(alg.dim):
        for j in range(alg.dim):
            assert alg.tensor[i][j][e_idx] == 0
    assert jacobi_defect(alg) == 0


def test_jacobi_zero_for_random_and_boundary_charges():
    rng = random.Random(11)
    cases = [
        ExtensionParams(0, 0, 0),
        ExtensionParams(0, F(3, 2), F(1, 3)),
        ExtensionParams(F(5), 0, F(-2)),
        ExtensionParams(F(-1, 4), F(2), 0),
    ]
    cases += [random_params(rng) for _ in range(200)]
    for p in cases:
        alg = make_galilei_algebra(p)
        assert jacobi_defect(alg) == 0
        assert antisymmetry_defect(alg) == 0


def _with_entry(alg, i, j, n, value):
    t = [[list(row) for row in plane] for plane in alg.tensor]
    t[i][j][n] = value
    return LieAlgebra(alg.labels, tuple(tuple(tuple(r) for r in pl) for pl in t))


def charge_on_m_h(params):
    """g_(k,m,l) with the charge k also on the P1 entry of [M, H]: not a Lie algebra."""
    alg = make_galilei_algebra(params)
    m, h, p1 = alg.index("M"), alg.index("H"), alg.index("P1")
    return _with_entry(_with_entry(alg, m, h, p1, params.k), h, m, p1, -params.k)


def test_poly_arithmetic_and_zero_test():
    x, y = Poly.symbol("x"), Poly.symbol("y")
    assert not ((x + y) * (x - y) - (x * x - y * y))
    p = F(1, 2) * x + 3 - y * 2
    assert p == {("x",): F(1, 2), (): F(3), ("y",): F(-2)}
    assert (1 - p) == {("x",): F(-1, 2), (): F(-2), ("y",): F(2)}
    assert (-(y * x) * x) == {("x", "x", "y"): F(-1)}
    assert x and not x - x and not x * 0 and not F(0) * y
    with pytest.raises(TypeError):
        x * 0.5  # floats never enter an exact polynomial


def test_poly_equality_is_polynomial_equality():
    m = Poly.symbol("m")
    assert 2 * m == m * 2 and not 2 * m != m * 2
    assert Poly(0) == F(0) and F(0) == Poly(0) and Poly(0) == 0 and 0 == Poly(0)
    assert Poly(1) != Poly.symbol("m") and not Poly(1) == Poly.symbol("m")
    assert Poly(F(3, 2)) == F(3, 2) and Poly(F(3, 2)) != 1
    pairs = [(Poly(0), 0), (Poly(0), 0.0), (m, m), (m, 2 * m), (Poly(3), "3"), (Poly(3), 3.0),
             (Poly(F(1, 2)), F(1, 2))]
    for a, b in pairs:
        assert (a != b) is not (a == b) and (b != a) is not (b == a), (a, b)
    # a float or a str is not compared, and is not parsed as _as_rational parses a str
    for other in (0.0, 3.0, "3", "0"):
        assert Poly(3).__eq__(other) is NotImplemented and Poly(3).__ne__(other) is NotImplemented
        assert not Poly(3) == other and Poly(3) != other and not Poly(0) == other


def test_algebra_equality_at_poly_entries_is_an_identity():
    m, l = Poly.symbol("m"), Poly.symbol("l")
    symbolic = make_galilei_algebra(ExtensionParams(2 * m - m, m, l + 0))
    assert symbolic == make_galilei_algebra(ExtensionParams(m, m, l))
    constant = make_galilei_algebra(ExtensionParams(Poly(1), Poly(F(2)), Poly(0)))
    assert constant == galg(1, 2, 0) and galg(1, 2, 0) == constant
    assert constant != galg(1, 2, 3) and not constant == galg(1, 3, 0)
    assert symbolic != galg(1, 2, 0)


def test_poly_exact_division():
    m, s = Poly.symbol("m"), Poly.symbol("s")
    assert (2 * m * s) / (2 * m) == s
    assert (m * m * s - 3 * m) / (F(-1, 2) * m) == {("m", "s"): F(-2), (): F(6)}
    assert (4 * s + 2) / F(2) == 2 * s + 1
    assert F(3) / Poly(2) == Poly(F(3, 2)) and 1 / Poly(F(1, 4)) == Poly(4)
    for divisor in (m + s, s * s, Poly(0), 0.5):
        with pytest.raises(TypeError):
            (2 * m * s) / divisor
    with pytest.raises(TypeError):
        1 / m  # 1/m is no polynomial
    with pytest.raises(TypeError):
        0.5 / Poly(2)


def _at(x, values):
    """A Poly evaluated at rational values of its symbols; a Fraction as is."""
    if not isinstance(x, Poly):
        return x
    return sum((c * math.prod(values[v] for v in mono) for mono, c in x.items()), F(0))


def test_k_removal_certificate_is_the_sampled_check_for_all_charges(monkeypatch):
    assert cli._certified("k_removal")
    # the symbolic basis change, at s = k/(2m), is the one each charge set gets
    m, l, s = (Poly.symbol(name) for name in ("m", "l", "s"))
    symbolic = ExtensionParams(2 * m * s, m, l)
    changed = shift_k_away(symbolic)
    rng = random.Random(43)
    for _ in range(5):
        p = random_params(rng, nonzero_m=True)
        values = {"m": p.m, "l": p.l, "s": p.k / (2 * p.m)}
        numeric = shift_k_away(p)
        assert tuple(tuple(tuple(_at(x, values) for x in row) for row in plane)
                     for plane in changed.tensor) == numeric.tensor
    real = algebra.eliminate_k_change
    monkeypatch.setattr(algebra, "eliminate_k_change", lambda p: real(ExtensionParams(-p.k, p.m, p.l)))
    cli._certified.cache_clear()  # the certificate above proved the unflipped shift
    assert not cli._certified("k_removal")


def test_jacobi_certificate_is_the_sampled_check_for_all_charges(monkeypatch):
    assert cli._certified("jacobi")
    # the entries at symbolic charges are the entries at any rational charge set
    rng = random.Random(41)
    for _ in range(5):
        p = random_params(rng)
        assert jacobi_defect(make_galilei_algebra(p)) == 0
        assert not any(jacobi_entries(make_galilei_algebra(p)))
    monkeypatch.setattr(algebra, "make_galilei_algebra", charge_on_m_h)
    cli._certified.cache_clear()  # the certificate above proved the uncorrupted law
    assert not cli._certified("jacobi")
    assert jacobi_defect(charge_on_m_h(ExtensionParams(1, 2, 3))) != 0


def _verify_rows(tmp_path, *charges):
    """The exit status and the rows, by name, of a JSON verify-algebra report."""
    out = tmp_path / "report.json"
    code = main(["verify-algebra", *charges, "--format=json", f"--out={out}"])
    return code, {c["name"]: (c["defect"], c["pass"]) for c in json.loads(out.read_text())["checks"]}


def test_failed_jacobi_certificate_checks_the_given_charges(tmp_path, monkeypatch):
    monkeypatch.setattr(algebra, "make_galilei_algebra", charge_on_m_h)
    code, rows = _verify_rows(tmp_path, "--k=1/2", "--m=2", "--l=-3")
    assert code == 1
    # the claim fails at the given charges too: an exact row reports 0 or 1
    assert rows["jacobi"] == rows["jacobi_random_charges"] == ("1", False)
    # at k = 0 the corrupted law is the true one: the given charges pass, the claim
    # over every charge set still fails
    code, rows = _verify_rows(tmp_path, "--k=0", "--m=2", "--l=-3")
    assert code == 1 and rows["jacobi"] == ("0", True) and rows["jacobi_random_charges"] == ("1", False)


def test_wrong_k_removal_fails_verify_algebra(tmp_path, monkeypatch):
    real = algebra.eliminate_k_change
    # the shift -k/(2m) in place of k/(2m)
    monkeypatch.setattr(algebra, "eliminate_k_change", lambda p: real(ExtensionParams(-p.k, p.m, p.l)))
    code, rows = _verify_rows(tmp_path, "--k", "1", "--m", "2", "--l", "3", "--samples", "60")
    assert code == 1
    assert not cli._certified("k_removal")
    assert rows["k_removal"] == rows["k_removal_random_charges"] == ("1", False)
    # the flipped shift is the true one at k = 0
    code, rows = _verify_rows(tmp_path, "--k=0", "--m=2", "--l=3")
    assert code == 1 and rows["k_removal"] == ("0", True) and rows["k_removal_random_charges"] == ("1", False)


def test_corrupted_tensor_detection():
    alg = galg(1, 2, 3)
    # flipping [N1,H] -> -P1 on one side breaks the Jacobi identity
    bad = _with_entry(alg, alg.index("N1"), alg.index("H"), alg.index("P1"), F(-1))
    assert jacobi_defect(bad) != 0
    # flipping the central entry c[N1][N2][E] on one side is invisible to
    # Jacobi (E brackets to zero on both sides of every product) but the
    # antisymmetry check catches it
    bad2 = _with_entry(alg, alg.index("N1"), alg.index("N2"), alg.index("E"), F(-1))
    assert jacobi_defect(bad2) == 0
    assert antisymmetry_defect(bad2) != 0


def test_antisymmetry_defect_matches_the_dense_formula_on_corrupted_tensors():
    # the defect skips the pairs of zero entries; against every pair summed
    rng = random.Random(29)
    for _ in range(200):
        alg = make_galilei_algebra(random_params(rng))
        for _ in range(rng.randint(0, 4)):
            i, j, n = (rng.randrange(alg.dim) for _ in range(3))
            value = F(rng.randint(-6, 6), rng.randint(1, 4)) if rng.random() < 0.8 else alg.tensor[j][i][n]
            alg = _with_entry(alg, i, j, n, value)
        t = alg.tensor
        dense = max(abs(t[i][j][n] + t[j][i][n]) for i in range(alg.dim) for j in range(alg.dim) for n in range(alg.dim))
        defect = antisymmetry_defect(alg)
        assert defect == dense and type(defect) is F


def test_k_removal_maps_onto_k_zero_algebra():
    alg = galg(1, 2, 0)
    changed = shift_k_away(ExtensionParams(1, 2, 0))
    assert changed == galg(0, 2, 0)
    assert alg != galg(0, 2, 0)
    assert jacobi_defect(changed) == 0


def test_k_removal_shift_coefficients():
    m = eliminate_k_change(ExtensionParams(1, 2, 0))
    alg = galg(1, 2, 0)
    assert m[alg.index("N1")][alg.index("P2")] == F(1, 4)
    assert m[alg.index("N2")][alg.index("P1")] == F(-1, 4)
    # k = 0 gives the identity change
    identity = tuple(tuple(F(int(i == j)) for j in range(7)) for i in range(7))
    assert eliminate_k_change(ExtensionParams(0, 2, 0)) == identity


def test_k_removal_requires_mass():
    # k_shift is the one k/(2m), and the one m = 0 guard behind both maps
    m, l, s = (Poly.symbol(name) for name in ("m", "l", "s"))
    assert ExtensionParams(2 * m * s, m, l).k_shift == s
    assert ExtensionParams(3, F(-5, 4), 7).k_shift == F(-6, 5)
    shifts = (lambda p: p.k_shift, eliminate_k_change, lambda p: group.eliminate_k_map(p, group.IDENTITY))
    for shift in shifts:
        with pytest.raises(ValueError, match=r"^m = 0: the charge k cannot be shifted away$"):
            shift(ExtensionParams(1, 0, 0))


def test_k_removal_random_charges():
    rng = random.Random(23)
    for _ in range(50):
        p = random_params(rng, nonzero_m=True)
        changed = shift_k_away(p)
        target = make_galilei_algebra(ExtensionParams(0, p.m, p.l))
        assert changed == target


def _diagonal(dim, entries):
    """The identity matrix of size dim, with entries {index: value} on its diagonal."""
    return [[entries.get(i, F(1)) if i == j else F(0) for j in range(dim)] for i in range(dim)]


def test_boost_scaling_rescales_central_charge():
    # N_i -> 2 N_i doubles [N_i, P_j] = m delta_ij E
    alg = galg(0, 3, 0)
    boosts = (alg.index("N1"), alg.index("N2"))
    scale = _diagonal(alg.dim, dict.fromkeys(boosts, F(2)))
    unscale = _diagonal(alg.dim, dict.fromkeys(boosts, F(1, 2)))
    out = apply_basis_change(alg, scale, unscale)
    row = out.tensor[out.index("N1")][out.index("P1")]
    assert row[out.index("E")] == F(6)
    assert apply_basis_change(out, unscale, scale) == alg


def test_basis_change_round_trip_and_singular_rejection():
    # the shift and its closed-form inverse, at symbolic charges (2ms, m, l) too
    m, l, s = (Poly.symbol(name) for name in ("m", "l", "s"))
    for p in (ExtensionParams(2 * m * s, m, l), ExtensionParams(F(1, 2), F(-3), F(2))):
        shift, back = eliminate_k_change(p), eliminate_k_change(ExtensionParams(-p.k, p.m, p.l))
        alg = make_galilei_algebra(p)
        assert apply_basis_change(apply_basis_change(alg, shift, back), back, shift) == alg
        # a shift is not its own inverse, and no matrix inverts a singular one
        for T, wrong in ((shift, shift), ([[F(0)] * alg.dim] * alg.dim, back)):
            with pytest.raises(ValueError, match="^T_inv is not the inverse of T$"):
                apply_basis_change(alg, T, wrong)


def test_basis_change_rejects_a_non_square_matrix():
    alg = galg(1, 2, 0)
    identity = _diagonal(alg.dim, {})
    wide = [[F(i == j) for j in range(alg.dim + 1)] for i in range(alg.dim)]  # identity, one column more
    for matrix in ([[1] * 3] * alg.dim, wide):
        with pytest.raises(ValueError, match="dimension mismatch"):
            apply_basis_change(alg, matrix, identity)
        with pytest.raises(ValueError, match="dimension mismatch"):
            apply_basis_change(alg, identity, matrix)


# ExtensionParams and LieAlgebra are plain immutable records; they keep a
# frozen dataclass's value semantics
TENSOR = (((F(0),), (F(1),)), ((F(-1),), (F(0),)))
RECORDS = {
    ExtensionParams: (((F(3, 2), 2, "-1/3"), {"k": "3/2", "m": F(2), "l": F(-1, 3)}), ("k", "m", "l")),
    LieAlgebra: (((("X", "Y"), TENSOR), {"labels": ("X", "Y"), "tensor": TENSOR}), ("labels", "tensor")),
}


@pytest.mark.parametrize("cls", RECORDS)
def test_records_build_by_position_and_keyword(cls):
    (args, kwargs), fields = RECORDS[cls]
    by_position, by_keyword = cls(*args), cls(**kwargs)
    assert by_position == by_keyword and not by_position != by_keyword
    assert hash(by_position) == hash(by_keyword)
    assert [getattr(by_position, name) for name in fields] == [getattr(by_keyword, name) for name in fields]
    for bad in (args[:-1], args + args[-1:]):
        with pytest.raises(TypeError):
            cls(*bad)


def test_extension_params_charges_become_fractions():
    p = ExtensionParams(3, "-5/4", F(1, 3))
    assert all(type(c) is F for c in (p.k, p.m, p.l)) and (p.k, p.m, p.l) == (3, F(-5, 4), F(1, 3))
    assert type(ExtensionParams(Poly.symbol("k"), 1, 0).k) is Poly
    for bad in (0.5, NOPoly.generator("N1"), None):
        with pytest.raises(TypeError):
            ExtensionParams(1, bad, 0)


def test_records_equal_only_a_record_of_their_own_class():
    p, alg = ExtensionParams(1, 2, 0), LieAlgebra(("X", "Y"), TENSOR)
    assert p != ExtensionParams(1, 2, 3) and alg != LieAlgebra(("X", "Z"), TENSOR)
    for record, other in ((p, (F(1), F(2), F(0))), (alg, (("X", "Y"), TENSOR)), (p, alg), (alg, p)):
        assert not record == other and record != other and not other == record
    # a copy is an equal record; equal values of one class are one dict key
    assert copy.copy(p) == copy.deepcopy(p) == pickle.loads(pickle.dumps(p)) == p
    assert {p: 1, ExtensionParams("1", F(2), 0): 2} == {p: 2}


def test_records_with_poly_charges_compare_but_do_not_hash():
    k = Poly.symbol("k")
    p = ExtensionParams(k, 1, 0)
    assert p == ExtensionParams(k, 1, 0) and make_galilei_algebra(p) == make_galilei_algebra(p)
    for record in (p, make_galilei_algebra(p)):
        with pytest.raises(TypeError):
            hash(record)


@pytest.mark.parametrize(
    "record, field", [(ExtensionParams(1, 2, 0), "k"), (LieAlgebra(("X", "Y"), TENSOR), "tensor")]
)
def test_record_fields_cannot_be_assigned_or_deleted(record, field):
    before = getattr(record, field)
    with pytest.raises(AttributeError, match=f"^cannot assign to field '{field}'$"):
        setattr(record, field, before)
    with pytest.raises(AttributeError, match=f"^cannot delete field '{field}'$"):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.other = 1
    assert getattr(record, field) is before


def test_records_take_weak_references():
    for record in (ExtensionParams(1, 2, 0), LieAlgebra(("X", "Y"), TENSOR)):
        assert weakref.ref(record)() is record


def test_record_reprs_are_pinned():
    assert repr(ExtensionParams(F(3, 2), 2, "-1/3")) == "ExtensionParams(k=3/2, m=2, l=-1/3)"
    poly_charged = ExtensionParams(Poly.symbol("k"), 1, 0)
    assert repr(poly_charged) == "ExtensionParams(k={('k',): Fraction(1, 1)}, m=1, l=0)"
    assert repr(LieAlgebra(("X", "Y"), TENSOR)) == (
        "LieAlgebra(labels=('X', 'Y'), tensor=(((Fraction(0, 1),), (Fraction(1, 1),)),"
        " ((Fraction(-1, 1),), (Fraction(0, 1),))))"
    )
