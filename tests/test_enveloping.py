import gc
import hashlib
import random
import weakref
from fractions import Fraction as F
from math import comb, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import galilei21.enveloping as enveloping_module
from galilei21.algebra import (
    ExtensionParams,
    Poly,
    jacobi_entries,
    make_galilei_algebra,
    random_params,
    random_rational,
)
from galilei21.enveloping import (
    GEN_NAMES,
    NOPoly,
    _eliminate,
    _integer_rows,
    boost_momentum_cross,
    casimir_invariants,
    centralizer_basis,
    exact_nullspace,
    in_span,
    internal_angular_momentum,
    internal_energy,
    is_central,
    momentum_squared,
    monomials_up_to,
    no_commutator,
    no_commutators,
    no_mul,
)
from galilei21.cli import main

PARAMS = ExtensionParams(F(5), F(2), F(0))
N1 = NOPoly.generator("N1")
N2 = NOPoly.generator("N2")
P1 = NOPoly.generator("P1")
P2 = NOPoly.generator("P2")
H = NOPoly.generator("H")
M = NOPoly.generator("M")
ONE = NOPoly.scalar(1)


def rand_poly(rng, max_degree=2, nterms=3):
    monos = monomials_up_to(max_degree)
    terms = {}
    for _ in range(nterms):
        terms[rng.choice(monos)] = F(rng.randint(-4, 4), rng.randint(1, 3))
    return NOPoly(terms)


def test_swap_produces_central_term():
    # P1 * N1 = N1*P1 - m with the central element evaluated to 1
    out = no_mul(PARAMS, P1, N1)
    assert out == NOPoly({(0, 2): F(1), (): F(-2)})


def test_time_rotation_swap():
    out = no_mul(ExtensionParams(F(0), F(0), F(7)), M, H)
    assert out == NOPoly({(4, 5): F(1), (): F(7)})


def test_unit_law():
    rng = random.Random(0)
    for _ in range(10):
        p = rand_poly(rng)
        assert no_mul(PARAMS, ONE, p) == p
        assert no_mul(PARAMS, p, ONE) == p


def test_degree_one_commutators_match_algebra_brackets():
    alg = make_galilei_algebra(PARAMS)
    for a in GEN_NAMES:
        for b in GEN_NAMES:
            com = no_commutator(PARAMS, NOPoly.generator(a), NOPoly.generator(b))
            row = alg.tensor[alg.index(a)][alg.index(b)]
            expected = NOPoly()
            for lbl, co in zip(alg.labels, row):
                if not co:
                    continue
                expected = expected + (
                    co * (ONE if lbl == "E" else NOPoly.generator(lbl))
                )
            assert com == expected, (a, b)


def test_boost_on_momentum_square():
    out = no_commutator(PARAMS, N1, no_mul(PARAMS, P1, P1))
    assert out == NOPoly({(2,): F(4)})  # 2m P1, m = 2


def test_rotation_annihilates_cross_term():
    cross = no_mul(PARAMS, N1, P2) - no_mul(PARAMS, N2, P1)
    assert not no_commutator(PARAMS, M, cross)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_associativity_of_normal_product(seed):
    rng = random.Random(seed)
    p, q, r = (rand_poly(rng, max_degree=3, nterms=2) for _ in range(3))
    assert no_mul(PARAMS, no_mul(PARAMS, p, q), r) == no_mul(PARAMS, p, no_mul(PARAMS, q, r))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_distributivity(seed):
    rng = random.Random(seed)
    p, q, r = (rand_poly(rng) for _ in range(3))
    assert no_mul(PARAMS, p, q + r) == no_mul(PARAMS, p, q) + no_mul(PARAMS, p, r)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_commutator_antisymmetry_and_leibniz(seed):
    rng = random.Random(seed)
    p, q, r = (rand_poly(rng) for _ in range(3))
    assert no_commutator(PARAMS, p, p) == NOPoly()
    assert no_commutator(PARAMS, p, q) == -no_commutator(PARAMS, q, p)
    lhs = no_commutator(PARAMS, p, no_mul(PARAMS, q, r))
    rhs = no_mul(PARAMS, no_commutator(PARAMS, p, q), r) + no_mul(
        PARAMS, q, no_commutator(PARAMS, p, r)
    )
    assert lhs == rhs


def test_nopoly_rejects_a_key_that_is_not_a_sorted_word():
    # read as exponents, (3, 2) was N1^3 N2^2; as a word it is unsorted
    for key in [(3, 2), (0, 6), (-1, 0), (1.0,), (True,), ("P1",), ("P1", 0), 3]:
        with pytest.raises(ValueError):
            NOPoly({key: 1})
    assert NOPoly({(2, 3): 1}) == no_mul(PARAMS, P1, P2)


def test_nopoly_coefficients_fail_closed():
    # a float would be stored as its binary value, 0.1 as 3602879701896397/2**55
    for bad in (0.1, 1.0, float("nan"), Poly.symbol("k")):
        for build in (lambda x: NOPoly({(0,): x}), NOPoly.scalar, lambda x: x * P1):
            with pytest.raises(TypeError):
                build(bad)
    assert NOPoly({(0,): "1/3"}) == F(1, 3) * N1 == NOPoly({(0,): F(1, 3)})
    assert NOPoly.scalar(2) == 2 * ONE


def _exponents(word):
    return tuple(word.count(g) for g in range(len(GEN_NAMES)))


def _exponent_order(word):
    """The order of terms in a repr when monomials were exponent tuples: by
    degree, then by descending exponents.  A test-only oracle."""
    mono = _exponents(word)
    return (sum(mono), tuple(-e for e in mono))


def test_repr_order_is_the_exponent_tuple_order():
    words = monomials_up_to(4)
    random.Random(3).shuffle(words)
    assert sorted(words, key=lambda w: (len(w), w)) == sorted(words, key=_exponent_order)
    bodies = [
        "*".join(f"{GEN_NAMES[g]}^{e}" if e > 1 else GEN_NAMES[g] for g, e in enumerate(_exponents(w)) if e)
        for w in sorted(words, key=_exponent_order)
    ]
    assert repr(NOPoly({w: 1 for w in words})) == " + ".join(body or "1" for body in bodies)


def test_scalars_are_central():
    assert is_central(PARAMS, NOPoly.scalar(F(7, 3)))
    assert is_central(PARAMS, NOPoly())


def test_internal_energy_coefficients():
    c1 = internal_energy(ExtensionParams(F(3), F(2), F(0)))
    assert c1.terms[(2, 2)] == F(-1, 4)
    assert c1.terms[(4,)] == F(1)
    with pytest.raises(ValueError):
        internal_energy(ExtensionParams(F(1), F(0), F(0)))


def test_internal_angular_momentum_coefficients():
    c2 = internal_angular_momentum(ExtensionParams(F(0), F(1), F(0)))
    assert c2 == NOPoly(
        {
            (5,): F(1),
            (0, 3): F(-1),
            (1, 2): F(1),
        }
    )
    with pytest.raises(ValueError):
        internal_angular_momentum(ExtensionParams(F(1), F(0), F(0)))


def test_casimir_table_mass_nonzero():
    rng = random.Random(31)
    for _ in range(20):
        p = random_params(rng, nonzero_m=True)
        p0 = ExtensionParams(p.k, p.m, F(0))
        assert is_central(p0, internal_energy(p0))
        assert is_central(p0, internal_angular_momentum(p0))


def test_casimir_table_massless():
    rng = random.Random(32)
    for _ in range(20):
        l = F(rng.randint(-6, 6), rng.randint(1, 3))
        # k = 0: both invariants commute
        p00 = ExtensionParams(F(0), F(0), l)
        assert is_central(p00, momentum_squared())
        assert is_central(p00, boost_momentum_cross())
        # k != 0: the cross term fails, momentum squared survives
        k = F(rng.randint(1, 6), rng.randint(1, 3))
        pk0 = ExtensionParams(k, F(0), l)
        assert is_central(pk0, momentum_squared())
        assert not is_central(pk0, boost_momentum_cross())


def test_centrality_defect_identities():
    rng = random.Random(33)
    for _ in range(20):
        p = ExtensionParams(random_rational(rng), random_rational(rng, True), random_rational(rng, True))
        c1 = internal_energy(p)
        c2 = internal_angular_momentum(p)
        assert no_commutator(p, M, c1) == NOPoly.scalar(p.l)
        assert no_commutator(p, H, c2) == NOPoly.scalar(-p.l)
        assert not is_central(p, c1)
        assert not is_central(p, c2)


def test_centralizer_degree_zero():
    assert centralizer_basis(ExtensionParams(1, 1, 1), 0) == (ONE,)


def test_centralizer_degree_two_spans_invariants():
    p = ExtensionParams(F(5), F(2), F(0))
    cb = centralizer_basis(p, 2)
    assert len(cb) == 3
    assert in_span(cb, ONE)
    assert in_span(cb, internal_energy(p))
    assert in_span(cb, internal_angular_momentum(p))
    assert not in_span(cb, momentum_squared())
    for e in cb:
        assert is_central(p, e)


def test_centralizer_all_charges_active_is_trivial():
    cb = centralizer_basis(ExtensionParams(F(2), F(1), F(1)), 3)
    assert len(cb) == 1
    assert in_span(cb, ONE)


def test_centralizer_rejects_negative_degree():
    with pytest.raises(ValueError):
        centralizer_basis(PARAMS, -1)


def test_centrality_survives_charge_removal_substitution():
    # the isomorphism g_(0,m,l) -> g_(k,m,l) acts on generators by
    # N_i -> N_i + s eps_ij P_j, s = k/2m, linearly in the boosts, so it takes
    # N1 P2 - N2 P1 to N1 P2 - N2 P1 + s (P1^2 + P2^2) and the k = 0 angular
    # invariant M - (1/m)(N1 P2 - N2 P1) to the literal below
    for k, m in ((F(3), F(2)), (F(-5, 3), F(7, 4))):
        p_k = ExtensionParams(k, m, F(0))
        s = k / (2 * m)
        moved = NOPoly({(5,): 1, (0, 3): -1 / m, (1, 2): 1 / m, (2, 2): -s / m, (3, 3): -s / m})
        assert is_central(p_k, moved)
        # an exact combination of the k != 0 invariants
        assert moved == internal_angular_momentum(p_k) + (k / m) * internal_energy(p_k)


def _bracket_table(alg):
    """[g_a, g_b] as (word, coeff) pairs read from the tensor row; E is the empty word."""
    table = {}
    for a, na in enumerate(GEN_NAMES):
        for b, nb in enumerate(GEN_NAMES):
            row = alg.tensor[alg.index(na)][alg.index(nb)]
            table[(a, b)] = [
                (() if lbl == "E" else (GEN_NAMES.index(lbl),), co)
                for lbl, co in zip(alg.labels, row)
                if co
            ]
    return table


def _rightmost_normal_form(brackets, word):
    """Independent oracle: normal order by rewriting the rightmost inversion.

    Keeps a worklist of words instead of a memoized recursion, so it shares
    no code with the leftmost-first engine in `enveloping`.
    """
    pending, done = {tuple(word): F(1)}, {}
    while pending:
        w, c = pending.popitem()
        inversions = [i for i in range(len(w) - 1) if w[i] > w[i + 1]]
        if not inversions:
            done[w] = done.get(w, F(0)) + c
            continue
        i = inversions[-1]
        for new, co in [((w[i + 1], w[i]), F(1))] + brackets[(w[i], w[i + 1])]:
            nw = w[:i] + new + w[i + 2:]
            pending[nw] = pending.get(nw, F(0)) + c * co
    return {m: c for m, c in done.items() if c}


def _oracle_centralizer(alg, max_degree):
    brackets = _bracket_table(alg)
    monos = monomials_up_to(max_degree)
    rows = {}
    for g in range(len(GEN_NAMES)):
        for col, word in enumerate(monos):
            com = _rightmost_normal_form(brackets, (g,) + word)
            for m, co in _rightmost_normal_form(brackets, word + (g,)).items():
                com[m] = com.get(m, F(0)) - co
            for m, co in com.items():
                if co:
                    rows.setdefault((g, m), {})[col] = co
    kernel = exact_nullspace(rows.values(), len(monos))
    return tuple(NOPoly({monos[i]: c for i, c in enumerate(v) if c}) for v in kernel)


# centralizer dimension at degrees 0..6, one charge set per regime
CENTRALIZER_TABLE = [
    (ExtensionParams(F(3, 2), F(2), F(0)), (1, 1, 3, 3, 6, 6, 10)),  # m != 0, l = 0
    (ExtensionParams(F(3, 2), F(2), F(1, 3)), (1, 1, 1, 1, 1, 1, 1)),  # m != 0, l != 0
    (ExtensionParams(F(0), F(0), F(7, 2)), (1, 1, 3, 3, 6, 6, 10)),  # m = 0, k = 0
    (ExtensionParams(F(-2, 3), F(0), F(0)), (1, 1, 3, 3, 6, 6, 10)),  # m = 0, l = 0
    (ExtensionParams(F(5, 2), F(0), F(-3)), (1, 1, 2, 2, 3, 3, 4)),  # m = 0, k, l != 0
]


def _table_dimension(params, degree):
    """The dimension `casimir` expects: the products of degree <= `degree` of
    the regime's g invariants."""
    g = len(casimir_invariants(params))
    return comb(degree // 2 + g, g)


@pytest.mark.parametrize("params,dims", CENTRALIZER_TABLE)
def test_casimir_table_is_central_and_spans_the_degree_2_centralizer(params, dims):
    table = casimir_invariants(params)
    assert all(is_central(params, c) for c in table)
    basis = centralizer_basis(params, 2)
    assert all(in_span((ONE, *table), b) for b in basis)
    assert all(in_span(basis, c) for c in (ONE, *table))


def test_casimir_table_covers_m_0_l_0_k_nonzero():
    # the cross invariant there needs the k H term, which N1 P2 - N2 P1 lacks
    params = ExtensionParams(F(-2, 3), F(0), F(0))
    cross, p_squared = NOPoly({(4,): 2, (0, 3): -3, (1, 2): 3}), NOPoly({(2, 2): 1, (3, 3): 1})
    assert centralizer_basis(params, 2) == (ONE, cross, p_squared)
    assert casimir_invariants(params) == (p_squared, F(-1, 3) * cross)


@pytest.mark.parametrize("params,dims", CENTRALIZER_TABLE)
def test_centralizer_table_from_rightmost_first_oracle(params, dims):
    alg = make_galilei_algebra(params)  # the oracle reads the brackets off the tensor
    for degree, dim in enumerate(dims[:6]):
        oracle = _oracle_centralizer(alg, degree)
        assert len(oracle) == dim, degree
        assert centralizer_basis(params, degree) == oracle, degree
        assert _table_dimension(params, degree) == dim, degree


@pytest.mark.parametrize("params,dims", CENTRALIZER_TABLE)
def test_centralizer_table_at_degree_6(params, dims):
    # the top of the CLI's degree range, without the (slower) oracle
    assert len(centralizer_basis(params, 6)) == dims[6]
    assert _table_dimension(params, 6) == dims[6]


# sha256 of `casimir --format=json` at degrees 0..4 for each CENTRALIZER_TABLE
# charge set; the reports print the basis, so this pins its reprs
CASIMIR_JSON_SHA256 = [
    (
        "8b7aa8da81149df00312d02ea892ce3c78894166c87c0868d2233369e7c67d94",
        "5585a13355e9f344ad89c67492c902a9591f9f2cc61001e4939481266da9e404",
        "d7bdf1885a92f83288703c8c0ce92c7efd0768535eb30ac9de15364fefb4dcf8",
        "6ed5cc8ad1954a8342bbbe2e339f6a879acc4f60f541a48391b9fe4953773786",
        "a7de1b04da52c16b8aa848d1f96d699239899deff949520fd4f441fecbf04574",
    ),
    (
        "fc0537188b8c564fead090479c21665cd9d8f114dc8b24889e257ad61dcec189",
        "de35aa2f5115781f07c7221a81c98a27b61f7702a07f3e67d58edccbe2e625cc",
        "3b160d391395bcb089ac2d6debc10c476586690bc68255490dd43213c8630968",
        "25c253b9e2a68aa4a685a8e4625896abfd46fe2768c33b1b3db91c67f59535b6",
        "07a2c79f684ac9297b07945e96b5d56ccf9ad73639a901ab603bf5cbe6a74e7b",
    ),
    (
        "8c9fcd2dd42463a67f715ce9703c2c5f8b76b6273cf3f6ad1961bb65bd94803a",
        "b7fb0a97b4b1dae4e6d54e60d80ae52a428625e2738d4f2c06ff924c7334fc62",
        "54c6fb21ba3b05409d40555cada58e8a705071aeda6369fd974933e677a40958",
        "25c04de47d85942f2dae299f87aeef33e758719889806e24ab4054820c7dd8e5",
        "a894b6b27d498260adbfa13780916e7f76056998b9cb2ab00080bdddf0739a07",
    ),
    (
        "0894e7f9dbb1ba2d87d55bede00fd20106b07e25529b1e148796f64e441f5c87",
        "911ac8d51daffd04181af15d01658a147e235de23fe5cfd13992f14be63be7e7",
        "4e18b2a0ba31dfc4d20ca4fc2e1f5e3b8f01e4735d481ad58c0f659374b0e454",
        "59051de892fc338a010da78d316592b60e43a2932cfba884853f90d4ebd1c1f8",
        "b673bf3936fc6886717b4239f9f8b7d1f340255833170ebdfbec701b05825829",
    ),
    (
        "ee44577b991afb9f7bb31f097470f05faacc7af09a3e37d8aebb54977317af45",
        "bd19cffd516dd9b2d54e8a565d1af35022535b20795c3128debde9ddae685ecf",
        "5e8196031a0bd563391ea6e5c02bcb3cf8b2a1dccc7f5e3e386d371a7eedf7cd",
        "9eb119371de172068d0f9e7dcaafe72f57cb615bb45f060f455941956a3d89aa",
        "737700ea209761c79d336e105275d54e53704f9419a10748dd0b23177b4a1162",
    ),
]


@pytest.mark.parametrize("params,digests", zip([p for p, _ in CENTRALIZER_TABLE], CASIMIR_JSON_SHA256))
def test_casimir_reports_match_golden_digest(tmp_path, params, digests):
    path = tmp_path / "report.json"
    for degree, digest in enumerate(digests):
        argv = ["casimir", f"--k={params.k}", f"--m={params.m}", f"--l={params.l}", f"--max-degree={degree}"]
        assert main([*argv, "--format", "json", "--out", str(path)]) == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, degree


def test_three_generator_premise_holds_at_symbolic_charges():
    # what centralizer_basis relies on to solve with the rows of N1, H, M only,
    # as identities in k, m and l: a Lie algebra with E central whose brackets
    # [N1,H], [M,N1], [N2,H] are exactly P1, N2, P2, so N1, H, M generate the rest
    alg = make_galilei_algebra(ExtensionParams(*(Poly.symbol(n) for n in "kml")))
    t, i, dim = alg.tensor, alg.index, alg.dim
    assert all(t[a][b][n] == -t[b][a][n] for a in range(dim) for b in range(dim) for n in range(dim))
    assert all(t[i("E")][b][n] == 0 for b in range(dim) for n in range(dim))
    for x, y, z in (("N1", "H", "P1"), ("M", "N1", "N2"), ("N2", "H", "P2")):
        assert t[i(x)][i(y)] == tuple(int(label == z) for label in alg.labels), (x, y)
    assert all(entry == 0 for entry in jacobi_entries(alg))


@pytest.mark.parametrize("params", [params for params, _ in CENTRALIZER_TABLE])
def test_three_generator_rows_give_the_six_generator_basis_at_degree_5(params):
    basis, six_rows = _six_row_centralizer(params, 5)
    assert centralizer_basis(params, 5) == basis
    assert len(enveloping_module._centralizer_rows(params, monomials_up_to(5))) < six_rows


def _reference_nullspace(rows, ncols):
    """exact_nullspace with back-substitution in Fraction sums, as it was written
    before the integer back-substitution: a test-only reference."""
    pivots = _eliminate(_integer_rows(rows))
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = [F(0)] * ncols
        vec[free] = F(1)
        for col in sorted(pivots, reverse=True):
            row = pivots[col]
            s = sum((F(v) * vec[j] for j, v in row.items() if j != col), F(0))
            if s:
                vec[col] = -s / row[col]
        den = lcm(*(c.denominator for c in vec if c)) if any(vec) else 1
        basis.append(tuple(c * den for c in vec))
    return basis


def test_exact_nullspace_matches_fraction_back_substitution():
    rng = random.Random(41)
    assert exact_nullspace([], 0) == [] == _reference_nullspace([], 0)
    assert exact_nullspace([], 3) == _reference_nullspace([], 3)  # no rows: all free
    assert exact_nullspace([{}, {}], 2) == _reference_nullspace([], 2)  # empty rows skipped
    for _ in range(300):
        ncols = rng.randint(1, 12)
        used = rng.sample(range(ncols), rng.randint(1, ncols))  # the rest: all-zero columns
        rows = [{} for _ in range(rng.randint(0, 2))]
        for _ in range(rng.randint(0, ncols + 2)):
            cols = rng.sample(used, rng.randint(1, len(used)))
            rows.append({j: F(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 6)) for j in cols})
        rng.shuffle(rows)
        got = exact_nullspace(rows, ncols)
        assert got == _reference_nullspace(rows, ncols)
        assert all(type(c) is F for vec in got for c in vec)


def test_explicit_zero_entries_are_dropped():
    assert exact_nullspace([{0: F(0)}], 1) == [(F(1),)]
    assert exact_nullspace([{0: F(0), 1: F(1)}], 2) == [(F(1), F(0))]  # a zero never pivots
    zero_term = NOPoly()
    zero_term.terms = {(0,) * len(GEN_NAMES): F(0)}  # a zero stored past the constructor
    assert in_span([zero_term], NOPoly())
    assert not in_span([zero_term], ONE)


def _commutator_rows(params, degree):
    """The centralizer system over all six generators, in `Fraction`s from
    `no_commutators`: one {column: coefficient} row per (generator, monomial)."""
    monos = monomials_up_to(degree)
    pairs = [(NOPoly.generator(g), NOPoly({mono: 1})) for g in GEN_NAMES for mono in monos]
    rows = {}
    for i, com in enumerate(no_commutators(params, pairs)):
        for mono, co in com.terms.items():
            rows.setdefault((i // len(monos), mono), {})[i % len(monos)] = co
    return list(rows.values())


def _six_row_centralizer(params, degree):
    """The basis from the rows of all six generators, and how many rows they are."""
    monos = monomials_up_to(degree)
    rows = _commutator_rows(params, degree)
    kernel = exact_nullspace(rows, len(monos))
    return tuple(NOPoly({monos[i]: c for i, c in enumerate(v) if c}) for v in kernel), len(rows)


def _fraction_rank(rows):
    """Rank by plain Gaussian elimination in `Fraction`s: a test-only reference
    that shares nothing with `_eliminate`."""
    pivots = {}
    for row in rows:
        row = {j: F(v) for j, v in row.items() if v}
        while row and min(row) in pivots:
            col = min(row)
            f = row[col] / pivots[col][col]
            for j, v in pivots[col].items():
                row[j] = row.get(j, F(0)) - f * v
            row = {j: v for j, v in row.items() if v}
        if row:
            pivots[min(row)] = row
    return len(pivots)


@pytest.mark.parametrize("params,dims", CENTRALIZER_TABLE)
def test_nullspace_of_degree_4_system_is_independent_of_row_order(params, dims):
    rows = _commutator_rows(params, 4)
    ncols = len(monomials_up_to(4))
    basis = exact_nullspace(rows, ncols)
    assert len(basis) == dims[4] == ncols - _fraction_rank(rows)
    for vec in basis:
        assert all(sum(co * vec[j] for j, co in row.items()) == 0 for row in rows)
    for seed in range(3):
        # the same row space: rows shuffled and each scaled by a nonzero rational
        rng = random.Random(seed)
        scales = [F(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9)) for _ in rows]
        moved = [{j: co * scale for j, co in row.items()} for row, scale in zip(rows, scales)]
        rng.shuffle(moved)
        assert exact_nullspace(moved, ncols) == basis, seed


# charges whose denominators 5, 6, 9 make the orderer's common denominator 90
MIXED_DENOMINATORS = ExtensionParams(F(-9, 5), F(7, 6), F(2, 9))


def test_oracle_agrees_with_no_mul():
    rng = random.Random(7)
    for params in (ExtensionParams(F(3, 2), F(2), F(1, 3)), MIXED_DENOMINATORS):
        brackets = _bracket_table(make_galilei_algebra(params))
        for _ in range(30):
            word = tuple(rng.randrange(len(GEN_NAMES)) for _ in range(rng.randint(0, 6)))
            prod = ONE
            for g in word:
                prod = no_mul(params, prod, NOPoly.generator(GEN_NAMES[g]))
            assert NOPoly(_rightmost_normal_form(brackets, word)) == prod, (params, word)


def test_normal_orderer_memo_holds_integer_numerators():
    orderer = enveloping_module._NormalOrderer(MIXED_DENOMINATORS)
    assert orderer.den == 90
    rng = random.Random(8)
    for _ in range(30):
        word = tuple(rng.randrange(len(GEN_NAMES)) for _ in range(rng.randint(0, 6)))
        orderer[word]
    assert all(type(co) is int for nf in orderer.values() for co in nf.values())
    # the numerators of D**len(word) times the normal form
    for word, nf in list(orderer.items())[:40]:
        prod = ONE
        for g in word:
            prod = no_mul(MIXED_DENOMINATORS, prod, NOPoly.generator(GEN_NAMES[g]))
        assert NOPoly(nf) == 90 ** len(word) * prod, word


def test_enveloping_keeps_no_algebra_alive():
    # the charges name the algebra; charges used by no other test, as a cache
    # keyed on equal charges given earlier would hold those, not these
    params = ExtensionParams(F(11, 7), F(-5, 3), F(13, 4))
    centralizer_basis(params, 2)
    no_mul(params, no_mul(params, P1, N1), H)
    ref = weakref.ref(params)
    del params
    gc.collect()
    assert ref() is None


def test_shared_orderer_gives_the_per_product_commutators():
    rng = random.Random(9)
    pairs = [(rand_poly(rng), rand_poly(rng)) for _ in range(12)]
    assert no_commutators(PARAMS, pairs) == [no_mul(PARAMS, p, q) - no_mul(PARAMS, q, p) for p, q in pairs]
    # charges used by no other test, as in test_enveloping_keeps_no_algebra_alive
    params = ExtensionParams(F(-7, 5), F(11, 6), F(2, 9))
    no_commutators(params, pairs)
    is_central(params, internal_energy(params))
    ref = weakref.ref(params)
    del params
    gc.collect()
    assert ref() is None


def test_orderers_are_freed_without_the_cycle_collector(monkeypatch):
    built, real = [], enveloping_module._NormalOrderer

    def spy(params):
        orderer = real(params)
        built.append(weakref.ref(orderer))
        return orderer

    monkeypatch.setattr(enveloping_module, "_NormalOrderer", spy)
    c1 = internal_energy(ExtensionParams(F(5), F(2), F(0)))
    calls = {
        "no_mul": lambda: no_mul(PARAMS, P1, N1),
        "no_commutators": lambda: no_commutators(PARAMS, [(N1, c1), (M, c1)]),
        "is_central": lambda: is_central(PARAMS, c1),
        "centralizer_basis": lambda: centralizer_basis(PARAMS, 2),
    }
    gc.disable()
    try:
        for name, call in calls.items():
            built.clear()
            call()
            assert len(built) == 1 and built[0]() is None, name
    finally:
        gc.enable()
