import gc
import hashlib
import itertools
import json
import random
import weakref
from fractions import Fraction as F
from math import comb, gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import galilei21.enveloping as enveloping_module
from galilei21.algebra import (
    GALILEI_LABELS,
    ExtensionParams,
    LieAlgebra,
    Poly,
    jacobi_entries,
    make_galilei_algebra,
)
from galilei21.enveloping import (
    GEN_NAMES,
    NOPoly,
    NormalOrderer,
    _eliminate,
    boost_momentum_cross,
    casimir_invariants,
    centralizer_basis,
    centralizer_dimension,
    generator_brackets,
    internal_angular_momentum,
    internal_energy,
    momentum_squared,
    monomials_up_to,
    rank,
)
from galilei21.cli import main
from enveloping_checks import central, commutator, commutators, in_span, no_mul, orderer_at, table_basis
from scalar_sampler import random_params, random_rational

PARAMS = ExtensionParams(F(5), F(2), F(0))
N1 = NOPoly.generator("N1")
N2 = NOPoly.generator("N2")
P1 = NOPoly.generator("P1")
P2 = NOPoly.generator("P2")
H = NOPoly.generator("H")
M = NOPoly.generator("M")
ONE = NOPoly.scalar(1)


def _integral(rows):
    """Each row times the lcm of its denominators: the integer rows that
    `_eliminate` takes, with the same row space."""
    out = []
    for row in rows:
        den = lcm(*(F(c).denominator for c in row.values()))
        out.append({j: int(c * den) for j, c in row.items()})
    return out


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
            com = commutator(PARAMS, NOPoly.generator(a), NOPoly.generator(b))
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
    out = commutator(PARAMS, N1, no_mul(PARAMS, P1, P1))
    assert out == NOPoly({(2,): F(4)})  # 2m P1, m = 2


def test_rotation_annihilates_cross_term():
    cross = no_mul(PARAMS, N1, P2) - no_mul(PARAMS, N2, P1)
    assert not commutator(PARAMS, M, cross)


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
    assert commutator(PARAMS, p, p) == NOPoly()
    assert commutator(PARAMS, p, q) == -commutator(PARAMS, q, p)
    lhs = commutator(PARAMS, p, no_mul(PARAMS, q, r))
    rhs = no_mul(PARAMS, commutator(PARAMS, p, q), r) + no_mul(
        PARAMS, q, commutator(PARAMS, p, r)
    )
    assert lhs == rhs


def test_nopoly_rejects_a_key_that_is_not_a_sorted_word():
    # read as exponents, (3, 2) was N1^3 N2^2; as a word it is unsorted
    for key in [(3, 2), (0, 6), (-1, 0), (1.0,), (True,), ("P1",), ("P1", 0), 3]:
        with pytest.raises(ValueError):
            NOPoly({key: 1})
    assert NOPoly({(2, 3): 1}) == no_mul(PARAMS, P1, P2)
    # E is no generator but the unit, and an unknown name says which are
    for name in ("E", "X", "n1", ""):
        with pytest.raises(ValueError, match=r"the generators are N1, N2, P1, P2, H, M, and E is the unit"):
            NOPoly.generator(name)


def test_nopoly_coefficients_fail_closed():
    # a float would be stored as its binary value, 0.1 as 3602879701896397/2**55
    for bad in (0.1, 1.0, float("nan"), Poly.symbol("k")):
        for build in (lambda x: NOPoly({(0,): x}), NOPoly.scalar, lambda x: x * P1):
            with pytest.raises(TypeError):
                build(bad)
    assert NOPoly({(0,): "1/3"}) == F(1, 3) * N1 == NOPoly({(0,): F(1, 3)})
    assert NOPoly.scalar(2) == 2 * ONE


def test_nopoly_arithmetic_is_polys_and_fails_closed():
    p, q, r = N1 + F(1, 2) * P2, H - M, F(-3, 4)
    for bad in (lambda: p * q, lambda: p / 2, lambda: 2 / p, lambda: p * 0.5, lambda: 0.5 * p,
                lambda: p / q, lambda: p + 0.5, lambda: p + Poly.symbol("k"), lambda: Poly.symbol("k") + p,
                lambda: Poly.symbol("k") * p, lambda: NOPoly({(0,): Poly.symbol("k")}),
                lambda: ExtensionParams(NOPoly.generator("N1"), 1, 0)):
        with pytest.raises(TypeError):
            bad()
    # a rational operand is a constant: these raised AttributeError before NOPoly was a Poly
    constant = NOPoly({(): r})
    assert type(p + r) is type(r + p) is type(p - r) is type(sum([p, q])) is type(p * r) is NOPoly
    assert p + r == r + p == NOPoly({(0,): 1, (3,): F(1, 2), (): r}) and p - r == p + constant * -1
    assert r - p == -p + constant and sum([p, q]) == p + q and p * r == r * p == NOPoly({(0,): r, (3,): r / 2})
    assert NOPoly.scalar(r) == r and NOPoly.scalar(2) == 2 and NOPoly() == 0 and not NOPoly()
    assert p != Poly({(0,): 1, (3,): F(1, 2)}) and Poly({}) != NOPoly() and NOPoly() != 0.0
    assert not hasattr(p, "terms")  # the polynomial is its own {word: coefficient} mapping


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
    assert central(PARAMS, NOPoly.scalar(F(7, 3)))
    assert central(PARAMS, NOPoly())


def test_internal_energy_coefficients():
    c1 = internal_energy(ExtensionParams(F(3), F(2), F(0)))
    assert c1[(2, 2)] == F(-1, 4)
    assert c1[(4,)] == F(1)
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
        assert central(p0, internal_energy(p0))
        assert central(p0, internal_angular_momentum(p0))


def test_casimir_table_massless():
    rng = random.Random(32)
    for _ in range(20):
        l = F(rng.randint(-6, 6), rng.randint(1, 3))
        # k = 0: both invariants commute
        p00 = ExtensionParams(F(0), F(0), l)
        assert central(p00, momentum_squared())
        assert central(p00, boost_momentum_cross())
        # k != 0: the cross term fails, momentum squared survives
        k = F(rng.randint(1, 6), rng.randint(1, 3))
        pk0 = ExtensionParams(k, F(0), l)
        assert central(pk0, momentum_squared())
        assert not central(pk0, boost_momentum_cross())


def test_centrality_defect_identities():
    rng = random.Random(33)
    for _ in range(20):
        p = ExtensionParams(random_rational(rng), random_rational(rng, True), random_rational(rng, True))
        c1 = internal_energy(p)
        c2 = internal_angular_momentum(p)
        assert commutator(p, M, c1) == NOPoly.scalar(p.l)
        assert commutator(p, H, c2) == NOPoly.scalar(-p.l)
        assert not central(p, c1)
        assert not central(p, c2)


def test_centralizer_degree_zero():
    assert table_basis(ExtensionParams(1, 1, 1), 0) == (ONE,)


def test_centralizer_degree_two_spans_invariants():
    p = ExtensionParams(F(5), F(2), F(0))
    cb = table_basis(p, 2)
    assert len(cb) == 3
    assert in_span(cb, ONE)
    assert in_span(cb, internal_energy(p))
    assert in_span(cb, internal_angular_momentum(p))
    assert not in_span(cb, momentum_squared())
    for e in cb:
        assert central(p, e)


def test_centralizer_all_charges_active_is_trivial():
    cb = table_basis(ExtensionParams(F(2), F(1), F(1)), 3)
    assert len(cb) == 1
    assert in_span(cb, ONE)


def test_centralizer_rejects_negative_degree():
    with pytest.raises(ValueError):
        centralizer_basis(orderer_at(PARAMS), casimir_invariants(PARAMS), -1)
    with pytest.raises(ValueError):
        centralizer_dimension(orderer_at(PARAMS), -1)


def test_centrality_survives_charge_removal_substitution():
    # the isomorphism g_(0,m,l) -> g_(k,m,l) acts on generators by
    # N_i -> N_i + s eps_ij P_j, s = k/2m, linearly in the boosts, so it takes
    # N1 P2 - N2 P1 to N1 P2 - N2 P1 + s (P1^2 + P2^2) and the k = 0 angular
    # invariant M - (1/m)(N1 P2 - N2 P1) to the literal below
    for k, m in ((F(3), F(2)), (F(-5, 3), F(7, 4))):
        p_k = ExtensionParams(k, m, F(0))
        s = k / (2 * m)
        moved = NOPoly({(5,): 1, (0, 3): -1 / m, (1, 2): 1 / m, (2, 2): -s / m, (3, 3): -s / m})
        assert central(p_k, moved)
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


def _fraction_pivots(rows):
    """The leading columns of the row space, by plain Gaussian elimination in
    `Fraction`s: a test-only reference that shares nothing with `_eliminate`."""
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
    return set(pivots)


def _fraction_rank(rows):
    return len(_fraction_pivots(rows))


def _oracle_commutator(brackets, g, p):
    """[g, p] in normal-ordered words, by the rightmost-first oracle."""
    com = {}
    for word, c in p.items():
        for sign, product in ((1, (g,) + word), (-1, word + (g,))):
            for m, co in _rightmost_normal_form(brackets, product).items():
                com[m] = com.get(m, F(0)) + sign * c * co
    return {m: c for m, c in com.items() if c}


def _oracle_dimension(brackets, max_degree):
    """The degree <= max_degree centralizer's dimension: columns minus the
    rank of [g, X] = 0 for all six generators, every product ordered by the
    rightmost-first oracle and the rank taken in `Fraction`s."""
    monos = monomials_up_to(max_degree)
    rows = {}
    for g in range(len(GEN_NAMES)):
        for col, word in enumerate(monos):
            for m, co in _oracle_commutator(brackets, g, NOPoly({word: 1})).items():
                rows.setdefault((g, m), {})[col] = co
    return len(monos) - _fraction_rank(rows.values())


def _assert_products_match_the_oracle(params, max_degree):
    """The table's products are the centralizer by the oracle alone: each
    commutes with all six generators, they are independent, and they are as
    many as the oracle's dimension.  Returns that dimension."""
    brackets = _bracket_table(make_galilei_algebra(params))  # read off the tensor
    basis = table_basis(params, max_degree)
    assert not any(_oracle_commutator(brackets, g, p) for p in basis for g in range(len(GEN_NAMES)))
    assert _fraction_rank(basis) == len(basis) == _oracle_dimension(brackets, max_degree)
    return len(basis)


# centralizer dimension at degrees 0..10, one charge set per regime
CENTRALIZER_TABLE = [
    (ExtensionParams(F(3, 2), F(2), F(0)), (1, 1, 3, 3, 6, 6, 10, 10, 15, 15, 21)),  # m != 0, l = 0
    (ExtensionParams(F(3, 2), F(2), F(1, 3)), (1,) * 11),  # m != 0, l != 0
    (ExtensionParams(F(0), F(0), F(7, 2)), (1, 1, 3, 3, 6, 6, 10, 10, 15, 15, 21)),  # m = 0, k = 0
    (ExtensionParams(F(-2, 3), F(0), F(0)), (1, 1, 3, 3, 6, 6, 10, 10, 15, 15, 21)),  # m = 0, l = 0
    (ExtensionParams(F(5, 2), F(0), F(-3)), (1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6)),  # m = 0, k, l != 0
    (ExtensionParams(F(0), F(0), F(0)), (1, 1, 3, 3, 6, 6, 10, 10, 15, 15, 21)),  # every charge 0, D = 1
]


def _table_dimension(params, degree):
    """The dimension `casimir` expects: the products of degree <= `degree` of
    the regime's g invariants."""
    g = len(casimir_invariants(params))
    return comb(degree // 2 + g, g)


def _assert_proved(params, degree, dim):
    """The proof `casimir` runs: the table is central, and its products are
    independent and as many as the centralizer's dimension."""
    assert all(central(params, c) for c in casimir_invariants(params))
    basis = table_basis(params, degree)
    dimension = centralizer_dimension(orderer_at(params), degree)
    assert rank(basis) == len(basis) == dimension == dim == _table_dimension(params, degree)


@pytest.mark.parametrize("params,dims", CENTRALIZER_TABLE)
def test_casimir_table_is_central_and_spans_the_degree_2_centralizer(params, dims):
    table = casimir_invariants(params)
    assert all(central(params, c) for c in table)
    basis = table_basis(params, 2)
    assert all(in_span((ONE, *table), b) for b in basis)
    assert all(in_span(basis, c) for c in (ONE, *table))
    assert centralizer_dimension(orderer_at(params), 2) == dims[2]


def test_casimir_table_covers_m_0_l_0_k_nonzero():
    # the cross invariant there needs the k H term, which N1 P2 - N2 P1 lacks
    params = ExtensionParams(F(-2, 3), F(0), F(0))
    cross, p_squared = NOPoly({(4,): 2, (0, 3): -3, (1, 2): 3}), NOPoly({(2, 2): 1, (3, 3): 1})
    basis, expected = table_basis(params, 2), (ONE, cross, p_squared)
    assert all(in_span(basis, e) for e in expected) and all(in_span(expected, b) for b in basis)
    assert len(basis) == 3
    assert casimir_invariants(params) == (p_squared, F(-1, 3) * cross)


@pytest.mark.parametrize("params,dims", CENTRALIZER_TABLE)
def test_centralizer_table_from_rightmost_first_oracle(params, dims):
    for degree, dim in enumerate(dims[:6]):
        assert _assert_products_match_the_oracle(params, degree) == dim, degree
        assert centralizer_dimension(orderer_at(params), degree) == dim == _table_dimension(params, degree), degree


@pytest.mark.parametrize("params,dims", CENTRALIZER_TABLE)
def test_centralizer_table_at_degree_6(params, dims):
    # the oracle is too slow here: the proof alone
    _assert_proved(params, 6, dims[6])


@pytest.mark.parametrize("degree", [8, 10])
@pytest.mark.parametrize("params,dims", CENTRALIZER_TABLE)
def test_centralizer_table_by_proof_to_the_degree_cap(params, dims, degree):
    _assert_proved(params, degree, dims[degree])


# sha256 of `casimir --format=json` at GOLDEN_DEGREES for each CENTRALIZER_TABLE
# charge set; the reports print the basis, so this pins its reprs, and
# test_casimir_notes_are_the_no_mul_products rebuilds those notes on their own
GOLDEN_DEGREES = (0, 1, 2, 3, 4, 5, 6, 8)
CASIMIR_JSON_SHA256 = [
    (
        "8b7aa8da81149df00312d02ea892ce3c78894166c87c0868d2233369e7c67d94",
        "5585a13355e9f344ad89c67492c902a9591f9f2cc61001e4939481266da9e404",
        "b7d516e9d1e0bc7796616ec9203fbab6b307c107aa87f7d735e30643aeb40831",
        "1fe60ea2660483e07ece4a2143feea0451c253a51e60438c64f6d24139f77eb8",
        "dfb1a3f74c1a301afd4309219489d8083c4bcf2f07c4dcb96217f8f9d31a1743",
        "69d325c4740206344840d0f56788556b1226a179b939f9f5557c442e996b7d50",
        "a74fb6090a303ce89030f242beebcb680a94611a1117032ce0f26b1c0bb60fb5",
        "c7f72b9a3f19eb2a975d8cbeb29e5c955aa910c569dbf8d2f31e69c388c9dd82",
    ),
    (
        "fc0537188b8c564fead090479c21665cd9d8f114dc8b24889e257ad61dcec189",
        "de35aa2f5115781f07c7221a81c98a27b61f7702a07f3e67d58edccbe2e625cc",
        "3b160d391395bcb089ac2d6debc10c476586690bc68255490dd43213c8630968",
        "25c253b9e2a68aa4a685a8e4625896abfd46fe2768c33b1b3db91c67f59535b6",
        "07a2c79f684ac9297b07945e96b5d56ccf9ad73639a901ab603bf5cbe6a74e7b",
        "c79f9ae2e85859207ef89d4bf3924b1ba0809945623c5f2db69c28eda9ffc939",
        "c47fabab11f797f13ff0a6cb4d5e2c24ffa87eed3dc45434474f2eb7f58a536f",
        "7c97c63d8b9d68c0e23b5891cccba9e78932f090dac0f8c3cd70d28edeff7fc2",
    ),
    (
        "8c9fcd2dd42463a67f715ce9703c2c5f8b76b6273cf3f6ad1961bb65bd94803a",
        "b7fb0a97b4b1dae4e6d54e60d80ae52a428625e2738d4f2c06ff924c7334fc62",
        "4d279a777525a711816e9f607092f39539be2d00c30ae35c038fe48e25b07118",
        "dec3caf0038285472042d8386d45adc9ff77d7242a0f3d7051c7ff0cac01ce35",
        "2f60ac82d88eaf81135527a949a2f94ecfee34a2e3ccbcf6878c9ebcc4835e0e",
        "f15ab24f53b261c4114f60788f0af96b368b83df9cfde0b9365d1601f1eb8b5a",
        "d6544814d1b0cd22d6787a3478f46797a5675a2d0d15d523bc7985cee3226359",
        "93411f79ce179b63ddea2a0e233c740002d063873dedd5e8a430e60bdbf6ea2b",
    ),
    (
        "0894e7f9dbb1ba2d87d55bede00fd20106b07e25529b1e148796f64e441f5c87",
        "911ac8d51daffd04181af15d01658a147e235de23fe5cfd13992f14be63be7e7",
        "fba66468470de71f72194e88fdaf457a2d6e4cb77c67e817ee56a4165b7a1b46",
        "6f39e750bda007dea0fb1d109481436db0f816a4a8cebd920be99fa8e94d090e",
        "26bab35d6d99fc5380c5b24445de2ea23300e3727e3a7f81804d6459889c4a5b",
        "e5e1e936a87e267e0cc42f31497152d64ab7855906a86caa81c6d311f02c2ec8",
        "39d5cfc056e7375a4539e2880831d55a624f99d65d91d6ce0c6c56336a4db9bd",
        "f9928c2b5b38edc62ead37e60d128605a381511d4936faff5ab6de6ab4be6c4a",
    ),
    (
        "ee44577b991afb9f7bb31f097470f05faacc7af09a3e37d8aebb54977317af45",
        "bd19cffd516dd9b2d54e8a565d1af35022535b20795c3128debde9ddae685ecf",
        "5e8196031a0bd563391ea6e5c02bcb3cf8b2a1dccc7f5e3e386d371a7eedf7cd",
        "9eb119371de172068d0f9e7dcaafe72f57cb615bb45f060f455941956a3d89aa",
        "737700ea209761c79d336e105275d54e53704f9419a10748dd0b23177b4a1162",
        "ebf50ff00503e7bc2014a4548d2d22bbad50c17658f063fe5f8d3231b97477c7",
        "16700e6d24b875f0830d75502c38c971a7c4885fce759f330983e798593a8b3d",
        "1de0ff8fb42c4e7db30ac024a39eed76ee3695761e42597e18e67d97c545fa7e",
    ),
    (
        "ff9c2a066feeaef7cc14b76014de71d9847e2d7a9045365d8a0b9da39a409d4a",
        "30cacadb6fd57e849bf8a96e0ebc19140f4f1a63e6b72468bf90f7e7692d8429",
        "e56a455602c31a9839624edad1fededaa9e417d4144ff13057c171d6dd7ed671",
        "61b2e6382b7f9e98aef5ca3db954195670f1a3147e87f8805218e3668aea90c4",
        "48cb9bb5270090cb4b2b5c3f4fe8163737aebda60dc657ac2dd6ed935a40bd0e",
        "53fc454ccda8b7ab1908652850d4c72e5f3f43f169dd12b594086e8cb50f2bd2",
        "5632e4ae255285e04f8c5c015a19535b1a368078134a7244af9317fd721ac678",
        "a666c0059c51cdb4d4606c6e280365f3b170b0500989a1a04a9de029318f7153",
    ),
]


def _casimir_report(tmp_path, params, degree):
    path = tmp_path / "report.json"
    argv = ["casimir", f"--k={params.k}", f"--m={params.m}", f"--l={params.l}", f"--max-degree={degree}"]
    assert main([*argv, "--format", "json", "--out", str(path)]) == 0
    return path.read_bytes()


@pytest.mark.parametrize("params,digests", zip([p for p, _ in CENTRALIZER_TABLE], CASIMIR_JSON_SHA256))
def test_casimir_reports_match_golden_digest(tmp_path, params, digests):
    for degree, digest in zip(GOLDEN_DEGREES, digests, strict=True):
        assert hashlib.sha256(_casimir_report(tmp_path, params, degree)).hexdigest() == digest, degree


@pytest.mark.parametrize("params", [params for params, _ in CENTRALIZER_TABLE])
def test_casimir_notes_are_the_no_mul_products(tmp_path, params):
    # each note rebuilt from `no_mul` products of the table, one orderer per
    # product, in graded order: 1, C1, C2, C1^2, C1 C2, C2^2, ...
    table = casimir_invariants(params)
    for degree in GOLDEN_DEGREES:
        products = {(): ONE}
        for n in range(1, degree // 2 + 1):
            for word in itertools.combinations_with_replacement(range(len(table)), n):
                products[word] = no_mul(params, products[word[:-1]], table[word[-1]])
        report = json.loads(_casimir_report(tmp_path, params, degree))
        row = {c["name"]: c for c in report["checks"]}["centralizer_dimension"]
        assert row == {"name": "centralizer_dimension", "defect": str(len(products)), "pass": True,
                       "note": "basis: " + "; ".join(map(repr, products.values()))}, degree


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


def test_words_index_the_algebra_basis_whose_last_element_is_the_central_unit():
    # the orderer reads alg.tensor[a][b] for generators a, b and evaluates the
    # last basis element to 1: that needs one order, and E last and central
    assert GEN_NAMES == GALILEI_LABELS[:-1] and GALILEI_LABELS[-1] == "E"
    alg = make_galilei_algebra(ExtensionParams(*(Poly.symbol(n) for n in "kml")))
    assert alg.labels == GALILEI_LABELS
    unit = alg.dim - 1
    assert all(alg.tensor[unit][b][n] == 0 == alg.tensor[b][unit][n] for b in range(alg.dim) for n in range(alg.dim))


@pytest.mark.parametrize("params", [params for params, _ in CENTRALIZER_TABLE])
def test_three_generator_rows_give_the_six_generator_basis_at_degree_5(params):
    dimension, six_rows = _six_row_centralizer(params, 5)
    basis = table_basis(params, 5)
    assert centralizer_dimension(orderer_at(params), 5) == dimension == len(basis) == _fraction_rank(basis)
    assert all(central(params, p) for p in basis)
    orderer = NormalOrderer(make_galilei_algebra(params))
    assert len(enveloping_module._centralizer_rows(orderer, monomials_up_to(5))) < six_rows


def _random_row(rng, cols):
    return {j: F(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 6)) for j in cols}


def _structured_system(rng, kind):
    """(rows, ncols) of one of three shapes the uniform draws seldom give:
    independent blocks on disjoint columns, more columns than the rows can
    pin (several free columns), or chains where each row holds one new
    column beside columns of earlier rows, so it is a singleton only once
    those are peeled."""
    ncols = rng.randint(4, 14)
    cols = rng.sample(range(ncols), ncols)
    if kind == "blocks":
        cuts = sorted(rng.sample(range(1, ncols), rng.randint(1, 2)))
        rows = []
        for block in (cols[a:b] for a, b in zip([0, *cuts], [*cuts, ncols])):
            for _ in range(rng.randint(1, len(block) + 1)):
                rows.append(_random_row(rng, rng.sample(block, rng.randint(1, len(block)))))
    elif kind == "free":
        rows = [_random_row(rng, rng.sample(cols, rng.randint(2, 4))) for _ in range(rng.randint(1, ncols // 2))]
    else:
        chain = cols[:rng.randint(2, ncols)]
        rows = [_random_row(rng, [chain[0]])]
        for i, col in enumerate(chain[1:], 1):
            rows.append(_random_row(rng, [col, *rng.sample(chain[:i], rng.randint(1, min(i, 3)))]))
        rows += [_random_row(rng, rng.sample(cols, rng.randint(2, 4))) for _ in range(rng.randint(0, 3))]
    rng.shuffle(rows)
    return rows, ncols


def _assert_pivots_match(rows, pivots):
    """`_eliminate`'s pivots for `rows` against the `Fraction` reference: the
    same leading columns, and each pivot row primitive, led by a positive
    entry, and in the row space."""
    assert set(pivots) == _fraction_pivots(rows)
    for col, row in pivots.items():
        assert min(row) == col and row[col] > 0 and gcd(*row.values()) == 1
        assert all(type(v) is int and v for v in row.values())
    assert _fraction_rank([*rows, *pivots.values()]) == len(pivots)


def test_eliminate_rank_matches_fraction_rank():
    rng = random.Random(41)
    assert _eliminate([]) == {} == _eliminate([{}, {}])  # no rows, empty rows
    cases = []
    for _ in range(300):
        ncols = rng.randint(1, 12)
        used = rng.sample(range(ncols), rng.randint(1, ncols))  # the rest: all-zero columns
        rows = [{} for _ in range(rng.randint(0, 2))]
        for _ in range(rng.randint(0, ncols + 2)):
            rows.append(_random_row(rng, rng.sample(used, rng.randint(1, len(used)))))
        rng.shuffle(rows)
        cases.append((rows, ncols))
    cases += [_structured_system(rng, kind) for kind in ("blocks", "free", "chain") for _ in range(100)]
    for rows, ncols in cases:
        _assert_pivots_match(rows, _eliminate(_integral(rows)))
    # the drawn shapes: several non-pivot columns, and chains that the peel settles
    assert all(ncols - len(_eliminate(_integral(rows))) >= 2 for rows, ncols in cases[400:500])
    assert all(sum(p == {c: 1} for c, p in _eliminate(_integral(rows)).items()) >= 2 for rows, _ in cases[500:])


def test_explicit_zero_entries_are_dropped():
    assert _eliminate([{0: 0}]) == {}
    assert _eliminate([{0: 0, 1: 1}]) == {1: {1: 1}}  # a zero never pivots
    zero_term = NOPoly()
    zero_term[(0,) * len(GEN_NAMES)] = F(0)  # a zero stored past the constructor, through the dict API
    assert in_span([zero_term], NOPoly())
    assert not in_span([zero_term], ONE)
    assert rank([zero_term]) == 0


def test_rank_matches_fraction_rank():
    # rational coefficients, with rational combinations of earlier polys
    rng = random.Random(42)
    for _ in range(40):
        polys = [rand_poly(rng, max_degree=3, nterms=rng.randint(1, 4)) for _ in range(rng.randint(0, 5))]
        for _ in range(rng.randint(0, 3) if polys else 0):
            a, b = rng.choice(polys), rng.choice(polys)
            polys.append(F(rng.randint(-5, 5), rng.randint(1, 7)) * a + F(rng.randint(1, 5), rng.randint(2, 7)) * b)
        rng.shuffle(polys)
        assert rank(polys) == _fraction_rank(polys)


@pytest.mark.parametrize("rows", [
    [{0: F(1, 2)}],
    [{0: F(2)}],  # an integral Fraction is not an int either
    [{0: 1, 1: 2}, {0: 1, 2: F(1, 2)}],  # independent once reduced
])
def test_rational_row_raises_rather_than_returning_a_basis(rows):
    with pytest.raises(TypeError):
        _eliminate(rows)


@pytest.mark.parametrize("rows", [
    [{0: 1, 1: 1}, {0: 2, 1: F(2)}],  # its row reduces to zero
    [{0: 1, 1: F(0)}],  # a zero entry, dropped if it were an int
    [{0: 0.0}],
    [{0: 1}, {0: 3, 1: 1.5}],  # a float left alone in its row once column 0 is peeled
    [{0: True}],  # a bool is not an int entry either
    [{0: 2, 1: False}],
])
def test_every_entry_that_is_not_an_int_raises(rows):
    with pytest.raises(TypeError):
        _eliminate(rows)
    with pytest.raises(TypeError):
        _eliminate(iter(rows))  # checked up front, from a one-shot iterable too


def _commutator_rows(params, degree):
    """The centralizer system over all six generators, in `Fraction`s from
    the product difference: one {column: coefficient} row per (generator, monomial)."""
    monos = monomials_up_to(degree)
    pairs = [(NOPoly.generator(g), NOPoly({mono: 1})) for g in GEN_NAMES for mono in monos]
    rows = {}
    for i, com in enumerate(commutators(params, pairs)):
        for mono, co in com.items():
            rows.setdefault((i // len(monos), mono), {})[i % len(monos)] = co
    return list(rows.values())


def _six_row_centralizer(params, degree):
    """The centralizer's dimension from the rows of all six generators, by
    `_fraction_rank`, and how many rows they are."""
    rows = _commutator_rows(params, degree)
    return len(monomials_up_to(degree)) - _fraction_rank(rows), len(rows)


@pytest.mark.parametrize("params,dims", CENTRALIZER_TABLE)
def test_nullspace_of_degree_4_system_is_independent_of_row_order(params, dims):
    # the null space's dimension and its non-free columns, the pivot columns
    rows = _commutator_rows(params, 4)
    ncols = len(monomials_up_to(4))
    pivots = _eliminate(_integral(rows))
    assert ncols - len(pivots) == dims[4] == ncols - _fraction_rank(rows)
    _assert_pivots_match(rows, pivots)
    for seed in range(3):
        # the same row space: rows shuffled and each scaled by a nonzero rational
        rng = random.Random(seed)
        scales = [F(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9)) for _ in rows]
        moved = [{j: co * scale for j, co in row.items()} for row, scale in zip(rows, scales)]
        rng.shuffle(moved)
        assert set(_eliminate(_integral(moved))) == set(pivots), seed


# charges whose denominators 5, 6, 9 make the orderer's common denominator 90
MIXED_DENOMINATORS = ExtensionParams(F(-9, 5), F(7, 6), F(2, 9))


# an integer charge set, D = 90, and m = 0
BRACKET_PARAMS = [PARAMS, MIXED_DENOMINATORS, ExtensionParams(F(-2, 3), F(0), F(3, 4))]


@pytest.mark.parametrize("params", BRACKET_PARAMS)
def test_orderer_bracket_is_the_difference_of_the_two_products(params):
    # the derivation rule against g X^w - X^w g, each word normal-ordered in full
    alg = make_galilei_algebra(params)
    orderer, nf = NormalOrderer(alg), NormalOrderer(alg)
    for g in range(len(GEN_NAMES)):
        for word in monomials_up_to(5):
            left, right = nf[(g,) + word], nf[word + (g,)]
            diff = {mono: left.get(mono, 0) - right.get(mono, 0) for mono in {**left, **right}}
            assert orderer.bracket(g, word) == {mono: c for mono, c in diff.items() if c}, (g, word)


def _heisenberg_orderer() -> NormalOrderer:
    """The orderer of the Heisenberg algebra (x, p, E), [x, p] = E."""
    zero, unit = (F(0),) * 3, (F(0), F(0), F(1))
    tensor = ((zero, unit, zero), (tuple(-c for c in unit), zero, zero), (zero, zero, zero))
    return NormalOrderer(LieAlgebra(("x", "p", "E"), tensor))


def test_product_keeps_the_type_of_its_words():
    # the Heisenberg algebra (x, p, E), [x, p] = E: its words are plain Polys, and
    # p x = x p - E comes back as one, with no Galilei names
    orderer = _heisenberg_orderer()
    px = enveloping_module._product(orderer, Poly({(1,): 1}), Poly({(0,): 1}))
    assert type(px) is Poly and px == Poly({(0, 1): 1, (): -1})
    # over g_(k,m,l), a NOPoly product stays a NOPoly
    galilei = NormalOrderer(make_galilei_algebra(PARAMS))
    product = enveloping_module._product(galilei, NOPoly.generator("P1"), NOPoly.generator("N1"))
    assert type(product) is NOPoly and product == no_mul(PARAMS, NOPoly.generator("P1"), NOPoly.generator("N1"))


def test_galilei_entry_points_refuse_an_orderer_of_another_algebra():
    # both loop over the six Galilei generators: another algebra's orderer is
    # refused in one line that names them, not with a KeyError from its table
    nf = _heisenberg_orderer()
    message = "an orderer over x, p, E: this needs the six Galilei generators N1, N2, P1, P2, H, M and the unit E"
    for call in (lambda: centralizer_dimension(nf, 2), lambda: generator_brackets(nf, [Poly({(0,): F(1)})]),
                 lambda: generator_brackets(nf, [])):
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == message and type(exc.value) is ValueError
    assert nf == {}  # refused before any word is ordered
    assert centralizer_dimension(orderer_at(PARAMS), 0) == 1  # the Galilei orderer is taken


def test_generator_brackets_agree_with_the_product_difference():
    rng = random.Random(10)
    gens = [NOPoly.generator(name) for name in GEN_NAMES]
    for params in BRACKET_PARAMS:
        polys = [rand_poly(rng, max_degree=3, nterms=4) for _ in range(8)] + [NOPoly(), ONE]
        expected = commutators(params, [(g, p) for p in polys for g in gens])
        got = generator_brackets(orderer_at(params), polys)
        assert [len(row) for row in got] == [len(gens)] * len(polys)
        assert [com for row in got for com in row] == expected, params


def test_a_row_is_peeled_once_two_earlier_peels_leave_it_one_entry():
    # {0: -7} peels column 0, which leaves {1: 4} of the second row, and
    # peeling column 1 leaves {2: 5} of the first; the rest reduce
    rows = [{2: 5, 0: 1, 1: -3}, {1: 4, 0: 2}, {0: -7}, {2: 1, 3: 2, 4: 1}, {3: 1, 4: -1, 5: 3}]
    pivots = _eliminate(rows)
    assert {col: pivots[col] for col in (0, 1, 2)} == {0: {0: 1}, 1: {1: 1}, 2: {2: 1}}
    assert pivots[3] == {3: 2, 4: 1} and sorted(pivots) == [0, 1, 2, 3, 4]
    _assert_pivots_match(rows, pivots)


def test_an_explicit_zero_entry_is_not_live():
    # {0: 0, 1: 3} holds one live entry, and so does the second row once
    # column 1 is peeled; neither zero enters a pivot row
    rows = [{0: 0, 1: 3}, {1: 2, 2: 0, 3: 5}, {0: 1, 2: 1, 3: 1}]
    assert _eliminate(rows) == {1: {1: 1}, 3: {3: 1}, 0: {0: 1, 2: 1}}
    _assert_pivots_match(rows, _eliminate(rows))
    assert _eliminate([{0: 0}, {1: 0, 2: 0}]) == {}


def test_rows_of_peeled_columns_only_add_no_pivot():
    rows = [{0: 4}, {1: -1}, {0: 3, 1: 2}, {1: 5, 0: -5}, {2: 1, 3: 1}]
    assert _eliminate(rows) == {0: {0: 1}, 1: {1: 1}, 2: {2: 1, 3: 1}}
    _assert_pivots_match(rows, _eliminate(rows))


def test_one_entry_row_made_by_a_reduction_retires_its_column():
    # {0: 1, 1: 2} reduces against the pivot {0: 1, 1: 1}, which holds column 1,
    # to the one-entry row {1: 1}; the later rows drop column 1 before they
    # reduce, and the reduction by {0: 1, 1: 1} brings it back into one of them
    rows = [{0: F(1), 1: F(1)}, {0: F(1), 1: F(2)}, {0: F(2), 1: F(5), 2: F(3)},
            {1: F(-1, 2), 2: F(1), 3: F(4), 4: F(1, 3)}, {0: F(3), 2: F(1), 3: F(-2), 4: F(1), 5: F(7)}]
    pivots = _eliminate(_integral(rows))
    assert 1 in pivots[0] and pivots[1] == {1: 1}
    assert len(pivots) < 6
    _assert_pivots_match(rows, pivots)


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
    orderer = NormalOrderer(make_galilei_algebra(MIXED_DENOMINATORS))
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
    table_basis(params, 4)
    centralizer_dimension(orderer_at(params), 2)
    no_mul(params, no_mul(params, P1, N1), H)
    ref = weakref.ref(params)
    del params
    gc.collect()
    assert ref() is None


def test_shared_orderer_gives_the_per_product_commutators():
    rng = random.Random(9)
    pairs = [(rand_poly(rng), rand_poly(rng)) for _ in range(12)]
    assert commutators(PARAMS, pairs) == [no_mul(PARAMS, p, q) - no_mul(PARAMS, q, p) for p, q in pairs]
    # charges used by no other test, as in test_enveloping_keeps_no_algebra_alive
    params = ExtensionParams(F(-7, 5), F(11, 6), F(2, 9))
    commutators(params, pairs)
    generator_brackets(orderer_at(params), [internal_energy(params)])
    ref = weakref.ref(params)
    del params
    gc.collect()
    assert ref() is None


def test_orderers_are_freed_without_the_cycle_collector(monkeypatch, tmp_path):
    built, real = [], enveloping_module.NormalOrderer

    def spy(alg):
        orderer = real(alg)
        built.append(weakref.ref(orderer))
        return orderer

    monkeypatch.setattr(enveloping_module, "NormalOrderer", spy)
    table = casimir_invariants(PARAMS)
    calls = {
        "generator_brackets": lambda nf: generator_brackets(nf, [table[0]]),
        "centralizer_basis": lambda nf: centralizer_basis(nf, table, 4),  # two or more entries per product
        "centralizer_dimension": lambda nf: centralizer_dimension(nf, 2),
    }
    gc.disable()
    try:
        # a report's one orderer is gone when main returns
        argv = ["casimir", f"--k={PARAMS.k}", f"--m={PARAMS.m}", f"--l={PARAMS.l}", "--max-degree=4"]
        assert main([*argv, "--out", str(tmp_path / "report.txt")]) == 0
        assert len(built) == 1 and built[0]() is None
        # and no entry point keeps the orderer it is given, nor does its result
        for name, call in calls.items():
            normal_form = real(make_galilei_algebra(PARAMS))
            ref, result = weakref.ref(normal_form), call(normal_form)
            del normal_form
            assert ref() is None and result is not None, name
    finally:
        gc.enable()


@pytest.mark.parametrize("params", [*(params for params, _ in CENTRALIZER_TABLE), MIXED_DENOMINATORS])
def test_entry_points_on_one_shared_orderer_equal_fresh_orderers(params):
    # the three entry points of a casimir report, on the candidates it checks,
    # in either order on one orderer, against a fresh orderer per call
    table = casimir_invariants(params)
    candidates = [*table, momentum_squared(), boost_momentum_cross()]
    if params.m != 0:
        candidates += [internal_energy(params), internal_angular_momentum(params)]
    calls = {
        "generator_brackets": lambda nf: generator_brackets(nf, candidates),
        "centralizer_basis": lambda nf: centralizer_basis(nf, table, 5),
        "centralizer_dimension": lambda nf: centralizer_dimension(nf, 5),
    }
    fresh = {name: call(orderer_at(params)) for name, call in calls.items()}
    memos = []
    for order in (list(calls), list(reversed(calls))):
        shared = orderer_at(params)
        assert {name: calls[name](shared) for name in order} == fresh, order
        memos.append(dict(shared))
    # the memo fills with the same normal forms whichever call comes first
    assert memos[0] == memos[1] and memos[0]


def _fraction_table(params):
    """The orderer's (den, table) as it was built before, with `Fraction`
    products over every tensor entry: a test-only reference."""
    alg = make_galilei_algebra(params)
    e_idx = alg.index("E")
    gen_idx = [alg.index(n) for n in GEN_NAMES]
    den = lcm(*(c.denominator for a in gen_idx for b in gen_idx for c in alg.tensor[a][b]))
    table = {}
    for a in range(len(GEN_NAMES)):
        for b in range(len(GEN_NAMES)):
            row = alg.tensor[gen_idx[a]][gen_idx[b]]
            terms = tuple((gen_idx.index(n), int(cn * den)) for n, cn in enumerate(row) if n != e_idx and cn)
            table[(a, b)] = (int(row[e_idx] * den * den), terms)
    return den, table


@pytest.mark.parametrize("params", [*BRACKET_PARAMS, ExtensionParams(0, 0, 0), ExtensionParams(F(-6), F(1, 4), 0)])
def test_orderer_table_is_the_fraction_built_table(params):
    orderer = NormalOrderer(make_galilei_algebra(params))
    den, table = _fraction_table(params)
    assert orderer.den == den and type(orderer.den) is int
    assert list(orderer.table.items()) == list(table.items())
    assert all(type(c) is int for scalar, terms in orderer.table.values() for c in (scalar, *dict(terms).values()))


def _commutative_ad(brackets, g, s):
    """ad_g s for a commutative polynomial s = {sorted word: coefficient} in
    S(g)/(E - 1), a letter at a time: at each position i, w_i replaced by
    [g, w_i].  A test-only reference that shares no code with the rows."""
    out = {}
    for w, c in s.items():
        for i in range(len(w)):
            for word, co in brackets[(g, w[i])]:
                image = tuple(sorted(w[:i] + w[i + 1:] + word))
                out[image] = out.get(image, F(0)) + c * co
    return {w: c for w, c in out.items() if c}


def _beta(params, s):
    """The symmetrization of a commutative polynomial s, by the recursion
    beta(w) = (1/n) sum_x a_x x beta(w - x) over the distinct letters x of a
    word w of length n, a_x the multiplicity of x: a test-only reference for
    the g-module isomorphism S(g) -> U(g) that `centralizer_dimension` rests on."""
    orderer, memo = NormalOrderer(make_galilei_algebra(params)), {(): ONE}

    def beta(w):
        if w not in memo:
            acc = NOPoly()
            for x in dict.fromkeys(w):
                i = w.index(x)
                left = enveloping_module._product(orderer, NOPoly.generator(GEN_NAMES[x]), beta(w[:i] + w[i + 1:]))
                acc = acc + w.count(x) * left
            memo[w] = F(1, len(w)) * acc
        return memo[w]

    return sum((F(c) * beta(w) for w, c in s.items()), NOPoly())


@pytest.mark.parametrize("params", BRACKET_PARAMS)
def test_symmetrization_is_the_mean_over_orderings(params):
    # beta(w) = (1/n!) sum over the orderings of w of their products in U(g),
    # each normal-ordered by the rightmost-first oracle
    brackets = _bracket_table(make_galilei_algebra(params))
    for w in monomials_up_to(4):
        orderings = set(itertools.permutations(w))
        mean = {}
        for word in orderings:
            for mono, co in _rightmost_normal_form(brackets, word).items():
                mean[mono] = mean.get(mono, F(0)) + co / len(orderings)
        assert _beta(params, {w: 1}) == NOPoly(mean), w


@pytest.mark.parametrize("params", BRACKET_PARAMS)
def test_symmetrization_is_equivariant(params):
    # beta(ad_g s) = g beta(s) - beta(s) g for every generator g
    brackets = _bracket_table(make_galilei_algebra(params))
    rng = random.Random(43)
    monos = monomials_up_to(4)
    for _ in range(12):
        s = {rng.choice(monos): F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4)}
        b = _beta(params, s)
        for g, name in enumerate(GEN_NAMES):
            gen = NOPoly.generator(name)
            assert _beta(params, _commutative_ad(brackets, g, s)) == no_mul(params, gen, b) - no_mul(params, b, gen)


def test_centralizer_basis_matches_the_oracle_on_random_charges():
    # every fourth set as drawn; the others with l, m or both set to 0, so
    # all four Casimir regimes get checked
    rng = random.Random(47)
    for i in range(20):
        p = random_params(rng)
        p = [p, ExtensionParams(p.k, p.m, 0), ExtensionParams(p.k, 0, p.l), ExtensionParams(p.k, 0, 0)][i % 4]
        assert _assert_products_match_the_oracle(p, 4) == centralizer_dimension(orderer_at(p), 4), p
