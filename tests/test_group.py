import dataclasses
import json
import math
import random
import warnings
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import galilei21.cli as cli_module
import galilei21.group as group_module
from galilei21.algebra import ExtensionParams, Poly, worst_defect
from galilei21.cli import _certified, _group_rows, _zeta, main
from galilei21.group import (
    BLOCK_DOUBLES,
    IDENTITY,
    GroupElement,
    GroupKind,
    angle_distance,
    apply_coboundary,
    associativity_defect,
    cocycle_exponent,
    compose,
    compose_with_exponent,
    cross,
    element_distance,
    eliminate_k_map,
    galilei_product,
    homomorphism_defect,
    identity_certified,
    inverse,
    random_elements,
    rotate,
    worst_per_sample,
)
from scalar_sampler import random_element, random_params, random_rational_element

EXT = GroupKind.EXTENDED
COV = GroupKind.COVERING
TOL = 1e-12


def test_identity_is_neutral():
    rng = random.Random(1)
    p = ExtensionParams(F(3), F(1), F(2))
    for _ in range(20):
        g = random_element(rng)
        for kind, params in ((COV, p), (EXT, ExtensionParams(F(3), F(1), F(0)))):
            assert element_distance(compose(kind, params, IDENTITY, g), g, kind) < TOL
            assert element_distance(compose(kind, params, g, IDENTITY), g, kind) < TOL


def test_zero_charges_twist_nothing():
    rng = random.Random(2)
    p0 = ExtensionParams(0, 0, 0)
    for _ in range(50):
        g, h = random_element(rng), random_element(rng)
        assert cocycle_exponent(COV, p0, g, h) == 0
        assert element_distance(compose(COV, p0, g, h), galilei_product(g, h)) == 0


def test_boost_against_time_translation():
    # m = 1: a boost composed with a pure time step picks up -v^2 tau'/2
    p = ExtensionParams(1, 1, 0)
    g = GroupElement(v=(1.0, 0.0))
    h = GroupElement(tau=1.0)
    out = compose(EXT, p, g, h)
    assert out.phase == pytest.approx(-0.5, abs=1e-15)
    assert out.u == pytest.approx((1.0, 0.0))
    assert out.v == (1.0, 0.0)
    assert out.tau == 1.0


def test_boost_charge_term_isolated():
    p = ExtensionParams(2, 0, 0)
    g = GroupElement(v=(1.0, 0.0))
    h = GroupElement(v=(0.0, 1.0))
    assert cocycle_exponent(EXT, p, g, h) == pytest.approx(-1.0, abs=1e-15)


def test_rotation_time_charge_term_isolated():
    p = ExtensionParams(0, 0, 3)
    g = GroupElement(theta=math.pi)
    h = GroupElement(tau=2.0)
    assert cocycle_exponent(COV, p, g, h) == pytest.approx(6 * math.pi, abs=1e-12)


def test_cocycle_is_normalized():
    rng = random.Random(3)
    p = ExtensionParams(F(1), F(2), F(3))
    for _ in range(20):
        g = random_element(rng)
        assert cocycle_exponent(COV, p, g, IDENTITY) == 0
        assert cocycle_exponent(COV, p, IDENTITY, g) == 0


def test_extension_kind_rejects_l():
    with pytest.raises(ValueError):
        compose(EXT, ExtensionParams(0, 0, 1), IDENTITY, IDENTITY)
    with pytest.raises(ValueError):
        inverse(EXT, ExtensionParams(0, 0, 1), IDENTITY)


def test_inverse_round_trip():
    rng = random.Random(4)
    p = ExtensionParams(F(2), F(-1), F(1, 2))
    assert inverse(COV, p, IDENTITY) == IDENTITY
    rot = GroupElement(theta=0.7)
    assert inverse(COV, p, rot) == GroupElement(theta=-0.7)
    for _ in range(100):
        g = random_element(rng)
        gi = inverse(COV, p, g)
        assert element_distance(compose(COV, p, g, gi), IDENTITY) < TOL
        assert element_distance(compose(COV, p, gi, g), IDENTITY) < TOL


def test_inverse_exact_mode():
    rng = random.Random(5)
    p = ExtensionParams(F(2), F(-1), F(1, 2))
    for _ in range(50):
        g = random_rational_element(rng)
        gi = inverse(COV, p, g)
        assert compose(COV, p, g, gi) == IDENTITY
        assert compose(COV, p, gi, g) == IDENTITY


def test_associativity_float_mode():
    rng = random.Random(6)
    for _ in range(20):
        p = random_params(rng)
        p_ext = ExtensionParams(p.k, p.m, F(0))
        for _ in range(50):
            g, h, f = (random_element(rng) for _ in range(3))
            assert associativity_defect(COV, p, g, h, f) < TOL
            assert associativity_defect(EXT, p_ext, g, h, f) < TOL


def test_associativity_exact_mode():
    rng = random.Random(7)
    for _ in range(10):
        p = random_params(rng)
        for _ in range(20):
            g, h, f = (random_rational_element(rng) for _ in range(3))
            d = associativity_defect(COV, p, g, h, f)
            assert d == 0 and not isinstance(d, float)


def test_corrupted_law_fails_associativity():
    # dropping the rotation in front of u' breaks the cocycle identity
    p = ExtensionParams(0, 1, 0)

    def bad_xi(g, h):
        return -(g.v[0] ** 2 + g.v[1] ** 2) / 2 * h.tau - (
            g.v[0] * h.u[0] + g.v[1] * h.u[1]
        )

    def defect(g, h, f):
        left = compose_with_exponent(compose_with_exponent(g, h, bad_xi), f, bad_xi)
        right = compose_with_exponent(g, compose_with_exponent(h, f, bad_xi), bad_xi)
        return element_distance(left, right)

    rng = random.Random(8)
    defects = [defect(*(random_element(rng) for _ in range(3))) for _ in range(50)]
    assert all(math.isfinite(d) for d in defects)
    assert worst_defect(defects, 0.0) > 0.05


def test_covering_matches_extension_when_l_vanishes():
    rng = random.Random(9)
    p = ExtensionParams(F(3, 2), F(-2), F(0))
    for _ in range(100):
        g, h = random_element(rng), random_element(rng)
        a = compose(COV, p, g, h)
        b = compose(EXT, p, g, h)
        assert element_distance(a, b, EXT) < TOL


def test_zero_coboundary_keeps_xi():
    p = ExtensionParams(F(1), F(2), F(0))
    xi = lambda g, h: cocycle_exponent(EXT, p, g, h)
    shifted = apply_coboundary(xi, lambda g: 0)
    rng = random.Random(10)
    for _ in range(20):
        g, h = random_element(rng), random_element(rng)
        assert shifted(g, h) == xi(g, h)


def test_additive_zeta_has_zero_coboundary():
    shifted = apply_coboundary(lambda g, h: 0, lambda g: 5.0 * g.tau)
    rng = random.Random(11)
    for _ in range(20):
        g, h = random_element(rng), random_element(rng)
        assert shifted(g, h) == pytest.approx(0.0, abs=1e-14)


def test_coboundary_of_anything_is_a_cocycle():
    # starting from xi = 0, any zeta produces an associative law
    zetas = [
        lambda g: g.v[0] ** 2 + 0.3 * g.u[1] * g.tau,
        lambda g: math.sin(g.theta) * g.u[0] + g.tau ** 2,
    ]
    rng = random.Random(12)
    for zeta in zetas:
        xi = apply_coboundary(lambda g, h: 0, zeta)
        for _ in range(50):
            g, h, f = (random_element(rng) for _ in range(3))
            left = compose_with_exponent(compose_with_exponent(g, h, xi), f, xi)
            right = compose_with_exponent(g, compose_with_exponent(h, f, xi), xi)
            assert element_distance(left, right) < 1e-11


def test_coboundary_shift_of_group_law_stays_associative():
    p = ExtensionParams(F(1), F(2), F(3))
    xi = lambda g, h: cocycle_exponent(COV, p, g, h)
    shifted = apply_coboundary(xi, lambda g: 0.7 * g.v[0] * g.u[0] - g.tau * g.theta)
    rng = random.Random(13)
    for _ in range(50):
        g, h, f = (random_element(rng) for _ in range(3))
        left = compose_with_exponent(compose_with_exponent(g, h, shifted), f, shifted)
        right = compose_with_exponent(g, compose_with_exponent(h, f, shifted), shifted)
        assert element_distance(left, right) < 1e-11


def test_charge_removal_fixes_boosts_and_small_elements():
    p = ExtensionParams(F(3), F(2), F(0))
    g = GroupElement(v=(0, 0), u=(1, 2), tau=3, theta=0.4)
    assert eliminate_k_map(p, g) == g  # shift proportional to v
    assert eliminate_k_map(ExtensionParams(F(0), F(2), F(0)), g) == g
    with pytest.raises(ValueError):
        eliminate_k_map(ExtensionParams(F(1), F(0), F(0)), g)


def test_charge_removal_is_homomorphism_float():
    rng = random.Random(14)
    p_k = ExtensionParams(F(1), F(2), F(0))
    p_0 = ExtensionParams(F(0), F(2), F(0))
    phi = lambda g: eliminate_k_map(p_k, g)
    for _ in range(200):
        g, h = random_element(rng), random_element(rng)
        assert homomorphism_defect(EXT, p_k, p_0, phi, g, h) < TOL


def test_charge_removal_is_homomorphism_exact():
    rng = random.Random(15)
    for _ in range(10):
        p = random_params(rng, nonzero_m=True)
        p_k = ExtensionParams(p.k, p.m, F(0))
        p_0 = ExtensionParams(F(0), p.m, F(0))
        phi = lambda g: eliminate_k_map(p_k, g)
        for _ in range(20):
            g, h = random_rational_element(rng), random_rational_element(rng)
            d = homomorphism_defect(EXT, p_k, p_0, phi, g, h)
            assert d == 0 and not isinstance(d, float)


def test_charge_removal_wrong_sign_fails():
    p_k = ExtensionParams(F(1), F(2), F(0))
    p_0 = ExtensionParams(F(0), F(2), F(0))

    def bad(g):
        lam = p_k.k / (2 * p_k.m)
        return GroupElement(
            phase=g.phase, tau=g.tau,
            u=(g.u[0] - lam * g.v[1], g.u[1] + lam * g.v[0]),
            v=g.v, theta=g.theta,
        )

    rng = random.Random(16)
    defects = [
        homomorphism_defect(EXT, p_k, p_0, bad, random_element(rng), random_element(rng))
        for _ in range(100)
    ]
    assert all(math.isfinite(d) for d in defects)
    # analytic mismatch is (m lam + k/2)(v x R v') = k (v x R v') here
    assert worst_defect(defects, 0.0) > 0.1


def test_identity_map_between_equal_charges():
    p = ExtensionParams(F(1), F(2), F(0))
    rng = random.Random(17)
    for _ in range(20):
        g, h = random_element(rng), random_element(rng)
        assert homomorphism_defect(EXT, p, p, lambda x: x, g, h) == 0


def test_worst_defect_fails_closed():
    for defects in ([0.0, math.nan], [math.nan, 0.0], [math.inf], [1e-3, -math.inf]):
        assert math.isnan(worst_defect(defects, 0.0))
    assert math.isnan(worst_defect([], math.nan))
    assert worst_defect([], 0.0) == 0.0
    assert worst_defect([3e-13, 1e-12, 0.0], 0.0) == 1e-12


def test_worst_defect_keeps_exact_type():
    worst = worst_defect([F(1, 3), F(1, 2), F(0)], F(0))
    assert worst == F(1, 2) and isinstance(worst, F)
    zero = worst_defect([F(0), F(0)], F(0))
    assert zero == 0 and isinstance(zero, F)


def test_nan_time_translation_fails_associativity():
    p = ExtensionParams(F(1), F(2), F(0))
    rng = random.Random(18)
    g, h, f = (random_element(rng) for _ in range(3))
    g = GroupElement(phase=g.phase, tau=math.nan, u=g.u, v=g.v, theta=g.theta)
    for kind in (COV, EXT):
        d = associativity_defect(kind, p, g, h, f)
        assert math.isnan(d)
        assert not d < TOL


@pytest.mark.parametrize("field", ["tau", "theta"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_input_gives_nan_on_scalars_as_on_arrays(field, value):
    # math.cos(inf) raises ValueError where np.cos gives NaN; both paths must
    # give a NaN defect, which worst_defect turns into a FAIL
    p = ExtensionParams(F(1), F(2), F(0))
    g, h, f = random_elements(random.Random(20), 2, 3)
    g = dataclasses.replace(g, **{field: np.array([0.5, value])})
    at = lambda e, i: GroupElement(
        float(e.phase[i]), float(e.tau[i]), (float(e.u[0][i]), float(e.u[1][i])),
        (float(e.v[0][i]), float(e.v[1][i])), float(e.theta[i]),
    )
    for kind in (COV, EXT):
        with np.errstate(all="ignore"):
            batched = associativity_defect(kind, p, g, h, f)
        assert batched[0] < TOL and math.isnan(batched[1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert associativity_defect(kind, p, at(g, 0), at(h, 0), at(f, 0)) == batched[0]
            assert math.isnan(associativity_defect(kind, p, at(g, 1), at(h, 1), at(f, 1)))


def test_angle_distance_folds():
    assert angle_distance(0, 2 * math.pi) < 1e-12
    assert angle_distance(-math.pi, math.pi) < 1e-12
    assert angle_distance(F(3), F(3)) == 0
    assert not isinstance(angle_distance(F(3), F(3)), float)


def test_rotation_matrix_convention():
    # R(theta) = [[cos, sin], [-sin, cos]]
    x = rotate(math.pi / 2, (1.0, 0.0))
    assert x == pytest.approx((0.0, -1.0), abs=1e-15)
    y = rotate(math.pi / 2, (0.0, 1.0))
    assert y == pytest.approx((1.0, 0.0), abs=1e-15)
    x = rotate(0, (F(1, 2), F(3)))
    assert x == (F(1, 2), F(3)) and all(type(c) is F for c in x)


def test_rotation_is_the_trigonometry_of_theta_bit_for_bit():
    theta = np.array([-math.pi, -0.5, 1e-300, 0.7, 3.0])
    c, s = GroupElement(theta=theta).rotation
    assert c.tobytes() == np.cos(theta).tobytes() and s.tobytes() == np.sin(theta).tobytes()
    for x in theta.tolist():
        assert GroupElement(theta=x).rotation == (math.cos(x), math.sin(x))


def test_rotation_keeps_exact_zero_exact_and_fails_closed():
    assert GroupElement(theta=0).rotation is None and GroupElement(theta=F(0)).rotation is None
    for value in (math.nan, math.inf, -math.inf):
        assert all(math.isnan(c) for c in GroupElement(theta=value).rotation)


def test_reading_the_rotation_leaves_the_element_unchanged():
    g = random_element(random.Random(21))
    fresh = dataclasses.replace(g)
    assert g.rotation == (math.cos(g.theta), math.sin(g.theta))
    assert g == fresh and hash(g) == hash(fresh) and repr(g) == repr(fresh)
    assert [f.name for f in dataclasses.fields(g)] == ["phase", "tau", "u", "v", "theta"]


def test_a_product_computes_each_factors_rotation_once(monkeypatch):
    calls = []
    real = group_module._cos_sin
    monkeypatch.setattr(group_module, "_cos_sin", lambda theta: calls.append(theta) or real(theta))
    p = ExtensionParams(F(3), F(1), F(2))
    g, h, f = random_elements(random.Random(22), 50, 3)
    associativity_defect(COV, p, g, h, f)
    assert len(calls) == 3  # g, h and gh; the right factors f and hf are never rotated by
    calls.clear()
    inverse(COV, p, g)  # g's own rotation is kept: only -theta is computed, once for both vectors
    assert len(calls) == 1 and calls[0].tobytes() == (-g.theta).tobytes()


@settings(max_examples=50)
@given(
    tau=st.floats(-2, 2), ux=st.floats(-2, 2), vy=st.floats(-2, 2),
    theta=st.floats(-3, 3),
)
def test_pure_subgroup_composition_is_plain(tau, ux, vy, theta):
    # elements of each one-parameter subgroup compose without any twist
    p = ExtensionParams(F(1), F(2), F(3))
    for g in (
        GroupElement(tau=tau),
        GroupElement(u=(ux, 0.0)),
        GroupElement(theta=theta),
    ):
        out = compose(COV, p, g, g)
        assert out.phase == 0
    # boosts against boosts only see the k term
    b1, b2 = GroupElement(v=(0.0, vy)), GroupElement(v=(0.0, vy))
    assert cocycle_exponent(COV, p, b1, b2) == 0  # parallel boosts


# One charge set per cocycle regime: l = 0, l != 0 (covering only), m = 0.
# k / 2m is not a double here, so a charge converted at the wrong step shows.
REGIMES = [
    ExtensionParams(F(-3, 2), F(5, 3), F(0)),
    ExtensionParams(F(-5, 3), F(-5, 4), F(7, 2)),
    ExtensionParams(F(2), F(0), F(0)),
]


def _bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


@pytest.mark.parametrize("params", REGIMES, ids=["l=0", "l!=0", "m=0"])
def test_batched_law_matches_scalar_law_bit_for_bit(params):
    """Each float row of the group suite: an array call's per-sample defects
    equal the scalar calls' defects on the same draws, bit for bit."""
    float_rows = [row for row in _group_rows(params, 400, TOL) if not row[1] and row[5]]
    assert len(float_rows) == 5 - (params.l != 0) - (params.m == 0)
    for seed, (name, _, _, arity, defect, _) in enumerate(float_rows):
        batch_rng, scalar_rng = random.Random(seed), random.Random(seed)
        batch = random_elements(batch_rng, 400, arity)
        samples = [[random_element(scalar_rng) for _ in range(arity)] for _ in range(400)]
        assert batch_rng.getstate() == scalar_rng.getstate()
        for j, element in enumerate(batch):
            for field in ("phase", "tau", "u", "v", "theta"):
                column = [getattr(sample[j], field) for sample in samples]
                assert _bits(np.asarray(getattr(element, field)).T) == _bits(column)
        batched = defect(*batch)
        assert isinstance(batched, np.ndarray) and batched.shape == (400,)
        assert _bits(batched) == _bits([defect(*sample) for sample in samples]), name


def test_coboundary_zeta_squares_like_python_floats():
    # zeta squares by a product, one IEEE operation on floats and on arrays
    # alike (a ** 2 is libm pow on a float, a plain square on an array); a
    # last-bit change in zeta is rounded away before it reaches a defect, so
    # compare zeta itself
    rng = random.Random(22)
    (batch,) = random_elements(rng, 20000)
    rng = random.Random(22)
    assert _bits(_zeta(batch)) == _bits([_zeta(random_element(rng)) for _ in range(20000)])


def test_batched_sampler_consumes_the_stream_like_scalar_draws():
    """The decoded Mersenne Twister words are the scalar draws, bit for bit, also
    from an odd word offset and across more than one getrandbits block."""
    over_a_block = BLOCK_DOUBLES // 14 + 1  # 2 elements of 7 doubles per sample
    for odd in (False, True):
        for samples, count in ((1, 1), (7, 2), (50, 3), (over_a_block, 2)):
            a, b = random.Random(98), random.Random(98)
            if odd:  # one 32-bit word
                for rng in (a, b):
                    rng.getrandbits(32)
                assert a.getstate()[1][-1] == 1  # MT19937's index: 1 word drawn
            batch = random_elements(a, samples, count)
            scalar = [[random_element(b) for _ in range(count)] for _ in range(samples)]
            assert a.getstate() == b.getstate()
            for j, element in enumerate(batch):
                for field in ("phase", "tau", "u", "v", "theta"):
                    column = [getattr(sample[j], field) for sample in scalar]
                    assert _bits(np.asarray(getattr(element, field)).T) == _bits(column)
            assert a.random() == b.random()


def test_batched_defects_fail_closed_per_sample():
    p = ExtensionParams(F(1), F(2), F(0))
    g, h, f = random_elements(random.Random(19), 4, 3)
    tau = np.array([0.5, math.nan, math.inf, -math.inf])
    g = GroupElement(phase=g.phase, tau=tau, u=g.u, v=g.v, theta=g.theta)
    with np.errstate(all="ignore"):
        for kind in (COV, EXT):
            d = associativity_defect(kind, p, g, h, f)
            assert d[0] < TOL and np.isnan(d[1:]).all()
    worst = worst_per_sample((np.array([0.0, 1.0, math.inf]), np.array([2.0, math.nan, 0.0])), 0.0)
    assert worst[0] == 2.0 and np.isnan(worst[1:]).all()
    assert math.isnan(worst_per_sample((1.0, -math.inf), 0.0))  # scalars: worst_defect
    assert isinstance(worst_per_sample((F(0), F(0)), F(0)), F)


def test_one_law_for_exact_scalars_and_arrays():
    p = ExtensionParams(F(1, 2), F(3), F(0))
    rng = random.Random(20)
    g, h, f = (random_rational_element(rng) for _ in range(3))
    d = associativity_defect(COV, p, g, h, f)
    assert d == 0 and isinstance(d, F)
    assert isinstance(cocycle_exponent(COV, p, g, h), F)
    # an array element composed with the scalar identity stays float64
    (a,) = random_elements(random.Random(21), 5)
    out = compose(COV, p, IDENTITY, a)
    assert all(x.dtype == np.float64 for x in (out.phase, out.tau, *out.u, *out.v, out.theta))
    assert (element_distance(compose(COV, p, a, IDENTITY), a) < TOL).all()


def _at(x, values):
    """A Poly evaluated at rational values of its symbols; a Fraction as is."""
    if not isinstance(x, Poly):
        return x
    return sum((c * math.prod(values[s] for s in mono) for mono, c in x.items()), F(0))


def _coordinates(g):
    return (g.phase, g.tau, *g.u, *g.v, g.theta)


def _exact_element(q):
    return GroupElement(q[0], q[1], (q[2], q[3]), (q[4], q[5]), F(0))


def test_symbolic_law_evaluates_to_the_exact_law():
    """The polynomials a certificate compares are the exact law's values:
    evaluated at a rational point they give what the law gives there."""
    names = [[f"{c}{i}" for c in ("phase", "tau", "u1", "u2", "v1", "v2")] for i in range(2)]
    symbolic = [_exact_element([Poly.symbol(n) for n in row]) for row in names]
    rng = random.Random(31)
    for params in REGIMES:
        values = {n: F(rng.randint(-9, 9), rng.randint(1, 9)) for row in names for n in row}
        exact = [_exact_element([values[n] for n in row]) for row in names]
        laws = [lambda g, h: compose(COV, params, g, h)]
        if params.m != 0:
            laws.append(lambda g, h: eliminate_k_map(params, g))
        for law in laws:
            evaluated = [_at(x, values) for x in _coordinates(law(*symbolic))]
            assert evaluated == list(_coordinates(law(*exact)))


@pytest.mark.parametrize("params", REGIMES, ids=["l=0", "l!=0", "m=0"])
def test_exact_rows_are_certified_and_take_no_samples(params):
    exact = [row for row in _group_rows(params, 60, TOL) if row[5] is None]
    assert [row[0] for row in exact] == ["associativity_exact_mode"] + (
        ["k_removal_homomorphism_exact"] if params.m != 0 else [])
    rng = random.Random(7)
    for name, _, count, arity, sides, _ in exact:
        assert count is None, name  # an exact row takes no samples
        assert identity_certified(sides, arity), name  # at this charge set too
        assert _certified(name), name
        for _ in range(60):  # the sampled check the certificate stands for
            d = element_distance(*sides(*(random_rational_element(rng) for _ in range(arity))))
            assert d == 0 and type(d) is F, name


@pytest.mark.parametrize("params", REGIMES, ids=["l=0", "l!=0", "m=0"])
def test_group_draws_only_the_float_rows_doubles(params, tmp_path, monkeypatch):
    """cmd_group's stream gives the float rows' doubles, 64 bits each, and an
    exact row takes no getrandbits word."""
    bits = []

    class CountingRandom(random.Random):
        def getrandbits(self, k):
            bits.append(k)
            return super().getrandbits(k)

    monkeypatch.setattr(cli_module.random, "Random", CountingRandom)
    charges = [f"--{name}={getattr(params, name)}" for name in ("k", "m", "l")]
    assert main(["group", *charges, "--samples=60", f"--out={tmp_path / 'r.txt'}"]) == 0
    floats = [row for row in _group_rows(params, 60, TOL) if not row[1] and row[5] is not None]
    assert sum(bits) == sum(64 * 7 * count * arity for _, _, count, arity, _, _ in floats)


@pytest.mark.parametrize("seed", [0, 12, 8191])
@pytest.mark.parametrize("count", [0, 1, 37, 1000])
def test_skipped_draws_leave_the_stream_where_rational_draws_do(seed, count):
    """An exact element is six (randint(-4, 4), randint(1, 4)) pairs: drawing those
    pairs leaves the stream where drawing the elements does, and they are the
    elements' coordinates."""
    a, b = random.Random(seed), random.Random(seed)
    draws = [(a.randint(-4, 4), a.randint(1, 4)) for _ in range(6 * count)]
    elements = [random_rational_element(b) for _ in range(count)]
    assert a.getstate() == b.getstate()
    assert a.random() == b.random()
    assert [x for g in elements for x in (g.phase, g.tau, *g.u, *g.v)] == [F(*d) for d in draws]


def _wrong_cocycle_coefficient(m):
    m.setattr(group_module, "HALF", F(1))  # -m v^2 tau' where the law has -m v^2/2 tau'


def _flipped_k_map(m):
    original = group_module.eliminate_k_map
    m.setattr(group_module, "eliminate_k_map",
              lambda p, g: original(ExtensionParams(-p.k, p.m, p.l), g))


def _extra_k_phase_term(m):
    original = group_module.cocycle_exponent

    def xi(kind, p, g, h):
        # + k (v x u'), whose coboundary at (g, h, f) is -k tau_f (v_g x v_h), not zero;
        # a float k on numpy arrays of samples, as the law's own terms take it
        k = float(p.k) if isinstance(g.v[0], np.ndarray) else p.k
        return original(kind, p, g, h) + k * cross(g.v, h.u)

    m.setattr(group_module, "cocycle_exponent", xi)


def _group_report(tmp_path, *argv):
    out = tmp_path / "report.json"
    code = main(["group", *argv, "--samples=60", "--seed=8", "--format=json", f"--out={out}"])
    return code, out.read_text()


@pytest.mark.parametrize("row, mutate, k, holds", [
    ("associativity_exact_mode", _wrong_cocycle_coefficient, "-3/2", False),
    ("associativity_exact_mode", _extra_k_phase_term, "-3/2", False),
    ("k_removal_homomorphism_exact", _flipped_k_map, "-3/2", False),
    ("associativity_exact_mode", _extra_k_phase_term, "0", True),
], ids=["cocycle_coefficient", "extra_k_term", "k_map_sign", "extra_k_term_at_k=0"])
def test_failed_certificate_checks_the_given_charges(tmp_path, monkeypatch, row, mutate, k, holds):
    """A row whose certificate fails proves its identity at the given charges, where
    it may hold: at k = 0 the extra term vanishes, and the report is the intact one."""
    intact = _group_report(tmp_path, f"--k={k}", "--m=5/3")
    mutate(monkeypatch)
    _certified.cache_clear()  # the intact report proved the unmutated law
    assert not _certified(row)  # at symbolic charges
    code, text = _group_report(tmp_path, f"--k={k}", "--m=5/3")
    rows = {c["name"]: (c["defect"], c["pass"]) for c in json.loads(text)["checks"]}
    if holds:
        assert (code, text) == intact and rows[row] == ("0", True)
    else:
        assert code == 1 and rows[row] == ("1", False)
