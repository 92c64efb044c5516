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
from galilei21.cli import _CLAIMS, _certified, _group_rows, _sides, _zeta, main
from galilei21.group import (
    BLOCK_DOUBLES,
    IDENTITY,
    GroupElement,
    _rotated,
    angle_distance,
    associativity_sides,
    cocycle_exponent,
    compose,
    cross,
    element_distance,
    eliminate_k_map,
    homomorphism_sides,
    identity_certified,
    inverse,
    random_elements,
    worst_per_sample,
)
from scalar_sampler import random_element, random_params, random_rational_element

TOL = 1e-12


def test_identity_is_neutral():
    rng = random.Random(1)
    p = ExtensionParams(F(3), F(1), F(2))
    for _ in range(20):
        g = random_element(rng)
        for params in (p, ExtensionParams(F(3), F(1), F(0))):
            assert element_distance(compose(params, IDENTITY, g), g) < TOL
            assert element_distance(compose(params, g, IDENTITY), g) < TOL


def test_zero_charges_twist_nothing():
    rng = random.Random(2)
    p0 = ExtensionParams(0, 0, 0)
    for _ in range(50):
        assert cocycle_exponent(p0, random_element(rng), random_element(rng)) == 0
    g, h = random_elements(random.Random(2), 300, 2)
    xi = cocycle_exponent(p0, g, h)
    assert type(xi) is int and xi == 0  # an exact 0, broadcast by the caller
    # the untwisted product, written out: phases add, and h's u and v turn by g's angle
    c, s = np.cos(g.theta), np.sin(g.theta)
    ru, rv = ((c * w[0] + s * w[1], c * w[1] - s * w[0]) for w in (h.u, h.v))
    untwisted = GroupElement(g.phase + h.phase, g.tau + h.tau,
                             (ru[0] + g.v[0] * h.tau + g.u[0], ru[1] + g.v[1] * h.tau + g.u[1]),
                             (rv[0] + g.v[0], rv[1] + g.v[1]), g.theta + h.theta)
    gh = compose(p0, g, h)
    for field in ("phase", "tau", "u", "v", "theta"):
        assert _bits(getattr(gh, field)) == _bits(getattr(untwisted, field)), field


@pytest.mark.parametrize("charges, formula", [((F(3, 2), 0, F(-2)), "dot"), ((0, F(-5, 4), F(-2)), "cross")])
def test_a_zero_charge_forms_no_term(monkeypatch, charges, formula):
    # at m = 0 the law forms no v . v or v . R u' (dot), at k = 0 no v x R v' (cross)
    def refused(a, b):
        raise AssertionError(f"{formula} formed at charges {charges}")

    g, h = random_elements(random.Random(3), 300, 2)
    expected = cocycle_exponent(ExtensionParams(*charges), g, h)
    monkeypatch.setattr(group_module, formula, refused)
    assert _bits(cocycle_exponent(ExtensionParams(*charges), g, h)) == _bits(expected)


def test_boost_against_time_translation():
    # m = 1: a boost composed with a pure time step picks up -v^2 tau'/2
    p = ExtensionParams(1, 1, 0)
    g = GroupElement(v=(1.0, 0.0))
    h = GroupElement(tau=1.0)
    out = compose(p, g, h)
    assert out.phase == pytest.approx(-0.5, abs=1e-15)
    assert out.u == pytest.approx((1.0, 0.0))
    assert out.v == (1.0, 0.0)
    assert out.tau == 1.0


def test_boost_charge_term_isolated():
    p = ExtensionParams(2, 0, 0)
    g = GroupElement(v=(1.0, 0.0))
    h = GroupElement(v=(0.0, 1.0))
    assert cocycle_exponent(p, g, h) == pytest.approx(-1.0, abs=1e-15)


def test_rotation_time_charge_term_isolated():
    p = ExtensionParams(0, 0, 3)
    g = GroupElement(theta=math.pi)
    h = GroupElement(tau=2.0)
    assert cocycle_exponent(p, g, h) == pytest.approx(6 * math.pi, abs=1e-12)


def test_cocycle_is_normalized():
    rng = random.Random(3)
    p = ExtensionParams(F(1), F(2), F(3))
    for _ in range(20):
        g = random_element(rng)
        assert cocycle_exponent(p, g, IDENTITY) == 0
        assert cocycle_exponent(p, IDENTITY, g) == 0


def test_one_law_takes_l_and_compares_theta_on_the_line():
    """The law takes l != 0 with no choice of group, and a whole turn is no identity:
    at l != 0 it twists a time translation by 2 pi l tau', so theta is compared on the line."""
    p = ExtensionParams(0, 0, 1)
    assert compose(p, IDENTITY, IDENTITY) == IDENTITY and inverse(p, IDENTITY) == IDENTITY
    assert compose(p, GroupElement(theta=2 * math.pi), GroupElement(tau=1.0)).phase == 2 * math.pi
    assert element_distance(GroupElement(theta=0.0), GroupElement(theta=2 * math.pi)) == 2 * math.pi


def test_inverse_round_trip():
    rng = random.Random(4)
    p = ExtensionParams(F(2), F(-1), F(1, 2))
    assert inverse(p, IDENTITY) == IDENTITY
    rot = GroupElement(theta=0.7)
    assert inverse(p, rot) == GroupElement(theta=-0.7)
    for _ in range(100):
        g = random_element(rng)
        gi = inverse(p, g)
        assert element_distance(compose(p, g, gi), IDENTITY) < TOL
        assert element_distance(compose(p, gi, g), IDENTITY) < TOL


def test_inverse_exact_mode():
    rng = random.Random(5)
    p = ExtensionParams(F(2), F(-1), F(1, 2))
    for _ in range(50):
        g = random_rational_element(rng)
        gi = inverse(p, g)
        assert compose(p, g, gi) == IDENTITY
        assert compose(p, gi, g) == IDENTITY


def test_associativity_float_mode():
    rng = random.Random(6)
    for _ in range(20):
        p = random_params(rng)
        p_ext = ExtensionParams(p.k, p.m, F(0))
        for _ in range(50):
            g, h, f = (random_element(rng) for _ in range(3))
            assert element_distance(*associativity_sides(p, g, h, f)) < TOL
            assert element_distance(*associativity_sides(p_ext, g, h, f)) < TOL


def test_associativity_exact_mode():
    rng = random.Random(7)
    for _ in range(10):
        p = random_params(rng)
        for _ in range(20):
            g, h, f = (random_rational_element(rng) for _ in range(3))
            d = element_distance(*associativity_sides(p, g, h, f))
            assert d == 0 and not isinstance(d, float)


def test_corrupted_law_fails_associativity(monkeypatch):
    # dropping the rotation in front of u' breaks the cocycle identity
    p = ExtensionParams(0, 1, 0)

    def bad_xi(params, g, h, rotated=None):
        return -(g.v[0] ** 2 + g.v[1] ** 2) / 2 * h.tau - (
            g.v[0] * h.u[0] + g.v[1] * h.u[1]
        )

    monkeypatch.setattr(group_module, "cocycle_exponent", bad_xi)
    rng = random.Random(8)
    defects = [element_distance(*associativity_sides(p, *(random_element(rng) for _ in range(3))))
               for _ in range(50)]
    assert all(math.isfinite(d) for d in defects)
    assert worst_defect(defects, 0.0) > 0.05


def _shifted_sides(params, zeta):
    """The sides (gh)f and g(hf) under the law shifted by zeta's coboundary."""
    twist = lambda a, b: compose(params, a, b, zeta)
    return lambda g, h, f: (twist(twist(g, h), f), twist(g, twist(h, f)))


def test_zero_coboundary_keeps_xi():
    p = ExtensionParams(F(1), F(2), F(0))
    rng = random.Random(10)
    for _ in range(20):
        g, h = random_element(rng), random_element(rng)
        assert compose(p, g, h, lambda g: 0) == compose(p, g, h)


def test_additive_zeta_has_zero_coboundary():
    p0 = ExtensionParams(0, 0, 0)
    rng = random.Random(11)
    for _ in range(20):
        g, h = random_element(rng), random_element(rng)
        shifted = compose(p0, g, h, lambda g: 5.0 * g.tau)
        assert shifted.phase == pytest.approx(g.phase + h.phase, abs=1e-14)


def test_coboundary_of_anything_is_a_cocycle():
    # starting from xi = 0, any zeta produces an associative law
    zetas = [
        lambda g: g.v[0] ** 2 + 0.3 * g.u[1] * g.tau,
        lambda g: math.sin(g.theta) * g.u[0] + g.tau ** 2,
    ]
    rng = random.Random(12)
    for zeta in zetas:
        sides = _shifted_sides(ExtensionParams(0, 0, 0), zeta)
        for _ in range(50):
            left, right = sides(*(random_element(rng) for _ in range(3)))
            assert element_distance(left, right) < 1e-11


def test_coboundary_shift_of_group_law_stays_associative():
    sides = _shifted_sides(ExtensionParams(F(1), F(2), F(3)), lambda g: 0.7 * g.v[0] * g.u[0] - g.tau * g.theta)
    rng = random.Random(13)
    for _ in range(50):
        left, right = sides(*(random_element(rng) for _ in range(3)))
        assert element_distance(left, right) < 1e-11


def test_a_rational_coboundary_shift_is_certified_associative():
    """At the symbolic charges (2ms, m, l) a rational zeta of the coordinates leaves
    the law associative as a polynomial identity; a zeta that reads the phase,
    which is not a coordinate of the quotient, does not."""
    m, l, s = (Poly.symbol(name) for name in ("m", "l", "s"))
    charges = ExtensionParams(2 * m * s, m, l)
    zeta = lambda g: F(37, 100) * g.v[0] * g.u[0] - F(11, 100) * g.tau * g.theta + F(1, 5) * g.v[1] * g.v[1]
    assert identity_certified(_shifted_sides(charges, zeta), 3)
    assert not identity_certified(_shifted_sides(charges, lambda g: g.phase * g.tau), 3)


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
        assert element_distance(*homomorphism_sides(p_k, p_0, phi, g, h)) < TOL


def test_charge_removal_is_homomorphism_exact():
    rng = random.Random(15)
    for _ in range(10):
        p = random_params(rng, nonzero_m=True)
        p_k = ExtensionParams(p.k, p.m, F(0))
        p_0 = ExtensionParams(F(0), p.m, F(0))
        phi = lambda g: eliminate_k_map(p_k, g)
        for _ in range(20):
            g, h = random_rational_element(rng), random_rational_element(rng)
            d = element_distance(*homomorphism_sides(p_k, p_0, phi, g, h))
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
        element_distance(*homomorphism_sides(p_k, p_0, bad, random_element(rng), random_element(rng)))
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
        assert element_distance(*homomorphism_sides(p, p, lambda x: x, g, h)) == 0


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


@pytest.mark.parametrize("defects", [
    [0.0, math.nan, 1e-13], [math.nan], [1e-13, math.inf, 0.0], [0.0] * 500, [3e-13], [2.0],
], ids=["nan", "nan_only", "inf", "zeros", "one_sample", "one_failing_sample"])
def test_float_row_reduction_fails_closed_as_the_per_sample_aggregate(tmp_path, monkeypatch, defects):
    """cmd_group reduces a row's defect array with numpy's max before worst_defect:
    the row gets the value and type that worst_defect gives on every sample's defect."""
    expected = worst_defect(defects, 0.0)
    seen = []
    real_check = cli_module._check
    monkeypatch.setattr(cli_module, "_group_rows", lambda params, n, tol: [
        ("row", None, len(defects), 1, lambda g: np.array(defects), 1e-12)])
    monkeypatch.setattr(cli_module, "_check", lambda *a: seen.append(a[1]) or real_check(*a))
    code = main(["group", "--k=1", "--m=1", f"--out={tmp_path / 'r.txt'}"])
    (worst,) = seen
    assert type(worst) is type(expected) is float
    assert worst == expected or math.isnan(worst) and math.isnan(expected)
    assert code == (0 if expected < 1e-12 else 1)  # the canary's exit 1: tests/test_cli.py


def test_nan_time_translation_fails_associativity():
    p = ExtensionParams(F(1), F(2), F(0))
    rng = random.Random(18)
    g, h, f = (random_element(rng) for _ in range(3))
    g = GroupElement(phase=g.phase, tau=math.nan, u=g.u, v=g.v, theta=g.theta)
    d = element_distance(*associativity_sides(p, g, h, f))
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
    with np.errstate(all="ignore"):
        batched = element_distance(*associativity_sides(p, g, h, f))
    assert batched[0] < TOL and math.isnan(batched[1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        defect = lambda i: element_distance(*associativity_sides(p, at(g, i), at(h, i), at(f, i)))
        assert defect(0) == batched[0]
        assert math.isnan(defect(1))


def test_angle_distance_folds():
    assert angle_distance(0, 2 * math.pi) < 1e-12
    assert angle_distance(-math.pi, math.pi) < 1e-12
    assert angle_distance(F(3), F(3)) == 0
    assert not isinstance(angle_distance(F(3), F(3)), float)


def test_rotation_matrix_convention():
    # R(theta) = [[cos, sin], [-sin, cos]], applied by an element's own rotation
    rotate = lambda theta, vec: _rotated(GroupElement(theta=theta).rotation, vec)
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
    element_distance(*associativity_sides(p, g, h, f))
    assert len(calls) == 3  # g, h and gh; the right factors f and hf are never rotated by
    calls.clear()
    inverse(p, g)  # g's own rotation is kept: only -theta is computed, once for both vectors
    assert len(calls) == 1 and calls[0].tobytes() == (-g.theta).tobytes()
    # a product rotates h's u and v once and hands them to its phase and its
    # coordinates; a coboundary-shifted product rotates no more
    rotated = []
    real_rotated = group_module._rotated
    monkeypatch.setattr(group_module, "_rotated", lambda cs, vec: rotated.append(vec) or real_rotated(cs, vec))
    counts = []
    for product in (lambda: compose(p, g, h), lambda: compose(p, g, h, _zeta),
                    lambda: associativity_sides(p, g, h, f)):
        rotated.clear()
        product()
        counts.append(len(rotated))
    assert counts == [2, 2, 8]
    (coboundary,) = [row[4] for row in _group_rows(p, 50, TOL) if row[0] == "coboundary_invariance"]
    rotated.clear()
    coboundary(g, h, f)
    assert len(rotated) == 8  # four shifted products


def test_shifted_product_is_the_twisted_law_of_the_shifted_exponent_bit_for_bit():
    p = ExtensionParams(F(-5, 3), F(-5, 4), F(7, 2))
    g, h = random_elements(random.Random(24), 300, 2)
    for a, b in ((g, h), (h, g), (g, g)):
        gh = compose(ExtensionParams(0, 0, 0), a, b)
        phase = a.phase + b.phase + (cocycle_exponent(p, a, b) + _zeta(gh) - _zeta(a) - _zeta(b))
        fast, twisted = compose(p, a, b, _zeta), GroupElement(phase, gh.tau, gh.u, gh.v, gh.theta)
        for field in ("phase", "tau", "u", "v", "theta"):
            assert _bits(getattr(fast, field)) == _bits(getattr(twisted, field)), field


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
        out = compose(p, g, g)
        assert out.phase == 0
    # boosts against boosts only see the k term
    b1, b2 = GroupElement(v=(0.0, vy)), GroupElement(v=(0.0, vy))
    assert cocycle_exponent(p, b1, b2) == 0  # parallel boosts


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
        d = element_distance(*associativity_sides(p, g, h, f))
        assert d[0] < TOL and np.isnan(d[1:]).all()
    worst = worst_per_sample((np.array([0.0, 1.0, math.inf]), np.array([2.0, math.nan, 0.0])), 0.0)
    assert worst[0] == 2.0 and np.isnan(worst[1:]).all()
    assert math.isnan(worst_per_sample((1.0, -math.inf), 0.0))  # scalars: worst_defect
    assert isinstance(worst_per_sample((F(0), F(0)), F(0)), F)


def test_one_law_for_exact_scalars_and_arrays():
    p = ExtensionParams(F(1, 2), F(3), F(0))
    rng = random.Random(20)
    g, h, f = (random_rational_element(rng) for _ in range(3))
    d = element_distance(*associativity_sides(p, g, h, f))
    assert d == 0 and isinstance(d, F)
    assert isinstance(cocycle_exponent(p, g, h), F)
    # an array element composed with the scalar identity stays float64
    (a,) = random_elements(random.Random(21), 5)
    out = compose(p, IDENTITY, a)
    assert all(x.dtype == np.float64 for x in (out.phase, out.tau, *out.u, *out.v, out.theta))
    assert (element_distance(compose(p, a, IDENTITY), a) < TOL).all()


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
        laws = [lambda g, h: compose(params, g, h)]
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
    for name, note, count, arity, law, bound in exact:
        assert count is None, name  # an exact row takes no samples
        assert (note, arity, law, bound) == (None,) * 4, name  # only its name: the claim table has the rest
        sides, arity = _sides(params)[name]
        assert identity_certified(sides, arity) and _CLAIMS[name](params), name  # at this charge set too
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

    def xi(p, g, h, rotated=None):
        # + k (v x u'), whose coboundary at (g, h, f) is -k tau_f (v_g x v_h), not zero;
        # a float k on numpy arrays of samples, as the law's own terms take it
        k = float(p.k) if isinstance(g.v[0], np.ndarray) else p.k
        return original(p, g, h, rotated) + k * cross(g.v, h.u)

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


def _right_side_moved(real):
    """`real`'s two sides with the right one moved by tau -> tau + 1: a false identity."""

    def sides(*args):
        left, right = real(*args)
        return left, dataclasses.replace(right, tau=right.tau + 1)

    return sides


@pytest.mark.parametrize("name, failing", [
    ("associativity_sides", {"associativity_covering", "associativity_extended", "associativity_exact_mode"}),
    ("homomorphism_sides", {"k_removal_homomorphism", "k_removal_homomorphism_exact"}),
])
def test_float_and_exact_rows_read_one_sides_function(tmp_path, monkeypatch, name, failing):
    """An identity's float rows and its exact row read the same two sides, so a
    false identity there fails all of them, and no other row."""
    monkeypatch.setattr(group_module, name, _right_side_moved(getattr(group_module, name)))
    _certified.cache_clear()
    code, text = _group_report(tmp_path, "--k=-3/2", "--m=5/3")
    rows = {c["name"]: c["pass"] for c in json.loads(text)["checks"]}
    assert len(rows) == 7 and code == 1
    assert {row for row, ok in rows.items() if not ok} == failing
