import dataclasses
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from galilei21 import contraction, group
from galilei21.algebra import ExtensionParams
from galilei21.cli import DEFAULT_C_GRID, EXPERIMENT_NAMES, SAMPLES_CAP
from galilei21.contraction import (
    ETA,
    LimitExperiment,
    PoincareElement,
    boost_matrix,
    compose_boosts,
    contract_element,
    convergence_study,
    decompose,
    mass_cocycle_exponent,
    poincare_from_galilei,
    poincare_product,
    rotation_cocycle_exponent,
    rotation_matrix,
    sample_experiments,
    thomas_experiment,
)
from galilei21.group import (
    GroupElement,
    angle_distance,
    cocycle_exponent,
    compose,
    element_distance,
)

K_UNIT, M_UNIT = ExtensionParams(1, 0, 0), ExtensionParams(0, 1, 0)  # the limits' unit charges
NO_CHARGES = ExtensionParams(0, 0, 0)  # `compose` at these is the untwisted Galilei product


def rotate(theta, vec):
    """R(theta) vec, as the group law applies an element's own rotation."""
    return group._rotated(GroupElement(theta=theta).rotation, vec)


def lorentz_defect(lam):
    """max |Lambda^T eta Lambda - eta|, per matrix of a stack, from the residual the element checks."""
    return np.max(np.abs(contraction._lorentz_residual(contraction._as_matrices(lam))), axis=(-2, -1))


def at_origin(lam, c):
    """The element {lam, 0} at c."""
    return PoincareElement(lam, np.zeros(3), c)


def rand_vel(rng, lo=0.1, hi=0.9, c=1.0):
    speed = rng.uniform(lo, hi) * c
    ang = rng.uniform(0, 2 * math.pi)
    return (speed * math.cos(ang), speed * math.sin(ang))


def test_zero_velocity_boost_is_identity():
    assert np.array_equal(boost_matrix((0.0, 0.0), 5.0), np.eye(3))


def test_zero_velocity_in_a_stack_raises_no_fp_flag():
    rng = random.Random(3)
    v = np.array([(0.0, 0.0), rand_vel(rng, c=4.0), (-0.0, 0.0), (0.0, -0.0), rand_vel(rng, c=4.0)])
    c = np.array([5.0, 5.0, 7.0, 1e6, 4.5])
    with np.errstate(all="raise"):  # no 0/0 is formed at v = 0
        stacked = boost_matrix(v, c)
        singles = [boost_matrix(vi, ci) for vi, ci in zip(v, c)]
    for i, (vi, single) in enumerate(zip(v, singles)):
        if not vi.any():
            assert np.array_equal(stacked[i], np.eye(3)) and not np.signbit(stacked[i]).any()
        assert np.array_equal(stacked[i], single) and np.array_equal(np.signbit(stacked[i]), np.signbit(single))


def test_boost_matrix_textbook_values():
    # |v| = 3c/5 gives gamma = 5/4
    L = boost_matrix((3.0, 0.0), 5.0)
    assert float(L[0, 0]) == pytest.approx(1.25, abs=1e-15)
    assert float(L[1, 0]) == pytest.approx(0.75, abs=1e-15)
    assert float(L[0, 1]) == pytest.approx(0.75, abs=1e-15)
    assert float(L[2, 2]) == pytest.approx(1.0, abs=1e-15)


def test_boost_rejects_superluminal():
    with pytest.raises(ValueError):
        boost_matrix((1.0, 1.0), 1.0)


def test_boosts_and_rotations_are_lorentz():
    rng = random.Random(0)
    for _ in range(200):
        c = rng.uniform(1.0, 100.0)
        L = boost_matrix(rand_vel(rng, c=0.9 * c), c)
        assert lorentz_defect(L) < 1e-12
        R = rotation_matrix(rng.uniform(-10, 10))
        assert lorentz_defect(R) < 1e-12
        assert lorentz_defect(L @ R) < 1e-10


def test_lorentz_defect_matches_the_eta_product_form():
    rng = np.random.default_rng(8)
    v = rng.uniform(-0.6, 0.6, (60, 14, 2)) * rng.uniform(1, 1e6, (60, 14, 1))
    c = np.hypot(v[..., 0], v[..., 1]) / rng.uniform(0.05, 0.99, (60, 14))
    lam = boost_matrix(v, c) @ rotation_matrix(rng.uniform(-4, 4, (60, 14)))
    eta_form = np.max(np.abs(np.swapaxes(lam, -1, -2) @ ETA @ lam - ETA), axis=(-2, -1)).astype(np.float64)
    assert [x.hex() for x in lorentz_defect(lam).ravel().tolist()] == [
        x.hex() for x in eta_form.ravel().tolist()]
    # a NaN entry gives a NaN defect, an infinite one NaN or inf: each fails the check
    lam[0, 0, 1, 2], lam[1, 3, 0, 0], lam[2, 5, 2, 1] = np.nan, np.inf, -np.inf
    with np.errstate(invalid="ignore"):
        defects = lorentz_defect(lam)
    assert math.isnan(defects[0, 0])
    failing = ~(defects <= contraction.MATRIX_TOL)
    assert failing[0, 0] and failing[1, 3] and failing[2, 5] and failing.sum() == 3


def test_poincare_element_validation():
    good = PoincareElement(np.eye(3), np.zeros(3), 1.0)
    assert good.c == 1.0
    with pytest.raises(ValueError):
        PoincareElement(2 * np.eye(3), np.zeros(3), 1.0)
    with pytest.raises(ValueError):
        PoincareElement(np.diag([-1.0, -1.0, 1.0]), np.zeros(3), 1.0)  # not orthochronous
    with pytest.raises(ValueError, match="not proper"):  # Lorentz and orthochronous, det -1
        PoincareElement(np.diag([1.0, 1.0, -1.0]), np.zeros(3), 1.0)
    with pytest.raises(ValueError):
        PoincareElement(np.eye(3), np.zeros(3), -2.0)


def test_cofactor_determinant_matches_lapack():
    eps = np.finfo(np.float64).eps
    m = np.array([[2.0, -1.0, 0.5], [0.25, 3.0, -1.0], [1.0, 0.5, 1.5]])  # det 9.9375, exact in binary
    assert contraction._det(m) == 9.9375
    assert abs(np.linalg.det(m) - 9.9375) <= 4 * eps * 9.9375
    rng = np.random.default_rng(26)
    v = rng.uniform(-0.6, 0.6, (60, 14, 2)) * rng.uniform(1, 1e6, (60, 14, 1))
    c = np.hypot(v[..., 0], v[..., 1]) / rng.uniform(0.05, 0.99, (60, 14))
    lam = boost_matrix(v, c) @ rotation_matrix(rng.uniform(-4, 4, (60, 14)))
    for stack in (lam, lam[7], lam[7, 3], lam * np.array([1.0, 1.0, -1.0])):  # the last one improper
        det = contraction._det(stack)
        assert det.shape == stack.shape[:-2]
        # in ulps of the cofactor products, whose size is that of gamma^2 (gamma up to about 7 here)
        scale = np.max(np.abs(stack), axis=(-2, -1)) ** 2
        assert np.all(np.abs(det - np.linalg.det(stack)) <= 4 * eps * scale)


def test_decompose_pure_rotation():
    p = PoincareElement(rotation_matrix(0.8), np.zeros(3), 10.0)
    v, theta = decompose(p)
    assert (float(v[0]), float(v[1])) == pytest.approx((0.0, 0.0), abs=1e-14)
    assert float(theta) == pytest.approx(0.8, abs=1e-14)


def test_decompose_round_trip():
    rng = random.Random(1)
    for _ in range(1000):
        c = rng.uniform(1.0, 50.0)
        v = rand_vel(rng, hi=0.9, c=c)
        th = rng.uniform(-math.pi, math.pi)
        p = poincare_from_galilei(rng.uniform(-2, 2), (0.0, 0.0), v, th, c)
        dv, dth = decompose(p)
        assert float(dv[0]) == pytest.approx(v[0], abs=1e-10)
        assert float(dv[1]) == pytest.approx(v[1], abs=1e-10)
        assert float(angle_distance(float(dth), th)) < 1e-10


def test_two_boosts_produce_rotation():
    v, th = compose_boosts((0.5, 0.0), (0.0, 0.5), 1.0)
    assert abs(float(th)) > 1e-3  # generic non-collinear pair
    # collinear boosts stay boosts
    _, th2 = compose_boosts((0.5, 0.0), (0.25, 0.0), 1.0)
    assert abs(float(th2)) < 1e-15


def test_wigner_angle_small_speed_value():
    c = 100.0
    _, dth = compose_boosts((1.0, 0.0), (0.0, 1.0), c)
    assert float(c * c * dth) == pytest.approx(0.5, rel=1e-4)


def test_wigner_angle_antisymmetry():
    rng = random.Random(2)
    for _ in range(50):
        c = rng.uniform(5.0, 50.0)
        v, w = rand_vel(rng, c=0.9 * c), rand_vel(rng, c=0.9 * c)
        _, a = compose_boosts(v, w, c)
        _, b = compose_boosts(w, v, c)
        assert float(a + b) == pytest.approx(0.0, abs=1e-12)


def test_thomas_target_values():
    # the thomas target, minus the group's k term at k = 1, is (v x v')/2 at theta = 0
    assert thomas_experiment((1.0, 0.0), (0.0, 1.0), 0.0).targets.tolist() == [0.5]
    assert thomas_experiment((2.0, 0.0), (0.0, 1.0), 0.0).targets.tolist() == [1.0]
    assert thomas_experiment((1.0, 2.0), (0.5, 1.0), 0.0).targets.tolist() == [0.0]  # parallel


def test_boost_rotation_regrouping_identity():
    # L(v) R . L(v') R' = (L(v) L(R v')) (R R') entrywise
    rng = random.Random(3)
    for _ in range(100):
        c = rng.uniform(2.0, 100.0)
        v, vp = rand_vel(rng, c=0.85 * c), rand_vel(rng, c=0.85 * c)
        th, thp = rng.uniform(-3, 3), rng.uniform(-3, 3)
        lhs = (boost_matrix(v, c) @ rotation_matrix(th)) @ (
            boost_matrix(vp, c) @ rotation_matrix(thp)
        )
        rv = (
            math.cos(th) * vp[0] + math.sin(th) * vp[1],
            -math.sin(th) * vp[0] + math.cos(th) * vp[1],
        )
        rhs = (boost_matrix(v, c) @ boost_matrix(rv, c)) @ rotation_matrix(th + thp)
        assert float(np.max(np.abs(lhs - rhs))) < 1e-12 * float(np.max(np.abs(lhs)))


def test_mass_cocycle_trivial_cases():
    g = poincare_from_galilei(0.0, (0.0, 0.0), (1.0, 0.0), 0.0, 1000.0)
    h = poincare_from_galilei(0.0, (0.0, 0.0), (0.0, 0.0), 0.0, 1000.0)
    assert float(mass_cocycle_exponent(g, h)) == 0.0
    with pytest.raises(ValueError):
        mass_cocycle_exponent(g, poincare_from_galilei(0, (0, 0), (0, 0), 0, 10.0))


def test_mass_cocycle_limits():
    c = 1000.0
    boost = poincare_from_galilei(0.0, (0.0, 0.0), (1.0, 0.0), 0.0, c)
    time_step = poincare_from_galilei(1.0, (0.0, 0.0), (0.0, 0.0), 0.0, c)
    space_step = poincare_from_galilei(0.0, (1.0, 0.0), (0.0, 0.0), 0.0, c)
    assert float(mass_cocycle_exponent(boost, time_step)) == pytest.approx(0.5, rel=1e-5)
    assert float(mass_cocycle_exponent(boost, space_step)) == pytest.approx(1.0, rel=1e-6)


def test_rotation_cocycle_vanishes_on_rotations():
    c = 100.0
    out = rotation_cocycle_exponent(at_origin(rotation_matrix(1.0), c), at_origin(rotation_matrix(-2.5), c))
    assert abs(float(out)) < 1e-9 * c * c


def test_rotation_cocycle_matches_thomas_limit():
    c = 10000.0
    v, vp = (1.0, 0.0), (0.0, 1.0)
    out = rotation_cocycle_exponent(at_origin(boost_matrix(v, c), c), at_origin(boost_matrix(vp, c), c))
    assert float(out) == pytest.approx(0.5, rel=1e-6)
    # boost-then-rotation vs rotation-then-boost agree in the limit
    th = 0.7
    a = rotation_cocycle_exponent(
        at_origin(boost_matrix(v, c) @ rotation_matrix(th), c), at_origin(boost_matrix(vp, c), c)
    )
    rv = (math.cos(th) * vp[0] + math.sin(th) * vp[1],
          -math.sin(th) * vp[0] + math.cos(th) * vp[1])
    b = rotation_cocycle_exponent(
        at_origin(rotation_matrix(th) @ boost_matrix(rv, c), c), at_origin(boost_matrix(vp, c), c)
    )
    assert float(a) == pytest.approx(_half_cross(v, rv), rel=1e-4)


def test_pair_functions_refuse_elements_with_different_c():
    g = poincare_from_galilei(0.5, (1.0, 0.0), (3.0, 4.0), 0.3, 100.0)
    other_c = poincare_from_galilei(0.5, (1.0, 0.0), (3.0, 4.0), 0.3, 200.0)
    one_entry_off = poincare_from_galilei(0.5, (1.0, 0.0), (3.0, 4.0), 0.3, np.array([100.0, 200.0]))
    for pair in (poincare_product, mass_cocycle_exponent, rotation_cocycle_exponent):
        pair(g, g)
        for h in (other_c, one_entry_off):
            with pytest.raises(ValueError, match="elements carry different c"):
                pair(g, h)
            with pytest.raises(ValueError, match="elements carry different c"):
                pair(h, g)


def test_an_element_decompose_cannot_reconstruct_has_no_rotation_cocycle():
    # valid at MATRIX_TOL, but at beta = 0.99999, past MAX_BETA, where L(v) R(theta)
    # misses it by more: built here from gamma, as boost_matrix refuses the speed
    beta = 0.99999
    gamma = 1 / math.sqrt(1 - beta * beta)
    boost = np.array([[gamma, gamma * beta, 0.0], [gamma * beta, gamma, 0.0], [0.0, 0.0, 1.0]])
    g = PoincareElement(boost @ rotation_matrix(0.3), np.zeros(3), 1.0)
    h = poincare_from_galilei(0.0, (0.0, 0.0), (0.0, 0.5), 0.0, 1.0)
    for refused in (lambda: decompose(g), lambda: rotation_cocycle_exponent(g, h),
                    lambda: rotation_cocycle_exponent(h, g)):
        with pytest.raises(ValueError, match=r"\|v\|/c must be at most 0.999"):
            refused()


@pytest.mark.parametrize("c", [1.0, 1e2, 1e6])
def test_boosts_past_the_speed_bound_are_refused_and_those_below_it_reconstruct(c):
    """64 directions x 16 angles: below MAX_BETA every L(v) R(theta) builds and
    decomposes back to (v, theta); past it, and near beta = 1, where the MATRIX_TOL
    checks would refuse some of them as improper or not reconstructed, each
    is refused with the speed bound's own message."""
    assert contraction.MAX_BETA == 0.999
    phi = np.linspace(0.0, 2 * math.pi, 64, endpoint=False)[:, None]
    theta = np.broadcast_to(np.linspace(-math.pi, math.pi, 16, endpoint=False), (64, 16))
    direction = np.broadcast_to(np.stack([np.cos(phi), np.sin(phi)], axis=-1), (64, 16, 2))
    for beta in (0.5, 0.99, 0.998, 0.9989):
        v = beta * c * direction
        v_back, theta_back = decompose(poincare_from_galilei(0.0, (0.0, 0.0), v, theta, c))
        assert np.max(np.abs(v_back - v)) <= 1e-9 * c
        assert np.max(angle_distance(theta_back, theta)) <= 1e-9
    message = r"^\|v\|/c must be at most 0\.999$"
    for beta in (0.9991, 0.9995, 0.9998, 0.9999, 0.99995, 0.99999):
        v = beta * c * direction
        for point in v.reshape(-1, 2):
            with pytest.raises(ValueError, match=message):
                boost_matrix(point, c)
        v = np.where(np.arange(64)[:, None, None] == 17, v, 0.5 * c * direction)  # one direction past it
        for refused in (lambda: poincare_from_galilei(0.0, (0.0, 0.0), v, theta, c),
                        lambda: compose_boosts(v, np.zeros(2), c)):
            with pytest.raises(ValueError, match=message):
                refused()


def test_a_product_past_the_speed_bound_is_refused_with_the_bounds_message():
    """L(beta e1) L(beta e1) is a boost of 2 beta / (1 + beta^2): up to beta = 0.95
    it builds and decomposes; from 0.98 on it is past MAX_BETA and refused, alone
    or as one entry of a stack, with the message `boost_matrix` gives."""
    boost = lambda v: poincare_from_galilei(0.0, (0.0, 0.0), v, 0.0, 1.0)
    for beta in (0.9, 0.95):
        v, theta = decompose(poincare_product(boost((beta, 0.0)), boost((beta, 0.0))))
        assert v[0] == pytest.approx(2 * beta / (1 + beta * beta), rel=1e-12) and v[1] == 0 and theta == 0
    message = r"^\|v\|/c must be at most 0\.999$"
    for beta in (0.98, 0.99, 0.995, 0.999):
        with pytest.raises(ValueError, match=message):
            poincare_product(boost((beta, 0.0)), boost((beta, 0.0)))
        stack = boost([(0.5, 0.0), (beta, 0.0), (0.0, 0.5)])
        with pytest.raises(ValueError, match=message):
            poincare_product(stack, stack)


def test_contract_identity_and_translation():
    c = 50.0
    assert contract_element(
        PoincareElement(np.eye(3), np.zeros(3), c)
    ) == GroupElement(phase=0.0, tau=0.0, u=(0.0, 0.0), v=(0.0, 0.0), theta=0.0)
    p = PoincareElement(np.eye(3), np.array([c * 2.0, 3.0, 4.0]), c)
    out = contract_element(p)
    assert out.tau == pytest.approx(2.0)
    assert out.u == pytest.approx((3.0, 4.0))


def test_contract_commutes_with_product_asymptotically():
    rng = random.Random(4)
    for c in (1e3, 1e5):
        for _ in range(20):
            data = lambda: (
                rng.uniform(0.5, 2.0),
                (rng.uniform(-2, 2), rng.uniform(-2, 2)),
                rand_vel(rng, hi=2.0, c=1.0),
                rng.uniform(-1.5, 1.5),
            )
            g = poincare_from_galilei(*data(), c)
            h = poincare_from_galilei(*data(), c)
            left = contract_element(poincare_product(g, h))
            right = compose(NO_CHARGES, contract_element(g), contract_element(h))
            assert element_distance(left, right) < 100.0 / c ** 2


def test_nan_matrix_is_rejected():
    lam = np.eye(3)
    lam[1, 2] = np.nan
    with pytest.raises(ValueError):
        PoincareElement(lam, np.zeros(3), 10.0)
    with pytest.raises(ValueError):
        PoincareElement(np.eye(3), np.zeros(3), math.nan)
    with pytest.raises(ValueError):
        compose_boosts((math.nan, 0.0), (0.0, 1.0), 10.0)


def test_convergence_study_guards():
    exp = thomas_experiment((1.0, 0.0), (0.0, 1.0), 0.0)
    with pytest.raises(ValueError):
        convergence_study(exp, [100.0])
    with pytest.raises(ValueError):
        convergence_study(exp, [100.0, 10.0, 1000.0])
    for grid in ([-1000.0, -999.0, -998.0], [0.0, 1e3, 1e4], [math.nan, 1e3, 1e4]):
        with pytest.raises(ValueError, match="c grid must be positive"):
            convergence_study(exp, grid)


def test_thomas_study_slope_and_limit():
    rng = random.Random(5)
    study = convergence_study(sample_experiments("thomas", rng, 5, min(DEFAULT_C_GRID)), DEFAULT_C_GRID)
    assert study.fitted_slopes.tolist() == pytest.approx([-2.0] * 5, abs=0.1)
    # at the top of the grid the limit value is reached to 1e-3 relative
    assert np.all(study.errors[:, -1] < 1e-3 * np.abs(study.targets))


def test_mass_study_slope_and_zeta_growth():
    rng = random.Random(6)
    study = convergence_study(sample_experiments("mass", rng, 5, min(DEFAULT_C_GRID)), DEFAULT_C_GRID)
    assert study.fitted_slopes.tolist() == pytest.approx([-2.0] * 5, abs=0.1)
    assert study.growth_slopes.tolist() == pytest.approx([2.0] * 5, abs=0.1)


def test_diagram_study_slope():
    # the theta bounds keep theta_g + theta_h inside (-pi, pi): decompose's angle is the
    # sum itself, so element_distance may compare the two sides' theta on the line
    lo, hi = contraction._POINT[-1]
    assert -math.pi < 2 * lo and 2 * hi < math.pi
    rng = random.Random(7)
    study = convergence_study(sample_experiments("diagram", rng, 5, min(DEFAULT_C_GRID)), DEFAULT_C_GRID)
    assert study.fitted_slopes.tolist() == pytest.approx([-2.0] * 5, abs=0.1)


def test_thomas_zeta_tracks_rotation_angle():
    exp = thomas_experiment((30.0, 0.0), (0.0, 40.0), 1.3)
    # zeta = c^2 theta(Lambda) diverges quadratically for theta != 0
    _, zetas = exp.evaluate(np.array([[1e2, 1e3]]))
    z2, z3 = zetas[0]
    assert z3 / z2 == pytest.approx(100.0, rel=1e-3)
    assert z2 == pytest.approx(1.3 * 1e4, rel=1e-2)


def test_sample_experiments_rejects_unknown():
    with pytest.raises(ValueError, match="unknown experiment"):
        sample_experiments("nope", random.Random(0), 1, 100.0)


def test_sample_experiments_builds_every_parser_choice():
    # the parser's choices are defined in cli, apart from this layer, so that
    # building the parser needs no numpy
    for name in EXPERIMENT_NAMES:
        experiment = sample_experiments(name, random.Random(0), 3, 100.0)
        assert experiment.name == name and len(experiment.targets) == 3


def test_limit_reproduces_group_cocycle_k_term():
    # the surviving exponent (v x R v')/2 is the group law's k-term at
    # k = 1; the project-wide phase convention makes the signs opposite
    from fractions import Fraction

    from galilei21.algebra import ExtensionParams
    from galilei21.group import GroupElement, cocycle_exponent

    rng = random.Random(8)
    c = 1e5
    for _ in range(20):
        v, vp = rand_vel(rng, hi=3.0, c=1.0), rand_vel(rng, hi=3.0, c=1.0)
        th = rng.uniform(-1.5, 1.5)
        limit = rotation_cocycle_exponent(
            at_origin(boost_matrix(v, c) @ rotation_matrix(th), c), at_origin(boost_matrix(vp, c), c)
        )
        xi = cocycle_exponent(
            ExtensionParams(Fraction(1), Fraction(0), Fraction(0)),
            GroupElement(v=v, theta=th),
            GroupElement(v=vp),
        )
        assert float(limit) == pytest.approx(-xi, rel=1e-6, abs=1e-8)


# --- one layer over single elements and stacks ----------------------------------


def _digits(x):
    return np.format_float_scientific(np.float64(x), unique=True)


def test_single_element_calls_keep_their_values():
    assert [_digits(x) for x in boost_matrix((3.0, 0.0), 5.0).ravel()] == [
        "1.25e+00", "7.5e-01", "0.e+00", "7.5e-01", "1.25e+00", "0.e+00", "0.e+00", "0.e+00", "1.e+00"]
    assert [_digits(x) for x in boost_matrix((0.3, -0.4), 1.0)[1:, 1:].ravel()] == [
        "1.0556921938165305e+00", "-7.425625842204076e-02", "-7.425625842204076e-02", "1.099008344562721e+00"]
    assert _digits(rotation_matrix(0.8)[1, 2]) == "7.173560908995228e-01"
    v, delta = compose_boosts((0.5, 0.0), (0.0, 0.5), 1.0)
    assert [_digits(v[1]), _digits(delta)] == ["4.3301270189221924e-01", "1.433475689053654e-01"]
    g = poincare_from_galilei(0.7, (1.5, -0.25), (30.0, 40.0), 0.9, 100.0)
    h = poincare_from_galilei(1.25, (-2.0, 0.5), (-20.0, 10.0), -0.4, 100.0)
    assert _digits(mass_cocycle_exponent(g, h)) == "1.990974055545695e+03"
    p = poincare_product(g, h)
    assert [_digits(x) for x in p.a] == [
        "2.1490974055545695e+02", "4.404170172494955e+01", "5.9485136412293144e+01"]
    v, theta = decompose(p)
    assert [_digits(v[0]), _digits(theta)] == ["2.533460774958431e+01", "5.447140254352391e-01"]
    assert isinstance(theta, np.float64) and isinstance(v[0], np.float64)
    assert contract_element(p) == GroupElement(
        phase=0.0, tau=2.1490974055545693, u=(44.04170172494955, 59.485136412293144),
        v=(25.33460774958431, 56.37475009941609), theta=0.5447140254352391)
    assert _digits(rotation_cocycle_exponent(g, h)) == "4.471402543523891e+02"
    assert lorentz_defect(p.lam) == 6.661338147750939e-16 and p.c == 100.0


def _random_stack(rng, n, c):
    """n Galilei data tuples (tau, u, v, theta) with |v| < c, as per-entry arrays."""
    rows = [(rng.uniform(0.5, 2), (rng.uniform(-2, 2), rng.uniform(-2, 2)),
             rand_vel(rng, hi=0.9, c=c), rng.uniform(-3, 3)) for _ in range(n)]
    return [np.array(col) for col in zip(*rows)], rows


def test_stacks_match_single_calls_entry_by_entry():
    rng = random.Random(11)
    c = np.array([3.0, 10.0, 50.0, 1e3, 1e5, 7.0])
    (tau, u, v, theta), rows = _random_stack(rng, len(c), 3.0)
    (tau2, u2, v2, theta2), rows2 = _random_stack(rng, len(c), 3.0)
    g, h = poincare_from_galilei(tau, u, v, theta, c), poincare_from_galilei(tau2, u2, v2, theta2, c)
    assert not (g.lam.flags.writeable or g.a.flags.writeable or g.c.flags.writeable)
    stacked = {
        "boost": boost_matrix(v, c),
        "rotation": rotation_matrix(theta),
        "product": poincare_product(g, h).lam,
        "wigner": compose_boosts(v, v2, c)[1],
        "mass": mass_cocycle_exponent(g, h),
        "rotation_cocycle": rotation_cocycle_exponent(g, h),
        "lorentz": lorentz_defect(g.lam),
        "k_term": cocycle_exponent(K_UNIT, GroupElement(v=(v[:, 0], v[:, 1])), GroupElement(v=(v2[:, 0], v2[:, 1]))),
    }
    (v_dec, theta_dec), con = decompose(g), contract_element(poincare_product(g, h))
    for i, (ci, row, row2) in enumerate(zip(c, rows, rows2)):
        gi, hi = poincare_from_galilei(*row, ci), poincare_from_galilei(*row2, ci)
        single = {
            "boost": boost_matrix(row[2], ci),
            "rotation": rotation_matrix(row[3]),
            "product": poincare_product(gi, hi).lam,
            "wigner": compose_boosts(row[2], row2[2], ci)[1],
            "mass": mass_cocycle_exponent(gi, hi),
            "rotation_cocycle": rotation_cocycle_exponent(gi, hi),
            "lorentz": lorentz_defect(gi.lam),
            "k_term": cocycle_exponent(K_UNIT, GroupElement(v=row[2]), GroupElement(v=row2[2])),
        }
        for key, value in single.items():
            assert np.array_equal(stacked[key][i], value), key
        assert np.array_equal(g.a[i], gi.a) and g.c[i] == gi.c
        vi, theta_i = decompose(gi)
        assert (v_dec[i, 0], v_dec[i, 1], theta_dec[i]) == (vi[0], vi[1], theta_i)
        ei = contract_element(poincare_product(gi, hi))
        assert (con.tau[i], con.u[0][i], con.u[1][i], con.v[0][i], con.v[1][i], con.theta[i]) == (
            ei.tau, *ei.u, *ei.v, ei.theta)


def _valid_stack():
    (tau, u, v, theta), _ = _random_stack(random.Random(12), 5, 10.0)
    lam = boost_matrix(v, 10.0) @ rotation_matrix(theta)
    return lam, np.zeros((5, 3)), np.full(5, 10.0), v


def test_stack_with_one_nan_matrix_fails_closed():
    lam, a, c, _ = _valid_stack()
    PoincareElement(lam, a, c)  # valid as it stands
    lam[3, 1, 2] = np.nan
    with pytest.raises(ValueError, match="not a Lorentz transformation"):
        PoincareElement(lam, a, c)
    lam[3] = np.diag([-1.0, -1.0, 1.0])
    with pytest.raises(ValueError, match="not orthochronous"):
        PoincareElement(lam, a, c)
    lam[3] = np.diag([1.0, 1.0, -1.0])
    with pytest.raises(ValueError, match="not proper"):
        PoincareElement(lam, a, c)


def test_stack_with_one_nan_c_fails_closed():
    lam, a, c, v = _valid_stack()
    c[1] = np.nan
    with pytest.raises(ValueError, match="c must be positive"):
        PoincareElement(lam, a, c)
    with pytest.raises(ValueError, match="c must be positive"):
        poincare_from_galilei(1.0, (0.0, 0.0), v, 0.3, c)
    with pytest.raises(ValueError, match="c must be positive"):
        boost_matrix(np.zeros((5, 2)), c)  # v = 0 rows are no exception


def test_stack_with_one_superluminal_or_nan_velocity_fails_closed():
    _, _, c, v = _valid_stack()
    for bad in ((10.0, 0.0), (6.0, -8.0), (30.0, 1.0), (math.nan, 0.0)):
        w = v.copy()
        w[2] = bad
        with pytest.raises(ValueError, match="must be at most 0.999"):
            boost_matrix(w, c)
        with pytest.raises(ValueError, match="must be at most 0.999"):
            poincare_from_galilei(1.0, (0.0, 0.0), w, 0.3, c)


@pytest.mark.parametrize("bad, message", [
    (2 * np.eye(3), "not a Lorentz transformation"),
    (np.diag([-1.0, -1.0, 1.0]), "not orthochronous"),
    (np.diag([1.0, 1.0, -1.0]), "not proper"),
    (np.where(np.eye(3, dtype=bool), 1.0, np.nan), "not a Lorentz transformation"),
])
def test_one_matrix_broadcast_over_a_c_array_fails_closed(bad, message):
    # the matrix is checked at its own shape, before it is broadcast to (3,), (2, 4) or (0,)
    for c in (np.array([1.0, 2.0, 3.0]), np.full((2, 4), 5.0), np.array([])):
        with pytest.raises(ValueError, match=message):
            PoincareElement(bad, np.zeros(3), c)
        with pytest.raises(ValueError, match=message):
            PoincareElement(bad, np.zeros(c.shape + (3,)), c)
    p = PoincareElement(np.eye(3), np.zeros(3), np.array([1.0, 2.0, 3.0]))
    assert p.lam.shape == (3, 3, 3) and p.a.shape == (3, 3) and not p.lam.flags.writeable


def test_one_reduction_check_agrees_with_the_per_matrix_defect():
    tol = contraction.MATRIX_TOL
    rng = np.random.default_rng(30)
    v = rng.uniform(-0.6, 0.6, (60, 14, 2)) * rng.uniform(1, 1e6, (60, 14, 1))
    c = np.hypot(v[..., 0], v[..., 1]) / rng.uniform(0.05, 0.99, (60, 14))
    lam = boost_matrix(v, c) @ rotation_matrix(rng.uniform(-4, 4, (60, 14)))
    # Lambda^00 scaled by 1 + d gives a defect near 2 d at [0, 0]: d sweeps across tol / 2
    steps = tol / 2 * (1 + np.linspace(-1e-4, 1e-4, 41))
    stacks = [lam, lam[7], lam[7, 3], np.empty((0, 3, 3))]
    for d in steps:
        near = np.repeat(np.eye(3)[None], 5, axis=0)
        near[rng.integers(5), 0, 0] += d
        stacks.append(near)
    for bad in (np.nan, np.inf, -np.inf):
        hit = lam.copy()
        hit[rng.integers(60), rng.integers(14), rng.integers(3), rng.integers(3)] = bad
        stacks.append(hit)
    verdicts = []
    with np.errstate(invalid="ignore"):  # an infinite entry makes inf - inf
        for m in stacks:
            per_matrix = bool(np.all(lorentz_defect(m) <= tol))
            assert contraction._within_tol(contraction._lorentz_residual(m)) == per_matrix
            verdicts.append(per_matrix)
            if per_matrix:  # the element's first matrix check agrees
                PoincareElement(m, np.zeros(3), 1.0)
            else:
                with pytest.raises(ValueError, match="not a Lorentz transformation"):
                    PoincareElement(m, np.zeros(3), 1.0)
    assert True in verdicts[4:-3] and False in verdicts[4:-3]  # the sweep lands on both sides of tol
    assert verdicts[-3:] == [False] * 3 and verdicts[:4] == [True] * 4
    # entries at and just either side of the tolerance, and the empty stack
    for x, expected in ((tol, True), (np.nextafter(tol, 0), True), (np.nextafter(tol, 1), False),
                        (-tol, True), (-np.nextafter(tol, 1), False), (np.nan, False), (-np.inf, False)):
        m = np.zeros((4, 2, 3, 3))
        m[3, 1, 2, 0] = x
        assert contraction._within_tol(m) is expected
    assert contraction._within_tol(np.zeros((0, 3, 3))) is True


def test_mass_translation_is_the_element_poincare_from_galilei_builds(monkeypatch):
    pairs = []
    original = contraction.mass_cocycle_exponent
    monkeypatch.setattr(contraction, "mass_cocycle_exponent", lambda g, h: pairs.append((g, h)) or original(g, h))
    rng = np.random.default_rng(30)
    v, theta = rng.uniform(-50.0, 50.0, (5, 2)), rng.uniform(-3.0, 3.0, 5)
    tau_p, u_p = rng.uniform(0.5, 2.0, 5), rng.uniform(-2.0, 2.0, (5, 2))
    tau_p[0], u_p[1] = 0.0, (-0.0, 0.0)
    experiment = contraction.mass_experiment(v, theta, tau_p, u_p)
    c = np.tile(np.array(FINE_GRID), (5, 1))
    experiment.evaluate(c)
    (_, h), = pairs
    reference = poincare_from_galilei(tau_p[:, None], u_p[:, None, :], (0.0, 0.0), 0.0, c)
    assert h.a.shape == reference.a.shape and h.a.tobytes() == reference.a.tobytes()
    assert h.c.tobytes() == reference.c.tobytes()
    assert np.array_equal(h.lam, np.broadcast_to(np.eye(3), c.shape + (3, 3)))
    assert not np.any(np.signbit(h.lam))


# Independent references for the limits' targets, which `contraction` reads from
# `group.cocycle_exponent`: (v x w)/2, and the mass limit written out by hand.
def _half_cross(v, w):
    """(v x w) / 2, the limit of c^2 times the Wigner angle of L(v) L(w)."""
    return (v[0] * w[1] - v[1] * w[0]) / 2


def _hand_mass(v, ru, tau_p):
    """v^2/2 tau' + v . ru, squaring by libm pow (a Python float's ** 2)."""
    return (v[0] ** 2 + v[1] ** 2) / 2 * tau_p + v[0] * ru[0] + v[1] * ru[1]


# The group's m term and the hand form evaluate one exact value E on the same
# doubles v, tau' and r = R(theta) u' (both rotate by the same cos and sin).  With
# S = |v|^2 |tau'| / 2 + |v1 r1| + |v2 r2| and gamma_k = k u / (1 - k u) (Higham,
# ch. 3; no underflow at these magnitudes):
#   - the group forms ((v1 v1 + v2 v2) * 1/2 * tau') + (v1 r1 + v2 r2): a term meets
#     at most 4 roundings (the halving is exact), so it is within gamma_4 S of E;
#   - the hand form squares by pow, within 1 ulp (a factor 1 + d, |d| <= 2u, as two
#     roundings), then adds, halves, scales by tau' and adds twice: gamma_6 S.
# Hence |group - hand| <= (gamma_4 + gamma_6) S.
MASS_BOUND = Fraction(4, 2 ** 53 - 4) + Fraction(6, 2 ** 53 - 6)


def test_group_cocycle_terms_match_the_hand_references():
    rng = random.Random(34)
    n = 5000
    v, vp = ([rand_vel(rng, lo=0.0, hi=0.8, c=100.0) for _ in range(n)] for _ in range(2))
    u_p = [(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)) for _ in range(n)]
    theta, tau_p = [rng.uniform(-3.0, 3.0) for _ in range(n)], [rng.uniform(0.5, 2.0) for _ in range(n)]
    columns = [np.array(x) for x in (v, vp, u_p, theta, tau_p)]
    g = GroupElement(v=(columns[0][:, 0], columns[0][:, 1]), theta=columns[3])
    k_terms = -cocycle_exponent(K_UNIT, g, GroupElement(v=(columns[1][:, 0], columns[1][:, 1])))
    m_terms = -cocycle_exponent(M_UNIT, g, GroupElement(tau=columns[4], u=(columns[2][:, 0], columns[2][:, 1])))
    worst = Fraction(0)
    for i in range(n):
        gi = GroupElement(v=v[i], theta=theta[i])
        k = -cocycle_exponent(K_UNIT, gi, GroupElement(v=vp[i]))
        m = -cocycle_exponent(M_UNIT, gi, GroupElement(tau=tau_p[i], u=u_p[i]))
        # the array call gives the scalar call's doubles
        assert (k.hex(), m.hex()) == (float(k_terms[i]).hex(), float(m_terms[i]).hex())
        # the k term is (v x R v')/2 bit for bit: the same products, halved exactly
        assert k.hex() == _half_cross(v[i], rotate(theta[i], vp[i])).hex()
        ru = rotate(theta[i], u_p[i])
        (v1, v2), (r1, r2) = (map(Fraction, x) for x in (v[i], ru))
        t = Fraction(tau_p[i])
        scale = (v1 * v1 + v2 * v2) * abs(t) / 2 + abs(v1 * r1) + abs(v2 * r2)
        share = abs(Fraction(m) - Fraction(_hand_mass(v[i], ru, tau_p[i]))) / scale
        assert share <= MASS_BOUND, (i, float(share / MASS_BOUND))
        worst = max(worst, share)
    assert 0 < worst  # the two forms do differ in the last bits


# The draws and per-point formulas of one scalar experiment per sample: each
# sample's factory arguments in draw order, and its (error, zeta) at one c.
def _draw(name, rng, c_min):
    def rand_vel():
        speed = rng.uniform(0.4, 0.8) * c_min
        ang = rng.uniform(0.0, 2 * math.pi)
        return (speed * math.cos(ang), speed * math.sin(ang))

    def data():
        tau = rng.uniform(0.5, 2.0)
        u = (rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
        return (tau, u, rand_vel(), rng.uniform(-1.5, 1.5))

    if name == "thomas":
        return (rand_vel(), rand_vel(), rng.uniform(0.2, 3.0))
    if name == "mass":
        v, theta, tau_p = rand_vel(), rng.uniform(-3.0, 3.0), rng.uniform(0.5, 2.0)
        return (v, theta, tau_p, (rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)))
    return (*data(), *data())


def _scalar_target(name, args):
    """The family's target for one sample's draw, from scalar `cocycle_exponent` calls."""
    if name == "thomas":
        v, vp, theta = args
        return -cocycle_exponent(K_UNIT, GroupElement(v=v, theta=theta), GroupElement(v=vp))
    if name == "mass":
        v, theta, tau_p, u_p = args
        return -cocycle_exponent(M_UNIT, GroupElement(v=v, theta=theta), GroupElement(tau=tau_p, u=u_p))
    return 0.0


def _scalar_point(name, args, c):
    if name == "thomas":
        v, vp, theta = args
        _, delta = compose_boosts(v, rotate(theta, vp), c)
        return abs(c * c * delta - _scalar_target(name, args)), abs(c * c * theta)
    if name == "mass":
        v, theta, tau_p, u_p = args
        g = poincare_from_galilei(0.0, (0.0, 0.0), v, theta, c)
        h = poincare_from_galilei(tau_p, u_p, (0.0, 0.0), 0.0, c)
        zeta = abs(c * poincare_product(g, h).a[0])
        return abs(float(mass_cocycle_exponent(g, h)) - _scalar_target(name, args)), zeta
    g, h = poincare_from_galilei(*args[:4], c), poincare_from_galilei(*args[4:], c)
    left = contract_element(poincare_product(g, h))
    right = compose(NO_CHARGES, contract_element(g), contract_element(h))
    return element_distance(left, right), 0.0


FINE_GRID = tuple(1e2 * 2.0 ** k for k in range(14))  # --c-grid 1e2:1e6:logx2


@pytest.mark.parametrize("name", ["thomas", "mass", "diagram"])
@pytest.mark.parametrize("grid", [DEFAULT_C_GRID, FINE_GRID], ids=["default", "logx2"])
def test_family_matches_scalar_points_bit_for_bit(name, grid):
    seed, samples = 40 + len(grid), 6
    rng, oracle_rng = random.Random(seed), random.Random(seed)
    study = convergence_study(sample_experiments(name, rng, samples, min(grid)), grid)
    draws = [_draw(name, oracle_rng, min(grid)) for _ in range(samples)]
    assert rng.getstate() == oracle_rng.getstate()
    assert study.c_grid.tolist() == list(grid)
    assert study.errors.shape == study.zeta_magnitudes.shape == (samples, len(grid))
    assert study.targets.shape == study.fitted_slopes.shape == study.growth_slopes.shape == (samples,)
    columns = (study.targets, study.errors, study.zeta_magnitudes, study.fitted_slopes, study.growth_slopes)
    for args, target, errors, zetas, fitted, growth in zip(draws, *(c.tolist() for c in columns)):
        points = [_scalar_point(name, args, c) for c in grid]
        assert [x.hex() for x in errors] == [float(e).hex() for e, _ in points]
        assert [x.hex() for x in zetas] == [float(z).hex() for _, z in points]
        assert target.hex() == float(_scalar_target(name, args)).hex()
        _assert_exact_slope(grid, errors, fitted)
        _assert_exact_slope(grid, zetas, growth)
        if name == "diagram":
            assert growth == 0.0  # its zetas are a constant row


def _leaves(x) -> list:
    """The entries of nested tuples, depth first: a draw's floats, or a factory's arrays."""
    return [y for item in x for y in _leaves(item)] if isinstance(x, tuple) else [x]


FACTORIES = {"thomas": "thomas_experiment", "mass": "mass_experiment", "diagram": "diagram_experiment"}


@pytest.mark.parametrize("name", ["thomas", "mass", "diagram"])
@pytest.mark.parametrize("samples, odd_start", [(60, False), (SAMPLES_CAP, False), (60, True)],
                         ids=["workload", "cap", "odd-word-start"])
def test_bulk_sampler_gives_the_scalar_draws_bit_for_bit(monkeypatch, name, samples, odd_start):
    calls, factory = [], getattr(contraction, FACTORIES[name])
    monkeypatch.setattr(contraction, FACTORIES[name], lambda *args: calls.append(args) or factory(*args))
    rng, oracle_rng = random.Random(470 + samples), random.Random(470 + samples)
    if odd_start:  # one 32-bit word drawn first: every later double's two words start at an odd word
        assert rng.getrandbits(32) == oracle_rng.getrandbits(32)

    def per_sample_draw(*args):
        raise AssertionError("sample_experiments drew a double on its own")

    rng.uniform = rng.random = per_sample_draw
    sample_experiments(name, rng, samples, min(FINE_GRID))
    draws = [_draw(name, oracle_rng, min(FINE_GRID)) for _ in range(samples)]
    assert rng.getstate() == oracle_rng.getstate()
    (args,) = calls
    columns = np.concatenate([np.reshape(a, (samples, -1)) for a in _leaves(args)], axis=1)
    assert [[x.hex() for x in row] for row in columns.tolist()] == [[x.hex() for x in _leaves(d)] for d in draws]


def test_study_records_hold_read_only_arrays():
    experiment = sample_experiments("mass", random.Random(3), 4, min(DEFAULT_C_GRID))
    study = convergence_study(experiment, DEFAULT_C_GRID)
    for record, names in ((experiment, ["targets"]), (study, [f.name for f in dataclasses.fields(study)])):
        for name in names:
            array = getattr(record, name)
            assert isinstance(array, np.ndarray) and array.dtype == np.float64
            with pytest.raises(ValueError, match="read-only"):
                array[..., 0] = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, names[0], None)
        assert record == record and record != dataclasses.replace(record)  # compared by identity
    assert study.targets.tolist() == experiment.targets.tolist()
    # the record keeps its own copy: a caller's array is neither frozen nor read through
    targets = np.array([1.0, 2.0])
    record = LimitExperiment("own", targets, experiment.evaluate)
    targets[0] = 5.0
    assert record.targets.tolist() == [1.0, 2.0]


# --- an exact oracle for the slope fit -------------------------------------------
# The fit reads x = log10 c and y = log10 max(value, 1e-300) as doubles, and forms
# s = Sxy / Sxx with Sxy = sum xc yc and Sxx = sum xc^2, xc = x - mean x, yc = y - mean y.
# Here xc, yc and s are exact Fractions of those same doubles.  With u = 2^-53 and
# gamma_k = k u / (1 - k u) (Higham, ch. 3), the float fit
#   - centres at computed means, off the exact ones by |dx| <= gamma_n mean|x| and
#     |dy| <= gamma_n mean|y|, since a mean is a sum of n terms and one division;
#   - so sums products of the exact X = xc - dx and Y = yc - dy, which are
#     P = Sxy + n dx dy and Q = Sxx + n dx^2 >= Sxx;
#   - rounds each X, Y, product and sum: P^ = P + e, |e| <= g A, with g = gamma_(n+2)
#     and A = sum |X Y| <= sum |xc yc| + |dx| sum |yc| + |dy| sum |xc| + n |dx dy|,
#     and Q^ = Q (1 + f), |f| <= g;
#   - and divides once: s^ = (P^ / Q^)(1 + d), |d| <= u.
# Hence |s^ - P/Q| <= (g (1 + u) A + (u + g) |P|) / ((1 - g) Sxx), and
# |P/Q - s| = n |dx| |dy - s dx| / Q <= n |dx| (|dy| + |s| |dx|) / Sxx.  To first
# order the bound is (n + 3) u |s| + (n + 2) u sum |xc yc| / Sxx.

_U = Fraction(1, 2 ** 53)


def _gamma(k):
    return k * _U / (1 - k * _U)


def _exact_slope_and_bound(grid, row):
    """(exact least-squares slope, largest error the float fit may make) of one row."""
    x = [Fraction(v) for v in np.log10(np.asarray(grid, dtype=np.float64)).tolist()]
    y = [Fraction(v) for v in np.log10(np.maximum(np.asarray(row, dtype=np.float64), 1e-300)).tolist()]
    n, xm, ym = len(x), sum(x) / len(x), sum(y) / len(y)
    xc, yc = [v - xm for v in x], [v - ym for v in y]
    sxx = sum(a * a for a in xc)
    sxy = sum(a * b for a, b in zip(xc, yc))
    s = sxy / sxx
    dx, dy = (_gamma(n) * sum(abs(v) for v in z) / n for z in (x, y))
    A = (sum(abs(a * b) for a, b in zip(xc, yc)) + dx * sum(abs(b) for b in yc)
         + dy * sum(abs(a) for a in xc) + n * dx * dy)
    g = _gamma(n + 2)
    bound = ((g * (1 + _U) * A + (_U + g) * (abs(sxy) + n * dx * dy)) / ((1 - g) * sxx)
             + n * dx * (dy + abs(s) * dx) / sxx)
    return s, bound


def _assert_exact_slope(grid, row, slope):
    s, bound = _exact_slope_and_bound(grid, row)
    assert abs(Fraction(slope) - s) <= bound, (slope, float(s), float(bound))


@pytest.mark.parametrize("grid", [DEFAULT_C_GRID, FINE_GRID, (1.0, 1.5, 1e9)], ids=["default", "logx2", "uneven"])
def test_stacked_slopes_match_the_exact_least_squares_slope(grid):
    rng = np.random.default_rng(len(grid))
    values = 10.0 ** rng.uniform(-330.0, 5.0, (400, len(grid)))  # some under the 1e-300 floor
    values[:50] *= np.asarray(grid) ** -2.0  # near the slopes the studies fit
    values[50] = 0.0
    values[51] = 3.5  # constant rows, as diagram's zero zetas
    values[52, 1] = np.nan
    values[53, -1] = np.inf
    values[54] = np.inf
    slopes = contraction._loglog_slopes(grid, values).tolist()
    assert [i for i, s in enumerate(slopes) if math.isnan(s)] == [52, 53, 54]
    assert slopes[50] == slopes[51] == 0.0
    # a row's slope does not depend on the rows stacked with it
    assert [x.hex() for x in slopes] == [contraction._loglog_slopes(grid, row[None])[0].hex() for row in values]
    for row, slope in zip(np.delete(values, [52, 53, 54], axis=0), np.delete(slopes, [52, 53, 54])):
        _assert_exact_slope(grid, row, float(slope))


def _above(c, k):
    """The k-th double above c."""
    for _ in range(k):
        c = math.nextafter(c, math.inf)
    return c


@pytest.mark.parametrize("grid, fits", [
    ((1e300, _above(1e300, 1), _above(1e300, 2)), False),
    ((1.0, _above(1.0, 1), _above(1.0, 2)), True),
    ((1e300, 1e300 + 1e286, 1e300 + 2e286), False),
    ((1e300, 1e300 + 1e284, 1e300 + 2e284), False),
    ((1e10, 1e10 + 1e-5, 1e10 + 2e-5), False),
    ((1e10, 1e10 + 1e-3, 1e10 + 2e-3), True),
    (DEFAULT_C_GRID, True),
], ids=["1e300-ulps", "1-ulps", "1e300-by-1e286", "1e300-by-1e284", "1e10-by-1e-5", "1e10-by-1e-3", "default"])
def test_a_grid_of_one_log10_value_is_rank_deficient(grid, fits):
    # the fit needs two distinct log10 c doubles: log10(1 + 2^-52) is not 0, while
    # log10 maps 1e300 and the doubles just above it, or 1e10 + 1e-5, onto one double
    assert (len(set(np.log10(grid).tolist())) > 1) == fits
    values = np.arange(1.0, len(grid) + 1)[None, :]
    if fits:
        assert math.isfinite(contraction._loglog_slopes(grid, values)[0])
    else:
        with pytest.raises(ValueError, match="^the c grid gives a rank-deficient slope fit$"):
            contraction._loglog_slopes(grid, values)


# --- an exact oracle for the float64 limits --------------------------------------
# At a rational rapidity point t = tanh(rapidity / 2) a boost has rational entries,
# gamma = (1 + t^2)/(1 - t^2) and gamma beta = 2t/(1 - t^2), and so does a rotation
# at s = tan(theta / 2): cos = (1 - s^2)/(1 + s^2), sin = 2s/(1 + s^2).  Fractions
# then give the exact mass coboundary and the exact tan(delta / 2) of a Wigner angle.
# The reference angle 2 atan(tan(delta / 2)) is rounded to a double once, and the
# float path starts from rounded velocities and angles: both count in each share.

ORACLE_BOUND = 1e-4  # largest float64 error allowed, as a share of the O(1/c^2) signal


def _mul(a, b):
    return [[sum(a[i][j] * b[j][k] for j in range(3)) for k in range(3)] for i in range(3)]


def _unit(s):
    return ((1 - s * s) / (1 + s * s), 2 * s / (1 + s * s))


def _exact_rotation(s):
    cos, sin = _unit(s)
    return [[1, 0, 0], [0, cos, sin], [0, -sin, cos]]


def _exact_boost(gamma, p):
    """L(v) from gamma and p = gamma beta: rational whenever they are."""
    k = 1 / (1 + gamma)
    return [[gamma, p[0], p[1]], [p[0], 1 + k * p[0] * p[0], k * p[0] * p[1]],
            [p[1], k * p[1] * p[0], 1 + k * p[1] * p[1]]]


def _tan_half_angle(lam):
    """tan(theta / 2) of lam = L(v) R(theta), from the exact residual L(-v) lam."""
    p = (lam[1][0], lam[2][0])
    res = _mul(_exact_boost(lam[0][0], (-p[0], -p[1])), lam)
    assert res[0] == [1, 0, 0] and res[1][1] == res[2][2] and res[1][2] == -res[2][1]
    return res[1][2] / (1 + res[1][1])


def _tan_half_difference(ta, tb):
    """tan((a - b) / 2) from tan(a / 2) and tan(b / 2)."""
    return (ta - tb) / (1 + ta * tb)


def _oracle_velocity(rng, c, c_min):
    """(exact boost, exact v, float v) at a speed drawn as sample_experiments draws it."""
    beta = rng.uniform(0.4, 0.8) * c_min / c
    t = Fraction(beta / (1 + math.sqrt(1 - beta * beta)))  # beta = 2t / (1 + t^2)
    n = _unit(Fraction(math.tan(rng.uniform(-3, 3) / 2)))
    gamma, gb = (1 + t * t) / (1 - t * t), 2 * t / (1 - t * t)
    v = tuple(Fraction(c) * gb / gamma * ni for ni in n)
    return _exact_boost(gamma, (gb * n[0], gb * n[1])), v, tuple(float(x) for x in v)


def _oracle_angle(rng):
    """(tan(theta / 2) as a Fraction, theta as a float)."""
    s = math.tan(rng.uniform(-1.5, 1.5) / 2)
    return Fraction(s), 2 * math.atan(s)


def _rotated(s, v):
    cos, sin = _unit(s)
    return (cos * v[0] + sin * v[1], -sin * v[0] + cos * v[1])


def _oracle_shares(grid):
    """Largest float64 error over the oracle points of the grid, as a share of
    the signal, for the Wigner angle, the rotation cocycle and the mass cocycle.

    The functions are read from the module, so a test may replace them.
    """
    worst = {"wigner": 0.0, "rotation": 0.0, "mass": 0.0}
    for i, c in enumerate(grid):
        rng, C = random.Random(100 + i), Fraction(c)
        for _ in range(3):
            (L1, v1, v1f), (L2, v2, v2f) = (_oracle_velocity(rng, c, min(grid)) for _ in range(2))
            (s1, th1), (s2, th2) = _oracle_angle(rng), _oracle_angle(rng)
            cases = {}
            # the Wigner angle of L(v1) L(v2) against (v1 x v2)/2
            ref = 2 * math.atan(_tan_half_angle(_mul(L1, L2)))
            cases["wigner"] = (c * c * abs(float(contraction.compose_boosts(v1f, v2f, c)[1]) - ref),
                               C * C * Fraction(ref) - (v1[0] * v2[1] - v1[1] * v2[0]) / 2)
            # c^2 times theta(lam1 lam2) - theta1 - theta2 against (v1 x R(theta1) v2)/2
            lam1, lam2 = _mul(L1, _exact_rotation(s1)), _mul(L2, _exact_rotation(s2))
            tan_half = _tan_half_difference(
                _tan_half_difference(_tan_half_angle(_mul(lam1, lam2)), s1), s2)
            ref, w = 2 * math.atan(tan_half), _rotated(s1, v2)
            boost, rotation = contraction.boost_matrix, contraction.rotation_matrix
            out = contraction.rotation_cocycle_exponent(
                at_origin(boost(v1f, c) @ rotation(th1), c), at_origin(boost(v2f, c) @ rotation(th2), c))
            cases["rotation"] = (abs(float(out) - c * c * ref),
                                 C * C * Fraction(ref) - (v1[0] * w[1] - v1[1] * w[0]) / 2)
            # the mass coboundary of (L1 R1, 0) and (1, (c tau', u')) against v^2/2 tau' + v . R u'
            tau, u = rng.uniform(0.5, 2.0), (rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
            a = (C * Fraction(tau), Fraction(u[0]), Fraction(u[1]))
            exact = C * ((lam1[0][0] - 1) * a[0] + lam1[0][1] * a[1] + lam1[0][2] * a[2])
            assert exact == C * (sum(x * y for x, y in zip(lam1[0], a)) - a[0])  # the unsimplified form
            ru = _rotated(s1, a[1:])
            target = (v1[0] ** 2 + v1[1] ** 2) / 2 * Fraction(tau) + v1[0] * ru[0] + v1[1] * ru[1]
            value = contraction.mass_cocycle_exponent(
                contraction.poincare_from_galilei(0.0, (0.0, 0.0), v1f, th1, c),
                contraction.poincare_from_galilei(tau, u, (0.0, 0.0), 0.0, c))
            cases["mass"] = (abs(Fraction(float(value)) - exact), exact - target)
            for name, (error, signal) in cases.items():
                assert signal != 0, name
                worst[name] = max(worst[name], float(error / abs(signal)))
    return worst


@pytest.mark.parametrize("grid", [DEFAULT_C_GRID, FINE_GRID], ids=["default", "logx2"])
def test_float64_limits_match_the_exact_oracle(grid):
    # measured: at most 2.1e-7 (wigner), 2.0e-6 (rotation) and 2.3e-7 (mass); the
    # np.longdouble layer this replaced gave 3e-8, 0.21 and 0.013 on these points
    worst = _oracle_shares(grid)
    assert all(share <= ORACLE_BOUND for share in worst.values()), worst


_wigner, _boost = contraction._wigner_angle, contraction.boost_matrix
MUTANTS = {
    # the sign of the cross term in the closed-form Wigner angle
    "wigner": ("_wigner_angle", lambda l1, l2: -_wigner(l1, l2)),
    # the mass coboundary without its (Lambda^00 - 1) a'^0 term
    "mass": ("mass_cocycle_exponent",
             lambda g, h: g.c * (g.lam[..., 0, 1] * h.a[..., 1] + g.lam[..., 0, 2] * h.a[..., 2])),
    # boosts with the wrong sign on the gamma beta_i entries: L(-v) for L(v)
    "boost": ("boost_matrix", lambda v, c: contraction.FLIP * _boost(v, c)),
}


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_exact_oracle_rejects_mutants(monkeypatch, mutant):
    monkeypatch.setattr(contraction, *MUTANTS[mutant])
    with pytest.raises((AssertionError, ValueError)):  # a share past the bound, or a failed layer check
        worst = _oracle_shares(DEFAULT_C_GRID)
        assert all(share <= ORACLE_BOUND for share in worst.values()), worst
