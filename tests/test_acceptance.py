"""Acceptance suite: one test per exit criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines and
timings.  Every tolerance is fixed here, not configurable.
"""

import contextlib
import random
import time

import numpy as np

from galilei21 import algebra, contraction, enveloping, group
from galilei21.algebra import ExtensionParams
from galilei21.cli import DEFAULT_C_GRID
from galilei21.cli import main as cli_main
from enveloping_checks import central, commutator, in_span, table_basis
from scalar_sampler import random_params, random_rational, random_rational_element


@contextlib.contextmanager
def criterion(number, label, time_limit):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} {label}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number:2d} {label}: PASS ({elapsed:.2f}s, limit {time_limit}s)")
    assert elapsed < time_limit, f"criterion {number} exceeded its {time_limit}s budget"


def test_criterion_01_jacobi_identity():
    with criterion(1, "jacobi identity, 200 random + boundary charges", 1.0):
        rng = random.Random(2024)
        cases = [
            ExtensionParams(0, 0, 0),
            ExtensionParams(0, random_rational(rng, nonzero=True), random_rational(rng)),
            ExtensionParams(random_rational(rng, nonzero=True), 0, random_rational(rng)),
            ExtensionParams(random_rational(rng, nonzero=True), random_rational(rng, nonzero=True), 0),
        ]
        cases += [random_params(rng) for _ in range(200)]
        for p in cases:
            alg = algebra.make_galilei_algebra(p)
            assert algebra.jacobi_defect(alg) == 0
            assert algebra.antisymmetry_defect(alg) == 0


def test_criterion_02_charge_removal_isomorphism():
    with criterion(2, "k-removal basis change lands on g_(0,m,l), 50 charges", 1.0):
        rng = random.Random(2025)
        for _ in range(50):
            p = random_params(rng, nonzero_m=True)
            inverse = algebra.eliminate_k_change(ExtensionParams(-p.k, p.m, p.l))
            moved = algebra.apply_basis_change(
                algebra.make_galilei_algebra(p), algebra.eliminate_k_change(p), inverse
            )
            target = algebra.make_galilei_algebra(ExtensionParams(0, p.m, p.l))
            assert moved == target


def test_criterion_03_casimir_table():
    with criterion(3, "invariant table over 20 charge draws per regime", 5.0):
        rng = random.Random(2026)
        for _ in range(20):
            # l = 0, m != 0: both invariants exactly central
            p = random_params(rng, nonzero_m=True)
            p0 = ExtensionParams(p.k, p.m, 0)
            assert central(p0, enveloping.internal_energy(p0))
            assert central(p0, enveloping.internal_angular_momentum(p0))
        for _ in range(20):
            # m = 0, k = 0: momentum square and cross invariant
            l = random_rational(rng)
            p = ExtensionParams(0, 0, l)
            assert central(p, enveloping.momentum_squared())
            assert central(p, enveloping.boost_momentum_cross())
        for _ in range(20):
            # m = 0, k != 0: the cross invariant dies
            k = random_rational(rng, nonzero=True)
            p = ExtensionParams(k, 0, random_rational(rng))
            assert central(p, enveloping.momentum_squared())
            assert not central(p, enveloping.boost_momentum_cross())
        for _ in range(20):
            # l != 0: the defect of the internal energy measures l exactly
            p = ExtensionParams(
                random_rational(rng), random_rational(rng, True), random_rational(rng, True))
            # the product difference, a computation apart from `generator_brackets`
            com = commutator(p, enveloping.NOPoly.generator("M"), enveloping.internal_energy(p))
            assert com == enveloping.NOPoly.scalar(p.l)


def test_criterion_04_bounded_degree_centralizer():
    with criterion(4, "centralizer search: trivial at degree 3, 3-dim at degree 2", 30.0):
        rng = random.Random(2027)
        for _ in range(10):
            p = ExtensionParams(
                random_rational(rng), random_rational(rng, True), random_rational(rng, True))
            basis = table_basis(p, 3)
            assert len(basis) == 1 == enveloping.centralizer_dimension(p, 3)
            assert in_span(basis, enveloping.NOPoly.scalar(1))
        for _ in range(10):
            p = random_params(rng, nonzero_m=True)
            p = ExtensionParams(p.k, p.m, 0)
            basis = table_basis(p, 2)
            assert len(basis) == 3 == enveloping.rank(basis) == enveloping.centralizer_dimension(p, 2)
            assert all(central(p, b) for b in basis)
            assert in_span(basis, enveloping.NOPoly.scalar(1))
            assert in_span(basis, enveloping.internal_energy(p))
            assert in_span(basis, enveloping.internal_angular_momentum(p))


def test_criterion_05_group_cocycle_condition():
    with criterion(5, "associativity: 1000 triples x 20 charge sets, at their l and at l = 0", 10.0):
        rng = random.Random(2028)
        for _ in range(20):
            p = random_params(rng)
            p_ext = ExtensionParams(p.k, p.m, 0)
            # 1000 triples as arrays, drawn as 1000 x 3 calls of random_element would be
            g, h, f = group.random_elements(rng, 1000, 3)
            for charges in (p, p_ext):
                d = group.element_distance(*group.associativity_sides(charges, g, h, f))
                assert (d < 1e-12).all()
        # exact rational mode is exactly associative
        for _ in range(5):
            p = random_params(rng)
            for _ in range(40):
                g, h, f = (random_rational_element(rng) for _ in range(3))
                d = group.element_distance(*group.associativity_sides(p, g, h, f))
                assert d == 0 and not isinstance(d, float)


def test_criterion_06_group_charge_removal():
    with criterion(6, "k-removal map is a homomorphism, 1000 pairs x 10 charges", 5.0):
        rng = random.Random(2029)
        for _ in range(10):
            p = random_params(rng, nonzero_m=True)
            p_k = ExtensionParams(p.k, p.m, 0)
            p_0 = ExtensionParams(0, p.m, 0)
            phi = lambda g: group.eliminate_k_map(p_k, g)
            sides = lambda g, h: group.homomorphism_sides(p_k, p_0, phi, g, h)
            g, h = group.random_elements(rng, 1000, 2)
            d = group.element_distance(*sides(g, h))
            assert d.shape == (1000,) and (d < 1e-12).all()
            for _ in range(40):
                g, h = random_rational_element(rng), random_rational_element(rng)
                d = group.element_distance(*sides(g, h))
                assert d == 0 and not isinstance(d, float)


GRID = DEFAULT_C_GRID


def test_criterion_07_wigner_angle_limit():
    with criterion(7, "Wigner angle: slope -2 and limit agreement, 20 draws", 5.0):
        rng = random.Random(2030)
        family = contraction.sample_experiments("thomas", rng, 20, min(GRID))
        study = contraction.convergence_study(family, GRID)
        assert study.errors.shape == (20, len(GRID))
        assert np.all(np.abs(study.fitted_slopes - (-2.0)) <= 0.1)
        assert np.all(study.errors[:, -1] <= 1e-3 * np.abs(study.targets))


def test_criterion_08_mass_cocycle_limit():
    with criterion(8, "mass coboundary: slope -2, zeta diverges like c^2", 5.0):
        rng = random.Random(2031)
        family = contraction.sample_experiments("mass", rng, 20, min(GRID))
        study = contraction.convergence_study(family, GRID)
        assert study.errors.shape == (20, len(GRID))
        assert np.all(np.abs(study.fitted_slopes - (-2.0)) <= 0.1)
        assert np.all(np.abs(study.growth_slopes - 2.0) <= 0.1)


def test_criterion_09_contraction_diagram():
    with criterion(9, "contract/compose diagram closes at rate 1/c^2", 10.0):
        rng = random.Random(2032)
        family = contraction.sample_experiments("diagram", rng, 20, min(GRID))
        study = contraction.convergence_study(family, GRID)
        assert study.errors.shape == (20, len(GRID))
        assert np.all(np.abs(study.fitted_slopes - (-2.0)) <= 0.1)


def test_criterion_10_cli_determinism(tmp_path):
    with criterion(10, "CLI default suite deterministic and under 2 minutes", 120.0):
        suite = [
            ["verify-algebra", "--k", "1", "--m", "2", "--l", "3", "--seed", "5"],
            ["casimir", "--k", "5", "--m", "2", "--l", "0", "--seed", "5"],
            ["group", "--k", "3", "--m", "1", "--seed", "5"],
            ["contract", "--experiment", "thomas", "--seed", "5"],
            ["contract", "--experiment", "mass", "--seed", "5"],
            ["contract", "--experiment", "diagram", "--seed", "5"],
        ]
        for fmt in ("json", "csv"):
            for i, args in enumerate(suite):
                a = tmp_path / f"{fmt}_{i}_a"
                b = tmp_path / f"{fmt}_{i}_b"
                assert cli_main([*args, "--format", fmt, "--out", str(a)]) == 0
                assert cli_main([*args, "--format", fmt, "--out", str(b)]) == 0
                assert a.read_bytes() == b.read_bytes()
