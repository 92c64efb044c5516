"""Planar Poincare group numerics and the large-c Galilei limit.

Elements are {Lambda, a} with a 3x3 Lorentz matrix (indices 0..2, metric
eta = diag(+1, -1, -1)) and a translation 3-vector, carried together
with the speed of light c used to interpret them.  Every Lorentz matrix
factors as Lambda = L(v) R(theta) with

    L(v):  L00 = gamma, L0i = Li0 = gamma v_i / c,
           Lik = delta_ik + (gamma - 1) v_i v_k / v^2,
    R(theta) embedded as the SO(2) block [[cos, sin], [-sin, cos]].

Composing two boosts is not a boost; the residual angle delta_theta is
the Wigner rotation, which shrinks as (v x w) / (2 c^2).  The module
measures such limits on grids of c values and fits the decay rate.

Numerics run in numpy extended precision (np.longdouble, 64-bit mantissa
on x86).  Plain double precision loses the c^2-amplified quantities to
rounding near the top of the default grid c = 1e6: the gamma - 1 stored
in a unit-scale matrix entry only retains about eps/ (v^2/2c^2) ~ 1e-4
relative accuracy there, which drowns the O(1/c^2) signal being fitted.
So `convergence_study` raises ValueError where np.longdouble is only double.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .group import GroupElement, GroupKind, element_distance, galilei_product, rotate

LD = np.longdouble
ETA = np.diag(np.array([1, -1, -1], dtype=LD))
ETA.flags.writeable = False

MATRIX_TOL = 1e-10  # Lorentz-invariant checks
DEFAULT_C_GRID = (1e2, 1e3, 1e4, 1e5, 1e6)


def _as_matrix(m) -> np.ndarray:
    out = np.array(m, dtype=LD)
    if out.shape != (3, 3):
        raise ValueError("expected a 3x3 matrix")
    return out


def lorentz_defect(lam) -> float:
    """max |Lambda^T eta Lambda - eta|."""
    lam = _as_matrix(lam)
    return float(np.max(np.abs(lam.T @ ETA @ lam - ETA)))


@dataclass(frozen=True, eq=False)
class PoincareElement:
    """{Lambda, a} at a fixed c; proper orthochronous, validated on build."""

    lam: np.ndarray
    a: np.ndarray
    c: float

    def __post_init__(self):
        lam = _as_matrix(self.lam)
        a = np.array(self.a, dtype=LD)
        if a.shape != (3,):
            raise ValueError("translation must be a 3-vector")
        # negated tests, so that NaN entries fail every check
        if not self.c > 0:
            raise ValueError("c must be positive")
        if not lorentz_defect(lam) <= MATRIX_TOL:
            raise ValueError("matrix is not a Lorentz transformation")
        if not lam[0, 0] >= 1 - MATRIX_TOL:
            raise ValueError("matrix is not orthochronous")
        if not abs(float(np.linalg.det(np.array(lam, dtype=float))) - 1.0) <= MATRIX_TOL:
            raise ValueError("matrix is not proper")
        lam.flags.writeable = False
        a.flags.writeable = False
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "c", float(self.c))


@dataclass(frozen=True)
class BoostDecomposition:
    """Velocity and residual rotation angle with Lambda = L(v) R(theta)."""

    v: tuple
    theta: object  # np.longdouble


def boost_matrix(v, c) -> np.ndarray:
    """Pure boost L(v); requires |v| < c.  v = 0 gives the identity."""
    v = np.array(v, dtype=LD)
    c = LD(c)
    v2 = v @ v
    if v2 == 0:
        return np.eye(3, dtype=LD)
    b2 = v2 / (c * c)
    if b2 >= 1:
        raise ValueError("|v| must be smaller than c")
    g = 1 / np.sqrt(1 - b2)
    gm1 = b2 * g * g / (1 + g)  # gamma - 1 without cancellation
    L = np.eye(3, dtype=LD)
    L[0, 0] = g
    for i in range(2):
        L[0, i + 1] = L[i + 1, 0] = g * v[i] / c
        for k in range(2):
            L[i + 1, k + 1] = (1 if i == k else 0) + gm1 * v[i] * v[k] / v2
    return L


def rotation_matrix(theta) -> np.ndarray:
    """R(theta) embedded in 3x3 form (time row/column untouched)."""
    th = LD(theta)
    R = np.eye(3, dtype=LD)
    R[1, 1] = R[2, 2] = np.cos(th)
    R[1, 2] = np.sin(th)
    R[2, 1] = -np.sin(th)
    return R


def _decompose_lorentz(lam: np.ndarray, c) -> tuple[np.ndarray, LD]:
    lam = _as_matrix(lam)
    c = LD(c)
    if not lam[0, 0] >= 1 - MATRIX_TOL:
        raise ValueError("matrix is not orthochronous")
    v = c * lam[1:, 0] / lam[0, 0]
    residual = boost_matrix(-v, c) @ lam
    theta = np.arctan2(residual[1, 2], residual[1, 1])
    # the residual must be a pure rotation, else the input was no Lorentz map
    if not float(np.max(np.abs(residual - rotation_matrix(theta)))) <= MATRIX_TOL:
        raise ValueError("residual is not a rotation: invariants violated")
    return v, theta


def decompose(p: PoincareElement) -> BoostDecomposition:
    """Split p.lam into boost times rotation; reconstruction is checked."""
    v, theta = _decompose_lorentz(p.lam, p.c)
    recon = boost_matrix(v, p.c) @ rotation_matrix(theta)
    if not float(np.max(np.abs(recon - p.lam))) <= MATRIX_TOL:
        raise ValueError("decomposition failed to reconstruct the input")
    return BoostDecomposition(v=(v[0], v[1]), theta=theta)


def compose_boosts(v, w, c) -> tuple[np.ndarray, LD]:
    """L(v) L(w) = L(v'') R(delta); returns (v'', delta).

    delta is the Wigner rotation angle; for c -> infinity it approaches
    (v x w) / (2 c^2).
    """
    prod = boost_matrix(v, c) @ boost_matrix(w, c)
    return _decompose_lorentz(prod, c)


def thomas_target(v, w) -> float:
    """(v x w) / 2, the limit of c^2 times the Wigner angle."""
    return float((LD(v[0]) * LD(w[1]) - LD(v[1]) * LD(w[0])) / 2)


def poincare_from_galilei(tau, u, v, theta, c) -> PoincareElement:
    """Element with Lambda = L(v) R(theta) and a = (c tau, u1, u2)."""
    lam = boost_matrix(v, c) @ rotation_matrix(theta)
    a = np.array([LD(c) * LD(tau), LD(u[0]), LD(u[1])], dtype=LD)
    return PoincareElement(lam, a, c)


def poincare_product(g: PoincareElement, h: PoincareElement) -> PoincareElement:
    """{Lambda, a} {Lambda', a'} = {Lambda Lambda', Lambda a' + a}."""
    if g.c != h.c:
        raise ValueError("elements carry different c")
    return PoincareElement(g.lam @ h.lam, g.lam @ h.a + g.a, g.c)


def contract_element(p: PoincareElement) -> GroupElement:
    """Galilei coordinates (phase 0, tau = a0/c, u, v, theta) of p."""
    dec = decompose(p)
    return GroupElement(
        phase=0.0,
        tau=float(p.a[0] / LD(p.c)),
        u=(float(p.a[1]), float(p.a[2])),
        v=(float(dec.v[0]), float(dec.v[1])),
        theta=float(dec.theta),
    )


def mass_cocycle_exponent(g: PoincareElement, h: PoincareElement):
    """Coboundary of zeta = c a^0 evaluated on the pair (g, h).

    delta-zeta(g, h) = c (Lambda^0_mu a'^mu + a^0) - c a^0 - c a'^0,
    straight from the matrices.  With a^0 = c tau this approaches
    v^2/2 tau' + v . R u' as c grows.
    """
    if g.c != h.c:
        raise ValueError("elements carry different c")
    c = LD(g.c)
    return c * (g.lam[0] @ h.a + g.a[0]) - c * g.a[0] - c * h.a[0]


def rotation_cocycle_exponent(lam1, lam2, c):
    """Coboundary of zeta = c^2 theta(Lambda) on the pair (lam1, lam2).

    The angle mismatch theta(L L') - theta(L) - theta(L') is reduced to
    (-pi, pi] before scaling by c^2, which removes the branch ambiguity
    of the angle function.
    """
    c = LD(c)
    _, th1 = _decompose_lorentz(_as_matrix(lam1), c)
    _, th2 = _decompose_lorentz(_as_matrix(lam2), c)
    _, th12 = _decompose_lorentz(_as_matrix(lam1) @ _as_matrix(lam2), c)
    delta = th12 - th1 - th2
    two_pi = 2 * LD(np.pi)
    delta = delta - two_pi * np.floor((delta + LD(np.pi)) / two_pi)
    return c * c * delta


# --- convergence studies -------------------------------------------------------


@dataclass(frozen=True)
class LimitExperiment:
    """A named scalar limit: error(c) should decay, zeta_magnitude may grow."""

    name: str
    target: float
    error: Callable[[float], float]
    zeta_magnitude: Callable[[float], float]


@dataclass(frozen=True)
class ConvergenceReport:
    c_grid: tuple[float, ...]
    errors: tuple[float, ...]
    fitted_slope: float
    target: float
    zeta_magnitudes: tuple[float, ...]


def convergence_study(experiment: LimitExperiment, c_grid: Sequence[float]) -> ConvergenceReport:
    """Evaluate the experiment over the grid and fit log error vs log c."""
    nmant = np.finfo(LD).nmant
    if nmant <= np.finfo(np.float64).nmant:
        raise ValueError(f"np.longdouble has a {nmant}-bit mantissa; the fits need more than 52")
    grid = tuple(float(c) for c in c_grid)
    if len(grid) < 3:
        raise ValueError("need at least 3 grid points to fit a slope")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("c grid must be strictly increasing")
    errors = tuple(float(experiment.error(c)) for c in grid)
    zetas = tuple(float(experiment.zeta_magnitude(c)) for c in grid)
    slope = float(
        np.polyfit(np.log10(grid), np.log10(np.maximum(errors, 1e-300)), 1)[0]
    )
    return ConvergenceReport(grid, errors, slope, experiment.target, zetas)


def growth_slope(report: ConvergenceReport) -> float:
    """Fitted slope of log |zeta| vs log c (c^2 growth gives +2)."""
    mags = np.maximum(report.zeta_magnitudes, 1e-300)
    return float(np.polyfit(np.log10(report.c_grid), np.log10(mags), 1)[0])


def thomas_experiment(v, vp, theta) -> LimitExperiment:
    """Wigner angle of L(v) L(R(theta) v') against (v x R v')/2.

    zeta here is c^2 theta(Lambda) of the first factor L(v) R(theta),
    which diverges like c^2 whenever theta != 0.
    """
    w = rotate(theta, vp)
    target = thomas_target(v, w)

    def error(c):
        _, delta = compose_boosts(v, w, c)
        return abs(float(LD(c) * LD(c) * delta) - target)

    def zeta_magnitude(c):
        lam = boost_matrix(v, c) @ rotation_matrix(theta)
        _, th = _decompose_lorentz(lam, c)
        return abs(float(LD(c) * LD(c) * th))

    return LimitExperiment("thomas", target, error, zeta_magnitude)


def mass_experiment(v, theta, tau_p, u_p) -> LimitExperiment:
    """delta-zeta of a boost-rotation against a translation (tau', u').

    The target is v^2/2 tau' + v . R(theta) u'; zeta = c a^0 evaluated on
    the product grows like c^2 tau'.
    """
    ru = rotate(theta, u_p)
    target = float((v[0] ** 2 + v[1] ** 2) / 2 * tau_p + v[0] * ru[0] + v[1] * ru[1])

    @functools.cache  # error and zeta_magnitude share each c's pair
    def _pair(c):
        g = poincare_from_galilei(0.0, (0.0, 0.0), v, theta, c)
        h = poincare_from_galilei(tau_p, u_p, (0.0, 0.0), 0.0, c)
        return g, h

    def error(c):
        g, h = _pair(c)
        return abs(float(mass_cocycle_exponent(g, h)) - target)

    def zeta_magnitude(c):
        g, h = _pair(c)
        prod = poincare_product(g, h)
        return abs(float(LD(c) * prod.a[0]))

    return LimitExperiment("mass", target, error, zeta_magnitude)


def diagram_experiment(data_g, data_h) -> LimitExperiment:
    """Mismatch between contracting a product and composing contractions.

    data_g and data_h are (tau, u, v, theta) tuples.  The error is the
    largest component distance (angles modulo 2*pi) between
    contract(g h) and the Galilei product of the contractions; there is
    no trivializing function in play, so zeta_magnitude is 0.
    """

    def error(c):
        g = poincare_from_galilei(*data_g, c)
        h = poincare_from_galilei(*data_h, c)
        left = contract_element(poincare_product(g, h))
        right = galilei_product(contract_element(g), contract_element(h))
        return element_distance(left, right, GroupKind.EXTENDED)

    return LimitExperiment("diagram", 0.0, error, lambda c: 0.0)


EXPERIMENT_NAMES = ("thomas", "mass", "diagram")


def sample_experiments(name: str, rng, samples: int, c_min: float) -> list[LimitExperiment]:
    """Seeded random scenarios for one experiment family.

    Speeds are drawn from [0.4, 0.8] * c_min: they must stay below every
    grid point, and staying under 0.8 c_min keeps the smallest-c point
    close enough to the asymptotic regime for a clean slope fit.
    """

    def rand_vel():
        speed = rng.uniform(0.4, 0.8) * c_min
        ang = rng.uniform(0.0, 2 * math.pi)
        return (speed * math.cos(ang), speed * math.sin(ang))

    data = lambda: (
        rng.uniform(0.5, 2.0),
        (rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)),
        rand_vel(),
        rng.uniform(-1.5, 1.5),
    )
    factories = {
        "thomas": lambda: thomas_experiment(rand_vel(), rand_vel(), rng.uniform(0.2, 3.0)),
        "mass": lambda: mass_experiment(
            rand_vel(),
            rng.uniform(-3.0, 3.0),
            rng.uniform(0.5, 2.0),
            (rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)),
        ),
        "diagram": lambda: diagram_experiment(data(), data()),
    }
    if name not in factories:
        raise ValueError(f"unknown experiment {name!r}")
    return [factories[name]() for _ in range(samples)]


def report_csv_rows(report: ConvergenceReport) -> list[tuple[float, float, float]]:
    return list(zip(report.c_grid, report.errors, report.zeta_magnitudes))


def report_summary(
    report: ConvergenceReport, slope_target: float = -2.0, slope_tolerance: float = 0.1
) -> dict:
    """The slope check: deviation of the fitted slope from its target."""
    defect = abs(report.fitted_slope - slope_target)
    return {
        "defect": defect,
        "slope": report.fitted_slope,
        "target": report.target,
        "pass": bool(defect <= slope_tolerance),
    }
