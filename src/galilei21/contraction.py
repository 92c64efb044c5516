"""Planar Poincare group numerics and the large-c Galilei limit.

Elements are {Lambda, a} with a 3x3 Lorentz matrix (indices 0..2, metric
eta = diag(+1, -1, -1)) and a translation 3-vector, carried together
with the speed of light c used to interpret them.  Every Lorentz matrix
factors as Lambda = L(v) R(theta) with, for beta = v / c,

    L(v):  L00 = gamma, L0i = Li0 = gamma beta_i,
           Lik = delta_ik + gamma^2 / (1 + gamma) beta_i beta_k,
    R(theta) embedded as the SO(2) block [[cos, sin], [-sin, cos]].

Composing two boosts is not a boost; the residual angle delta_theta is
the Wigner rotation, which shrinks as (v x w) / (2 c^2).  `decompose` is
the one path from Lambda back to (v, theta), and the coboundaries of
zeta = c a^0 and zeta = c^2 theta(Lambda) take the same pair of elements.
The module measures such limits on grids of c values and fits the decay
rate; each limit's target is minus the k or m term of `group.cocycle_exponent`.

Every function takes one element or a stack: matrices (..., 3, 3),
velocities (..., 2), angles and c values (...), broadcast together.  A
stack gets the same floating-point operations as one call per entry.
Every distinct matrix is checked once, before broadcasting, and each
check is one reduction over the stack.  `sample_experiments` decodes a family's
draws at once, and `convergence_study` evaluates the family on the (1, grid) row
of c values in one call, fits the log-log slopes of every sample's errors and
zetas row by row with the centred least-squares formula, and returns one report.

Numerics run in float64, and nothing the limits fit is found by
subtracting nearly equal numbers (N. J. Higham, Accuracy and Stability of
Numerical Algorithms, 2nd ed., ch. 1-3): boosts are built from beta alone,
the mass coboundary and the Wigner angle have cancellation-free forms, and
the slope fit centres its data before it forms any product.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .algebra import ExtensionParams
from .group import (GroupElement, _random_integers, _rotated_factor, cocycle_exponent, element_distance,
                    galilei_product)


def _read_only(x) -> np.ndarray:
    """A float64 copy of x that cannot be written to."""
    out = np.array(x, dtype=np.float64)
    out.flags.writeable = False
    return out


ETA = _read_only(np.diag([1.0, -1.0, -1.0]))
SIGN = _read_only([[1.0], [-1.0], [-1.0]])  # eta's diagonal as a column: eta @ m == SIGN * m
FLIP = _read_only(SIGN * SIGN.T)  # eta m eta == FLIP * m: the time row and column change sign

MATRIX_TOL = 1e-10  # Lorentz-invariant checks
# |v|/c of a boost at most (gamma about 22): the checks hold entries up to gamma^2 to the
# absolute MATRIX_TOL, which from beta = 0.99995 on refuses many of the layer's own L(v) R(theta)
MAX_BETA = 0.999


def _as_matrices(m) -> np.ndarray:
    out = np.array(m, dtype=np.float64)
    if out.shape[-2:] != (3, 3):
        raise ValueError("expected a 3x3 matrix")
    return out


def _within_tol(m) -> bool:
    """max |entry| <= MATRIX_TOL over the whole stack: one reduction, NaN fails, empty passes."""
    return bool(np.max(np.abs(m), initial=0.0) <= MATRIX_TOL)


def _det(m) -> np.ndarray:
    """det of each 3x3 matrix by cofactors along row 0 (on a stack far cheaper than LAPACK)."""
    (p, q, r), (s, t, u), (v, w, x) = ([m[..., i, j] for j in range(3)] for i in range(3))
    return p * (t * x - u * w) - q * (s * x - u * v) + r * (s * w - t * v)


def _lorentz_residual(lam) -> np.ndarray:
    """Lambda^T eta Lambda - eta, per matrix of a stack."""
    return np.swapaxes(lam, -1, -2) @ (SIGN * lam) - ETA


@dataclass(frozen=True, eq=False)
class PoincareElement:
    """{Lambda, a} at c; proper orthochronous, validated on build.

    lam (..., 3, 3), a (..., 3) and c broadcast to common leading axes; c
    is a float for one element and a float64 array for a stack.  Building
    checks c > 0 on the broadcast c and, at MATRIX_TOL, every distinct
    matrix once, before lam is broadcast: the Lorentz defect, orthochronous
    (Lambda^00 >= 1), proper (det = 1 by cofactors, `_det`); each check is
    one reduction over the stack.
    """

    lam: np.ndarray
    a: np.ndarray
    c: object

    def __post_init__(self):
        lam = _as_matrices(self.lam)
        a = np.array(self.a, dtype=np.float64)
        if a.shape[-1:] != (3,):
            raise ValueError("translation must be a 3-vector")
        shape = np.broadcast_shapes(lam.shape[:-2], a.shape[:-1], np.shape(self.c))
        c = _read_only(np.broadcast_to(self.c, shape))
        # negated tests, so that NaN entries fail every check; lam is checked
        # before it is broadcast, so each distinct matrix once
        if not np.all(c > 0):
            raise ValueError("c must be positive")
        if not _within_tol(_lorentz_residual(lam)):
            raise ValueError("matrix is not a Lorentz transformation")
        if not np.all(lam[..., 0, 0] >= 1 - MATRIX_TOL):
            raise ValueError("matrix is not orthochronous")
        if not _within_tol(_det(lam) - 1.0):
            raise ValueError("matrix is not proper")
        # read-only, so the element stays immutable
        lam, a = np.broadcast_to(lam, shape + (3, 3)), np.broadcast_to(a, shape + (3,))
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "c", float(c) if c.ndim == 0 else c)


def _speed_squared(b) -> np.ndarray:
    """|beta|^2 of each beta = v / c of shape (..., 2), refused past MAX_BETA (a NaN too)."""
    b2 = b[..., 0] * b[..., 0] + b[..., 1] * b[..., 1]
    if not np.all(b2 <= MAX_BETA * MAX_BETA):
        raise ValueError(f"|v|/c must be at most {MAX_BETA}")
    return b2


def boost_matrix(v, c) -> np.ndarray:
    """Pure boost L(v); requires c > 0 and |v| <= MAX_BETA c.  v = 0 gives the identity.

    v is (..., 2) and c broadcasts against v[..., 0].  Only beta = v / c enters:
    no v^2 or c^2 is formed, and gamma - 1 is beta^2 gamma^2 / (1 + gamma).
    """
    c = np.asarray(c, dtype=np.float64)
    if not np.all(c > 0):
        raise ValueError("c must be positive")
    b = np.asarray(v, dtype=np.float64) / c[..., None] + 0.0  # -0.0 + 0.0 is +0.0: v = 0 gives the identity
    b2 = _speed_squared(b)
    g = 1 / np.sqrt(1 - b2)
    k = g * g / (1 + g)  # (gamma - 1) / beta^2
    L = np.empty(g.shape + (3, 3))
    L[..., 0, 0] = g
    for i in range(2):
        L[..., 0, i + 1] = L[..., i + 1, 0] = g * b[..., i]
        for j in range(2):
            L[..., i + 1, j + 1] = (1 if i == j else 0) + k * b[..., i] * b[..., j]
    return L


def rotation_matrix(theta) -> np.ndarray:
    """R(theta) embedded in 3x3 form (time row/column untouched)."""
    th = np.asarray(theta, dtype=np.float64)
    cos, sin = np.cos(th), np.sin(th)
    R = np.zeros(th.shape + (3, 3))
    R[..., 0, 0] = 1
    R[..., 1, 1] = R[..., 2, 2] = cos
    R[..., 1, 2] = sin
    R[..., 2, 1] = -sin
    return R


def decompose(p: PoincareElement) -> tuple[np.ndarray, np.ndarray]:
    """(v, theta) with p.lam = L(v) R(theta), v of shape (..., 2).

    L(-v) = eta L(v) eta, so the boost is built once.  The residual
    L(-v) Lambda must be R(theta), and L(v) R(theta) must give back Lambda.
    """
    v = np.asarray(p.c)[..., None] * p.lam[..., 1:, 0] / p.lam[..., 0, :1]
    boost = boost_matrix(v, p.c)
    residual = (FLIP * boost) @ p.lam
    theta = np.arctan2(residual[..., 1, 2], residual[..., 1, 1])
    rot = rotation_matrix(theta)
    if not _within_tol(residual - rot):
        raise ValueError("residual is not a rotation: invariants violated")
    if not _within_tol(boost @ rot - p.lam):
        raise ValueError("decomposition failed to reconstruct the input")
    return v, theta


def _wigner_angle(l1, l2) -> np.ndarray:
    """delta with l1 l2 = L(v'') R(delta), for boosts l1 and l2, in closed form.

    With gamma_i and p_i = gamma_i v_i / c from the time rows, tan(delta / 2)
    = (p1 x p2) / ((1 + gamma1) (1 + gamma2) + p1 . p2), whose denominator
    exceeds gamma1 gamma2 - |p1| |p2| > 0: delta is in (-pi, pi), and nothing cancels.
    """
    (g1, x1, y1), (g2, x2, y2) = np.moveaxis(l1[..., 0, :], -1, 0), np.moveaxis(l2[..., 0, :], -1, 0)
    return 2 * np.arctan2(x1 * y2 - y1 * x2, (1 + g1) * (1 + g2) + x1 * x2 + y1 * y2)


def compose_boosts(v, w, c) -> tuple[np.ndarray, np.ndarray]:
    """L(v) L(w) = L(v'') R(delta); returns (v'', delta).

    v'' is read from the product's time column, and delta is the Wigner
    angle (`_wigner_angle`); for c -> infinity it approaches (v x w) / (2 c^2).
    """
    l1, l2 = boost_matrix(v, c), boost_matrix(w, c)
    col = l1 @ l2[..., :1]  # L(v) L(w) e_0
    return np.asarray(c)[..., None] * col[..., 1:, 0] / col[..., :1, 0], _wigner_angle(l1, l2)


def _translation(tau, u, c) -> np.ndarray:
    """a = (c tau, u1, u2), broadcast to common leading axes."""
    c, tau, u = (np.asarray(x, dtype=np.float64) for x in (c, tau, u))
    return np.stack(np.broadcast_arrays(c * tau, u[..., 0], u[..., 1]), axis=-1)


def poincare_from_galilei(tau, u, v, theta, c) -> PoincareElement:
    """Element with Lambda = L(v) R(theta) and a = (c tau, u1, u2)."""
    return PoincareElement(boost_matrix(v, c) @ rotation_matrix(theta), _translation(tau, u, c), c)


def _common_c(g: PoincareElement, h: PoincareElement):
    """The c that g and h both carry; a pair with different c is refused."""
    if not np.all(g.c == h.c):
        raise ValueError("elements carry different c")
    return g.c


def _translated(g: PoincareElement, a_prime) -> np.ndarray:
    """Lambda a' + a, the translation of g {Lambda', a'} for g = {Lambda, a}, whatever Lambda'."""
    return (g.lam @ a_prime[..., None])[..., 0] + g.a


def poincare_product(g: PoincareElement, h: PoincareElement) -> PoincareElement:
    """{Lambda, a} {Lambda', a'} = {Lambda Lambda', Lambda a' + a}; a product whose
    boost |v''|/c, read from its time column as `decompose` reads it, is past
    MAX_BETA is refused as `boost_matrix` refuses it."""
    c = _common_c(g, h)
    lam = g.lam @ h.lam
    _speed_squared(lam[..., 1:, 0] / lam[..., 0, :1])
    return PoincareElement(lam, _translated(g, h.a), c)


def contract_element(p: PoincareElement) -> GroupElement:
    """Galilei coordinates (phase 0, tau = a0/c, u, v, theta) of p."""
    v, theta = decompose(p)
    (a0, u1, u2), (v1, v2) = np.moveaxis(p.a, -1, 0), np.moveaxis(v, -1, 0)  # scalars for one element
    return GroupElement(phase=0.0, tau=a0 / p.c, u=(u1, u2), v=(v1, v2), theta=theta)


def mass_cocycle_exponent(g: PoincareElement, h: PoincareElement):
    """Coboundary of zeta = c a^0 evaluated on the pair (g, h).

    delta-zeta(g, h) = c (Lambda^0_mu a'^mu + a^0) - c a^0 - c a'^0
                     = c [(Lambda^00 - 1) a'^0 + Lambda^0i a'^i],
    with Lambda^00 - 1 = sum_i (Lambda^0i)^2 / (Lambda^00 + 1), as row 0 of a
    Lorentz matrix has unit eta-norm: no term of size c a'^0 is subtracted.
    With a^0 = c tau this approaches v^2/2 tau' + v . R u' as c grows.
    """
    c = _common_c(g, h)
    row, a = g.lam[..., 0, :], h.a
    excess = (row[..., 1] * row[..., 1] + row[..., 2] * row[..., 2]) / (row[..., 0] + 1)
    return c * (excess * a[..., 0] + row[..., 1] * a[..., 1] + row[..., 2] * a[..., 2])


def rotation_cocycle_exponent(g: PoincareElement, h: PoincareElement):
    """Coboundary of zeta = c^2 theta(Lambda) evaluated on the pair (g, h).

    With Lambda = L(v) R and Lambda' = L(v') R' (`decompose`),
    Lambda Lambda' = L(v) [R L(v') R^T] R R', where the bracket is the boost
    L(R v').  So theta(Lambda Lambda') - theta - theta' is, modulo 2 pi, the
    Wigner angle of that pair, which is found with no angle difference.
    """
    c = _common_c(g, h)
    (v, theta), (vp, _) = decompose(g), decompose(h)
    rot = rotation_matrix(theta)
    return c * c * _wigner_angle(boost_matrix(v, c), rot @ boost_matrix(vp, c) @ np.swapaxes(rot, -1, -2))


# --- convergence studies -------------------------------------------------------


@dataclass(frozen=True, eq=False)
class LimitExperiment:
    """A family of scalar limits, one per sample, with its read-only (samples,)
    array of targets.  `evaluate` maps the (1, grid) row of c values to the
    errors, which should decay, and the zeta magnitudes, which may grow: two
    float64 arrays (samples, grid), the row broadcast against the samples."""

    name: str
    targets: np.ndarray
    evaluate: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]

    def __post_init__(self):
        object.__setattr__(self, "targets", _read_only(self.targets))


@dataclass(frozen=True, eq=False)
class ConvergenceReport:
    """A family's study, in read-only float64 arrays: c_grid (grid,), targets
    (samples,), errors and zeta_magnitudes (samples, grid), and the least-squares
    slopes (samples,) of log10 error (fitted_slopes) and of log10 |zeta|
    (growth_slopes; c^2 growth gives +2) against log10 c, values floored at 1e-300."""

    c_grid: np.ndarray
    targets: np.ndarray
    errors: np.ndarray
    zeta_magnitudes: np.ndarray
    fitted_slopes: np.ndarray
    growth_slopes: np.ndarray

    def __post_init__(self):
        for name, value in list(vars(self).items()):
            object.__setattr__(self, name, _read_only(value))


def convergence_study(experiment: LimitExperiment, c_grid: Sequence[float]) -> ConvergenceReport:
    """Evaluate every sample over the grid in one call and fit both slopes of
    every sample in one more (`_loglog_slopes`): one report for the family."""
    grid = tuple(float(c) for c in c_grid)
    if len(grid) < 3:
        raise ValueError("need at least 3 grid points to fit a slope")
    if not all(c > 0 for c in grid):  # negated, so that NaN fails
        raise ValueError("c grid must be positive")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("c grid must be strictly increasing")
    errors, zetas = experiment.evaluate(np.array([grid]))
    slopes = _loglog_slopes(grid, np.concatenate([errors, zetas]))
    return ConvergenceReport(grid, experiment.targets, errors, zetas, *np.split(slopes, 2))


def _loglog_slopes(c_grid, values) -> np.ndarray:
    """Least-squares slope of log10 value vs log10 c for each row of values (K, grid).

    s = sum (x - mean x)(y - mean y) / sum (x - mean x)^2, row by row: the
    centred form sums no large terms that cancel, and a row of zeros gives
    exactly 0.  A NaN or inf value gives a NaN slope for its row only.
    """
    x = np.log10(np.asarray(c_grid, dtype=np.float64))
    xc = x - x.mean()
    sxx = xc @ xc
    if not sxx > 0:  # the grid's log10 values are all one double
        raise ValueError("the c grid gives a rank-deficient slope fit")
    y = np.log10(np.maximum(values, 1e-300))
    with np.errstate(invalid="ignore"):  # a row with an inf meets inf - inf: its slope is NaN
        return ((y - y.mean(axis=1, keepdims=True)) * xc).sum(axis=1) / sxx


def _samples(x, *tail) -> np.ndarray:
    """One value per sample, shaped (samples, 1, *tail) to broadcast over a c grid."""
    return np.reshape(np.asarray(x, dtype=np.float64), (-1, 1, *tail))


def thomas_experiment(v, vp, theta) -> LimitExperiment:
    """c^2 times the Wigner angle of L(v) L(R(theta) v') against (v x R v')/2,
    minus the k term of `group.cocycle_exponent` at k = 1, g = (v, theta), h = (v').

    v and vp are velocities (samples, 2) and theta angles (samples,), or
    the values of one sample.  The Wigner angle is `compose_boosts`'.  zeta
    here is c^2 theta(Lambda) of the first factor Lambda = L(v) R(theta),
    the sample's own theta, which diverges like c^2 whenever theta != 0.
    """
    v, vp, theta = _samples(v, 2), _samples(vp, 2), _samples(theta)
    g, h = GroupElement(v=(v[..., 0], v[..., 1]), theta=theta), GroupElement(v=(vp[..., 0], vp[..., 1]))
    rotated = _rotated_factor(g, h)
    target = -cocycle_exponent(ExtensionParams(1, 0, 0), g, h, rotated)
    w = np.stack(rotated[1], axis=-1)  # R(theta) v'

    def evaluate(c):
        _, delta = compose_boosts(v, w, c)
        return np.abs(c * c * delta - target), np.abs(c * c * theta)

    return LimitExperiment("thomas", target[:, 0], evaluate)


def mass_experiment(v, theta, tau_p, u_p) -> LimitExperiment:
    """delta-zeta of a boost-rotation against a translation (tau', u').

    Each argument holds one value per sample, or one sample's value.  The
    target v^2/2 tau' + v . R(theta) u' is minus the m term of `group.cocycle_exponent`
    at m = 1, g = (v, theta), h = (tau', u'); zeta = c a^0 evaluated on the
    product grows like c^2 tau'.  h is the translation {1, (c tau', u'1, u'2)}, so
    g h has g's own matrix, and zeta is read from its translation (`_translated`).
    """
    v, theta, tau_p, u_p = _samples(v, 2), _samples(theta), _samples(tau_p), _samples(u_p, 2)
    g = GroupElement(v=(v[..., 0], v[..., 1]), theta=theta)
    target = -cocycle_exponent(ExtensionParams(0, 1, 0), g, GroupElement(tau=tau_p, u=(u_p[..., 0], u_p[..., 1])))

    def evaluate(c):
        g = poincare_from_galilei(0.0, (0.0, 0.0), v, theta, c)
        h = PoincareElement(np.eye(3), _translation(tau_p, u_p, c), c)
        errors = np.abs(mass_cocycle_exponent(g, h) - target)
        return errors, np.abs(c * _translated(g, h.a)[..., 0])

    return LimitExperiment("mass", target[:, 0], evaluate)


def diagram_experiment(data_g, data_h) -> LimitExperiment:
    """Mismatch between contracting a product and composing contractions.

    data_g and data_h are (tau, u, v, theta) tuples, each entry holding
    one value per sample or one sample's value.  The error is the largest
    component distance (`element_distance`) between contract(g h) and
    the Galilei product of the contractions; there is no trivializing
    function in play, so zeta_magnitude is 0.
    """
    data_g, data_h = ((_samples(tau), _samples(u, 2), _samples(v, 2), _samples(theta))
                      for tau, u, v, theta in (data_g, data_h))

    def evaluate(c):
        g, h = (poincare_from_galilei(*data, c) for data in (data_g, data_h))
        left = contract_element(poincare_product(g, h))
        right = galilei_product(contract_element(g), contract_element(h))
        errors = element_distance(left, right)
        return errors, np.zeros(errors.shape)

    return LimitExperiment("diagram", np.zeros(len(data_g[0])), evaluate)


# Each family's per-sample `rng.uniform` bounds in draw order, and its factory of the drawn
# columns x and `velocity(i)`, from columns i (speed / c_min) and i + 1 (direction).
_VELOCITY = ((0.4, 0.8), (0.0, 2 * math.pi))
# tau, u, v, theta; the theta bounds keep theta_g + theta_h inside (-pi, pi), where
# `decompose`'s angle of the product is the sum itself, not wrapped, as c grows
_POINT = ((0.5, 2.0), (-2.0, 2.0), (-2.0, 2.0), *_VELOCITY, (-1.5, 1.5))
_FAMILIES = {
    "thomas": ((*_VELOCITY, *_VELOCITY, (0.2, 3.0)), lambda x, vel: thomas_experiment(vel(0), vel(2), x[4])),
    "mass": ((*_VELOCITY, (-3.0, 3.0), (0.5, 2.0), (-2.0, 2.0), (-2.0, 2.0)),
             lambda x, vel: mass_experiment(vel(0), x[2], x[3], x[4:6].T)),
    "diagram": ((*_POINT, *_POINT), lambda x, vel: diagram_experiment((x[0], x[1:3].T, vel(3), x[5]),
                                                                       (x[6], x[7:9].T, vel(9), x[11]))),
}


def sample_experiments(name: str, rng, samples: int, c_min: float) -> LimitExperiment:
    """Seeded random scenarios for one experiment family, as one experiment.

    The draws are decoded at once (`group._random_integers`), bit for bit scalar
    `rng.uniform` draws made sample by sample in the order of the family's factory
    arguments.  Speeds are drawn from [0.4, 0.8] * c_min: they must stay below every
    grid point, and staying under 0.8 c_min keeps the smallest-c point close enough
    to the asymptotic regime for a clean slope fit.
    """
    if name not in _FAMILIES:
        raise ValueError(f"unknown experiment {name!r}")
    if samples < 1:
        raise ValueError("samples must be positive")
    bounds, factory = _FAMILIES[name]
    lo, hi = np.array(bounds).T[..., None]
    n = _random_integers(rng, samples * len(bounds)).reshape(samples, len(bounds)).T
    # rng.uniform(a, b) is a + (b - a) * r, r = n * 2**-53, with (b - a) * r one rounded
    # product of the exact n and the exact (b - a) * 2**-53, as `group.random_elements` forms it
    x = np.multiply(n, (hi - lo) * 2.0**-53, out=np.empty(n.shape))
    x += lo
    velocity = lambda i: (x[i] * c_min)[:, None] * np.stack((np.cos(x[i + 1]), np.sin(x[i + 1])), axis=-1)
    return factory(x, velocity)
