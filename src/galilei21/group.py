"""Composition engine for the centrally extended planar Galilei group.

An element is (phase, tau, u, v, theta): the U(1) factor is stored as
its real exponent (zeta = exp(i*phase)) so phases compose additively and
compare modulo 2*pi.  tau is the time translation, u the space
translation, v the boost velocity and theta the rotation angle, acting
through

    R(theta) = [[cos theta, sin theta], [-sin theta, cos theta]].

One group law serves the paper's groups: the extension of the universal
covering group by the charges (k, m, l), which at l = 0 is the extension of
the Galilei group itself by (k, m).  The law never reduces theta, which lives
on the whole real line: a whole turn theta -> theta + 2*pi is the identity
only at l = 0, as at l != 0 its commutator with a time translation tau' has
the phase 2*pi*l*tau'.  So `element_distance` compares theta on the line and
the phase modulo 2*pi.

The product is

    g * h = (phase + phase' + xi(g, h), tau + tau',
             R(theta) u' + v tau' + u, R(theta) v' + v, theta + theta')

with the phase increment

    xi = -m (v^2/2 tau' + v . R(theta) u') - (k/2) (v x R(theta) v') + l theta tau',

each of whose three terms is added only where its charge is nonzero: at
(k, m, l) = (0, 0, 0) the law adds an exact 0 and is the untwisted product.

Everything is written so that elements with theta = 0 and Fraction
components compose in exact rational arithmetic; with float components
the usual double-precision trigonometry applies.  A component may also
be a float64 numpy array with one entry per sample: the same functions
then evaluate every sample at once, with the same floating-point
operations as one scalar call per sample.  An element's (cos theta,
sin theta) is computed on its first rotation and kept with the element
(`GroupElement.rotation`), and a product rotates u' and v' by it once, for
its phase and its coordinates alike, also when its exponent is shifted by a
coboundary (`compose`'s zeta); g^-1 rotates by g's pair transposed,
R(-theta) = R(theta)^T.  With theta = 0 the law is a polynomial, which
`identity_certified` evaluates on `algebra.Poly` symbols and compares with
`==`.  All values are immutable and all functions pure.

`random_elements` and `contraction.sample_experiments` draw their doubles from
blocks of `getrandbits` words of CPython's MT19937 `random.Random`, decoded as
`random()` decodes them, so they equal scalar `rng.uniform` draws bit for bit.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import ExtensionParams, Poly, worst_defect

TWO_PI = 2 * math.pi
HALF = Fraction(1, 2)


@dataclass(frozen=True)
class GroupElement:
    phase: object = 0
    tau: object = 0
    u: tuple = (0, 0)
    v: tuple = (0, 0)
    theta: object = 0

    def __post_init__(self):
        if type(self.u) is not tuple or type(self.v) is not tuple:  # a product's tuples are not copied
            object.__setattr__(self, "u", tuple(self.u))
            object.__setattr__(self, "v", tuple(self.v))

    @functools.cached_property
    def rotation(self):
        """`_cos_sin(theta)`, kept with the element; not a field, so not in ==, hash or repr."""
        return _cos_sin(self.theta)


IDENTITY = GroupElement()


def _batched(*values) -> bool:
    """True when one of the values is a numpy array of samples."""
    for value in values:
        if isinstance(value, np.ndarray):
            return True
    return False


def _cos_sin(theta):
    """(cos theta, sin theta), or None at an exact theta == 0, which keeps exact
    scalars exact; a NaN or +-inf scalar theta gives NaN, as np.cos does on arrays."""
    if isinstance(theta, np.ndarray):
        return np.cos(theta), np.sin(theta)
    if theta == 0:
        return None
    if not math.isfinite(theta):  # math.cos raises here
        return math.nan, math.nan
    return math.cos(theta), math.sin(theta)


def _rotated(cs, vec: tuple) -> tuple:
    """Apply R(theta) by its `_cos_sin` cs, such as an element's `rotation`."""
    if cs is None:
        return (vec[0], vec[1])
    c, s = cs
    return (c * vec[0] + s * vec[1], c * vec[1] - s * vec[0])  # -s x + c y, with no -s formed


def cross(a: tuple, b: tuple):
    """Planar cross product a x b = a1 b2 - a2 b1 (eps_12 = +1)."""
    return a[0] * b[1] - a[1] * b[0]


def dot(a: tuple, b: tuple):
    return a[0] * b[0] + a[1] * b[1]


def _rotated_factor(g: GroupElement, h: GroupElement) -> tuple:
    """(R(theta) u', R(theta) v'): h's vectors rotated by g's angle, once per product."""
    return _rotated(g.rotation, h.u), _rotated(g.rotation, h.v)


def cocycle_exponent(params: ExtensionParams, g: GroupElement, h: GroupElement, rotated=None):
    """Phase increment xi(g, h) beyond phase_g + phase_h; `rotated` is `_rotated_factor(g, h)`
    when the caller has it.  Each charge's term is formed only at a nonzero charge (a `Poly` is
    nonzero), so at (0, 0, 0) xi is an exact `0`, also for array components: callers broadcast it."""
    ru, rv = _rotated_factor(g, h) if rotated is None else rotated
    m, half_k, l, half = params.m, params.k * HALF, params.l, HALF
    if _batched(*g.v, g.theta, h.tau, *ru, *rv):
        # Fraction * float is float(q) * x, so floats give the scalar
        # law's values and keep Fractions out of numpy object arrays
        m, half_k, l, half = float(m), float(half_k), float(l), float(half)
    xi = -m * (dot(g.v, g.v) * half * h.tau + dot(g.v, ru)) if params.m != 0 else 0
    if params.k != 0:
        xi = xi - half_k * cross(g.v, rv)
    if params.l != 0:
        xi = xi + l * g.theta * h.tau
    return xi


def _base_product(g: GroupElement, h: GroupElement, rotated: tuple, phase) -> GroupElement:
    (ru, rv), (v1, v2) = rotated, g.v
    return GroupElement(phase, g.tau + h.tau, (ru[0] + v1 * h.tau + g.u[0], ru[1] + v2 * h.tau + g.u[1]),
                        (rv[0] + v1, rv[1] + v2), g.theta + h.theta)


def compose(params: ExtensionParams, g: GroupElement, h: GroupElement,
            zeta: Callable[[GroupElement], object] | None = None) -> GroupElement:
    """g h under the law of params, or, given zeta, under that law with its
    exponent shifted by zeta's coboundary to xi(g, h) + zeta(g h) - zeta(g) - zeta(h),
    g h the untwisted product.  zeta reads only the coordinates (tau, u, v, theta),
    never the phase, which is not a coordinate of the quotient the cocycle lives on.
    h's u and v are rotated once, and a shifted product builds its coordinates once."""
    rotated = _rotated_factor(g, h)
    xi = cocycle_exponent(params, g, h, rotated)  # a module global, so a wrapper applies
    if zeta is None:
        return _base_product(g, h, rotated, g.phase + h.phase + xi)
    gh = _base_product(g, h, rotated, g.phase + h.phase)
    return GroupElement(gh.phase + (xi + zeta(gh) - zeta(g) - zeta(h)), gh.tau, gh.u, gh.v, gh.theta)


def inverse(params: ExtensionParams, g: GroupElement) -> GroupElement:
    """Two-sided inverse under the twisted law (phases modulo 2*pi).  R(-theta) is
    R(theta) transposed, (c, -s) of g's own rotation, as cos is even and sin odd."""
    cs = g.rotation
    rminus = None if cs is None else (cs[0], -cs[1])
    v_inv = _rotated(rminus, (-g.v[0], -g.v[1]))
    u_inv = _rotated(rminus, (g.v[0] * g.tau - g.u[0], g.v[1] * g.tau - g.u[1]))
    partial = GroupElement(phase=0, tau=-g.tau, u=u_inv, v=v_inv, theta=-g.theta)
    xi = cocycle_exponent(params, g, partial)
    return GroupElement(
        phase=-g.phase - xi, tau=partial.tau, u=partial.u, v=partial.v,
        theta=partial.theta,
    )


def element_distance(a: GroupElement, b: GroupElement):
    """Component-wise max distance; theta on the line, the phase modulo 2*pi.
    `worst_defect` of the components, taken per entry when some of them are
    numpy arrays of samples (the result is then an array)."""
    parts = (abs(a.tau - b.tau), abs(a.u[0] - b.u[0]), abs(a.u[1] - b.u[1]),
             abs(a.v[0] - b.v[0]), abs(a.v[1] - b.v[1]), abs(a.theta - b.theta))
    d = a.phase - b.phase  # folded into [0, pi]; an exact zero stays an int or Fraction zero
    phase = d * 0 if not isinstance(d, np.ndarray) and d == 0 else abs((d + math.pi) % TWO_PI - math.pi)
    if not _batched(phase, *parts):
        return worst_defect(parts, phase)
    worst = functools.reduce(np.maximum, parts, phase)  # NaN propagates; no part is -inf
    return np.where(np.isfinite(worst), worst, math.nan)


def associativity_sides(params: ExtensionParams, g: GroupElement, h: GroupElement, f: GroupElement) -> tuple:
    """The two sides (gh)f and g(hf) of the 2-cocycle condition."""
    return compose(params, compose(params, g, h), f), compose(params, g, compose(params, h, f))


def eliminate_k_map(params: ExtensionParams, g: GroupElement) -> GroupElement:
    """Reparametrization u -> u + (k/2m)(v2, -v1) taking G_(k,m) onto G_(0,m).

    Requires m != 0 (`ExtensionParams.k_shift`).  With the shift in this
    direction the map Phi obeys compose_(0,m)(Phi g, Phi h) = Phi(compose_(k,m)(g, h));
    the sign is frozen by the homomorphism regression test.
    """
    lam = params.k_shift
    if lam == 0:
        return g
    if _batched(*g.v):
        lam = float(lam)  # as Fraction * float does
    return GroupElement(
        phase=g.phase,
        tau=g.tau,
        u=(g.u[0] + lam * g.v[1], g.u[1] - lam * g.v[0]),
        v=g.v,
        theta=g.theta,
    )


def homomorphism_sides(
    params_a: ExtensionParams, params_b: ExtensionParams,
    mapping: Callable[[GroupElement], GroupElement], g: GroupElement, h: GroupElement,
) -> tuple:
    """The two sides compose_b(map g, map h) and map(compose_a(g, h))."""
    return compose(params_b, mapping(g), mapping(h)), mapping(compose(params_a, g, h))


def _exact_element(q) -> GroupElement:
    """The exact-mode element (phase, tau, u1, u2, v1, v2) = q, theta = 0."""
    return GroupElement(q[0], q[1], (q[2], q[3]), (q[4], q[5]), Fraction(0))


def identity_certified(sides: Callable[..., tuple], arity: int) -> bool:
    """True when `sides` of `arity` elements with symbolic phase, tau, u and v
    and theta = 0 agree as polynomials.  That proves the sides equal, and their
    distance exactly zero, at every rational phase, tau, u and v."""
    symbols = lambda i: [Poly.symbol(f"{n}{i}") for n in ("phase", "tau", "u1", "u2", "v1", "v2")]
    left, right = sides(*(_exact_element(symbols(i)) for i in range(arity)))
    return left == right


# --- sampling ------------------------------------------------------------------


BLOCK_DOUBLES = 1 << 16  # doubles decoded from one getrandbits call (1 MiB of words)


def _random_integers(rng, n: int) -> np.ndarray:
    """The next `n` values of `rng.random()` times 2**53, integers below 2**53, as
    uint64; `rng` is left where those calls would leave it.

    CPython's `random()` takes two MT19937 words a and b and returns
    ((a >> 5) * 2**26 + (b >> 6)) * 2**-53, and `getrandbits(64 * n)` takes the
    same 2n words with the first in the least-significant 32 bits.  So the words
    decode to the same values, exactly; this relies on CPython's MT19937
    `random.Random`, which the tests check on CPython 3.11-3.13.  The words are
    drawn in blocks of BLOCK_DOUBLES, since `getrandbits` takes its bit count as
    a C int: one call would overflow at 2**25 doubles.
    """
    pairs = np.empty(n, dtype="<u8")  # a in the low 32 bits, b in the high ones
    for start in range(0, n, BLOCK_DOUBLES):
        size = min(BLOCK_DOUBLES, n - start)
        pairs[start:start + size] = np.frombuffer(rng.getrandbits(64 * size).to_bytes(8 * size, "little"), "<u8")
    return (pairs & 0xFFFFFFE0) << 21 | pairs >> 38  # (a >> 5) << 26 | b >> 6


def random_elements(rng, samples: int, count: int = 1) -> tuple:
    """`count` elements whose components are arrays of `samples` draws.

    A scalar element is seven `rng.uniform` calls: phase, tau, u1, u2, v1, v2,
    theta, with phase and theta in [-pi, pi] and the rest in [-1, 1].  This
    consumes `rng` exactly as `samples * count` such elements would, the
    `count` elements of one sample drawn together, and gives the same values:
    entry i of element j is the (i * count + j)-th scalar element.
    The draws are decoded from blocks of Mersenne Twister words
    (`_random_integers`), which relies on CPython's `random.Random`.
    """
    hi = np.array([math.pi, 1.0, 1.0, 1.0, 1.0, 1.0, math.pi])[:, None]
    n = _random_integers(rng, samples * count * 7).reshape(samples, count, 7).transpose(1, 2, 0)
    # rng.uniform(a, b) is a + (b - a) * r, r = n * 2**-53; n is exact as a double and
    # (b - a) * 2**-53 is exact, so (b - a) * r is one rounded product of the two
    x = np.multiply(n, (hi - -hi) * 2.0**-53, out=np.empty((count, 7, samples)))
    x += -hi
    return tuple(GroupElement(c[0], c[1], (c[2], c[3]), (c[4], c[5]), c[6]) for c in x)
