"""The tests' scalar samplers: seeded charges, exact elements, and the float
element that `group.random_elements` must match."""

import math
from fractions import Fraction

from galilei21.algebra import ExtensionParams
from galilei21.group import GroupElement


def random_rational(rng, nonzero: bool = False) -> Fraction:
    """Small random rational p/q, |p| <= 6 and 1 <= q <= 4, from a seeded `random.Random`."""
    while True:
        num = rng.randint(-6, 6)
        if num or not nonzero:
            return Fraction(num, rng.randint(1, 4))


def random_params(rng, nonzero_m: bool = False) -> ExtensionParams:
    """Random charges (k, m, l), each drawn by `random_rational`, m nonzero on request."""
    return ExtensionParams(random_rational(rng), random_rational(rng, nonzero_m), random_rational(rng))


def random_element(rng) -> GroupElement:
    """Random element from a seeded `random.Random` (float mode): phase and
    theta in [-pi, pi], tau, u and v in [-1, 1]."""
    r = lambda: rng.uniform(-1.0, 1.0)
    return GroupElement(
        phase=rng.uniform(-math.pi, math.pi),
        tau=r(),
        u=(r(), r()),
        v=(r(), r()),
        theta=rng.uniform(-math.pi, math.pi),
    )


def random_rational_element(rng) -> GroupElement:
    """Random element with theta = 0 (exact mode): phase, tau, u1, u2, v1 and v2
    each a Fraction p/q drawn as randint(-4, 4), then randint(1, 4)."""
    q = [Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(6)]
    return GroupElement(q[0], q[1], (q[2], q[3]), (q[4], q[5]), Fraction(0))
