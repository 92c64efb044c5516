"""The scalar float sampler: the reference that `group.random_elements` must match."""

import math

from galilei21.group import GroupElement


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
