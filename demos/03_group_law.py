"""
The twisted group law and its cocycle
=====================================

Group elements carry a phase that picks up a charge-dependent increment
on every product.  Associativity of the twisted law is exactly the
2-cocycle condition on that increment; shifting the phase convention by
any function of the group coordinates (a coboundary) preserves it.
"""

import math
import random
from fractions import Fraction

from galilei21 import (
    ExtensionParams,
    GroupElement,
    cocycle_exponent,
    compose,
    eliminate_k_map,
    inverse,
    random_elements,
)
from galilei21.algebra import worst_defect
from galilei21.group import associativity_sides, element_distance, homomorphism_sides

params = ExtensionParams(k=Fraction(2), m=Fraction(1), l=Fraction(3))

# each charge shows up in the phase of a specific kind of product
boost = GroupElement(v=(1.0, 0.0))
step = GroupElement(tau=1.0)
side_boost = GroupElement(v=(0.0, 1.0))
spin = GroupElement(theta=math.pi / 2)

print("phase increments xi(g, h):")
print(f"  boost then time step   (m term): {cocycle_exponent(params, boost, step):+.3f}")
print(f"  boost then other boost (k term): {cocycle_exponent(params, boost, side_boost):+.3f}")
print(f"  rotation then time step (l term): {cocycle_exponent(params, spin, step):+.3f}")

# the cocycle condition, (gh)f = g(hf), checked numerically on 2000 random
# triples at once, as numpy arrays (worst_defect turns a NaN or inf defect
# into NaN, so a broken law can never look associative)...
rng = random.Random(0)
sides = associativity_sides(params, *random_elements(rng, 2000, 3))
worst = worst_defect(element_distance(*sides).tolist(), 0.0)
print(f"\nassociativity defect over 2000 random triples: {worst:.2e}")


# ...and exactly, on rational elements with no rotation angle: phase, tau,
# u and v each a small fraction p/q
def random_rational_element(rng):
    q = [Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(6)]
    return GroupElement(q[0], q[1], (q[2], q[3]), (q[4], q[5]), Fraction(0))


worst_exact = worst_defect(
    (
        element_distance(*associativity_sides(
            params, random_rational_element(rng), random_rational_element(rng), random_rational_element(rng),
        ))
        for _ in range(200)
    ),
    Fraction(0),
)
print(f"exact-mode defect over 200 rational triples:   {worst_exact} (a Fraction)")

(g,) = random_elements(rng, 1)
gi = inverse(params, g)
print(f"round trip to the identity: {element_distance(compose(params, g, gi), GroupElement())[0]:.2e}")

# a coboundary shift rewrites the phase bookkeeping without breaking the law
# (zeta reads the coordinates tau, u, v, theta, never the phase)
zeta = lambda e: 0.4 * e.v[0] * e.u[0] - e.tau * e.theta
twist = lambda a, b: compose(params, a, b, zeta)
a, b, c = random_elements(rng, 500, 3)
worst = worst_defect(element_distance(twist(twist(a, b), c), twist(a, twist(b, c))).tolist(), 0.0)
print(f"shifted-law associativity defect:              {worst:.2e}")

# on the group, k can be removed just like in the algebra: shift the
# space translation by (k/2m) eps v and the (k, m) law becomes the (0, m) law
p_k = ExtensionParams(Fraction(2), Fraction(1), 0)
p_0 = ExtensionParams(0, Fraction(1), 0)
phi = lambda e: eliminate_k_map(p_k, e)
g, h = random_elements(rng, 2000, 2)
sides = homomorphism_sides(p_k, p_0, phi, g, h)
worst = worst_defect(element_distance(*sides).tolist(), 0.0)
print(f"k-removal homomorphism defect:                 {worst:.2e}")
