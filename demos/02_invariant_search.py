"""
Casimir invariants and the centralizer search
=============================================

Which normal-ordered polynomials in the generators commute with the
whole algebra?  The answer depends sharply on which of the three
charges are switched on.  This script checks the known invariants in
each regime, counts all of them by exact linear algebra over a
bounded-degree monomial basis, and finds that the products of the known
ones are independent and fill that count, so they are all there is.
"""

from fractions import Fraction

from galilei21 import (
    ExtensionParams,
    NormalOrderer,
    boost_momentum_cross,
    casimir_invariants,
    centralizer_basis,
    generator_brackets,
    internal_angular_momentum,
    internal_energy,
    make_galilei_algebra,
    momentum_squared,
)
from galilei21.enveloping import M, centralizer_dimension, rank


def orderer(params):
    """The memo of normal forms over g_(k,m,l) at these charges: one per charge
    set serves all its brackets and products."""
    return NormalOrderer(make_galilei_algebra(params))


# p is central iff its six brackets [g, p], one per generator g, all vanish
print("regime 1: m != 0, l = 0 (massive, no time-rotation charge)")
p = ExtensionParams(k=Fraction(5), m=Fraction(2), l=Fraction(0))
c1 = internal_energy(p)
c2 = internal_angular_momentum(p)
b1, b2 = generator_brackets(orderer(p), [c1, c2])
print(f"  internal energy    {c1}  central: {not any(b1)}")
print(f"  internal ang. mom. {c2}  central: {not any(b2)}")

print("\nregime 2: m = 0, k = 0 (only the time-rotation charge may act)")
p2 = ExtensionParams(0, 0, Fraction(4))
b1, b2 = generator_brackets(orderer(p2), [momentum_squared(), boost_momentum_cross()])
print(f"  P^2   central: {not any(b1)}")
print(f"  N x P central: {not any(b2)}")

print("\nregime 3: m = 0, k != 0 (the boost-boost charge kills N x P)")
p3 = ExtensionParams(Fraction(2), 0, Fraction(4))
b1, b2 = generator_brackets(orderer(p3), [momentum_squared(), boost_momentum_cross()])
print(f"  P^2   central: {not any(b1)}")
print(f"  N x P central: {not any(b2)}")

print("\nregime 4: m != 0 and l != 0 (no invariants at all)")
p4 = ExtensionParams(Fraction(1), Fraction(1), Fraction(1))
c1 = internal_energy(p4)
print(f"  [M, internal energy] = {generator_brackets(orderer(p4), [c1])[0][M]}  "
      "(the defect equals l, so centrality fails)")

# the dimension by exhaustive search: enumerate the rotation-invariant
# monomials up to a degree bound, impose commutation with every generator as
# an exact linear system, and count the kernel; the basis: the products of
# the central invariants
print("\ncentralizer dimensions by exhaustive search, and bases of products:")
for label, charges, degree in [
    ("m!=0, l=0, degree 2", (5, 2, 0), 2),
    ("m=0,  k=0, degree 2", (0, 0, 4), 2),
    ("m=0,  k!=0, degree 2", (2, 0, 4), 2),
    ("m!=0, l!=0, degree 3", (1, 1, 1), 3),
]:
    p = ExtensionParams(*map(Fraction, charges))
    normal_form = orderer(p)
    basis = centralizer_basis(normal_form, casimir_invariants(p), degree)
    print(f"  {label}: dimension {centralizer_dimension(p, degree)}; "
          f"products below: {len(basis)}, of rank {rank(basis)}")
    for e in basis:
        print(f"      {e}")
