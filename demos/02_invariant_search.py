"""
Casimir invariants and the centralizer search
=============================================

Which normal-ordered polynomials in the generators commute with the
whole algebra?  The answer depends sharply on which of the three
charges are switched on.  This script checks the known invariants in
each regime and then finds all of them from scratch by exact linear
algebra over a bounded-degree monomial basis.
"""

from fractions import Fraction

from galilei21 import (
    ExtensionParams,
    NOPoly,
    boost_momentum_cross,
    centralizer_basis,
    internal_angular_momentum,
    internal_energy,
    is_central,
    momentum_squared,
    no_commutator,
)

M = NOPoly.generator("M")
H = NOPoly.generator("H")

print("regime 1: m != 0, l = 0 (massive, no time-rotation charge)")
p = ExtensionParams(k=Fraction(5), m=Fraction(2), l=Fraction(0))
c1 = internal_energy(p)
c2 = internal_angular_momentum(p)
print(f"  internal energy    {c1}  central: {is_central(p, c1)}")
print(f"  internal ang. mom. {c2}  central: {is_central(p, c2)}")

print("\nregime 2: m = 0, k = 0 (only the time-rotation charge may act)")
p2 = ExtensionParams(0, 0, Fraction(4))
print(f"  P^2   central: {is_central(p2, momentum_squared())}")
print(f"  N x P central: {is_central(p2, boost_momentum_cross())}")

print("\nregime 3: m = 0, k != 0 (the boost-boost charge kills N x P)")
p3 = ExtensionParams(Fraction(2), 0, Fraction(4))
print(f"  P^2   central: {is_central(p3, momentum_squared())}")
print(f"  N x P central: {is_central(p3, boost_momentum_cross())}")

print("\nregime 4: m != 0 and l != 0 (no invariants at all)")
p4 = ExtensionParams(Fraction(1), Fraction(1), Fraction(1))
c1 = internal_energy(p4)
print(f"  [M, internal energy] = {no_commutator(p4, M, c1)}  "
      "(the defect equals l, so centrality fails)")

# brute-force confirmation: enumerate all monomials up to a degree bound,
# impose commutation with every generator as an exact linear system, and
# read off the kernel
print("\ncentralizer bases found by exhaustive search:")
for label, charges, degree in [
    ("m!=0, l=0, degree 2", (5, 2, 0), 2),
    ("m=0,  k=0, degree 2", (0, 0, 4), 2),
    ("m=0,  k!=0, degree 2", (2, 0, 4), 2),
    ("m!=0, l!=0, degree 3", (1, 1, 1), 3),
]:
    basis = centralizer_basis(ExtensionParams(*map(Fraction, charges)), degree)
    print(f"  {label}: dimension {len(basis)}")
    for e in basis:
        print(f"      {e}")
