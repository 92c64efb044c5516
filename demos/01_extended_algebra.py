"""
The three-charge extended Galilei algebra
=========================================

Build the seven-dimensional algebra for a choice of charges (k, m, l),
inspect its brackets, certify the Lie axioms exactly, and watch the
boost-boost charge k disappear under a shift of the boost generators.
"""

from fractions import Fraction

from galilei21 import (
    ExtensionParams,
    antisymmetry_defect,
    apply_basis_change,
    eliminate_k_change,
    jacobi_defect,
    make_galilei_algebra,
)

params = ExtensionParams(k=Fraction(1), m=Fraction(2), l=Fraction(3))
alg = make_galilei_algebra(params)
print(f"charges: k={params.k}, m={params.m}, l={params.l}")
print(f"basis:   {', '.join(alg.labels)}")

# every bracket of basis elements, skipping zero rows: [X_i, X_j] is the
# coefficient row alg.tensor[i][j] over the basis
print("\nnonzero brackets:")
for i, a in enumerate(alg.labels):
    for j, b in enumerate(alg.labels[i + 1:], start=i + 1):
        terms = []
        for lbl, c in zip(alg.labels, alg.tensor[i][j]):
            if c == 1:
                terms.append(lbl)
            elif c == -1:
                terms.append(f"-{lbl}")
            elif c:
                terms.append(f"{c}*{lbl}")
        if terms:
            print(f"  [{a}, {b}] = {' + '.join(terms)}")

# the axioms hold exactly, not merely to rounding
print(f"\nantisymmetry defect: {antisymmetry_defect(alg)}")
print(f"jacobi defect:       {jacobi_defect(alg)}")

# shifting N_i by (k/2m) eps_ij P_j removes k entirely: the algebras with
# charges (k, m, l) and (0, m, l) are isomorphic whenever m != 0; the shift
# back by -k/(2m) is its inverse
change = eliminate_k_change(params)
undo = eliminate_k_change(ExtensionParams(-params.k, params.m, params.l))
moved = apply_basis_change(alg, change, undo)
target = make_galilei_algebra(ExtensionParams(0, params.m, params.l))
print(f"\nafter the boost shift, structurally equal to g_(0,m,l): "
      f"{moved == target}")
print(f"(the k={params.k} copy differs from g_(0,m,l) before the shift: "
      f"{alg != target})")
