"""Central extensions of the planar Galilei group, exactly and in the limit.

Four layers:

* :mod:`galilei21.algebra` - structure constants of the three-charge
  extended algebra over exact rationals, with Jacobi checks and the
  basis change that removes the boost-boost charge.
* :mod:`galilei21.enveloping` - normal-ordered enveloping algebra,
  the invariant (Casimir) table, and an exact bounded-degree
  centralizer search.
* :mod:`galilei21.group` - the twisted group law, cocycle and
  coboundary machinery, and the group-level charge removal map.
* :mod:`galilei21.contraction` - planar Poincare numerics showing how
  the mass and Wigner-rotation cocycles emerge in the c -> infinity
  limit.
"""

from .algebra import (
    ExtensionParams,
    LieAlgebra,
    antisymmetry_defect,
    apply_basis_change,
    eliminate_k_change,
    jacobi_defect,
    make_galilei_algebra,
)
from .contraction import (
    ConvergenceReport,
    LimitExperiment,
    PoincareElement,
    boost_matrix,
    compose_boosts,
    contract_element,
    convergence_study,
    decompose,
    mass_cocycle_exponent,
    poincare_from_galilei,
    poincare_product,
    rotation_cocycle_exponent,
    rotation_matrix,
    thomas_target,
)
from .enveloping import (
    NOPoly,
    boost_momentum_cross,
    casimir_invariants,
    centralizer_basis,
    generator_brackets,
    internal_angular_momentum,
    internal_energy,
    is_central,
    momentum_squared,
    no_commutator,
    no_commutators,
    no_mul,
)
from .group import (
    IDENTITY,
    GroupElement,
    GroupKind,
    apply_coboundary,
    associativity_defect,
    cocycle_exponent,
    compose,
    compose_with_exponent,
    eliminate_k_map,
    homomorphism_defect,
    inverse,
    random_elements,
)

__version__ = "0.1.0"
