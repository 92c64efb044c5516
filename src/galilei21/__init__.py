"""Central extensions of the planar Galilei group, exactly and in the limit.

Four layers:

* :mod:`galilei21.algebra` - structure constants of the three-charge
  extended algebra over exact rationals, with Jacobi checks and the
  basis change that removes the boost-boost charge.
* :mod:`galilei21.enveloping` - normal-ordered enveloping algebra,
  the invariant (Casimir) table, and the exact bounded-degree
  centralizer, of which the table's products are a basis.
* :mod:`galilei21.group` - the twisted group law, also shifted by a
  coboundary, and the group-level charge removal map.
* :mod:`galilei21.contraction` - planar Poincare numerics showing how
  the mass and Wigner-rotation cocycles emerge in the c -> infinity
  limit.

Each layer loads on first use: importing the package loads none of them,
and reading one of the names below imports the layer that defines it.  The
exact layers, ``algebra`` and ``enveloping``, never import numpy; ``group``
and ``contraction`` do.
"""

import importlib

_EXPORTS = {
    "algebra": """ExtensionParams LieAlgebra antisymmetry_defect apply_basis_change
        eliminate_k_change jacobi_defect make_galilei_algebra""",
    "contraction": """ConvergenceReport LimitExperiment PoincareElement boost_matrix
        compose_boosts contract_element convergence_study decompose mass_cocycle_exponent
        poincare_from_galilei poincare_product rotation_cocycle_exponent rotation_matrix""",
    "enveloping": """NOPoly NormalOrderer boost_momentum_cross casimir_invariants
        centralizer_basis generator_brackets internal_angular_momentum internal_energy
        momentum_squared""",
    "group": """IDENTITY GroupElement cocycle_exponent compose eliminate_k_map
        inverse random_elements""",
}
_HOME = {name: layer for layer, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    """A public name, read from its layer, which this imports on first use (PEP 562)."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
