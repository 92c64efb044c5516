"""
Where the cocycles come from: the large-c limit
===============================================

On the planar Poincare group every cocycle is trivial - a coboundary of
some function zeta.  Two specific choices of zeta survive the
nonrelativistic limit as the mass and boost-boost phases of the Galilei
group, while zeta itself blows up:

* zeta = c * a^0 leaves behind v^2/2 tau' + v . R u'   (the m term)
* zeta = c^2 theta(Lambda) leaves behind (v x R v')/2  (the k term),
  powered by the Wigner rotation of composed boosts.

This script prints the convergence tables; the fitted slope -2 is the
1/c^2 decay of the mismatch.  `convergence_study` returns one record for
a whole family of samples: its targets and slopes hold one entry per
sample, its errors and |zeta| one row per sample over the c grid.  Each
family here holds one sample.
"""

import random

from galilei21 import (
    ExtensionParams, GroupElement, GroupKind, cocycle_exponent, compose_boosts, convergence_study,
)
from galilei21.cli import DEFAULT_C_GRID
from galilei21.contraction import mass_experiment, sample_experiments, thomas_experiment

# composing two non-parallel boosts leaves a residual rotation
v, w = (1.0, 0.0), (0.0, 1.0)
for c in (10.0, 100.0, 1000.0):
    _, angle = compose_boosts(v, w, c)
    print(f"c = {c:6.0f}: Wigner angle = {float(angle):.3e}, "
          f"c^2 * angle = {float(c * c * angle):.6f}")
# minus the group cocycle's k term at k = 1: the sign convention of the phase
limit = -cocycle_exponent(GroupKind.EXTENDED, ExtensionParams(1, 0, 0), GroupElement(v=v), GroupElement(v=w))
print(f"predicted limit (v x w)/2 = {limit}\n")

def show(experiment, grid=DEFAULT_C_GRID):
    study = convergence_study(experiment, grid)  # one report for the family, here of one sample
    (target,), (slope,), (growth,) = study.targets, study.fitted_slopes, study.growth_slopes
    print(f"{experiment.name}: target value {target:+.4f}, fitted error slope {slope:+.3f}")
    print("        c          error   |zeta|")
    (errors,), (zetas,) = study.errors, study.zeta_magnitudes  # the one sample's rows
    for c, err, zeta in zip(study.c_grid, errors, zetas):
        print(f"  {c:9.0f}  {err:12.3e}  {zeta:9.3e}")
    if any(zetas):
        print(f"  zeta growth slope: {growth:+.3f} (the trivializing function diverges)")
    print()

show(thomas_experiment((40.0, 10.0), (-5.0, 45.0), 0.8))
show(mass_experiment((50.0, 20.0), 0.5, 1.5, (1.0, -2.0)))

# the contraction also commutes with composition at the same 1/c^2 rate
rng = random.Random(1)
show(sample_experiments("diagram", rng, 1, min(DEFAULT_C_GRID)))
