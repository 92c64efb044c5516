"""The package surface: its public names, and which layers a suite loads."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import galilei21

ROOT = Path(__file__).resolve().parent.parent

# every public name today's package exports, by the layer that defines it
PUBLIC = {
    "algebra": ["ExtensionParams", "LieAlgebra", "antisymmetry_defect", "apply_basis_change",
                "eliminate_k_change", "jacobi_defect", "make_galilei_algebra"],
    "contraction": ["ConvergenceReport", "LimitExperiment", "PoincareElement", "boost_matrix",
                    "compose_boosts", "contract_element", "convergence_study", "decompose",
                    "mass_cocycle_exponent", "poincare_from_galilei", "poincare_product",
                    "rotation_cocycle_exponent", "rotation_matrix"],
    "enveloping": ["NOPoly", "NormalOrderer", "boost_momentum_cross", "casimir_invariants",
                   "centralizer_basis", "generator_brackets", "internal_angular_momentum",
                   "internal_energy", "momentum_squared"],
    "group": ["IDENTITY", "GroupElement", "cocycle_exponent", "compose", "eliminate_k_map",
              "inverse", "random_elements"],
}
NAMES = [name for names in PUBLIC.values() for name in names]


def test_public_names_are_pinned():
    assert len(NAMES) == 36 and galilei21.__all__ == NAMES
    assert galilei21.__version__ == "0.1.0"


@pytest.mark.parametrize("layer", PUBLIC)
def test_public_names_are_their_layers_own_objects(layer):
    module = importlib.import_module(f"galilei21.{layer}")
    assert all(getattr(galilei21, name) is getattr(module, name) for name in PUBLIC[layer])


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from galilei21 import *", namespace)
    assert all(namespace[name] is getattr(galilei21, name) for name in NAMES)


# the names removed from the package read like any other unknown name
@pytest.mark.parametrize("name", ["no_such_name", "is_central", "no_commutator", "no_commutators", "thomas_target",
                                  "associativity_defect", "homomorphism_defect", "no_mul",
                                  "GroupKind"])
def test_unknown_attribute_raises_attribute_error(name):
    with pytest.raises(AttributeError) as raised:
        getattr(galilei21, name)
    assert str(raised.value) == f"module 'galilei21' has no attribute {name!r}"
    assert not hasattr(galilei21, name)


NUMERIC = ("numpy", "galilei21.group", "galilei21.contraction")

# Run in a fresh interpreter: the exact suites, in every Casimir regime, and the
# exact demos load none of NUMERIC; the first group report loads all three.  No
# group or contract report loads numpy.random, which would add about 6 MB of peak
# RSS: the draws come from random.Random.
EXACT_RUN = f"""
import os, runpy, sys
from galilei21 import cli

NUMERIC = {NUMERIC!r}
argvs = [
    ["verify-algebra", "--k=1", "--m=2", "--l=3"],
    ["verify-algebra", "--k=1", "--m=0", "--l=3"],
    ["casimir", "--k=3/2", "--m=2", "--l=0"],
    ["casimir", "--k=3/2", "--m=2", "--l=1/3"],
    ["casimir", "--k=0", "--m=0", "--l=2"],
    ["casimir", "--k=-2/3", "--m=0", "--l=1/2"],
]
for argv in argvs:
    assert cli.main(argv + ["--format=json", "--out", os.devnull]) == 0, argv
for demo in ("01_extended_algebra.py", "02_invariant_search.py"):
    runpy.run_path(os.path.join("demos", demo), run_name="__main__")
assert not [name for name in NUMERIC if name in sys.modules], sys.modules.keys()
assert cli.main(["group", "--k=1", "--m=1", "--samples=2", "--out", os.devnull]) == 0
assert all(name in sys.modules for name in NUMERIC)
assert cli.main(["contract", "--experiment=mass", "--samples=2", "--out", os.devnull]) == 0
assert "numpy.random" not in sys.modules
"""


def test_exact_suites_and_demos_run_without_numpy():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", EXACT_RUN],
        capture_output=True, cwd=ROOT, env={**os.environ, "PYTHONPATH": path}, timeout=600,
    )
    assert done.returncode == 0, done.stderr.decode()


# Start-up: in a fresh interpreter with no site hook (-S) and only src/ on the
# path, the exact suites load no module they do not use: neither numpy nor
# dataclasses (which imports inspect, dis and ast) nor typing, nor argparse
# (which imports gettext, and builds its help with gettext lookups).
UNUSED_AT_START = ("dataclasses", "inspect", "typing", "numpy", "argparse", "gettext")
EXACT_START = f"""
import os, sys
from galilei21 import cli

cli.build_parser()
for argv in (["verify-algebra"], ["casimir", "--max-degree=4"], ["casimir", "--k=0", "--m=0", "--l=2"]):
    assert cli.main(argv + ["--out", os.devnull]) == 0, argv
loaded = [name for name in {UNUSED_AT_START!r} if name in sys.modules]
assert not loaded, loaded
"""


def test_exact_suites_start_without_dataclasses_inspect_typing_or_numpy():
    done = subprocess.run(
        [sys.executable, "-S", "-c", EXACT_START],
        capture_output=True, cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, timeout=600,
    )
    assert done.returncode == 0, done.stderr.decode()
