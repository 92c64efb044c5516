"""Seeded workloads: each is a list of ``galilei21`` CLI argument vectors.

A workload is a function of the seed alone.  The program under test only
ever sees the argument vectors, never the seed.  Every draw is stratified
(a fixed number of inputs per charge regime or experiment) so that the
cost of one pass barely depends on which seed was drawn.

Charges are always written as ``--k=VALUE``.  The CLI's argparse reads a
negative fraction given as a separate token (``--k -1/2``) as an option
flag and exits 2, so the separate-token form must not be generated.
"""

from __future__ import annotations

import random
from fractions import Fraction


def _rational(rng: random.Random, nonzero: bool = False) -> str:
    """Small signed rational such as ``-3/2``, as an exact string."""
    while True:
        num = rng.randint(-6, 6)
        if num or not nonzero:
            return str(Fraction(num, rng.randint(1, 4)))


def _charges(k: str, m: str, l: str) -> list[str]:
    return [f"--k={k}", f"--m={m}", f"--l={l}"]


# The four regimes of the Casimir table, each as a charge-set generator.
CASIMIR_REGIMES = {
    "m!=0,l=0": lambda rng: (_rational(rng), _rational(rng, True), "0"),
    "m!=0,l!=0": lambda rng: (_rational(rng), _rational(rng, True), _rational(rng, True)),
    "m=0,k=0": lambda rng: ("0", "0", _rational(rng)),
    "m=0,k!=0,l!=0": lambda rng: (_rational(rng, True), "0", _rational(rng, True)),
}

# Charge sets for the group suite: both laws plus k-removal (l = 0), the
# covering law only (l != 0), and k-removal skipped (m = 0).
COCYCLE_REGIMES = {
    "l=0": lambda rng: (_rational(rng, True), _rational(rng, True), "0"),
    "l!=0": lambda rng: (_rational(rng, True), _rational(rng, True), _rational(rng, True)),
    "m=0": lambda rng: (_rational(rng, True), "0", "0"),
}

CONTRACTION_GRID = "1e2:1e6:logx2"
CONTRACTION_SAMPLES = 60


def invariants_sweep(rng: random.Random) -> list[list[str]]:
    """Three charge sets per Casimir regime; each gets verify-algebra, then casimir.

    verify-algebra runs 140 random-charge samples instead of its default 200.
    The enveloping layer, not the Jacobi checks, then dominates the pass, and
    the times of verify-algebra reports overlap those of casimir ones, so
    the median report falls inside one cluster of times, not in a gap
    between two (at 100 samples it fell in the gap and moved by 10% from
    seed to seed).
    """
    sets = [gen(rng) for gen in CASIMIR_REGIMES.values() for _ in range(3)]
    rng.shuffle(sets)
    out = []
    for charges in sets:
        seed = f"--seed={rng.randrange(10**6)}"
        out.append(["verify-algebra", *_charges(*charges), seed, "--samples=140"])
        out.append(["casimir", *_charges(*charges), seed, "--max-degree=3"])
    return out


# The two fixed charge sets of the warm-rewriter workload: l != 0 and l = 0.
DEEP_CHARGES = (("3/2", "2", "1/3"), ("3/2", "2", "0"))
DEEP_REPEATS = 3


def invariants_deep(rng: random.Random) -> list[list[str]]:
    """``casimir --max-degree=4`` three times on each of two fixed charge sets.

    Inside a pass the first report of each charge set builds its rewriter
    and the later ones find it warm.  The inputs are fixed; the seed only
    shuffles their order.
    """
    out = [
        ["casimir", *_charges(*charges), "--max-degree=4"]
        for charges in DEEP_CHARGES
        for _ in range(DEEP_REPEATS)
    ]
    rng.shuffle(out)
    return out


def cocycle(rng: random.Random) -> list[list[str]]:
    """Eight group suites per cocycle regime, 500 samples each.

    Half the CLI default of 1000 samples, so that a pass holds 24 reports,
    as the other workloads' passes do.
    """
    sets = [gen(rng) for gen in COCYCLE_REGIMES.values() for _ in range(8)]
    rng.shuffle(sets)
    return [
        ["group", *_charges(*charges), f"--seed={rng.randrange(10**6)}", "--samples=500"]
        for charges in sets
    ]


def contraction(rng: random.Random) -> list[list[str]]:
    """Eight studies per experiment family on a grid finer than the default."""
    names = [name for name in ("thomas", "mass", "diagram") for _ in range(8)]
    rng.shuffle(names)
    return [
        [
            "contract",
            f"--experiment={name}",
            f"--c-grid={CONTRACTION_GRID}",
            f"--samples={CONTRACTION_SAMPLES}",
            f"--seed={rng.randrange(10**6)}",
        ]
        for name in names
    ]


WORKLOADS = {
    "invariants-sweep": invariants_sweep,
    "invariants-deep": invariants_deep,
    "cocycle": cocycle,
    "contraction": contraction,
}

# Passes in one run of each workload.  The count is fixed, never derived
# from elapsed time, so a run pools the same number of reports on every
# commit and report_tail_s sits at the same percentile.  The counts make
# a run last about BENCHMARK.json's run_seconds on the code the benchmark
# was defined on, on a 2-vCPU x86 VM when the host was quiet; a busy host
# makes it up to about 1.7 times as long.
PASSES = {
    "invariants-sweep": 5,
    "invariants-deep": 6,
    "cocycle": 4,
    "contraction": 4,
}

# A deliberately failing invocation: a zero tolerance cannot be met, so the
# CLI exits 1.  Every run scores it and requires it to be counted as failed.
CANARY = ["group", "--k=1", "--m=1", "--samples=2", "--tolerance=0"]


def generate(name: str, seed: int) -> list[list[str]]:
    return WORKLOADS[name](random.Random(f"{name}:{seed}"))
