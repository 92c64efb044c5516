"""Compare two result sets of the galilei21 benchmark.

Usage: python3 benchmarks/compare.py BASE CHANGE

BASE and CHANGE are ``runs.jsonl`` files written by ``run.py`` (or the
directories holding them), typically from the parent commit and from the
change.  For each workload and end-to-end metric the table gives both
medians and quartiles, the pair wins of CHANGE over BASE (runs paired by
seed, ties counting for neither), the metric's bound from
``BENCHMARK.json``, and a verdict:

* ``unresolved`` - for a time, the two sets' median ``probe_s`` differ by
  more than 10% (the host itself changed speed between them, and the
  scaling to reference speed takes out most of that, not all); for
  ``report_tail_s``, the sets recorded different tail percentiles; or
  either side's spread (interquartile range over median) exceeds the
  bound and not every CHANGE run beats, or loses to, every BASE run;
* ``worse`` - the CHANGE median is worse than the BASE median by more than
  the bound;
* ``better`` - CHANGE wins at least 9 in 10 pairs and the medians differ by
  more than BASE's interquartile range;
* ``same`` - otherwise.

Each workload also shows the median ``probe_s`` of both sets: the time of
the speed probe run around and during every report.  Per-layer metrics
from traced runs follow, as medians with no verdict.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC_FILE = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
HOST_DRIFT = 0.1  # probe medians further apart than this: the host changed speed


def load(path: str) -> list[dict]:
    p = Path(path)
    if p.is_dir():
        p = p / "runs.jsonl"
    return [json.loads(line) for line in p.read_text().splitlines() if line.strip()]


def by_workload(records: list[dict], trace: int) -> dict[str, list[dict]]:
    out: dict[str, list[dict]] = {}
    for r in sorted(records, key=lambda r: r["seed"]):
        if r["trace"] == trace:
            out.setdefault(r["workload"], []).append(r)
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pairs(base: list[dict], change: list[dict]) -> list[tuple[dict, dict]]:
    """Runs paired by seed, in the order each seed was run on either side."""
    pending: dict[int, list[dict]] = {}
    for r in base:
        pending.setdefault(r["seed"], []).append(r)
    out = []
    for r in change:
        if pending.get(r["seed"]):
            out.append((pending[r["seed"]].pop(0), r))
    return out


def verdict(a: list[float], b: list[float], wins: int, npairs: int, bound: float, lower: bool):
    sign = 1 if lower else -1  # positive "worse" means the change reads worse
    a1, am, a3 = quartiles(a)
    b1, bm, b3 = quartiles(b)
    if len(a) < 2 or len(b) < 2 or (a3 - a1) / am > bound or (b3 - b1) / bm > bound:
        if all(sign * (y - x) < 0 for x in a for y in b):
            return "better (every run)"
        if all(sign * (y - x) > 0 for x in a for y in b):
            return "worse (every run)"
        return "unresolved"
    if sign * (bm - am) / am > bound:
        return "worse"
    if npairs and wins >= 0.9 * npairs and sign * (am - bm) > a3 - a1:
        return "better"
    return "same"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    spec = json.loads(SPEC_FILE.read_text())
    base_all, change_all = load(argv[0]), load(argv[1])
    base, change = by_workload(base_all, 0), by_workload(change_all, 0)

    print(f"{'workload':17s} {'metric':14s} {'base median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s} {'wins':>7s} {'bound':>6s}  verdict")
    for w in spec["workloads"]:
        name = w["name"]
        a_runs, b_runs = base.get(name, []), change.get(name, [])
        if not a_runs or not b_runs:
            print(f"{name:17s} (no untraced runs on {'base' if not a_runs else 'change'})")
            continue
        paired = pairs(a_runs, b_runs)
        probe_a = statistics.median(r["probe_s"] for r in a_runs)
        probe_b = statistics.median(r["probe_s"] for r in b_runs)
        drift = probe_b / probe_a - 1
        tail_pcts = {r["report_tail"]["percentile"] for r in a_runs + b_runs}
        for m in spec["end_to_end"]:
            key, lower = m["name"], m["better"] == "lower"
            a = [r["end_to_end"][key] for r in a_runs]
            b = [r["end_to_end"][key] for r in b_runs]
            wins = sum(
                1 for x, y in paired
                if (y["end_to_end"][key] < x["end_to_end"][key]) == lower
                and y["end_to_end"][key] != x["end_to_end"][key]
            )
            a1, am, a3 = quartiles(a)
            b1, bm, b3 = quartiles(b)
            if m["unit"] == "s" and abs(drift) > HOST_DRIFT:
                judge = "unresolved (host speed differs)"
            elif key == "report_tail_s" and len(tail_pcts) > 1:
                judge = "unresolved (tail percentiles differ)"
            else:
                judge = verdict(a, b, wins, len(paired), m["bound"], lower)
            print(f"{name:17s} {key:14s} {am:12.6g} [{a1:.6g}, {a3:.6g}] {m['unit']:3s}"
                  f"{bm:12.6g} [{b1:.6g}, {b3:.6g}] {m['unit']:3s}"
                  f"{wins:3d}/{len(paired):<3d} {m['bound']:6.2f}  "
                  f"{judge}")
        for label, runs in (("base", a_runs), ("change", b_runs)):
            failed = sum(r["failed"] for r in runs)
            attempted = sum(r["attempted"] for r in runs)
            print(f"{name:17s} failed_ratio   {label} {failed / attempted:.4g} "
                  f"({failed}/{attempted}, {len(runs)} runs)")
        print(f"{name:17s} probe_s        {probe_a:.4g} s -> {probe_b:.4g} s ({drift:+.1%})"
              + ("  HOST SPEED DIFFERS: rerun both sides interleaved" if abs(drift) > HOST_DRIFT else ""))
        if len(tail_pcts) > 1:
            print(f"{name:17s} report_tail_s  percentiles differ: {sorted(tail_pcts)}")

    base_t, change_t = by_workload(base_all, 1), by_workload(change_all, 1)
    for w in spec["workloads"]:
        name = w["name"]
        if not base_t.get(name) or not change_t.get(name):
            continue
        print(f"\nper-layer medians, traced runs of {name} (base -> change)")
        for m in spec["per_layer"]:
            a = statistics.median(r["per_layer"].get(m["name"], 0) for r in base_t[name])
            b = statistics.median(r["per_layer"].get(m["name"], 0) for r in change_t[name])
            if a or b:
                ratio = f"x{b / a:.3f}" if a else "new"
                print(f"  {m['name']:48s} {a:12.6g} -> {b:12.6g} {m['unit']:5s} {ratio}")

    meta = [runs[0]["metadata"] for runs in (base_all, change_all) if runs]
    for key in sorted(meta[0]):
        values = {str(m.get(key)) for m in meta}
        if len(values) > 1 and key != "git_commit":
            print(f"note: metadata {key} differs between the sets: {sorted(values)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
