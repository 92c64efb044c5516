"""galilei21 benchmark: seeded CLI workloads, scored fail-closed.

Usage (from the repository root):

    python3 benchmarks/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

A run of one workload makes a fixed number of passes
(``workloads.PASSES``, at least two, so every report has a repeat to be
compared with); the count does not depend on how fast the code is.
``--seconds`` is accepted only with the value of ``run_seconds`` in
``BENCHMARK.json``, the length a run was sized to, so that the run
length is set by the benchmark and every commit runs the same passes.
A pass is one fresh
interpreter (``child.py``) that imports ``galilei21.cli`` from ``src/``
and calls ``cli.main(argv)`` for each argument vector of the workload,
writing JSON reports.  Every time is stated at reference speed: scaled
by ``probe.REF_S`` over the time of the speed probe run next to it, so
that the host's slow and fast phases cancel (see ``probe.py``).  With
``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1``
passes alternate traced and untraced and the run prints the per-layer
metrics and the tracing overhead.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Each run is also appended to
``benchmarks/results/runs.jsonl`` with its metadata; ``compare.py``
reads two such files.  The exit status is 0 only when every report
passed and the canary was counted as failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import spans
import workloads
from probe import REF_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC_FILE = ROOT / "BENCHMARK.json"
RESULTS = HERE / "results"
TAIL_BEYOND = 10  # the tail percentile has at least this many reports beyond it


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


# --- scoring ------------------------------------------------------------------


def score(code, text: bytes | None) -> list[str]:
    """Reasons one report fails, apart from the repeat comparison; [] if none."""
    reasons = []
    if code != 0:
        reasons.append(f"exit status {code}")
    if text is None:
        return reasons + ["no report written"]
    try:
        report = json.loads(text)
    except ValueError:
        return reasons + ["report is not JSON"]
    if report.get("pass") is not True:
        reasons.append("pass is not true")
    for check in report.get("checks", []):
        for key in ("defect", "slope"):
            value = check.get(key)
            if isinstance(value, (int, float)) and not math.isfinite(value):
                reasons.append(f"{key} of {check.get('name')} is {value}")
    return reasons


def unrepeated(argvs: list, digests: list) -> set:
    """Indices of reports not byte-identical to every repeat of the same argv.

    A report whose argv ran only once has nothing to be compared with and
    is counted as failed too.
    """
    groups: dict[tuple, list[int]] = {}
    for i, argv in enumerate(argvs):
        groups.setdefault(tuple(argv), []).append(i)
    bad = set()
    for members in groups.values():
        if len(members) < 2 or len({digests[i] for i in members}) > 1:
            bad.update(members)
    return bad


def self_check() -> None:
    """The scorer must count each kind of failing report as failed."""
    good = b'{"checks": [{"name": "a", "defect": 0.0, "pass": true}], "pass": true}'
    cases = {
        "exit 1": (1, good),
        "no report": (0, None),
        "pass false": (0, good.replace(b"true}", b"false}")),
        "NaN defect": (0, good.replace(b"0.0", b"NaN")),
        "inf slope": (0, good.replace(b'"defect": 0.0', b'"slope": -Infinity')),
    }
    if score(0, good):
        raise BenchError("scorer rejects a passing report")
    for name, (code, text) in cases.items():
        if not score(code, text):
            raise BenchError(f"scorer accepts a failing report ({name})")
    if unrepeated([["x"], ["x"], ["y"]], ["d1", "d2", "d3"]) != {0, 1, 2}:
        raise BenchError("scorer accepts reports that differ from their repeat")


# --- one pass -----------------------------------------------------------------


def run_pass(argvs: list, trace: bool, spans_path: Path | None) -> dict:
    """Run the argvs in a fresh interpreter; return timings, rusage and scores."""
    RESULTS.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="pass-", dir=RESULTS))
    try:
        out_dir = tmp / "reports"
        out_dir.mkdir()
        spec_path, result_path = tmp / "spec.json", tmp / "result.json"
        spec_path.write_text(json.dumps({
            "argvs": argvs,
            "canary": workloads.CANARY,
            "out_dir": str(out_dir),
            "trace": trace,
            "spans_path": str(spans_path) if spans_path else None,
        }))
        cmd = [sys.executable, str(HERE / "child.py"), str(SRC), str(spec_path), str(result_path)]
        proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=sys.stderr)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0:
            raise BenchError(f"pass process exited with status {proc.returncode}")
        result = json.loads(result_path.read_text())
        result["peak_rss_mb"] = usage.ru_maxrss / 1024  # Linux reports KiB
        result["digests"], result["reasons"] = [], []
        for i, code in enumerate(result["codes"]):
            path = out_dir / f"r{i}.json"
            text = path.read_bytes() if path.exists() else None
            result["digests"].append(hashlib.sha256(text).hexdigest() if text else None)
            reasons = score(code, text)
            if str(i) in result["errors"]:
                reasons.append("raised: " + result["errors"][str(i)].strip().splitlines()[-1])
            result["reasons"].append(reasons)
        # each report at reference speed by the mean of the probes just before,
        # during and just after it; set-up and layer self times by the median
        # probe of the pass
        probes = result["probes"]
        result["norm_times"] = [
            t * REF_S / statistics.fmean([before, *during, after])
            for t, before, during, after
            in zip(result["times"], probes, result["during"], probes[1:])
        ]
        scale = REF_S / statistics.median(probes)
        result["norm_setup_s"] = result["setup_s"] * scale
        if "layers" in result:
            result["layers"] = {
                k: v * scale if k.endswith(".self_s") else v for k, v in result["layers"].items()
            }
        canary_path = out_dir / "canary.json"
        canary = canary_path.read_bytes() if canary_path.exists() else None
        result["canary_failed"] = bool(score(result["canary_code"], canary))
        return result
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


# --- one run --------------------------------------------------------------------


def tail(times: list) -> tuple[float, float, int]:
    """(value, percentile, count) at the highest rank with TAIL_BEYOND reports beyond it."""
    ordered = sorted(times)
    rank = len(ordered) - TAIL_BEYOND  # nearest rank, 1-based
    if rank < 1:
        raise BenchError(f"{len(ordered)} reports are too few for a tail percentile")
    return ordered[rank - 1], 100.0 * rank / len(ordered), len(ordered)


def _median(values: list):
    """Median; counts stay whole numbers (every traced pass does the same work)."""
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def run_workload(name: str, seed: int, trace: bool) -> dict:
    argvs = workloads.generate(name, seed)
    spans_dir = RESULTS / "spans" / name
    if trace:
        shutil.rmtree(spans_dir, ignore_errors=True)
        spans_dir.mkdir(parents=True)
    passes = []
    for i in range(workloads.PASSES[name]):
        traced = trace and i % 2 == 0
        spans_path = spans_dir / f"pass{i}.npz" if traced else None
        result = run_pass(argvs, traced, spans_path)
        result["traced"] = traced
        passes.append(result)

    all_argvs = [argv for _ in passes for argv in argvs]
    digests = [d for p in passes for d in p["digests"]]
    reasons = [list(r) for p in passes for r in p["reasons"]]
    for i in unrepeated(all_argvs, digests):
        reasons[i].append("not byte-identical to its repeat")
    failures = [
        {"pass": i // len(argvs), "argv": all_argvs[i], "reasons": r}
        for i, r in enumerate(reasons) if r
    ]
    plain = [p for p in passes if not p["traced"]]
    untraced_wall_s = statistics.median(sum(p["norm_times"]) for p in plain)
    record = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "passes": len(passes),
        "attempted": len(reasons),
        "failed": len(failures),
        "failed_ratio": len(failures) / len(reasons),
        "canary_failed": all(p["canary_failed"] for p in passes),
        "pass_times": [p["times"] for p in passes],
        "pass_probes": [p["probes"] for p in passes],
        "pass_probes_during": [p["during"] for p in passes],
        "pass_setup_s": [p["setup_s"] for p in passes],
        "probe_s": statistics.median(t for p in passes for t in p["probes"]),
        "failures": failures,
        "metadata": metadata(passes[0]),
    }
    if trace:
        layered = [p for p in passes if p["traced"]]
        keys = sorted({k for p in layered for k in p["layers"]})
        record["per_layer"] = {k: _median([p["layers"].get(k, 0) for p in layered]) for k in keys}
        record["per_layer"]["trace.overhead"] = (
            statistics.median(sum(p["norm_times"]) for p in layered) / untraced_wall_s
        )
        # what is left of the overhead once the calibrated tracing cost is taken off
        record["per_layer"]["trace.overhead_corrected"] = statistics.median(
            sum(p["layers"][f"{layer}.self_s"] for layer in spans.LAYERS) for p in layered
        ) / untraced_wall_s
        record["spans_per_pass"] = statistics.median(p["spans"] for p in layered)
        record["trace_cost_ns"] = {
            k: statistics.median(p["trace_cost_ns"][k] for p in layered)
            for k in ("inside", "outside")
        }
    else:
        # The code is deterministic, and every pass repeats every report in the
        # same order, so a report costs the same in every pass.  Its cost is
        # the median of its repeats at reference speed; every report of the
        # run is costed so before the median and the tail are taken.
        cost = [statistics.median(repeats) for repeats in zip(*(p["norm_times"] for p in plain))]
        costed = cost * len(plain)
        tail_s, tail_pct, tail_n = tail(costed)
        record["end_to_end"] = {
            "wall_s": sum(cost),
            "report_p50_s": statistics.median(costed),
            "report_tail_s": tail_s,
            "setup_s": statistics.median(p["norm_setup_s"] for p in plain),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        }
        record["report_tail"] = {"percentile": tail_pct, "reports": tail_n}
    return record


# --- metadata -------------------------------------------------------------------


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def metadata(child: dict) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": child["numpy"],
        "longdouble_nmant": child["longdouble_nmant"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
    }


# --- output ---------------------------------------------------------------------


def print_record(record: dict, spec: dict) -> dict:
    """Print one run for people; return the metrics the spec lists for its mode."""
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"passes {record['passes']}  reports {record['attempted']}")
    for f in record["failures"]:
        print(f"  FAILED pass {f['pass']}: galilei21 {' '.join(f['argv'])}: {'; '.join(f['reasons'])}")
    print(f"  failed_ratio {record['failed_ratio']:.4g} ({record['failed']}/{record['attempted']})")
    if not record["canary_failed"]:
        print("  CANARY NOT COUNTED AS FAILED: the scorer is broken")
    print(f"  probe_s {record['probe_s']:.6g} s (median time of the speed probe; "
          f"times below are at reference speed, where it takes {REF_S:g} s)")
    if record["trace"]:
        listed = spec["per_layer"]
        values = record["per_layer"]
        for key, value in values.items():
            function = key.rpartition(".")[0]
            if values.get(f"{function}.calls", 1):  # skip functions never called
                print(f"  {key:48s} {value:.6g}")
        cost = record["trace_cost_ns"]
        print(f"  tracing overhead {values['trace.overhead']:.3f}x traced/untraced wall_s, "
              f"{values['trace.overhead_corrected']:.3f}x after the calibrated cost is taken off "
              f"({record['spans_per_pass']:.0f} spans per traced pass; per span "
              f"{cost['inside']:.0f} ns inside and {cost['outside']:.0f} ns outside its "
              "clocks, subtracted from self_s)")
    else:
        listed = spec["end_to_end"]
        values = record["end_to_end"]
        for m in listed:
            extra = ""
            if m["name"] == "report_tail_s":
                t = record["report_tail"]
                extra = f"  (p{t['percentile']:.1f} of {t['reports']} reports)"
            print(f"  {m['name']:14s} {values[m['name']]:.6g} {m['unit']}{extra}")
    return {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in listed}


def main(argv=None) -> int:
    if not SPEC_FILE.is_file() or not (SRC / "galilei21" / "cli.py").is_file():
        print(f"need {SPEC_FILE.name} and src/galilei21 under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC_FILE.read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="must equal run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(argv)
    if opts.seconds != spec["run_seconds"]:
        parser.error(f"--seconds must be {spec['run_seconds']} (run_seconds in "
                     f"{SPEC_FILE.name}); each run makes a fixed number of passes")
    # SIGTERM unwinds like Ctrl-C, so a running pass process is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    try:
        self_check()
        chosen = names if opts.workload == "all" else [opts.workload]
        records = [run_workload(n, opts.seed, bool(opts.trace)) for n in chosen]
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    with open(RESULTS / "runs.jsonl", "a") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")

    metrics = {}
    for record in records:
        shown = print_record(record, spec)
        prefix = "" if len(records) == 1 else record["workload"] + "/"
        metrics.update({prefix + k: v for k, v in shown.items()})
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    correct = failed == 0 and all(r["canary_failed"] for r in records)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
