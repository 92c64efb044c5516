"""One benchmark pass in a fresh interpreter.

Usage: python3 child.py SRC_DIR SPEC_JSON RESULT_JSON

Imports ``galilei21.cli`` from SRC_DIR (timed as set-up), runs the
deliberately failing canary, then calls ``cli.main(argv)`` once per
argument vector of the spec, timing each call.  The speed probe
(``probe.py``) runs before the first report, after every report and, in
untraced passes, every ``SAMPLE_EVERY_S`` during a report (from a
SIGALRM handler), so each report's time has measures of the host's
speed taken around and during it.  A report's time excludes the probes
run during it.  Every report goes to its own file under the spec's
``out_dir``; the parent process scores them.
"""

import os
import signal
import sys
import time

SAMPLE_EVERY_S = 0.1  # one 3 ms probe per 100 ms of report: 3% of a pass


def main() -> int:
    src, spec_path, result_path = sys.argv[1:4]
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    from galilei21 import cli

    cli.build_parser()
    setup_s = time.perf_counter() - t0
    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"galilei21 imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2

    import json
    import traceback

    import numpy as np

    from probe import probe

    probe()  # the first call pays for first-use costs; it is not used

    with open(spec_path) as fh:
        spec = json.load(fh)
    out_dir = spec["out_dir"]

    def report_argv(argv, name):
        return argv + ["--format", "json", "--out", os.path.join(out_dir, name)]

    canary_code = cli.main(report_argv(spec["canary"], "canary.json"))

    tracer = None
    if spec["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.calibrate()
        tracer.install("galilei21")
    run = cli.main  # looked up after install, so traced runs call the wrapper

    samples = []  # probes taken during the current report
    signal.signal(signal.SIGALRM, lambda signum, frame: samples.append(probe()))
    # spans would charge the probes to whatever function they interrupt
    every = 0 if tracer is not None else SAMPLE_EVERY_S

    argvs = [report_argv(argv, f"r{i}.json") for i, argv in enumerate(spec["argvs"])]
    times, codes, errors, during = [], [], {}, []
    probes = [probe()]
    for i, argv in enumerate(argvs):
        if tracer is not None:
            tracer.report_id = i
        samples.clear()
        t = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, every, every)
        try:
            code = run(argv)
        except Exception:
            code = None
            errors[str(i)] = traceback.format_exc(limit=-3)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        times.append(time.perf_counter() - t - sum(samples))
        during.append(list(samples))
        codes.append(code)
        probes.append(probe())

    result = {
        "setup_s": setup_s,
        "times": times,
        "codes": codes,
        "errors": errors,
        "canary_code": canary_code,
        "probes": probes,
        "during": during,
        "numpy": np.__version__,
        "longdouble_nmant": int(np.finfo(np.longdouble).nmant),
    }
    if tracer is not None:
        result["layers"] = tracer.summary()
        result["spans"] = len(tracer.start)
        result["trace_cost_ns"] = tracer.cost_ns
        tracer.write(spec["spans_path"])
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
