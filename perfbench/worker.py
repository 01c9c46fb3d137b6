"""One benchmark round in a fresh process: set up, run, check, report.

Started by ``run.py``; not meant to be run by hand.  It imports the program,
builds the workload's inputs and prints ``READY`` (the parent times set-up to
that line).  With ``--probe`` it stops there.  Otherwise it runs one timed
round of the workload, traced with ``--trace 1``, checks the round's outputs
outside the timed section, and prints one JSON line.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))


def cpu_seconds() -> float:
    """CPU time of this process (all threads) and of its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--trace-file", default="")
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args()

    from devia.harness import experiments as ex

    import layers
    from workloads import WORKLOADS, Capture

    workload = WORKLOADS[args.workload]
    inputs = workload.build(args.seed)
    print("READY", flush=True)
    if args.probe:
        return 0

    capture = Capture()
    tracer = layers.Tracer() if args.trace else None
    if tracer is not None:
        layers.install(tracer)
    c0 = cpu_seconds()
    t0 = time.perf_counter()
    out = workload.run(ex, inputs)
    t1 = time.perf_counter()
    c1 = cpu_seconds()
    checks = workload.check(inputs, out, capture.calls)

    failed = [c for c in checks if not c["ok"]]
    for c in failed:
        print(f"check failed: {c['check']}: {c['detail']}", file=sys.stderr)
    result = {
        "attempted": len(checks),
        "failed": len(failed),
        "wall_s": t1 - t0,
        "cpu_s": c1 - c0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        tracer.write(
            Path(args.trace_file),
            {"workload": args.workload, "seed": args.seed, "wall_s": result["wall_s"],
             "metrics": result["layers"]},
        )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
