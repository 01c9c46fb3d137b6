"""Run one benchmark workload and print its metrics as a JSON line.

    python3 perfbench/run.py --workload jump-wide --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout of the repository; the program is taken
from ``src/`` there.  With ``--trace 0`` it prints the end-to-end metrics
named in BENCHMARK.json; with ``--trace 1`` the per-layer ones, and it also
writes them with the raw spans to ``perfbench/results/``.

Each round of the workload runs in a fresh process, with ``DEVIA_WORKERS``
unset and BLAS at its default thread count; rounds follow one another until
the next would end past ``--seconds`` (at least one), and the median round
is reported.  Set-up time is measured from spawning a process until it has
imported the program and built the inputs.  With ``--trace 1`` untraced and
traced rounds alternate (at least one of each); the traced rounds give the
layer metrics and the difference of the two medians the tracing overhead.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5  # rounds that end early are topped up with set-up-only probes
RUN_LIMIT_S = 170.0  # the whole run, probes included, ends within this


class RunError(Exception):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    for var in ("DEVIA_WORKERS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env.pop(var, None)
    return env


def _worker(argv: list[str], deadline: float) -> tuple[float, str]:
    """Start a worker; return (seconds until it printed READY, the rest of
    its standard output).  The worker is killed at the deadline."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunError("out of time before starting a worker")
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *argv],
        stdout=subprocess.PIPE,
        text=True,
        env=_child_env(),
        cwd=ROOT,
    )
    killer = threading.Timer(remaining, proc.kill)
    killer.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if first.strip() != "READY" or code != 0:
        raise RunError(f"worker {' '.join(argv)} failed with exit code {code}")
    return ready, rest


def main() -> int:
    deadline = time.monotonic() + RUN_LIMIT_S
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "devia" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'devia'}; "
              "run from the root of a repository checkout", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("perfbench: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    # byte-compile once so that set-up does not include compiling the source
    compileall.compile_dir(ROOT / "src" / "devia", quiet=1)
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    rounds: dict[int, list[dict]] = {0: [], 1: []}  # worker results, untraced and traced
    setups, durations = [], []
    start = time.perf_counter()
    try:
        while True:
            traced = int(args.trace and len(rounds[1]) < len(rounds[0]))
            trace_file = HERE / "results" / (
                f"trace-{args.workload}-seed{args.seed}-{len(rounds[1])}.json"
            )
            t0 = time.perf_counter()
            ready, out = _worker(
                common + ["--trace", str(traced), "--trace-file", str(trace_file)], deadline
            )
            durations.append(time.perf_counter() - t0)
            setups.append(ready)
            rounds[traced].append(json.loads(out.strip().splitlines()[-1]))
            if args.trace and not rounds[1]:
                continue
            if time.perf_counter() - start + statistics.median(durations) > args.seconds:
                break
        while not args.trace and len(setups) < SETUP_SAMPLES:
            setups.append(_worker(common + ["--probe"], deadline)[0])
    except RunError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1

    def median(key: str, results: list[dict]) -> float:
        return statistics.median(r[key] for r in results)

    if args.trace:
        names = rounds[1][0]["layers"]
        values = {n: statistics.median(r["layers"][n] for r in rounds[1]) for n in names}
        values["trace.overhead_s"] = median("wall_s", rounds[1]) - median("wall_s", rounds[0])
    else:
        values = {
            "wall_s": median("wall_s", rounds[0]),
            "cpu_s": median("cpu_s", rounds[0]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": median("peak_rss_mb", rounds[0]),
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    results = rounds[0] + rounds[1]
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    walls = " ".join(f"{r['wall_s']:.3f}" for r in rounds[0])
    print(f"perfbench: {args.workload} seed {args.seed}: untraced rounds {walls} s; "
          f"{attempted} checks, {failed} failed", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
