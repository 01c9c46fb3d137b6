"""Steadiness check: two separate sets of runs of the same code.

    python3 perfbench/steady.py

Runs set A (seeds 1..10), then set B (seeds 1001..1010), each run a fresh
``run.py --trace 0`` with the run length from BENCHMARK.json; within a set
every workload of BENCHMARK.json takes its turn.  For every end-to-end metric
and workload it prints each set's median and spread (distance between the
first and third quartiles over the median), and the gap between the two
medians next to the metric's bound.  A pair holds when both spreads and the
gap, in either direction, are within the bound; the check fails if any pair
does not hold or any run has a failed operation.  Every raw result is kept in
``perfbench/results/steady-<UTC time>.json`` as it comes in.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SET_SEEDS = {"A": 1, "B": 1001}
RUNS = 10  # runs per workload and set


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    if len(sys.argv) > 1:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    out_path = HERE / "results" / time.strftime("steady-%Y%m%dT%H%M%SZ.json", time.gmtime())
    out_path.parent.mkdir(parents=True, exist_ok=True)
    log = {"run_seconds": spec["run_seconds"], "runs": []}
    for label, first_seed in SET_SEEDS.items():
        for seed in range(first_seed, first_seed + RUNS):
            for w in workloads:
                started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
                res = one_run(w, seed, spec["run_seconds"])
                log["runs"].append({"set": label, "workload": w, "seed": seed,
                                    "started": started, "result": res})
                out_path.write_text(json.dumps(log, indent=1) + "\n")
                vals = " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items())
                print(f"{label} {w} seed={seed} {started} {vals}", file=sys.stderr, flush=True)

    ok = True
    print(f"{'workload':15} {'metric':12} {'median A':>10} {'spread A':>9} {'median B':>10} "
          f"{'spread B':>9} {'gap B/A-1':>10} {'bound':>6}  verdict")
    for w in workloads:
        runs = {s: [r["result"] for r in log["runs"] if r["workload"] == w and r["set"] == s]
                for s in SET_SEEDS}
        failed = {s: sum(r["failed"] for r in rs) for s, rs in runs.items()}
        if any(failed.values()):
            ok = False
            print(f"{w}: failed operations per set: {failed}")
        for m in spec["end_to_end"]:
            vals = {s: [r["metrics"][m["name"]]["value"] for r in rs] for s, rs in runs.items()}
            med = {s: statistics.median(v) for s, v in vals.items()}
            spr = {s: spread(v) for s, v in vals.items()}
            gap = med["B"] / med["A"] - 1.0
            good = abs(gap) <= m["bound"] and max(spr.values()) <= m["bound"]
            ok &= good
            print(f"{w:15} {m['name']:12} {med['A']:10.4g} {spr['A']:9.3f} {med['B']:10.4g} "
                  f"{spr['B']:9.3f} {gap:+10.3f} {m['bound']:6.2f}  {'ok' if good else 'NOT STEADY'}")
    print(f"raw results: {out_path.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
