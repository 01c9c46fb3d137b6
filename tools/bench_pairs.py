"""Benchmark a parent commit against the working tree in alternating pairs.

    python3 tools/bench_pairs.py --pr N --parent HEAD \\
        --pairs jump-long=7 --pairs jump-wide=2 --layers --claim "..."

Run it from anywhere inside the repository.  The parent commit is unpacked
with ``git archive`` into a scratch directory (``--scratch``, default a new
temporary directory); the change is the working tree.  Each pair runs
``perfbench/run.py --trace 0`` on both trees with one seed and
``BENCHMARK.json``'s ``run_seconds``, back to back;
even-numbered pairs run the parent first, odd-numbered ones the change.
Workloads without a ``--pairs`` entry get two pairs; ``WORKLOAD=0`` skips
one.

``--layers`` adds nine layer timings, each the median over ROUNDS rounds
that alternate the trees: the candidate events per second of
``batch_paths`` at the jump-long shape (m = 10^4, 100 tilted replicas; the
median of KERNEL_CALLS calls per process, with each tree's count of
lockstep iterations, its row-positions evaluated per candidate event and
its ``counter_uniforms`` calls and draws generated beside it), the seconds
of ``solve_p``, ``skeleton_G0``, ``rate_I`` and ``rate_Ibar`` at the
rate-roundtrip shape (birth-death K = 5, 4096 steps, a 4-bin potential
control; the median of 5 calls per process, with the trees' largest output
differences), the wall time of CLI
``jump-sim`` (birth-death K = 5, m = 10^4), the wall time of
``python -c "import devia.harness.cli"``, the import that every CLI command
pays, and at the diffusion shape (m = 128 .. 8192, M_ref = 32768, 256 steps)
the Euler-Maruyama particle-steps per second of one ``run_coupled`` replica
under a shared limit path and the wall time of ``limit_path``.  The result
goes to ``BENCH_<pr>.json`` at the repository root; :func:`problems` is the
file's schema check.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
METRICS = ("wall_s", "cpu_s", "setup_s", "peak_rss_mb")
TOP_KEYS = ("what", "parent_commit", "hardware", "commands", "order", "claim", "workloads")
SIDES = ("parent", "change")

KERNEL_CALLS = 15  # timed kernel calls per process

# the kernel at the jump-long shape, timed over KERNEL_CALLS calls after a
# counting call; prints the candidate events (the work both trees share), the
# lockstep iterations (which differ by design between a one-event kernel and
# a windowed one), the row-positions those iterations evaluated, the Philox
# work (counter_uniforms calls and the draws they generated), the median
# seconds and a hash of the outputs (which the two trees must share)
KERNEL_PROBE = r"""
import hashlib, json, statistics, sys, time
import numpy as np
from devia import jump_sim
from devia.jump_analysis import solve_p
from devia.mf_model import two_state_model
from devia.paths import PathVec

model = two_state_model(1.0)
q0 = np.array([0.5, 0.5])
p = solve_p(model, q0, 1.0, 2048)
control = jump_sim.JumpControl.constant(2, 1.0, {(1, 2): 0.4, (2, 1): -0.2}, n_bins=4)
# p stays at (1/2, 1/2), so the skeleton is eta = (-h, h) with
# h' = -2 h + (0.4 + 0.2) / 2: exact, and the same bytes whatever solver a tree has
h = 0.15 * (1.0 - np.exp(-2.0 * p.grid))
eta_values = np.stack([-h, h], axis=1)
m = 10_000
a = m ** -0.25
ref = PathVec(p.grid, p.values + eta_values / (a * np.sqrt(m)))

def run():
    return jump_sim.batch_paths(
        model, m, q0, 1.0, 3, np.arange(100), control=control, a_m=a, p_path=p, ref=ref
    )

# an iteration is one fetch of draws; a one-event kernel advances each row
# by whether its candidate event fired, a windowed one by the draws each row
# used: width per candidate event, and 1 for a stop at a bin edge or T
cls = jump_sim._ReplicaRandoms
fetch, advance = cls.fetch, cls.advance
count = {"iterations": 0, "events": 0, "positions": 0, "philox_calls": 0, "draws": 0}

def counted_fetch(self):
    u = fetch(self)
    count["iterations"] += 1
    count["positions"] += u.size // self.width
    return u

def counted_advance(self, moved):
    fired = moved if moved.dtype == bool else moved // self.width
    count["events"] += int(fired.sum())
    return advance(self, moved)

def counted_uniforms(seed, replicas, start, n):
    count["philox_calls"] += 1
    count["draws"] += len(replicas) * n
    return uniforms(seed, replicas, start, n)

uniforms = jump_sim.counter_uniforms
cls.fetch, cls.advance = counted_fetch, counted_advance
jump_sim.counter_uniforms = counted_uniforms
sup, finals = run()
cls.fetch, cls.advance = fetch, advance
jump_sim.counter_uniforms = uniforms
seconds = []
for _ in range(int(sys.argv[2])):
    t0 = time.perf_counter()
    run()
    seconds.append(time.perf_counter() - t0)
digest = hashlib.sha256(sup.tobytes() + finals.tobytes()).hexdigest()[:16]
print(json.dumps({**count, "seconds": statistics.median(seconds), "hash": digest}))
"""

# the jump analysis at the rate-roundtrip shape: solve_p, skeleton_G0, rate_I
# and rate_Ibar each timed over 5 calls after an untimed one; saves p and eta
# to the path in argv[1] and prints the median seconds and both rate values
ANALYSIS_PROBE = r"""
import json, statistics, sys, time
import numpy as np
from devia.jump_analysis import rate_I, rate_Ibar, skeleton_G0, solve_p
from devia.jump_sim import JumpControl
from devia.mf_model import birth_death_model

model = birth_death_model(5, 0.5, 0.5, 0.5)
p0 = np.full(5, 0.2)
p = solve_p(model, p0, 1.0, 4096)
v = np.random.default_rng(606).normal(size=(4, 5)) * 0.4
psi = JumpControl(np.linspace(0.0, 1.0, 5), v[:, None, :] - v[:, :, None])
eta = skeleton_G0(model, p, psi)
np.save(sys.argv[1], np.stack([p.values, eta.values]))
calls = {"solve_p": lambda: solve_p(model, p0, 1.0, 4096),
         "skeleton_G0": lambda: skeleton_G0(model, p, psi),
         "rate_I": lambda: rate_I(model, p, eta), "rate_Ibar": lambda: rate_Ibar(model, p, eta)}
out = {}
for name, call in calls.items():
    call()
    seconds = []
    for _ in range(5):
        t0 = time.perf_counter()
        call()
        seconds.append(time.perf_counter() - t0)
    out[name] = statistics.median(seconds)
out["values"] = {"rate_I": rate_I(model, p, eta).value, "rate_Ibar": rate_Ibar(model, p, eta).value}
print(json.dumps(out))
"""

# the diffusion workload's coupling, timed by layer: one limit_path run, then
# three run_coupled replicas under it after one untimed replica; prints the
# particle-steps of a replica, the median replica and limit seconds and the
# last replica's gaps
EM_PROBE = r"""
import json, statistics, time
from devia.diff_sim import limit_path, run_coupled
from devia.kernels import default_kernels

kp = default_kernels()
ms = [128, 256, 512, 1024, 2048, 4096, 8192]
M_ref, T, dt = 32768, 0.5, 1 / 512
t0 = time.perf_counter()
limit = limit_path(kp, M_ref, 0.0, T, dt, 1)
limit_s = time.perf_counter() - t0
run = lambda r: run_coupled(kp, ms, M_ref, 0.0, T, dt, 0.25, lambda s, x: 1.0, 1, r, limit=limit)
run(0)
seconds = []
for r in (1, 2, 3):
    t0 = time.perf_counter()
    gaps = run(r)
    seconds.append(time.perf_counter() - t0)
print(json.dumps({"particle_steps": round(T / dt) * (sum(ms) + max(ms)),
                  "seconds": statistics.median(seconds), "limit_s": limit_s,
                  "gaps": [gaps[m] for m in ms]}))
"""

BIRTH_DEATH_K5 = {"family": "birth-death", "K": 5, "a": 0.5, "b": 0.5, "c": 0.5}
CLI_ARGS = ["jump-sim", "--m", "10000", "--T", "1.0", "--seed", "3"]
CLI_IMPORT = "import devia.harness.cli"
ROUNDS = 5  # alternating rounds of the layer probes, one run of each timing per side
# the analysis timings and the trees' largest output difference each records
DIFFERENCES = {"solve_p_s": "p_max_abs_diff", "skeleton_G0_s": "eta_max_abs_diff",
               "rate_I_s": "value_max_rel_diff", "rate_Ibar_s": "value_max_rel_diff"}
# every layer timing, kept as the median of its runs
# (files before the windowed kernel timed batch_paths in iterations per second)
MEDIAN_OF = ("batch_paths_events_per_s", "batch_paths_iterations_per_s",
             "em_particle_steps_per_s", *DIFFERENCES, "cli_jump_sim_s", "cli_import_s",
             "limit_path_s")


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def unpack(rev: str, dest: Path) -> str:
    """Extract commit ``rev`` into ``dest``; returns its full hash."""
    commit = git("rev-parse", rev).decode().strip()
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(git("archive", commit))) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)
    return commit


def bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=tree, check=True, capture_output=True, text=True).stdout
    doc = json.loads(out.strip().splitlines()[-1])
    return {"correct": doc["correct"], **{k: doc["metrics"][k]["value"] for k in METRICS}}


def summary(runs: list[float]) -> dict:
    quartiles = statistics.quantiles(runs, n=4) if len(runs) > 1 else None
    return {
        "median": round(statistics.median(runs), 4),
        "runs": [round(r, 4) for r in runs],
        "quartiles": None if quartiles is None else [round(q, 4) for q in quartiles],
    }


def compare(seeds: list[int], results: dict) -> dict:
    """The workload block of the BENCH file from each side's per-seed results."""
    block = {"seeds": seeds, "pairs": len(seeds)}
    for side in SIDES:
        block[side] = {"correct": all(r["correct"] for r in results[side])}
        for k in METRICS:
            block[side][k] = summary([r[k] for r in results[side]])
    block["pairs_change_lower"] = {
        k: sum(c[k] < p[k] for p, c in zip(results["parent"], results["change"]))
        for k in METRICS
    }
    block["change_over_parent_median"] = {
        k: round(block["change"][k]["median"] / block["parent"][k]["median"] - 1.0, 4)
        for k in METRICS
    }
    return block


def timed(cmd: list[str], env: dict, cwd: Path) -> float:
    t0 = time.perf_counter()
    subprocess.run(cmd, env=env, cwd=cwd, check=True, capture_output=True)
    return time.perf_counter() - t0


def layers(trees: dict, scratch: Path) -> dict:
    model = scratch / "birth-death-k5.json"
    model.write_text(json.dumps(BIRTH_DEATH_K5))
    kernel = {s: [] for s in SIDES}
    em = {s: [] for s in SIDES}
    cli = {s: [] for s in SIDES}
    imports = {s: [] for s in SIDES}
    analysis = {s: [] for s in SIDES}
    for i in range(ROUNDS):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            tree = trees[side]
            env = dict(os.environ, PYTHONPATH=str(tree / "src"))
            env.pop("DEVIA_WORKERS", None)
            paths_file = scratch / f"paths-{side}.npy"
            for probe, runs in ((KERNEL_PROBE, kernel), (EM_PROBE, em),
                                (ANALYSIS_PROBE, analysis)):
                out = subprocess.run([sys.executable, "-c", probe, str(paths_file),
                                      str(KERNEL_CALLS)], env=env, cwd=tree, check=True,
                                     capture_output=True, text=True).stdout
                runs[side].append(json.loads(out.strip().splitlines()[-1]))
            cmd = [sys.executable, "-m", "devia.harness.cli", *CLI_ARGS,
                   "--model", str(model), "--out", str(scratch / f"jump-sim-{side}.csv")]
            cli[side].append(timed(cmd, env, tree))
            imports[side].append(timed([sys.executable, "-c", CLI_IMPORT], env, tree))
    hashes = {r["hash"] for s in SIDES for r in kernel[s]}
    events = {r["events"] for s in SIDES for r in kernel[s]}
    if len(hashes) != 1 or len(events) != 1:
        raise SystemExit(f"bench_pairs: the trees' kernels differ: {hashes}, {events}")
    (n,) = events
    (steps,) = {r["particle_steps"] for s in SIDES for r in em[s]}
    gaps = {s: np.array(em[s][-1]["gaps"]) for s in SIDES}
    gap_rel = float(np.max(np.abs(gaps["change"] / gaps["parent"] - 1.0)))
    same_csv = (scratch / "jump-sim-parent.csv").read_bytes() == (
        scratch / "jump-sim-change.csv").read_bytes()
    paths = {s: np.load(scratch / f"paths-{s}.npy") for s in SIDES}
    path_diff = np.abs(paths["change"] - paths["parent"]).max(axis=(1, 2))
    values = {s: analysis[s][-1]["values"] for s in SIDES}
    differences = {
        "solve_p_s": float(path_diff[0]),
        "skeleton_G0_s": float(path_diff[1]),
        **{f"{name}_s": abs(values["change"][name] / values["parent"][name] - 1.0)
           for name in ("rate_I", "rate_Ibar")},
    }
    analysis_shape = ("rate-roundtrip: birth-death K = 5, a = b = c = 1/2, p0 uniform, "
                      "4096 steps on [0, 1], 4-bin potential control (seed 606); "
                      "median of 5 calls per process after an untimed call")
    timings = {
        key: {
            "shape": analysis_shape,
            diff: differences[key],
            **{s: summary([r[key.removesuffix("_s")] for r in analysis[s]]) for s in SIDES},
        }
        for key, diff in DIFFERENCES.items()
    }
    return {
        **timings,
        "batch_paths_events_per_s": {
            "shape": "jump-long at m = 10^4: two-state, 4-bin control, skeleton ref, "
                     f"100 replicas, seed 3; median of {KERNEL_CALLS} calls per process "
                     "after a counting call",
            "candidate_events": n,
            "iterations": {s: kernel[s][0]["iterations"] for s in SIDES},
            # useful work over attempted: a window wastes the positions past
            # its first wrong guess
            "evaluated_per_event": {s: round(kernel[s][0]["positions"] / n, 4) for s in SIDES},
            "philox_calls": {s: kernel[s][0]["philox_calls"] for s in SIDES},
            "draws_generated": {s: kernel[s][0]["draws"] for s in SIDES},
            "outputs_hash": hashes.pop(),
            **{s: summary([n / r["seconds"] for r in kernel[s]]) for s in SIDES},
        },
        "cli_jump_sim_s": {
            "command": "python -m devia.harness.cli " + " ".join(CLI_ARGS)
                       + " --model <birth-death K = 5, a = b = c = 1/2>",
            "same_output": same_csv,
            **{s: summary(cli[s]) for s in SIDES},
        },
        "cli_import_s": {
            "command": f'python -c "{CLI_IMPORT}"',
            **{s: summary(imports[s]) for s in SIDES},
        },
        "em_particle_steps_per_s": {
            "shape": "diffusion workload: default kernels, m = 128 .. 8192 and 8192 reference "
                     "particles, 256 steps of 1/512, seed 1; median of replicas 1-3 under one "
                     "shared limit path, after an untimed replica",
            "particle_steps": steps,
            "gaps_max_rel_diff": gap_rel,
            **{s: summary([steps / r["seconds"] for r in em[s]]) for s in SIDES},
        },
        "limit_path_s": {
            "shape": "limit_path at M_ref = 32768, 256 steps of 1/512, seed 1; one call per "
                     "process",
            **{s: summary([r["limit_s"] for r in em[s]]) for s in SIDES},
        },
    }


def problems(doc: dict) -> list[str]:
    """What is wrong with a BENCH file's structure; empty when it is sound."""
    bad = [f"missing key {k!r}" for k in TOP_KEYS if k not in doc]
    if not isinstance(doc.get("commands"), dict) or set(doc["commands"]) != set(SIDES):
        bad.append("commands must name the parent and change commands")
    for name, w in (doc.get("workloads") or {}).items():
        n = w.get("pairs")
        if n != len(w.get("seeds", ())) or not n:
            bad.append(f"{name}: pairs must equal the number of seeds")
            continue
        for side in SIDES:
            if not isinstance(w.get(side, {}).get("correct"), bool):
                bad.append(f"{name}.{side}: correct must be true or false")
            for k in METRICS:
                s = w.get(side, {}).get(k)
                if not isinstance(s, dict) or len(s.get("runs", ())) != n:
                    bad.append(f"{name}.{side}.{k}: needs one run per pair")
                    continue
                if abs(s["median"] - statistics.median(s["runs"])) > 1e-3:
                    bad.append(f"{name}.{side}.{k}: median is not the runs' median")
                if (s["quartiles"] is None) != (n == 1) or (
                    s["quartiles"] is not None and len(s["quartiles"]) != 3
                ):
                    bad.append(f"{name}.{side}.{k}: quartiles must be 3 values (None for 1 run)")
        for k in METRICS:
            lower = w.get("pairs_change_lower", {}).get(k)
            if not isinstance(lower, int) or not 0 <= lower <= n:
                bad.append(f"{name}.pairs_change_lower.{k}: must count pairs")
            ratio = w.get("change_over_parent_median", {}).get(k)
            try:
                want = w["change"][k]["median"] / w["parent"][k]["median"] - 1.0
                if abs(ratio - want) > 1e-3:
                    bad.append(f"{name}.change_over_parent_median.{k}: {ratio} != {want:.4f}")
            except (KeyError, TypeError, ZeroDivisionError):
                bad.append(f"{name}.change_over_parent_median.{k}: cannot be checked")
    if not doc.get("workloads"):
        bad.append("no workloads")
    timings = doc.get("layers") or {}
    for key in MEDIAN_OF:
        if key not in timings:
            continue  # written before this timing existed
        for side in SIDES:
            s = timings[key].get(side)
            if not isinstance(s, dict) or not s.get("runs"):
                bad.append(f"layers.{key}.{side}: needs its runs")
            elif "best" in s:
                # older files kept the CLI and limit_path timings as the best of 3
                if abs(s["best"] - min(s["runs"])) > 1e-3:
                    bad.append(f"layers.{key}.{side}: best is not the runs' minimum")
            elif abs(s.get("median", math.inf) - statistics.median(s["runs"])) > 1e-3:
                bad.append(f"layers.{key}.{side}: median is not the runs' median")
    for key, diff in DIFFERENCES.items():
        if key in timings and not (
            isinstance(timings[key].get(diff), float) and 0.0 <= timings[key][diff] < math.inf
        ):
            bad.append(f"layers.{key}.{diff}: must be a finite difference >= 0")
    return bad


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pr", type=int, required=True, help="writes BENCH_<pr>.json")
    ap.add_argument("--parent", default="HEAD", help="the parent commit (default HEAD)")
    ap.add_argument("--pairs", action="append", default=[], metavar="WORKLOAD=N")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--scratch", type=Path, default=None)
    ap.add_argument("--layers", action="store_true")
    ap.add_argument("--claim", default="")
    ap.add_argument("--hardware-note", default="")
    args = ap.parse_args()

    counts = {w["name"]: 2 for w in spec["workloads"]}
    for item in args.pairs:
        name, _, n = item.partition("=")
        if name not in counts or not n.isdigit():
            ap.error(f"--pairs {item!r}: expected WORKLOAD=N with a workload of BENCHMARK.json")
        counts[name] = int(n)
    scratch = args.scratch or Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    trees = {"parent": scratch / "parent", "change": ROOT}
    commit = unpack(args.parent, trees["parent"])

    workloads = {}
    for name, n in counts.items():
        if not n:
            continue
        seeds = list(range(args.first_seed, args.first_seed + n))
        results = {s: [] for s in SIDES}
        for i, seed in enumerate(seeds):
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                results[side].append(bench(trees[side], name, seed, spec["run_seconds"]))
                print(f"bench_pairs: {name} seed {seed} {side}: "
                      f"{results[side][-1]['wall_s']:.3f} s", file=sys.stderr)
        workloads[name] = compare(seeds, results)

    hardware = (f"{os.cpu_count()}-core {platform.machine()} {platform.system()}; "
                f"numpy {np.__version__}, Python {platform.python_version()}")
    run_cmd = f"python3 perfbench/run.py --workload <workload> --seed <seed> " \
              f"--seconds {spec['run_seconds']:g} --trace 0"
    doc = {
        "what": "end-to-end metrics of perfbench/run.py, parent commit against this change, "
                "in alternating parent/change pairs",
        "parent_commit": commit,
        "hardware": f"{hardware}; {args.hardware_note}" if args.hardware_note else hardware,
        "commands": {
            "parent": f"{run_cmd}  # run from a checkout of the parent commit (git archive)",
            "change": f"{run_cmd}  # run from the repository root",
        },
        "order": "each pair runs both trees on one seed, back to back; even-numbered pairs "
                 "(from 0) run the parent first, odd-numbered pairs the change",
        "claim": args.claim,
        "workloads": workloads,
    }
    if args.layers:
        doc["layers"] = layers(trees, scratch)
    bad = problems(doc)
    if bad:
        print("bench_pairs: " + "; ".join(bad), file=sys.stderr)
        return 1
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"bench_pairs: wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
