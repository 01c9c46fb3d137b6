"""Command-line interface.

Subcommands:

- ``devia run SPEC``: run an experiment spec, write the JSON report.
- ``devia lemma-suite``: run the bound-check battery.
- ``devia jump-sim``: simulate the jump system (optionally tilted) to CSV.
- ``devia jump-rate``: evaluate the jump rate function of a CSV path.
- ``devia diff-sim``: simulate the interacting diffusion, summary CSV.
- ``devia diff-rate``: evaluate the diffusion rate function of a grid CSV.

Exit status is 1 iff a declared criterion fails, and 2 when an input is
invalid or a simulation leaves the finite range.  Outputs are byte-identical
for identical (config, seed) regardless of the worker count.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from ..diff_analysis import rate_diffusion, solve_fokker_planck
from ..diff_sim import simulate_interacting
from ..jump_analysis import rate_I, rate_Ibar, solve_p
from ..jump_sim import simulate_jump, simulate_tilted
from ..paths import PathVec, is_uniform
from ..schwartz import HermiteFunction
from .config import (
    config_numbers,
    config_scalar,
    control_from_config,
    kernels_from_config,
    known_keys,
    load_config,
    model_from_config,
)
from .experiments import run_experiment
from .io import _write_table, read_grid_field, read_path_vec, write_jump_path
from .report import _strict_json, config_hash

__all__ = ["main"]


def _finish(report, out) -> int:
    """Save the report if asked, print its summary; exit 1 iff a criterion failed."""
    if out:
        report.save(out)
    for line in report.summary_lines():
        print(line)
    print(f"runtime: {report.runtime_seconds:.2f}s", file=sys.stderr)
    return 0 if report.passed else 1


def _write_json(out, doc: dict) -> None:
    """Write a report as strict JSON: a nan or inf in it is a ValueError,
    raised before the file is opened."""
    Path(out).write_text(_strict_json(doc))


def _block(cfg: dict, key: str, *own: str) -> dict:
    """The ``key`` block of a CLI config file, or the file itself when it is
    flat; a nested file holds no key but ``key`` and the CLI's ``own`` keys."""
    if key not in cfg:
        return cfg
    known_keys(cfg, f"{key} file", (key, *own))
    return cfg[key]


def _cmd_run(args) -> int:
    return _finish(run_experiment(load_config(args.spec)), args.out)


def _cmd_lemma_suite(args) -> int:
    from .lemmas import run_lemma_suite

    return _finish(run_lemma_suite(), args.out)


def _cmd_jump_sim(args) -> int:
    cfg = load_config(args.model)
    model = model_from_config(_block(cfg, "model", "q0", "p0"))
    q0 = np.array(config_numbers(cfg, "q0", [1.0 / model.K] * model.K))
    if args.control:
        control_cfg = load_config(args.control)
        control = control_from_config(control_cfg, model.K, args.T)
        theta = config_scalar(control_cfg, "theta", args.theta)
        a_m = args.m ** (-theta)
        p = solve_p(model, q0, args.T, args.p_steps)
        path, cost = simulate_tilted(model, args.m, q0, args.T, control, a_m, p, args.seed)
        write_jump_path(path, args.out)
        _write_json(
            Path(args.out).with_suffix(".cost.json"),
            {
                "cost": cost,
                "m": args.m,
                "theta": theta,
                "seed": args.seed,
                "config_hash": config_hash(control_cfg),
            },
        )
    else:
        path = simulate_jump(model, args.m, q0, args.T, args.seed)
        write_jump_path(path, args.out)
    print(f"wrote {args.out} ({path.n_events} events)")
    return 0


def _uniform_resample(path: PathVec) -> PathVec:
    if is_uniform(path.grid):
        return path
    grid = np.linspace(path.grid[0], path.grid[-1], len(path.grid))
    return PathVec(grid, path(grid))


def _cmd_jump_rate(args) -> int:
    cfg = load_config(args.model)
    model = model_from_config(_block(cfg, "model", "q0", "p0"))
    raw = read_path_vec(args.eta)
    eta = _uniform_resample(raw)
    p0 = np.array(config_numbers(cfg, "p0" if "p0" in cfg else "q0", [1.0 / model.K] * model.K))
    p = solve_p(model, p0, eta.T, max(len(eta.grid) - 1, 256))
    res_bar = rate_Ibar(model, p, eta)
    res = rate_I(model, p, eta)
    out = {
        "value": None if math.isinf(res.value) else res.value,
        "value_field_form": None if math.isinf(res_bar.value) else res_bar.value,
        "feasible": res.feasible,
        "message": res.message,
        "residual_ratio": [float(v) for v in res.residual_ratio],
        "refine_check": res.detail["refine_check"],
        "grid_points": len(eta.grid),
        "resampled": eta is not raw,
        "config_hash": config_hash(cfg),
    }
    _write_json(args.out, out)
    print(f"rate value: {res.value} (feasible: {res.feasible})")
    return 0


def _cmd_diff_sim(args) -> int:
    cfg = load_config(args.kernels)
    kernels = kernels_from_config(_block(cfg, "kernels", "x0", "test_functions"))
    coeffs = config_numbers(cfg, "test_functions", [[1.0]], depth=2)
    for k, c in enumerate(coeffs):
        if not c:
            raise ValueError(
                f"'test_functions' entry {k} must hold at least one Hermite coefficient; got []"
            )
    phis = [HermiteFunction.from_hermite_coeffs(c) for c in coeffs]
    dt = args.T / 2048 if args.dt is None else args.dt
    path = simulate_interacting(
        kernels, args.m, args.x0, args.T, dt, args.seed, record_stride=args.stride
    )
    header = ",".join(["time", "mean", "var", *(f"pairing_{k}" for k in range(len(phis)))])
    rest = [[x.mean(), x.var(), *(np.mean(phi(x)) for phi in phis)] for x in path.positions]
    out = Path(f"{args.out}_summary.csv")
    _write_table(out, header, path.times, rest)
    print(f"wrote {out}")
    return 0


def _cmd_diff_rate(args) -> int:
    cfg = load_config(args.kernels)
    kernels = kernels_from_config(_block(cfg, "kernels", "x0", "test_functions"))
    eta = read_grid_field(args.eta)
    rho = solve_fokker_planck(
        kernels,
        config_scalar(cfg, "x0", args.x0),
        float(eta.ts[-1]),
        float(eta.xs[0]),
        float(eta.xs[-1]),
        len(eta.xs),
        dt=eta.dt,
    )
    res = rate_diffusion(kernels, rho, eta)
    out = {
        "value": None if math.isinf(res.value) else res.value,
        "feasible": res.feasible,
        "message": res.message,
        "boundary_leak_ratio": [float(v) for v in res.residual_ratio],
        "config_hash": config_hash(cfg),
    }
    _write_json(args.out, out)
    print(f"rate value: {res.value} (feasible: {res.feasible})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="devia", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run an experiment spec")
    p.add_argument("spec")
    p.add_argument("--out", default=None, help="report JSON path")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("lemma-suite", help="run the bound-check battery")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_lemma_suite)

    p = sub.add_parser("jump-sim", help="simulate the jump system")
    p.add_argument("--model", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--control", default=None, help="control config for a tilted run")
    p.add_argument("--theta", type=float, default=0.25)
    p.add_argument("--p-steps", type=int, default=1024, dest="p_steps")
    p.set_defaults(fn=_cmd_jump_sim)

    p = sub.add_parser("jump-rate", help="rate function of a jump fluctuation path")
    p.add_argument("--model", required=True)
    p.add_argument("--eta", required=True, help="path CSV (jump-sim schema)")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_jump_rate)

    p = sub.add_parser("diff-sim", help="simulate the interacting diffusion")
    p.add_argument("--kernels", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--dt", type=float, default=None, help="step size (default T/2048)")
    p.add_argument("--x0", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--stride", type=int, default=1)
    p.add_argument("--out", required=True, help="output prefix")
    p.set_defaults(fn=_cmd_diff_sim)

    p = sub.add_parser("diff-rate", help="rate function of a diffusion fluctuation field")
    p.add_argument("--kernels", required=True)
    p.add_argument("--eta", required=True, help="grid CSV")
    p.add_argument("--x0", type=float, default=0.0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_diff_rate)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, RuntimeError, FileNotFoundError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # numpy names the allocation it refused
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
