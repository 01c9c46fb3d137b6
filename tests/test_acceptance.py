"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; every tolerance is pinned here, next to the run parameters.  The
Monte Carlo criteria (4, 5, 7, 10, 11) take a couple of minutes combined.
"""

import math
import time

import numpy as np

from devia.harness import (
    exactness_tv,
    run_coupling_scaling,
    run_initial_moments,
    run_lln,
    run_rate_roundtrip,
    run_tilt_limit,
)
from devia.harness.lemmas import (
    check_cell_disjointness,
    check_drift_cellsum,
    check_ell_linear_bound,
    check_gaussian_norm,
    check_jump_norm,
    check_lipschitz_cellsum,
    check_moment_bound,
    check_seminorm_monotone,
    check_sobolev_embedding,
)


def _emit(num: int, name: str, ok: bool, value, tolerance: str, runtime: float) -> None:
    line = (
        f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} | {name} | "
        f"value={value} | tolerance: {tolerance} | {runtime:.2f}s"
    )
    print(line)
    assert ok, line


def test_criterion_01_exact_identities():
    t0 = time.perf_counter()
    residual_items = [check_drift_cellsum(), check_jump_norm(), check_moment_bound()]
    disjoint = check_cell_disjointness()
    rt = time.perf_counter() - t0
    ok = all(i.passed for i in residual_items) and disjoint.passed and rt < 1.0
    worst = max(i.value for i in residual_items)
    _emit(
        1, "exact cell/drift/moment identities", ok, worst,
        "residuals <= 1e-12, sampled cells disjoint; runtime < 1 s", rt,
    )


def test_criterion_02_ell_bounds():
    t0 = time.perf_counter()
    item = check_ell_linear_bound(betas=(0.05, 0.1, 0.25, 0.45))
    rt = time.perf_counter() - t0
    ok = item.passed and rt < 1.0
    _emit(2, "thinning-cost linear bound", ok, item.value, "sup ratio <= 4/beta; runtime < 1 s", rt)


def test_criterion_03_lipschitz_bound():
    t0 = time.perf_counter()
    item = check_lipschitz_cellsum(n=500)
    rt = time.perf_counter() - t0
    ok = item.passed and rt < 5.0
    _emit(3, "cell-sum Lipschitz bound (500 triples)", ok, item.value, "tolerance 0; runtime < 5 s", rt)


def test_criterion_04_lln_slope():
    spec = {
        "kind": "lln",
        "model": {"family": "two-state", "rate": 1.0},
        "q0": [0.5, 0.5],
        "T": 1.0,
        "m_grid": [100, 400, 1600, 6400],
        "replicas": 200,
        "seed": 101,
        "p_steps": 1024,
        "criteria": {"slope": -1.0, "slope_tol": 0.2},
    }
    rep = run_lln(spec)
    slope = rep.criteria[0].value
    _emit(4, "jump LLN log-log slope", rep.passed, slope, "-1 +/- 0.2", rep.runtime_seconds)


def test_criterion_05_tilt_limit():
    spec = {
        "kind": "tilt-limit",
        "model": {"family": "two-state", "rate": 1.0},
        "q0": [0.5, 0.5],
        "T": 1.0,
        "theta": 0.25,
        "m_grid": [100, 1000, 10000],
        "replicas": 100,
        "control": {"n_bins": 4, "entries": {"1,2": 0.4, "2,1": -0.2}},
        "seed": 202,
        "p_steps": 2048,
        "criteria": {"se_factor": 2.0, "final_ratio": 0.5},
    }
    rep = run_tilt_limit(spec)
    ok = rep.passed and rep.runtime_seconds < 900.0
    ratio = rep.criteria[1].value
    _emit(
        5, "tilted fluctuations track the skeleton limit", ok, ratio,
        "nonincreasing within 2 SE; final <= 0.5 initial; runtime <= 15 min",
        rep.runtime_seconds,
    )


def test_criterion_06_rate_roundtrips():
    spec = {
        "kind": "rate-roundtrip",
        "target": "both",
        "model": {"family": "birth-death", "K": 5, "a": 0.5, "b": 0.5, "c": 0.5},
        "q0": [0.2, 0.2, 0.2, 0.2, 0.2],
        "T": 1.0,
        "p_steps": 4096,
        "kernels": {"family": "default", "c_alpha": 0.5, "c_beta": 0.5},
        "T_diff": 0.5,
        "nx": 161,
        "domain": [-5.0, 5.0],
        "seed": 606,
        "criteria": {"jump_tol": 1e-6, "equality_tol": 1e-8, "diff_rel_tol": 0.02},
    }
    rep = run_rate_roundtrip(spec)
    ok = rep.passed and rep.runtime_seconds < 120.0
    worst = max(c.value for c in rep.criteria)
    _emit(
        6, "rate-function round trips", ok, worst,
        "jump <= 1e-6 abs, parametrization gap <= 1e-8, diffusion <= 2% halving under refinement; "
        "runtime <= 2 min",
        rep.runtime_seconds,
    )


def test_criterion_07_coupling_scaling():
    spec = {
        "kind": "coupling-scaling",
        "kernels": {"family": "default", "c_alpha": 0.5, "c_beta": 0.5},
        "x0": 0.0,
        "T": 0.5,
        "dt": 1.0 / 512.0,
        "theta": 0.25,
        "m_grid": [128, 256, 512, 1024, 2048, 4096, 8192],
        "M_ref": 32768,
        "replicas": 100,
        "control": {"constant": 1.0},
        "seed": 303,
        "criteria": {"slope_tol": 0.3},
    }
    rep = run_coupling_scaling(spec)
    ok = rep.passed and rep.runtime_seconds < 600.0
    _emit(
        7, "coupling gap log-log slope", ok, rep.criteria[0].value,
        "-(1-2*theta) +/- 0.3 with theta=1/4; runtime <= 10 min", rep.runtime_seconds,
    )


def test_criterion_08_schwartz_calculus():
    t0 = time.perf_counter()
    items = [check_seminorm_monotone(), check_sobolev_embedding(n=1, n_funcs=100), check_gaussian_norm()]
    rt = time.perf_counter() - t0
    ok = all(i.passed for i in items)
    _emit(
        8, "seminorm monotonicity, embedding ratio, Gaussian norm", ok,
        items[2].value, "monotone; ratio bounded over 100 functions; pi^(1/4) within 1e-14", rt,
    )


def test_criterion_09_pde_conservation_and_duality():
    from devia.diff_analysis import solve_fokker_planck, solve_linearized, weak_form_residual
    from devia.diff_sim import simulate_interacting
    from devia.kernels import default_kernels
    from devia.schwartz import HermiteFunction

    t0 = time.perf_counter()
    kp = default_kernels()
    g = lambda x, t: np.sin(x)
    phi = HermiteFunction.from_hermite_coeffs([0.5, 1.0, 0.25])

    rho = solve_fokker_planck(kp, 0.0, 0.5, -5.0, 5.0, 161)
    eta = solve_linearized(kp, rho, g)
    mass_rho = float(np.abs(rho.mass() - 1.0).max())
    mass_eta = float(np.abs(eta.mass()).max())
    conservation_ok = mass_rho <= 1e-8 and mass_eta <= 1e-8

    resid = {}
    for nx in (101, 201):
        r = solve_fokker_planck(kp, 0.0, 0.25, -5.0, 5.0, nx)
        e = solve_linearized(kp, r, g)
        resid[nx] = float(np.abs(weak_form_residual(kp, r, e, g, phi)[1:-1]).max())
    duality_ok = resid[201] < resid[101]

    pair_phi = HermiteFunction.from_poly_coeffs([0.0, 1.0, 1.0])
    coarse = solve_fokker_planck(kp, 0.0, 0.5, -5.0, 5.0, 201).pair(0.5, pair_phi)
    fine = solve_fokker_planck(kp, 0.0, 0.5, -5.0, 5.0, 401).pair(0.5, pair_phi)
    grid_err = abs(fine - coarse) / 3.0
    ref = simulate_interacting(kp, 16384, 0.0, 0.5, 1 / 256, seed=77, record_stride=128)
    mc = ref.hook(0.5).pair(pair_phi)
    samples = pair_phi(ref.positions[-1])
    se = float(samples.std() / math.sqrt(len(samples)))
    pairing_ok = abs(fine - mc) <= 3 * se + 2 * grid_err + 1e-3

    rt = time.perf_counter() - t0
    ok = conservation_ok and duality_ok and pairing_ok
    _emit(
        9, "PDE conservation, weak-form duality, particle agreement", ok,
        max(mass_rho, mass_eta),
        "mass defects <= 1e-8; duality residual decreasing under refinement; "
        "pairing within 3 SE + grid error", rt,
    )


def test_criterion_10_initial_moments():
    spec = {
        "kind": "initial-moments",
        "p0": [0.35, 0.3, 0.2, 0.15],
        "m_grid": [50, 100, 200, 400, 800],
        "replicas": 20000,
        "seed": 404,
        "criteria": {"slope_tol": 0.3},
    }
    rep = run_initial_moments(spec)
    _emit(
        10, "iid initial moments: n=1 identity and n=2 slope", rep.passed,
        rep.criteria[1].value, "identity within 3 SE; slope -2 +/- 0.3", rep.runtime_seconds,
    )


def test_criterion_11_exactness_oracle():
    t0 = time.perf_counter()
    res = exactness_tv(rate=1.0, m=6, T=1.0, replicas=100_000, seed=505)
    rt = time.perf_counter() - t0
    ok = res["tv"] <= 0.02
    _emit(
        11, "two-state chain matches the uniformized birth-death law", ok, res["tv"],
        "total variation <= 0.02 with 1e5 replicas at m = 6", rt,
    )
