"""Monte Carlo experiment runners.

Each runner takes a spec mapping (see the README for the documented keys),
fans replicas out across workers (``DEVIA_WORKERS`` environment variable,
default serial), and assembles an :class:`ExperimentReport` whose pass/fail
entries carry the declared tolerances.  Replica randomness is keyed by
(seed, replica id), so results do not depend on the worker layout.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
from scipy.linalg import expm

from ..diff_analysis import (
    control_cost_on_grid,
    rate_diffusion,
    solve_fokker_planck,
    solve_linearized,
)
from ..diff_sim import run_coupled
from ..jump_analysis import psi_l2sq, rate_I, rate_Ibar, skeleton_G0, solve_p
from ..jump_sim import JumpControl, batch_paths
from ..mf_model import model_from_config
from ..paths import PathVec
from ..rng import stream
from .config import resolve_kernels, resolve_model
from .report import (
    CriterionResult,
    ExperimentReport,
    fit_loglog_slope,
    sample_stats,
    slope_criterion,
)

__all__ = [
    "run_experiment",
    "run_lln",
    "run_clt_scaling",
    "run_tilt_limit",
    "run_coupling_scaling",
    "run_initial_moments",
    "run_rate_roundtrip",
    "exactness_tv",
]


def n_workers() -> int:
    raw = os.environ.get("DEVIA_WORKERS", "1")
    if not raw.isdecimal() or int(raw) < 1:
        raise ValueError(f"DEVIA_WORKERS must be a positive integer; got {raw!r}")
    return int(raw)


def _chunks(n: int, pieces: int) -> list[tuple[int, int]]:
    bounds = np.unique(np.linspace(0, n, pieces + 1).astype(int))
    return [(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]


def _fan_out(worker, arg_sets: list[tuple], n_replicas: int) -> list[np.ndarray]:
    """Run worker(*args, lo, hi) over replica ranges for every args tuple;
    one result per tuple, in order.  All chunks share one process pool."""
    w = n_workers()
    if w <= 1:
        return [np.asarray(worker(*args, 0, n_replicas)) for args in arg_sets]
    parts = _chunks(n_replicas, 4 * w)
    with ProcessPoolExecutor(max_workers=w) as ex:
        futs = [[ex.submit(worker, *args, lo, hi) for lo, hi in parts] for args in arg_sets]
        return [np.concatenate([f.result() for f in fs]) for fs in futs]


def _timed(fn):
    def wrapper(spec: dict) -> ExperimentReport:
        t0 = time.perf_counter()
        report = fn(spec)
        report.runtime_seconds = time.perf_counter() - t0
        return report

    return wrapper


def _min_replicas(spec: dict, floor: int = 30) -> int:
    replicas = int(spec.get("replicas", 0))
    if replicas < floor:
        raise ValueError(
            f"slope fits need at least {floor} replicas for a usable bootstrap; got {replicas}"
        )
    if "m_grid" in spec:
        grid = [int(m) for m in spec["m_grid"]]
        if any(b <= a for a, b in zip(grid[:-1], grid[1:])):
            raise ValueError("m_grid must be strictly increasing")
    return replicas


# ---------------------------------------------------------------------------
# jump LLN


def _lln_chunk(model_cfg, m, q0, T, p_steps, seed, lo, hi):
    model = model_from_config(model_cfg)
    q0 = np.asarray(q0, dtype=float)
    p = solve_p(model, q0, T, p_steps)
    sup, _ = batch_paths(model, m, q0, T, seed, np.arange(lo, hi), ref=p)
    return sup**2


@_timed
def run_lln(spec: dict) -> ExperimentReport:
    """Mean squared sup-deviation of the empirical measure from its limit,
    fitted against 1/m on a log-log scale."""
    model_cfg = spec["model"]
    q0 = list(spec["q0"])
    T = float(spec.get("T", 1.0))
    seed = int(spec.get("seed", 0))
    replicas = _min_replicas(spec)
    m_grid = [int(m) for m in spec["m_grid"]]
    p_steps = int(spec.get("p_steps", 1024))
    want = float(spec.get("criteria", {}).get("slope", -1.0))
    tol = float(spec.get("criteria", {}).get("slope_tol", 0.2))

    arg_sets = [(model_cfg, m, q0, T, p_steps, seed + k) for k, m in enumerate(m_grid)]
    samples = dict(zip(m_grid, _fan_out(_lln_chunk, arg_sets, replicas)))
    fit = fit_loglog_slope(np.array(m_grid), samples, seed)
    stats = {str(m): sample_stats(samples[m]).to_dict() for m in m_grid}
    crit = slope_criterion("LLN log-log slope", fit, want, tol, f"slope = {want} +/- {tol}")
    return ExperimentReport(
        kind="lln",
        config=spec,
        seed=seed,
        stats=stats,
        criteria=[crit],
        work={"replicas": replicas, "m_grid": m_grid},
    )


# ---------------------------------------------------------------------------
# tilt limit


def _control_from_spec(block: dict, K: int, T: float) -> JumpControl:
    n_bins = int(block.get("n_bins", 1))
    entries = {}
    for key, val in block.get("entries", {}).items():
        i, j = (int(v) for v in str(key).split(","))
        entries[(i, j)] = float(val)
    return JumpControl.constant(K, T, entries, n_bins=n_bins)


def _tilt_chunk(model_cfg, m, q0, T, theta, control_cfg, p_steps, seed, lo, hi):
    model = model_from_config(model_cfg)
    q0 = np.asarray(q0, dtype=float)
    p = solve_p(model, q0, T, p_steps)
    control = _control_from_spec(control_cfg, model.K, T)
    eta = skeleton_G0(model, p, control)
    a_m = m ** (-theta)
    scale = a_m * math.sqrt(m)
    ref = PathVec(p.grid, p.values + eta.values / scale)
    sup, _ = batch_paths(
        model, m, q0, T, seed, np.arange(lo, hi), control=control, a_m=a_m, p_path=p, ref=ref
    )
    return scale * sup


@_timed
def run_tilt_limit(spec: dict) -> ExperimentReport:
    """Controlled fluctuations against the skeleton limit: the mean sup
    distance must be nonincreasing in m (within two standard errors) and at
    least halve from the smallest to the largest system."""
    model_cfg = spec["model"]
    q0 = list(spec["q0"])
    T = float(spec.get("T", 1.0))
    theta = float(spec.get("theta", 0.25))
    seed = int(spec.get("seed", 0))
    replicas = _min_replicas(spec)
    m_grid = [int(m) for m in spec["m_grid"]]
    p_steps = int(spec.get("p_steps", 2048))
    control_cfg = spec["control"]
    se_factor = float(spec.get("criteria", {}).get("se_factor", 2.0))
    final_ratio = float(spec.get("criteria", {}).get("final_ratio", 0.5))

    stats = {}
    means, ses = [], []
    arg_sets = [
        (model_cfg, m, q0, T, theta, control_cfg, p_steps, seed + k) for k, m in enumerate(m_grid)
    ]
    for m, vals in zip(m_grid, _fan_out(_tilt_chunk, arg_sets, replicas)):
        st = sample_stats(vals)
        stats[str(m)] = st.to_dict()
        means.append(st.mean)
        ses.append(st.stderr)
    monotone = all(
        means[k + 1] <= means[k] + se_factor * math.hypot(ses[k], ses[k + 1])
        for k in range(len(means) - 1)
    )
    ratio = means[-1] / means[0]
    criteria = [
        CriterionResult(
            "mean sup distance nonincreasing",
            float(max(means[k + 1] - means[k] for k in range(len(means) - 1))),
            f"each increment <= {se_factor} combined SE",
            monotone,
        ),
        CriterionResult(
            "mean sup distance final/initial",
            ratio,
            f"ratio <= {final_ratio}",
            ratio <= final_ratio,
        ),
    ]
    return ExperimentReport(
        kind="tilt-limit",
        config=spec,
        seed=seed,
        stats=stats,
        criteria=criteria,
        work={"replicas": replicas, "m_grid": m_grid},
    )


# ---------------------------------------------------------------------------
# CLT-scale pairing variance


def _clt_chunk(kernel_cfg, m, M_ref, x0, T, dt, phi_coeffs, seed, lo, hi):
    from ..diff_sim import mckean_ensemble, simulate_interacting
    from ..schwartz import HermiteFunction

    kernels = resolve_kernels({"kernels": kernel_cfg})
    phi = HermiteFunction.from_hermite_coeffs(phi_coeffs)
    ref = mckean_ensemble(kernels, M_ref, x0, T, dt, seed, replica=10_000_000)
    ref_pair = ref.pairing(T, phi)
    out = np.empty(hi - lo)
    for r in range(lo, hi):
        path = simulate_interacting(
            kernels, m, x0, T, dt, seed, replica=r, record_stride=max(1, int(round(T / dt)))
        )
        out[r - lo] = math.sqrt(m) * (float(np.mean(phi(path.positions[-1]))) - ref_pair)
    return out


@_timed
def run_clt_scaling(spec: dict) -> ExperimentReport:
    """At the central-limit scale a(m) = m^(-1/2) the pairing fluctuations
    have m-independent variance; the fitted log-log slope must be flat."""
    kernel_cfg = spec["kernels"]
    x0 = float(spec.get("x0", 0.0))
    T = float(spec.get("T", 0.5))
    dt = float(spec.get("dt", T / 256))
    M_ref = int(spec.get("M_ref", 8192))
    seed = int(spec.get("seed", 0))
    replicas = _min_replicas(spec)
    m_grid = [int(m) for m in spec["m_grid"]]
    phi_coeffs = list(spec.get("phi", [0.0, 1.0]))
    tol = float(spec.get("criteria", {}).get("slope_tol", 0.3))

    samples = {}
    arg_sets = [
        (kernel_cfg, m, M_ref, x0, T, dt, phi_coeffs, seed + k) for k, m in enumerate(m_grid)
    ]
    for m, vals in zip(m_grid, _fan_out(_clt_chunk, arg_sets, replicas)):
        samples[m] = (vals - vals.mean()) ** 2
    fit = fit_loglog_slope(np.array(m_grid), samples, seed)
    stats = {str(m): sample_stats(samples[m]).to_dict() for m in m_grid}
    crit = slope_criterion(
        "pairing variance plateau", fit, 0.0, tol, f"log-log slope of the variance = 0 +/- {tol}"
    )
    return ExperimentReport(
        kind="clt-scaling", config=spec, seed=seed, stats=stats, criteria=[crit],
        work={"replicas": replicas},
    )


# ---------------------------------------------------------------------------
# coupling scaling


def _coupling_chunk(kernel_cfg, ms, M_ref, x0, T, dt, theta, u_const, seed, lo, hi):
    kernels = resolve_kernels({"kernels": kernel_cfg})
    out = np.empty((hi - lo, len(ms)))
    for r in range(lo, hi):
        gaps = run_coupled(
            kernels, list(ms), M_ref, x0, T, dt, theta,
            lambda s, x: u_const, seed, replica=r,
        )
        out[r - lo] = [gaps[m] for m in ms]
    return out


@_timed
def run_coupling_scaling(spec: dict) -> ExperimentReport:
    """Mean squared sup-gap between controlled particles and their coupled
    reference particles; the log-log slope must match -(1 - 2 theta)."""
    kernel_cfg = spec["kernels"]
    x0 = float(spec.get("x0", 0.0))
    T = float(spec.get("T", 0.5))
    dt = float(spec.get("dt", T / 256))
    theta = float(spec.get("theta", 0.25))
    M_ref = int(spec.get("M_ref", 4 * max(spec["m_grid"])))
    seed = int(spec.get("seed", 0))
    replicas = _min_replicas(spec)
    m_grid = [int(m) for m in spec["m_grid"]]
    u_const = float(spec.get("control", {}).get("constant", 1.0))
    tol = float(spec.get("criteria", {}).get("slope_tol", 0.3))

    (raw,) = _fan_out(
        _coupling_chunk, [(kernel_cfg, tuple(m_grid), M_ref, x0, T, dt, theta, u_const, seed)],
        replicas,
    )
    raw = raw.reshape(replicas, len(m_grid))
    samples = {m: raw[:, k] for k, m in enumerate(m_grid)}
    fit = fit_loglog_slope(np.array(m_grid), samples, seed)
    want = -(1.0 - 2.0 * theta)
    stats = {str(m): sample_stats(samples[m]).to_dict() for m in m_grid}
    crit = slope_criterion(
        "coupling gap log-log slope", fit, want, tol, f"slope = {want} +/- {tol}"
    )
    return ExperimentReport(
        kind="coupling-scaling", config=spec, seed=seed, stats=stats, criteria=[crit],
        work={"replicas": replicas, "M_ref": M_ref},
    )


# ---------------------------------------------------------------------------
# iid initial moments


@_timed
def run_initial_moments(spec: dict) -> ExperimentReport:
    """Empirical-measure moments under iid initial sampling: the n=1 identity
    E ||mu0 - p0||^2 = sum p_i (1 - p_i) / m holds within Monte Carlo error,
    and the second moment of ||mu0 - p0||^2 decays like m^-2."""
    p0 = np.asarray(spec["p0"], dtype=float)
    seed = int(spec.get("seed", 0))
    replicas = _min_replicas(spec)
    m_grid = [int(m) for m in spec["m_grid"]]
    tol_slope = float(spec.get("criteria", {}).get("slope_tol", 0.3))

    stats = {}
    identity_ok = True
    worst_z = 0.0
    second = {}
    for k, m in enumerate(m_grid):
        rng = stream(seed, k)
        counts = rng.multinomial(m, p0, size=replicas)
        dev2 = ((counts / m - p0) ** 2).sum(axis=1)
        exact = float((p0 * (1 - p0)).sum() / m)
        st = sample_stats(dev2)
        z = abs(st.mean - exact) / max(st.stderr, 1e-300)
        worst_z = max(worst_z, z)
        identity_ok &= z <= 3.0
        second[m] = dev2**2
        stats[str(m)] = {"exact": exact, **st.to_dict(), "z": z}
    fit = fit_loglog_slope(np.array(m_grid), second, seed)
    criteria = [
        CriterionResult(
            "first-moment identity", worst_z, "|mean - exact| <= 3 SE at every m", identity_ok
        ),
        slope_criterion("second-moment slope", fit, -2.0, tol_slope, f"slope = -2 +/- {tol_slope}"),
    ]
    return ExperimentReport(
        kind="initial-moments", config=spec, seed=seed, stats=stats, criteria=criteria,
        work={"replicas": replicas},
    )


# ---------------------------------------------------------------------------
# rate-function round trips


def _potential_control(model, T: float, n_bins: int, scale: float, seed: int) -> JumpControl:
    """Per-cell field with potential structure psi_ij = v_j - v_i: these are
    exactly the fields the least-norm inversion reproduces, so forward/
    inverse round trips recover their cost."""
    rng = stream(seed, 17)
    v = rng.normal(size=(n_bins, model.K)) * scale
    psi = v[:, None, :] - v[:, :, None]  # psi[b, i, j] = v_j - v_i
    return JumpControl(np.linspace(0.0, T, n_bins + 1), psi)


@_timed
def run_rate_roundtrip(spec: dict) -> ExperimentReport:
    """Forward-solve a control into a path, invert the path back to a
    least-norm control, compare costs; jump and diffusion sides."""
    seed = int(spec.get("seed", 0))
    target = spec.get("target", "both")
    criteria: list[CriterionResult] = []
    stats: dict = {}

    if target in ("jump", "both"):
        model = resolve_model({"model": spec["model"]})
        q0 = np.asarray(spec.get("q0", [1.0 / model.K] * model.K), dtype=float)
        T = float(spec.get("T", 1.0))
        p_steps = int(spec.get("p_steps", 4096))
        tol_bar = float(spec.get("criteria", {}).get("jump_tol", 1e-6))
        tol_eq = float(spec.get("criteria", {}).get("equality_tol", 1e-8))
        p = solve_p(model, q0, T, p_steps)

        psi = _potential_control(model, T, n_bins=1, scale=0.4, seed=seed)
        eta = skeleton_G0(model, p, psi)
        direct = 0.5 * psi_l2sq(model, p, psi)
        ibar = rate_Ibar(model, p, eta)
        ival = rate_I(model, p, eta)
        err_bar = abs(ibar.value - direct)
        err_eq = abs(ival.value - ibar.value)
        stats["jump"] = {
            "direct_cost": direct,
            "rate_Ibar": ibar.value,
            "rate_I": ival.value,
            "feasible": ibar.feasible and ival.feasible,
        }
        criteria.append(
            CriterionResult(
                "jump forward-inverse cost", err_bar, f"|Ibar - direct| <= {tol_bar}", err_bar <= tol_bar
            )
        )
        criteria.append(
            CriterionResult(
                "jump rate parametrizations agree", err_eq, f"|I - Ibar| <= {tol_eq}", err_eq <= tol_eq
            )
        )

        # multi-bin field: the two parametrizations still agree identically
        psi_m = _potential_control(model, T, n_bins=4, scale=0.4, seed=seed + 1)
        eta_m = skeleton_G0(model, p, psi_m)
        eq_m = abs(rate_I(model, p, eta_m).value - rate_Ibar(model, p, eta_m).value)
        criteria.append(
            CriterionResult(
                "jump parametrizations agree (multi-bin)", eq_m, f"<= {tol_eq}", eq_m <= tol_eq
            )
        )

    if target in ("diffusion", "both"):
        kernels = resolve_kernels({"kernels": spec["kernels"]})
        x0 = float(spec.get("x0", 0.0))
        Td = float(spec.get("T_diff", 0.5))
        nx = int(spec.get("nx", 161))
        x_lo, x_hi = spec.get("domain", (-5.0, 5.0))
        tol_rel = float(spec.get("criteria", {}).get("diff_rel_tol", 0.02))

        def g(x, t):
            return np.sin(x) * (1.0 + 0.5 * t)

        errs = {}
        for label, n in (("default", nx), ("refined", 2 * nx - 1)):
            rho = solve_fokker_planck(kernels, x0, Td, x_lo, x_hi, n)
            eta = solve_linearized(kernels, rho, g)
            res = rate_diffusion(kernels, rho, eta)
            want = control_cost_on_grid(rho, g)
            errs[label] = abs(res.value - want) / want if res.feasible else math.inf
            stats[f"diffusion_{label}"] = {
                "recovered": res.value, "direct_cost": want, "rel_err": errs[label],
            }
        criteria.append(
            CriterionResult(
                "diffusion round trip at default grid",
                errs["default"],
                f"relative error <= {tol_rel}",
                errs["default"] <= tol_rel,
            )
        )
        halved = errs["refined"] <= 0.5 * errs["default"] + 1e-6
        criteria.append(
            CriterionResult(
                "diffusion round trip error halves under refinement",
                errs["refined"],
                "err(dx/2, dt/4) <= err/2 + 1e-6",
                halved,
            )
        )

    return ExperimentReport(
        kind="rate-roundtrip", config=spec, seed=seed, stats=stats, criteria=criteria
    )


# ---------------------------------------------------------------------------
# exactness oracle


def exactness_tv(
    rate: float, m: int, T: float, replicas: int, seed: int, k0: int | None = None
) -> dict:
    """Total-variation distance between the simulated time-T law of the
    two-state occupation count and the matrix-exponential law of the
    (m+1)-state birth-death generator."""
    from ..mf_model import two_state_model

    model = two_state_model(rate)
    if k0 is None:
        k0 = m  # all particles in state 1
    q0 = np.array([k0 / m, 1.0 - k0 / m])
    _, finals = batch_paths(model, m, q0, T, seed, np.arange(replicas))
    emp = np.bincount(finals[:, 0], minlength=m + 1) / replicas

    Q = np.zeros((m + 1, m + 1))
    for k in range(m + 1):
        if k > 0:  # one of the k particles in state 1 flips to state 2
            Q[k, k - 1] = k * rate
        if k < m:
            Q[k, k + 1] = (m - k) * rate
        Q[k, k] = -Q[k].sum()
    law = expm(Q.T * T) @ np.eye(m + 1)[k0]
    tv = 0.5 * float(np.abs(emp - law).sum())
    return {"tv": tv, "empirical": emp.tolist(), "exact": law.tolist()}


# ---------------------------------------------------------------------------
# dispatcher


RUNNERS = {
    "lln": run_lln,
    "clt-scaling": run_clt_scaling,
    "tilt-limit": run_tilt_limit,
    "coupling-scaling": run_coupling_scaling,
    "initial-moments": run_initial_moments,
    "rate-roundtrip": run_rate_roundtrip,
}


def run_experiment(spec: dict) -> ExperimentReport:
    kind = spec.get("kind")
    if kind == "lemma-suite":
        from .lemmas import run_lemma_suite

        return run_lemma_suite()
    if kind not in RUNNERS:
        raise ValueError(f"unknown experiment kind {kind!r}; expected one of {sorted(RUNNERS)}")
    return RUNNERS[kind](spec)
