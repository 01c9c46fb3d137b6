"""Monte Carlo experiment runners.

Each runner takes a spec mapping (see the README for the documented keys),
fans replicas out across workers (``DEVIA_WORKERS`` environment variable,
default serial), and assembles an :class:`ExperimentReport` whose pass/fail
entries carry the declared tolerances.  Replica randomness is keyed by
(seed, replica id), so results do not depend on the worker layout.
"""

from __future__ import annotations

import functools
import math
import os
import time

import numpy as np

from ..diff_analysis import (
    control_cost_on_grid,
    rate_diffusion,
    solve_fokker_planck,
    solve_linearized,
)
from ..diff_sim import (
    REFERENCE_REPLICA,
    limit_path,
    run_coupled,
    simulate_interacting,
)
from ..jump_analysis import (
    birth_death_law,
    psi_l2sq,
    rate_I,
    rate_Ibar,
    skeleton_G0,
    solve_p,
)
from ..jump_sim import JumpControl, batch_paths
from ..mf_model import check_simplex
from ..paths import PathVec
from ..rng import stream
from .config import (
    config_numbers,
    config_scalar,
    config_section,
    control_from_config,
    kernels_from_config,
    known_keys,
    load_config,
    model_from_config,
)
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
    one result per tuple, in order.  A serial run calls the worker in this
    process.  With more than one worker all chunks share one process pool,
    imported only then, and each args tuple is cut into one chunk per
    worker, since every worker call pays the kernels' fixed per-call cost."""
    w = n_workers()
    if w <= 1:
        return [np.asarray(worker(*args, 0, n_replicas)) for args in arg_sets]
    from concurrent.futures import ProcessPoolExecutor

    parts = _chunks(n_replicas, w)
    with ProcessPoolExecutor(max_workers=w) as ex:
        futs = [[ex.submit(worker, *args, lo, hi) for lo, hi in parts] for args in arg_sets]
        return [np.concatenate([f.result() for f in fs]) for fs in futs]


RUNNERS = {}


def _runner(kind: str, *required: str, optional: tuple = (), criteria: tuple = ()):
    """Make fn(spec, seed) -> (stats, criteria, work) the runner of ``kind``
    in RUNNERS: it checks the required keys, that the spec holds no key but
    these, ``optional``, kind, seed and criteria and that its criteria block
    holds no key but ``criteria``, reads the seed and returns the report,
    with its wall time logged on it."""
    keys = ("kind", "seed", "criteria", *required, *optional)

    def wrap(fn):
        @functools.wraps(fn)
        def run(spec: dict) -> ExperimentReport:
            t0 = time.perf_counter()
            _require(spec, kind, *required)
            known_keys(spec, f"{kind} spec", keys)
            known_keys(config_section(spec, "criteria"), f"{kind} criteria", criteria)
            seed = config_scalar(spec, "seed", 0, integer=True)
            report = ExperimentReport(kind, spec, seed, *fn(spec, seed))
            report.runtime_seconds = time.perf_counter() - t0
            return report

        RUNNERS[kind] = run
        return run

    return wrap


def _require(spec: dict, kind: str, *keys: str) -> None:
    """A required key missing from a spec is an invalid input, not a KeyError."""
    for key in keys:
        if key not in spec:
            raise ValueError(f"the {kind} spec needs the key {key!r}")


MIN_REPLICAS = 30
# the keys of every slope fit's Monte Carlo layout (see _replicas_and_grid)
LAYOUT = ("replicas", "m_grid")


def _replicas_and_grid(spec: dict, kind: str) -> tuple[int, list[int]]:
    """The Monte Carlo layout of a slope fit: enough replicas for a usable
    bootstrap and a strictly increasing grid of at least two sizes, each
    at least 1."""
    replicas = config_scalar(spec, "replicas", 0, integer=True)
    if replicas < MIN_REPLICAS:
        raise ValueError(
            f"slope fits need at least {MIN_REPLICAS} replicas for a usable bootstrap; "
            f"got {replicas}"
        )
    _require(spec, kind, "m_grid")
    grid = config_numbers(spec, "m_grid", integer=True)
    if len(grid) < 2:
        raise ValueError(f"a slope fit needs an m_grid of at least 2 sizes; got {grid}")
    if min(grid) < 1:
        raise ValueError(f"every m_grid size must be at least 1; got {grid}")
    if any(b <= a for a, b in zip(grid[:-1], grid[1:])):
        raise ValueError("m_grid must be strictly increasing")
    return replicas, grid


# ---------------------------------------------------------------------------
# jump LLN


def _lln_chunk(model_cfg, m, q0, T, p, seed, lo, hi):
    # models are rebuilt here because their closures do not pickle
    model = model_from_config(model_cfg)
    sup, _ = batch_paths(model, m, q0, T, seed, np.arange(lo, hi), ref=p)
    return sup**2


@_runner("lln", "model", "q0", optional=(*LAYOUT, "T", "p_steps"),
         criteria=("slope", "slope_tol"))
def run_lln(spec: dict, seed: int):
    """Mean squared sup-deviation of the empirical measure from its limit,
    fitted against 1/m on a log-log scale."""
    replicas, m_grid = _replicas_and_grid(spec, "lln")
    model_cfg = load_config(spec["model"], "model")
    q0 = np.array(config_numbers(spec, "q0"))
    T = config_scalar(spec, "T", 1.0)
    p_steps = config_scalar(spec, "p_steps", 1024, integer=True)
    want = config_scalar(config_section(spec, "criteria"), "slope", -1.0)
    tol = config_scalar(config_section(spec, "criteria"), "slope_tol", 0.2)

    p = solve_p(model_from_config(model_cfg), q0, T, p_steps)
    arg_sets = [(model_cfg, m, q0, T, p, seed + k) for k, m in enumerate(m_grid)]
    samples = dict(zip(m_grid, _fan_out(_lln_chunk, arg_sets, replicas)))
    fit = fit_loglog_slope(np.array(m_grid), samples, seed)
    stats = {str(m): sample_stats(samples[m]).to_dict() for m in m_grid}
    crit = slope_criterion("LLN log-log slope", fit, want, tol, f"slope = {want} +/- {tol}")
    return stats, [crit], {"replicas": replicas, "m_grid": m_grid}


# ---------------------------------------------------------------------------
# tilt limit


def _tilt_chunk(model_cfg, m, q0, T, theta, control, p, eta, seed, lo, hi):
    model = model_from_config(model_cfg)
    a_m = m ** (-theta)
    scale = a_m * math.sqrt(m)
    ref = PathVec(p.grid, p.values + eta.values / scale)
    sup, _ = batch_paths(
        model, m, q0, T, seed, np.arange(lo, hi), control=control, a_m=a_m, p_path=p, ref=ref
    )
    return scale * sup


@_runner("tilt-limit", "model", "q0", "control", optional=(*LAYOUT, "T", "theta", "p_steps"),
         criteria=("se_factor", "final_ratio"))
def run_tilt_limit(spec: dict, seed: int):
    """Controlled fluctuations against the skeleton limit: the mean sup
    distance must be nonincreasing in m (within two standard errors) and at
    least halve from the smallest to the largest system."""
    replicas, m_grid = _replicas_and_grid(spec, "tilt-limit")
    model_cfg = load_config(spec["model"], "model")
    q0 = np.array(config_numbers(spec, "q0"))
    T = config_scalar(spec, "T", 1.0)
    theta = config_scalar(spec, "theta", 0.25)
    p_steps = config_scalar(spec, "p_steps", 2048, integer=True)
    se_factor = config_scalar(config_section(spec, "criteria"), "se_factor", 2.0)
    final_ratio = config_scalar(config_section(spec, "criteria"), "final_ratio", 0.5)

    stats = {}
    means, ses = [], []
    # p, the control and the skeleton depend on neither m nor the replicas
    model = model_from_config(model_cfg)
    p = solve_p(model, q0, T, p_steps)
    block = config_section(spec, "control")
    known_keys(block, "tilt-limit control", ("n_bins", "entries"))
    control = control_from_config(block, model.K, T)
    eta = skeleton_G0(model, p, control)
    arg_sets = [
        (model_cfg, m, q0, T, theta, control, p, eta, seed + k) for k, m in enumerate(m_grid)
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
    return stats, criteria, {"replicas": replicas, "m_grid": m_grid}


# ---------------------------------------------------------------------------
# CLT-scale pairing variance


def _final_stride(T: float, dt: float) -> int:
    """Record stride that keeps only times 0 and T."""
    return max(1, int(round(T / dt)))


def _clt_chunk(kernel_cfg, m, ref_pair, x0, T, dt, phi_coeffs, seed, lo, hi):
    from ..schwartz import HermiteFunction

    kernels = kernels_from_config(kernel_cfg)
    phi = HermiteFunction.from_hermite_coeffs(phi_coeffs)
    out = np.empty(hi - lo)
    for r in range(lo, hi):
        path = simulate_interacting(
            kernels, m, x0, T, dt, seed, replica=r, record_stride=_final_stride(T, dt)
        )
        out[r - lo] = math.sqrt(m) * (float(np.mean(phi(path.positions[-1]))) - ref_pair)
    return out


@_runner("clt-scaling", "kernels", optional=(*LAYOUT, "x0", "T", "dt", "M_ref", "phi"),
         criteria=("slope_tol",))
def run_clt_scaling(spec: dict, seed: int):
    """At the central-limit scale a(m) = m^(-1/2) the pairing fluctuations
    have m-independent variance; the fitted log-log slope must be flat."""
    from ..schwartz import HermiteFunction

    replicas, m_grid = _replicas_and_grid(spec, "clt-scaling")
    kernel_cfg = load_config(spec["kernels"], "kernels")
    x0 = config_scalar(spec, "x0", 0.0)
    T = config_scalar(spec, "T", 0.5)
    dt = config_scalar(spec, "dt", T / 256)
    M_ref = config_scalar(spec, "M_ref", 8192, integer=True)
    phi_coeffs = config_numbers(spec, "phi", [0.0, 1.0])
    if not phi_coeffs:
        raise ValueError("'phi' must hold at least one Hermite coefficient; got []")
    tol = config_scalar(config_section(spec, "criteria"), "slope_tol", 0.3)

    kernels = kernels_from_config(kernel_cfg)
    phi = HermiteFunction.from_hermite_coeffs(phi_coeffs)
    samples = {}
    arg_sets = []
    for k, m in enumerate(m_grid):
        ref = simulate_interacting(
            kernels, M_ref, x0, T, dt, seed + k, REFERENCE_REPLICA, _final_stride(T, dt)
        )
        arg_sets.append((kernel_cfg, m, ref.hook(T).pair(phi), x0, T, dt, phi_coeffs, seed + k))
    for m, vals in zip(m_grid, _fan_out(_clt_chunk, arg_sets, replicas)):
        samples[m] = (vals - vals.mean()) ** 2
    fit = fit_loglog_slope(np.array(m_grid), samples, seed)
    stats = {str(m): sample_stats(samples[m]).to_dict() for m in m_grid}
    crit = slope_criterion(
        "pairing variance plateau", fit, 0.0, tol, f"log-log slope of the variance = 0 +/- {tol}"
    )
    return stats, [crit], {"replicas": replicas}


# ---------------------------------------------------------------------------
# coupling scaling


def _coupling_chunk(kernel_cfg, ms, M_ref, x0, T, dt, theta, u_const, seed, limit, lo, hi):
    kernels = kernels_from_config(kernel_cfg)
    out = np.empty((hi - lo, len(ms)))
    for r in range(lo, hi):
        gaps = run_coupled(
            kernels, list(ms), M_ref, x0, T, dt, theta,
            lambda s, x: u_const, seed, replica=r, limit=limit,
        )
        out[r - lo] = [gaps[m] for m in ms]
    return out


@_runner("coupling-scaling", "kernels",
         optional=(*LAYOUT, "x0", "T", "dt", "theta", "M_ref", "control"), criteria=("slope_tol",))
def run_coupling_scaling(spec: dict, seed: int):
    """Mean squared sup-gap between controlled particles and their coupled
    reference particles, i.i.d. copies of the limit law whose pairings come
    from one M_ref-particle ensemble per run; the log-log slope must match
    -(1 - 2 theta)."""
    replicas, m_grid = _replicas_and_grid(spec, "coupling-scaling")
    kernel_cfg = load_config(spec["kernels"], "kernels")
    x0 = config_scalar(spec, "x0", 0.0)
    T = config_scalar(spec, "T", 0.5)
    dt = config_scalar(spec, "dt", T / 256)
    theta = config_scalar(spec, "theta", 0.25)
    M_ref = config_scalar(spec, "M_ref", 4 * max(m_grid), integer=True)
    block = config_section(spec, "control")
    known_keys(block, "coupling-scaling control", ("constant",))
    u_const = config_scalar(block, "constant", 1.0)
    tol = config_scalar(config_section(spec, "criteria"), "slope_tol", 0.3)

    limit = limit_path(kernels_from_config(kernel_cfg), M_ref, x0, T, dt, seed)
    (raw,) = _fan_out(
        _coupling_chunk,
        [(kernel_cfg, tuple(m_grid), M_ref, x0, T, dt, theta, u_const, seed, limit)],
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
    steps = limit.n_steps * (replicas * (max(m_grid) + sum(m_grid)) + M_ref)
    return stats, [crit], {"replicas": replicas, "M_ref": M_ref, "em_particle_steps": steps}


# ---------------------------------------------------------------------------
# iid initial moments


@_runner("initial-moments", "p0", optional=LAYOUT, criteria=("slope_tol",))
def run_initial_moments(spec: dict, seed: int):
    """Empirical-measure moments under iid initial sampling: the n=1 identity
    E ||mu0 - p0||^2 = sum p_i (1 - p_i) / m holds within Monte Carlo error,
    and the second moment of ||mu0 - p0||^2 decays like m^-2."""
    replicas, m_grid = _replicas_and_grid(spec, "initial-moments")
    p0 = check_simplex(config_numbers(spec, "p0"))
    tol_slope = config_scalar(config_section(spec, "criteria"), "slope_tol", 0.3)

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
    return stats, criteria, {"replicas": replicas}


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


# the spec keys and the criteria each half of a rate round trip reads
_ROUNDTRIP_KEYS = {
    "jump": (("model", "q0", "T", "p_steps"), ("jump_tol", "equality_tol")),
    "diffusion": (("kernels", "x0", "T_diff", "nx", "domain"), ("diff_rel_tol",)),
}


@_runner("rate-roundtrip",
         optional=("target", *_ROUNDTRIP_KEYS["jump"][0], *_ROUNDTRIP_KEYS["diffusion"][0]),
         criteria=(*_ROUNDTRIP_KEYS["jump"][1], *_ROUNDTRIP_KEYS["diffusion"][1]))
def run_rate_roundtrip(spec: dict, seed: int):
    """Forward-solve a control into a path, invert the path back to a
    least-norm control, compare costs; jump and diffusion sides.  A key of
    the half the target skips is refused, since no reader reads it."""
    tols = config_section(spec, "criteria")
    target = spec.get("target", "both")
    if target not in ("jump", "diffusion", "both"):
        raise ValueError(
            f"rate-roundtrip target must be 'jump', 'diffusion' or 'both'; got {target!r}"
        )
    for half, (keys, tol_keys) in _ROUNDTRIP_KEYS.items():
        if target in (half, "both"):
            continue
        for what, block, names in (("spec", spec, keys), ("criteria", tols, tol_keys)):
            skipped = [key for key in names if key in block]
            if skipped:
                raise ValueError(
                    f"the rate-roundtrip {what} has the {half} key {skipped[0]!r}, "
                    f"which target {target!r} does not read"
                )
    criteria: list[CriterionResult] = []
    stats: dict = {}

    if target in ("jump", "both"):
        _require(spec, "rate-roundtrip", "model")
        model = model_from_config(spec["model"])
        q0 = np.array(config_numbers(spec, "q0", [1.0 / model.K] * model.K))
        T = config_scalar(spec, "T", 1.0)
        p_steps = config_scalar(spec, "p_steps", 4096, integer=True)
        tol_bar = config_scalar(tols, "jump_tol", 1e-6)
        tol_eq = config_scalar(tols, "equality_tol", 1e-8)
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

        # multi-bin field: the primal and dual forms still agree
        psi_m = _potential_control(model, T, n_bins=4, scale=0.4, seed=seed + 1)
        eta_m = skeleton_G0(model, p, psi_m)
        eq_m = abs(rate_I(model, p, eta_m).value - rate_Ibar(model, p, eta_m).value)
        criteria.append(
            CriterionResult(
                "jump parametrizations agree (multi-bin)", eq_m, f"<= {tol_eq}", eq_m <= tol_eq
            )
        )

    if target in ("diffusion", "both"):
        _require(spec, "rate-roundtrip", "kernels")
        kernels = kernels_from_config(spec["kernels"])
        x0 = config_scalar(spec, "x0", 0.0)
        Td = config_scalar(spec, "T_diff", 0.5)
        nx = config_scalar(spec, "nx", 161, integer=True)
        domain = config_numbers(spec, "domain", [-5.0, 5.0])
        if len(domain) != 2 or not domain[0] < domain[1]:
            raise ValueError(f"'domain' must be two numbers [lo, hi] with lo < hi; got {domain}")
        x_lo, x_hi = domain
        tol_rel = config_scalar(tols, "diff_rel_tol", 0.02)

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

    return stats, criteria, {}


# ---------------------------------------------------------------------------
# exactness oracle


def exactness_tv(rate: float, m: int, T: float, replicas: int, seed: int) -> dict:
    """Total-variation distance between the simulated time-T law of the
    two-state chain's count of particles in state 1 and its exact law, the
    uniformized law of the (m+1)-state birth-death count chain.  All m
    particles start in state 1."""
    from ..mf_model import two_state_model

    model = two_state_model(rate)
    q0 = np.array([1.0, 0.0])
    _, finals = batch_paths(model, m, q0, T, seed, np.arange(replicas))
    emp = np.bincount(finals[:, 0], minlength=m + 1) / replicas

    # from k particles in state 1, one of the m - k in state 2 flips up or
    # one of the k flips down
    k = np.arange(m + 1)
    law = birth_death_law((m - k) * rate, k * rate, T, m)
    tv = 0.5 * float(np.abs(emp - law).sum())
    return {"tv": tv, "empirical": emp.tolist(), "exact": law.tolist()}


# ---------------------------------------------------------------------------
# dispatcher


def run_experiment(spec: dict) -> ExperimentReport:
    kind = spec.get("kind")
    if kind == "lemma-suite":
        from .lemmas import run_lemma_suite

        # the suite's seeds are fixed, so even a seed key is not read
        known_keys(spec, "lemma-suite spec", ("kind",))
        return run_lemma_suite()
    if kind not in RUNNERS:
        raise ValueError(f"unknown experiment kind {kind!r}; expected one of {sorted(RUNNERS)}")
    return RUNNERS[kind](spec)
