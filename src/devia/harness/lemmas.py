"""Bound-check battery: every desk-checkable inequality and identity.

Each item recomputes one quantitative statement from the analysis (moment
bounds of the jump map, the thinning-cost inequalities, the cell-sum
Lipschitz bound, seminorm monotonicity and the Sobolev-type embedding,
exact drift identities) with fixed seeds, and reports a pass/fail entry
carrying the checked value and its tolerance.  Monte Carlo items are scaled
down here; the full-size versions live in the experiment runners.
"""

from __future__ import annotations

import itertools
import time

import numpy as np

from ..jump_analysis import skeleton_G0, skeleton_picard, solve_p
from ..jump_sim import JumpControl
from ..mf_model import (
    RateModel,
    birth_death_model,
    cell_weights,
    drift_b,
    drift_b_cellsum,
    ell_cost,
    jump_cell,
    jump_map_G,
    lipschitz_gamma5,
    random_simplex,
    two_state_model,
)
from ..paths import PathVec
from ..rng import stream
from ..schwartz import random_hermite_function, seminorm_hilbert, seminorm_sup
from .report import CriterionResult, ExperimentReport

__all__ = ["run_lemma_suite", "default_model"]

SEED = 20240811


def default_model() -> RateModel:
    """The documented test model: 5-state mean-field birth-death chain.

    This family is not canonical: the analysis never fixes a concrete rate
    matrix, so this is the package's own choice of a smallest model that
    exercises state-dependent rates with certifiable constants.
    """
    return birth_death_model(K=5, a=0.5, b=0.5, c=0.5)


# ---------------------------------------------------------------------------
# exact identities


def check_drift_cellsum(n: int = 100) -> CriterionResult:
    model = default_model()
    rng = stream(SEED, 1)
    worst = 0.0
    for _ in range(n):
        q = random_simplex(model.K, rng)
        worst = max(worst, float(np.abs(drift_b(model, q) - drift_b_cellsum(model, q)).max()))
    return CriterionResult(
        "drift equals cell-sum of jump directions", worst, "max abs diff <= 1e-12", worst <= 1e-12
    )


def check_jump_norm(n: int = 100) -> CriterionResult:
    model = default_model()
    rng = stream(SEED, 2)
    worst = 0.0
    for _ in range(n):
        q = random_simplex(model.K, rng)
        y = (rng.uniform(0, model.K + 1), rng.uniform(0, model.K * model.gamma_norm))
        nrm = float(np.linalg.norm(jump_map_G(model, q, y)))
        worst = max(worst, min(abs(nrm), abs(nrm - np.sqrt(2.0))))
    return CriterionResult(
        "jump map norm is 0 or sqrt(2)", worst, "distance to {0, sqrt 2} <= 1e-12", worst <= 1e-12
    )


def check_cell_disjointness(n: int = 100) -> CriterionResult:
    model = default_model()
    rng = stream(SEED, 3)
    worst = 0
    for _ in range(n):
        q = random_simplex(model.K, rng)
        y = (rng.uniform(0, model.K), rng.uniform(0, model.K * model.gamma_norm))
        hits = sum(
            jump_cell(model, q, i, j).contains(y)
            for i in range(1, model.K + 1)
            for j in range(1, model.K + 1)
            if i != j
        )
        worst = max(worst, hits)
    return CriterionResult(
        "cells with distinct (i,j) are disjoint", float(worst), "at most one cell hit", worst <= 1
    )


def check_moment_bound(n: int = 100) -> CriterionResult:
    """Jump-map moment bound through the point-space geometry: for each
    k = 1..4, sum over cells of |cell| * ||G(q, y)||^k with y inside the
    cell (the integral of ||G||^k over the quadrant) is <= 2^(k/2) gamma_norm."""
    model = default_model()
    rng = stream(SEED, 4)
    ks = np.arange(1, 5)
    worst = -np.inf
    for _ in range(n):
        q = random_simplex(model.K, rng)
        moments = np.zeros(len(ks))
        for i, j in itertools.permutations(range(1, model.K + 1), 2):
            cell = jump_cell(model, q, i, j)
            mid = (i - 0.5, cell.y2_lo + 0.5 * cell.length)
            moments += cell.length * np.linalg.norm(jump_map_G(model, q, mid)) ** ks
        worst = max(worst, float((moments - 2.0 ** (ks / 2.0) * model.gamma_norm).max()))
    return CriterionResult(
        "jump-map moment bound k=1..4", worst, "excess <= 1e-12", worst <= 1e-12
    )


def check_drift_norm(n: int = 100) -> CriterionResult:
    model = default_model()
    rng = stream(SEED, 5)
    worst = 0.0
    for _ in range(n):
        q = random_simplex(model.K, rng)
        worst = max(worst, float(np.linalg.norm(drift_b(model, q))))
    bound = np.sqrt(2.0) * model.gamma_norm
    return CriterionResult(
        "drift norm bound", worst, f"||b(q)|| <= sqrt(2)*gamma_norm = {bound:.6g}", worst <= bound + 1e-12
    )


# ---------------------------------------------------------------------------
# thinning-cost function bounds


def check_ell_linear_bound(betas=(0.05, 0.1, 0.25, 0.45)) -> CriterionResult:
    """gamma1(beta) = sup over x >= 0, |x-1| >= beta of |x-1| / ell(x),
    checked against 4/beta for each beta > 0.  The sup is taken at
    x = 1 + beta.  ell(x)/(x-1) has derivative (x-1-log x)/(x-1)^2 > 0, so
    the ratio falls in x on x > 1 and rises on x < 1: the sup is at 1 + beta
    or, when beta <= 1, at 1 - beta.  ell(1-beta) - ell(1+beta) vanishes at
    beta = 0 and has derivative -log(1-beta^2) > 0 for beta < 1, so
    ell(1-beta) > ell(1+beta) (at beta = 1 too, by continuity) and 1 + beta
    has the larger ratio."""
    if not all(b > 0.0 for b in betas):
        raise ValueError(f"need every beta > 0; got {list(betas)}")
    worst = -np.inf
    vals = {}
    for b in betas:
        sup = ((1.0 + b) - 1.0) / ell_cost(1.0 + b)
        vals[b] = sup
        worst = max(worst, sup - 4.0 / b)
    return CriterionResult(
        "linear thinning-cost bound",
        worst,
        "sup |x-1|/ell(x) <= 4/beta on each beta",
        worst <= 0.0,
        detail={str(b): vals[b] for b in betas},
    )


def check_ell_quadratic_bound(betas=(0.1, 0.25, 0.5, 1.0)) -> CriterionResult:
    """gamma2(beta) = sup over x >= 0, |x-1| <= beta of (x-1)^2 / ell(x),
    checked against 2 (1 + beta) for each beta > 0.  The sup is taken at
    x = 1 + beta: f(x) = (x-1)^2 / ell(x), with f(1) = 2 its limit, rises on
    (0, inf), since f' has the sign of (x-1) h(x), h(x) = x log x - 2x + 2 +
    log x, and h(1) = h'(1) = 0 with h''(x) = (x-1)/x^2 make h' >= 0, so h
    has the sign of x - 1.  The bound: ell(1) = ell'(1) = 0 and ell''(s) =
    1/s give ell(x) = int_1^x (x-s)/s ds >= (x-1)^2 / (2 max(1, x)), so
    gamma2(beta) <= 2 (1 + beta)."""
    if not all(b > 0.0 for b in betas):
        raise ValueError(f"need every beta > 0; got {list(betas)}")
    worst = -np.inf
    vals = {}
    for b in betas:
        sup = ((1.0 + b) - 1.0) ** 2 / ell_cost(1.0 + b)
        vals[b] = sup
        worst = max(worst, sup - 2.0 * (1.0 + b))
    return CriterionResult(
        "quadratic thinning-cost bound",
        worst,
        "sup (x-1)^2/ell(x) <= 2(1+beta) on each beta",
        worst <= 0.0,
        detail={str(b): vals[b] for b in betas},
    )


# ---------------------------------------------------------------------------
# cell-sum Lipschitz bound


def check_lipschitz_cellsum(n: int = 500) -> CriterionResult:
    """Weighted cell-sum difference against the explicit constant:
    || sum (e_j - e_i) [qt_i G_ij(qt) - q_i G_ij(q)] g_ij ||
      <= gamma5 * max|g| * ||qt - q||."""
    model = default_model()
    gamma5 = lipschitz_gamma5(model)
    rng = stream(SEED, 6)
    worst = -np.inf
    for _ in range(n):
        q = random_simplex(model.K, rng)
        qt = random_simplex(model.K, rng)
        g = rng.uniform(-1.0, 1.0, size=(model.K, model.K))
        M = (cell_weights(model, qt) - cell_weights(model, q)) * g
        np.fill_diagonal(M, 0.0)
        lhs = float(np.linalg.norm(M.sum(axis=0) - M.sum(axis=1)))
        rhs = gamma5 * float(np.abs(g).max()) * float(np.linalg.norm(qt - q))
        worst = max(worst, lhs - rhs)
    return CriterionResult(
        "cell-sum Lipschitz bound",
        worst,
        f"lhs <= gamma5*max|g|*||dq|| with gamma5 = {gamma5:.6g} (tolerance 0)",
        worst <= 0.0,
    )


# ---------------------------------------------------------------------------
# test-function calculus


def check_seminorm_monotone(n_funcs: int = 20, n_max: int = 3) -> CriterionResult:
    rng = stream(SEED, 7)
    worst = -np.inf
    for _ in range(n_funcs):
        phi = random_hermite_function(rng, max_degree=6)
        norms = [seminorm_hilbert(phi, n) for n in range(n_max + 1)]
        worst = max(worst, max(a - b for a, b in zip(norms[:-1], norms[1:])))
    return CriterionResult(
        "Hilbert seminorms monotone in the order",
        worst,
        "||phi||_n <= ||phi||_(n+1)",
        worst <= 1e-10,
    )


def _worst_sobolev_ratio(n: int, samples: int, seed_id: int) -> float:
    """Largest |phi|_n / ||phi||_(n+1) over random working-family functions."""
    rng = stream(SEED, seed_id)
    worst = 0.0
    for _ in range(samples):
        phi = random_hermite_function(rng, max_degree=8)
        den = seminorm_hilbert(phi, n + 1)
        if den > 0:
            worst = max(worst, seminorm_sup(phi, n) / den)
    return worst


def sobolev_ratio_bound(n: int, samples: int = 200, seed_id: int = 8) -> float:
    """Empirical constant for |phi|_n <= gamma0(n) ||phi||_(n+1) over the
    working family, with 5% headroom."""
    return 1.05 * _worst_sobolev_ratio(n, samples, seed_id)


def check_sobolev_embedding(n: int = 1, n_funcs: int = 100) -> CriterionResult:
    bound = sobolev_ratio_bound(n, samples=200, seed_id=8)
    worst = _worst_sobolev_ratio(n, n_funcs, seed_id=9)
    return CriterionResult(
        "sup-seminorm controlled by the next Hilbert seminorm",
        worst,
        f"|phi|_{n}/||phi||_{n + 1} <= {bound:.6g} over {n_funcs} samples",
        worst <= bound,
        detail={"bound": bound},
    )


def check_gaussian_norm() -> CriterionResult:
    from ..schwartz import HermiteFunction

    val = seminorm_hilbert(HermiteFunction.gaussian(), 0)
    err = abs(val - np.pi**0.25)
    return CriterionResult(
        "Gaussian reference norm", err, "| ||phi||_0 - pi^(1/4) | <= 1e-14", err <= 1e-14
    )


# ---------------------------------------------------------------------------
# skeleton properties


def check_skeleton_uniqueness() -> CriterionResult:
    model = two_state_model(1.0)
    p = solve_p(model, np.array([0.7, 0.3]), 1.0, 512)
    psi = JumpControl.constant(2, 1.0, {(1, 2): 0.8, (2, 1): -0.3}, n_bins=4)
    rng = stream(SEED, 10)
    init = PathVec(p.grid, rng.normal(size=(len(p.grid), 2)))
    a = skeleton_picard(model, p, psi)
    b = skeleton_picard(model, p, psi, eta_init=init)
    gap = float(np.abs(a.values - b.values).max())
    return CriterionResult(
        "skeleton solution unique (two fixed-point starts agree)",
        gap,
        "max gap <= 1e-10",
        gap <= 1e-10,
    )


def check_skeleton_linearity() -> CriterionResult:
    model = default_model()
    p = solve_p(model, np.full(model.K, 1.0 / model.K), 1.0, 512)
    rng = stream(SEED, 11)
    psi_arr = rng.normal(size=(4, model.K, model.K)) * 0.5
    c1 = JumpControl(np.linspace(0, 1, 5), psi_arr)
    c2 = JumpControl(np.linspace(0, 1, 5), 2.0 * psi_arr)
    e1 = skeleton_G0(model, p, c1)
    e2 = skeleton_G0(model, p, c2)
    gap = float(np.abs(e2.values - 2.0 * e1.values).max())
    return CriterionResult(
        "skeleton map linear in the control", gap, "max gap <= 1e-10", gap <= 1e-10
    )


def check_skeleton_mass_zero() -> CriterionResult:
    model = default_model()
    p = solve_p(model, np.full(model.K, 1.0 / model.K), 1.0, 512)
    rng = stream(SEED, 12)
    c = JumpControl(np.linspace(0, 1, 9), rng.normal(size=(8, model.K, model.K)))
    eta = skeleton_G0(model, p, c)
    defect = float(np.abs(eta.values.sum(axis=1)).max())
    return CriterionResult(
        "skeleton paths are mass-zero", defect, "max coordinate sum <= 1e-10", defect <= 1e-10
    )


def check_tilt_cost_quadrature() -> CriterionResult:
    """Closed-form per-cell cost against direct numeric quadrature."""
    from scipy.integrate import quad

    from ..jump_sim import tilt_cost

    model = two_state_model(1.0)
    p = solve_p(model, np.array([0.8, 0.2]), 1.0, 2048)
    psi_val = 0.7
    control = JumpControl.constant(2, 1.0, {(1, 2): psi_val}, n_bins=1)
    m, theta = 400, 0.25
    a_m = m ** (-theta)
    got = tilt_cost(model, control, a_m, m, p)
    phi = 1.0 + psi_val / (a_m * np.sqrt(m))
    want, _ = quad(lambda s: ell_cost(phi) * p(s)[0] * 1.0, 0.0, 1.0, limit=200)
    err = abs(got - want)
    return CriterionResult(
        "thinning cost matches numeric quadrature", err, "abs diff <= 1e-6", err <= 1e-6
    )


# ---------------------------------------------------------------------------
# small Monte Carlo cross-checks (full-size versions live in experiments)


def check_initial_moment_identity(m: int = 200, replicas: int = 4000) -> CriterionResult:
    """Sampling m iid labels from p0 gives an exact second-moment identity
    for the empirical measure: E ||mu0 - p0||^2 = sum p_i(1-p_i)/m."""
    p0 = np.array([0.4, 0.3, 0.2, 0.1])
    rng = stream(SEED, 13)
    counts = rng.multinomial(m, p0, size=replicas)
    dev2 = ((counts / m - p0) ** 2).sum(axis=1)
    exact = float((p0 * (1 - p0)).sum() / m)
    se = float(dev2.std(ddof=1) / np.sqrt(replicas))
    err = abs(float(dev2.mean()) - exact)
    return CriterionResult(
        "iid initial second-moment identity",
        err,
        f"|mean - exact| <= 3 SE = {3 * se:.3e}",
        err <= 3 * se,
        detail={"exact": exact, "mean": float(dev2.mean()), "se": se},
    )


def check_lln_mini() -> CriterionResult:
    from ..jump_sim import batch_paths

    model = two_state_model(1.0)
    q0 = np.array([0.5, 0.5])
    p = solve_p(model, q0, 1.0, 512)
    means = {}
    for m in (50, 800):
        sup, _ = batch_paths(model, m, q0, 1.0, SEED + 14, np.arange(40), ref=p)
        means[m] = float((sup**2).mean())
    ratio = means[800] / means[50]
    return CriterionResult(
        "LLN deviation shrinks with m (mini)",
        ratio,
        "mean sup^2 at m=800 <= 0.2 * value at m=50",
        ratio <= 0.2,
        detail={str(k): v for k, v in means.items()},
    )


def check_coupling_mini() -> CriterionResult:
    from ..diff_sim import limit_path, run_coupled
    from ..kernels import default_kernels

    kp = default_kernels()
    gaps = {128: 0.0, 1024: 0.0}
    reps = 10
    limit = limit_path(kp, 4096, 0.0, 0.5, 1 / 128, SEED + 15)
    for r in range(reps):
        g = run_coupled(
            kp, [128, 1024], 4096, 0.0, 0.5, 1 / 128, 0.25, lambda s, x: 1.0, SEED + 15, r,
            limit=limit,
        )
        for m in gaps:
            gaps[m] += g[m] / reps
    ratio = gaps[1024] / gaps[128]
    return CriterionResult(
        "coupling gap shrinks with m (mini)",
        ratio,
        "mean gap at m=1024 <= 0.6 * value at m=128",
        ratio <= 0.6,
        detail={str(k): v for k, v in gaps.items()},
    )


def check_generator_bound_ratio() -> CriterionResult:
    """||L phi||_0 / ||phi||_2 stays bounded over sample test functions."""
    from ..kernels import MeasureHook, default_kernels
    from ..schwartz import apply_L_seminorm_ratio

    kp = default_kernels()
    rng = stream(SEED, 16)
    pts = rng.normal(size=512) * 0.7
    mu = MeasureHook(points=pts, weights=np.full(512, 1.0 / 512))
    worst = 0.0
    for _ in range(10):
        phi = random_hermite_function(rng, max_degree=6)
        worst = max(worst, apply_L_seminorm_ratio(kp, mu, phi))
    return CriterionResult(
        "generator seminorm ratio bounded",
        worst,
        "||L phi||_0 / ||phi||_2 <= 10 over samples",
        worst <= 10.0,
    )


ITEMS = [
    check_drift_cellsum,
    check_jump_norm,
    check_cell_disjointness,
    check_moment_bound,
    check_drift_norm,
    check_ell_linear_bound,
    check_ell_quadratic_bound,
    check_lipschitz_cellsum,
    check_seminorm_monotone,
    check_sobolev_embedding,
    check_gaussian_norm,
    check_skeleton_uniqueness,
    check_skeleton_linearity,
    check_skeleton_mass_zero,
    check_tilt_cost_quadrature,
    check_initial_moment_identity,
    check_lln_mini,
    check_coupling_mini,
    check_generator_bound_ratio,
]


def run_lemma_suite() -> ExperimentReport:
    """Run the whole battery with fixed seeds; failures are report entries."""
    t0 = time.perf_counter()
    criteria = [item() for item in ITEMS]
    report = ExperimentReport(
        kind="lemma-suite",
        config={"seed": SEED, "items": [i.__name__ for i in ITEMS]},
        seed=SEED,
        stats={},
        criteria=criteria,
        work={"items": len(criteria)},
    )
    report.runtime_seconds = time.perf_counter() - t0
    return report
