"""Deterministic limit objects for the jump model.

Contains the law-of-large-numbers ODE p' = b(p), the linear skeleton map
taking a per-cell control field psi to the fluctuation limit eta, and the
rate-function evaluators that invert a given path eta back to a least-norm
control.

Both rate functions measure the same quantity through two parametrizations:
the field psi on the point-space cells (cost = 1/2 * L2(lambda) norm squared)
and the per-pair coefficients u_ij(s) = psi_ij(s) sqrt(p_i Gamma_ij(p))
(cost = 1/2 * integral of sum u_ij^2).  The forcing a path eta requires is

    r(t) = eta'(t) - Db(p(t))[eta(t)]

and must lie in the span of the columns (e_j - e_i) sqrt(p_i Gamma_ij(p));
the least-norm coefficient vector is obtained by SVD pseudoinversion per
grid time.  Paths whose residual leaves the column space beyond tolerance,
or whose cost diverges under grid coarsening (the numerical signature of a
discontinuity), are reported infeasible, i.e. rate value infinity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .jump_sim import JumpControl
from .mf_model import RateModel, cell_weights, db_apply
from .paths import PathVec

__all__ = [
    "ControlMatrixU",
    "RateResult",
    "solve_p",
    "skeleton_G0",
    "skeleton_picard",
    "rate_I",
    "rate_Ibar",
    "u_from_psi",
    "psi_from_u",
    "psi_l2sq",
]


# ---------------------------------------------------------------------------
# LLN path


def solve_p(model: RateModel, p0: np.ndarray, T: float, n_steps: int = 1024) -> PathVec:
    """Classical RK4 solve of p' = b(p) on a uniform grid.

    The drift sums to zero analytically, so the mass defect is pure round-off;
    it is renormalized away whenever it exceeds 1e-12.  A step producing
    negative mass beyond tolerance is retried at half size.
    """
    p0 = np.asarray(p0, dtype=float)
    grid = np.linspace(0.0, T, n_steps + 1)
    vals = np.empty((n_steps + 1, model.K))
    vals[0] = p0
    p = p0.copy()
    h = T / n_steps
    for k in range(n_steps):
        p = _rk4_step_simplex(model, p, h, depth=0)
        vals[k + 1] = p
    return PathVec(grid, vals)


def _drift(model: RateModel, p: np.ndarray) -> np.ndarray:
    R = model.rate_matrix(p)
    return R.T @ p - R.sum(axis=1) * p


def _rk4_step_simplex(model: RateModel, p: np.ndarray, h: float, depth: int) -> np.ndarray:
    k1 = _drift(model, p)
    k2 = _drift(model, p + 0.5 * h * k1)
    k3 = _drift(model, p + 0.5 * h * k2)
    k4 = _drift(model, p + h * k3)
    out = p + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    if out.min() < -1e-9 * max(h, 1.0):
        if depth >= 20:
            raise RuntimeError("LLN solve cannot maintain the simplex; step too large")
        half = _rk4_step_simplex(model, p, h / 2.0, depth + 1)
        return _rk4_step_simplex(model, half, h / 2.0, depth + 1)
    s = out.sum()
    if abs(s - 1.0) > 1e-12:
        out = out / s
    return out


# ---------------------------------------------------------------------------
# skeleton map


def _forcing(model: RateModel, p_t: np.ndarray, psi_t: np.ndarray) -> np.ndarray:
    """Exact per-cell integral of the jump map against psi: sum over cells of
    (e_j - e_i) psi_ij w_ij."""
    M = psi_t * cell_weights(model, p_t)
    return M.sum(axis=0) - M.sum(axis=1)


def skeleton_G0(model: RateModel, p_path: PathVec, psi: JumpControl) -> PathVec:
    """Fluctuation limit eta = G0(psi): the unique solution of the linear
    equation eta' = Db(p(t)) eta + f(t), eta(0) = 0, with per-cell forcing
    f(t) = sum (e_j - e_i) psi_ij(t) p_i(t) Gamma_ij(p(t)).

    Solved by RK4 on the grid of p; linear in psi.
    """
    ts = p_path.grid
    eta = np.zeros((len(ts), model.K))

    def rhs(s: float, y: np.ndarray) -> np.ndarray:
        p_s = p_path(s)
        return db_apply(model, p_s, y) + _forcing(model, p_s, psi.value(s))

    y = np.zeros(model.K)
    for k in range(len(ts) - 1):
        h = ts[k + 1] - ts[k]
        s = ts[k]
        k1 = rhs(s, y)
        k2 = rhs(s + 0.5 * h, y + 0.5 * h * k1)
        k3 = rhs(s + 0.5 * h, y + 0.5 * h * k2)
        k4 = rhs(s + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        eta[k + 1] = y
    return PathVec(ts, eta)


def skeleton_picard(
    model: RateModel,
    p_path: PathVec,
    psi: JumpControl,
    eta_init: PathVec | None = None,
    max_iter: int = 200,
    tol: float = 1e-12,
) -> PathVec:
    """Fixed-point solve of the skeleton equation from an arbitrary starting
    path.  Exists to demonstrate uniqueness numerically: any starting guess
    contracts to the same solution."""
    ts = p_path.grid
    P = p_path.values
    psi_ts = psi.value(ts)
    F = np.stack([_forcing(model, P[k], psi_ts[k]) for k in range(len(ts))])
    cur = np.zeros((len(ts), model.K)) if eta_init is None else eta_init(ts)
    for _ in range(max_iter):
        integrand = np.stack(
            [db_apply(model, P[k], cur[k]) + F[k] for k in range(len(ts))]
        )
        nxt = np.zeros_like(cur)
        dt = np.diff(ts)
        nxt[1:] = np.cumsum(0.5 * dt[:, None] * (integrand[1:] + integrand[:-1]), axis=0)
        if np.abs(nxt - cur).max() <= tol:
            cur = nxt
            break
        cur = nxt
    return PathVec(ts, cur)


# ---------------------------------------------------------------------------
# control containers and conversions


@dataclass(frozen=True)
class ControlMatrixU:
    """Per-pair control coefficients sampled on a time grid.

    ``values[k, i-1, j-1]`` approximates u_ij at grid[k]; quadratures over
    time use the trapezoid rule on this grid.
    """

    grid: np.ndarray  # (N,)
    values: np.ndarray  # (N, K, K), zero diagonal

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=float).copy()
        idx = np.arange(values.shape[1])
        values[:, idx, idx] = 0.0
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)

    def cost(self) -> float:
        """1/2 * integral of sum_ij u_ij^2 dt (trapezoid)."""
        dens = (self.values**2).sum(axis=(1, 2))
        return 0.5 * float(np.trapezoid(dens, self.grid))


def u_from_psi(model: RateModel, p_path: PathVec, psi: JumpControl) -> ControlMatrixU:
    """Pointwise map psi -> u: u_ij(s) = psi_ij(s) sqrt(p_i(s) Gamma_ij(p(s))),
    zero on cells with vanishing support measure."""
    ts = p_path.grid
    W = cell_weights(model, p_path(ts))
    return ControlMatrixU(ts, psi.value(ts) * np.sqrt(W))


def psi_from_u(
    model: RateModel, p_path: PathVec, u: ControlMatrixU, edges: np.ndarray | None = None
) -> JumpControl:
    """Pointwise map u -> psi: psi_ij(s) = u_ij(s) / sqrt(p_i Gamma_ij(p)) on
    active cells, materialized as a bin field sampled at the left bin edges.

    With ``edges`` equal to the bin edges of a per-cell-constant source field,
    composing with :func:`u_from_psi` is the identity.
    """
    if edges is None:
        edges = u.grid
    lefts = np.asarray(edges[:-1], dtype=float)
    W = cell_weights(model, p_path(lefts))
    idx = np.clip(np.searchsorted(u.grid, lefts, side="right") - 1, 0, len(u.grid) - 1)
    uv = u.values[idx]
    with np.errstate(divide="ignore", invalid="ignore"):
        psi = np.where(W > 0.0, uv / np.sqrt(W), 0.0)
    return JumpControl(np.asarray(edges, dtype=float), psi)


def psi_l2sq(model: RateModel, p_path: PathVec, psi: JumpControl) -> float:
    """Squared L2(lambda) norm of the control field: integral over time of
    sum_ij psi_ij(t)^2 p_i(t) Gamma_ij(p(t)) (trapezoid on the grid of p)."""
    ts = p_path.grid
    W = cell_weights(model, p_path(ts))
    dens = (psi.value(ts) ** 2 * W).sum(axis=(1, 2))
    return float(np.trapezoid(dens, ts))


# ---------------------------------------------------------------------------
# rate functions


@dataclass(frozen=True)
class RateResult:
    """Outcome of a rate evaluation; ``value`` is +inf when infeasible."""

    value: float
    feasible: bool
    residual_ratio: np.ndarray  # per-time orthogonal residual / max(1, ||r||)
    message: str = ""
    detail: dict = field(default_factory=dict)


SVD_RTOL = 1e-10
RESIDUAL_RTOL = 1e-6
MASS_TOL = 1e-10
DIVERGENCE_FACTOR = 1.5
DIVERGENCE_ABS = 1.0


def _eta_derivative(ts: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Second-order finite differences on a uniform grid (one-sided ends)."""
    h = ts[1] - ts[0]
    if not np.allclose(np.diff(ts), h, rtol=1e-8, atol=1e-14 * max(1.0, ts[-1])):
        raise ValueError("rate evaluation expects a uniform time grid")
    d = np.empty_like(vals)
    d[1:-1] = (vals[2:] - vals[:-2]) / (2.0 * h)
    d[0] = (-3.0 * vals[0] + 4.0 * vals[1] - vals[2]) / (2.0 * h)
    d[-1] = (3.0 * vals[-1] - 4.0 * vals[-2] + vals[-3]) / (2.0 * h)
    return d


def _least_norm_pass(
    model: RateModel,
    p_path: PathVec,
    eta: PathVec,
    svd_rtol: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-time least-norm solve; returns (U values, residual ratios, weights)."""
    ts = eta.grid
    K = model.K
    vals = eta.values
    etadot = _eta_derivative(ts, vals)
    P = p_path(ts)
    W = cell_weights(model, P)
    off = ~np.eye(K, dtype=bool)
    U = np.zeros((len(ts), K, K))
    ratio = np.zeros(len(ts))
    for k in range(len(ts)):
        r = etadot[k] - db_apply(model, P[k], vals[k])
        w = W[k][off]
        active = np.nonzero(w > 0.0)[0]
        pairs = np.argwhere(off)[active]
        cols = np.zeros((K, len(active)))
        sq = np.sqrt(w[active])
        for c, (i, j) in enumerate(pairs):
            cols[j, c] += sq[c]
            cols[i, c] -= sq[c]
        if len(active):
            sol, _, _, _ = np.linalg.lstsq(cols, r, rcond=svd_rtol)
            resid = r - cols @ sol
        else:
            sol = np.zeros(0)
            resid = r
        ratio[k] = np.linalg.norm(resid) / max(1.0, np.linalg.norm(r))
        U[k][pairs[:, 0], pairs[:, 1]] = sol
    return U, ratio, W


def _rate_common(
    model: RateModel,
    p_path: PathVec,
    eta: PathVec,
    through_psi: bool,
    svd_rtol: float,
    residual_rtol: float,
    _refine_check: bool = True,
) -> RateResult:
    if eta.grid[-1] > p_path.T + 1e-9 * max(1.0, p_path.T):
        raise ValueError("fluctuation path extends beyond the limit path's horizon")
    vals = eta.values
    scale = max(1.0, float(np.linalg.norm(vals, axis=1).max()))
    if np.linalg.norm(vals[0]) > MASS_TOL * scale:
        return RateResult(math.inf, False, np.zeros(0), "path does not start at zero")
    if np.abs(vals.sum(axis=1)).max() > MASS_TOL * scale:
        return RateResult(math.inf, False, np.zeros(0), "path is not mass-zero")

    U, ratio, W = _least_norm_pass(model, p_path, eta, svd_rtol)
    if ratio.max() > residual_rtol:
        k = int(ratio.argmax())
        return RateResult(
            math.inf,
            False,
            ratio,
            f"forcing leaves the attainable span at t={eta.grid[k]:.6g} "
            f"(orthogonal residual ratio {ratio[k]:.3e})",
            detail={"worst_time": float(eta.grid[k])},
        )
    if through_psi:
        # cost through the field parametrization: integrate psi^2 against the
        # cell measures; identical integrand as sum u^2 on active cells
        with np.errstate(divide="ignore", invalid="ignore"):
            psi_sq = np.where(W > 0.0, U**2 / W, 0.0)
        dens = (psi_sq * W).sum(axis=(1, 2))
        value = 0.5 * float(np.trapezoid(dens, eta.grid))
    else:
        value = ControlMatrixU(eta.grid, U).cost()

    # a genuine discontinuity shows up as cost that grows as the grid
    # resolves it; compare against the half-resolution evaluation (only
    # possible when subsampling keeps the grid uniform)
    if _refine_check and len(eta.grid) >= 9 and (len(eta.grid) - 1) % 2 == 0:
        coarse = _rate_common(
            model,
            p_path,
            eta.restrict_every(2),
            through_psi,
            svd_rtol,
            residual_rtol,
            _refine_check=False,
        )
        if coarse.feasible and value > DIVERGENCE_FACTOR * coarse.value + DIVERGENCE_ABS:
            return RateResult(
                math.inf,
                False,
                ratio,
                "cost diverges under grid refinement (discontinuous path?)",
                detail={"value_full": value, "value_half": coarse.value},
            )
    return RateResult(value, True, ratio)


def rate_I(
    model: RateModel,
    p_path: PathVec,
    eta: PathVec,
    svd_rtol: float = SVD_RTOL,
    residual_rtol: float = RESIDUAL_RTOL,
) -> RateResult:
    """Rate of a fluctuation path in the per-pair parametrization:
    1/2 * integral sum_ij u_ij(t)^2 dt for the least-norm u with
    B(t) u(t) = eta'(t) - Db(p(t)) eta(t)."""
    return _rate_common(model, p_path, eta, False, svd_rtol, residual_rtol)


def rate_Ibar(
    model: RateModel,
    p_path: PathVec,
    eta: PathVec,
    svd_rtol: float = SVD_RTOL,
    residual_rtol: float = RESIDUAL_RTOL,
) -> RateResult:
    """Rate in the field parametrization, 1/2 ||psi*||^2 in L2 of the
    intensity measure, evaluated through the least-norm coefficients and the
    pointwise correspondence psi_ij = u_ij / sqrt(p_i Gamma_ij(p))."""
    return _rate_common(model, p_path, eta, True, svd_rtol, residual_rtol)


def min_norm_u(model: RateModel, p_path: PathVec, eta: PathVec) -> ControlMatrixU:
    """Least-norm per-pair control reproducing eta (no feasibility gating)."""
    U, _, _ = _least_norm_pass(model, p_path, eta, SVD_RTOL)
    return ControlMatrixU(eta.grid, U)
