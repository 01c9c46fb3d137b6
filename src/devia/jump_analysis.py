"""Deterministic limit objects for the jump model.

Contains the law-of-large-numbers ODE p' = b(p), the linear skeleton map
taking a per-cell control field psi to the fluctuation limit eta, and the
rate-function evaluators that invert a given path eta back to a least-norm
control.  :func:`birth_death_law` gives the exact finite-m law of a count
process that is a birth-death chain, such as the two-state chain's.

The rate function has two parametrizations: the field psi on the
point-space cells (cost = 1/2 * L2(lambda) norm squared) and the per-pair
coefficients u_ij(s) = psi_ij(s) sqrt(p_i Gamma_ij(p)) (cost = 1/2 *
integral of sum u_ij^2).  The forcing a path eta requires is

    r(t) = eta'(t) - Db(p(t))[eta(t)]

and must lie in the span of the columns (e_j - e_i) sqrt(w_ij) of B(t),
w_ij = p_i Gamma_ij(p).  :func:`rate_I` takes the primal route, the
least-norm u = B^+ r by SVD; :func:`rate_Ibar` the dual, r^T L_w^+ r with
the graph Laplacian L_w = B B^T = diag((W + W^T) 1) - (W + W^T), never
forming u.  Paths whose residual leaves the span beyond tolerance, or whose
cost diverges under grid coarsening (the numerical signature of a
discontinuity), are reported infeasible, i.e. rate value infinity;
``detail["refine_check"]`` says whether the coarsening check ran.

The passes over time slices evaluate BLOCK (256) slices or skeleton steps
per batched call; only the RK4 and Picard recurrences loop in Python.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .jump_sim import JumpControl
from .mf_model import RateModel, _drift, cell_weights, check_simplex, check_states, db_apply
from .paths import PathVec, blocks, time_derivative

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
    "birth_death_law",
]


# ---------------------------------------------------------------------------
# LLN path


def solve_p(model: RateModel, p0: np.ndarray, T: float, n_steps: int = 1024) -> PathVec:
    """Classical RK4 solve of p' = b(p) on a uniform grid from p0, which
    must have K entries and lie on the simplex (:func:`check_simplex`).

    The drift sums to zero analytically, so the mass defect is pure round-off;
    it is renormalized away whenever it exceeds 1e-12.  A step producing
    negative mass beyond tolerance is retried at half size.
    """
    p0 = check_simplex(check_states(p0, model.K))
    grid = np.linspace(0.0, T, n_steps + 1)
    vals = np.empty((n_steps + 1, model.K))
    vals[0] = p0
    p = p0.copy()
    h = T / n_steps
    for k in range(n_steps):
        p = _rk4_step_simplex(model, p, h, depth=0)
        vals[k + 1] = p
    return PathVec(grid, vals)


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

# The batched passes below evaluate this many time slices (or steps) per
# call, which bounds their temporaries independently of the grid length.
BLOCK = 256


def _forcing(model: RateModel, P: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Exact per-cell integral of the jump map against psi: sum over cells of
    (e_j - e_i) psi_ij w_ij, for states P of shape (..., K)."""
    M = psi * cell_weights(model, P)
    return M.sum(axis=-2) - M.sum(axis=-1)


def skeleton_G0(model: RateModel, p_path: PathVec, psi: JumpControl) -> PathVec:
    """Fluctuation limit eta = G0(psi): the unique solution of the linear
    equation eta' = Db(p(t)) eta + f(t), eta(0) = 0, with per-cell forcing
    f(t) = sum (e_j - e_i) psi_ij(t) p_i(t) Gamma_ij(p(t)).

    Solved by RK4 on the grid of p; linear in psi.  The Jacobian and forcing
    at the stage times of a block of steps come from one batched call.
    """
    ts = p_path.grid
    eta = np.zeros((len(ts), model.K))
    y = eta[0]
    for b in blocks(len(ts) - 1, BLOCK):
        h = ts[b.start + 1 : b.stop + 1] - ts[b]
        # stage times of step k at 2k (start), 2k + 1 (midpoint), 2k + 2 (end)
        s = np.empty(2 * len(h) + 1)
        s[0::2] = ts[b.start : b.stop + 1]
        s[1::2] = ts[b] + 0.5 * h
        P = p_path(s)
        A = model.db(P)
        F = _forcing(model, P, psi.value(s))
        for k, hk in enumerate(h):
            j = 2 * k
            k1 = A[j] @ y + F[j]
            k2 = A[j + 1] @ (y + 0.5 * hk * k1) + F[j + 1]
            k3 = A[j + 1] @ (y + 0.5 * hk * k2) + F[j + 1]
            k4 = A[j + 2] @ (y + hk * k3) + F[j + 2]
            y = y + (hk / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            eta[b.start + k + 1] = y
    return PathVec(ts, eta)


PICARD_MAX_ITER = 200
PICARD_TOL = 1e-12


def skeleton_picard(
    model: RateModel,
    p_path: PathVec,
    psi: JumpControl,
    eta_init: PathVec | None = None,
) -> PathVec:
    """Fixed-point solve of the skeleton equation from an arbitrary starting
    path.  Exists to demonstrate uniqueness numerically: any starting guess
    contracts to the same solution.  Stops after PICARD_MAX_ITER sweeps or
    once a sweep moves the path by at most PICARD_TOL."""
    ts = p_path.grid
    P = p_path.values
    A = model.db(P)
    F = _forcing(model, P, psi.value(ts))
    cur = np.zeros((len(ts), model.K)) if eta_init is None else eta_init(ts)
    dt = np.diff(ts)
    for _ in range(PICARD_MAX_ITER):
        integrand = (A @ cur[..., None])[..., 0] + F
        nxt = np.zeros_like(cur)
        nxt[1:] = np.cumsum(0.5 * dt[:, None] * (integrand[1:] + integrand[:-1]), axis=0)
        if np.abs(nxt - cur).max() <= PICARD_TOL:
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


def _slice_blocks(model: RateModel, p_path: PathVec, eta: PathVec):
    """Yield (slices, W, r) per block of grid times: the cell weights
    w_ij = p_i Gamma_ij(p) and the forcing r = eta' - Db(p)[eta] that a
    control must produce there."""
    ts = eta.grid
    etadot = time_derivative(ts, eta.values)
    for b in blocks(len(ts), BLOCK):
        P = p_path(ts[b])
        yield b, cell_weights(model, P), etadot[b] - db_apply(model, P, eta.values[b])


def _residual_ratio(r: np.ndarray, reached: np.ndarray) -> np.ndarray:
    """Orthogonal residual of r per slice, relative to max(1, ||r||)."""
    nr = np.linalg.norm(r, axis=-1)
    return np.linalg.norm(r - reached, axis=-1) / np.maximum(1.0, nr)


def _least_norm_pass(
    model: RateModel, p_path: PathVec, eta: PathVec
) -> tuple[np.ndarray, np.ndarray]:
    """Least-norm coefficients u with B u = r per slice, by SVD
    pseudoinversion of the column stack B = [(e_j - e_i) sqrt(w_ij)];
    returns (U values (N, K, K), residual ratios (N,))."""
    K = model.K
    U = np.zeros((len(eta.grid), K, K))
    ratio = np.empty(len(eta.grid))
    for b, W, r in _slice_blocks(model, p_path, eta):
        # only cells with weight somewhere in the block give columns
        I, J = np.nonzero((W > 0.0).any(axis=0))
        pair = np.arange(len(I))
        sq = np.sqrt(W[:, I, J])
        B = np.zeros((len(sq), K, len(I)))
        B[:, J, pair] = sq
        B[:, I, pair] = -sq
        u = np.linalg.pinv(B, rcond=SVD_RTOL) @ r[..., None]
        ratio[b] = _residual_ratio(r, (B @ u)[..., 0])
        # a cell with zero weight at a slice carries no control there
        U[b, I, J] = np.where(sq > 0.0, u[..., 0], 0.0)
    return U, ratio


def _svd_density(model, p_path, eta):
    """Cost density sum_ij u_ij^2 of the least-norm coefficients."""
    U, ratio = _least_norm_pass(model, p_path, eta)
    return (U**2).sum(axis=(1, 2)), ratio


def _laplacian_density(model, p_path, eta):
    """Cost density r^T theta, theta = L_w^+ r, with the graph Laplacian
    L_w = diag((W + W^T) 1) - (W + W^T) = B B^T.  SVD_RTOL cuts the
    eigenvalues of L_w (squared singular values of B): SVD_RTOL**2 would lie
    below their round-off and keep null directions."""
    diag = np.arange(model.K)
    dens = np.empty(len(eta.grid))
    ratio = np.empty(len(eta.grid))
    for b, W, r in _slice_blocks(model, p_path, eta):
        S = W + np.swapaxes(W, -1, -2)
        L = -S
        L[:, diag, diag] += S.sum(axis=-1)
        theta = np.linalg.pinv(L, rcond=SVD_RTOL, hermitian=True) @ r[..., None]
        dens[b] = (r * theta[..., 0]).sum(axis=-1)
        ratio[b] = _residual_ratio(r, (L @ theta)[..., 0])
    return dens, ratio


def _rate_common(model: RateModel, p_path: PathVec, eta: PathVec, density) -> RateResult:
    """Gate a path, integrate ``density(model, p_path, eta)`` -> (cost
    density, residual ratios) over its grid, and check refinement."""
    if eta.grid[-1] > p_path.T + 1e-9 * max(1.0, p_path.T):
        raise ValueError("fluctuation path extends beyond the limit path's horizon")
    n = len(eta.grid)
    if n < 9:
        refine = f"skipped: {n} grid points, fewer than 9"
    elif (n - 1) % 2:
        refine = f"skipped: {n - 1} grid intervals, an odd number"
    else:
        refine = "ran"
    early = {"refine_check": "skipped: path infeasible before the check"}
    vals = eta.values
    scale = max(1.0, float(np.linalg.norm(vals, axis=1).max()))
    if np.linalg.norm(vals[0]) > MASS_TOL * scale:
        return RateResult(math.inf, False, np.zeros(0), "path does not start at zero", early)
    if np.abs(vals.sum(axis=1)).max() > MASS_TOL * scale:
        return RateResult(math.inf, False, np.zeros(0), "path is not mass-zero", early)

    def cost(path: PathVec) -> tuple[float, np.ndarray]:
        dens, ratio = density(model, p_path, path)
        return 0.5 * float(np.trapezoid(dens, path.grid)), ratio

    value, ratio = cost(eta)
    if ratio.max() > RESIDUAL_RTOL:
        k = int(ratio.argmax())
        return RateResult(
            math.inf,
            False,
            ratio,
            f"forcing leaves the attainable span at t={eta.grid[k]:.6g} "
            f"(orthogonal residual ratio {ratio[k]:.3e})",
            detail={"worst_time": float(eta.grid[k]), **early},
        )

    # a genuine discontinuity shows up as cost that grows as the grid
    # resolves it; compare against the half-resolution evaluation (only
    # possible when subsampling keeps the grid uniform)
    if refine == "ran":
        value_h, ratio_h = cost(eta.restrict_every(2))
        if ratio_h.max() <= RESIDUAL_RTOL and value > DIVERGENCE_FACTOR * value_h + DIVERGENCE_ABS:
            return RateResult(
                math.inf,
                False,
                ratio,
                "cost diverges under grid refinement (discontinuous path?)",
                detail={"value_full": value, "value_half": value_h, "refine_check": refine},
            )
    return RateResult(value, True, ratio, detail={"refine_check": refine})


def rate_I(model: RateModel, p_path: PathVec, eta: PathVec) -> RateResult:
    """Rate of a fluctuation path through the primal problem:
    1/2 * integral sum_ij u_ij(t)^2 dt for the least-norm u with
    B(t) u(t) = eta'(t) - Db(p(t)) eta(t), by SVD of B(t)."""
    return _rate_common(model, p_path, eta, _svd_density)


def rate_Ibar(model: RateModel, p_path: PathVec, eta: PathVec) -> RateResult:
    """Rate of a fluctuation path through the dual problem: 1/2 * integral
    of r^T L_w^+ r dt, r = eta' - Db(p) eta, with L_w = B B^T the weighted
    graph Laplacian of the cells.  It never forms the least-norm u, so it
    checks :func:`rate_I` independently."""
    return _rate_common(model, p_path, eta, _laplacian_density)


def min_norm_u(model: RateModel, p_path: PathVec, eta: PathVec) -> ControlMatrixU:
    """Least-norm per-pair control reproducing eta (no feasibility gating)."""
    U, _ = _least_norm_pass(model, p_path, eta)
    return ControlMatrixU(eta.grid, U)


# ---------------------------------------------------------------------------
# exact finite-m law

UNIFORMIZATION_STEP = 30.0  # Lambda * dt per piece; e^{-30} ~ 1e-13 is far from underflow
SERIES_RTOL = 1e-17  # a piece's series stops once every term is this small against its sum


def birth_death_law(up, down, T: float, k0: int) -> np.ndarray:
    """Exact time-T law of a birth-death chain on {0..m} started at k0;
    ``up[k]`` is the rate of k -> k+1 and ``down[k]`` that of k -> k-1.

    Uniformization: with Lambda = max(up + down) and the tridiagonal
    stochastic matrix P = I + Q/Lambda, the law after time dt is
    sum_n Poisson(Lambda dt; n) v P^n.  [0, T] is cut into pieces with
    Lambda dt <= UNIFORMIZATION_STEP, so the Poisson weights never underflow
    (at m = 10^3 and rate 1 a single step would).  Every term is
    nonnegative, and a piece's series runs until each term is negligible
    against its entry's sum, so even tiny tail probabilities keep their
    relative precision.  The cost is O(m * Lambda T) for all m + 1 entries.
    """
    up = np.asarray(up, dtype=float)
    down = np.asarray(down, dtype=float)
    if up.ndim != 1 or up.shape != down.shape or len(up) < 1:
        raise ValueError("up and down must be rate vectors of one length m + 1")
    if not (np.all(np.isfinite(up)) and np.all(np.isfinite(down))):
        raise ValueError("rates must be finite")
    if up.min() < 0 or down.min() < 0 or up[-1] != 0 or down[0] != 0:
        raise ValueError("rates must be nonnegative, with no birth at m and no death at 0")
    if not (math.isfinite(T) and T >= 0):
        raise ValueError("need a finite horizon T >= 0")
    if not 0 <= k0 < len(up):
        raise ValueError("the start k0 must lie in {0..m}")
    v = np.zeros(len(up))
    v[k0] = 1.0
    lam = float((up + down).max())
    if lam == 0.0 or T == 0.0:
        return v
    pieces = math.ceil(lam * T / UNIFORMIZATION_STEP)
    x = lam * T / pieces
    stay = 1.0 - (up + down) / lam
    births, deaths = up[:-1] / lam, down[1:] / lam
    for _ in range(pieces):
        term = v * math.exp(-x)  # Poisson(x; n) v P^n, from n = 0
        v = term.copy()
        n = 0
        while True:
            n += 1
            nxt = stay * term
            nxt[1:] += births * term[:-1]
            nxt[:-1] += deaths * term[1:]
            term = nxt * (x / n)
            v += term
            if n > x and np.all(term <= SERIES_RTOL * v):
                break
    return v
