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

The passes over time slices evaluate BLOCK (256) slices or steps per
batched call.  :func:`solve_p` solves a block's nonlinear RK4 recursion at
once by Newton's method, whose corrections obey an affine recurrence; the
skeleton's RK4 steps are affine maps themselves.  Both compose a block's
affine maps by one prefix scan (:func:`_prefix_products`).  The rate
functions factor each slice once for both the full and the half-grid
refinement pass.  So no Python loop runs over steps, except in the LLN
solve's fallback for a block whose Newton solve fails (and in the Picard
sweeps, per iteration).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .jump_sim import JumpControl, _bin_integral, _check_control, _check_path
from .mf_model import RateModel, _drift, cell_weights, check_simplex, check_states, db_apply
from .paths import PathVec, blocks, time_derivative

__all__ = [
    "RateResult",
    "solve_p",
    "skeleton_G0",
    "skeleton_picard",
    "rate_I",
    "rate_Ibar",
    "psi_l2sq",
    "birth_death_law",
]


# The batched passes below evaluate this many time slices (or steps) per
# call, which bounds their temporaries independently of the grid length.
BLOCK = 256


# ---------------------------------------------------------------------------
# LLN path


def solve_p(model: RateModel, p0: np.ndarray, T: float, n_steps: int = 1024) -> PathVec:
    """Classical RK4 solve of p' = b(p) on a uniform grid from p0, which
    must have K entries and lie on the simplex (:func:`check_simplex`).

    Each block of BLOCK steps is solved at once by Newton's method
    (:func:`_newton_block`), with no Python loop over steps.  A block whose
    Newton solve does not converge, goes non-finite or leaves the simplex
    falls back to stepping one RK4 step at a time, where a step producing
    negative mass beyond tolerance is retried at half size.  The drift sums
    to zero analytically, so the mass defect is pure round-off; it is
    renormalized away whenever it exceeds 1e-12.  Needs n_steps >= 1 and a
    finite horizon T > 0.
    """
    if n_steps < 1:
        raise ValueError(f"the LLN solve needs at least 1 step; got n_steps={n_steps}")
    if not (math.isfinite(T) and T > 0):
        raise ValueError(f"the LLN solve needs a finite horizon T > 0; got T={T}")
    p0 = check_simplex(check_states(p0, model.K))
    grid = np.linspace(0.0, T, n_steps + 1)
    vals = np.empty((n_steps + 1, model.K))
    vals[0] = p0
    h = T / n_steps
    for b in blocks(n_steps, BLOCK):
        out = vals[b.start + 1 : b.stop + 1]
        if not _newton_block(model, vals[b.start], h, out):
            p = vals[b.start]
            for k in range(len(out)):
                p = out[k] = _rk4_step_simplex(model, p, h, depth=0)
    return PathVec(grid, vals)


NEWTON_MAX_ITER = 20
NEWTON_TOL = 1e-15


def _newton_block(model: RateModel, p0: np.ndarray, h: float, out: np.ndarray) -> bool:
    """Solve the RK4 recursion p_{k+1} = Phi_h(p_k) from p0 for all n rows
    of ``out`` (n, K) at once by Newton's method.

    From the constant guess p_k = p0, each iteration evaluates Phi_h and its
    Jacobian J_k at every step of the block in one batched pass.  The
    correction obeys delta_{k+1} = J_k delta_k + Phi_h(p_k) - p_{k+1},
    delta_0 = 0, an affine recurrence that a prefix scan
    (:func:`_prefix_products`) solves for all k.  Iterates until
    max |delta| <= NEWTON_TOL.  Returns False, with ``out`` undefined, when
    the iteration does not converge within NEWTON_MAX_ITER, goes non-finite,
    or converges to a path leaving the simplex beyond tolerance.
    """
    n, K = out.shape
    P = np.empty((n + 1, K))
    P[:] = p0
    M = np.zeros((n, K + 1, K + 1))
    M[:, K, K] = 1.0  # the scan keeps the row (0, .., 0, 1)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(NEWTON_MAX_ITER):
            Y, stages = _rk4_map(model, P[:-1], h)
            M[:, :K, :K] = _rk4_maps(*model.db(np.stack(stages)), h)
            M[:, :K, K] = Y - P[1:]
            delta = _prefix_products(M)[:, :K, K]
            if not np.isfinite(delta).all():
                return False
            P[1:] += delta
            if np.abs(delta).max() <= NEWTON_TOL:
                break
        else:
            return False
    P = P[1:]
    if P.min() < -1e-9 * max(h, 1.0):
        return False
    s = P.sum(axis=1, keepdims=True)
    out[:] = np.where(np.abs(s - 1.0) > 1e-12, P / s, P)
    return True


def _rk4_map(model: RateModel, X: np.ndarray, h: float) -> tuple[np.ndarray, tuple]:
    """One classical RK4 step Phi_h(X) of p' = b(p) from states X (..., K),
    and the four stage states at which it evaluates the drift."""
    k1 = _drift(model, X)
    X2 = X + 0.5 * h * k1
    k2 = _drift(model, X2)
    X3 = X + 0.5 * h * k2
    k3 = _drift(model, X3)
    X4 = X + h * k3
    k4 = _drift(model, X4)
    return X + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4), (X, X2, X3, X4)


def _rk4_step_simplex(model: RateModel, p: np.ndarray, h: float, depth: int) -> np.ndarray:
    """One RK4 step from p, retried as two half steps (to depth 20) while it
    leaves the simplex beyond tolerance."""
    out, _ = _rk4_map(model, p, h)
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


def _forcing(model: RateModel, P: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Exact per-cell integral of the jump map against psi: sum over cells of
    (e_j - e_i) psi_ij w_ij, for states P of shape (..., K)."""
    M = psi * cell_weights(model, P)
    return M.sum(axis=-2) - M.sum(axis=-1)


def _rk4_maps(
    A1: np.ndarray, A2: np.ndarray, A3: np.ndarray, A4: np.ndarray, h: np.ndarray | float
) -> np.ndarray:
    """Linearized RK4 steps: the maps M_k with d(y_{k+1}) = M_k d(y_k) for
    the stage derivatives A1 .. A4 (n, d, d) of step k, each taken at its
    stage's state; h holds the step lengths, (n,) or one for all steps.

    For eta' = A(t) eta + F(t) in homogeneous coordinates, with the
    generators [[A, F], [0, 0]] at the step's start, midpoint (twice) and
    end, M_k is the step's affine map: (eta_{k+1}, 1) = M_k (eta_k, 1).  For
    p' = b(p), with A_i = Db at the four stage states, it is the Jacobian of
    the RK4 map."""
    hh = np.reshape(h, (-1, 1, 1))
    # stage derivatives d(k_i) = S_i d(y); d(k_1) = A1 d(y)
    S2 = A2 + (0.5 * hh) * (A2 @ A1)
    S3 = A3 + (0.5 * hh) * (A3 @ S2)
    S4 = A4 + hh * (A4 @ S3)
    M = (hh / 6.0) * (A1 + 2.0 * S2 + 2.0 * S3 + S4)
    diag = np.arange(A1.shape[-1])
    M[:, diag, diag] += 1.0
    return M


def _prefix_products(M: np.ndarray) -> np.ndarray:
    """Inclusive prefix products M_k ... M_1 M_0 of a stack of square
    matrices, in place, by doubling: ceil(log2 n) batched products."""
    d = 1
    while d < len(M):
        M[d:] = M[d:] @ M[:-d]
        d *= 2
    return M


def _check_skeleton_inputs(model: RateModel, p_path: PathVec, psi: JumpControl) -> None:
    """Raise unless p and the control both have the model's K states and
    the control covers the horizon of p."""
    _check_path("p_path", p_path, p_path.T, model.K)
    _check_control(psi, p_path.T, model.K)


def skeleton_G0(model: RateModel, p_path: PathVec, psi: JumpControl) -> PathVec:
    """Fluctuation limit eta = G0(psi): the unique solution of the linear
    equation eta' = Db(p(t)) eta + f(t), eta(0) = 0, with per-cell forcing
    f(t) = sum (e_j - e_i) psi_ij(t) p_i(t) Gamma_ij(p(t)).

    Solved by RK4 on the grid of p; linear in psi.  The Jacobian and forcing
    at the stage times of a block of steps come from one batched call.  With
    p interpolated linearly each step is an affine map of eta, so a block's
    steps compose by a prefix scan (:func:`_prefix_products`) and no Python
    loop runs over steps.  p and the control must have the model's K states,
    and the control must cover the horizon of p.
    """
    _check_skeleton_inputs(model, p_path, psi)
    ts = p_path.grid
    K = model.K
    eta = np.zeros((len(ts), K))
    y = np.append(eta[0], 1.0)
    for b in blocks(len(ts) - 1, BLOCK):
        h = ts[b.start + 1 : b.stop + 1] - ts[b]
        # stage times of step k at 2k (start), 2k + 1 (midpoint), 2k + 2 (end)
        s = np.empty(2 * len(h) + 1)
        s[0::2] = ts[b.start : b.stop + 1]
        s[1::2] = ts[b] + 0.5 * h
        P = p_path(s)
        G = np.zeros((len(s), K + 1, K + 1))
        G[:, :K, :K] = model.db(P)
        G[:, :K, K] = _forcing(model, P, psi.value(s))
        M = _prefix_products(_rk4_maps(G[0:-1:2], G[1::2], G[1::2], G[2::2], h))
        eta[b.start + 1 : b.stop + 1] = M[:, :K] @ y
        y[:K] = eta[b.stop]
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
    once a sweep moves the path by at most PICARD_TOL.  ``eta_init``, when
    given, must have the model's K coordinates and cover the horizon of p."""
    _check_skeleton_inputs(model, p_path, psi)
    if eta_init is not None:
        _check_path("eta_init", eta_init, p_path.T, model.K)
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
# control norm


def psi_l2sq(model: RateModel, p_path: PathVec, psi: JumpControl) -> float:
    """Squared L2(lambda) norm of the control field: integral over time of
    sum_ij psi_ij(t)^2 p_i(t) Gamma_ij(p(t)), each bin on its own side of
    its edges (see :func:`_bin_integral`)."""
    _check_skeleton_inputs(model, p_path, psi)
    return _bin_integral(model, p_path, psi.edges, psi.psi**2)


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


def _slice_blocks(model: RateModel, p_path: PathVec, eta: PathVec, halve: bool):
    """Yield (W, forcings) per block of grid times: the cell weights
    w_ij = p_i Gamma_ij(p) at the block's slices and the forcings a control
    must produce there, as (rows, sel, r): r at the block's slices ``sel``,
    its results bound for ``rows`` of the output grid.  The first forcing is
    r = eta' - Db(p)[eta] on the grid of eta.  With ``halve`` a second one
    follows, that of the half-grid path eta.restrict_every(2) at the block's
    even slices; blocks start at multiples of BLOCK, which is even, so those
    slices are its [::2] rows, and the two forcings differ only in eta'."""
    ts = eta.grid
    etadot = time_derivative(ts, eta.values)
    if halve:
        etadot_h = time_derivative(ts[::2], eta.values[::2])
    for b in blocks(len(ts), BLOCK):
        P = p_path(ts[b])
        drift = db_apply(model, P, eta.values[b])
        forcings = [(b, slice(None), etadot[b] - drift)]
        if halve:
            rows = slice(b.start // 2, (b.stop + 1) // 2)
            forcings.append((rows, slice(None, None, 2), etadot_h[rows] - drift[::2]))
        yield cell_weights(model, P), forcings


def _outputs(n: int, halve: bool) -> list[tuple[np.ndarray, np.ndarray]]:
    """(cost density, residual ratios) buffers per forcing of
    :func:`_slice_blocks` on a grid of n points."""
    sizes = [n, (n + 1) // 2] if halve else [n]
    return [(np.empty(k), np.empty(k)) for k in sizes]


def _apply_pinv(X: np.ndarray, Xp: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x = X^+ r per slice, from the factored pseudoinverse Xp, and the
    orthogonal residual of r relative to max(1, ||r||)."""
    x = Xp @ r[..., None]
    reached = (X @ x)[..., 0]
    nr = np.linalg.norm(r, axis=-1)
    return x[..., 0], np.linalg.norm(r - reached, axis=-1) / np.maximum(1.0, nr)


def _svd_density(model, p_path, eta, halve):
    """Cost density sum_ij u_ij^2 of the least-norm coefficients u with
    B u = r, and the residual ratios, per forcing of :func:`_slice_blocks`:
    one SVD pseudoinversion per slice of the column stack
    B = [(e_j - e_i) sqrt(w_ij)] over the cells (i, j) with weight somewhere
    in the block."""
    K = model.K
    out = _outputs(len(eta.grid), halve)
    for W, forcings in _slice_blocks(model, p_path, eta, halve):
        I, J = np.nonzero((W > 0.0).any(axis=0))
        pair = np.arange(len(I))
        sq = np.sqrt(W[:, I, J])
        B = np.zeros((len(sq), K, len(I)))
        B[:, J, pair] = sq
        B[:, I, pair] = -sq
        Bp = np.linalg.pinv(B, rcond=SVD_RTOL)
        for (dens, ratio), (rows, sel, r) in zip(out, forcings):
            u, ratio[rows] = _apply_pinv(B[sel], Bp[sel], r)
            # a cell with zero weight at a slice carries no control there
            dens[rows] = (np.where(sq[sel] > 0.0, u, 0.0) ** 2).sum(axis=-1)
    return out


def _laplacian_density(model, p_path, eta, halve):
    """Cost density r^T theta, theta = L_w^+ r, with the graph Laplacian
    L_w = diag((W + W^T) 1) - (W + W^T) = B B^T, and the residual ratios,
    per forcing of :func:`_slice_blocks`.  SVD_RTOL cuts the eigenvalues of
    L_w (squared singular values of B): SVD_RTOL**2 would lie below their
    round-off and keep null directions."""
    diag = np.arange(model.K)
    out = _outputs(len(eta.grid), halve)
    for W, forcings in _slice_blocks(model, p_path, eta, halve):
        S = W + np.swapaxes(W, -1, -2)
        L = -S
        L[:, diag, diag] += S.sum(axis=-1)
        Lp = np.linalg.pinv(L, rcond=SVD_RTOL, hermitian=True)
        for (dens, ratio), (rows, sel, r) in zip(out, forcings):
            theta, ratio[rows] = _apply_pinv(L[sel], Lp[sel], r)
            dens[rows] = (r * theta).sum(axis=-1)
    return out


def _rate_common(model: RateModel, p_path: PathVec, eta: PathVec, density) -> RateResult:
    """Gate a path, integrate the cost density of
    ``density(model, p_path, eta, halve)`` (per forcing of
    :func:`_slice_blocks`: cost density, residual ratios) over its grid, and
    check refinement against the half-grid forcing of the same pass."""
    _check_path("eta", eta, eta.T, model.K)
    _check_path("p_path", p_path, eta.T, model.K)
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

    (dens, ratio), *halved = density(model, p_path, eta, refine == "ran")
    value = 0.5 * float(np.trapezoid(dens, eta.grid))
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
    if halved:
        [(dens_h, ratio_h)] = halved
        value_h = 0.5 * float(np.trapezoid(dens_h, eta.grid[::2]))
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
    graph Laplacian of the cells.  It never forms the least-norm u, but it
    shares the slices and the forcing r of :func:`_slice_blocks` with
    :func:`rate_I`, so it checks only the solve, not what the two share."""
    return _rate_common(model, p_path, eta, _laplacian_density)


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
