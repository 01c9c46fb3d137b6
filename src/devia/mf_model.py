"""Model layer for the mean-field jump system.

States live on {1..K} and the empirical measure is a point of the truncated
probability simplex in R^K.  A :class:`RateModel` supplies the state-dependent
rate matrix Gamma(q) and the Jacobian of the drift, both batched over any
leading axes of q, together with the constants that the bound checks need
(sup row sum, sup column sum, Lipschitz constant).

The point-space geometry maps each ordered pair (i, j), i != j, to a
rectangular cell in the positive quadrant: first coordinate in (i-1, i],
second coordinate in ((j-1)*gamma_norm, (j-1)*gamma_norm + q_i*Gamma_ij(q)].
The jump map G sends a point of the quadrant to e_j - e_i when it lands in
cell (i, j), else to zero, and the drift is the intensity-weighted sum of the
jump directions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "RateModel",
    "JumpCell",
    "check_simplex",
    "check_states",
    "random_simplex",
    "cell_measure",
    "cell_weights",
    "jump_cell",
    "jump_map_G",
    "drift_b",
    "drift_b_cellsum",
    "db_apply",
    "ell_cost",
    "lipschitz_gamma5",
    "birth_death_model",
    "constant_rate_model",
    "two_state_model",
]

SIMPLEX_TOL = 1e-12


def check_simplex(q: np.ndarray) -> np.ndarray:
    """Validate a probability vector (entries >= -SIMPLEX_TOL, sum 1 within
    max(SIMPLEX_TOL, 1e-9 K))."""
    q = np.asarray(q, dtype=float)
    if q.ndim != 1:
        raise ValueError("simplex vector must be one-dimensional")
    if np.any(q < -SIMPLEX_TOL):
        raise ValueError(f"negative mass: min entry {q.min():.3e}")
    s = q.sum()
    if abs(s - 1.0) > max(SIMPLEX_TOL, 1e-9 * len(q)):
        raise ValueError(f"mass not normalized: sum = {float(s)!r}")
    return q


def check_states(q: np.ndarray, K: int) -> np.ndarray:
    """q as a float vector, after checking that it has one entry per state
    of a K-state model."""
    q = np.asarray(q, dtype=float)
    if q.shape != (K,):
        raise ValueError(f"the initial law has {q.size} entries; the model has K = {K}")
    return q


def random_simplex(K: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform (Dirichlet(1,..,1)) point of the K-simplex."""
    return rng.dirichlet(np.ones(K))


@dataclass(frozen=True)
class RateModel:
    """State-dependent rate matrix on {1..K} with its certified constants.

    ``rate_matrix(q)`` maps states of shape (..., K) to the (..., K, K)
    arrays of off-diagonal rates Gamma_ij(q) (zero diagonal); the diagonal is
    implied, Gamma_ii = -row sum.  ``db(q)`` maps the same states to the
    (..., K, K) Jacobians of the drift.  Both are batched over the leading
    axes, and a family defines each once.  ``gamma_norm``, ``c_gamma`` and
    ``l_gamma`` must be valid upper bounds for the sup row sum, sup column
    l1-norm (diagonal included) and the row-wise Lipschitz constant of Gamma;
    the bound-check suite treats them as exact contract values.
    """

    K: int
    rate_matrix: Callable[[np.ndarray], np.ndarray]
    gamma_norm: float
    c_gamma: float
    l_gamma: float
    band: int
    db: Callable[[np.ndarray], np.ndarray]
    name: str = ""
    params: dict = field(default_factory=dict)

    def rates_batch(self, Q: np.ndarray) -> np.ndarray:
        """Rate matrices for a batch of states, shape (..., K) -> (..., K, K)."""
        return self.rate_matrix(np.asarray(Q, dtype=float))


@dataclass(frozen=True)
class JumpCell:
    """Cell of the point space carrying the (i -> j) jumps at state q."""

    i: int
    j: int
    y2_lo: float
    y2_hi: float

    @property
    def length(self) -> float:
        return self.y2_hi - self.y2_lo

    def contains(self, y: tuple[float, float]) -> bool:
        y1, y2 = y
        return (self.i - 1 < y1 <= self.i) and (self.y2_lo < y2 <= self.y2_hi)


def _check_pair(K: int, i: int, j: int) -> None:
    if not (1 <= i <= K and 1 <= j <= K):
        raise ValueError(f"state pair ({i},{j}) out of range 1..{K}")
    if i == j:
        raise ValueError("cell indices must satisfy i != j")


def cell_measure(model: RateModel, q: np.ndarray, i: int, j: int) -> float:
    """Lebesgue measure q_i * Gamma_ij(q) of cell (i, j) at state q."""
    _check_pair(model.K, i, j)
    q = check_simplex(q)
    return float(q[i - 1] * model.rate_matrix(q)[i - 1, j - 1])


def cell_weights(model: RateModel, P: np.ndarray) -> np.ndarray:
    """Support-cell measures w_ij = p_i Gamma_ij(p) of the states P,
    shape (..., K) -> (..., K, K)."""
    return P[..., :, None] * model.rates_batch(P)


def jump_cell(model: RateModel, q: np.ndarray, i: int, j: int) -> JumpCell:
    _check_pair(model.K, i, j)
    lo = (j - 1) * model.gamma_norm
    return JumpCell(i=i, j=j, y2_lo=lo, y2_hi=lo + cell_measure(model, q, i, j))


def jump_map_G(model: RateModel, q: np.ndarray, y: tuple[float, float]) -> np.ndarray:
    """Jump direction e_j - e_i if y lies in cell (i, j), else zero.

    Total on the closed positive quadrant; the result norm is 0 or sqrt(2).
    """
    q = check_simplex(q)
    out = np.zeros(model.K)
    y1, y2 = float(y[0]), float(y[1])
    if y1 < 0 or y2 < 0:
        raise ValueError("point must have nonnegative coordinates")
    gn = model.gamma_norm
    if gn <= 0 or y1 <= 0 or y2 <= 0:
        return out
    i = math.ceil(y1)
    if i > model.K:
        return out
    # strips are left-open/right-closed in both coordinates
    k = math.floor(y2 / gn)
    j = k if (k >= 1 and y2 == k * gn) else k + 1
    if j > model.K or j == i:
        return out
    offset = y2 - (j - 1) * gn
    if 0.0 < offset <= q[i - 1] * model.rate_matrix(q)[i - 1, j - 1]:
        out[j - 1] = 1.0
        out[i - 1] = -1.0
    return out


def _drift(model: RateModel, q: np.ndarray) -> np.ndarray:
    """b(q) = R(q)^T q - (R(q) 1) * q at any states q of shape (..., K);
    the ODE stages evaluate it off the simplex."""
    R = model.rates_batch(q)
    return (q[..., None, :] @ R)[..., 0, :] - R.sum(axis=-1) * q


def drift_b(model: RateModel, q: np.ndarray) -> np.ndarray:
    """Drift b(q): b_i = sum_j q_j Gamma_ji(q), diagonal = minus row sum."""
    return _drift(model, check_simplex(q))


def drift_b_cellsum(model: RateModel, q: np.ndarray) -> np.ndarray:
    """Independent form of the drift: sum over cells of (e_j - e_i) times
    the cell measure.  Used as the cross-check oracle against drift_b."""
    q = check_simplex(q)
    R = model.rate_matrix(q)
    out = np.zeros(model.K)
    for i in range(model.K):
        for j in range(model.K):
            if i == j:
                continue
            w = q[i] * R[i, j]
            out[j] += w
            out[i] -= w
    return out


def db_apply(model: RateModel, q: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Apply the drift derivative, Db(q)[h], broadcast over the leading axes
    of q and h (both of shape (..., K))."""
    q = np.asarray(q, dtype=float)
    h = np.asarray(h, dtype=float)
    if h.shape != q.shape:
        raise ValueError("direction must match state dimension")
    return (model.db(q) @ h[..., None])[..., 0]


def ell_cost(r):
    """Thinning cost per unit intensity: r log r - r + 1, with value 1 at 0."""
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise ValueError("cost argument must be nonnegative")
    # libm's log, unlike numpy's SIMD one, gives the bytes of
    # scipy.special.xlogy(r, r); phi is piecewise constant, so taking the
    # logs over the distinct values keeps the Python loop short
    vals, where = np.unique(r, return_inverse=True)
    rlogr = np.array([v * math.log(v) if v else 0.0 for v in vals.tolist()])
    out = rlogr[where].reshape(r.shape) - r + 1.0
    # clip the tiny negative round-off near the minimum at r = 1
    out = np.maximum(out, 0.0)
    return float(out) if out.ndim == 0 else out


def lipschitz_gamma5(model: RateModel) -> float:
    """Constant in the cell-sum Lipschitz bound for weighted jump averages:
    2 * sqrt(gamma_norm^2 + 2 l_gamma^2 + c_gamma * gamma_norm)."""
    return 2.0 * math.sqrt(
        model.gamma_norm**2 + 2.0 * model.l_gamma**2 + model.c_gamma * model.gamma_norm
    )


# ---------------------------------------------------------------------------
# model families


def birth_death_model(K: int, a: float, b: float, c: float) -> RateModel:
    """Mean-field birth-death chain on {1..K}.

    Up-rate a + b*q_i from state i (reflecting at K), down-rate c (reflecting
    at 1).  Smallest model with state-dependent rates that satisfies all the
    rate-matrix conditions with analytically computable constants.
    """
    if K < 2:
        raise ValueError("need at least two states")
    if a < 0 or b < 0 or c < 0 or a + b + c <= 0:
        raise ValueError("rates must be nonnegative with a positive total")

    idx = np.arange(K - 1)

    def rate_matrix(Q: np.ndarray) -> np.ndarray:
        # the flattened super- and subdiagonals are strided slices
        R = np.zeros(Q.shape[:-1] + (K * K,))
        R[..., 1 :: K + 1] = a + b * Q[..., :-1]
        R[..., K :: K + 1] = c
        return R.reshape(Q.shape + (K,))

    def db(Q: np.ndarray) -> np.ndarray:
        # tridiagonal Jacobian of the drift
        up = a + 2.0 * b * Q[..., :-1]
        J = np.zeros(Q.shape[:-1] + (K, K))
        J[..., idx + 1, idx] = up
        J[..., idx, idx + 1] = c
        J[..., idx, idx] -= up
        J[..., idx + 1, idx + 1] -= c
        return J

    gamma_norm = a + b + c if K >= 3 else max(a + b, c)
    c_gamma = 2 * a + b + 2 * c if K >= 3 else a + b + c
    return RateModel(
        K=K,
        rate_matrix=rate_matrix,
        gamma_norm=gamma_norm,
        c_gamma=c_gamma,
        l_gamma=b,
        band=1,
        db=db,
        name="birth-death",
        params={"a": a, "b": b, "c": c},
    )


def _broadcaster(A: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Q -> A repeated over the leading axes of Q, as a read-only array.

    The arrays for the last two leading shapes asked for are kept: the jump
    kernel asks for a window's shape and for one row each at every window
    until a replica leaves.  They are contiguous copies, not broadcast
    views, since products with a view's zero strides run several times
    slower.
    """
    kept = {}  # leading shape -> array, the most recently used last

    def broadcast(Q):
        shape = np.shape(Q)[:-1]
        full = kept.pop(shape, None)
        if full is None:
            full = np.empty(shape + A.shape)
            full[...] = A
            full.flags.writeable = False
            if len(kept) > 1:
                del kept[next(iter(kept))]
        kept[shape] = full
        return full

    return broadcast


def constant_rate_model(matrix: np.ndarray) -> RateModel:
    """Rate matrix independent of the state (off-diagonal entries given)."""
    R0 = np.array(matrix, dtype=float)
    K = R0.shape[0]
    if R0.shape != (K, K):
        raise ValueError("rate matrix must be square")
    np.fill_diagonal(R0, 0.0)
    if np.any(R0 < 0):
        raise ValueError("off-diagonal rates must be nonnegative")
    row = R0.sum(axis=1)
    gamma_norm = float(row.max())
    c_gamma = float((R0.sum(axis=0) + row).max())
    nz = np.argwhere(R0 > 0)
    band = int(np.abs(nz[:, 0] - nz[:, 1]).max()) if len(nz) else 0
    J = R0.T - np.diag(row)  # drift is linear, Jacobian constant

    return RateModel(
        K=K,
        rate_matrix=_broadcaster(R0),
        gamma_norm=gamma_norm,
        c_gamma=c_gamma,
        l_gamma=0.0,
        band=band,
        db=_broadcaster(J),
        name="constant",
        params={"matrix": R0.tolist()},
    )


def two_state_model(rate: float = 1.0) -> RateModel:
    """Symmetric two-state flip model, Gamma_12 = Gamma_21 = rate."""
    return constant_rate_model([[0.0, rate], [rate, 0.0]])
