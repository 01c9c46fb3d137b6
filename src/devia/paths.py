"""Time-indexed vector paths on a fixed grid.

PathVec holds one truncated-l2 vector per grid time and interpolates
linearly in between.  It is the common carrier for the deterministic limit
path p, fluctuation paths and skeleton solutions eta.  time_derivative is
the finite-difference d/dt, and blocks the split of a time grid into
batched passes, that the jump and diffusion analysis layers share;
check_axis, is_uniform and grid_index are the grid rules that every layer
applies: what makes an axis, when a grid counts as uniform, and which grid
time a time names.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["PathVec", "blocks", "check_axis", "grid_index", "is_uniform", "time_derivative"]


@dataclass(frozen=True)
class PathVec:
    """Piecewise-linear path t -> R^K on a strictly increasing grid."""

    grid: np.ndarray  # (N,) times, grid[0] = 0
    values: np.ndarray  # (N, K)

    def __post_init__(self):
        grid = check_axis(self.grid, "path", "grid times")
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2 or len(grid) != len(values):
            raise ValueError("grid (N,) and values (N, K) must align")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)

    @property
    def T(self) -> float:
        return float(self.grid[-1])

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    @cached_property
    def _cells(self) -> np.ndarray:
        """One column per grid cell: its start, its length and both end
        values.  Built on the first call, so a path never interpolated
        carries none; column-major, so that a batch of times is gathered and
        weighted along long rows."""
        g, v = self.grid, self.values
        return np.vstack([g[:-1], np.diff(g), v[:-1].T, v[1:].T])

    def __call__(self, t) -> np.ndarray:
        """Linear interpolation; clamps to the horizon endpoints."""
        t = np.asarray(t, dtype=float)
        # np.minimum/np.maximum: np.clip's Python-level wrapper is slow here
        tt = np.minimum(np.maximum(t, self.grid[0]), self.grid[-1]).ravel()
        # searchsorted on the inner grid times is the clamped cell index
        c = self._cells.take(self.grid[1:-1].searchsorted(tt, "right"), axis=1)
        K = self.values.shape[1]
        w = (tt - c[0]) / c[1]
        v = c[2 : 2 + K]
        v *= 1 - w
        right = c[2 + K :]
        right *= w
        v += right
        return np.ascontiguousarray(v.T).reshape(t.shape + (K,))

    def sup_norm(self) -> float:
        """Max over grid times of the euclidean norm."""
        return float(np.linalg.norm(self.values, axis=1).max())

    def mass_defect(self) -> float:
        """Max deviation of the coordinate sum from its initial value."""
        sums = self.values.sum(axis=1)
        return float(np.abs(sums - sums[0]).max())

    def restrict_every(self, k: int) -> "PathVec":
        """Subsample every k-th grid point, keeping the final time."""
        idx = list(range(0, len(self.grid), k))
        if idx[-1] != len(self.grid) - 1:
            idx.append(len(self.grid) - 1)
        return PathVec(self.grid[idx], self.values[idx])


def check_axis(axis, owner: str, name: str) -> np.ndarray:
    """``axis`` as a float array; raises unless it is 1-D, of at least 2
    points, finite and strictly increasing, naming the ``owner`` and the
    points' ``name``."""
    axis = np.asarray(axis, dtype=float)
    if axis.ndim != 1:
        raise ValueError(f"{owner} {name} must be a 1-D list; got shape {axis.shape}")
    if len(axis) < 2:
        raise ValueError(f"{owner} needs at least 2 {name}; got {len(axis)}")
    bad = ~np.isfinite(axis)
    if bad.any():
        raise ValueError(f"{owner} {name} must be finite; got {axis[bad][0]}")
    if np.any(np.diff(axis) <= 0):
        raise ValueError(f"{owner} {name} must be strictly increasing")
    return axis


def is_uniform(ts: np.ndarray) -> bool:
    """Whether every step of the time grid ``ts`` (at least 2 times) is its
    first, to a relative 1e-8 and an absolute 1e-14 max(1, T)."""
    steps = np.diff(ts)
    return bool(np.allclose(steps, steps[0], rtol=1e-8, atol=1e-14 * max(1.0, ts[-1])))


def grid_index(ts: np.ndarray, t: float) -> int:
    """Index of the time in the grid ``ts`` nearest t; raises unless it lies
    within 1e-9 max(1, T) of t."""
    k = int(np.argmin(np.abs(ts - t)))
    if not abs(ts[k] - t) <= 1e-9 * max(1.0, ts[-1]):
        raise ValueError(f"time {t} is not on the grid")
    return k


def time_derivative(ts: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """d/dt of vals[k, ...] sampled at ts[k]: second-order central differences
    on a uniform grid, one-sided at the ends."""
    if len(ts) < 3:
        raise ValueError(f"the time derivative needs at least 3 grid times, got {len(ts)}")
    if not is_uniform(ts):
        raise ValueError("rate evaluation expects a uniform time grid")
    h = ts[1] - ts[0]
    d = np.empty_like(vals)
    d[1:-1] = (vals[2:] - vals[:-2]) / (2.0 * h)
    d[0] = (-3.0 * vals[0] + 4.0 * vals[1] - vals[2]) / (2.0 * h)
    d[-1] = (3.0 * vals[-1] - 4.0 * vals[-2] + vals[-3]) / (2.0 * h)
    return d


def blocks(n: int, size: int):
    """Consecutive slices of range(n) of length at most size."""
    return (slice(k, min(k + size, n)) for k in range(0, n, size))
