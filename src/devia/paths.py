"""Time-indexed vector paths on a fixed grid.

PathVec holds one truncated-l2 vector per grid time and interpolates
linearly in between.  It is the common carrier for the deterministic limit
path p, fluctuation paths and skeleton solutions eta.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["PathVec"]


@dataclass(frozen=True)
class PathVec:
    """Piecewise-linear path t -> R^K on a strictly increasing grid."""

    grid: np.ndarray  # (N,) times, grid[0] = 0
    values: np.ndarray  # (N, K)

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if grid.ndim != 1 or values.ndim != 2 or len(grid) != len(values):
            raise ValueError("grid (N,) and values (N, K) must align")
        if len(grid) < 2 or np.any(np.diff(grid) <= 0):
            raise ValueError("grid must be strictly increasing with >= 2 points")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)

    @property
    def T(self) -> float:
        return float(self.grid[-1])

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def __call__(self, t) -> np.ndarray:
        """Linear interpolation; clamps to the horizon endpoints."""
        t = np.asarray(t, dtype=float)
        # np.minimum/np.maximum: np.clip's Python-level wrapper is slow here
        tt = np.minimum(np.maximum(t, self.grid[0]), self.grid[-1])
        idx = np.minimum(np.searchsorted(self.grid, tt, side="right") - 1, len(self.grid) - 2)
        t0 = self.grid[idx]
        w = (tt - t0) / (self.grid[idx + 1] - t0)
        if t.ndim == 0:
            return (1 - w) * self.values[idx] + w * self.values[idx + 1]
        return (1 - w[:, None]) * self.values[idx] + w[:, None] * self.values[idx + 1]

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

    def __add__(self, other: "PathVec") -> "PathVec":
        if not np.array_equal(self.grid, other.grid):
            raise ValueError("paths must share a grid")
        return PathVec(self.grid, self.values + other.values)

    def __mul__(self, a: float) -> "PathVec":
        return PathVec(self.grid, a * self.values)

    __rmul__ = __mul__
