"""Interaction kernels for the diffusion model.

The diffusion and drift coefficients are mean-field averages of two-argument
kernels: sigma(x, mu) = integral of alpha(x, y) mu(dy) and b(x, mu) likewise
with beta.  Every kernel is rank-one separable, k(x, y) = f(x) g(y), so the
measure enters the coefficients only through the pairing <mu, g>, and
mean-field evaluation over an ensemble costs O(m), not O(m^2).  Factors may
share an envelope (:class:`Enveloped`), which the particle simulators
evaluate once per particle and step, into a buffer, for both kernels.

Measures enter through :class:`MeasureHook`, a plain (points, weights)
quadrature view that both particle ensembles and grid densities provide.
The weights may carry leading axes, (..., N): a path of measures on one
set of points, such as a grid density over a block of times, is then
averaged in one call, and each row equals the call on that row alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "Enveloped",
    "Kernel",
    "KernelPair",
    "MeasureHook",
    "default_kernels",
    "constant_alpha",
    "linear_reversion_beta",
    "zero_kernel",
]


def _dot(w: np.ndarray, g):
    """sum_i w[..., i] g_i in numpy's own single-threaded loop; a BLAS dot
    spreads over every core and buys no wall time at these sizes."""
    return np.einsum("...i,i->...", w, np.asarray(g, dtype=float))


@dataclass(frozen=True)
class Enveloped:
    """Separable factor x |-> scale(x) * env(x) whose envelope env other
    factors may share.  ``env(x, out=None)`` writes into ``out`` when given;
    ``scale`` may return a scalar, which the particle simulators fold into
    their per-segment constants."""

    scale: Callable
    env: Callable

    def __call__(self, x):
        return self.scale(x) * self.env(x)


def _gaussian(u, out=None):
    """exp(-u^2 / 2), written into ``out`` when it is given."""
    y = np.square(np.asarray(u, dtype=float), out=out)
    y = np.multiply(y, -0.5, out=out)
    return np.exp(y, out=out)


@dataclass(frozen=True)
class MeasureHook:
    """Discrete view of a measure: sum of weights at points."""

    points: np.ndarray
    weights: np.ndarray

    def pair(self, f: Callable[[np.ndarray], np.ndarray]) -> float:
        """<mu, f> for a vectorized function f."""
        return float(np.dot(self.weights, f(self.points)))


@dataclass(frozen=True)
class Kernel:
    """Interaction kernel k(x, y) = f(x) g(y) with ``sep = (f, g)``; ``fn``
    evaluates k(x, y) directly, for the grid scans (such as the CFL bound)."""

    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    sep: tuple[Callable, Callable]

    def __call__(self, x, y):
        return self.fn(np.asarray(x, dtype=float), np.asarray(y, dtype=float))

    def mean_y(self, x: np.ndarray, mu: MeasureHook) -> np.ndarray:
        """x |-> integral k(x, y) mu(dy), vectorized over x; weights
        (..., N) give (..., len(x))."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        f, g = self.sep
        return np.asarray(f(x), dtype=float) * _dot(mu.weights, g(mu.points))[..., None]

    def mean_x(self, fvals: np.ndarray, mu: MeasureHook, x: np.ndarray) -> np.ndarray:
        """x |-> integral f(y) k(y, x) mu(dy) for sample values f(points);
        weights or values (..., N) give (..., len(x))."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        f, g = self.sep
        return _dot(mu.weights * fvals, f(mu.points))[..., None] * np.asarray(g(x), dtype=float)


@dataclass(frozen=True)
class KernelPair:
    alpha: Kernel  # diffusion kernel
    beta: Kernel  # drift kernel

    def sigma(self, x, mu: MeasureHook) -> np.ndarray:
        return self.alpha.mean_y(x, mu)

    def drift(self, x, mu: MeasureHook) -> np.ndarray:
        return self.beta.mean_y(x, mu)


def zero_kernel() -> Kernel:
    return Kernel(
        fn=lambda x, y: np.zeros(np.broadcast(x, y).shape),
        sep=(np.zeros_like, np.zeros_like),
    )


def constant_alpha(level: float = 1.0) -> Kernel:
    return Kernel(
        fn=lambda x, y: np.full(np.broadcast(x, y).shape, level),
        sep=(lambda x: np.full(np.shape(x), level), np.ones_like),
    )


def linear_reversion_beta(rate: float = 1.0) -> Kernel:
    """beta(x, y) = -rate * x: every particle relaxes toward the origin.
    Used for closed-form test dynamics; not bounded in x."""
    return Kernel(
        fn=lambda x, y: -rate * x * np.ones(np.broadcast(x, y).shape),
        sep=(lambda x: -rate * np.asarray(x, dtype=float), np.ones_like),
    )


def default_kernels(c_alpha: float = 0.5, c_beta: float = 0.5) -> KernelPair:
    """Smooth rapidly decaying pair:

        alpha(x, y) = c_alpha * exp(-(x^2 + y^2) / 2)
        beta(x, y)  = -c_beta * x * exp(-(x^2 + y^2) / 2)

    Both are bounded with all derivatives decaying, which places them in the
    sufficient class for every smoothness condition the analysis uses, and
    beta gives mean reversion near the origin so trajectories stay on a
    compact range.  Both are rank-one separable.
    """
    g = _gaussian
    alpha = Kernel(
        fn=lambda x, y: c_alpha * np.exp(-(x**2 + y**2) / 2.0),
        sep=(Enveloped(lambda x: c_alpha, g), g),
    )
    beta = Kernel(
        fn=lambda x, y: -c_beta * x * np.exp(-(x**2 + y**2) / 2.0),
        sep=(Enveloped(lambda x: -c_beta * np.asarray(x, dtype=float), g), g),
    )
    return KernelPair(alpha=alpha, beta=beta)
