"""Rapidly decaying test functions and their seminorm calculus.

The working family is polynomial * exp(-x^2/2).  It is closed under
differentiation with exact coefficient arithmetic,

    d/dx [p(x) e^{-x^2/2}] = (p'(x) - x p(x)) e^{-x^2/2},

so the weighted Sobolev seminorms

    ||phi||_n^2 = sum_{k<=n} integral (1+x^2)^{2n} (phi^(k))^2 dx

and the derivative sup-seminorms |phi|_n = sum_{k<=n} sup |phi^(k)| never
touch numerical differentiation.  Hilbert seminorms are integrated by
node-doubling Gauss-Legendre on [-R, R] with R chosen from an analytic tail
bound; sup seminorms by a dense scan with local parabolic refinement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from numpy.polynomial import Polynomial
from numpy.polynomial.hermite import herm2poly

from .kernels import KernelPair, MeasureHook

__all__ = [
    "HermiteFunction",
    "QuadratureError",
    "seminorm_hilbert",
    "seminorm_sup",
    "apply_L",
    "hermite_basis_function",
    "random_hermite_function",
]


class QuadratureError(RuntimeError):
    """Raised when node doubling fails to stabilize an integral."""


MAX_QUAD_NODES = 16384


@dataclass(frozen=True)
class HermiteFunction:
    """phi(x) = p(x) * exp(-x^2/2) for a polynomial p."""

    poly: Polynomial

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return self.poly(x) * np.exp(-(x**2) / 2.0)

    def derivative(self, k: int = 1) -> "HermiteFunction":
        """Exact k-th derivative, same family."""
        p = self.poly
        for _ in range(k):
            p = p.deriv() - p * Polynomial([0.0, 1.0])
        return HermiteFunction(p)

    def __mul__(self, a: float) -> "HermiteFunction":
        return HermiteFunction(self.poly * a)

    __rmul__ = __mul__

    @property
    def degree(self) -> int:
        return len(self.poly.coef) - 1

    @classmethod
    def gaussian(cls) -> "HermiteFunction":
        return cls(Polynomial([1.0]))

    @classmethod
    def from_poly_coeffs(cls, coeffs) -> "HermiteFunction":
        return cls(Polynomial(np.asarray(coeffs, dtype=float)))

    @classmethod
    def from_hermite_coeffs(cls, coeffs) -> "HermiteFunction":
        """Linear combination sum_n c_n h_n of the orthonormal Hermite
        functions h_n(x) = H_n(x) e^{-x^2/2} / sqrt(2^n n! sqrt(pi))."""
        coeffs = np.asarray(coeffs, dtype=float)
        scaled = np.array(
            [
                c * math.exp(-0.5 * (n * math.log(2.0) + math.lgamma(n + 1) + 0.5 * math.log(math.pi)))
                for n, c in enumerate(coeffs)
            ]
        )
        return cls(Polynomial(herm2poly(scaled)))


def hermite_basis_function(n: int) -> HermiteFunction:
    """n-th orthonormal Hermite function."""
    e = np.zeros(n + 1)
    e[n] = 1.0
    return HermiteFunction.from_hermite_coeffs(e)


def random_hermite_function(rng: np.random.Generator, max_degree: int = 8) -> HermiteFunction:
    deg = int(rng.integers(0, max_degree + 1))
    return HermiteFunction.from_hermite_coeffs(rng.normal(size=deg + 1))


# ---------------------------------------------------------------------------
# quadrature


@lru_cache(maxsize=32)
def _leggauss(n: int):
    return np.polynomial.legendre.leggauss(n)


def _gaussian_moment_tail(d: int, R: float) -> float:
    """integral_R^inf x^d e^{-x^2} dx = Gamma((d+1)/2, R^2) / 2 for R >= 0,
    by the upward recurrence Gamma(b+1, x) = b Gamma(b, x) + x^b e^{-x}
    from Gamma(1/2, x) = sqrt(pi) erfc(sqrt(x)) (d even) or
    Gamma(1, x) = e^{-x} (d odd); all its terms are nonnegative."""
    x = R * R
    ex = math.exp(-x)
    if d % 2:
        b, g = 1.0, ex
    else:
        b, g = 0.5, math.sqrt(math.pi) * math.erfc(math.sqrt(x))
    while b < 0.5 * (d + 1):
        g = b * g + x**b * ex
        b += 1.0
    return 0.5 * g


# the quadrature radius leaves a tail below this fraction of the full-line bound
TAIL_RTOL = 1e-14


def _integration_radius(abs_coeffs: np.ndarray) -> float:
    """Radius beyond which the tail of sum |c_d| x^d e^{-x^2} is negligible
    (TAIL_RTOL) relative to the corresponding full-line bound."""
    scale = sum(
        c * 2.0 * _gaussian_moment_tail(d, 0.0) for d, c in enumerate(abs_coeffs) if c > 0
    )
    R = 8.0
    while R <= 64.0:
        tail = sum(
            c * 2.0 * _gaussian_moment_tail(d, R) for d, c in enumerate(abs_coeffs) if c > 0
        )
        if tail <= TAIL_RTOL * max(scale, 1e-300):
            return R
        R *= 2.0
    return R


def _integrate_weighted_square(polys: list[Polynomial], n: int) -> float:
    """integral (1+x^2)^{2n} * sum p_k(x)^2 * e^{-x^2} dx by node-doubling
    Gauss-Legendre on [-R, R]."""
    weight = Polynomial([1.0, 0.0, 1.0]) ** (2 * n)
    total = weight * sum((p * p for p in polys), Polynomial([0.0]))
    R = _integration_radius(np.abs(total.coef))

    def value(nodes: int) -> float:
        x, w = _leggauss(nodes)
        xs = R * x
        return R * float(np.dot(w, total(xs) * np.exp(-(xs**2))))

    nodes = 64
    prev = value(nodes)
    while nodes < MAX_QUAD_NODES:
        nodes *= 2
        cur = value(nodes)
        if abs(cur - prev) <= 1e-8 * max(abs(cur), 1e-300):
            return cur
        prev = cur
    raise QuadratureError("node doubling did not stabilize the seminorm integral")


def seminorm_hilbert(phi: HermiteFunction, n: int) -> float:
    """Weighted Sobolev seminorm ||phi||_n; monotone nondecreasing in n."""
    if n < 0:
        raise ValueError("seminorm order must be nonnegative")
    derivs = [phi]
    for _ in range(n):
        derivs.append(derivs[-1].derivative())
    val = _integrate_weighted_square([d.poly for d in derivs], n)
    return math.sqrt(max(val, 0.0))


def _sup_abs(phi: HermiteFunction) -> float:
    """sup over x of |p(x) e^{-x^2/2}| by dense scan plus local refinement.

    The scan radius comes from the same tail bound as the quadrature; the
    family decays fast enough that the sup is attained well inside it.
    """
    abs_coeffs = np.abs(phi.poly.coef) if len(phi.poly.coef) else np.array([0.0])
    if not np.any(abs_coeffs > 0):
        return 0.0
    R = math.sqrt(2.0 * len(abs_coeffs) + 2.0) + 6.0
    xs = np.linspace(-R, R, 8001)
    ys = np.abs(phi(xs))
    k = int(ys.argmax())
    lo = xs[max(k - 1, 0)]
    hi = xs[min(k + 1, len(xs) - 1)]
    fine = np.linspace(lo, hi, 801)
    fy = np.abs(phi(fine))
    j = int(fy.argmax())
    if 0 < j < len(fine) - 1:
        # parabolic peak through the three best samples
        y0, y1, y2 = fy[j - 1], fy[j], fy[j + 1]
        denom = y0 - 2 * y1 + y2
        if denom < 0:
            return float(y1 - 0.125 * (y2 - y0) ** 2 / denom)
    return float(fy[j])


def seminorm_sup(phi: HermiteFunction, n: int) -> float:
    """Derivative sup-seminorm |phi|_n = sum_{k<=n} sup |phi^(k)|."""
    if n < 0:
        raise ValueError("seminorm order must be nonnegative")
    total = 0.0
    d = phi
    for k in range(n + 1):
        total += _sup_abs(d)
        if k < n:
            d = d.derivative()
    return total


# ---------------------------------------------------------------------------
# generator application


def apply_L(kernels: KernelPair, mu: MeasureHook, phi: HermiteFunction) -> Callable:
    """Pointwise application of the fluctuation generator at one time slice.

    Returns the numeric function

        x |-> phi'(x) b(x, mu) + 1/2 phi''(x) sigma^2(x, mu)
              + <mu, phi'(.) beta(., x)> + <mu, phi''(.) sigma(., mu) alpha(., x)>

    where b and sigma are the mean-field coefficients of the kernel pair under
    the supplied measure.  Linear in phi and evaluable on arrays.
    """
    if mu is None:
        raise ValueError("a measure hook is required to apply the generator")
    d1 = phi.derivative()
    d2 = d1.derivative()
    pts = mu.points
    sigma_pts = kernels.alpha.mean_y(pts, mu)  # sigma(y_k, mu) at the support
    d1_pts = d1(pts)
    d2s_pts = d2(pts) * sigma_pts

    def L_phi(x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        local = d1(x) * kernels.drift(x, mu) + 0.5 * d2(x) * kernels.sigma(x, mu) ** 2
        nonlocal_ = kernels.beta.mean_x(d1_pts, mu, x) + kernels.alpha.mean_x(d2s_pts, mu, x)
        return local + nonlocal_

    return L_phi


def apply_L_seminorm_ratio(kernels: KernelPair, mu: MeasureHook, phi: HermiteFunction) -> float:
    """Diagnostic ratio ||L phi||_0 / ||phi||_2.  L phi is not in the
    Hermite family, so the numerator is the trapezoid rule for the integral
    of (L phi)^2 on 4001 points of [-R, R], with R the scan radius of
    :func:`_sup_abs`; the denominator is exact."""
    L_phi = apply_L(kernels, mu, phi)
    R = math.sqrt(2.0 * (phi.degree + 1) + 2.0) + 6.0
    xs = np.linspace(-R, R, 4001)
    num_sq = np.trapezoid(L_phi(xs) ** 2, xs)
    den = seminorm_hilbert(phi, 2)
    return math.sqrt(max(num_sq, 0.0)) / den if den > 0 else 0.0
