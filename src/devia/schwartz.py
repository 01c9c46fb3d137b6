"""Rapidly decaying test functions and their seminorm calculus.

The working family is polynomial * exp(-x^2/2).  It is closed under
differentiation with exact coefficient arithmetic,

    d/dx [p(x) e^{-x^2/2}] = (p'(x) - x p(x)) e^{-x^2/2},

so the weighted Sobolev seminorms

    ||phi||_n^2 = sum_{k<=n} integral (1+x^2)^{2n} (phi^(k))^2 dx

and the derivative sup-seminorms |phi|_n = sum_{k<=n} sup |phi^(k)| never
touch numerical differentiation or quadrature.  A Hilbert seminorm is a
finite sum of Gaussian moments integral x^d e^{-x^2} dx = Gamma(d/2 + 1/2)
(d even), refused when its own rounding bound is too large; a sup is the
largest |phi| over the critical points, the real roots of p' - x p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial import Polynomial
from numpy.polynomial.hermite import herm2poly

from .kernels import KernelPair, MeasureHook

__all__ = [
    "HermiteFunction",
    "seminorm_hilbert",
    "seminorm_sup",
    "apply_L",
    "hermite_basis_function",
    "random_hermite_function",
]


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
# seminorms


# largest relative rounding bound a Hilbert seminorm sum may carry
ROUNDING_RTOL = 1e-8


def seminorm_hilbert(phi: HermiteFunction, n: int) -> float:
    """Weighted Sobolev seminorm ||phi||_n; monotone nondecreasing in n.

    The integrand (1+x^2)^{2n} sum_{k<=n} p_k^2 e^{-x^2} is a polynomial
    times e^{-x^2}, so ||phi||_n^2 = sum_d c_d mu_d over its coefficients c_d
    and the Gaussian moments mu_d = integral x^d e^{-x^2} dx, Gamma(d/2 + 1/2)
    for even d and 0 for odd d.  The same sum over the integrand built
    from the |coefficients| of each p_k, times the machine epsilon, is the
    scale of its rounding error: a ValueError refuses a sum whose rounding
    bound exceeds ROUNDING_RTOL relative to its value, and one whose moments
    overflow the float range, before any product with them.
    """
    if n < 0:
        raise ValueError("seminorm order must be nonnegative")
    polys = [phi.derivative(k).poly for k in range(n + 1)]
    weight = Polynomial([1.0, 0.0, 1.0]) ** (2 * n)
    total = sum(weight * p * p for p in polys)
    bound = sum(weight * Polynomial(np.abs(p.coef)) ** 2 for p in polys)
    mu, m = np.zeros(len(bound.coef)), math.sqrt(math.pi)
    for d in range(0, len(mu), 2):  # Gamma(d/2 + 1/2) = Gamma(d/2 - 1/2) (d - 1)/2
        mu[d], m = m, m * (d + 1) / 2
    rel = math.inf  # past degree ~170 the moments overflow: no bound holds
    if np.isfinite(mu).all():
        value = float(np.dot(total.coef, mu[: len(total.coef)]))
        scale = float(np.dot(bound.coef, mu))
        if scale == 0.0:
            return 0.0
        if value > 0.0:
            rel = np.finfo(float).eps * scale / value
    if not rel <= ROUNDING_RTOL:
        raise ValueError(
            f"the order-{n} seminorm of a degree-{phi.degree} function has a relative "
            f"rounding bound of {rel:.3g}, above ROUNDING_RTOL = {ROUNDING_RTOL:g}"
        )
    return math.sqrt(value)


def _sup_abs(phi: HermiteFunction) -> float:
    """sup over x of |p(x) e^{-x^2/2}|.  phi vanishes at +-inf, so the sup
    sits at a real root of p' - x p, the polynomial of phi'; the real parts
    of all its roots include those."""
    if not np.any(phi.poly.coef):
        return 0.0
    crit = phi.derivative().poly.roots().real
    return float(np.abs(phi(crit)).max())


def seminorm_sup(phi: HermiteFunction, n: int) -> float:
    """Derivative sup-seminorm |phi|_n = sum_{k<=n} sup |phi^(k)|."""
    if n < 0:
        raise ValueError("seminorm order must be nonnegative")
    return sum(_sup_abs(phi.derivative(k)) for k in range(n + 1))


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
    of (L phi)^2 on 4001 points of [-R, R], with R = sqrt(2 deg p + 4) + 6
    some way past the last turning point of p(x) e^{-x^2/2}; the denominator
    is exact."""
    L_phi = apply_L(kernels, mu, phi)
    R = math.sqrt(2.0 * (phi.degree + 1) + 2.0) + 6.0
    xs = np.linspace(-R, R, 4001)
    num_sq = np.trapezoid(L_phi(xs) ** 2, xs)
    den = seminorm_hilbert(phi, 2)
    return math.sqrt(max(num_sq, 0.0)) / den if den > 0 else 0.0
