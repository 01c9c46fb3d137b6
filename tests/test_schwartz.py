import math

import numpy as np
import pytest

from devia.kernels import KernelPair, MeasureHook, linear_reversion_beta, zero_kernel
from devia.schwartz import (
    HermiteFunction,
    apply_L,
    hermite_basis_function,
    random_hermite_function,
    seminorm_hilbert,
    seminorm_sup,
)


class TestFamily:
    def test_derivative_recurrence_exact(self):
        # d/dx [p e^{-x^2/2}] = (p' - x p) e^{-x^2/2}; spot-check on a grid
        phi = HermiteFunction.from_poly_coeffs([1.0, 2.0, -0.5])
        d = phi.derivative()
        xs = np.linspace(-3, 3, 7)
        p = np.polynomial.Polynomial([1.0, 2.0, -0.5])
        want = (p.deriv()(xs) - xs * p(xs)) * np.exp(-(xs**2) / 2)
        assert np.allclose(d(xs), want, atol=1e-14)

    def test_derivative_matches_finite_difference(self, rng):
        phi = random_hermite_function(rng, max_degree=6)
        xs = np.linspace(-2.5, 2.5, 11)
        h = 1e-6
        fd = (phi(xs + h) - phi(xs - h)) / (2 * h)
        assert np.abs(phi.derivative()(xs) - fd).max() < 1e-7

    def test_rapid_decay(self, rng):
        phi = random_hermite_function(rng, max_degree=8)
        for a in (1, 4, 9):
            big = np.array([15.0, 20.0])
            assert np.all(np.abs(big**a * phi(big)) < 1e-12)

    def test_hermite_basis_orthonormal(self):
        # the n-th basis function has unit plain L2 norm (order-0 seminorm)
        for n in range(5):
            assert seminorm_hilbert(hermite_basis_function(n), 0) == pytest.approx(1.0, abs=1e-10)


class TestHilbertSeminorm:
    def test_zero_function(self):
        assert seminorm_hilbert(HermiteFunction.from_poly_coeffs([0.0]), 2) == 0.0

    def test_gaussian_closed_form(self):
        # ||e^{-x^2/2}||_0^2 = integral e^{-x^2} = sqrt(pi)
        val = seminorm_hilbert(HermiteFunction.gaussian(), 0)
        assert val == pytest.approx(math.pi**0.25, abs=1e-10)

    def test_homogeneity(self, rng):
        phi = random_hermite_function(rng, max_degree=5)
        for n in range(3):
            assert seminorm_hilbert(2.0 * phi, n) == pytest.approx(
                2.0 * seminorm_hilbert(phi, n), rel=1e-12
            )

    def test_monotone_in_order(self, rng):
        for _ in range(10):
            phi = random_hermite_function(rng, max_degree=6)
            norms = [seminorm_hilbert(phi, n) for n in range(4)]
            assert all(a <= b * (1 + 1e-12) for a, b in zip(norms[:-1], norms[1:]))

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            seminorm_hilbert(HermiteFunction.gaussian(), -1)


class TestSupSeminorm:
    def test_zero(self):
        assert seminorm_sup(HermiteFunction.from_poly_coeffs([0.0]), 3) == 0.0

    def test_gaussian_peak(self):
        assert seminorm_sup(HermiteFunction.gaussian(), 0) == pytest.approx(1.0, abs=1e-10)

    def test_x_gaussian_peak(self):
        # max of |x e^{-x^2/2}| at x = 1: value e^{-1/2}
        phi = HermiteFunction.from_poly_coeffs([0.0, 1.0])
        assert seminorm_sup(phi, 0) == pytest.approx(math.exp(-0.5), abs=1e-7)

    def test_order_sums_derivative_sups(self):
        phi = HermiteFunction.gaussian()
        v0 = seminorm_sup(phi, 0)
        v1 = seminorm_sup(phi, 1)
        d_sup = seminorm_sup(phi.derivative(), 0)
        assert v1 == pytest.approx(v0 + d_sup, rel=1e-10)


def test_integration_by_parts(rng):
    # quadrature consistency: integral phi'' g = integral phi g'' for rapidly
    # decaying g; both sides via a dense trapezoid
    phi = random_hermite_function(rng, max_degree=5)
    g = HermiteFunction.gaussian()
    xs = np.linspace(-14, 14, 40001)
    lhs = np.trapezoid(phi.derivative(2)(xs) * g(xs), xs)
    rhs = np.trapezoid(phi(xs) * g.derivative(2)(xs), xs)
    assert lhs == pytest.approx(rhs, abs=1e-8)


class TestApplyL:
    def test_zero_kernels(self, rng):
        kp = KernelPair(alpha=zero_kernel(), beta=zero_kernel())
        mu = MeasureHook(points=rng.normal(size=64), weights=np.full(64, 1 / 64))
        phi = random_hermite_function(rng, max_degree=4)
        vals = apply_L(kp, mu, phi)(np.linspace(-2, 2, 9))
        assert np.abs(vals).max() == 0.0

    def test_linearity(self, rng):
        from devia.kernels import default_kernels

        kp = default_kernels()
        mu = MeasureHook(points=rng.normal(size=128), weights=np.full(128, 1 / 128))
        f1 = random_hermite_function(rng, max_degree=4)
        f2 = random_hermite_function(rng, max_degree=4)
        xs = np.linspace(-3, 3, 17)
        combined = apply_L(kp, mu, HermiteFunction(f1.poly + 2.0 * f2.poly))(xs)
        separate = apply_L(kp, mu, f1)(xs) + 2.0 * apply_L(kp, mu, f2)(xs)
        assert np.allclose(combined, separate, atol=1e-12)

    def test_point_mass_symbolic_oracle(self):
        # beta(x,y) = -x, alpha = 0, mu = delta_z:
        #   L phi (x) = phi'(x) b(x) + <mu, phi'(.) beta(., x)>
        #             = -x phi'(x) - z phi'(z)
        # cross-checked with sympy on the four-term definition
        import sympy as sp

        z = 0.7
        kp = KernelPair(alpha=zero_kernel(), beta=linear_reversion_beta(1.0))
        mu = MeasureHook(points=np.array([z]), weights=np.array([1.0]))
        phi = HermiteFunction.from_poly_coeffs([0.0, 1.0, 0.5])

        xs_s, ys_s = sp.symbols("x y")
        poly_s = ys_s + sp.Rational(1, 2) * ys_s**2
        phi_s = poly_s * sp.exp(-(ys_s**2) / 2)
        dphi_s = sp.diff(phi_s, ys_s)
        beta_s = -ys_s  # beta(y, x) evaluated symbolically in its first slot
        # local terms at measure delta_z, sigma = 0
        b_of_x = -xs_s
        term1 = sp.diff(phi_s, ys_s).subs(ys_s, xs_s) * b_of_x
        term3 = dphi_s.subs(ys_s, z) * beta_s.subs(ys_s, z)
        oracle = sp.lambdify(xs_s, term1 + term3, "numpy")

        grid = np.linspace(-2, 2, 9)
        got = apply_L(kp, mu, phi)(grid)
        assert np.allclose(got, oracle(grid), atol=1e-12)

    def test_missing_measure_hook(self):
        kp = KernelPair(alpha=zero_kernel(), beta=zero_kernel())
        with pytest.raises(ValueError):
            apply_L(kp, None, HermiteFunction.gaussian())


def test_quadrature_nonconvergence_raises(monkeypatch):
    # with the node budget capped below what a high-degree integrand needs,
    # node doubling cannot stabilize and must raise rather than return junk
    import devia.schwartz as sz

    monkeypatch.setattr(sz, "MAX_QUAD_NODES", 128)
    coeffs = np.zeros(101)
    coeffs[-1] = 1.0  # degree-100 polynomial: the squared integrand needs more nodes
    phi = HermiteFunction.from_poly_coeffs(coeffs)
    with pytest.raises(sz.QuadratureError):
        seminorm_hilbert(phi, 0)


@pytest.mark.parametrize("R", [0.0, 1.0, 4.0, 8.0])
def test_gaussian_moment_tail_matches_quadrature(R):
    from scipy.integrate import quad

    from devia.schwartz import _gaussian_moment_tail

    for d in range(21):
        want, _ = quad(lambda x: x**d * math.exp(-x * x), R, math.inf, epsabs=0.0, epsrel=1e-13)
        assert _gaussian_moment_tail(d, R) == pytest.approx(want, rel=1e-11)
