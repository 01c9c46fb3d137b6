import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from devia.diff_analysis import (
    GridField,
    control_cost_on_grid,
    rate_diffusion,
    solve_fokker_planck,
    solve_linearized,
    stable_dt,
    weak_form_residual,
)
from devia.harness.config import kernels_from_config
from devia.kernels import (
    KernelPair,
    MeasureHook,
    constant_alpha,
    default_kernels,
    linear_reversion_beta,
    zero_kernel,
)
from devia.schwartz import HermiteFunction

HEAT = KernelPair(alpha=constant_alpha(1.0), beta=zero_kernel())
TRANSPORT = KernelPair(alpha=zero_kernel(), beta=linear_reversion_beta(1.0))


@st.composite
def grid_problems(draw):
    """Kernel pair, x0 and a grid wide enough that the mollified bump
    (width 0.3) stays clear of the boundary cells up to T <= 0.1."""
    family = draw(st.sampled_from(["default", "additive-noise", "heat"]))
    if family == "default":
        kp = default_kernels(draw(st.floats(0.1, 1.0)), draw(st.floats(0.0, 1.0)))
    elif family == "additive-noise":
        kp = KernelPair(constant_alpha(draw(st.floats(0.1, 1.0))), linear_reversion_beta(1.0))
    else:
        kp = HEAT
    x0, half = draw(st.floats(-0.5, 0.5)), draw(st.floats(4.0, 6.0))
    return kp, x0, half, draw(st.integers(41, 81)), draw(st.floats(0.01, 0.1))


class TestFokkerPlanck:
    def test_heat_kernel(self):
        # alpha = 1, beta = 0: the density is the heat kernel started from
        # the mollified bump, Normal(x0, w0^2 + t)
        rho = solve_fokker_planck(HEAT, 0.0, 0.25, -6.0, 6.0, 201)
        w0 = 4 * rho.dx
        var = w0**2 + 0.25
        ref = np.exp(-rho.xs**2 / (2 * var)) / math.sqrt(2 * math.pi * var)
        l1 = np.abs(rho.values[-1] - ref).sum() * rho.dx
        assert l1 < 2e-3

    def test_transport_mean(self):
        # degenerate diffusion: the bump rides the characteristics x0 e^{-t}
        rho = solve_fokker_planck(TRANSPORT, 1.0, 0.5, -1.0, 3.0, 401)
        mean = (rho.xs * rho.values[-1]).sum() * rho.dx
        assert mean == pytest.approx(math.exp(-0.5), abs=5e-3)

    def test_mass_conserved(self):
        rho = solve_fokker_planck(default_kernels(), 0.0, 0.5, -5.0, 5.0, 161)
        assert np.abs(rho.mass() - 1.0).max() < 1e-8
        assert rho.values.min() > -1e-12

    def test_boundary_guard(self):
        with pytest.raises(RuntimeError, match="widen"):
            solve_fokker_planck(HEAT, 0.0, 1.0, -1.0, 1.0, 51)

    def test_cfl_guard(self):
        xs_dt = stable_dt(HEAT, np.linspace(-6, 6, 201))
        with pytest.raises(RuntimeError, match="CFL"):
            solve_fokker_planck(HEAT, 0.0, 0.25, -6.0, 6.0, 201, dt=50 * xs_dt)

    @given(grid_problems())
    @settings(max_examples=40, deadline=None)
    def test_mass_conserved_on_random_grids(self, problem):
        kp, x0, half, nx, T = problem
        rho = solve_fokker_planck(kp, x0, T, -half, half, nx, w0=0.3)
        assert np.abs(rho.mass() - 1.0).max() < 1e-12

    def test_pairing_matches_particles(self):
        # duality oracle: grid density against an independent particle run;
        # the grid side carries an O(dx^2) bias (mollified initial bump of
        # width 4 dx), estimated by Richardson between two resolutions
        from devia.diff_sim import simulate_interacting

        kp = default_kernels()
        phi = HermiteFunction.from_poly_coeffs([0.0, 1.0, 1.0])
        coarse = solve_fokker_planck(kp, 0.0, 0.5, -5.0, 5.0, 201).pair(0.5, phi)
        fine_rho = solve_fokker_planck(kp, 0.0, 0.5, -5.0, 5.0, 401)
        fine = fine_rho.pair(0.5, phi)
        grid_err = abs(fine - coarse) / 3.0  # O(dx^2): remaining error ~ diff/3
        ref = simulate_interacting(kp, 16384, 0.0, 0.5, 1 / 256, seed=77, record_stride=128)
        mc = ref.hook(0.5).pair(phi)
        samples = phi(ref.positions[-1])
        se = samples.std() / math.sqrt(len(samples))
        assert abs(fine - mc) < 3 * se + 2.0 * grid_err + 1e-3


class TestLinearized:
    def test_zero_control_zero_path(self):
        rho = solve_fokker_planck(default_kernels(), 0.0, 0.25, -5.0, 5.0, 121)
        eta = solve_linearized(default_kernels(), rho, lambda x, t: 0.0 * x)
        assert np.abs(eta.values).max() == 0.0

    def test_linearity(self):
        kp = default_kernels()
        rho = solve_fokker_planck(kp, 0.0, 0.25, -5.0, 5.0, 121)
        g = lambda x, t: np.cos(x)
        g2 = lambda x, t: 2.0 * np.cos(x)
        e1 = solve_linearized(kp, rho, g)
        e2 = solve_linearized(kp, rho, g2)
        assert np.allclose(e2.values, 2 * e1.values, atol=1e-13)

    def test_mass_zero(self):
        kp = default_kernels()
        rho = solve_fokker_planck(kp, 0.0, 0.5, -5.0, 5.0, 161)
        eta = solve_linearized(kp, rho, lambda x, t: np.sin(x) + 0.3 * t)
        assert np.abs(eta.mass()).max() < 1e-8

    @given(grid_problems(), st.floats(-2.0, 2.0), st.floats(0.2, 3.0), st.floats(-5.0, 5.0))
    @settings(max_examples=40, deadline=None)
    def test_mass_zero_on_random_grids(self, problem, amp, freq, drift):
        kp, x0, half, nx, T = problem
        rho = solve_fokker_planck(kp, x0, T, -half, half, nx, w0=0.3)
        eta = solve_linearized(kp, rho, lambda x, t: amp * np.sin(freq * x) + drift * t)
        assert np.abs(eta.mass()).max() < 1e-12 * max(1.0, np.abs(eta.values).max())

    def test_heat_forcing_grid_refinement(self):
        # beta = 0, alpha = 1, g = 1: d_t eta = 1/2 d_xx eta - d_x rho;
        # a solve at doubled resolution is the reference (same physical
        # mollification width on both grids)
        coarse_rho = solve_fokker_planck(HEAT, 0.0, 0.25, -6.0, 6.0, 151, w0=0.3)
        fine_rho = solve_fokker_planck(HEAT, 0.0, 0.25, -6.0, 6.0, 301, w0=0.3)
        g = lambda x, t: np.ones_like(x)
        coarse = solve_linearized(HEAT, coarse_rho, g)
        fine = solve_linearized(HEAT, fine_rho, g)
        interp = np.interp(coarse.xs, fine.xs, fine.values[-1])
        err = np.abs(coarse.values[-1] - interp).sum() * coarse.dx
        assert err < 5e-3


class TestRateDiffusion:
    def test_zero_path(self):
        kp = default_kernels()
        rho = solve_fokker_planck(kp, 0.0, 0.25, -5.0, 5.0, 121)
        eta = GridField(rho.xs, rho.ts, np.zeros_like(rho.values))
        res = rate_diffusion(kp, rho, eta)
        assert res.feasible and res.value == pytest.approx(0.0, abs=1e-14)

    def test_roundtrip(self):
        kp = default_kernels()
        rho = solve_fokker_planck(kp, 0.0, 0.5, -5.0, 5.0, 161)
        g = lambda x, t: np.sin(x) * (1 + 0.5 * t)
        eta = solve_linearized(kp, rho, g)
        res = rate_diffusion(kp, rho, eta)
        want = control_cost_on_grid(rho, g)
        assert res.feasible
        assert abs(res.value - want) / want < 0.02

    def test_ornstein_uhlenbeck_cost_is_exact(self):
        # additive-noise pair with level = rate = 1: Ornstein-Uhlenbeck
        # particles dX = -X dt + dW.  The control g(t) = e^{-(T-t)} / V_T,
        # V_T = (1 - e^{-2T}) / 2, moves the mean of eta from 0 to 1 at least
        # cost, and its exact cost is 1/2 int_0^T g^2 dt = 1 / (2 V_T); the
        # chain FP -> linearized -> rate must reach it at second order in dx
        T = 0.5
        V_T = (1.0 - math.exp(-2.0 * T)) / 2.0
        exact = 1.0 / (2.0 * V_T)  # 1.581977
        kp = kernels_from_config({"family": "additive-noise", "level": 1.0, "rate": 1.0})
        err = {}
        for nx in (161, 321):
            rho = solve_fokker_planck(kp, 0.3, T, -5.0, 5.0, nx)
            eta = solve_linearized(kp, rho, lambda x, t: np.exp(-(T - t)) / V_T)
            res = rate_diffusion(kp, rho, eta)
            assert res.feasible, res.message
            err[nx] = (res.value - exact) / exact
        assert abs(err[161]) <= 1e-3
        assert abs(err[321]) <= abs(err[161]) / 3.0

    def test_mass_violation_infeasible(self):
        kp = default_kernels()
        rho = solve_fokker_planck(kp, 0.0, 0.25, -5.0, 5.0, 121)
        bad = GridField(
            rho.xs, rho.ts, np.outer(rho.ts, np.exp(-rho.xs**2))
        )  # positive bump growing in time
        res = rate_diffusion(kp, rho, bad)
        assert not res.feasible and math.isinf(res.value)

    def test_nonzero_start_infeasible(self):
        kp = default_kernels()
        rho = solve_fokker_planck(kp, 0.0, 0.25, -5.0, 5.0, 121)
        bump = np.exp(-rho.xs**2) * np.sin(rho.xs)
        bad = GridField(rho.xs, rho.ts, np.tile(bump, (len(rho.ts), 1)))
        res = rate_diffusion(kp, rho, bad)
        assert not res.feasible and "zero" in res.message

    def test_degenerate_region_blocks_flux(self):
        # sigma = 0 everywhere: any moving eta needs flux on degenerate cells
        rho = solve_fokker_planck(TRANSPORT, 1.0, 0.25, -1.0, 3.0, 301)
        # a hand-made mass-zero path on the degenerate problem
        vals = np.zeros((len(rho.ts), len(rho.xs)))
        bump = np.exp(-((rho.xs - 1.0) ** 2) * 4)
        bump -= bump.mean()
        for k, t in enumerate(rho.ts):
            vals[k] = t * bump
        res = rate_diffusion(TRANSPORT, rho, GridField(rho.xs, rho.ts, vals))
        assert not res.feasible

    @pytest.mark.parametrize("k0", [0, 40, 100])
    def test_degenerate_verdict_names_the_first_offending_time(self, k0):
        # sigma = 0 everywhere, so the first slice whose d/dt eta is nonzero
        # needs flux on degenerate interfaces; k0 = 40 and 100 lie past the
        # first block of time slices
        rho = solve_fokker_planck(TRANSPORT, 1.0, 0.25, -1.0, 3.0, 301)
        bump = np.exp(-((rho.xs - 1.0) ** 2) * 4)
        bump -= bump.mean()
        vals = np.outer(np.maximum(rho.ts - rho.ts[k0], 0.0), bump)
        res = rate_diffusion(TRANSPORT, rho, GridField(rho.xs, rho.ts, vals))
        assert not res.feasible
        assert res.message.endswith(f"degenerate at t={rho.ts[k0]:.6g}")

    @pytest.mark.parametrize("nx", [321, 641])
    def test_blocked_pass_keeps_memory_bounded(self, nx):
        # the pass stores the flux and sigma^2 rho faces next to d/dt eta;
        # its blocks of time slices keep the rest below one more eta
        kp = default_kernels()
        rho = solve_fokker_planck(kp, 0.0, 0.5, -5.0, 5.0, nx)
        eta = solve_linearized(kp, rho, lambda x, t: np.sin(x) * (1 + 0.5 * t))
        tracemalloc.start()
        try:
            res = rate_diffusion(kp, rho, eta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.feasible
        assert peak <= 4 * eta.values.nbytes

    def test_nonuniform_time_grid_rejected(self):
        # the time derivative of eta assumes a uniform grid
        kp = default_kernels()
        rho = solve_fokker_planck(kp, 0.0, 0.25, -5.0, 5.0, 101)
        eta = solve_linearized(kp, rho, lambda x, t: np.sin(x))
        ts = rho.ts.copy()
        ts[1:-1] += 0.3 * (ts[1] - ts[0]) * np.sin(np.arange(1, len(ts) - 1))
        with pytest.raises(ValueError, match="uniform time grid"):
            rate_diffusion(kp, GridField(rho.xs, ts, rho.values), GridField(eta.xs, ts, eta.values))


class TestWeakDuality:
    def test_residual_shrinks_under_refinement(self):
        kp = default_kernels()
        phi = HermiteFunction.from_hermite_coeffs([0.5, 1.0, 0.25])
        g = lambda x, t: np.sin(x)
        res = {}
        for nx in (101, 201):
            rho = solve_fokker_planck(kp, 0.0, 0.25, -5.0, 5.0, nx)
            eta = solve_linearized(kp, rho, g)
            r = weak_form_residual(kp, rho, eta, g, phi)
            # the endpoints use second-order one-sided d/dt, with a larger
            # error constant than the central interior
            res[nx] = np.abs(r[1:-1]).max()
        assert res[201] < 0.6 * res[101]
        assert res[201] < 5e-3


@pytest.mark.parametrize("family", ["default", "additive-noise", "zero"])
def test_kernel_fn_is_its_separable_form(family):
    # the kernels' two definitions agree: fn(x, y) = f(x) g(y) on a grid
    xs = np.linspace(-4.0, 4.0, 81)
    kp = kernels_from_config({"family": family})
    for kernel in (kp.alpha, kp.beta):
        f, g = kernel.sep
        outer = np.asarray(f(xs))[:, None] * np.asarray(g(xs))[None, :]
        assert np.allclose(kernel.fn(xs[:, None], xs[None, :]), outer, rtol=1e-13, atol=0.0)


def _dense_means(kernel, pts, W, x, fvals):
    """integral k(x, y) mu(dy) and integral f(y) k(y, x) mu(dy) as O(N M)
    sums of the kernel's direct definition fn, each with the sum of its
    terms' magnitudes (the scale of its rounding error)."""
    k_xy = kernel.fn(x[:, None], pts[None, :])  # (len(x), N)
    k_yx = kernel.fn(pts[:, None], x[None, :])  # (N, len(x))
    wf = W * fvals
    return ((W @ k_xy.T, np.abs(W) @ np.abs(k_xy.T)),
            (wf @ k_yx, np.abs(wf) @ np.abs(k_yx)))


@st.composite
def measure_paths(draw):
    """Points, weights with one or two leading axes, and evaluation points
    of several sizes."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lead = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=2)))
    n = draw(st.integers(1, 200))
    x = rng.normal(size=draw(st.sampled_from([1, 7, 513, 700])))
    return rng.normal(size=n), rng.normal(size=lead + (n,)), x, rng.normal(size=n)


@pytest.mark.parametrize(
    "kernel",
    [
        default_kernels().alpha,
        default_kernels().beta,
        constant_alpha(0.7),
        linear_reversion_beta(1.3),
    ],
    ids=["gaussian", "gaussian-reversion", "const", "linear"],
)
@pytest.mark.parametrize("reference", ["separable", "dense"])
@given(measure_paths())
@settings(max_examples=25, deadline=None)
def test_batched_means_equal_the_row_calls(kernel, reference, data):
    # weights (..., N) average a path of measures in one call.  separable:
    # each row is bit for bit the library's call on that row alone; dense:
    # the batch matches O(N M) sums of fn, which share no code with it
    pts, W, x, fvals = data
    mu = MeasureHook(points=pts, weights=W)
    got_y = kernel.mean_y(x, mu)
    got_x = kernel.mean_x(fvals, mu, x)
    unit = MeasureHook(points=pts, weights=np.ones_like(pts))
    got_xw = kernel.mean_x(W * fvals, unit, x)
    assert got_y.shape == got_x.shape == got_xw.shape == W.shape[:-1] + x.shape
    if reference == "dense":
        (ref_y, scale_y), (ref_x, scale_x) = _dense_means(kernel, pts, W, x, fvals)
        assert np.all(np.abs(got_y - ref_y) <= 1e-12 * scale_y)
        assert np.all(np.abs(got_x - ref_x) <= 1e-12 * scale_x)
        assert np.all(np.abs(got_xw - ref_x) <= 1e-12 * scale_x)
        return
    for idx in np.ndindex(W.shape[:-1]):
        row = MeasureHook(points=pts, weights=W[idx])
        assert np.array_equal(got_y[idx], kernel.mean_y(x, row))
        assert np.array_equal(got_x[idx], kernel.mean_x(fvals, row, x))
        assert np.array_equal(got_xw[idx], kernel.mean_x(W[idx] * fvals, unit, x))

