import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from devia import jump_analysis
from devia.diff_analysis import GridField
from devia.jump_analysis import (
    _laplacian_density,
    _svd_density,
    birth_death_law,
    psi_l2sq,
    rate_I,
    rate_Ibar,
    skeleton_G0,
    skeleton_picard,
    solve_p,
)
from devia.jump_sim import JumpControl
from devia.mf_model import birth_death_model, cell_weights, constant_rate_model, two_state_model
from devia.paths import PathVec
from devia.rng import stream


AXIS_OWNERS = {
    "path": lambda axis: PathVec(axis, np.zeros((len(axis), 2))),
    "control": lambda axis: JumpControl(axis, np.zeros((len(axis) - 1, 2, 2))),
    "grid field": lambda axis: GridField(axis, np.array([0.0, 0.5]), np.zeros((2, len(axis)))),
}


@pytest.mark.parametrize("owner", list(AXIS_OWNERS))
@pytest.mark.parametrize("axis, message", [
    ([0.0, math.nan, 1.0], "must be finite; got nan"),
    ([0.0, 0.5, math.inf], "must be finite; got inf"),
    ([-math.inf, 0.0, 1.0], "must be finite; got -inf"),
    ([0.0, 0.5, 0.5], "must be strictly increasing"),
    ([0.0], "needs at least 2"),
])
def test_every_axis_is_finite_and_increasing(owner, axis, message):
    # the three constructors share one rule; each accepted [0, nan, 1] once
    with pytest.raises(ValueError, match=f"^{re.escape(owner)}.*{re.escape(message)}"):
        AXIS_OWNERS[owner](np.array(axis))


class TestSolveP:
    def test_zero_drift_constant(self):
        model = constant_rate_model(np.zeros((3, 3)))
        p = solve_p(model, np.array([0.2, 0.3, 0.5]), 1.0, 64)
        assert np.allclose(p.values, p.values[0])

    def test_two_state_closed_form(self, flip_model):
        # p1' = 1 - 2 p1  =>  p1(t) = 1/2 + (p1(0) - 1/2) e^{-2t}
        p = solve_p(flip_model, np.array([0.9, 0.1]), 1.0, 512)
        ts = p.grid
        exact = 0.5 + 0.4 * np.exp(-2.0 * ts)
        assert np.abs(p.values[:, 0] - exact).max() < 1e-10

    @pytest.mark.parametrize("T, n_steps, message", [
        (math.nan, 8, "finite horizon T > 0; got T=nan"),
        (math.inf, 8, "finite horizon T > 0; got T=inf"),
        (0.0, 8, "finite horizon T > 0; got T=0.0"),
        (-1.0, 8, "finite horizon T > 0; got T=-1.0"),
        (1.0, 0, "at least 1 step; got n_steps=0"),
    ])
    def test_bad_grid_is_diagnosed(self, flip_model, T, n_steps, message):
        # T = nan used to give an all-NaN path, n_steps = 0 a ZeroDivisionError
        with pytest.raises(ValueError, match=re.escape(message)):
            solve_p(flip_model, np.array([0.5, 0.5]), T, n_steps)

    def test_mass_conserved(self, default_model):
        p = solve_p(default_model, np.full(5, 0.2), 2.0, 512)
        assert np.abs(p.values.sum(axis=1) - 1.0).max() < 1e-12
        assert p.values.min() >= 0.0


def _lln_by_steps(model, p0, T: float, n_steps: int) -> np.ndarray:
    """Reference for the LLN solve: classical RK4 one step at a time, with
    the drift written from the rate matrix.  A step that leaves the simplex
    by more than 1e-9 max(h, 1) is retried as two half steps, and a step's
    mass is renormalized when it is off by more than 1e-12."""

    def b(q):
        R = model.rate_matrix(q)
        return R.T @ q - R.sum(axis=1) * q

    def step(p, h, depth):
        k1 = b(p)
        k2 = b(p + 0.5 * h * k1)
        k3 = b(p + 0.5 * h * k2)
        k4 = b(p + h * k3)
        out = p + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if out.min() < -1e-9 * max(h, 1.0):
            assert depth < 20, "the reference cannot keep the simplex"
            return step(step(p, h / 2.0, depth + 1), h / 2.0, depth + 1)
        s = out.sum()
        return out / s if abs(s - 1.0) > 1e-12 else out

    vals = [np.asarray(p0, dtype=float)]
    for _ in range(n_steps):
        vals.append(step(vals[-1], T / n_steps, 0))
    return np.array(vals)


@pytest.fixture()
def fallback_steps(monkeypatch):
    """Counts the steps solve_p takes one at a time, half steps included."""
    calls = [0]
    step = jump_analysis._rk4_step_simplex

    def counted(*args, **kwargs):
        calls[0] += 1
        return step(*args, **kwargs)

    monkeypatch.setattr(jump_analysis, "_rk4_step_simplex", counted)
    return calls


@pytest.fixture()
def newton_iterations(monkeypatch):
    """Counts the prefix scans of solve_p's Newton iterations."""
    calls = [0]
    scan = jump_analysis._prefix_products

    def counted(M):
        calls[0] += 1
        return scan(M)

    monkeypatch.setattr(jump_analysis, "_prefix_products", counted)
    return calls


class TestNewtonLLN:
    """The blocked Newton solve equals RK4 stepped one step at a time."""

    @pytest.mark.parametrize("model, p0, T, n_steps", [
        (birth_death_model(5, 0.5, 0.5, 0.5), np.full(5, 0.2), 1.0, 4096),
        (birth_death_model(5, 0.5, 0.5, 0.5), np.full(5, 0.2), 10.0, 4096),
        (birth_death_model(3, 1.0, 2.0, 0.5), np.array([0.6, 0.3, 0.1]), 1.0, 600),
        (two_state_model(1.0), np.array([0.9, 0.1]), 1.0, 512),
    ], ids=["birth-death K5 T1", "birth-death K5 T10", "birth-death K3", "two-state"])
    def test_matches_the_sequential_reference(
        self, fallback_steps, newton_iterations, model, p0, T, n_steps
    ):
        p = solve_p(model, p0, T, n_steps)
        assert fallback_steps[0] == 0
        # with the exact RK4 Jacobian Newton converges fast
        assert newton_iterations[0] <= 5 * math.ceil(n_steps / jump_analysis.BLOCK)
        assert np.array_equal(p.grid, np.linspace(0.0, T, n_steps + 1))
        assert np.abs(p.values - _lln_by_steps(model, p0, T, n_steps)).max() <= 1e-15

    def test_a_step_leaving_the_simplex_falls_back_to_half_steps(self, fallback_steps):
        # a full RK4 step of h = 1/8 against rates of order 60 overshoots
        # into negative mass; the half steps keep the simplex
        model = constant_rate_model([[0.0, 40.0, 10.0], [20.0, 0.0, 30.0], [5.0, 25.0, 0.0]])
        p0 = np.array([0.9, 0.05, 0.05])
        p = solve_p(model, p0, 1.0, 8)
        assert fallback_steps[0] > 8
        assert p.values.min() >= 0.0
        assert np.abs(p.values - _lln_by_steps(model, p0, 1.0, 8)).max() <= 1e-15

    def test_a_model_that_cannot_keep_the_simplex_raises(self, fallback_steps):
        # h / 2^20 is still far too long a step against a rate of 1e8
        with pytest.raises(RuntimeError, match="cannot maintain the simplex; step too large"):
            solve_p(two_state_model(1e8), np.array([0.9, 0.1]), 1.0, 1)
        assert fallback_steps[0] == 21


def _two_state_skeleton_oracle(psi_val: float, p1_0: float, ts: np.ndarray) -> np.ndarray:
    """Variation-of-constants solution for the symmetric flip model with a
    constant control on cell (1,2): eta = (-h, h) with
    h(t) = psi * [ (1 - e^{-2t})/4 + (p1(0) - 1/2) t e^{-2t} ]."""
    delta = p1_0 - 0.5
    h = psi_val * (0.25 * (1.0 - np.exp(-2.0 * ts)) + delta * ts * np.exp(-2.0 * ts))
    return np.stack([-h, h], axis=1)


class TestSkeleton:
    def test_zero_control(self, default_model):
        p = solve_p(default_model, np.full(5, 0.2), 1.0, 256)
        eta = skeleton_G0(default_model, p, JumpControl.zero(5, 1.0))
        assert np.abs(eta.values).max() == 0.0

    def test_linearity(self, flip_model):
        p = solve_p(flip_model, np.array([0.6, 0.4]), 1.0, 256)
        c1 = JumpControl.constant(2, 1.0, {(1, 2): 0.3, (2, 1): -0.1})
        c2 = JumpControl.constant(2, 1.0, {(1, 2): 0.6, (2, 1): -0.2})
        e1 = skeleton_G0(flip_model, p, c1)
        e2 = skeleton_G0(flip_model, p, c2)
        assert np.allclose(e2.values, 2.0 * e1.values, atol=1e-14)

    def test_closed_form_oracle(self, flip_model):
        # half-stage values of p come from linear interpolation, so the
        # effective order drops; 4096 steps leaves that error below 1e-9
        p1_0, psi_val = 0.8, 0.7
        p = solve_p(flip_model, np.array([p1_0, 1 - p1_0]), 1.0, 4096)
        eta = skeleton_G0(flip_model, p, JumpControl.constant(2, 1.0, {(1, 2): psi_val}))
        exact = _two_state_skeleton_oracle(psi_val, p1_0, eta.grid)
        assert np.abs(eta.values - exact).max() < 1e-8

    def test_bounded_by_control_norm(self, default_model):
        # Gronwall bound: sup_t ||G0(psi)|| <= sqrt(2 gamma_norm T) *
        # ||psi||_L2 * exp(c_b T), with the certified operator bound
        # c_b = 2(a + 2b + c) for the birth-death Jacobian
        from devia.jump_analysis import psi_l2sq
        from devia.rng import stream

        T = 1.0
        p = solve_p(default_model, np.full(5, 0.2), T, 512)
        c_b = 2.0 * (0.5 + 2.0 * 0.5 + 0.5)  # the fixture's a = b = c = 1/2
        amp = math.sqrt(2.0 * default_model.gamma_norm * T) * math.exp(c_b * T)
        rng = stream(33, 0)
        for _ in range(50):
            n_bins = int(rng.integers(1, 6))
            psi = JumpControl(
                np.linspace(0, T, n_bins + 1), rng.normal(size=(n_bins, 5, 5))
            )
            eta = skeleton_G0(default_model, p, psi)
            norm_psi = math.sqrt(psi_l2sq(default_model, p, psi))
            assert np.linalg.norm(eta.values, axis=1).max() <= amp * norm_psi + 1e-12

    def test_picard_agrees_with_rk4(self, flip_model):
        p = solve_p(flip_model, np.array([0.7, 0.3]), 1.0, 512)
        control = JumpControl.constant(2, 1.0, {(1, 2): 0.5, (2, 1): 0.2}, n_bins=2)
        a = skeleton_G0(flip_model, p, control)
        b = skeleton_picard(flip_model, p, control)
        assert np.abs(a.values - b.values).max() < 1e-5

    @pytest.mark.parametrize("solve", [skeleton_G0, skeleton_picard])
    def test_control_must_cover_the_horizon(self, flip_model, solve):
        # a control on [0, 1] used to stretch its last bin over p's [0, 2]
        p = solve_p(flip_model, np.array([0.5, 0.5]), 2.0, 64)
        control = JumpControl.constant(2, 1.0, {(1, 2): 0.4})
        with pytest.raises(ValueError, match="control ends at t=1, before the horizon T=2"):
            solve(flip_model, p, control)

    @pytest.mark.parametrize("solve", [skeleton_G0, skeleton_picard, psi_l2sq])
    @pytest.mark.parametrize("wrong, message", [
        ("p_path", "p_path has 3 coordinates, but the model has K=2 states"),
        ("control", "control has 4 states, but the model has K=2 states"),
    ], ids=["p_path", "control"])
    def test_inputs_of_the_wrong_dimension_rejected(self, flip_model, solve, wrong, message):
        # each used to end in numpy's broadcast error, which named neither
        p = solve_p(flip_model, np.array([0.5, 0.5]), 1.0, 64)
        control = JumpControl.constant(2, 1.0, {(1, 2): 0.4})
        if wrong == "p_path":
            p = PathVec(p.grid, np.hstack([p.values, np.zeros((len(p.grid), 1))]))
        else:
            control = JumpControl.constant(4, 1.0, {(1, 2): 0.4})
        with pytest.raises(ValueError, match=message):
            solve(flip_model, p, control)

    @pytest.mark.parametrize("dim, T, message", [
        (3, 1.0, "eta_init has 3 coordinates, but the model has K=2 states"),
        (2, 0.14, "eta_init ends at t=0.14, before the horizon T=1"),
    ], ids=["dimension", "horizon"])
    def test_picard_start_is_checked(self, flip_model, dim, T, message):
        # a 3-column start used to end in numpy's matmul error, and a start
        # that ends early was held flat past its end
        p = solve_p(flip_model, np.array([0.5, 0.5]), 1.0, 64)
        control = JumpControl.constant(2, 1.0, {(1, 2): 0.4})
        grid = np.linspace(0.0, T, 8)
        with pytest.raises(ValueError, match=message):
            skeleton_picard(flip_model, p, control, eta_init=PathVec(grid, np.zeros((8, dim))))


def _skeleton_by_steps(model, p_path: PathVec, psi: JumpControl) -> np.ndarray:
    """Reference for the scanned skeleton: RK4 one step at a time, with p
    interpolated linearly at the stage midpoints."""
    ts = p_path.grid
    eta = np.zeros((len(ts), model.K))
    y = eta[0]
    for k in range(len(ts) - 1):
        h = ts[k + 1] - ts[k]
        s = np.array([ts[k], ts[k] + 0.5 * h, ts[k + 1]])
        P = p_path(s)
        A = model.db(P)
        M = psi.value(s) * P[:, :, None] * model.rates_batch(P)
        F = M.sum(axis=-2) - M.sum(axis=-1)
        k1 = A[0] @ y + F[0]
        k2 = A[1] @ (y + 0.5 * h * k1) + F[1]
        k3 = A[1] @ (y + 0.5 * h * k2) + F[1]
        k4 = A[2] @ (y + h * k3) + F[2]
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        eta[k + 1] = y
    return eta


def _assert_scan_matches_steps(model, p_path, psi):
    want = _skeleton_by_steps(model, p_path, psi)
    got = skeleton_G0(model, p_path, psi).values
    assert np.abs(got - want).max() <= 1e-13 * max(1.0, np.abs(want).max())


class TestSkeletonScan:
    """The prefix-scanned skeleton equals the per-step RK4 recurrence."""

    def test_birth_death_at_4096_steps(self, default_model):
        p = solve_p(default_model, np.full(5, 0.2), 1.0, 4096)
        _assert_scan_matches_steps(default_model, p, _potential_control(5, 1.0, 4, 0.4, 6))

    def test_two_state(self, flip_model):
        p = solve_p(flip_model, np.array([0.8, 0.2]), 1.0, 2048)
        control = JumpControl.constant(2, 1.0, {(1, 2): 0.4, (2, 1): -0.2}, n_bins=4)
        _assert_scan_matches_steps(flip_model, p, control)

    def test_constant_model_with_empty_cells(self):
        # nothing leaves state 3, and nothing goes from 2 to 3
        model = constant_rate_model([[0.0, 1.0, 0.5], [2.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        p = solve_p(model, np.array([0.2, 0.3, 0.5]), 1.0, 600)
        _assert_scan_matches_steps(model, p, _potential_control(3, 1.0, 3, 0.5, 8))

    @pytest.mark.parametrize("n_steps", [1, 255, 256, 257, 1000])
    def test_block_edges(self, default_model, n_steps):
        # 257 and 1000 steps leave a last block of 1 and 232 steps
        p = solve_p(default_model, np.array([0.4, 0.3, 0.1, 0.1, 0.1]), 1.5, n_steps)
        _assert_scan_matches_steps(default_model, p, _potential_control(5, 1.5, 3, 0.6, 7))

    def test_non_uniform_grid(self, default_model):
        p = solve_p(default_model, np.full(5, 0.2), 1.0, 1024)
        grid = np.linspace(0.0, 1.0, 700) ** 1.5
        _assert_scan_matches_steps(
            default_model, PathVec(grid, p(grid)), _potential_control(5, 1.0, 4, 0.4, 9)
        )


@given(st.integers(2, 4), st.integers(1, 600), st.integers(0, 2**16), st.floats(0.25, 2.0))
@settings(max_examples=25, deadline=None)
def test_scanned_skeleton_matches_steps_on_constant_models(K, n_steps, seed, T):
    rng = stream(seed, 1)
    R = rng.choice([0.0, 0.0, 0.5, 1.0, 3.0], size=(K, K))
    model = constant_rate_model(R)
    p = solve_p(model, rng.dirichlet(np.ones(K)), T, n_steps)
    _assert_scan_matches_steps(model, p, _potential_control(K, T, 3, 1.0, seed))


def _potential_control(K: int, T: float, n_bins: int, scale: float, seed: int) -> JumpControl:
    rng = stream(seed, 0)
    v = rng.normal(size=(n_bins, K)) * scale
    return JumpControl(np.linspace(0.0, T, n_bins + 1), v[:, None, :] - v[:, :, None])


class TestRateFunctions:
    def test_zero_path_costs_nothing(self, default_model):
        p = solve_p(default_model, np.full(5, 0.2), 1.0, 256)
        eta = PathVec(p.grid, np.zeros((len(p.grid), 5)))
        res = rate_I(default_model, p, eta)
        assert res.feasible and res.value == pytest.approx(0.0, abs=1e-14)

    def test_roundtrip_recovers_cost(self, default_model):
        # fields with potential structure are exactly the least-norm ones
        p = solve_p(default_model, np.full(5, 0.2), 1.0, 4096)
        psi = _potential_control(5, 1.0, n_bins=1, scale=0.4, seed=5)
        eta = skeleton_G0(default_model, p, psi)
        want = 0.5 * psi_l2sq(default_model, p, psi)
        got = rate_Ibar(default_model, p, eta)
        assert got.feasible
        assert got.value == pytest.approx(want, abs=1e-6)

    def test_parametrizations_agree(self, default_model):
        p = solve_p(default_model, np.full(5, 0.2), 1.0, 2048)
        psi = _potential_control(5, 1.0, n_bins=4, scale=0.5, seed=6)
        eta = skeleton_G0(default_model, p, psi)
        a = rate_I(default_model, p, eta)
        b = rate_Ibar(default_model, p, eta)
        assert abs(a.value - b.value) <= 1e-8

    def test_infimum_bound_and_strictness(self, flip_model):
        # any control upper-bounds the rate of its own skeleton path; a
        # one-cell field is not least-norm, so the inequality is strict
        p = solve_p(flip_model, np.array([0.5, 0.5]), 1.0, 1024)
        psi = JumpControl.constant(2, 1.0, {(1, 2): 0.8})
        eta = skeleton_G0(flip_model, p, psi)
        res = rate_I(flip_model, p, eta)
        upper = 0.5 * psi_l2sq(flip_model, p, psi)
        assert res.value <= upper + 1e-12
        assert res.value < 0.9 * upper

    def test_jump_discontinuity_infeasible(self, flip_model):
        p = solve_p(flip_model, np.array([0.5, 0.5]), 1.0, 1024)
        ts = p.grid
        vals = np.zeros((len(ts), 2))
        vals[len(ts) // 2 :] = np.array([-1.0, 1.0])  # unit jump mid-horizon
        res = rate_I(flip_model, p, PathVec(ts, vals))
        assert not res.feasible
        assert math.isinf(res.value)
        assert "refinement" in res.message

    @pytest.mark.parametrize("rate", [rate_I, rate_Ibar])
    def test_limit_path_must_cover_the_horizon(self, flip_model, rate):
        p = solve_p(flip_model, np.array([0.5, 0.5]), 0.5, 64)
        eta = PathVec(np.linspace(0.0, 1.0, 65), np.zeros((65, 2)))
        with pytest.raises(ValueError, match=r"p_path ends at t=0\.5, before the horizon T=1$"):
            rate(flip_model, p, eta)

    def test_mass_violation_infeasible(self, flip_model):
        p = solve_p(flip_model, np.array([0.5, 0.5]), 1.0, 256)
        ts = p.grid
        vals = np.stack([0.2 * ts, 0.3 * ts], axis=1)  # coordinate sum grows
        res = rate_I(flip_model, p, PathVec(ts, vals))
        assert not res.feasible and "mass" in res.message

    def test_nonzero_start_infeasible(self, flip_model):
        p = solve_p(flip_model, np.array([0.5, 0.5]), 1.0, 256)
        vals = np.tile([[-0.5, 0.5]], (len(p.grid), 1))
        res = rate_I(flip_model, p, PathVec(p.grid, vals))
        assert not res.feasible and "zero" in res.message

    def test_unreachable_direction_infeasible(self):
        # only the (1,2) cell is active, so motion in the 2-3 plane cannot be
        # produced by any control
        R = np.zeros((3, 3))
        R[0, 1] = 1.0
        model = constant_rate_model(R)
        p = solve_p(model, np.array([0.6, 0.3, 0.1]), 1.0, 512)
        ts = p.grid
        vals = np.zeros((len(ts), 3))
        vals[:, 1] = -0.1 * ts
        vals[:, 2] = 0.1 * ts
        res = rate_I(model, p, PathVec(ts, vals))
        assert not res.feasible and "span" in res.message
        assert res.detail["refine_check"] == "skipped: path infeasible before the check"


    @pytest.mark.parametrize(
        "n_points, want",
        [
            (9, "ran"),
            (5, "skipped: 5 grid points, fewer than 9"),
            (10, "skipped: 9 grid intervals, an odd number"),
        ],
        ids=["ran", "few-points", "odd-intervals"],
    )
    def test_refine_check_is_reported(self, flip_model, n_points, want):
        p = solve_p(flip_model, np.array([0.5, 0.5]), 1.0, 256)
        ts = np.linspace(0.0, 1.0, n_points)
        eta = PathVec(ts, np.outer(ts, [-0.1, 0.1]))
        for rate in (rate_I, rate_Ibar):
            res = rate(flip_model, p, eta)
            assert res.feasible and res.detail["refine_check"] == want

    @pytest.mark.parametrize("density", [_svd_density, _laplacian_density])
    @pytest.mark.parametrize("path", ["skeleton", "unreachable"])
    def test_fused_half_grid_equals_a_separate_pass(self, default_model, density, path):
        # the half-grid forcing rides on the full pass's factorizations; it
        # must give what a pass over eta.restrict_every(2) gives
        if path == "skeleton":
            model = default_model
            p = solve_p(model, np.full(5, 0.2), 1.0, 4096)
            eta = skeleton_G0(model, p, _potential_control(5, 1.0, 4, 0.4, 6))
        else:
            # only cell (1,2) is active, so motion in the 2-3 plane leaves
            # a residual
            R = np.zeros((3, 3))
            R[0, 1] = 1.0
            model = constant_rate_model(R)
            p = solve_p(model, np.array([0.6, 0.3, 0.1]), 1.0, 1000)
            eta = PathVec(p.grid, np.outer(p.grid, [0.0, -0.1, 0.1]))
        [_, (dens_h, ratio_h)] = density(model, p, eta, True)
        [(dens, ratio)] = density(model, p, eta.restrict_every(2), False)
        assert np.allclose(dens_h, dens, rtol=1e-12, atol=0.0)
        assert np.allclose(ratio_h, ratio, rtol=1e-12, atol=1e-15)
        if path == "unreachable":
            assert ratio.max() > 0.1

    @pytest.mark.parametrize("rate", [rate_I, rate_Ibar])
    def test_each_slice_is_factored_once(self, default_model, monkeypatch, rate):
        # 4097 grid points make 17 blocks; the refinement pass reuses their
        # factorizations instead of 9 more
        p = solve_p(default_model, np.full(5, 0.2), 1.0, 4096)
        eta = skeleton_G0(default_model, p, _potential_control(5, 1.0, 4, 0.4, 6))
        calls = []
        pinv = np.linalg.pinv
        monkeypatch.setattr(np.linalg, "pinv", lambda *a, **k: calls.append(1) or pinv(*a, **k))
        res = rate(default_model, p, eta)
        assert res.feasible and res.detail["refine_check"] == "ran"
        assert len(calls) == 17

    def test_passes_keep_memory_bounded(self, default_model):
        # the batched passes work in blocks of slices, so their peak
        # allocation does not grow with the grid (unblocked, N = 4097 peaks
        # at about 8 MB)
        p = solve_p(default_model, np.full(5, 0.2), 1.0, 4096)
        psi = _potential_control(5, 1.0, n_bins=4, scale=0.4, seed=6)
        eta = skeleton_G0(default_model, p, psi)
        for run in (lambda: rate_I(default_model, p, eta), lambda: skeleton_G0(default_model, p, psi)):
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2 * 2**20


@st.composite
def _constant_rate_problems(draw):
    """A constant-rate model with empty cells (zero rates) and, whenever the
    states get two labels, no rates between the labels (a disconnected cell
    graph); a start p0 that may leave states empty; and a mass-zero path."""
    K = draw(st.integers(2, 5))
    rates = st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.0])
    R = np.array(draw(st.lists(rates, min_size=K * K, max_size=K * K))).reshape(K, K)
    label = np.array(draw(st.lists(st.integers(0, 1), min_size=K, max_size=K)))
    R[label[:, None] != label[None, :]] = 0.0
    p0 = np.array(draw(st.lists(st.integers(0, 3), min_size=K, max_size=K)), dtype=float)
    p0[0] += 1.0
    v, w = (
        np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=K, max_size=K)))
        for _ in range(2)
    )
    return constant_rate_model(R), p0 / p0.sum(), v - v.mean(), w - w.mean()


@given(_constant_rate_problems())
@settings(max_examples=60, deadline=None)
def test_primal_and_dual_rates_agree(problem):
    # the SVD least-norm route and the Laplacian dual route share only the
    # forcing r; they must reach the same verdict and, when feasible, the
    # same value
    model, p0, v, w = problem
    p = solve_p(model, p0, 1.0, 64)
    ts = p.grid
    eta = PathVec(ts, np.outer(ts, v) + np.outer(ts**2, w))
    a = rate_I(model, p, eta)
    b = rate_Ibar(model, p, eta)
    assert a.feasible == b.feasible, (a.message, b.message)
    if a.feasible:
        assert abs(a.value - b.value) <= 1e-8 * max(1.0, a.value)


class TestControlMaps:
    def test_psi_l2sq_is_second_order_across_bin_edges(self):
        # 4 bins on grids of 63 .. 1008 steps, whose points miss the edges:
        # each bin is integrated on its own side of its edges, so successive
        # doublings change the norm by a quarter as much each time (a rule
        # that lets an interval straddle an edge only halves the change)
        model = birth_death_model(3, 0.5, 0.5, 0.5)
        q0 = np.array([0.6, 0.3, 0.1])
        psi = np.zeros((4, 3, 3))
        for (i, j), v in {(1, 2): [0.6, -0.3, 0.9, 0.2], (2, 3): [-0.4, 0.5, 0.1, -0.6],
                          (2, 1): [0.3, 0.8, -0.5, 0.4], (3, 2): [-0.2, 0.1, 0.7, -0.3]}.items():
            psi[:, i - 1, j - 1] = v
        control = JumpControl(np.linspace(0.0, 1.0, 5), psi)
        norms = [psi_l2sq(model, solve_p(model, q0, 1.0, n), control)
                 for n in (63, 126, 252, 504, 1008)]
        changes = np.abs(np.diff(norms))
        assert np.all((changes[:-1] / changes[1:] > 3.5) & (changes[:-1] / changes[1:] < 4.5))
        assert changes[-1] < 1e-8

    def test_min_norm_u_reproduces_forcing(self, default_model):
        # a potential field's coefficients u_ij = psi_ij sqrt(w_ij) are the
        # least-norm ones for its skeleton, so at the interior slices the SVD
        # cost density is sum_ij psi_ij^2 w_ij
        p = solve_p(default_model, np.full(5, 0.2), 1.0, 1024)
        psi = _potential_control(5, 1.0, n_bins=1, scale=0.4, seed=11)
        eta = skeleton_G0(default_model, p, psi)
        [(dens, _)] = _svd_density(default_model, p, eta, False)
        W = cell_weights(default_model, p(eta.grid))
        want = (psi.value(eta.grid) ** 2 * W).sum(axis=(1, 2))
        assert np.abs(dens[2:-2] / want[2:-2] - 1.0).max() < 1e-5


def test_solve_p_halves_stiff_steps():
    # a fast-decaying component at a coarse grid overshoots the simplex; the
    # solver must substep to stay in it (accuracy is the grid's job, and an
    # adequate grid recovers the exact decay)
    from devia.mf_model import birth_death_model, constant_rate_model

    model = constant_rate_model([[0.0, 0.0], [50.0, 0.0]])
    coarse = solve_p(model, np.array([0.0, 1.0]), 1.0, 16)
    assert coarse.values.min() >= -1e-12
    assert np.abs(coarse.values.sum(axis=1) - 1.0).max() < 1e-12
    fine = solve_p(model, np.array([0.0, 1.0]), 1.0, 1024)
    exact = np.exp(-50.0 * fine.grid)
    assert np.abs(fine.values[:, 1] - exact).max() < 1e-6


class TestBirthDeathLaw:
    @staticmethod
    def _flip_law(up_rate, down_rate, T, m, k0):
        """m independent two-state particles, k0 of them in state 1, flip
        2 -> 1 at up_rate and 1 -> 2 at down_rate: the count in state 1 is
        Binomial(k0, stay) + Binomial(m - k0, settle)."""
        from scipy.stats import binom

        total = up_rate + down_rate
        settle = up_rate / total * (1.0 - math.exp(-total * T))
        stay = settle + math.exp(-total * T)
        return np.convolve(
            binom.pmf(np.arange(k0 + 1), k0, stay), binom.pmf(np.arange(m - k0 + 1), m - k0, settle)
        )

    @pytest.mark.parametrize("up_rate, down_rate, T, m, k0", [
        (1.0, 1.0, 1.0, 6, 6),
        (1.0, 1.0, 1.0, 2000, 2000),  # Lambda T = 2000: many pieces
        (0.3, 1.7, 2.5, 300, 100),
        (2.0, 0.5, 0.4, 50, 0),
        (1.0, 1.0, 1e-3, 40, 17),
    ])
    def test_matches_the_binomial_convolution(self, up_rate, down_rate, T, m, k0):
        k = np.arange(m + 1)
        law = birth_death_law((m - k) * up_rate, k * down_rate, T, k0)
        want = self._flip_law(up_rate, down_rate, T, m, k0)
        assert np.abs(law - want).max() <= 1e-13
        # the series keeps tiny tail probabilities to relative precision
        seen = want > 1e-250
        assert np.abs(law[seen] / want[seen] - 1.0).max() <= 1e-9
        assert law.min() >= 0.0

    @pytest.mark.parametrize("up, down, T", [
        ([3.0, 2.0, 1.0, 0.0], [0.0, 1.0, 2.0, 3.0], 0.0),  # T = 0
        ([0.0] * 4, [0.0] * 4, 5.0),  # rate 0
    ])
    def test_no_time_or_no_rate_is_the_point_mass(self, up, down, T):
        assert birth_death_law(up, down, T, 2).tolist() == [0.0, 0.0, 1.0, 0.0]

    @pytest.mark.parametrize("up, down, T, k0", [
        ([1.0, 1.0], [0.0, 1.0], 1.0, 0),  # a birth out of the top state
        ([1.0, 0.0], [1.0, 1.0], 1.0, 0),  # a death out of 0
        ([-1.0, 0.0], [0.0, 1.0], 1.0, 0),
        ([math.nan, 0.0], [0.0, 1.0], 1.0, 0),
        ([1.0, 0.0], [0.0, 1.0], math.nan, 0),
        ([1.0, 0.0], [0.0, 1.0], -1.0, 0),
        ([1.0, 0.0], [0.0, 1.0], 1.0, 2),
        ([1.0, 0.0], [0.0, 1.0, 2.0], 1.0, 0),
    ])
    def test_invalid_input_is_rejected(self, up, down, T, k0):
        with pytest.raises(ValueError):
            birth_death_law(up, down, T, k0)
