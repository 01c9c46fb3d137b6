import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from devia.harness.config import model_from_config
from devia.mf_model import (
    birth_death_model,
    cell_measure,
    check_simplex,
    constant_rate_model,
    db_apply,
    drift_b,
    drift_b_cellsum,
    ell_cost,
    jump_cell,
    jump_map_G,
    random_simplex,
)

SQRT2 = math.sqrt(2.0)


def test_simplex_validation():
    check_simplex(np.array([0.25, 0.75]))
    with pytest.raises(ValueError):
        check_simplex(np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        check_simplex(np.array([-0.1, 1.1]))


class TestCellMeasure:
    def test_point_mass_empties_other_cells(self, flip_model):
        # all mass on state 1 forces zero measure for cells leaving state 2
        q = np.array([1.0, 0.0])
        assert cell_measure(flip_model, q, 2, 1) == 0.0

    def test_two_state_half(self, flip_model):
        assert cell_measure(flip_model, np.array([0.5, 0.5]), 1, 2) == pytest.approx(0.5, abs=1e-15)

    def test_default_model_uniform(self, default_model):
        # direct product oracle: q_2 * (a + b*q_2) = 0.2 * 0.6 = 0.12
        q = np.full(5, 0.2)
        assert cell_measure(default_model, q, 2, 3) == pytest.approx(0.12, abs=1e-15)

    def test_index_errors(self, default_model):
        q = np.full(5, 0.2)
        with pytest.raises(ValueError):
            cell_measure(default_model, q, 0, 1)
        with pytest.raises(ValueError):
            cell_measure(default_model, q, 2, 6)
        with pytest.raises(ValueError):
            cell_measure(default_model, q, 3, 3)


class TestJumpMap:
    def test_outside_cells_is_zero(self, flip_model):
        q = np.array([0.5, 0.5])
        assert np.all(jump_map_G(flip_model, q, (0.5, 0.9)) == 0.0)  # above the cell
        assert np.all(jump_map_G(flip_model, q, (5.0, 0.2)) == 0.0)  # strip beyond K

    def test_unit_cell_hit(self, flip_model):
        # cell (1,2) at q=(1,0) is the strip (0,1] x (1, 2]: second
        # coordinate anchored at (j-1)*gamma_norm
        q = np.array([1.0, 0.0])
        got = jump_map_G(flip_model, q, (0.5, 1.1))
        assert np.array_equal(got, np.array([-1.0, 1.0]))
        assert np.all(jump_map_G(flip_model, q, (0.5, 0.1)) == 0.0)  # below the anchor

    def test_norm_in_zero_or_sqrt2(self, default_model, rng):
        for _ in range(200):
            q = random_simplex(5, rng)
            y = (rng.uniform(0, 6.0), rng.uniform(0, 8.0))
            n = np.linalg.norm(jump_map_G(default_model, q, y))
            assert min(abs(n), abs(n - SQRT2)) < 1e-14

    def test_cell_geometry_matches_map(self, default_model, rng):
        q = random_simplex(5, rng)
        cell = jump_cell(default_model, q, 2, 3)
        assert cell.length == pytest.approx(cell_measure(default_model, q, 2, 3))
        mid = (1.5, 0.5 * (cell.y2_lo + cell.y2_hi))
        if cell.length > 0:
            got = jump_map_G(default_model, q, mid)
            assert got[2] == 1.0 and got[1] == -1.0


class TestDrift:
    def test_symmetric_fixed_point(self, flip_model):
        assert np.allclose(drift_b(flip_model, np.array([0.5, 0.5])), 0.0)

    def test_corner(self, flip_model):
        got = drift_b(flip_model, np.array([1.0, 0.0]))
        assert np.array_equal(got, np.array([-1.0, 1.0]))

    def test_cellsum_identity(self, default_model, rng):
        for _ in range(100):
            q = random_simplex(5, rng)
            assert np.abs(
                drift_b(default_model, q) - drift_b_cellsum(default_model, q)
            ).max() <= 1e-12

    def test_norm_bound(self, default_model, rng):
        bound = SQRT2 * default_model.gamma_norm
        for _ in range(100):
            q = random_simplex(5, rng)
            assert np.linalg.norm(drift_b(default_model, q)) <= bound + 1e-12

    def test_mass_zero(self, default_model, rng):
        q = random_simplex(5, rng)
        assert abs(drift_b(default_model, q).sum()) < 1e-14


class TestDbApply:
    def test_zero_direction(self, default_model):
        q = np.full(5, 0.2)
        assert np.all(db_apply(default_model, q, np.zeros(5)) == 0.0)

    def test_constant_rates_linear(self, rng):
        # for state-independent rates the drift is linear and the derivative
        # is the transposed rate matrix with diagonal -row sums
        R = np.array([[0.0, 1.0, 0.5], [0.2, 0.0, 0.3], [0.0, 0.7, 0.0]])
        model = constant_rate_model(R)
        J = R.T - np.diag(R.sum(axis=1))
        q = random_simplex(3, rng)
        h = rng.normal(size=3)
        h -= h.mean()
        assert np.allclose(db_apply(model, q, h), J @ h, atol=1e-12)

    def test_matches_finite_difference(self, default_model, rng):
        # analytic Jacobian against an independent centered difference
        for model in (default_model, birth_death_model(4, 0.4, 0.3, 0.6)):
            q = random_simplex(model.K, rng)
            h = rng.normal(size=model.K)
            h -= h.mean()
            eps = 1e-6
            fd = (drift_b(model, q + eps * h) - drift_b(model, q - eps * h)) / (2 * eps)
            assert np.abs(db_apply(model, q, h) - fd).max() < 1e-6

    @pytest.mark.parametrize(
        "model",
        [birth_death_model(5, 0.5, 0.5, 0.5), constant_rate_model([[0, 1, 0.5], [0.2, 0, 0.3], [0, 0.7, 0]])],
        ids=["birth-death", "constant"],
    )
    def test_batched_over_leading_axes(self, model, rng):
        # rate matrices, Jacobians and db_apply of a (2, 3, K) stack of
        # states equal those of each state on its own
        Q = np.stack([[random_simplex(model.K, rng) for _ in range(3)] for _ in range(2)])
        H = rng.normal(size=Q.shape)
        R, J, D = model.rate_matrix(Q), model.db(Q), db_apply(model, Q, H)
        assert R.shape == J.shape == (2, 3, model.K, model.K)
        for idx in np.ndindex(2, 3):
            assert np.array_equal(R[idx], model.rate_matrix(Q[idx]))
            assert np.array_equal(J[idx], model.db(Q[idx]))
            assert np.allclose(D[idx], model.db(Q[idx]) @ H[idx], rtol=1e-15, atol=1e-15)


class TestEll:
    def test_reference_values(self):
        assert ell_cost(1.0) == 0.0
        assert ell_cost(0.0) == 1.0
        assert ell_cost(math.e) == pytest.approx(1.0, abs=1e-15)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ell_cost(-0.1)

    def test_bytes_of_scipy_xlogy(self, rng):
        from scipy.special import xlogy

        r = rng.exponential(size=20_000) * rng.choice([1e-8, 1e-2, 1.0, 1e2, 1e8], 20_000)
        r = np.concatenate([r, 1.0 + rng.normal(scale=1e-6, size=2_000),
                            [0.0, 1.0, 1e-300, 5e-324, 1e300]]).reshape(-1, 5)
        want = np.maximum(xlogy(r, r) - r + 1.0, 0.0)
        assert ell_cost(r).tobytes() == want.tobytes()
        for v in (0.0, 1.0, 1e-300, 5e-324, 1e300, 0.5, math.e):
            assert ell_cost(v) == float(np.maximum(xlogy(v, v) - v + 1.0, 0.0))

    @given(st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_nonnegative_with_min_at_one(self, r):
        val = ell_cost(r)
        assert val >= 0.0
        assert val >= ell_cost(1.0)

    @given(
        st.floats(min_value=0.0, max_value=100.0),
        st.floats(min_value=0.0, max_value=100.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_midpoint_convexity(self, a, b):
        assert ell_cost(0.5 * (a + b)) <= 0.5 * (ell_cost(a) + ell_cost(b)) + 1e-12


class TestBirthDeathConstants:
    def test_declared_bounds_are_valid(self, default_model, rng):
        # empirical suprema over random states must respect the certificates
        row_worst = col_worst = lip_worst = 0.0
        for _ in range(200):
            q = random_simplex(5, rng)
            qt = random_simplex(5, rng)
            R = default_model.rate_matrix(q)
            Rt = default_model.rate_matrix(qt)
            row = R.sum(axis=1)
            row_worst = max(row_worst, row.max())
            col_worst = max(col_worst, (R.sum(axis=0) + row).max())
            lip = np.abs(Rt - R).sum(axis=1).max() / max(np.linalg.norm(qt - q), 1e-300)
            lip_worst = max(lip_worst, lip)
        assert row_worst <= default_model.gamma_norm + 1e-12
        assert col_worst <= default_model.c_gamma + 1e-12
        assert lip_worst <= default_model.l_gamma + 1e-12

    def test_band_structure(self, default_model, rng):
        q = random_simplex(5, rng)
        R = default_model.rate_matrix(q)
        i, j = np.nonzero(R)
        assert np.abs(i - j).max() <= default_model.band


class TestConfig:
    def test_birth_death_roundtrip(self):
        model = model_from_config({"family": "birth-death", "K": 4, "a": 0.5, "b": 0.25, "c": 1.0})
        assert model.K == 4
        assert model.gamma_norm == pytest.approx(1.75)

    def test_declared_constants_cross_checked(self):
        cfg = {"family": "birth-death", "K": 4, "a": 0.5, "b": 0.25, "c": 1.0, "gamma_norm": 2.0}
        with pytest.raises(ValueError, match="gamma_norm"):
            model_from_config(cfg)

    def test_two_state_family(self):
        model = model_from_config({"family": "two-state", "rate": 2.0})
        assert model.gamma_norm == 2.0

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            model_from_config({"family": "nope"})
