import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import kstest

from devia.jump_analysis import solve_p
from devia.jump_sim import (
    JumpControl,
    batch_paths,
    fluctuation_Z,
    simulate_jump,
    simulate_tilted,
    tilt_cost,
)
from devia.mf_model import constant_rate_model, ell_cost, two_state_model


def test_zero_rates_freeze_the_path():
    model = constant_rate_model(np.zeros((3, 3)))
    path = simulate_jump(model, 30, np.array([0.5, 0.3, 0.2]), 2.0, seed=1)
    assert path.n_events == 0
    assert np.array_equal(path.states[0], path.states[-1])


def test_initial_state_must_be_lattice(flip_model):
    with pytest.raises(ValueError, match="multiples of 1/m"):
        simulate_jump(flip_model, 3, np.array([0.5, 0.5]), 1.0, seed=0)


def test_holding_times_are_unit_exponential(flip_model):
    # one particle in the symmetric flip model waits Exp(1) between events
    path = simulate_jump(flip_model, 1, np.array([1.0, 0.0]), 2000.0, seed=42)
    waits = np.diff(path.times)
    stat = kstest(waits, "expon")
    assert stat.pvalue > 0.01


def test_event_count_rate_bound(flip_model):
    # E[#events] <= m * gamma_norm * T
    m, T, reps = 50, 1.0, 60
    counts = [simulate_jump(flip_model, m, np.array([0.5, 0.5]), T, seed=7, replica=r).n_events for r in range(reps)]
    bound = m * flip_model.gamma_norm * T
    assert np.mean(counts) <= bound + 3 * np.std(counts) / math.sqrt(reps)


def test_path_jump_structure(flip_model):
    path = simulate_jump(flip_model, 20, np.array([0.5, 0.5]), 1.0, seed=3)
    diffs = np.diff(path.counts, axis=0)
    assert np.all(np.abs(diffs).sum(axis=1) == 2)  # one particle moved
    assert np.all(path.counts.sum(axis=1) == 20)
    assert np.all(path.counts >= 0)


class TestTilted:
    def setup_method(self):
        self.model = two_state_model(1.0)
        self.q0 = np.array([0.5, 0.5])
        self.p = solve_p(self.model, self.q0, 1.0, 512)

    def test_zero_control_costs_nothing(self):
        control = JumpControl.zero(2, 1.0)
        _, cost = simulate_tilted(self.model, 100, self.q0, 1.0, control, 0.25, self.p, seed=5)
        assert cost == 0.0

    def test_zero_control_matches_plain_law(self):
        control = JumpControl.zero(2, 1.0)
        a_m = 200 ** (-0.25)
        tilted = np.array(
            [
                simulate_tilted(self.model, 200, self.q0, 1.0, control, a_m, self.p, seed=11, replica=r)[0].states[-1][0]
                for r in range(150)
            ]
        )
        plain = np.array(
            [simulate_jump(self.model, 200, self.q0, 1.0, seed=12, replica=r).states[-1][0] for r in range(150)]
        )
        assert kstest(tilted, plain).pvalue > 0.01

    def test_negative_thinning_factor_rejected(self):
        control = JumpControl.constant(2, 1.0, {(1, 2): -50.0}, n_bins=3)
        with pytest.raises(ValueError, match=r"cell \(1,2\) in bin 0"):
            simulate_tilted(self.model, 100, self.q0, 1.0, control, 0.25, self.p, seed=1)

    def test_cost_closed_form_vs_quadrature(self):
        # cost of a one-cell constant control = ell(phi) * integral of the
        # support-cell measure; cross-check by direct quadrature
        p = solve_p(self.model, np.array([0.9, 0.1]), 1.0, 4096)
        psi = 0.6
        control = JumpControl.constant(2, 1.0, {(1, 2): psi}, n_bins=2)
        m, a_m = 400, 400 ** (-0.25)
        got = tilt_cost(self.model, control, a_m, m, p)
        phi = 1.0 + psi / (a_m * math.sqrt(400))
        want = ell_cost(phi) * quad(lambda s: p(s)[0], 0.0, 1.0, limit=200)[0]
        assert got == pytest.approx(want, abs=1e-8)

    def test_cost_nonnegative(self, rng):
        for _ in range(20):
            psi = rng.normal(size=(4, 2, 2)) * 0.5
            control = JumpControl(np.linspace(0, 1, 5), psi)
            m = 500
            a_m = 500 ** (-0.25)
            if np.any(1 + control.psi / (a_m * math.sqrt(m)) < 0):
                continue
            assert tilt_cost(self.model, control, a_m, m, self.p) >= 0.0

    def test_tilted_law_matches_forward_equation(self):
        # brute-force oracle: the tilted count chain at m=4 has explicit
        # time-dependent rates; integrate the Kolmogorov forward equation
        # and compare the time-T law against the rejection sampler
        from scipy.integrate import solve_ivp

        m, theta, T = 4, 0.25, 1.0
        a_scale = m ** (-theta) * math.sqrt(m)
        q0 = np.array([0.75, 0.25])
        p = solve_p(self.model, q0, T, 2048)
        psi12, psi21 = 0.6, -0.3
        control = JumpControl.constant(2, T, {(1, 2): psi12, (2, 1): psi21}, n_bins=2)

        def forward(t, P):
            p1, p2 = p(t)
            dP = np.zeros(m + 1)
            for k in range(m + 1):
                r12 = k + (psi12 / a_scale) * min(float(k), m * p1)
                r21 = (m - k) + (psi21 / a_scale) * min(float(m - k), m * p2)
                dP[k] -= (r12 + r21) * P[k]
                if k > 0:
                    dP[k - 1] += r12 * P[k]
                if k < m:
                    dP[k + 1] += r21 * P[k]
            return dP

        P0 = np.zeros(m + 1)
        P0[3] = 1.0
        law = solve_ivp(forward, (0, T), P0, rtol=1e-10, atol=1e-12).y[:, -1]
        reps = 30_000
        _, finals = batch_paths(
            self.model, m, q0, T, 991, np.arange(reps),
            control=control, a_m=m ** (-theta), p_path=p,
        )
        emp = np.bincount(finals[:, 0], minlength=m + 1) / reps
        assert 0.5 * np.abs(emp - law).sum() < 0.02

    def test_tilt_shifts_the_mean(self):
        # positive control on cell (1,2) pushes mass toward state 2
        control = JumpControl.constant(2, 1.0, {(1, 2): 0.8}, n_bins=1)
        m, a_m = 400, 400 ** (-0.25)
        tilted = np.mean(
            [
                simulate_tilted(self.model, m, self.q0, 1.0, control, a_m, self.p, seed=21, replica=r)[0].states[-1][1]
                for r in range(80)
            ]
        )
        plain = np.mean(
            [simulate_jump(self.model, m, self.q0, 1.0, seed=22, replica=r).states[-1][1] for r in range(80)]
        )
        assert tilted > plain


class TestFluctuation:
    def test_zero_when_matching_limit(self):
        model = constant_rate_model(np.zeros((2, 2)))
        q0 = np.array([0.5, 0.5])
        path = simulate_jump(model, 10, q0, 1.0, seed=1)
        p = solve_p(model, q0, 1.0, 64)
        z = fluctuation_Z(path, p, a_m=0.3)
        assert np.abs(z.values).max() == 0.0

    def test_scaling_linearity(self, flip_model):
        path = simulate_jump(flip_model, 50, np.array([0.5, 0.5]), 1.0, seed=9)
        p = solve_p(flip_model, np.array([0.5, 0.5]), 1.0, 128)
        z1 = fluctuation_Z(path, p, a_m=0.2)
        z2 = fluctuation_Z(path, p, a_m=0.4)
        assert np.allclose(z2.values, 2.0 * z1.values)

    def test_mass_zero(self, flip_model):
        m = 400
        path = simulate_jump(flip_model, m, np.array([0.5, 0.5]), 1.0, seed=13)
        p = solve_p(flip_model, np.array([0.5, 0.5]), 1.0, 256)
        z = fluctuation_Z(path, p, a_m=m ** (-0.25))
        assert np.abs(z.values.sum(axis=1)).max() < 1e-10
        assert z.mass_defect() < 1e-10

    def test_dimension_mismatch(self, flip_model, default_model):
        path = simulate_jump(flip_model, 10, np.array([0.5, 0.5]), 1.0, seed=2)
        p5 = solve_p(default_model, np.full(5, 0.2), 1.0, 64)
        with pytest.raises(ValueError):
            fluctuation_Z(path, p5, a_m=0.3)


class TestBatchKernel:
    def test_deterministic(self, flip_model):
        q0 = np.array([0.5, 0.5])
        p = solve_p(flip_model, q0, 1.0, 128)
        a = batch_paths(flip_model, 60, q0, 1.0, 31, np.arange(8), ref=p)
        b = batch_paths(flip_model, 60, q0, 1.0, 31, np.arange(8), ref=p)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_batch_split_invariance(self, flip_model):
        # replica results must not depend on how replicas are grouped
        q0 = np.array([0.5, 0.5])
        p = solve_p(flip_model, q0, 1.0, 128)
        full = batch_paths(flip_model, 60, q0, 1.0, 31, np.arange(10), ref=p)
        lo = batch_paths(flip_model, 60, q0, 1.0, 31, np.arange(0, 4), ref=p)
        hi = batch_paths(flip_model, 60, q0, 1.0, 31, np.arange(4, 10), ref=p)
        assert np.allclose(full[0], np.concatenate([lo[0], hi[0]]))
        assert np.array_equal(full[1], np.vstack([lo[1], hi[1]]))

    def test_tilted_split_invariance(self, flip_model):
        q0 = np.array([0.5, 0.5])
        p = solve_p(flip_model, q0, 1.0, 256)
        control = JumpControl.constant(2, 1.0, {(1, 2): 0.5}, n_bins=4)
        kw = dict(control=control, a_m=100 ** (-0.25), p_path=p, ref=p)
        full = batch_paths(flip_model, 100, q0, 1.0, 77, np.arange(9), **kw)
        parts = [
            batch_paths(flip_model, 100, q0, 1.0, 77, np.arange(lo, hi), **kw)
            for lo, hi in [(0, 3), (3, 9)]
        ]
        assert np.allclose(full[0], np.concatenate([p_[0] for p_ in parts]))

    def test_matches_scalar_distribution(self, flip_model):
        # batched and scalar simulators implement the same law
        q0 = np.array([0.5, 0.5])
        m, reps = 80, 300
        _, finals = batch_paths(flip_model, m, q0, 1.0, 51, np.arange(reps))
        scalar = np.array(
            [simulate_jump(flip_model, m, q0, 1.0, seed=52, replica=r).counts[-1][0] for r in range(reps)]
        )
        assert kstest(finals[:, 0], scalar).pvalue > 0.01

    @pytest.mark.parametrize("mode", ["plain", "ref", "tilted"])
    def test_replica_alone_equals_its_row_of_a_wide_batch(self, flip_model, monkeypatch, mode):
        # draws are keyed by (seed, replica, draw index), so no replica's
        # result may depend on its batch mates or on when they finish
        from devia import jump_sim

        q0 = np.array([0.5, 0.5])
        p = solve_p(flip_model, q0, 1.0, 256)
        kw = {"plain": {}, "ref": {"ref": p}}.get(mode) or {
            "control": JumpControl.constant(2, 1.0, {(1, 2): 0.5, (2, 1): -0.3}, n_bins=4),
            "a_m": 12 ** (-0.25),
            "p_path": p,
            "ref": p,
        }
        drops = []
        keep = jump_sim._ReplicaRandoms.keep
        monkeypatch.setattr(
            jump_sim._ReplicaRandoms, "keep",
            lambda self, rows: (drops.append(int((~rows).sum())), keep(self, rows))[1],
        )
        R = 1000
        sup, finals = batch_paths(flip_model, 12, q0, 1.0, 5, np.arange(R), **kw)
        assert len(drops) > 3 and sum(drops) == R  # replicas left the batch at many steps
        for r in (0, 1, 499, 998, 999):
            s1, f1 = batch_paths(flip_model, 12, q0, 1.0, 5, np.array([r]), **kw)
            assert s1.tobytes() == sup[r:r + 1].tobytes()
            assert f1.tobytes() == finals[r:r + 1].tobytes()
        bounds = [0, 3, 10, 137, 600, R]
        parts = [
            batch_paths(flip_model, 12, q0, 1.0, 5, np.arange(lo, hi), **kw)
            for lo, hi in zip(bounds[:-1], bounds[1:])
        ]
        assert np.concatenate([s for s, _ in parts]).tobytes() == sup.tobytes()
        assert np.concatenate([f for _, f in parts]).tobytes() == finals.tobytes()

    def test_memory_is_bounded_in_replicas(self, flip_model):
        # no per-replica generator state: a 2e4-replica batch of the
        # criterion-11 chain stays far below one 2048-draw buffer per replica
        import tracemalloc

        tracemalloc.start()
        try:
            _, finals = batch_paths(flip_model, 6, np.array([1.0, 0.0]), 1.0, 1, np.arange(20_000))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert finals.shape == (20_000, 2)
        assert peak < 64 * 2**20
