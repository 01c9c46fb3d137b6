import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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
from devia.mf_model import (
    birth_death_model,
    cell_weights,
    constant_rate_model,
    ell_cost,
    two_state_model,
)


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
        _, tilted = batch_paths(
            self.model, 200, self.q0, 1.0, 11, np.arange(150),
            control=control, a_m=a_m, p_path=self.p,
        )
        _, plain = batch_paths(self.model, 200, self.q0, 1.0, 12, np.arange(150))
        assert kstest(tilted[:, 0] / 200, plain[:, 0] / 200).pvalue > 0.01

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

    def test_cost_is_second_order_across_bin_edges(self):
        # each bin is integrated on its own side of its edges: successive
        # grid doublings change the cost by a quarter as much each time
        # (a first-order rule only halves the change), and the cost agrees
        # with quad run bin by bin on a finer limit path
        model = birth_death_model(3, 0.5, 0.5, 0.5)
        q0 = np.array([0.6, 0.3, 0.1])
        psi = np.zeros((4, 3, 3))
        for (i, j), v in {(1, 2): [0.6, -0.3, 0.9, 0.2], (2, 3): [-0.4, 0.5, 0.1, -0.6],
                          (2, 1): [0.3, 0.8, -0.5, 0.4], (3, 2): [-0.2, 0.1, 0.7, -0.3]}.items():
            psi[:, i - 1, j - 1] = v
        control = JumpControl(np.linspace(0.0, 1.0, 5), psi)
        m, a_m = 400, 400 ** (-0.25)
        costs = [tilt_cost(model, control, a_m, m, solve_p(model, q0, 1.0, n))
                 for n in (64, 128, 256, 512, 1024, 2048)]
        changes = np.abs(np.diff(costs))
        assert np.all((changes[:-1] / changes[1:] > 3.5) & (changes[:-1] / changes[1:] < 4.5))

        fine = solve_p(model, q0, 1.0, 16384)
        phi = 1.0 + psi / (a_m * math.sqrt(m))
        ell = ell_cost(phi.ravel()).reshape(phi.shape)
        want = sum(
            quad(lambda s: float((ell[k] * cell_weights(model, fine(s))).sum()),
                 k / 4, (k + 1) / 4, epsabs=1e-13, epsrel=1e-13, limit=200)[0]
            for k in range(4)
        )
        assert costs[-1] == pytest.approx(want, abs=1e-9)

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
        _, tilted = batch_paths(
            self.model, m, self.q0, 1.0, 21, np.arange(80), control=control, a_m=a_m, p_path=self.p
        )
        _, plain = batch_paths(self.model, m, self.q0, 1.0, 22, np.arange(80))
        assert np.mean(tilted[:, 1] / m) > np.mean(plain[:, 1] / m)

    @pytest.mark.parametrize("short", ["p_path", "ref", "control"])
    def test_short_horizon_rejected(self, short):
        # a path or control that ends before T would be clamped (or, for the
        # control, stall the kernel at its last bin edge) without a word
        half = solve_p(self.model, self.q0, 0.5, 256)
        kw = {
            "control": JumpControl.constant(2, 0.5 if short == "control" else 1.0, {(1, 2): 0.5}),
            "a_m": 100 ** (-0.25),
            "p_path": half if short == "p_path" else self.p,
            "ref": half if short == "ref" else self.p,
        }
        with pytest.raises(ValueError, match=rf"{short} ends at t=0\.5, before the horizon T=1"):
            batch_paths(self.model, 100, self.q0, 1.0, 3, np.arange(4), **kw)

    def test_tilt_cost_rejects_short_limit_path(self):
        control = JumpControl.constant(2, 1.0, {(1, 2): 0.5})
        half = solve_p(self.model, self.q0, 0.5, 256)
        with pytest.raises(ValueError, match=r"p_path ends at t=0\.5, before the horizon T=1"):
            tilt_cost(self.model, control, 100 ** (-0.25), 100, half)
        with pytest.raises(ValueError, match=r"p_path ends at t=0\.5"):
            simulate_tilted(self.model, 100, self.q0, 1.0, control, 100 ** (-0.25), half, seed=1)


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
        assert full[0].tobytes() == np.concatenate([lo[0], hi[0]]).tobytes()
        assert full[1].tobytes() == np.vstack([lo[1], hi[1]]).tobytes()

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
        assert full[0].tobytes() == np.concatenate([p_[0] for p_ in parts]).tobytes()
        assert full[1].tobytes() == np.vstack([p_[1] for p_ in parts]).tobytes()

    @pytest.mark.parametrize("mode", ["plain", "tilted"])
    def test_recorded_path_is_its_batch_replica(self, default_model, mode):
        # a single path is replica r of the batch kernel with its events
        # recorded; the kernel observes a plain run at t = 0, before and
        # after every event and at T, so the recorded path gives sup_dev[r]
        m, T, q0 = 50, 1.0, np.full(5, 0.2)
        p = solve_p(default_model, q0, T, 512)
        tilt = {}
        if mode == "tilted":
            entries = {(1, 2): 0.6, (3, 2): -0.4, (4, 5): 0.8}
            control = JumpControl.constant(5, T, entries, n_bins=4)
            tilt = {"control": control, "a_m": m ** (-0.25), "p_path": p}
        sup, finals = batch_paths(default_model, m, q0, T, 17, np.arange(20), ref=p, **tilt)
        for r in (0, 7, 19):
            if mode == "tilted":
                path, _ = simulate_tilted(default_model, m, q0, T, seed=17, replica=r, **tilt)
            else:
                path = simulate_jump(default_model, m, q0, T, seed=17, replica=r)
            assert path.n_events > 10
            assert path.counts[-1].tobytes() == finals[r].tobytes()
            after = np.linalg.norm(path.counts / m - p(path.times), axis=1)
            before = np.linalg.norm(path.counts[:-1] / m - p(path.times[1:]), axis=1)
            at_T = np.linalg.norm(path.counts[-1:] / m - p(np.array([T])), axis=1)
            seen = max(after.max(), before.max(initial=0.0), at_T[0])
            if mode == "plain":
                assert seen == sup[r]
            else:  # tilted runs are also observed at rejections and bin edges
                assert seen <= sup[r]

    def test_recording_needs_one_replica(self, flip_model):
        with pytest.raises(ValueError, match="exactly one replica; got 2"):
            batch_paths(flip_model, 10, np.array([0.5, 0.5]), 1.0, 1, np.arange(2), _events=[])

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

    @pytest.mark.parametrize("width", [2, 3])
    def test_fetch_reads_the_next_draws_of_every_row(self, width):
        # rows advanced by mixed odd and even amounts, 1-draw stops among
        # them, must read the slices of one wide call at their pointers, and
        # dropping rows must leave the kept rows' draws as they were
        from devia import jump_sim
        from devia.rng import counter_uniforms

        ids = np.array([3, 17, 0, 99, 5, 42])
        rnd = jump_sim._ReplicaRandoms(7, ids, width, 5)
        wide = counter_uniforms(7, ids, 0, 400)
        pos = np.zeros(len(ids), dtype=np.int64)
        rng = np.random.default_rng(width)
        for it in range(10):
            u = rnd.fetch()
            want = np.take_along_axis(wide, pos[:, None] + np.arange(rnd.span), axis=1)
            assert u.tobytes() == want.tobytes(), it
            used = rng.integers(1, rnd.span + 1, len(ids))
            used[it % len(ids)], used[(it + 1) % len(ids)] = 1, 2
            rnd.advance(used)
            pos += used
            if it in (3, 6):
                kept = np.arange(len(ids)) != it % len(ids)
                before = rnd.fetch()
                rnd.keep(kept)
                assert rnd.fetch().tobytes() == before[kept].tobytes()
                ids, wide, pos = ids[kept], wide[kept], pos[kept]
        assert np.array_equal(rnd.ids, ids)

    @pytest.mark.parametrize("T", [math.nan, -1.0, math.inf])
    def test_horizon_must_be_finite_and_nonnegative(self, flip_model, T):
        # T = nan never ends the loop (t >= nan is false), T = inf runs while
        # the rates are positive and T < 0 would return the initial state
        with pytest.raises(ValueError, match="need a finite horizon T >= 0"):
            batch_paths(flip_model, 6, np.array([1.0, 0.0]), T, 1, np.arange(3))
        with pytest.raises(ValueError, match="need a finite horizon T >= 0"):
            simulate_jump(flip_model, 6, np.array([1.0, 0.0]), T, seed=1)

    def test_control_ending_within_the_horizon_tolerance_runs_to_T(self, flip_model):
        # the horizon check accepts a control that ends 1e-13 before T; its
        # last bin must carry the rows to T instead of stopping them at its
        # edge for ever
        q0 = np.array([0.5, 0.5])
        p = solve_p(flip_model, q0, 1.0, 64)
        control = JumpControl.constant(2, 1.0 - 1e-13, {(1, 2): 0.5}, n_bins=2)
        _, finals = batch_paths(flip_model, 20, q0, 1.0, 4, np.arange(5),
                                control=control, a_m=20 ** (-0.25), p_path=p)
        assert np.all(finals.sum(axis=1) == 20)

    def test_zero_horizon_returns_the_initial_state(self, flip_model):
        q0 = np.array([0.5, 0.5])
        sup, finals = batch_paths(flip_model, 6, q0, 0.0, 1, np.arange(3))
        assert np.array_equal(finals, np.tile([3, 3], (3, 1)))

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

    def test_memory_is_bounded_in_replica_chunks(self, flip_model):
        # replicas advance in chunks of CHUNK_REPLICAS, so 3e5 replicas hold
        # the outputs (7.2 MB), their ids (2.4 MB) and one chunk's draws and
        # window arrays; 32 draws per replica alone would take 77 MB
        import tracemalloc

        from devia import jump_sim

        R = 300_000
        replicas = np.arange(R)
        tracemalloc.start()
        try:
            _, finals = batch_paths(flip_model, 6, np.array([1.0, 0.0]), 1.0, 1, replicas)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert R > 16 * jump_sim.CHUNK_REPLICAS
        assert np.all(finals.sum(axis=1) == 6)
        assert peak < 40 * 2**20


# ---------------------------------------------------------------------------
# properties of the kernel on random models, states and batch sizes


@st.composite
def _kernel_problems(draw):
    """A constant-rate model (K in 2..5, some rates zero) or a birth-death
    chain, a lattice start, m in 1..200 and 1..40 replicas."""
    K = draw(st.integers(2, 5))
    if draw(st.booleans()):
        rates = st.sampled_from([0.0, 0.0, 0.5, 1.0, 3.0])
        model = constant_rate_model(
            np.array(draw(st.lists(rates, min_size=K * K, max_size=K * K))).reshape(K, K)
        )
    else:
        a, b, c = (draw(st.sampled_from([0.0, 0.5, 1.0])) for _ in range(3))
        model = birth_death_model(K, a, b, c + (a + b + c == 0))
    m = draw(st.integers(1, 200))
    cuts = sorted(draw(st.lists(st.integers(0, m), min_size=K - 1, max_size=K - 1)))
    counts = np.diff([0, *cuts, m])
    return model, m, counts / m, draw(st.integers(1, 40)), draw(st.integers(0, 2**32))


@given(_kernel_problems(), st.sampled_from(["plain", "ref", "tilted"]), st.data())
@settings(max_examples=40, deadline=None)
def test_batch_finals_are_counts_of_m_particles(problem, mode, data):
    model, m, q0, R, seed = problem
    T = 0.5
    kw = {}
    if mode != "plain":
        p = solve_p(model, q0, T, 32)
        kw["ref"] = p
    if mode == "tilted":
        # |psi| <= 1 <= a(m) sqrt(m) = m**(1/4) keeps every thinning factor >= 0
        n_bins = data.draw(st.integers(1, 3))
        psi = data.draw(
            st.lists(st.floats(-1.0, 1.0), min_size=n_bins * model.K**2,
                     max_size=n_bins * model.K**2)
        )
        control = JumpControl(np.linspace(0.0, T, n_bins + 1),
                              np.reshape(psi, (n_bins, model.K, model.K)))
        kw.update(control=control, a_m=m ** (-0.25), p_path=p)
    sup, finals = batch_paths(model, m, q0, T, seed, np.arange(R), **kw)
    assert np.issubdtype(finals.dtype, np.integer)
    assert finals.min() >= 0
    assert np.all(finals.sum(axis=1) == m)
    assert np.all(np.isfinite(sup)) and sup.min() >= 0.0
    # a single path is its batch row, and every recorded event moves one
    # particle from a state i to a state j != i
    r = data.draw(st.integers(0, R - 1))
    if mode == "tilted":
        path, _ = simulate_tilted(model, m, q0, T, seed=seed, replica=r, **{
            k: kw[k] for k in ("control", "a_m", "p_path")})
    else:
        path = simulate_jump(model, m, q0, T, seed=seed, replica=r)
    assert path.counts[-1].tobytes() == finals[r].tobytes()
    steps = np.diff(path.counts, axis=0)
    assert np.all(np.sort(steps, axis=1)[:, [0, -1]] == [-1, 1])
    assert np.all(np.abs(steps).sum(axis=1) == 2)
    assert np.all(np.diff(path.times) >= 0.0) and path.times[-1] <= T


def _lerp_reference(grid, values, t):
    """Linear interpolation as PathVec computed it with a full-grid searchsorted."""
    tt = np.minimum(np.maximum(t, grid[0]), grid[-1])
    idx = np.minimum(np.searchsorted(grid, tt, side="right") - 1, len(grid) - 2)
    w = (tt - grid[idx]) / (grid[idx + 1] - grid[idx])
    if np.ndim(t) == 0:
        return (1 - w) * values[idx] + w * values[idx + 1]
    return (1 - w[:, None]) * values[idx] + w[:, None] * values[idx + 1]


@given(st.integers(2, 40), st.integers(1, 4), st.sampled_from([0.0, 0.3]),
       st.sampled_from([0.0, 1e-13]), st.integers(0, 2**32))
@settings(max_examples=40, deadline=None)
def test_stacked_interpolation_is_bit_for_bit(N, d, start, short, seed):
    # the kernel interpolates ref and p as one stacked PathVec: each block
    # of columns must give the bytes of its own path, and PathVec's cell
    # table the bytes of the full-grid formula, on any grid, including grids
    # that start after 0 or end (within the horizon check) before T, where
    # the clamps act
    from devia.paths import PathVec

    rng = np.random.default_rng(seed)
    T = 1.0
    grid = np.sort(rng.uniform(start, T - short, N))
    grid[0], grid[-1] = start, T - short
    if np.any(np.diff(grid) <= 0):
        return
    a, b = (PathVec(grid, rng.normal(size=(N, d))) for _ in range(2))
    t = np.concatenate([[0.0, T], grid, rng.uniform(0.0, T, 50)])
    for x in (a, b):
        assert x(t).tobytes() == _lerp_reference(grid, x.values, t).tobytes()
        for s in (0.0, T, t[-1]):
            assert x(s).tobytes() == _lerp_reference(grid, x.values, s).tobytes()
    got = PathVec(grid, np.hstack([a.values, b.values]))(t)
    assert got[:, :d].tobytes() == a(t).tobytes()
    assert got[:, d:].tobytes() == b(t).tobytes()
