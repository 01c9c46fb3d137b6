import math
import threading
import time
import tracemalloc

import numpy as np
import pytest

from devia.diff_analysis import solve_fokker_planck
from devia.diff_sim import (
    BLOCK,
    NOISE_FLOATS,
    REFERENCE_REPLICA,
    LimitPath,
    _FlatEM,
    _n_steps,
    _normal_rows,
    limit_path,
    run_coupled,
    simulate_interacting,
)
from devia.harness.config import kernels_from_config
from devia.kernels import (
    Enveloped,
    Kernel,
    KernelPair,
    MeasureHook,
    constant_alpha,
    default_kernels,
    linear_reversion_beta,
    zero_kernel,
)
from devia.rng import stream

ZERO = KernelPair(alpha=zero_kernel(), beta=zero_kernel())
ADDITIVE = KernelPair(alpha=constant_alpha(1.0), beta=zero_kernel())
REVERSION = KernelPair(alpha=zero_kernel(), beta=linear_reversion_beta(1.0))
# mu-free coefficients: sigma = 1, b(x) = -x whatever the measure
ADDITIVE_REVERSION = KernelPair(alpha=constant_alpha(1.0), beta=linear_reversion_beta(1.0))


class TestInteracting:
    def test_zero_kernels_freeze(self):
        path = simulate_interacting(ZERO, 8, 1.5, 1.0, 1 / 64, seed=1)
        assert np.all(path.positions == 1.5)

    def test_deterministic_decay(self):
        # beta(x,y) = -x, alpha = 0: every particle follows x' = -x
        path = simulate_interacting(REVERSION, 4, 1.0, 1.0, 1 / 1024, seed=2)
        assert np.abs(path.positions[-1] - math.exp(-1.0)).max() < 2e-3

    def test_additive_noise_variance(self):
        # alpha = 1, beta = 0: X(T) ~ Normal(x0, T); particles independent
        m = 20000
        path = simulate_interacting(ADDITIVE, m, 0.0, 1.0, 1 / 256, seed=3, record_stride=256)
        var = path.positions[-1].var()
        se = math.sqrt(2.0 / (m - 1))  # SE of the sample variance of a normal
        assert abs(var - 1.0) < 3 * se + 0.01

    def test_separable_matches_dense(self):
        # an independent plain EM loop on the same normals, whose
        # coefficients are O(m^2) means of the kernels' direct definitions fn
        kp, m, dt = default_kernels(), 64, 1 / 64
        path = simulate_interacting(kp, m, 0.3, 0.5, dt, seed=4)
        rng, x = stream(4, 0), np.full(m, 0.3)
        for k in range(1, len(path.times)):
            z = rng.standard_normal(m)
            sigma = kp.alpha.fn(x[:, None], x[None, :]).mean(axis=1)
            b = kp.beta.fn(x[:, None], x[None, :]).mean(axis=1)
            x = x + b * dt + sigma * math.sqrt(dt) * z
            assert np.allclose(path.positions[k], x, rtol=0.0, atol=1e-12), k

    def test_bad_steps_rejected(self):
        with pytest.raises(ValueError):
            simulate_interacting(ZERO, 4, 0.0, 1.0, 0.0, seed=0)
        with pytest.raises(ValueError):
            simulate_interacting(ZERO, 4, 0.0, 1.0, 0.3, seed=0)  # T not a multiple


def richardson_gap(kernels, m, x0, T, dt, seed=0, replica=0) -> float:
    """Discretization-error guard: mean squared final-time gap between a run
    at dt and one at dt/2 driven by the same Brownian path.

    The half-step run consumes the two fine increments whose sum is the
    coarse increment, so the gap isolates the time-stepping error.
    """
    n_steps = _n_steps(T, dt)
    rng = stream(seed, replica)
    coarse = _FlatEM(kernels, [m], x0, dt)
    fine = _FlatEM(kernels, [m], x0, dt / 2.0)
    z1, z2, zc = np.empty(m), np.empty(m), np.empty(m)
    for _ in range(n_steps):
        rng.standard_normal(out=z1)
        rng.standard_normal(out=z2)
        fine.step([z1])
        fine.step([z2])
        np.divide(np.add(z1, z2, out=zc), math.sqrt(2.0), out=zc)
        coarse.step([zc])
    return float(np.mean((coarse.x - fine.x) ** 2))


def test_richardson_gap_shrinks_with_dt():
    # the coupled dt vs dt/2 comparison isolates time-stepping error; it
    # must shrink roughly linearly in dt for the multiplicative kernels
    kp = default_kernels()
    coarse = richardson_gap(kp, 256, 0.0, 0.5, dt=1 / 64, seed=41)
    fine = richardson_gap(kp, 256, 0.0, 0.5, dt=1 / 256, seed=41)
    assert fine < 0.5 * coarse
    assert coarse < 1e-3


def test_default_kernel_bounds_certified():
    # recorded sup/Lipschitz bounds hold on a dense scan
    kp = default_kernels(0.5, 0.5)
    xs = np.linspace(-4, 4, 201)
    A = kp.alpha(xs[:, None], xs[None, :])
    B = kp.beta(xs[:, None], xs[None, :])
    assert np.abs(A).max() <= kp.alpha.sup + 1e-12
    assert np.abs(B).max() <= kp.beta.sup + 1e-12
    h = 1e-5
    dA = np.abs(kp.alpha(xs[:, None] + h, xs[None, :]) - A) / h
    dB = np.abs(kp.beta(xs[:, None] + h, xs[None, :]) - B) / h
    assert dA.max() <= kp.alpha.lip + 1e-6
    assert dB.max() <= kp.beta.lip + 1e-6


class TestMcKean:
    # a reference ensemble is an interacting system at a large particle count
    def test_unit_pairing(self):
        ref = simulate_interacting(ADDITIVE, 512, 0.0, 0.5, 1 / 64, seed=8)
        assert ref.hook(0.5).pair(lambda x: np.ones_like(x)) == pytest.approx(1.0)

    def test_second_moment_additive(self):
        ref = simulate_interacting(ADDITIVE, 20000, 0.5, 1.0, 1 / 128, seed=9, record_stride=128)
        got = ref.hook(1.0).pair(lambda x: x**2)
        # X(T) ~ Normal(x0, T): E X^2 = x0^2 + T
        assert got == pytest.approx(1.25, abs=0.05)

    def test_deterministic_limit_pairing(self):
        ref = simulate_interacting(REVERSION, 64, 1.0, 1.0, 1 / 512, seed=10)
        got = ref.hook(1.0).pair(lambda x: x)
        assert got == pytest.approx(math.exp(-1.0), abs=2e-3)


class TestCoupling:
    def test_gap_nonnegative_and_decreasing(self):
        gaps = run_coupled(
            default_kernels(), [64, 1024], 4096, 0.0, 0.5, 1 / 128, 0.25,
            lambda s, x: 1.0, seed=15,
        )
        assert gaps[64] > gaps[1024] >= 0.0

    def test_run_coupled_deterministic(self):
        args = (default_kernels(), [32, 64], 128, 0.0, 0.25, 1 / 64, 0.25)
        a = run_coupled(*args, lambda s, x: 1.0, seed=17)
        b = run_coupled(*args, lambda s, x: 1.0, seed=17)
        assert a == b

    def test_shared_limit_path_equals_the_one_computed_inside(self):
        kp = default_kernels()
        limit = limit_path(kp, 128, 0.0, 0.25, 1 / 64, seed=17)
        args = (kp, [32, 64], 128, 0.0, 0.25, 1 / 64, 0.25, lambda s, x: 1.0, 17, 3)
        assert run_coupled(*args, limit=limit) == run_coupled(*args)

    def test_repeated_size_is_one_system(self):
        # a size listed twice is two identical segments, not one system
        # stepped twice per step
        kp = default_kernels()
        run = lambda ms: run_coupled(kp, ms, 16, 0.0, 0.25, 1 / 64, 0.25, lambda s, x: 1.0, 3)
        assert run([8, 8]) == run([8])

    def test_mu_free_coefficients_give_exactly_zero_gap(self):
        # sigma and b do not depend on mu, and at power-of-two sizes the
        # pairings <mu, 1> are exactly 1, so with zero control every system
        # particle moves exactly as its reference particle
        gaps = run_coupled(
            ADDITIVE_REVERSION, [64, 256], 1024, 0.3, 0.5, 1 / 64, 0.25,
            lambda s, x: 0.0, seed=3,
        )
        assert gaps == {64: 0.0, 256: 0.0}

    @pytest.mark.parametrize("level", [1.0, 0.8])
    @pytest.mark.parametrize("rate", [0.0, 1.5], ids=["additive", "additive-reversion"])
    def test_constant_control_gap_is_exact(self, level, rate):
        # sigma = level and b = -rate x whatever the measure (the pairings
        # <mu, 1> are 1), so a system particle and its reference particle
        # share every term but the control's: their gap is deterministic,
        # g_(k+1) = (1 - rate dt) g_k + level u dt / a with a = m^(-theta) sqrt(m).
        # It grows every step, so the sup is the final gap level u T / a at
        # rate 0 and the geometric sum level u / (a rate) (1 - (1 - rate dt)^n)
        # otherwise.  Bound fixed before the first run: relative 1e-12.
        u, T, dt, theta, ms = 1.5, 0.5, 1 / 64, 0.25, [16, 64, 500]
        beta = linear_reversion_beta(rate) if rate else zero_kernel()
        kp = KernelPair(alpha=constant_alpha(level), beta=beta)
        gaps = run_coupled(kp, ms, 512, 0.3, T, dt, theta, lambda s, x: u, seed=7)
        n = round(T / dt)
        for m in ms:
            a = m ** (-theta) * math.sqrt(m)
            want = level * u * (T if not rate else (1 - (1 - rate * dt) ** n) / rate) / a
            assert gaps[m] == pytest.approx(want**2, rel=1e-12, abs=0), m

    @pytest.mark.parametrize(
        "T, dt", [(0.5, 1 / 32), (0.25, 1 / 64)], ids=["step-count", "dt"]
    )
    def test_mismatched_limit_path_is_diagnosed(self, T, dt):
        kp = default_kernels()
        limit = limit_path(kp, 32, 0.0, 0.25, 1 / 32, seed=1)
        match = rf"= \(8, 0.03125, 32, 0.0\); the run needs \(16, {dt}, 32, 0.0\)"
        with pytest.raises(ValueError, match=match):
            run_coupled(kp, [8], 32, 0.0, T, dt, 0.25, lambda s, x: 1.0, seed=1, limit=limit)


def _coupled_by_loop(kernels, ms, M_ref, x0, T, dt, theta, control, seed, replica):
    """run_coupled written out plainly, in the fused update's operation order:
    one allocating update per system under its own empirical measure, then
    the reference block under the limit path's pairings, all on one draw of
    max(ms) normals per step.  Coefficients come from the kernels' own
    factor callables, not from the stepper that run_coupled uses; pairings
    are summed by np.add.reduceat, as the stepper sums them."""
    fa, fb = kernels.alpha.sep[0], kernels.beta.sep[0]
    ga, gb = kernels.alpha.sep[1], kernels.beta.sep[1]
    if isinstance(fa, Enveloped) and isinstance(fb, Enveloped) and fa.env is fb.env:
        env, sa, sb = fa.env, fa.scale, fb.scale
    else:
        env, sa, sb = (lambda x: 1.0), fa, fb
    limit = limit_path(kernels, M_ref, x0, T, dt, seed)
    rng = stream(seed, replica)

    def update(x, z, S_a, S_b, u=None, a=None):
        # x + env (s_beta S_b dt + s_alpha S_a (sqrt(dt) z + dt/a u)), with
        # every scalar factor folded into one constant
        fa_x, fb_x = sa(x), sb(x)
        c_a = S_a if np.ndim(fa_x) else S_a * fa_x
        inc = z * (c_a * math.sqrt(dt))
        if u is not None:
            inc = inc + np.asarray(u) * (c_a * dt / a)
        if np.ndim(fa_x):
            inc = inc * fa_x
        drift = fb_x * (S_b * dt) if np.ndim(fb_x) else S_b * fb_x * dt
        return x + env(x) * (drift + inc)

    mean = lambda g, x: np.add.reduceat(g(x), [0])[0] / len(x)
    xs = {m: np.full(m, float(x0)) for m in ms}
    ref = np.full(max(ms), float(x0))
    gap = {m: np.zeros(m) for m in ms}
    for k in range(round(T / dt)):
        z = rng.standard_normal(max(ms))
        for m in ms:
            x = xs[m]
            a = m ** (-theta) * math.sqrt(m)
            xs[m] = update(x, z[:m], mean(ga, x), mean(gb, x), control(k * dt, x), a)
        ref = update(ref, z, *limit.values[k])
        for m in ms:
            gap[m] = np.maximum(gap[m], (xs[m] - ref[:m]) ** 2)
    return {m: float(gap[m].mean()) for m in ms}


def _coupled_by_unfused_loop(kernels, ms, M_ref, x0, T, dt, theta, control, seed, replica):
    """The same coupling in the unfused operation order
    x + (b dt + sigma sqrt(dt) z + sigma u dt / a), with coefficients from
    the kernels' own mean-field sums (KernelPair.sigma and drift)."""
    f_alpha, f_beta = kernels.alpha.sep[0], kernels.beta.sep[0]
    limit = limit_path(kernels, M_ref, x0, T, dt, seed)
    rng = stream(seed, replica)
    xs = {m: np.full(m, float(x0)) for m in ms}
    ref = np.full(max(ms), float(x0))
    gap = {m: np.zeros(m) for m in ms}
    for k in range(round(T / dt)):
        z = rng.standard_normal(max(ms))
        for m in ms:
            x = xs[m]
            mu = MeasureHook(points=x, weights=np.full(m, 1.0 / m))
            sig, drift = kernels.sigma(x, mu), kernels.drift(x, mu)
            a = m ** (-theta) * math.sqrt(m)
            u = control(k * dt, x)
            xs[m] = x + (drift * dt + sig * math.sqrt(dt) * z[:m] + sig * u * (dt / a))
        s_alpha, s_beta = limit.values[k]
        sig, drift = f_alpha(ref) * s_alpha, f_beta(ref) * s_beta
        ref = ref + (drift * dt + sig * math.sqrt(dt) * z)
        for m in ms:
            gap[m] = np.maximum(gap[m], (xs[m] - ref[:m]) ** 2)
    return {m: float(gap[m].mean()) for m in ms}


@pytest.mark.parametrize(
    "ms, M_ref", [([64, 128, 512], 1024), ([300], 1024), ([100, 777], 777)],
    ids=["three-sizes", "one-size", "max-is-M_ref"],
)
@pytest.mark.parametrize("family", ["default", "additive-noise"])
def test_fused_coupling_equals_the_per_system_loop(family, ms, M_ref):
    # the flat segmented step advances every system and the reference block
    # in one pass; it must reproduce the plain loop in its own operation
    # order bit for bit, and the unfused order to rounding
    kp = kernels_from_config({"family": family})
    args = (kp, ms, M_ref, 0.1, 0.25, 1 / 64, 0.25, lambda s, x: 1.0 + 0.1 * x, 5, 2)
    got = run_coupled(*args)
    assert got == _coupled_by_loop(*args)
    unfused = _coupled_by_unfused_loop(*args)
    assert got.keys() == unfused.keys()
    assert all(got[m] == pytest.approx(unfused[m], rel=1e-12, abs=0) for m in ms)
    assert all(v > 0 for v in got.values())


class TestLimitPath:
    def test_pairings_of_the_reference_ensemble(self):
        # the limit path is the reference ensemble's own pairing path
        kp = default_kernels()
        g = kp.alpha.sep[1]
        limit = limit_path(kp, 1000, 0.2, 0.5, 1 / 64, seed=5)
        ref = simulate_interacting(kp, 1000, 0.2, 0.5, 1 / 64, seed=5, replica=REFERENCE_REPLICA)
        want = [ref.hook(t).pair(g) for t in ref.times]
        assert limit.values.shape == (33, 2) and limit.n_steps == 32
        assert np.allclose(limit.values, np.array([want, want]).T, rtol=0, atol=1e-13)

    def test_particle_limit_agrees_with_fokker_planck(self):
        # independent cross-check of the particle and PDE sides of the limit
        # law, with the bound fixed before the result was seen:
        # |S_ens - S_FP| <= 3 SE + 2 grid_err + 1e-3 for S = <mu_t, g>
        kp = default_kernels()
        g = kp.alpha.sep[1]
        M_ref, dt, T, seed = 32768, 1 / 512, 0.5, 77
        limit = limit_path(kp, M_ref, 0.0, T, dt, seed)
        ens = simulate_interacting(
            kp, M_ref, 0.0, T, dt, seed, replica=REFERENCE_REPLICA, record_stride=64
        )

        def fp_pairing(nx):
            rho = solve_fokker_planck(kp, 0.0, T, -5.0, 5.0, nx)
            return lambda t: np.interp(t, rho.ts, rho.values @ g(rho.xs) * rho.dx)

        fine, coarse = fp_pairing(401), fp_pairing(201)
        for t in (0.125, 0.25, 0.5):
            gx = g(ens.positions[ens.index_of(t)])
            assert limit.values[round(t / dt), 0] == pytest.approx(gx.mean(), abs=1e-12)
            se = float(np.std(gx)) / math.sqrt(M_ref)
            grid_err = abs(fine(t) - coarse(t)) / 3.0
            err = abs(limit.values[round(t / dt), 0] - fine(t))
            assert err <= 3 * se + 2 * grid_err + 1e-3, (t, err, se, grid_err)


def test_fused_coefficients_match_the_kernel_means():
    # the flat stepper evaluates the shared envelope once per particle per
    # step, one call per block of BLOCK consecutive particles whatever the
    # segments (the last block may be short), and its update
    # is b dt + sigma sqrt(dt) z with the separate mean-field sums as b and
    # sigma (given pairings on the second segment), to rounding
    calls = []

    def env(u, out=None):
        calls.append(len(u))
        return default_kernels().alpha.sep[1](u, out=out)

    ref = default_kernels(0.4, 0.7)
    counted = KernelPair(
        alpha=Kernel(fn=ref.alpha.fn, sep=(Enveloped(lambda x: 0.4, env), env)),
        beta=Kernel(
            fn=ref.beta.fn, sep=(Enveloped(lambda x: -0.7 * np.asarray(x, dtype=float), env), env)
        ),
    )
    # the blocks cut the flat array of 2 BLOCK + 265 particles: the third
    # segment straddles the first block edge, the fourth the second
    sim = _FlatEM(counted, [257, 5, BLOCK, BLOCK + 3], 0.0, 1 / 64)
    rng = np.random.default_rng(3)
    x0 = rng.normal(size=len(sim.x))
    zs = [rng.normal(size=n) for n in sim.sizes]
    pairings = [None, (0.25, 0.5), None, None]
    for _ in range(3):
        sim.x[:] = x0
        sim.step(zs, pairings)
    assert calls == [BLOCK, BLOCK, 265] * 3
    for j, seg in enumerate(sim.segs):
        x = x0[seg]
        mu = MeasureHook(points=x, weights=np.full(len(x), 1.0 / len(x)))
        if pairings[j] is None:
            sig, drift = ref.sigma(x, mu), ref.drift(x, mu)
            assert sim.used[j, 0] == sim.used[j, 1] == pytest.approx(mu.pair(env), rel=1e-14)
        else:
            sig, drift = ref.alpha.sep[0](x) * 0.25, ref.beta.sep[0](x) * 0.5
            assert list(sim.used[j]) == [0.25, 0.5]
        want = drift / 64 + sig * math.sqrt(1 / 64) * zs[j]
        assert np.allclose(sim.x[seg] - x, want, rtol=1e-12, atol=1e-15)


def test_a_limit_path_step_allocates_at_most_one_block():
    # every per-particle pass writes into the stepper's buffers; only the
    # kernel factors allocate, one block of at most BLOCK particles at a time
    kp = default_kernels()
    M_ref = 32768
    sim = _FlatEM(kp, [M_ref], 0.0, 1 / 512)
    z = np.empty(M_ref)
    rng = stream(1, REFERENCE_REPLICA)
    sim.step([rng.standard_normal(out=z)])
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sim.step([rng.standard_normal(out=z)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0 < peak - before <= BLOCK * 8 + 4096


def test_a_coupling_step_allocates_at_most_one_block():
    # the run_coupled layout: controlled systems with array controls and a
    # reference segment under given pairings, segments straddling the block
    # edges; the control term is formed in the stepper's buffers, so again
    # only the kernel factors allocate, one block at a time
    kp = default_kernels()
    ms = [5000, 12000]
    sim = _FlatEM(kp, [*ms, max(ms)], 0.0, 1 / 512)
    assert [s.start // BLOCK != (s.stop - 1) // BLOCK for s in sim.segs] == [False, True, True]
    rng = stream(1, 0)
    z = rng.standard_normal(max(ms))
    zs = [z[:m] for m in ms] + [z]
    controls = [(1.0 + 0.1 * x, m ** -0.25) for x, m in zip(sim.xs, ms)] + [None]
    pairings = [None, None, (0.9, 0.8)]
    sim.step(zs, pairings, controls)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sim.step(zs, pairings, controls)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0 < peak - before <= BLOCK * 8 + 4096


def test_em_matches_the_exact_linear_gaussian_recursion():
    # additive-noise pair: sigma = level and b = -rate x whatever the
    # measure, so EM is x_{k+1} = (1 - rate dt) x_k + level sqrt(dt) z_k with
    # mean x0 (1 - rate dt)^k and variance level^2 dt sum_{i<k} (1 - rate dt)^{2i}
    level, rate, x0, T, dt, m = 0.7, 1.5, 1.0, 1.0, 1 / 64, 20_000
    kp = kernels_from_config({"family": "additive-noise", "level": level, "rate": rate})
    path = simulate_interacting(kp, m, x0, T, dt, seed=31, record_stride=64)
    k, q = round(T / dt), 1.0 - rate * dt
    mean = x0 * q**k
    var = level**2 * dt * sum(q ** (2 * i) for i in range(k))
    x = path.positions[-1]
    assert abs(x.mean() - mean) <= 4 * math.sqrt(var / m)
    assert abs(x.var(ddof=1) - var) <= 4 * var * math.sqrt(2.0 / (m - 1))


@pytest.mark.parametrize(
    "m, T, dt, match",
    [
        (4, 0.3, 0.25, "T=0.3 is not a multiple of the step size dt=0.25"),
        (4, 0.5, 0.0, "dt=0.0"),
        (4, 0.5, -0.25, "dt=-0.25"),
        (0, 0.5, 0.25, r"m=0\b|ms=\[0, 8\]"),
    ],
    ids=["not-a-multiple", "zero-dt", "negative-dt", "no-particles"],
)
@pytest.mark.parametrize("sim", ["run_coupled", "simulate_interacting"])
def test_bad_step_arguments_are_diagnosed(sim, m, T, dt, match):
    kp = default_kernels()
    with pytest.raises(ValueError, match=match):
        if sim == "run_coupled":
            run_coupled(kp, [m, 8], 16, 0.0, T, dt, 0.25, lambda s, x: 1.0, seed=1)
        else:
            simulate_interacting(kp, m, 0.0, T, dt, seed=1)


def test_nonfinite_positions_abort():
    cubic = Kernel(
        fn=lambda x, y: x**3 * np.ones(np.broadcast(x, y).shape),
        sep=(lambda x: np.asarray(x, dtype=float) ** 3, np.ones_like),
        name="cubic",
    )
    blowup = KernelPair(alpha=zero_kernel(), beta=cubic)
    still = lambda s, x: 0.0
    # the coupling names the block that left the finite range: with the true
    # pairings <mu, 1> = 1 systems and reference move alike and the systems
    # come first; a 100-fold drift pairing sends the reference off first
    true, fast = (LimitPath(np.full((9, 2), v), dt=0.5, M_ref=8, x0=3.0) for v in (1.0, 100.0))
    # an infinite control on particle 2 of the second system
    inf_at_2 = lambda s, x: np.where(np.arange(len(x)) == 2, np.inf, 0.0) if len(x) == 8 else 0.0
    runs = [
        (lambda: simulate_interacting(blowup, 4, 3.0, 4.0, 0.5, seed=1), "particle 0"),
        (lambda: limit_path(blowup, 8, 3.0, 4.0, 0.5, seed=1), "particle 0"),
        (
            lambda: run_coupled(blowup, [4], 8, 3.0, 4.0, 0.5, 0.25, still, seed=1, limit=true),
            "particle 0 of the system of size m=4",
        ),
        (
            lambda: run_coupled(blowup, [4], 8, 3.0, 4.0, 0.5, 0.25, still, seed=1, limit=fast),
            "particle 0 of the reference block",
        ),
        (
            lambda: run_coupled(ADDITIVE, [4, 8], 8, 0.0, 0.5, 0.25, 0.25, inf_at_2, seed=1),
            "particle 2 of the system of size m=8",
        ),
        (lambda: richardson_gap(blowup, 4, 3.0, 4.0, 0.5, seed=1), "particle 0"),
    ]
    threads = threading.active_count()
    for run, where in runs:
        match = where + r" left the finite range in a step of size dt=0\.(25|5)$"
        # ``caught`` keeps the traceback, and with it the run's frames, alive:
        # the noise thread must be joined all the same
        with pytest.raises(FloatingPointError, match=match) as caught, np.errstate(over="ignore"):
            run()
        assert threading.active_count() == threads, caught.value


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("sim", [simulate_interacting, limit_path])
def test_a_diverging_run_is_diagnosed_without_warnings(sim):
    # a strongly repulsive linear drift overflows within a few hundred steps
    kp = kernels_from_config({"family": "additive-noise", "level": 1.0, "rate": -60.0})
    with pytest.raises(FloatingPointError, match="particle 0 left the finite range"):
        sim(kp, 4, 1.0, 400.0, 0.5, 1)


@pytest.mark.parametrize("width, n_steps", [
    (NOISE_FLOATS + 3, 3),  # one step per block
    (1000, 300),  # 131 steps per block, the last block short
    (1000, 5),  # fewer steps than one block
])
def test_noise_rows_are_the_stream_in_order(width, n_steps):
    threads = threading.active_count()
    rows = [z.copy() for z in _normal_rows(stream(4, 2), n_steps, width)]
    assert threading.active_count() == threads
    want = stream(4, 2)
    assert len(rows) == n_steps
    for z in rows:
        assert np.array_equal(z, want.standard_normal(width))


def test_a_slow_reader_keeps_its_rows():
    # the helper may run ahead by one block only: a reader that sleeps on
    # every row lets it, and a second block ahead would overwrite the rows
    # being read
    width = NOISE_FLOATS // 3
    rows = []
    for z in _normal_rows(stream(4, 2), 12, width):
        time.sleep(0.002)
        rows.append(z.copy())
    want = stream(4, 2)
    assert all(np.array_equal(z, want.standard_normal(width)) for z in rows)


def test_no_steps_draw_no_noise_rows():
    assert list(_normal_rows(stream(4, 2), 0, 8)) == []


def test_a_noise_source_closed_early_joins_its_thread():
    threads = threading.active_count()
    rows = _normal_rows(stream(4, 2), 100, 8192)
    first = next(rows).copy()
    assert threading.active_count() == threads + 1
    rows.close()
    assert threading.active_count() == threads
    assert np.array_equal(first, stream(4, 2).standard_normal(8192))

