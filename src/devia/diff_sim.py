"""Particle simulation for the mean-field diffusion model.

All particles move by Euler-Maruyama with mean-field coefficients: the
diffusion and drift at a particle are the empirical averages of the kernels
over the whole ensemble.  The controlled systems of the coupling add a
scaled control drift sigma * u / (a(m) sqrt(m)).  The reference
(McKean-Vlasov) ensemble is the same dynamics run at a large particle count
on the stream (seed, REFERENCE_REPLICA): :func:`simulate_interacting` keeps
its positions in a :class:`DiffusionPath`, whose measure hooks give the
pairings <mu(t), f>, and :func:`limit_path` keeps only its kernel pairings.
Its own mean-field error is O(1/M_ref), so M_ref should sit well above every
system size it is compared against.

Every simulator here (the interacting system, the limit path and the
lockstep coupling) advances through one Euler-Maruyama step,
:meth:`_FlatEM.step`, which also stops the run with a FloatingPointError
naming the segment and particle as soon as a position leaves the finite
range.  The step works on one flat particle array cut into segments, each
with its own measure: the coupling lays out its systems of sizes
m_1 .. m_k and its max(m) reference particles as k + 1 segments of one
array and advances them all in one step, the other simulators use a single
segment.  A step is one fused update per segment,

    x += env * (s_beta * S_beta dt + s_alpha * S_alpha (sqrt(dt) z + dt/a u)),

with env the envelope that both kernels' separable factors share (1 when
they share none), s_alpha and s_beta the factors' scales and S_alpha,
S_beta the segment's pairings <mu, g>; every per-segment constant is folded
into one scalar.  The envelope is evaluated once per particle per step into
a buffer, factors over blocks of at most BLOCK particles (a larger segment
spans several), and every other pass writes into work buffers allocated
once per run, so the step allocates no array larger than a block.  Each
segment's floating-point operations are those of stepping it alone, so the
layout changes no output bit; the fused form rounds differently from the
unfused b dt + sigma sqrt(dt) z + sigma u dt / a, by about one unit in the
last place.

Noise is drawn per step from the replica's own counter-based stream, one
standard normal per particle, so a controlled system of size m and reference
particles driven by the same stream share Brownian increments by particle
index (the coupling construction; see :func:`run_coupled`): each system
reads its normals as a view of the first m of the reference draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .kernels import Enveloped, KernelPair, MeasureHook
from .rng import stream

__all__ = ["DiffusionPath", "LimitPath", "simulate_interacting", "limit_path", "run_coupled"]

Control = Callable[[float, np.ndarray], np.ndarray]

# replica id of the once-per-run reference ensembles' streams; Monte Carlo
# replicas are numbered from 0 and never reach it
REFERENCE_REPLICA = 10_000_000

# particles per envelope and kernel-factor evaluation: keeps the temporaries
# that the factor functions allocate at 64 KB; larger temporaries are
# returned to the OS and faulted back every step
BLOCK = 8192


@dataclass(frozen=True)
class DiffusionPath:
    """Recorded ensemble trajectory; positions[k, i] is particle i at times[k]."""

    times: np.ndarray  # (n_rec,)
    positions: np.ndarray  # (n_rec, m)

    @property
    def m(self) -> int:
        return self.positions.shape[1]

    def index_of(self, t: float) -> int:
        k = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[k] - t) > 1e-9 * max(1.0, self.times[-1]):
            raise ValueError(f"time {t} is not on the recorded grid")
        return k

    def hook(self, t: float) -> MeasureHook:
        """Empirical measure at a recorded time."""
        x = self.positions[self.index_of(t)]
        return MeasureHook(points=x, weights=np.full(len(x), 1.0 / len(x)))


def _n_steps(T: float, dt: float) -> int:
    """Number of steps of size dt that cover [0, T] exactly."""
    if not (0.0 < dt < math.inf and 0.0 <= T < math.inf):
        raise ValueError(f"need a finite dt > 0 and T >= 0; got dt={dt!r}, T={T!r}")
    n_steps = int(round(T / dt))
    if abs(n_steps * dt - T) > 1e-9 * max(T, 1.0):
        raise ValueError(f"horizon T={T!r} is not a multiple of the step size dt={dt!r}")
    return n_steps


class _FlatEM:
    """Euler-Maruyama on one flat particle array cut into segments.

    Segment j holds the particles ``x[segs[j]]``.  Its coefficients are
    sigma = env * s_alpha * S_alpha,j and b = env * s_beta * S_beta,j, with
    S_.,j the pairings <mu_j, g> under its own empirical measure (weights
    1/n_j) or given ones, and a step is the fused update

        x += env * (s_beta * S_beta,j dt + s_alpha * S_alpha,j (sqrt(dt) z + dt/a u))

    on segments with a control (u, a), without the u term on the others.
    Every per-segment constant, and s_alpha or s_beta when the factor
    returns a scalar, is folded into one Python scalar.  When both kernels'
    factors are :class:`Enveloped` with one envelope, env is evaluated once
    per particle per step into a buffer and s_. are their scales; otherwise
    env is 1 and s_. are the factors.  Factors are evaluated over blocks of
    at most BLOCK consecutive particles (a larger segment spans several
    blocks), and every pass of the update writes into work buffers
    allocated here once.  ``used[j]`` holds the pairings the last step used
    on segment j.
    """

    def __init__(self, kernels: KernelPair, sizes, x0: float, dt: float, names=None):
        self.sizes = [int(n) for n in sizes]
        self._counts = np.array(self.sizes, dtype=float)
        self.edges = np.cumsum([0, *self.sizes])
        self.segs = [slice(int(lo), int(hi)) for lo, hi in zip(self.edges[:-1], self.edges[1:])]
        self.names = names
        self.dt = dt
        self.x = np.full(int(self.edges[-1]), float(x0))
        self.used = np.empty((len(sizes), 2))
        (fa, ga), (fb, gb) = kernels.alpha.sep, kernels.beta.sep
        self._gs = (ga, gb)
        shared = isinstance(fa, Enveloped) and isinstance(fb, Enveloped) and fa.env is fb.env
        self.env = fa.env if shared else None
        self._factors = (fa.scale, fb.scale) if shared else (fa, fb)
        self._env = np.empty_like(self.x) if shared else None
        self._step, self._tmp = np.empty_like(self.x), np.empty_like(self.x)
        self._finite = np.empty(len(self.x), dtype=bool)
        self.xs = [self.x[seg] for seg in self.segs]
        # blocks of at most BLOCK particles: whole consecutive segments, or
        # BLOCK-sized pieces of a larger one
        groups, start = [[]], 0
        for j, seg in enumerate(self.segs):
            for lo in range(seg.start, seg.stop, BLOCK):
                hi = min(lo + BLOCK, seg.stop)
                if groups[-1] and hi - start > BLOCK:
                    groups.append([])
                    start = lo
                groups[-1].append((j, slice(lo, hi)))
        self._blocks = []
        for members in groups:
            blk = slice(members[0][1].start, members[-1][1].stop)
            self._blocks.append((blk, [
                (j, slice(fl.start - blk.start, fl.stop - blk.start),
                 slice(fl.start - self.edges[j], fl.stop - self.edges[j]),
                 self._tmp[fl], self._step[fl])
                for j, fl in members
            ]))

    def _pairings(self, pairings) -> list:
        """The envelope into its buffer, and each segment's pairings, given
        (pairings[j]) or under its own empirical measure (None), into used.
        Returns used as lists."""
        x = self.x
        if self.env is not None:
            for blk, _ in self._blocks:
                self.env(x[blk], out=self._env[blk])
        if any(p is None for p in pairings):
            means = {}  # kernels sharing g share the pairing
            for k, (g, buf) in enumerate(zip(self._gs, (self._tmp, self._step))):
                if id(g) not in means:
                    if g is not self.env:
                        for blk, _ in self._blocks:
                            buf[blk] = g(x[blk])
                    vals = self._env if g is self.env else buf
                    means[id(g)] = np.add.reduceat(vals, self.edges[:-1]) / self._counts
                self.used[:, k] = means[id(g)]
        for j, p in enumerate(pairings):
            if p is not None:
                self.used[j] = p
        return self.used.tolist()

    def _advance(self, blk: slice, members, zs, controls, used) -> None:
        """The block's increments into _step, under the pairings ``used``
        that :meth:`_pairings` returned."""
        dt = self.dt
        fa, fb = (f(self.x[blk]) for f in self._factors)
        a_arr, b_arr = getattr(fa, "ndim", 0) > 0, getattr(fb, "ndim", 0) > 0
        for j, bl, sl, tmp, step in members:
            S_a, S_b = used[j]
            c_a = S_a if a_arr else S_a * fa
            np.multiply(zs[j][sl], c_a * math.sqrt(dt), out=tmp)
            if controls[j] is not None:
                u, a_scale = controls[j]
                if u.ndim:
                    u = np.broadcast_to(u, (self.sizes[j],))[sl]
                    np.add(tmp, np.multiply(u, c_a * dt / a_scale), out=tmp)
                else:
                    np.add(tmp, c_a * dt / a_scale * float(u), out=tmp)
            if a_arr:
                np.multiply(tmp, fa[bl], out=tmp)
            if b_arr:
                np.multiply(fb[bl], S_b * dt, out=step)
            else:
                step.fill(S_b * fb * dt)
            np.add(step, tmp, out=step)
        if self.env is not None:
            np.multiply(self._step[blk], self._env[blk], out=self._step[blk])

    def step(self, zs, pairings=None, controls=None) -> None:
        """One fused update of every segment j, driven by the normals zs[j]
        (one per particle of the segment), with controls[j] = (u, a) or None
        and pairings[j] None for the segment's own empirical measure.
        Raises FloatingPointError, naming the segment and particle, as soon
        as a position leaves the finite range.
        """
        n_seg = len(self.segs)
        used = self._pairings(pairings or [None] * n_seg)
        controls = controls or [None] * n_seg
        for blk, members in self._blocks:
            self._advance(blk, members, zs, controls, used)
        np.add(self.x, self._step, out=self.x)
        if not np.isfinite(self.x, out=self._finite).all():
            bad = int(np.argmin(self._finite))
            j = int(np.searchsorted(self.edges, bad, side="right")) - 1
            where = "" if self.names is None else f" of {self.names[j]}"
            raise FloatingPointError(
                f"particle {bad - self.edges[j]}{where} left the finite range "
                f"in a step of size dt={self.dt:.6g}"
            )


def simulate_interacting(
    kernels: KernelPair,
    m: int,
    x0: float,
    T: float,
    dt: float,
    seed: int = 0,
    replica: int = 0,
    record_stride: int = 1,
) -> DiffusionPath:
    """Euler-Maruyama trajectory of the interacting system of m particles on
    the stream (seed, replica), recorded every ``record_stride`` steps and at
    T.  The scheme is strong order 1/2 (weak order 1)."""
    if m < 1:
        raise ValueError(f"need m >= 1; got m={m}")
    if record_stride < 1:
        raise ValueError(f"need a record stride >= 1; got {record_stride}")
    n_steps = _n_steps(T, dt)
    rng = stream(seed, replica)
    sim = _FlatEM(kernels, [m], x0, dt)
    z = np.empty(m)
    rec_idx = [*range(0, n_steps, record_stride), n_steps]
    positions = np.empty((len(rec_idx), m))
    positions[0] = sim.x
    for k in range(1, n_steps + 1):
        sim.step([rng.standard_normal(out=z)])
        if k % record_stride == 0 or k == n_steps:
            positions[-(-k // record_stride)] = sim.x  # row ceil(k / stride)
    return DiffusionPath(times=np.array(rec_idx) * dt, positions=positions)


@dataclass(frozen=True)
class LimitPath:
    """The limit law as the coefficients see it: values[k] holds
    (<mu(t_k), g_alpha>, <mu(t_k), g_beta>) at t_k = k dt, k = 0..n_steps,
    from a reference ensemble of M_ref particles started at x0."""

    values: np.ndarray  # (n_steps + 1, 2)
    dt: float
    M_ref: int
    x0: float

    @property
    def n_steps(self) -> int:
        return len(self.values) - 1


def limit_path(
    kernels: KernelPair, M_ref: int, x0: float, T: float, dt: float, seed: int
) -> LimitPath:
    """Run the reference ensemble of M_ref particles once, on the stream
    (seed, REFERENCE_REPLICA), and keep only its kernel pairings: these are
    all the limit law contributes to the coefficients.  Positions are not
    kept."""
    if M_ref < 1:
        raise ValueError(f"need M_ref >= 1; got M_ref={M_ref}")
    n_steps = _n_steps(T, dt)
    rng = stream(seed, REFERENCE_REPLICA)
    sim = _FlatEM(kernels, [M_ref], x0, dt)
    z = np.empty(M_ref)
    values = np.empty((n_steps + 1, 2))
    for k in range(n_steps):
        sim.step([rng.standard_normal(out=z)])
        values[k] = sim.used[0]
    sim._pairings([None])
    values[n_steps] = sim.used[0]
    return LimitPath(values=values, dt=dt, M_ref=M_ref, x0=float(x0))


def run_coupled(
    kernels: KernelPair,
    ms: list[int],
    M_ref: int,
    x0: float,
    T: float,
    dt: float,
    theta: float,
    control: Control,
    seed: int,
    replica: int = 0,
    *,
    limit: LimitPath | None = None,
) -> dict[int, float]:
    """One replica of the coupling experiment, all system sizes in lockstep.

    Each controlled particle X_i^m is coupled to Xbar_i, an i.i.d. copy of
    the McKean-Vlasov limit: max(ms) reference particles move under the
    pairings of ``limit`` (computed here by :func:`limit_path` when not
    given; pass it to share one across replicas), and one per-step increment
    array drives them and every controlled system, which uses its first m
    columns.  Returns m -> (1/m) sum_i sup-step squared gap, with the sup
    taken over every step.
    """
    if min(ms) < 1:
        raise ValueError(f"system sizes must be >= 1; got ms={list(ms)}")
    if max(ms) > M_ref:
        raise ValueError(f"M_ref={M_ref} must dominate every system size; got ms={list(ms)}")
    n_steps = _n_steps(T, dt)
    if limit is None:
        limit = limit_path(kernels, M_ref, x0, T, dt, seed)
    have = (limit.n_steps, limit.dt, limit.M_ref, limit.x0)
    need = (n_steps, dt, M_ref, float(x0))
    if have != need:
        raise ValueError(f"limit path has (n_steps, dt, M_ref, x0) = {have}; the run needs {need}")
    rng = stream(seed, replica)
    names = [f"the system of size m={m}" for m in ms] + ["the reference block"]
    sim = _FlatEM(kernels, [*ms, max(ms)], x0, dt, names)
    z_ref = np.empty(max(ms))
    zs = [z_ref[:m] for m in ms] + [z_ref]
    *xs, x_ref = sim.xs
    gap = np.zeros(sum(ms))
    diff = np.empty_like(gap)
    diffs = [diff[seg] for seg in sim.segs[:-1]]
    a_scale = [m ** (-theta) * math.sqrt(m) for m in ms]
    pairings = [None] * (len(ms) + 1)
    for k in range(n_steps):
        t = k * dt
        rng.standard_normal(out=z_ref)
        controls = [(np.asarray(control(t, x), dtype=float), a) for x, a in zip(xs, a_scale)]
        pairings[-1] = limit.values[k]
        sim.step(zs, pairings, controls + [None])
        for d, x, m in zip(diffs, xs, ms):
            np.subtract(x, x_ref[:m], out=d)
        np.maximum(gap, np.square(diff, out=diff), out=gap)
    return {m: float(gap[seg].mean()) for seg, m in zip(sim.segs, ms)}
