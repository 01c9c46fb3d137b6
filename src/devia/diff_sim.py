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
S_beta the segment's pairings <mu, g>.  It runs in two passes over work
buffers allocated once per run.  First each segment fills its slices with
its constants: S_alpha sqrt(dt) z plus the control term in one buffer,
S_beta dt in the other, with a factor that is a scalar folded in.  Then
the factors that are arrays, evaluated over blocks of at most BLOCK
consecutive particles of the flat array whatever its segments, multiply
into those buffers, and the sum times env (evaluated once per particle per
step) updates x.  So the step allocates no array larger than a block.
Every particle sees the operations of stepping its segment alone, in the
same order, so the layout changes no output bit; the fused form rounds
differently from the unfused b dt + sigma sqrt(dt) z + sigma u dt / a, by
about one unit in the last place.

Noise is drawn from the replica's own counter-based stream, one standard
normal per particle per step, so a controlled system of size m and reference
particles driven by the same stream share Brownian increments by particle
index (the coupling construction; see :func:`run_coupled`): each system
reads its normals as a view of the first m of the reference row.  Every
simulator takes its rows from one source, :func:`_normal_rows`: a helper
thread fills the next block of whole steps into one of two buffers of at
most NOISE_FLOATS floats while the steps read the other.  The generator
fills without holding the interpreter lock, so the draws overlap the
steps' arithmetic, and a fill of shape (rows, width) makes the same draws
as ``rows`` successive draws of ``width`` normals, so the blocks change no
output bit.
"""

from __future__ import annotations

import math
import queue
import threading
from contextlib import closing
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .kernels import Enveloped, KernelPair, MeasureHook
from .paths import blocks, grid_index
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

# floats per noise buffer (1 MB): 16 steps at width 8192, 4 at 32768; the
# run holds two
NOISE_FLOATS = 1 << 17


@dataclass(frozen=True)
class DiffusionPath:
    """Recorded ensemble trajectory; positions[k, i] is particle i at times[k]."""

    times: np.ndarray  # (n_rec,)
    positions: np.ndarray  # (n_rec, m)

    @property
    def m(self) -> int:
        return self.positions.shape[1]

    def index_of(self, t: float) -> int:
        return grid_index(self.times, t)

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


def _normal_rows(rng: np.random.Generator, n_steps: int, width: int):
    """Yield n_steps rows of ``width`` standard normals from ``rng``, in
    stream order.  A helper thread fills blocks of whole steps, at most
    NOISE_FLOATS floats unless one step is larger, into two buffers in turn:
    the next block while the caller reads the rows of the current one.  A
    row stays valid until the next row is asked for.  The thread starts with
    the first row and is stopped and joined when the generator finishes or
    is closed; callers close it (``contextlib.closing``) so that an
    exception in their loop does not leave it running.
    """
    if n_steps == 0:
        return
    rows = max(1, NOISE_FLOATS // width)
    bufs = [np.empty((min(rows, n_steps), width)) for _ in range(0, n_steps, rows)[:2]]
    # block i fills buffer i % 2; the last block may be short
    parts = [bufs[i % 2][: n_steps - lo] for i, lo in enumerate(range(0, n_steps, rows))]
    todo, done = queue.SimpleQueue(), queue.SimpleQueue()

    def fill():
        try:
            while (block := todo.get()) is not None:
                rng.standard_normal(out=block)
                done.put(block)
        except Exception as exc:  # the caller would wait on done forever
            done.put(exc)

    helper = threading.Thread(target=fill, name="normal-rows", daemon=True)
    helper.start()
    try:
        todo.put(parts[0])
        for i in range(len(parts)):
            if i + 1 < len(parts):
                todo.put(parts[i + 1])  # the buffer of block i - 1, all read
            block = done.get()
            if isinstance(block, Exception):
                raise block
            yield from block
    finally:
        todo.put(None)
        helper.join()


class _FlatEM:
    """Euler-Maruyama on one flat particle array cut into segments.

    Segment j holds the particles ``x[segs[j]]``.  Its coefficients are
    sigma = env * s_alpha * S_alpha,j and b = env * s_beta * S_beta,j, with
    S_.,j the pairings <mu_j, g> under its own empirical measure (weights
    1/n_j) or given ones, and a step is the fused update

        x += env * (s_beta * S_beta,j dt + s_alpha * S_alpha,j (sqrt(dt) z + dt/a u))

    on segments with a control (u, a), without the u term on the others.
    When both kernels' factors are :class:`Enveloped` with one envelope,
    env is evaluated once per particle per step into a buffer and s_. are
    their scales; otherwise env is 1 and s_. are the factors.  A factor
    that returns a scalar on ``x[:1]`` here is a constant and is folded into
    the per-segment constants; the others are evaluated every step.  A step
    makes two passes over work buffers allocated here once.  Each segment
    writes its constants into its slices of them: S_alpha,j (sqrt(dt) z +
    dt/a u) into one, S_beta,j dt into the other.  Then blocks of at most
    BLOCK consecutive particles of the flat array, cut whatever its
    segments, multiply in the factors that are arrays.  ``used[j]`` holds
    the pairings the last step used on segment j.
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
        # a scalar factor's value, None for a factor that returns an array
        probes = (f(self.x[:1]) for f in self._factors)
        self._consts = [None if np.ndim(v) else float(v) for v in probes]
        self._env = np.empty_like(self.x) if shared else None
        self._step, self._tmp = np.empty_like(self.x), np.empty_like(self.x)
        self._finite = np.empty(len(self.x), dtype=bool)
        self.xs = [self.x[seg] for seg in self.segs]
        self._blocks = list(blocks(len(self.x), BLOCK))

    def _pairings(self, pairings) -> list:
        """The envelope into its buffer, and each segment's pairings, given
        (pairings[j]) or under its own empirical measure (None), into used.
        Returns used as lists."""
        x = self.x
        if self.env is not None:
            for blk in self._blocks:
                self.env(x[blk], out=self._env[blk])
        if any(p is None for p in pairings):
            means = {}  # kernels sharing g share the pairing
            for k, (g, buf) in enumerate(zip(self._gs, (self._tmp, self._step))):
                if id(g) not in means:
                    if g is not self.env:
                        for blk in self._blocks:
                            buf[blk] = g(x[blk])
                    vals = self._env if g is self.env else buf
                    means[id(g)] = np.add.reduceat(vals, self.edges[:-1]) / self._counts
                self.used[:, k] = means[id(g)]
        for j, p in enumerate(pairings):
            if p is not None:
                self.used[j] = p
        return self.used.tolist()

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
        dt, (k_a, k_b), (f_a, f_b) = self.dt, self._consts, self._factors
        for j, seg in enumerate(self.segs):
            S_a, S_b = used[j]
            c_a = S_a if k_a is None else S_a * k_a
            tmp, step = self._tmp[seg], self._step[seg]
            np.multiply(zs[j], c_a * math.sqrt(dt), out=tmp)
            if controls[j] is not None:
                u, a_scale = controls[j]
                if u.ndim:  # u c_a dt / a formed in step, which is filled next
                    np.add(tmp, np.multiply(u, c_a * dt / a_scale, out=step), out=tmp)
                else:
                    np.add(tmp, c_a * dt / a_scale * float(u), out=tmp)
            step.fill(S_b * dt if k_b is None else S_b * k_b * dt)
        for blk in self._blocks:
            if k_a is None:
                np.multiply(self._tmp[blk], f_a(self.x[blk]), out=self._tmp[blk])
            if k_b is None:
                np.multiply(f_b(self.x[blk]), self._step[blk], out=self._step[blk])
        np.add(self._step, self._tmp, out=self._step)
        if self.env is not None:
            np.multiply(self._step, self._env, out=self._step)
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
    rec_idx = [*range(0, n_steps, record_stride), n_steps]
    positions = np.empty((len(rec_idx), m))
    positions[0] = sim.x
    # a position that leaves the finite range stops the step with a diagnosis
    with closing(_normal_rows(rng, n_steps, m)) as rows, np.errstate(over="ignore"):
        for k, z in enumerate(rows, 1):
            sim.step([z])
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
    values = np.empty((n_steps + 1, 2))
    with closing(_normal_rows(rng, n_steps, M_ref)) as rows, np.errstate(over="ignore"):
        for k, z in enumerate(rows):
            sim.step([z])
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
    taken over every step.  Raises FloatingPointError, naming the system,
    when a position leaves the finite range or a sup squared gap is not
    finite.
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
    *xs, x_ref = sim.xs
    gap = np.zeros(sum(ms))
    diff = np.empty_like(gap)
    diffs = [diff[seg] for seg in sim.segs[:-1]]
    a_scale = [m ** (-theta) * math.sqrt(m) for m in ms]
    pairings = [None] * (len(ms) + 1)
    # overflow is diagnosed, not warned about: a position that leaves the
    # finite range stops the step, and an infinite gap the check below
    with closing(_normal_rows(rng, n_steps, max(ms))) as rows, np.errstate(over="ignore"):
        for k, z in enumerate(rows):
            t = k * dt
            controls = [(np.asarray(control(t, x), dtype=float), a) for x, a in zip(xs, a_scale)]
            pairings[-1] = limit.values[k]
            sim.step([z[:m] for m in ms] + [z], pairings, controls + [None])
            for d, x, m in zip(diffs, xs, ms):
                np.subtract(x, x_ref[:m], out=d)
            np.maximum(gap, np.square(diff, out=diff), out=gap)
    if not np.isfinite(gap).all():
        j = int(np.searchsorted(sim.edges, int(np.argmin(np.isfinite(gap))), side="right")) - 1
        raise FloatingPointError(
            f"the sup squared gap of {names[j]} to its reference particles is not finite"
        )
    return {m: float(gap[seg].mean()) for seg, m in zip(sim.segs, ms)}
