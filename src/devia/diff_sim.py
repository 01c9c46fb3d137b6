"""Particle simulation for the mean-field diffusion model.

All particles move by Euler-Maruyama with mean-field coefficients: the
diffusion and drift at a particle are the empirical averages of the kernels
over the whole ensemble.  Controlled runs add a scaled control drift
sigma * u / (a(m) sqrt(m)) and account its quadratic cost.  The reference
(McKean-Vlasov) ensemble is the same dynamics run at a large particle count,
exposing measure pairings and a kernel density.

Every simulator here (the interacting and controlled systems, the reference
ensemble, the limit path, the Richardson guard and the lockstep coupling)
advances through one Euler-Maruyama step, which also stops the run with a
FloatingPointError as soon as a position leaves the finite range.

Noise is drawn per step from the replica's own counter-based stream, one
standard normal per particle, so a controlled system of size m and reference
particles driven by the same stream share Brownian increments by particle
index (the coupling construction; see :func:`run_coupled`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .kernels import KernelPair, MeasureHook
from .rng import stream

__all__ = [
    "DiffusionPath",
    "LimitPath",
    "McKeanEnsemble",
    "OccupationMeasure",
    "simulate_interacting",
    "simulate_controlled",
    "mckean_ensemble",
    "fluctuation_pairing",
    "limit_path",
    "occupation_accumulate",
    "richardson_gap",
    "run_coupled",
]

Control = Callable[[float, np.ndarray], np.ndarray]

# replica id of the once-per-run reference ensembles' streams; Monte Carlo
# replicas are numbered from 0 and never reach it
REFERENCE_REPLICA = 10_000_000


@dataclass(frozen=True)
class DiffusionPath:
    """Recorded ensemble trajectory; positions[k, i] is particle i at times[k]."""

    times: np.ndarray  # (n_rec,)
    positions: np.ndarray  # (n_rec, m)
    dt: float

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


def _em_step(
    kernels: KernelPair,
    x: np.ndarray,
    z: np.ndarray,
    dt: float,
    u=None,
    a_scale: float = 1.0,
    pairings=None,
    record: np.ndarray | None = None,
) -> np.ndarray:
    """One Euler-Maruyama step x + b dt + sigma sqrt(dt) z, plus
    sigma u dt / a_scale when u is given.

    The coefficients are taken under the empirical measure of x, or under
    the measure whose pairings (<mu, g_alpha>, <mu, g_beta>) are given;
    ``record`` receives the pairings used.
    """
    sig, drift, used = kernels.coefficients(x, pairings)
    if record is not None:
        record[:] = used
    step = drift * dt + sig * math.sqrt(dt) * z
    if u is not None:
        step = step + sig * u * (dt / a_scale)
    x = x + step
    if not np.isfinite(x).all():
        bad = int(np.nonzero(~np.isfinite(x))[0][0])
        raise FloatingPointError(
            f"particle {bad} left the finite range in a step of size dt={dt:.6g}"
        )
    return x


def _em_run(
    kernels: KernelPair,
    m: int,
    x0: float,
    T: float,
    dt: float,
    rng: np.random.Generator,
    control: Control | None,
    a_scale: float,
    record_stride: int,
) -> tuple[DiffusionPath, float]:
    if m < 1:
        raise ValueError(f"need m >= 1; got m={m}")
    n_steps = _n_steps(T, dt)
    x = np.full(m, float(x0))
    rec_idx = list(range(0, n_steps + 1, record_stride))
    if rec_idx[-1] != n_steps:
        rec_idx.append(n_steps)
    rec = np.empty((len(rec_idx), m))
    rec_times = np.array([k * dt for k in rec_idx])
    rec[0] = x
    cost = 0.0
    pos = 1
    for k in range(n_steps):
        z = rng.standard_normal(m)
        u = None
        if control is not None:
            u = np.broadcast_to(np.asarray(control(k * dt, x), dtype=float), x.shape)
            cost += float(np.dot(u, u)) * dt / (2.0 * m)
        x = _em_step(kernels, x, z, dt, u, a_scale)
        if pos < len(rec_idx) and k + 1 == rec_idx[pos]:
            rec[pos] = x
            pos += 1
    return DiffusionPath(times=rec_times, positions=rec, dt=dt), cost


def simulate_interacting(
    kernels: KernelPair,
    m: int,
    x0: float,
    T: float,
    dt: float | None = None,
    seed: int = 0,
    replica: int = 0,
    record_stride: int = 1,
) -> DiffusionPath:
    """Euler-Maruyama trajectory of the interacting system of m particles.

    Default step T/2048.  The scheme is strong order 1/2 (weak order 1);
    discretization error is checked by :func:`richardson_gap`, which couples
    a run at dt against one at dt/2 on the same Brownian path.
    """
    rng = stream(seed, replica)
    if dt is None:
        dt = T / 2048
    path, _ = _em_run(kernels, m, x0, T, dt, rng, None, 1.0, record_stride)
    return path


def simulate_controlled(
    kernels: KernelPair,
    m: int,
    x0: float,
    T: float,
    dt: float | None,
    a_m: float,
    control: Control,
    seed: int,
    replica: int = 0,
    record_stride: int = 1,
) -> tuple[DiffusionPath, float]:
    """Controlled system with drift perturbation sigma * u / (a(m) sqrt(m)).

    ``control(s, x)`` must return values broadcastable to the particle array.
    The returned cost is the step sum of sum_i u_i^2 * dt / (2m), matching
    the quadratic cost of the controlled representation exactly.
    """
    rng = stream(seed, replica)
    if dt is None:
        dt = T / 2048
    return _em_run(
        kernels, m, x0, T, dt, rng, control, a_m * math.sqrt(m), record_stride
    )


def richardson_gap(
    kernels: KernelPair,
    m: int,
    x0: float,
    T: float,
    dt: float | None = None,
    seed: int = 0,
    replica: int = 0,
) -> float:
    """Discretization-error guard: mean squared final-time gap between a run
    at dt and one at dt/2 driven by the same Brownian path.

    The half-step run consumes the two fine increments whose sum is the
    coarse increment, so the gap isolates the time-stepping error.
    """
    if dt is None:
        dt = T / 2048
    if m < 1:
        raise ValueError(f"need m >= 1; got m={m}")
    n_steps = _n_steps(T, dt)
    rng = stream(seed, replica)
    xc = np.full(m, float(x0))
    xf = np.full(m, float(x0))
    for _ in range(n_steps):
        z1 = rng.standard_normal(m)
        z2 = rng.standard_normal(m)
        xf = _em_step(kernels, _em_step(kernels, xf, z1, dt / 2.0), z2, dt / 2.0)
        xc = _em_step(kernels, xc, (z1 + z2) / math.sqrt(2.0), dt)
    return float(np.mean((xc - xf) ** 2))


@dataclass(frozen=True)
class McKeanEnsemble:
    """Large-ensemble stand-in for the limit law mu(t)."""

    path: DiffusionPath

    def pairing(self, t: float, f: Callable[[np.ndarray], np.ndarray]) -> float:
        """<mu(t), f> as the ensemble average at a recorded time."""
        return self.path.hook(t).pair(f)

    def hook(self, t: float) -> MeasureHook:
        return self.path.hook(t)

    def density(self, t: float, xs: np.ndarray) -> np.ndarray:
        """Gaussian KDE of mu(t) with the normal-reference bandwidth."""
        x = self.path.positions[self.path.index_of(t)]
        h = 1.06 * max(float(np.std(x)), 1e-12) * len(x) ** (-0.2)
        xs = np.asarray(xs, dtype=float)
        out = np.zeros_like(xs)
        for lo in range(0, len(x), 4096):
            blk = x[lo : lo + 4096]
            out += np.exp(-((xs[:, None] - blk[None, :]) ** 2) / (2 * h * h)).sum(axis=1)
        return out / (len(x) * h * math.sqrt(2 * math.pi))


def mckean_ensemble(
    kernels: KernelPair,
    M_ref: int,
    x0: float,
    T: float,
    dt: float,
    seed: int,
    replica: int = 0,
    record_stride: int = 1,
) -> McKeanEnsemble:
    """Reference ensemble approximating the limit law; its own mean-field
    feedback error is O(1/M_ref) and should dominate nothing it is compared
    against, so pick M_ref well above every m of interest."""
    return McKeanEnsemble(
        simulate_interacting(kernels, M_ref, x0, T, dt, seed, replica, record_stride)
    )


def fluctuation_pairing(
    path: DiffusionPath,
    ref: McKeanEnsemble,
    a_m: float,
    phi: Callable[[np.ndarray], np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Centered, scaled pairing t -> a(m) sqrt(m) (<mu^m(t), phi> - <mu(t), phi>)
    on the common recorded grid."""
    if not np.allclose(path.times, ref.path.times, rtol=0, atol=1e-12):
        raise ValueError("paths must share the recorded time grid")
    scale = a_m * math.sqrt(path.m)
    vals = np.array(
        [
            scale
            * (float(np.mean(phi(path.positions[k]))) - float(np.mean(phi(ref.path.positions[k]))))
            for k in range(len(path.times))
        ]
    )
    return path.times.copy(), vals


@dataclass(frozen=True)
class OccupationMeasure:
    """Samples (control value, position, time) with weights dt/m."""

    y: np.ndarray
    x: np.ndarray
    s: np.ndarray
    w: np.ndarray

    @property
    def total_weight(self) -> float:
        return float(self.w.sum())

    def pair(self, f: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]) -> float:
        return float(np.dot(self.w, f(self.y, self.x, self.s)))

    def pair_xs(self, f: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> float:
        """Pairing of the (position, time) marginal against f(x, s)."""
        return float(np.dot(self.w, f(self.x, self.s)))

    def cost(self) -> float:
        """1/2 * integral y^2 d(nu): equals the controlled run's cost."""
        return 0.5 * float(np.dot(self.w, self.y**2))


def occupation_accumulate(path: DiffusionPath, control: Control) -> OccupationMeasure:
    """Occupation measure of a controlled run recorded at every step.

    Control values are re-evaluated at the recorded (time, position) pairs,
    which reproduces the simulation's own draws since controls are plain
    functions of (s, x).
    """
    if len(path.times) < 2 or not np.allclose(np.diff(path.times), path.dt):
        raise ValueError("occupation accumulation needs a full-resolution recording")
    m = path.m
    n_steps = len(path.times) - 1
    ys = np.empty((n_steps, m))
    for k in range(n_steps):
        ys[k] = np.broadcast_to(
            np.asarray(control(path.times[k], path.positions[k]), dtype=float), (m,)
        )
    xs = path.positions[:-1]
    ss = np.broadcast_to(path.times[:-1, None], (n_steps, m))
    w = np.full(n_steps * m, path.dt / m)
    return OccupationMeasure(y=ys.ravel(), x=xs.ravel(), s=ss.ravel().copy(), w=w)


@dataclass(frozen=True)
class LimitPath:
    """The limit law seen by separable kernels: values[k] holds
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
    (seed, REFERENCE_REPLICA), and keep only its kernel pairings: with
    separable kernels these are all the limit law contributes to the
    coefficients.  Positions are not kept."""
    kernels.require_separable()
    if M_ref < 1:
        raise ValueError(f"need M_ref >= 1; got M_ref={M_ref}")
    n_steps = _n_steps(T, dt)
    rng = stream(seed, REFERENCE_REPLICA)
    x = np.full(M_ref, float(x0))
    values = np.empty((n_steps + 1, 2))
    for k in range(n_steps):
        x = _em_step(kernels, x, rng.standard_normal(M_ref), dt, record=values[k])
    values[n_steps] = kernels.coefficients(x)[2]
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
    kernels.require_separable()
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
    n_ref = max(ms)
    x_ref = np.full(n_ref, float(x0))
    sys = {m: np.full(m, float(x0)) for m in ms}
    gap = {m: np.zeros(m) for m in ms}
    a_scale = {m: m ** (-theta) * math.sqrt(m) for m in ms}
    for k in range(n_steps):
        t = k * dt
        z = rng.standard_normal(n_ref)
        for m in ms:
            x = sys[m]
            u = np.broadcast_to(np.asarray(control(t, x), dtype=float), x.shape)
            sys[m] = _em_step(kernels, x, z[:m], dt, u, a_scale[m])
        x_ref = _em_step(kernels, x_ref, z, dt, pairings=limit.values[k])
        for m in ms:
            np.maximum(gap[m], (sys[m] - x_ref[:m]) ** 2, out=gap[m])
    return {m: float(gap[m].mean()) for m in ms}
