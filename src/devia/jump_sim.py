"""Exact event-driven simulation of the mean-field jump system.

The empirical measure of m particles moves by (e_j - e_i)/m jumps; the (i, j)
jump fires at rate m * q_i * Gamma_ij(q).  Simulation is Gillespie-style
(exponential waiting time at the current total rate, then a categorical cell
draw), which is distributionally exact; no time discretization enters.

There is one event loop, :func:`batch_paths`, which advances many replicas
in lockstep on counter-based random draws keyed by (seed, replica, draw).
The single-path simulators :func:`simulate_jump` and :func:`simulate_tilted`
run one replica of it and record its events, so a single path is bit for
bit the same replica of any Monte Carlo batch.

Tilted (thinned) runs multiply the intensity on the control's support cells,
which are the cells of the deterministic limit path p.  Since the current
cell (i, j) and the support cell (i, j) are intervals anchored at the same
second-coordinate offset, their overlap has length min(q_i Gamma_ij(q),
p_i(s) Gamma_ij(p(s))), and the tilted (i, j) rate is

    m * [ q_i Gamma_ij(q) + psi_ij(s)/(a(m) sqrt(m)) * overlap(s) ].

The time dependence through p(s) is handled by exact rejection: candidate
events are proposed at a per-cell upper bound that is constant between events
and control-bin boundaries, then accepted with the ratio of the true rate to
the bound (thinning, Lewis & Shedler 1979).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mf_model import RateModel, cell_weights, ell_cost
from .paths import PathVec
from .rng import counter_uniforms
# not used here, but perfbench/layers.py wraps jump_sim.stream by name
from .rng import stream  # noqa: F401

__all__ = [
    "JumpPath",
    "JumpControl",
    "simulate_jump",
    "simulate_tilted",
    "tilt_cost",
    "fluctuation_Z",
]


@dataclass(frozen=True)
class JumpPath:
    """Piecewise-constant trajectory of the empirical measure.

    ``counts[k]`` is the integer particle count vector right after the k-th
    event (row 0 is the initial configuration), so states are exact multiples
    of 1/m and mass is conserved exactly.
    """

    times: np.ndarray  # (n+1,) event times, times[0] = 0
    counts: np.ndarray  # (n+1, K) integer counts
    m: int
    T: float

    @property
    def states(self) -> np.ndarray:
        return self.counts / self.m

    @property
    def n_events(self) -> int:
        return len(self.times) - 1

    def state_at(self, t: float) -> np.ndarray:
        idx = int(np.searchsorted(self.times, t, side="right") - 1)
        return self.counts[max(idx, 0)] / self.m

    def sample(self, grid: np.ndarray) -> np.ndarray:
        """States on an arbitrary time grid (piecewise-constant, cadlag)."""
        idx = np.clip(np.searchsorted(self.times, grid, side="right") - 1, 0, None)
        return self.counts[idx] / self.m


@dataclass(frozen=True)
class JumpControl:
    """Per-cell control field, piecewise constant on uniform time bins.

    ``psi[k, i-1, j-1]`` is the value on cell (i, j) during bin k.  The field
    is taken right-continuous in time; the value at or beyond the horizon is
    that of the last bin.
    """

    edges: np.ndarray  # (B+1,) uniform bin edges spanning [0, T]
    psi: np.ndarray  # (B, K, K), zero diagonal

    def __post_init__(self):
        edges = np.asarray(self.edges, dtype=float)
        psi = np.asarray(self.psi, dtype=float)
        if len(edges) < 2 or np.any(np.diff(edges) <= 0):
            raise ValueError("bin edges must be strictly increasing")
        if psi.ndim != 3 or psi.shape[0] != len(edges) - 1 or psi.shape[1] != psi.shape[2]:
            raise ValueError("psi must have shape (n_bins, K, K)")
        psi = psi.copy()
        idx = np.arange(psi.shape[1])
        psi[:, idx, idx] = 0.0
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "psi", psi)

    @property
    def K(self) -> int:
        return self.psi.shape[1]

    @property
    def T(self) -> float:
        return float(self.edges[-1])

    def bin_index(self, t) -> np.ndarray:
        return np.clip(
            np.searchsorted(self.edges, t, side="right") - 1, 0, len(self.edges) - 2
        )

    def value(self, t) -> np.ndarray:
        """psi(t), shape (K, K) for scalar t, (n, K, K) for array t."""
        return self.psi[self.bin_index(np.asarray(t, dtype=float))]

    @classmethod
    def zero(cls, K: int, T: float, n_bins: int = 1) -> "JumpControl":
        return cls(np.linspace(0.0, T, n_bins + 1), np.zeros((n_bins, K, K)))

    @classmethod
    def constant(cls, K: int, T: float, entries: dict, n_bins: int = 1) -> "JumpControl":
        """Control that is constant in time; entries maps (i, j) -> value."""
        psi = np.zeros((n_bins, K, K))
        for (i, j), v in entries.items():
            if i == j:
                raise ValueError("control lives on off-diagonal cells")
            psi[:, i - 1, j - 1] = v
        return cls(np.linspace(0.0, T, n_bins + 1), psi)


def _counts_from_q0(q0: np.ndarray, m: int) -> np.ndarray:
    q0 = np.asarray(q0, dtype=float)
    counts = np.rint(q0 * m)
    if np.any(np.abs(counts - q0 * m) > 1e-9) or int(counts.sum()) != m or np.any(counts < 0):
        raise ValueError("initial state entries must be nonnegative multiples of 1/m")
    return counts.astype(np.int64)


def simulate_jump(
    model: RateModel, m: int, q0: np.ndarray, T: float, seed: int, replica: int = 0
) -> JumpPath:
    """Exact trajectory of the empirical measure up to time T.

    Waiting times are exponential at the total rate m * sum q_i Gamma_ij(q);
    the jumping cell is drawn proportionally to q_i Gamma_ij(q).  A state with
    zero total rate is absorbing and the path stays constant to T.  The path
    is replica ``replica`` of :func:`batch_paths` with its events recorded.
    """
    return _recorded_path(model, m, q0, T, seed, replica)


def _check_phi_nonnegative(control: JumpControl, a_scale: float) -> None:
    bad = np.argwhere(1.0 + control.psi / a_scale < 0.0)
    if len(bad):
        k, i, j = bad[0]
        raise ValueError(
            f"thinning factor negative on cell ({i + 1},{j + 1}) in bin {k}: "
            f"psi={control.psi[k, i, j]:.6g}, a(m)*sqrt(m)={a_scale:.6g}"
        )


def simulate_tilted(
    model: RateModel,
    m: int,
    q0: np.ndarray,
    T: float,
    control: JumpControl,
    a_m: float,
    p_path: PathVec,
    seed: int,
    replica: int = 0,
) -> tuple[JumpPath, float]:
    """Tilted trajectory under the control field, plus the control cost.

    The (i, j) intensity is the exact overlap rule described in the module
    docstring; rejection against a per-bin constant bound makes the draw
    exact.  The returned cost is the deterministic thinning cost of the
    control field (see :func:`tilt_cost`).
    """
    path = _recorded_path(
        model, m, q0, T, seed, replica, control=control, a_m=a_m, p_path=p_path
    )
    return path, tilt_cost(model, control, a_m, m, p_path)


def _check_horizon(name: str, end: float, T: float) -> None:
    """Raise unless ``name``, which ends at ``end``, covers the horizon T."""
    if end < T - 1e-12 * max(1.0, abs(T)):
        raise ValueError(f"{name} ends at t={end:.6g}, before the horizon T={T:.6g}")


def _recorded_path(model, m, q0, T, seed, replica, **tilt) -> JumpPath:
    """Replica ``replica`` of :func:`batch_paths`, every accepted event kept."""
    events = [(0.0, _counts_from_q0(q0, m))]
    batch_paths(model, m, q0, T, seed, np.array([replica]), _events=events, **tilt)
    times, counts = zip(*events)
    return JumpPath(np.array(times), np.array(counts), m=m, T=float(T))


def tilt_cost(
    model: RateModel, control: JumpControl, a_m: float, m: int, p_path: PathVec
) -> float:
    """Thinning cost of the control field: integral of ell(phi) against the
    intensity measure, with phi = 1 + psi/(a(m) sqrt(m)) on the support cells
    of p and 1 elsewhere.

    ell(phi) is constant per cell and bin, so the integral reduces to per-cell
    integrals of the support-cell measure p_i(s) Gamma_ij(p(s)) over each bin;
    those are evaluated by the trapezoid rule on the grid of p.
    """
    a_scale = a_m * np.sqrt(m)
    _check_phi_nonnegative(control, a_scale)
    _check_horizon("p_path", p_path.T, control.T)
    ts = p_path.grid
    W = cell_weights(model, p_path.values)  # (N, K, K)
    phi = 1.0 + control.value(ts) / a_scale  # (N, K, K), right-continuous
    dens = (ell_cost(phi.ravel()).reshape(phi.shape) * W).sum(axis=(1, 2))
    return float(np.trapezoid(dens, ts))


def fluctuation_Z(path: JumpPath, p_path: PathVec, a_m: float) -> PathVec:
    """Scaled deviation a(m) sqrt(m) (mu^m(t) - p(t)) on the merged grid."""
    if path.counts.shape[1] != p_path.dim:
        raise ValueError("path and limit path have different state dimensions")
    if abs(path.T - p_path.T) > 1e-12:
        raise ValueError("path and limit path have different horizons")
    grid = np.unique(np.concatenate([path.times, p_path.grid]))
    grid = grid[(grid >= 0) & (grid <= path.T)]
    vals = a_m * np.sqrt(path.m) * (path.sample(grid) - p_path(grid))
    return PathVec(grid, vals)


# ---------------------------------------------------------------------------
# batched kernel for Monte Carlo experiments


class _ReplicaRandoms:
    """Uniform draws of the live replicas, consumed in lockstep.

    Draw k of replica r is a pure function of (seed, r, k) (see
    :func:`devia.rng.counter_uniforms`).  Each row caches the next ``CACHE``
    draws of its replica and refills them when they run out, so results are
    identical no matter how replicas are grouped, and rows can be dropped
    without touching the draws of the others.
    """

    CACHE = 32

    def __init__(self, seed: int, replica_ids: np.ndarray):
        self.seed = seed
        self.ids = replica_ids
        self.base = np.zeros(len(replica_ids), dtype=np.int64)  # draw index of buf[:, 0]
        self.ptr = np.zeros(len(replica_ids), dtype=np.int64)
        self.buf = counter_uniforms(seed, replica_ids, self.base, self.CACHE)

    def draw(self, mask: np.ndarray | None = None) -> np.ndarray:
        """The next uniform of every row; rows outside ``mask`` keep theirs."""
        need = np.nonzero(self.ptr == self.CACHE)[0]
        if len(need):
            self.base[need] += self.CACHE
            self.ptr[need] = 0
            self.buf[need] = counter_uniforms(
                self.seed, self.ids[need], self.base[need], self.CACHE
            )
        out = self.buf[np.arange(len(self.ptr)), self.ptr]
        self.ptr += 1 if mask is None else mask
        return out

    def keep(self, rows: np.ndarray) -> None:
        """Drop every row not selected by ``rows``."""
        self.ids, self.base, self.ptr, self.buf = (
            a[rows] for a in (self.ids, self.base, self.ptr, self.buf)
        )


def batch_paths(
    model: RateModel,
    m: int,
    q0: np.ndarray,
    T: float,
    seed: int,
    replicas: np.ndarray,
    *,
    control: JumpControl | None = None,
    a_m: float | None = None,
    p_path: PathVec | None = None,
    ref: PathVec | None = None,
    _events: list | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Run many replicas at once; returns (sup_dev, final_counts).

    ``sup_dev[r]`` is the running maximum of || mu^m(t) - ref(t) || observed
    at t = 0, at every event (state before and after the jump), at control
    bin boundaries and at T.  When ``ref`` is None the deviation is reported
    as 0 and only the final counts matter.  Tilted dynamics are enabled by
    passing (control, a_m, p_path) together.

    Only live replicas are advanced: a replica that reaches T writes its
    results back and leaves the working arrays.  ``p_path``, ``ref`` and
    the control must each reach T.  ``_events``, for a single replica only,
    receives (t, counts) after every accepted event.
    """
    replicas = np.asarray(replicas, dtype=np.int64)
    R = len(replicas)
    K = model.K
    counts0 = _counts_from_q0(q0, m)
    if _events is not None and R != 1:
        raise ValueError(f"event recording needs exactly one replica; got {R}")
    if ref is not None:
        _check_horizon("ref", ref.T, T)
    tilted = control is not None
    if tilted:
        if a_m is None or p_path is None:
            raise ValueError("tilted runs need a_m and p_path")
        a_scale = a_m * np.sqrt(m)
        _check_phi_nonnegative(control, a_scale)
        _check_horizon("p_path", p_path.T, T)
        _check_horizon("control", control.T, T)
        edges = control.edges

    sup_dev = np.zeros(R)
    final_counts = np.empty((R, K), dtype=np.int64)
    # working arrays of the live replicas; rows[i] is row i's output index
    rnd = _ReplicaRandoms(seed, replicas)
    rows = np.arange(R)
    t = np.zeros(R)
    counts = np.tile(counts0, (R, 1))
    sup = np.zeros(R)

    def observe(ref_t, sel=slice(None)):
        """Fold the deviation of rows ``sel`` from ``ref_t = ref(t)`` into sup."""
        if ref_t is not None:
            dev = np.linalg.norm(counts[sel] / m - ref_t[sel], axis=1)
            sup[sel] = np.maximum(sup[sel], dev)

    observe(None if ref is None else ref(t))
    while len(rows):
        n = len(rows)
        rates = counts[:, :, None] * model.rates_batch(counts / m)  # (n, K, K)
        if tilted:
            k = np.searchsorted(edges, t, side="right") - 1
            k = np.minimum(np.maximum(k, 0), len(edges) - 2)
            psi = control.psi[k]
            bound = rates * (1.0 + np.maximum(psi, 0.0) / a_scale)
            cap = np.minimum(edges[k + 1], T)
        else:
            bound = rates
            cap = T
        total = bound.sum(axis=(1, 2))
        with np.errstate(divide="ignore"):
            dt = -np.log1p(-rnd.draw()) / total
        t_prop = np.where(total > 0.0, t + dt, np.inf)

        # replicas that would pass a bin boundary (or the horizon) move
        # there; the others move to their proposed event time
        fired = t_prop <= cap
        t = np.where(fired, t_prop, cap)
        ref_t = None if ref is None else ref(t)
        observe(ref_t)  # state before any jump, at the new time

        if fired.any():
            flat = bound.reshape(n, K * K).cumsum(axis=1)
            u_pick = rnd.draw(fired) * total
            # ties at cumsum boundaries must resolve past zero-weight cells
            cell = np.minimum((flat <= u_pick[:, None]).sum(axis=1), K * K - 1)
            ci, cj = np.divmod(cell, K)
            idx = np.arange(n)
            b_cell = bound[idx, ci, cj]
            accept = fired & (b_cell > 0.0)
            if tilted:
                r_cell = rates[idx, ci, cj]
                p_t = p_path(t)
                w_p = m * p_t[idx, ci] * model.rates_batch(p_t)[idx, ci, cj]
                actual = r_cell + (psi[idx, ci, cj] / a_scale) * np.minimum(r_cell, w_p)
                u_acc = rnd.draw(fired)
                with np.errstate(invalid="ignore"):
                    accept &= u_acc * b_cell <= actual
            if accept.any():
                a = np.nonzero(accept)[0]
                counts[a, ci[a]] -= 1
                counts[a, cj[a]] += 1
                observe(ref_t, accept)
                if _events is not None:
                    _events.append((float(t[0]), counts[0].copy()))

        done = t >= T
        if done.any():
            sup_dev[rows[done]] = sup[done]
            final_counts[rows[done]] = counts[done]
            live = ~done
            rows, t, counts, sup = rows[live], t[live], counts[live], sup[live]
            rnd.keep(live)
    return sup_dev, final_counts
