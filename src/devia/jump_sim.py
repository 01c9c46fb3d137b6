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

A lockstep iteration fetches three consecutive draws of every replica in
one gather: draw ptr sets the waiting time, ptr + 1 picks the cell and
ptr + 2 is the thinning test (plain runs fetch two).  A replica whose event
fires consumes all of them; one that stops at a control-bin edge or at T
consumes the first only, so ptr advances by 1 + 2 * fired (plain:
1 + fired).  The draws come from a per-row cache holding ``DRAW_BUDGET``
draws per batch (at least 32 and at most 4096 per row).  The per-bin
control tables and the bin caps are built once per call, and the limit and
reference paths are stacked into one path when they share a grid, so an
iteration costs a fixed few dozen array operations on the live rows.

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

from .mf_model import RateModel, cell_weights, check_states, ell_cost
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
        k = np.searchsorted(self.edges, t, side="right") - 1
        # np.minimum/np.maximum: np.clip's Python-level wrapper is slow here
        return np.minimum(np.maximum(k, 0), len(self.edges) - 2)

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
    if m < 1:
        raise ValueError(f"need at least one particle; got m={m}")
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

# uniforms cached per batch; sets each row's cache width (see _ReplicaRandoms)
DRAW_BUDGET = 1 << 15


class _ReplicaRandoms:
    """Uniform draws of the live replicas, consumed in lockstep.

    Draw k of replica r is a pure function of (seed, r, k) (see
    :func:`devia.rng.counter_uniforms`).  Each row caches the next ``cache``
    draws of its replica, where ``cache`` is ``DRAW_BUDGET`` split over the
    batch's rows, clamped to [32, 4096] and even: 4096 for a single path,
    326 for 100 replicas, 32 from 1024 replicas up.  Results are therefore
    identical no matter how replicas are grouped, and rows can be dropped
    without touching the draws of the others.

    An iteration of the kernel reads ``width`` consecutive draws of every row
    in one gather (:meth:`fetch`) and then moves each row's pointer past the
    draws it used (:meth:`advance`): all ``width`` of them if the row's event
    fired, its first draw otherwise.  A move is at most ``width``, so
    ``safe``, the number of fetches no row can run out in, counts down to the
    next look for rows to refill; a row is refilled from the even index at or
    below its pointer, since ``counter_uniforms`` starts on whole blocks.
    """

    def __init__(self, seed: int, replica_ids: np.ndarray, width: int):
        n = len(replica_ids)
        self.cache = min(4096, max(32, DRAW_BUDGET // max(n, 1))) & ~1
        self.seed = seed
        self.width = width
        self.cols = np.arange(width)
        self.moves = np.array([1, width])  # pointer moves of a stop and of a fired row
        self.ids = replica_ids
        self.base = np.zeros(n, dtype=np.int64)  # draw index of each row's cache start
        self.buf = counter_uniforms(seed, replica_ids, self.base, self.cache)
        # a row keeps its buffer row when others leave: off is the flat index
        # of its cache start, pos that of its next draw
        self.off = np.arange(n) * self.cache
        self.pos = self.off.copy()
        self.safe = self.cache // width

    def fetch(self) -> np.ndarray:
        """The next ``width`` draws of every row, shape (rows, width)."""
        if not self.safe:
            self._refill()
        self.safe -= 1
        return self.buf.take(self.pos[:, None] + self.cols)

    def advance(self, fired: np.ndarray) -> None:
        """Move each row past the draws of its last fetch that it used."""
        self.pos += self.moves.take(fired.view(np.uint8))

    def _refill(self) -> None:
        ptr = self.pos - self.off
        need = np.flatnonzero(ptr > self.cache - self.width)
        if len(need):
            start = self.base[need] + (ptr[need] & ~1)
            self.buf[self.off[need] // self.cache] = counter_uniforms(
                self.seed, self.ids[need], start, self.cache
            )
            self.base[need] = start
            ptr[need] &= 1
            self.pos[need] = self.off[need] + ptr[need]
        self.safe = (self.cache - int(ptr.max())) // self.width

    def keep(self, rows: np.ndarray) -> None:
        """Drop every row not selected by ``rows``; the buffer stays put."""
        self.ids, self.base, self.off, self.pos = (
            a[rows] for a in (self.ids, self.base, self.off, self.pos)
        )


def _path_lookup(ref: PathVec | None, p_path: PathVec | None):
    """t -> (ref(t), p_path(t)), None for a missing path; one interpolation
    when the two paths share a grid."""
    if ref is not None and p_path is not None and np.array_equal(ref.grid, p_path.grid):
        both = PathVec(ref.grid, np.hstack([ref.values, p_path.values]))
        K = ref.dim

        def at(t):
            v = both(t)
            return v[:, :K], v[:, K:]

        return at
    return lambda t: tuple(None if x is None else x(t) for x in (ref, p_path))


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
    results back and leaves the working arrays.  T must be finite and
    nonnegative; ``p_path``, ``ref`` and the control must each reach T.
    ``_events``, for a single replica only, receives (t, counts) after every
    accepted event.  The draws each iteration reads are laid out in the
    module docstring.
    """
    replicas = np.asarray(replicas, dtype=np.int64)
    R = len(replicas)
    K = model.K
    KK = K * K
    if not (np.isfinite(T) and T >= 0):
        raise ValueError(f"need a finite horizon T >= 0; got T={T}")
    counts0 = _counts_from_q0(check_states(q0, K), m)
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
        # per-bin tables: the bound factor on every cell, the control over
        # a(m) sqrt(m), the time a row in the bin stops at, and the edge
        # that moves it to the next bin
        stop = np.minimum(control.edges[1:], T)
        stop[-1] = T  # the last bin runs to T
        edge = control.edges[1:].copy()
        edge[-1] = np.inf
        tables = (
            (1.0 + np.maximum(control.psi, 0.0) / a_scale).reshape(-1, KK),
            (control.psi / a_scale).reshape(-1, KK),
            stop,
            edge,
        )
    else:
        p_path = None
    at = _path_lookup(ref, p_path)
    # count change of each cell's jump, e_j - e_i (zero on the diagonal)
    eye, cells = np.eye(K, dtype=np.int64), np.arange(KK)
    step = eye[cells % K] - eye[cells // K]

    sup_dev = np.zeros(R)
    final_counts = np.empty((R, K), dtype=np.int64)
    # working arrays of the live replicas; rows[i] is row i's output index
    rnd = _ReplicaRandoms(seed, replicas, 3 if tilted else 2)
    rows = np.arange(R)
    t = np.zeros(R)
    counts = np.tile(counts0, (R, 1))
    q = counts / m
    sup = np.zeros(R)
    row_KK = np.arange(R) * KK  # flat offset of each row's cells
    k = np.zeros(R, dtype=np.intp)  # control bin of each row
    # the rows' entries of the bin tables; regathered when a row moves bin
    if tilted:
        factor, psi_a, cap, next_edge = (a[k] for a in tables)
    else:
        cap = T

    def observe(ref_t):
        """Fold the deviation of every row from ``ref_t = ref(t)`` into sup."""
        if ref_t is not None:
            d = q - ref_t
            d *= d
            # np.linalg.norm(axis=1), without its Python wrapper
            np.maximum(sup, np.sqrt(np.add.reduce(d, axis=1)), out=sup)

    observe(at(t)[0])
    # a zero total rate makes the waiting time inf (or nan for a zero draw);
    # the comparisons below treat either as "not fired"
    with np.errstate(divide="ignore", invalid="ignore"):
        while len(rows):
            n = len(rows)
            rates = counts[:, :, None] * model.rates_batch(q)  # (n, K, K)
            bound = (rates.reshape(n, KK) * factor) if tilted else rates.reshape(n, KK)
            total = bound.sum(axis=1)
            u = rnd.fetch()  # waiting time, cell, thinning test
            t_prop = t - np.log1p(-u[:, 0]) / total

            # replicas that would pass a bin boundary (or the horizon) move
            # there; the others move to their proposed event time
            fired = t_prop <= cap
            t = np.fmin(t_prop, cap)
            ref_t, p_t = at(t)
            observe(ref_t)  # state before any jump, at the new time
            rnd.advance(fired)

            if fired.any():
                # ties at cumsum boundaries must resolve past zero-weight
                # cells; the last cell takes what rounding leaves over
                flat = bound.cumsum(axis=1)
                flat[:, -1] = np.inf
                cell = (flat > (u[:, 1] * total)[:, None]).argmax(axis=1)
                lin = row_KK + cell
                b_cell = bound.take(lin)
                accept = fired & (b_cell > 0.0)
                if tilted:
                    r_cell = rates.take(lin)
                    w_p = ((m * p_t)[:, :, None] * model.rates_batch(p_t)).take(lin)
                    actual = r_cell + psi_a.take(lin) * np.minimum(r_cell, w_p)
                    accept &= u[:, 2] * b_cell <= actual
                if accept.any():
                    counts += step.take(cell * accept, axis=0)
                    q = counts / m
                    observe(ref_t)
                    if _events is not None:
                        _events.append((float(t[0]), counts[0].copy()))

            if tilted:
                moved = t >= next_edge
                if moved.any():
                    k += moved
                    factor, psi_a, cap, next_edge = (a[k] for a in tables)
            done = t >= T
            if done.any():
                sup_dev[rows[done]] = sup[done]
                final_counts[rows[done]] = counts[done]
                live = ~done
                rows, t, counts, q, sup, k = (a[live] for a in (rows, t, counts, q, sup, k))
                rnd.keep(live)
                row_KK = row_KK[: len(rows)]
                if tilted:
                    factor, psi_a, cap, next_edge = (a[k] for a in tables)
    return sup_dev, final_counts
