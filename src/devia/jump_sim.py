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

A candidate event reads three consecutive draws of its replica: the first
sets the waiting time, the second picks the cell and the third is the
thinning test (plain runs read two).  An event that fires consumes all of
them; a replica that stops at a control-bin edge or at T consumes the first
only.  A lockstep iteration evaluates a window of E candidate events of
every live replica from the 3E draws at its pointer, all positions at once:
position 0 holds the replica's true state, and the others guessed states.
Waiting times are summed in draw order, so each position's time has the
bits of the one-event loop.  The iteration commits the longest prefix whose
guessed states equal the states implied by the jumps before them, through
the first position that stops at a bin edge or T; committing only verified
positions makes every output the same for any E and any guesses.  One
evaluator serves the guesses and the checked window: at given states it
computes the rates, the bound, each draw's cell and the thinning test.  A
row carries only its true state from one window to the next, and each
window guesses from it by calling the evaluator at that one state, so at
rates frozen there (and, in tilted runs, at p at the window start): each
guess is the true state plus the jumps accepted before it.  A jump moves
the rates by O(1/m), so at large m nearly every guess holds and a window
commits nearly all it evaluates.  E = CELL_BUDGET // (rows K^2), clamped to
[1, MAX_WINDOW], is fixed per chunk of at most CHUNK_REPLICAS replicas: 81
for 100 replicas of a two-state chain, 128 for a single path, 1 above 4096.
Each iteration generates its window's draws for every row in one call (see
:class:`_ReplicaRandoms`).  The per-bin control tables (bound factor,
control and bin cap) are built once per call, and each window reads them at
its rows' bins, so a row carries only its bin index from one window to the
next.  The limit and reference paths are stacked into one path when they
share a grid.

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

from .mf_model import RateModel, _check_pair, cell_weights, check_states, ell_cost
from .paths import PathVec, blocks, check_axis
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
        edges = check_axis(self.edges, "control", "bin edges")
        psi = np.asarray(self.psi, dtype=float)
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
            _check_pair(K, i, j)
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


def _bin_integral(model: RateModel, p_path: PathVec, edges: np.ndarray, table) -> float:
    """Integral over s of sum_ij table[k, i, j] p_i(s) Gamma_ij(p(s)), k the
    bin of s: a trapezoid rule on the grid of p cut at the bin ``edges``; each
    bin holds its grid points and both its edges, so never reads its neighbour."""
    ts = p_path.grid
    cuts = np.clip(edges, ts[0], ts[-1])
    cuts[0], cuts[-1] = ts[0], ts[-1]
    pieces = [
        np.concatenate([[lo], ts[(ts > lo) & (ts < hi)], [hi]]) if hi > lo else ts[:0]
        for lo, hi in zip(cuts[:-1], cuts[1:])
    ]
    s = np.concatenate(pieces)
    k = np.repeat(np.arange(len(pieces)), [len(piece) for piece in pieces])
    W = cell_weights(model, p_path(s))
    return float(np.trapezoid((table[k] * W).sum(axis=(1, 2)), s))


def tilt_cost(
    model: RateModel, control: JumpControl, a_m: float, m: int, p_path: PathVec
) -> float:
    """Thinning cost of the control field: integral of ell(phi) against the
    intensity measure, with phi = 1 + psi/(a(m) sqrt(m)) on the support cells
    of p and 1 elsewhere.

    ell(phi) is constant per cell and bin, so the integral reduces to per-cell
    integrals of the support-cell measure p_i(s) Gamma_ij(p(s)) over each bin
    (see :func:`_bin_integral`).
    """
    a_scale = a_m * np.sqrt(m)
    _check_phi_nonnegative(control, a_scale)
    _check_horizon("p_path", p_path.T, control.T)
    phi = 1.0 + control.psi / a_scale  # (B, K, K)
    ell = ell_cost(phi.ravel()).reshape(phi.shape)
    return _bin_integral(model, p_path, control.edges, ell)


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

# window cells per batch: n rows of a K-state model evaluate windows of
# CELL_BUDGET // (n K^2) events, at least 1 and at most MAX_WINDOW
CELL_BUDGET = 1 << 15
MAX_WINDOW = 128
# replicas advanced together; bounds the working memory of wide batches
CHUNK_REPLICAS = 1 << 14


def _sum_last(x: np.ndarray) -> np.ndarray:
    """np.add.reduce(x, axis=-1), bit for bit.  numpy adds fewer than 8
    terms in order, one row at a time, so a short axis is summed here a
    column at a time, in the same order; 8 or more it sums pairwise."""
    if x.shape[-1] >= 8:
        return np.add.reduce(x, axis=-1)
    s = x[..., 0].copy()
    for j in range(1, x.shape[-1]):
        s += x[..., j]
    return s


def _pick_cells(bound: np.ndarray, thr: np.ndarray) -> np.ndarray:
    """The cell of each threshold: the first whose prefix sum of ``bound``
    over its last axis, added in order, exceeds ``thr`` (with which the
    other axes broadcast), the last taking what rounding leaves over; ties skip
    zero-weight cells."""
    acc = bound[..., 0].copy()
    cell = (acc <= thr).astype(np.intp)
    for j in range(1, bound.shape[-1] - 1):
        acc += bound[..., j]
        cell += acc <= thr
    return cell


def _window_length(rows: int, K: int) -> int:
    """Events per window for a batch of ``rows`` replicas of a K-state model."""
    return min(MAX_WINDOW, max(1, CELL_BUDGET // (rows * K * K)))


class _ReplicaRandoms:
    """Uniform draws of the live replicas, consumed in lockstep.

    Draw k of replica r is a pure function of (seed, r, k) (see
    :func:`devia.rng.counter_uniforms`), so a row holds only its replica and
    the index of its next draw.  Results are therefore identical no matter
    how replicas are grouped, and rows can be dropped without touching the
    draws of the others.

    An iteration of the kernel reads the next ``span`` draws of every row
    (:meth:`fetch`) and then moves each row's pointer beyond the draws it used
    (:meth:`advance`), at most ``span``.  A fetch is one ``counter_uniforms``
    call from the even draw at or below each pointer (a stop uses 1 draw,
    so a pointer can be odd): ``span`` draws, one more if any pointer is
    odd, rounded up to even.
    """

    def __init__(self, seed: int, replica_ids: np.ndarray, width: int, window: int):
        self.width = width  # draws of one candidate event
        self.span = width * window
        self.seed = seed
        self.ids = replica_ids
        self.pos = np.zeros(len(replica_ids), dtype=np.int64)  # each row's next draw

    def fetch(self) -> np.ndarray:
        """The next ``span`` draws of every row, shape (rows, span)."""
        odd = self.pos & 1
        n = (self.span + int(odd.max()) + 1) & -2
        u = counter_uniforms(self.seed, self.ids, self.pos - odd, n)
        if n == self.span:  # every pointer is even
            return u
        runs = np.lib.stride_tricks.sliding_window_view(u.reshape(-1), self.span)
        return runs[np.arange(0, u.size, n) + odd]

    def advance(self, used: np.ndarray) -> None:
        """Move each row beyond the ``used`` draws of its last fetch."""
        self.pos += used

    def keep(self, rows: np.ndarray) -> None:
        """Drop every row not selected by ``rows``."""
        self.ids, self.pos = self.ids[rows], self.pos[rows]


def _path_lookup(ref: PathVec | None, p_path: PathVec | None):
    """t -> (ref(t), p_path(t)), None for a missing path; one interpolation
    when the two paths share a grid."""
    if ref is not None and p_path is not None and np.array_equal(ref.grid, p_path.grid):
        both = PathVec(ref.grid, np.hstack([ref.values, p_path.values]))
        K = ref.dim

        def at(t):
            v = both(t)
            return v[..., :K], v[..., K:]

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

    Replicas are advanced in chunks of at most ``CHUNK_REPLICAS``, and only
    live replicas are advanced: a replica that reaches T writes its results
    back and leaves the working arrays.  T must be finite and nonnegative;
    ``p_path``, ``ref`` and the control must each reach T.  ``_events``, for
    a single replica only, receives (t, counts) after every accepted event.
    The draws each iteration reads are laid out in the module docstring.
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
        # per-bin tables, read at each row's bin k by every window: the
        # bound factor on every cell, the control over a(m) sqrt(m) and the
        # time a row in the bin stops at (a column, to broadcast over window
        # positions); a row whose time reaches edge[k] moves to the next bin
        stop = np.minimum(control.edges[1:], T)
        stop[-1] = T  # the last bin runs to T
        edge = control.edges[1:].copy()
        edge[-1] = np.inf
        tables = (
            (1.0 + np.maximum(control.psi, 0.0) / a_scale).reshape(-1, KK),
            (control.psi / a_scale).reshape(-1, KK),
            stop[:, None],
        )
    else:
        p_path = None
    at = _path_lookup(ref, p_path)
    # count change of each cell's jump, e_j - e_i (zero on the diagonal)
    eye, cells = np.eye(K, dtype=np.int64), np.arange(KK)
    step = eye[cells % K] - eye[cells // K]
    width = 3 if tilted else 2  # draws of a candidate event

    def walk(s, cell):
        """The states ``s`` (n, K) and those after each of the jumps
        ``cell`` (n, L), cell 0 (a diagonal one) for none: (n, L + 1, K)."""
        n, L = cell.shape
        states = np.empty((n, L + 1, K), dtype=np.int64)
        states[:, 0] = s
        step.take(cell, axis=0, out=states[:, 1:])
        states[:, 1] += s
        if L > 1:
            np.cumsum(states[:, 1:], axis=1, out=states[:, 1:])
        return states

    def candidates(g, u, factor):
        """Candidate events at the states ``g`` (n, L, K) from the draws ``u``
        (n, L', width), L = 1 for one state per row: each state's total
        bound (n, L), and each candidate's cell, its flat index into
        (n, L, K^2), its rate and its bound (n, L')."""
        n, L = g.shape[:2]
        rates = (g[..., None] * model.rates_batch(g / m)).reshape(n, L, KK)
        bound = rates * factor[:, None] if tilted else rates
        total = _sum_last(bound)
        cell = _pick_cells(bound, u[..., 1] * total)
        lin = np.arange(n * L).reshape(n, L) * KK + cell
        b_cell = bound.take(lin)
        return total, cell, lin, rates.take(lin) if tilted else b_cell, b_cell

    def accepted(u, cell, lin, r_cell, b_cell, psi_a, p):
        """Whether each candidate passes the thinning test: a positive bound
        and, in tilted runs, u_2 b <= r + psi min(r, m p_i Gamma_ij(p)), the
        tilted rate at p (n, L, K) over a(m) sqrt(m)."""
        ok = b_cell > 0.0
        if tilted:
            w_p = (m * p.take(lin // K)) * model.rates_batch(p).take(lin)
            psi_cell = psi_a.take(np.arange(len(cell))[:, None] * KK + cell)
            ok &= u[..., 2] * b_cell <= r_cell + psi_cell * np.minimum(r_cell, w_p)
        return ok

    def window(u, s, t, k, p_now):
        """Evaluate one window of every live row, at guesses predicted from
        its true state ``s`` (n, K) and draws ``u`` (n, E, width); in tilted
        runs the bound factor, the control and the cap are the bin tables'
        entries at the rows' bins ``k``, and the cap is T otherwise.  Returns
        the positions committed, the states implied before every position
        and after the last (n, E + 1, K), whether the last committed position
        stopped at the cap, the time after it, with a ref the largest squared
        deviation observed at the committed positions and, in tilted runs, p
        at the time after it.  Accepted committed events go to _events."""
        n, E = u.shape[:2]
        factor, psi_a, cap = (a[k] for a in tables) if tilted else (None, None, T)
        g = s[:, None]
        if E > 1:  # guesses: the jumps the draws give at rates frozen at s
            _, cell, *cand = candidates(g, u[:, :-1], factor)
            g = walk(s, cell * accepted(u[:, :-1], cell, *cand, psi_a, p_now))
        total, cell, *cand = candidates(g, u, factor)
        # event times in draw order, t_{e+1} = t_e - log1p(-u)/total, with
        # the additions of the one-event loop; a zero total gives inf (nan
        # for a zero draw), which never fires
        t_prop = np.log1p(-u[..., 0]) / total
        np.negative(t_prop, out=t_prop)
        t_prop[:, 0] += t
        if E > 1:
            np.cumsum(t_prop, axis=1, out=t_prop)
        # a position beyond its bin boundary (or the horizon) stops there
        fired = t_prop <= cap
        times = np.fmin(t_prop, cap)
        ref_t, p_t = at(times)
        accept = fired & accepted(u, cell, *cand, psi_a, p_t)

        # implied[:, e]: the true state plus the accepted jumps before position e
        implied = walk(s, cell * accept)
        # commit positions while the guess was the implied state, through
        # the first that stops at the cap (counts sum to m, so K - 1 states
        # decide equality)
        more = t_prop[:, :-1] < cap
        for j in range(K - 1):
            more &= g[:, 1:, j] == implied[:, 1:E, j]
        c = 1 + np.logical_and.accumulate(more, axis=1).sum(axis=1)
        last = np.arange(n) * E + c - 1
        dev = None
        if ref is not None:
            # each committed position's state before and after its jump
            dev = _sum_last(np.square(g / m - ref_t))
            np.maximum(dev, _sum_last(np.square(implied[:, 1:] / m - ref_t)), out=dev)
            dev *= np.arange(E) < c[:, None]
            dev = dev.max(axis=1)
        if _events is not None:
            for e in np.flatnonzero(accept[0, : c[0]]):
                _events.append((float(t_prop[0, e]), implied[0, e + 1].copy()))
        p_last = None if p_t is None else p_t[np.arange(n), c - 1, None]
        return c, implied, ~fired.take(last), times.take(last), dev, p_last

    def advance(ids, sup_out, finals_out):
        """Run the replicas ``ids`` to T; write their results to the outputs."""
        n = len(ids)
        E = _window_length(n, K)
        rnd = _ReplicaRandoms(seed, ids, width, E)
        rows = np.arange(n)
        t = np.zeros(n)
        s = np.tile(counts0, (n, 1))  # each row's true state
        sup = np.zeros(n)
        k = np.zeros(n, dtype=np.intp)  # control bin of each row
        ref_t, p_now = at(t)
        if tilted:
            p_now = p_now[:, None]  # p at each row's time, (n, 1, K), for the guesses
        if ref is not None:
            np.sqrt(_sum_last(np.square(s / m - ref_t)), out=sup)
        while len(rows):
            u = rnd.fetch().reshape(len(rows), E, width)  # waiting time, cell, thinning test
            c, implied, stopped, t, dev, p_now = window(u, s, t, k, p_now)
            # the true state after the commit (c = 1 in a window of one);
            # implied stays referenced until the next window returns, which
            # keeps glibc malloc from trimming the heap every iteration
            s = implied[:, 1] if E == 1 else implied[np.arange(len(c)), c]
            rnd.advance(width * c - (width - 1) * stopped)
            if dev is not None:
                np.maximum(sup, np.sqrt(dev), out=sup)

            if tilted:
                k += t >= edge[k]
            done = t >= T
            if done.any():
                sup_out[rows[done]] = sup[done]
                finals_out[rows[done]] = s[done]
                live = ~done
                rows, t, s, sup, k = (a[live] for a in (rows, t, s, sup, k))
                rnd.keep(live)
                if tilted:
                    p_now = p_now[live]

    sup_dev = np.zeros(R)
    final_counts = np.empty((R, K), dtype=np.int64)
    # a zero total rate makes a waiting time inf (or nan for a zero draw);
    # the comparisons treat either as "not fired"
    with np.errstate(divide="ignore", invalid="ignore"):
        for part in blocks(R, CHUNK_REPLICAS):
            advance(replicas[part], sup_dev[part], final_counts[part])
    return sup_dev, final_counts
