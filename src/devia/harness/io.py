"""Delimited file formats for paths and grid fields.

All floats are written with the shortest round-tripping representation so
identical runs produce byte-identical files.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..diff_analysis import GridField
from ..jump_sim import JumpPath
from ..paths import PathVec

__all__ = [
    "write_jump_path",
    "write_path_vec",
    "read_path_vec",
    "write_grid_field",
    "read_grid_field",
]


def _write_table(out, header: str, first, rest) -> None:
    """Write the header, then one row per entry of ``first`` followed by the
    matching row of ``rest``.  ``tolist`` hands over Python floats, whose
    ``repr`` is the shortest round-tripping form."""
    table = np.column_stack([np.asarray(first, dtype=float), np.asarray(rest, dtype=float)])
    lines = [header, *(",".join(map(repr, row)) for row in table.tolist())]
    Path(out).write_text("\n".join(lines) + "\n")


def _state_header(K: int) -> str:
    return "time," + ",".join(f"state_{k + 1}" for k in range(K))


def write_jump_path(path: JumpPath, out) -> None:
    """Event-time CSV: time, state_1..state_K (states after the event)."""
    _write_table(out, _state_header(path.counts.shape[1]), path.times, path.states)


def write_path_vec(path: PathVec, out) -> None:
    _write_table(out, _state_header(path.dim), path.grid, path.values)


def _finite_rows(raw: np.ndarray, src) -> np.ndarray:
    """The data rows, or a ValueError naming the first one that holds a
    non-finite value (``genfromtxt`` reads a non-numeric cell as nan)."""
    raw = np.atleast_2d(raw)
    bad = np.flatnonzero(~np.isfinite(raw).all(axis=1))
    if len(bad):
        raise ValueError(f"{src}: data row {bad[0] + 1} holds a non-finite or non-numeric value")
    return raw


def read_path_vec(src) -> PathVec:
    """Read a time-indexed vector path from the jump-path CSV schema."""
    raw = _finite_rows(np.genfromtxt(src, delimiter=",", skip_header=1), src)
    return PathVec(raw[:, 0], raw[:, 1:])


def write_grid_field(field: GridField, out) -> None:
    """Grid CSV: header 't' followed by the spatial nodes, one row per step."""
    header = "t," + ",".join(map(repr, np.asarray(field.xs, dtype=float).tolist()))
    _write_table(out, header, field.ts, field.values)


def read_grid_field(src) -> GridField:
    with open(src) as fh:
        header = fh.readline().strip().split(",")
        xs = np.array([float(v) for v in header[1:]])
        raw = _finite_rows(np.genfromtxt(fh, delimiter=","), src)
    return GridField(xs=xs, ts=raw[:, 0], values=raw[:, 1:])
