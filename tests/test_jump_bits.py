"""Pinned bytes of the batched jump kernel.

The sha256 prefixes in PINNED were computed by the one-event lockstep loop
that the windowed kernel replaced; the entries at m = 20, 2000 and 10^4 by
the windowed kernel before it predicted its guesses, when it still
reproduced the others.  Committing only verified window positions must
reproduce them for every window length E, every replica chunk size, every
batch shape and however good the guesses are.  Each digest covers
``sup.tobytes() + finals.tobytes()`` of one ``batch_paths`` call, the
``times`` and ``counts`` of a recorded path, or the bytes of a CLI
``jump-sim`` CSV.
"""

import hashlib

import numpy as np
import pytest

from devia import jump_sim
from devia.harness.cli import main
from devia.harness.config import dump_config
from devia.jump_analysis import solve_p
from devia.jump_sim import JumpControl, batch_paths, simulate_jump, simulate_tilted
from devia.mf_model import birth_death_model, constant_rate_model, two_state_model

M, T, SEED = 60, 1.0, 2024
BIN_SCALE = np.array([1.0, -0.5, 0.75, 0.25])  # the control of bin k is BIN_SCALE[k] * entries
MODES = ("plain", "ref", "tilted")
REPLICAS = (1, 100, 2000)


def _models():
    """name -> (model, q0, control entries on cells the model jumps on)."""
    constant = np.array([[0.0, 1.0, 0.5], [0.3, 0.0, 2.0], [1.0, 1.0, 0.0]])
    return {
        "two-state": (two_state_model(1.0), np.array([0.5, 0.5]), {(1, 2): 0.5, (2, 1): -0.3}),
        "constant-3": (constant_rate_model(constant), np.array([0.5, 0.3, 0.2]),
                       {(1, 2): 0.6, (2, 3): -0.4, (3, 1): 0.3}),
        "birth-death-5": (birth_death_model(5, 0.5, 0.5, 0.5), np.full(5, 0.2),
                          {(1, 2): 0.6, (3, 2): -0.4, (4, 5): 0.8}),
    }


def _tilt(model, q0, entries, n_bins=4, m=M):
    """A control whose value changes from bin to bin, with its a(m) and p."""
    psi = np.zeros((n_bins, model.K, model.K))
    scale = BIN_SCALE[np.arange(n_bins) % 4] * (1.0 + np.arange(n_bins) / n_bins)
    for (i, j), v in entries.items():
        psi[:, i - 1, j - 1] = v * scale
    control = JumpControl(np.linspace(0.0, T, n_bins + 1), psi)
    return {"control": control, "a_m": m ** (-0.25), "p_path": solve_p(model, q0, T, 256)}


def _kwargs(model, q0, entries, mode):
    if mode == "plain":
        return {}
    tilt = _tilt(model, q0, entries)
    if mode == "ref":
        return {"ref": tilt["p_path"]}
    return {**tilt, "ref": tilt["p_path"]}


def _digest(*arrays) -> str:
    return hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()[:16]


def _batch_digest(name, mode, R) -> str:
    model, q0, entries = _models()[name]
    return _digest(*batch_paths(model, M, q0, T, SEED, np.arange(R),
                                **_kwargs(model, q0, entries, mode)))


def _tilted_digest(m, R, n_bins) -> str:
    """Two-state, R tilted replicas of m particles under an n_bins control,
    with p as the ref."""
    model, q0, entries = _models()["two-state"]
    tilt = _tilt(model, q0, entries, n_bins=n_bins, m=m)
    return _digest(*batch_paths(model, m, q0, T, SEED, np.arange(R), **tilt, ref=tilt["p_path"]))


def _many_bins_digest() -> str:
    """m = 2000, 100 replicas under a 64-bin control: windows end at many
    bin edges."""
    return _tilted_digest(2000, 100, 64)


def _path_digest(kind) -> str:
    model, q0, entries = _models()["birth-death-5" if kind != "many-bins" else "two-state"]
    if kind == "plain":
        path = simulate_jump(model, 200, q0, T, SEED, replica=7)
    elif kind == "tilted":
        path, _ = simulate_tilted(model, 200, q0, T, seed=SEED, replica=7,
                                  **_tilt(model, q0, entries, m=200))
    else:
        path, _ = simulate_tilted(model, 2000, q0, T, seed=SEED, replica=3,
                                  **_tilt(model, q0, entries, n_bins=64, m=2000))
    return _digest(path.times, path.counts)


def _cli_digest(tmp_path, tilted) -> str:
    model = tmp_path / "model.json"
    dump_config({"family": "birth-death", "K": 5, "a": 0.5, "b": 0.5, "c": 0.5}, model)
    out = tmp_path / "path.csv"
    argv = ["jump-sim", "--model", str(model), "--m", "500", "--T", "1.0", "--seed", "3",
            "--out", str(out)]
    if tilted:
        control = tmp_path / "control.json"
        dump_config({"n_bins": 4, "entries": {"1,2": 0.4, "3,2": -0.3}, "theta": 0.25}, control)
        argv += ["--control", str(control)]
    assert main(argv) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()[:16]


PINNED = {
    "two-state/plain/1": "e9faa9697fc731f0",
    "two-state/plain/100": "eae5d6209fd57475",
    "two-state/plain/2000": "1e8f005298a75f1c",
    "two-state/ref/1": "93566e967f8012be",
    "two-state/ref/100": "f0aedcf56d98cc24",
    "two-state/ref/2000": "2c662746ec5d9817",
    "two-state/tilted/1": "655d0cd25f7256bf",
    "two-state/tilted/100": "58b07ff3f9e584ad",
    "two-state/tilted/2000": "e761101c4e666273",
    "constant-3/plain/1": "e27fc6d118e6e3a8",
    "constant-3/plain/100": "8fabf3d06b3d7486",
    "constant-3/plain/2000": "58b119900839d8a0",
    "constant-3/ref/1": "e6e7aead4cf692f1",
    "constant-3/ref/100": "38aaa54e324b786e",
    "constant-3/ref/2000": "f5751998f3496638",
    "constant-3/tilted/1": "5844a62983f10dd1",
    "constant-3/tilted/100": "7b190c7d0890f5a0",
    "constant-3/tilted/2000": "caab5af8b355fde5",
    "birth-death-5/plain/1": "0dec64b4ac74e6a7",
    "birth-death-5/plain/100": "62485a7097bf09be",
    "birth-death-5/plain/2000": "46680f2d7207e03d",
    "birth-death-5/ref/1": "8fbfbbc200d57ca4",
    "birth-death-5/ref/100": "8d71e116428ee5c7",
    "birth-death-5/ref/2000": "68db5ec5fd40b59b",
    "birth-death-5/tilted/1": "7c089dcdb1b8816f",
    "birth-death-5/tilted/100": "319197c0c1bbe18d",
    "birth-death-5/tilted/2000": "ff19d6b20585e2bc",
    "many-bins/100": "d28c8ad590bf99c4",
    "tilted/m=10000/20": "20bd6a26d9416ad5",
    "tilted/m=2000/100": "bd173b2d120f2a59",
    "many-bins/m=20/100": "da8b32b1906362b2",
    "path/plain": "173f8f1f222aeb29",
    "path/tilted": "bb65c59f47967441",
    "path/many-bins": "83f6d7aaa6da3df0",
    "cli/plain": "6153d7d34f20682e",
    "cli/tilted": "02fa86be439501ca",
}


def _window(monkeypatch, E, rows, K):
    """Make batch_paths choose windows of E events for a batch of ``rows``."""
    monkeypatch.setattr(jump_sim, "CELL_BUDGET", E * rows * K * K)
    assert jump_sim._window_length(rows, K) == E


@pytest.mark.parametrize("width", range(1, 13))
def test_column_sums_have_the_bits_of_add_reduce(width):
    # the kernel sums short trailing axes a column at a time on the
    # premise that numpy adds fewer than 8 terms in order
    rng = np.random.default_rng(width)
    x = rng.random((500, 3, width)) * 10.0 ** rng.uniform(-3, 3, (500, 3, width))
    y = rng.random((500, 3, width))
    assert jump_sim._sum_last(x).tobytes() == np.add.reduce(x, axis=-1).tobytes()
    squares = np.square(x - y)
    assert jump_sim._sum_last(squares).tobytes() == np.add.reduce((x - y) ** 2, axis=-1).tobytes()


@pytest.mark.parametrize("R", REPLICAS)
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", list(_models()))
def test_batch_bytes_are_pinned(name, mode, R):
    assert _batch_digest(name, mode, R) == PINNED[f"{name}/{mode}/{R}"]


@pytest.mark.parametrize("E", [1, 7, 64])
@pytest.mark.parametrize("name", list(_models()))
def test_batch_bytes_do_not_depend_on_the_window(monkeypatch, name, E):
    K = _models()[name][0].K
    for R in (1, 100):
        _window(monkeypatch, E, R, K)
        for mode in MODES:
            assert _batch_digest(name, mode, R) == PINNED[f"{name}/{mode}/{R}"], (mode, R)


@pytest.mark.parametrize("E", [1, 7])
def test_wide_batch_bytes_do_not_depend_on_the_window(monkeypatch, E):
    _window(monkeypatch, E, 2000, 5)
    assert _batch_digest("birth-death-5", "tilted", 2000) == PINNED["birth-death-5/tilted/2000"]


def test_batch_bytes_do_not_depend_on_the_chunk_size(monkeypatch):
    # 2000 replicas in chunks of 300 and a last chunk of 200
    monkeypatch.setattr(jump_sim, "CHUNK_REPLICAS", 300)
    for mode in MODES:
        assert _batch_digest("constant-3", mode, 2000) == PINNED[f"constant-3/{mode}/2000"]


@pytest.mark.parametrize("E", [None, 1, 64])
def test_many_bin_edges_are_pinned(monkeypatch, E):
    if E is not None:
        _window(monkeypatch, E, 100, 2)
    assert _many_bins_digest() == PINNED["many-bins/100"]


@pytest.mark.parametrize("E", [None, 7, 40, 128])
def test_predicted_windows_are_pinned(monkeypatch, E):
    # at m = 10^4 a jump moves the rates by 1e-4, so nearly every guess
    # predicted at frozen rates holds
    if E is not None:
        _window(monkeypatch, E, 20, 2)
    assert _tilted_digest(10_000, 20, 4) == PINNED["tilted/m=10000/20"]


@pytest.mark.parametrize("E", [None, 64])
def test_poorly_predicted_windows_are_pinned(monkeypatch, E):
    # at m = 20 a jump moves the rates by 5%, and 64 bin edges stop windows
    if E is not None:
        _window(monkeypatch, E, 100, 2)
    assert _tilted_digest(20, 100, 64) == PINNED["many-bins/m=20/100"]


def test_windows_commit_nearly_all_they_evaluate(monkeypatch):
    # the kernel's work, pinned exactly: (lockstep iterations, evaluated
    # row-positions, candidate events) at (m, replicas, control bins); the
    # events are the one-event loop's, and at m >= 2000 nearly every guess
    # predicted at frozen rates holds, so a window commits nearly all of it
    work = {
        (2000, 100, 4): ("tilted/m=2000/100", (34, 239_760, 205_346)),
        (20, 100, 64): ("many-bins/m=20/100", (67, 519_939, 2_189)),
        (10_000, 20, 4): ("tilted/m=10000/20", (88, 215_552, 204_236)),
    }
    # an iteration is one counter_uniforms call, which reads 3 draws (a
    # tilted candidate event's) per row-position
    positions = []
    uniforms = jump_sim.counter_uniforms

    def counted(seed, replicas, start, n):
        positions.append(len(replicas) * n // 3)
        return uniforms(seed, replicas, start, n)

    monkeypatch.setattr(jump_sim, "counter_uniforms", counted)
    for shape, (pin, (iterations, evaluated, _)) in work.items():
        positions.clear()
        assert _tilted_digest(*shape) == PINNED[pin], shape
        assert (len(positions), sum(positions)) == (iterations, evaluated), shape
    # windows of one position evaluate every candidate event and, per row,
    # one stop at the end of each control bin
    for (m, R, bins), (pin, (*_, events)) in work.items():
        _window(monkeypatch, 1, R, 2)
        positions.clear()
        assert _tilted_digest(m, R, bins) == PINNED[pin], (m, R, bins)
        assert sum(positions) - R * bins == events, (m, R, bins)


@pytest.mark.parametrize("E", [None, 1, 7])
@pytest.mark.parametrize("kind", ["plain", "tilted", "many-bins"])
def test_recorded_paths_are_pinned(monkeypatch, kind, E):
    if E is not None:
        _window(monkeypatch, E, 1, 5 if kind != "many-bins" else 2)
    assert _path_digest(kind) == PINNED[f"path/{kind}"]


@pytest.mark.parametrize("tilted", [False, True], ids=["plain", "tilted"])
def test_cli_jump_sim_csv_is_pinned(tmp_path, tilted):
    assert _cli_digest(tmp_path, tilted) == PINNED[f"cli/{'tilted' if tilted else 'plain'}"]


def all_digests(tmp_path) -> dict:
    """Every pinned digest, computed afresh by the kernel in use; PINNED is
    its output on the one-event loop (``tmp_path`` needs the subdirectories
    ``plain`` and ``tilted``)."""
    out = {f"{name}/{mode}/{R}": _batch_digest(name, mode, R)
           for name in _models() for mode in MODES for R in REPLICAS}
    out["many-bins/100"] = _many_bins_digest()
    out["tilted/m=10000/20"] = _tilted_digest(10_000, 20, 4)
    out["tilted/m=2000/100"] = _tilted_digest(2000, 100, 4)
    out["many-bins/m=20/100"] = _tilted_digest(20, 100, 64)
    out.update({f"path/{k}": _path_digest(k) for k in ("plain", "tilted", "many-bins")})
    out.update({f"cli/{k}": _cli_digest(tmp_path / k, k == "tilted") for k in ("plain", "tilted")})
    return out
