import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from devia.jump_analysis import solve_p
from devia.jump_sim import batch_paths
from devia.mf_model import two_state_model
from devia.rng import counter_uniforms, philox4x32


@pytest.mark.parametrize(
    "counter, key, want",
    [
        ([0, 0, 0, 0], [0, 0], [0x6627E8D5, 0xE169C58D, 0xBC57AC4C, 0x9B00DBD8]),
        ([0xFFFFFFFF] * 4, [0xFFFFFFFF] * 2, [0x408F276D, 0x41C83B0E, 0xA20BC7C6, 0x6D5451FD]),
        (
            [0x243F6A88, 0x85A308D3, 0x13198A2E, 0x03707344],
            [0xA4093822, 0x299F31D0],
            [0xD16CFE09, 0x94FDCCEB, 0x5001E420, 0x24126EA1],
        ),
    ],
)
def test_philox_known_answers(counter, key, want):
    # Random123 known-answer vectors for Philox4x32-10
    got = philox4x32(np.array(counter, dtype=np.uint64), key)
    assert got.dtype == np.uint32
    assert got.tolist() == want


def test_philox_is_elementwise_over_counters():
    ctrs = np.arange(40, dtype=np.uint64).reshape(10, 4)
    wide = philox4x32(ctrs, (7, 9))
    for c, w in zip(ctrs, wide):
        assert np.array_equal(philox4x32(c, (7, 9)), w)


def test_blocks_drawn_one_at_a_time_equal_one_wide_draw():
    reps = np.array([0, 3, 2**33 + 5])
    wide = counter_uniforms(11, reps, 0, 96)
    pieces = np.hstack([counter_uniforms(11, reps, k, 32) for k in (0, 32, 64)])
    assert np.array_equal(wide, pieces)
    # per-row starts read the same draws as the wide block
    staggered = counter_uniforms(11, reps, np.array([0, 32, 64]), 32)
    for i, k in enumerate((0, 32, 64)):
        assert np.array_equal(staggered[i], wide[i, k:k + 32])


def test_uniforms_are_in_unit_interval_and_keyed():
    u = counter_uniforms(5, np.arange(200), 0, 64)
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.01
    assert not np.array_equal(u, counter_uniforms(6, np.arange(200), 0, 64))
    assert len(np.unique(u)) == u.size


@pytest.mark.parametrize("width", [2, 3])
def test_reads_at_any_starts_are_slices_of_one_wide_call(width):
    # rows moved by mixed odd and even amounts, as the jump kernel moves them
    # (width draws per candidate event, 1 for a stop), must read the slices
    # of one wide call at their starts, at any length, and so must the rows
    # left after some are dropped
    ids = np.array([3, 17, 0, 99, 5, 42])
    wide = counter_uniforms(7, ids, 0, 400)
    pos = np.zeros(len(ids), dtype=np.int64)
    span = 5 * width
    rng = np.random.default_rng(width)
    for it in range(10):
        for n in (span, span - 1, 1, 0):
            u = counter_uniforms(7, ids, pos, n)
            want = np.take_along_axis(wide, pos[:, None] + np.arange(n), axis=1)
            assert u.shape == want.shape and u.tobytes() == want.tobytes(), (it, n)
        used = rng.integers(1, span + 1, len(ids))
        used[it % len(ids)], used[(it + 1) % len(ids)] = 1, 2
        pos += used
        if it in (3, 6):
            kept = np.arange(len(ids)) != it % len(ids)
            ids, wide, pos = ids[kept], wide[kept], pos[kept]
    # a single row, at an odd and an even start
    for start in (5, 6):
        for n in (0, 1, 2, 3):
            assert counter_uniforms(7, ids[1:2], start, n).tobytes() == (
                wide[1:2, start:start + n].tobytes())
    assert counter_uniforms(7, ids[:0], 3, 5).shape == (0, 5)


@pytest.mark.parametrize("start, n", [(-2, 4), (-1, 3), (0, -2)])
def test_draw_ranges_must_be_whole_blocks(start, n):
    # any nonnegative range reads the whole blocks that cover it; a negative
    # start or length names no draw
    with pytest.raises(ValueError, match="nonnegative replicas, starts and lengths"):
        counter_uniforms(0, np.arange(2), start, n)
    with pytest.raises(ValueError, match="nonnegative replicas, starts and lengths"):
        counter_uniforms(0, np.array([1, -1]), 0, 2)


def test_seed_must_fit_the_key():
    with pytest.raises(ValueError, match="seed"):
        counter_uniforms(-1, np.arange(2), 0, 2)


_MODEL = two_state_model(1.0)
_Q0 = np.array([0.5, 0.5])
_P = solve_p(_MODEL, _Q0, 1.0, 128)
_FULL = batch_paths(_MODEL, 20, _Q0, 1.0, 4, np.arange(60), ref=_P)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(1, 59), max_size=6, unique=True))
def test_any_split_of_the_replica_range_gives_the_same_bytes(cuts):
    bounds = [0, *sorted(cuts), 60]
    parts = [
        batch_paths(_MODEL, 20, _Q0, 1.0, 4, np.arange(lo, hi), ref=_P)
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ]
    assert np.concatenate([p[0] for p in parts]).tobytes() == _FULL[0].tobytes()
    assert np.concatenate([p[1] for p in parts]).tobytes() == _FULL[1].tobytes()
