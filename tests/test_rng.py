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


@pytest.mark.parametrize("start, n", [(1, 4), (0, 3), (-2, 4)])
def test_draw_ranges_must_be_whole_blocks(start, n):
    with pytest.raises(ValueError, match="even"):
        counter_uniforms(0, np.arange(2), start, n)


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
