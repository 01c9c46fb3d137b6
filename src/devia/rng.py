"""Counter-based random streams.

Two kinds of streams are used, both keyed so that results do not depend on
how work is split across batches or workers.

``stream(seed, *ids)`` is a numpy Philox generator keyed by (seed, *ids);
streams with distinct keys are independent.  The scalar simulators, the
diffusion ensembles and the harness draw from these.

``counter_uniforms(seed, replicas, start, n)`` is stateless: draw k of
replica r is a pure function of (seed, r, k), computed by a vectorized
Philox4x32-10 (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3",
SC'11) with key = seed and counter = (k // 2, r).  Each 4-word output block
gives two uniforms, draws 2j and 2j + 1.  The batched jump kernel draws from
these, so a replica's randomness does not depend on which replicas share its
batch, and no per-replica generator state is kept.
"""

from __future__ import annotations

import numpy as np

__all__ = ["stream", "philox4x32", "counter_uniforms"]

_MASK32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_MUL = np.array([[0xD2511F53], [0xCD9E8D57]], dtype=np.uint64)  # for words c0, c2
_WEYL = (0x9E3779B9, 0xBB67AE85)
_ROUNDS = 10


def stream(seed: int, *ids: int) -> np.random.Generator:
    """Independent generator for the stream keyed by (seed, *ids)."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(i) for i in ids))
    return np.random.Generator(np.random.Philox(ss))


def _rounds(x: np.ndarray, y: np.ndarray, key) -> None:
    """The Philox4x32-10 rounds, in place, on n counters held as x = (c0, c2)
    and y = (c1, c3): two (2, n) uint64 arrays of 32-bit words, which end
    holding the output words in the same layout.

    A round is five array operations on the stacked words:
    (c0, c2) <- (hi(c2 M1) ^ c1 ^ k0, hi(c0 M0) ^ c3 ^ k1) and
    (c1, c3) <- (lo(c2 M1), lo(c0 M0)).
    """
    prod = np.empty_like(x)
    k0, k1 = (int(w) & 0xFFFFFFFF for w in key)
    for _ in range(_ROUNDS):
        np.multiply(x, _MUL, out=prod)
        np.right_shift(prod[::-1], _SHIFT32, out=x)
        x ^= y
        x ^= np.array([[k0], [k1]], dtype=np.uint64)
        np.bitwise_and(prod[::-1], _MASK32, out=y)
        k0 = (k0 + _WEYL[0]) & 0xFFFFFFFF
        k1 = (k1 + _WEYL[1]) & 0xFFFFFFFF


def philox4x32(counter: np.ndarray, key) -> np.ndarray:
    """Philox4x32-10 blocks: ``counter`` (..., 4) and ``key`` (2,) hold 32-bit
    words (any integer dtype); returns (..., 4) uint32 output words."""
    c = np.asarray(counter, dtype=np.uint64)
    if c.shape[-1:] != (4,):
        raise ValueError("counter must have 4 words in its last axis")
    words = c.reshape(-1, 4).T & _MASK32  # (4, n): the low 32 bits of each
    _rounds(words[0::2], words[1::2], key)
    return words.T.astype(np.uint32).reshape(c.shape)


def counter_uniforms(seed: int, replicas: np.ndarray, start: np.ndarray, n: int) -> np.ndarray:
    """Draws start[i] .. start[i] + n - 1 of replica ``replicas[i]``, as an
    array of shape (len(replicas), n) of doubles in [0, 1).

    ``start`` and ``n`` must be even, so every call reads whole output blocks.
    A draw is the top 53 bits of the 64-bit word pair (hi, lo) it reads.
    """
    seed = int(seed)
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must be in [0, 2**64); got {seed}")
    replicas = np.asarray(replicas, dtype=np.int64)
    start = np.broadcast_to(np.asarray(start, dtype=np.int64), replicas.shape)
    if n % 2 or np.any(start % 2) or np.any(start < 0) or np.any(replicas < 0):
        raise ValueError("draw ranges must start at a nonnegative even index and have even length")
    key = (seed & 0xFFFFFFFF, seed >> 32)
    half = n // 2
    # counter (c0, c1, c2, c3) = (block lo, block hi, replica lo, replica hi)
    x = np.empty((2, len(replicas) * half), dtype=np.uint64)
    x[0] = (start[:, None] // 2 + np.arange(half)).ravel()
    x[1] = np.repeat(replicas, half)
    y = x >> _SHIFT32
    x &= _MASK32
    _rounds(x, y, key)
    # draw 2j of a block is the top 53 bits of (c0 << 32 | c1), draw
    # 2j + 1 those of (c2 << 32 | c3)
    x <<= _SHIFT32
    x |= y
    x >>= np.uint64(11)
    out = np.empty((len(replicas), n))
    np.multiply(x.T, 2.0**-53, out=out.reshape(-1, 2))
    return out
