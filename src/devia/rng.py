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
_MUL = (np.uint64(0xD2511F53), np.uint64(0xCD9E8D57))
_WEYL = (0x9E3779B9, 0xBB67AE85)
_ROUNDS = 10
_SHIFT32 = np.uint64(32)
_CHUNK_BLOCKS = 1 << 16  # output blocks per vectorized pass; bounds temporaries


def stream(seed: int, *ids: int) -> np.random.Generator:
    """Independent generator for the stream keyed by (seed, *ids)."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(i) for i in ids))
    return np.random.Generator(np.random.Philox(ss))


def philox4x32(counter: np.ndarray, key) -> np.ndarray:
    """Philox4x32-10 blocks: ``counter`` (..., 4) and ``key`` (2,) hold 32-bit
    words (any integer dtype); returns (..., 4) uint32 output words."""
    c = np.asarray(counter, dtype=np.uint64)
    if c.shape[-1:] != (4,):
        raise ValueError("counter must have 4 words in its last axis")
    k0, k1 = (int(w) for w in key)
    c0, c1, c2, c3 = (c[..., i] & _MASK32 for i in range(4))
    for _ in range(_ROUNDS):
        p0 = c0 * _MUL[0]
        p1 = c2 * _MUL[1]
        c0, c1, c2, c3 = (
            (p1 >> _SHIFT32) ^ c1 ^ np.uint64(k0),
            p1 & _MASK32,
            (p0 >> _SHIFT32) ^ c3 ^ np.uint64(k1),
            p0 & _MASK32,
        )
        k0 = (k0 + _WEYL[0]) & 0xFFFFFFFF
        k1 = (k1 + _WEYL[1]) & 0xFFFFFFFF
    return np.stack([c0, c1, c2, c3], axis=-1).astype(np.uint32)


def _split64(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x = x.astype(np.uint64)
    return x & _MASK32, x >> _SHIFT32


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
    out = np.empty((len(replicas), n))
    step = max(1, _CHUNK_BLOCKS // max(half, 1))
    for lo in range(0, len(replicas), step):
        rows = slice(lo, lo + step)
        block = start[rows, None] // 2 + np.arange(half)
        ctr = np.empty(block.shape + (4,), dtype=np.uint64)
        ctr[..., 0], ctr[..., 1] = _split64(block)
        ctr[..., 2], ctr[..., 3] = _split64(replicas[rows, None])
        words = philox4x32(ctr, key).astype(np.uint64)
        bits = (words[..., 0::2] << _SHIFT32 | words[..., 1::2]) >> np.uint64(11)
        out[rows] = (bits * 2.0**-53).reshape(-1, n)
    return out
