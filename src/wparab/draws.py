"""Seeded uniform draws: one counter-based kernel for every randomized audit.

Element i, in C order, of ``uniform(key, lo, hi, shape, start)`` is
``lo + (hi - lo) * ((mix(key + (start + i + 1) * GAMMA) >> 11) * 2**-53)``,
with ``mix`` the SplitMix64 finalizer (Steele, Lea & Flood, "Fast splittable
pseudorandom number generators", OOPSLA 2014) on 64-bit integers. A draw
depends only on its key and its counter, so the draws from ``start`` on are
a slice of the one-shot draws. :func:`key` folds a seed, a site label and
any index through the same ``mix``, one stream per site.
"""
from __future__ import annotations

import numpy as np

GAMMA = 0x9E3779B97F4A7C15


def _mix(z: np.ndarray) -> np.ndarray:
    """The SplitMix64 finalizer of a uint64 array, in place."""
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def key(seed: int, label: str, *index: int) -> int:
    """The key of one stream: the seed, the label's UTF-8 bytes eight at a
    time and each index, folded in turn through ``mix``. A seed or an index
    outside [0, 2**64), which would share another's streams, raises
    OverflowError."""
    raw = seed.to_bytes(8, "little") + label.encode()
    words = [int.from_bytes(raw[i:i + 8], "little") for i in range(0, len(raw), 8)]
    k = 0
    for word in (*words, *index):
        k = int(_mix(np.array([k ^ word], dtype=np.uint64))[0])
    return k


def uniform(key: int, lo, hi, shape, start: int = 0) -> np.ndarray:
    """Draws ``start``, ``start + 1``, ... of stream ``key`` as an array of
    ``shape``, uniform on [lo, hi); ``lo`` and ``hi`` broadcast against it."""
    z = np.arange(start + 1, start + 1 + int(np.prod(shape)), dtype=np.uint64)
    z *= np.uint64(GAMMA)
    z += np.uint64(key)
    _mix(z)
    z >>= np.uint64(11)
    lo = np.asarray(lo, dtype=np.float64)
    # (hi - lo) * 2**-53 is exact, so this rounds as (hi - lo) * (z * 2**-53)
    u = (np.asarray(hi, dtype=np.float64) - lo) * 2.0 ** -53 * z.reshape(shape)
    u += lo
    return u
