"""Counter-based deterministic random stream.

Every draw is a pure function of (seed, *indices): the 8-byte little-endian
words are fed to BLAKE2b with an 8-byte digest and the result is mapped to a
53-bit uniform.  The algorithm is pinned so corpora are bit-stable across
platforms and processes; no hidden generator state exists anywhere.

``u64_range`` is the batch path for a run of draws that differ only in their
last index.  It yields the same words as ``u64``: the shared prefix (seed and
leading indices) is hashed once and the hash state copied for each draw.
"""

from __future__ import annotations

import hashlib

import numpy as np

_CHUNK = 4096  # digests joined per step of u64_range, to bound its temporaries


def _state(seed: int, indices) -> hashlib.blake2b:
    h = hashlib.blake2b(digest_size=8)
    h.update(int(seed).to_bytes(8, "little", signed=False))
    for ix in indices:
        h.update(int(ix).to_bytes(8, "little", signed=True))
    return h


def u64(seed: int, *indices: int) -> int:
    return int.from_bytes(_state(seed, indices).digest(), "little", signed=False)


def u64_range(seed: int, count: int, *indices: int) -> np.ndarray:
    """The uint64 array ``[u64(seed, *indices, i) for i in range(count)]``."""
    prefix = _state(seed, indices)
    out = np.empty(count, dtype="<u8")
    for lo in range(0, count, _CHUNK):
        hi = min(lo + _CHUNK, count)
        digests = []
        for i in range(lo, hi):
            h = prefix.copy()
            h.update(i.to_bytes(8, "little", signed=True))
            digests.append(h.digest())
        out[lo:hi] = np.frombuffer(b"".join(digests), dtype="<u8")
    return out


def uniform01(seed: int, *indices: int) -> float:
    """Uniform in [0, 1) with 53 random bits."""
    return (u64(seed, *indices) >> 11) * 2.0**-53


def uniform(seed: int, *indices: int, low: float = 0.0, high: float = 1.0) -> float:
    return low + (high - low) * uniform01(seed, *indices)


def randint_below(seed: int, bound: int, *indices: int) -> int:
    """Integer in [0, bound) by 64-bit modular reduction (bias < 2^-40 for
    the bounds used here)."""
    return u64(seed, *indices) % bound


def shuffle_indices(count: int, seed: int) -> list[int]:
    """Deterministic Fisher-Yates permutation of range(count).

    Swap i takes ``randint_below(seed, i + 1, 0x5348, i)``; all bounds are
    drawn at once with ``u64_range``."""
    js = (u64_range(seed, count, 0x5348) % np.arange(1, count + 1, dtype=np.uint64)).tolist()
    idx = list(range(count))
    for i in range(count - 1, 0, -1):
        j = js[i]
        idx[i], idx[j] = idx[j], idx[i]
    return idx
