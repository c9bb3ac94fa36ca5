"""Counter-based deterministic random stream.

Every draw is a pure function of (seed, *indices): the 8-byte little-endian
words are fed to BLAKE2b with an 8-byte digest and the result is mapped to a
53-bit uniform.  The algorithm is pinned so corpora are bit-stable across
platforms and processes; no hidden generator state exists anywhere.
"""

from __future__ import annotations

# CPython's own BLAKE2b and SHA-256 (``cli`` hashes the config with it):
# hashlib would also load OpenSSL's libcrypto, about 3.4 MiB of a run.
try:
    from _blake2 import blake2b
except ImportError:
    from hashlib import blake2b
try:
    from _sha2 import sha256  # 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # 3.10-3.11
    except ImportError:
        from hashlib import sha256


def u64(seed: int, *indices: int) -> int:
    h = blake2b(digest_size=8)
    h.update(int(seed).to_bytes(8, "little", signed=False))
    for ix in indices:
        h.update(int(ix).to_bytes(8, "little", signed=True))
    return int.from_bytes(h.digest(), "little", signed=False)


def uniform01(seed: int, *indices: int) -> float:
    """Uniform in [0, 1) with 53 random bits."""
    return (u64(seed, *indices) >> 11) * 2.0**-53


def uniform(seed: int, *indices: int, low: float = 0.0, high: float = 1.0) -> float:
    return low + (high - low) * uniform01(seed, *indices)


def randint_below(seed: int, bound: int, *indices: int) -> int:
    """Integer in [0, bound) by 64-bit modular reduction (bias < 2^-40 for
    the bounds used here)."""
    return u64(seed, *indices) % bound


def sample_indices(count: int, limit: int, seed: int) -> list[int]:
    """A uniform random subset of range(count) of size min(count, limit),
    sorted ascending.

    Floyd's algorithm (Bentley & Floyd, CACM 30(9), 1987): for each j in
    [count - limit, count), draw t in [0, j] with
    ``randint_below(seed, j + 1, 0x464C, j)`` and take j if t is already
    chosen, else t.  It makes one draw per kept index."""
    chosen: set[int] = set()
    for j in range(max(count - limit, 0), count):
        t = randint_below(seed, j + 1, 0x464C, j)
        chosen.add(j if t in chosen else t)
    return sorted(chosen)
