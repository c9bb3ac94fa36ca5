import hashlib
import itertools

import pytest

from morrey_lab.rng import sample_indices, u64

SEEDS = (0, 9, 2**64 - 1)


def loop_sample_indices(count, limit, seed):
    """Floyd's algorithm as a plain per-draw loop over ``u64``, kept as the
    reference: draw j is ``u64(seed, 0x464C, j) % (j + 1)``."""
    chosen = []
    for j in range(max(count - limit, 0), count):
        t = u64(seed, 0x464C, j) % (j + 1)
        chosen.append(j if t in chosen else t)
    return sorted(chosen)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("indices", [(), (0,), (-1, 0x464C, 2**40), (3, 2, 1, 0)])
def test_u64_is_hashlib_blake2b(seed, indices):
    """``u64`` takes BLAKE2b from CPython's ``_blake2``; its digests are
    hashlib's over the concatenated 8-byte words."""
    data = seed.to_bytes(8, "little") + b"".join(ix.to_bytes(8, "little", signed=True) for ix in indices)
    assert u64(seed, *indices) == int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "little")


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("count", [0, 1, 2, 3, 64, 65, 4096, 4097, 10_000])
def test_shuffle_matches_per_draw_loop(count, seed):
    """The 64-ball sample (named for the Fisher-Yates shuffle it replaced)
    is pinned to its draws, which fix the report bytes."""
    assert sample_indices(count, 64, seed) == loop_sample_indices(count, 64, seed)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("count, limit", [(0, 0), (0, 5), (1, 1), (7, 100), (5, 2), (64, 64), (65, 64), (10_000, 64), (3, 0)])
def test_sample_is_a_sorted_subset(count, limit, seed):
    sample = sample_indices(count, limit, seed)
    assert len(sample) == min(count, limit)
    assert sample == sorted(set(sample))  # distinct and ascending
    assert all(0 <= i < count for i in sample)
    assert sample == sample_indices(count, limit, seed)


def test_seed_changes_the_sample():
    samples = {tuple(sample_indices(10_000, 64, seed)) for seed in range(20)}
    assert len(samples) == 20


def test_uniform_over_all_subsets():
    """Each of the C(5, 2) = 10 subsets is equally likely.  Over 6,000 seeds
    the Pearson statistic has 9 degrees of freedom; 27.88 is its 0.999
    quantile, so a uniform sampler fails this bound with chance 1e-3 (and
    the fixed seeds make the outcome deterministic)."""
    seeds = 6_000
    counts = dict.fromkeys(itertools.combinations(range(5), 2), 0)
    for seed in range(seeds):
        counts[tuple(sample_indices(5, 2, seed))] += 1
    expected = seeds / len(counts)
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi2 < 27.88, counts
