import numpy as np
import pytest

from morrey_lab import rng
from morrey_lab.rng import randint_below, shuffle_indices, u64, u64_range

SEEDS = (0, 9, 2**64 - 1)


def loop_shuffle_indices(count, seed):
    """The per-draw Fisher-Yates loop that ``shuffle_indices`` replaced,
    kept as the reference."""
    idx = list(range(count))
    for i in range(count - 1, 0, -1):
        j = randint_below(seed, i + 1, 0x5348, i)
        idx[i], idx[j] = idx[j], idx[i]
    return idx


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("count", [0, 1, 2, 3, 64, 65, rng._CHUNK, rng._CHUNK + 1, 10_000])
def test_shuffle_matches_per_draw_loop(count, seed):
    assert shuffle_indices(count, seed) == loop_shuffle_indices(count, seed)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("prefix", [(), (0x5348,), (-3,), (7, -1)])
def test_u64_range_matches_u64(seed, prefix):
    count = rng._CHUNK + 5
    words = u64_range(seed, count, *prefix)
    assert words.dtype == np.uint64 and words.shape == (count,)
    assert words.tolist() == [u64(seed, *prefix, i) for i in range(count)]
