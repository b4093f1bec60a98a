"""The documented splitmix64 contract and deterministic sampling."""

import pytest

from nhspectrum.rng import SplitMix64, sample_distinct, sample_u0_nonf3
from nhspectrum.charsums import CLASS_U0, classify_u


def _reference_stream(seed, count):
    """Inline re-implementation straight from the documented recurrence."""
    mask = (1 << 64) - 1
    state = seed & mask
    out = []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


def test_stream_matches_documented_recurrence():
    for seed in (0, 1, 42, 0xDEADBEEF, (1 << 64) - 1):
        gen = SplitMix64(seed)
        assert [gen.next_u64() for _ in range(10)] == _reference_stream(seed, 10)


def test_outputs_are_64_bit():
    gen = SplitMix64(7)
    for _ in range(100):
        assert 0 <= gen.next_u64() < (1 << 64)


def test_below_bound():
    gen = SplitMix64(3)
    for _ in range(100):
        assert 0 <= gen.below(17) < 17
    with pytest.raises(ValueError):
        gen.below(0)


def test_sample_distinct_deterministic():
    pool = list(range(50))
    first = sample_distinct(pool, 10, seed=7)
    second = sample_distinct(pool, 10, seed=7)
    assert first == second
    assert len(set(first)) == 10
    assert sample_distinct(pool, 10, seed=8) != first


def test_sample_distinct_range_pool_equals_list():
    for size in (1, 50, 26 * 27):
        for seed in (0, 7, 11, 2024):
            count = min(size, 20)
            assert (sample_distinct(range(size), count, seed)
                    == sample_distinct(list(range(size)), count, seed))


def test_sample_distinct_bounds():
    with pytest.raises(ValueError):
        sample_distinct([1, 2, 3], 4, seed=0)
    with pytest.raises(ValueError):
        sample_distinct([1, 2, 3], 0, seed=0)
    assert sorted(sample_distinct([1, 2, 3], 3, seed=5)) == [1, 2, 3]


def test_sample_u_in_scope(f5):
    us = sample_u0_nonf3(f5, 10, seed=42)
    assert len(us) == len(set(us)) == 10
    for u in us:
        assert classify_u(f5, u) == CLASS_U0
    assert us == sample_u0_nonf3(f5, 10, seed=42)
