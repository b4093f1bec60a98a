"""Deterministic sampling for verification sweeps.

The generator is splitmix64: 64-bit state, one additive constant and two
multiply-xorshift mixing steps.  The exact contract, so that any other
implementation of the same sweep reproduces the sample:

    state = (state + 0x9E3779B97F4A7C15) mod 2^64
    z = state
    z = ((z xor (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2^64
    z = ((z xor (z >> 27)) * 0x94D049BB133111EB) mod 2^64
    output = z xor (z >> 31)

Samples are drawn as output mod len(pool) with duplicates skipped, so a
fixed (seed, pool) always yields the same subset in the same order.  The
pool is any sequence: `cli.resolve_u` passes `spectrum.u0_nonf3_elements`.
"""

from __future__ import annotations

from typing import Sequence

MASK64 = (1 << 64) - 1
GOLDEN_GAMMA = 0x9E3779B97F4A7C15
MIX_MUL_1 = 0xBF58476D1CE4E5B9
MIX_MUL_2 = 0x94D049BB133111EB


class SplitMix64:
    """The 64-bit splitmix generator with the documented constants."""

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + GOLDEN_GAMMA) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * MIX_MUL_1) & MASK64
        z = ((z ^ (z >> 27)) * MIX_MUL_2) & MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        if bound <= 0:
            raise ValueError("bound must be positive")
        return self.next_u64() % bound


def sample_distinct(pool: Sequence, count: int, seed: int) -> list:
    """count distinct items from pool, in deterministic draw order.

    Only ``len(pool)`` and ``pool[i]`` are used, so a ``range`` stands in
    for a list of consecutive ints without building it.
    """
    if count < 1:
        raise ValueError("sample size must be >= 1")
    if count > len(pool):
        raise ValueError(f"cannot sample {count} items from a pool of {len(pool)}")
    rng = SplitMix64(seed)
    chosen: list = []
    seen: set = set()
    while len(chosen) < count:
        item = pool[rng.below(len(pool))]
        if item not in seen:
            seen.add(item)
            chosen.append(item)
    return chosen

