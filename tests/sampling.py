"""Seeded samples of in-scope u for the tests, drawn as `--u sample:N:seed` draws them."""

from nhspectrum.rng import sample_distinct
from nhspectrum.spectrum import u0_nonf3_elements


def sample_u0_nonf3(ctx, count: int, seed: int) -> list[int]:
    """count distinct in-scope u, as ints, in deterministic draw order."""
    return [int(u) for u in sample_distinct(u0_nonf3_elements(ctx), count, seed)]
