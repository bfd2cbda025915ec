"""Deterministic RNG streams.

Every random choice in the library flows through a generator derived from
(seed, path...) via numpy's SeedSequence, so identical inputs reproduce
bit-identical samples.
"""

import numpy as np


def rng_for(seed: int, *path: int) -> np.random.Generator:
    """Generator for the stream identified by (seed, *path)."""
    return np.random.default_rng(np.random.SeedSequence([int(seed) & 0xFFFFFFFFFFFFFFFF, *path]))
