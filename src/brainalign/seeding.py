"""Named, independent RNG streams derived from one run seed.

Each purpose ("init", "order", "spikes", ...) gets its own generator so
that, e.g., toggling spike sampling cannot perturb the data order. The
purpose name is hashed with crc32, which is stable across platforms and
Python versions.
"""

from __future__ import annotations

import zlib

import numpy as np

from .errors import ConfigurationError


def named_rng(seed: int, purpose: str) -> np.random.Generator:
    if seed < 0:
        raise ConfigurationError(f"seed must be a non-negative integer, got {seed}")
    key = zlib.crc32(purpose.encode("utf-8"))
    return np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=(key,)))
