"""Deterministic random streams.

All randomness in the package flows through Philox, a counter-based generator:
a seed plus an optional stream index fully determines every draw, so repeated
runs are bit-identical and independent streams never overlap.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgument

__all__ = ["philox_generator"]


def philox_generator(seed: int, stream: int = 0) -> np.random.Generator:
    """Generator for (seed, stream), seed >= 0; the same pair always yields the same draws."""
    if seed < 0:
        raise InvalidArgument(f"seed must be >= 0, got {seed}")
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(stream),))
    return np.random.Generator(np.random.Philox(ss))
