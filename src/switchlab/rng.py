"""Deterministic splittable randomness.

Every stream is a Philox counter-based generator keyed by (seed, tags), so
any part of an experiment can re-derive its stream independently of call
order. Weight init follows uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)).
"""

from __future__ import annotations

import zlib

import numpy as np


def rng_for(seed: int, *tags) -> np.random.Generator:
    """Independent Philox stream for (seed, *tags); tags may be str or int,
    a str entering the seed as its CRC-32."""
    entropy = [zlib.crc32(t.encode()) if isinstance(t, str) else int(t)
               for t in (seed, *tags)]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def uniform_init(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)
