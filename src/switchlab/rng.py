"""Deterministic splittable randomness.

Every stream is a Philox counter-based generator keyed by (seed, tags), so
any part of an experiment can re-derive its stream independently of call
order. Distinct keys give distinct streams, with one exception: numpy's
``SeedSequence`` pads its entropy with zero words to four 32-bit words,
so a trailing 0 tag that keeps the key within four words is no tag at
all (``rng_for(5, "listops")``, ``rng_for(5, "listops", 0)`` and
``rng_for(5, "listops", 0, 0)`` are one stream). Keys that must differ
must not differ only by such trailing zeros. The streams are kept as they
are, since every model and data stream is drawn from them. Weight init
follows uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)).
"""

from __future__ import annotations

import zlib

import numpy as np


def rng_for(seed: int, *tags) -> np.random.Generator:
    """Philox stream for (seed, *tags); tags may be str or int, a str
    entering the seed as its CRC-32. Streams of distinct keys are
    independent, except for keys that differ only by trailing 0 tags within
    four 32-bit words, which give the same stream (see the module
    docstring)."""
    entropy = [zlib.crc32(t.encode()) if isinstance(t, str) else int(t)
               for t in (seed, *tags)]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def uniform_init(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)
