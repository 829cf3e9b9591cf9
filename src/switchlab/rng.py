"""Deterministic splittable randomness.

Every stream is a Philox counter-based generator keyed by (seed, tags), so
any part of an experiment can re-derive its stream independently of call
order. Weight init follows uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)).

A sampler that takes one scalar at a time (the ListOps generator) reads a
stream through ``PhiloxDraws`` instead of ``numpy.random.Generator``, whose
every scalar call costs a microsecond or more. ``PhiloxDraws`` reads the
stream's raw 64-bit words in blocks (``Philox.random_raw(n).tolist()``) and
forms in Python integer arithmetic exactly the values that
``numpy.random.Generator(philox)`` returns for the same calls in the same
order:

* ``random()`` is numpy's ``next_double``: one whole word u,
  ``(u >> 11) * 2**-53``.
* ``integers(low, high)`` is numpy's default bounded draw of an ``int64``
  whose span ``high - low`` lies below 2**32: Lemire's multiply-shift on
  32-bit words, m = w * span, rejecting w while the low 32 bits of m fall
  below ``2**32 % span``, and returning ``low + (m >> 32)``. Each w comes
  from Philox's ``next_uint32``, which splits a fresh word, returns its low
  half and keeps the high half for the next 32-bit draw; ``random()``
  neither reads nor clears that kept half. A span of 1 returns ``low`` and
  reads nothing.

A block may read past a stream's last draw; the words left over are
dropped with the ``PhiloxDraws``, so each stream must have one reader.
"""

from __future__ import annotations

import zlib

import numpy as np

_LOW32 = 0xFFFFFFFF


def philox_for(seed: int, *tags) -> np.random.Philox:
    """The Philox bit generator of the stream (seed, *tags); tags may be
    str or int."""
    words = [int(seed)]
    for t in tags:
        if isinstance(t, str):
            words.append(zlib.crc32(t.encode()))
        else:
            words.append(int(t))
    return np.random.Philox(np.random.SeedSequence(words))


def rng_for(seed: int, *tags) -> np.random.Generator:
    """Independent Philox stream for (seed, *tags); tags may be str or int."""
    return np.random.Generator(philox_for(seed, *tags))


class PhiloxDraws:
    """``random()`` and ``integers(low, high)`` with the values and stream
    use of ``numpy.random.Generator(bitgen)``, formed in Python from the raw
    words of a fresh Philox bit generator (see the module docstring).
    """

    BLOCK = 48      # raw words per numpy call; a ListOps example reads about 40

    __slots__ = ("_bitgen", "_words", "_half")

    def __init__(self, bitgen: np.random.Philox):
        self._bitgen = bitgen
        self._words: list[int] = []    # the block's unread words, last one next
        self._half = None              # the kept high half of next_uint32

    def _next64(self) -> int:
        try:
            return self._words.pop()
        except IndexError:
            self._words = self._bitgen.random_raw(self.BLOCK)[::-1].tolist()
            return self._words.pop()

    def random(self) -> float:
        """A float in [0, 1) from one whole word."""
        return (self._next64() >> 11) * 2.0 ** -53

    def integers(self, low: int, high: int) -> int:
        """An int in [low, high); the span high - low must lie in
        [1, 2**32)."""
        span = high - low
        if not 0 < span <= _LOW32:
            raise ValueError(f"integers: span {span} outside [1, 2**32)")
        if span == 1:
            return low
        while True:
            # next_uint32: the kept high half, else the low half of a fresh word
            half = self._half
            if half is None:
                word = self._next64()
                self._half = word >> 32
                half = word & _LOW32
            else:
                self._half = None
            m = half * span
            # accept unless the low 32 bits fall below 2**32 % span, which
            # they can only do when they fall below span
            if m & _LOW32 >= span or m & _LOW32 >= (1 << 32) % span:
                return low + (m >> 32)


def uniform_init(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)
