"""Deterministic splittable randomness.

Every stream is a Philox counter-based generator keyed by (seed, tags), so
any part of an experiment can re-derive its stream independently of call
order. Weight init follows uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)).

A sampler that takes one scalar at a time (the ListOps generator) reads a
stream through ``PhiloxDraws`` instead of ``numpy.random.Generator``, whose
every scalar call costs a microsecond or more. ``PhiloxDraws`` pops the
stream's raw 64-bit words from a list and forms in Python integer
arithmetic exactly the values that ``numpy.random.Generator(philox)``
returns for the same calls in the same order:

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

The raw words come in bulk, with no numpy ``SeedSequence`` or ``Philox``
built per stream (the two took about 26 us a stream). Philox is
counter-based: the block at counter c is a pure function of the key and c
(Salmon et al. 2011, "Parallel random numbers: as easy as 1, 2, 3"), so
numpy arrays form the blocks of many streams, at many counters, at once:

* ``philox_keys`` forms the keys of the streams (seed, *tags, i) for an
  array of indices i below 2**32: numpy's ``SeedSequence`` pool hash,
  modulo 2**32, over the entropy words that ``SeedSequence([seed, *tags,
  i])`` assembles (each int as its little-endian 32-bit words, one word
  for 0, so a seed of 2**32 or more is two words; a str tag as its
  CRC-32), then ``generate_state(2, uint64)``.
* ``philox_words`` forms words [start, start + n) of keyed streams: word
  w is lane ``w % 4`` of the Philox4x64-10 block at counter ``w // 4 + 1``
  (numpy's first block uses counter 1), with each 64-bit product formed
  from 32-bit halves.

Both give, word for word, what ``philox_for(seed, *tags, i).random_raw``
returns. A call costs about 0.4 ms of numpy overhead whatever its size,
plus about 0.1 us a word, so a few words are worth forming only for many
streams at once, and a stream that refills alone takes thousands (see
``PhiloxDraws``).
"""

from __future__ import annotations

import zlib

import numpy as np

_LOW32 = 0xFFFFFFFF

# numpy's SeedSequence hash (numpy/random/bit_generator.pyx), pool of 4 words
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715

# Philox4x64-10 (Random123): round multipliers and key increments
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10


def _entropy_int(tag) -> int:
    """A seed or tag as SeedSequence entropy: a str as its CRC-32."""
    return zlib.crc32(tag.encode()) if isinstance(tag, str) else int(tag)


def philox_for(seed: int, *tags) -> np.random.Philox:
    """The Philox bit generator of the stream (seed, *tags); tags may be
    str or int."""
    return np.random.Philox(np.random.SeedSequence([_entropy_int(t) for t in (seed, *tags)]))


def rng_for(seed: int, *tags) -> np.random.Generator:
    """Independent Philox stream for (seed, *tags); tags may be str or int."""
    return np.random.Generator(philox_for(seed, *tags))


def _uint32_words(value: int) -> list[int]:
    """numpy's ``_int_to_uint32_array``: little-endian 32-bit words, [0]
    for 0."""
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & _LOW32]
    while value := value >> 32:
        words.append(value & _LOW32)
    return words


def _pool_keys(entropy: list[np.ndarray]) -> np.ndarray:
    """Philox keys [n, 2] from the entropy words of n streams, each row a
    uint64 array of shape [n] or [1] holding 32-bit words: SeedSequence's
    pool and ``generate_state(2, uint64)``, in uint64 arithmetic taken
    modulo 2**32."""
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _LOW32
        value = value * hash_const & _LOW32
        return value ^ (value >> 16)

    def mix(x, y):
        r = (x * _MIX_MULT_L - y * _MIX_MULT_R) & _LOW32
        return r ^ (r >> 16)

    zero = np.zeros(1, np.uint64)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))
    state = []
    hash_const = _INIT_B
    for word in pool:
        word = word ^ hash_const
        hash_const = hash_const * _MULT_B & _LOW32
        word = word * hash_const & _LOW32
        state.append(word ^ (word >> 16))
    return np.stack([state[0] | state[1] << 32, state[2] | state[3] << 32], axis=-1)


def philox_keys(seed: int, *tags, index=None) -> np.ndarray:
    """The Philox keys, uint64 [len(index), 2], of the streams (seed, *tags,
    i) for each i in ``index``, ints in [0, 2**32); [1, 2] for the stream
    (seed, *tags) when ``index`` is None. Each key is ``philox_for``'s,
    formed without numpy's SeedSequence."""
    entropy = [np.array([w], np.uint64) for t in (seed, *tags)
               for w in _uint32_words(_entropy_int(t))]
    if index is not None:
        index = np.asarray(index, dtype=np.int64)
        if index.size and not (0 <= index.min() and index.max() <= _LOW32):
            raise ValueError("stream indices must lie in [0, 2**32)")
        entropy.append(index.astype(np.uint64))
    return _pool_keys(entropy)


def _mulhilo(a: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The high and low 64-bit words of a * m for uint64 a and a constant m."""
    m_hi, m_lo = m >> 32, m & _LOW32
    a_lo, a_hi = a & _LOW32, a >> 32
    mid = a_hi * m_lo
    mid += (a_lo * m_lo) >> 32
    cross = a_lo * m_hi
    cross += mid & _LOW32
    hi = a_hi * m_hi
    hi += mid >> 32
    hi += cross >> 32
    return hi, a * m


def philox_words(keys: np.ndarray, start: int, n: int) -> np.ndarray:
    """Raw words [start, start + n) of the Philox streams with keys ``keys``
    (uint64 [..., 2]), as uint64 [..., n]: what numpy's ``Philox`` with
    that key returns from ``random_raw(n)`` after ``start`` words."""
    first = start // 4
    counters = np.arange(first + 1, -(-(start + n) // 4) + 1, dtype=np.uint64)
    c0 = np.broadcast_to(counters, keys.shape[:-1] + counters.shape).copy()
    c1 = c2 = c3 = np.zeros_like(c0)      # a counter's high words, 0 below 2**64 blocks
    k0, k1 = keys[..., :1].copy(), keys[..., 1:].copy()
    for r in range(_PHILOX_ROUNDS):
        if r:
            k0 += _PHILOX_W[0]
            k1 += _PHILOX_W[1]
        hi0, lo0 = _mulhilo(c0, _PHILOX_M[0])
        hi1, lo1 = _mulhilo(c2, _PHILOX_M[1])
        hi1 ^= c1
        hi1 ^= k0
        hi0 ^= c3
        hi0 ^= k1
        c0, c1, c2, c3 = hi1, lo1, hi0, lo0
    blocks = np.stack([c0, c1, c2, c3], axis=-1).reshape(keys.shape[:-1] + (-1,))
    return blocks[..., start - 4 * first:start - 4 * first + n]


class StreamEnd(Exception):
    """A ``PhiloxDraws`` without a key ran past the words it was given."""


class PhiloxDraws:
    """``random()`` and ``integers(low, high)`` with the values and stream
    use of ``numpy.random.Generator`` on one Philox stream, formed in Python
    from the stream's raw words (see the module docstring).

    ``words`` are the stream's next raw words and ``half`` a kept high half
    of ``next_uint32``. Past the words, draws with the stream's ``key``
    (uint64 [2]) refill ``BLOCK`` words at a time from ``philox_words``,
    from stream position ``end``, the position after the last word given.
    A draw without a key raises ``StreamEnd`` instead, and leaves the draws
    unusable; ``state()``, read before it, says where to go on from: with
    ``left, half = state()``, ``PhiloxDraws(words[len(words) - left:] +
    more, half)`` draws what these would have drawn with ``more`` words
    after their own. So a caller can gather many streams that ran out and
    form their words in one ``philox_words`` call.
    """

    BLOCK = 4096    # words per refill: the call's 0.4 ms against about 6 ms of draws

    __slots__ = ("_words", "_half", "_key", "_end")

    def __init__(self, words: list[int], half: int | None = None,
                 key: np.ndarray | None = None, end: int = 0):
        self._words = words[::-1]      # the unread words, last one next
        self._half = half              # the kept high half of next_uint32
        self._key = key
        self._end = end

    def state(self) -> tuple[int, int | None]:
        """(words left unread, kept half)."""
        return len(self._words), self._half

    def _refill(self) -> int:
        """The next word, once the given ones are read."""
        if self._key is None:
            raise StreamEnd
        self._words = philox_words(self._key, self._end, self.BLOCK)[::-1].tolist()
        self._end += self.BLOCK
        return self._words.pop()

    def random(self) -> float:
        """A float in [0, 1) from one whole word."""
        try:
            word = self._words.pop()
        except IndexError:
            word = self._refill()
        return (word >> 11) * 2.0 ** -53

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
                try:
                    word = self._words.pop()
                except IndexError:
                    word = self._refill()
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
