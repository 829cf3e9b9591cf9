"""PhiloxDraws against numpy.random.Generator on the same Philox stream."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchlab.rng import (PhiloxDraws, StreamEnd, philox_for, philox_keys, philox_words,
                           rng_for)

# spans that take Lemire's rejection often (3 * 2**30 rejects a quarter of
# its words), never (powers of two), rarely (10) or read nothing (1)
SPANS = (1, 2, 4, 10, 7, 3 * 2**30, 2**31 + 1, 2**32 - 1)
DRAW = st.one_of(
    st.just(("random",)),
    st.tuples(st.just("integers"), st.integers(-2**40, 2**40),
              st.sampled_from(SPANS) | st.integers(1, 2**32 - 1)),
)


# one, two and three entropy words; str tags are CRC-32s, int tags whole ints
WIDE_INT = st.sampled_from([0, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**70]) | st.integers(0, 2**70)
TAG = st.text(max_size=6) | WIDE_INT


@settings(max_examples=150, deadline=None)
@given(seed=WIDE_INT, tags=st.lists(TAG, max_size=3),
       first=st.sampled_from([0, 254, 2**32 - 4]) | st.integers(0, 2**32 - 4),
       count=st.integers(1, 4), start=st.integers(0, 9), n=st.integers(0, 13))
def test_bulk_words_match_numpy(seed, tags, first, count, start, n):
    # the indices may cross gen_listops's chunk of 256 streams, and the
    # words may start and end inside a 4-word block
    index = np.arange(first, first + count)
    words = philox_words(philox_keys(seed, *tags, index=index), start, n)
    assert words.shape == (count, n) and words.dtype == np.uint64
    for i, row in zip(index.tolist(), words):
        bitgen = philox_for(seed, *tags, i)
        bitgen.random_raw(start)
        assert row.tolist() == bitgen.random_raw(n).tolist()
    assert (philox_words(philox_keys(seed, *tags), start, n)[0].tolist()
            == philox_for(seed, *tags).random_raw(start + n)[start:].tolist())


@pytest.mark.parametrize("seed,index", [(-1, None), (0, [3, -1]), (0, [2**32])])
def test_bulk_keys_reject_out_of_range(seed, index):
    with pytest.raises(ValueError):
        philox_keys(seed, "t", index=index)


def _small_blocks(block: int) -> type[PhiloxDraws]:
    """PhiloxDraws refilling ``block`` words at a time."""
    return type("SmallBlocks", (PhiloxDraws,), {"__slots__": (), "BLOCK": block})


def _stream(cls: type[PhiloxDraws], seed: int, *tags) -> PhiloxDraws:
    """Draws from the start of the stream (seed, *tags), every word refilled
    from its key."""
    return cls([], key=philox_keys(seed, *tags)[0])


def _same_draws(draws: PhiloxDraws, gen: np.random.Generator, calls) -> None:
    for call in calls:
        if call[0] == "random":
            got, want = draws.random(), gen.random()
            assert type(got) is float
        else:
            _, low, span = call
            got, want = draws.integers(low, low + span), gen.integers(low, low + span)
            assert type(got) is int
        assert got == want, call


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**64), block=st.integers(1, 9),
       calls=st.lists(DRAW, max_size=80))
def test_draws_match_generator(seed, block, calls):
    # small blocks put the block boundaries, and a kept high half, between
    # any two calls
    _same_draws(_stream(_small_blocks(block), seed),
                np.random.Generator(np.random.Philox(seed)), calls)


@pytest.mark.parametrize("block", [1, 2, 3, 48])
def test_draws_match_generator_interleaved(block):
    # the ListOps pattern (operator, argument count, then per argument a
    # float and a digit) mixed with spans that reject, over many blocks
    calls = []
    for i in range(400):
        calls += [("integers", 0, 4), ("integers", 2, 4), ("random",), ("integers", 0, 10)]
        if i % 3 == 0:
            calls += [("integers", -5, 3 * 2**30), ("random",), ("integers", 9, 1)]
    for seed in range(3):
        _same_draws(_stream(_small_blocks(block), seed, "listops", 7),
                    rng_for(seed, "listops", 7), calls)


def test_span_of_one_reads_nothing():
    draws, gen = _stream(PhiloxDraws, 5, "t"), rng_for(5, "t")
    assert draws.integers(0, 10) == gen.integers(0, 10)    # keeps a high half
    assert draws.integers(7, 8) == gen.integers(7, 8) == 7
    _same_draws(draws, gen, [("integers", 0, 10), ("random",), ("integers", 0, 10)])


def test_rejection_path_is_taken():
    # the stream's first 32-bit words include ones that a span of
    # 3 * 2**30 rejects, so the match above covers the rejection loop
    span = 3 * 2**30
    halves = [h for w in np.random.Philox(0).random_raw(16).tolist()
              for h in (w & 0xFFFFFFFF, w >> 32)]
    assert any((h * span) & 0xFFFFFFFF < 2**32 % span for h in halves)
    _same_draws(_stream(_small_blocks(4), 0),
                np.random.Generator(np.random.Philox(0)), [("integers", 0, span)] * 32)


@pytest.mark.parametrize("block", [1, 2, 3])
def test_draws_resume_after_stream_end(block):
    # without a key, a draw past the words given raises StreamEnd; draws
    # rebuilt from the state read before it, with more words, go on as the
    # Generator does, kept high half included (gen_listops resumes an
    # expression so)
    words = philox_words(philox_keys(5, "t"), 0, 4096)[0].tolist()
    gen, end, draws = rng_for(5, "t"), 0, PhiloxDraws([])
    for i in range(600):
        span = (10, 3 * 2**30, 4)[i % 3]
        while True:
            left, half = draws.state()
            try:
                got = draws.random() if i % 4 == 0 else draws.integers(0, span)
                break
            except StreamEnd:
                end += block
                draws = PhiloxDraws(words[end - block - left:end], half)
        assert got == (gen.random() if i % 4 == 0 else gen.integers(0, span)), i


@pytest.mark.parametrize("low,high", [(0, 0), (3, 2), (0, 2**32)])
def test_integers_rejects_unsupported_spans(low, high):
    with pytest.raises(ValueError):
        PhiloxDraws([]).integers(low, high)

