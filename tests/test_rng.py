"""PhiloxDraws against numpy.random.Generator on the same Philox stream."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchlab.rng import PhiloxDraws, philox_for, rng_for

# spans that take Lemire's rejection often (3 * 2**30 rejects a quarter of
# its words), never (powers of two), rarely (10) or read nothing (1)
SPANS = (1, 2, 4, 10, 7, 3 * 2**30, 2**31 + 1, 2**32 - 1)
DRAW = st.one_of(
    st.just(("random",)),
    st.tuples(st.just("integers"), st.integers(-2**40, 2**40),
              st.sampled_from(SPANS) | st.integers(1, 2**32 - 1)),
)


def _small_blocks(block: int) -> type[PhiloxDraws]:
    """PhiloxDraws reading ``block`` words per numpy call."""
    return type("SmallBlocks", (PhiloxDraws,), {"__slots__": (), "BLOCK": block})


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
    _same_draws(_small_blocks(block)(np.random.Philox(seed)),
                np.random.Generator(np.random.Philox(seed)), calls)


@pytest.mark.parametrize("block", [1, 2, 3, PhiloxDraws.BLOCK])
def test_draws_match_generator_interleaved(block):
    # the ListOps pattern (operator, argument count, then per argument a
    # float and a digit) mixed with spans that reject, over many blocks
    calls = []
    for i in range(400):
        calls += [("integers", 0, 4), ("integers", 2, 4), ("random",), ("integers", 0, 10)]
        if i % 3 == 0:
            calls += [("integers", -5, 3 * 2**30), ("random",), ("integers", 9, 1)]
    for seed in range(3):
        _same_draws(_small_blocks(block)(philox_for(seed, "listops", 7)),
                    rng_for(seed, "listops", 7), calls)


def test_span_of_one_reads_nothing():
    draws, gen = PhiloxDraws(philox_for(5, "t")), rng_for(5, "t")
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
    _same_draws(_small_blocks(4)(np.random.Philox(0)),
                np.random.Generator(np.random.Philox(0)), [("integers", 0, span)] * 32)


@pytest.mark.parametrize("low,high", [(0, 0), (3, 2), (0, 2**32)])
def test_integers_rejects_unsupported_spans(low, high):
    with pytest.raises(ValueError):
        PhiloxDraws(philox_for(0)).integers(low, high)

