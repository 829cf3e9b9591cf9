"""ListOps generator/evaluator: hand-worked cases, a reference sampler and a
whole-tree distribution oracle."""

import gc
import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from switchlab import listops
from switchlab.listops import (DEFAULT_MAX_LEN, MIN_ARGS, OPERATORS, PAD, TOKEN_ID,
                               TOKENS, VOCAB_SIZE, ListOpsExample, apply_op,
                               eval_tokens, gen_listops, pad_batch, to_line)
from switchlab.moe import ConfigError
from switchlab.rng import rng_for


# -- evaluator -------------------------------------------------------------


@pytest.mark.parametrize("expr,want", [
    ("( MAX 2 7 3 )", 7),
    ("( SM 9 9 9 )", 7),
    ("( MIN 4 0 8 )", 0),
    ("( MED 1 9 5 )", 5),
    ("( MED 1 9 5 7 )", 5),                    # lower median on even count
    ("( MAX 2 ( SM 9 9 9 ) 3 )", 7),
    ("( SM ( MIN 3 2 ) ( MAX 8 9 ) )", 1),     # (2 + 9) mod 10
])
def test_eval_hand_worked(expr, want):
    assert eval_tokens(expr.split()) == want


def test_eval_leaves_no_garbage():
    # an evaluation frees everything it made by reference counting alone,
    # so the cyclic collector finds nothing (a recursive closure would
    # leave a cycle per call)
    gc.collect()
    gc.disable()
    try:
        for expr in ("( MAX 2 ( SM 9 9 9 ) 3 )", "( SM ( MIN 3 2 ) ( MAX 8 9 ) )"):
            eval_tokens(expr.split())
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_apply_op_rules():
    assert apply_op("MED", [4, 1]) == 1          # lower of the two
    assert apply_op("SM", [5, 5]) == 0
    with pytest.raises(ConfigError):
        apply_op("AVG", [1, 2])
    with pytest.raises(ConfigError):
        apply_op("MAX", [])


@pytest.mark.parametrize("bad", [
    "",                       # empty
    "( MAX 1 2",              # missing close
    "( MAX 1 2 ) )",          # trailing tokens
    "( 1 2 )",                # no operator after (
    "MAX 1 2",                # operator without (
    "( MAX )",                # handled: zero args rejected by apply_op
])
def test_eval_rejects_malformed(bad):
    with pytest.raises(ConfigError):
        eval_tokens(bad.split())


# -- generator -------------------------------------------------------------


class _GiveUp(Exception):
    pass


def _reference_op(rng: np.random.Generator, depth_left: int, max_args: int,
                  toks: list[str], pending: int, max_len: int) -> None:
    """Append the token strings of one operator application to ``toks``,
    one ``rng.random()`` per decision; ``pending`` is the least number of
    tokens the enclosing applications still need after this one. Gives up
    once the tokens so far, one for each argument still to come and the
    ")"s still to come exceed ``max_len``."""
    toks += ["(", OPERATORS[int(rng.random() * len(OPERATORS))]]
    n_args = MIN_ARGS + int(rng.random() * (max_args - MIN_ARGS + 1))
    for k in range(n_args):
        if len(toks) + (n_args - k) + 1 + pending > max_len:
            raise _GiveUp
        if depth_left == 1 or rng.random() < 0.35:
            toks.append(str(int(rng.random() * 10)))
        else:
            _reference_op(rng, depth_left - 1, max_args, toks, pending + n_args - k, max_len)
    toks.append(")")


def _nesting(toks: list[str]) -> int:
    depth = deepest = 0
    for t in toks:
        depth += (t == "(") - (t == ")")
        deepest = max(deepest, depth)
    return deepest


def reference_listops(n, max_depth, max_args, seed, max_len):
    """gen_listops written plainly: token strings from one scalar
    ``Generator.random()`` call per decision on the stream (seed,
    "listops"), labels through ``eval_tokens`` and depths from the
    brackets; (token ids, label, depth) of each example."""
    rng = rng_for(seed, "listops")
    out = []
    while len(out) < n:
        toks = []
        try:
            _reference_op(rng, max_depth, max_args, toks, 0, max_len)
        except _GiveUp:
            continue
        out.append((bytes(TOKEN_ID[t] for t in toks), eval_tokens(toks), _nesting(toks)))
    return out


def _oracle_tree(rng: np.random.Generator, depth_left: int, max_args: int):
    """(token strings, depth) of one subexpression."""
    if depth_left == 0 or rng.random() < 0.35:
        return [str(rng.integers(10))], 0
    return _oracle_op(rng, depth_left, max_args)


def _oracle_op(rng: np.random.Generator, depth_left: int, max_args: int):
    """(token strings, depth) of one operator application whose arguments
    are subexpressions of up to ``depth_left - 1`` levels."""
    op = OPERATORS[rng.integers(len(OPERATORS))]
    n_args = int(rng.integers(MIN_ARGS, max_args + 1))
    toks = ["(", op]
    depth = 0
    for _ in range(n_args):
        sub, d = _oracle_tree(rng, depth_left - 1, max_args)
        toks.extend(sub)
        depth = max(depth, d)
    toks.append(")")
    return toks, depth + 1


def oracle_listops(n, max_depth, max_args, seed, max_len):
    """The distribution gen_listops samples from, by its definition: whole
    trees drawn on numpy's Generator, the ones longer than ``max_len``
    rejected; (token ids, label, depth) of each example."""
    out = []
    for i in range(n):
        rng = rng_for(seed, "listops", i)
        while True:
            toks, depth = _oracle_op(rng, max_depth, max_args)
            if len(toks) <= max_len:
                break
        out.append((bytes(TOKEN_ID[t] for t in toks), eval_tokens(toks), depth))
    return out


def _records(examples):
    return [(e.tokens, e.label, e.depth) for e in examples]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**70), n=st.integers(1, 12), max_depth=st.integers(1, 4),
       max_args=st.integers(MIN_ARGS, 6), max_len=st.integers(MIN_ARGS + 3, 80))
@example(seed=3, n=12, max_depth=4, max_args=6, max_len=5)    # gives up most samples
@example(seed=2**32, n=12, max_depth=3, max_args=5, max_len=64)   # a two-word seed
@example(seed=2**64 + 9, n=12, max_depth=3, max_args=5, max_len=64)   # a three-word seed
@example(seed=3, n=12, max_depth=2, max_args=2, max_len=8)    # one choice of argument count
def test_generator_matches_reference(seed, n, max_depth, max_args, max_len):
    # the sampler draws what the plain reference draws, for any settings,
    # including ones that give up most samples
    got = gen_listops(n, max_depth, max_args, seed=seed, max_len=max_len)
    assert _records(got) == reference_listops(n, max_depth, max_args, seed, max_len)


@pytest.mark.parametrize("max_depth,max_args,seed,max_len", [
    (3, 5, 101, 64), (5, 7, 9, 200), (2, 2, 3, 8), (1, 40, 5, 64), (4, 10, 11, 128),
])
def test_generator_matches_reference_wide_settings(max_depth, max_args, seed, max_len):
    # deep trees, wide operators and long limits, beyond the property's range
    got = gen_listops(40, max_depth, max_args, seed=seed, max_len=max_len)
    assert _records(got) == reference_listops(40, max_depth, max_args, seed, max_len)


def test_generator_matches_reference_across_refills(monkeypatch):
    # the stream's uniforms come in blocks; with blocks of 7, expressions
    # and examples straddle many refills
    monkeypatch.setattr(listops, "_BLOCK", 7)
    got = gen_listops(300, 3, 5, seed=2**40 + 5, max_len=20)
    assert _records(got) == reference_listops(300, 3, 5, 2**40 + 5, 20)


def _ks_statistic(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov statistic: the largest gap between the
    empirical CDFs, taken at every value either sample holds (ties
    included)."""
    a, b = np.sort(a), np.sort(b)
    values = np.union1d(a, b)
    gap = (np.searchsorted(a, values, side="right") / len(a)
           - np.searchsorted(b, values, side="right") / len(b))
    return float(np.abs(gap).max())


def test_lengths_and_depths_match_whole_tree_sampler():
    # giving up an expression once it cannot fit leaves the distribution of
    # accepted expressions as whole-tree sampling with rejection. The bound
    # is the alpha = 0.001 critical value for 4000 examples a side, fixed
    # before any data was drawn
    n = 4000
    bound = 1.95 * np.sqrt(2 / n)
    got = _records(gen_listops(n, 3, 5, seed=0, max_len=64))
    want = oracle_listops(n, 3, 5, 0, 64)
    for field in (lambda r: len(r[0]), lambda r: r[2]):      # length, depth
        assert _ks_statistic([field(r) for r in got], [field(r) for r in want]) < bound


def test_heavy_rejection_finishes(cpu_time_limit):
    # deep, wide expressions under a short max_len: a sampler that draws the
    # whole tree before checking its length took 5 s of CPU time here
    with cpu_time_limit(5):
        examples = gen_listops(300, 6, 6, seed=2**40 + 5, max_len=40)
    assert len(examples) == 300 and max(e.length for e in examples) <= 40


@pytest.mark.parametrize("n", [0, -3])
def test_generator_empty(n):
    assert gen_listops(n) == []


def test_generated_labels_reevaluate():
    # independent oracle: re-run the evaluator on every emitted example and
    # sanity-check the label distribution covers all ten classes
    examples = gen_listops(10_000, max_depth=3, max_args=5, seed=0)
    hist = np.zeros(10, dtype=int)
    for e in examples:
        assert eval_tokens([TOKENS[i] for i in e.tokens]) == e.label
        assert 0 <= e.label <= 9
        assert e.length == len(e.tokens) <= DEFAULT_MAX_LEN
        assert e.tokens[0] == TOKENS.index("(")   # root is an application
        hist[e.label] += 1
    assert np.all(hist > 0)


def test_generation_deterministic_and_prefix_stable():
    a = gen_listops(50, seed=3)
    b = gen_listops(50, seed=3)
    assert [(e.tokens, e.label) for e in a] == [(e.tokens, e.label) for e in b]
    # one stream, drawn in order: a shorter run is a prefix of a longer one
    c = gen_listops(10, seed=3)
    assert [(e.tokens, e.label) for e in c] == [(e.tokens, e.label) for e in a[:10]]
    d = gen_listops(10, seed=4)
    assert [(e.tokens, e.label) for e in d] != [(e.tokens, e.label) for e in c]


def test_generation_respects_bounds():
    for e in gen_listops(200, max_depth=2, max_args=3, seed=7, max_len=20):
        assert e.length <= 20
        assert e.depth <= 2
        assert max(e.tokens) < VOCAB_SIZE


def test_generation_invalid_bounds():
    with pytest.raises(ConfigError):
        gen_listops(1, max_depth=0)
    with pytest.raises(ConfigError):
        gen_listops(1, max_args=1)
    with pytest.raises(ConfigError):
        gen_listops(1, max_len=3)


# -- batching and serialization -------------------------------------------


def test_pad_batch_layout():
    examples = gen_listops(5, seed=1)
    tokens, labels, mask = pad_batch(examples)
    L = max(e.length for e in examples)
    assert tokens.shape == mask.shape == (5, L)
    assert labels.shape == (5,)
    for b, e in enumerate(examples):
        assert list(tokens[b, :e.length]) == list(e.tokens)
        assert np.all(tokens[b, e.length:] == PAD)
        assert mask[b].sum() == e.length
        assert labels[b] == e.label


def test_pad_batch_empty():
    with pytest.raises(ConfigError):
        pad_batch([])


def test_to_line_format():
    text = "( MAX 2 ( SM 9 9 9 ) 3 )"
    ids = [TOKEN_ID[t] for t in text.split()]
    e = ListOpsExample(tokens=ids, label=7, depth=2)
    assert e.length == len(ids)
    assert to_line(e) == "( MAX 2 ( SM 9 9 9 ) 3 )\t7"


def test_record_from_id_list():
    # a record built from a list of ids stores them as bytes and reads back
    # the same ids in a batch and a line; an id that needs a second byte
    # raises
    ids = [TOKEN_ID[t] for t in "( SM 9 ( MIN 3 2 ) )".split()]
    e = ListOpsExample(ids, label=1, depth=2)
    assert e.tokens == bytes(ids) and e.length == len(ids)
    tokens, labels, mask = pad_batch([e, ListOpsExample([1, 3, 9, 2], 9, 1)])
    assert tokens.dtype == np.int64
    assert list(tokens[0]) == ids and mask[0].all()
    assert list(tokens[1]) == [1, 3, 9, 2] + [PAD] * (len(ids) - 4)
    assert list(labels) == [1, 9]
    assert to_line(e) == "( SM 9 ( MIN 3 2 ) )\t1"
    with pytest.raises(ValueError):
        ListOpsExample([1, 256, 2], label=0, depth=1)


def test_record_footprint():
    # a run keeps every example of its splits alive: each record, with its
    # slot in the split's list, takes at most 256 traced bytes (a
    # __dict__ and a list of int ids would take about 500). The cyclic
    # collector runs first, so no earlier garbage is counted
    n = 2000
    gen_listops(1, 3, 5, seed=101)    # what a first call sets up stays
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        examples = gen_listops(n, 3, 5, seed=101)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert len(examples) == n
    assert held / n <= 256


@pytest.mark.parametrize("seed,digest", [
    (100, "19a899613d0328bb157cbdb0d136e7ecf4818910bdbdd8192e2c73a22613874e"),
    (101, "55e73a07b5da514079ec853d16615698ac652bc0ed1669e3f731a5ab2d7a3e72"),
])
def test_generator_output_pinned(seed, digest):
    """The grid's and the benchmark's data (generator seeds 100 and 101)
    stay byte-identical through any refactor of the generator."""
    text = "\n".join(to_line(e) for e in gen_listops(2000, 3, 5, seed=seed))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_training_split_pinned():
    """The benchmark's whole ListOps training split (10000 examples of
    generator seed 100) stays byte-identical, not only its first 2000."""
    text = "\n".join(to_line(e) for e in gen_listops(10000, 3, 5, seed=100))
    assert (hashlib.sha256(text.encode()).hexdigest()
            == "b892dc85e37cd50573e7cc1d395368492d55c63f360c4026ce5f244c255283a3")
