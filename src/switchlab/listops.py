"""ListOps: nested list-operation expressions with single-digit answers.

Expressions are prefix-operator lists like ``( MAX 2 ( SM 9 9 9 ) 3 )``.
Operators: MAX, MIN, MED (lower median), SM (sum modulo 10). Every emitted
example's label comes from ``apply_op``, the operator rule of the
evaluator that tests re-run, so generator/evaluator agreement is exact by
construction and re-checkable.

A run keeps every example of its splits alive, so a record is compact: a
slotted object whose token ids are one ``bytes`` string, one byte per id
(the vocabulary has 17 tokens).

Example i draws from its own Philox stream ``(seed, "listops", i)``
through ``rng.PhiloxDraws``: the sampler takes one scalar per decision,
and a ``numpy.random.Generator`` call per scalar cost more than the rest
of the sampler. ``PhiloxDraws`` forms in Python what the Generator's
``random()`` (numpy's 53-bit ``next_double``) and ``integers(low, high)``
(numpy's Lemire bounded draw on Philox's buffered 32-bit words) would
return, call for call, from the stream's raw words. ``gen_listops`` forms
those words in bulk, a chunk of streams per ``rng.philox_keys`` and
``rng.philox_words`` call, in two passes: every example first gets
``_FIRST_WORDS`` words, and an example that runs out goes on in the
second pass, with four times the words, from the start of the expression
it could not finish; past those, it refills alone. Chunks are small
because a bulk call's temporaries grow with it: generating the
benchmark's 12000 examples in one chunk instead of chunks of 256 raised
the process's peak RSS from 31.8 to 58.5 MB.

The sampler returns each subexpression's value through ``apply_op``, so
the label needs no walk over the tokens; ``eval_tokens`` stays as
the reference evaluator that the tests re-run on every generated example.
The data is byte-identical, for any arguments, to what a sampler calling
numpy's Generator once per scalar and labelling through ``eval_tokens``
draws; the tests keep that sampler as the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .moe import ConfigError
from .rng import PhiloxDraws, StreamEnd, philox_keys, philox_words

PAD = 0
TOKENS = ["<pad>", "(", ")", "MAX", "MIN", "MED", "SM",
          "0", "1", "2", "3", "4", "5", "6", "7", "8", "9"]
TOKEN_ID = {t: i for i, t in enumerate(TOKENS)}
VOCAB_SIZE = len(TOKENS)
OPERATORS = ("MAX", "MIN", "MED", "SM")

N_LABELS = 10              # every label is one digit
DEFAULT_MAX_LEN = 64
MIN_ARGS = 2


@dataclass(slots=True)
class ListOpsExample:
    """One expression: its token ids, one byte each and without padding,
    its label (0-9, the evaluator's output) and its nesting depth.

    Ids given as a list of ints are stored as ``bytes``, so an id outside
    0-255 raises ValueError.
    """
    tokens: bytes
    label: int
    depth: int

    def __post_init__(self):
        self.tokens = bytes(self.tokens)

    @property
    def length(self) -> int:
        return len(self.tokens)


def apply_op(op: str, args: list[int]) -> int:
    if not args:
        raise ConfigError(f"operator {op} needs at least one argument")
    if op == "MAX":
        return max(args)
    if op == "MIN":
        return min(args)
    if op == "MED":
        return sorted(args)[(len(args) - 1) // 2]   # lower median
    if op == "SM":
        return sum(args) % 10
    raise ConfigError(f"unknown operator '{op}'")


def eval_tokens(tokens: list[str]) -> int:
    """Evaluate a well-formed token string; raises on malformed input."""
    result, pos = _parse(tokens, 0)
    if pos != len(tokens):
        raise ConfigError("trailing tokens after expression")
    return result


def _parse(tokens: list[str], pos: int) -> tuple[int, int]:
    """The value of the subexpression at ``pos`` and the position after it.

    A module-level function, not a closure over ``pos``: a recursive
    closure refers to itself, and each call would leave that cycle to the
    cyclic collector.
    """
    if pos >= len(tokens):
        raise ConfigError("unexpected end of expression")
    tok = tokens[pos]
    pos += 1
    if tok.isdigit():
        return int(tok), pos
    if tok != "(":
        raise ConfigError(f"expected digit or '(', got '{tok}'")
    if pos >= len(tokens) or tokens[pos] not in OPERATORS:
        raise ConfigError("expected operator after '('")
    op = tokens[pos]
    pos += 1
    args = []
    while pos < len(tokens) and tokens[pos] != ")":
        arg, pos = _parse(tokens, pos)
        args.append(arg)
    if pos >= len(tokens):
        raise ConfigError("missing closing ')'")
    return apply_op(op, args), pos + 1


_OPEN, _CLOSE, _DIGIT_0 = TOKEN_ID["("], TOKEN_ID[")"], TOKEN_ID["0"]
_OPERATOR_IDS = tuple(TOKEN_ID[op] for op in OPERATORS)


def _sample_op(draw: PhiloxDraws, depth_left: int, max_args: int,
               ids: list[int]) -> tuple[int, int]:
    """Append the ids of one operator application, whose arguments are
    subexpressions of up to ``depth_left - 1`` levels, to ``ids``; returns
    its value (through ``apply_op``) and its depth.

    An argument is a digit when no level is left or when ``random() <
    0.35``, else an operator application; the draws come in the order of
    a depth-first walk of the tree.
    """
    integers = draw.integers
    op = integers(0, len(OPERATORS))
    ids.append(_OPEN)
    ids.append(_OPERATOR_IDS[op])
    args = []
    depth = 0
    for _ in range(integers(MIN_ARGS, max_args + 1)):
        if depth_left == 1 or draw.random() < 0.35:
            digit = integers(0, 10)
            ids.append(_DIGIT_0 + digit)
            args.append(digit)
        else:
            value, sub_depth = _sample_op(draw, depth_left - 1, max_args, ids)
            args.append(value)
            if sub_depth > depth:
                depth = sub_depth
    ids.append(_CLOSE)
    return apply_op(OPERATORS[op], args), depth + 1


def _sample_example(draw: PhiloxDraws, max_depth: int, max_args: int,
                    max_len: int) -> ListOpsExample:
    """The first expression ``draw`` samples within ``max_len`` tokens.

    When the words run out, the ``StreamEnd`` carries the draw's state at
    the start of the unfinished expression, from which it can be sampled
    again with more words.
    """
    while True:
        state = draw.state()
        ids: list[int] = []
        try:
            label, depth = _sample_op(draw, max_depth, max_args, ids)
        except StreamEnd:
            raise StreamEnd(state) from None
        if len(ids) <= max_len:
            return ListOpsExample(bytes(ids), label, depth)


# Streams per bulk call: a call costs about 0.4 ms whatever its size, and
# its memory grows with it (see the module docstring).
_CHUNK = 256
# Words each example gets in the first pass. The median example of the
# benchmark's data reads 30 and one in 15 more than 96. Fewer first words
# sample more expressions again; more form more words that are never read.
_FIRST_WORDS = 96
# Words an example that ran out gets in the second pass, in calls of as
# many words as the first pass's; past them, it refills alone. One in 1000
# examples of the benchmark's data reads more than 256.
_SECOND_WORDS = 4 * _FIRST_WORDS
_SECOND_CHUNK = _CHUNK // 4


def gen_listops(n: int, max_depth: int = 3, max_args: int = 5, seed: int = 0,
                max_len: int = DEFAULT_MAX_LEN) -> list[ListOpsExample]:
    """Deterministically generate n verified examples.

    Root expressions are always operator applications (never bare digits);
    samples longer than ``max_len`` tokens are rejected and redrawn from
    the same stream. Example i reads its own stream ``(seed, "listops",
    i)``, so a shorter run is a prefix of a longer one.

    The words come in bulk, in two passes. The first forms every
    example's first ``_FIRST_WORDS`` words, ``_CHUNK`` streams per call.
    The second forms the first ``_SECOND_WORDS`` of each example that ran
    out and samples it again from the start of the expression it could
    not finish, now with its key, so that it refills alone if it needs
    still more.
    """
    if max_depth < 1:
        raise ConfigError("max_depth must be >= 1")
    if not (MIN_ARGS <= max_args):
        raise ConfigError(f"max_args must be >= {MIN_ARGS}")
    if max_len < MIN_ARGS + 3:
        raise ConfigError("max_len leaves no room for one operator application")
    out: list[ListOpsExample | None] = [None] * max(n, 0)
    resume = {}    # i -> (stream position of its unfinished expression, kept half)
    for lo in range(0, n, _CHUNK):
        index = range(lo, min(n, lo + _CHUNK))
        rows = philox_words(philox_keys(seed, "listops", index=index), 0, _FIRST_WORDS)
        for i, row in zip(index, rows):
            try:
                out[i] = _sample_example(PhiloxDraws(row.tolist()), max_depth, max_args, max_len)
            except StreamEnd as end:
                left, half = end.args[0]
                resume[i] = (_FIRST_WORDS - left, half)
    todo = list(resume)
    for lo in range(0, len(todo), _SECOND_CHUNK):
        index = todo[lo:lo + _SECOND_CHUNK]
        keys = philox_keys(seed, "listops", index=index)
        rows = philox_words(keys, 0, _SECOND_WORDS)
        for i, key, row in zip(index, keys, rows):
            pos, half = resume[i]
            draw = PhiloxDraws(row[pos:].tolist(), half, key, _SECOND_WORDS)
            out[i] = _sample_example(draw, max_depth, max_args, max_len)
    return out


def pad_batch(examples: list[ListOpsExample]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Right-pad a batch; returns (tokens [B, L], labels [B], mask [B, L])."""
    if not examples:
        raise ConfigError("empty batch")
    L = max(e.length for e in examples)
    tokens = np.full((len(examples), L), PAD, dtype=np.int64)
    mask = np.zeros((len(examples), L), dtype=bool)
    labels = np.empty(len(examples), dtype=np.int64)
    for b, e in enumerate(examples):
        tokens[b, :e.length] = np.frombuffer(e.tokens, np.uint8)
        mask[b, :e.length] = True
        labels[b] = e.label
    return tokens, labels, mask


def to_line(e: ListOpsExample) -> str:
    return " ".join(TOKENS[i] for i in e.tokens) + "\t" + str(e.label)
