"""ListOps: nested list-operation expressions with single-digit answers.

Expressions are prefix-operator lists like ``( MAX 2 ( SM 9 9 9 ) 3 )``.
Operators: MAX, MIN, MED (lower median), SM (sum modulo 10). Every emitted
example's label is produced by the same evaluator that tests re-run, so
generator/evaluator agreement is exact by construction and re-checkable.

A run keeps every example of its splits alive, so a record is compact: a
slotted object whose token ids are one ``bytes`` string, one byte per id
(the vocabulary has 17 tokens).

Example i draws from its own Philox stream ``(seed, "listops", i)``
through ``rng.PhiloxDraws``: the sampler takes one scalar per decision,
and a ``numpy.random.Generator`` call per scalar cost more than the rest
of the sampler. ``PhiloxDraws`` reads the stream's raw 64-bit words in
blocks and forms in Python what the Generator's ``random()`` (numpy's
53-bit ``next_double``) and ``integers(low, high)`` (numpy's Lemire
bounded draw on Philox's buffered 32-bit words) would return, call for
call. So the data is byte-identical to what the Generator-based sampler
drew, for any arguments; the tests keep that sampler as the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .moe import ConfigError
from .rng import PhiloxDraws, philox_for

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


def _sample_op(draw: PhiloxDraws, depth_left: int, max_args: int, ids: list[int]) -> int:
    """Append the ids of one operator application, whose arguments are
    subexpressions of up to ``depth_left - 1`` levels, to ``ids``; returns
    its depth.

    An argument is a digit when no level is left or when ``random() <
    0.35``, else an operator application; the draws come in the order of
    a depth-first walk of the tree.
    """
    ids.append(_OPEN)
    ids.append(_OPERATOR_IDS[draw.integers(0, len(OPERATORS))])
    depth = 0
    for _ in range(draw.integers(MIN_ARGS, max_args + 1)):
        if depth_left == 1 or draw.random() < 0.35:
            ids.append(_DIGIT_0 + draw.integers(0, 10))
        else:
            depth = max(depth, _sample_op(draw, depth_left - 1, max_args, ids))
    ids.append(_CLOSE)
    return depth + 1


def gen_listops(n: int, max_depth: int = 3, max_args: int = 5, seed: int = 0,
                max_len: int = DEFAULT_MAX_LEN) -> list[ListOpsExample]:
    """Deterministically generate n verified examples.

    Root expressions are always operator applications (never bare digits);
    samples longer than ``max_len`` tokens are rejected and redrawn from
    the same stream. Example i reads its own stream ``(seed, "listops",
    i)``, so a shorter run is a prefix of a longer one.
    """
    if max_depth < 1:
        raise ConfigError("max_depth must be >= 1")
    if not (MIN_ARGS <= max_args):
        raise ConfigError(f"max_args must be >= {MIN_ARGS}")
    if max_len < MIN_ARGS + 3:
        raise ConfigError("max_len leaves no room for one operator application")
    out = []
    for i in range(n):
        draw = PhiloxDraws(philox_for(seed, "listops", i))
        while True:
            ids: list[int] = []
            depth = _sample_op(draw, max_depth, max_args, ids)
            if len(ids) <= max_len:
                break
        label = eval_tokens([TOKENS[t] for t in ids])
        out.append(ListOpsExample(bytes(ids), label, depth))
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
