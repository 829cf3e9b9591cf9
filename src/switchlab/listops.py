"""ListOps: nested list-operation expressions with single-digit answers.

Expressions are prefix-operator lists like ``( MAX 2 ( SM 9 9 9 ) 3 )``.
Operators: MAX, MIN, MED (lower median), SM (sum modulo 10). Every emitted
example's label comes from ``apply_op``, the operator rule of the
evaluator that tests re-run, so generator/evaluator agreement is exact by
construction and re-checkable.

A call to ``gen_listops`` reads one stream of uniforms, ``rng_for(seed,
"listops")``, one uniform per decision, and draws its examples one after
another from it, so a shorter run is a prefix of a longer one. The sampler
gives up an expression as soon as its ids can no longer fit in
``max_len`` and samples a new one from the same stream. Every expression
that starts with the given-up prefix would have been too long, so the
accepted expressions are distributed as if whole trees were sampled and
the long ones rejected.

A run keeps every example of its splits alive, so a record is compact: a
slotted object whose token ids are one ``bytes`` string, one byte per id
(the vocabulary has 17 tokens).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .moe import ConfigError
from .rng import rng_for

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


class _TooLong(Exception):
    """The expression being sampled can no longer fit in ``max_len`` ids."""


# Uniforms per numpy call: a call per scalar would cost more than the rest
# of the sampler.
_BLOCK = 4096


def _uniforms(gen: np.random.Generator):
    """``gen``'s uniforms in [0, 1), one at a time."""
    while True:
        yield from gen.random(_BLOCK).tolist()


def _sample_op(draw, depth_left: int, max_args: int, ids: list[int],
               room: int) -> tuple[int, int]:
    """Append the ids of one operator application, whose arguments are
    subexpressions of up to ``depth_left - 1`` levels, to ``ids``; returns
    its value (through ``apply_op``) and its depth.

    ``draw()`` returns the next uniform u, and an integer in [low, high) is
    ``low + int(u * (high - low))``. An argument is a digit when no level
    is left or when ``draw() < 0.35``, else an operator application; the
    draws come in the order of a depth-first walk of the tree. ``room`` is
    how many ids ``ids`` may hold before this application's ")", with
    whatever the enclosing applications still need set aside; once the
    arguments left, at least one id each, do not fit, ``_TooLong`` is
    raised.
    """
    op = int(draw() * len(OPERATORS))
    ids.append(_OPEN)
    ids.append(_OPERATOR_IDS[op])
    args = []
    depth = 0
    n_args = MIN_ARGS + int(draw() * (max_args - MIN_ARGS + 1))
    for left in range(n_args, 0, -1):
        if len(ids) + left > room:
            raise _TooLong
        if depth_left == 1 or draw() < 0.35:
            digit = int(draw() * 10)
            ids.append(_DIGIT_0 + digit)
            args.append(digit)
        else:
            # set aside the arguments after this one and its own ")"
            value, sub_depth = _sample_op(draw, depth_left - 1, max_args, ids, room - left)
            args.append(value)
            if sub_depth > depth:
                depth = sub_depth
    ids.append(_CLOSE)
    return apply_op(OPERATORS[op], args), depth + 1


def gen_listops(n: int, max_depth: int = 3, max_args: int = 5, seed: int = 0,
                max_len: int = DEFAULT_MAX_LEN) -> list[ListOpsExample]:
    """Deterministically generate n verified examples.

    Root expressions are always operator applications (never bare digits);
    an expression that cannot fit in ``max_len`` tokens is given up and a
    new one drawn from the same stream (see the module docstring).
    """
    if max_depth < 1:
        raise ConfigError("max_depth must be >= 1")
    if not (MIN_ARGS <= max_args):
        raise ConfigError(f"max_args must be >= {MIN_ARGS}")
    if max_len < MIN_ARGS + 3:
        raise ConfigError("max_len leaves no room for one operator application")
    draw = _uniforms(rng_for(seed, "listops")).__next__
    out = []
    while len(out) < n:
        ids: list[int] = []
        try:
            label, depth = _sample_op(draw, max_depth, max_args, ids, max_len - 1)
        except _TooLong:
            continue
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
