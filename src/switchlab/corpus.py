"""Byte-level corpus for toy character language modelling.

Any text file stands in for the large character-level corpora: bytes are
the tokens, the vocabulary is the set of observed byte values, and the
train/valid split is a contiguous suffix held out for evaluation. The
vocabulary has at most 256 values, so the ids are ``uint8``, one byte per
byte of text.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .moe import ConfigError


@dataclass
class CharCorpus:
    data: np.ndarray            # ids into vocab, uint8
    vocab: np.ndarray           # observed byte values, sorted, uint8
    train_end: int              # data[:train_end] is train, rest is valid

    @property
    def vocab_size(self) -> int:
        return len(self.vocab)

    def split(self, name: str) -> np.ndarray:
        if name == "train":
            return self.data[:self.train_end]
        if name == "valid":
            return self.data[self.train_end:]
        raise ConfigError(f"unknown split '{name}'")


def from_bytes(raw: bytes, valid_fraction: float = 0.1) -> CharCorpus:
    if not raw:
        raise ConfigError("empty corpus")
    if not (0.0 < valid_fraction < 1.0):
        raise ConfigError("valid_fraction must lie in (0, 1)")
    arr = np.frombuffer(raw, dtype=np.uint8)
    # the sorted observed values, as np.unique gives them; np.unique would
    # import numpy.ma, about 1 MB that no run uses
    vocab = np.flatnonzero(np.bincount(arr, minlength=256)).astype(np.uint8)
    lookup = np.zeros(256, dtype=np.uint8)
    lookup[vocab] = np.arange(len(vocab))
    data = lookup[arr]
    train_end = max(1, int(round(len(data) * (1.0 - valid_fraction))))
    if train_end >= len(data):
        train_end = len(data) - 1
    return CharCorpus(data=data, vocab=vocab, train_end=train_end)


def from_file(path: str, valid_fraction: float = 0.1) -> CharCorpus:
    """The corpus of a file's bytes; a file that cannot be read (missing, a
    directory) is a ConfigError."""
    try:
        with open(path, "rb") as f:
            raw = f.read()
    except OSError as e:
        raise ConfigError(str(e)) from None
    return from_bytes(raw, valid_fraction)
