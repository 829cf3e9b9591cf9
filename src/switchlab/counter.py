"""Instrumented MAC / stored-float accounting for forward passes.

A single OpCounter is threaded explicitly through the primitive ops of one
forward pass, and ``add(term, macs, mem)`` is the only way to count, so
every cost lands under one term name. The costs the closed-form layer
formulas deliberately ignore, named in ``EXTRAS`` (selection logic,
relative-position score interaction, rotary rotations), are itemized in
``extras``. Every other term, ``other`` included (the LM readout and the
classifier head), adds to its bucket in ``terms`` and to the headline
``macs`` / ``mem_floats``, which so always equal the sums over ``terms``.
Measured and closed-form costs can then be compared with exact integer
equality while the ignored costs stay visible.
"""

from __future__ import annotations

#: Terms itemized beside the headline instead of adding to it.
EXTRAS = ("selection", "pos_scores", "rotary")


class OpCounter:
    """Monotone MAC and stored-activation-float accumulators.

    When ``enabled`` is False every method is a no-op and the counted
    computation is unaffected.
    """

    __slots__ = ("macs", "mem_floats", "enabled", "terms", "extras", "score_matrices")

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.macs = 0
        self.mem_floats = 0
        # term name -> [macs, mem]; these sum to the headline counters
        self.terms: dict[str, list[int]] = {}
        # EXTRAS name -> [macs, mem], excluded from the headline
        self.extras: dict[str, list[int]] = {}
        self.score_matrices = 0

    def add(self, term: str, macs: int = 0, mem: int = 0) -> None:
        if not self.enabled:
            return
        if term in EXTRAS:
            bucket = self.extras.setdefault(term, [0, 0])
        else:
            self.macs += macs
            self.mem_floats += mem
            bucket = self.terms.setdefault(term, [0, 0])
        bucket[0] += macs
        bucket[1] += mem

    def count_score_matrices(self, n: int) -> None:
        if self.enabled:
            self.score_matrices += n

    def snapshot(self) -> dict:
        return {
            "macs": self.macs,
            "mem_floats": self.mem_floats,
            "terms": {k: tuple(v) for k, v in self.terms.items()},
            "extras": {k: tuple(v) for k, v in self.extras.items()},
            "score_matrices": self.score_matrices,
        }


#: Shared disabled counter used as the default everywhere.
NULL_COUNTER = OpCounter(enabled=False)
