"""Span tracer that times calls into switchlab from outside the package.

``Tracer.install`` replaces named public functions and methods of the
loaded ``switchlab`` modules with wrappers that record one span per call:
name, start, end, the enclosing span and the trace id (the training step,
or the phase's own id). Every module attribute bound to the original
object is patched, so ``from .tensor import matmul`` call sites are traced
too; ``uninstall`` puts the originals back. Nothing inside switchlab
changes and the wrapped calls return exactly what the originals return.

Spans are timed on the process's CPU clock, as the benchmark's end-to-end
timings are. Self time is a span's duration minus the time its traced
children cover.
Spans stay in memory until ``write_spans``.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

import numpy as np

#: (module, attribute path, span name). Missing attributes are skipped, so
#: a later refactor that removes one of these only drops its span.
TARGETS = [
    ("switchlab.training", "ListOpsTask.batch", "data.batch"),
    ("switchlab.training", "CharLMTask.batch", "data.batch"),
    ("switchlab.listops", "pad_batch", "data.pad_batch"),
    ("switchlab.training", "evaluate", "training.evaluate"),
    ("switchlab.model", "Model.forward", "model.forward"),
    ("switchlab.attention", "attention_forward", "attention.forward"),
    ("switchlab.tensor", "Tensor.backward", "tensor.backward"),
    ("switchlab.tensor", "matmul", "tensor.matmul"),
    ("switchlab.optim", "Adam.step", "optim.step"),
    ("switchlab.checkpoint", "save", "checkpoint.save"),
    ("switchlab.checkpoint", "load", "checkpoint.load"),
    ("switchlab.gradcheck", "run_suite", "gradcheck.run_suite"),
]

#: Public functions of ``switchlab.moe`` get a span each (``moe.<name>``);
#: these are not expert computations and are left out.
MOE_SKIP = {"override_gates"}

#: Spans that are whole forward passes (for counting the gradient suite's).
FORWARDS = ("model.forward", "attention.forward")

SPAN_FIELDS = ["id", "parent", "trace", "phase", "name", "start_ns", "end_ns"]


class Tracer:
    def __init__(self):
        self.phase = "none"
        self.trace_id = 0
        self.spans: list[tuple] = []      # rows of SPAN_FIELDS
        self.self_ns = defaultdict(int)   # (phase, name) -> self time
        self.calls = defaultdict(int)     # (phase, name) -> call count
        self.outer_forward = defaultdict(lambda: [0, 0])  # phase -> [n, ns]
        self.routing = defaultdict(dict)  # phase -> router ordinal -> counts
        self._router_ordinal = 0
        self._next_id = 0
        self._stack: list[list] = []      # [span id, name, t0, child ns]
        self._patches: list[tuple] | None = None

    # -- phases and steps ------------------------------------------------

    def begin(self, phase: str, trace_id: int) -> None:
        """Start a new trace (one training step, or one phase item)."""
        self.phase = phase
        self.trace_id = trace_id
        self._router_ordinal = 0

    # -- spans -----------------------------------------------------------

    def _enter(self, name: str) -> list:
        self._next_id += 1
        frame = [self._next_id, name, time.process_time_ns(), 0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        t1 = time.process_time_ns()
        self._stack.pop()
        span_id, name, t0, child = frame
        dur = t1 - t0
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        key = (self.phase, name)
        self.self_ns[key] += dur - child
        self.calls[key] += 1
        if name in FORWARDS and not any(f[1] in FORWARDS for f in self._stack):
            acc = self.outer_forward[self.phase]
            acc[0] += 1
            acc[1] += dur
        self.spans.append((span_id, parent[0] if parent else None,
                           self.trace_id, self.phase, name, t0, t1))

    def wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            frame = tracer._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(frame)

        return traced

    def _wrap_select(self, fn):
        """moe.select, also recording which experts each router picked."""
        traced = self.wrap("moe.select", fn)
        tracer = self

        def select(x, w_sel, cfg, *args, **kwargs):
            sel = traced(x, w_sel, cfg, *args, **kwargs)
            counts = np.bincount(np.asarray(sel.indices).ravel(),
                                 minlength=cfg.n_experts)
            routers = tracer.routing[tracer.phase]
            ordinal = tracer._router_ordinal
            tracer._router_ordinal += 1
            if ordinal in routers:
                routers[ordinal] = routers[ordinal] + counts
            else:
                routers[ordinal] = counts
            return sel

        return select

    # -- patching --------------------------------------------------------

    def _plan(self) -> list[tuple]:
        """(owner, attribute, original, wrapper) for every binding to patch."""
        targets = []
        for module_name, path, span in TARGETS:
            owner, attr = _resolve(module_name, path)
            if owner is not None:
                targets.append((owner, attr, span))
        moe = sys.modules.get("switchlab.moe")
        if moe is not None:
            for attr, obj in vars(moe).items():
                if (callable(obj) and not isinstance(obj, type)
                        and not attr.startswith("_") and attr not in MOE_SKIP
                        and getattr(obj, "__module__", "") == "switchlab.moe"):
                    targets.append((moe, attr, f"moe.{attr}"))
        plan = []
        for owner, attr, span in targets:
            original = getattr(owner, attr)
            if span == "moe.select":
                wrapper = self._wrap_select(original)
            else:
                wrapper = self.wrap(span, original)
            if isinstance(owner, type):
                plan.append((owner, attr, original, wrapper))
                continue
            for mod in _switchlab_modules():
                for name, value in list(vars(mod).items()):
                    if value is original:
                        plan.append((mod, name, original, wrapper))
        return plan

    def install(self) -> None:
        """Patch the wrappers in; cheap after the first call, so a run can
        switch tracing on and off around single steps."""
        if self._patches is None:
            self._patches = self._plan()
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches or []):
            setattr(owner, attr, original)

    # -- readout ---------------------------------------------------------

    def self_ms(self, phase: str, name: str) -> float:
        return self.self_ns.get((phase, name), 0) / 1e6

    def count(self, phase: str, name: str) -> int:
        return self.calls.get((phase, name), 0)

    def names(self, phase: str) -> list[str]:
        return sorted(n for p, n in self.self_ns if p == phase)

    def write_spans(self, path: str) -> int:
        """Write spans as JSON lines, one array per span after a header line
        naming the fields (CPU-clock times in ns); returns the span count."""
        with open(path, "w") as f:
            f.write(json.dumps(SPAN_FIELDS) + "\n")
            for span in self.spans:
                f.write(json.dumps(span, separators=(",", ":")) + "\n")
        return len(self.spans)


def _switchlab_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "switchlab" or n.startswith("switchlab."))]


def _resolve(module_name: str, path: str):
    """(owner, attribute) for 'func' or 'Class.method'; (None, None) if absent."""
    owner = sys.modules.get(module_name)
    if owner is None:
        return None, None
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None
    if not hasattr(owner, parts[-1]):
        return None, None
    return owner, parts[-1]
