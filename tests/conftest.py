"""Shared fixtures."""

import contextlib
import signal

import numpy as np
import pytest

from switchlab import attention, moe
from switchlab.tensor import Tensor, constant


@pytest.fixture
def unit_gates(monkeypatch):
    """Every router keeps its selected experts but gates them by 1.0, so
    with one expert a mixture collapses to a plain dense projection (the
    reduction oracles)."""
    real_select = moe.select

    def select(*args, **kwargs):
        sel = real_select(*args, **kwargs)
        w = sel.weights.data
        return moe.ExpertSelection(sel.indices, constant(np.ones(w.shape, dtype=w.dtype)))

    for module in (attention, moe):
        monkeypatch.setattr(module, "select", select)


@pytest.fixture
def cpu_time_limit():
    """``with cpu_time_limit(seconds):`` raises TimeoutError in the block
    once the process has spent ``seconds`` of CPU time in it, so code that
    never finishes fails its test instead of hanging the suite."""
    @contextlib.contextmanager
    def limit(seconds: float):
        def expire(signum, frame):
            raise TimeoutError(f"more than {seconds} s of process CPU time")

        previous = signal.signal(signal.SIGPROF, expire)
        signal.setitimer(signal.ITIMER_PROF, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, previous)

    return limit


def _tape_arrays(root: Tensor) -> list[np.ndarray]:
    """The distinct float arrays the tape below ``root`` holds.

    Walks the live nodes through their inputs and reads each node's
    backward and rebuild: their closure cells and default arguments
    (``__defaults__``, ``__kwdefaults__``), nested closures included (a
    tuple or list is read item by item). Nodes hold no arrays themselves,
    so these are all the arrays the tape keeps alive; a closure that holds
    a ``Tensor`` (and with it a value its backward may not read) fails the
    walk.
    """
    held, seen, stack = {}, set(), [root.node]
    while stack:
        node = stack.pop()
        if node is None or id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(node.inputs)
        values = [f for f in (node.backward, node.rebuild) if f is not None]
        while values:
            v = values.pop()
            assert not isinstance(v, Tensor), "a backward closure holds a Tensor"
            if callable(v) and hasattr(v, "__code__") and id(v) not in seen:
                seen.add(id(v))
                values.extend(v.__defaults__ or ())
                values.extend((v.__kwdefaults__ or {}).values())
                for cell in v.__closure__ or ():
                    try:
                        values.append(cell.cell_contents)
                    except ValueError:          # a name the op never bound
                        pass
            elif isinstance(v, (tuple, list)):
                values.extend(v)
            elif isinstance(v, np.ndarray) and v.dtype.kind == "f":
                held[id(v)] = v
    return list(held.values())


@pytest.fixture
def tape_arrays():
    """``tape_arrays(root)``: the float arrays the tape below ``root`` holds."""
    return _tape_arrays
