"""Shared fixtures."""

import numpy as np
import pytest

from switchlab import attention, moe
from switchlab.tensor import constant


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
