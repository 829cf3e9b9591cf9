"""Adam with global-norm gradient clipping and linear learning-rate warmup."""

from __future__ import annotations

import numpy as np

from .tensor import GraphError, Tensor

BETA1, BETA2 = 0.9, 0.999   # decay rates of the first and second moments
EPS = 1e-8                  # added to the second moment's root


class Adam:
    """Adam over a named parameter dict.

    Effective lr at step t (1-based) is ``lr * min(1, t / warmup_steps)``.
    Gradients are rescaled before the update so their global L2 norm does
    not exceed ``clip_norm``; if the norm is already within the bound the
    gradients are left untouched bit-for-bit.
    """

    def __init__(self, params: dict[str, Tensor], lr: float = 2.5e-4,
                 warmup_steps: int = 0, clip_norm: float | None = None):
        self.params = params
        self.lr = lr
        self.warmup_steps = warmup_steps
        self.clip_norm = clip_norm
        self.step_count = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def effective_lr(self, step: int) -> float:
        if self.warmup_steps > 0:
            return self.lr * min(1.0, step / self.warmup_steps)
        return self.lr

    def grad_norm(self) -> float:
        sq = 0.0
        for name, p in self.params.items():
            if p.grad is None:
                raise GraphError(f"parameter '{name}' has no gradient; run backward first")
            sq += float((p.grad * p.grad).sum())
        return float(np.sqrt(sq))

    def step(self) -> dict:
        """One update; returns {'step', 'lr', 'grad_norm'} for logging."""
        norm = self.grad_norm()
        if self.clip_norm is not None and norm > self.clip_norm:
            scale = self.clip_norm / norm
            for p in self.params.values():
                p.grad *= scale
        self.step_count += 1
        t = self.step_count
        lr = self.effective_lr(t)
        bc1 = 1.0 - BETA1 ** t
        bc2 = 1.0 - BETA2 ** t
        for name, p in self.params.items():
            g = p.grad
            m = self.m[name]
            v = self.v[name]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * (g * g)
            p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)
            p.grad = None
        return {"step": t, "lr": lr, "grad_norm": norm}

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None
