"""Non-competitive expert selection and expert-mixture projections.

The same machinery backs the MoE attention projections, the head-gating
baseline, the MoA head router and the sigma-MoE MLP: a bias-free linear
gating projection, sigmoid (or softmax) activation, top-k routing and a
gate-weighted sum of the selected experts' outputs. There is deliberately
no load-balancing regularizer anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .counter import NULL_COUNTER, OpCounter
from .tensor import (Tensor, argtopk_rows, constant, expert_matmul, matmul,
                     mul, relu, reshape, sigmoid, softmax_last, take_last,
                     tsum)


class ConfigError(ValueError):
    """Raised for invalid routing / layer configurations."""


@dataclass
class SelectionConfig:
    n_experts: int
    k_active: int
    activation: str = "sigmoid"  # sigmoid | softmax
    d_model: int = 0

    def validate(self) -> None:
        if self.n_experts < 1:
            raise ConfigError(f"n_experts must be >= 1, got {self.n_experts}")
        if not (1 <= self.k_active <= self.n_experts):
            raise ConfigError(
                f"k_active must satisfy 1 <= k <= {self.n_experts}, got {self.k_active}")
        if self.activation not in ("sigmoid", "softmax"):
            raise ConfigError(f"unknown selection activation '{self.activation}'")


@dataclass
class ExpertSelection:
    """Routing decision: per token the chosen expert indices and gate weights.

    ``indices`` has shape [..., k] (ascending per token); ``weights`` is the
    matching differentiable gate tensor; ``gates`` holds the activation over
    all experts (used for visualization exports).
    """
    indices: np.ndarray
    weights: Tensor
    gates: Tensor


def select(x: Tensor, w_sel: Tensor, cfg: SelectionConfig,
           counter: OpCounter = NULL_COUNTER) -> ExpertSelection:
    """Route tokens: logits = x @ w_sel (no bias), activation, top-k.

    Sigmoid gates are non-competitive: weights are the per-expert sigmoid
    values, not normalized across experts. Softmax gates are the softmax of
    the full logit row restricted to the selected indices. Selection cost
    is itemized separately from the headline MAC count.
    """
    cfg.validate()
    logits = matmul(x, w_sel, counter, store=False, extra="selection")
    if counter.enabled:
        counter.add_extra("selection", mem=logits.size)
    if cfg.activation == "sigmoid":
        gates = sigmoid(logits)
    else:
        gates = softmax_last(logits, counter, store=False)
    indices = argtopk_rows(logits.data, cfg.k_active)
    weights = take_last(gates, indices)
    return ExpertSelection(indices=indices, weights=weights, gates=gates)


def override_gates(sel: ExpertSelection, value: float) -> ExpertSelection:
    """Replace the routing gate weights with a constant, keeping the indices.

    Used by the reduction oracles: with one expert and gates forced to 1 the
    mixture collapses to a plain dense projection.
    """
    forced = constant(np.full(sel.weights.shape, float(value),
                              dtype=sel.weights.data.dtype))
    return ExpertSelection(indices=sel.indices, weights=forced, gates=sel.gates)


def mixture_project(x: Tensor, bank: Tensor, sel: ExpertSelection,
                    counter: OpCounter = NULL_COUNTER, *,
                    gate: str = "output", store: bool = True,
                    term: str = "mixing") -> Tensor:
    """Gate-weighted sum of selected experts' linear projections.

    ``bank`` is [E, d_in, d_out]; ``x`` is [..., d_in]; ``sel`` carries k
    selected experts per token. ``gate`` picks where the scalar gate is
    applied ("output": scale the projected d_out vector; "input": scale the
    d_in input first) — mathematically identical, but the MAC accounting of
    the gating multiply follows the scaled tensor's width.
    """
    E, d_in, d_out = bank.shape
    if x.shape[-1] != d_in:
        raise ConfigError(f"input width {x.shape[-1]} does not match bank d_in {d_in}")
    if sel.indices.max(initial=0) >= E:
        raise ConfigError("expert index out of range for bank")
    lead = x.shape[:-1]
    n = int(np.prod(lead, dtype=np.int64))
    xf = reshape(x, (n, d_in))
    idx = sel.indices.reshape(n, -1)
    k = idx.shape[1]
    w = reshape(sel.weights, (n, k, 1))
    if gate == "input":
        y = expert_matmul(mul(reshape(xf, (n, 1, d_in)), w), bank, idx, counter,
                          term=term)
        counter.add(macs=n * k * d_in, term=term)
    else:
        y = mul(expert_matmul(xf, bank, idx, counter, term=term), w)
        counter.add(macs=n * k * d_out, term=term)
    if store:
        counter.add(mem=n * d_out, term=term)
    return reshape(tsum(y, axis=1), lead + (d_out,))


def sigma_moe_mlp(x: Tensor, up_bank: Tensor, down_bank: Tensor,
                  w_sel: Tensor, cfg: SelectionConfig,
                  counter: OpCounter = NULL_COUNTER, *,
                  gate_override: float | None = None) -> Tensor:
    """Two-layer ReLU MLP with non-competitive expert routing, no biases.

    y[t] = sum over selected e of gate[t,e] * relu(x[t] @ up[e]) @ down[e].
    ``gate_override`` replaces every gate with a constant (reduction tests).
    """
    cfg.validate()
    E, d_model, d_exp = up_bank.shape
    if down_bank.shape != (E, d_exp, d_model):
        raise ConfigError(f"down bank shape {down_bank.shape} does not match up bank {up_bank.shape}")
    sel = select(x, w_sel, cfg, counter)
    if gate_override is not None:
        sel = override_gates(sel, gate_override)
    lead = x.shape[:-1]
    n = int(np.prod(lead, dtype=np.int64))
    idx = sel.indices.reshape(n, -1)
    k = idx.shape[1]
    h = relu(expert_matmul(reshape(x, (n, d_model)), up_bank, idx, counter,
                           term="mlp"))
    y = mul(expert_matmul(h, down_bank, idx, counter, term="mlp"),
            reshape(sel.weights, (n, k, 1)))
    counter.add(macs=n * k * d_model, term="mlp")
    return reshape(tsum(y, axis=1), lead + (d_model,))
