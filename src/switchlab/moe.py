"""Non-competitive expert selection and expert-mixture projections.

``select`` is every router in the lab (SwitchHead's two sides, head
gating, the MoA router and the sigma-MoE MLP): a bias-free linear gating
projection, sigmoid (or softmax) activation and top-k. Every routed
projection is one ``tensor.expert_matmul`` dispatch, through
``mixture_project`` and ``sigma_moe_mlp`` here or in ``attention``.
There is deliberately no load-balancing regularizer anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .counter import NULL_COUNTER, OpCounter
from .tensor import (Tensor, argtopk_rows, concat, constant, expert_matmul,
                     matmul, relu, reshape, sigmoid, softmax_last, take_last)


class ConfigError(ValueError):
    """Raised for invalid routing / layer configurations."""


@dataclass
class SelectionConfig:
    n_experts: int
    k_active: int
    activation: str = "sigmoid"  # sigmoid | softmax

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
    matching differentiable gate tensor.
    """
    indices: np.ndarray
    weights: Tensor


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
    indices = argtopk_rows(logits.data, cfg.k_active)
    if cfg.activation == "sigmoid":
        # sigmoid is monotone and elementwise, so the top-k of the logits is
        # the top-k of the gates, and only the k selected logits need it
        weights = sigmoid(take_last(logits, indices))
    else:
        weights = take_last(softmax_last(logits, counter, store=False), indices)
    return ExpertSelection(indices=indices, weights=weights)


def override_gates(sel: ExpertSelection, value: float) -> ExpertSelection:
    """Replace the routing gate weights with a constant, keeping the indices.

    Used by the reduction oracles: with one expert and gates forced to 1 the
    mixture collapses to a plain dense projection.
    """
    forced = constant(np.full(sel.weights.shape, float(value),
                              dtype=sel.weights.data.dtype))
    return ExpertSelection(indices=sel.indices, weights=forced)


def mixture_project(x: Tensor, bank: Tensor, sels,
                    counter: OpCounter = NULL_COUNTER, *,
                    gate: str = "output", store: bool = True,
                    term: str = "mixing") -> Tensor:
    """Gate-weighted sum of selected experts' linear projections, per head.

    ``bank`` is [H, E, d_in, d_out] and ``sels`` holds H selections, each
    with indices [..., T, k]. Either ``x`` is the shared [..., T, d_in]
    input and the result is [..., H, T, d_out], one projection per head,
    or ``x`` is [..., H, T, d_in], one input per head, and the heads'
    projections are summed into [..., T, d_out]. All (head, expert) pairs
    run as one [H*E, d_in, d_out] bank in one fused ``expert_matmul``.
    ``gate`` picks where the scalar gate is applied ("output": scale the
    projected d_out vector; "input": scale the d_in input first):
    mathematically identical, but the MAC accounting of the gating
    multiply follows the scaled tensor's width.
    """
    if bank.ndim != 4:
        raise ConfigError(f"expert bank must be [H, E, d_in, d_out], got {bank.shape}")
    H, E, d_in, d_out = bank.shape
    sels = list(sels)
    if x.shape[-1] != d_in:
        raise ConfigError(f"input width {x.shape[-1]} does not match bank d_in {d_in}")
    if len(sels) != H or any(s.indices.max(initial=0) >= E for s in sels):
        raise ConfigError("selections do not match the expert bank")
    lead = sels[0].indices.shape[:-1]
    n, k = int(np.prod(lead, dtype=np.int64)), sels[0].indices.shape[-1]
    split = lead[:-1] + (H,) + lead[-1:]   # head-major row layout
    # row of (..., h, t) in the head-split layout, per head and token
    split_rows = np.moveaxis(np.arange(n * H).reshape(split), -2, 0).reshape(H, n)
    tokens = np.broadcast_to(np.arange(n), (H, n))
    if x.shape[:-1] == lead:
        src, dst, out_shape = tokens, split_rows, split
    elif x.shape[:-1] == split:
        src, dst, out_shape = split_rows, tokens, lead
    else:
        raise ConfigError(f"input {x.shape} does not fit selections over {lead}")
    eid = np.concatenate([s.indices.reshape(n, k) + h * E for h, s in enumerate(sels)])
    weights = [reshape(s.weights, (n * k,)) for s in sels]
    y = expert_matmul(reshape(x, (-1, d_in)), reshape(bank, (H * E, d_in, d_out)),
                      eid, np.repeat(src.reshape(-1), k), np.repeat(dst.reshape(-1), k),
                      int(np.prod(out_shape, dtype=np.int64)), counter,
                      gate=concat(weights), gate_side=gate, term=term)
    counter.add(macs=H * n * k * (d_in if gate == "input" else d_out), term=term)
    if store:
        counter.add(mem=y.size, term=term)
    return reshape(y, out_shape + (d_out,))


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
    eid = sel.indices.reshape(-1)
    slots = np.arange(eid.size)
    tokens = slots // cfg.k_active
    h = relu(expert_matmul(reshape(x, (n, d_model)), up_bank, eid, tokens, slots,
                           eid.size, counter, term="mlp"))
    y = expert_matmul(h, down_bank, eid, slots, tokens, n, counter,
                      gate=sel.weights, term="mlp")
    counter.add(macs=eid.size * d_model, term="mlp")
    return reshape(y, lead + (d_model,))
