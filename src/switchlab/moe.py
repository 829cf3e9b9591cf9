"""Non-competitive expert selection and expert-mixture projections.

``select`` is every router in the lab (SwitchHead's two sides, head
gating, the MoA router and the sigma-MoE MLP): a bias-free linear gating
projection, sigmoid (or softmax) activation and top-k. Every routed
projection is one ``tensor.expert_matmul`` dispatch. An attention
variant's routed roles are ``Route`` records, and ``dispatch_to_heads``
(token rows into head rows) and ``dispatch_from_heads`` (head rows back
into token rows) place each assignment in the one head-major (b, h, t)
row layout; ``sigma_moe_mlp`` dispatches token rows to token rows.
There is deliberately no load-balancing regularizer anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .counter import NULL_COUNTER, OpCounter
from .tensor import (Tensor, argtopk_rows, constant, expert_matmul, gather_rows,
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


@dataclass
class Route:
    """How one projection role is routed: ``a`` assignments per token.

    ``eid`` [..., T, a] names each assignment's expert in the role's flat
    bank [n_experts, d_in, d_out]; ``head`` ([a], or the shape of ``eid``)
    names the head slot that the assignment writes (K, Q, V) or reads (O);
    ``gate`` [..., T, a] is the matching gate, applied on ``gate_side`` of
    the projection (see ``tensor.expert_matmul``). The expert GEMMs and any
    stored result count under the OpCounter term ``term``, and so does the
    gate multiply, unless ``gate_extra`` itemizes it as that extra.
    """
    eid: np.ndarray
    head: np.ndarray
    gate: Tensor | None = None
    gate_side: str = "output"
    term: str = "mixing"
    gate_extra: str | None = None


def _head_major(route: Route, n_heads: int, T: int):
    """Per assignment: its token row b*T + t, and its (b, h, t) row in the
    head-major [B*H*T] layout."""
    a = route.eid.shape[-1]
    tokens = np.repeat(np.arange(route.eid.size // a), a)
    heads = np.broadcast_to(route.head, route.eid.shape).reshape(-1)
    return tokens, (tokens // T * n_heads + heads) * T + tokens % T


def _dispatch(x, bank, route, src, dst, n_out, counter):
    y = expert_matmul(x, bank, route.eid, src, dst, n_out, counter, gate=route.gate,
                      gate_side=route.gate_side, term=route.term)
    if route.gate is not None:
        macs = route.eid.size * bank.shape[1 if route.gate_side == "input" else 2]
        if route.gate_extra is not None:
            counter.add_extra(route.gate_extra, macs=macs)
        else:
            counter.add(macs=macs, term=route.term)
    return y


def dispatch_to_heads(x: Tensor, bank: Tensor, route: Route, n_heads: int,
                      counter: OpCounter = NULL_COUNTER) -> Tensor:
    """Routed projection of token rows into head rows, stored.

    ``x`` is [B, T, d_in] and ``bank`` [n_experts, d_in, d_out]; head h of
    token (b, t) is the gated sum of its assignments to head slot h, and
    the result is [B, n_heads, T, d_out]. One fused ``expert_matmul``.
    """
    B, T, d_in = x.shape
    tokens, rows = _head_major(route, n_heads, T)
    y = _dispatch(reshape(x, (B * T, d_in)), bank, route, tokens, rows, B * n_heads * T,
                  counter)
    counter.add(mem=y.size, term=route.term)
    return reshape(y, (B, n_heads, T, bank.shape[2]))


def dispatch_from_heads(x: Tensor, bank: Tensor, route: Route,
                        counter: OpCounter = NULL_COUNTER) -> Tensor:
    """Routed projection of head rows back into token rows, not stored.

    ``x`` is [B, H, T, d_in] and ``bank`` [n_experts, d_in, d_out]; token
    (b, t) is the gated sum over its assignments of the projected (b, h, t)
    row they read, and the result is [B, T, d_out]. One fused
    ``expert_matmul``.
    """
    B, H, T, d_in = x.shape
    tokens, rows = _head_major(route, H, T)
    x = reshape(x, (B * H * T, d_in))
    fan = np.bincount(rows, minlength=B * H * T)
    if fan.min() != fan.max():
        # some head rows are read more often than others (head gating reads
        # only the selected heads), and expert_matmul needs a uniform
        # fan-in, so the rows that are read are gathered first
        x, rows = gather_rows(x, rows), np.arange(rows.size)
    y = _dispatch(x, bank, route, rows, tokens, B * T, counter)
    return reshape(y, (B, T, bank.shape[2]))


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
