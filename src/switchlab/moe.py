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
from .tensor import (ExpertPlan, ShapeError, Tensor, argtopk_rows, expert_matmul,
                     gather_rows, matmul, relu, reshape, sigmoid, softmax_last, take_last)


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
    the full logit row restricted to the selected indices. The router's
    MACs and its stored logits count under the ``selection`` extra, apart
    from the headline.
    """
    cfg.validate()
    logits = matmul(x, w_sel, counter, term="selection")
    indices = argtopk_rows(logits.data, cfg.k_active)
    if cfg.activation == "sigmoid":
        # sigmoid is monotone and elementwise, so the top-k of the logits is
        # the top-k of the gates, and only the k selected logits need it
        weights = sigmoid(take_last(logits, indices))
    else:
        weights = take_last(softmax_last(logits), indices)
    return ExpertSelection(indices=indices, weights=weights)


@dataclass
class Route:
    """How one projection role is routed: ``a`` assignments per token.

    ``plan`` is the routing decision's ``tensor.ExpertPlan`` over the
    role's flat bank [n_experts, d_in, d_out]; roles routed by one decision
    share it, and with it the one expert sort. By default slot j of a
    token serves head j // m, m slots per head (SwitchHead: m = k; MoA:
    m = 1), which ``plan.rows(n_heads)`` derives. ``gate`` [..., T, a] is
    the matching gate, which ``tensor.expert_matmul`` applies on the
    narrower side of the projection. The expert GEMMs and any stored result
    count under the OpCounter term ``term``, and the gate multiply under
    ``gate_term`` (None: ``term``). ``head`` [..., T, a] instead names one
    head per assignment, on the reading side only (the heads head gating
    selected).
    """
    plan: ExpertPlan
    gate: Tensor | None = None
    term: str = "mixing"
    gate_term: str | None = None
    head: np.ndarray | None = None

    def __post_init__(self):
        if self.head is not None and self.head.shape != self.plan.shape:
            raise ShapeError(f"per-assignment heads {self.head.shape} do not match "
                             f"the assignments {self.plan.shape}")


def _dispatch(x, bank, route, src, dst, counter):
    return expert_matmul(x, bank, route.plan, src, dst, counter, gate=route.gate,
                         term=route.term, gate_term=route.gate_term)


def _check_tokens(x_shape, plan):
    if x_shape != plan.shape[:-1]:
        raise ShapeError(f"a route over tokens {plan.shape[:-1]} against inputs {x_shape}")


def dispatch_to_heads(x: Tensor, bank: Tensor, route: Route, n_heads: int,
                      counter: OpCounter = NULL_COUNTER) -> Tensor:
    """Routed projection of token rows into head rows, stored.

    ``x`` is [B, T, d_in] and ``bank`` [n_experts, d_in, d_out]; head h of
    token (b, t) is the gated sum of its slots j with j // m = h, m = a /
    n_heads, and the result is [B, n_heads, T, d_out]. One
    ``expert_matmul`` from the plan's token rows to its head-major rows.
    """
    B, T, d_in = x.shape
    _check_tokens((B, T), route.plan)
    if route.head is not None:
        raise ShapeError("per-assignment heads name head rows to read, not to write")
    plan = route.plan
    y = _dispatch(reshape(x, (B * T, d_in)), bank, route, plan.rows(1), plan.rows(n_heads),
                  counter)
    counter.add(route.term, mem=y.size)
    return reshape(y, (B, n_heads, T, bank.shape[2]))


def dispatch_from_heads(x: Tensor, bank: Tensor, route: Route,
                        counter: OpCounter = NULL_COUNTER) -> Tensor:
    """Routed projection of head rows back into token rows, not stored.

    ``x`` is [B, H, T, d_in] and ``bank`` [n_experts, d_in, d_out]; token
    (b, t) is the gated sum over its assignments of the projected (b, h, t)
    row they read, and the result is [B, T, d_out]. One ``expert_matmul``
    from the plan's head-major rows to its token rows; with one head per
    assignment (head gating reads only the selected heads) the rows read
    are gathered first, into the [B, a, T] rows of one head per slot.
    """
    B, H, T, d_in = x.shape
    _check_tokens((B, T), route.plan)
    plan = route.plan
    x = reshape(x, (B * H * T, d_in))
    if route.head is None:
        src = plan.rows(H)
    else:
        head = route.head
        if head.min() < 0 or head.max() >= H:
            raise ShapeError(f"head index out of range [0, {H})")
        rows = (np.arange(B)[:, None, None] * H + head.transpose(0, 2, 1)) * T + np.arange(T)
        x, src = gather_rows(x, rows.reshape(-1)), plan.rows(head.shape[-1])
    y = _dispatch(x, bank, route, src, plan.rows(1), counter)
    return reshape(y, (B, T, bank.shape[2]))


def sigma_moe_mlp(x: Tensor, up_bank: Tensor, down_bank: Tensor,
                  w_sel: Tensor, cfg: SelectionConfig,
                  counter: OpCounter = NULL_COUNTER) -> Tensor:
    """Two-layer ReLU MLP with non-competitive expert routing, no biases.

    y[t] = sum over selected e of gate[t,e] * relu(x[t] @ up[e]) @ down[e].
    Up and down share the selection's one plan, and the hidden rows stay
    in its expert order between them.
    """
    cfg.validate()
    E, d_model, d_exp = up_bank.shape
    if down_bank.shape != (E, d_exp, d_model):
        raise ConfigError(f"down bank shape {down_bank.shape} does not match up bank {up_bank.shape}")
    sel = select(x, w_sel, cfg, counter)
    lead = x.shape[:-1]
    n = int(np.prod(lead, dtype=np.int64))
    plan = ExpertPlan(sel.indices, E)
    tokens = plan.rows(1)
    h = relu(expert_matmul(reshape(x, (n, d_model)), up_bank, plan, tokens, None, counter,
                           term="mlp"))
    y = expert_matmul(h, down_bank, plan, None, tokens, counter, gate=sel.weights, term="mlp")
    return reshape(y, lead + (d_model,))
