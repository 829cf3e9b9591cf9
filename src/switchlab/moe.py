"""Non-competitive expert selection and expert-mixture projections.

``select`` is every router in the lab (SwitchHead's two sides, head
gating, the MoA router and the sigma-MoE MLP): a bias-free linear gating
projection, top-k and sigmoid gates. It takes one router [d_model, E] or
a bank of G routers [G, d_model, E], which it runs as one [d_model, G*E]
GEMM and one top-k; SwitchHead's side is the bank of its H heads'
routers, one routing decision for all heads. Every routed
projection is one ``tensor.expert_matmul`` dispatch. An attention
variant's routed roles are ``Route`` records, and ``dispatch`` moves rows
from one [B, n, T] row layout of the route's plan to another: token rows
(n = 1) into head rows, or head rows back into token rows. Head gating's
experts are its heads, so its route reads each assignment's own expert
row. ``sigma_moe_mlp`` dispatches token rows to token rows. There is
deliberately no load-balancing regularizer anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .counter import NULL_COUNTER, OpCounter
from .tensor import (ExpertPlan, ShapeError, Tensor, argtopk_rows, expert_matmul, matmul,
                     relu, reshape, sigmoid, take_last, transpose)


class ConfigError(ValueError):
    """Raised for invalid routing / layer configurations."""


@dataclass
class SelectionConfig:
    n_experts: int
    k_active: int

    def validate(self) -> None:
        if self.n_experts < 1:
            raise ConfigError(f"n_experts must be >= 1, got {self.n_experts}")
        if not (1 <= self.k_active <= self.n_experts):
            raise ConfigError(
                f"k_active must satisfy 1 <= k <= {self.n_experts}, got {self.k_active}")


@dataclass
class ExpertSelection:
    """Routing decision: per token the chosen expert indices and gate weights.

    ``indices`` has shape [..., k], or [..., G, k] for a bank of G routers
    (ascending per token and router, each router's ids local in [0, E));
    ``weights`` is the matching differentiable gate tensor.
    """
    indices: np.ndarray
    weights: Tensor


def select(x: Tensor, w_sel: Tensor, cfg: SelectionConfig,
           counter: OpCounter = NULL_COUNTER) -> ExpertSelection:
    """Route tokens: logits = x @ w_sel (no bias), top-k, sigmoid.

    ``w_sel`` is one router [d_model, E] or a bank [G, d_model, E] of G
    routers, each choosing its own k of its E experts; a bank's logits are
    one [d_model, G*E] GEMM viewed as [..., G, E], and the top-k runs per
    router on that view. The gates are non-competitive: weights are the
    per-expert sigmoid values, not normalized across experts. The router's
    MACs and its stored logits count under the ``selection`` extra, apart
    from the headline.
    """
    cfg.validate()
    if w_sel.ndim == 3:
        G, d_model, E = w_sel.shape
        logits = matmul(x, reshape(transpose(w_sel, (1, 0, 2)), (d_model, G * E)), counter,
                        term="selection")
        logits = reshape(logits, x.shape[:-1] + (G, E))
    else:
        logits = matmul(x, w_sel, counter, term="selection")
    indices = argtopk_rows(logits.data, cfg.k_active)
    # sigmoid is monotone and elementwise, so the top-k of the logits is the
    # top-k of the gates, and only the k selected logits need it
    return ExpertSelection(indices=indices, weights=sigmoid(take_last(logits, indices)))


@dataclass
class Route:
    """How one projection role is routed: ``a`` assignments per token.

    ``plan`` is the routing decision's ``tensor.ExpertPlan`` over the
    role's flat bank [n_experts, d_in, d_out]; roles routed by one decision
    share it, and with it the one expert sort. Slot j of a token lies in
    group j // m of a layout of n groups, m = a / n slots per group
    (SwitchHead: m = k; MoA: m = 1), which ``plan.rows(n)`` derives; with
    ``own_rows`` the slot instead reads row (b, e, t) of its own expert e
    (``plan.own_rows()``; head gating, whose experts are its heads).
    ``gate`` [..., T, a] is the matching gate, which ``tensor.expert_matmul``
    applies on the narrower side of the projection. The expert GEMMs and
    any stored result count under the OpCounter term ``term``, and the gate
    multiply under ``gate_term`` (None: ``term``).
    """
    plan: ExpertPlan
    gate: Tensor | None = None
    term: str = "mixing"
    gate_term: str | None = None
    own_rows: bool = False


def dispatch(x: Tensor, bank: Tensor, route: Route, n_out: int,
             counter: OpCounter = NULL_COUNTER, *, store: bool = True) -> Tensor:
    """Routed projection from the plan's [B, n_in, T] rows to its
    [B, n_out, T] rows; n = 1 is the token rows.

    ``x`` is [B, n_in, T, d_in] and ``bank`` [n_experts, d_in, d_out]; each
    assignment of token (b, t) projects the row it reads through its
    expert and adds it, gated, to the row it writes, and the result is
    [B, n_out, T, d_out]. One ``expert_matmul`` from the source rows
    (``plan.rows(n_in)``, or ``plan.own_rows()``) to ``plan.rows(n_out)``.
    With ``store`` the result's floats count as stored under the route's
    term, as ``matmul`` counts its output.
    """
    B, n_in, T, d_in = x.shape
    plan = route.plan
    if (B, T) != plan.shape[:-1]:
        raise ShapeError(f"a route over tokens {plan.shape[:-1]} against inputs {(B, T)}")
    src = plan.own_rows() if route.own_rows else plan.rows(n_in)
    y = expert_matmul(reshape(x, (B * n_in * T, d_in)), bank, plan, src, plan.rows(n_out),
                      counter, gate=route.gate, term=route.term, gate_term=route.gate_term)
    if store:
        counter.add(route.term, mem=y.size)
    return reshape(y, (B, n_out, T, bank.shape[2]))


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
