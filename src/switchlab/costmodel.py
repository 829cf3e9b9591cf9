"""Closed-form MAC / memory-float cost of one attention layer, plus the
instrumented measurement that validates the formulas.

All numbers are for a single attention layer on a single sequence in
training mode. Per-layer term names match the buckets the forward passes
report, so measured and closed-form reports can be compared term by term
with exact integer equality. Costs the closed forms deliberately ignore
(selection logic, the relative-position score interaction, rotary
rotations) are itemized under ``extras``.

The closed form reads each variant's row of one role table (``_row``), as
``attention_forward`` reads its routes. A role (K, Q, V, O) dispatches a
assignments per token, T a dh dm MACs plus T a min(dh, dm) if it is gated;
a plain GEMM over h heads is a = h, ungated. K, Q and V store T dh floats
per head, O none. Each attention matrix adds T S dh MACs to scores and as
many to readout, S = C T. The XL position projection is per head (dense,
head-gated) or shared (SwitchHead, MoA). With K active experts:

  dense       macs = H (4 T dh dm + 2 C T^2 dh + 2 C T dh dm)
              mem  = H (4 T dh + 2 C T^2 + 2 C T dh)
  head-gated  (K gated heads) the dense mem, and the dense macs less (H - K) T dh dm
  switchhead  (V+O experts) macs = H (2 T dh dm + 2 T K (dh dm + min(dh, dm))
              + 2 C T^2 dh) + 2 C T dh dm, mem = H (4 T dh + 2 C T^2) + 2 C T dh
  moa         (H = K heads on one K/V head)
              macs = (2H + 2) T dh dm + 2 H C T^2 dh + 2 C T dh dm
              mem  = (2H + 2) T dh + 2 H C T^2 + 2 C T dh
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .attention import (AttentionConfig, ExpertFlags, LayerCache,
                        attention_forward, cache_shape, init_attention_params)
from .counter import OpCounter
from .moe import ConfigError
from .rng import rng_for
from .tensor import Tensor

MEASURE_SEED = 0     # the counts do not depend on the drawn values


@dataclass
class CostInputs:
    variant: str                 # dense | head_gated | switchhead | moa
    H: int                       # heads = computed attention matrices (moa: active heads)
    T: int
    d_head: int
    d_model: int
    C: int = 2
    E: int = 1
    k_active: int = 1            # experts per token (head_gated: gated heads)
    expert_flags: ExpertFlags = field(default_factory=ExpertFlags.value_output)
    position: str = "xl_relative"

    def validate(self) -> None:
        """Checks on the row's own fields; the attention config checks the rest."""
        if self.variant not in ("dense", "head_gated", "switchhead", "moa"):
            raise ConfigError(f"no closed-form cost for variant '{self.variant}'")
        if min(self.H, self.T, self.d_head, self.d_model, self.C, self.E, self.k_active) < 1:
            raise ConfigError("all cost inputs must be positive")
        if self.variant == "moa" and self.H != self.k_active:
            raise ConfigError("moa computes K attention matrices; H must equal K")
        config_for(self).validate()


@dataclass
class CostReport:
    macs: int
    mem_floats: int
    terms: dict[str, tuple[int, int]]          # name -> (macs, mem)
    extras: dict[str, tuple[int, int]] = field(default_factory=dict)
    score_matrices: int = 0

    def check(self) -> None:
        assert self.macs == sum(m for m, _ in self.terms.values())
        assert self.mem_floats == sum(v for _, v in self.terms.values())


def _report(counter: OpCounter) -> CostReport:
    """The counter's buckets as a report, all-zero buckets left out."""
    snap = counter.snapshot()
    terms, extras = ({k: v for k, v in snap[d].items() if v != (0, 0)} for d in ("terms", "extras"))
    rep = CostReport(snap["macs"], snap["mem_floats"], terms, extras, snap["score_matrices"])
    rep.check()
    return rep


@dataclass(frozen=True)
class _Role:
    """``a`` assignments per token into (or out of) ``heads`` head rows, its
    gate, if it has one, under ``gate_term``; a plain GEMM has a = heads."""
    heads: int
    a: int
    term: str = "projections"
    gate_term: str | None = None


def _row(ci: CostInputs) -> tuple[dict[str, _Role], tuple[int, int], bool]:
    """The variant's row of the role table: its roles, the (macs, mem) of
    its routers' logits, and whether its XL position projection is per head."""
    H, T, dm, E, k = ci.H, ci.T, ci.d_model, ci.E, ci.k_active
    if ci.variant == "moa":
        return ({"k": _Role(1, 1), "q": _Role(H, H), "v": _Role(1, 1),
                 "o": _Role(H, H, gate_term="selection")}, (T * dm * E, T * E), False)
    if ci.variant == "switchhead":
        f = ci.expert_flags
        roles = {r: _Role(H, H * k, "mixing", "mixing") if getattr(f, r) else _Role(H, H)
                 for r in "kqvo"}
        sides = (f.k or f.v) + (f.q or f.o)
        return roles, (sides * T * dm * H * E, sides * T * H * E), False
    roles = dict.fromkeys("kqvo", _Role(H, H))
    if ci.variant == "dense":
        return roles, (0, 0), True
    roles["o"] = _Role(H, k, gate_term="selection")          # head_gated
    return roles, (T * dm * H, T * H), True


def cost_attention(ci: CostInputs) -> CostReport:
    """Closed-form cost of one attention layer of any variant."""
    ci.validate()
    H, T, dh, dm, S = ci.H, ci.T, ci.d_head, ci.d_model, ci.C * ci.T
    roles, selection, per_head_pos = _row(ci)
    c = OpCounter()
    for name, r in roles.items():
        c.add(r.term, macs=T * r.a * dh * dm, mem=0 if name == "o" else T * dh * r.heads)
        if r.gate_term:
            c.add(r.gate_term, macs=T * r.a * min(dh, dm))
    c.add("selection", *selection)
    c.add("scores", macs=T * S * dh * H, mem=2 * T * S * H)
    c.add("readout", macs=T * S * dh * H, mem=T * dh * H)
    if ci.position == "xl_relative":
        pos_heads = H if per_head_pos else 1
        c.add("position", macs=2 * S * dh * dm * pos_heads, mem=2 * S * dh * pos_heads)
        c.add("pos_scores", macs=2 * T * S * dh * H, mem=2 * T * S * H)
    elif ci.position == "rope":
        c.add("rotary", macs=2 * T * dh * (H + roles["k"].heads))
    c.count_score_matrices(H)
    return _report(c)


def config_for(ci: CostInputs) -> AttentionConfig:
    """Attention config matching a cost-input row (of a known variant)."""
    experts = dict(n_experts=ci.E, k_active=ci.k_active)
    routing = {"dense": {}, "head_gated": dict(k_active=ci.k_active), "moa": experts,
               "switchhead": dict(experts, expert_flags=ci.expert_flags)}[ci.variant]
    return AttentionConfig(ci.d_model, ci.H, ci.d_head, variant=ci.variant,
                           position=ci.position, context_mult=ci.C, **routing)


def measure(ci: CostInputs) -> CostReport:
    """Run one instrumented forward pass and report actual primitive costs.

    The context cache is pre-filled with C-1 chunks so the layer attends
    over the steady-state C*T source positions that the formulas assume.
    """
    ci.validate()
    cfg = config_for(ci)
    rng = rng_for(MEASURE_SEED, "measure")
    params = init_attention_params(cfg, rng)
    x = Tensor(rng.uniform(-1, 1, (1, ci.T, ci.d_model)))
    cache = None
    if ci.C > 1:
        shape = cache_shape(cfg, 1, (ci.C - 1) * ci.T)
        cache = LayerCache(k=rng.uniform(-1, 1, shape), v=rng.uniform(-1, 1, shape))
    counter = OpCounter()
    attention_forward(x, params, cfg, counter, cache=cache)
    return _report(counter)


def human(n: int) -> str:
    """The paper's display rounding: one decimal with M/G suffixes."""
    if n >= 1e9:
        return f"{n / 1e9:.1f}G"
    if n >= 1e5:
        return f"{n / 1e6:.1f}M"
    return str(n)
