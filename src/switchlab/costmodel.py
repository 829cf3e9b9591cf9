"""Closed-form MAC / memory-float cost of one attention layer, plus the
instrumented measurement that validates the formulas.

All numbers are for a single attention layer on a single sequence in
training mode. Per-layer term names match the buckets the forward passes
report, so measured and closed-form reports can be compared term by term
with exact integer equality. Costs the closed forms deliberately ignore
(selection logic, the relative-position score interaction, rotary
rotations) are itemized under ``extras``.
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
    variant: str                 # dense | switchhead | moa
    H: int                       # heads = computed attention matrices (moa: active heads)
    T: int
    d_head: int
    d_model: int
    C: int = 2
    E: int = 1
    k_active: int = 1
    expert_flags: ExpertFlags = field(default_factory=ExpertFlags.value_output)
    position: str = "xl_relative"

    def validate(self) -> None:
        if self.variant not in ("dense", "switchhead", "moa"):
            raise ConfigError(f"no closed-form cost for variant '{self.variant}'")
        if self.position not in ("xl_relative", "rope", "none"):
            raise ConfigError(f"unknown position mode '{self.position}'")
        if min(self.H, self.T, self.d_head, self.d_model, self.C, self.E, self.k_active) < 1:
            raise ConfigError("all cost inputs must be positive")
        if self.variant != "dense" and self.k_active > self.E:
            raise ConfigError(f"{self.variant} routes K={self.k_active} of E={self.E} "
                              "experts; K must not exceed E")
        if self.variant == "moa" and self.H != self.k_active:
            raise ConfigError("moa computes K attention matrices; H must equal K")
        if self.position == "rope" and self.C != 1:
            raise ConfigError("rope has no context cache; C must be 1")


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


def _finish(terms: dict, extras: dict, score_matrices: int) -> CostReport:
    # the instrumented counter never creates all-zero buckets
    terms = {k: v for k, v in terms.items() if v != (0, 0)}
    extras = {k: v for k, v in extras.items() if v != (0, 0)}
    rep = CostReport(
        macs=sum(m for m, _ in terms.values()),
        mem_floats=sum(v for _, v in terms.values()),
        terms=terms, extras=extras, score_matrices=score_matrices)
    rep.check()
    return rep


def cost_xl(ci: CostInputs) -> CostReport:
    """Dense Transformer-XL attention layer cost.

    macs = H (4 T dh dm + 2 C T^2 dh + 2 C T dh dm)
    mem  = H (4 T dh + 2 C T^2 + 2 C T dh)
    """
    ci.validate()
    H, T, dh, dm, C = ci.H, ci.T, ci.d_head, ci.d_model, ci.C
    terms = {
        "projections": (4 * T * dh * dm * H, 3 * T * dh * H),
        "scores": (C * T * T * dh * H, 2 * C * T * T * H),
        "readout": (C * T * T * dh * H, T * dh * H),
    }
    extras = {}
    if ci.position == "xl_relative":
        terms["position"] = (2 * C * T * dh * dm * H, 2 * C * T * dh * H)
        extras["pos_scores"] = (2 * C * T * T * dh * H, 2 * C * T * T * H)
    elif ci.position == "rope":
        extras["rotary"] = (4 * T * dh * H, 0)
    return _finish(terms, extras, H)


def cost_switchhead(ci: CostInputs) -> CostReport:
    """SwitchHead attention layer cost for any expert-flag combination.

    With the default V+O flags the MAC total reduces to
    H (2 T dh dm + 2 T K (dh dm + min(dh, dm)) + 2 C T^2 dh + 2 C T dh dm),
    with the position term counted once (the single position projection
    all heads share). A routed role's gate multiply scales the narrower of
    its dh-wide and dm-wide sides. Memory follows the dense formula (not
    affected by K), with the same shared-position adjustment.
    """
    ci.validate()
    H, T, dh, dm, C, K = ci.H, ci.T, ci.d_head, ci.d_model, ci.C, ci.k_active
    f = ci.expert_flags
    proj_macs = mix_macs = 0
    for role_expert in (f.k, f.q, f.v, f.o):
        if role_expert:
            mix_macs += T * K * dh * dm + T * K * min(dh, dm)
        else:
            proj_macs += T * dh * dm
    # K, Q, V stores are one T*dh block each no matter how they are produced;
    # the O output is consumed by the residual sum and never stored.
    dense_kqv = sum(1 for e in (f.k, f.q, f.v) if not e)
    terms = {
        "projections": (proj_macs * H, dense_kqv * T * dh * H),
        "mixing": (mix_macs * H, (3 - dense_kqv) * T * dh * H),
        "scores": (C * T * T * dh * H, 2 * C * T * T * H),
        "readout": (C * T * T * dh * H, T * dh * H),
    }
    extras = {}
    n_sides = (1 if (f.v or f.k) else 0) + (1 if (f.q or f.o) else 0)
    if n_sides:
        extras["selection"] = (n_sides * T * dm * ci.E * H, n_sides * T * ci.E * H)
    if ci.position == "xl_relative":
        terms["position"] = (2 * C * T * dh * dm, 2 * C * T * dh)
        extras["pos_scores"] = (2 * C * T * T * dh * H, 2 * C * T * T * H)
    elif ci.position == "rope":
        extras["rotary"] = (4 * T * dh * H, 0)
    return _finish(terms, extras, H)


def cost_moa(ci: CostInputs) -> CostReport:
    """MoA attention layer cost; ``ci.H`` counts the *active* heads.

    macs = (2H + 2) T dh dm + 2 H C T^2 dh + 2 C T dh dm
    mem  = (2H + 2) T dh + 2 H C T^2 + 2 C T dh

    The router and the output gates, H T min(dh, dm) multiplies on the
    narrower side of the output experts, are the ``selection`` extra.
    """
    ci.validate()
    H, T, dh, dm, C = ci.H, ci.T, ci.d_head, ci.d_model, ci.C
    terms = {
        "projections": ((2 * H + 2) * T * dh * dm, (2 + H) * T * dh),
        "scores": (H * C * T * T * dh, 2 * H * C * T * T),
        "readout": (H * C * T * T * dh, H * T * dh),
    }
    extras = {
        "selection": (T * dm * ci.E + H * T * min(dh, dm), T * ci.E),
    }
    if ci.position == "xl_relative":
        terms["position"] = (2 * C * T * dh * dm, 2 * C * T * dh)
        extras["pos_scores"] = (2 * H * C * T * T * dh, 2 * H * C * T * T)
    elif ci.position == "rope":
        extras["rotary"] = (2 * T * dh * (H + 1), 0)
    return _finish(terms, extras, H)


def cost_attention(ci: CostInputs) -> CostReport:
    if ci.variant == "dense":
        return cost_xl(ci)
    if ci.variant == "switchhead":
        return cost_switchhead(ci)
    if ci.variant == "moa":
        return cost_moa(ci)
    raise ConfigError(f"no closed-form cost for variant '{ci.variant}'")


def config_for(ci: CostInputs) -> AttentionConfig:
    """Attention config matching a cost-input row."""
    if ci.variant == "dense":
        return AttentionConfig(ci.d_model, ci.H, ci.d_head, variant="dense",
                               position=ci.position, context_mult=ci.C)
    if ci.variant == "switchhead":
        return AttentionConfig(ci.d_model, ci.H, ci.d_head, variant="switchhead",
                               position=ci.position, context_mult=ci.C,
                               n_experts=ci.E, k_active=ci.k_active,
                               expert_flags=ci.expert_flags)
    if ci.variant == "moa":
        return AttentionConfig(ci.d_model, ci.k_active, ci.d_head, variant="moa",
                               position=ci.position, context_mult=ci.C,
                               n_experts=ci.E, k_active=ci.k_active)
    raise ConfigError(f"unknown variant '{ci.variant}'")


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
    snap = counter.snapshot()
    rep = CostReport(macs=snap["macs"], mem_floats=snap["mem_floats"],
                     terms=snap["terms"], extras=snap["extras"],
                     score_matrices=snap["score_matrices"])
    rep.check()
    return rep


def human(n: int) -> str:
    """The paper's display rounding: one decimal with M/G suffixes."""
    if n >= 1e9:
        return f"{n / 1e9:.1f}G"
    if n >= 1e5:
        return f"{n / 1e6:.1f}M"
    return str(n)
