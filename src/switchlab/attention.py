"""Attention variants: dense MHA, XL-relative, RoPE, head-gating,
SwitchHead-style per-projection expert mixtures, and the MoA baseline.

Conventions shared by every variant:
  * a "head" is one computed attention matrix;
  * softmax scaling is 1/sqrt(d_model) by default (a config switch selects
    the conventional 1/sqrt(d_head));
  * causal masking hides source positions after the query position;
  * XL-style cached states are stop-gradient and FIFO over C-1 past chunks;
  * the OpCounter term names (projections / mixing / scores / readout /
    position) line up one-to-one with the closed-form cost model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .counter import NULL_COUNTER, OpCounter
from .moe import (ConfigError, SelectionConfig, mixture_project,
                  override_gates, select)
from .rng import uniform_init
from .tensor import (ShapeError, Tensor, concat, constant, expert_matmul,
                     gather_mid, matmul, mul, rel_shift, reshape, softmax_last,
                     transpose, tsum)

NEG_INF = -1e30


@dataclass(frozen=True)
class ExpertFlags:
    """Which of the four projections are expert mixtures."""
    v: bool = False
    k: bool = False
    q: bool = False
    o: bool = False

    @staticmethod
    def value_output() -> "ExpertFlags":
        """The best-performing combination: experts on V and O only."""
        return ExpertFlags(v=True, o=True)

    def any(self) -> bool:
        return self.v or self.k or self.q or self.o


@dataclass
class AttentionConfig:
    d_model: int
    n_heads: int
    d_head: int
    variant: str = "dense"            # dense | head_gated | switchhead | moa
    position: str = "xl_relative"     # xl_relative | rope | none
    n_experts: int = 1
    k_active: int = 1
    expert_flags: ExpertFlags = field(default_factory=ExpertFlags)
    context_mult: int = 1             # C; C-1 cached past chunks
    causal: bool = True
    scale_by_d_head: bool = False
    sel_activation: str = "sigmoid"   # router activation (moa / head gating)

    def validate(self) -> None:
        if min(self.d_model, self.n_heads, self.d_head, self.context_mult) < 1:
            raise ConfigError("d_model, n_heads, d_head and context_mult must be positive")
        if self.variant not in ("dense", "head_gated", "switchhead", "moa"):
            raise ConfigError(f"unknown attention variant '{self.variant}'")
        if self.position not in ("xl_relative", "rope", "none"):
            raise ConfigError(f"unknown position mode '{self.position}'")
        if self.position == "rope":
            if self.context_mult != 1:
                raise ConfigError("rope attention has no context cache; context_mult must be 1")
            if self.d_head % 2 != 0:
                raise ConfigError("rope rotation needs an even d_head")
        if self.variant == "dense":
            if self.n_experts != 1 or self.k_active != 1 or self.expert_flags.any():
                raise ConfigError("dense attention requires n_experts=1, k_active=1 and no expert flags")
        if self.variant == "switchhead":
            if not (1 <= self.k_active <= self.n_experts):
                raise ConfigError(f"k_active must satisfy 1 <= k <= {self.n_experts}")
            if self.n_experts > 1 and not self.expert_flags.any():
                raise ConfigError("switchhead with n_experts > 1 needs at least one expert flag; "
                                  "use the dense variant instead")
        if self.variant == "moa":
            if not (1 <= self.k_active <= self.n_experts):
                raise ConfigError(f"k_active must satisfy 1 <= k <= {self.n_experts}")
            if self.n_heads != self.k_active:
                raise ConfigError("moa computes k_active attention matrices; set n_heads = k_active")
        if self.variant == "head_gated":
            if not (1 <= self.k_active <= self.n_heads):
                raise ConfigError("head gating needs 1 <= k_active <= n_heads")

    def scale(self) -> float:
        return 1.0 / np.sqrt(self.d_head if self.scale_by_d_head else self.d_model)


@dataclass
class LayerCache:
    """Stop-gradient cached source-side states (keys/values) of past chunks."""
    k: np.ndarray
    v: np.ndarray

    @property
    def length(self) -> int:
        return self.k.shape[-2]


@dataclass
class AttentionTrace:
    """Per-call record: attention matrices and routing decisions."""
    attn: np.ndarray | None = None            # [B, n_matrices, T, S]
    selections: dict = field(default_factory=dict)


# -- parameter construction -----------------------------------------------


def init_attention_params(cfg: AttentionConfig, rng: np.random.Generator) -> dict[str, Tensor]:
    cfg.validate()
    dm, H, dh, E = cfg.d_model, cfg.n_heads, cfg.d_head, cfg.n_experts
    p: dict[str, Tensor] = {}

    def par(name, shape, fan_in):
        p[name] = Tensor(uniform_init(rng, shape, fan_in), requires_grad=True)

    if cfg.variant in ("dense", "head_gated"):
        par("w_k", (dm, H * dh), dm)
        par("w_q", (dm, H * dh), dm)
        par("w_v", (dm, H * dh), dm)
        par("w_o", (H * dh, dm), H * dh)
        if cfg.variant == "head_gated":
            par("w_gate", (dm, H), dm)
        if cfg.position == "xl_relative":
            par("w_r", (dm, H * dh), dm)
            par("u", (H, 1, dh), dh)
            par("v", (H, 1, dh), dh)
    elif cfg.variant == "switchhead":
        f = cfg.expert_flags
        for role, expert, din, dout in (("k", f.k, dm, dh), ("q", f.q, dm, dh),
                                        ("v", f.v, dm, dh), ("o", f.o, dh, dm)):
            shape = (H, E, din, dout) if expert else (H, din, dout)
            par(f"w_{role}", shape, din)
        if f.v or f.k:
            par("w_s", (H, dm, E), dm)
        if f.q or f.o:
            par("w_d", (H, dm, E), dm)
        if cfg.position == "xl_relative":
            par("w_r", (dm, dh), dm)   # shared across the few wide heads
            par("u", (H, 1, dh), dh)
            par("v", (H, 1, dh), dh)
    elif cfg.variant == "moa":
        par("w_k", (dm, dh), dm)
        par("w_v", (dm, dh), dm)
        par("w_q", (E, dm, dh), dm)
        par("w_o", (E, dh, dm), dh)
        par("w_router", (dm, E), dm)
        if cfg.position == "xl_relative":
            par("w_r", (dm, dh), dm)
            par("u", (1, dh), dh)
            par("v", (1, dh), dh)
    return p


# -- position machinery ---------------------------------------------------


def sinusoid_table(n_rows: int, d_model: int, offset: int) -> np.ndarray:
    """Sinusoidal encodings for relative distances d = row - offset."""
    d = (np.arange(n_rows) - offset)[:, None].astype(np.float64)
    i = np.arange(0, d_model, 2, dtype=np.float64)
    angle = d / np.power(10000.0, i / d_model)
    out = np.zeros((n_rows, d_model))
    out[:, 0::2] = np.sin(angle)
    out[:, 1::2] = np.cos(angle[:, : out[:, 1::2].shape[1]])
    return out


def rope_rotate(x: Tensor, cos: np.ndarray, sin: np.ndarray,
                counter: OpCounter = NULL_COUNTER) -> Tensor:
    """Rotate interleaved channel pairs of [..., T, dh] by position angles."""
    dh = x.shape[-1]
    if dh % 2 != 0:
        raise ShapeError("rotary rotation needs channel pairs (even d_head)")
    x1 = x[..., 0::2]
    x2 = x[..., 1::2]
    c, s = constant(cos.astype(x.data.dtype)), constant(sin.astype(x.data.dtype))
    o1 = mul(x1, c) - mul(x2, s)
    o2 = mul(x1, s) + mul(x2, c)
    if counter.enabled:
        counter.add_extra("rotary", macs=2 * x.size)
    half = o1.shape
    o1 = reshape(o1, half + (1,))
    o2 = reshape(o2, half + (1,))
    return reshape(concat([o1, o2], axis=-1), x.shape)


def rope_angles(T: int, d_head: int) -> tuple[np.ndarray, np.ndarray]:
    pos = np.arange(T, dtype=np.float64)[:, None]
    inv = np.power(10000.0, -np.arange(0, d_head, 2, dtype=np.float64) / d_head)
    ang = pos * inv[None, :]
    return np.cos(ang), np.sin(ang)


def _mask_scores(scores: Tensor, cache_len: int, causal: bool,
                 key_mask: np.ndarray | None) -> Tensor:
    T, S = scores.shape[-2], scores.shape[-1]
    add = None
    if causal:
        q_pos = cache_len + np.arange(T)[:, None]
        add = np.where(np.arange(S)[None, :] > q_pos, NEG_INF, 0.0)
    if key_mask is not None:
        km = np.where(np.asarray(key_mask, dtype=bool), 0.0, NEG_INF)
        km = km.reshape(km.shape[0], *([1] * (scores.ndim - km.ndim)), S)
        add = km if add is None else add + km
    if add is None:
        return scores
    return scores + constant(add.astype(scores.data.dtype))


def _xl_pos_scores(q_plus_v: Tensor, r_proj: Tensor, cache_len: int,
                   counter: OpCounter) -> Tensor:
    """Relative-position score term via the 2S-row projected table.

    The interaction matmul is not part of the closed-form MAC formulas, so
    its cost is itemized under 'pos_scores'.
    """
    p = matmul(q_plus_v, transpose(r_proj, (*range(r_proj.ndim - 2), r_proj.ndim - 1, r_proj.ndim - 2)),
               counter, extra="pos_scores")
    return rel_shift(p, cache_len)


# -- forward passes -------------------------------------------------------


def _update_cache(cfg: AttentionConfig, cache: LayerCache | None,
                  k_new: np.ndarray, v_new: np.ndarray) -> LayerCache | None:
    keep = (cfg.context_mult - 1) * k_new.shape[-2]
    if keep <= 0:
        return None
    if cache is None:
        k_all, v_all = k_new, v_new
    else:
        k_all = np.concatenate([cache.k, k_new], axis=-2)
        v_all = np.concatenate([cache.v, v_new], axis=-2)
    return LayerCache(k=k_all[..., -keep:, :].copy(), v=v_all[..., -keep:, :].copy())


def _attend(q: Tensor, k: Tensor, v: Tensor, cfg: AttentionConfig,
            counter: OpCounter, cache_len: int, key_mask, u=None,
            pos_term: Tensor | None = None) -> tuple[Tensor, Tensor]:
    """Scores, masking, softmax, readout for stacked heads [..., T, dh]."""
    qc = q if u is None else q + u
    scores = matmul(qc, transpose(k, (*range(k.ndim - 2), k.ndim - 1, k.ndim - 2)),
                    counter, term="scores")
    if pos_term is not None:
        scores = scores + pos_term
    scores = mul(scores, cfg.scale())
    scores = _mask_scores(scores, cache_len, cfg.causal, key_mask)
    attn = softmax_last(scores, counter, term="scores")
    counter.count_score_matrices(int(np.prod(attn.shape[:-2], dtype=np.int64)))
    av = matmul(attn, v, counter, term="readout")
    return attn, av


def _ensure_3d(x: Tensor) -> tuple[Tensor, bool]:
    if x.ndim == 2:
        return reshape(x, (1,) + x.shape), True
    if x.ndim == 3:
        return x, False
    raise ShapeError(f"attention input must be [T, d_model] or [B, T, d_model], got {x.shape}")


def attention_forward(x: Tensor, params: dict[str, Tensor], cfg: AttentionConfig,
                      counter: OpCounter = NULL_COUNTER, *,
                      cache: LayerCache | None = None,
                      key_mask: np.ndarray | None = None,
                      want_trace: bool = False,
                      gate_override: float | None = None):
    """Dispatch one attention layer. Returns (y, trace, new_cache)."""
    cfg.validate()
    x3, squeeze = _ensure_3d(x)
    if x3.shape[-1] != cfg.d_model:
        raise ShapeError(f"input width {x3.shape[-1]} != d_model {cfg.d_model}")
    if x3.shape[1] < 1:
        raise ShapeError("attention requires at least one input position")
    if cache is not None and cfg.context_mult == 1:
        raise ConfigError("cache passed to a variant with context_mult=1")
    if cfg.variant in ("dense", "head_gated"):
        y, trace, new_cache = _dense_family_forward(
            x3, params, cfg, counter, cache, key_mask, want_trace, gate_override)
    elif cfg.variant == "switchhead":
        y, trace, new_cache = _switchhead_forward(
            x3, params, cfg, counter, cache, key_mask, want_trace, gate_override)
    else:
        y, trace, new_cache = _moa_forward(
            x3, params, cfg, counter, cache, key_mask, want_trace, gate_override)
    if squeeze:
        y = reshape(y, y.shape[1:])
    return y, trace, new_cache


def _split_heads(t: Tensor, H: int, dh: int) -> Tensor:
    b, T = t.shape[0], t.shape[1]
    return transpose(reshape(t, (b, T, H, dh)), (0, 2, 1, 3))


def _project_positions(pos: np.ndarray, w_r: Tensor, H: int, dh: int,
                       counter: OpCounter, per_head: bool) -> Tensor:
    """Project the 2S sinusoid rows; per-head for dense XL, shared otherwise."""
    r = matmul(constant(pos.astype(w_r.data.dtype)), w_r, counter, term="position")
    if per_head:
        return transpose(reshape(r, (r.shape[0], H, dh)), (1, 0, 2))  # [H, 2S, dh]
    return r  # [2S, dh]


def _attend_heads(q, k_cur, v_cur, params, cfg, counter, cache, key_mask, *,
                  per_head_pos: bool):
    """Cache, position terms, scores and readout, once for all heads.

    ``q``, ``k_cur`` and ``v_cur`` are [B, H, T, dh]; returns the attention
    matrices [B, H, T, S], the readout [B, H, T, dh] and the new cache.
    """
    new_cache = _update_cache(cfg, cache, k_cur.data, v_cur.data)
    if cache is not None:
        k = concat([constant(cache.k), k_cur], axis=2)
        v = concat([constant(cache.v), v_cur], axis=2)
    else:
        k, v = k_cur, v_cur
    cache_len = 0 if cache is None else cache.length
    T = q.shape[2]
    S = cache_len + T
    u = pos_term = None
    if cfg.position == "xl_relative":
        pos = sinusoid_table(2 * S, cfg.d_model, offset=S - 1)
        r = _project_positions(pos, params["w_r"], cfg.n_heads, cfg.d_head, counter,
                               per_head=per_head_pos)
        u = params["u"]
        pos_term = _xl_pos_scores(q + params["v"], r, cache_len, counter)
    elif cfg.position == "rope":
        cos, sin = rope_angles(T, cfg.d_head)
        q = rope_rotate(q, cos, sin, counter)
        k = rope_rotate(k, cos, sin, counter)
    attn, av = _attend(q, k, v, cfg, counter, cache_len, key_mask, u=u, pos_term=pos_term)
    return attn, av, new_cache


def _dense_family_forward(x, params, cfg, counter, cache, key_mask, want_trace,
                          gate_override):
    B, T, dm = x.shape
    H, dh = cfg.n_heads, cfg.d_head
    k_cur, q, v_cur = (_split_heads(matmul(x, params[f"w_{r}"], counter, term="projections"),
                                    H, dh) for r in "kqv")
    attn, av, new_cache = _attend_heads(q, k_cur, v_cur, params, cfg, counter, cache,
                                        key_mask, per_head_pos=True)

    trace = AttentionTrace(attn=attn.data.copy() if want_trace else None)
    if cfg.variant == "dense":
        merged = reshape(transpose(av, (0, 2, 1, 3)), (B, T, H * dh))
        y = matmul(merged, params["w_o"], counter, store=False, term="projections")
    else:  # head_gated
        w_o_heads = reshape(params["w_o"], (H, dh, dm))
        o_heads = matmul(av, w_o_heads, counter, store=False, term="projections")  # [B,H,T,dm]
        sel_cfg = SelectionConfig(H, cfg.k_active, cfg.sel_activation, dm)
        sel = select(x, params["w_gate"], sel_cfg, counter)
        if gate_override is not None:
            sel = override_gates(sel, gate_override)
        o_flat = reshape(transpose(o_heads, (0, 2, 1, 3)), (B * T, H, dm))
        idx = sel.indices.reshape(B * T, -1)
        picked = gather_mid(o_flat, idx)  # [B*T, k, dm]
        w = reshape(sel.weights, (B * T, cfg.k_active, 1))
        if counter.enabled:
            counter.add_extra("selection", macs=B * T * cfg.k_active * dm)
        y = reshape(tsum(mul(picked, w), axis=1), (B, T, dm))
        if want_trace:
            trace.selections["heads"] = (sel.indices.copy(), sel.weights.data.copy())
    return y, trace, new_cache


def _switchhead_forward(x, params, cfg, counter, cache, key_mask, want_trace,
                        gate_override):
    """All heads at once: one fused expert dispatch per expert role, one
    [dm, H*dh] GEMM per plain role, routing one ``select`` per head."""
    B, T, dm = x.shape
    H, dh, E = cfg.n_heads, cfg.d_head, cfg.n_experts
    f = cfg.expert_flags
    sel_cfg = SelectionConfig(E, cfg.k_active, "sigmoid", dm)

    def head_sels(w_name):
        sels = [select(x, params[w_name][h], sel_cfg, counter) for h in range(H)]
        if gate_override is not None:
            sels = [override_gates(s, gate_override) for s in sels]
        return sels

    sel_s = head_sels("w_s") if (f.v or f.k) else None
    sel_d = head_sels("w_d") if (f.q or f.o) else None

    def project(role, expert, sels):
        w = params[f"w_{role}"]
        if expert:
            return mixture_project(x, w, sels, counter, gate="output")   # [B, H, T, dh]
        w_all = reshape(transpose(w, (1, 0, 2)), (dm, H * dh))
        return _split_heads(matmul(x, w_all, counter, term="projections"), H, dh)

    k_cur, q, v_cur = project("k", f.k, sel_s), project("q", f.q, sel_d), project("v", f.v, sel_s)
    attn, av, new_cache = _attend_heads(q, k_cur, v_cur, params, cfg, counter, cache,
                                        key_mask, per_head_pos=False)
    if f.o:
        y = mixture_project(av, params["w_o"], sel_d, counter, gate="input", store=False)
    else:
        merged = reshape(transpose(av, (0, 2, 1, 3)), (B, T, H * dh))
        y = matmul(merged, reshape(params["w_o"], (H * dh, dm)), counter, store=False,
                   term="projections")

    trace = AttentionTrace()
    if want_trace:
        trace.attn = attn.data.copy()
        if sel_s is not None:
            trace.selections["source"] = [(s.indices.copy(), s.weights.data.copy()) for s in sel_s]
        if sel_d is not None:
            trace.selections["dest"] = [(s.indices.copy(), s.weights.data.copy()) for s in sel_d]
    return y, trace, new_cache


def _moa_forward(x, params, cfg, counter, cache, key_mask, want_trace,
                 gate_override):
    B, T, dm = x.shape
    dh, E, k_act = cfg.d_head, cfg.n_experts, cfg.k_active
    k_cur = matmul(x, params["w_k"], counter, term="projections")
    v_cur = matmul(x, params["w_v"], counter, term="projections")
    new_cache = _update_cache(cfg, cache, k_cur.data, v_cur.data)
    if cache is not None:
        k = concat([constant(cache.k), k_cur], axis=1)
        v = concat([constant(cache.v), v_cur], axis=1)
    else:
        k, v = k_cur, v_cur
    cache_len = 0 if cache is None else cache.length
    S = cache_len + T

    sel_cfg = SelectionConfig(E, k_act, cfg.sel_activation, dm)
    sel = select(x, params["w_router"], sel_cfg, counter)
    if gate_override is not None:
        sel = override_gates(sel, gate_override)

    r_proj = None
    if cfg.position == "xl_relative":
        pos = sinusoid_table(2 * S, dm, offset=S - 1)
        r_proj = _project_positions(pos, params["w_r"], 1, dh, counter, per_head=False)
    cos = sin = None
    if cfg.position == "rope":
        cos, sin = rope_angles(T, dh)
        k = rope_rotate(k, cos, sin, counter)

    # the k selected query/output experts are k attention matrices per
    # token, batched on a slot axis against the shared keys and values
    n = B * T
    eid = sel.indices.reshape(-1)
    tokens = np.repeat(np.arange(n), k_act)
    slots = np.arange(n * k_act).reshape(B, k_act, T).transpose(0, 2, 1).reshape(-1)
    q = expert_matmul(reshape(x, (n, dm)), params["w_q"], eid, tokens, slots,
                      n * k_act, counter, term="projections")
    counter.add(mem=q.size, term="projections")
    q = reshape(q, (B, k_act, T, dh))
    k = reshape(k, (B, 1, S, dh))
    v = reshape(v, (B, 1, S, dh))
    u = pos_term = None
    if cfg.position == "xl_relative":
        u = params["u"]
        pos_term = _xl_pos_scores(q + params["v"], r_proj, cache_len, counter)
    elif cfg.position == "rope":
        q = rope_rotate(q, cos, sin, counter)
    attn, av = _attend(q, k, v, cfg, counter, cache_len, key_mask, u=u, pos_term=pos_term)
    y = expert_matmul(reshape(av, (n * k_act, dh)), params["w_o"], eid, slots, tokens,
                      n, counter, gate=sel.weights, term="projections")
    counter.add_extra("selection", macs=n * k_act * dm)
    y = reshape(y, (B, T, dm))

    trace = AttentionTrace()
    if want_trace:
        trace.attn = attn.data.copy()
        trace.selections["router"] = (sel.indices.copy(), sel.weights.data.copy())
    return y, trace, new_cache


# -- spec-facing wrappers -------------------------------------------------


def dense_attention(x, params, cfg, counter=NULL_COUNTER, **kw):
    if cfg.variant != "dense":
        raise ConfigError("dense_attention requires cfg.variant == 'dense'")
    y, trace, _ = attention_forward(x, params, cfg, counter, **kw)
    return y, trace


def dense_readout_per_head(av: Tensor, w_o: Tensor, H: int, dh: int,
                           counter: OpCounter = NULL_COUNTER) -> Tensor:
    """Per-head-sum readout form; equivalent to the concatenated form."""
    dm = w_o.shape[-1]
    y = None
    for h in range(H):
        w_h = w_o[h * dh:(h + 1) * dh, :]
        o = matmul(av[:, h], w_h, counter, store=False)
        y = o if y is None else y + o
    return y


def xl_relative_attention(x, cache, params, cfg, counter=NULL_COUNTER, **kw):
    if cfg.position != "xl_relative":
        raise ConfigError("xl_relative_attention requires cfg.position == 'xl_relative'")
    return attention_forward(x, params, cfg, counter, cache=cache, **kw)


def head_gated_attention(x, params, cfg, counter=NULL_COUNTER, **kw):
    if cfg.variant != "head_gated":
        raise ConfigError("head_gated_attention requires cfg.variant == 'head_gated'")
    y, trace, _ = attention_forward(x, params, cfg, counter, **kw)
    return y, trace


def switchhead_attention(x, params, cfg, counter=NULL_COUNTER, **kw):
    if cfg.variant != "switchhead":
        raise ConfigError("switchhead_attention requires cfg.variant == 'switchhead'")
    return attention_forward(x, params, cfg, counter, **kw)


def moa_attention(x, params, cfg, counter=NULL_COUNTER, **kw):
    if cfg.variant != "moa":
        raise ConfigError("moa_attention requires cfg.variant == 'moa'")
    return attention_forward(x, params, cfg, counter, **kw)
