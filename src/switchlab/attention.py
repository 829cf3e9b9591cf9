"""Attention variants: dense MHA, XL-relative, RoPE, head-gating,
SwitchHead-style per-projection expert mixtures, and the MoA baseline.

The variants differ only in how they project and route. Each is a
parameter table (``attention_param_shapes``, which both initialisation
and ``model.count_params`` read) and a router that names its routed roles
as ``moe.Route`` records. ``attention_forward`` is the one forward: K, Q
and V are plain GEMMs or ``moe.dispatch`` calls from token rows into head
rows, the one core ``_attend_heads`` runs cache, XL or RoPE position
terms, scores, mask and readout once on [B, H, T, S] for all heads (scores
to probabilities as the one op ``tensor.attention_probs``), and O is the
plain merge-GEMM or a ``moe.dispatch`` call from head rows back into token
rows. Head gating routes O alone, each token reading its k selected heads
as its own experts' rows; SwitchHead routes any of its four roles, one
``select`` per side over the [H, dm, E] bank of its heads' routers; MoA
is multi-query attention, its k routed query experts as k heads against
one shared K/V head, so its cache is [B, 1, S, dh].

Conventions shared by every variant:
  * a "head" is one computed attention matrix;
  * softmax scaling is 1/sqrt(d_model), not the conventional
    1/sqrt(d_head);
  * causal masking hides source positions after the query position;
  * XL-style cached states are stop-gradient and FIFO over C-1 past chunks;
  * the OpCounter term names (projections / mixing / scores / readout /
    position) line up one-to-one with the closed-form cost model.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .counter import NULL_COUNTER, OpCounter
from .moe import ConfigError, Route, SelectionConfig, dispatch, select
from .rng import uniform_init
from .tensor import (ExpertPlan, ShapeError, Tensor, attention_probs, concat, constant,
                     matmul, mul, reshape, take_last, transpose)

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
        return 1.0 / np.sqrt(self.d_model)


@dataclass
class LayerCache:
    """Stop-gradient cached source-side states (keys/values) of past chunks."""
    k: np.ndarray
    v: np.ndarray


@dataclass
class AttentionTrace:
    """Per-call record: attention matrices and routing decisions.

    ``selections`` maps each routing decision to one (indices, weights)
    pair of arrays: ``source`` and ``dest`` for SwitchHead's two sides,
    [B, T, H, k] with each head's expert ids local in [0, E); ``heads`` for
    head gating and ``router`` for MoA, [B, T, k].
    """
    attn: np.ndarray | None = None            # [B, n_matrices, T, S]
    selections: dict = field(default_factory=dict)


# -- parameter construction -----------------------------------------------


def attention_param_shapes(cfg: AttentionConfig, per_head_pos: bool | None = None
                           ) -> dict[str, tuple[tuple[int, ...], int]]:
    """Each parameter of one attention layer as name -> (shape, fan_in), in
    the order ``init_attention_params`` draws them.

    ``per_head_pos`` sets the width of the XL position projection ``w_r``:
    one [dm, dh] block per head, or one block shared by all heads. None
    follows the implementation (per head for dense and head-gated
    attention, shared otherwise); the matching report counts both.
    """
    cfg.validate()
    dm, H, dh, E = cfg.d_model, cfg.n_heads, cfg.d_head, cfg.n_experts
    if cfg.variant == "moa":
        pos_heads, bias = 1, (1, dh)   # MoA's one K/V head takes the position terms
        table = {"w_k": ((dm, dh), dm), "w_v": ((dm, dh), dm),
                 "w_q": ((E, dm, dh), dm), "w_o": ((E, dh, dm), dh),
                 "w_router": ((dm, E), dm)}
    elif cfg.variant == "switchhead":
        pos_heads, bias = H, (H, 1, dh)
        f = cfg.expert_flags
        table = {f"w_{role}": ((H, E, din, dout) if expert else (H, din, dout), din)
                 for role, expert, din, dout in (("k", f.k, dm, dh), ("q", f.q, dm, dh),
                                                 ("v", f.v, dm, dh), ("o", f.o, dh, dm))}
        if f.v or f.k:
            table["w_s"] = ((H, dm, E), dm)
        if f.q or f.o:
            table["w_d"] = ((H, dm, E), dm)
    else:
        pos_heads, bias = H, (H, 1, dh)
        table = {f"w_{role}": ((dm, H * dh), dm) for role in "kqv"}
        table["w_o"] = ((H * dh, dm), H * dh)
        if cfg.variant == "head_gated":
            table["w_gate"] = ((dm, H), dm)
    if cfg.position == "xl_relative":
        if per_head_pos is None:
            _, per_head_pos = _VARIANTS[cfg.variant]
        table["w_r"] = ((dm, pos_heads * dh if per_head_pos else dh), dm)
        table["u"] = (bias, dh)
        table["v"] = (bias, dh)
    return table


def init_attention_params(cfg: AttentionConfig, rng: np.random.Generator) -> dict[str, Tensor]:
    return {name: Tensor(uniform_init(rng, shape, fan_in), requires_grad=True)
            for name, (shape, fan_in) in attention_param_shapes(cfg).items()}


# -- position machinery ---------------------------------------------------


def sinusoid_table(n_rows: int, d_model: int, offset: int,
                   dtype=np.float64) -> np.ndarray:
    """Sinusoidal encodings for relative distances d = row - offset.

    Computed in float64 and rounded to ``dtype``. Tables are memoised per
    (n_rows, d_model, offset, dtype), so every caller gets the same array,
    which is read-only.
    """
    return _sinusoid_table(n_rows, d_model, offset, np.dtype(dtype))


@functools.lru_cache(maxsize=128)
def _sinusoid_table(n_rows: int, d_model: int, offset: int,
                    dtype: np.dtype) -> np.ndarray:
    d = (np.arange(n_rows) - offset)[:, None].astype(np.float64)
    i = np.arange(0, d_model, 2, dtype=np.float64)
    angle = d / np.power(10000.0, i / d_model)
    out = np.zeros((n_rows, d_model))
    out[:, 0::2] = np.sin(angle)
    out[:, 1::2] = np.cos(angle[:, : out[:, 1::2].shape[1]])
    out = out.astype(dtype, copy=False)
    out.setflags(write=False)
    return out


def rope_rotate(x: Tensor, cos: np.ndarray, sin: np.ndarray,
                counter: OpCounter = NULL_COUNTER) -> Tensor:
    """Rotate interleaved channel pairs of [..., T, dh] by position angles:
    each pair (a, b) becomes (a cos - b sin, b cos + a sin), x times cos
    repeated per pair plus x with each pair swapped (``take_last`` of
    channel i ^ 1) times [-sin, sin] interleaved."""
    dh = x.shape[-1]
    if dh % 2 != 0:
        raise ShapeError("rotary rotation needs channel pairs (even d_head)")
    c = np.repeat(cos, 2, axis=-1)
    s = np.stack([-sin, sin], axis=-1).reshape(c.shape)
    counter.add("rotary", macs=2 * x.size)
    # mul casts the float64 angle arrays to x's dtype
    return mul(x, c) + mul(take_last(x, np.arange(dh) ^ 1), s)


def rope_angles(T: int, d_head: int) -> tuple[np.ndarray, np.ndarray]:
    pos = np.arange(T, dtype=np.float64)[:, None]
    inv = np.power(10000.0, -np.arange(0, d_head, 2, dtype=np.float64) / d_head)
    ang = pos * inv[None, :]
    return np.cos(ang), np.sin(ang)


def _score_mask(T: int, S: int, cache_len: int, causal: bool,
                key_mask: np.ndarray | None) -> np.ndarray | None:
    """The additive mask of [B, H, T, S] scores: NEG_INF on the keys after
    each query's position (causal) and on the masked keys, 0 elsewhere;
    None when nothing is masked."""
    add = None
    if causal:
        q_pos = cache_len + np.arange(T)[:, None]
        add = np.where(np.arange(S)[None, :] > q_pos, NEG_INF, 0.0)
    if key_mask is not None:
        km = np.where(np.asarray(key_mask, dtype=bool), 0.0, NEG_INF)
        km = km.reshape(km.shape[0], 1, 1, S)
        add = km if add is None else add + km
    return add


# -- forward passes -------------------------------------------------------


def cache_shape(cfg: AttentionConfig, batch: int, length: int) -> tuple[int, int, int, int]:
    """Shape of a layer's cached keys (and values): [B, n_kv_heads, S, dh].

    Every variant keeps one K/V head per attention matrix, except MoA, whose
    k query heads share one K/V head (multi-query attention).
    """
    return (batch, 1 if cfg.variant == "moa" else cfg.n_heads, length, cfg.d_head)


def _cached_keys(cur: Tensor, past: np.ndarray | None, keep: int
                 ) -> tuple[Tensor, int, np.ndarray]:
    """Prefix each row of ``cur`` [B, n, T, dh] with the P stop-gradient
    positions before it in its stream, the R-row ``past`` [R, n, P, dh]
    holding R streams (the rule in ``attention_forward``). Returns the keys
    (or values) [B, n, P + T, dh], P and the keys of each stream's last row,
    whose last ``keep`` positions are the stream's last ones."""
    if past is None:
        return cur, 0, cur.data
    B, n, T, dh = cur.shape
    R, P = past.shape[0], past.shape[2]
    if B % R or (R < B and P != keep):
        raise ShapeError(f"a cache of shape {past.shape} cannot be continued by {B} rows: "
                         f"it needs one row per input row, or a row count dividing {B} "
                         f"and (C-1)*T = {keep} positions")
    G = B // R
    before = cur.data.reshape(R, G, n, T, dh)[:, :-1].transpose(0, 2, 1, 3, 4)
    # each stream up to its run's last row: the cache, then the rows before it
    stream = np.concatenate([past, before.reshape(R, n, -1, dh)], axis=2)
    windows = sliding_window_view(stream, P, axis=2)[:, :, ::T]        # [R, n, G, dh, P]
    keys = concat([constant(windows.transpose(0, 2, 1, 4, 3).reshape(B, n, P, dh)), cur],
                  axis=2)
    return keys, P, keys.data[G - 1::G]


def _attend_heads(q, k_cur, v_cur, params, cfg, counter, cache, key_mask, *,
                  per_head_pos: bool):
    """The one attention core: cache, position terms, scores and readout,
    once for all heads.

    ``q`` is [B, H, T, dh]; ``k_cur`` and ``v_cur`` are [B, H, T, dh], or
    [B, 1, T, dh] for one K/V head shared by the H query heads (MoA).
    ``per_head_pos`` projects the XL position table per head (``w_r`` is
    [dm, H*dh]) instead of once for all heads ([dm, dh]). The cache's row
    count says which stream each row continues (``_cached_keys``). Returns
    the attention matrices [B, H, T, S], the readout [B, H, T, dh] and the
    new cache.
    """
    T = q.shape[2]
    keep = (cfg.context_mult - 1) * T      # the FIFO keeps the last C-1 chunks
    k, cache_len, k_last = _cached_keys(k_cur, None if cache is None else cache.k, keep)
    v, _, v_last = _cached_keys(v_cur, None if cache is None else cache.v, keep)
    new_cache = (LayerCache(k=k_last[..., -keep:, :].copy(),
                            v=v_last[..., -keep:, :].copy()) if keep else None)
    S = cache_len + T
    u = v_bias = pos_r = None
    if cfg.position == "xl_relative":
        # relative-position scores from the projected 2S-row sinusoid table;
        # their interaction product is not in the closed forms, so
        # attention_probs itemizes its cost under 'pos_scores'
        w_r = params["w_r"]
        table = sinusoid_table(2 * S, cfg.d_model, offset=S - 1, dtype=w_r.data.dtype)
        r = matmul(constant(table), w_r, counter, term="position")
        pos_r = (transpose(reshape(r, (2 * S, cfg.n_heads, cfg.d_head)), (1, 2, 0))
                 if per_head_pos else transpose(r))      # [H, dh, 2S] or [dh, 2S]
        u, v_bias = params["u"], params["v"]
    elif cfg.position == "rope":
        cos, sin = rope_angles(T, cfg.d_head)
        q = rope_rotate(q, cos, sin, counter)
        k = rope_rotate(k, cos, sin, counter)
    attn = attention_probs(q, k, cfg.scale(),
                           mask=_score_mask(T, S, cache_len, cfg.causal, key_mask),
                           u=u, v=v_bias, pos_r=pos_r, cache_len=cache_len,
                           counter=counter)
    counter.count_score_matrices(attn.shape[0] * attn.shape[1])
    av = matmul(attn, v, counter, term="readout")
    return attn, av, new_cache


# -- routers ----------------------------------------------------------------
#
# A router selects, once per call, the experts of a variant's routed roles
# and returns ({role: Route}, {trace key: selections}); a role it does not
# name is a plain GEMM. Each routing decision gets one ExpertPlan, which
# every role it routes shares.


def _head_gate_routes(x, params, cfg, counter):
    """The k selected heads are output experts over the [H, dh, dm] view of
    ``w_o``, each reading its own head's row and scaled by its gate."""
    sel = select(x, params["w_gate"], SelectionConfig(cfg.n_heads, cfg.k_active), counter)
    route = Route(ExpertPlan(sel.indices, cfg.n_heads), sel.weights, term="projections",
                  gate_term="selection", own_rows=True)
    return {"o": route}, {"heads": sel}


def _switchhead_routes(x, params, cfg, counter):
    """One ``select`` per side over its [H, dm, E] router bank: the source
    side routes K and V, the destination side Q and O; head h's experts are
    rows h*E.. of the flat [H*E, d_in, d_out] bank, and its k slots are a
    token's slots h*k.."""
    (B, T, _), H, E, f = x.shape, cfg.n_heads, cfg.n_experts, cfg.expert_flags
    sel_cfg = SelectionConfig(E, cfg.k_active)
    routes, selections = {}, {}
    for side, w_name, roles in (("source", "w_s", "kv"), ("dest", "w_d", "qo")):
        roles = [r for r in roles if getattr(f, r)]
        if not roles:
            continue
        sel = select(x, params[w_name], sel_cfg, counter)          # [B, T, H, k]
        eid = (sel.indices + E * np.arange(H)[:, None]).reshape(B, T, -1)
        route = Route(ExpertPlan(eid, H * E), reshape(sel.weights, eid.shape))
        routes.update(dict.fromkeys(roles, route))
        selections[side] = sel
    return routes, selections


def _moa_routes(x, params, cfg, counter):
    """Multi-query attention: each token's k routed query experts are its k
    query heads, and the matching output experts sum them with the gates."""
    sel = select(x, params["w_router"], SelectionConfig(cfg.n_experts, cfg.k_active), counter)
    plan = ExpertPlan(sel.indices, cfg.n_experts)
    return ({"q": Route(plan, term="projections"),
             "o": Route(plan, sel.weights, term="projections", gate_term="selection")},
            {"router": sel})


#: variant -> (router, whether the XL position projection is per head)
_VARIANTS = {
    "dense": (lambda *_: ({}, {}), True),
    "head_gated": (_head_gate_routes, True),
    "switchhead": (_switchhead_routes, False),
    "moa": (_moa_routes, False),
}


def attention_forward(x: Tensor, params: dict[str, Tensor], cfg: AttentionConfig,
                      counter: OpCounter = NULL_COUNTER, *,
                      cache: LayerCache | None = None,
                      key_mask: np.ndarray | None = None,
                      want_trace: bool = False):
    """One attention layer on x [B, T, d_model]. Returns (y, trace, new_cache).

    K, Q and V are each a plain [dm, heads*dh] GEMM or a routed dispatch into
    head rows, ``_attend_heads`` runs on all heads at once, and O is the
    plain merge-GEMM or a routed dispatch back into token rows. The
    variant's router says which roles are routed.

    A cache of R rows holds R streams, and the B rows are R runs of B/R
    consecutive chunks, one run per stream: row b's stop-gradient cache is
    the positions before it in its stream, the cache followed by the
    current keys and values of the earlier rows of its run. With R = B each
    row continues its own cache, of any length; with R < B the cache must
    hold exactly (C-1)*T positions (else ``ShapeError``). The returned
    cache is the last (C-1)*T positions of each stream, one row per stream.
    """
    cfg.validate()
    if x.ndim != 3 or x.shape[-1] != cfg.d_model:
        raise ShapeError(f"attention input must be [B, T, {cfg.d_model}], got {x.shape}")
    if x.shape[1] < 1:
        raise ShapeError("attention requires at least one input position")
    if cache is not None and cfg.context_mult == 1:
        raise ConfigError("cache passed to a variant with context_mult=1")
    router, per_head_pos = _VARIANTS[cfg.variant]
    routes, selections = router(x, params, cfg, counter)
    B, T, dm = x.shape
    H, dh = cfg.n_heads, cfg.d_head

    def project(role):
        w = params[f"w_{role}"]
        if role in routes:
            return dispatch(reshape(x, (B, 1, T, dm)), reshape(w, (-1, dm, dh)), routes[role],
                            H, counter)
        if w.ndim == 3:                       # per head [H, dm, dh] -> [dm, H*dh]
            w = reshape(transpose(w, (1, 0, 2)), (dm, -1))
        heads = reshape(matmul(x, w, counter, term="projections"), (B, T, -1, dh))
        return transpose(heads, (0, 2, 1, 3))

    k_cur, q, v_cur = project("k"), project("q"), project("v")
    attn, av, new_cache = _attend_heads(q, k_cur, v_cur, params, cfg, counter, cache,
                                        key_mask, per_head_pos=per_head_pos)
    if "o" in routes:
        y = reshape(dispatch(av, reshape(params["w_o"], (-1, dh, dm)), routes["o"], 1,
                             counter, store=False), (B, T, dm))
    else:
        merged = reshape(transpose(av, (0, 2, 1, 3)), (B, T, H * dh))
        y = matmul(merged, reshape(params["w_o"], (H * dh, dm)), counter, store=False,
                   term="projections")
    trace = AttentionTrace()
    if want_trace:
        trace.attn = attn.data.copy()
        for key, sel in selections.items():
            trace.selections[key] = (sel.indices.copy(), sel.weights.data.copy())
    return y, trace, new_cache
