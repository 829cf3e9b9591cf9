"""Attention variants: invariants, reduction oracles, materialized-mixture
oracles for every expert-flag combination, and structural counter checks."""

import importlib.util
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from switchlab import attention
from switchlab.attention import (AttentionConfig, ExpertFlags, LayerCache,
                                 attention_forward, cache_shape, init_attention_params,
                                 rope_angles, rope_rotate, sinusoid_table)
from switchlab.counter import OpCounter
from switchlab.moe import ConfigError, SelectionConfig, select
from switchlab.rng import rng_for
from switchlab.tensor import (ShapeError, Tensor, concat, constant, gather_rows, matmul,
                              mul, reshape, softmax_last, take_last, transpose, tsum)


def rand_x(rng, B, T, dm, grad=False):
    return Tensor(rng.uniform(-1, 1, (B, T, dm)), requires_grad=grad)


DM = 8


def all_variant_cases():
    return {
        "dense_xl": AttentionConfig(DM, 2, 4, variant="dense", context_mult=2),
        "dense_rope": AttentionConfig(DM, 2, 4, variant="dense", position="rope"),
        "head_gated": AttentionConfig(DM, 3, 4, variant="head_gated", k_active=2),
        "switchhead": AttentionConfig(DM, 2, 4, variant="switchhead",
                                      n_experts=3, k_active=2, context_mult=2,
                                      expert_flags=ExpertFlags.value_output()),
        "moa": AttentionConfig(DM, 2, 4, variant="moa", n_experts=4,
                               k_active=2, context_mult=2),
    }


# -- config validation -----------------------------------------------------


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        AttentionConfig(8, 2, 4, variant="nope").validate()
    with pytest.raises(ConfigError):
        AttentionConfig(8, 2, 4, position="rope", context_mult=2).validate()
    with pytest.raises(ConfigError):
        AttentionConfig(8, 2, 3, position="rope").validate()
    with pytest.raises(ConfigError):  # dense with experts
        AttentionConfig(8, 2, 4, variant="dense", n_experts=2).validate()
    with pytest.raises(ConfigError):  # switchhead E>1 without flags
        AttentionConfig(8, 2, 4, variant="switchhead", n_experts=3,
                        k_active=2).validate()
    with pytest.raises(ConfigError):  # k > E
        AttentionConfig(8, 2, 4, variant="switchhead", n_experts=2, k_active=3,
                        expert_flags=ExpertFlags.value_output()).validate()
    with pytest.raises(ConfigError):  # moa heads must equal k_active
        AttentionConfig(8, 3, 4, variant="moa", n_experts=4, k_active=2).validate()


def test_scale_default_d_model():
    cfg = AttentionConfig(16, 2, 4)
    assert cfg.scale() == pytest.approx(1 / 4.0)


# -- softmax-row and causal invariants ------------------------------------


@pytest.mark.parametrize("name", list(all_variant_cases()))
def test_rows_sum_to_one_and_causal_zeros(name):
    cfg = all_variant_cases()[name]
    rng = rng_for(0, "rows", name)
    params = init_attention_params(cfg, rng)
    x = rand_x(rng, 2, 5, DM)
    _, trace, _ = attention_forward(x, params, cfg, want_trace=True)
    attn = trace.attn
    assert np.allclose(attn.sum(-1), 1.0, atol=1e-9)
    T = attn.shape[-2]
    upper = np.triu(np.ones((T, T)), k=1).astype(bool)
    assert np.all(attn[..., upper] == 0.0)


def test_noncausal_has_full_rows():
    cfg = AttentionConfig(DM, 2, 4, variant="dense", causal=False)
    rng = rng_for(1, "noncausal")
    params = init_attention_params(cfg, rng)
    _, trace, _ = attention_forward(rand_x(rng, 1, 4, DM), params, cfg,
                                    want_trace=True)
    assert np.all(trace.attn > 0)


def test_key_mask_zeroes_padded_columns():
    cfg = AttentionConfig(DM, 2, 4, variant="dense", causal=False)
    rng = rng_for(2, "mask")
    params = init_attention_params(cfg, rng)
    mask = np.array([[True, True, False, False]])
    _, trace, _ = attention_forward(rand_x(rng, 1, 4, DM), params, cfg,
                                    key_mask=mask, want_trace=True)
    assert np.all(trace.attn[..., 2:] == 0.0)
    assert np.allclose(trace.attn.sum(-1), 1.0)


# -- reduction oracles -----------------------------------------------------


def _dense_params_from_switchhead(sh_params, cfg):
    """Fuse per-head (E=1) switchhead weights into the dense layout."""
    H, dh, dm = cfg.n_heads, cfg.d_head, cfg.d_model
    out = {}
    for role in ("k", "q", "v"):
        w = sh_params[f"w_{role}"].data
        w = w.reshape(H, dm, dh)            # drop E=1 if present
        out[f"w_{role}"] = Tensor(np.concatenate(list(w), axis=1))
    w_o = sh_params["w_o"].data.reshape(H, dh, dm)
    out["w_o"] = Tensor(np.concatenate(list(w_o), axis=0))
    return out


@pytest.mark.parametrize("position", ["none", "rope"])
def test_switchhead_e1_forced_gate_equals_dense(position, unit_gates):
    cfg = AttentionConfig(DM, 2, 4, variant="switchhead", position=position,
                          n_experts=1, k_active=1,
                          expert_flags=ExpertFlags(v=True, k=True, q=True, o=True))
    rng = rng_for(3, "reduce", position)
    params = init_attention_params(cfg, rng)
    x = rand_x(rng, 1, 5, DM)
    y_sh, _, _ = attention_forward(x, params, cfg)
    dcfg = AttentionConfig(DM, 2, 4, variant="dense", position=position)
    y_d, _, _ = attention_forward(x, _dense_params_from_switchhead(params, cfg), dcfg)
    assert np.max(np.abs(y_sh.data - y_d.data)) < 1e-12


def test_switchhead_e1_xl_single_head_equals_dense(unit_gates):
    # H=1 so the shared and per-head position projections coincide
    cfg = AttentionConfig(DM, 1, 4, variant="switchhead", context_mult=2,
                          n_experts=1, k_active=1,
                          expert_flags=ExpertFlags(v=True, k=True, q=True, o=True))
    rng = rng_for(4, "reduce-xl")
    params = init_attention_params(cfg, rng)
    x = rand_x(rng, 1, 5, DM)
    y_sh, _, _ = attention_forward(x, params, cfg)
    dcfg = AttentionConfig(DM, 1, 4, variant="dense", context_mult=2)
    dparams = _dense_params_from_switchhead(params, cfg)
    dparams["w_r"] = Tensor(params["w_r"].data.copy())
    dparams["u"] = Tensor(params["u"].data.copy())
    dparams["v"] = Tensor(params["v"].data.copy())
    y_d, _, _ = attention_forward(x, dparams, dcfg)
    assert np.max(np.abs(y_sh.data - y_d.data)) < 1e-12


def test_head_gated_all_heads_forced_equals_dense(unit_gates):
    H = 3
    cfg = AttentionConfig(DM, H, 4, variant="head_gated", k_active=H,
                          context_mult=2)
    rng = rng_for(5, "hg")
    params = init_attention_params(cfg, rng)
    x = rand_x(rng, 2, 4, DM)
    y_hg, _, _ = attention_forward(x, params, cfg)
    dcfg = AttentionConfig(DM, H, 4, variant="dense", context_mult=2)
    dparams = {k: v for k, v in params.items() if k != "w_gate"}
    y_d, _, _ = attention_forward(x, dparams, dcfg)
    assert np.max(np.abs(y_hg.data - y_d.data)) < 1e-12


def test_head_gated_saturated_gate_picks_single_head():
    cfg = AttentionConfig(DM, 2, 4, variant="head_gated", k_active=1)
    rng = rng_for(6, "hg-sat")
    params = init_attention_params(cfg, rng)
    params["w_gate"].data[:, 0] = 50.0     # head 0 logit >> head 1
    params["w_gate"].data[:, 1] = -50.0
    x = Tensor(np.abs(rng.uniform(0.1, 1, (1, 3, DM))))
    y, trace, _ = attention_forward(x, params, cfg, want_trace=True)
    idx, w = trace.selections["heads"]
    assert np.all(idx == 0)
    assert np.all(w > 1 - 1e-6)


@pytest.mark.parametrize("k_active", [1, 2])
def test_head_gated_matches_selected_heads_oracle(k_active):
    # y[b, t] = sum over the k selected heads h of gate * av[b, h, t] @ w_o[h]
    B, T, H, dh = 2, 4, 3, 4
    cfg = AttentionConfig(DM, H, dh, variant="head_gated", k_active=k_active)
    rng = rng_for(8, "hg-oracle", str(k_active))
    params = init_attention_params(cfg, rng)
    x = rand_x(rng, B, T, DM)
    y, trace, _ = attention_forward(x, params, cfg, want_trace=True)
    idx, gates = trace.selections["heads"]
    v = (x.data @ params["w_v"].data).reshape(B, T, H, dh).transpose(0, 2, 1, 3)
    av = trace.attn @ v
    w_o = params["w_o"].data.reshape(H, dh, DM)
    want = np.zeros((B, T, DM))
    for b, t, j in product(range(B), range(T), range(k_active)):
        h = idx[b, t, j]
        want[b, t] += gates[b, t, j] * av[b, h, t] @ w_o[h]
    assert np.max(np.abs(y.data - want)) < 1e-12


def dense_readout_per_head(av, w_o, H, dh):
    """Per-head-sum readout form of dense attention, the oracle for the
    concatenated form: the sum over heads h of av[:, h] @ w_o[h*dh:(h+1)*dh]."""
    return sum(av[:, h] @ w_o[h * dh:(h + 1) * dh] for h in range(H))


def test_dense_readout_forms_agree():
    # concatenated-matrix readout vs explicit per-head summation
    cfg = AttentionConfig(DM, 3, 4, variant="dense", context_mult=2)
    rng = rng_for(7, "readout")
    params = init_attention_params(cfg, rng)
    x = rand_x(rng, 2, 4, DM)
    y, trace, _ = attention_forward(x, params, cfg, want_trace=True)
    H, dh = cfg.n_heads, cfg.d_head
    v = (x.data @ params["w_v"].data).reshape(2, 4, H, dh).transpose(0, 2, 1, 3)
    y2 = dense_readout_per_head(trace.attn @ v, params["w_o"].data, H, dh)
    assert np.max(np.abs(y.data - y2)) < 1e-10


# -- materialized-mixture oracle over all 16 flag combinations -------------


def _numpy_switchhead(x, params, cfg):
    """Independent loop implementation with materialized mixed projections."""
    B, T, dm = x.shape
    H, dh, E, k = cfg.n_heads, cfg.d_head, cfg.n_experts, cfg.k_active
    f = cfg.expert_flags
    scale = cfg.scale()

    def selection(w_name):
        sels = []
        for h in range(H):
            logits = x @ params[w_name].data[h]          # [B, T, E]
            idx = np.stack([
                np.array(sorted(range(E), key=lambda e: (-logits[b, t, e], e))[:k])
                for b in range(B) for t in range(T)]).reshape(B, T, k)
            idx.sort(axis=-1)
            gates = 1 / (1 + np.exp(-logits))
            w = np.take_along_axis(gates, idx, -1)
            sels.append((idx, w))
        return sels

    sel_s = selection("w_s") if (f.v or f.k) else None
    sel_d = selection("w_d") if (f.q or f.o) else None
    y = np.zeros((B, T, dm))
    for h in range(H):
        def project(role, flag, sel, src, din, dout):
            w = params[f"w_{role}"].data
            if not flag:
                return src @ w[h]
            idx, wts = sel[h]
            out = np.zeros(src.shape[:-1] + (dout,))
            for b in range(B):
                for t in range(T):
                    mixed = np.zeros((din, dout))
                    for slot in range(k):
                        mixed += wts[b, t, slot] * w[h, idx[b, t, slot]]
                    out[b, t] = src[b, t] @ mixed
            return out

        kk = project("k", f.k, sel_s, x, dm, dh)
        qq = project("q", f.q, sel_d, x, dm, dh)
        vv = project("v", f.v, sel_s, x, dm, dh)
        scores = np.einsum("btd,bsd->bts", qq, kk) * scale
        mask = np.triu(np.ones((T, T)), k=1).astype(bool)
        scores[:, mask] = -1e30
        attn = np.exp(scores - scores.max(-1, keepdims=True))
        attn /= attn.sum(-1, keepdims=True)
        av = attn @ vv
        y += project("o", f.o, sel_d, av, dh, dm)
    return y


@pytest.mark.parametrize("flags", list(product([False, True], repeat=4)))
def test_switchhead_all_flag_combos_match_oracle(flags):
    v, k, q, o = flags
    f = ExpertFlags(v=v, k=k, q=q, o=o)
    E = 3 if f.any() else 1
    K = 2 if f.any() else 1
    cfg = AttentionConfig(DM, 2, 4, variant="switchhead", position="none",
                          n_experts=E, k_active=K, expert_flags=f)
    rng = rng_for(hash(flags) % 1000, "combo")
    params = init_attention_params(cfg, rng)
    x = rand_x(rng, 2, 4, DM)
    y, _, _ = attention_forward(x, params, cfg)
    oracle = _numpy_switchhead(x.data, params, cfg)
    assert np.max(np.abs(y.data - oracle)) < 1e-10


# -- MoA oracles -----------------------------------------------------------


def test_moa_single_expert_is_gated_dense_head():
    cfg = AttentionConfig(DM, 1, 4, variant="moa", position="none",
                          n_experts=1, k_active=1)
    rng = rng_for(9, "moa1")
    params = init_attention_params(cfg, rng)
    x = rand_x(rng, 1, 4, DM)
    y, trace, _ = attention_forward(x, params, cfg, want_trace=True)
    gate = trace.selections["router"][1][..., 0]
    kk = x.data @ params["w_k"].data
    qq = x.data @ params["w_q"].data[0]
    vv = x.data @ params["w_v"].data
    scores = np.einsum("btd,bsd->bts", qq, kk) * cfg.scale()
    scores[:, np.triu(np.ones((4, 4)), 1).astype(bool)] = -1e30
    attn = np.exp(scores - scores.max(-1, keepdims=True))
    attn /= attn.sum(-1, keepdims=True)
    want = (attn @ vv) @ params["w_o"].data[0] * gate[..., None]
    assert np.max(np.abs(y.data - want)) < 1e-12


def test_moa_matches_all_experts_oracle():
    cfg = AttentionConfig(DM, 2, 4, variant="moa", position="none",
                          n_experts=4, k_active=2)
    rng = rng_for(10, "moa")
    params = init_attention_params(cfg, rng)
    x = rand_x(rng, 2, 4, DM)
    y, trace, _ = attention_forward(x, params, cfg, want_trace=True)
    idx, wts = trace.selections["router"]
    B, T = 2, 4
    kk = x.data @ params["w_k"].data
    vv = x.data @ params["w_v"].data
    causal = np.triu(np.ones((T, T)), 1).astype(bool)
    want = np.zeros((B, T, DM))
    for e in range(4):                       # dense all-experts computation
        qq = x.data @ params["w_q"].data[e]
        scores = np.einsum("btd,bsd->bts", qq, kk) * cfg.scale()
        scores[:, causal] = -1e30
        attn = np.exp(scores - scores.max(-1, keepdims=True))
        attn /= attn.sum(-1, keepdims=True)
        o = (attn @ vv) @ params["w_o"].data[e]
        # router masking: contribute only where expert e was selected
        hit = (idx == e)
        weight = (wts.data * hit).sum(-1)
        want += o * weight[..., None]
    assert np.max(np.abs(y.data - want)) < 1e-10


# -- structural sparsity via counters -------------------------------------


def test_switchhead_score_matrix_count_independent_of_experts():
    rng = rng_for(11, "struct")
    x = rand_x(rng, 1, 4, DM)
    for E, K in [(1, 1), (3, 1), (3, 2), (5, 5)]:
        cfg = AttentionConfig(DM, 2, 4, variant="switchhead", position="none",
                              n_experts=E, k_active=K,
                              expert_flags=ExpertFlags.value_output() if E > 1
                              else ExpertFlags(v=True, o=True))
        params = init_attention_params(cfg, rng)
        c = OpCounter()
        attention_forward(x, params, cfg, c)
        assert c.score_matrices == cfg.n_heads


def test_moa_score_matrix_count_is_k_active():
    rng = rng_for(12, "struct-moa")
    x = rand_x(rng, 1, 4, DM)
    for E, K in [(4, 1), (4, 2), (6, 3)]:
        cfg = AttentionConfig(DM, K, 4, variant="moa", position="none",
                              n_experts=E, k_active=K)
        params = init_attention_params(cfg, rng)
        c = OpCounter()
        attention_forward(x, params, cfg, c)
        assert c.score_matrices == K


# -- position machinery ----------------------------------------------------


def test_rope_identity_at_position_zero():
    rng = rng_for(13, "rope0")
    x = Tensor(rng.uniform(-1, 1, (1, 1, 4)))
    cos, sin = rope_angles(1, 4)
    out = rope_rotate(x, cos, sin)
    assert np.allclose(out.data, x.data, atol=1e-15)


def test_rope_scores_depend_only_on_relative_offset():
    rng = rng_for(14, "rope-rel")
    dh, T, shift = 8, 6, 5
    q = rng.uniform(-1, 1, (1, T, dh))
    k = rng.uniform(-1, 1, (1, T, dh))
    cos, sin = rope_angles(T + shift, dh)

    def scores(offset):
        qr = rope_rotate(Tensor(q), cos[offset:offset + T], sin[offset:offset + T])
        kr = rope_rotate(Tensor(k), cos[offset:offset + T], sin[offset:offset + T])
        return qr.data @ kr.data.transpose(0, 2, 1)

    assert np.max(np.abs(scores(0) - scores(shift))) < 1e-10


def test_sinusoid_table_shape_and_symmetry():
    tab = sinusoid_table(10, DM, offset=4)
    assert tab.shape == (10, DM)
    # distance 0 row: sin components 0, cos components 1
    assert np.allclose(tab[4, 0::2], 0.0)
    assert np.allclose(tab[4, 1::2], 1.0)


def test_sinusoid_table_memoised_read_only():
    tab = sinusoid_table(12, DM, offset=5, dtype=np.float32)
    assert tab.dtype == np.float32 and not tab.flags.writeable
    with pytest.raises(ValueError):
        tab[0, 0] = 1.0
    assert sinusoid_table(12, DM, 5, np.float32) is tab
    fresh = attention._sinusoid_table.__wrapped__(12, DM, 5, np.dtype(np.float32))
    assert fresh is not tab and np.array_equal(fresh, tab)
    wide = sinusoid_table(12, DM, offset=5)
    assert wide.dtype == np.float64 and np.array_equal(wide.astype(np.float32), tab)


# -- XL cache behaviour ----------------------------------------------------


def test_two_chunk_rows_cover_both_chunks():
    cfg = AttentionConfig(DM, 2, 4, variant="dense", context_mult=2)
    rng = rng_for(15, "chunks")
    params = init_attention_params(cfg, rng)
    x1, x2 = rand_x(rng, 1, 3, DM), rand_x(rng, 1, 3, DM)
    _, _, cache = attention_forward(x1, params, cfg)
    assert cache.k.shape == (1, 2, 3, 4)
    _, trace, _ = attention_forward(x2, params, cfg, cache=cache, want_trace=True)
    assert trace.attn.shape[-1] == 6
    assert np.allclose(trace.attn.sum(-1), 1.0, atol=1e-9)
    assert np.all(trace.attn[..., :4] > 0)   # attends into the cached chunk


def test_chunked_equals_full_window():
    # queries of the second chunk see the same sources and distances either way
    cfg = AttentionConfig(DM, 2, 4, variant="dense", context_mult=2)
    rng = rng_for(16, "window")
    params = init_attention_params(cfg, rng)
    T = 4
    x_full = rand_x(rng, 1, 2 * T, DM)
    x1 = Tensor(x_full.data[:, :T])
    x2 = Tensor(x_full.data[:, T:])
    _, _, cache = attention_forward(x1, params, cfg)
    y_chunk, _, _ = attention_forward(x2, params, cfg, cache=cache)
    full_cfg = AttentionConfig(DM, 2, 4, variant="dense", context_mult=1)
    y_full, _, _ = attention_forward(x_full, params, full_cfg)
    assert np.max(np.abs(y_chunk.data - y_full.data[:, T:])) < 1e-8


def test_cache_fifo_keeps_last_chunks():
    cfg = AttentionConfig(DM, 2, 4, variant="dense", context_mult=3)
    rng = rng_for(17, "fifo")
    params = init_attention_params(cfg, rng)
    cache = None
    ks = []
    for _ in range(4):
        x = rand_x(rng, 1, 2, DM)
        _, _, cache = attention_forward(x, params, cfg, cache=cache)
        ks.append((x.data @ params["w_k"].data).reshape(1, 2, 2, 4).transpose(0, 2, 1, 3))
    want = np.concatenate(ks[-2:], axis=2)   # last C-1 = 2 chunks
    assert np.allclose(cache.k, want, atol=1e-15)


def test_cache_with_context_mult_one_rejected():
    cfg = AttentionConfig(DM, 2, 4, variant="dense", context_mult=1)
    rng = rng_for(18, "c1")
    params = init_attention_params(cfg, rng)
    cache = LayerCache(k=np.zeros((1, 2, 2, 4)), v=np.zeros((1, 2, 2, 4)))
    with pytest.raises(ConfigError):
        attention_forward(rand_x(rng, 1, 2, DM), params, cfg, cache=cache)


def _stream_cases():
    cases = {name: cfg for name, cfg in all_variant_cases().items() if cfg.context_mult > 1}
    cases["dense_c3_nopos"] = AttentionConfig(DM, 2, 4, variant="dense", position="none",
                                              context_mult=3)
    return cases


@pytest.mark.parametrize("name", sorted(_stream_cases()))
def test_one_row_cache_rows_match_chunk_loop(name):
    # G consecutive chunks continuing a one-row cache in one forward:
    # outputs, attention matrices, the final cache and the parameter grads
    # are those of feeding the chunks one at a time (float64, 1e-12)
    cfg = _stream_cases()[name]
    rng = rng_for(27, "one-stream", name)
    params = init_attention_params(cfg, rng)
    T, G = 3, 4
    cache = None
    for _ in range(cfg.context_mult - 1):             # fill the cache
        _, _, cache = attention_forward(rand_x(rng, 1, T, DM), params, cfg, cache=cache)
    x = rand_x(rng, G, T, DM)
    probe = constant(rng.uniform(-1, 1, (G, T, DM)))
    y, trace, new_cache = attention_forward(x, params, cfg, cache=cache, want_trace=True)
    tsum(mul(y, probe)).backward()
    grads = {k: p.grad for k, p in params.items()}
    for p in params.values():
        p.grad = None
    ys, attns, loop_cache = [], [], cache
    for b in range(G):
        yb, tb, loop_cache = attention_forward(Tensor(x.data[b:b + 1]), params, cfg,
                                               cache=loop_cache, want_trace=True)
        ys.append(yb)
        attns.append(tb.attn)
    tsum(mul(concat(ys), probe)).backward()
    assert new_cache.k.shape == loop_cache.k.shape
    for got, want in ((y.data, concat(ys).data), (trace.attn, np.concatenate(attns)),
                      (new_cache.k, loop_cache.k), (new_cache.v, loop_cache.v),
                      *((grads[k], p.grad) for k, p in params.items())):
        assert np.allclose(got, want, rtol=0, atol=1e-12)


def test_one_stream_rejects_bad_caches():
    # a cache of R rows continues B rows only as R runs of B/R chunks, and
    # with R < B it must hold exactly (C-1)*T positions
    cfg = AttentionConfig(DM, 2, 4, variant="dense", context_mult=2)
    rng = rng_for(28, "one-stream-bad")
    params = init_attention_params(cfg, rng)
    x = rand_x(rng, 3, 3, DM)
    two_rows = LayerCache(k=np.zeros((2, 2, 3, 4)), v=np.zeros((2, 2, 3, 4)))
    short = LayerCache(k=np.zeros((1, 2, 2, 4)), v=np.zeros((1, 2, 2, 4)))
    long = LayerCache(k=np.zeros((1, 2, 4, 4)), v=np.zeros((1, 2, 4, 4)))
    for cache in (two_rows, short, long):
        with pytest.raises(ShapeError):
            attention_forward(x, params, cfg, cache=cache)
    # with C = 1 there is no cache to continue
    c1 = AttentionConfig(DM, 2, 4, variant="dense", context_mult=1)
    _, _, cache1 = attention_forward(x, params, c1)
    assert cache1 is None


# -- invariances -----------------------------------------------------------


def test_batch_invariance():
    for name, cfg in all_variant_cases().items():
        rng = rng_for(19, "batch", name)
        params = init_attention_params(cfg, rng)
        xa, xb = rand_x(rng, 1, 4, DM), rand_x(rng, 1, 4, DM)
        both = Tensor(np.concatenate([xa.data, xb.data], axis=0))
        y_both, _, _ = attention_forward(both, params, cfg)
        ya, _, _ = attention_forward(xa, params, cfg)
        yb, _, _ = attention_forward(xb, params, cfg)
        sep = np.concatenate([ya.data, yb.data], axis=0)
        assert np.max(np.abs(y_both.data - sep)) < 1e-12, name
        if cfg.context_mult == 1:
            continue
        # a B-row cache: each row continues its own cache, of any length
        shape = cache_shape(cfg, 2, 3)
        cache = LayerCache(k=rng.uniform(-1, 1, shape), v=rng.uniform(-1, 1, shape))
        y_both, _, c_both = attention_forward(both, params, cfg, cache=cache)
        for b, xr in enumerate((xa, xb)):
            row = LayerCache(k=cache.k[b:b + 1], v=cache.v[b:b + 1])
            yr, _, cr = attention_forward(xr, params, cfg, cache=row)
            assert np.max(np.abs(y_both.data[b] - yr.data[0])) < 1e-12, name
            assert np.array_equal(c_both.k[b:b + 1], cr.k), name
            assert np.array_equal(c_both.v[b:b + 1], cr.v), name


def test_switchhead_expert_permutation_invariance():
    cfg = AttentionConfig(DM, 2, 4, variant="switchhead", position="none",
                          n_experts=4, k_active=2,
                          expert_flags=ExpertFlags.value_output())
    rng = rng_for(20, "perm")
    params = init_attention_params(cfg, rng)
    x = rand_x(rng, 1, 5, DM)
    y1, _, _ = attention_forward(x, params, cfg)
    perm = np.array([2, 0, 3, 1])
    p2 = {k: Tensor(v.data.copy()) for k, v in params.items()}
    p2["w_v"] = Tensor(params["w_v"].data[:, perm])
    p2["w_o"] = Tensor(params["w_o"].data[:, perm])
    p2["w_s"] = Tensor(params["w_s"].data[:, :, perm])
    p2["w_d"] = Tensor(params["w_d"].data[:, :, perm])
    y2, _, _ = attention_forward(x, p2, cfg)
    assert np.max(np.abs(y1.data - y2.data)) < 1e-12


def test_selection_matrices_receive_gradients():
    cfg = AttentionConfig(DM, 2, 4, variant="switchhead", context_mult=2,
                          n_experts=3, k_active=2,
                          expert_flags=ExpertFlags.value_output())
    rng = rng_for(21, "selgrad")
    params = init_attention_params(cfg, rng)
    x = rand_x(rng, 1, 4, DM, grad=True)
    y, _, _ = attention_forward(x, params, cfg)
    tsum(mul(y, constant(rng.uniform(-1, 1, y.shape)))).backward()
    assert params["w_s"].grad is not None and np.any(params["w_s"].grad != 0)
    assert params["w_d"].grad is not None and np.any(params["w_d"].grad != 0)


def test_trace_shapes():
    cfg = all_variant_cases()["switchhead"]
    rng = rng_for(22, "trace")
    params = init_attention_params(cfg, rng)
    _, trace, _ = attention_forward(rand_x(rng, 1, 4, DM), params, cfg,
                                    want_trace=True)
    assert trace.attn.shape == (1, 2, 4, 4)
    idx, w = trace.selections["source"]           # [B, T, H, k]
    assert idx.shape == w.shape == (1, 4, 2, 2)
    assert np.all((idx >= 0) & (idx < cfg.n_experts))
    assert np.all((w >= 0) & (w <= 1))


def test_identity_check_stops_on_a_per_head_selection_list(monkeypatch, capsys):
    # the script reads both checkouts' traces with its own code, so an older
    # layout (one (indices, weights) pair per head) must stop the run, not
    # be unpacked as one pair and compared
    script = Path(__file__).resolve().parents[1] / "scripts" / "identity_check.py"
    spec = importlib.util.spec_from_file_location("identity_check", script)
    identity_check = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(identity_check)
    real_forward = attention.attention_forward

    def per_head_forward(*args, **kwargs):
        y, trace, cache = real_forward(*args, **kwargs)
        for side in ("source", "dest"):
            if side in trace.selections:
                idx, w = trace.selections[side]         # [B, T, H, k]
                trace.selections[side] = [(idx[:, :, h], w[:, :, h])
                                          for h in range(idx.shape[2])]
        return y, trace, cache

    monkeypatch.setattr(attention, "attention_forward", per_head_forward)
    with pytest.raises(SystemExit) as stop:
        identity_check.suite_capture({}, "parent-checkout")
    assert stop.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: parent-checkout: ")
    assert "'f64 switchhead_vo seed=0 B=1 T=4'" in err and "'source'" in err


# -- head-batched layer vs the per-head loop it replaced -------------------


def _loop_mixture(x, bank, sel):
    """sum over slots j of gate_j * x @ bank[idx_j], per token, through
    gather_rows and a batched matmul (no expert dispatch)."""
    y = None
    for j in range(sel.indices.shape[-1]):
        w_tok = gather_rows(bank, sel.indices[..., j])            # [B, T, din, dout]
        o = matmul(reshape(x, x.shape[:-1] + (1, x.shape[-1])), w_tok)
        o = mul(reshape(o, x.shape[:-1] + (bank.shape[-1],)),
                take_last(sel.weights, np.array([j])))
        y = o if y is None else y + o
    return y


def _per_head_switchhead(x, params, cfg, cache):
    """The SwitchHead layer as a Python loop over heads: one router pair,
    projection set, position term and attention per head. ``params`` holds
    a list of per-head leaves for each parameter with a head axis, and the
    shared ``w_r`` as one tensor."""
    B, T, dm = x.shape
    H, dh, E = cfg.n_heads, cfg.d_head, cfg.n_experts
    f = cfg.expert_flags
    sel_cfg = SelectionConfig(E, cfg.k_active)
    sel_s = [select(x, params["w_s"][h], sel_cfg) for h in range(H)] if f.v or f.k else None
    sel_d = [select(x, params["w_d"][h], sel_cfg) for h in range(H)] if f.q or f.o else None
    cache_len = 0 if cache is None else cache.k.shape[2]
    S = cache_len + T
    if cfg.position == "xl_relative":
        pos = Tensor(sinusoid_table(2 * S, dm, offset=S - 1))
        r_proj = matmul(pos, params["w_r"])
    cos, sin = rope_angles(T, dh)

    def project(role, expert, sels, src, h):
        w = params[f"w_{role}"][h]
        return _loop_mixture(src, w, sels[h]) if expert else matmul(src, w)

    y, attn_maps, k_news, v_news = None, [], [], []
    for h in range(H):
        k = project("k", f.k, sel_s, x, h)
        q = project("q", f.q, sel_d, x, h)
        v = project("v", f.v, sel_s, x, h)
        k_news.append(k.data)
        v_news.append(v.data)
        if cache is not None:
            k = concat([constant(cache.k[:, h]), k], axis=1)
            v = concat([constant(cache.v[:, h]), v], axis=1)
        scores = None
        if cfg.position == "xl_relative":
            qv = q + params["v"][h]
            p = matmul(qv, transpose(r_proj))                     # [B, T, 2S]
            idx = (cache_len + np.arange(T)[:, None] - np.arange(S)[None, :]) + (S - 1)
            scores = take_last(p, idx)
            q = q + params["u"][h]
        elif cfg.position == "rope":
            q, k = rope_rotate(q, cos, sin), rope_rotate(k, cos, sin)
        qk = matmul(q, transpose(k, (0, 2, 1)))
        scores = qk if scores is None else qk + scores
        causal = np.where(np.arange(S)[None, :] > cache_len + np.arange(T)[:, None],
                          -1e30, 0.0)
        attn = softmax_last(mul(scores, cfg.scale()) + constant(causal))
        attn_maps.append(attn.data)
        o = project("o", f.o, sel_d, matmul(attn, v), h)
        y = o if y is None else y + o
    new_k = np.concatenate([cache.k, np.stack(k_news, 1)], axis=2)[:, :, -T:] \
        if cache is not None else np.stack(k_news, 1)
    return y, np.stack(attn_maps, 1), new_k, (sel_s, sel_d)


@pytest.mark.parametrize("position", ["xl_relative", "rope", "none"])
@pytest.mark.parametrize("flags", [ExpertFlags.value_output(),
                                   ExpertFlags(v=True, k=True, q=True, o=True)],
                         ids=["vo", "vkqo"])
def test_switchhead_matches_per_head_loop(position, flags):
    C = 2 if position == "xl_relative" else 1
    cfg = AttentionConfig(DM, 2, 4, variant="switchhead", position=position,
                          n_experts=3, k_active=2, expert_flags=flags, context_mult=C)
    rng = rng_for(23, "per-head", position, str(flags))
    B, T = 2, 3
    x_data = rng.uniform(-1, 1, (B, T, DM))
    cache = None
    if C > 1:   # one cached chunk of C - 1 = 1 chunk
        shape = (B, cfg.n_heads, T, cfg.d_head)
        cache = LayerCache(k=rng.uniform(-1, 1, shape), v=rng.uniform(-1, 1, shape))
    probe = constant(rng.uniform(-1, 1, (B, T, DM)))
    params = init_attention_params(cfg, rng)
    ref_params = {name: Tensor(p.data.copy(), requires_grad=True) if name == "w_r"
                  else [Tensor(w.copy(), requires_grad=True) for w in p.data]
                  for name, p in params.items()}

    x = Tensor(x_data, requires_grad=True)
    y, trace, new_cache = attention_forward(x, params, cfg, cache=cache, want_trace=True)
    tsum(mul(y, probe)).backward()
    x_ref = Tensor(x_data, requires_grad=True)
    y_ref, attn_ref, k_ref, (sel_s, sel_d) = _per_head_switchhead(x_ref, ref_params, cfg, cache)
    tsum(mul(y_ref, probe)).backward()

    assert np.max(np.abs(y.data - y_ref.data)) < 1e-10
    assert np.max(np.abs(trace.attn - attn_ref)) < 1e-10
    if cache is not None:
        assert np.max(np.abs(new_cache.k - k_ref)) < 1e-10
    assert np.max(np.abs(x.grad - x_ref.grad)) < 1e-8
    for name, p in params.items():
        ref = ref_params[name]
        ref_grad = ref.grad if name == "w_r" else np.stack([w.grad for w in ref])
        assert np.max(np.abs(p.grad - ref_grad)) < 1e-8, name
    for side, sels in (("source", sel_s), ("dest", sel_d)):
        idx, w = trace.selections[side]           # [B, T, H, k]
        assert idx.shape[2] == cfg.n_heads
        for h, ref in enumerate(sels):
            assert np.array_equal(idx[:, :, h], ref.indices)
            assert np.max(np.abs(w[:, :, h] - ref.weights.data)) < 1e-12
