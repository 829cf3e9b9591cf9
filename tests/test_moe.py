"""Expert selection and mixtures vs brute-force oracles."""

import sys
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from switchlab import attention, moe, tensor
from switchlab.attention import AttentionConfig, ExpertFlags
from switchlab.counter import OpCounter
from switchlab.model import MLPConfig, ModelSpec, build
from switchlab.moe import ConfigError, Route, SelectionConfig, dispatch, select, sigma_moe_mlp
from switchlab.rng import rng_for, uniform_init
from switchlab.tensor import (ExpertPlan, ShapeError, Tensor, argtopk_rows, constant,
                              matmul, mul, reshape, sigmoid, take_last, tsum)


def rand_inputs(seed, n=7, dm=6, E=5):
    rng = rng_for(seed, "moe")
    x = Tensor(rng.uniform(-1, 1, (n, dm)), requires_grad=True)
    w_sel = Tensor(uniform_init(rng, (dm, E), dm), requires_grad=True)
    return rng, x, w_sel


def test_selection_config_validation():
    with pytest.raises(ConfigError):
        SelectionConfig(0, 1).validate()
    with pytest.raises(ConfigError):
        SelectionConfig(3, 4).validate()


@pytest.mark.parametrize("seed", range(6))
def test_select_topk_matches_bruteforce(seed):
    rng, x, w_sel = rand_inputs(seed)
    k = int(rng.integers(1, 6))
    sel = select(x, w_sel, SelectionConfig(5, k))
    logits = x.data @ w_sel.data
    for t in range(x.shape[0]):
        order = sorted(range(5), key=lambda e: (-logits[t, e], e))[:k]
        assert list(sel.indices[t]) == sorted(order)
        expected = 1.0 / (1.0 + np.exp(-logits[t, sel.indices[t]]))
        assert np.allclose(sel.weights.data[t], expected, atol=1e-12)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_select_sigmoid_gates_match_full_sigmoid_oracle(dtype):
    # select applies the sigmoid to the k selected logits only; the earlier
    # form, a sigmoid over every expert's logit and then the top-k gather, is
    # the oracle: indices, gate values and grads bit for bit
    rng = rng_for(21, "moe-sigmoid")
    x = rng.uniform(-3, 3, (9, 6)).astype(dtype)
    w_sel = uniform_init(rng, (6, 5), 6).astype(dtype)
    w_gate = rng.uniform(-1, 1, (9, 2)).astype(dtype)
    x1, w1 = Tensor(x, requires_grad=True), Tensor(w_sel, requires_grad=True)
    sel = select(x1, w1, SelectionConfig(5, 2))
    tsum(mul(sel.weights, constant(w_gate))).backward()
    x2, w2 = Tensor(x, requires_grad=True), Tensor(w_sel, requires_grad=True)
    logits = matmul(x2, w2)
    indices = argtopk_rows(logits.data, 2)
    weights = take_last(sigmoid(logits), indices)
    tsum(mul(weights, constant(w_gate))).backward()
    assert np.array_equal(sel.indices, indices)
    assert sel.weights.data.dtype == dtype
    assert np.array_equal(sel.weights.data, weights.data)
    assert np.array_equal(x1.grad, x2.grad)
    assert np.array_equal(w1.grad, w2.grad)


def test_select_sigmoid_noncompetitive():
    # scaling every logit up pushes all sigmoid gates toward 1: the gates
    # are per-expert, never normalized across experts
    x = Tensor(np.full((1, 2), 4.0))
    w = Tensor(np.ones((2, 3)))
    sel = select(x, w, SelectionConfig(3, 2))
    assert np.all(sel.weights.data > 0.99)
    assert sel.weights.data.sum() > 1.5


@pytest.mark.parametrize("G", [1, 2, 3])
def test_select_bank_matches_per_router_calls(G):
    # a bank [G, dm, E] is G routers in one GEMM and one top-k: the same
    # indices, gates and selection counts as one select per router
    rng = rng_for(G, "moe-bank", "sigmoid")
    x = Tensor(rng.uniform(-1, 1, (2, 7, 6)))
    bank = Tensor(uniform_init(rng, (G, 6, 5), 6))
    cfg = SelectionConfig(5, 2)
    c_bank, c_each = OpCounter(), OpCounter()
    sel = select(x, bank, cfg, c_bank)
    assert sel.indices.shape == sel.weights.shape == (2, 7, G, 2)
    for g in range(G):
        ref = select(x, Tensor(bank.data[g]), cfg, c_each)
        assert np.array_equal(sel.indices[..., g, :], ref.indices)
        assert np.max(np.abs(sel.weights.data[..., g, :] - ref.weights.data)) <= 1e-15
    assert c_bank.extras["selection"] == c_each.extras["selection"]


def one_head_route(sel, n_experts=5, **kw):
    # a [n, k] selection as one head's route over a batch of one sequence
    return Route(ExpertPlan(sel.indices[None], n_experts),
                 reshape(sel.weights, (1,) + sel.weights.shape), **kw)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("gate", ["output", "input"])
def test_mixture_project_matches_materialized_oracle(seed, gate):
    # token rows into the rows of one head, stored or not, with widths that
    # gate the 4-wide results or the 6-wide inputs
    rng, x, w_sel = rand_inputs(seed)
    n, E, d_in = 7, 5, 6
    d_out = 4 if gate == "output" else 8
    bank = Tensor(uniform_init(rng, (E, d_in, d_out), d_in), requires_grad=True)
    sel = select(x, w_sel, SelectionConfig(E, 2))
    route = one_head_route(sel)
    stored = dispatch(reshape(x, (1, 1, n, d_in)), bank, route, 1)
    unstored = dispatch(reshape(x, (1, 1, n, d_in)), bank, route, 1, store=False)
    assert stored.shape == unstored.shape == (1, 1, n, d_out)
    assert np.array_equal(stored.data, unstored.data)
    # oracle: per token, materialize the mixed projection matrix
    for t in range(n):
        w_mix = np.zeros((d_in, d_out))
        for slot, e in enumerate(sel.indices[t]):
            w_mix += sel.weights.data[t, slot] * bank.data[e]
        assert np.allclose(stored.data[0, 0, t], x.data[t] @ w_mix, atol=1e-12)


def test_mixture_project_counter():
    # the dispatch gates, and counts, the narrower of its two sides
    rng, x, w_sel = rand_inputs(0)
    E, d_in, k, n = 5, 6, 2, 7
    narrow = Tensor(uniform_init(rng, (E, d_in, 4), d_in))     # gates the results
    wide = Tensor(uniform_init(rng, (E, d_in, 9), d_in))       # gates the inputs
    sel = select(x, w_sel, SelectionConfig(E, k))
    route = one_head_route(sel)
    x4 = reshape(x, (1, 1, n, d_in))
    c = OpCounter()     # stored rows, gate on the 4-wide results
    dispatch(x4, narrow, route, 1, c)
    assert c.terms["mixing"] == [n * k * d_in * 4 + n * k * 4, n * 4]
    c2 = OpCounter()    # not stored, gate on the 6-wide inputs
    dispatch(x4, wide, route, 1, c2, store=False)
    assert c2.terms["mixing"] == [n * k * d_in * 9 + n * k * d_in, 0]
    c3 = OpCounter()    # the gate multiply itemized as an extra (MoA, head gating)
    dispatch(x4, wide, one_head_route(sel, term="projections", gate_term="selection"), 1,
             c3, store=False)
    assert c3.terms == {"projections": [n * k * d_in * 9, 0]}
    assert c3.extras["selection"] == [n * k * d_in, 0]


def test_mixture_permutation_invariance():
    # permuting the expert bank together with the selector columns leaves
    # the mixture output unchanged
    rng, x, w_sel = rand_inputs(8)
    n, E, d_in, d_out = 7, 5, 6, 4
    bank = Tensor(uniform_init(rng, (E, d_in, d_out), d_in))
    cfg = SelectionConfig(E, 2)
    x4 = reshape(x, (1, 1, n, d_in))
    y1 = dispatch(x4, bank, one_head_route(select(x, w_sel, cfg)), 1)
    perm = np.array([3, 0, 4, 1, 2])
    bank_p = Tensor(bank.data[perm])
    w_sel_p = Tensor(w_sel.data[:, perm])
    y2 = dispatch(x4, bank_p, one_head_route(select(x, w_sel_p, cfg)), 1)
    assert np.max(np.abs(y1.data - y2.data)) < 1e-12


def test_mixture_shape_and_range_errors():
    rng, x, w_sel = rand_inputs(1)
    n = 7
    sel = select(x, w_sel, SelectionConfig(5, 2))
    route = one_head_route(sel)
    x4 = reshape(x, (1, 1, n, 6))
    with pytest.raises(ShapeError):       # d_in 9 against inputs of width 6
        dispatch(x4, Tensor(np.zeros((5, 9, 4))), route, 1)
    with pytest.raises(ShapeError):       # a bank of 3 experts for a plan over 5
        dispatch(x4, Tensor(np.zeros((3, 6, 4))), route, 1)
    with pytest.raises(ShapeError):       # a plan over 3 experts, routes to expert 4
        ExpertPlan(sel.indices[None], 3)
    with pytest.raises(ShapeError):       # 3 slots split unequally over 2 heads
        dispatch(x4, Tensor(np.zeros((5, 6, 4))),
                 Route(ExpertPlan(np.zeros((1, n, 3), dtype=int), 5)), 2)
    with pytest.raises(ShapeError):       # a route over 5 tokens against 7
        dispatch(x4, Tensor(np.zeros((5, 6, 4))), Route(ExpertPlan(sel.indices[None, :5], 5)), 1)
    with pytest.raises(ShapeError):       # own-expert rows: 1 head row for 5 experts
        dispatch(x4, Tensor(np.zeros((5, 6, 4))), Route(route.plan, own_rows=True), 1)
    eid = np.array(sel.indices[None])
    eid[0, 0] = 2
    with pytest.raises(ShapeError):       # own-expert rows: token 0 names expert 2 twice
        dispatch(Tensor(np.zeros((1, 5, n, 6))), Tensor(np.zeros((5, 6, 4))),
                 Route(ExpertPlan(eid, 5), own_rows=True), 1)


@st.composite
def head_major_cases(draw):
    """Random (B, H, T, E) in the layouts the routers make. Into head rows
    and back, slot j of a token serves head j // m, m slots per head
    (SwitchHead: m = K; MoA: m = 1, each slot a head); back from head rows
    only, a token may instead read its own experts' rows, k distinct heads
    of E = H in ascending order as top-k gives them (head gating)."""
    B, H, T, E = (draw(st.integers(1, 3)), draw(st.integers(1, 3)),
                  draw(st.integers(1, 4)), draw(st.integers(1, 5)))
    to_heads = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    own = not to_heads and draw(st.booleans())
    if own:
        E = H
        eid = np.sort(np.argsort(rng.uniform(size=(B, T, H)), axis=-1)
                      [..., :draw(st.integers(1, H))], axis=-1)
    else:
        eid = rng.integers(0, E, size=(B, T, H * draw(st.integers(1, 3))))
    return dict(B=B, H=H, T=T, E=E, own=own, to_heads=to_heads, eid=eid,
                seed=draw(st.integers(0, 2**16)),
                gated=draw(st.booleans()),
                d_in=draw(st.integers(1, 4)), d_out=draw(st.integers(1, 4)))


@settings(max_examples=60, deadline=None)
@given(head_major_cases())
# MoA: two slots, each its own head, ungated into heads
@example(dict(B=2, H=2, T=3, E=4, own=False, to_heads=True,
              eid=np.array([[[0, 3], [1, 2], [0, 1]], [[2, 3], [0, 2], [1, 3]]]),
              seed=1, gated=False, d_in=3, d_out=2))
# head gating: 2 of 3 heads per token, gated on the narrower read rows
@example(dict(B=1, H=3, T=2, E=3, own=True, to_heads=False,
              eid=np.array([[[0, 2], [1, 2]]]), seed=2, gated=True, d_in=2, d_out=3))
def test_head_major_dispatch_matches_per_token_loop(case):
    B, H, T, E, d_in, d_out = (case[k] for k in ("B", "H", "T", "E", "d_in", "d_out"))
    own, eid, to_heads = case["own"], case["eid"], case["to_heads"]
    rng = np.random.default_rng(case["seed"])
    bank = Tensor(rng.uniform(-1, 1, (E, d_in, d_out)), requires_grad=True)
    gate = (Tensor(rng.uniform(-1, 1, eid.shape), requires_grad=True) if case["gated"]
            else None)
    route = Route(ExpertPlan(eid, E), gate, own_rows=own)
    x_shape = (B, 1, T, d_in) if to_heads else (B, H, T, d_in)
    x = Tensor(rng.uniform(-1, 1, x_shape), requires_grad=True)
    c = OpCounter()
    y = dispatch(x, bank, route, H if to_heads else 1, c, store=to_heads)
    w = rng.uniform(-1, 1, y.shape)
    tsum(mul(y, constant(w))).backward()

    a = eid.shape[-1]
    heads = eid if own else np.broadcast_to(np.arange(a) // (a // H), eid.shape)
    want, gx, gbank = np.zeros(y.shape), np.zeros(x_shape), np.zeros(bank.shape)
    ggate = np.zeros(eid.shape)
    for b, t, j in product(range(B), range(T), range(eid.shape[-1])):
        h, W = heads[b, t, j], bank.data[eid[b, t, j]]
        scale = 1.0 if gate is None else gate.data[b, t, j]
        xi = (b, 0, t) if to_heads else (b, h, t)
        yi = (b, h, t) if to_heads else (b, 0, t)
        want[yi] += scale * (x.data[xi] @ W)
        gx[xi] += scale * (W @ w[yi])
        gbank[eid[b, t, j]] += scale * np.outer(x.data[xi], w[yi])
        ggate[b, t, j] = x.data[xi] @ W @ w[yi]
    for got, ref in ((y.data, want), (x.grad, gx), (bank.grad, gbank)):
        assert np.allclose(got, ref, rtol=1e-12, atol=1e-12)
    if gate is not None:
        assert np.allclose(gate.grad, ggate, rtol=1e-12, atol=1e-12)
    A = eid.size
    gate_macs = A * min(d_in, d_out) if case["gated"] else 0
    stored = y.size if to_heads else 0
    assert c.terms["mixing"] == [A * d_in * d_out + gate_macs, stored]


@pytest.mark.parametrize("seed", range(4))
def test_sigma_moe_matches_loop_oracle(seed):
    rng = rng_for(seed, "sigma")
    n, dm, dx, E, k = 6, 5, 7, 4, 2
    x = Tensor(rng.uniform(-1, 1, (n, dm)), requires_grad=True)
    up = Tensor(uniform_init(rng, (E, dm, dx), dm), requires_grad=True)
    down = Tensor(uniform_init(rng, (E, dx, dm), dx), requires_grad=True)
    w_sel = Tensor(uniform_init(rng, (dm, E), dm), requires_grad=True)
    cfg = SelectionConfig(E, k)
    y = sigma_moe_mlp(x, up, down, w_sel, cfg)
    sel = select(x, w_sel, cfg)
    for t in range(n):
        want = np.zeros(dm)
        for slot, e in enumerate(sel.indices[t]):
            h = np.maximum(x.data[t] @ up.data[e], 0.0)
            want += sel.weights.data[t, slot] * (h @ down.data[e])
        assert np.allclose(y.data[t], want, atol=1e-12)


def test_sigma_moe_gradients_flow_to_selector():
    rng = rng_for(3, "sigma-grad")
    n, dm, dx, E = 5, 4, 6, 3
    x = Tensor(rng.uniform(-1, 1, (n, dm)), requires_grad=True)
    up = Tensor(uniform_init(rng, (E, dm, dx), dm), requires_grad=True)
    down = Tensor(uniform_init(rng, (E, dx, dm), dx), requires_grad=True)
    w_sel = Tensor(uniform_init(rng, (dm, E), dm), requires_grad=True)
    cfg = SelectionConfig(E, 2)
    w = rng.uniform(-1, 1, (n, dm))
    tsum(mul(sigma_moe_mlp(x, up, down, w_sel, cfg), constant(w))).backward()
    for t in (x, up, down, w_sel):
        assert t.grad is not None and np.any(t.grad != 0)


def test_each_selection_is_sorted_once(monkeypatch):
    # one forward and backward of a layer with SwitchHead on all four roles
    # and a sigma-MoE MLP: the source side (K, V), the destination side
    # (Q, O) and the MLP (up, down) are three routing decisions, and each is
    # sorted by expert once, for all its dispatches and their backwards, and
    # each is one select: one per side over its bank of H routers, one for
    # the MLP
    H = 2
    attn = AttentionConfig(12, H, 4, variant="switchhead", n_experts=3, k_active=2,
                           expert_flags=ExpertFlags(v=True, k=True, q=True, o=True))
    model = build(ModelSpec(1, 12, attn, MLPConfig("sigma_moe", 7, n_experts=3, k_active=2),
                            11, T=5), 0)
    calls = {"sort": 0, "select": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(tensor, "_stable_order", counted("sort", tensor._stable_order))
    counted_select = counted("select", moe.select)
    for module in (moe, attention):
        monkeypatch.setattr(module, "select", counted_select)
    toks = rng_for(0, "sort-once").integers(11, size=(2, 5))
    logits, _, _ = model.forward(toks)
    tsum(logits).backward()
    assert calls == {"sort": 3, "select": 3}


def test_head_gating_gathers_no_head_rows(monkeypatch):
    # a head-gated model's forward and backward index rows with gather_rows
    # once, for the embedding: each head-gated O reads its selected heads
    # through the plan's own-expert rows, with no gather before the dispatch
    attn = AttentionConfig(12, 3, 4, variant="head_gated", k_active=2)
    model = build(ModelSpec(2, 12, attn, MLPConfig("dense", 7), 11, T=5), 0)
    calls = []
    original = tensor.gather_rows

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("switchlab"):
            for name, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, name, counted)
    toks = rng_for(0, "gather-once").integers(11, size=(2, 5))
    logits, _, _ = model.forward(toks)
    tsum(logits).backward()
    assert len(calls) == 1
