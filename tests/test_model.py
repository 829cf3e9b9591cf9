"""Model assembly, exact parameter counting, and the matching search."""

import weakref

import numpy as np
import pytest

from switchlab import attention, moe, tensor
from switchlab import model as model_module
from switchlab.attention import AttentionConfig, ExpertFlags, init_attention_params
from switchlab.counter import OpCounter
from switchlab.model import (MatchingError, MLPConfig, ModelSpec, build,
                             count_params, match_params, match_report, param_shapes)
from switchlab.moe import ConfigError
from switchlab.rng import rng_for
from switchlab.tensor import Tensor, cross_entropy


def dense_spec(H=2, dh=8, dff=32, L=2, dm=16, vocab=19, T=8, **kw):
    return ModelSpec(L, dm, AttentionConfig(dm, H, dh, variant="dense",
                                            context_mult=kw.pop("C", 1)),
                     MLPConfig("dense", dff), vocab, T=T, **kw)


def wikitext_47m_dense():
    return ModelSpec(16, 412, AttentionConfig(412, 10, 41, variant="dense",
                                              context_mult=2),
                     MLPConfig("dense", 2053), 8000, T=256)


def wikitext_47m_template():
    return ModelSpec(16, 412,
                     AttentionConfig(412, 2, 4, variant="switchhead",
                                     context_mult=2, n_experts=5, k_active=2,
                                     expert_flags=ExpertFlags.value_output()),
                     MLPConfig("dense", 2053), 8000, T=256)


# -- spec validation -------------------------------------------------------


def test_spec_validation_lists_problems():
    spec = dense_spec()
    spec.d_model = 17  # attention still says 16
    spec.n_classes = 1
    with pytest.raises(ConfigError) as e:
        spec.validate()
    msg = str(e.value)
    assert "d_model" in msg and "n_classes" in msg


def test_mlp_config_validation():
    with pytest.raises(ConfigError):
        MLPConfig("fancy", 8).validate()
    with pytest.raises(ConfigError):
        MLPConfig("dense", 8, n_experts=2).validate()
    with pytest.raises(ConfigError):
        MLPConfig("sigma_moe", 8, n_experts=2, k_active=3).validate()


# -- counting vs instantiation --------------------------------------------


def test_zero_layer_model_counts():
    spec = dense_spec(L=0)
    m = build(spec, 0)
    assert list(param_shapes(spec).items()) == [(n, p.shape) for n, p in m.params.items()]
    # embedding + readout + final layer norm only
    assert count_params(spec) == 2 * 19 * 16 + 2 * 16


@pytest.mark.parametrize("seed", range(25))
def test_count_matches_instantiation_random_specs(seed):
    rng = rng_for(seed, "specs")
    variant = str(rng.choice(["dense", "head_gated", "switchhead", "moa"]))
    dm = int(rng.integers(4, 17))
    H = int(rng.integers(1, 4))
    dh = int(rng.integers(2, 9))
    E = int(rng.integers(2, 5))
    k = int(rng.integers(1, E + 1))
    pos = str(rng.choice(["xl_relative", "rope", "none"]))
    C = 1 if pos == "rope" else int(rng.integers(1, 3))
    if pos == "rope" and dh % 2:
        dh += 1
    if variant == "dense":
        attn = AttentionConfig(dm, H, dh, variant="dense", position=pos, context_mult=C)
    elif variant == "head_gated":
        attn = AttentionConfig(dm, H, dh, variant="head_gated", position=pos,
                               context_mult=C, k_active=int(rng.integers(1, H + 1)))
    elif variant == "switchhead":
        attn = AttentionConfig(dm, H, dh, variant="switchhead", position=pos,
                               context_mult=C, n_experts=E, k_active=k,
                               expert_flags=ExpertFlags(v=True,
                                                        k=bool(rng.integers(2)),
                                                        q=bool(rng.integers(2)),
                                                        o=bool(rng.integers(2))))
    else:
        attn = AttentionConfig(dm, k, dh, variant="moa", position=pos,
                               context_mult=C, n_experts=E, k_active=k)
    if rng.random() < 0.5:
        mlp = MLPConfig("dense", int(rng.integers(2, 20)))
    else:
        mlp = MLPConfig("sigma_moe", int(rng.integers(2, 10)), E, k)
    n_classes = None if rng.integers(2) else int(rng.integers(2, 8))
    spec = ModelSpec(int(rng.integers(0, 3)), dm, attn, mlp,
                     int(rng.integers(5, 30)), T=8, n_classes=n_classes)
    m = build(spec, seed)
    assert count_params(spec) == sum(p.size for p in m.params.values())
    # the table checkpoint.load checks an index against, in build's order
    shapes = param_shapes(spec)
    assert list(shapes.items()) == [(n, p.shape) for n, p in m.params.items()]


def layout_grid():
    """Every attention variant x MLP kind x head kind x one or two layers."""
    dm = 12
    attns = [
        AttentionConfig(dm, 2, 4, variant="dense", context_mult=2),
        AttentionConfig(dm, 3, 4, variant="head_gated", k_active=2),
        AttentionConfig(dm, 2, 4, variant="switchhead", n_experts=3, k_active=2,
                        expert_flags=ExpertFlags(v=True, k=True, q=True, o=True)),
        AttentionConfig(dm, 2, 4, variant="switchhead", position="rope", n_experts=3,
                        k_active=1, expert_flags=ExpertFlags.value_output()),
        AttentionConfig(dm, 2, 4, variant="moa", n_experts=4, k_active=2, context_mult=2),
    ]
    mlps = [MLPConfig("dense", 10), MLPConfig("sigma_moe", 5, 3, 2)]
    heads = [4, None]
    return [ModelSpec(L, dm, a, m, 9, T=4, n_classes=h)
            for a in attns for m in mlps for h in heads for L in (1, 2)]


@pytest.mark.parametrize("spec", layout_grid())
def test_param_layout_matches_build(spec):
    m = build(spec, 7)
    assert list(param_shapes(spec).items()) == [(n, p.shape) for n, p in m.params.items()]
    built = sum(p.size for p in m.params.values())
    assert count_params(spec) == built
    # the counting conventions differ from the build in w_r's width only:
    # one [dm, dh] block per position head, or one shared block
    a, L = spec.attention, spec.n_layers
    pos_heads = 1 if a.variant == "moa" else a.n_heads
    for per_head in (True, False):
        if a.position != "xl_relative":
            want = built
        else:
            w_r = m.params["layers.0.attn.w_r"].size
            want = built + L * (a.d_model * a.d_head * (pos_heads if per_head else 1) - w_r)
        assert count_params(spec, per_head) == want


@pytest.mark.parametrize("spec", layout_grid())
def test_layer_attention_draws_from_one_shared_stream(spec):
    # each layer's attention parameters are one draw of the stream
    # layers.{i}.attn, in attention_param_shapes order
    seed = 5
    m = build(spec, seed)
    for i in range(spec.n_layers):
        lone = init_attention_params(spec.attention, rng_for(seed, "model", f"layers.{i}.attn"))
        for k, p in lone.items():
            got = m.params[f"layers.{i}.attn.{k}"].data
            assert got.dtype == np.float32
            assert np.array_equal(got, p.data.astype(np.float32))


def test_switchhead_params_linear_in_experts_all_flags():
    def spec_for(E):
        return ModelSpec(1, 16, AttentionConfig(16, 2, 4, variant="switchhead",
                                                n_experts=E, k_active=1,
                                                expert_flags=ExpertFlags(
                                                    v=True, k=True, q=True, o=True)),
                         MLPConfig("dense", 8), 19, T=8)
    counts = [count_params(spec_for(E)) for E in (1, 2, 3, 4)]
    diffs = np.diff(counts)
    assert np.all(diffs == diffs[0]) and diffs[0] > 0


# -- forward behaviour -----------------------------------------------------


def test_forward_shapes_and_determinism():
    spec = dense_spec(C=2)
    m = build(spec, 7)
    toks = rng_for(0, "toks").integers(19, size=(3, 8))
    logits, traces, caches = m.forward(toks)
    assert logits.shape == (3, 8, 19)
    assert len(traces) == 2 and len(caches) == 2
    m2 = build(spec, 7)
    logits2, _, _ = m2.forward(toks)
    assert np.array_equal(logits.data, logits2.data)
    m3 = build(spec, 8)
    logits3, _, _ = m3.forward(toks)
    assert not np.array_equal(logits.data, logits3.data)


@pytest.mark.parametrize("head", [dict(n_classes=4), dict()], ids=["classifier", "lm"])
@pytest.mark.parametrize("attn,mlp", [
    (AttentionConfig(12, 2, 4, variant="dense", context_mult=2), MLPConfig("dense", 10)),
    (AttentionConfig(12, 2, 4, variant="switchhead", n_experts=3, k_active=2,
                     context_mult=2, expert_flags=ExpertFlags.value_output()),
     MLPConfig("sigma_moe", 5, 3, 2)),
    (AttentionConfig(12, 2, 4, variant="moa", n_experts=4, k_active=2, context_mult=2),
     MLPConfig("dense", 10)),
    (AttentionConfig(12, 3, 4, variant="head_gated", k_active=2, context_mult=2),
     MLPConfig("dense", 10)),
], ids=["dense", "switchhead_sigma_moe", "moa", "head_gated"])
def test_headline_counts_are_the_sums_of_the_terms(attn, mlp, head):
    # every counted MAC and stored float of a whole model lands in one term;
    # the LM readout and the classifier head have none of their own and
    # count under 'other'
    B, T, dm, vocab = 3, 5, 12, 9
    model = build(ModelSpec(2, dm, attn, mlp, vocab, T=T, **head), 0)
    c = OpCounter()
    model.forward(rng_for(0, "count-toks").integers(vocab, size=(B, T)), counter=c)
    assert c.macs == sum(m for m, _ in c.terms.values())
    assert c.mem_floats == sum(v for _, v in c.terms.values())
    out = head.get("n_classes") or T * vocab
    assert c.terms["other"] == [B * dm * out, 0]


_ALL = ExpertFlags(v=True, k=True, q=True, o=True)


@pytest.mark.parametrize("attn", [
    AttentionConfig(12, 3, 4, variant="dense", context_mult=2),
    AttentionConfig(12, 3, 4, variant="dense", position="rope"),
    AttentionConfig(12, 3, 4, variant="dense", position="none"),
    AttentionConfig(12, 3, 4, variant="head_gated", k_active=2, context_mult=2),
    AttentionConfig(12, 2, 4, variant="switchhead", n_experts=3, k_active=2,
                    context_mult=2, expert_flags=ExpertFlags.value_output()),
    AttentionConfig(12, 2, 4, variant="switchhead", n_experts=3, k_active=2,
                    expert_flags=_ALL),
    AttentionConfig(12, 2, 4, variant="moa", n_experts=4, k_active=2, context_mult=2),
], ids=["dense_xl", "dense_rope", "dense_none", "head_gated", "switchhead_vo",
        "switchhead_all", "moa"])
def test_tape_holds_only_the_probabilities_of_the_score_chain(attn, tape_arrays):
    # of the attention score chain, a layer's tape keeps its [B, H, T, S]
    # probabilities alone, and no [..., T, 2S] position scores; no other
    # array the tape holds has a trailing (T, S) or (T, 2S)
    T, n_layers = 5, 2
    model = build(ModelSpec(n_layers, 12, attn, MLPConfig("dense", 7), 11, T=T), 0)
    toks = rng_for(0, "tape-toks").integers(11, size=(2, T))
    caches = None
    if attn.context_mult > 1:      # the second chunk attends to a cached one
        _, _, caches = model.forward(toks)
    logits, _, _ = model.forward(toks, caches=caches)
    S = T * attn.context_mult
    shapes = [a.shape[-2:] for a in tape_arrays(logits)]
    assert shapes.count((T, S)) == n_layers
    assert (T, 2 * S) not in shapes


@pytest.fixture
def tensor_values(monkeypatch):
    """The data of every tensor made while the test runs: op outputs,
    constants and parameters."""
    made = []
    real_init = Tensor.__init__

    def init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        made.append(self.data)

    monkeypatch.setattr(Tensor, "__init__", init)
    return made


def _base(a):
    while a.base is not None:
        a = a.base
    return id(a)


_B, _T = 2, 5


@pytest.mark.parametrize("attn, mlp", [
    # V gates its [A, dh] results, A = B*T*H*K; O is gated on its inputs
    (AttentionConfig(12, 2, 4, variant="switchhead", n_experts=3, k_active=2,
                     expert_flags=ExpertFlags.value_output()),
     MLPConfig("dense", 7)),
    # K, Q and V gate their results, O its inputs
    (AttentionConfig(12, 2, 4, variant="switchhead", n_experts=3, k_active=2,
                     context_mult=2, expert_flags=_ALL),
     MLPConfig("dense", 7)),
    # MoA: the ungated q heads keep nothing, the o experts gate their inputs
    (AttentionConfig(12, 2, 4, variant="moa", n_experts=4, k_active=2, context_mult=2),
     MLPConfig("dense", 7)),
    # sigma-MoE: the hidden rows are tensor data, down gates its 7-wide inputs
    (AttentionConfig(12, 2, 4, variant="dense"),
     MLPConfig("sigma_moe", 7, n_experts=3, k_active=2)),
], ids=["switchhead_vo", "switchhead_all", "moa", "sigma_moe"])
def test_tape_holds_no_routed_temporaries(attn, mlp, tape_arrays, tensor_values):
    # a layer's backward closures keep none of the routed path's [A, d]
    # arrays (A = tokens x slots): gathered rows, gated copies and the
    # results of a dispatch, input- or output-gated, are not kept; an
    # output gate's grad forms the ungated results again (the temporaries
    # are the held arrays that are no tensor's data)
    n_layers = 2
    model = build(ModelSpec(n_layers, 12, attn, mlp, 11, T=_T), 0)
    toks = rng_for(0, "routed-tape-toks").integers(11, size=(_B, _T))
    caches = None
    if attn.context_mult > 1:      # the second chunk attends to a cached one
        _, _, caches = model.forward(toks)
    logits, _, _ = model.forward(toks, caches=caches)
    values = {_base(a) for a in tensor_values}
    slot_rows = {_B * _T * a for a in (2, 3, 4)}
    found = [a.shape for a in tape_arrays(logits)
             if _base(a) not in values and a.ndim == 2 and a.shape[0] in slot_rows]
    assert found == []


@pytest.mark.parametrize("mlp, n_relu", [(MLPConfig("dense", 7), 0),
                                         (MLPConfig("sigma_moe", 7, n_experts=3, k_active=2), 2)],
                         ids=["dense_mlp", "sigma_moe"])
def test_forward_drops_what_no_backward_reads(mlp, n_relu, monkeypatch, tape_arrays):
    # residual sums, the sigma-MoE's pre-ReLU up projection, the routed O
    # projection's output and every layer-norm output (whose readers, the
    # routers, the K/Q/V projections, the MLP and the LM head, keep its
    # rebuild) die as soon as the forward drops them, with the tape alive; a
    # sigma-MoE ReLU output, which its own backward reads, lives until
    # backward frees the tape; the dense MLP is one op whose backward forms
    # its hidden again, so no [B*T, d_ff] array is held
    attn = AttentionConfig(12, 2, 4, variant="switchhead", n_experts=3, k_active=2,
                           expert_flags=ExpertFlags.value_output())
    model = build(ModelSpec(2, 12, attn, mlp, 11, T=_T), 0)
    dead = {"residual": [], "pre_relu": [], "o_proj": [], "norm": []}
    held = []
    real_add, real_relu, real_dispatch = tensor.add, tensor.relu, attention.dispatch
    real_layer_norm = model_module.layer_norm

    def add(a, b):
        out = real_add(a, b)
        if out.shape == (_B, _T, 12):
            dead["residual"].append(weakref.ref(out.data))
        return out

    def relu(x):
        out = real_relu(x)
        dead["pre_relu"].append(weakref.ref(x.data))
        held.append(weakref.ref(out.data))
        return out

    def dispatch(x, bank, route, n_out, *args, **kwargs):
        out = real_dispatch(x, bank, route, n_out, *args, **kwargs)
        if n_out == 1:                 # the O role: head rows back to tokens
            dead["o_proj"].extend([weakref.ref(out.data), weakref.ref(out.data.base)])
        return out

    def layer_norm(x, gain, bias):
        out = real_layer_norm(x, gain, bias)
        dead["norm"].extend([weakref.ref(out.data), weakref.ref(out.data.base)])
        return out

    monkeypatch.setattr(tensor, "add", add)
    monkeypatch.setattr(moe, "relu", relu)
    monkeypatch.setattr(attention, "dispatch", dispatch)
    monkeypatch.setattr(model_module, "layer_norm", layer_norm)
    toks = rng_for(0, "drop-toks").integers(11, size=(_B, _T))
    logits, _, _ = model.forward(toks)
    assert ({k: len(v) for k, v in dead.items()}
            == {"residual": 4, "pre_relu": n_relu, "o_proj": 4, "norm": 10})
    assert all(ref() is None for refs in dead.values() for ref in refs)
    assert len(held) == n_relu and all(ref() is not None for ref in held)
    assert not [a.shape for a in tape_arrays(logits)
                if a.shape[-1] == mlp.d_ff and a.size == _B * _T * mlp.d_ff]
    cross_entropy(logits, toks).backward()
    assert all(ref() is None for ref in held)


def test_forward_rejects_bad_tokens():
    m = build(dense_spec(), 0)
    from switchlab.tensor import ShapeError
    with pytest.raises(ShapeError):
        m.forward(np.array([[99]]))
    # ids are [B, T] only: a bare [T] row or a [B, T, 1] block is refused
    for tokens in (np.arange(4), np.arange(4).reshape(1, 4, 1)):
        with pytest.raises(ShapeError):
            m.forward(tokens)


def test_47m_row_builds_and_runs_small():
    # published-geometry row, scaled to 1 layer / T=8 for a quick forward
    spec = ModelSpec(1, 412, AttentionConfig(412, 10, 41, variant="dense",
                                             context_mult=2),
                     MLPConfig("dense", 2053), 64, T=8)
    m = build(spec, 0)
    logits, _, _ = m.forward(np.arange(8)[None, :])
    assert logits.shape == (1, 8, 64)


def test_switchall_double_reduction_matches_dense(unit_gates):
    # E=1 everywhere with gates forced to 1 equals the dense twin built from
    # the same weights.
    dm, vocab, T = 12, 13, 6
    spec = ModelSpec(1, dm,
                     AttentionConfig(dm, 2, 4, variant="switchhead",
                                     position="none", n_experts=1, k_active=1,
                                     expert_flags=ExpertFlags(v=True, k=True,
                                                              q=True, o=True)),
                     MLPConfig("sigma_moe", 10, 1, 1), vocab, T=T)
    m = build(spec, 3).astype(np.float64)
    dense = ModelSpec(1, dm,
                      AttentionConfig(dm, 2, 4, variant="dense", position="none"),
                      MLPConfig("dense", 10), vocab, T=T)
    md = build(dense, 0).astype(np.float64)
    md.params["embed"].data = m.params["embed"].data.copy()
    md.params["readout"].data = m.params["readout"].data.copy()
    for ln in ("layers.0.ln1", "layers.0.ln2", "ln_f"):
        for suffix in (".g", ".b"):
            md.params[ln + suffix].data = m.params[ln + suffix].data.copy()
    H, dh = 2, 4
    for role in ("k", "q", "v"):
        w = m.params[f"layers.0.attn.w_{role}"].data.reshape(H, dm, dh)
        md.params[f"layers.0.attn.w_{role}"].data = np.concatenate(list(w), axis=1)
    w_o = m.params["layers.0.attn.w_o"].data.reshape(H, dh, dm)
    md.params["layers.0.attn.w_o"].data = np.concatenate(list(w_o), axis=0)
    md.params["layers.0.mlp.w_up"].data = m.params["layers.0.mlp.up_bank"].data[0].copy()
    md.params["layers.0.mlp.w_down"].data = m.params["layers.0.mlp.down_bank"].data[0].copy()
    toks = rng_for(1, "sw-toks").integers(vocab, size=(1, T))
    y_moe, _, _ = m.forward(toks)
    y_dense, _, _ = md.forward(toks)
    assert np.max(np.abs(y_moe.data - y_dense.data)) < 1e-10


def test_switchall_end_to_end_gradients():
    spec = ModelSpec(2, 8,
                     AttentionConfig(8, 2, 4, variant="switchhead",
                                     context_mult=2, n_experts=3, k_active=2,
                                     expert_flags=ExpertFlags.value_output()),
                     MLPConfig("sigma_moe", 6, 3, 2), 11, T=4)
    m = build(spec, 0)
    toks = rng_for(2, "g-toks").integers(11, size=(1, 4))
    logits, _, _ = m.forward(toks)
    loss = cross_entropy(logits, np.roll(toks, -1, axis=1))
    loss.backward()
    missing = [k for k, p in m.params.items() if p.grad is None]
    assert not missing
    # the tape is freed: op outputs keep no grad and no link to their inputs
    assert logits.grad is None and loss.grad is None and logits.node.inputs == ()


# -- parameter matching ----------------------------------------------------


def test_match_fixed_point():
    spec = dense_spec()
    target = count_params(spec)
    res = match_params(target, spec)
    assert res.spec is spec and res.slack == 0


def test_match_invariants_and_published_row():
    base = wikitext_47m_dense()
    target = count_params(base)
    res = match_params(target, wikitext_47m_template())
    assert res.param_count <= target
    assert 0 <= res.slack <= 100_000
    assert res.spec.attention.d_head % 4 == 0
    # as-implemented (shared position projection) convention
    assert (res.spec.attention.d_head, res.spec.mlp.d_ff) == (80, 2068)
    rep = match_report(base, wikitext_47m_template())
    per_head = rep["conventions"]["per_head_pos"]
    assert (per_head["d_head"], per_head["d_ff"]) == (76, 2080)  # published row


def test_match_monotone_in_target():
    template = wikitext_47m_template()
    base = count_params(wikitext_47m_dense())
    rng = rng_for(5, "targets")
    targets = sorted(int(base + rng.integers(-3_000_000, 3_000_000))
                     for _ in range(6))
    d_heads = [match_params(t, template).spec.attention.d_head for t in targets]
    assert all(a <= b for a, b in zip(d_heads, d_heads[1:]))
    bumped = [match_params(t + 1_000_000, template).spec.attention.d_head
              for t in targets]
    assert all(b >= d for b, d in zip(bumped, d_heads))


def test_match_infeasible_target():
    with pytest.raises(MatchingError):
        match_params(1000, wikitext_47m_template())
