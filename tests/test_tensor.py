"""Tensor engine: forward values, analytic backward vs finite differences,
graph bookkeeping, and the routing helpers."""

import platform
import weakref
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from switchlab import tensor
from switchlab.counter import OpCounter
from switchlab.rng import rng_for
from switchlab.tensor import (GraphError, Node, ShapeError, Tensor, add, argtopk_rows,
                              attention_probs, concat, constant,
                              cross_entropy, expert_matmul, gather_rows,
                              layer_norm, matmul, mul, relu, relu_mlp, reshape, sigmoid,
                              softmax_last, take_last, transpose, tsum)


def fd_grad(f, x, h=1e-6):
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    out = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = f()
        flat[i] = orig - h
        down = f()
        flat[i] = orig
        out[i] = (up - down) / (2 * h)
    return g


def fd_grad_extrapolated(f, x, h=1e-3):
    """Central differences at steps h and h/2, Richardson-extrapolated:
    truncation error O(h^4) instead of O(h^2), so a large step, whose
    rounding error is small, still gives an accurate reference."""
    coarse, fine = fd_grad(f, x, h), fd_grad(f, x, h / 2)
    return (4.0 * fine - coarse) / 3.0


def rel_err(a, b, floor=1e-12):
    return np.linalg.norm(a - b) / max(np.linalg.norm(a), np.linalg.norm(b), floor)


# -- construction / bookkeeping -------------------------------------------


def test_backward_requires_scalar():
    t = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(GraphError):
        mul(t, 2.0).backward()


def test_double_backward_raises():
    t = Tensor(np.ones(3), requires_grad=True)
    loss = tsum(mul(t, t))
    loss.backward()
    with pytest.raises(GraphError):
        loss.backward()
    # a scalar leaf is a graph of its own
    s = Tensor(np.array(2.0), requires_grad=True)
    s.backward()
    assert np.array_equal(s.grad, np.ones(()))
    with pytest.raises(GraphError):
        s.backward()


def test_backward_frees_intermediate_grads():
    rng = rng_for(3, "tape")
    x = Tensor(rng.uniform(-1, 1, (4, 3)), requires_grad=True)
    w = Tensor(rng.uniform(-1, 1, (3, 2)), requires_grad=True)
    h = matmul(x, w)
    r = relu(h)
    loss = tsum(mul(r, r))
    loss.backward()
    assert x.grad is not None and w.grad is not None
    assert h.grad is None and r.grad is None and loss.grad is None
    assert r.node.inputs == () and h.node.inputs == ()


def test_closures_keep_only_what_backward_reads():
    # matmul keeps its operands, relu its own output, mul an operand only
    # for the other's grad; add keeps shapes only, so a value that only
    # add, relu or a constant's mul read dies with the forward's reference
    rng = rng_for(4, "tape-weakrefs")
    x = Tensor(rng.uniform(-1, 1, (4, 3)), requires_grad=True)
    w = Tensor(rng.uniform(-1, 1, (3, 3)), requires_grad=True)
    s = add(x, 1.0)
    h = matmul(s, w)
    r = relu(h)
    m = mul(add(r, x), constant(rng.uniform(-1, 1, (4, 3))))
    loss = tsum(add(m, x))
    refs = {name: weakref.ref(t.data) for name, t in (("s", s), ("h", h), ("r", r), ("m", m))}
    del s, h, r, m
    assert refs["h"]() is None and refs["m"]() is None
    assert refs["s"]() is not None and refs["r"]() is not None
    loss.backward()
    assert all(ref() is None for ref in refs.values())


def test_tape_walk_reads_default_arguments(tape_arrays):
    # an array a backward holds as a default argument, positional or
    # keyword-only, is held by the tape all the same
    nx = Tensor(np.ones(3), requires_grad=True).node
    positional, keyword = np.zeros(3), np.zeros(4)

    def bw(g, held=positional, *, also=keyword):
        nx.accum(g * held + also[:3])

    out = Tensor(np.ones(3))
    out.node = Node(out.data.dtype, (nx,), bw)
    assert {id(a) for a in tape_arrays(out)} == {id(positional), id(keyword)}


def test_leaf_grad_lives_in_its_node():
    t = Tensor(np.ones(3), requires_grad=True)
    tsum(mul(t, t)).backward()
    assert t.grad is t.node.grad and np.array_equal(t.grad, [2.0, 2.0, 2.0])
    t.grad = None
    assert t.grad is None and t.node.grad is None


def test_a_tensor_without_a_node_takes_no_grad():
    # needing a grad is having a node: neither backward nor a grad set on
    # a constant gives it one, so it stays off every later op's tape
    c = constant(np.array([3.0], dtype=np.float32))
    with pytest.raises(GraphError):
        c.backward()
    with pytest.raises(GraphError):
        c.grad = np.ones(1, dtype=np.float32)
    c.grad = None
    assert c.node is None and c.grad is None and not c.requires_grad
    assert not mul(c, 2.0).requires_grad
    t = Tensor(np.ones(2), requires_grad=True)
    assert t.requires_grad and mul(c, t).requires_grad and not mul(c, c).requires_grad


def test_grad_accumulates_across_uses():
    t = Tensor(np.array([2.0]), requires_grad=True)
    loss = tsum(add(mul(t, 3.0), mul(t, t)))
    loss.backward()
    assert np.allclose(t.grad, [3.0 + 4.0])


# -- elementwise and reduction gradients vs finite differences ------------


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_elementwise_chain_gradients(seed):
    rng = rng_for(seed, "elementwise")
    x = Tensor(rng.uniform(0.2, 1.5, (3, 4)), requires_grad=True)
    w = rng.uniform(-1, 1, (3, 4))

    def loss_fn():
        y = add(add(sigmoid(x), mul(relu(add(x, -0.7)), sigmoid(mul(x, -1.0)))), mul(x, x))
        return tsum(mul(y, constant(w)))

    loss = loss_fn()
    loss.backward()
    num = fd_grad(lambda: float(loss_fn().data), x.data)
    assert rel_err(num, x.grad) < 1e-7


def sigmoid_masked(x):
    """sigmoid's earlier two-branch form, by boolean-mask indexing."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_and_relu_match_their_earlier_forms(dtype):
    # sigmoid: one exp(-|x|) pass, bit-identical to the masked two-branch
    # form in both tails; relu: the grad mask read from the output is the
    # x > 0 mask, zeros and signed zeros included
    rng = rng_for(8, "sigmoid")
    values = np.concatenate([rng.uniform(-30, 30, 40), [0.0, -0.0, 1e-30, -1e-30,
                                                        -104.0, 104.0, -800.0, 800.0]])
    x = Tensor(values.astype(dtype), requires_grad=True)
    w = rng.uniform(-1, 1, values.size).astype(dtype)
    out = sigmoid(x)
    assert out.data.dtype == dtype
    assert np.array_equal(out.data, sigmoid_masked(x.data))
    tsum(mul(out, constant(w))).backward()
    want = sigmoid_masked(x.data)
    assert np.array_equal(x.grad, w * want * (1.0 - want))
    x = Tensor(values.astype(dtype), requires_grad=True)
    tsum(mul(relu(x), constant(w))).backward()
    assert np.array_equal(x.grad, w * (x.data > 0))


@pytest.mark.parametrize("shapes", [((2, 3), (3, 4)), ((5, 2, 3), (3, 2)),
                                    ((2, 1, 4, 3), (2, 6, 3, 2)),
                                    ((2, 3, 4, 3), (3, 5))])
def test_matmul_broadcast_gradients(shapes):
    rng = rng_for(7, "matmul", str(shapes))
    a = Tensor(rng.uniform(-1, 1, shapes[0]), requires_grad=True)
    b = Tensor(rng.uniform(-1, 1, shapes[1]), requires_grad=True)
    w = rng.uniform(-1, 1, np.matmul(a.data, b.data).shape)

    def loss_fn():
        return float(tsum(mul(matmul(a, b), constant(w))).data)

    tsum(mul(matmul(a, b), constant(w))).backward()
    assert rel_err(fd_grad(loss_fn, a.data), a.grad) < 1e-7
    assert rel_err(fd_grad(loss_fn, b.data), b.grad) < 1e-7


def test_matmul_counter_macs_and_mem():
    c = OpCounter()
    a = Tensor(np.ones((5, 3, 4)))
    b = Tensor(np.ones((4, 7)))
    out = matmul(a, b, c)
    assert out.shape == (5, 3, 7)
    assert c.macs == 5 * 3 * 7 * 4
    assert c.mem_floats == 5 * 3 * 7
    c2 = OpCounter()
    matmul(a, b, c2, store=False)
    assert c2.mem_floats == 0


def _mlp_chain(h, w_up, w_down, counter):
    """The chain ``relu_mlp`` fuses: matmul, relu, matmul, none stored."""
    up = matmul(h, w_up, counter, store=False, term="mlp")
    return matmul(relu(up), w_down, counter, store=False, term="mlp")


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("h_shape", [(7, 6), (2, 5, 6)])
def test_relu_mlp_matches_the_chain_bit_for_bit(dtype, h_shape, tape_arrays):
    # values, counter and the grads of h, w_up and w_down equal the chain's
    # bit for bit; the tape keeps h and the weights, no [..., d_ff] hidden
    rng = rng_for(3, "relu-mlp", len(h_shape))
    h = Tensor(rng.uniform(-1, 1, h_shape).astype(dtype), requires_grad=True)
    w_up = Tensor(rng.uniform(-1, 1, (6, 9)).astype(dtype), requires_grad=True)
    w_down = Tensor(rng.uniform(-1, 1, (9, 4)).astype(dtype), requires_grad=True)
    w = constant(rng.uniform(-1, 1, h_shape[:-1] + (4,)).astype(dtype))
    results = []
    for fn in (relu_mlp, _mlp_chain):
        counter = OpCounter()
        out = fn(h, w_up, w_down, counter)
        if fn is relu_mlp:
            assert h_shape[:-1] + (9,) not in [a.shape for a in tape_arrays(out)]
        tsum(mul(out, w)).backward()
        results.append([out.data, h.grad, w_up.grad, w_down.grad, counter.snapshot()])
        for t in (h, w_up, w_down):
            t.grad = None
    fused, chain = results
    assert fused[0].dtype == dtype and fused[-1] == chain[-1]
    rows = np.prod(h_shape[:-1])
    assert chain[-1]["terms"] == {"mlp": (rows * 6 * 9 + rows * 9 * 4, 0)}
    for got, want in zip(fused[:-1], chain[:-1]):
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_relu_mlp_matches_finite_differences():
    rng = rng_for(4, "relu-mlp-fd")
    h = Tensor(rng.uniform(-1, 1, (2, 3, 5)), requires_grad=True)
    w_up = Tensor(rng.uniform(-1, 1, (5, 8)), requires_grad=True)
    w_down = Tensor(rng.uniform(-1, 1, (8, 4)), requires_grad=True)
    w = constant(rng.uniform(-1, 1, (2, 3, 4)))

    def loss_fn():
        return float(tsum(mul(relu_mlp(h, w_up, w_down), w)).data)

    tsum(mul(relu_mlp(h, w_up, w_down), w)).backward()
    for t in (h, w_up, w_down):
        assert rel_err(fd_grad(loss_fn, t.data), t.grad) < 1e-7


def test_relu_mlp_rejects_bad_shapes():
    h = Tensor(np.zeros((3, 4)))
    with pytest.raises(ShapeError):
        relu_mlp(h, Tensor(np.zeros((5, 6))), Tensor(np.zeros((6, 2))))
    with pytest.raises(ShapeError):
        relu_mlp(h, Tensor(np.zeros((4, 6))), Tensor(np.zeros((5, 2))))


def test_softmax_stability_and_rows():
    x = Tensor(np.array([[1000.0, 1000.0, -1000.0], [3.0, 2.0, 1.0]]))
    s = softmax_last(x)
    assert np.all(np.isfinite(s.data))
    assert np.allclose(s.data.sum(-1), 1.0)
    assert np.allclose(s.data[0, :2], 0.5)


def test_softmax_gradient():
    rng = rng_for(3, "softmax")
    x = Tensor(rng.uniform(-2, 2, (2, 5)), requires_grad=True)
    w = rng.uniform(-1, 1, (2, 5))

    def loss_fn():
        return float(tsum(mul(softmax_last(x), constant(w))).data)

    tsum(mul(softmax_last(x), constant(w))).backward()
    assert rel_err(fd_grad(loss_fn, x.data), x.grad) < 1e-7


@settings(max_examples=40, deadline=None)
@given(lead=st.lists(st.integers(1, 3), max_size=3), n=st.integers(1, 8),
       shift=st.floats(-50, 50), seed=st.integers(0, 2**16))
@example(lead=[], n=1, shift=0.0, seed=0)
@example(lead=[2, 1, 3], n=8, shift=-50.0, seed=1)
# plain central differences at h = 1e-6 carry a rounding error of 2.8e-7
# relative here
@example(lead=[], n=2, shift=0.0, seed=11324)
def test_softmax_last_matches_finite_differences(lead, n, shift, seed):
    # float64 rows on random shapes, each shifted by a constant the max
    # subtraction removes
    rng = rng_for(seed, "softmax-fd")
    shape = tuple(lead) + (n,)
    x = Tensor(rng.uniform(-4, 4, shape) + shift, requires_grad=True)
    w = rng.uniform(-1, 1, shape)
    out = softmax_last(x)
    e = np.exp(x.data - x.data.max(axis=-1, keepdims=True))
    assert np.allclose(out.data, e / e.sum(axis=-1, keepdims=True), rtol=1e-14, atol=0)
    tsum(mul(out, constant(w))).backward()

    def loss_fn():
        return float(tsum(mul(softmax_last(x), constant(w))).data)

    assert rel_err(fd_grad_extrapolated(loss_fn, x.data), x.grad) < 1e-7


def test_cross_entropy_matches_manual_and_grad():
    rng = rng_for(11, "xent")
    logits = Tensor(rng.uniform(-2, 2, (3, 4, 6)), requires_grad=True)
    targets = rng.integers(6, size=(3, 4))
    loss = cross_entropy(logits, targets)
    z = logits.data - logits.data.max(-1, keepdims=True)
    p = np.exp(z) / np.exp(z).sum(-1, keepdims=True)
    nll = -np.log(np.take_along_axis(p, targets[..., None], -1)[..., 0])
    assert abs(float(loss.data) - nll.mean()) < 1e-12
    loss.backward()

    def loss_fn():
        return float(cross_entropy(logits, targets).data)

    assert rel_err(fd_grad(loss_fn, logits.data), logits.grad) < 1e-7


@pytest.mark.parametrize("per_token", [False, True])
def test_cross_entropy_grad_matches_subtract_at_oracle(per_token):
    # the backward subtracts 1 at each position's one target through
    # take/put_along_axis; np.subtract.at over all positions is the oracle,
    # for a classifier's [B] targets and a language model's [B, T]
    rng = rng_for(12, "xent-at")
    lead = (2, 5) if per_token else (2,)
    logits = Tensor(rng.uniform(-3, 3, lead + (7,)), requires_grad=True)
    targets = rng.integers(7, size=lead)
    cross_entropy(logits, targets).backward()
    z = logits.data - logits.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=-1))
    p = np.exp(z - lse[..., None])
    np.subtract.at(p, tuple(np.indices(targets.shape)) + (targets,), 1.0)
    p *= 1.0 / targets.size
    assert np.array_equal(logits.grad, p)


def test_layer_norm_values_and_grad():
    rng = rng_for(5, "ln")
    x = Tensor(rng.uniform(-2, 2, (3, 7)), requires_grad=True)
    g = Tensor(rng.uniform(0.5, 1.5, 7), requires_grad=True)
    b = Tensor(rng.uniform(-0.5, 0.5, 7), requires_grad=True)
    out = layer_norm(x, g, b)
    norm = (out.data - b.data) / g.data
    assert np.allclose(norm.mean(-1), 0.0, atol=1e-12)
    assert np.allclose(norm.std(-1), 1.0, atol=1e-4)
    w = rng.uniform(-1, 1, (3, 7))
    tsum(mul(layer_norm(x, g, b), constant(w))).backward()

    def loss_fn():
        return float(tsum(mul(layer_norm(x, g, b), constant(w))).data)

    for t in (x, g, b):
        assert rel_err(fd_grad(loss_fn, t.data), t.grad) < 1e-6


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_layer_norm_output_is_rebuilt_bit_for_bit(dtype, tape_arrays):
    # a layer-norm output on the tape carries a rebuild, which the matmuls
    # reading it keep instead of the array, directly and through a reshape:
    # it forms the forward's bits once for every reader, and the norm's own
    # backward drops it; the grads are those of reading a plain leaf
    rng = rng_for(6, "ln-rebuild")
    x = Tensor(rng.uniform(-2, 2, (2, 3, 8)).astype(dtype), requires_grad=True)
    gain = Tensor(rng.uniform(0.5, 1.5, 8).astype(dtype), requires_grad=True)
    bias = Tensor(rng.uniform(-0.5, 0.5, 8).astype(dtype), requires_grad=True)
    w = Tensor(rng.uniform(-1, 1, (8, 4)).astype(dtype), requires_grad=True)
    assert layer_norm(constant(x.data), constant(gain.data), constant(bias.data)).node is None

    def loss_of(out):
        return tsum(add(matmul(out, w), reshape(matmul(reshape(out, (6, 8)), w), (2, 3, 4))))

    out = layer_norm(x, gain, bias)
    want, rebuild, dead = out.data.copy(), out.node.rebuild, weakref.ref(out.data)
    loss = loss_of(out)
    del out
    assert dead() is None
    assert not [a for a in tape_arrays(loss) if a.shape == want.shape]
    built = rebuild()
    assert built.dtype == dtype and built.shape == want.shape
    assert built.tobytes() == want.tobytes() and rebuild() is built
    memo = weakref.ref(built)
    del built
    loss.backward()
    assert memo() is None
    grads = w.grad.copy()
    w.grad = None
    loss_of(Tensor(want, requires_grad=True)).backward()
    assert np.array_equal(w.grad, grads)


def layer_norm_unfused(x, gain, bias, g, eps=1e-5):
    """layer_norm's earlier unfused form: (out, x grad, gain grad, bias
    grad) for the upstream grad ``g``."""
    n = x.shape[-1]
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = xhat * gain + bias
    gx = g * gain
    t1 = gx.sum(axis=-1, keepdims=True)
    t2 = (gx * xhat).sum(axis=-1, keepdims=True)
    return (out, inv * (gx - t1 / n - xhat * t2 / n),
            (g * xhat).reshape(-1, n).sum(axis=0), g.reshape(-1, n).sum(axis=0))


@settings(max_examples=40, deadline=None)
@given(lead=st.lists(st.integers(1, 3), max_size=3), n=st.integers(1, 9),
       seed=st.integers(0, 2**16))
@example(lead=[], n=1, seed=0)
@example(lead=[], n=2, seed=0)
@example(lead=[2, 3], n=8, seed=1)
def test_layer_norm_matches_unfused_oracle_and_finite_differences(lead, n, seed):
    rng = rng_for(seed, "ln-fused")
    shape = tuple(lead) + (n,)
    x = Tensor(rng.uniform(-2, 2, shape), requires_grad=True)
    g = Tensor(rng.uniform(0.5, 1.5, n), requires_grad=True)
    b = Tensor(rng.uniform(-0.5, 0.5, n), requires_grad=True)
    w = rng.uniform(-1, 1, shape)
    out = layer_norm(x, g, b)
    tsum(mul(out, constant(w))).backward()
    assert out.shape == shape
    want = layer_norm_unfused(x.data, g.data, b.data, w)
    # the x grad is inv * (w * gain) less its two row means, which cancel it
    # down to O(eps) when w lies near the span of 1 and xhat (always, for
    # n = 2); every float64 evaluation, the unfused one and finite
    # differences too, then errs relative to the size of those terms
    x_scale = np.linalg.norm(w * g.data / np.sqrt(x.data.var(axis=-1, keepdims=True) + 1e-5))
    floors = (1e-12, x_scale, 1e-12, 1e-12)
    for got, ref, floor in zip((out.data, x.grad, g.grad, b.grad), want, floors):
        assert got.shape == ref.shape
        assert rel_err(ref, got, floor) < 1e-12

    def loss_fn():
        return float(tsum(mul(layer_norm(x, g, b), constant(w))).data)

    for t, floor in zip((x, g, b), floors[1:]):
        assert rel_err(fd_grad(loss_fn, t.data), t.grad, floor) < 1e-6


# -- gather / shaping ----------------------------------------------------


def test_gather_rows_values_and_grads():
    rng = rng_for(9, "gather")
    x = Tensor(rng.uniform(-1, 1, (6, 3)), requires_grad=True)
    idx = np.array([4, 0, 2])
    g = gather_rows(x, idx)
    assert np.array_equal(g.data, x.data[idx])
    w = rng.uniform(-1, 1, g.shape)
    tsum(mul(g, constant(w))).backward()

    def loss_fn():
        return float(tsum(mul(gather_rows(x, idx), constant(w))).data)

    assert rel_err(fd_grad(loss_fn, x.data), x.grad) < 1e-8


def test_gather_rows_repeated_indices_grad():
    x = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
    idx = np.array([1, 1, 0])
    tsum(gather_rows(x, idx)).backward()
    assert np.array_equal(x.grad, [[1, 1], [2, 2], [0, 0]])


def _case(eid, E, src, dst, gated=True, d_in=3, d_out=2, seed=0):
    """A plan over ``eid`` [B, T, a] and its dispatch from the ``src`` side
    to the ``dst`` side: a group count of the plan's row layouts, or None
    for its expert order. The gate, if any, scales the narrower side:
    the x rows when d_in <= d_out, the results otherwise."""
    return dict(eid=np.array(eid, dtype=int), E=E, src=src, dst=dst, gated=gated,
                d_in=d_in, d_out=d_out, seed=seed)


@st.composite
def dispatch_cases(draw):
    """Plans as top-k routing makes them, [B, T, a] expert ids, and any two
    of their layouts: token rows (1 group), head-major rows (each of G
    heads holds a / G consecutive slots; G = a is MoA's one slot per head)
    or the expert order itself (the sigma-MoE hidden rows)."""
    B, T, a, E = (draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 4)),
                  draw(st.integers(1, 5)))
    sides = st.sampled_from([None] + [g for g in range(1, a + 1) if a % g == 0])
    eid = draw(st.lists(st.integers(0, E - 1), min_size=B * T * a, max_size=B * T * a))
    return _case(np.reshape(eid, (B, T, a)), E, draw(sides), draw(sides),
                 gated=draw(st.booleans()),
                 d_in=draw(st.integers(1, 4)), d_out=draw(st.integers(1, 4)),
                 seed=draw(st.integers(0, 2**16)))


def _row(side, order_pos, b, t, j, T, a):
    """The oracle's row of assignment (b, t, j) on a side (see _case)."""
    if side is None:
        return order_pos
    m = a // side
    return (b * side + j // m) * T + t


@settings(max_examples=80, deadline=None)
@given(dispatch_cases())
# one token, expert 2 of 4 only: experts 0, 1 and 3 are unused
@example(_case([[[2]]], 4, 1, 1))
# SwitchHead's O role: H*K = 2*2 slots read from two heads into each token,
# gated on the narrower head rows
@example(_case([[[0, 2, 5, 7], [1, 1, 4, 6]]], 8, 2, 1, d_in=2, d_out=3))
# a repeated expert within one token's row sums both contributions
@example(_case([[[1, 1], [0, 1]]], 3, 1, 1))
# sigma-MoE: token rows to hidden rows in expert order, and back, gated
@example(_case([[[0, 3], [1, 3], [0, 2]]], 4, 1, None))
@example(_case([[[0, 3], [1, 3], [0, 2]]], 4, None, 1))
# MoA: each of two slots is a head, ungated into heads, gated back out
@example(_case([[[1, 3], [0, 2]], [[2, 3], [0, 1]]], 4, 1, 2, gated=False))
@example(_case([[[1, 3], [0, 2]], [[2, 3], [0, 1]]], 4, 2, 1))
def test_expert_matmul_matches_per_assignment_loop(case):
    eid, E, src, dst = case["eid"], case["E"], case["src"], case["dst"]
    B, T, a = eid.shape
    d_in, d_out = case["d_in"], case["d_out"]
    A = eid.size
    rng = np.random.default_rng(case["seed"])
    plan = tensor.ExpertPlan(eid, E)
    n_in = A if src is None else B * src * T
    n_out = A if dst is None else B * dst * T
    x = Tensor(rng.uniform(-1, 1, (n_in, d_in)), requires_grad=True)
    bank = Tensor(rng.uniform(-1, 1, (E, d_in, d_out)), requires_grad=True)
    gate = None
    if case["gated"]:
        gate = Tensor(rng.uniform(-1, 1, eid.shape), requires_grad=True)
    w = rng.uniform(-1, 1, (n_out, d_out))
    counter = OpCounter()
    out = expert_matmul(x, bank, plan, None if src is None else plan.rows(src),
                        None if dst is None else plan.rows(dst), counter,
                        gate=gate, term="mixing")
    tsum(mul(out, constant(w))).backward()
    gate_macs = A * min(d_in, d_out) if case["gated"] else 0
    assert counter.terms["mixing"] == [A * d_in * d_out + gate_macs, 0]

    # expert order: assignments in (b, t, j) order, stably sorted by expert
    flat = eid.reshape(-1).tolist()
    position = {i: p for p, i in enumerate(sorted(range(A), key=lambda i: flat[i]))}
    want = np.zeros((n_out, d_out))
    gx, gbank, ggate = np.zeros_like(x.data), np.zeros_like(bank.data), np.zeros(eid.shape)
    for b, t, j in product(range(B), range(T), range(a)):
        i = (b * T + t) * a + j
        r_in = _row(src, position[i], b, t, j, T, a)
        r_out = _row(dst, position[i], b, t, j, T, a)
        scale = 1.0 if gate is None else gate.data[b, t, j]
        row, W, up = x.data[r_in], bank.data[eid[b, t, j]], w[r_out]
        want[r_out] += scale * (row @ W)
        gx[r_in] += scale * (W @ up)
        gbank[eid[b, t, j]] += scale * np.outer(row, up)
        ggate[b, t, j] = row @ W @ up
    assert out.shape == (n_out, d_out)
    assert np.allclose(out.data, want, rtol=1e-12, atol=1e-12)
    assert np.allclose(x.grad, gx, rtol=1e-12, atol=1e-12)
    assert np.allclose(bank.grad, gbank, rtol=1e-12, atol=1e-12)
    if gate is not None:
        assert np.allclose(gate.grad, ggate, rtol=1e-12, atol=1e-12)


def test_expert_matmul_rejects_bad_shapes():
    plan = tensor.ExpertPlan(np.zeros((1, 1, 1), dtype=int), 3)
    tokens = plan.rows(1)
    bank = Tensor(np.zeros((3, 2, 4)))
    x = Tensor(np.zeros((1, 2)))
    with pytest.raises(ShapeError):      # x width differs from the bank's d_in
        expert_matmul(Tensor(np.zeros((1, 3))), bank, plan, tokens, tokens)
    with pytest.raises(ShapeError):      # x rows differ from the source side's
        expert_matmul(Tensor(np.zeros((2, 2))), bank, plan, tokens, tokens)
    with pytest.raises(ShapeError):      # gate of the wrong length
        expert_matmul(x, bank, plan, tokens, tokens, gate=Tensor(np.ones(2)))
    with pytest.raises(ShapeError):      # a bank of 4 experts for a plan over 3
        expert_matmul(x, Tensor(np.zeros((4, 2, 4))), plan, tokens, tokens)
    with pytest.raises(ShapeError):      # expert out of range
        tensor.ExpertPlan(np.array([[[3]]]), 3)
    with pytest.raises(ShapeError):      # negative expert
        tensor.ExpertPlan(np.array([[[-1]]]), 3)
    with pytest.raises(ShapeError):      # no assignments at all
        tensor.ExpertPlan(np.zeros((1, 0, 2), dtype=int), 3)
    with pytest.raises(ShapeError):      # no [..., T, a] layout
        tensor.ExpertPlan(np.zeros(2, dtype=int), 3)
    with pytest.raises(ShapeError):      # 3 slots do not split into 2 heads
        tensor.ExpertPlan(np.zeros((1, 2, 3), dtype=int), 3).rows(2)
    own = plan.own_rows()
    with pytest.raises(ShapeError):      # own-expert rows are a source side only
        expert_matmul(Tensor(np.zeros((3, 2))), bank, plan, own, own)


@settings(max_examples=40, deadline=None)
@given(lead=st.lists(st.integers(1, 3), max_size=3), n=st.integers(1, 6),
       k=st.integers(1, 6), broadcast=st.booleans(), seed=st.integers(0, 2**16))
@example(lead=[2, 3], n=5, k=2, broadcast=False, seed=13)
@example(lead=[4], n=6, k=6, broadcast=True, seed=0)
def test_take_last_matches_finite_differences(lead, n, k, broadcast, seed):
    # distinct indices per row, in random order, as top-k routing picks them;
    # with ``broadcast`` the index rows are shared over x's first axis
    rng = rng_for(seed, "take")
    k = min(k, n)
    x = Tensor(rng.uniform(-1, 1, tuple(lead) + (n,)), requires_grad=True)
    idx_lead = tuple(lead[1:] if broadcast else lead)
    idx = np.argsort(rng.uniform(size=idx_lead + (n,)), axis=-1)[..., :k]
    out = take_last(x, idx)
    idx_b = np.broadcast_to(idx, tuple(lead) + (k,))
    assert np.array_equal(out.data, np.take_along_axis(x.data, idx_b, -1))
    w = rng.uniform(-1, 1, out.shape)
    tsum(mul(out, constant(w))).backward()

    def loss_fn():
        return float(tsum(mul(take_last(x, idx), constant(w))).data)

    assert rel_err(fd_grad(loss_fn, x.data), x.grad) < 1e-8


def test_take_last_rejects_repeated_index():
    x = Tensor(np.zeros((2, 3)), requires_grad=True)
    with pytest.raises(ShapeError):
        take_last(x, np.array([[0, 1], [2, 2]]))


def test_take_last_rejects_out_of_range_and_misshapen_index():
    # the gather reads flat offsets, so an index at n would read the next
    # row's entry were it not rejected
    x = Tensor(np.zeros((2, 3)), requires_grad=True)
    for idx in ([[0, 3], [1, 2]],             # equal to n
                [[0, 1], [-1, 2]],            # negative
                [[[0], [1]], [[1], [2]]],     # widens the rows [2] to [2, 2]
                [[0, 1], [1, 2], [0, 2]]):    # three rows against two
        with pytest.raises(ShapeError):
            take_last(x, np.array(idx))


def _unfused_probs(q, k, scale, mask, u, v, pos_r, cache_len, counter):
    """The chain attention_probs fuses, of the remaining primitives, with
    the relative shift as a take_last gather of each row's distances."""
    T, S = q.shape[-2], k.shape[-2]
    pos_q = None
    if pos_r is not None:
        pos_q, q = add(q, v), add(q, u)
    scores = matmul(q, transpose(k, (0, 1, 3, 2)), counter, term="scores")
    if pos_q is not None:
        p = matmul(pos_q, pos_r, counter, term="pos_scores")
        # column c of p holds distance c - (S - 1); score (t, j) needs cache_len + t - j
        oracle_idx = (cache_len + np.arange(T)[:, None] - np.arange(S)[None, :]) + (S - 1)
        scores = add(scores, take_last(p, oracle_idx))
    scores = mul(scores, scale)
    if mask is not None:
        scores = add(scores, constant(mask))
    probs = softmax_last(scores)
    counter.add("scores", mem=probs.size)     # the stored probabilities
    return probs


def _fused_probs(q, k, scale, mask, u, v, pos_r, cache_len, counter):
    return attention_probs(q, k, scale, mask=mask, u=u, v=v, pos_r=pos_r,
                           cache_len=cache_len, counter=counter)


@settings(max_examples=30, deadline=None)
@given(B=st.integers(1, 2), H=st.integers(1, 3), T=st.integers(1, 4),
       cache_len=st.integers(0, 3), dh=st.integers(1, 3),
       pos=st.sampled_from(["none", "shared", "per_head"]), shared_k=st.booleans(),
       masked=st.booleans(), seed=st.integers(0, 2**16))
@example(B=2, H=3, T=4, cache_len=3, dh=3, pos="per_head", shared_k=False, masked=True, seed=0)
@example(B=1, H=2, T=3, cache_len=2, dh=2, pos="shared", shared_k=True, masked=True, seed=1)
@example(B=1, H=1, T=1, cache_len=0, dh=1, pos="shared", shared_k=False, masked=False, seed=2)
# grads of about 1e-3 against a loss of 2.3: plain central differences at
# h = 1e-6 carry a rounding error of 1.8e-7 relative here
@example(B=1, H=3, T=1, cache_len=1, dh=3, pos="shared", shared_k=False, masked=True, seed=65)
def test_attention_probs_matches_unfused_chain(B, H, T, cache_len, dh, pos, shared_k,
                                               masked, seed):
    # float64: the fused op against the unfused chain, the two bias adds
    # included (the same arithmetic, so equal bit for bit, counter and the
    # u and v grads included) and against finite differences; a shared key
    # head ([B, 1, S, dh]) broadcasts over the H query heads, and shared
    # positions take one [1, dh] bias pair, per-head ones a [H, 1, dh] pair
    rng = rng_for(seed, "attention-probs")
    S = cache_len + T
    q = Tensor(rng.uniform(-1, 1, (B, H, T, dh)), requires_grad=True)
    k = Tensor(rng.uniform(-1, 1, (B, 1 if shared_k else H, S, dh)), requires_grad=True)
    u = v = pos_r = None
    if pos != "none":
        bias_shape = (1, dh) if pos == "shared" else (H, 1, dh)
        u = Tensor(rng.uniform(-1, 1, bias_shape), requires_grad=True)
        v = Tensor(rng.uniform(-1, 1, bias_shape), requires_grad=True)
        r_shape = (dh, 2 * S) if pos == "shared" else (H, dh, 2 * S)
        pos_r = Tensor(rng.uniform(-1, 1, r_shape), requires_grad=True)
    mask = None
    if masked:
        # additive, as attention builds it: key 0 always visible
        mask = np.where(rng.uniform(size=(B, 1, T, S)) < 0.3, -1e30, 0.0)
        mask[..., 0] = 0.0
    scale = float(rng.uniform(0.2, 2.0))
    inputs = [t for t in (q, k, u, v, pos_r) if t is not None]
    w = constant(rng.uniform(-1, 1, (B, H, T, S)))

    def run(fn, counter):
        out = fn(q, k, scale, mask, u, v, pos_r, cache_len, counter)
        tsum(mul(out, w)).backward()
        grads = [t.grad for t in inputs]
        for t in inputs:
            t.grad = None
        return out.data, counter.snapshot(), grads

    out_f, snap_f, grads_f = run(_fused_probs, OpCounter())
    out_u, snap_u, grads_u = run(_unfused_probs, OpCounter())
    assert np.array_equal(out_f, out_u)
    assert snap_f == snap_u
    for gf, gu in zip(grads_f, grads_u):
        assert np.array_equal(gf, gu)

    def loss_fn():
        out = _fused_probs(q, k, scale, mask, u, v, pos_r, cache_len, OpCounter(False))
        return float(tsum(mul(out, w)).data)

    for t, g in zip(inputs, grads_f):
        assert rel_err(fd_grad_extrapolated(loss_fn, t.data), g) < 1e-7


def test_attention_probs_rejects_bad_position_width():
    q = Tensor(np.zeros((1, 3, 2)))
    k = Tensor(np.zeros((1, 4, 2)))
    b = Tensor(np.zeros((1, 2)))
    with pytest.raises(ShapeError):     # cache_len 1 + T 3 keys need 8 distance columns
        attention_probs(q, k, 1.0, u=b, v=b, pos_r=Tensor(np.zeros((2, 7))), cache_len=1)
    with pytest.raises(ShapeError):     # 4 keys are not cache_len 0 + T 3
        attention_probs(q, k, 1.0, u=b, v=b, pos_r=Tensor(np.zeros((2, 8))))
    with pytest.raises(ShapeError):     # the biases come with the position table
        attention_probs(q, k, 1.0, u=b, v=b, cache_len=1)
    with pytest.raises(ShapeError):     # a bias that widens the queries
        attention_probs(q, k, 1.0, u=Tensor(np.zeros((2, 1, 2))), v=b,
                        pos_r=Tensor(np.zeros((2, 8))), cache_len=1)
    with pytest.raises(ShapeError):     # a mask wider than the scores
        attention_probs(q, k, 1.0, mask=np.zeros((3, 5)))


def test_shaping_ops_grads():
    rng = rng_for(17, "shape")
    x = Tensor(rng.uniform(-1, 1, (2, 3, 4)), requires_grad=True)
    y = transpose(reshape(x, (6, 4)))
    z = concat([y, y], axis=1)
    w = rng.uniform(-1, 1, z.shape)
    tsum(mul(z, constant(w))).backward()

    def loss_fn():
        yy = transpose(reshape(x, (6, 4)))
        return float(tsum(mul(concat([yy, yy], axis=1), constant(w))).data)

    assert rel_err(fd_grad(loss_fn, x.data), x.grad) < 1e-8


# -- top-k selection helpers ----------------------------------------------


def argtopk(values, k: int) -> list[int]:
    """Oracle of ``argtopk_rows`` on one row: the indices of the k largest
    values, ties to the lowest index, ascending."""
    order = sorted(range(len(values)), key=lambda i: (-values[i], i))
    return sorted(order[:k])


def test_argtopk_tie_break_lowest_index_ascending():
    for row, k, want in [([1.0, 3.0, 3.0, 2.0], 2, [1, 2]),
                         ([5.0, 5.0, 5.0], 2, [0, 1]),
                         ([2.0, 1.0], 1, [0])]:
        assert argtopk(row, k) == want
        assert argtopk_rows(np.array([row]), k).tolist() == [want]


def test_argtopk_contract_errors():
    with pytest.raises(ValueError):
        argtopk_rows(np.array([[1.0, 2.0]]), 0)
    with pytest.raises(ValueError):
        argtopk_rows(np.array([[1.0, 2.0]]), 3)


@pytest.mark.parametrize("seed", range(5))
def test_argtopk_rows_matches_bruteforce(seed):
    rng = rng_for(seed, "topk")
    arr = rng.integers(0, 4, size=(20, 6)).astype(float)  # many ties
    k = int(rng.integers(1, 7))
    got = argtopk_rows(arr, k)
    for row, g in zip(arr, got):
        assert list(g) == argtopk(list(row), k)


# -- compute dtype ---------------------------------------------------------


def test_tensor_dtype_rule():
    assert Tensor(np.ones(2, dtype=np.float32)).data.dtype == np.float32
    assert constant(np.ones(2, dtype=np.float32)).data.dtype == np.float32
    assert Tensor(np.ones(2)).data.dtype == np.float64
    for other in (np.arange(2), np.ones(2, dtype=np.float16), [1, 2], 3.0):
        assert Tensor(other).data.dtype == np.float64


@pytest.mark.parametrize("scalar", [-1.0, np.float64(0.25), np.asarray(0.25)])
def test_scalar_operands_keep_float32(scalar):
    x = Tensor(np.linspace(-1, 1, 6, dtype=np.float32).reshape(2, 3),
               requires_grad=True)
    outs = [mul(x, scalar), mul(scalar, x), add(x, scalar), add(scalar, x)]
    assert all(o.data.dtype == np.float32 for o in outs)
    tsum(mul(add(x, scalar), scalar)).backward()
    assert x.grad.dtype == np.float32


def test_first_use_grads_never_alias():
    # add(a, a) and add(u, v) hand one upstream grad to two inputs; ops that
    # adopt their grad uncopied (reshape, transpose, mul) must not make two
    # tensors' .grad share memory
    rng = rng_for(4, "alias")
    a = Tensor(rng.uniform(-1, 1, (2, 3)), requires_grad=True)
    b = Tensor(rng.uniform(-1, 1, (2, 3)), requires_grad=True)
    w = rng.uniform(-1, 1, (3, 2))
    u = reshape(a, (3, 2))
    v = transpose(b)
    s = add(u, v)
    tsum(mul(add(s, s), constant(w))).backward()
    assert not np.shares_memory(a.grad, b.grad)
    assert np.array_equal(a.grad, (2 * w).reshape(2, 3))
    assert np.array_equal(b.grad, (2 * w).T)
    c = Tensor(rng.uniform(-1, 1, (2, 3)), requires_grad=True)
    d = Tensor(rng.uniform(-1, 1, (2, 3)), requires_grad=True)
    tsum(add(mul(c, 1.0), mul(d, 1.0))).backward()
    assert not np.shares_memory(c.grad, d.grad)
    c.grad += 1.0
    assert np.array_equal(d.grad, np.ones((2, 3)))


# -- allocation policy -----------------------------------------------------


@pytest.mark.parametrize("lookup", ["missing symbol", "no library"])
def test_keep_freed_pages_is_a_silent_noop_without_mallopt(monkeypatch, lookup):
    def cdll(name):
        if lookup == "no library":
            raise OSError("no C library")
        return object()   # a C library without mallopt, as off glibc

    monkeypatch.setattr(tensor.ctypes, "CDLL", cdll)
    assert tensor.keep_freed_pages() is False


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="needs glibc's mallopt")
def test_keep_freed_pages_takes_on_glibc():
    assert tensor.keep_freed_pages() is True
