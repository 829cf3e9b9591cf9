"""Expert selection and mixtures vs brute-force oracles."""

import numpy as np
import pytest

from switchlab.counter import OpCounter
from switchlab.moe import (ConfigError, SelectionConfig, mixture_project,
                           select, sigma_moe_mlp)
from switchlab.rng import rng_for, uniform_init
from switchlab.tensor import (Tensor, argtopk_rows, constant, matmul, mul,
                              sigmoid, take_last, tsum)


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
    with pytest.raises(ConfigError):
        SelectionConfig(3, 2, activation="relu").validate()


@pytest.mark.parametrize("seed", range(6))
def test_select_topk_matches_bruteforce(seed):
    rng, x, w_sel = rand_inputs(seed)
    k = int(rng.integers(1, 6))
    sel = select(x, w_sel, SelectionConfig(5, k, "sigmoid"))
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
    sel = select(x1, w1, SelectionConfig(5, 2, "sigmoid"))
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
    sel = select(x, w, SelectionConfig(3, 2, "sigmoid"))
    assert np.all(sel.weights.data > 0.99)
    assert sel.weights.data.sum() > 1.5


def test_select_softmax_weights():
    rng, x, w_sel = rand_inputs(42)
    sel = select(x, w_sel, SelectionConfig(5, 2, "softmax"))
    logits = x.data @ w_sel.data
    full = np.exp(logits - logits.max(-1, keepdims=True))
    full /= full.sum(-1, keepdims=True)
    got = np.take_along_axis(full, sel.indices, -1)
    assert np.allclose(sel.weights.data, got, atol=1e-12)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("gate", ["output", "input"])
def test_mixture_project_matches_materialized_oracle(seed, gate):
    rng, x, w_sel = rand_inputs(seed)
    E, d_in, d_out = 5, 6, 4
    bank = Tensor(uniform_init(rng, (E, d_in, d_out), d_in), requires_grad=True)
    sel = select(x, w_sel, SelectionConfig(E, 2, "sigmoid"))
    y = mixture_project(x, bank[None], [sel], gate=gate)   # one head
    # oracle: per token, materialize the mixed projection matrix
    for t in range(x.shape[0]):
        w_mix = np.zeros((d_in, d_out))
        for slot, e in enumerate(sel.indices[t]):
            w_mix += sel.weights.data[t, slot] * bank.data[e]
        assert np.allclose(y.data[0, t], x.data[t] @ w_mix, atol=1e-12)


def test_mixture_project_counter():
    rng, x, w_sel = rand_inputs(0)
    E, d_in, d_out, k, n = 5, 6, 4, 2, 7
    bank = Tensor(uniform_init(rng, (E, d_in, d_out), d_in))
    sel = select(x, w_sel, SelectionConfig(E, k, "sigmoid"))
    c = OpCounter()
    mixture_project(x, bank[None], [sel], c, gate="output")
    assert c.terms["mixing"][0] == n * k * d_in * d_out + n * k * d_out
    assert c.terms["mixing"][1] == n * d_out
    c2 = OpCounter()
    mixture_project(x, bank[None], [sel], c2, gate="input", store=False)
    assert c2.terms["mixing"][0] == n * k * d_in * d_out + n * k * d_in
    assert c2.terms["mixing"][1] == 0


def test_mixture_permutation_invariance():
    # permuting the expert bank together with the selector columns leaves
    # the mixture output unchanged
    rng, x, w_sel = rand_inputs(8)
    E, d_in, d_out = 5, 6, 4
    bank = Tensor(uniform_init(rng, (E, d_in, d_out), d_in))
    cfg = SelectionConfig(E, 2, "sigmoid")
    y1 = mixture_project(x, bank[None], [select(x, w_sel, cfg)], gate="output")
    perm = np.array([3, 0, 4, 1, 2])
    bank_p = Tensor(bank.data[None, perm])
    w_sel_p = Tensor(w_sel.data[:, perm])
    y2 = mixture_project(x, bank_p, [select(x, w_sel_p, cfg)], gate="output")
    assert np.max(np.abs(y1.data - y2.data)) < 1e-12


def test_mixture_shape_and_range_errors():
    rng, x, w_sel = rand_inputs(1)
    bank = Tensor(np.zeros((1, 5, 9, 4)))
    sel = select(x, w_sel, SelectionConfig(5, 2, "sigmoid"))
    with pytest.raises(ConfigError):      # d_in 9 against inputs of width 6
        mixture_project(x, bank, [sel])
    with pytest.raises(ConfigError):      # a bank without its head axis
        mixture_project(x, Tensor(np.zeros((5, 6, 4))), [sel])


@pytest.mark.parametrize("seed", range(4))
def test_sigma_moe_matches_loop_oracle(seed):
    rng = rng_for(seed, "sigma")
    n, dm, dx, E, k = 6, 5, 7, 4, 2
    x = Tensor(rng.uniform(-1, 1, (n, dm)), requires_grad=True)
    up = Tensor(uniform_init(rng, (E, dm, dx), dm), requires_grad=True)
    down = Tensor(uniform_init(rng, (E, dx, dm), dx), requires_grad=True)
    w_sel = Tensor(uniform_init(rng, (dm, E), dm), requires_grad=True)
    cfg = SelectionConfig(E, k, "sigmoid")
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
    cfg = SelectionConfig(E, 2, "sigmoid")
    w = rng.uniform(-1, 1, (n, dm))
    tsum(mul(sigma_moe_mlp(x, up, down, w_sel, cfg), constant(w))).backward()
    for t in (x, up, down, w_sel):
        assert t.grad is not None and np.any(t.grad != 0)
