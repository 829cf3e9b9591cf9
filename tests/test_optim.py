"""Adam optimizer: warmup arithmetic, clipping contract, update math."""

import numpy as np
import pytest

from switchlab.optim import Adam
from switchlab.rng import rng_for
from switchlab.tensor import GraphError, Tensor, mul, tsum


def make_params(seed=0, shape=(4, 3)):
    rng = rng_for(seed, "optim")
    return {"w": Tensor(rng.uniform(-1, 1, shape), requires_grad=True)}


def test_effective_lr_warmup():
    opt = Adam(make_params(), lr=2.5e-4, warmup_steps=4000)
    assert opt.effective_lr(2000) == pytest.approx(1.25e-4)
    assert opt.effective_lr(4000) == pytest.approx(2.5e-4)
    assert opt.effective_lr(9000) == pytest.approx(2.5e-4)


def test_no_warmup_is_constant():
    opt = Adam(make_params(), lr=1e-3, warmup_steps=0)
    assert opt.effective_lr(1) == 1e-3


def test_grad_norm_requires_backward():
    opt = Adam(make_params())
    with pytest.raises(GraphError):
        opt.grad_norm()


def test_clip_is_noop_below_threshold():
    params = make_params(1)
    opt = Adam(params, clip_norm=1e9)
    tsum(mul(params["w"], params["w"])).backward()
    g_before = params["w"].grad.copy()
    stats = opt.step()
    assert stats["grad_norm"] == pytest.approx(np.linalg.norm(g_before))
    # bit-for-bit identical run without clipping configured
    params2 = make_params(1)
    opt2 = Adam(params2, clip_norm=None)
    tsum(mul(params2["w"], params2["w"])).backward()
    opt2.step()
    assert np.array_equal(params["w"].data, params2["w"].data)


def test_clip_rescales_above_threshold():
    params = make_params(2)
    opt = Adam(params, clip_norm=0.1)
    tsum(mul(params["w"], params["w"])).backward()
    norm = np.linalg.norm(params["w"].grad)
    assert norm > 0.1
    stats = opt.step()
    assert stats["grad_norm"] == pytest.approx(norm)  # reported pre-clip


def test_single_step_matches_reference_adam():
    rng = rng_for(5, "ref")
    w0 = rng.uniform(-1, 1, (3,))
    g = rng.uniform(-1, 1, (3,))
    params = {"w": Tensor(w0.copy(), requires_grad=True)}
    params["w"].grad = g.copy()
    lr, b1, b2, eps = 1e-2, 0.9, 0.999, 1e-8  # Kingma & Ba's defaults
    opt = Adam(params, lr=lr)
    opt.step()
    m = (1 - b1) * g
    v = (1 - b2) * g * g
    ref = w0 - lr * (m / (1 - b1)) / (np.sqrt(v / (1 - b2)) + eps)
    assert np.allclose(params["w"].data, ref, atol=1e-15)


def test_step_clears_grads_and_counts():
    params = make_params(3)
    opt = Adam(params)
    for i in range(3):
        tsum(mul(params["w"], params["w"])).backward()
        stats = opt.step()
        assert stats["step"] == i + 1
        assert params["w"].grad is None


def test_zero_lr_keeps_params():
    params = make_params(4)
    before = params["w"].data.copy()
    opt = Adam(params, lr=0.0)
    for _ in range(5):
        tsum(mul(params["w"], params["w"])).backward()
        opt.step()
    assert np.array_equal(params["w"].data, before)
