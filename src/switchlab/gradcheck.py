"""Central finite-difference verification of the analytic gradients.

Every attention variant (and a small fully-MoE model end-to-end) is checked
at T=4, d_model=8 against central differences with h=1e-5. Per parameter
the error is the relative 2-norm deviation over a sampled set of entries:

    err = ||g_fd - g_analytic|| / max(||g_fd||, ||g_analytic||)

A norm-level comparison is used because individual near-zero gradient
entries are dominated by float64 cancellation in the difference quotient
itself (the FD noise floor is ~|loss| * eps / h), while any systematic
backward-pass error shifts the whole vector and is caught at 1e-5.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attention import (AttentionConfig, ExpertFlags, LayerCache,
                        attention_forward, cache_shape, init_attention_params)
from .model import MLPConfig, ModelSpec, build
from .rng import rng_for
from .tensor import Tensor, cross_entropy, mul, tsum

H_STEP = 1e-5
MAX_SAMPLES = 24     # FD probes per parameter tensor


@dataclass
class CheckResult:
    name: str
    max_rel_err: float
    worst_param: str

    def ok(self) -> bool:
        return self.max_rel_err < 1e-5


def _fd_vs_analytic(params: dict[str, Tensor], loss_fn, seed: int) -> tuple[float, str]:
    """Max per-parameter relative 2-norm error between FD and backward()."""
    loss = loss_fn()
    loss.backward()
    analytic = {k: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
                for k, p in params.items()}
    for p in params.values():
        p.grad = None
    worst = 0.0
    worst_name = ""
    for name, p in params.items():
        flat = p.data.reshape(-1)
        n = flat.size
        rng = rng_for(seed, "fd-sample", name)
        idx = np.arange(n) if n <= MAX_SAMPLES else rng.choice(n, MAX_SAMPLES, replace=False)
        g_fd = np.empty(len(idx))
        for j, i in enumerate(idx):
            orig = flat[i]
            flat[i] = orig + H_STEP
            up = float(loss_fn().data)
            flat[i] = orig - H_STEP
            down = float(loss_fn().data)
            flat[i] = orig
            g_fd[j] = (up - down) / (2.0 * H_STEP)
        g_an = analytic[name].reshape(-1)[idx]
        denom = max(np.linalg.norm(g_fd), np.linalg.norm(g_an), 1e-12)
        err = float(np.linalg.norm(g_fd - g_an) / denom)
        if err > worst:
            worst, worst_name = err, name
    return worst, worst_name


def _attention_case(name: str, cfg: AttentionConfig, seed: int, T: int = 4) -> CheckResult:
    rng = rng_for(seed, "gradcheck", name)
    params = init_attention_params(cfg, rng)
    x = Tensor(rng.uniform(-1, 1, (1, T, cfg.d_model)), requires_grad=True)
    probe = rng.uniform(-1, 1, (1, T, cfg.d_model))
    cache = None
    if cfg.context_mult > 1:
        shape = cache_shape(cfg, 1, (cfg.context_mult - 1) * T)
        cache = LayerCache(k=rng.uniform(-1, 1, shape), v=rng.uniform(-1, 1, shape))

    def loss_fn():
        y, _, _ = attention_forward(x, params, cfg, cache=cache)
        return tsum(mul(y, Tensor(probe)))

    checked = dict(params)
    checked["input"] = x
    err, worst = _fd_vs_analytic(checked, loss_fn, seed)
    return CheckResult(name=name, max_rel_err=err, worst_param=worst)


def _switchall_case(seed: int, T: int = 4) -> CheckResult:
    dm = 8
    spec = ModelSpec(
        n_layers=2, d_model=dm,
        attention=AttentionConfig(dm, 2, 4, variant="switchhead",
                                  context_mult=2, n_experts=3, k_active=2,
                                  expert_flags=ExpertFlags.value_output()),
        mlp=MLPConfig("sigma_moe", d_ff=6, n_experts=3, k_active=2),
        vocab_size=11, T=T)
    model = build(spec, seed).astype(np.float64)
    rng = rng_for(seed, "gradcheck", "switchall-data")
    tokens = rng.integers(spec.vocab_size, size=(1, T))
    targets = rng.integers(spec.vocab_size, size=(1, T))

    def loss_fn():
        logits, _, _ = model.forward(tokens)
        return cross_entropy(logits, targets)

    err, worst = _fd_vs_analytic(model.params, loss_fn, seed)
    return CheckResult(name=f"switchall[seed={seed}]", max_rel_err=err, worst_param=worst)


def suite_cases(d_model: int = 8) -> dict[str, AttentionConfig]:
    dm = d_model
    return {
        "dense_xl": AttentionConfig(dm, 2, 4, variant="dense", context_mult=2),
        "dense_rope": AttentionConfig(dm, 2, 4, variant="dense", position="rope"),
        "head_gated": AttentionConfig(dm, 3, 4, variant="head_gated",
                                      k_active=2, context_mult=2),
        "switchhead_vo": AttentionConfig(dm, 2, 4, variant="switchhead",
                                         context_mult=2, n_experts=3, k_active=2,
                                         expert_flags=ExpertFlags.value_output()),
        "switchhead_all": AttentionConfig(dm, 2, 4, variant="switchhead",
                                          context_mult=2, n_experts=3, k_active=2,
                                          expert_flags=ExpertFlags(v=True, k=True,
                                                                   q=True, o=True)),
        "switchhead_rope": AttentionConfig(dm, 2, 4, variant="switchhead",
                                           position="rope", n_experts=3, k_active=2,
                                           expert_flags=ExpertFlags.value_output()),
        "moa": AttentionConfig(dm, 2, 4, variant="moa", context_mult=2,
                               n_experts=4, k_active=2),
    }


def run_suite(seeds=(0, 1, 2), T: int = 4, d_model: int = 8) -> list[CheckResult]:
    """All variants plus the end-to-end fully-MoE model, per seed."""
    results = []
    for seed in seeds:
        for name, cfg in suite_cases(d_model).items():
            results.append(_attention_case(f"{name}[seed={seed}]", cfg, seed, T=T))
        results.append(_switchall_case(seed, T=T))
    return results
