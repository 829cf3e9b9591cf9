"""Acceptance gate: one test per headline guarantee.

Each test asserts through ``_report`` so every criterion emits exactly one
``[PASS]``/``[FAIL]`` line (visible with ``pytest -s`` or on failure). The
ListOps comparison reads ``runs/listops_results.json`` produced by
``scripts/listops_acceptance.py``.
"""

import json
import os
import re
import time
from itertools import product
from statistics import median

import numpy as np

from switchlab.attention import (AttentionConfig, ExpertFlags,
                                 attention_forward, init_attention_params)
from switchlab.costmodel import CostInputs, cost_attention, human, measure
from switchlab.counter import OpCounter
from switchlab.gradcheck import run_suite
from switchlab.model import (MLPConfig, ModelSpec, count_params, match_params,
                             match_report)
from switchlab.rng import rng_for
from switchlab.tensor import Tensor

RESULTS = os.path.join(os.path.dirname(__file__), "..", "runs",
                       "listops_results.json")


def _report(name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" — {detail}"
    print(line)
    assert ok, line


# -- memory-column reproduction (exact) ------------------------------------


def test_memory_column_reproduction():
    xl_cells = [
        ((10, 256, 41), 3_461_120, "3.5M"),
        ((16, 512, 64), 20_971_520, "21.0M"),
        ((8, 512, 64), 10_485_760, "10.5M"),
    ]
    ok = True
    for (H, T, dh), want, disp in xl_cells:
        rep = cost_attention(CostInputs("dense", H, T, dh, 412, C=2))
        ok = ok and rep.mem_floats == want and human(rep.mem_floats) == disp
    sh_cells = [
        ((256, 76), 757_760, "0.8M"),
        ((512, 112), 2_785_280, "2.8M"),
        ((512, 132), 2_908_160, "2.9M"),
    ]
    for (T, dh), want, disp in sh_cells:
        rep = cost_attention(CostInputs("switchhead", 2, T, dh, 412, C=2,
                                        E=5, k_active=2))
        ok = ok and rep.mem_floats == want and human(rep.mem_floats) == disp
    _report("memory columns reproduce exactly (6 cells incl. display)", ok)


# -- counter vs closed form ------------------------------------------------


def _tiny_cases():
    rng = np.random.default_rng(2024)
    cases = []
    for _ in range(12):
        T = int(rng.integers(1, 9))
        dh = int(rng.integers(1, 9))
        dm = int(rng.integers(2, 17))
        pos = str(rng.choice(["xl_relative", "none", "rope"]))
        C = 1 if pos == "rope" else int(rng.integers(1, 4))
        if pos == "rope" and dh % 2:
            dh += 1
        if rng.random() < 0.5:
            cases.append(CostInputs("dense", int(rng.integers(1, 4)), T, dh,
                                    dm, C=C, position=pos))
        else:
            E = int(rng.integers(1, 5))
            K = int(rng.integers(1, E + 1))
            cases.append(CostInputs("moa", K, T, dh, dm, C=C, E=E,
                                    k_active=K, position=pos))
    for flags in product([False, True], repeat=4):
        f = ExpertFlags(*flags)
        E = 3 if f.any() else 1
        K = 2 if f.any() else 1
        cases.append(CostInputs("switchhead", 2, 4, 4, 8, C=2, E=E,
                                k_active=K, expert_flags=f))
    for f in (ExpertFlags.value_output(), ExpertFlags(v=True, k=True, q=True, o=True)):
        # dh > dm: every routed role gates its dm-wide side
        cases.append(CostInputs("switchhead", 2, 4, 8, 4, C=2, E=3, k_active=2,
                                expert_flags=f))
    for _ in range(6):  # head-gated: k of H heads gated into O
        T = int(rng.integers(1, 9))
        dh = 2 * int(rng.integers(1, 5))
        pos = str(rng.choice(["xl_relative", "none", "rope"]))
        C = 1 if pos == "rope" else int(rng.integers(1, 4))
        H = int(rng.integers(1, 5))
        cases.append(CostInputs("head_gated", H, T, dh, int(rng.integers(2, 17)), C=C,
                                k_active=int(rng.integers(1, H + 1)), position=pos))
    return cases


def test_counter_equals_closed_form():
    cases = _tiny_cases()
    ok = len(cases) >= 20
    selection_itemized = False
    for ci in cases:
        want = cost_attention(ci)
        got = measure(ci)
        ok = ok and want.macs == got.macs and want.mem_floats == got.mem_floats
        ok = ok and dict(want.terms) == dict(got.terms)
        ok = ok and dict(want.extras) == dict(got.extras)
        if ci.variant == "switchhead" and "selection" in got.extras:
            selection_itemized = True
    ok = ok and selection_itemized
    _report(f"instrumented counts equal closed form on {len(cases)} configs "
            "(incl. all 16 expert-flag combos), selection itemized", ok)


# -- gradient suite --------------------------------------------------------


def test_gradient_suite():
    t0 = time.time()
    results = run_suite(seeds=(0, 1, 2))
    elapsed = time.time() - t0
    worst = max(results, key=lambda r: r.max_rel_err)
    ok = all(r.max_rel_err < 1e-5 for r in results) and elapsed < 60
    _report("finite-difference gradients (all variants + full stack, "
            "3 seeds) < 1e-5",
            ok, f"worst {worst.max_rel_err:.2e} at {worst.name}, "
                f"{elapsed:.1f}s")


# -- reduction oracles -----------------------------------------------------


def _fuse_dense(params, H, dh, dm):
    out = {}
    for role in ("k", "q", "v"):
        w = params[f"w_{role}"].data.reshape(H, dm, dh)
        out[f"w_{role}"] = Tensor(np.concatenate(list(w), axis=1))
    w_o = params["w_o"].data.reshape(H, dh, dm)
    out["w_o"] = Tensor(np.concatenate(list(w_o), axis=0))
    return out


def test_reduction_oracles(unit_gates):
    dm, H, dh = 8, 2, 4
    rng = rng_for(0, "acc-reduce")
    x = Tensor(rng.uniform(-1, 1, (1, 5, dm)))

    cfg = AttentionConfig(dm, H, dh, variant="switchhead", position="none",
                          n_experts=1, k_active=1,
                          expert_flags=ExpertFlags(v=True, k=True, q=True,
                                                   o=True))
    params = init_attention_params(cfg, rng)
    y_sh, _, _ = attention_forward(x, params, cfg)
    dcfg = AttentionConfig(dm, H, dh, variant="dense", position="none")
    y_d, _, _ = attention_forward(x, _fuse_dense(params, H, dh, dm), dcfg)
    err_sh = np.max(np.abs(y_sh.data - y_d.data))

    hcfg = AttentionConfig(dm, H, dh, variant="head_gated", k_active=H)
    hparams = init_attention_params(hcfg, rng)
    y_hg, _, _ = attention_forward(x, hparams, hcfg)
    y_hd, _, _ = attention_forward(x, {k: v for k, v in hparams.items()
                                       if k != "w_gate"},
                                   AttentionConfig(dm, H, dh, variant="dense"))
    err_hg = np.max(np.abs(y_hg.data - y_hd.data))

    rcfg = AttentionConfig(dm, 3, dh, variant="dense", context_mult=2)
    rparams = init_attention_params(rcfg, rng)
    y1, trace, _ = attention_forward(x, rparams, rcfg, want_trace=True)
    v = (x.data @ rparams["w_v"].data).reshape(1, 5, 3, dh).transpose(0, 2, 1, 3)
    av, w_o = trace.attn @ v, rparams["w_o"].data    # per-head-sum readout form
    y2 = sum(av[:, h] @ w_o[h * dh:(h + 1) * dh] for h in range(3))
    err_ro = np.max(np.abs(y1.data - y2))

    ok = err_sh < 1e-12 and err_hg < 1e-12 and err_ro < 1e-10
    _report("reduction oracles: MoE(E=1, unit gates) ≡ dense < 1e-12, "
            "head-gated(K=H) ≡ dense < 1e-12, readout forms < 1e-10",
            ok, f"errors {err_sh:.1e} / {err_hg:.1e} / {err_ro:.1e}")


# -- structural sparsity ---------------------------------------------------


def test_structural_sparsity():
    dm, T = 8, 4
    rng = rng_for(0, "acc-sparse")
    x = Tensor(rng.uniform(-1, 1, (1, T, dm)))
    ok = True
    for H in (1, 2, 3):
        for E, k in ((2, 1), (4, 2), (4, 4)):
            cfg = AttentionConfig(dm, H, 4, variant="switchhead", n_experts=E,
                                  k_active=k, position="none",
                                  expert_flags=ExpertFlags.value_output())
            c = OpCounter()
            attention_forward(x, init_attention_params(cfg, rng), cfg,
                              counter=c)
            ok = ok and c.score_matrices == H
    for E, k in ((4, 1), (4, 2), (6, 4)):
        cfg = AttentionConfig(dm, k, 4, variant="moa", n_experts=E,
                              k_active=k, position="none")
        c = OpCounter()
        attention_forward(x, init_attention_params(cfg, rng), cfg, counter=c)
        ok = ok and c.score_matrices == k
    _report("structural sparsity: MoE attention computes H score matrices "
            "(independent of E, k); MoA computes k_active", ok)


# -- matching invariants ---------------------------------------------------


def test_matching_invariants():
    base = ModelSpec(16, 412, AttentionConfig(412, 10, 41, variant="dense",
                                              context_mult=2),
                     MLPConfig("dense", 2053), 8000, T=256)
    template = ModelSpec(16, 412,
                         AttentionConfig(412, 2, 4, variant="switchhead",
                                         context_mult=2, n_experts=5,
                                         k_active=2,
                                         expert_flags=ExpertFlags.value_output()),
                         MLPConfig("dense", 2053), 8000, T=256)
    target = count_params(base)
    res = match_params(target, template)
    ok = (res.param_count <= target and 0 <= res.slack <= 100_000
          and res.spec.attention.d_head % 4 == 0)
    rep = match_report(base, template)
    per_head = rep["conventions"]["per_head_pos"]
    informational = (per_head["d_head"], per_head["d_ff"]) == (76, 2080)
    _report("matching invariants: count ≤ target, slack ≤ 100k, "
            "d_head ≡ 0 mod 4; per-head-position convention reproduces "
            "the published (76, 2080) row",
            ok and informational,
            f"matched d_head={res.spec.attention.d_head} "
            f"d_ff={res.spec.mlp.d_ff} slack={res.slack}")


# -- ListOps desk-scale comparison -----------------------------------------


def test_listops_ordering():
    if not os.path.exists(RESULTS):
        _report("ListOps ordering (4 layers, d_model=128, 8k steps, 3 seeds)",
                False, "runs/listops_results.json missing — run "
                       "scripts/listops_acceptance.py first")
    with open(RESULTS) as f:
        results = json.load(f)
    accs = {}
    for config in ("dense_h2", "dense_h8", "switchhead_h2"):
        keys = [f"{config}/seed{s}" for s in (0, 1, 2)]
        if not all(k in results for k in keys):
            _report("ListOps ordering (4 layers, d_model=128, 8k steps, "
                    "3 seeds)", False,
                    f"incomplete grid: missing seeds for {config}")
        for seed, key in enumerate(keys):
            rec = results[key]
            if (rec.get("steps") != 8000 or rec.get("config") != config
                    or rec.get("seed") != seed):
                _report("ListOps ordering (4 layers, d_model=128, 8k steps, "
                        "3 seeds)", False,
                        f"{key} is not an 8k-step {config} seed-{seed} run: "
                        f"steps={rec.get('steps')} config={rec.get('config')} "
                        f"seed={rec.get('seed')}")
        accs[config] = median(results[k]["accuracy"] for k in keys)
    # the ordering's margin is smaller than the float32/float64 difference
    # of one config's median, so the nine runs must share one precision
    # (records made before the field existed are float64)
    dtypes = {results[f"{config}/seed{seed}"].get("dtype", "float64")
              for config in accs for seed in (0, 1, 2)}
    if len(dtypes) != 1:
        _report("ListOps ordering (4 layers, d_model=128, 8k steps, 3 seeds)",
                False, f"the grid mixes precisions: {sorted(dtypes)}")
    # nor may it mix data (records made before the field existed share the
    # data they were made on)
    digests = {str(results[f"{config}/seed{seed}"].get("data_sha256"))
               for config in accs for seed in (0, 1, 2)}
    if len(digests) != 1:
        _report("ListOps ordering (4 layers, d_model=128, 8k steps, 3 seeds)",
                False, f"the grid mixes data: {sorted(digests)}")
    ok = (accs["switchhead_h2"] >= accs["dense_h2"]
          and accs["switchhead_h2"] >= accs["dense_h8"] - 0.05)
    _report("ListOps ordering: median MoE-attention(H=2) ≥ dense(H=2) and "
            "within 5 points of dense(H=8)",
            ok, "medians " + ", ".join(f"{k}={v:.4f}" for k, v in accs.items()))


# -- documented exclusions -------------------------------------------------


def test_large_scale_metrics_documented_not_tested():
    readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
    ok = os.path.exists(readme)
    if ok:
        text = open(readme, encoding="utf-8").read().lower()
        ok = (all(m in text for m in ("perplexity", "bpc", "wall-clock"))
              and "out of scope" in text
              and re.search(r"\b(not|never) asserted\b", text) is not None)
    _report("large-scale perplexity/bpc and wall-clock ratios are documented "
            "as out of scope, never asserted", ok)
