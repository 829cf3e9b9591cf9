"""Bit-for-bit comparison of two checkouts of the lab on a fixed capture.

    python3 scripts/identity_check.py PARENT_DIR CHANGE_DIR

Each checkout gets one worker process that imports switchlab and the
benchmark's workloads from that checkout (``src`` and ``bench/workloads.py``),
with BLAS pinned to one thread as in ``bench/run.py``, and dumps one
capture:

* float64, every ``gradcheck.suite_cases()`` attention config for seeds
  0-2 and (B, T) in {(1, 4), (2, 5), (3, 7)}, with a pre-filled cache where
  the config keeps one: the output, the input and parameter grads, the
  attention matrices of the trace and its routing decisions (one
  (indices, weights) pair per routing decision), the new cache and the
  OpCounter snapshot of one forward and backward;
* float64, two whole models for seeds 0-2, layer norms and heads
  included: the gradient suite's SwitchAll language model (2 layers,
  SwitchHead V and O experts, XL cache C = 2, sigma-MoE MLP) over two
  chunks, the second continuing the first's cache, and a dense-MLP
  SwitchHead ListOps classifier on a padded batch with its key mask, each
  with every parameter moved off its initial value by a seeded draw (so no
  layer norm has unit gains and zero biases): the logits (and the LM's
  returned caches) and every parameter grad of one forward and backward;
* float32, each workload ``BENCHMARK.json`` gates and the benchmark's
  ungated dense ListOps workload ``listops_dense_h8`` (the one bench model
  with per-head XL position biases and a dense MLP), set up as the
  benchmark does (seed 0): the losses of ``TRAIN_STEPS`` training steps,
  the parameters after them and the exact counts of ``forward_counts``;
* for each gated workload, a case ``eval <name>``: the numbers of the
  benchmark's ``evaluate()`` call on the model after those steps;
* float32, a head-gated ListOps model (H=8, k=2) on the benchmark's ListOps
  data: the losses of ``HEAD_GATED_STEPS`` steps and the final parameters,
  then the logits and parameter grads of one forward and backward on the
  first training batch without a key mask (the classifier's unmasked
  pooling);
* for each of these workloads, a case ``data <name>`` with sha256 digests
  of the data it set up: the ListOps training and evaluation splits (each
  example's ids, label and depth), or the LM's corpus and evaluation
  corpus (ids, vocabulary and split point), so a change to the data shows
  as such and not only through the training steps;
* the same digest of ``gen_listops`` for the settings in ``LISTOPS_DATA``,
  which no workload uses: seeds of two and three 32-bit words, and deep,
  wide expressions under a short ``max_len``, given up so often that the
  stream is refilled many times.

The script then compares the two captures bit for bit, prints each case
that differs with its largest absolute difference, and exits 1 if any
case differs (0 if none does). Both workers read the traces with this
script's code, so a checkout whose trace selections are not
(indices, weights) pairs of arrays stops the run with exit 2, naming the
checkout, the case and the selection; a worker that fails otherwise
stops it with the worker's exit code.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import replace

import numpy as np

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SEED = 0
SUITE_SEEDS = (0, 1, 2)
SUITE_SHAPES = ((1, 4), (2, 5), (3, 7))
MODEL_B, MODEL_T = 3, 6              # rows and chunk length of the LM model case
TRAIN_STEPS = 6
UNGATED = ("listops_dense_h8",)
HEAD_GATED_STEPS = 24
SEP = "|"
# gen_listops(n, max_depth, max_args, seed, max_len) cases of the data capture
LISTOPS_DATA = ((300, 6, 6, 2**40 + 5, 40), (300, 3, 5, 2**32, 64), (300, 3, 5, 2**64 + 3, 64))


def suite_capture(out: dict, root: str) -> None:
    """Capture the float64 gradient-suite cases into ``out``.

    Selections are read in this script's layout of
    ``AttentionTrace.selections``; one that is not an (indices, weights)
    pair of arrays (another layout, in the checkout at ``root``) stops the
    capture with exit 2 instead of being misread."""
    from switchlab.attention import (LayerCache, attention_forward, cache_shape,
                                     init_attention_params)
    from switchlab.counter import OpCounter
    from switchlab.gradcheck import suite_cases
    from switchlab.rng import rng_for
    from switchlab.tensor import Tensor, mul, tsum

    for name, cfg in suite_cases().items():
        for seed in SUITE_SEEDS:
            for B, T in SUITE_SHAPES:
                case_name = f"f64 {name} seed={seed} B={B} T={T}"
                case = out.setdefault(case_name, {})
                rng = rng_for(seed, "identity", name, B, T)
                params = init_attention_params(cfg, rng)
                x = Tensor(rng.uniform(-1, 1, (B, T, cfg.d_model)), requires_grad=True)
                probe = rng.uniform(-1, 1, (B, T, cfg.d_model))
                cache = None
                if cfg.context_mult > 1:
                    shape = cache_shape(cfg, B, (cfg.context_mult - 1) * T)
                    cache = LayerCache(k=rng.uniform(-1, 1, shape),
                                       v=rng.uniform(-1, 1, shape))
                counter = OpCounter()
                y, trace, new_cache = attention_forward(x, params, cfg, counter, cache=cache,
                                                        want_trace=True)
                tsum(mul(y, Tensor(probe))).backward()
                case["y"], case["grad.input"], case["attn"] = y.data, x.grad, trace.attn
                for key, p in params.items():
                    case[f"grad.{key}"] = p.grad
                for key, sel in trace.selections.items():
                    if not (isinstance(sel, tuple) and len(sel) == 2
                            and all(isinstance(a, np.ndarray) for a in sel)):
                        print(f"error: {root}: case '{case_name}': trace selection '{key}' "
                              "is not an (indices, weights) pair of arrays", file=sys.stderr)
                        sys.exit(2)
                    indices, weights = sel
                    case[f"sel.{key}.indices"] = indices
                    case[f"sel.{key}.weights"] = weights
                if new_cache is not None:
                    case["cache.k"], case["cache.v"] = new_cache.k, new_cache.v
                case["counter"] = np.frombuffer(
                    json.dumps(counter.snapshot(), sort_keys=True).encode(), dtype=np.uint8)


def model_capture(out: dict) -> None:
    """Capture the float64 whole-model cases into ``out``.

    The LM is ``gradcheck._switchall_case``'s spec, written out here, so a
    checkout whose gradient suite has another model is still compared on
    this one."""
    from switchlab.attention import AttentionConfig, ExpertFlags
    from switchlab.listops import N_LABELS, VOCAB_SIZE, gen_listops, pad_batch
    from switchlab.model import MLPConfig, ModelSpec, build
    from switchlab.rng import rng_for
    from switchlab.tensor import add, cross_entropy

    def built(spec, seed):
        model = build(spec, seed).astype(np.float64)
        rng = rng_for(seed, "identity", "model-params")
        for p in model.params.values():
            p.data += rng.uniform(-0.2, 0.2, p.shape)
        return model

    dm = 8
    switchall = ModelSpec(
        n_layers=2, d_model=dm,
        attention=AttentionConfig(dm, 2, 4, variant="switchhead", context_mult=2,
                                  n_experts=3, k_active=2,
                                  expert_flags=ExpertFlags.value_output()),
        mlp=MLPConfig("sigma_moe", d_ff=6, n_experts=3, k_active=2),
        vocab_size=11, T=MODEL_T)
    classifier = ModelSpec(
        n_layers=2, d_model=dm,
        attention=AttentionConfig(dm, 2, 4, variant="switchhead", causal=False,
                                  n_experts=3, k_active=2,
                                  expert_flags=ExpertFlags.value_output()),
        mlp=MLPConfig("dense", d_ff=12), vocab_size=VOCAB_SIZE, T=32, n_classes=N_LABELS)
    for seed in SUITE_SEEDS:
        case = out.setdefault(f"f64 model switchall seed={seed}", {})
        model = built(switchall, seed)
        rng = rng_for(seed, "identity", "switchall-model")
        tokens = rng.integers(switchall.vocab_size, size=(MODEL_B, 2 * MODEL_T + 1))
        caches, losses = None, []
        for c in range(2):
            lo, hi = c * MODEL_T, (c + 1) * MODEL_T
            logits, _, caches = model.forward(tokens[:, lo:hi], caches=caches)
            losses.append(cross_entropy(logits, tokens[:, lo + 1:hi + 1]))
            case[f"logits.{c}"] = logits.data
        add(*losses).backward()
        for i, cache in enumerate(caches):
            case[f"cache.{i}.k"], case[f"cache.{i}.v"] = cache.k, cache.v
        for key, p in model.params.items():
            case[f"grad.{key}"] = p.grad

        case = out.setdefault(f"f64 model listops classifier seed={seed}", {})
        model = built(classifier, seed)
        tokens, labels, mask = pad_batch(gen_listops(4, 3, 4, seed=seed, max_len=32))
        logits, _, _ = model.forward(tokens, key_mask=mask)
        cross_entropy(logits, labels).backward()
        case["logits"] = logits.data
        for key, p in model.params.items():
            case[f"grad.{key}"] = p.grad


def digest(chunks) -> np.ndarray:
    """The sha256 digest of the concatenated byte strings, as 32 uint8."""
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return np.frombuffer(h.digest(), dtype=np.uint8)


def examples_digest(examples) -> np.ndarray:
    return digest(f"{e.tokens.hex()} {e.label} {e.depth}\n".encode() for e in examples)


def listops_capture(out: dict) -> None:
    from switchlab.listops import gen_listops

    for n, max_depth, max_args, seed, max_len in LISTOPS_DATA:
        name = f"data listops n={n} depth={max_depth} args={max_args} seed={seed} len={max_len}"
        out[name] = {"examples": examples_digest(
            gen_listops(n, max_depth, max_args, seed=seed, max_len=max_len))}


def data_capture(out: dict, name: str, task, eval_task) -> None:
    case = out.setdefault(f"data {name}", {})
    if task.kind == "classification":
        case["train"] = examples_digest(task.splits["train"])
        case["eval"] = examples_digest(eval_task.splits["valid"])
        return
    for field, corpus in (("corpus", task.corpus), ("eval_corpus", eval_task.corpus)):
        case[field] = digest([corpus.data.tobytes(), b"|", corpus.vocab.tobytes(),
                              b"|", str(corpus.train_end).encode()])


def train_capture(out: dict, name: str, wl, W, steps: int, counts: bool,
                  evaluate: bool = False):
    """Train ``steps`` steps as the benchmark does and capture the losses,
    the parameters and, as asked, the exact counts and the ``eval`` case."""
    _, (task, eval_task, model, opt) = W.setup(wl, SEED)
    data_capture(out, name, task, eval_task)
    trainer = W.Trainer(wl, task, model, opt, SEED)
    for _ in range(steps):
        trainer.step()
    case = out.setdefault(f"f32 {name}", {})
    case["losses"] = np.array(trainer.losses)
    for key, p in model.params.items():
        case[f"param.{key}"] = p.data
    if counts:
        for key, value in W.forward_counts(wl, task, model, SEED).items():
            if key != "gmacs_per_s":          # a timing, not a count
                case[key] = np.array(value)
    if evaluate:
        result = W.evaluate(wl, model, eval_task)[0]
        out[f"eval {name}"] = {key: np.array(value) for key, value in result.items()
                               if key != "split"}
    return task, model


def unmasked_capture(out: dict, wl, task, model) -> None:
    from switchlab.listops import pad_batch
    from switchlab.tensor import cross_entropy

    tokens, labels, _ = pad_batch(task.splits["train"][:wl.batch_size])
    logits, _, _ = model.forward(tokens)
    cross_entropy(logits, labels).backward()
    case = out.setdefault(f"f32 {wl.name} without key mask", {})
    case["logits"] = logits.data
    for key, p in model.params.items():
        case[f"grad.{key}"] = p.grad


def worker(root: str, path: str) -> None:
    sys.path[:0] = [os.path.join(root, "src"), root]
    from bench import workloads as W
    from switchlab.attention import AttentionConfig

    out: dict = {}
    suite_capture(out, root)
    model_capture(out)
    listops_capture(out)
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        gated = [w["name"] for w in json.load(f)["workloads"]]
    for name in (*gated, *UNGATED):
        train_capture(out, name, W.WORKLOADS[name], W, TRAIN_STEPS, counts=True,
                      evaluate=name in gated)
    head_gated = replace(W.WORKLOADS["listops_dense_h8"], name="listops_head_gated_h8",
                         attention=AttentionConfig(128, 8, 16, variant="head_gated",
                                                   causal=False, k_active=2))
    task, model = train_capture(out, head_gated.name, head_gated, W, HEAD_GATED_STEPS,
                                counts=False)
    unmasked_capture(out, head_gated, task, model)
    np.savez(path, **{f"{case}{SEP}{field}": np.asarray(value)
                      for case, fields in out.items() for field, value in fields.items()})


def capture(root: str, path: str) -> dict:
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    code = subprocess.run([sys.executable, os.path.abspath(__file__), "--worker", root, path],
                          env=env).returncode
    if code:
        sys.exit(code)
    cases: dict = {}
    with np.load(path) as data:
        for key in data.files:
            case, field = key.split(SEP)
            cases.setdefault(case, {})[field] = data[key]
    return cases


def difference(a: np.ndarray, b: np.ndarray) -> float | None:
    """None when a and b are equal bit for bit, else their largest absolute
    difference (inf when shape or dtype differ)."""
    if a.shape != b.shape or a.dtype != b.dtype:
        return float("inf")
    if a.tobytes() == b.tobytes():
        return None
    return float(np.max(np.abs(a.astype(np.float64) - b.astype(np.float64))))


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        parent, change = (capture(root, os.path.join(tmp, f"{side}.npz"))
                          for side, root in zip(("parent", "change"), sys.argv[1:]))
    differing = 0
    for case in sorted(parent.keys() | change.keys()):
        p, c = parent.get(case, {}), change.get(case, {})
        fields, worst = [], 0.0
        for field in sorted(p.keys() | c.keys()):
            diff = (difference(p[field], c[field]) if field in p and field in c
                    else float("inf"))
            if diff is not None:
                fields.append(field)
                worst = max(worst, diff)
        if fields:
            differing += 1
            print(f"DIFFERS {case}: max abs diff {worst:.3e} in {', '.join(fields)}")
    print(f"{len(parent.keys() | change.keys())} cases, {differing} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:
        worker(*sys.argv[2:4])
    else:
        sys.exit(main())
