"""Training and evaluation loops for the desk-scale tasks.

Two task shapes are supported: sequence classification (ListOps; no causal
masking, mean-pooled head) and byte-level language modelling (XL chunk
streaming with a cached context chunk). Runs are bit-reproducible: every
random draw comes from a stream keyed by (seed, purpose, step).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .listops import N_LABELS, ListOpsExample, pad_batch
from .corpus import CharCorpus
from .model import Model, ModelSpec, build
from .moe import ConfigError
from .optim import Adam
from .rng import rng_for
from .tensor import Tensor, cross_entropy

log = logging.getLogger(__name__)


class DivergenceError(RuntimeError):
    """Loss became non-finite; carries a diagnostic snapshot."""

    def __init__(self, message: str, snapshot: dict):
        super().__init__(message)
        self.snapshot = snapshot


@dataclass
class TrainRun:
    spec: ModelSpec
    seed: int = 0
    steps: int = 1000
    batch_size: int = 16
    lr: float = 2.5e-4
    warmup_steps: int = 4000
    clip_norm: float | None = 1.0      # kappa; None disables clipping
    log_every: int = 100


class ListOpsTask:
    """Classification over padded expressions; causal masking off."""

    kind = "classification"
    n_labels = N_LABELS

    def __init__(self, train_examples: list[ListOpsExample],
                 valid_examples: list[ListOpsExample]):
        if not train_examples or not valid_examples:
            raise ConfigError("both splits need at least one example")
        self.splits = {"train": train_examples, "valid": valid_examples}
        # batches are consecutive runs of the length-sorted pool, so padding
        # work stays proportional to content length instead of the batch max
        self._by_length = sorted(train_examples, key=lambda e: e.length)

    def batch(self, seed: int, step: int, batch_size: int):
        rng = rng_for(seed, "batch", step)
        pool = self._by_length
        if batch_size >= len(pool):
            return pad_batch(pool)
        start = int(rng.integers(len(pool) - batch_size + 1))
        return pad_batch(pool[start:start + batch_size])


class CharLMTask:
    """Byte LM over parallel corpus streams in T-sized chunks.

    Each of the B streams reads a contiguous slice of the train split;
    caches carry across chunks within a pass and are reset when the
    streams rewind (every ``chunks_per_pass`` steps).
    """

    kind = "lm"

    def __init__(self, corpus: CharCorpus, T: int, batch_size: int):
        if batch_size < 1 or T < 1:
            raise ConfigError(f"char_lm needs batch_size >= 1 and T >= 1, "
                              f"got batch_size={batch_size}, T={T}")
        self.corpus = corpus
        self.T = T
        self.batch_size = batch_size
        n = len(corpus.split("train"))
        self.stride = (n - 1) // batch_size
        self.chunks_per_pass = self.stride // T
        if self.chunks_per_pass < 1:
            raise ConfigError(
                f"train split too small for batch_size={batch_size}, T={T}")

    def batch(self, seed: int, step: int, batch_size: int):
        if batch_size != self.batch_size:
            raise ConfigError("CharLMTask stream layout is fixed at construction")
        data = self.corpus.split("train")
        T = self.T
        pos = ((step - 1) % self.chunks_per_pass) * T
        starts = np.arange(batch_size) * self.stride + pos
        x = np.stack([data[s:s + T] for s in starts])
        y = np.stack([data[s + 1:s + T + 1] for s in starts])
        reset = pos == 0
        return x, y, reset


def _check_head(spec: ModelSpec, task) -> None:
    """Raise ConfigError unless the model's head fits the task: a
    classifier with a logit for every label, or a language-model head."""
    if task.kind == "classification":
        if spec.n_classes is None or spec.n_classes < task.n_labels:
            raise ConfigError(f"a classification task with labels 0-{task.n_labels - 1} "
                              f"needs a classifier head of n_classes >= {task.n_labels}, "
                              f"got {spec.n_classes or 'a language-model head'}")
    elif spec.n_classes is not None:
        raise ConfigError(f"a language-model task needs a language-model head "
                          f"(n_classes = 0), got a classifier of {spec.n_classes} classes")


def _check_finite(value: float, step: int, extra: dict) -> None:
    if not math.isfinite(value):
        snapshot = {"step": step, "loss": value, **extra}
        raise DivergenceError(f"training diverged at step {step} (loss={value})",
                              snapshot)


def train(run: TrainRun, task) -> tuple[Model, list[dict]]:
    """Train a fresh model on a task; returns (model, metrics log)."""
    if (run.steps < 0 or run.batch_size < 1 or run.log_every < 1 or run.lr < 0
            or run.warmup_steps < 0):
        raise ConfigError("steps must be >= 0, batch_size >= 1, log_every >= 1, lr >= 0 "
                          "and warmup_steps >= 0")
    _check_head(run.spec, task)
    model = build(run.spec, run.seed)
    opt = Adam(model.params, lr=run.lr, warmup_steps=run.warmup_steps,
               clip_norm=run.clip_norm)
    metrics: list[dict] = []
    caches = model.empty_caches()
    for step in range(1, run.steps + 1):
        if task.kind == "classification":
            tokens, labels, mask = task.batch(run.seed, step, run.batch_size)
            logits, _, _ = model.forward(tokens, key_mask=mask)
            loss = cross_entropy(logits, labels)
            extra = {"accuracy": float((logits.data.argmax(-1) == labels).mean())}
        else:
            x, y, reset = task.batch(run.seed, step, run.batch_size)
            if reset:
                caches = model.empty_caches()
            logits, _, caches = model.forward(x, caches=caches)
            loss = cross_entropy(logits, y)
            extra = {"bpc": float(loss.data) / math.log(2)}
        _check_finite(float(loss.data), step, extra)
        loss.backward()
        stats = opt.step()
        if step % run.log_every == 0 or step == run.steps:
            record = {"step": step, "loss": float(loss.data),
                      "lr": stats["lr"], "grad_norm": stats["grad_norm"], **extra}
            metrics.append(record)
            log.info("step %d/%d %s", step, run.steps,
                     " ".join(f"{k}={v:.4g}" for k, v in record.items() if k != "step"))
    return model, metrics


def evaluate(model: Model, task, split: str = "valid",
             batch_size: int = 64) -> dict:
    """Frozen-model metrics: accuracy (classification) or bpc/perplexity (LM).

    The forward passes run on a view of the model whose parameters share
    the same arrays but do not require grad, so no tape is recorded and the
    live parameters' grads are left alone. ``batch_size`` is the row count
    of a classification forward; below 1 it raises ConfigError.

    A language model reads the split as a stream of T-sized chunks (the
    last may be shorter). The first C-1 chunks, while the XL cache fills,
    and a short last chunk run one at a time; the other chunks run in
    groups of ``task.batch_size`` consecutive chunks, one forward per group
    that continues the one-row caches: a frozen layer needs only its own
    keys and values of the C-1 chunks before a chunk, so the group goes
    through each layer at once. Each chunk's nll comes from its own row of
    logits. The math is that of one chunk at a time, but the bits need not
    be: a BLAS GEMM's output rows can change with the number of rows it is
    given, so the nll may differ in the last places; ``task.batch_size = 1``
    runs the chunks one at a time.
    """
    _check_head(model.spec, task)
    if batch_size < 1:
        raise ConfigError(f"evaluation batch_size must be >= 1, got {batch_size}")
    model = Model(model.spec, {k: Tensor(p.data) for k, p in model.params.items()})
    if task.kind == "classification":
        if split not in task.splits:
            raise ConfigError(f"unknown split '{split}'")
        pool = task.splits[split]
        if not pool:
            raise ConfigError(f"split '{split}' is empty")
        correct = 0
        for lo in range(0, len(pool), batch_size):
            tokens, labels, mask = pad_batch(pool[lo:lo + batch_size])
            logits, _, _ = model.forward(tokens, key_mask=mask)
            correct += int((logits.data.argmax(-1) == labels).sum())
        return {"split": split, "n": len(pool), "accuracy": correct / len(pool)}
    data = task.corpus.split(split)
    T = task.T
    if len(data) < 2:
        raise ConfigError(f"split '{split}' is empty")
    n_full, n_chunks = (len(data) - 1) // T, -(-(len(data) - 1) // T)
    warm = model.spec.attention.context_mult - 1
    caches = model.empty_caches()
    total_nll = 0.0
    total_tok = 0
    c = 0
    while c < n_chunks:
        g = min(task.batch_size, n_full - c) if warm <= c < n_full else 1
        y = np.stack([data[i * T + 1:(i + 1) * T + 1] for i in range(c, c + g)])
        x = np.stack([data[i * T:i * T + y.shape[1]] for i in range(c, c + g)])
        logits, _, caches = model.forward(x, caches=caches)
        for j in range(g):
            nll = cross_entropy(Tensor(logits.data[j:j + 1]), y[j:j + 1])
            total_nll += float(nll.data) * y.shape[1]
            total_tok += y.shape[1]
        c += g
    mean_nll = total_nll / total_tok
    return {"split": split, "n": total_tok, "nll": mean_nll,
            "bpc": mean_nll / math.log(2), "perplexity": math.exp(mean_nll)}


def metrics_lines(metrics: list[dict]) -> str:
    """Line-delimited log: one ``step metric value`` record per field."""
    lines = []
    for row in metrics:
        step = row["step"]
        for key, value in row.items():
            if key != "step":
                lines.append(f"{step} {key} {value!r}")
    return "\n".join(lines) + ("\n" if lines else "")
