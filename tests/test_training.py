"""Training loop: reproducibility, warmup wiring, streaming equivalence,
divergence handling, and baseline metric values."""

import hashlib
import logging
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from switchlab.attention import AttentionConfig, ExpertFlags
from switchlab.corpus import from_bytes
from switchlab.listops import VOCAB_SIZE, gen_listops, pad_batch, to_line
from switchlab.model import MLPConfig, Model, ModelSpec, build
from switchlab.moe import ConfigError
from switchlab.optim import Adam
from switchlab.rng import rng_for
from switchlab.tensor import cross_entropy
from switchlab.training import (CharLMTask, DivergenceError, ListOpsTask,
                                TrainRun, evaluate, metrics_lines, train)


def listops_spec(L=1, dm=16, dff=32, T=24):
    return ModelSpec(L, dm,
                     AttentionConfig(dm, 2, 4, variant="dense",
                                     position="none", causal=False),
                     MLPConfig("dense", dff), VOCAB_SIZE, T=T, n_classes=10)


def listops_task(n_train=24, n_valid=16, seed=11):
    return ListOpsTask(gen_listops(n_train, max_depth=2, max_args=3,
                                   seed=seed, max_len=24),
                       gen_listops(n_valid, max_depth=2, max_args=3,
                                   seed=seed + 1, max_len=24))


def bytes_corpus(n=4096, seed=0, valid_fraction=0.25):
    raw = bytes(rng_for(seed, "corpus").integers(4, size=n).tolist())
    return from_bytes(raw, valid_fraction=valid_fraction)


def lm_spec(T=8, C=2, dm=16, vocab=4):
    return ModelSpec(1, dm,
                     AttentionConfig(dm, 2, 4, variant="dense",
                                     position="xl_relative", context_mult=C),
                     MLPConfig("dense", 16), vocab, T=T)


# -- loop mechanics --------------------------------------------------------


def test_zero_lr_leaves_params_at_init():
    run = TrainRun(listops_spec(), seed=0, steps=10, batch_size=8, lr=0.0,
                   warmup_steps=0, log_every=5)
    model, _ = train(run, listops_task())
    reference = build(run.spec, run.seed)
    for name, p in model.params.items():
        assert np.array_equal(p.data, reference.params[name].data), name


def test_logged_lr_follows_warmup():
    run = TrainRun(listops_spec(), steps=4, batch_size=8, lr=1e-3,
                   warmup_steps=10, log_every=1)
    _, metrics = train(run, listops_task())
    for row in metrics:
        assert row["lr"] == pytest.approx(1e-3 * row["step"] / 10)


def test_training_bit_reproducible():
    run = TrainRun(listops_spec(), seed=5, steps=8, batch_size=8,
                   lr=1e-3, warmup_steps=0, log_every=4)
    m1, log1 = train(run, listops_task())
    m2, log2 = train(run, listops_task())
    assert log1 == log2
    for name, p in m1.params.items():
        assert np.array_equal(p.data, m2.params[name].data), name


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_raises_with_snapshot():
    # absurd learning rate pushes weights to +-1e200 after one Adam step;
    # the next forward overflows and the loop must abort, not march on NaNs
    run = TrainRun(listops_spec(), steps=50, batch_size=8, lr=1e200,
                   warmup_steps=0, clip_norm=None, log_every=1)
    with pytest.raises(DivergenceError) as e:
        train(run, listops_task())
    snap = e.value.snapshot
    assert snap["step"] >= 2
    assert not math.isfinite(snap["loss"])


def test_overfits_tiny_listops_pool():
    # capacity check: a 2-layer model memorizes 24 expressions perfectly
    task = listops_task(n_train=24, n_valid=8)
    run = TrainRun(listops_spec(L=2, dm=32, dff=64), seed=1, steps=600,
                   batch_size=24, lr=3e-3, warmup_steps=50, log_every=100)
    model, metrics = train(run, task)
    assert evaluate(model, task, "train")["accuracy"] == 1.0
    assert metrics[-1]["loss"] < 0.1


def test_invalid_run_settings():
    with pytest.raises(ConfigError):
        train(TrainRun(listops_spec(), steps=-1), listops_task())
    with pytest.raises(ConfigError):
        train(TrainRun(listops_spec(), batch_size=0), listops_task())
    with pytest.raises(ConfigError):
        ListOpsTask([], gen_listops(1))


# -- LM streaming ----------------------------------------------------------


def test_chunked_stream_matches_full_window():
    # same weights, one model fed 16 tokens at once (window covers all of
    # it) vs chunk-by-chunk streaming with caches: logits agree
    corpus = bytes_corpus()
    data = corpus.split("train")[:16]
    full = build(lm_spec(T=16, C=2), 3).astype(np.float64)
    chunked = build(lm_spec(T=4, C=4), 3).astype(np.float64)   # window C*T = 16 covers history
    y_full, _, _ = full.forward(data[None, :])
    caches = chunked.empty_caches()
    outs = []
    for lo in range(0, 16, 4):
        y, _, caches = chunked.forward(data[None, lo:lo + 4], caches=caches)
        outs.append(y.data)
    assert np.max(np.abs(np.concatenate(outs, axis=1) - y_full.data)) < 1e-8


def test_char_lm_task_stream_layout():
    corpus = bytes_corpus()
    task = CharLMTask(corpus, T=8, batch_size=4)
    data = corpus.split("train")
    x1, y1, reset1 = task.batch(0, 1, 4)
    assert reset1 and x1.shape == y1.shape == (4, 8)
    assert np.array_equal(y1, np.stack(
        [data[s + 1:s + 9] for s in np.arange(4) * task.stride]))
    x2, _, reset2 = task.batch(0, 2, 4)
    assert not reset2
    assert np.array_equal(x2[:, 0], np.stack(
        [data[s + 8] for s in np.arange(4) * task.stride]))
    # stream rewinds after chunks_per_pass steps
    _, _, reset = task.batch(0, task.chunks_per_pass + 1, 4)
    assert reset
    with pytest.raises(ConfigError):
        task.batch(0, 1, 8)


def test_corpus_ids_pinned():
    """The byte LM benchmark's corpus (the lines of generator seed 100) maps
    to the same ids and vocabulary through any change of their storage;
    the ids are pinned by value, whatever their dtype."""
    text = "".join(to_line(e) + "\n" for e in gen_listops(3000, 3, 5, seed=100))
    corpus = from_bytes(text.encode(), valid_fraction=0.1)
    assert bytes(corpus.vocab.tolist()) == b"\t\n ()0123456789ADEIMNSX"
    assert corpus.vocab.dtype == np.uint8
    assert corpus.data.dtype == np.uint8       # one byte per byte of text
    assert (len(corpus.data), corpus.train_end) == (263177, 236859)
    assert corpus.data[:12].tolist() == [3, 2, 19, 15, 22, 2, 3, 2, 19, 15, 22, 2]
    assert (hashlib.sha256(corpus.data.astype(np.int64).tobytes()).hexdigest()
            == "2f34a9e25b6917a42e39e0ef1233932923dfd9eb103fabfb032d50062a77a1be")


@pytest.mark.parametrize("raw", [
    *(bytes(rng_for(seed, "vocab").integers(256, size=n).tolist())
      for seed, n in ((0, 50), (1, 700), (2, 3000))),
    b"x", bytes(range(256)),
], ids=["random50", "random700", "random3000", "one_byte", "all_256"])
def test_corpus_vocab_equals_unique(raw):
    corpus = from_bytes(raw)
    want = np.unique(np.frombuffer(raw, dtype=np.uint8))
    assert corpus.vocab.dtype == want.dtype
    assert np.array_equal(corpus.vocab, want)


def test_corpus_does_not_import_numpy_ma():
    # np.unique imports numpy.ma on its first call, about 1 MB that a char
    # LM run never uses
    probe = ("import sys\n"
             "from switchlab.corpus import from_bytes\n"
             "from_bytes(bytes(range(256)) * 4)\n"
             "print('numpy.ma' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_char_lm_task_too_small():
    with pytest.raises(ConfigError):
        CharLMTask(bytes_corpus(n=64), T=32, batch_size=8)


def test_lm_train_runs_and_logs_bpc():
    corpus = bytes_corpus(n=1024)
    task = CharLMTask(corpus, T=8, batch_size=4)
    run = TrainRun(lm_spec(T=8, C=2, vocab=corpus.vocab_size), steps=6,
                   batch_size=4, lr=1e-3, warmup_steps=0, log_every=3)
    model, metrics = train(run, task)
    assert metrics and all("bpc" in row for row in metrics)
    out = evaluate(model, task, "valid")
    assert out["bpc"] > 0 and out["perplexity"] == pytest.approx(
        math.exp(out["nll"]))


# -- baseline metric values ------------------------------------------------


def test_uniform_predictor_bpc_is_log2_vocab():
    corpus = bytes_corpus(n=2048)
    task = CharLMTask(corpus, T=8, batch_size=4)
    model = build(lm_spec(T=8, C=2, vocab=corpus.vocab_size), 0).astype(np.float64)
    model.params["readout"].data[:] = 0.0   # uniform distribution
    out = evaluate(model, task, "valid")
    assert out["bpc"] == pytest.approx(math.log2(corpus.vocab_size), abs=1e-9)
    assert out["perplexity"] == pytest.approx(corpus.vocab_size, rel=1e-9)


def test_constant_classifier_scores_class_frequency():
    task = listops_task(n_train=24, n_valid=200, seed=21)
    model = build(listops_spec(), 0)
    model.params["head"].data[:] = 0.0      # argmax falls back to class 0
    out = evaluate(model, task, "valid")
    freq0 = sum(e.label == 0 for e in task.splits["valid"]) / 200
    assert out["accuracy"] == pytest.approx(freq0)
    assert out["n"] == 200


def switchall_lm_spec(T=8, vocab=4):
    dm = 16
    return ModelSpec(1, dm,
                     AttentionConfig(dm, 2, 4, variant="switchhead",
                                     context_mult=2, n_experts=3, k_active=2,
                                     expert_flags=ExpertFlags.value_output()),
                     MLPConfig("sigma_moe", 8, 3, 2), vocab, T=T)


def _record_forward(monkeypatch, field: int) -> list:
    """Item ``field`` of what every Model.forward call returns while the
    test runs: 0 the logits, 2 the caches."""
    seen = []
    live_forward = Model.forward

    def recording_forward(self, *args, **kwargs):
        out = live_forward(self, *args, **kwargs)
        seen.append(out[field])
        return out

    monkeypatch.setattr(Model, "forward", recording_forward)
    return seen


@pytest.fixture
def forward_outputs(monkeypatch):
    """Logits of every Model.forward call made while the test runs."""
    return _record_forward(monkeypatch, 0)


@pytest.fixture
def forward_caches(monkeypatch):
    """The caches every Model.forward call returns while the test runs."""
    return _record_forward(monkeypatch, 2)


def test_evaluate_classification_is_tape_free_and_exact(forward_outputs):
    task = listops_task(n_train=24, n_valid=37, seed=5)
    model = build(listops_spec(), 3)
    out = evaluate(model, task, "valid", batch_size=8)
    assert forward_outputs and not any(t.requires_grad for t in forward_outputs)
    assert all(p.grad is None and p.requires_grad for p in model.params.values())
    pool = task.splits["valid"]
    correct = 0
    for lo in range(0, len(pool), 8):
        tokens, labels, mask = pad_batch(pool[lo:lo + 8])
        logits, _, _ = model.forward(tokens, key_mask=mask)
        correct += int((logits.data.argmax(-1) == labels).sum())
    assert out["accuracy"] == correct / len(pool)


def test_evaluate_lm_is_tape_free_and_exact(forward_outputs):
    corpus = bytes_corpus(n=1024)
    task = CharLMTask(corpus, T=8, batch_size=4)
    model = build(switchall_lm_spec(vocab=corpus.vocab_size), 2)
    out = evaluate(model, task, "valid")
    assert forward_outputs and not any(t.requires_grad for t in forward_outputs)
    assert all(p.grad is None for p in model.params.values())
    data = corpus.split("valid")
    caches = model.empty_caches()
    total_nll, total_tok = 0.0, 0
    for lo in range(0, len(data) - 1, 8):
        y = data[lo + 1:lo + 9][None, :]
        x = data[lo:lo + y.shape[1]][None, :]
        logits, _, caches = model.forward(x, caches=caches)
        total_nll += float(cross_entropy(logits, y).data) * y.size
        total_tok += y.size
    assert out["n"] == total_tok
    assert out["nll"] == total_nll / total_tok
    assert out["bpc"] == out["nll"] / math.log(2)


def stream_lm_spec(C, T=8, vocab=4):
    dm = 16
    return ModelSpec(2, dm,
                     AttentionConfig(dm, 2, 4, variant="switchhead",
                                     context_mult=C, n_experts=3, k_active=2,
                                     expert_flags=ExpertFlags.value_output()),
                     MLPConfig("sigma_moe", 8, 3, 2), vocab, T=T)


# (valid split length, batch_size): 9 full chunks of T=8 and a 4-token
# last chunk in groups of 4; 3 full chunks, fewer than one group; the same
# 9 + 1 chunks one at a time
STREAM_LAYOUTS = [(77, 4), (25, 4), (77, 1)]


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("n_valid, group", STREAM_LAYOUTS)
@pytest.mark.parametrize("C", [1, 2, 3])
def test_grouped_evaluate_matches_chunk_loop(forward_caches, C, n_valid, group, dtype):
    # Grouped evaluation is the chunk loop's math, but GEMMs over more rows
    # may round differently: nll within 1e-12 relative in float64 and 1e-6
    # in float32, n exact, final cache allclose; one chunk per group is the
    # chunk loop itself, bit for bit.
    raw = bytes(rng_for(C, "stream-corpus").integers(4, size=200 + n_valid).tolist())
    corpus = from_bytes(raw)
    corpus.train_end = 200
    task = CharLMTask(corpus, T=8, batch_size=group)
    model = build(stream_lm_spec(C, vocab=corpus.vocab_size), C).astype(dtype)
    out = evaluate(model, task, "valid")
    got_caches = forward_caches[-1]
    data = corpus.split("valid")
    caches = model.empty_caches()
    total_nll, total_tok = 0.0, 0
    for lo in range(0, len(data) - 1, 8):
        y = data[lo + 1:lo + 9][None, :]
        x = data[lo:lo + y.shape[1]][None, :]
        logits, _, caches = model.forward(x, caches=caches)
        total_nll += float(cross_entropy(logits, y).data) * y.size
        total_tok += y.size
    assert out["n"] == total_tok == n_valid - 1
    if group == 1:
        assert out["nll"] == total_nll / total_tok
    else:
        rel = 1e-12 if dtype == np.float64 else 1e-6
        assert out["nll"] == pytest.approx(total_nll / total_tok, rel=rel, abs=0)
    tol = 1e-12 if dtype == np.float64 else 1e-5
    for got, want in zip(got_caches, caches):
        if C == 1:
            assert got is None and want is None
            continue
        for a, b in ((got.k, want.k), (got.v, want.v)):
            assert a.shape == b.shape and a.dtype == b.dtype == dtype
            assert np.allclose(a, b, rtol=tol, atol=tol)
            if group == 1:
                assert np.array_equal(a, b)


def test_train_logs_each_record(caplog):
    run = TrainRun(listops_spec(), steps=4, batch_size=8, lr=1e-3,
                   warmup_steps=0, log_every=2)
    with caplog.at_level(logging.INFO, logger="switchlab.training"):
        _, metrics = train(run, listops_task())
    lines = [r.getMessage() for r in caplog.records
             if r.name == "switchlab.training"]
    assert len(lines) == len(metrics) == 2
    assert lines[0].startswith("step 2/4 loss=")
    assert "accuracy=" in lines[1]


def test_evaluate_empty_split():
    corpus = bytes_corpus()
    corpus.train_end = len(corpus.data)   # nothing left for validation
    task = CharLMTask(corpus, T=8, batch_size=4)
    model = build(lm_spec(T=8, C=2, vocab=corpus.vocab_size), 0)
    with pytest.raises(ConfigError):
        evaluate(model, task, "valid")


@pytest.mark.parametrize("batch_size", [0, -3])
def test_evaluate_rejects_batch_size_below_one(batch_size):
    # 0 used to fail in range() and -3 to evaluate no example, accuracy 0.0
    task = listops_task()
    model = build(listops_spec(), 0)
    with pytest.raises(ConfigError, match="batch_size"):
        evaluate(model, task, "valid", batch_size=batch_size)


def test_metrics_lines_format():
    text = metrics_lines([{"step": 100, "loss": 1.5, "accuracy": 0.25}])
    assert text == "100 loss 1.5\n100 accuracy 0.25\n"
    assert metrics_lines([]) == ""


# -- compute precision -----------------------------------------------------


def listops_switchhead_spec(dm=16):
    return ModelSpec(1, dm,
                     AttentionConfig(dm, 2, 8, variant="switchhead", causal=False,
                                     n_experts=4, k_active=2,
                                     expert_flags=ExpertFlags.value_output()),
                     MLPConfig("dense", 32), VOCAB_SIZE, T=24, n_classes=10)


def _step_loss(model, kind, step, caches=None):
    """One forward pass on a fixed batch; returns (logits, loss, caches)."""
    if kind == "listops":
        tokens, labels, mask = listops_task().batch(0, step, 8)
        logits, _, _ = model.forward(tokens, key_mask=mask)
        return logits, cross_entropy(logits, labels), None
    x, y, reset = CharLMTask(bytes_corpus(n=1024), T=8, batch_size=4).batch(0, step, 4)
    if reset or caches is None:
        caches = model.empty_caches()
    logits, _, caches = model.forward(x, caches=caches)
    return logits, cross_entropy(logits, y), caches


def _model_for(kind):
    spec = listops_switchhead_spec() if kind == "listops" else switchall_lm_spec()
    return build(spec, 7)


@pytest.mark.parametrize("kind", ["listops", "lm"])
def test_train_step_stays_float32(kind):
    model = _model_for(kind)
    opt = Adam(model.params, lr=1e-3)
    logits, loss, _ = _step_loss(model, kind, 1)
    assert logits.data.dtype == loss.data.dtype == np.float32
    loss.backward()
    for name, p in model.params.items():
        assert p.grad is not None and p.grad.dtype == np.float32, name
    opt.step()
    for name, p in model.params.items():
        assert p.data.dtype == np.float32, name
        assert opt.m[name].dtype == opt.v[name].dtype == np.float32, name


@pytest.mark.parametrize("kind", ["listops", "lm"])
def test_float64_model_computes_in_float64(kind):
    model = _model_for(kind).astype(np.float64)
    logits, loss, _ = _step_loss(model, kind, 1)
    assert logits.data.dtype == loss.data.dtype == np.float64
    loss.backward()
    for name, p in model.params.items():
        assert p.data.dtype == p.grad.dtype == np.float64, name


@pytest.mark.parametrize("kind", ["listops", "lm"])
def test_float32_training_tracks_float64(kind):
    # same seed, same batches: 30 Adam steps in each precision stay within
    # 1e-2 relative loss of each other
    losses = []
    for dtype in (np.float32, np.float64):
        model = _model_for(kind).astype(dtype)
        opt = Adam(model.params, lr=3e-3, clip_norm=1.0)
        caches, run = None, []
        for step in range(1, 31):
            _, loss, caches = _step_loss(model, kind, step, caches)
            loss.backward()
            opt.step()
            run.append(float(loss.data))
        losses.append(np.array(run))
    f32, f64 = losses
    assert np.max(np.abs(f32 - f64) / np.abs(f64)) < 1e-2
