"""Checkpoint round-trips and corruption detection."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchlab import attention, checkpoint, model, rng
from switchlab.attention import AttentionConfig, ExpertFlags
from switchlab.checkpoint import MAGIC, CheckpointError, load, save
from switchlab.model import MLPConfig, ModelSpec, build
from switchlab.moe import ConfigError
from switchlab.rng import rng_for


def small_spec():
    return ModelSpec(2, 12,
                     AttentionConfig(12, 2, 4, variant="switchhead",
                                     context_mult=2, n_experts=3, k_active=2,
                                     expert_flags=ExpertFlags.value_output()),
                     MLPConfig("sigma_moe", 8, 3, 2), 19, T=6)


def test_round_trip_exact(tmp_path):
    m = build(small_spec(), 4)
    path = str(tmp_path / "m.ckpt")
    save(path, m)
    m2 = load(path)
    assert sorted(m2.params) == sorted(m.params)
    for name, p in m.params.items():
        assert np.array_equal(p.data, m2.params[name].data), name
    toks = rng_for(0, "ckpt-toks").integers(19, size=(2, 6))
    y1, _, _ = m.forward(toks)
    y2, _, _ = m2.forward(toks)
    assert np.max(np.abs(y1.data - y2.data)) < 1e-12


def test_round_trip_preserves_spec(tmp_path):
    spec = small_spec()
    m = build(spec, 1)
    path = str(tmp_path / "m.ckpt")
    save(path, m)
    m2 = load(path)
    a, b = m2.spec, spec
    assert (a.n_layers, a.d_model, a.vocab_size, a.T) == \
        (b.n_layers, b.d_model, b.vocab_size, b.T)
    assert a.attention.variant == "switchhead"
    assert a.attention.expert_flags == b.attention.expert_flags
    assert (a.mlp.kind, a.mlp.d_ff, a.mlp.n_experts) == \
        (b.mlp.kind, b.mlp.d_ff, b.mlp.n_experts)


def test_bad_magic(tmp_path):
    m = build(ModelSpec(1, 8, AttentionConfig(8, 1, 4, variant="dense"),
                        MLPConfig("dense", 8), 9, T=4), 0)
    path = str(tmp_path / "m.ckpt")
    save(path, m)
    blob = open(path, "rb").read().replace(MAGIC.encode(), b"other-format 9")
    open(path, "wb").write(blob)
    with pytest.raises(CheckpointError):
        load(path)


def test_truncated_payload(tmp_path):
    m = build(ModelSpec(1, 8, AttentionConfig(8, 1, 4, variant="dense"),
                        MLPConfig("dense", 8), 9, T=4), 0)
    path = str(tmp_path / "m.ckpt")
    save(path, m)
    blob = open(path, "rb").read()
    open(path, "wb").write(blob[:-16])
    with pytest.raises(CheckpointError):
        load(path)


def test_trailing_bytes(tmp_path):
    m = build(ModelSpec(1, 8, AttentionConfig(8, 1, 4, variant="dense"),
                        MLPConfig("dense", 8), 9, T=4), 0)
    path = str(tmp_path / "m.ckpt")
    save(path, m)
    with open(path, "ab") as f:
        f.write(b"\x00" * 8)
    with pytest.raises(CheckpointError):
        load(path)


def _dense_checkpoint(tmp_path):
    m = build(ModelSpec(1, 8, AttentionConfig(8, 1, 4, variant="dense"),
                        MLPConfig("dense", 8), 9, T=4), 0)
    path = tmp_path / "m.ckpt"
    save(str(path), m)
    return path


@pytest.mark.parametrize("section, line", [
    ("model", "tied_embeddings = False"), ("model", "dropout = 0.0"),
    ("attention", "scale_by_d_head = False"), ("attention", "sel_activation = sigmoid"),
])
def test_retired_config_key_fails_to_load(tmp_path, section, line):
    # checkpoints written while these model options existed embed them with
    # their defaults; such a file is a config error, not a traceback
    path = _dense_checkpoint(tmp_path)
    header = f"[{section}]\n".encode()
    path.write_bytes(path.read_bytes().replace(header, header + line.encode() + b"\n", 1))
    with pytest.raises(ConfigError, match="unknown config key"):
        load(str(path))


@pytest.mark.parametrize("bad", [b"embed two 3", b"embed"])
def test_malformed_index_line(tmp_path, bad):
    path = _dense_checkpoint(tmp_path)
    blob = path.read_bytes()
    start = blob.index(b"\nembed ") + 1
    end = blob.index(b"\n", start)
    path.write_bytes(blob[:start] + bad + blob[end:])
    with pytest.raises(CheckpointError):
        load(str(path))


def test_non_utf8_header(tmp_path):
    path = _dense_checkpoint(tmp_path)
    blob = path.read_bytes()
    path.write_bytes(blob.replace(b"---\n", b"---\n\xff\xfe\n", 1))
    with pytest.raises(CheckpointError):
        load(str(path))


def test_non_finite_payload(tmp_path):
    path = _dense_checkpoint(tmp_path)
    blob = bytearray(path.read_bytes())
    blob[-8:] = np.array([np.nan], dtype="<f8").tobytes()
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="non-finite"):
        load(str(path))


def test_value_float32_cannot_hold_is_rejected(tmp_path):
    path = _dense_checkpoint(tmp_path)
    blob = bytearray(path.read_bytes())
    blob[-8:] = np.array([0.1], dtype="<f8").tobytes()   # not a float32 value
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="cannot represent"):
        load(str(path))



@pytest.mark.parametrize("mismatch", ["d_model", "attention_shape", "payload"])
def test_mismatched_header_fails_before_build(tmp_path, monkeypatch, mismatch):
    path = _dense_checkpoint(tmp_path)
    blob = path.read_bytes()
    if mismatch == "d_model":            # names a model far larger than the file holds
        blob = blob.replace(b"d_model = 8\n", b"d_model = 4096\n", 1)
    elif mismatch == "attention_shape":  # w_q [8, 4] listed as [4, 8]: the count holds
        blob = blob.replace(b"layers.0.attn.w_q 2 8 4\n", b"layers.0.attn.w_q 2 4 8\n", 1)
    else:
        blob = blob[:-8]
    path.write_bytes(blob)

    def no_tensor(*args, **kwargs):
        raise AssertionError("a tensor made for a checkpoint whose index does not match")

    monkeypatch.setattr(checkpoint, "Tensor", no_tensor)
    with pytest.raises(CheckpointError):
        load(str(path))


def test_huge_layer_count_is_walked_no_further_than_the_index(tmp_path, monkeypatch):
    # a header that claims 10^15 layers fails after a walk of the layout
    # one entry past the index, not after listing every layer's parameters
    path = _dense_checkpoint(tmp_path)
    blob = path.read_bytes()
    n_index = blob.split(b"\n---\n", 1)[1].split(b"\n===\n", 1)[0].count(b"\n") + 1
    path.write_bytes(blob.replace(b"n_layers = 1\n", b"n_layers = 1000000000000000\n", 1))
    real_layout, walked = model._layout, []

    def layout(*args):
        for entry in real_layout(*args):
            walked.append(entry[0])
            if len(walked) > 10 * n_index:
                raise AssertionError("the layout walk ran past the index")
            yield entry

    monkeypatch.setattr(model, "_layout", layout)
    with pytest.raises(CheckpointError):
        load(str(path))
    assert len(walked) == n_index + 1


def test_load_draws_no_weights(tmp_path, monkeypatch):
    # load makes the model from the payload alone: with every binding of
    # uniform_init raising, a round trip still gives the saved weights, in
    # build's parameter order
    m = build(small_spec(), 4)
    path = str(tmp_path / "m.ckpt")
    save(path, m)

    def no_draw(*args, **kwargs):
        raise AssertionError("load drew weights")

    for module in (rng, model, attention):
        monkeypatch.setattr(module, "uniform_init", no_draw)
    m2 = load(path)
    assert list(m2.params) == list(m.params)
    for name, p in m.params.items():
        q = m2.params[name]
        assert q.requires_grad and q.data.dtype == np.float32
        assert np.array_equal(p.data, q.data), name


@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory):
    path = _dense_checkpoint(tmp_path_factory.mktemp("tiny"))
    return path, path.read_bytes()


def _mutate(blob: bytes, mutations) -> bytes:
    """Apply (kind, position, bytes) edits; all but 'payload' land in the
    header, 'digits' rewrites one of its numbers."""
    for kind, pos, raw in mutations:
        head = blob.find(b"\n===\n") + 5
        if kind == "payload" and len(blob) > head:
            p = head + pos % (len(blob) - head)
            blob = blob[:p] + raw + blob[p + len(raw):]
            continue
        p = pos % (head + 1)
        if kind == "set":
            blob = blob[:p] + raw[:1] + blob[p + 1:]
        elif kind == "insert":
            blob = blob[:p] + raw + blob[p:]
        elif kind == "delete":
            blob = blob[:p] + blob[p + len(raw):]
        else:
            runs = list(re.finditer(rb"\d+", blob[:head]))
            if runs:
                m = runs[pos % len(runs)]
                number = str(int.from_bytes(raw, "little") - 2 ** 15).encode()
                blob = blob[:m.start()] + number + blob[m.end():]
    return blob


@settings(max_examples=300, deadline=None)
@given(arbitrary=st.booleans(), raw=st.binary(max_size=200),
       mutations=st.lists(st.tuples(
           st.sampled_from(["set", "insert", "delete", "digits", "payload"]),
           st.integers(0, 2**20), st.binary(min_size=1, max_size=8)), min_size=1, max_size=4))
def test_loader_raises_only_checkpoint_or_config_error(tiny_checkpoint, arbitrary, raw,
                                                       mutations):
    # arbitrary bytes, or a tiny checkpoint with edits to its header and
    # payload: loading either succeeds or fails with one of the two errors
    # the CLI maps to exit 2
    path, blob = tiny_checkpoint
    path.write_bytes(raw if arbitrary else _mutate(blob, mutations))
    try:
        load(str(path))
    except (CheckpointError, ConfigError):
        pass
