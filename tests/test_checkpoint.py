"""Checkpoint round-trips and corruption detection."""

import numpy as np
import pytest

from switchlab.attention import AttentionConfig, ExpertFlags
from switchlab.checkpoint import MAGIC, CheckpointError, load, save
from switchlab.model import MLPConfig, ModelSpec, build
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

