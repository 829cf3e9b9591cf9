"""Portable model checkpoints.

Layout (all integers little-endian):
  * one magic line ``switchlab-checkpoint 1``
  * the model config text (key-value format from config.py), terminated by
    a line containing only ``---``
  * one index line per tensor: ``name ndim dim1 dim2 ...``
  * a line containing only ``===``
  * the tensor payloads, in index order, as raw little-endian float64.

Payloads are float64 whatever the model's dtype: a float32 model is written
as exact upcasts of its weights. ``load`` casts each payload into the dtype
of the model ``build`` makes (float32) and raises ``CheckpointError`` if any
value is not exactly representable there, so a file of float64 weights
fails loudly instead of loading rounded.
"""

from __future__ import annotations

import math

import numpy as np

from .attention import attention_param_shapes
from .config import dump_config, from_model_spec, parse_config, to_model_spec
from .model import Model, build, count_params

MAGIC = "switchlab-checkpoint 1"


class CheckpointError(ValueError):
    pass


def save(path: str, model: Model) -> None:
    names = sorted(model.params)
    with open(path, "wb") as f:
        f.write((MAGIC + "\n").encode())
        f.write(dump_config(from_model_spec(model.spec)).encode())
        f.write(b"---\n")
        for name in names:
            shape = model.params[name].shape
            f.write(f"{name} {len(shape)} {' '.join(map(str, shape))}".rstrip().encode() + b"\n")
        f.write(b"===\n")
        for name in names:
            f.write(np.ascontiguousarray(model.params[name].data,
                                         dtype="<f8").tobytes())


def load(path: str) -> Model:
    """Read a checkpoint written by ``save``.

    The index is checked against the spec before the model is built, so a
    corrupt header cannot make ``build`` allocate a model that the file
    does not hold: each layer's attention tensors must have the shapes of
    ``attention_param_shapes``, the index must hold ``count_params`` values
    in all, and the payload must be exactly that many float64 values.
    """
    try:
        with open(path, "rb") as f:
            blob = f.read()
    except OSError as e:
        raise CheckpointError(str(e)) from None
    head, sep, payload = blob.partition(b"\n===\n")
    if not sep:
        raise CheckpointError("missing tensor payload marker")
    try:
        text = head.decode()
    except UnicodeDecodeError:
        raise CheckpointError("checkpoint header is not UTF-8 text") from None
    lines = text.split("\n")
    if lines[0] != MAGIC:
        raise CheckpointError(f"bad magic line {lines[0]!r}")
    try:
        split = lines.index("---")
    except ValueError:
        raise CheckpointError("missing config terminator") from None
    spec = to_model_spec(parse_config("\n".join(lines[1:split])))
    index = {}
    for line in lines[split + 1:]:
        if not line:
            continue
        try:
            name, ndim, *dims = line.split()
            ndim, shape = int(ndim), tuple(int(d) for d in dims)
        except ValueError:
            raise CheckpointError(f"malformed index line {line!r}") from None
        if len(shape) != ndim or min(shape, default=0) < 0:
            raise CheckpointError(f"index line for '{name}' is inconsistent")
        if name in index:
            raise CheckpointError(f"tensor '{name}' is listed twice")
        index[name] = shape
    attn = {k: shape for k, (shape, _) in attention_param_shapes(spec.attention).items()}
    for i in range(spec.n_layers):
        prefix = f"layers.{i}.attn."
        listed = {n[len(prefix):]: s for n, s in index.items() if n.startswith(prefix)}
        if listed != attn:
            raise CheckpointError(f"layer {i}'s attention tensors do not match the model spec")
    total = sum(math.prod(shape) for shape in index.values())
    if total != count_params(spec):
        raise CheckpointError(f"checkpoint lists {total} values, the model spec has "
                              f"{count_params(spec)}")
    if len(payload) != 8 * total:
        raise CheckpointError(f"payload holds {len(payload)} bytes, the index needs {8 * total}")
    model = build(spec, seed=0)
    if sorted(model.params) != sorted(index):
        raise CheckpointError("checkpoint tensors do not match the model spec")
    offset = 0
    for name, shape in index.items():
        n = math.prod(shape)
        if model.params[name].shape != shape:
            raise CheckpointError(f"shape mismatch for '{name}'")
        values = np.frombuffer(payload[offset * 8:(offset + n) * 8], dtype="<f8").reshape(shape)
        if not np.all(np.isfinite(values)):
            raise CheckpointError(f"non-finite values in tensor '{name}'")
        param = model.params[name]
        with np.errstate(over="ignore"):
            cast = values.astype(param.data.dtype)
        if not np.array_equal(cast, values):
            raise CheckpointError(f"tensor '{name}' holds values that {cast.dtype} "
                                  "cannot represent exactly")
        param.data = cast
        offset += n
    return model
