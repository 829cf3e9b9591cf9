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
fails loudly instead of loading rounded. The model is made straight from
the payload, in ``build``'s parameter order; nothing is drawn.
"""

from __future__ import annotations

import math

import numpy as np

from .config import dump_config, from_model_spec, parse_config, to_model_spec
from .model import Model, param_shapes
from .tensor import Tensor

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

    The index is checked against the spec before any tensor is made, so a
    corrupt header cannot make ``load`` allocate a model that the file
    does not hold: the index must name each tensor of ``model.param_shapes``
    with its shape, and the payload must hold exactly their values as
    float64.
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
    # one entry past the index is enough to tell a longer spec from it
    table = param_shapes(spec, limit=len(index) + 1)
    if index != table:
        raise CheckpointError("checkpoint tensors do not match the model spec")
    total = sum(math.prod(shape) for shape in table.values())
    if len(payload) != 8 * total:
        raise CheckpointError(f"payload holds {len(payload)} bytes, the index needs {8 * total}")
    loaded, offset = {}, 0
    for name, shape in index.items():
        n = math.prod(shape)
        values = np.frombuffer(payload[offset * 8:(offset + n) * 8], dtype="<f8").reshape(shape)
        if not np.all(np.isfinite(values)):
            raise CheckpointError(f"non-finite values in tensor '{name}'")
        with np.errstate(over="ignore"):
            cast = values.astype(np.float32)
        if not np.array_equal(cast, values):
            raise CheckpointError(f"tensor '{name}' holds values that {cast.dtype} "
                                  "cannot represent exactly")
        loaded[name] = Tensor(cast, requires_grad=True)
        offset += n
    # in build's order, which sums such as Adam's grad norm follow
    return Model(spec, {name: loaded[name] for name in table})
