"""Full transformer assembly, exact parameter counting, and the
parameter-matching search.

A model is a stack of pre-norm residual blocks (attention, then MLP), with
token embeddings at the bottom and either a language-model readout or a
mean-pool classification head on top. No linear layer carries a bias; the
only per-channel affine parameters are the layer-norm gains and biases.
``count_params`` is the single documented counting convention and is exact
against instantiated tensor sizes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .attention import AttentionConfig, attention_forward, attention_param_shapes
from .counter import NULL_COUNTER, OpCounter
from .moe import ConfigError, SelectionConfig, sigma_moe_mlp
from .rng import rng_for, uniform_init
from .tensor import (ShapeError, Tensor, constant, gather_rows, layer_norm,
                     matmul, mul, relu_mlp, reshape, tsum)


class MatchingError(ValueError):
    """No (d_head, d_ff) assignment fits under the parameter target."""


@dataclass
class MLPConfig:
    kind: str = "dense"        # dense | sigma_moe
    d_ff: int = 1024           # dense hidden width, or per-expert width
    n_experts: int = 1
    k_active: int = 1

    def validate(self) -> None:
        if self.kind not in ("dense", "sigma_moe"):
            raise ConfigError(f"unknown MLP kind '{self.kind}'")
        if self.d_ff < 1:
            raise ConfigError("d_ff must be positive")
        if self.kind == "sigma_moe":
            SelectionConfig(self.n_experts, self.k_active).validate()
        elif self.n_experts != 1 or self.k_active != 1:
            raise ConfigError("dense MLP requires n_experts = k_active = 1")


@dataclass
class ModelSpec:
    n_layers: int
    d_model: int
    attention: AttentionConfig
    mlp: MLPConfig
    vocab_size: int
    T: int = 256                   # chunk length
    n_classes: int | None = None   # None -> language-model readout

    def validate(self) -> None:
        problems = []
        if self.n_layers < 0:
            problems.append("n_layers must be >= 0")
        if min(self.d_model, self.vocab_size, self.T) < 1:
            problems.append("d_model, vocab_size and T must be positive")
        if self.attention.d_model != self.d_model:
            problems.append(f"attention d_model {self.attention.d_model} != model d_model {self.d_model}")
        if self.n_classes is not None and self.n_classes < 2:
            problems.append("n_classes must be >= 2 when set")
        if problems:
            raise ConfigError("; ".join(problems))
        self.attention.validate()
        self.mlp.validate()


@dataclass
class MatchResult:
    spec: ModelSpec
    param_count: int
    target: int

    @property
    def slack(self) -> int:
        return self.target - self.param_count


# -- parameter layout -----------------------------------------------------


def _layout(spec: ModelSpec, per_head_pos: bool | None = None):
    """Every parameter of ``build(spec)`` as (name, shape, init), in build's
    order; building, counting and checkpoint checks all read this one walk.

    ``init`` is a constant fill (1.0 for layer-norm gains, 0.0 for biases)
    or the (stream, fan_in) of a uniform draw. A parameter's stream is its
    own name, except that one layer's attention parameters share the
    stream ``layers.{i}.attn``, drawn in ``attention_param_shapes`` order.
    ``per_head_pos`` is ``attention_param_shapes``' counting convention.
    """
    dm, mlp = spec.d_model, spec.mlp
    if mlp.kind == "dense":
        mlp_table = {"w_up": ((dm, mlp.d_ff), dm), "w_down": ((mlp.d_ff, dm), mlp.d_ff)}
    else:
        E = mlp.n_experts
        mlp_table = {"up_bank": ((E, dm, mlp.d_ff), dm),
                     "down_bank": ((E, mlp.d_ff, dm), mlp.d_ff),
                     "w_sel": ((dm, E), dm)}
    attn_table = attention_param_shapes(spec.attention, per_head_pos)
    yield "embed", (spec.vocab_size, dm), ("embed", dm)
    for i in range(spec.n_layers):
        for k, (shape, fan_in) in attn_table.items():
            yield f"layers.{i}.attn.{k}", shape, (f"layers.{i}.attn", fan_in)
        for ln in ("ln1", "ln2"):
            yield f"layers.{i}.{ln}.g", (dm,), 1.0
            yield f"layers.{i}.{ln}.b", (dm,), 0.0
        for k, (shape, fan_in) in mlp_table.items():
            yield f"layers.{i}.mlp.{k}", shape, (f"layers.{i}.mlp.{k}", fan_in)
    yield "ln_f.g", (dm,), 1.0
    yield "ln_f.b", (dm,), 0.0
    if spec.n_classes is not None:
        yield "head", (dm, spec.n_classes), ("head", dm)
    else:
        yield "readout", (dm, spec.vocab_size), ("readout", dm)


def param_shapes(spec: ModelSpec, per_head_pos: bool | None = None,
                 limit: int | None = None) -> dict[str, tuple[int, ...]]:
    """The shape of every parameter of ``build(spec)``, by name, in the order
    ``build`` makes them; nothing is allocated. ``limit`` stops the walk
    after that many parameters, so a spec with an absurd layer count is
    walked no further than a checkpoint's index needs."""
    spec.validate()
    walk = ((name, shape) for name, shape, _ in _layout(spec, per_head_pos))
    return dict(itertools.islice(walk, limit))


def count_params(spec: ModelSpec, per_head_pos: bool | None = None) -> int:
    """Exact parameter count of build(spec): embeddings, blocks, head."""
    return sum(math.prod(shape) for shape in param_shapes(spec, per_head_pos).values())


# -- model ----------------------------------------------------------------


class Model:
    """Instantiated transformer: a flat parameter dict plus its spec."""

    def __init__(self, spec: ModelSpec, params: dict[str, Tensor]):
        self.spec = spec
        self.params = params

    def empty_caches(self) -> list[None]:
        return [None] * self.spec.n_layers

    def _layer_params(self, i: int, group: str) -> dict[str, Tensor]:
        prefix = f"layers.{i}.{group}."
        return {k[len(prefix):]: v for k, v in self.params.items() if k.startswith(prefix)}

    def forward(self, tokens: np.ndarray, *, caches: list | None = None,
                key_mask: np.ndarray | None = None,
                counter: OpCounter = NULL_COUNTER,
                want_trace: bool = False):
        """Map token ids [B, T] to logits; returns (logits, traces, caches).

        Logits are [B, T, vocab] for language models or [B, n_classes] for
        classifiers (mean-pooled over unmasked positions). ``caches`` holds
        per-layer cached key/value chunks for XL streaming; pass the
        returned list back in for the next chunk. Caches of R rows read
        the B rows as R streams of B/R consecutive chunks and return R-row
        caches (see ``attention_forward``); a one-row cache thus runs B
        chunks of one stream in one forward.
        """
        spec = self.spec
        tokens = np.asarray(tokens)
        if tokens.ndim != 2:
            raise ShapeError(f"tokens must be [B, T], got shape {tokens.shape}")
        if tokens.min(initial=0) < 0 or tokens.max(initial=0) >= spec.vocab_size:
            raise ShapeError("token id out of vocabulary range")
        B, T = tokens.shape
        if caches is None:
            caches = self.empty_caches()
        if len(caches) != spec.n_layers:
            raise ShapeError(f"expected {spec.n_layers} layer caches, got {len(caches)}")

        x = reshape(gather_rows(self.params["embed"], tokens.reshape(-1)),
                    (B, T, spec.d_model))
        traces = []
        new_caches = []
        for i in range(spec.n_layers):
            h = layer_norm(x, self.params[f"layers.{i}.ln1.g"],
                           self.params[f"layers.{i}.ln1.b"])
            y, trace, new_cache = attention_forward(
                h, self._layer_params(i, "attn"), spec.attention, counter,
                cache=caches[i], key_mask=key_mask, want_trace=want_trace)
            traces.append(trace)
            new_caches.append(new_cache)
            x = x + y
            h = layer_norm(x, self.params[f"layers.{i}.ln2.g"],
                           self.params[f"layers.{i}.ln2.b"])
            x = x + self._mlp(i, h, counter)
            # no backward reads y, and h's readers keep its rebuild; held
            # over, they would raise the next layer's forward peak
            del y, h
        x = layer_norm(x, self.params["ln_f.g"], self.params["ln_f.b"])

        if spec.n_classes is not None:
            w = (np.ones((B, T), dtype=x.data.dtype) if key_mask is None
                 else np.asarray(key_mask, dtype=x.data.dtype))
            pooled = tsum(mul(x, constant(w[:, :, None])), axis=1)
            counts = np.maximum(w.sum(axis=1), 1.0)
            pooled = mul(pooled, constant(1.0 / counts[:, None]))
            logits = matmul(pooled, self.params["head"], counter, store=False)
        else:
            logits = matmul(x, self.params["readout"], counter, store=False)
        return logits, traces, new_caches

    def _mlp(self, i: int, h: Tensor, counter: OpCounter) -> Tensor:
        mlp = self.spec.mlp
        if mlp.kind == "dense":
            return relu_mlp(h, self.params[f"layers.{i}.mlp.w_up"],
                            self.params[f"layers.{i}.mlp.w_down"], counter)
        cfg = SelectionConfig(mlp.n_experts, mlp.k_active)
        return sigma_moe_mlp(h, self.params[f"layers.{i}.mlp.up_bank"],
                             self.params[f"layers.{i}.mlp.down_bank"],
                             self.params[f"layers.{i}.mlp.w_sel"], cfg, counter)

    def astype(self, dtype) -> "Model":
        """Replace every parameter by a leaf holding its values cast to
        ``dtype`` (grads are not carried over); returns self.

        The engine computes in its data's dtype, so this picks the model's
        compute precision: ``build`` makes float32 models, and exact
        identity checks run on ``build(...).astype(np.float64)``.
        """
        self.params = {name: Tensor(p.data.astype(dtype), requires_grad=p.requires_grad)
                       for name, p in self.params.items()}
        return self


def build(spec: ModelSpec, seed: int) -> Model:
    """Instantiate a float32 model with deterministic weights derived from seed.

    The weights are drawn in float64 and rounded to float32 once, at the end.
    """
    spec.validate()
    streams: dict[str, np.random.Generator] = {}
    params: dict[str, Tensor] = {}
    for name, shape, init in _layout(spec):
        if isinstance(init, tuple):
            stream, fan_in = init
            if stream not in streams:
                streams[stream] = rng_for(seed, "model", stream)
            data = uniform_init(streams[stream], shape, fan_in)
        else:
            data = np.full(shape, init)
        params[name] = Tensor(data, requires_grad=True)
    return Model(spec, params).astype(np.float32)


# -- parameter matching ---------------------------------------------------

_MAX_D_HEAD = 4096
_MAX_D_FF = 1 << 20


def match_params(target: int, template: ModelSpec,
                 per_head_pos: bool | None = None) -> MatchResult:
    """Size d_head (multiples of 4) then d_ff to approach a parameter target.

    d_head is the largest multiple of 4 keeping the count at or below the
    target with the template's d_ff; d_ff is then raised in steps of 1 as
    far as the target allows. The result never exceeds the target and its
    slack stays within the 100k acceptance band (the d_ff step is the
    finest knob, worth 2 * d_model * n_layers parameters). Parameters are
    counted under ``count_params``' ``per_head_pos`` convention.
    """
    if target < 1:
        raise ConfigError("target parameter count must be positive")
    template.validate()

    def count_at(dh: int, dff: int) -> int:
        spec = replace(template,
                       attention=replace(template.attention, d_head=dh),
                       mlp=replace(template.mlp, d_ff=dff))
        return count_params(spec, per_head_pos=per_head_pos)

    if count_params(template, per_head_pos=per_head_pos) == target:
        return MatchResult(spec=template, param_count=target, target=target)
    if count_at(4, 1) > target:
        raise MatchingError(f"even d_head=4, d_ff=1 exceeds the target of {target}")
    dh = 4
    while dh + 4 <= _MAX_D_HEAD and count_at(dh + 4, template.mlp.d_ff) <= target:
        dh += 4
    dff = template.mlp.d_ff if count_at(dh, template.mlp.d_ff) <= target else 1
    while dff + 1 <= _MAX_D_FF and count_at(dh, dff + 1) <= target:
        dff += 1
    spec = replace(template,
                   attention=replace(template.attention, d_head=dh),
                   mlp=replace(template.mlp, d_ff=dff))
    got = count_at(dh, dff)
    if got > target:
        raise MatchingError("internal error: matched count exceeds target")
    if target - got > 100_000:
        raise MatchingError(
            f"best match leaves {target - got} spare parameters (> 100k band); "
            "the template's granularity cannot approach this target")
    return MatchResult(spec=spec, param_count=got, target=target)


def match_report(baseline: ModelSpec, template: ModelSpec) -> dict:
    """Match a template against a dense baseline under both position-width
    counting conventions (shared projection as implemented; per-head as the
    published tables count it). Informational: which convention a published
    table used is not stated, so both candidates are reported.
    """
    target = count_params(baseline)
    report = {
        "target": target,
        "baseline": baseline,
        "matched": match_params(target, template),
        "conventions": {},
    }
    for name, per_head in (("shared_pos", False), ("per_head_pos", True)):
        res = match_params(target, template, per_head_pos=per_head)
        report["conventions"][name] = {
            "d_head": res.spec.attention.d_head, "d_ff": res.spec.mlp.d_ff,
            "param_count": res.param_count, "slack": res.slack,
        }
    return report
