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

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .attention import (AttentionConfig, attention_forward,
                        attention_param_shapes, init_attention_params)
from .counter import NULL_COUNTER, OpCounter
from .moe import ConfigError, SelectionConfig, sigma_moe_mlp
from .rng import rng_for, uniform_init
from .tensor import (ShapeError, Tensor, constant, gather_rows, layer_norm,
                     matmul, mul, relu, reshape, transpose, tsum)


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
    tied_embeddings: bool = False
    dropout: float = 0.0           # applied to MLP outputs only

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
        if self.n_classes is not None and self.tied_embeddings:
            problems.append("classification head cannot tie embeddings")
        if not (0.0 <= self.dropout < 1.0):
            problems.append("dropout must lie in [0, 1)")
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


# -- parameter counting ---------------------------------------------------


def _mlp_param_count(mlp: MLPConfig, dm: int) -> int:
    n = 2 * mlp.n_experts * dm * mlp.d_ff
    if mlp.kind == "sigma_moe":
        n += dm * mlp.n_experts
    return n


def count_params(spec: ModelSpec, per_head_pos: bool | None = None) -> int:
    """Exact parameter count of build(spec): embeddings, blocks, head."""
    spec.validate()
    dm = spec.d_model
    attn = attention_param_shapes(spec.attention, per_head_pos)
    per_layer = (sum(math.prod(shape) for shape, _ in attn.values())
                 + _mlp_param_count(spec.mlp, dm)
                 + 4 * dm)                          # two layer norms
    n = spec.n_layers * per_layer
    n += spec.vocab_size * dm                       # input embedding
    n += 2 * dm                                     # final layer norm
    if spec.n_classes is not None:
        n += dm * spec.n_classes
    elif not spec.tied_embeddings:
        n += dm * spec.vocab_size
    return n


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
                dropout_rng: np.random.Generator | None = None,
                want_trace: bool = False,
                gate_override: float | None = None):
        """Map token ids [B, T] to logits; returns (logits, traces, caches).

        Logits are [B, T, vocab] for language models or [B, n_classes] for
        classifiers (mean-pooled over unmasked positions). ``caches`` holds
        per-layer cached key/value chunks for XL streaming; pass the
        returned list back in for the next chunk. ``dropout_rng`` enables
        MLP-output dropout (training mode); omit it for evaluation.
        ``gate_override`` forces every routing gate (attention and MoE MLP)
        to a constant; with one expert and override 1.0 the model reduces to
        its dense twin.
        """
        spec = self.spec
        tokens = np.asarray(tokens)
        if tokens.ndim == 1:
            tokens = tokens[None, :]
        if tokens.ndim != 2:
            raise ShapeError(f"tokens must be [T] or [B, T], got shape {tokens.shape}")
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
                cache=caches[i], key_mask=key_mask, want_trace=want_trace,
                gate_override=gate_override)
            traces.append(trace)
            new_caches.append(new_cache)
            x = x + y
            h = layer_norm(x, self.params[f"layers.{i}.ln2.g"],
                           self.params[f"layers.{i}.ln2.b"])
            m = self._mlp(i, h, counter, gate_override)
            if dropout_rng is not None and spec.dropout > 0.0:
                keep = dropout_rng.random(m.shape) >= spec.dropout
                scale = keep / (1.0 - spec.dropout)
                m = mul(m, constant(scale.astype(m.data.dtype)))
            x = x + m
        x = layer_norm(x, self.params["ln_f.g"], self.params["ln_f.b"])

        if spec.n_classes is not None:
            if key_mask is not None:
                w = np.asarray(key_mask, dtype=x.data.dtype)
                pooled = tsum(mul(x, constant(w[:, :, None])), axis=1)
                counts = np.maximum(w.sum(axis=1), 1.0)
                pooled = mul(pooled, constant(1.0 / counts[:, None]))
            else:
                pooled = mul(tsum(x, axis=1), 1.0 / T)
            logits = matmul(pooled, self.params["head"], counter, store=False)
        else:
            w_out = self.params["embed"] if spec.tied_embeddings else self.params["readout"]
            if spec.tied_embeddings:
                w_out = transpose(w_out)
            logits = matmul(x, w_out, counter, store=False)
        return logits, traces, new_caches

    def _mlp(self, i: int, h: Tensor, counter: OpCounter,
             gate_override: float | None = None) -> Tensor:
        mlp = self.spec.mlp
        if mlp.kind == "dense":
            up = matmul(h, self.params[f"layers.{i}.mlp.w_up"], counter,
                        store=False, term="mlp")
            return matmul(relu(up), self.params[f"layers.{i}.mlp.w_down"],
                          counter, store=False, term="mlp")
        cfg = SelectionConfig(mlp.n_experts, mlp.k_active)
        return sigma_moe_mlp(h, self.params[f"layers.{i}.mlp.up_bank"],
                             self.params[f"layers.{i}.mlp.down_bank"],
                             self.params[f"layers.{i}.mlp.w_sel"], cfg, counter,
                             gate_override=gate_override)

    def param_sizes(self) -> int:
        return sum(t.size for t in self.params.values())

    def astype(self, dtype) -> "Model":
        """Cast every parameter (dropping its grad) to ``dtype``; returns self.

        The engine computes in its data's dtype, so this picks the model's
        compute precision: ``build`` makes float32 models, and exact
        identity checks run on ``build(...).astype(np.float64)``.
        """
        for p in self.params.values():
            p.data = p.data.astype(dtype)
            p.grad = None
        return self


def param_shapes(spec: ModelSpec) -> dict[str, tuple[int, ...]]:
    """The shape of every parameter of ``build(spec)``, by name, in the order
    ``build`` makes them; nothing is allocated."""
    spec.validate()
    dm = spec.d_model
    table = {"embed": (spec.vocab_size, dm)}
    for i in range(spec.n_layers):
        for k, (shape, _) in attention_param_shapes(spec.attention).items():
            table[f"layers.{i}.attn.{k}"] = shape
        for ln in ("ln1", "ln2"):
            table[f"layers.{i}.{ln}.g"] = table[f"layers.{i}.{ln}.b"] = (dm,)
        mlp = spec.mlp
        if mlp.kind == "dense":
            table[f"layers.{i}.mlp.w_up"] = (dm, mlp.d_ff)
            table[f"layers.{i}.mlp.w_down"] = (mlp.d_ff, dm)
        else:
            table[f"layers.{i}.mlp.up_bank"] = (mlp.n_experts, dm, mlp.d_ff)
            table[f"layers.{i}.mlp.down_bank"] = (mlp.n_experts, mlp.d_ff, dm)
            table[f"layers.{i}.mlp.w_sel"] = (dm, mlp.n_experts)
    table["ln_f.g"] = table["ln_f.b"] = (dm,)
    if spec.n_classes is not None:
        table["head"] = (dm, spec.n_classes)
    elif not spec.tied_embeddings:
        table["readout"] = (dm, spec.vocab_size)
    return table


def build(spec: ModelSpec, seed: int) -> Model:
    """Instantiate a float32 model with deterministic weights derived from seed.

    The weights are drawn in float64 and rounded to float32 once, at the end.
    """
    spec.validate()
    dm = spec.d_model
    p: dict[str, Tensor] = {}

    def par(name, shape, fan_in):
        rng = rng_for(seed, "model", name)
        p[name] = Tensor(uniform_init(rng, shape, fan_in), requires_grad=True)

    par("embed", (spec.vocab_size, dm), dm)
    for i in range(spec.n_layers):
        attn_rng = rng_for(seed, "model", f"layers.{i}.attn")
        for k, t in init_attention_params(spec.attention, attn_rng).items():
            p[f"layers.{i}.attn.{k}"] = t
        for ln in ("ln1", "ln2"):
            p[f"layers.{i}.{ln}.g"] = Tensor(np.ones(dm), requires_grad=True)
            p[f"layers.{i}.{ln}.b"] = Tensor(np.zeros(dm), requires_grad=True)
        mlp = spec.mlp
        if mlp.kind == "dense":
            par(f"layers.{i}.mlp.w_up", (dm, mlp.d_ff), dm)
            par(f"layers.{i}.mlp.w_down", (mlp.d_ff, dm), mlp.d_ff)
        else:
            par(f"layers.{i}.mlp.up_bank", (mlp.n_experts, dm, mlp.d_ff), dm)
            par(f"layers.{i}.mlp.down_bank", (mlp.n_experts, mlp.d_ff, dm), mlp.d_ff)
            par(f"layers.{i}.mlp.w_sel", (dm, mlp.n_experts), dm)
    p["ln_f.g"] = Tensor(np.ones(dm), requires_grad=True)
    p["ln_f.b"] = Tensor(np.zeros(dm), requires_grad=True)
    if spec.n_classes is not None:
        par("head", (dm, spec.n_classes), dm)
    elif not spec.tied_embeddings:
        par("readout", (dm, spec.vocab_size), dm)
    return Model(spec, p).astype(np.float32)


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
        raise MatchingError("target parameter count must be positive")
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
