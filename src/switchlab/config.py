"""Plain-text key-value experiment configuration.

INI-style sections with scalar values only; the schema below is the single
source of truth. Unknown sections or keys are rejected, and ``--set
section.key=value`` overrides are type-checked against the same schema.
"""

from __future__ import annotations

import configparser
import io
import math

from .attention import AttentionConfig, ExpertFlags
from .model import MLPConfig, ModelSpec
from .moe import ConfigError

# section -> key -> (type, default); None default means required-when-used
SCHEMA = {
    "model": {
        "n_layers": (int, 2),
        "d_model": (int, 64),
        "vocab_size": (int, 17),
        "t": (int, 64),
        "n_classes": (int, 0),           # 0 -> language model head
    },
    "attention": {
        "variant": (str, "dense"),
        "position": (str, "xl_relative"),
        "n_heads": (int, 2),
        "d_head": (int, 16),
        "n_experts": (int, 1),
        "k_active": (int, 1),
        "context_mult": (int, 1),
        "causal": (bool, True),
        "expert_v": (bool, False),
        "expert_k": (bool, False),
        "expert_q": (bool, False),
        "expert_o": (bool, False),
    },
    "mlp": {
        "kind": (str, "dense"),
        "d_ff": (int, 256),
        "n_experts": (int, 1),
        "k_active": (int, 1),
    },
    "train": {
        "seed": (int, 0),
        "steps": (int, 1000),
        "batch_size": (int, 16),
        "lr": (float, 2.5e-4),
        "warmup_steps": (int, 4000),
        "clip_norm": (float, 1.0),       # <= 0 disables clipping
        "log_every": (int, 100),
    },
    "task": {
        "name": (str, "listops"),        # listops | char_lm
        "n_train": (int, 10000),
        "n_valid": (int, 2000),
        "max_depth": (int, 3),
        "max_args": (int, 5),
        "max_len": (int, 64),
        "data_seed": (int, 0),
        "path": (str, ""),               # char_lm corpus file
        "valid_fraction": (float, 0.1),
    },
}

# keys that seed a random stream; numpy's SeedSequence takes no negative value
SEED_KEYS = (("train", "seed"), ("task", "data_seed"))


def _parse_value(section: str, key: str, raw: str):
    try:
        typ, _ = SCHEMA[section][key]
    except KeyError:
        raise ConfigError(f"unknown config key [{section}] {key}") from None
    raw = raw.strip()
    if typ is bool:
        if raw.lower() in ("true", "yes", "1"):
            return True
        if raw.lower() in ("false", "no", "0"):
            return False
        raise ConfigError(f"[{section}] {key}: expected a boolean, got '{raw}'")
    try:
        value = typ(raw)
    except ValueError:
        raise ConfigError(
            f"[{section}] {key}: expected {typ.__name__}, got '{raw}'") from None
    if typ is float and not math.isfinite(value):
        raise ConfigError(f"[{section}] {key}: expected a finite number, got '{raw}'")
    if (section, key) in SEED_KEYS and value < 0:
        raise ConfigError(f"[{section}] {key}: a seed must be >= 0, got '{raw}'")
    return value


def defaults() -> dict:
    return {sec: {k: d for k, (_, d) in keys.items()} for sec, keys in SCHEMA.items()}


def parse_config(text: str, overrides: list[str] = ()) -> dict:
    """Parse config text plus ``section.key=value`` overrides."""
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as e:
        raise ConfigError(f"malformed config: {e}") from None
    cfg = defaults()
    for section in cp.sections():
        if section not in SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in cp.items(section):
            cfg[section][key] = _parse_value(section, key, raw)
    for item in overrides:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override must look like section.key=value, got '{item}'")
        dotted, raw = item.split("=", 1)
        section, key = dotted.split(".", 1)
        if section not in SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        cfg[section][key] = _parse_value(section, key, raw)
    return cfg


def read_text(path: str) -> str:
    """The UTF-8 text of a file; a file that cannot be read as such
    (missing, a directory, not UTF-8) is a ConfigError."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            return f.read()
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path}: not UTF-8 text (byte {e.start})") from None
    except OSError as e:
        raise ConfigError(str(e)) from None


def load_config(path: str, overrides: list[str] = ()) -> dict:
    return parse_config(read_text(path), overrides)


def to_model_spec(cfg: dict) -> ModelSpec:
    a = cfg["attention"]
    m = cfg["model"]
    attn = AttentionConfig(
        d_model=m["d_model"], n_heads=a["n_heads"], d_head=a["d_head"],
        variant=a["variant"], position=a["position"],
        n_experts=a["n_experts"], k_active=a["k_active"],
        expert_flags=ExpertFlags(v=a["expert_v"], k=a["expert_k"],
                                 q=a["expert_q"], o=a["expert_o"]),
        context_mult=a["context_mult"], causal=a["causal"])
    mlp = MLPConfig(kind=cfg["mlp"]["kind"], d_ff=cfg["mlp"]["d_ff"],
                    n_experts=cfg["mlp"]["n_experts"],
                    k_active=cfg["mlp"]["k_active"])
    return ModelSpec(
        n_layers=m["n_layers"], d_model=m["d_model"], attention=attn, mlp=mlp,
        vocab_size=m["vocab_size"], T=m["t"],
        n_classes=m["n_classes"] if m["n_classes"] > 0 else None)


def from_model_spec(spec: ModelSpec) -> dict:
    """Config dict (defaults elsewhere) reproducing a ModelSpec."""
    cfg = defaults()
    a, f = spec.attention, spec.attention.expert_flags
    cfg["model"].update(n_layers=spec.n_layers, d_model=spec.d_model,
                        vocab_size=spec.vocab_size, t=spec.T,
                        n_classes=spec.n_classes or 0)
    cfg["attention"].update(variant=a.variant, position=a.position,
                            n_heads=a.n_heads, d_head=a.d_head,
                            n_experts=a.n_experts, k_active=a.k_active,
                            context_mult=a.context_mult, causal=a.causal,
                            expert_v=f.v, expert_k=f.k, expert_q=f.q, expert_o=f.o)
    cfg["mlp"].update(kind=spec.mlp.kind, d_ff=spec.mlp.d_ff,
                      n_experts=spec.mlp.n_experts, k_active=spec.mlp.k_active)
    return cfg


def dump_config(cfg: dict) -> str:
    cp = configparser.ConfigParser(interpolation=None)
    for section, keys in cfg.items():
        cp[section] = {k: str(v) for k, v in keys.items()}
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()
