"""CLI subcommands, exit codes, config parsing, and exported artifacts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchlab.attention import AttentionConfig
from switchlab.checkpoint import load, save
from switchlab import cli
from switchlab.cli import EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, main, parse_cost_row
from switchlab.config import SCHEMA, dump_config, from_model_spec, parse_config, to_model_spec
from switchlab.costmodel import CostInputs, cost_attention
from switchlab.model import MLPConfig, ModelSpec, build, count_params
from switchlab.moe import ConfigError

LISTOPS_CFG = """
[model]
n_layers = 1
d_model = 16
vocab_size = 17
t = 24
n_classes = 10

[attention]
variant = dense
position = none
n_heads = 2
d_head = 4
causal = false

[mlp]
d_ff = 32

[train]
steps = 6
batch_size = 8
lr = 0.001
warmup_steps = 0
log_every = 3

[task]
name = listops
n_train = 32
n_valid = 16
max_depth = 2
max_args = 3
max_len = 24
"""


@pytest.fixture
def listops_cfg(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text(LISTOPS_CFG)
    return str(p)


# -- config parsing --------------------------------------------------------


def test_parse_config_round_trip():
    cfg = parse_config(LISTOPS_CFG)
    assert cfg["model"]["n_classes"] == 10
    assert cfg["attention"]["causal"] is False
    assert parse_config(dump_config(cfg)) == cfg
    spec = to_model_spec(cfg)
    assert spec.n_classes == 10 and spec.attention.causal is False


def test_parse_config_rejects_unknowns_and_bad_types():
    with pytest.raises(ConfigError):
        parse_config("[model]\nwidth = 3\n")
    with pytest.raises(ConfigError):
        parse_config("[engine]\nx = 1\n")
    with pytest.raises(ConfigError):
        parse_config("[model]\nn_layers = two\n")
    with pytest.raises(ConfigError):
        parse_config("[attention]\ncausal = maybe\n")
    with pytest.raises(ConfigError):
        parse_config("", ["model-n_layers-3"])


def test_model_sections_round_trip_through_spec():
    # every model, attention and mlp key set off its default comes back
    # from the spec, so a schema key that no spec field carries fails here
    cfg = parse_config("""
[model]
n_layers = 3
d_model = 24
vocab_size = 30
t = 12
n_classes = 5

[attention]
variant = switchhead
position = none
n_heads = 3
d_head = 6
n_experts = 4
k_active = 2
context_mult = 2
causal = false
expert_v = true
expert_k = true
expert_q = true
expert_o = true

[mlp]
kind = sigma_moe
d_ff = 40
n_experts = 3
k_active = 2
""")
    sections = ("model", "attention", "mlp")
    for section in sections:
        for key, (_, default) in SCHEMA[section].items():
            assert cfg[section][key] != default, f"{section}.{key} is at its default"
    back = from_model_spec(to_model_spec(cfg))
    assert {s: back[s] for s in sections} == {s: cfg[s] for s in sections}


def test_parse_config_overrides_apply():
    cfg = parse_config(LISTOPS_CFG, ["train.steps=1", "model.d_model=8"])
    assert cfg["train"]["steps"] == 1
    assert cfg["model"]["d_model"] == 8


# -- cost ------------------------------------------------------------------


def test_cost_header_only_without_config(capsys):
    assert main(["cost"]) == EXIT_OK
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 1 and "variant" in out[0]


def test_cost_table_matches_closed_form(tmp_path, capsys):
    rows = tmp_path / "rows.txt"
    rows.write_text(
        "dense H=10 T=256 d_head=41 d_model=412 C=2   # 47M-scale row\n"
        "switchhead H=2 T=256 d_head=76 d_model=412 C=2 E=5 K=2 experts=vo\n"
        "moa H=8 T=256 d_head=64 d_model=412 C=2 E=10 K=8\n"
        "head_gated H=8 T=256 d_head=64 d_model=412 C=2 K=2\n")
    out = tmp_path / "out"
    assert main(["cost", "--config", str(rows), "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    lines = (out / "cost.tsv").read_text().strip().splitlines()
    assert lines[0] == "variant heads macs mem_floats"
    want = [
        cost_attention(CostInputs("dense", 10, 256, 41, 412, C=2)),
        cost_attention(CostInputs("switchhead", 2, 256, 76, 412, C=2, E=5,
                                  k_active=2)),
        cost_attention(CostInputs("moa", 8, 256, 64, 412, C=2, E=10,
                                  k_active=8)),
        cost_attention(CostInputs("head_gated", 8, 256, 64, 412, C=2, k_active=2)),
    ]
    assert len(lines) == 1 + len(want)
    for line, rep in zip(lines[1:], want):
        _, _, macs, mem = line.split()
        assert (int(macs), int(mem)) == (rep.macs, rep.mem_floats)


def test_cost_bad_row_is_usage_error(tmp_path, capsys):
    rows = tmp_path / "rows.txt"
    rows.write_text("dense H=2 bogus=3\n")
    assert main(["cost", "--config", str(rows)]) == EXIT_USAGE


@pytest.mark.parametrize("row", ["dense H=x", "dense position=foo", "moa H=2 K=3 E=2",
                                 "switchhead H=2 E=2 K=3 experts=vo", "moa H=3 K=2 E=4",
                                 "dense H=2 T=4 d_head=3 d_model=8 position=rope"])
def test_cost_malformed_rows_are_usage_errors(tmp_path, capsys, row):
    rows = tmp_path / "rows.txt"
    rows.write_text("dense H=2\n" + row + "\n")
    assert main(["cost", "--config", str(rows)]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: line 2: ")


@pytest.mark.parametrize("command", ["cost", "match"])
@pytest.mark.parametrize("bad", ["not_utf8", "directory"])
def test_unreadable_config_is_usage_error(tmp_path, capsys, command, bad):
    path = tmp_path / "in.cfg"
    if bad == "not_utf8":
        path.write_bytes(b"[model]\nn_layers = \xff\n")
    else:
        path.mkdir()
    argv = [command, "--config", str(path)] + (["--target", "1000"] if command == "match" else [])
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: ")


_COST_KEYS = ["H", "T", "d_head", "d_model", "C", "E", "K", "position", "experts", "x"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(
    st.text(max_size=8),
    st.sampled_from(["dense", "switchhead", "moa", "head_gated", "#"]),
    st.builds("{}={}".format, st.sampled_from(_COST_KEYS),
              st.one_of(st.text(max_size=6), st.integers(-2, 9).map(str),
                        st.sampled_from(["rope", "none", "vo", "kqvo", "xl_relative"])))),
    max_size=6).map(" ".join))
def test_cost_row_parser_raises_only_config_error(line):
    try:
        cost_attention(parse_cost_row(line, 1))
    except ConfigError:
        pass


_CONFIG_LINES = [f"[{sec}]" for sec in SCHEMA] + ["[DEFAULT]", "[engine]", "key", "= 3"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(
    st.text(max_size=12),
    st.sampled_from(_CONFIG_LINES),
    st.builds("{} = {}".format,
              st.sampled_from([k for keys in SCHEMA.values() for k in keys] + ["x"]),
              st.one_of(st.text(max_size=8), st.integers(-3, 9).map(str),
                        st.sampled_from(["true", "rope", "moa", "1e-3", "nan", ""])))),
    max_size=10).map("\n".join),
    st.lists(st.text(max_size=16), max_size=2))
def test_config_parser_raises_only_config_error(text, overrides):
    try:
        to_model_spec(parse_config(text, overrides)).validate()
    except ConfigError:
        pass


# -- match -----------------------------------------------------------------


def test_match_fixed_point_slack_zero(listops_cfg, capsys):
    target = count_params(to_model_spec(parse_config(LISTOPS_CFG)))
    assert main(["match", "--config", listops_cfg,
                 "--target", str(target)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "slack=0" in out and f"target={target}" in out


def test_match_infeasible_is_runtime_error(listops_cfg, capsys):
    code = main(["match", "--config", listops_cfg, "--target", "10"])
    assert code == EXIT_RUNTIME


@pytest.mark.parametrize("target", ["0", "-5"])
def test_match_non_positive_target_is_usage_error(listops_cfg, capsys, target):
    assert main(["match", "--config", listops_cfg, "--target", target]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and "must be positive" in err


def test_match_bad_config_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[model]\nn_layers = two\n")
    assert main(["match", "--config", str(bad), "--target", "1000"]) == EXIT_USAGE


def test_unknown_command_is_usage_error(capsys):
    assert main(["frobnicate"]) == EXIT_USAGE


# -- train / eval / export -------------------------------------------------


def test_train_eval_export_pipeline(tmp_path, listops_cfg, capsys):
    out = tmp_path / "out"
    assert main(["train", "--config", listops_cfg, "--out", str(out)]) == EXIT_OK
    train_out = capsys.readouterr().out
    assert "accuracy" in train_out
    assert (out / "metrics.log").exists()
    assert (out / "model.ckpt").exists()
    eval_txt = (out / "eval.txt").read_text()
    # eval on the saved checkpoint reproduces the summary deterministically
    ckpt = str(out / "model.ckpt")
    assert main(["eval", "--checkpoint", ckpt, "--config", listops_cfg]) == EXIT_OK
    eval_out = capsys.readouterr().out
    acc_file = [ln for ln in eval_txt.splitlines() if ln.startswith("accuracy")]
    acc_cli = [ln for ln in eval_out.splitlines() if ln.startswith("accuracy")]
    assert acc_file == acc_cli

    # exported attention grids: rows sum to 1, max grid is elementwise max
    grids = tmp_path / "grids"
    assert main(["export-attn", "--checkpoint", ckpt,
                 "--sample", "( MAX 1 ( SM 2 3 ) 4 )",
                 "--out", str(grids)]) == EXIT_OK
    capsys.readouterr()
    heads = [np.loadtxt(grids / f"layer0_head{h}.csv", delimiter=",", ndmin=2)
             for h in range(2)]
    for g in heads:
        assert np.allclose(g.sum(axis=1), 1.0, atol=1e-6)
    max_grid = np.loadtxt(grids / "layer0_max.csv", delimiter=",", ndmin=2)
    assert np.allclose(max_grid, np.maximum(heads[0], heads[1]), atol=1e-12)


@pytest.fixture
def trained_ckpt(tmp_path_factory):
    cfg = tmp_path_factory.mktemp("cfg") / "run.cfg"
    cfg.write_text(LISTOPS_CFG)
    out = tmp_path_factory.mktemp("run")
    assert main(["train", "--config", str(cfg), "--set", "train.steps=1",
                 "--out", str(out)]) == EXIT_OK
    return str(out / "model.ckpt")


@pytest.mark.parametrize("under", [False, True], ids=["file", "under_file"])
@pytest.mark.parametrize("command", ["cost", "export-attn", "train"])
def test_out_naming_a_file_is_usage_error(tmp_path, listops_cfg, trained_ckpt, capsys,
                                          monkeypatch, command, under):
    # checked before any work: train never starts, and the file is untouched
    blocker = tmp_path / "taken"
    blocker.write_text("keep")
    out = str(blocker / "sub" if under else blocker)
    monkeypatch.setattr(cli, "train", lambda *a: pytest.fail("train ran"))
    argv = {"cost": ["cost", "--out", out],
            "export-attn": ["export-attn", "--checkpoint", trained_ckpt, "--sample", "5",
                            "--out", out],
            "train": ["train", "--config", listops_cfg, "--out", out]}[command]
    capsys.readouterr()
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: --out ")
    assert blocker.read_text() == "keep"


def test_train_pins_one_blas_thread_and_restores_it(tmp_path, listops_cfg, capsys,
                                                    monkeypatch):
    fns = cli._openblas_threads()
    if fns is None:
        pytest.skip("no OpenBLAS thread-count symbols in this numpy")
    get, set_ = fns
    seen = []
    real_train = cli.train

    def train(*args):
        seen.append(get())
        return real_train(*args)

    monkeypatch.setattr(cli, "train", train)
    before = get()
    set_(2)
    try:
        other = get()
        assert main(["train", "--config", listops_cfg, "--set", "train.steps=1",
                     "--out", str(tmp_path / "out")]) == EXIT_OK
        assert seen == [1] and get() == other
    finally:
        set_(before)
    assert "blas_threads 1" in (tmp_path / "out" / "eval.txt").read_text().splitlines()


def test_train_without_openblas_records_unknown_threads(tmp_path, listops_cfg, capsys,
                                                        monkeypatch):
    monkeypatch.setattr(cli, "_openblas_threads", lambda: None)
    assert main(["train", "--config", listops_cfg, "--set", "train.steps=1",
                 "--out", str(tmp_path / "out")]) == EXIT_OK
    lines = (tmp_path / "out" / "eval.txt").read_text().splitlines()
    assert "blas_threads unknown" in lines


def test_export_attn_single_token(tmp_path, listops_cfg, capsys):
    out = tmp_path / "out"
    main(["train", "--config", listops_cfg, "--set", "train.steps=1",
          "--out", str(out)])
    capsys.readouterr()
    grids = tmp_path / "grids"
    assert main(["export-attn", "--checkpoint", str(out / "model.ckpt"),
                 "--sample", "5", "--out", str(grids)]) == EXIT_OK
    capsys.readouterr()
    g = np.loadtxt(grids / "layer0_head0.csv", delimiter=",", ndmin=2)
    assert g.shape == (1, 1) and g[0, 0] == pytest.approx(1.0)


def test_export_attn_writes_head_gating_selections(tmp_path, listops_cfg, capsys):
    out = tmp_path / "out"
    assert main(["train", "--config", listops_cfg, "--set", "train.steps=1",
                 "--set", "attention.variant=head_gated", "--set", "attention.n_heads=3",
                 "--set", "attention.k_active=2", "--out", str(out)]) == EXIT_OK
    grids = tmp_path / "grids"
    assert main(["export-attn", "--checkpoint", str(out / "model.ckpt"),
                 "--sample", "( MAX 1 2 )", "--out", str(grids)]) == EXIT_OK
    capsys.readouterr()
    gates = np.loadtxt(grids / "layer0_heads_sel.csv", delimiter=",", ndmin=2)
    assert gates.shape == (5, 3)                  # [T, H]
    assert np.all((gates > 0).sum(axis=1) == 2)   # k = 2 selected heads per token
    assert np.all(gates <= 1)                     # sigmoid gates


def test_export_attn_writes_switchhead_selections(tmp_path, listops_cfg, capsys):
    # each head's source and destination gates, one [T, k] grid per head
    # and side, as the model's trace gives them
    out = tmp_path / "out"
    assert main(["train", "--config", listops_cfg, "--set", "train.steps=1",
                 "--set", "attention.variant=switchhead", "--set", "attention.n_experts=3",
                 "--set", "attention.k_active=2", "--set", "attention.expert_v=true",
                 "--set", "attention.expert_o=true", "--out", str(out)]) == EXIT_OK
    grids = tmp_path / "grids"
    sample = "( MAX 1 ( SM 2 3 ) 4 )"
    assert main(["export-attn", "--checkpoint", str(out / "model.ckpt"),
                 "--sample", sample, "--out", str(grids)]) == EXIT_OK
    capsys.readouterr()
    model = load(str(out / "model.ckpt"))
    _, traces, _ = model.forward(cli._tokenize_sample(model, sample), want_trace=True)
    selections = traces[0].selections
    T, H, k = len(sample.split()), 2, 2
    for side in ("source", "dest"):
        for h in range(H):
            grid = np.loadtxt(grids / f"layer0_{side}_sel_head{h}.csv", delimiter=",",
                              ndmin=2)
            assert grid.shape == (T, k)
            np.testing.assert_allclose(grid, selections[side][1][0, :, h], rtol=1e-9)


@pytest.mark.parametrize("n_classes, sample", [
    (None, "hello"), (None, "( MAX 1 2 )"), (10, "( MAX 1 x )")])
def test_export_attn_needs_listops_classifier_and_tokens(tmp_path, capsys, n_classes,
                                                         sample):
    # a char LM reads indices into its corpus's byte vocabulary, which the
    # checkpoint does not hold: neither raw bytes nor ListOps ids are its
    # tokens, and a classifier reads ListOps tokens only; nothing is exported
    spec = ModelSpec(1, 8, AttentionConfig(8, 2, 4, variant="dense"), MLPConfig("dense", 16),
                     256, T=8, n_classes=n_classes)
    ckpt = tmp_path / "model.ckpt"
    save(str(ckpt), build(spec, 0))
    grids = tmp_path / "grids"
    assert main(["export-attn", "--checkpoint", str(ckpt), "--sample", sample,
                 "--out", str(grids)]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: ")
    assert not grids.exists()


def test_train_set_override_shrinks_run(tmp_path, listops_cfg, capsys):
    out = tmp_path / "out"
    assert main(["train", "--config", listops_cfg, "--set", "train.steps=2",
                 "--set", "train.log_every=1", "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    steps = {ln.split()[0] for ln in (out / "metrics.log").read_text().splitlines()}
    assert steps == {"1", "2"}


@pytest.mark.parametrize("override", ["task.max_depth=40", "task.max_args=100"])
def test_train_deep_or_wide_task_finishes(tmp_path, listops_cfg, capsys, cpu_time_limit,
                                          override):
    # a sampler that drew each whole tree before checking max_len never
    # finished the deep task and took 23 s to generate the wide one
    with cpu_time_limit(10):
        code = main(["train", "--config", listops_cfg, "--set", "train.steps=1",
                     "--set", override, "--out", str(tmp_path / "out")])
    assert code == EXIT_OK
    capsys.readouterr()


# keys of model options that older configs and checkpoints may still name
RETIRED_SETTINGS = ("model.dropout=0.1", "model.tied_embeddings=true",
                    "attention.scale_by_d_head=true", "attention.sel_activation=softmax")


@pytest.mark.parametrize("override", [
    "train.log_every=0", "train.log_every=-1",
    "train.clip_norm=nan", "train.lr=inf", "task.valid_fraction=-inf",
    "train.lr=-1", "train.warmup_steps=-3", *RETIRED_SETTINGS,
])
def test_train_bad_setting_is_usage_error(tmp_path, listops_cfg, capsys, override):
    # a zero log_every once died in `step % log_every`, a nan clip_norm
    # silently switched clipping off, an infinite lr trained to a divergence,
    # a negative lr ran gradient ascent and a negative warmup_steps turned
    # warm-up off
    code = main(["train", "--config", listops_cfg, "--set", override,
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: unknown config key" if override in RETIRED_SETTINGS
                          else "error: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("args", [
    ["--set", "train.seed=-1"], ["--set", "task.data_seed=-1"], ["--seed", "-1"],
], ids=["train_seed", "data_seed", "seed_option"])
def test_train_negative_seed_is_usage_error(tmp_path, listops_cfg, capsys, args):
    # numpy's SeedSequence once met a negative seed as a ValueError traceback
    code = main(["train", "--config", listops_cfg, *args, "--out", str(tmp_path / "out")])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "seed must be >= 0" in err
    assert not (tmp_path / "out").exists()


def test_eval_negative_data_seed_is_usage_error(listops_cfg, trained_ckpt, capsys):
    code = main(["eval", "--checkpoint", trained_ckpt, "--config", listops_cfg,
                 "--set", "task.data_seed=-1"])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: [task] data_seed: ")


def test_negative_seed_in_config_file_is_rejected():
    with pytest.raises(ConfigError, match="seed must be >= 0"):
        parse_config("[train]\nseed = -3\n")
    assert parse_config("[task]\ndata_seed = 0\n")["task"]["data_seed"] == 0


def test_train_head_too_small_for_labels_is_usage_error(tmp_path, listops_cfg, capsys):
    # a 3-class head once met ListOps label 6 as an IndexError traceback
    code = main(["train", "--config", listops_cfg, "--set", "model.n_classes=3",
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_eval_language_model_on_listops_is_usage_error(tmp_path, listops_cfg, capsys):
    # a char-LM checkpoint once met ListOps labels as a broadcast ValueError
    spec = ModelSpec(1, 16, AttentionConfig(16, 2, 4, variant="dense"), MLPConfig("dense", 16),
                     256, T=24)
    ckpt = tmp_path / "model.ckpt"
    save(str(ckpt), build(spec, 0))
    assert main(["eval", "--checkpoint", str(ckpt), "--config", listops_cfg]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_char_lm_missing_path_is_usage_error(tmp_path, listops_cfg, capsys):
    out = tmp_path / "out"
    code = main(["train", "--config", listops_cfg, "--set", "task.name=char_lm",
                 "--set", "model.n_classes=0", "--out", str(out)])
    assert code == EXIT_USAGE


def test_char_lm_directory_path_is_usage_error(tmp_path, listops_cfg, capsys):
    code = main(["train", "--config", listops_cfg, "--set", "task.name=char_lm",
                 "--set", "model.n_classes=0", "--set", f"task.path={tmp_path}",
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("override", ["train.batch_size=0", "model.t=0",
                                      "train.batch_size=-2", "model.t=-1"])
@pytest.mark.parametrize("command", ["train", "eval"])
def test_char_lm_non_positive_batch_or_t_is_usage_error(tmp_path, listops_cfg, trained_ckpt,
                                                        capsys, command, override):
    # a zero batch_size or T once died in CharLMTask as a ZeroDivisionError
    # (exit 1), and a negative one reported a "train split too small"
    text = tmp_path / "corpus.txt"
    text.write_text("(MAX 1 2 3) " * 200)
    args = ["--config", listops_cfg, "--set", "task.name=char_lm", "--set", "model.n_classes=0",
            "--set", "model.vocab_size=256", "--set", f"task.path={text}", "--set", override]
    if command == "train":
        args += ["--out", str(tmp_path / "out")]
    else:
        args += ["--checkpoint", trained_ckpt]
    assert main([command, *args]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: char_lm needs batch_size >= 1 and T >= 1")
    assert not (tmp_path / "out").exists()


def test_checkpoint_directory_is_usage_error(tmp_path, listops_cfg, capsys):
    assert main(["export-attn", "--checkpoint", str(tmp_path), "--sample", "5",
                 "--out", str(tmp_path / "grids")]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: ")


def test_eval_unknown_split_is_usage_error(tmp_path, listops_cfg, capsys):
    out = tmp_path / "out"
    assert main(["train", "--config", listops_cfg, "--set", "train.steps=1",
                 "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(out / "model.ckpt"), "--config", listops_cfg,
                 "--split", "bogus"]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: unknown split")


def test_missing_config_file_is_usage_error(tmp_path, capsys):
    code = main(["train", "--config", str(tmp_path / "nope.cfg"),
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_USAGE


@pytest.mark.parametrize("corrupt", ["index", "utf8", "nan", "inexact"])
def test_export_attn_corrupt_checkpoint_is_usage_error(tmp_path, listops_cfg,
                                                       capsys, corrupt):
    out = tmp_path / "out"
    main(["train", "--config", listops_cfg, "--set", "train.steps=1",
          "--out", str(out)])
    ckpt = out / "model.ckpt"
    blob = ckpt.read_bytes()
    if corrupt == "index":
        start = blob.index(b"\nembed ") + 1
        blob = blob[:start] + b"embed two 3" + blob[blob.index(b"\n", start):]
    elif corrupt == "utf8":
        blob = blob.replace(b"---\n", b"---\n\xff\n", 1)
    elif corrupt == "nan":
        blob = blob[:-8] + np.array([np.inf]).astype("<f8").tobytes()
    else:   # a float64 value that a float32 model cannot hold
        blob = blob[:-8] + np.array([0.1]).astype("<f8").tobytes()
    ckpt.write_bytes(blob)
    capsys.readouterr()
    assert main(["export-attn", "--checkpoint", str(ckpt), "--sample", "5",
                 "--out", str(tmp_path / "grids")]) == EXIT_USAGE
    assert "error:" in capsys.readouterr().err
