"""Command-line entry point.

Subcommands: cost (layer cost tables), match (parameter matching), train,
eval, export-attn (attention-map and selection-weight grids), gradcheck
(finite-difference suite). Exit codes: 0 success, 1 runtime or numeric
failure, 2 usage or configuration error. An ``--out`` that cannot become a
directory is a usage error, found before any work starts. ``train`` and
``eval`` run with OpenBLAS pinned to one thread, as float32 results depend
on the thread count, and ``train`` records the count in ``eval.txt``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import os
import sys

import numpy as np

from .attention import ExpertFlags
from .checkpoint import CheckpointError, load, save
from .config import load_config, read_text, to_model_spec
from .costmodel import CostInputs, cost_attention, human
from .listops import TOKEN_ID, gen_listops
from .model import MatchingError, match_params, match_report
from .moe import ConfigError
from .tensor import ShapeError
from .training import (CharLMTask, DivergenceError, ListOpsTask, TrainRun,
                       evaluate, metrics_lines, train)
from . import corpus as corpus_mod

EXIT_OK, EXIT_RUNTIME, EXIT_USAGE = 0, 1, 2

_FLAG_ROLES = ("v", "k", "q", "o")


def parse_cost_row(line: str, lineno: int) -> CostInputs:
    """One cost-table row: ``variant key=value ...`` tokens.

    Keys: H T d_head d_model C E K position experts (e.g. experts=vo).
    """
    parts = line.split()
    if not parts:
        raise ConfigError(f"line {lineno}: empty cost row")
    variant = parts[0]
    kw = {"H": 1, "T": 256, "d_head": 64, "d_model": 512, "C": 1, "E": 1,
          "K": 1, "position": "xl_relative", "experts": ""}
    for tok in parts[1:]:
        if "=" not in tok:
            raise ConfigError(f"line {lineno}: expected key=value, got '{tok}'")
        key, val = tok.split("=", 1)
        if key not in kw:
            raise ConfigError(f"line {lineno}: unknown field '{key}'")
        try:
            kw[key] = val if key in ("position", "experts") else int(val)
        except ValueError:
            raise ConfigError(f"line {lineno}: {key} must be an integer, got '{val}'") from None
    flags = {}
    for ch in kw["experts"]:
        if ch not in _FLAG_ROLES:
            raise ConfigError(f"line {lineno}: unknown expert role '{ch}'")
        flags[ch] = True
    if variant == "switchhead" and not flags and kw["E"] > 1:
        flags = {"v": True, "o": True}
    ci = CostInputs(variant=variant, H=kw["H"], T=kw["T"], d_head=kw["d_head"],
                    d_model=kw["d_model"], C=kw["C"], E=kw["E"],
                    k_active=kw["K"], expert_flags=ExpertFlags(**flags),
                    position=kw["position"])
    try:
        ci.validate()
    except ConfigError as e:
        raise ConfigError(f"line {lineno}: {e}") from None
    return ci


def _check_out_dir(path: str) -> None:
    """Reject, before any work, an ``--out`` that cannot become a directory:
    it, or the nearest of its parents that exists, is not a directory."""
    existing = os.path.abspath(path)
    while not os.path.exists(existing):
        existing = os.path.dirname(existing)
    if not os.path.isdir(existing):
        raise ConfigError(f"--out {path}: {existing} exists and is not a directory")


def _openblas_threads():
    """The (get, set) thread-count functions of the OpenBLAS that numpy
    loaded, or None where no such library or symbol is found."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
                     "openblas_{}_num_threads"):
            get = getattr(lib, name.format("get"), None)
            set_ = getattr(lib, name.format("set"), None)
            if get is not None and set_ is not None:
                get.restype = ctypes.c_int
                set_.argtypes = (ctypes.c_int,)
                return get, set_
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with OpenBLAS on one thread, since float32 results
    depend on the thread count, and restore the previous count after.

    Yields the count in effect, 1, or None where OpenBLAS cannot be
    reached; the count is then left alone.
    """
    fns = _openblas_threads()
    if fns is None:
        yield None
        return
    get, set_ = fns
    before = get()
    set_(1)
    try:
        yield 1
    finally:
        set_(before)


def cmd_cost(args) -> int:
    if args.out:
        _check_out_dir(args.out)
    rows = []
    if args.config:
        for lineno, line in enumerate(read_text(args.config).split("\n"), 1):
            line = line.split("#")[0].strip()
            if line:
                rows.append(parse_cost_row(line, lineno))
    header = f"{'variant':<12} {'heads':>5} {'macs':>14} {'mem_floats':>12} {'macs~':>8} {'mem~':>8}"
    out_lines = [header]
    machine = ["variant heads macs mem_floats"]
    for ci in rows:
        rep = cost_attention(ci)
        out_lines.append(f"{ci.variant:<12} {ci.H:>5} {rep.macs:>14} "
                         f"{rep.mem_floats:>12} {human(rep.macs):>8} {human(rep.mem_floats):>8}")
        machine.append(f"{ci.variant} {ci.H} {rep.macs} {rep.mem_floats}")
    print("\n".join(out_lines))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "cost.tsv"), "w", encoding="utf-8") as f:
            f.write("\n".join(machine) + "\n")
    return EXIT_OK


def cmd_match(args) -> int:
    template = to_model_spec(load_config(args.config, args.set or []))
    if args.target is not None:
        target = args.target
        result = match_params(target, template)
        print(f"target={target}")
        print(f"matched d_head={result.spec.attention.d_head} "
              f"d_ff={result.spec.mlp.d_ff} params={result.param_count} "
              f"slack={result.slack}")
        return EXIT_OK
    baseline = to_model_spec(load_config(args.target_config))
    report = match_report(baseline, template)
    res = report["matched"]
    print(f"target={report['target']} (dense baseline parameter count)")
    print(f"matched d_head={res.spec.attention.d_head} d_ff={res.spec.mlp.d_ff} "
          f"params={res.param_count} slack={res.slack}")
    for name, row in report["conventions"].items():
        print(f"convention {name}: d_head={row['d_head']} d_ff={row['d_ff']} "
              f"params={row['param_count']} slack={row['slack']}")
    print("published 47M reference row for comparison: d_head=76 d_ff=2080 "
          "(matches the per_head_pos counting convention)")
    return EXIT_OK


def _build_task(cfg: dict, batch_size: int):
    t = cfg["task"]
    if t["name"] == "listops":
        train_ex = gen_listops(t["n_train"], t["max_depth"], t["max_args"],
                               seed=t["data_seed"], max_len=t["max_len"])
        valid_ex = gen_listops(t["n_valid"], t["max_depth"], t["max_args"],
                               seed=t["data_seed"] + 1, max_len=t["max_len"])
        return ListOpsTask(train_ex, valid_ex)
    if t["name"] == "char_lm":
        if not t["path"]:
            raise ConfigError("char_lm task needs [task] path = <text file>")
        corpus = corpus_mod.from_file(t["path"], t["valid_fraction"])
        return CharLMTask(corpus, T=cfg["model"]["t"], batch_size=batch_size)
    raise ConfigError(f"unknown task '{t['name']}'")


def cmd_train(args) -> int:
    _check_out_dir(args.out)
    cfg = load_config(args.config, args.set or [])
    spec = to_model_spec(cfg)
    tr = cfg["train"]
    if args.seed is not None and args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    seed = args.seed if args.seed is not None else tr["seed"]
    task = _build_task(cfg, tr["batch_size"])
    run = TrainRun(spec=spec, seed=seed, steps=tr["steps"],
                   batch_size=tr["batch_size"], lr=tr["lr"],
                   warmup_steps=tr["warmup_steps"],
                   clip_norm=tr["clip_norm"] if tr["clip_norm"] > 0 else None,
                   log_every=tr["log_every"])
    with _one_blas_thread() as threads:
        model, metrics = train(run, task)
        summary = evaluate(model, task, "valid")
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "metrics.log"), "w", encoding="utf-8") as f:
        f.write(metrics_lines(metrics))
    save(os.path.join(args.out, "model.ckpt"), model)
    with open(os.path.join(args.out, "eval.txt"), "w", encoding="utf-8") as f:
        for k, v in summary.items():
            f.write(f"{k} {v}\n")
        f.write(f"blas_threads {'unknown' if threads is None else threads}\n")
    for k, v in summary.items():
        print(f"{k} {v}")
    return EXIT_OK


def cmd_eval(args) -> int:
    model = load(args.checkpoint)
    cfg = load_config(args.config, args.set or [])
    task = _build_task(cfg, cfg["train"]["batch_size"])
    with _one_blas_thread():
        summary = evaluate(model, task, args.split)
    for k, v in summary.items():
        print(f"{k} {v}")
    return EXIT_OK


def _grid(path: str, matrix: np.ndarray) -> None:
    np.savetxt(path, np.atleast_2d(matrix), delimiter=",", fmt="%.10g")


def _tokenize_sample(model, text: str) -> np.ndarray:
    """The [1, T] ids of a sample of ListOps tokens for a ListOps classifier.

    A language model trains on indices into its corpus's byte vocabulary,
    which the checkpoint does not hold, so no sample maps onto its ids."""
    if model.spec.n_classes is None:
        raise ConfigError("export-attn reads ListOps classifiers only; a language-model "
                          "checkpoint holds no corpus vocabulary to map a sample onto")
    toks = text.split()
    if not toks or not all(t in TOKEN_ID for t in toks):
        raise ConfigError("the sample must be space-separated ListOps tokens")
    return np.array([[TOKEN_ID[t] for t in toks]])


def cmd_export_attn(args) -> int:
    _check_out_dir(args.out)
    model = load(args.checkpoint)
    tokens = _tokenize_sample(model, args.sample)
    _, traces, _ = model.forward(tokens, want_trace=True)
    os.makedirs(args.out, exist_ok=True)
    for layer, trace in enumerate(traces):
        attn = trace.attn[0]                       # [n_matrices, T, S]
        for h in range(attn.shape[0]):
            _grid(os.path.join(args.out, f"layer{layer}_head{h}.csv"), attn[h])
        _grid(os.path.join(args.out, f"layer{layer}_max.csv"), attn.max(axis=0))
        for side in ("source", "dest"):          # [T, H, k]: each head's k gates
            if side in trace.selections:
                weights = trace.selections[side][1][0]
                for h in range(weights.shape[1]):
                    _grid(os.path.join(args.out, f"layer{layer}_{side}_sel_head{h}.csv"),
                          weights[:, h])
        if "router" in trace.selections:
            _grid(os.path.join(args.out, f"layer{layer}_router_sel.csv"),
                  trace.selections["router"][1][0])
        if "heads" in trace.selections:          # [T, H]: each head's gate, 0 if unselected
            indices, weights = trace.selections["heads"]
            gates = np.zeros((indices.shape[1], attn.shape[0]))
            np.put_along_axis(gates, indices[0], weights[0], axis=-1)
            _grid(os.path.join(args.out, f"layer{layer}_heads_sel.csv"), gates)
    print(f"exported {len(traces)} layers to {args.out}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    from .gradcheck import run_suite
    results = run_suite()
    failed = False
    for r in results:
        status = "PASS" if r.ok() else "FAIL"
        print(f"{r.name:<28} max_rel_err={r.max_rel_err:.3e} "
              f"worst={r.worst_param} {status}")
        failed = failed or not r.ok()
    return EXIT_RUNTIME if failed else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="switchlab",
                                description="MoE-attention laboratory")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("cost", help="closed-form layer cost table")
    c.add_argument("--config", help="rows file: 'variant key=value ...' per line")
    c.add_argument("--out", help="directory for the machine-readable twin")
    c.set_defaults(fn=cmd_cost)

    m = sub.add_parser("match", help="parameter matching against a target")
    m.add_argument("--config", required=True, help="template model config")
    m.add_argument("--set", action="append", metavar="SEC.KEY=VAL")
    g = m.add_mutually_exclusive_group(required=True)
    g.add_argument("--target", type=int, help="explicit parameter target")
    g.add_argument("--target-config", help="dense baseline config to count")
    m.set_defaults(fn=cmd_match)

    t = sub.add_parser("train", help="train a model on a task")
    t.add_argument("--config", required=True)
    t.add_argument("--set", action="append", metavar="SEC.KEY=VAL")
    t.add_argument("--out", required=True)
    t.add_argument("--seed", type=int)
    t.set_defaults(fn=cmd_train)

    e = sub.add_parser("eval", help="evaluate a checkpoint")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--config", required=True)
    e.add_argument("--set", action="append", metavar="SEC.KEY=VAL")
    e.add_argument("--split", default="valid")
    e.set_defaults(fn=cmd_eval)

    x = sub.add_parser("export-attn", help="dump attention / selection grids")
    x.add_argument("--checkpoint", required=True)
    x.add_argument("--sample", required=True,
                   help="space-separated ListOps tokens (ListOps classifiers only)")
    x.add_argument("--out", required=True)
    x.set_defaults(fn=cmd_export_attn)

    gchk = sub.add_parser("gradcheck", help="run the finite-difference suite")
    gchk.set_defaults(fn=cmd_gradcheck)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except (ConfigError, ShapeError, CheckpointError, FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (MatchingError, DivergenceError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_RUNTIME
    except (FloatingPointError, ArithmeticError) as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
