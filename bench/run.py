"""switchlab benchmark: training/eval throughput and per-layer traced time.

Run one workload (what BENCHMARK.json's command does):

    python3 bench/run.py --workload listops_switchhead_h2 --seed 0 --seconds 45 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing; ``--trace 1``
makes a separate traced run for the per-layer metrics and writes its spans
to bench/results/. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the exit code is 1
when any correctness check failed, 2 when the program cannot be found.

Run every workload, the ungated listops_dense_h8 too, each in its own
process, untraced then traced, and print the derived ratio lines:

    python3 bench/run.py --seed 0

BLAS is pinned to one thread before numpy loads. Timings are read on the
process's CPU clock (see workloads.cpu_clock); the wall-clock figures are
printed beside them, ungated.
"""

from __future__ import annotations

import argparse
import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json          # noqa: E402
import platform      # noqa: E402
import resource      # noqa: E402
import statistics    # noqa: E402
import subprocess    # noqa: E402
import time          # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(BENCH_DIR, "results")

#: Workloads this command runs besides the ones BENCHMARK.json gates. The
#: dense 8-head ListOps model is the base of the switchhead/dense ratio
#: lines and the case that bypasses expert dispatch; it is left out of the
#: gated set so that the gated workloads can have longer runs within the
#: time all runs may take (bench/README.md).
UNGATED = ["listops_dense_h8"]


def contract() -> dict:
    """BENCHMARK.json: the workload names, metric names and units."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def metric_units(spec: dict, kind: str) -> dict:
    """{name: unit} of the contract's "end_to_end" or "per_layer" metrics."""
    return {m["name"]: m["unit"] for m in spec[kind]}


def import_switchlab() -> float:
    """Import the checkout's switchlab (never an installed copy); CPU
    seconds."""
    if not os.path.isfile(os.path.join(SRC, "switchlab", "__init__.py")):
        print(f"error: no switchlab sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH_DIR)
    t0 = time.process_time()
    import switchlab
    import workloads  # noqa: F401  (imports the switchlab modules it uses)
    elapsed = time.process_time() - t0
    if not os.path.abspath(switchlab.__file__).startswith(SRC + os.sep):
        print(f"error: imported switchlab from {switchlab.__file__}",
              file=sys.stderr)
        sys.exit(2)
    return elapsed


def blas_threads():
    """Threads the loaded OpenBLAS will use, or None if it cannot be asked."""
    import ctypes
    import glob
    import numpy as np
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "seed": seed}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values, q: float) -> float:
    import numpy as np
    return float(np.percentile(values, q))


# -- one workload ------------------------------------------------------------


class Outcome:
    """Operations attempted and failed, failure messages, metrics, extras."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.metrics: dict[str, float] = {}
        self.info: dict = {}

    def ops(self, attempted: int, failed: int = 0) -> None:
        self.attempted += attempted
        self.failed += failed

    def check(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def run_untraced(W, wl, seed: int, seconds: float, import_s: float,
                 corrupt_at: int | None, out: Outcome) -> None:
    """Set-ups before, halfway through and after the timed window, so that
    setup_s takes its median from three points of the run and not from
    one spell of the host's speed. The set-up in the window is dropped as
    soon as it is timed; the window is timed on the CPU clock per step and
    per evaluate() call, so the set-up between two of them is not in it."""

    def timed_setup():
        dt, _ = W.setup(wl, seed)
        setups.append(dt)

    setups = []
    dt, (task, eval_task, model, opt) = W.setup(wl, seed)
    setups.append(dt)
    trainer = W.Trainer(wl, task, model, opt, seed)
    trainer.corrupt_at = corrupt_at
    for _ in range(W.WARMUP_STEPS):
        trainer.step()
    w = W.train_and_evaluate(trainer, eval_task, seconds, midway=timed_setup)
    rss = peak_rss_mb()
    evals = w.results
    out.ops(len(trainer.losses), trainer.failed)
    if trainer.failed:
        out.problems.append(f"{trainer.failed} of {len(trainer.losses)} "
                            "steps had a non-finite loss")
    bad = [r for r in evals if not W.eval_finite(r)]
    out.ops(len(evals), len(bad))
    if bad:
        out.problems.append(f"{len(bad)} of {len(evals)} evaluations were "
                            f"not finite, e.g. {bad[0]}")
    out.check(W.check_costmodel(wl))
    final_loss = trainer.losses[-1]
    del trainer, task, eval_task, model, opt   # freed before the last set-up
    timed_setup()
    out.info["setup_repeats_s"] = setups
    step_ms = [t * 1e3 for t in w.step_cpu]
    out.metrics.update({
        "train_tok_s": w.train_tok_s(w.step_cpu),
        "step_ms_p50": percentile(step_ms, 50),
        "step_ms_p90": percentile(step_ms, 90),
        "eval_tok_s": w.eval_tok_s(w.eval_cpu),
        "peak_rss_mb": rss,
        "setup_s": import_s + statistics.median(setups),
    })
    wall_ms = [t * 1e3 for t in w.step_wall]
    out.info.update(steps=len(w.step_cpu), eval_calls=len(evals),
                    eval_result=evals[-1], final_loss=final_loss,
                    wall={"train_tok_s": w.train_tok_s(w.step_wall),
                          "step_ms_p50": percentile(wall_ms, 50),
                          "step_ms_p90": percentile(wall_ms, 90),
                          "eval_tok_s": w.eval_tok_s(w.eval_wall)})


def run_traced(W, wl, seed: int, seconds: float, out: Outcome) -> None:
    """Two models of the same seed train on the same batches, one step
    each in turn: the plain one untraced, the other with the tracer
    installed for its step only. Alternating exposes both to the same
    machine speed and process state, so the gap between them is the
    tracing overhead."""
    from tracer import Tracer

    _, (task, eval_task, model, opt) = W.setup(wl, seed)
    plain = W.Trainer(wl, task, model, opt, seed)
    model_b, opt_b = W.fresh_model(wl, task, seed)
    traced = W.Trainer(wl, task, model_b, opt_b, seed)
    tracer = Tracer()
    traced_step = tracer.wrap("bench.step", traced.step)

    def timed_traced_step(phase: str):
        tracer.begin(phase, traced.step_no + 1)
        tracer.install()
        try:
            t0 = W.cpu_clock()
            n_tok = traced_step()
            return n_tok, W.cpu_clock() - t0
        finally:
            tracer.uninstall()

    for _ in range(W.WARMUP_STEPS):
        plain.step()
        timed_traced_step("warmup")
    real, slots = traced.real_tokens, traced.padded_slots
    times_a, times_b, tok_a, tok_b = [], [], 0, 0
    start = time.perf_counter()
    cycle = W.cycle_steps(wl)
    while (time.perf_counter() - start < seconds
           or len(times_a) < W.MIN_STEPS or len(times_a) % cycle):
        # the second step of a pair reuses buffers the first just freed, so
        # the order flips every pair
        for first in ((True, False) if len(times_a) % 2 else (False, True)):
            if first:
                t0 = W.cpu_clock()
                tok_a += plain.step()
                times_a.append(W.cpu_clock() - t0)
            else:
                n_tok, dt = timed_traced_step("train")
                tok_b += n_tok
                times_b.append(dt)
    real, slots = traced.real_tokens - real, traced.padded_slots - slots
    eval_a = W.evaluate(wl, model, eval_task)[0]
    if wl.runs_suite:
        # untraced for suite_s, then again below for the per-layer numbers
        results, suite_s = W.run_suite(seed)
        out.check(W.check_suite(results))
        out.info["suite_s"] = suite_s
        out.info["suite_worst_rel_err"] = max(r.max_rel_err for r in results)

    os.makedirs(RESULTS, exist_ok=True)
    tracer.install()
    try:
        tracer.begin("eval", 0)
        eval_b = W.evaluate(wl, model_b, eval_task)[0]
        tracer.begin("checkpoint", 0)
        ckpt_problems = W.checkpoint_roundtrip(
            model_b, os.path.join(RESULTS, f"{wl.name}.ckpt"))
        suite = None
        if wl.runs_suite:
            tracer.begin("suite", 0)
            suite, _ = W.run_suite(seed)
    finally:
        tracer.uninstall()

    n = len(times_b)
    out.ops(len(plain.losses) + len(traced.losses), plain.failed + traced.failed)
    out.check([] if plain.losses == traced.losses else
              ["traced and untraced runs gave different loss sequences"])
    out.check([] if eval_a == eval_b else
              [f"traced and untraced eval differ: {eval_a} vs {eval_b}"])
    out.check(ckpt_problems)
    if suite is not None:
        out.check(W.check_suite(suite))
    out.check(W.check_costmodel(wl))

    def per_step(name):
        return tracer.self_ms("train", name) / n

    moe_other = [m for m in tracer.names("train") if m.startswith("moe.")
                 and m not in ("moe.select", "moe.sigma_moe_mlp")]
    routers = list(tracer.routing["train"].values())
    shares = [c.max() / c.sum() for c in routers if c.sum()]
    fd_n, fd_ns = tracer.outer_forward["suite"]
    m = out.metrics
    m.update({
        "data.batch_ms": per_step("data.batch") + per_step("data.pad_batch"),
        "data.pad_efficiency": real / slots,
        "model.forward_ms": per_step("model.forward"),
        "attention.forward_ms": per_step("attention.forward"),
        "attention.calls": tracer.count("train", "attention.forward") / n,
        "moe.select_ms": per_step("moe.select"),
        "moe.mixture_ms": sum(per_step(x) for x in moe_other),
        "moe.mlp_ms": per_step("moe.sigma_moe_mlp"),
        "moe.load_max_frac": max(shares) if shares else 0.0,
        "moe.dead_experts": sum(int((c == 0).sum()) for c in routers),
        "tensor.backward_ms": per_step("tensor.backward"),
        "tensor.matmul_ms": per_step("tensor.matmul"),
        "tensor.matmul_calls": tracer.count("train", "tensor.matmul") / n,
        "optim.step_ms": per_step("optim.step"),
    })
    m.update(W.forward_counts(wl, task, model_b, seed))
    for op in ("save", "load"):
        m[f"checkpoint.{op}_ms"] = (tracer.self_ms("checkpoint", f"checkpoint.{op}")
                                    / W.CKPT_REPEATS)
    m["gradcheck.fd_forwards"] = fd_n
    m["gradcheck.forward_us"] = fd_ns / fd_n / 1e3 if fd_n else 0.0
    untraced_tok_s = tok_a / sum(times_a)
    m["trace.overhead_frac"] = 1.0 - (tok_b / sum(times_b)) / untraced_tok_s
    spans_path = os.path.join(RESULTS, f"spans-{wl.name}.jsonl")
    out.info.update(steps=n, spans=tracer.write_spans(spans_path),
                    spans_path=os.path.relpath(spans_path, ROOT),
                    self_ms_per_step={k: round(per_step(k), 4)
                                      for k in tracer.names("train")})


def run_workload(args) -> int:
    import_s = import_switchlab()
    import workloads as W
    wl = W.WORKLOADS[args.workload]
    env = environment(args.seed)
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()), flush=True)
    out = Outcome()
    if args.trace:
        run_traced(W, wl, args.seed, args.seconds, out)
        units = metric_units(args.contract, "per_layer")
    else:
        run_untraced(W, wl, args.seed, args.seconds, import_s,
                     args.corrupt_step, out)
        units = metric_units(args.contract, "end_to_end")
    if set(out.metrics) != set(units):
        raise RuntimeError(f"metric set mismatch: {sorted(set(out.metrics) ^ set(units))}")
    for name, unit in units.items():
        extra = f" (n={out.info['steps']})" if name.startswith("step_ms") else ""
        print(f"{wl.name} {name} {out.metrics[name]:.6g} {unit}{extra}")
    for name, value in out.info.get("wall", {}).items():
        print(f"{wl.name} wall {name} {value:.6g} {units[name]} (not gated)")
    if "suite_s" in out.info:
        print(f"{wl.name} suite_s {out.info['suite_s']:.6g} s "
              f"(run_suite, one seed, worst max_rel_err "
              f"{out.info['suite_worst_rel_err']:.2e})")
    if args.trace:
        print(f"{wl.name} spans {out.info['spans']} -> {out.info['spans_path']}")
    print(f"{wl.name} error_rate {out.failed / out.attempted:.6g} "
          f"({out.failed}/{out.attempted})")
    for problem in out.problems:
        print(f"{wl.name} FAILED {problem}")
    record = {"workload": wl.name, "trace": args.trace, "seconds": args.seconds,
              "env": env, "attempted": out.attempted, "failed": out.failed,
              "problems": out.problems, "metrics": out.metrics,
              "info": out.info}
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"{wl.name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True, default=str)
    correct = out.failed == 0
    print(json.dumps({"correct": correct, "attempted": out.attempted,
                      "failed": out.failed,
                      "metrics": {k: {"value": out.metrics[k], "unit": u}
                                  for k, u in units.items()}}), flush=True)
    return 0 if correct else 1


# -- all workloads -----------------------------------------------------------


def run_all(args) -> int:
    """Each workload in its own process, untraced then traced."""
    if not os.path.isfile(os.path.join(SRC, "switchlab", "__init__.py")):
        print(f"error: no switchlab sources under {SRC}", file=sys.stderr)
        return 2
    results: dict = {}
    status = 0
    for name in args.workloads:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0:
                status = 1
            try:
                results[(name, trace)] = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                print(f"{name} trace={trace}: no result "
                      f"(exit {proc.returncode})")
                status = 1
    for metric, trace in (("step_ms_p50", 0), ("macs.total", 1)):
        a = results.get(("listops_switchhead_h2", trace))
        b = results.get(("listops_dense_h8", trace))
        if a and b:
            va = a["metrics"][metric]["value"]
            vb = b["metrics"][metric]["value"]
            unit = a["metrics"][metric]["unit"]
            print(f"ratio {metric} listops_switchhead_h2/listops_dense_h8 = "
                  f"{va / vb:.4f} ({va:.6g} {unit} / {vb:.6g} {unit})")
    summary = {f"{n}/trace{t}": r for (n, t), r in results.items()}
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, f"BENCH_seed{args.seed}.json"), "w") as f:
        json.dump(summary, f, indent=1, sort_keys=True)
    return status


def main(argv=None) -> int:
    spec = contract()
    names = [w["name"] for w in spec["workloads"]] + UNGATED
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=names,
                   help="run one workload in this process (default: all)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--corrupt-step", type=int, default=None,
                   help=argparse.SUPPRESS)   # smoke test: poison this step
    args = p.parse_args(argv)
    args.contract, args.workloads = spec, names
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
