"""A/B timing, or tape size, of two checkouts of the lab, one persistent
worker each.

    python3 scripts/ab_interleave.py PARENT_DIR CHANGE_DIR WORKLOAD {eval|step|tape|setup} N

Each checkout gets one worker process that imports switchlab and the
benchmark's workloads from that checkout (``bench/workloads.py``), sets the
workload up once (data, model, a warm-up; seed 0) and then waits for
requests. The two workers take turns, N times each, in a pair order that alternates
which side goes first. A request times one ``evaluate()`` call (``eval``)
or one batch cycle of training steps (``step``: 17 steps on ListOps, one
on the LM), on the worker's process CPU clock, with BLAS pinned to one
thread as in ``bench/run.py``. Both workers stay alive for the whole run,
so neither pays start-up again, and alternating single requests exposes
both sides to the same drift of the host: short alternating ``bench/run.py``
runs spread by about 15% on a 2-vCPU virtual machine, more than the gains
worth measuring. The script prints each side's median and quartiles, the
ratio of the medians (change / parent) and the number of pairs in which
the change was faster.

``setup`` times the set-up instead: a request runs one ``W.setup(wl, 0)``
(data generation, task construction, ``model.build`` and Adam), reads the
CPU seconds that ``W.setup`` itself measures, as ``bench/run.py``'s
``setup_s`` does, and drops what it built. Its worker sets nothing up
before the first request but one untimed warm-up set-up.

``tape`` measures memory instead of time: a request runs one forward,
loss and backward on the workload's longest batch under ``tracemalloc``
(the longest of the cycle's windows on ListOps; on the LM the second
chunk, with the first one cached) and reports three figures, each above
the bytes traced before the forward: the bytes held once the loss is
formed, which is the tape, the peak of the forward and loss, and the
backward's peak. The step's high-water mark is the larger of the two
peaks. The counts repeat exactly, so N = 1 is enough; the script prints
the figures per side in MB (10^6 B).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tracemalloc

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SEED = 0


def tape_bytes(W, wl, trainer) -> list[int]:
    """[bytes held after the forward and loss, peak bytes of the forward
    and loss, peak bytes of the backward] on the workload's longest batch,
    each above the bytes traced before the forward; the grads are dropped
    again after."""
    from switchlab.listops import pad_batch
    from switchlab.tensor import cross_entropy

    model = trainer.model
    if wl.task == "listops":
        longest = max(trainer.windows, key=lambda w: max(e.length for e in w))
        tokens, targets, mask = pad_batch(longest)
        kwargs = {"key_mask": mask}
    else:
        x1, _, _ = trainer.task.batch(SEED, 1, wl.batch_size)
        _, _, caches = model.forward(x1)
        tokens, targets, _ = trainer.task.batch(SEED, 2, wl.batch_size)
        kwargs = {"caches": caches}
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        logits, _, _ = model.forward(tokens, **kwargs)
        loss = cross_entropy(logits, targets)
        held, forward_peak = (b - base for b in tracemalloc.get_traced_memory())
        tracemalloc.reset_peak()
        loss.backward()
        backward_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    trainer.opt.zero_grad()
    return [held, forward_peak, backward_peak]


def worker(root: str, workload: str, mode: str) -> None:
    """Serve requests on stdin ("run" lines), one JSON line each."""
    sys.path[:0] = [os.path.join(root, "src"), root]
    from bench import workloads as W

    wl = W.WORKLOADS[workload]
    if mode == "setup":
        def once():
            return W.setup(wl, SEED)[0]
    else:
        _, (task, eval_task, model, opt) = W.setup(wl, SEED)
        trainer = W.Trainer(wl, task, model, opt, SEED)

        def once():
            if mode == "tape":
                return tape_bytes(W, wl, trainer)
            if mode == "eval":
                return W.evaluate(wl, model, eval_task)[2]
            c0 = W.cpu_clock()
            for _ in range(W.cycle_steps(wl)):
                trainer.step()
            return W.cpu_clock() - c0

        for _ in range(W.WARMUP_STEPS):
            trainer.step()
    once()
    print("ready", flush=True)
    for line in sys.stdin:
        if line.strip() != "run":
            break
        print(json.dumps(once()), flush=True)


def start(root: str, args) -> subprocess.Popen:
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    proc = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--worker", root, args.workload,
         args.mode],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env)
    if proc.stdout.readline().strip() != "ready":
        proc.kill()
        raise SystemExit(f"worker for {root} failed to start")
    return proc


def request(proc: subprocess.Popen) -> float:
    proc.stdin.write("run\n")
    proc.stdin.flush()
    line = proc.stdout.readline()
    if not line:
        raise SystemExit("a worker died")
    return json.loads(line)


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_dir")
    ap.add_argument("change_dir")
    ap.add_argument("workload")
    ap.add_argument("mode", choices=("eval", "step", "tape", "setup"))
    ap.add_argument("n", type=int)
    args = ap.parse_args()
    if args.n < 1:
        ap.error("N must be at least 1")
    procs = {"parent": start(args.parent_dir, args), "change": start(args.change_dir, args)}
    times = {"parent": [], "change": []}
    try:
        for i in range(args.n):
            for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                times[side].append(request(procs[side]))
    finally:
        for proc in procs.values():
            proc.stdin.close()
            proc.wait(timeout=60)
    if args.mode == "tape":
        for side in ("parent", "change"):
            held, fwd, bwd = (statistics.median(x) / 1e6 for x in zip(*times[side]))
            print(f"{side:6s} tape after forward {held:8.2f} MB  forward peak {fwd:8.2f} MB"
                  f"  backward peak {bwd:8.2f} MB  (n={len(times[side])})")
        held_p, held_c = (statistics.median(h for h, _, _ in times[s])
                          for s in ("parent", "change"))
        print(f"{args.workload} tape: change/parent {held_c / held_p:.3f}x after the forward")
        return
    for side in ("parent", "change"):
        q1, q2, q3 = quartiles(times[side])
        print(f"{side:6s} median {q2 * 1e3:9.2f} ms  quartiles {q1 * 1e3:9.2f} "
              f"{q3 * 1e3:9.2f} ms  (n={len(times[side])})")
    wins = sum(c < p for p, c in zip(times["parent"], times["change"]))
    ratio = statistics.median(times["change"]) / statistics.median(times["parent"])
    print(f"{args.workload} {args.mode}: change/parent {ratio:.3f}x, "
          f"change faster in {wins}/{args.n} pairs")


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:
        # the form start() runs: --worker ROOT WORKLOAD MODE
        worker(*sys.argv[2:5])
    else:
        main()
