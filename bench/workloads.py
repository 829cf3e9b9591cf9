"""The benchmark's workloads, their measurement loops and correctness checks.

Each workload trains a switchlab model in a closed loop (the next step
starts when the previous one has ended) from one process, then evaluates
it on a fixed slice of its valid split. Every input derives from the
benchmark seed: the data-generator seeds, the model seed and the batch
draws. The configs are copied here, not imported, so that an edit to the
grid script cannot silently change what the benchmark measures.
"""

from __future__ import annotations

import math
import os
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from switchlab import checkpoint, gradcheck, listops, training
from switchlab.attention import AttentionConfig, ExpertFlags
from switchlab.corpus import CharCorpus, from_bytes
from switchlab.costmodel import CostInputs, cost_attention, measure
from switchlab.counter import OpCounter
from switchlab.listops import VOCAB_SIZE, gen_listops, to_line
from switchlab.model import MLPConfig, ModelSpec, build
from switchlab.optim import Adam
from switchlab.rng import rng_for
from switchlab.tensor import cross_entropy

WARMUP_STEPS = 2       # untimed steps before the closed loop
TRAIN_SHARE = 0.75     # of the timed window; evaluate() calls fill the rest
CKPT_REPEATS = 3
MIN_STEPS = 3
LISTOPS_CYCLE = 17     # fixed ListOps batches a run trains on, in turn

#: The clock the timed metrics are read on: this process's CPU time. The
#: benchmark computes in one thread (BLAS is pinned to one), so a step's CPU
#: time is its wall time minus the time the scheduler kept the process off a
#: core: other processes on the machine, or a hypervisor lending the virtual
#: core to another guest ("steal"). Those waits belong to the host, not to
#: the program, and on a shared host they spread repeated runs by up to 25%.
#: The wall-clock figures are recorded beside the CPU ones.
cpu_clock = time.process_time


@dataclass(frozen=True)
class Workload:
    name: str
    task: str                  # listops | lm
    n_layers: int
    d_model: int
    attention: AttentionConfig
    mlp: MLPConfig
    T: int
    batch_size: int
    n_train: int               # ListOps examples (lm: lines of corpus text)
    n_valid: int               # ListOps only
    eval_n: int                # ListOps examples or LM bytes evaluated
    lr: float = 2.5e-4
    warmup_steps: int = 400
    clip_norm: float = 1.0
    runs_suite: bool = False   # traced runs also time the gradient suite

    def spec(self, vocab_size: int) -> ModelSpec:
        return ModelSpec(self.n_layers, self.d_model, self.attention, self.mlp,
                         vocab_size, T=self.T,
                         n_classes=10 if self.task == "listops" else None)

    def cost_inputs(self) -> CostInputs:
        a = self.attention
        return CostInputs(a.variant, a.n_heads, self.T, a.d_head, a.d_model,
                          C=a.context_mult, E=a.n_experts, k_active=a.k_active,
                          expert_flags=a.expert_flags, position=a.position)


VO = ExpertFlags.value_output()

# The ListOps grid of scripts/listops_acceptance.py: 4 layers, d_model 128,
# dense MLP 256, T 64, B 16, 10k/2k examples of depth <= 3 and <= 5 args.
_GRID = dict(task="listops", n_layers=4, d_model=128,
             mlp=MLPConfig("dense", 256), T=64, batch_size=16,
             n_train=10000, n_valid=2000, eval_n=128)

WORKLOADS = {w.name: w for w in [
    Workload("listops_dense_h8",
             attention=AttentionConfig(128, 8, 16, variant="dense", causal=False),
             **_GRID),
    Workload("listops_switchhead_h2",
             attention=AttentionConfig(128, 2, 32, variant="switchhead",
                                       causal=False, n_experts=4, k_active=2,
                                       expert_flags=VO),
             **_GRID),
    Workload("charlm_switchall", task="lm", n_layers=2, d_model=128,
             attention=AttentionConfig(128, 2, 32, variant="switchhead",
                                       context_mult=2, n_experts=4, k_active=2,
                                       expert_flags=VO),
             mlp=MLPConfig("sigma_moe", d_ff=64, n_experts=4, k_active=2),
             T=64, batch_size=8, n_train=3000, n_valid=0, eval_n=2048,
             warmup_steps=100, runs_suite=True),
]}


# -- data and set-up -------------------------------------------------------


def make_task(wl: Workload, seed: int):
    """(train task, eval task) generated from the benchmark seed."""
    if wl.task == "listops":
        # seed 0 reproduces the grid's data (generator seeds 100 and 101)
        train = gen_listops(wl.n_train, max_depth=3, max_args=5, seed=100 + 2 * seed)
        valid = gen_listops(wl.n_valid, max_depth=3, max_args=5, seed=101 + 2 * seed)
        # an even sample of the length-sorted split, kept in length order so
        # every seed evaluates the same mix of lengths with little padding
        by_length = sorted(valid, key=lambda e: e.length)
        stride = len(by_length) // wl.eval_n
        task = training.ListOpsTask(train, by_length[::stride][:wl.eval_n])
        return task, task
    lines = gen_listops(wl.n_train, max_depth=3, max_args=5, seed=100 + 2 * seed)
    text = "".join(to_line(e) + "\n" for e in lines).encode()
    corpus = from_bytes(text, valid_fraction=0.1)
    task = training.CharLMTask(corpus, wl.T, wl.batch_size)
    end = corpus.train_end + wl.eval_n + 1
    if end > len(corpus.data):
        raise ValueError(f"{wl.name}: valid split shorter than eval_n")
    eval_corpus = CharCorpus(corpus.data[:end], corpus.vocab, corpus.train_end)
    return task, training.CharLMTask(eval_corpus, wl.T, wl.batch_size)


def vocab_size(wl: Workload, task) -> int:
    return VOCAB_SIZE if wl.task == "listops" else task.corpus.vocab_size


def fresh_model(wl: Workload, task, seed: int):
    model = build(wl.spec(vocab_size(wl, task)), seed)
    opt = Adam(model.params, lr=wl.lr, warmup_steps=wl.warmup_steps,
               clip_norm=wl.clip_norm)
    return model, opt


def setup(wl: Workload, seed: int):
    """Data generation, task construction, model.build; returns (CPU
    seconds, state)."""
    t0 = cpu_clock()
    task, eval_task = make_task(wl, seed)
    model, opt = fresh_model(wl, task, seed)
    return cpu_clock() - t0, (task, eval_task, model, opt)


# -- training loop ---------------------------------------------------------


def cycle_steps(wl: Workload) -> int:
    """Steps after which a run has trained on each of its batch shapes
    equally often."""
    return LISTOPS_CYCLE if wl.task == "listops" else 1


def listops_windows(wl: Workload, task, seed: int) -> list:
    """The LISTOPS_CYCLE batches a ListOps run trains on, in a seeded order.

    Each is a window of the length-sorted training pool, as
    ListOpsTask.batch picks one, centred on the quantiles (i + 0.5) / n
    rather than drawn at random. A step's time grows about tenfold from the
    shortest batches to the longest, so with random windows which lengths
    a run happened to see, and so its step-time percentiles, would move by
    tens of percent from run to run. With a fixed cycle that ends whole,
    every run sees the same length mix, and the median and 90th percentile
    step sit on the median-length and 91st-percentile windows."""
    pool = sorted(task.splits["train"], key=lambda e: e.length)
    last = len(pool) - wl.batch_size
    starts = [round((i + 0.5) / LISTOPS_CYCLE * last)
              for i in range(LISTOPS_CYCLE)]
    order = rng_for(seed, "bench-batches").permutation(LISTOPS_CYCLE)
    return [pool[starts[i]:starts[i] + wl.batch_size] for i in order]


class Trainer:
    """One training run, stepped by the benchmark in the order
    training.train uses: batch, forward, loss, backward, Adam."""

    def __init__(self, wl: Workload, task, model, opt, seed: int):
        self.wl, self.task, self.model, self.opt = wl, task, model, opt
        self.seed = seed
        self.step_no = 0
        self.caches = model.empty_caches()
        self.losses: list[float] = []
        self.failed = 0
        self.real_tokens = 0
        self.padded_slots = 0
        self.corrupt_at: int | None = None   # smoke test: poison this step
        if wl.task == "listops":
            self.windows = listops_windows(wl, task, seed)

    def listops_batch(self):
        """The next of the cycle's windows, padded through the module so
        that a traced run sees the call."""
        window = self.windows[(self.step_no - 1) % LISTOPS_CYCLE]
        return listops.pad_batch(window)

    def step(self) -> int:
        """One full step; returns the number of target tokens trained."""
        self.step_no += 1
        wl, model = self.wl, self.model
        if self.step_no == self.corrupt_at:
            model.params["embed"].data[...] = np.nan
        if wl.task == "listops":
            tokens, labels, mask = self.listops_batch()
            logits, _, _ = model.forward(tokens, key_mask=mask)
            loss = cross_entropy(logits, labels)
            n_tok = int(mask.sum())
            self.padded_slots += mask.size
        else:
            x, y, reset = self.task.batch(self.seed, self.step_no, wl.batch_size)
            if reset:
                self.caches = model.empty_caches()
            logits, _, self.caches = model.forward(x, caches=self.caches)
            loss = cross_entropy(logits, y)
            n_tok = int(y.size)
            self.padded_slots += n_tok
        self.real_tokens += n_tok
        value = float(loss.data)
        self.losses.append(value)
        if not math.isfinite(value):
            self.failed += 1
            self.opt.zero_grad()
            return n_tok
        loss.backward()
        self.opt.step()
        return n_tok


@dataclass
class Window:
    """What one timed window of train_and_evaluate measured: per step and
    per evaluate() call, seconds and tokens."""
    cycle: int
    step_cpu: list = field(default_factory=list)
    step_wall: list = field(default_factory=list)
    step_tok: list = field(default_factory=list)
    eval_cpu: list = field(default_factory=list)
    eval_wall: list = field(default_factory=list)
    eval_tok: list = field(default_factory=list)
    results: list = field(default_factory=list)

    def train_tok_s(self, times: list) -> float:
        """Tokens of one cycle over the sum of its steps' median times.

        Each position in the cycle is the same batch every time round, so
        the median over its repeats drops the steps a slow spell of the
        host hit without favouring any batch shape."""
        k = self.cycle
        return (sum(self.step_tok[:k])
                / sum(statistics.median(times[i::k]) for i in range(k)))

    def eval_tok_s(self, times: list) -> float:
        """Tokens of the fixed evaluation slice over the median call time."""
        return self.eval_tok[0] / statistics.median(times)


def train_and_evaluate(trainer: Trainer, eval_task, seconds: float,
                       midway=None) -> Window:
    """Closed loop of training steps for `seconds` of wall time and then
    to the end of the batch cycle, with evaluate() calls interleaved so
    that they take 1 - TRAIN_SHARE of it. The machine's speed drifts over
    tens of seconds; interleaving exposes both metrics to the whole window
    instead of giving each its own stretch of it. `midway`, if given, is
    called once, between two steps, when half of `seconds` has passed."""
    wl = trainer.wl
    w = Window(cycle_steps(wl))
    start = time.perf_counter()
    while True:
        if midway is not None and time.perf_counter() - start >= seconds / 2:
            midway()
            midway = None
        if sum(w.eval_cpu) * TRAIN_SHARE < sum(w.step_cpu) * (1.0 - TRAIN_SHARE):
            result, n_tok, cpu_s, wall_s = evaluate(wl, trainer.model, eval_task)
            w.results.append(result)
            w.eval_tok.append(n_tok)
            w.eval_cpu.append(cpu_s)
            w.eval_wall.append(wall_s)
        else:
            c0, t0 = cpu_clock(), time.perf_counter()
            w.step_tok.append(trainer.step())
            w.step_cpu.append(cpu_clock() - c0)
            w.step_wall.append(time.perf_counter() - t0)
        if (time.perf_counter() - start >= seconds
                and len(w.step_cpu) >= MIN_STEPS
                and len(w.step_cpu) % w.cycle == 0 and w.results):
            return w


def eval_tokens(wl: Workload, eval_task, result: dict) -> int:
    if wl.task == "listops":
        return sum(e.length for e in eval_task.splits["valid"])
    return int(result["n"])


def evaluate(wl: Workload, model, eval_task):
    """(result dict, tokens, CPU seconds, wall seconds) of one
    training.evaluate call."""
    c0, t0 = cpu_clock(), time.perf_counter()
    result = training.evaluate(model, eval_task, "valid",
                               batch_size=wl.batch_size)
    cpu_s, wall_s = cpu_clock() - c0, time.perf_counter() - t0
    return result, eval_tokens(wl, eval_task, result), cpu_s, wall_s


def eval_finite(result: dict) -> bool:
    return all(math.isfinite(v) for v in result.values() if isinstance(v, float))


# -- exact counts ------------------------------------------------------------


def reference_batch(wl: Workload, task, model, seed: int):
    """(tokens, forward kwargs) of the fixed batch the counts are taken on:
    the first B training examples (ListOps), or the second chunk with the
    first one cached (LM, so the cache is at its steady state)."""
    if wl.task == "listops":
        tokens, _, mask = listops.pad_batch(task.splits["train"][:wl.batch_size])
        return tokens, {"key_mask": mask}
    x1, _, _ = task.batch(seed, 1, wl.batch_size)
    _, _, caches = model.forward(x1)
    x2, _, _ = task.batch(seed, 2, wl.batch_size)
    return x2, {"caches": caches}


def forward_counts(wl: Workload, task, model, seed: int) -> dict:
    """Exact MACs / stored floats of one Model.forward, and its GMAC/s
    (per CPU second).

    The ListOps reference batch is the first B examples in generation
    order, so both ListOps workloads count the same batch for one seed."""
    tokens, kwargs = reference_batch(wl, task, model, seed)
    counter = OpCounter()
    model.forward(tokens, counter=counter, **kwargs)
    times = []
    for _ in range(3):
        t0 = cpu_clock()
        model.forward(tokens, **kwargs)
        times.append(cpu_clock() - t0)
    out = {f"macs.{t}": counter.terms.get(t, (0, 0))[0]
           for t in ("projections", "mixing", "scores", "readout",
                     "position", "mlp")}
    out["macs.total"] = counter.macs
    out["mem_floats"] = counter.mem_floats
    out["gmacs_per_s"] = counter.macs / statistics.median(times) / 1e9
    return out


# -- correctness checks --------------------------------------------------------


def check_costmodel(wl: Workload) -> list[str]:
    """costmodel.measure must equal the closed form term by term."""
    ci = wl.cost_inputs()
    got, want = measure(ci), cost_attention(ci)
    problems = []
    for field in ("macs", "mem_floats", "terms", "extras", "score_matrices"):
        g, w = getattr(got, field), getattr(want, field)
        if g != w:
            problems.append(f"costmodel {field}: measured {g} != closed form {w}")
    return problems


def run_suite(seed: int):
    """One pass of the gradient suite (T=4, d_model=8) over one seed."""
    t0 = time.perf_counter()
    results = gradcheck.run_suite(seeds=(seed,), T=4, d_model=8)
    return results, time.perf_counter() - t0


def check_suite(results) -> list[str]:
    return [f"gradcheck {r.name}: max_rel_err {r.max_rel_err:.3e} >= 1e-5"
            for r in results if not r.max_rel_err < 1e-5]


def checkpoint_roundtrip(model, path: str) -> list[str]:
    """Save to `path` and load CKPT_REPEATS times, then delete the file;
    the loaded weights must equal the saved ones."""
    problems = []
    try:
        for _ in range(CKPT_REPEATS):
            checkpoint.save(path, model)
            loaded = checkpoint.load(path)
            if sorted(loaded.params) != sorted(model.params) or any(
                    not np.array_equal(loaded.params[k].data, model.params[k].data)
                    for k in model.params):
                problems.append("checkpoint round trip changed the weights")
    finally:
        if os.path.exists(path):
            os.remove(path)
    return problems
