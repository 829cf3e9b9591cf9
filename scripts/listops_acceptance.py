"""Run the ListOps comparison grid and record validation accuracies.

Three architectures (dense 2-head, dense 8-head, SwitchHead 2-head) at
4 layers / d_model=128 / 8k steps, three seeds each. Results accumulate in
runs/listops_results.json so an interrupted grid resumes where it stopped.
Each record names its precision (``dtype``) and the sha256 of its data
(``data_sha256``, the train and valid splits' ``to_line`` text); a recorded
run is skipped only when both match this run's, else it is rerun and
replaced, so a grid never mixes precisions or data unnoticed.

    PYTHONPATH=src python scripts/listops_acceptance.py [CONFIG ...]

With config names as arguments only those configs run (default: all three),
so disjoint configs can run as separate processes. Each finished run re-reads
the results file and replaces it atomically with its own record added, so
neither a kill mid-write nor a concurrent process loses a finished run.
Training progress (every 500th step's metrics) is printed as it happens,
prefixed with the run key.

Float32 results depend on the BLAS thread count, so run as a script it
pins BLAS to BLAS_THREADS threads before numpy loads, and each record
names the count; a run is then reproducible on any host.
"""

import fcntl
import hashlib
import json
import logging
import os
import sys
import tempfile
import time

BLAS_THREADS = 1
if __name__ == "__main__":
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = str(BLAS_THREADS)

from switchlab.attention import AttentionConfig, ExpertFlags  # noqa: E402
from switchlab.listops import VOCAB_SIZE, gen_listops, to_line  # noqa: E402
from switchlab.model import MLPConfig, ModelSpec, build  # noqa: E402
from switchlab.training import ListOpsTask, TrainRun, evaluate, train  # noqa: E402

OUT = os.path.join(os.path.dirname(__file__), "..", "runs", "listops_results.json")
CONFIGS = ("dense_h2", "dense_h8", "switchhead_h2")
SEEDS = (0, 1, 2)
STEPS = 8000
D_MODEL = 128
N_LAYERS = 4


def attention_for(name: str) -> AttentionConfig:
    if name == "dense_h2":
        return AttentionConfig(D_MODEL, 2, 16, variant="dense", causal=False)
    if name == "dense_h8":
        return AttentionConfig(D_MODEL, 8, 16, variant="dense", causal=False)
    if name == "switchhead_h2":
        return AttentionConfig(D_MODEL, 2, 32, variant="switchhead", causal=False,
                               n_experts=4, k_active=2,
                               expert_flags=ExpertFlags.value_output())
    raise ValueError(name)


def load_results() -> dict:
    if not os.path.exists(OUT):
        return {}
    with open(OUT) as f:
        return json.load(f)


def record_result(key: str, record: dict) -> None:
    """Merge one run into the results file: re-read, add, replace atomically.

    An exclusive lock on the results directory serialises the read-modify-write
    between grid processes.
    """
    dir_fd = os.open(os.path.dirname(OUT), os.O_RDONLY)
    try:
        fcntl.flock(dir_fd, fcntl.LOCK_EX)
        results = load_results()
        results[key] = record
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(OUT), suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as f:
                json.dump(results, f, indent=2, sort_keys=True)
            os.replace(tmp, OUT)
        except BaseException:
            os.unlink(tmp)
            raise
    finally:
        os.close(dir_fd)


def data_digest(*splits) -> str:
    """sha256 of the splits' examples as ``to_line`` text, one a line."""
    text = "".join(to_line(e) + "\n" for split in splits for e in split)
    return hashlib.sha256(text.encode()).hexdigest()


def param_dtype(model) -> str:
    return str(next(iter(model.params.values())).data.dtype)


def is_current(record: dict, dtype: str, data_sha256: str) -> bool:
    """Whether a recorded run stands for this one: same precision (a record
    without ``dtype`` predates float32 and is float64) and same data."""
    return (record.get("dtype", "float64") == dtype
            and record.get("data_sha256") == data_sha256)


def main(argv: list[str]) -> int:
    configs = argv or list(CONFIGS)
    for config in configs:
        attention_for(config)  # reject an unknown name before any training
    os.makedirs(os.path.dirname(OUT), exist_ok=True)
    results = load_results()
    train_ex = gen_listops(10000, max_depth=3, max_args=5, seed=100)
    valid_ex = gen_listops(2000, max_depth=3, max_args=5, seed=101)
    task = ListOpsTask(train_ex, valid_ex)
    data_sha256 = data_digest(train_ex, valid_ex)
    progress = logging.StreamHandler(sys.stdout)
    training_log = logging.getLogger("switchlab.training")
    level = training_log.level
    training_log.addHandler(progress)
    training_log.setLevel(logging.INFO)
    try:
        for config in configs:
            for seed in SEEDS:
                key = f"{config}/seed{seed}"
                spec = ModelSpec(N_LAYERS, D_MODEL, attention_for(config),
                                 MLPConfig("dense", 256), VOCAB_SIZE, T=64,
                                 n_classes=10)
                if key in results:
                    if is_current(results[key], param_dtype(build(spec, seed)), data_sha256):
                        print(f"{key}: done ({results[key]['accuracy']:.4f}), skipping",
                              flush=True)
                        continue
                    print(f"{key}: recorded at another precision or on other data, "
                          "rerunning", flush=True)
                run = TrainRun(spec, seed=seed, steps=STEPS, batch_size=16,
                               lr=2.5e-4, warmup_steps=400, clip_norm=1.0,
                               log_every=500)
                progress.setFormatter(logging.Formatter(f"{key}: %(message)s"))
                t0 = time.time()
                model, metrics = train(run, task)
                summary = evaluate(model, task, "valid")
                record = {
                    "config": config, "seed": seed, "steps": STEPS,
                    "dtype": param_dtype(model),
                    "data_sha256": data_sha256,
                    "blas_threads": BLAS_THREADS,
                    "accuracy": summary["accuracy"],
                    "final_train_loss": metrics[-1]["loss"],
                    "minutes": round((time.time() - t0) / 60, 1),
                }
                record_result(key, record)
                print(f"{key}: acc={summary['accuracy']:.4f} "
                      f"({record['minutes']} min)", flush=True)
    finally:
        training_log.removeHandler(progress)
        training_log.setLevel(level)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
