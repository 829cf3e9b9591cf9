"""Smoke test of the benchmark itself (about two minutes on two cores).

Runs every workload at minimal length, untraced and traced, and checks that
each named metric is printed with its unit, that the JSON result line has
the contract's shape, that a poisoned step raises error_rate and the exit
code, and that a tree holding only the benchmark fails without a result.

    python3 bench/test_smoke.py        # or: python3 -m pytest bench/test_smoke.py
"""

import json
import os
import shutil
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from run import UNGATED, contract, metric_units  # noqa: E402


def bench(*args, cwd=ROOT, script=os.path.join(BENCH, "run.py")):
    proc = subprocess.run([sys.executable, script, *args], cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=600)
    return proc.returncode, proc.stdout.strip().splitlines(), proc.stderr


def check_run(workload: str, trace: int) -> None:
    code, lines, err = bench("--workload", workload, "--seed", "3",
                             "--seconds", "0", "--trace", str(trace))
    assert code == 0, (code, lines[-5:], err[-2000:])
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    units = metric_units(contract(), "per_layer" if trace else "end_to_end")
    assert set(result["metrics"]) == set(units)
    for name, unit in units.items():
        assert result["metrics"][name]["unit"] == unit
        value = result["metrics"][name]["value"]
        assert isinstance(value, (int, float)), (name, value)
        if not trace:
            assert value > 0, (workload, name, value)
        printed = [ln for ln in lines if ln.startswith(f"{workload} {name} ")]
        assert len(printed) == 1 and printed[0].split()[3] == unit, printed
    assert any(ln.startswith(f"{workload} error_rate 0 ") for ln in lines)
    assert any(ln.startswith("env numpy=") and "seed=3" in ln for ln in lines)


def test_every_workload_prints_every_metric():
    for workload in [w["name"] for w in contract()["workloads"]] + UNGATED:
        for trace in (0, 1):
            check_run(workload, trace)


def test_nonfinite_loss_raises_error_rate():
    code, lines, _ = bench("--workload", "charlm_switchall", "--seed", "0",
                           "--seconds", "0", "--trace", "0",
                           "--corrupt-step", "4")
    assert code == 1
    result = json.loads(lines[-1])
    assert result["correct"] is False and result["failed"] >= 1
    rate = next(ln for ln in lines if ln.startswith("charlm_switchall error_rate"))
    assert float(rate.split()[2]) > 0, rate


def test_benchmark_alone_fails_without_result():
    alone = os.path.join(BENCH, "results", "alone")
    shutil.rmtree(alone, ignore_errors=True)
    os.makedirs(alone)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), alone)
        shutil.copytree(BENCH, os.path.join(alone, "bench"),
                        ignore=shutil.ignore_patterns("results", "__pycache__"))
        code, lines, _ = bench("--workload", "charlm_switchall", "--seed", "0",
                               "--seconds", "1", "--trace", "0", cwd=alone,
                               script=os.path.join(alone, "bench", "run.py"))
        assert code != 0
        assert not any(ln.startswith("{") for ln in lines), lines
    finally:
        shutil.rmtree(alone, ignore_errors=True)


if __name__ == "__main__":
    for test in (test_benchmark_alone_fails_without_result,
                 test_nonfinite_loss_raises_error_rate,
                 test_every_workload_prints_every_metric):
        test()
        print(f"ok {test.__name__}", flush=True)
