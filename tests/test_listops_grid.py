"""The ListOps grid script's results file: merge-on-write, config choice and
which recorded runs are rerun."""

import importlib.util
import json
import logging
import os
import subprocess
import sys

import numpy as np
import pytest

from switchlab.listops import gen_listops
from switchlab.tensor import Tensor

SCRIPT = os.path.join(os.path.dirname(__file__), "..", "scripts",
                      "listops_acceptance.py")


def _load_script():
    spec = importlib.util.spec_from_file_location("listops_acceptance", SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_record_result_keeps_concurrent_writers(tmp_path):
    out = str(tmp_path / "listops_results.json")
    writer = (
        "import importlib.util, sys\n"
        f"spec = importlib.util.spec_from_file_location('g', {SCRIPT!r})\n"
        "g = importlib.util.module_from_spec(spec); spec.loader.exec_module(g)\n"
        f"g.OUT = {out!r}\n"
        "for i in range(100):\n"
        "    g.record_result(f'{sys.argv[1]}/seed{i}', {'seed': i})\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    procs = [subprocess.Popen([sys.executable, "-c", writer, tag], env=env)
             for tag in ("a", "b", "c")]
    for p in procs:
        assert p.wait(timeout=120) == 0
    with open(out) as f:
        results = json.load(f)
    assert len(results) == 300
    assert results["b/seed42"] == {"seed": 42}
    assert os.listdir(tmp_path) == ["listops_results.json"]


def test_unknown_config_rejected_before_training(tmp_path):
    grid = _load_script()
    grid.OUT = str(tmp_path / "listops_results.json")
    with pytest.raises(ValueError, match="dense_h4"):
        grid.main(["switchhead_h2", "dense_h4"])
    assert not os.path.exists(grid.OUT)


def test_recorded_runs_rerun_unless_precision_and_data_match(tmp_path, monkeypatch):
    # a recorded run is skipped only when its dtype and data digest are this
    # run's; any other is trained again and replaced (training stubbed out)
    grid = _load_script()
    grid.OUT = str(tmp_path / "listops_results.json")
    splits = {100: gen_listops(3, seed=100), 101: gen_listops(2, seed=101)}
    monkeypatch.setattr(grid, "gen_listops", lambda n, max_depth, max_args, seed: splits[seed])
    digest = grid.data_digest(splits[100], splits[101])
    trained = []

    class Trained:
        params = {"w": Tensor(np.zeros(1, np.float32))}

    def train(run, task):
        trained.append((run.spec.attention.n_heads, run.seed))
        return Trained, [{"loss": 1.0}]

    monkeypatch.setattr(grid, "train", train)
    monkeypatch.setattr(grid, "evaluate", lambda model, task, split: {"accuracy": 0.5})
    log = logging.getLogger("switchlab.training")
    handlers, level = list(log.handlers), log.level
    old = {"accuracy": 0.25}
    with open(grid.OUT, "w") as f:
        json.dump({
            "dense_h2/seed0": old,                                             # float64, old data
            "dense_h2/seed1": {**old, "dtype": "float32", "data_sha256": digest},
            "dense_h2/seed2": {**old, "dtype": "float32", "data_sha256": "0" * 64},
            "dense_h8/seed0": {**old, "data_sha256": digest},                  # float64
            "dense_h8/seed1": {**old, "dtype": "float32"},                     # old data
        }, f)
    assert grid.main(["dense_h2", "dense_h8"]) == 0
    assert trained == [(2, 0), (2, 2), (8, 0), (8, 1), (8, 2)]
    assert (log.handlers, log.level) == (handlers, level)  # main's progress log is gone
    results = grid.load_results()
    assert results["dense_h2/seed1"] == {**old, "dtype": "float32", "data_sha256": digest}
    for key in set(results) - {"dense_h2/seed1"}:
        assert results[key]["accuracy"] == 0.5
        assert (results[key]["dtype"], results[key]["data_sha256"]) == ("float32", digest)
