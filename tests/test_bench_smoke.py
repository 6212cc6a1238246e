"""Smoke run of the benchmark harness on every workload.

A one-second traced run of `perfbench/run.py` checks the workload's golden
outputs and its truth gates (C8a's 2% per-trace gate on the Sn ensemble
fits), and installs the per-layer tracer on the real package, so golden
drift, a fitter that misses a gate, or a tracer that no longer fits the
solve path shows up here, not only in a benchmark job.  The run works in a
copy of `src/` and `perfbench/` under a temporary directory, so it leaves
nothing behind in the checkout.
"""
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["ge_map_fit", "sn_ensemble_cli", "forward_cli"])
def test_traced_benchmark_run_is_correct(tmp_path, workload):
    for name in ("src", "perfbench"):
        shutil.copytree(ROOT / name, tmp_path / name,
                        ignore=shutil.ignore_patterns("__pycache__", ".perfbench_work"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", "1"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["attempted"] > 0 and result["failed"] == 0
