"""The benchmark harness's traced run still works against the package.

``perfbench/tracing.py`` patches names it finds in ``latticesum`` (among
them ``model.CouplingTensor``), so deleting or re-signing one of them can
break ``perfbench/run.py --trace 1``; this runs the harness's child once,
traced, on the tiny config of each benchmark workload: ``stack`` on
stack-grid, through the Ewald engine, and ``dispersion`` on direct-window,
through the window engine. ``perfbench/run.py`` also aborts a whole
benchmark when the child's ``--env`` report fails, and that report reads
``direct_sum.BACKEND``.
"""

import importlib.util
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"


def _workloads():
    spec = importlib.util.spec_from_file_location("workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _child_env():
    return {**os.environ, "PYTHONPATH": str(ROOT / "src"),
            "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}


@pytest.mark.parametrize("workload", ["direct-window", "stack-grid"])
def test_traced_child_run(tmp_path, workload):
    workloads = _workloads()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(workloads.make_config(workload, 1, "tiny")))
    trace = tmp_path / "trace.json"
    env = _child_env()
    spawned = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), "--spawned", str(spawned),
         "--config", str(cfg), "--command", workloads.COMMANDS[workload],
         "--out", str(tmp_path / "out.csv"), "--trace", str(trace)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["rc"] == 0
    assert json.loads(trace.read_text())["spans"]


def test_child_env_report():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), "--env"],
        capture_output=True, text=True, env=_child_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["backend"] == "numpy"
