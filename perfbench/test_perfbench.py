"""Tests of the benchmark harness itself, at tiny sizes.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import check
import compare
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNT_SUFFIXES = (".calls", ".window_terms", "_per_k", "_per_pair")


def _bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc


def _result(workload, trace, seed=1):
    proc = _bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                  "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(wl.WHY))
def test_end_to_end_schema(workload):
    result = _result(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(wl.WHY))
def test_trace_counts_repeat(workload):
    first, second = (_result(workload, trace=1) for _ in range(2))
    spec = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == spec
    counts = [name for name in spec if name.endswith(COUNT_SUFFIXES)]
    assert counts
    for name in counts:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_workload_configs_are_seeded_cli_configs():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from latticesum.cli import parse_config
    finally:
        sys.path.pop(0)
    for workload in wl.WHY:
        for size in ("full", "tiny"):
            cfg = wl.make_config(workload, 5, size)
            assert cfg == wl.make_config(workload, 5, size)
            parse_config(json.dumps(cfg))


@pytest.fixture(scope="module")
def stack_csv(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("stack")
    cfg = wl.make_config("stack-grid", 2, "tiny")
    (tmp / "cfg.json").write_text(json.dumps(cfg))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-m", "latticesum.cli", "stack", "--config",
                    str(tmp / "cfg.json"), "--out", str(tmp / "out.csv")],
                   env=env, check=True, capture_output=True, timeout=120)
    with open(tmp / "out.csv", newline="") as fh:
        return cfg, list(csv.reader(fh))


def _edit(row, column, value):
    return row[:column] + [value] + row[column + 1:]


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda rows: rows[:5] + rows[6:],  # missing
        lambda rows: rows + [rows[5]],  # duplicated
        lambda rows: rows + [["junk"]],  # appended garbage
        lambda rows: rows[:5] + [_edit(rows[5], 3, "x")] + rows[6:],  # unparsable
        lambda rows: rows[:5] + [_edit(rows[5], 3, "nan")] + rows[6:],  # non-finite
        lambda rows: rows[:5] + [_edit(rows[5], 3, str(float(rows[5][3]) + 0.1))]
        + rows[6:],  # out of bound
        lambda rows: rows[:5] + [rows[5][:3]] + rows[6:],  # truncated
    ],
)
def test_corrupted_row_counts_as_one_failure(stack_csv, corrupt, tmp_path):
    cfg, rows = stack_csv
    ref = check.load_reference()
    clean = tmp_path / "clean.csv"
    bad = tmp_path / "bad.csv"
    with open(clean, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    with open(bad, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows[:1] + corrupt(rows[1:]))
    assert check.check_csv("stack-grid", cfg, clean, ref).failed == 0
    outcome = check.check_csv("stack-grid", cfg, bad, ref)
    assert (outcome.attempted, outcome.failed) == (len(rows) - 1, 1)


def test_compare_refuses_another_kernel():
    record = {"workload": "direct-window", "size": "full", "trace": 0,
              "env": {"backend": "numpy"}, "metrics": {}}
    other = dict(record, env={"backend": "compiled"})
    assert compare.compare(record, record, {}) == []
    with pytest.raises(ValueError, match="kernel"):
        compare.compare(record, other, {})


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "sweep-phi", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
