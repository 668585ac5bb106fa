"""Check that two source trees write byte-identical CSVs.

    python3 tools/same_csvs.py BASE_TREE [HEAD_TREE]

Runs each tree's CLI (``PYTHONPATH=<tree>/src``, a fresh single-threaded
process per run) on every benchmark workload of ``perfbench/workloads.py``
at seeds 1-3 and on the fixed configs in ``EXTRA``, and compares the CSV
bytes, less ``convergence``'s ``wall_time_ns`` column, which differs from
run to run. HEAD_TREE defaults to the current directory, and the workload
configs are drawn from its ``perfbench/workloads.py``. Prints one line per
config, with the largest absolute difference over numeric cells and its
column where a pair differs, and exits 1 if any run fails or any pair of
CSVs differs.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SEEDS = (1, 2, 3)

# (command, config): every command's defaults, the b = 0.5a grid with and
# without nearest_only, a 33-plane grid, a 2513-plane stack at one k, a
# "direct" grid at b = 2a, a spacing whose q c overflows, an odd-sided grid
# of one plane, a MIN_OFFSET spacing with nearest_only, nearest_only
# "direct" stacks on a k list and on a grid, a one-plane nearest_only
# dispersion, and the near planes below 2a: sweep-phi at b = 0.5a, the grid
# at b = 1.999a and convergence at b = a. The three "method": "direct"
# configs are old ones, which now run the Ewald kernel and write its bytes
_GRID = {"k_direction": "grid", "n_sites": 400, "n_planes": 8, "b_over_a": 0.5}
EXTRA = [
    ("sweep-phi", {}),
    ("dispersion", {}),
    ("convergence", {}),
    ("stack", {}),
    ("stack", _GRID),
    ("dispersion", _GRID),
    ("stack", {**_GRID, "nearest_only": True}),
    ("dispersion", {**_GRID, "nearest_only": True}),
    ("stack", {**_GRID, "n_planes": 33, "b_over_a": 1.0}),
    ("stack", {"ka_values": [0.5], "n_planes": 2513, "b_over_a": 1.0}),
    ("stack", {"k_direction": "grid", "n_sites": 400, "n_planes": 8, "b_over_a": 2.0,
               "theta": 0.6, "method": "direct", "direct_cutoff": 500}),
    ("stack", {"b_over_a": 1e308}),
    ("dispersion", {"k_direction": "grid", "n_sites": 9, "n_planes": 1}),
    ("stack", {"k_direction": "grid", "n_sites": 16, "n_planes": 3, "b_over_a": 0.001,
               "nearest_only": True}),
    ("stack", {"n_planes": 6, "nearest_only": True, "method": "direct", "direct_cutoff": 40,
               "ka_values": [0.5, 2.0]}),
    ("stack", {"k_direction": "grid", "n_sites": 16, "n_planes": 5, "b_over_a": 1.5,
               "nearest_only": True, "method": "direct", "direct_cutoff": 30}),
    ("dispersion", {"n_planes": 1, "nearest_only": True}),
    ("sweep-phi", {"b_over_a": 0.5}),
    ("stack", {**_GRID, "b_over_a": 1.999}),
    ("convergence", {"b_over_a": 1.0}),
]


def _workloads(tree: Path):
    spec = importlib.util.spec_from_file_location(
        "workloads", tree / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _configs(tree: Path):
    """(label, command, config) of every comparison."""
    wl = _workloads(tree)
    for name, command in wl.COMMANDS.items():
        for seed in SEEDS:
            yield f"{name} seed {seed}", command, wl.make_config(name, seed)
    for command, cfg in EXTRA:
        yield f"{command} {json.dumps(cfg)}", command, cfg


def _csv(tree: Path, command: str, cfg: dict, work: Path):
    """The CSV bytes the tree's CLI writes for ``cfg``, less any
    ``wall_time_ns`` column, or None and the error if the run fails."""
    (work / "cfg.json").write_text(json.dumps(cfg))
    out = work / "out.csv"
    out.unlink(missing_ok=True)
    env = {**os.environ, "PYTHONPATH": str(tree / "src"),
           "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "latticesum.cli", command,
         "--config", "cfg.json", "--out", str(out)],
        cwd=work, env=env, capture_output=True, text=True,
    )
    if proc.returncode:
        return None, proc.stderr.strip().splitlines()[-1:]
    lines = out.read_bytes().split(b"\n")
    header = lines[0].split(b",")
    if b"wall_time_ns" in header:
        col = header.index(b"wall_time_ns")
        lines = [b",".join(f for i, f in enumerate(line.split(b",")) if i != col)
                 if line else line for line in lines]
    return b"\n".join(lines), None


def _largest_difference(old: bytes, new: bytes) -> str:
    """The largest |difference| over the cells that parse as numbers in both
    CSVs, row by row, and the column it is in."""
    (header, *old_rows), (_, *new_rows) = (csv.split(b"\n") for csv in (old, new))
    largest, column = 0.0, None
    for old_row, new_row in zip(old_rows, new_rows):
        for name, a, b in zip(header.split(b","), old_row.split(b","), new_row.split(b",")):
            try:
                diff = abs(float(a) - float(b))
            except ValueError:
                continue
            if diff > largest:
                largest, column = diff, name.decode()
    if column is None:
        return "no numeric cell differs"
    return f"largest |difference| {largest:.3g} in {column}"


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if not 1 <= len(args) <= 2:
        print("usage: python3 tools/same_csvs.py BASE_TREE [HEAD_TREE]", file=sys.stderr)
        return 2
    base, head = (Path(a).resolve() for a in (*args, ".")[:2])
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for label, command, cfg in _configs(head):
            (old, old_err), (new, new_err) = (
                _csv(tree, command, cfg, work) for tree in (base, head))
            if old is None or new is None:
                verdict = f"FAILED base {old_err} head {new_err}"
            elif old != new:
                verdict = (f"DIFFERENT ({len(old)} against {len(new)} bytes; "
                           f"{_largest_difference(old, new)})")
            else:
                verdict = f"identical ({len(new)} bytes)"
            bad += not verdict.startswith("identical")
            print(f"{label}: {verdict}", flush=True)
    print(f"{bad} of the configs differ or fail" if bad else "every CSV is byte-identical")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
