"""Benchmark the latticesum CLI end to end (--trace 0) or per layer (--trace 1).

    python3 perfbench/run.py --workload stack-grid --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 60 --trace 0

Run from a checkout's root; the CLI runs from ``src`` with no build step.
``BENCHMARK.json`` lists ``stack-grid`` and ``direct-window``: each CLI run
takes seconds and the host's speed drifts over minutes, so two workloads of
60 s are steadier than three of 30 s. ``sweep-phi`` runs by name or with
``all``.
Every CLI run is a fresh single-threaded child process (``child.py``) on
the config ``workloads.py`` draws from the seed, and every CSV it writes
is checked against ``reference.npz``.

``--trace 0`` first times ``SETUP_PROBES`` set-up probes, then repeats
CLI runs while another one fits in ``--seconds`` (at least one), and
reports

- ``wall_s``: CLI dispatch to CSV written, median over runs;
- ``setup_s``: process start to ``latticesum.cli`` imported and config
  parsed, median over the probes and runs;
- ``peak_rss_mb``: the child's ``ru_maxrss``, median over runs;
- ``max_err_j0``: largest |CSV - reference| over every row, in J0, floored
  at the reference's resolution ``RESOLUTION_J0``.

``--trace 1`` alternates untraced and traced CLI runs the same way and
reports per-layer
calls, self times and work ratios from the traced ones (``tracing.py``),
the import times of ``model`` and ``specfun`` from ``python -X importtime``,
and the tracing overhead as traced minus untraced wall time.

Rows checked count as attempted; missing, unparsable, non-finite or
out-of-bound rows as failed, and a CLI run that exits non-zero fails all of
its rows. A readable summary and the path of the full record (seed, config,
environment, every sample) come first; the last line of stdout is the JSON
result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import tracing
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"

# The stored reference is converged to 1e-12 off k = 0 and to about 1e-11
# at k = 0 (window L = 4000 vs 2000: 6e-11); smaller deviations are not
# resolved and read as this.
RESOLUTION_J0 = 1e-10
SETUP_PROBES = 5
# every child is killed once the whole run has taken this long
RUN_LIMIT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

COUNTS = ("specfun.bessel_k", "ewald.d_intra_ewald", "ewald.d_inter_ewald",
          "direct_sum.d_tensor_direct", "direct_sum.k0_tail_correction",
          "dispersion.symmetric_eigen", "dispersion.j_intra", "dispersion.j_inter",
          "model.CouplingTensor")
SELF_TIMES = ("specfun.bessel_k", "ewald.d_intra_ewald", "ewald.d_inter_ewald",
              "direct_sum.d_tensor_direct", "dispersion.symmetric_eigen",
              "dispersion.stack_matrix", "dispersion.coupling_from_tensor",
              "model.CouplingTensor", "cli")


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update({name: "1" for name in THREAD_VARS})
    return env


def _spawn(*args, deadline):
    """Run child.py; (exit code, its JSON line or None, stderr)."""
    timeout = max(deadline - time.perf_counter(), 1.0)
    cmd = [sys.executable, str(HERE / "child.py"), *args]
    spawned = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(cmd + ["--spawned", str(spawned)], capture_output=True,
                              text=True, env=_child_env(), timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return None, None, f"killed after {timeout:.0f} s"
    lines = proc.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except json.JSONDecodeError:
        out = None
    return proc.returncode, out, proc.stderr


def _import_times(deadline):
    """Cumulative import time (s) of latticesum.model and latticesum.specfun."""
    try:
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import latticesum.cli"],
            capture_output=True, text=True, env=_child_env(),
            timeout=max(deadline - time.perf_counter(), 1.0), cwd=ROOT)
    except subprocess.TimeoutExpired:
        return {}
    found = {}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() in ("latticesum.model", "latticesum.specfun"):
            found[parts[2].strip().split(".")[1] + ".import_s"] = int(parts[1]) / 1e6
    return found


def _machine():
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "commit": _commit()}


def _commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _tail(samples):
    """(percentile, value) of the highest percentile with >= 10 samples beyond it."""
    n = len(samples)
    if n < 11:
        return None
    i = n - 11
    return [round(100.0 * (i + 1) / n, 1), sorted(samples)[i]]


class Run:
    """The CLI runs of one benchmark invocation and the checks of their CSVs."""

    def __init__(self, workload, cfg, tmp):
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.workload, self.cfg, self.tmp = workload, cfg, tmp
        self.config_path = tmp / "config.json"
        self.config_path.write_text(json.dumps(cfg))
        self.reference = check.load_reference()
        self.attempted = self.failed = 0
        self.max_err = 0.0
        self.problems = []

    def probe(self):
        rc, out, err = _spawn("--config", str(self.config_path), deadline=self.deadline)
        if out is None:
            self.problems.append(f"set-up probe failed ({rc}): {err.strip()[-300:]}")
        return out

    def cli(self, trace=False):
        """One CLI run; its child result (None on failure) and trace path.

        The CSV and the trace are overwritten by the next run."""
        csv_path = self.tmp / "out.csv"
        spans = self.tmp / "spans.json"
        csv_path.unlink(missing_ok=True)
        args = ["--config", str(self.config_path), "--command", wl.COMMANDS[self.workload],
                "--out", str(csv_path)] + (["--trace", str(spans)] if trace else [])
        rc, out, err = _spawn(*args, deadline=self.deadline)
        outcome = check.check_csv(self.workload, self.cfg, csv_path, self.reference)
        self.attempted += outcome.attempted
        if out is None or out.get("rc") != 0:
            self.problems.append(f"CLI run failed ({rc}): {err.strip()[-300:]}")
            self.failed += outcome.attempted
            return None, None
        self.failed += outcome.failed
        self.max_err = max(self.max_err, outcome.max_err_j0)
        out["csv_path"] = csv_path
        return out, spans


class Budget:
    """Repeat a step while one more of median length fits in ``seconds``;
    the first step always runs."""

    def __init__(self, seconds):
        self.seconds = seconds
        self.start = self.prev = None
        self.steps = []

    def next(self):
        now = time.perf_counter()
        if self.prev is None:
            self.start = now
        else:
            self.steps.append(now - self.prev)
        self.prev = now
        return not self.steps or now - self.start + statistics.median(self.steps) <= self.seconds


def _metric(samples, unit):
    return {"value": statistics.median(samples) if samples else None, "unit": unit,
            "n": len(samples), "tail": _tail(samples), "samples": samples}


def measure(run, seconds):
    probes = [out for out in (run.probe() for _ in range(SETUP_PROBES)) if out is not None]
    calls = []
    budget = Budget(seconds)
    while budget.next():
        out, _spans = run.cli()
        if out is None:
            break
        calls.append(out)
    metrics = {
        "wall_s": _metric([c["wall_s"] for c in calls], "s"),
        "setup_s": _metric([c["setup_s"] for c in probes + calls], "s"),
        "peak_rss_mb": _metric([c["peak_rss_mb"] for c in calls], "MB"),
        "max_err_j0": {"value": max(run.max_err, RESOLUTION_J0), "unit": "J0",
                       "n": len(calls), "raw": run.max_err},
    }
    return metrics


def _layers(calls, self_s, notes, csv_path):
    """Per-layer metrics of one traced run."""
    m = {}
    for name in COUNTS:
        m[f"{name}.calls"] = (calls.get(name, 0), "count")
    for name in SELF_TIMES:
        m[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    terms = sum((2 * c + 1) ** 2 for c in notes.get("direct_sum.d_tensor_direct", []))
    m["direct_sum.window_terms"] = (terms, "count")
    direct_s = self_s.get("direct_sum.d_tensor_direct", 0.0)
    m["direct_sum.ns_per_term"] = (1e9 * direct_s / terms if terms else 0.0, "ns")
    for name, key in (("dispersion.j_intra", "intra_evals_per_k"),
                      ("dispersion.j_inter", "inter_evals_per_pair")):
        distinct = len({tuple(n) for n in notes.get(name, [])})
        m[f"dispersion.{key}"] = (calls.get(name, 0) / distinct if distinct else 0.0, "ratio")
    text = csv_path.read_bytes()
    m["cli.rows"] = (text.count(b"\n") - 1, "count")
    m["cli.csv_bytes"] = (len(text), "bytes")
    return m


def measure_layers(run, seconds):
    plain, traced, layers = [], [], []
    imports = [_import_times(run.deadline) for _ in range(3)]
    budget = Budget(seconds)
    while budget.next():
        out, _ = run.cli()
        if out is None:
            break
        plain.append(out["wall_s"])
        out, spans = run.cli(trace=True)
        if out is None:
            break
        traced.append(out["wall_s"])
        layers.append(_layers(*tracing.summarize(spans), out["csv_path"]))
        spans.unlink()
    metrics = {}
    if layers:
        for name, (_value, unit) in layers[0].items():
            values = [layer[name][0] for layer in layers]
            metrics[name] = _metric(values, unit)
            if unit in ("count", "bytes", "ratio"):
                if len(set(values)) > 1:
                    run.problems.append(f"{name} differs between traced runs: {values}")
                metrics[name]["value"] = values[0]
    for name in ("model.import_s", "specfun.import_s"):
        metrics[name] = _metric([t[name] for t in imports if name in t], "s")
    if plain and traced:
        overhead = statistics.median(traced) - statistics.median(plain)
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s", "n": len(traced),
                                       "untraced_wall_s": statistics.median(plain)}
    return metrics


def _summary_line(name, m):
    tail = m.get("tail")
    tail_text = (f"p{tail[0]:g} {tail[1]:.6g}" if tail
                 else "no percentile has 10 samples beyond it")
    return f"  {name:36s} {m['value']!s:>22} {m['unit']:6s} n={m.get('n', 1):<3} {tail_text}"


def bench(workload, seed, seconds, trace, size) -> int:
    """Run and check one workload; print its summary and, last, its result."""
    cfg = wl.make_config(workload, seed, size)
    tmp = WORK / f"{workload}-{size}-seed{seed}-trace{trace}"
    tmp.mkdir(parents=True, exist_ok=True)
    run = Run(workload, cfg, tmp)
    # also fills the bytecode caches before anything is timed
    rc, env, err = _spawn("--env", deadline=run.deadline)
    if env is None:
        print(f"error: cannot import latticesum ({rc}): {err.strip()[-500:]}", file=sys.stderr)
        return 2
    env.update(_machine())

    metrics = (measure_layers if trace else measure)(run, seconds)
    correct = run.failed == 0 and not run.problems
    record = {"workload": workload, "seed": seed, "size": size, "trace": trace,
              "seconds": seconds, "why": wl.WHY[workload], "config": cfg, "env": env,
              "correct": correct, "attempted": run.attempted, "failed": run.failed,
              "problems": run.problems, "metrics": metrics}
    record_path = tmp / "record.json"
    record_path.write_text(json.dumps(record, indent=1))

    print(f"{workload} (seed {seed}, {size}): {wl.WHY[workload]}")
    print(f"  env: {json.dumps(env)}")
    for name, m in metrics.items():
        print(_summary_line(name, m))
    print(f"  failed_ops {run.failed} of attempted_ops {run.attempted}; correct: {correct}")
    for problem in run.problems:
        print(f"  problem: {problem}")
    print(f"  record: {record_path}")
    result = {"correct": correct, "attempted": run.attempted, "failed": run.failed,
              "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                          for name, m in metrics.items()}}
    print(json.dumps(result), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WHY) + ["all"],
                        help="all runs every workload in turn, one result line each")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs a few rows of each workload, for the harness test")
    args = parser.parse_args(argv)

    missing = [p for p in (ROOT / "src" / "latticesum" / "cli.py", check.REFERENCE)
               if not p.is_file()]
    if missing:
        print(f"error: {', '.join(map(str, missing))} not found; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    names = list(wl.WHY) if args.workload == "all" else [args.workload]
    return max(bench(name, args.seed, args.seconds, args.trace, args.size) for name in names)


if __name__ == "__main__":
    raise SystemExit(main())
