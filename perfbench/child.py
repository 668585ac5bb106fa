"""One latticesum CLI run in a fresh process, as the benchmark sees it.

Prints one JSON line. ``setup_s`` runs from ``--spawned`` (CLOCK_MONOTONIC
in ns, taken by the parent just before it started this process) to
``latticesum.cli`` imported and the config parsed; ``wall_s`` runs from the
CLI's dispatch to the CSV written; ``peak_rss_mb`` is this process's
``ru_maxrss``. Without ``--command`` only the set-up is measured. With
``--env`` it reports the interpreter, library versions and window kernel
instead.

The parent sets PYTHONPATH to the checkout's ``src`` and pins every
threading library to one thread.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time


def _env():
    import platform

    import numpy as np
    import scipy

    from latticesum import _core_py, direct_sum

    crosscheck = None
    if direct_sum.BACKEND == "compiled":
        # the compiled and NumPy kernels share one contract
        args = (0.83, 1.31, 100, 1.5, False)
        compiled = direct_sum._kernel.window_sums(*args)
        fallback = _core_py.window_sums(*args)
        crosscheck = max(abs(a - b) for a, b in zip(compiled, fallback))
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "backend": direct_sum.BACKEND,
        "kernel_max_diff": crosscheck,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spawned", type=int)
    parser.add_argument("--config")
    parser.add_argument("--command")
    parser.add_argument("--out")
    parser.add_argument("--trace", help="write the spans of the run to this file")
    parser.add_argument("--env", action="store_true")
    args = parser.parse_args(argv)
    if args.env:
        print(json.dumps(_env()))
        return 0

    import latticesum.cli as cli

    with open(args.config) as fh:
        cli.parse_config(fh.read())
    ready = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    result = {"setup_s": (ready - args.spawned) / 1e9}
    if args.command:
        tracer = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            tracing.install(tracer)
        argv = [args.command, "--config", args.config, "--out", args.out]
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter_ns()
            rc = cli.main(argv)
            t1 = time.perf_counter_ns()
        if tracer is not None:
            tracer.dump(args.trace)
        result.update(rc=rc, wall_s=(t1 - t0) / 1e9)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
