"""Compare two benchmark records metric by metric.

    python3 perfbench/compare.py BASE_RECORD.json NEW_RECORD.json

A record is the ``record.json`` that ``run.py`` writes under ``.perfbench``.
Records of different workloads, sizes or trace modes are not comparable,
and neither are records whose window kernel (``env.backend``) differs: the
compiled and NumPy kernels differ about 2x on direct-window. In those cases
this exits with code 2 and prints nothing else.

For each metric it prints both values and the change as a share of the
base; end-to-end metrics are marked REGRESSION when they got worse by more
than the bound in BENCHMARK.json.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def compare(base, new, spec):
    for key in ("workload", "size", "trace"):
        if base[key] != new[key]:
            raise ValueError(f"{key} differs: {base[key]!r} vs {new[key]!r}")
    if base["env"]["backend"] != new["env"]["backend"]:
        raise ValueError(f"window kernel differs: {base['env']['backend']!r} vs "
                         f"{new['env']['backend']!r}")
    lines = []
    for name, m in base["metrics"].items():
        if name not in new["metrics"]:
            continue
        a, b = m["value"], new["metrics"][name]["value"]
        change = (b - a) / abs(a) if a else 0.0
        verdict = ""
        if name in spec:
            worse = change if spec[name]["better"] == "lower" else -change
            bound = spec[name].get("bound")
            if bound is not None:
                verdict = "REGRESSION" if worse > bound else f"within {bound:g}"
        lines.append(f"{name:40s} {a!s:>22} {b!s:>22} {change:+9.2%} {verdict}")
    return lines


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (json.loads(Path(p).read_text()) for p in args)
    spec = json.loads(BENCHMARK.read_text())
    spec = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    try:
        lines = compare(base, new, spec)
    except ValueError as exc:
        print(f"refusing to compare: {exc}", file=sys.stderr)
        return 2
    print(f"{base['workload']}: seed {base['seed']} vs {new['seed']}, "
          f"commit {base['env']['commit']} vs {new['env']['commit']}")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
