"""Run one workload of the cliffsim benchmark and print its metrics.

    python3 bench/run.py --workload wide|deep|fuzz --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout that has `src/cliffsim`.  Prints a table
of every metric with its unit and sample count, then, as the last line, one
JSON object {"correct", "attempted", "failed", "metrics"}.  With `--trace 0`
the metrics are the end-to-end ones; with `--trace 1` they are the per-layer
ones from a separate traced run.  Exits 0 when every output checked out, 1
when any circuit failed, and 2 without a result when the sources are missing
or a worker cannot start.  Full results and spans go to `.bench_out/`.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _table(result: dict) -> list[str]:
    lines = [
        f"workload {result['workload']}  seed {result['seed']}  trace {result['trace']}  "
        f"circuits {result['attempted']}  failed {result['failed']}"
    ]
    for name, m in result["metrics"].items():
        lines.append(f"  {name:<26} {m['value']:>16.6g} {m['unit']:<8} samples {m['samples']}")
    if "time_shares" in result:
        lines.append("  where the time goes (self time / traced circuit time):")
        for name, share in result["time_shares"].items():
            lines.append(f"    {name:<24} {100 * share['share']:6.2f}%  calls {share['calls']}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("wide", "deep", "fuzz"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cliffsim" / "__init__.py").is_file():
        print(f"error: no cliffsim sources at {ROOT / 'src'}", file=sys.stderr)
        return 2
    import harness

    try:
        result = harness.run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except harness.WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print("\n".join(_table(result)))
    for failure in result["failures"][:5]:
        print(f"FAILED circuit {failure['index']}: {failure['error']}", file=sys.stderr)
    names = harness.END_TO_END_UNITS if not args.trace else result["metrics"]
    metrics = {
        name: {"value": result["metrics"][name]["value"], "unit": result["metrics"][name]["unit"]}
        for name in names
        if name in result["metrics"]
    }
    line = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    print(json.dumps(line))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
