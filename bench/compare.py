"""Compare two sets of benchmark results, metric by metric.

    python3 bench/compare.py --base a1.json a2.json ... --new b1.json b2.json ...

Each file holds the output of one `bench/run.py` run of the same workload;
its last line, the JSON result, is read.  For every
metric this prints each side's median and quartiles, the change of the
median (positive = worse, by the metric's `better`), the bound from
`BENCHMARK.json`, and a verdict:

- `REGRESSED`: worse than the bound allows;
- `unresolved`: the base's own spread (quartile distance over median) is wider
  than the bound, and not every new run beats every base run;
- `ok`: within the bound.

With as many new files as base files, `wins` counts the pairs (in the order
given) in which the new run is better.  Exits 1 if any metric regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> dict[str, float]:
    lines = [ln for ln in Path(path).read_text().splitlines() if ln.strip()]
    result = json.loads(lines[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _fmt(q: tuple[float, float, float]) -> str:
    return f"{q[1]:.5g} [{q[0]:.4g}, {q[2]:.4g}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args(argv)
    spec = json.loads(SPEC.read_text())
    meta = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base = [load(p) for p in args.base]
    new = [load(p) for p in args.new]
    regressed = False
    print(f"{'metric':<26} {'base median [q1, q3]':>34} {'new median [q1, q3]':>34} "
          f"{'change':>8} {'bound':>6}  verdict")
    for name in meta:
        b = [r[name] for r in base if name in r]
        n = [r[name] for r in new if name in r]
        if not b or not n:
            continue
        sign = 1.0 if meta[name]["better"] == "lower" else -1.0
        bq, nq = quartiles(b), quartiles(n)
        change = sign * (nq[1] - bq[1]) / abs(bq[1]) if bq[1] else 0.0
        bound = meta[name].get("bound")
        verdict = ""
        if bound is not None:
            spread = (bq[2] - bq[0]) / abs(bq[1]) if bq[1] else 0.0
            all_better = all(sign * (x - y) < 0 for x in n for y in b)
            if change > bound:
                verdict, regressed = "REGRESSED", True
            elif spread > bound and not all_better:
                verdict = "unresolved"
            else:
                verdict = "ok"
        if len(b) == len(n):
            wins = sum(sign * (x - y) > 0 for x, y in zip(b, n))
            verdict += f"  wins {wins}/{len(b)}"
        bound_text = f"{bound:.2f}" if bound is not None else "-"
        print(f"{name:<26} {_fmt(bq):>34} {_fmt(nq):>34} {100 * change:>+7.2f}% {bound_text:>6}  {verdict}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
