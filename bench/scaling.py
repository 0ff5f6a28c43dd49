"""Scaling report: the ladder circuit at n = 4..8 qubits, one fresh worker each.

    python3 bench/scaling.py

The ladder is an `h` layer, a `cnot` ladder, then a `phase` layer.  Each row
records the circuit's seconds (`run_clifford` plus `state_to_amplitudes`),
the worker's own peak RSS and the final state's blade terms, and checks the
amplitudes against the matrix oracle.  One run per point: this report is not
part of the repeated benchmark runs and is not gated.  n = 9 is left out; it
takes about 39 s and 1.1 GB.  Writes `.bench_out/scaling.json`; exits 1 if
any point fails.
"""

from __future__ import annotations

import json
import sys

import gen
import harness

QUBITS = range(4, 9)
TIMEOUT_S = 120.0


def main() -> int:
    harness.OUT.mkdir(exist_ok=True)
    rows = []
    with harness.Session(per_worker=1) as session:
        for n in QUBITS:
            text = gen.ladder_text(n)
            reply, error = session.ask({"id": n, "op": "run", "text": text}, TIMEOUT_S)
            if error is None:
                error = harness.oracle_error(text, reply)
            rows.append({
                "qubits": n,
                "circuit_s": reply.get("seconds") if reply else None,
                "peak_rss_mb": session.maxrss_kb[-1] / 1024.0,
                "state_terms": reply.get("state_terms") if reply else None,
                "error": error,
            })
    print(f"{'n':>2} {'circuit s':>10} {'peak RSS MB':>12} {'state terms':>12}  check")
    for r in rows:
        seconds = f"{r['circuit_s']:.3f}" if r["circuit_s"] is not None else "-"
        print(f"{r['qubits']:>2} {seconds:>10} {r['peak_rss_mb']:>12.1f} "
              f"{r['state_terms'] or '-':>12}  {r['error'] or 'ok'}")
    (harness.OUT / "scaling.json").write_text(json.dumps(rows, indent=1))
    return 1 if any(r["error"] for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
