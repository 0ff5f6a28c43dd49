"""Benchmark worker: one process that imports cliffsim and runs circuits.

Usage: python3 bench/worker.py SRC_DIR

The worker imports cliffsim from SRC_DIR, writes one JSON line
`{"ready": true}` to stdout, then answers one JSON line per request line on
stdin until stdin closes.  A request is

    {"id": ..., "op": "cli" | "run" | "compare" | "driven" | "ref",
     "text" or "path": ..., "trace": bool, "ref": bool}

- `cli`: `cliffsim.cli.main(["run", "--json", path])`, what `cliffsim run` does.
- `run`: `run_clifford` then `state_to_amplitudes`.
- `compare`: `compare_backends(parse_circuit(text))`, what `cliffsim fuzz` does per circuit.
- `driven`: the public functions that `run_clifford` calls, one by one, then
  `run_matrix`, with a span around each when `trace` is set.
- `ref`: nothing but one timing of the reference kernel (`reference.py`).

`seconds` in the reply is the wall time of the operation alone.  With `ref`
set, the worker also times the reference kernel (`reference.py`) once just
before and once just after the operation, and replies `ref_s` with both
times.  The reply also carries the amplitudes, the worker's own peak RSS
and, for `driven` with `trace`, the spans and counts.  An exception inside the operation is
reported in `error` and the worker keeps serving; after `cli` the worker
exits with the return code of `main`.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback

from reference import reference_seconds
from spans import ROOT_SPAN, Tracer


def _reply(out, obj) -> None:
    out.write(json.dumps(obj) + "\n")
    out.flush()


def _amps(values) -> list[list[float]]:
    return [[complex(a).real, complex(a).imag] for a in values]


def drive(cliffsim, tracer, text: str) -> list[complex]:
    """The calls `run_clifford` and `state_to_amplitudes` make, then `run_matrix`.

    One span around each call.
    """
    t = tracer
    with t.span(ROOT_SPAN):
        with t.span("circuit.parse"):
            circuit = cliffsim.parse_circuit(text)
        with t.span("witt.context"):
            ctx = cliffsim.WittContext(circuit.n_qubits)
            state = cliffsim.basis_state(ctx, (0,) * circuit.n_qubits)
        for op in circuit.ops:
            with t.span("gates.build"):
                gate = cliffsim.build_gate(ctx, op.name, op.wires, op.params)
            with t.span("gates.apply"):
                after = cliffsim.apply(gate, state)
            if t.enabled:
                t.add("gates.gate_terms", len(gate.value.terms))
                t.add("multivector.term_pairs", len(gate.value.terms) * len(state.value.terms))
                t.peak("witt.state_terms_max", len(after.value.terms))
            state = after
        with t.span("witt.extract"):
            amps = cliffsim.state_to_amplitudes(ctx, state)
        with t.span("matrix_backend.run"):
            cliffsim.run_matrix(circuit)
    return amps


def main(argv: list[str]) -> int:
    out = sys.stdout
    try:
        sys.path.insert(0, argv[1])
        import cliffsim
        import cliffsim.cli
        from cliffsim.matrix_backend import compare_backends
    except Exception:
        _reply(out, {"ready": False, "error": traceback.format_exc(limit=2)})
        return 2
    _reply(out, {"ready": True, "cliffsim": cliffsim.__file__})
    exit_code = 0
    for line in sys.stdin:
        req = json.loads(line)
        op = req["op"]
        reply = {"id": req.get("id")}
        err = io.StringIO()
        ref_before = reference_seconds() if req.get("ref") else None
        try:
            if op == "cli":
                buf = io.StringIO()
                t0 = time.perf_counter()
                with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
                    exit_code = cliffsim.cli.main(["run", "--json", req["path"]])
                reply["seconds"] = time.perf_counter() - t0
                if exit_code == 0:
                    reply["amps"] = json.loads(buf.getvalue())["amplitudes"]
                else:
                    reply["error"] = f"cliffsim run exited {exit_code}: {err.getvalue().strip()}"
            elif op == "run":
                t0 = time.perf_counter()
                state = cliffsim.run_clifford(cliffsim.parse_circuit(req["text"]))
                amps = cliffsim.state_to_amplitudes(state.ctx, state)
                reply["seconds"] = time.perf_counter() - t0
                reply["amps"] = _amps(amps)
                reply["state_terms"] = len(state.value.terms)
            elif op == "compare":
                t0 = time.perf_counter()
                report = compare_backends(cliffsim.parse_circuit(req["text"]))
                reply["seconds"] = time.perf_counter() - t0
                reply["amps"] = _amps(report.clifford)
            elif op == "driven":
                tracer = Tracer(req.get("trace", False), req.get("id"))
                t0 = time.perf_counter()
                amps = drive(cliffsim, tracer, req["text"])
                reply["seconds"] = time.perf_counter() - t0
                reply["amps"] = _amps(amps)
                reply["trace"] = tracer.dump()
            elif op == "ref":
                reply["ref_s"] = [reference_seconds()]
            else:
                reply["error"] = f"unknown op {op!r}"
        except Exception:
            reply["error"] = traceback.format_exc(limit=4)
            if op == "driven":
                reply["trace"] = tracer.dump()
            if op == "cli":
                exit_code = 1
        if ref_before is not None:
            reply["ref_s"] = [ref_before, reference_seconds()]
        reply["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        _reply(out, reply)
    return exit_code


if __name__ == "__main__":
    sys.exit(main(sys.argv))
