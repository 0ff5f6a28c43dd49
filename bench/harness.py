"""Worker processes, the measurement loop and the metrics of the benchmark.

Workers run one at a time: the benchmark targets a 2-core machine and each
worker is a single process, so a second worker would only measure contention.
"""

from __future__ import annotations

import json
import os
import select
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import gen
from check import check_amplitudes
from reference import REF_S
from spans import ROOT_SPAN, self_times

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKER_ARGV = [sys.executable, str(Path(__file__).with_name("worker.py")), str(SRC)]

sys.path.insert(0, str(SRC))
import cliffsim  # noqa: E402
from cliffsim.real_ga import iso_check  # noqa: E402

if Path(cliffsim.__file__).resolve().parent != SRC / "cliffsim":
    raise ImportError(f"cliffsim imported from {cliffsim.__file__}, not from {SRC}")

WORKLOADS = ("wide", "deep", "fuzz")
# What one untraced circuit is on each workload: what a user runs.
UNTRACED_OP = {"wide": "cli", "deep": "run", "fuzz": "compare"}
# Circuits per worker before it is replaced.  `wide` starts a fresh worker
# for every circuit, as `cliffsim run` does; `fuzz` one per batch of 200, as
# one `cliffsim fuzz` (default `--circuits 200`) does, so that the caches a
# worker fills, and its peak RSS, do not grow with how many circuits a run
# fits; `deep` keeps one worker.
PER_WORKER = {"wide": 1, "deep": None, "fuzz": gen.FUZZ_BATCH}
# Wall-clock limit per circuit; normal circuits take under a tenth of it.
TIMEOUT_S = {"wide": 60.0, "deep": 30.0, "fuzz": 10.0}
# Worker launches per run when workers are not fresh, for the setup_s median.
SETUP_LAUNCHES = 7
READY_TIMEOUT_S = 60.0
STOP_GRACE_S = 10.0

# A request asks for reference timings when it is a worker's first or this
# long has passed since the last ones: every circuit on `wide` and `deep`,
# about once a second on `fuzz`.
REF_EVERY_S = 1.0

END_TO_END_UNITS = {
    "circuit_s_p50_norm": "s",
    "gates_per_s_norm": "gates/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "pass_frac": "ratio",
}
# Printed, not gated: the raw wall-clock figures behind the scaled ones, the
# reference kernel's median seconds, and the tail, which only runs with at
# least 100 circuits (ten beyond it) support.
PRINTED_UNITS = {
    "setup_s_raw": "s",
    "circuit_s_p50": "s",
    "gates_per_s": "gates/s",
    "ref_s": "s",
    "circuit_s_p90": "s",
}
LAYERS_FAILED = ("circuit", "witt", "gates", "matrix_backend", "real_ga")


class WorkerError(RuntimeError):
    """A worker could not be started."""


class Worker:
    """One worker process, spoken to in JSON lines over its stdin and stdout."""

    def __init__(self, argv=None):
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            argv or WORKER_ARGV,
            cwd=ROOT,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
        )
        self._buf = b""
        self.exit_code: int | None = None
        self.maxrss_kb = 0
        try:
            msg = self._read(READY_TIMEOUT_S)
        except EOFError:
            msg = None
        self.setup_s = time.perf_counter() - t0
        if msg is None or not msg.get("ready"):
            self.stop(kill=True)
            detail = msg.get("error") if msg else "no ready line"
            raise WorkerError(f"worker did not start: {detail}")

    def ask(self, request: dict, timeout: float) -> dict | None:
        """Send one request; the reply, or None after `timeout` seconds.

        Raises EOFError if the worker exits without replying.
        """
        try:
            self.proc.stdin.write((json.dumps(request) + "\n").encode())
            self.proc.stdin.flush()
        except BrokenPipeError:
            raise EOFError from None
        return self._read(timeout)

    def _read(self, timeout: float) -> dict | None:
        deadline = time.monotonic() + timeout
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buf:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                return None
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                raise EOFError
            self._buf += chunk
        line, _, self._buf = self._buf.partition(b"\n")
        return json.loads(line)

    def stop(self, kill: bool = False) -> int:
        """End the worker and reap it; its exit code and peak RSS stay on self.

        Peak RSS comes from `wait4` on this one child, not from the cumulative
        RUSAGE_CHILDREN of the harness.
        """
        if self.exit_code is not None:
            return self.exit_code
        if kill:
            self.proc.kill()
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        deadline = time.monotonic() + STOP_GRACE_S
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() >= deadline:
                self.proc.kill()
                pid, status, usage = os.wait4(self.proc.pid, 0)
                break
            time.sleep(0.002)
        self.exit_code = self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.maxrss_kb = usage.ru_maxrss
        self.proc.stdout.close()
        return self.exit_code


class Session:
    """The workers of one run, each replaced after `per_worker` requests.

    Records every launch's setup time and every worker's own peak RSS.  A
    worker that times out or dies is replaced on the next request.  With
    `ref`, a worker's first request, and any request `REF_EVERY_S` after the
    last timed one, also times the reference kernel; `refs` collects those
    times, and `setup_ref_s` the first one of each launch, taken right after
    it was ready (None where there is none).
    """

    def __init__(self, per_worker: int | None, argv=None, ref: bool = False):
        self.per_worker = per_worker
        self.argv = argv
        self.ref = ref
        self.setup_s: list[float] = []
        self.setup_ref_s: list[float | None] = []
        self.refs: list[float] = []
        self.maxrss_kb: list[int] = []
        self.worker: Worker | None = None
        self._served = 0
        self._last_ref = -REF_EVERY_S
        if per_worker != 1:
            for _ in range(SETUP_LAUNCHES - 1):
                w = self._launch()
                if ref:
                    try:
                        self._take_refs(w.ask({"op": "ref"}, READY_TIMEOUT_S), first=True)
                    except EOFError:
                        pass
                self._retire(w)

    def __enter__(self) -> Session:
        return self

    def __exit__(self, *exc) -> None:
        if self.worker is not None:
            self._retire(self.worker, kill=exc[0] is not None)
            self.worker = None

    def _launch(self) -> Worker:
        w = Worker(self.argv)
        self.setup_s.append(w.setup_s)
        self.setup_ref_s.append(None)
        return w

    def _retire(self, w: Worker, kill: bool = False) -> int:
        code = w.stop(kill)
        self.maxrss_kb.append(w.maxrss_kb)
        return code

    def _take_refs(self, reply: dict | None, first: bool) -> None:
        ref_s = reply.get("ref_s") if reply else None
        if ref_s:
            self.refs.extend(ref_s)
            if first:
                self.setup_ref_s[-1] = ref_s[0]

    def ask(self, request: dict, timeout: float) -> tuple[dict | None, str | None]:
        """(reply, None) on success, else (reply or None, why it failed)."""
        first = self.worker is None
        if first:
            self.worker = self._launch()
            self._served = 0
        w = self.worker
        now = time.perf_counter()
        if self.ref and (first or now - self._last_ref >= REF_EVERY_S):
            request = {**request, "ref": True}
            self._last_ref = now
        error = None
        try:
            reply = w.ask(request, timeout)
            self._served += 1
            self._take_refs(reply, first)
            if reply is None:
                error = f"timed out after {timeout:g} s"
        except EOFError:
            reply, error = None, "worker exited without replying"
        if reply is not None and reply.get("error"):
            error = reply["error"]
        if self._served == self.per_worker or error is not None:
            self.worker = None
            code = self._retire(w, kill=error is not None and reply is None)
            if error is None and code != 0:
                error = f"worker exited with code {code}"
        return reply, error


@dataclass
class Outcome:
    index: int | str
    gates: int
    seconds: float | None
    error: str | None
    traced_seconds: float | None = None


def oracle_error(text: str, reply: dict) -> str | None:
    """Check a reply's amplitudes against `run_matrix`, run here, untimed."""
    oracle = cliffsim.run_matrix(cliffsim.parse_circuit(text)).amplitudes
    return check_amplitudes(reply["amps"], oracle)


def run_circuit(session: Session, workload: str, seed: int, index: int, text: str) -> Outcome:
    """One circuit the way a user runs it on `workload`, checked."""
    op = UNTRACED_OP[workload]
    request = {"id": index, "op": op}
    if op == "cli":
        path = OUT / f"{workload}-{seed}.qc"
        path.write_text(text, encoding="utf-8")
        request["path"] = str(path)
    else:
        request["text"] = text
    reply, error = session.ask(request, TIMEOUT_S[workload])
    if error is None:
        error = oracle_error(text, reply)
    seconds = reply.get("seconds") if reply else None
    return Outcome(index, gen.gate_count(text), seconds, error)


class LayerTally:
    """Per-layer totals over the spans of a traced run."""

    def __init__(self):
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.failed = {layer: 0 for layer in LAYERS_FAILED}
        self.counts: dict[str, int] = {}
        self.peaks: dict[str, int] = {}
        self.root_s = 0.0
        self.roots = 0
        self.spans: list[list] = []

    def add(self, dump: dict) -> None:
        spans = dump["spans"]
        offset = len(self.spans)
        for span, own in zip(spans, self_times(spans)):
            name = span[1]
            self.self_s[name] = self.self_s.get(name, 0.0) + own
            self.calls[name] = self.calls.get(name, 0) + 1
            module = name.split(".")[0]
            if span[6] and module in self.failed:
                self.failed[module] += 1
            if name == ROOT_SPAN:
                self.roots += 1
                self.root_s += span[3] - span[2]
            parent = None if span[4] is None else span[4] + offset
            self.spans.append([span[0] + offset, name, span[2], span[3], parent, span[5], span[6]])
        for key, value in dump["counts"].items():
            self.counts[key] = self.counts.get(key, 0) + value
        for key, value in dump["peaks"].items():
            self.peaks[key] = max(self.peaks.get(key, value), value)


def run_driven_circuit(
    session: Session, workload: str, index: int, text: str, tally: LayerTally
) -> Outcome:
    """One circuit through the driven calls: with spans on even indices only.

    Each circuit runs once, so no pass finds caches another pass of the same
    circuit filled; the odd circuits give the untraced side of
    `trace.overhead_frac`.
    """
    traced = index % 2 == 0
    request = {"id": index, "op": "driven", "text": text, "trace": traced}
    reply, error = session.ask(request, TIMEOUT_S[workload])
    if traced and reply is not None and "trace" in reply:
        tally.add(reply["trace"])
    if error is None:
        error = oracle_error(text, reply)
    seconds = reply.get("seconds") if reply else None
    if traced:
        return Outcome(index, gen.gate_count(text), None, error, traced_seconds=seconds)
    return Outcome(index, gen.gate_count(text), seconds, error)


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run circuits of `workload` for about `seconds`; the result and a report.

    A circuit starts only while the elapsed time plus the median wall time of
    the circuits so far stays within `seconds`, so a run ends close to it.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    OUT.mkdir(exist_ok=True)
    tally = LayerTally()
    outcomes: list[Outcome] = []
    walls: list[float] = []
    start = time.perf_counter()
    with Session(PER_WORKER[workload], ref=not trace) as session:
        while not walls or time.perf_counter() - start + statistics.median(walls) <= seconds:
            index = len(outcomes)
            t0 = time.perf_counter()
            text = gen.circuit_text(workload, seed, index)
            if trace:
                outcomes.append(run_driven_circuit(session, workload, index, text, tally))
            else:
                outcomes.append(run_circuit(session, workload, seed, index, text))
            walls.append(time.perf_counter() - t0)
    result = {"workload": workload, "seed": seed, "trace": int(trace)}
    if trace:
        iso_s, iso_error = iso_check_timed()
        tally.failed["real_ga"] += iso_error is not None
        outcomes.append(Outcome("iso_check", 0, None, iso_error))
        result["metrics"] = layer_metrics(tally, outcomes, iso_s)
        result["time_shares"] = time_shares(tally)
        (OUT / f"spans-{workload}-seed{seed}.json").write_text(
            json.dumps({"fields": ["id", "name", "start", "end", "parent", "circuit", "failed"],
                        "spans": tally.spans})
        )
    else:
        result["metrics"] = end_to_end_metrics(outcomes, session)
    failures = [o for o in outcomes if o.error is not None]
    result.update(
        correct=not failures,
        attempted=len(outcomes),
        failed=len(failures),
        failures=[{"index": o.index, "error": o.error} for o in failures],
        circuits=[[o.index, o.seconds, o.traced_seconds] for o in outcomes],
    )
    (OUT / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(result, indent=1))
    return result


def end_to_end_metrics(outcomes: list[Outcome], session: Session) -> dict:
    """Each metric as {"value", "unit", "samples"}; timings from passing circuits.

    The `_norm` metrics are the wall-clock ones scaled by `REF_S` over the
    median reference time of the run, and `setup_s` scales each launch by
    the reference time taken right after it, so a drift in the machine's
    speed cancels out (see `reference.py`).
    """
    ok = [o for o in outcomes if o.error is None]
    times = [o.seconds for o in ok]
    out = {}
    if times and session.refs:
        ref_s = statistics.median(session.refs)
        p50 = statistics.median(times)
        rate = sum(o.gates for o in ok) / sum(times)
        out["circuit_s_p50_norm"] = (p50 * REF_S / ref_s, len(times))
        out["gates_per_s_norm"] = (rate * ref_s / REF_S, len(times))
        out["circuit_s_p50"] = (p50, len(times))
        out["gates_per_s"] = (rate, len(times))
        out["ref_s"] = (ref_s, len(session.refs))
        # The highest percentile with at least ten samples beyond it.
        if len(times) >= 100:
            out["circuit_s_p90"] = (statistics.quantiles(times, n=10)[-1], len(times))
    out["peak_rss_mb"] = (max(session.maxrss_kb) / 1024.0, len(session.maxrss_kb))
    setups = [s * REF_S / r for s, r in zip(session.setup_s, session.setup_ref_s) if r]
    if setups:
        out["setup_s"] = (statistics.median(setups), len(setups))
    out["setup_s_raw"] = (statistics.median(session.setup_s), len(session.setup_s))
    out["pass_frac"] = (len(ok) / len(outcomes), len(outcomes))
    units = {**END_TO_END_UNITS, **PRINTED_UNITS}
    return {
        name: {"value": value, "unit": units[name], "samples": n}
        for name, (value, n) in out.items()
    }


def iso_check_timed() -> tuple[float, str | None]:
    """One `iso_check()` in this process, outside every circuit's timing."""
    t0 = time.perf_counter()
    try:
        error = None if iso_check().passed else "iso_check() reported FAIL"
    except Exception as exc:  # recorded as a real_ga failure of the run
        error = f"iso_check() raised {exc!r}"
    return time.perf_counter() - t0, error


def layer_metrics(tally: LayerTally, outcomes: list[Outcome], iso_s: float) -> dict:
    """Per-layer metrics; `_s` is mean self seconds per traced circuit."""
    n = max(tally.roots, 1)
    apply_s = tally.self_s.get("gates.apply", 0.0)
    pairs = tally.counts.get("multivector.term_pairs", 0)
    builds = tally.calls.get("gates.build", 0)
    untraced = [o.seconds for o in outcomes if o.seconds is not None]
    traced = [o.traced_seconds for o in outcomes if o.traced_seconds is not None]
    overhead = statistics.median(traced) / statistics.median(untraced) - 1.0 if untraced and traced else 0.0

    def per_circuit(name: str) -> float:
        return tally.self_s.get(name, 0.0) / n

    m = {
        "gates.apply_s": (per_circuit("gates.apply"), "s"),
        "gates.apply_calls": (tally.calls.get("gates.apply", 0), "count"),
        "multivector.term_pairs": (pairs / n, "count"),
        "multivector.pairs_per_s": (pairs / apply_s if apply_s else 0.0, "pairs/s"),
        "witt.extract_s": (per_circuit("witt.extract"), "s"),
        "witt.state_terms_max": (tally.peaks.get("witt.state_terms_max", 0), "count"),
        "witt.context_s": (per_circuit("witt.context"), "s"),
        "gates.build_s": (per_circuit("gates.build"), "s"),
        "gates.build_calls": (builds, "count"),
        "gates.gate_terms_mean": (tally.counts.get("gates.gate_terms", 0) / max(builds, 1), "count"),
        "circuit.parse_s": (per_circuit("circuit.parse"), "s"),
        "matrix_backend.run_s": (per_circuit("matrix_backend.run"), "s"),
        "real_ga.iso_check_s": (iso_s, "s"),
        **{f"{layer}.failed": (count, "count") for layer, count in tally.failed.items()},
        "trace.overhead_frac": (overhead, "ratio"),
    }
    return {name: {"value": value, "unit": unit, "samples": tally.roots} for name, (value, unit) in m.items()}


def time_shares(tally: LayerTally) -> dict:
    """Each span name's self time as a share of all traced circuit time."""
    total = tally.root_s or 1.0
    return {
        name: {"self_s": s, "share": s / total, "calls": tally.calls[name]}
        for name, s in sorted(tally.self_s.items(), key=lambda kv: -kv[1])
    }
