"""Output checks and failure counting of the benchmark harness."""

import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import harness
from check import check_amplitudes
from spans import self_times

GOOD = "qubits 2\nh 1\ncnot 1 2\n"
BAD = "qubits 2\nbogus 1\n"


def oracle(text):
    return harness.cliffsim.run_matrix(harness.cliffsim.parse_circuit(text)).amplitudes


def as_pairs(amps):
    return [[a.real, a.imag] for a in amps]


class CannedSession:
    """Stands in for a Session: replies with the given amplitudes."""

    def __init__(self, replies):
        self.replies = iter(replies)

    def ask(self, request, timeout):
        return {"seconds": 0.01, "amps": next(self.replies)}, None


def count_failures(outcomes):
    return sum(o.error is not None for o in outcomes)


def test_check_accepts_the_oracle_and_rejects_each_defect():
    ref = oracle(GOOD)
    assert check_amplitudes(as_pairs(ref), ref) is None
    nudged = ref.copy()
    nudged[3] *= np.exp(1e-6j)  # same norm, so only the oracle distance catches it
    assert "differs" in check_amplitudes(as_pairs(nudged), ref)
    assert "non-finite" in check_amplitudes(as_pairs(np.where(ref == ref[0], np.nan, ref)), ref)
    assert "norm" in check_amplitudes(as_pairs(2 * ref), ref)
    assert "expected 4" in check_amplitudes(as_pairs(ref[:2]), ref)


@pytest.mark.parametrize("defect", ["perturbed", "nan"])
def test_a_wrong_amplitude_is_one_failure(defect):
    ref = oracle(GOOD)
    bad = ref.copy()
    if defect == "perturbed":
        bad[0] += 1e-6
    else:
        bad[0] = np.nan
    session = CannedSession([as_pairs(ref), as_pairs(bad), as_pairs(ref)])
    outcomes = [harness.run_circuit(session, "deep", 0, i, GOOD) for i in range(3)]
    assert count_failures(outcomes) == 1 and outcomes[1].error is not None


def test_a_nonzero_exit_is_one_failure(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "OUT", tmp_path)
    with harness.Session(per_worker=1) as session:
        outcomes = [harness.run_circuit(session, "wide", 0, i, t) for i, t in enumerate([GOOD, BAD])]
    assert count_failures(outcomes) == 1
    assert "exited 2" in outcomes[1].error
    assert len(session.setup_s) == len(session.maxrss_kb) == 2


def test_a_timeout_is_one_failure_and_the_worker_is_killed(monkeypatch):
    slow = [
        sys.executable,
        "-c",
        "import sys, time; print('{\"ready\": true}', flush=True); sys.stdin.readline(); time.sleep(60)",
    ]
    monkeypatch.setitem(harness.TIMEOUT_S, "deep", 0.5)
    t0 = time.monotonic()
    with harness.Session(per_worker=1, argv=slow) as session:
        outcome = harness.run_circuit(session, "deep", 0, 0, GOOD)
    assert time.monotonic() - t0 < 10
    assert outcome.error == "timed out after 0.5 s"
    assert session.worker is None and len(session.maxrss_kb) == 1


def test_self_time_subtracts_children():
    spans = [
        [0, "root", 0.0, 10.0, None, 1, False],
        [1, "a", 1.0, 3.0, 0, 1, False],
        [2, "b", 2.0, 5.0, 0, 1, False],
        [3, "c", 7.0, 8.0, 0, 1, False],
    ]
    assert self_times(spans) == [10.0 - 4.0 - 1.0, 2.0, 3.0, 1.0]


def test_benchmark_json_names_match_the_harness():
    spec = json.loads((Path(harness.ROOT) / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(harness.END_TO_END_UNITS)
    layers = harness.layer_metrics(harness.LayerTally(), [], 0.0)
    assert [m["name"] for m in spec["per_layer"]] == list(layers)
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    assert units == {name: m["unit"] for name, m in layers.items()} | harness.END_TO_END_UNITS


def test_times_are_scaled_by_the_reference_speed():
    slow = 2 * harness.REF_S

    class Done:
        maxrss_kb, setup_s, setup_ref_s, refs = [1024, 1024], [0.2, 0.4], [slow, None], [slow] * 6

    outcomes = [harness.Outcome(i, 10, 1.0, None) for i in range(3)]
    m = harness.end_to_end_metrics(outcomes, Done())
    assert m["circuit_s_p50"]["value"] == 1.0 and m["gates_per_s"]["value"] == 10.0
    assert m["circuit_s_p50_norm"]["value"] == pytest.approx(0.5)
    assert m["gates_per_s_norm"]["value"] == pytest.approx(20.0)
    assert m["setup_s"]["value"] == pytest.approx(0.1) and m["setup_s"]["samples"] == 1


def test_workers_are_replaced_after_per_worker_requests_and_time_the_reference():
    with harness.Session(per_worker=2, ref=True) as session:
        for i in range(3):
            reply, error = session.ask({"id": i, "op": "run", "text": GOOD}, 30.0)
            assert error is None
    launches = harness.SETUP_LAUNCHES - 1 + 2
    assert len(session.setup_s) == len(session.maxrss_kb) == launches
    assert all(r is not None for r in session.setup_ref_s)
    # One timing per ref-only launch; before and after each worker's first circuit.
    assert len(session.refs) == harness.SETUP_LAUNCHES - 1 + 2 * 2
