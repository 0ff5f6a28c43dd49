"""The benchmark's circuit generator: deterministic, parseable, unitary."""

import collections

import pytest

import gen
from cliffsim import GATE_SPECS, WittContext, build_gate, parse_circuit

WORKLOADS = ("wide", "deep", "fuzz")


def test_registry_copy_matches_the_program():
    assert {(name, spec.wires, spec.params) for name, spec in GATE_SPECS.items()} == set(gen.GATES)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_identical_text(workload):
    for index in range(5):
        assert gen.circuit_text(workload, 7, index) == gen.circuit_text(workload, 7, index)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_other_seed_or_index_gives_other_text(workload):
    texts = {gen.circuit_text(workload, seed, index) for seed in (1, 2, 3) for index in range(4)}
    assert len(texts) == 12


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_circuit_parses_and_every_u2_is_unitary(workload):
    one = WittContext(1)
    for seed in range(3):
        for index in range(10):
            text = gen.circuit_text(workload, seed, index)
            circuit = parse_circuit(text)
            assert len(circuit.ops) == gen.gate_count(text)
            if workload == "wide":
                assert (circuit.n_qubits, len(circuit.ops)) == (7, 7 + 24)
            elif workload == "deep":
                assert (circuit.n_qubits, len(circuit.ops)) == (6, 6 + 120)
            else:
                assert 1 <= circuit.n_qubits <= 5 and 1 <= len(circuit.ops) <= 40
            for op in circuit.ops:
                if op.name == "u2":
                    build_gate(one, "u2", (1,), op.params)  # raises above 1e-10


def test_u2_params_pass_the_unitarity_check():
    import random

    rng = random.Random(0)
    one = WittContext(1)
    for _ in range(2000):
        build_gate(one, "u2", (1,), gen.u2_params(rng))


@pytest.mark.parametrize("workload, n", [("wide", 7), ("deep", 6)])
def test_filled_circuits_use_every_gate_equally(workload, n):
    circuit = parse_circuit(gen.circuit_text(workload, 3, 0))
    fill, rest = circuit.ops[:n], circuit.ops[n:]
    assert [(op.name, op.wires) for op in fill] == [("u2", (w,)) for w in range(1, n + 1)]
    counts = collections.Counter(op.name for op in rest)
    assert set(counts) == set(GATE_SPECS) and len(set(counts.values())) == 1


def test_each_fuzz_batch_takes_every_shape_once():
    for batch in (0, 1):
        indices = range(batch * gen.FUZZ_BATCH, (batch + 1) * gen.FUZZ_BATCH)
        shapes = [gen.fuzz_shape(5, i) for i in indices]
        assert sorted(shapes) == [(n, d) for n in range(1, 6) for d in range(1, 41)]
        for i in indices[:20]:
            circuit = parse_circuit(gen.circuit_text("fuzz", 5, i))
            assert (circuit.n_qubits, len(circuit.ops)) == gen.fuzz_shape(5, i)
    assert gen.fuzz_shape(5, 0) != gen.fuzz_shape(6, 0) or gen.fuzz_shape(5, 1) != gen.fuzz_shape(6, 1)
