"""Dense matrix oracle: gate matrices, circuit evaluation, differential checks."""

import math
import re

import numpy as np
import pytest

from cliffsim.circuit import Circuit, GateOp, parse_circuit, run_clifford
from cliffsim.gates import GATE_SPECS, apply_all, build_gate
from cliffsim.matrix_backend import (
    compare_backends,
    gate_matrix,
    random_circuit,
    random_unitary_2x2,
    run_fuzz,
    run_matrix,
)
from cliffsim.witt import SpinorState, WittContext, basis_state


class TestGateMatrices:
    @pytest.mark.parametrize("name", sorted(GATE_SPECS))
    def test_unitarity(self, name):
        rng = np.random.default_rng(43)
        if name == "phase":
            m = gate_matrix(name, (1.234,))
        elif name == "u2":
            u = random_unitary_2x2(rng)
            m = gate_matrix(
                name,
                [x for e in (u[0, 0], u[0, 1], u[1, 0], u[1, 1]) for x in (e.real, e.imag)],
            )
        else:
            m = gate_matrix(name)
        assert np.allclose(m @ m.conj().T, np.eye(m.shape[0]), atol=1e-10)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            gate_matrix("nope")

    @pytest.mark.parametrize(
        "op, message",
        [
            (GateOp("x", (1,), (0.5,)), "gate 'x' takes 0 parameter(s), got 1"),
            (GateOp("u2", (1,), (2, 0, 0, 0, 0, 0, 1, 0)), "matrix is not unitary (deviation 3.000e+00)"),
            (GateOp("u2", (1,), (1e200, 0, 0, 0, 0, 0, 1, 0)), "matrix is not unitary (deviation inf)"),
            (GateOp("phase", (1,), (math.nan,)), "non-finite parameter"),
            (GateOp("u2", (1,), (1, 0, 0, 0, 0, 0, math.inf, 0)), "non-finite parameter"),
            (GateOp("u2", (1,), (1, 0, 0, 0, 0, 0, 1)), "gate 'u2' takes 8 parameter(s), got 7"),
            (GateOp("phase", (1,), ()), "gate 'phase' takes 1 parameter(s), got 0"),
        ],
    )
    def test_refuses_what_the_clifford_side_refuses(self, op, message):
        # hand-built ops the parser never lets through: the oracle must not run them either
        circuit = Circuit(1, (op,))
        with pytest.raises(ValueError, match=re.escape(message)):
            run_matrix(circuit)
        with pytest.raises(ValueError):
            run_clifford(circuit)


class TestRunMatrix:
    def test_empty_circuit(self):
        state = run_matrix(Circuit(2, ()))
        assert np.allclose(state.amplitudes, [1, 0, 0, 0])

    def test_not_gate(self):
        state = run_matrix(Circuit(1, (GateOp("x", (1,)),)))
        assert np.allclose(state.amplitudes, [0, 1])

    def test_unknown_gate_rejected(self):
        with pytest.raises(ValueError, match="unknown gate 'nope'"):
            run_matrix(Circuit(1, (GateOp("nope", (1,)),)))

    def test_bell_pair(self):
        circuit = parse_circuit("qubits 2\nh 1\ncnot 1 2\n")
        state = run_matrix(circuit)
        r = 1 / math.sqrt(2)
        assert np.allclose(state.amplitudes, [r, 0, 0, r])

    def test_initial_bits(self):
        state = run_matrix(Circuit(2, ()), init_bits=(1, 0))
        assert np.allclose(state.amplitudes, [0, 0, 1, 0])
        with pytest.raises(ValueError, match="expected 2 bits, got 1"):
            run_matrix(Circuit(2, ()), init_bits=(1,))

    def test_register_above_the_cap_refused(self):
        with pytest.raises(ValueError, match="matrix backend capped at 12 qubits"):
            run_matrix(Circuit(13, ()))

    def test_norm_preserved_per_gate(self):
        rng = np.random.default_rng(47)
        circuit = random_circuit(rng, 3, 15)
        vec = run_matrix(Circuit(3, ()), init_bits=(0, 1, 1)).amplitudes
        for op in circuit.ops:
            partial = run_matrix(Circuit(3, (op,)), init_bits=(0, 1, 1))
            assert abs(np.linalg.norm(partial.amplitudes) - 1.0) < 1e-10


class TestCompareBackends:
    def test_empty_circuit_zero_deviation(self):
        report = compare_backends(Circuit(2, ()))
        assert report.max_deviation == 0.0
        assert report.passed

    @pytest.mark.parametrize("name", sorted(GATE_SPECS))
    def test_single_gate_all_basis_inputs(self, name):
        spec = GATE_SPECS[name]
        if spec.params == 0:
            params: tuple[float, ...] = ()
        elif spec.params == 1:
            params = (0.9,)
        else:
            u = random_unitary_2x2(np.random.default_rng(61))
            params = tuple(
                float(x) for e in (u[0, 0], u[0, 1], u[1, 0], u[1, 1]) for x in (e.real, e.imag)
            )
        for reg in range(spec.wires, 5):
            wires = tuple(range(1, spec.wires + 1))
            circuit = Circuit(reg, (GateOp(name, wires, params),))
            for k in range(2 ** reg):
                bits = tuple((k >> (reg - 1 - i)) & 1 for i in range(reg))
                report = compare_backends(circuit, init_bits=bits)
                assert report.max_deviation < 1e-10

    def test_random_u2_circuit(self):
        rng = np.random.default_rng(53)
        u = random_unitary_2x2(rng)
        params = tuple(
            float(x) for e in (u[0, 0], u[0, 1], u[1, 0], u[1, 1]) for x in (e.real, e.imag)
        )
        report = compare_backends(Circuit(1, (GateOp("u2", (1,), params),)))
        assert report.max_deviation < 1e-10

    def test_failing_tolerance_flagged(self):
        report = compare_backends(Circuit(1, (GateOp("h", (1,)),)), tol=0.0)
        assert not report.passed


class TestFuzz:
    def test_short_sweep_passes(self):
        report = run_fuzz(seed=7, circuits=30, max_qubits=4, max_depth=20)
        assert report.failures == 0
        assert report.max_deviation < 1e-9
        assert len(report.results) == 30

    def test_deterministic_given_seed(self):
        a = run_fuzz(seed=3, circuits=5)
        b = run_fuzz(seed=3, circuits=5)
        assert [r.max_deviation for r in a.results] == [r.max_deviation for r in b.results]

    def test_random_circuit_wires_valid(self):
        rng = np.random.default_rng(59)
        for _ in range(20):
            c = random_circuit(rng, 4, 10)
            for op in c.ops:
                assert all(1 <= w <= 4 for w in op.wires)
                assert len(set(op.wires)) == len(op.wires)
                assert op.name in GATE_SPECS


class TestEmbeddedOracle:
    """Registers above the oracle's cap: a k-qubit circuit on k of n wires against the k-qubit oracle."""

    @pytest.mark.parametrize("n, seed", [(n, 3 * i + j) for i, n in enumerate((13, 16, 18)) for j in range(3)])
    def test_small_circuit_on_a_large_register(self, n, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 6))
        small = random_circuit(rng, k, int(rng.integers(10, 31)))
        wires = [int(w) + 1 for w in rng.choice(n, size=k, replace=False)]
        bits = rng.integers(0, 2, size=n)
        # an idle wire in 1, where a Z string acts as -1
        bits[[w - 1 for w in range(1, n + 1) if w not in wires][0]] = 1
        big = Circuit(n, tuple(GateOp(op.name, tuple(wires[w - 1] for w in op.wires), op.params) for op in small.ops))
        got = run_clifford(big, [int(b) for b in bits]).amplitudes

        # small index j is placed at the big index whose bit on wire wires[p] is bit p of j (MSB first)
        # and whose idle bits are the initial ones
        index = np.full(2**k, sum(int(b) << (n - w) for w, b in enumerate(bits, start=1) if w not in wires))
        for p, w in enumerate(wires):
            index |= (np.arange(2**k) >> (k - 1 - p) & 1) << (n - w)
        expected = np.zeros(2**n, dtype=complex)
        expected[index] = run_matrix(small, [int(bits[w - 1]) for w in wires]).amplitudes
        assert np.max(np.abs(got - expected)) <= 1e-9


@pytest.mark.parametrize("seed", range(30))
def test_three_way_agreement(seed, ket_by_definition):
    # the table kernel, the blade product in the algebra and the dense oracle, gate by gate;
    # the blade leg is also checked against the ket written from its definition, not through the map
    rng = np.random.default_rng(7100 + seed)
    n = int(rng.integers(1, 5))
    circuit = random_circuit(rng, n, int(rng.integers(1, 13)))
    ctx = WittContext(n)
    state = basis_state(ctx, (0,) * n)
    blade = state.value
    for k, op in enumerate(circuit.ops, start=1):
        g = build_gate(ctx, op.name, op.wires, op.params)
        state = apply_all((g,), state)
        blade = g.value * blade
        oracle = run_matrix(Circuit(n, circuit.ops[:k])).amplitudes
        from_blades = SpinorState(ctx, blade).amplitudes
        assert np.max(np.abs(state.amplitudes - oracle)) <= 1e-12, (seed, k)
        assert np.max(np.abs(from_blades - oracle)) <= 1e-12, (seed, k)
        assert blade.max_coeff_diff(ket_by_definition(ctx, oracle)) <= 1e-12, (seed, k)


@pytest.mark.parametrize("seed", range(24))
def test_wire_relabelling_permutes_index_bits(seed):
    # metamorphic relation: moving wire w to wire perm[w - 1] moves bit w of every index there
    rng = np.random.default_rng(7300 + seed)
    n = int(rng.integers(1, 7))
    circuit = random_circuit(rng, n, int(rng.integers(1, 31)))
    perm = [int(p) + 1 for p in rng.permutation(n)]
    bits = [int(b) for b in rng.integers(0, 2, size=n)]
    moved_bits = [0] * n
    for w, b in enumerate(bits, start=1):
        moved_bits[perm[w - 1] - 1] = b
    index = np.zeros(2**n, dtype=np.int64)
    for w in range(1, n + 1):
        index |= (np.arange(2**n) >> (n - w) & 1) << (n - perm[w - 1])
    moved = Circuit(n, tuple(GateOp(op.name, tuple(perm[w - 1] for w in op.wires), op.params) for op in circuit.ops))
    for run in (run_matrix, run_clifford):
        expected = np.zeros(2**n, dtype=complex)
        expected[index] = run(circuit, bits).amplitudes
        assert np.max(np.abs(run(moved, moved_bits).amplitudes - expected)) <= 1e-12, run.__name__


def _inverse(op: GateOp) -> GateOp:
    """The registry op that undoes ``op``."""
    if op.name == "s":
        return GateOp("phase", op.wires, (-math.pi / 2,))
    if op.name == "phase":
        return GateOp("phase", op.wires, (-op.params[0],))
    if op.name == "u2":
        a, b, c, d = (complex(op.params[i], op.params[i + 1]) for i in range(0, 8, 2))
        dagger = (a.conjugate(), c.conjugate(), b.conjugate(), d.conjugate())
        return GateOp("u2", op.wires, tuple(x for e in dagger for x in (e.real, e.imag)))
    return op


@pytest.mark.parametrize("seed", range(18))
def test_mirror_circuit_returns_the_initial_state(seed):
    # Proctor et al., PRL 129, 150502 (2022): a circuit and then its inverse is the identity
    rng = np.random.default_rng(7500 + seed)
    n = seed % 6 + 1
    circuit = random_circuit(rng, n, int(rng.integers(1, 31)))
    mirror = Circuit(n, circuit.ops + tuple(_inverse(op) for op in reversed(circuit.ops)))
    bits = [int(b) for b in rng.integers(0, 2, size=n)]
    initial = np.zeros(2**n, dtype=complex)
    initial[int("".join(map(str, bits)), 2)] = 1.0
    for run in (run_matrix, run_clifford):
        assert np.max(np.abs(run(mirror, bits).amplitudes - initial)) <= 1e-12, run.__name__


@pytest.mark.parametrize(
    "op",
    [
        GateOp("x", (0,)),
        GateOp("x", (-1,)),
        GateOp("h", (4,)),
        GateOp("cnot", (2, 0)),
        GateOp("cz", (1, 4)),
        GateOp("swap", (2, 2)),
        GateOp("ccnot", (1, 3, 1)),
        GateOp("cnot", (1,)),
        GateOp("x", (1, 2)),
        GateOp("cswap", (1, 2)),
        GateOp("z", ()),
    ],
    ids=lambda op: f"{op.name}{op.wires}",
)
def test_oracle_refuses_bad_wires(op):
    # wire 0 must not wrap to the last axis, and a wrong count must not reshape silently
    with pytest.raises(ValueError, match="cannot act on wires"):
        run_matrix(Circuit(3, (GateOp("h", (1,)), op)))
