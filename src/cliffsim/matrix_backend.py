"""Dense statevector simulator used as an independent oracle.

Amplitude indexing is MSB first: wire 1 is the most significant bit of the
basis index.  Dense work is capped at 12 qubits.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .circuit import Circuit, GateOp, run_clifford
from .gates import GATE_SPECS, UNITARY_TOL
from .multivector import nan_max

MAX_DENSE_QUBITS = 12
BACKEND_TOL = 1e-9  # the backends agree while max|d| of the amplitudes is below it

_SQRT2_INV = 1.0 / math.sqrt(2.0)

_FIXED_MATRICES: dict[str, np.ndarray] = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
    "h": np.array([[1, 1], [1, -1]], dtype=complex) * _SQRT2_INV,
    "s": np.array([[1, 0], [0, 1j]], dtype=complex),
    "cnot": np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    ),
    "cz": np.diag([1, 1, 1, -1]).astype(complex),
    "swap": np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    ),
    "ccnot": np.eye(8, dtype=complex)[[0, 1, 2, 3, 4, 5, 7, 6]],
    "cswap": np.eye(8, dtype=complex)[[0, 1, 2, 3, 4, 6, 5, 7]],
}
_EYE2 = np.eye(2)


def gate_matrix(name: str, params=()) -> np.ndarray:
    """Unitary matrix of a registry gate (control wires first), as a new array.

    Parameterless gates are copies of the constants in ``_FIXED_MATRICES``;
    ``phase`` and ``u2`` are built from their parameters.  ``ValueError`` for an
    unknown name, a parameter count other than the registry's, a non-finite
    parameter, one that is not a real number, or a ``u2`` with
    max|U^dagger U - 1| above ``UNITARY_TOL``.
    """
    spec = GATE_SPECS.get(name)
    if spec is None:
        raise ValueError(f"unknown gate {name!r}")
    if len(params) != spec.params:
        raise ValueError(f"gate {name!r} takes {spec.params} parameter(s), got {len(params)}")
    if name in _FIXED_MATRICES:
        return _FIXED_MATRICES[name].copy()
    try:
        finite = all(map(math.isfinite, params))
    except (TypeError, OverflowError):  # not a real number, or an integer past every float
        raise ValueError(f"gate {name!r} has an invalid parameter in {tuple(params)}") from None
    if not finite:
        raise ValueError(f"gate {name!r} has a non-finite parameter in {tuple(params)}")
    if name == "phase":
        (phi,) = params
        return np.array([[1, 0], [0, cmath.exp(1j * phi)]], dtype=complex)
    u = np.array([complex(params[i], params[i + 1]) for i in range(0, 8, 2)]).reshape(2, 2)
    with np.errstate(over="ignore", invalid="ignore"):  # a huge entry is inf or nan here, so refused
        err = np.abs(u.conj().T @ u - _EYE2).max()
    if not err <= UNITARY_TOL:
        raise ValueError(f"gate 'u2' matrix is not unitary (deviation {err:.3e})")
    return u


def _apply_gate(t: np.ndarray, order: list[int], gate: np.ndarray, wires) -> tuple[np.ndarray, list[int]]:
    """Apply ``gate`` on ``wires`` to the n-axis tensor ``t``, whose axis i is wire ``order[i] + 1``.

    One transpose puts the gate's wires first and the other wires after them
    in ascending order; that is the axis order of the returned tensor.
    """
    n = t.ndim
    try:
        want = [operator.index(w) - 1 for w in wires]
    except TypeError:  # a float or a string: what operator.index refuses
        raise ValueError(f"wires {tuple(wires)} are not all integers") from None
    want += [a for a in range(n) if a not in want]
    # n axes exactly when the wires are distinct and in 1..n
    if len(want) != n or len(gate) != 2 ** len(wires):
        raise ValueError(f"a {len(gate)}x{len(gate)} gate cannot act on wires {tuple(wires)} of {n}")
    m = t.transpose([order.index(a) for a in want]).reshape(len(gate), -1)
    return (gate @ m).reshape(t.shape), want


@dataclass
class MatrixState:
    amplitudes: np.ndarray


def run_matrix(circuit: Circuit, init_bits=None) -> MatrixState:
    """Evaluate the circuit by sequential matrix products on the state tensor.

    The state is held as an n-axis tensor together with the wire order of its
    axes, so each gate costs one transpose copy and one ``gate @ t``; the
    MSB-first order comes back once, after the last gate.  An op whose wires
    are not integers (``operator.index``), out of 1..n, repeated or not the
    gate's count raises ``ValueError``; ``True`` is wire 1.  The initial state
    is the basis vector of ``init_bits`` (MSB first, all 0 when None), which
    must be n bits, each 0 or 1 by ``operator.index``, else ``ValueError``.
    """
    n = circuit.n_qubits
    if n > MAX_DENSE_QUBITS:
        raise ValueError(f"matrix backend capped at {MAX_DENSE_QUBITS} qubits")
    index = 0
    if init_bits is not None:
        if len(init_bits) != n:
            raise ValueError(f"expected {n} bits, got {len(init_bits)}")
        for b in init_bits:
            try:
                bit = operator.index(b)
            except TypeError:  # a float, a string or None
                bit = None
            if bit not in (0, 1):
                raise ValueError(f"bits must be 0 or 1, got {b!r}")
            index = 2 * index + bit
    t = np.zeros((2,) * n, dtype=complex)
    t.flat[index] = 1.0
    order = list(range(n))
    for op in circuit.ops:
        t, order = _apply_gate(t, order, gate_matrix(op.name, op.params), op.wires)
    return MatrixState(t.transpose([order.index(a) for a in range(n)]).reshape(-1))


@dataclass
class BackendComparison:
    max_deviation: float
    passed: bool
    clifford: np.ndarray = field(repr=False)


def compare_backends(circuit: Circuit, init_bits=None, tol: float = BACKEND_TOL) -> BackendComparison:
    """Run both backends and report the L-infinity deviation of their amplitudes.

    The oracle runs first, so a register above ``MAX_DENSE_QUBITS``, or an op
    or init bit that it refuses, raises before the Clifford run starts.
    ``passed`` is ``max_deviation < tol``, so a NaN deviation fails.
    """
    mat = run_matrix(circuit, init_bits).amplitudes
    cliff = run_clifford(circuit, init_bits).amplitudes
    dev = float(np.max(np.abs(cliff - mat)))
    return BackendComparison(dev, dev < tol, cliff)


# -- random circuits and differential fuzzing --------------------------------------


def random_unitary_2x2(rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random U(2) via QR with phase fixing."""
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_circuit(rng: np.random.Generator, n_qubits: int, depth: int) -> Circuit:
    """Uniform draws from the gate registry with random wires and parameters."""
    names = [name for name, spec in GATE_SPECS.items() if spec.wires <= n_qubits]
    ops = []
    for _ in range(depth):
        name = names[int(rng.integers(len(names)))]
        spec = GATE_SPECS[name]
        wires = tuple(int(w) + 1 for w in rng.choice(n_qubits, size=spec.wires, replace=False))
        if name == "phase":
            params: tuple[float, ...] = (float(rng.uniform(0.0, 2.0 * math.pi)),)
        elif name == "u2":
            u = random_unitary_2x2(rng)
            params = tuple(
                float(x)
                for entry in (u[0, 0], u[0, 1], u[1, 0], u[1, 1])
                for x in (entry.real, entry.imag)
            )
        else:
            params = ()
        ops.append(GateOp(name, wires, params))
    return Circuit(n_qubits, tuple(ops))


@dataclass
class FuzzResult:
    index: int
    seed: int
    n_qubits: int
    gate_count: int
    max_deviation: float
    passed: bool


@dataclass
class FuzzReport:
    results: list[FuzzResult]
    failures: int
    max_deviation: float

    @property
    def passed(self) -> bool:
        return self.failures == 0


def run_fuzz(
    seed: int = 0,
    circuits: int = 200,
    max_qubits: int = 4,
    max_depth: int = 20,
    tol: float = BACKEND_TOL,
) -> FuzzReport:
    """Differential sweep of random circuits across both backends."""
    results = []
    for i in range(circuits):
        circuit_seed = seed * 1_000_003 + i
        rng = np.random.default_rng(circuit_seed)
        n = int(rng.integers(1, max_qubits + 1))
        depth = int(rng.integers(1, max_depth + 1))
        circuit = random_circuit(rng, n, depth)
        report = compare_backends(circuit, tol=tol)
        results.append(
            FuzzResult(i, circuit_seed, n, len(circuit.ops), report.max_deviation, report.passed)
        )
    failures = sum(not r.passed for r in results)
    worst = nan_max(r.max_deviation for r in results)
    return FuzzReport(results, failures, worst)
