"""Seeded `.qc` circuit generator owned by the benchmark.

The benchmark draws its own inputs instead of calling
`cliffsim.matrix_backend.random_circuit`, so a change to the program cannot
change the workload.  The program only ever sees the generated text.

Every circuit is a pure function of (workload, seed, index): the same triple
gives byte-identical text, because the stream comes from `random.Random`
seeded with a string, which hashes it with SHA-512.  (`u2` entries go
through `math.cos` and `math.sin`, so another C math library may change
their last digit.)
"""

from __future__ import annotations

import math
import random

# The twelve registry gates as (name, wires, parameters).  Fixed here, not
# read from `cliffsim.gates.GATE_SPECS`, for the same reason as above.
GATES: tuple[tuple[str, int, int], ...] = (
    ("x", 1, 0),
    ("y", 1, 0),
    ("z", 1, 0),
    ("h", 1, 0),
    ("s", 1, 0),
    ("phase", 1, 1),
    ("u2", 1, 8),
    ("cnot", 2, 0),
    ("cz", 2, 0),
    ("swap", 2, 0),
    ("ccnot", 3, 0),
    ("cswap", 3, 0),
)

WIDE_QUBITS, WIDE_GATES = 7, 24
DEEP_QUBITS, DEEP_GATES = 6, 120
FUZZ_MAX_QUBITS, FUZZ_MAX_DEPTH = 5, 40
# Each run of this many `fuzz` circuits holds every (qubits, depth) once.
FUZZ_BATCH = FUZZ_MAX_QUBITS * FUZZ_MAX_DEPTH


def u2_params(rng: random.Random) -> list[float]:
    """Re/im pairs of a, b, c, d for U = [[a, b], [-e^{id} b*, e^{id} a*]].

    With |a|^2 + |b|^2 = 1 by construction the matrix is unitary to rounding,
    far inside `gate_from_u2`'s 1e-10 check.
    """
    theta = rng.uniform(0.0, math.pi / 2.0)
    alpha, beta, delta = (rng.uniform(0.0, 2.0 * math.pi) for _ in range(3))
    a = complex(math.cos(theta) * math.cos(alpha), math.cos(theta) * math.sin(alpha))
    b = complex(math.sin(theta) * math.cos(beta), math.sin(theta) * math.sin(beta))
    phase = complex(math.cos(delta), math.sin(delta))
    c = -phase * b.conjugate()
    d = phase * a.conjugate()
    return [x for z in (a, b, c, d) for x in (z.real, z.imag)]


def gate_lines(rng: random.Random, n: int, gates, wires=None) -> list[str]:
    """One line per gate of `gates`, with seeded distinct wires and parameters.

    `wires`, if given, holds the single wire of each gate in turn.
    """
    lines = []
    fixed = iter(wires) if wires is not None else None
    for name, arity, nparams in gates:
        wires = [next(fixed)] if fixed else rng.sample(range(1, n + 1), arity)
        if nparams == 1:
            params = [rng.uniform(0.0, 2.0 * math.pi)]
        elif nparams == 8:
            params = u2_params(rng)
        else:
            params = []
        lines.append(" ".join([name, *map(str, wires), *map(repr, params)]))
    return lines


def filled_circuit(rng: random.Random, n: int, count: int) -> str:
    """`qubits n`, a seeded `u2` on every wire, then `count` registry gates.

    The `u2` layer fills the state to all 4^n blade terms, and a generic
    single-wire state is never sent back to a basis state by the gates that
    follow, so the state stays full.  (After an `h` layer, the next `h` on a
    wire still in |+> halves the state: per-circuit kernel work then varied
    2.3x with the seed.)  The gates are every registry gate `count / 12`
    times, in seeded order, so each position is still uniform over the
    registry while the kernel work of a circuit is the same for every seed:
    a ccnot costs eight times the blade products of an x.
    """
    if count % len(GATES):
        raise ValueError(f"gate count {count} is not a multiple of {len(GATES)}")
    gates = list(GATES) * (count // len(GATES))
    rng.shuffle(gates)
    fill = [("u2", 1, 8)] * n
    lines = [f"qubits {n}", *gate_lines(rng, n, fill, wires=range(1, n + 1))]
    lines += gate_lines(rng, n, gates)
    return "\n".join(lines) + "\n"


def circuit_text(workload: str, seed: int, index: int) -> str:
    """Circuit number `index` of `workload` under `seed`."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    if workload == "wide":
        return filled_circuit(rng, WIDE_QUBITS, WIDE_GATES)
    if workload == "deep":
        return filled_circuit(rng, DEEP_QUBITS, DEEP_GATES)
    if workload == "fuzz":
        n, depth = fuzz_shape(seed, index)
        fitting = [g for g in GATES if g[1] <= n]
        gates = [rng.choice(fitting) for _ in range(depth)]
        return "\n".join([f"qubits {n}", *gate_lines(rng, n, gates)]) + "\n"
    raise ValueError(f"unknown workload {workload!r}")


def fuzz_shape(seed: int, index: int) -> tuple[int, int]:
    """(qubits, depth) of `fuzz` circuit `index`: uniform, but stratified.

    Each batch of `FUZZ_BATCH` circuits takes every pair in 1..5 x 1..40 once,
    in seeded order.  With independent draws, the median circuit sat on the
    step from 3 to 4 qubits (4x the blade terms), and which side of it a seed
    fell on moved a run's median by 10% (quartile spread over ten seeds).
    """
    pairs = [(n, d) for n in range(1, FUZZ_MAX_QUBITS + 1) for d in range(1, FUZZ_MAX_DEPTH + 1)]
    random.Random(f"fuzz:{seed}:batch{index // FUZZ_BATCH}").shuffle(pairs)
    return pairs[index % FUZZ_BATCH]


def ladder_text(n: int) -> str:
    """The scaling ladder: an `h` layer, a `cnot` ladder, then a `phase` layer."""
    lines = [f"qubits {n}", *(f"h {w}" for w in range(1, n + 1))]
    lines += [f"cnot {w} {w + 1}" for w in range(1, n)]
    lines += [f"phase {w} {0.25 * w!r}" for w in range(1, n + 1)]
    return "\n".join(lines) + "\n"


def gate_count(text: str) -> int:
    """Gate lines in a generated circuit (every line after the header)."""
    return text.count("\n") - 1
