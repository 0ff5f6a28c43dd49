"""Quantum gates as unitary elements of the 2n-generator complex Clifford algebra.

A gate is a Pauli table: the ordered strings coeff * X^x Z^z that it is on
the amplitudes.  ``GateElement.paulis`` holds it as rows (x, z, coeff); the
one kernel, ``_apply_tables``, takes each gate's table as columns, the
gate's masks and per string the positions of its x and z masks among them
and its coefficient.  It applies a sequence of tables in batches: a batch's
x masks, z masks and coefficients become three flat columns, then arrays;
the gather indices and signs, which do not depend on the amplitudes, are
formed at once for the batch (a whole small circuit, or a few blocks of
2^14 output indices of one gate), and each gate then gathers, multiplies and
sums its whole table; on a register of one block (n <= 14) each gate's sum is
reduced straight into a new vector.  ``apply_all`` feeds the kernel from
``GateElement.paulis``, and ``run_clifford`` from a circuit's ops, through
``_gate_table``, with no ``GateElement`` and no row built; ``run_bytes`` is
its peak memory.  ``apply`` is ``apply_all`` of one gate.

The blade form of a gate comes from the one Jordan-Wigner map in ``witt``:
``GateElement.value`` (for the blades display and algebra) is
``paulis_to_blades`` of the table.  Building and applying a gate never touch
it.  Any algebra element x acts on a state as ``SpinorState(ctx, x *
state.value)``.

Each registry gate in ``GATE_SPECS`` is data: a sum of words, each word
giving one wire's coordinates on (f_k f_k^dagger, f_k, f_k^dagger,
f_k^dagger f_k), or None for the identity, per gate wire, e.g.
CNOT = f_1 f_1^dagger + f_1^dagger f_1 (f_2 + f_2^dagger).  A word is the
tensor product of its wire operators, expanded into the columns of its Pauli
strings by ``_pauli_table`` (a one-wire word, ``phase`` or ``u2``, in closed
form: its four ``_wire_paulis``); the table depends on the wires only through
their order, each wire's rank: the count of the other gate wires below it.
``_gate_table``, the one builder of a named gate, behind both ``build_gate``
and the run path, reads the table of that order on k wires (``_ORDER_TABLES``,
for a parameterless gate, held as columns) through the op's spread: relative
index mask r becomes spread[r], relative bit j the j-th lowest of the wires'
index bits 1 << (n - w), with ranks and bits written out per arity up to
three and no sort.  A hit of ``_order_table``, that lookup plus the wires
being integers (``operator.index``) in range, passed every check of
``gate_words``, the one validator of a gate op, which ``check_op`` (the
parser's check) and ``_gate_table`` call only on a miss: ``phase``, ``u2`` or
a bad op.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from operator import index
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

import numpy as np

from .multivector import PRUNE_EPS, Multivector
from .witt import SpinorState, WittContext, basis_state, paulis_to_blades

if TYPE_CHECKING:  # circuit imports gates
    from .circuit import Circuit

UNITARY_TOL = 1e-10


# coeff * X^x Z^z on the amplitude index bits, Z^z first, as (x, z, coeff).
PauliTerm = tuple[int, int, complex]
# A Pauli table as columns: its x masks, z masks and coefficients, one entry per string.
Columns = tuple[Sequence[int], Sequence[int], Sequence[complex]]
# A Pauli table as the kernel reads it, (masks, x, z, coeffs): string i is
# coeffs[i] * X^masks[x[i]] Z^masks[z[i]].  An op's is its order table read
# through the op's spread; a GateElement's is its columns read through the
# identity on the register's masks, range(2^n).
SpreadTable = tuple[Sequence[int], Sequence[int], Sequence[int], Sequence[complex]]
# Output indices per block of the kernel, ``_apply_tables``.
_BLOCK = 2**14


@dataclass(frozen=True)
class GateElement:
    """An algebra element used as an operator on n qubits, held as its Pauli table."""

    n: int
    paulis: tuple[PauliTerm, ...]

    @property
    def value(self) -> Multivector:
        """The blade form of the table, rebuilt on every read."""
        return paulis_to_blades(self.n, self.paulis)


# Coordinates (a, b, c, d) of a wire operator on (f f^dag, f, f^dag, f^dag f).
Coordinates = tuple[complex, complex, complex, complex]
# A gate as a sum of words; a word holds, per gate wire, its coordinates or
# None for the identity.
Words = tuple[tuple[Coordinates | None, ...], ...]


def wire_coordinates(ctx: WittContext, factor: Multivector, k: int) -> Coordinates:
    """Coordinates (a, b, c, d) of a wire-k operator on (f f^dag, f, f^dag, f^dag f).

    Raises if the factor touches generators outside wire k.
    """
    ctx._check_wire(k)
    e_bit, en_bit = 1 << (k - 1), 1 << (k + ctx.n - 1)
    if any(mask & ~(e_bit | en_bit) for mask in factor.terms):
        raise ValueError(f"factor for wire {k} is supported outside its wire")
    s = factor.coefficient(0)
    u = factor.coefficient(e_bit)
    v = factor.coefficient(en_bit)
    w = factor.coefficient(e_bit | en_bit)
    return (s - 1j * w, u + 1j * v, u - 1j * v, s + 1j * w)


def super_tensor(ctx: WittContext, factors: Sequence[Multivector | None]) -> GateElement:
    """Tensor product of per-wire operators realized inside the algebra.

    ``factors`` has one entry per wire; None means identity.  The result acts
    on every product state exactly as the slot-wise action of the factors.
    """
    if len(factors) != ctx.n:
        raise ValueError(f"expected {ctx.n} factors, got {len(factors)}")
    word = tuple(None if f is None else wire_coordinates(ctx, f, k) for k, f in enumerate(factors, start=1))
    return GateElement(ctx.n, tuple(zip(*_pauli_table(ctx.n, range(1, ctx.n + 1), (word,)))))


def ketbra(ctx: WittContext, bits_out, bits_in) -> Multivector:
    """Outer product |bits_out><bits_in| as an algebra element."""
    if len(bits_out) != len(bits_in):
        raise ValueError("bit lists must have equal length")
    ket = basis_state(ctx, bits_out).value
    bra = basis_state(ctx, bits_in).value.dagger()
    return ket * bra


def _wire_paulis(bit: int, coords: Coordinates) -> tuple[tuple[complex, int, int], ...]:
    """A wire operator [[a, b], [c, d]] on index bit ``bit`` as its Pauli parts (p, x, z) in the order I, Z, X, XZ.

    [[a, b], [c, d]] = (a+d)/2 I + (a-d)/2 Z + (b+c)/2 X + (c-b)/2 XZ.
    """
    a, b, c, d = coords
    return (((a + d) / 2, 0, 0), ((a - d) / 2, 0, bit), ((b + c) / 2, bit, 0), ((c - b) / 2, bit, bit))


def _pauli_table(n: int, wires: Sequence[int], words: Words) -> Columns:
    """Sum of the words on ``wires``, each the tensor product of its wire operators, as Pauli-string columns.

    A wire operator is its four ``_wire_paulis``.  A word expands into Pauli
    strings over its wires in ascending order; equal strings are summed in
    order of first appearance and the sums pruned as a ``Multivector`` prunes
    its terms.  A one-wire word (``phase``, ``u2``) takes the same steps with
    no product and no sum.
    """
    if len(words) == 1 and len(wires) == 1 and words[0][0] is not None:
        # One word on one wire: the steps of the loop below, whose four strings
        # are distinct, so each sum is 0j + its one string.  The product with
        # 1 + 0j is kept: it can flip a zero's sign, or turn the part beside an
        # infinite one into nan.  abs(0j + coeff) == abs(coeff): one prune does.
        xs, zs, coeffs = [], [], []
        for p, px, pz in _wire_paulis(1 << (n - wires[0]), words[0][0]):
            coeff = (1 + 0j) * p
            if not abs(coeff) < PRUNE_EPS:
                xs.append(px)
                zs.append(pz)
                coeffs.append(0j + coeff)
        return xs, zs, coeffs
    sums: dict[tuple[int, int], complex] = {}
    for word in words:
        strings = [(0, 0, 1 + 0j)]
        for k, coords in sorted((k, coords) for k, coords in zip(wires, word) if coords is not None):
            paulis = _wire_paulis(1 << (n - k), coords)
            strings = [
                (x ^ px, z ^ pz, coeff * p)
                for x, z, coeff in strings
                for p, px, pz in paulis
                if not abs(coeff * p) < PRUNE_EPS
            ]
        for x, z, coeff in strings:
            # 0j + turns a -0.0 part into +0.0, as the blade product does.
            sums[x, z] = sums.get((x, z), 0j) + coeff
    kept = [(xz, coeff) for xz, coeff in sums.items() if not abs(coeff) < PRUNE_EPS]
    return [x for (x, _), _ in kept], [z for (_, z), _ in kept], [coeff for _, coeff in kept]


def _batches(tables: Iterable[SpreadTable], size: int) -> Iterator[tuple[list[SpreadTable], list[int]]]:
    """The tables' units in order, grouped into batches of (tables, starts).

    A unit is one table on the block of at most ``_BLOCK`` output indices from
    its start.  A batch takes consecutive units while their strings times the
    block width fit in 4 * _BLOCK entries, and always holds at least one.
    Tables are taken from ``tables`` only as the batches need them.
    """
    width = min(size, _BLOCK)
    blocks = range(0, size, _BLOCK)
    batch: list[SpreadTable] = []
    starts: list[int] = []
    rows = 0
    for table in tables:
        t = len(table[3])
        for start in blocks:
            if batch and (rows + t) * width > 4 * _BLOCK:
                yield batch, starts
                batch, starts, rows = [], [], 0
            batch.append(table)
            starts.append(start)
            rows += t
    if batch:
        yield batch, starts


def _apply_tables(tables: Iterable[SpreadTable], state: SpinorState) -> SpinorState:
    """Left multiplication of the state by each table in turn: the kernel of ``apply_all`` and ``run_clifford``.

    Each Pauli string is a signed permutation of the amplitudes,
    out[i] = sum over the table of coeff * (-1)^popcount((i ^ x) & z) * a[i ^ x].
    The gather indices i ^ x and the signed coefficients do not depend on the
    amplitudes, so they are formed once per batch of units (``_batches``): a
    whole circuit of a few hundred strings at n <= 7, a few blocks of one
    gate at n >= 15.  A batch's x masks, z masks and coefficients are read
    into three flat columns and turned into arrays.  Per unit only the
    gather, the product and the sum over the table remain.  The sum runs in
    table order from +0.0, so each amplitude is the same sequence of
    operations as one string at a time.

    Besides the input and output vectors, a run holds one batch: its tables
    and starts, its three columns as lists and as arrays, its source, parity
    and signed coefficients (32 bytes per entry, at most 4 * _BLOCK entries
    unless one unit has more) and one unit's gather.
    """
    ctx, amps = state.ctx, state.amplitudes
    # The caller's reference is its own: dropping this one frees an input the
    # caller passed as a temporary once the first gate is done.
    del state
    size = amps.size
    width = min(size, _BLOCK)
    lane = np.arange(width)
    # Reused by every batch and grown only for a larger one: arrays allocated
    # afresh per batch were returned to the system and faulted in again.
    work = None
    for batch, starts in _batches(tables, size):
        counts = [len(coeffs) for _, _, _, coeffs in batch]
        xs = np.array([m[i] for m, x, _, _ in batch for i in x], np.int64).reshape(-1, 1)
        rows = xs.size
        if work is None or rows > len(work[0]):
            # Free the smaller buffers, and the last batch's views of them, first.
            work = source = parity = signed = terms = None
            work = [np.empty((rows, width), dtype) for dtype in (np.int64, np.int64, complex)]
        source, parity, signed = [w[:rows] for w in work]
        # The output index is start + lane = start ^ lane, as start is a multiple of the width.
        np.bitwise_xor(lane, xs, out=source)
        if width < size:
            source ^= np.array(starts).repeat(counts).reshape(-1, 1)
        zs = np.array([m[i] for m, _, z, _ in batch for i in z], np.int64).reshape(-1, 1)
        np.bitwise_and(source, zs, out=parity)
        # bitwise_count is uint8: take the parity, never 1 - 2 * count.
        odd = (np.bitwise_count(parity) & 1).view(bool)
        # Each entry is coeff * 1.0 or coeff * -1.0, the product itself (not
        # coeff or -coeff, whose zeros may differ in sign).
        coeff = np.array([c for _, _, _, coeffs in batch for c in coeffs], complex).reshape(-1, 1)
        np.copyto(signed, coeff * 1.0)
        np.copyto(signed, coeff * -1.0, where=odd)
        row = 0
        if width == size:
            # One block: each unit is a whole gate, reduced into a new vector
            # (axis 0, no dtype, out or keepdims, initial 0j: positional, as
            # the keywords cost more than the sum of a small gate).
            for t in counts:
                terms = signed[row : row + t]
                terms *= amps[source[row : row + t]]
                amps = np.add.reduce(terms, 0, None, None, False, 0j)
                row += t
        else:
            for start, t in zip(starts, counts):
                if start == 0:
                    out = np.empty_like(amps)
                terms = signed[row : row + t]
                terms *= amps[source[row : row + t]]
                np.add.reduce(terms, axis=0, initial=0j, out=out[start : start + width])
                row += t
                if start + width == size:
                    amps = out
        # Hold one batch at a time: the next is taken from ``tables`` first.
        del batch, starts
    return SpinorState._wrap(ctx, amps)


def run_bytes(n_qubits: int) -> int:
    """Estimated peak memory of `run_clifford`, and of `cliffsim run`, on an n-qubit register.

    A run holds a gate's input and output amplitude vectors (16 * 2^n bytes
    each) and one batch of the kernel's temporaries: the batch's tables and
    their three flat columns (x masks, z masks, coefficients), and its source,
    parity and signed coefficients at 32 bytes per entry, which take a fixed
    few MiB whatever n (2 MiB for a batch of small gates, about 6 MiB for one
    8-string gate).  `cliffsim run --json` writes its output a block at a
    time.  Measured peak-RSS growth per run at n = 16..22 (Python 3.11,
    numpy 2.4) was 2.05-2.8 vectors at n >= 18 and 5.1-5.3 one-MiB vectors
    at n = 16, where the fixed part dominates; `cliffsim run --json` grew by
    6.6 MiB at n = 16 and by 3.2 and 2.3 vectors at n = 18 and 20.  The
    estimate is 4 vectors plus 8 MiB.
    """
    return 4 * 16 * 2**n_qubits + 8 * 2**20


def _element_tables(gates: Iterable[GateElement], n: int) -> Iterator[SpreadTable]:
    """Each gate's ``paulis`` as a spread table, taken as it is needed; ValueError for a gate of another register."""
    identity = range(1 << n)
    for k, g in enumerate(gates):
        if g.n != n:
            raise ValueError(f"gate {k} acts on {g.n} qubits, state has {n}")
        yield identity, [x for x, _, _ in g.paulis], [z for _, z, _ in g.paulis], [coeff for _, _, coeff in g.paulis]


def apply_all(gates: Iterable[GateElement], state: SpinorState) -> SpinorState:
    """Left multiplication of the state by each gate element in turn: ``_apply_tables`` of their ``paulis``.

    Gates are taken from ``gates`` only as the batches need them.
    """
    return _apply_tables(_element_tables(gates, state.ctx.n), state)


def apply(g: GateElement, state: SpinorState) -> SpinorState:
    """Left multiplication of the state by the gate element: ``apply_all`` of one gate."""
    return apply_all((g,), state)


def is_unitary(g: GateElement) -> bool:
    """Checks g^dagger g = 1 and g g^dagger = 1 to ``UNITARY_TOL``."""
    value = g.value
    one = Multivector.scalar(value.dim, 1.0)
    dag = value.dagger()
    return (dag * value).max_coeff_diff(one) <= UNITARY_TOL and (value * dag).max_coeff_diff(one) <= UNITARY_TOL


# -- registry -----------------------------------------------------------------------

P0, F, FDAG, P1 = (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)
_R = 1.0 / math.sqrt(2.0)


def _one_wire(coords: Coordinates) -> Words:
    return ((coords,),)


def _phase(phi: float) -> Words:
    return _one_wire((1, 0, 0, cmath.exp(1j * phi)))


def _controlled(u: Words) -> Words:
    """P0 (x) 1 + P1 (x) U, with the control on the first wire."""
    return ((P0,) + (None,) * len(u[0]),) + tuple((P1,) + word for word in u)


X = _one_wire((0, 1, 1, 0))
Y = _one_wire((0, -1j, 1j, 0))
Z = _one_wire((1, 0, 0, -1))
H = _one_wire((_R, _R, _R, -_R))
SWAP = ((P0, P0), (P1, P1), (FDAG, F), (F, FDAG))
S = _phase(math.pi / 2.0)
CNOT = _controlled(X)
CZ = _controlled(Z)
CCNOT = _controlled(CNOT)
CSWAP = _controlled(SWAP)


def _u2(ar: float, ai: float, br: float, bi: float, cr: float, ci: float, dr: float, di: float) -> Words:
    """[[a, b], [c, d]] from the re/im pairs of a, b, c, d; ValueError unless unitary to UNITARY_TOL."""
    a, b, c, d = complex(ar, ai), complex(br, bi), complex(cr, ci), complex(dr, di)
    try:
        err = max(
            abs(abs(a) ** 2 + abs(c) ** 2 - 1.0),
            abs(abs(b) ** 2 + abs(d) ** 2 - 1.0),
            abs(b.conjugate() * a + d.conjugate() * c),
        )
    except OverflowError:  # an entry too large to square is far from unitary
        err = math.inf
    if not err <= UNITARY_TOL:
        raise ValueError(f"matrix is not unitary (deviation {err:.3e})")
    return _one_wire((a, b, c, d))


@dataclass(frozen=True)
class GateSpec:
    """Arity, parameter count and Witt words of a named gate."""

    wires: int
    params: int
    words: Callable[..., Words]


GATE_SPECS: dict[str, GateSpec] = {
    "x": GateSpec(1, 0, lambda: X),
    "y": GateSpec(1, 0, lambda: Y),
    "z": GateSpec(1, 0, lambda: Z),
    "h": GateSpec(1, 0, lambda: H),
    "s": GateSpec(1, 0, lambda: S),
    "phase": GateSpec(1, 1, _phase),
    "u2": GateSpec(1, 8, _u2),
    "cnot": GateSpec(2, 0, lambda: CNOT),
    "cz": GateSpec(2, 0, lambda: CZ),
    "swap": GateSpec(2, 0, lambda: SWAP),
    "ccnot": GateSpec(3, 0, lambda: CCNOT),
    "cswap": GateSpec(3, 0, lambda: CSWAP),
}

# (name, order) -> the table of a parameterless gate on its own k wires, with
# order[j] the rank of gate wire j, the count of gate wires below it: data,
# not a cache.
_ORDER_TABLES: dict[tuple[str, tuple[int, ...]], Columns] = {
    (name, order): tuple(map(tuple, _pauli_table(spec.wires, [r + 1 for r in order], spec.words())))
    for name, spec in GATE_SPECS.items()
    if not spec.params
    for order in itertools.permutations(range(spec.wires))
}
_MAX_ARITY = max(spec.wires for spec in GATE_SPECS.values())


class GateOpError(ValueError):
    """An invalid gate op; ``index`` is its offending token: 0 for the name, then the wires, then the parameters."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


def gate_spec(name: str) -> GateSpec:
    """The registry entry of ``name``; GateOpError at token 0 if there is none."""
    spec = GATE_SPECS.get(name)
    if spec is None:
        raise GateOpError(f"unknown gate {name!r}", 0)
    return spec


def gate_words(name: str, n: int, wires: Sequence[int], params: Sequence[float]) -> Words:
    """Words of the registry gate ``name`` on ``wires`` of an n-qubit register; GateOpError unless valid."""
    spec = gate_spec(name)
    if len(wires) != spec.wires or len(params) != spec.params:
        raise GateOpError(
            f"gate {name!r} takes {spec.wires} wire(s) and {spec.params} parameter(s), "
            f"got {len(wires)} and {len(params)}",
            0,
        )
    if len(wires) != 1 or type(wires[0]) is not int or not 1 <= wires[0] <= n:  # one int in range passes both loops
        ints = []
        for i, w in enumerate(wires, start=1):
            try:
                ints.append(index(w))
            except TypeError:
                raise GateOpError(f"invalid wire {w!r}", i) from None
            if not 1 <= ints[-1] <= n:
                raise GateOpError(f"wire {w} out of range 1..{n}", i)
        for i, w in enumerate(ints, start=1):
            if w in ints[: i - 1]:
                raise GateOpError(f"gate {name!r} requires distinct wires, got {tuple(wires)}", i)
    first = 1 + len(wires)
    try:
        finite = all(map(math.isfinite, params))
    except (TypeError, OverflowError):  # not a real number, or an integer past every float
        finite = False
    if not finite:
        for i, p in enumerate(params, start=first):
            try:
                finite = math.isfinite(p)
            except (TypeError, OverflowError):
                raise GateOpError(f"invalid parameter {p!r}", i) from None
            if not finite:
                raise GateOpError(f"non-finite parameter {p}", i)
    try:
        return spec.words(*params)
    except ValueError as exc:
        raise GateOpError(str(exc), first) from None


def _order_table(name: str, n: int, wires: Sequence[int], params: Sequence[float]) -> Columns | None:
    """The table of parameterless ``name`` in the order of ``wires``, integers in 1..n, or None.

    Each wire is taken through ``operator.index``, so a numpy integer hits and
    a float or a string misses.  Ranks count the other wires below each wire,
    by comparisons written out per arity up to ``_MAX_ARITY`` = 3; repeated
    wires share a rank, so have no key.
    """
    if len(params) or not 1 <= len(wires) <= _MAX_ARITY:
        return None
    try:
        if len(wires) == 1:
            return _ORDER_TABLES.get((name, (0,))) if 1 <= index(wires[0]) <= n else None
        if len(wires) == 2:
            a, b = wires
            a, b = index(a), index(b)
            return _ORDER_TABLES.get((name, (a > b, b > a))) if 1 <= a <= n and 1 <= b <= n else None
        a, b, c = wires
        a, b, c = index(a), index(b), index(c)
    except TypeError:  # a wire that is not an integer
        return None
    if not (1 <= a <= n and 1 <= b <= n and 1 <= c <= n):
        return None
    return _ORDER_TABLES.get((name, ((a > b) + (a > c), (b > a) + (b > c), (c > a) + (c > b))))


def check_op(name: str, n: int, wires: Sequence[int], params: Sequence[float]) -> None:
    """GateOpError unless ``name`` on ``wires`` is a valid op; ``gate_words`` runs only on an ``_order_table`` miss."""
    if _order_table(name, n, wires, params) is None:
        gate_words(name, n, wires, params)


def _gate_table(name: str, n: int, wires: Sequence[int], params: Sequence[float]) -> SpreadTable:
    """The registry gate ``name`` on ``wires`` of n qubits: the table of their order, read through their spread.

    The one builder of a gate: ``build_gate`` writes its rows, and
    ``run_clifford`` feeds it to the kernel.  The spread maps each relative
    index mask to the register: relative bit j (bit 0 on the highest-numbered
    wire) is the j-th lowest of the wires' index bits, peeled off their union
    t as t & -t.  On an ``_order_table`` miss (``phase``, ``u2`` or a bad op)
    ``gate_words`` checks the op, and ``_pauli_table`` expands its word, one
    word on one wire for every registry gate with parameters, in closed form
    on a wire of its own.
    """
    table = _order_table(name, n, wires, params)
    if table is None:
        table = _pauli_table(1, (1,), gate_words(name, n, wires, params))
    if len(wires) == 1:
        spread = (0, 1 << (n - index(wires[0])))
    elif len(wires) == 2:
        a, b = wires
        t = (1 << (n - index(a))) | (1 << (n - index(b)))
        lo = t & -t
        spread = (0, lo, t ^ lo, t)
    else:
        a, b, c = wires
        t = (1 << (n - index(a))) | (1 << (n - index(b))) | (1 << (n - index(c)))
        lo = t & -t
        mid = (t ^ lo) & -(t ^ lo)
        spread = (0, lo, mid, lo | mid, t ^ lo ^ mid, t ^ mid, t ^ lo, t)
    return spread, *table


def run_clifford(circuit: Circuit, init_bits=None) -> SpinorState:
    """Evaluate the circuit in the Clifford-algebra backend.

    Each op's table comes from ``_gate_table``, the builder behind
    ``build_gate``, and goes straight to ``_apply_tables``, the kernel behind
    ``apply_all``: the run builds no ``GateElement`` and no row.  Tables are
    built as the kernel takes them, so a run holds one batch of tables and its
    columns at a time whatever the circuit's length.
    """
    n = circuit.n_qubits
    ctx = WittContext(n)
    bits = tuple(init_bits) if init_bits is not None else (0,) * n
    tables = (_gate_table(op.name, n, op.wires, op.params) for op in circuit.ops)
    return _apply_tables(tables, basis_state(ctx, bits))


def build_gate(ctx: WittContext, name: str, wires: Sequence[int], params: Sequence[float] = ()) -> GateElement:
    """The registry gate ``name`` on ``wires``: the rows of ``_gate_table``, coefficients kept; GateOpError unless valid."""
    spread, xs, zs, coeffs = _gate_table(name, ctx.n, wires, params)
    rows = [(spread[x], spread[z], coeff) for x, z, coeff in zip(xs, zs, coeffs)]
    return GateElement(ctx.n, tuple(rows))


def gate_from_u2(ctx: WittContext, k: int, matrix) -> GateElement:
    """Wire-k gate from a 2x2 unitary [[a, b], [c, d]]: the registry gate u2 on its re/im pairs."""
    entries = [complex(e) for row in matrix for e in row]
    return build_gate(ctx, "u2", (k,), [x for e in entries for x in (e.real, e.imag)])
