"""Quantum gates as unitary elements of the 2n-generator complex Clifford algebra.

Single-wire operators live in the four-dimensional span of
(f_k f_k^dagger, f_k, f_k^dagger, f_k^dagger f_k); multi-wire gates are
signed super tensor products of such factors, built in Jordan-Wigner form.
Z_j = f_j f_j^dagger - f_j^dagger f_j = i e_j e_{j+n} is a single blade, and
the factor on wire k enters as its even part plus Z_1 ... Z_{k-1} times its
odd part (f_k, f_k^dagger).  These dressed factors on distinct wires commute,
and their product acts on product states exactly like the ordinary tensor
product of the factors.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .multivector import Multivector
from .witt import SpinorState, WittContext, amplitudes_to_state, basis_state, state_to_amplitudes

UNITARY_TOL = 1e-10

__all__ = [
    "GateElement",
    "GateSpec",
    "GATE_SPECS",
    "apply",
    "build_gate",
    "gate_ccnot",
    "gate_cnot",
    "gate_cswap",
    "gate_cz",
    "gate_from_u2",
    "gate_h",
    "gate_identity",
    "gate_phase",
    "gate_swap",
    "gate_x",
    "gate_y",
    "gate_z",
    "is_unitary",
    "ketbra",
    "measure_probabilities",
    "super_tensor",
    "wire_coordinates",
]


@dataclass(frozen=True)
class GateElement:
    """An algebra element used as an operator on n qubits."""

    n: int
    value: Multivector


def _check_support(ctx: WittContext, factor: Multivector, k: int) -> tuple[int, int]:
    """Blade masks of e_k and e_{k+n}.

    Raises if the factor touches generators outside wire k.
    """
    ctx._check_wire(k)
    e_bit = 1 << (k - 1)
    en_bit = 1 << (k + ctx.n - 1)
    if any(mask & ~(e_bit | en_bit) for mask in factor.terms):
        raise ValueError(f"factor for wire {k} is supported outside its wire")
    return e_bit, en_bit


def wire_coordinates(ctx: WittContext, factor: Multivector, k: int) -> tuple[complex, complex, complex, complex]:
    """Coordinates (a, b, c, d) of a wire-k operator on (f f^dag, f, f^dag, f^dag f).

    Raises if the factor touches generators outside wire k.
    """
    e_bit, en_bit = _check_support(ctx, factor, k)
    s = factor.coefficient(0)
    u = factor.coefficient(e_bit)
    v = factor.coefficient(en_bit)
    w = factor.coefficient(e_bit | en_bit)
    return (s - 1j * w, u + 1j * v, u - 1j * v, s + 1j * w)


def _super_words(ctx: WittContext, wire_factors: dict[int, Multivector]) -> Multivector:
    """Product over sorted wires k of even_k + Z_1 ... Z_{k-1} odd_k."""
    sig, n = ctx.signature, ctx.n
    out = ctx.one()
    for k in sorted(wire_factors):
        factor = wire_factors[k]
        _check_support(ctx, factor, k)
        even = Multivector(sig, {m: c for m, c in factor.terms.items() if not m.bit_count() & 1})
        odd = Multivector(sig, {m: c for m, c in factor.terms.items() if m.bit_count() & 1})
        zs = Multivector.blade(sig, [g for j in range(1, k) for g in (j, j + n)], 1j ** (k - 1))
        out = out * (even + zs * odd)
    return out


def super_tensor(ctx: WittContext, factors: Sequence[Multivector | None]) -> GateElement:
    """Tensor product of per-wire operators realized inside the algebra.

    ``factors`` has one entry per wire; None means identity.  The result acts
    on every product state exactly as the slot-wise action of the factors.
    """
    if len(factors) != ctx.n:
        raise ValueError(f"expected {ctx.n} factors, got {len(factors)}")
    present = {k: f for k, f in enumerate(factors, start=1) if f is not None}
    return GateElement(ctx.n, _super_words(ctx, present))


# -- local single-wire operators ------------------------------------------------


def _local_x(ctx: WittContext, k: int) -> Multivector:
    return ctx.fdag(k) + ctx.f(k)


def _local_y(ctx: WittContext, k: int) -> Multivector:
    return 1j * ctx.fdag(k) - 1j * ctx.f(k)


def _local_z(ctx: WittContext, k: int) -> Multivector:
    return ctx.proj0(k) - ctx.proj1(k)


def _local_h(ctx: WittContext, k: int) -> Multivector:
    return (ctx.proj0(k) - ctx.proj1(k) + ctx.f(k) + ctx.fdag(k)) * (1.0 / math.sqrt(2.0))


def _local_phase(ctx: WittContext, k: int, phi: float) -> Multivector:
    return ctx.proj0(k) + cmath.exp(1j * phi) * ctx.proj1(k)


# -- named gates -----------------------------------------------------------------


def gate_identity(ctx: WittContext) -> GateElement:
    return GateElement(ctx.n, ctx.one())


def gate_x(ctx: WittContext, k: int) -> GateElement:
    return GateElement(ctx.n, _super_words(ctx, {k: _local_x(ctx, k)}))


def gate_y(ctx: WittContext, k: int) -> GateElement:
    return GateElement(ctx.n, _super_words(ctx, {k: _local_y(ctx, k)}))


def gate_z(ctx: WittContext, k: int) -> GateElement:
    return GateElement(ctx.n, _super_words(ctx, {k: _local_z(ctx, k)}))


def gate_h(ctx: WittContext, k: int) -> GateElement:
    return GateElement(ctx.n, _super_words(ctx, {k: _local_h(ctx, k)}))


def gate_phase(ctx: WittContext, k: int, phi: float) -> GateElement:
    return GateElement(ctx.n, _super_words(ctx, {k: _local_phase(ctx, k, phi)}))


def check_unitary_2x2(matrix) -> tuple[complex, complex, complex, complex]:
    """Entries (a, b, c, d) of [[a, b], [c, d]]; ValueError unless unitary to UNITARY_TOL."""
    (a, b), (c, d) = matrix
    a, b, c, d = complex(a), complex(b), complex(c), complex(d)
    err = max(
        abs(abs(a) ** 2 + abs(c) ** 2 - 1.0),
        abs(abs(b) ** 2 + abs(d) ** 2 - 1.0),
        abs(b.conjugate() * a + d.conjugate() * c),
    )
    if not err <= UNITARY_TOL:
        raise ValueError(f"matrix is not unitary (deviation {err:.3e})")
    return a, b, c, d


def u2_matrix(params: Sequence[float]) -> list[list[complex]]:
    """[[a, b], [c, d]] from the eight re/im parameters of a u2 line."""
    a, b, c, d = (complex(params[i], params[i + 1]) for i in range(0, 8, 2))
    return [[a, b], [c, d]]


def gate_from_u2(ctx: WittContext, k: int, matrix) -> GateElement:
    """Wire-k gate from a 2x2 unitary [[a, b], [c, d]]."""
    a, b, c, d = check_unitary_2x2(matrix)
    local = a * ctx.proj0(k) + b * ctx.f(k) + c * ctx.fdag(k) + d * ctx.proj1(k)
    return GateElement(ctx.n, _super_words(ctx, {k: local}))


def _check_distinct(ctx: WittContext, wires: Sequence[int]) -> None:
    for w in wires:
        ctx._check_wire(w)
    if len(set(wires)) != len(wires):
        raise ValueError(f"wires must be distinct, got {tuple(wires)}")


def gate_cnot(ctx: WittContext, control: int, target: int) -> GateElement:
    _check_distinct(ctx, (control, target))
    value = _super_words(ctx, {control: ctx.proj0(control)}) + _super_words(
        ctx, {control: ctx.proj1(control), target: _local_x(ctx, target)}
    )
    return GateElement(ctx.n, value)


def gate_cz(ctx: WittContext, control: int, target: int) -> GateElement:
    _check_distinct(ctx, (control, target))
    value = _super_words(ctx, {control: ctx.proj0(control)}) + _super_words(
        ctx, {control: ctx.proj1(control), target: _local_z(ctx, target)}
    )
    return GateElement(ctx.n, value)


def gate_swap(ctx: WittContext, a: int, b: int) -> GateElement:
    _check_distinct(ctx, (a, b))
    value = (
        _super_words(ctx, {a: ctx.proj0(a), b: ctx.proj0(b)})
        + _super_words(ctx, {a: ctx.proj1(a), b: ctx.proj1(b)})
        + _super_words(ctx, {a: ctx.fdag(a), b: ctx.f(b)})
        + _super_words(ctx, {a: ctx.f(a), b: ctx.fdag(b)})
    )
    return GateElement(ctx.n, value)


def gate_ccnot(ctx: WittContext, c1: int, c2: int, target: int) -> GateElement:
    _check_distinct(ctx, (c1, c2, target))
    value = (
        _super_words(ctx, {c1: ctx.proj0(c1)})
        + _super_words(ctx, {c1: ctx.proj1(c1), c2: ctx.proj0(c2)})
        + _super_words(ctx, {c1: ctx.proj1(c1), c2: ctx.proj1(c2), target: _local_x(ctx, target)})
    )
    return GateElement(ctx.n, value)


def gate_cswap(ctx: WittContext, control: int, t1: int, t2: int) -> GateElement:
    _check_distinct(ctx, (control, t1, t2))
    k = control
    value = (
        _super_words(ctx, {k: ctx.proj0(k)})
        + _super_words(ctx, {k: ctx.proj1(k), t1: ctx.proj0(t1), t2: ctx.proj0(t2)})
        + _super_words(ctx, {k: ctx.proj1(k), t1: ctx.proj1(t1), t2: ctx.proj1(t2)})
        + _super_words(ctx, {k: ctx.proj1(k), t1: ctx.fdag(t1), t2: ctx.f(t2)})
        + _super_words(ctx, {k: ctx.proj1(k), t1: ctx.f(t1), t2: ctx.fdag(t2)})
    )
    return GateElement(ctx.n, value)


# -- operator construction from states ------------------------------------------


def ketbra(ctx: WittContext, bits_out, bits_in) -> Multivector:
    """Outer product |bits_out><bits_in| as an algebra element."""
    if len(bits_out) != len(bits_in):
        raise ValueError("bit lists must have equal length")
    ket = basis_state(ctx, bits_out).value
    bra = basis_state(ctx, bits_in).value.dagger()
    return ket * bra


# -- action on states --------------------------------------------------------------


def _pauli_string(mask: int, n: int) -> tuple[int, int, complex]:
    """Action of blade e_A on the amplitudes as (x_mask, z_mask, phase).

    On the basis words, e_j (wire j <= n) flips bit j with sign
    (-1)^(bits of wires < j), i.e. Z_1 ... Z_{j-1} X_j (Jordan-Wigner), and
    e_{j+n} = i (f_j - f_j^dagger) is the same times -i Z_j.  A string
    phase * X^x Z^z applies Z^z first; the blade is its generators composed
    in ascending order, using Z^z1 X^x2 = (-1)^popcount(x2 & z1) X^x2 Z^z1.
    """
    x = z = 0
    phase = 1 + 0j
    for g in range(2 * n):
        if not mask >> g & 1:
            continue
        bit = 1 << (n - 1 - g % n)  # index bit of wire g % n + 1
        gz = ((1 << n) - 1) ^ ((bit << 1) - 1)  # index bits of the wires before it
        gc = 1
        if g >= n:
            gz |= bit
            gc = -1j
        phase *= -gc if (bit & z).bit_count() & 1 else gc
        x ^= bit
        z ^= gz
    return x, z, phase


def apply(g: GateElement, state: SpinorState) -> SpinorState:
    """Left multiplication of the state by the gate element.

    Each blade term of the gate is a signed permutation of the amplitudes,
    out[i] += c * phase * (-1)^popcount((i ^ x) & z) * a[i ^ x].
    """
    if g.n != state.n:
        raise ValueError(f"gate acts on {g.n} qubits, state has {state.n}")
    amps = state.amplitudes
    index = np.arange(amps.size)
    out = np.zeros_like(amps)
    for mask, coeff in g.value.terms.items():
        x, z, phase = _pauli_string(mask, g.n)
        source = index ^ x
        # bitwise_count is uint8: take the parity, never 1 - 2 * count.
        sign = np.where(np.bitwise_count(source & z) & 1, -1.0, 1.0)
        out += (coeff * phase) * sign * amps[source]
    return amplitudes_to_state(state.ctx, out)


def is_unitary(g: GateElement, tol: float = UNITARY_TOL) -> bool:
    """Checks g^dagger g = 1 and g g^dagger = 1."""
    one = Multivector.scalar(g.value.signature, 1.0)
    dag = g.value.dagger()
    return (dag * g.value).isclose(one, tol) and (g.value * dag).isclose(one, tol)


def measure_probabilities(ctx: WittContext, state: SpinorState) -> list[float]:
    """Born-rule probabilities over the computational basis."""
    return [abs(a) ** 2 for a in state_to_amplitudes(ctx, state)]


# -- registry -----------------------------------------------------------------------


@dataclass(frozen=True)
class GateSpec:
    """Arity and builder for a named gate."""

    wires: int
    params: int
    build: Callable[..., GateElement]


def _build_s(ctx: WittContext, k: int) -> GateElement:
    return gate_phase(ctx, k, math.pi / 2.0)


def _build_u2(ctx: WittContext, k: int, *p: float) -> GateElement:
    return gate_from_u2(ctx, k, u2_matrix(p))


GATE_SPECS: dict[str, GateSpec] = {
    "x": GateSpec(1, 0, gate_x),
    "y": GateSpec(1, 0, gate_y),
    "z": GateSpec(1, 0, gate_z),
    "h": GateSpec(1, 0, gate_h),
    "s": GateSpec(1, 0, _build_s),
    "phase": GateSpec(1, 1, gate_phase),
    "u2": GateSpec(1, 8, _build_u2),
    "cnot": GateSpec(2, 0, gate_cnot),
    "cz": GateSpec(2, 0, gate_cz),
    "swap": GateSpec(2, 0, gate_swap),
    "ccnot": GateSpec(3, 0, gate_ccnot),
    "cswap": GateSpec(3, 0, gate_cswap),
}


def build_gate(ctx: WittContext, name: str, wires: Sequence[int], params: Sequence[float] = ()) -> GateElement:
    spec = GATE_SPECS.get(name)
    if spec is None:
        raise ValueError(f"unknown gate {name!r}")
    if len(wires) != spec.wires:
        raise ValueError(f"gate {name!r} takes {spec.wires} wire(s), got {len(wires)}")
    if len(params) != spec.params:
        raise ValueError(f"gate {name!r} takes {spec.params} parameter(s), got {len(params)}")
    return spec.build(ctx, *wires, *params)
