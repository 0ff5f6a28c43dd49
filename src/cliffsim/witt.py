"""Witt basis for the complex Clifford algebra on 2n generators, and its Jordan-Wigner map.

Wire j pairs generators (e_j, e_{j+n}) into the isotropic elements

    f_j        = (e_j - i e_{j+n}) / 2
    f_j^dagger = (e_j + i e_{j+n}) / 2

which square to zero and satisfy f_j f_k^dagger + f_k^dagger f_j = delta_jk.
The primitive idempotent I = f_1 f_1^dagger ... f_n f_n^dagger generates the
left ideal used as the n-qubit state space; its basis states are the words
(f_1^dagger)^{b_1} ... (f_n^dagger)^{b_n} I for bit lists b, MSB first.
A state is held as its 2^n coordinates on these words.

The Jordan-Wigner map is the one bridge between blades and amplitudes: on the
basis words e_w (wire w) acts as Z_1 ... Z_{w-1} X_w and e_{w+n} as the same
times -i Z_w, so every blade is one Pauli string phase * X^x Z^z.
``_pauli_string`` and its inverse ``_blade_mask`` state it in closed form, and
``paulis_to_blades`` turns a table of strings into its blade form.  Every
blade form goes through them: a gate's (``gates.GateElement.value``) and a
state's, the ket A I with A = sum_k a_k X^k (X^k moves I = |0> to |k>);
``SpinorState(ctx, x)`` reads the amplitudes back through them too.

The Witt-basis renderer needs no blade form: ``paulis_coordinates`` and
``ket_coordinates`` read a Pauli table or the amplitudes straight into
coordinates over per-wire words, which ``render_witt`` prints.

All Witt construction coefficients are dyadic, so the identity suites hold
with exact floating-point cancellation.
"""

from __future__ import annotations

import operator

import numpy as np

from .multivector import EQ_TOL, PRUNE_EPS, Multivector

MAX_QUBITS = 32


# -- the Jordan-Wigner map -----------------------------------------------------------


def _wire_bits(m: int, n: int) -> int:
    """Index mask of an n-bit wire mask: bit w - 1 (wire w) becomes bit n - w, and back."""
    return int(f"{m:0{n}b}"[::-1], 2)


def _below(m: int, n: int) -> int:
    """U(m): bit j is the parity of the bits of m below j, for j < n."""
    p = m << 1
    s = 1
    while s < n:
        p ^= p << s
        s <<= 1
    return p & ((1 << n) - 1)


# (-i)^k for k mod 4.
_MINUS_I_POWERS = (1 + 0j, -1j, -1 + 0j, 1j)


def _pauli_string(mask: int, n: int) -> tuple[int, int, complex]:
    """Action of blade e_A on the amplitudes as (x, z, phase): phase * X^x Z^z, Z^z first.

    With a and b the index masks of the e_w and the e_{w+n} in the blade,
    x = a ^ b and z = b ^ U(x): every e_w or e_{w+n} adds Z on the index bits
    above its own, and e_{w+n} adds Z_w.  The phase is ``_blade_mask``'s.
    """
    b = _wire_bits(mask >> n, n)
    x = _wire_bits(mask & ((1 << n) - 1), n) ^ b
    z = b ^ _below(x, n)
    return x, z, _blade_mask(x, z, n)[1]


def _blade_mask(x: int, z: int, n: int) -> tuple[int, complex]:
    """The blade e_A and the phase with e_A = phase * X^x Z^z: the inverse of ``_pauli_string``.

    With b = z ^ U(x) and a = x ^ b, each e_{w+n} brings a factor -i, and
    composing the strings in blade order moves it past the Z of every e_v,
    v > w, before it, hence (-i)^|b| (-1)^popcount(U(a) & b).
    """
    b = z ^ _below(x, n)
    # (-1)^k = (-i)^(2k)
    phase = _MINUS_I_POWERS[(b.bit_count() + 2 * (_below(x ^ b, n) & b).bit_count()) % 4]
    return _wire_bits(x ^ b, n) | _wire_bits(b, n) << n, phase


def paulis_to_blades(n: int, paulis) -> Multivector:
    """The element acting on the amplitudes as the rows (x, z, coeff): X^x Z^z is the blade ``_blade_mask(x, z)`` over its phase."""
    terms = {}
    for x, z, coeff in paulis:
        mask, phase = _blade_mask(x, z, n)
        terms[mask] = coeff * phase.conjugate()
    return Multivector(2 * n, terms)


class WittContext:
    """Witt elements and wire idempotents for an n-qubit register, each formed when asked for."""

    def __init__(self, n: int):
        if not 1 <= n <= MAX_QUBITS:
            raise ValueError(f"qubit count {n} out of range 1..{MAX_QUBITS}")
        self.n = n
        self.dim = 2 * n

    @property
    def idempotent(self) -> Multivector:
        """Primitive idempotent I = f_1 f_1^dagger ... f_n f_n^dagger (2^n blade terms)."""
        idem = self.one()
        for j in range(1, self.n + 1):
            idem = idem * self.proj0(j)
        return idem

    def _check_wire(self, j: int) -> None:
        if not 1 <= j <= self.n:
            raise ValueError(f"wire {j} out of range 1..{self.n}")

    def f(self, j: int) -> Multivector:
        self._check_wire(j)
        return Multivector(self.dim, {1 << (j - 1): 0.5, 1 << (j + self.n - 1): -0.5j})

    def fdag(self, j: int) -> Multivector:
        self._check_wire(j)
        return Multivector(self.dim, {1 << (j - 1): 0.5, 1 << (j + self.n - 1): 0.5j})

    # f f^dagger = (1 + i e_j e_{j+n}) / 2 and f^dagger f = (1 - i e_j e_{j+n}) / 2,
    # with the +0.0 real parts that the products f * fd and fd * f give.
    def proj0(self, j: int) -> Multivector:
        """Wire idempotent f_j f_j^dagger (projects onto bit 0)."""
        self._check_wire(j)
        return Multivector(self.dim, {0: 0.5, 1 << (j - 1) | 1 << (j + self.n - 1): complex(0.0, 0.5)})

    def proj1(self, j: int) -> Multivector:
        """Wire idempotent f_j^dagger f_j (projects onto bit 1)."""
        self._check_wire(j)
        return Multivector(self.dim, {0: 0.5, 1 << (j - 1) | 1 << (j + self.n - 1): complex(0.0, -0.5)})

    def one(self) -> Multivector:
        return Multivector.scalar(self.dim, 1.0)

    def __repr__(self) -> str:
        return f"WittContext(n={self.n})"


class SpinorState:
    """A state of the spinor ideal, held as its 2^n amplitudes.

    Amplitude k is the coordinate on the basis word
    (f_1^dagger)^{b_1} ... (f_n^dagger)^{b_n} I, b = index_bits(k, n).
    ``SpinorState(ctx, x)`` converts a multivector of the ideal (and rejects
    any other); ``amplitudes_to_state`` and the kernel wrap an amplitude
    vector directly, through ``_wrap``.  The ``amplitudes`` array is read-only.
    """

    __slots__ = ("ctx", "amplitudes")

    def __new__(cls, ctx: WittContext, value: Multivector) -> SpinorState:
        if value.dim != ctx.dim:
            raise ValueError("state multivector does not match context algebra")
        amps = _coordinates(ctx, value)
        if amps is None:
            raise ValueError("multivector is not in the spinor ideal")
        return cls._wrap(ctx, amps)

    @classmethod
    def _wrap(cls, ctx: WittContext, amplitudes: np.ndarray) -> SpinorState:
        """The state over a finished amplitude vector, held without a copy and made read-only."""
        amplitudes.flags.writeable = False
        state = object.__new__(cls)
        object.__setattr__(state, "ctx", ctx)
        object.__setattr__(state, "amplitudes", amplitudes)
        return state

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        """Copy and pickle through ``_wrap``, since ``__new__`` takes a multivector."""
        return SpinorState._wrap, (self.ctx, self.amplitudes.copy())

    @property
    def n(self) -> int:
        return self.ctx.n

    @property
    def value(self) -> Multivector:
        """The ket A I with A = sum_k a_k X^k over the nonzero a_k, rebuilt on every read."""
        return _ket(self.ctx, self.amplitudes)


def _ket(ctx: WittContext, amplitudes: np.ndarray) -> Multivector:
    """A I with A = sum_k a_k X^k over the nonzero amplitudes a_k."""
    rows = [(k, 0, a) for k, a in enumerate(amplitudes.tolist()) if a]
    return paulis_to_blades(ctx.n, rows) * ctx.idempotent


def _coordinates(ctx: WittContext, x: Multivector) -> np.ndarray | None:
    """The amplitudes of x if the ket rebuilt from them is x to ``EQ_TOL`` per blade, else None (x of another algebra too).

    Blade m_k of X^k occurs in basis word k alone, there as 2^-n / phase_k: x I = x is decided without forming x I.
    """
    n = ctx.n
    if x.dim != ctx.dim:
        return None
    masks = (_blade_mask(k, 0, n) for k in range(2**n))
    amps = np.array([(2**n) * phase * x.coefficient(m) for m, phase in masks], dtype=complex)
    return amps if _ket(ctx, amps).max_coeff_diff(x) <= EQ_TOL else None


def basis_state(ctx: WittContext, bits: list[int] | tuple[int, ...]) -> SpinorState:
    """Computational basis state for MSB-first bits, each 0 or 1 by ``operator.index`` (else ``ValueError``)."""
    if len(bits) != ctx.n:
        raise ValueError(f"expected {ctx.n} bits, got {len(bits)}")
    index = 0
    for b in bits:
        try:
            bit = operator.index(b)
        except TypeError:  # a float, a string or None
            bit = None
        if bit not in (0, 1):
            raise ValueError(f"bits must be 0 or 1, got {b!r}")
        index = 2 * index + bit
    amps = np.zeros(2 ** ctx.n, dtype=complex)
    amps[index] = 1.0
    return SpinorState._wrap(ctx, amps)


def index_bits(k: int, n: int) -> tuple[int, ...]:
    """MSB-first bit decomposition of a basis index."""
    return tuple((k >> (n - 1 - i)) & 1 for i in range(n))


def spinor_inner(ctx: WittContext, x: SpinorState, y: SpinorState) -> complex:
    """<x|y>: the Hermitian product of the kets normalized by 2^n, which is the vdot of the amplitudes."""
    if x.ctx.n != ctx.n or y.ctx.n != ctx.n:
        raise ValueError("state qubit count does not match context")
    return complex(np.vdot(x.amplitudes, y.amplitudes))


def is_spinor(ctx: WittContext, x: Multivector) -> bool:
    """True iff x lies in the ideal: ``_coordinates`` reads it back."""
    return _coordinates(ctx, x) is not None


def state_to_amplitudes(ctx: WittContext, x: SpinorState) -> list[complex]:
    """Components against the orthonormal basis, index ascending (MSB first)."""
    if x.n != ctx.n:
        raise ValueError("state qubit count does not match context")
    return x.amplitudes.tolist()


def amplitudes_to_state(ctx: WittContext, amplitudes) -> SpinorState:
    """Inverse of state_to_amplitudes; copies the amplitudes."""
    vec = np.array(amplitudes, dtype=complex)
    if vec.shape != (2 ** ctx.n,):
        raise ValueError(f"expected {2 ** ctx.n} amplitudes, got shape {vec.shape}")
    return SpinorState._wrap(ctx, vec)


# -- Witt-basis rendering -----------------------------------------------------

# Per-wire word codes: 0 -> 1, 1 -> f_k, 2 -> f_k^dagger, 3 -> f_k^dagger f_k.
_WORD_NAMES = ("", "f{k}", "f{k}†", "f{k}†f{k}")
# A Pauli string on one wire as (code, factor) words, by the wire's bits of
# (x, z ^ U(x)): 1, f + f^dagger, f^dagger - f or 1 - 2 f^dagger f.
_PAULI_WORDS = {(0, 0): ((0, 1),), (1, 0): ((1, 1), (2, 1)), (1, 1): ((1, -1), (2, 1)), (0, 1): ((0, 1), (3, -2))}
# A basis word on one wire, by the wire's bit of k: 1 - f^dagger f or f^dagger.
_KET_WORDS = (((0, 1), (3, -1)), ((2, 1),))


def _expand(terms) -> dict[tuple[int, ...], complex]:
    """Coordinates, keyed by per-wire codes, of the terms (coeff, wires): coeff times each wire's (code, factor) words in wire order."""
    out: dict[tuple[int, ...], complex] = {}
    for coeff, wires in terms:
        words = [((), coeff)]
        for local in wires:
            words = [(codes + (code,), c * factor) for codes, c in words for code, factor in local]
        for codes, c in words:
            out[codes] = out.get(codes, 0j) + c
    return {codes: c for codes, c in out.items() if not abs(c) < PRUNE_EPS}


def paulis_coordinates(n: int, paulis) -> dict[tuple[int, ...], complex]:
    """Witt coordinates of the element acting on the amplitudes as the rows (x, z, coeff).

    No sign enters: a blade's regrouping sign (-1)^popcount(U(a) & b) cancels
    the same factor of its phase, and i e_{w+n} absorbs the (-i)^|b|.
    """
    terms = []
    for x, z, coeff in paulis:
        b = z ^ _below(x, n)
        terms.append((coeff, [_PAULI_WORDS[x >> i & 1, b >> i & 1] for i in range(n - 1, -1, -1)]))
    return _expand(terms)


def paulis_word_count(n: int, paulis) -> int:
    """Words that ``paulis_coordinates`` forms before like words merge: the sum over rows of 2^popcount(x | z ^ U(x))."""
    return sum(1 << (x | (z ^ _below(x, n))).bit_count() for x, z, _ in paulis)


def ket_coordinates(state: SpinorState) -> dict[tuple[int, ...], complex]:
    """Witt coordinates of the ket: each a_k times its basis word, where |a_k| 2^-n passes the blade form's prune."""
    n = state.n
    return _expand(
        (a, [_KET_WORDS[k >> i & 1] for i in range(n - 1, -1, -1)])
        for k, a in enumerate(state.amplitudes.tolist())
        if not abs(a) * 2.0**-n < PRUNE_EPS
    )


def render_witt(coords: dict[tuple[int, ...], complex]) -> str:
    """Render Witt coordinates as a sum of words in f_j, f_j^dagger: fewest wires first, then by wires and codes."""

    def _order(cs: tuple[int, ...]):
        occupied = tuple(k for k, c in enumerate(cs) if c)
        return (len(occupied), occupied, cs)

    pieces = []
    for i, codes in enumerate(sorted(coords, key=_order)):
        c = coords[codes]
        word = " ".join(_WORD_NAMES[code].format(k=k) for k, code in enumerate(codes, start=1) if code) or "1"
        if abs(c.imag) < PRUNE_EPS and c.real < 0:
            lead = "- " if i == 0 else " - "
            pieces.append(lead + _coeff_str(-c.real, word))
        else:
            lead = "" if i == 0 else " + "
            if abs(c.imag) < PRUNE_EPS:
                pieces.append(lead + _coeff_str(c.real, word))
            else:
                pieces.append(f"{lead}({_cplx_str(c)}) {word}")
    return "".join(pieces) or "0"


def _coeff_str(r: float, word: str) -> str:
    if abs(r - 1.0) < PRUNE_EPS and word != "1":
        return word
    if word == "1":
        return f"{r:.10g}"
    return f"{r:.10g} {word}"


def _cplx_str(c: complex) -> str:
    if abs(c.real) < PRUNE_EPS:
        return f"{c.imag:.10g}i"
    return f"{c.real:.10g}{c.imag:+.10g}i"
