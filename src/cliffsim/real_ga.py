"""Qubit models inside the real Euclidean algebra on three generators.

Two encodings of a single qubit are provided:

* the quaternionic one, as an even element a0 + a1 s2s3 + a2 s3s1 + a3 s1s2
  for the amplitude pair (a0 + a3 i, -a2 + a1 i), with Pauli action
  psi -> s_k psi s3;
* the "real complex" one, transported from the two-generator complex algebra
  through the real-algebra isomorphism that sends the imaginary unit to the
  pseudoscalar s1s2s3 and the vacuum idempotent to (1 + s3)/2, with Pauli
  action psi -> s_k psi.

A small formal tensor type over copies of the algebra carries the n-qubit
correlator that identifies the per-copy complex structures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .multivector import EQ_TOL, PRUNE_EPS, Multivector, blade_product, exp_element, max_abs_diff, nan_max

G3 = 3

_S3 = Multivector.basis_vector(G3, 3)
_PSEUDO = Multivector(G3, {0b111: 1.0})  # s1 s2 s3, central, squares to -1
_IDEM_R = Multivector(G3, {0b000: 0.5, 0b100: 0.5})  # (1 + s3)/2

_I_SIGMA3 = Multivector(G3, {0b011: 1.0})  # pseudoscalar * s3 = s1 s2

# Quaternion units in the even subalgebra (Hamilton relations, verified in tests).
_QI = Multivector(G3, {0b110: -1.0})  # s3 s2
_QJ = Multivector(G3, {0b101: 1.0})   # s1 s3
_QK = Multivector(G3, {0b011: -1.0})  # s2 s1


def sigma(k: int) -> Multivector:
    """Generator s_k of the three-dimensional Euclidean algebra."""
    return Multivector.basis_vector(G3, k)


def pseudoscalar() -> Multivector:
    return _PSEUDO


def real_idempotent() -> Multivector:
    return _IDEM_R


def require_real(mv: Multivector) -> None:
    """Raise if any coefficient has an imaginary part above ``EQ_TOL``, or a NaN one."""
    worst = nan_max(abs(c.imag) for c in mv.terms.values())
    if not worst <= EQ_TOL:
        raise ValueError(f"element has imaginary coefficients up to {worst:.3e}")


# -- quaternionic qubit -----------------------------------------------------------


def quat_encode(alpha: complex, beta: complex) -> Multivector:
    """Even element for the amplitude pair (a0 + a3 i, -a2 + a1 i)."""
    alpha, beta = complex(alpha), complex(beta)
    a0, a3 = alpha.real, alpha.imag
    a2, a1 = -beta.real, beta.imag
    return Multivector(
        G3, {0b000: a0, 0b110: a1, 0b101: -a2, 0b011: a3}
    )


def quat_coords(psi: Multivector) -> tuple[complex, complex]:
    """Amplitude pair recovered from an even element."""
    require_real(psi)
    a0 = psi.coefficient(0b000).real
    a1 = psi.coefficient(0b110).real
    a2 = -psi.coefficient(0b101).real
    a3 = psi.coefficient(0b011).real
    return complex(a0, a3), complex(-a2, a1)


def quat_inner(phi: Multivector, psi: Multivector) -> complex:
    """Hermitian product on even elements, complex-valued."""
    prod = phi.reverse() * psi
    re = prod.scalar_part().real
    im = -(prod * _I_SIGMA3).scalar_part().real
    return complex(re, im)


def quat_pauli(k: int, psi: Multivector) -> Multivector:
    """Pauli action s_k psi s3 on the even-element encoding."""
    return sigma(k) * psi * _S3


# -- real complex qubit -----------------------------------------------------------

# Images of the Witt-word basis (1, f, f^dagger, f f^dagger) of the
# two-generator complex algebra; the imaginary unit maps to the pseudoscalar.
_C2_IMAGES = (
    Multivector.scalar(G3, 1.0),
    Multivector(G3, {0b001: 0.5, 0b101: -0.5}),
    Multivector(G3, {0b001: 0.5, 0b101: 0.5}),
    _IDEM_R,
)


def c2_to_g3(x: Multivector) -> Multivector:
    """Real-algebra isomorphism from the two-generator complex algebra."""
    if x.dim != 2:
        raise ValueError(f"expected a dim-2 multivector, got dim {x.dim}")
    s = x.coefficient(0b00)
    u = x.coefficient(0b01)
    v = x.coefficient(0b10)
    w = x.coefficient(0b11)
    coords = (s + 1j * w, u + 1j * v, u - 1j * v, -2j * w)
    out = Multivector.zero(G3)
    for c, img in zip(coords, _C2_IMAGES):
        out = out + c.real * img + c.imag * (_PSEUDO * img)
    return out


def rc_encode(alpha: complex, beta: complex) -> Multivector:
    """Idempotent-anchored element for the pair (a0 + a3 i, a1 + a2 i)."""
    alpha, beta = complex(alpha), complex(beta)
    a0, a3 = alpha.real, alpha.imag
    a1, a2 = beta.real, beta.imag
    pre = Multivector(G3, {0b000: a0, 0b001: a1, 0b010: a2, 0b011: a3})
    return pre * _IDEM_R


def rc_inner(phi: Multivector, psi: Multivector) -> complex:
    """Transported Hermitian product (normalized so basis states have norm 1)."""
    prod = phi.reverse() * psi
    re = 2.0 * prod.scalar_part().real
    im = -2.0 * (prod * _PSEUDO).scalar_part().real
    return complex(re, im)


def rc_pauli(k: int, psi: Multivector) -> Multivector:
    """Pauli action s_k psi on the idempotent-anchored encoding."""
    return sigma(k) * psi


def rc_coords(psi: Multivector) -> tuple[complex, complex]:
    """Amplitude pair recovered via the transported product."""
    return (
        rc_inner(rc_encode(1, 0), psi),
        rc_inner(rc_encode(0, 1), psi),
    )


# -- formal tensor powers and the correlator ----------------------------------------


class TensorG3:
    """Formal n-fold tensor product of three-generator algebra elements.

    Terms map an n-tuple of blade masks to a real coefficient; factors in
    distinct slots commute, and slot-wise products follow the algebra.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: dict[tuple[int, ...], float] | None = None):
        if not 1 <= n <= 3:
            raise ValueError(f"tensor slot count {n} out of range 1..3")
        self.n = n
        self.terms: dict[tuple[int, ...], float] = {}
        if terms:
            for key, c in terms.items():
                if len(key) != n or any(not 0 <= m < 8 for m in key):
                    raise ValueError(f"bad tensor key {key!r}")
                if not abs(c) < PRUNE_EPS:
                    self.terms[key] = float(c)

    @classmethod
    def scalar(cls, n: int, value: float) -> TensorG3:
        return cls(n, {(0,) * n: value})

    @classmethod
    def from_slot(cls, n: int, k: int, mv: Multivector) -> TensorG3:
        """Embed a three-generator element into slot k (1-based)."""
        if mv.dim != 3:
            raise ValueError("slot elements must have three generators")
        require_real(mv)
        if not 1 <= k <= n:
            raise ValueError(f"slot {k} out of range 1..{n}")
        terms = {}
        for mask, c in mv.terms.items():
            key = [0] * n
            key[k - 1] = mask
            terms[tuple(key)] = c.real
        return cls(n, terms)

    def __add__(self, other: TensorG3) -> TensorG3:
        self._check(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, 0.0) + c
        return TensorG3(self.n, out)

    def __sub__(self, other: TensorG3) -> TensorG3:
        return self + (-1.0) * other

    def __rmul__(self, scalar: float) -> TensorG3:
        return TensorG3(self.n, {k: scalar * c for k, c in self.terms.items()})

    def __mul__(self, other: TensorG3 | float) -> TensorG3:
        if isinstance(other, (int, float)):
            return TensorG3(self.n, {k: c * other for k, c in self.terms.items()})
        self._check(other)
        out: dict[tuple[int, ...], float] = {}
        for ka, ca in self.terms.items():
            for kb, cb in other.terms.items():
                sign = 1
                key = []
                for ma, mb in zip(ka, kb):
                    s, m = blade_product(ma, mb)
                    sign *= s
                    key.append(m)
                tkey = tuple(key)
                out[tkey] = out.get(tkey, 0.0) + sign * ca * cb
        return TensorG3(self.n, out)

    def _check(self, other: TensorG3) -> None:
        if self.n != other.n:
            raise ValueError(f"slot count mismatch: {self.n} vs {other.n}")

    def isclose(self, other: TensorG3, tol: float = EQ_TOL) -> bool:
        return self.n == other.n and max_abs_diff(self.terms, other.terms) <= tol

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TensorG3):
            return NotImplemented
        return self.isclose(other)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        body = ", ".join(f"{k}: {c:g}" for k, c in sorted(self.terms.items()))
        return f"<TensorG3 n={self.n} {{{body}}}>"


def slot_complex_structure(n: int, k: int) -> TensorG3:
    """The element i s3 placed in slot k; right multiplication realizes J_k."""
    return TensorG3.from_slot(n, k, _I_SIGMA3)


def correlator(n: int) -> TensorG3:
    """Idempotent identifying the complex structures of the n copies."""
    if not 2 <= n <= 3:
        raise ValueError(f"correlator defined for 2..3 slots, got {n}")
    out = TensorG3.scalar(n, 1.0)
    j1 = slot_complex_structure(n, 1)
    for k in range(2, n + 1):
        out = out * (TensorG3.scalar(n, 0.5) - 0.5 * (j1 * slot_complex_structure(n, k)))
    return out


# -- Bloch sphere -------------------------------------------------------------------


def bloch_angles(alpha: complex, beta: complex) -> tuple[float, float]:
    """Spherical angles of a normalized qubit, global phase fixed on alpha."""
    alpha, beta = complex(alpha), complex(beta)
    try:
        norm = abs(alpha) ** 2 + abs(beta) ** 2
    except OverflowError:  # an amplitude too large to square
        norm = math.inf
    if not abs(norm - 1.0) <= 1e-10:  # a NaN norm fails too
        raise ValueError(f"amplitudes not normalized: |a|^2+|b|^2 = {norm!r}")
    if abs(alpha) > 1e-15:
        phase = alpha.conjugate() / abs(alpha)
    else:
        phase = beta.conjugate() / abs(beta)
    a = (alpha * phase).real
    b = beta * phase
    theta = 2.0 * math.atan2(abs(b), a)
    if math.sin(theta) < 1e-12:
        phi = 0.0
    else:
        phi = math.atan2(b.imag, b.real) % (2.0 * math.pi)
    return theta, phi


def bloch_verify(theta: float, phi: float) -> tuple[float, float, float]:
    """Rotate the pole unit by the two Bloch rotations inside the even algebra.

    Returns the rotated axis coordinates, (cos phi sin theta,
    sin phi sin theta, cos theta) for angles from bloch_angles.
    """
    rot = exp_element(_QK * (phi / 2.0)) * exp_element(_QJ * (theta / 2.0))
    v = rot * _QK * rot.reverse()
    require_real(v)
    x = -v.coefficient(0b110).real
    y = v.coefficient(0b101).real
    z = -v.coefficient(0b011).real
    return x, y, z


# -- isomorphism verification --------------------------------------------------------


@dataclass
class IsoReport:
    elements: int
    pairs: int
    max_product_error: float
    max_dagger_error: float
    passed: bool


def iso_check() -> IsoReport:
    """Exhaustive multiplicativity and dagger-transport check of c2_to_g3, to ``EQ_TOL``.

    Uses a 16-element real spanning set of the two-generator complex algebra:
    the four orthonormal blades and the four Witt words, each with and
    without the imaginary unit.
    """
    one = Multivector.scalar(2, 1.0)
    e1 = Multivector.basis_vector(2, 1)
    e2 = Multivector.basis_vector(2, 2)
    e12 = Multivector(2, {0b11: 1.0})
    f = Multivector(2, {0b01: 0.5, 0b10: -0.5j})
    fd = Multivector(2, {0b01: 0.5, 0b10: 0.5j})
    base = [one, e1, e2, e12, f, fd, f * fd, fd * f]
    elems = base + [1j * x for x in base]
    max_prod = nan_max(c2_to_g3(x * y).max_coeff_diff(c2_to_g3(x) * c2_to_g3(y)) for x in elems for y in elems)
    max_dag = nan_max(c2_to_g3(x.dagger()).max_coeff_diff(c2_to_g3(x).reverse()) for x in elems)
    return IsoReport(
        elements=len(elems),
        pairs=len(elems) ** 2,
        max_product_error=max_prod,
        max_dagger_error=max_dag,
        passed=max_prod <= EQ_TOL and max_dag <= EQ_TOL,
    )
