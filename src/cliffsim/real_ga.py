"""Qubit models inside the real Euclidean algebra on three generators.

Two encodings of a single qubit are provided:

* the quaternionic one, as an even element a0 + a1 s2s3 + a2 s3s1 + a3 s1s2
  for the amplitude pair (a0 + a3 i, -a2 + a1 i), with Pauli action
  psi -> s_k psi s3;
* the "real complex" one, transported from the two-generator complex algebra
  through the real-algebra isomorphism that sends the imaginary unit to the
  pseudoscalar s1s2s3 and the vacuum idempotent to (1 + s3)/2, with Pauli
  action psi -> s_k psi.

The n-qubit correlator that identifies the per-copy complex structures
lives in the algebra on 3n generators, copy k on generators 3k-2..3k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .multivector import EQ_TOL, Multivector, exp_element, nan_max

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
    """Amplitude pair of a real even element; ``ValueError`` on an odd or imaginary part."""
    if psi.dim != G3:
        raise ValueError(f"expected a dim-3 multivector, got dim {psi.dim}")
    odd = nan_max(abs(c) for m, c in psi.terms.items() if m.bit_count() & 1)
    if not odd <= EQ_TOL:
        raise ValueError(f"element has an odd part up to {odd:.3e}")
    require_real(psi)
    a0 = psi.coefficient(0b000).real
    a1 = psi.coefficient(0b110).real
    a2 = -psi.coefficient(0b101).real
    a3 = psi.coefficient(0b011).real
    return complex(a0, a3), complex(-a2, a1)


def quat_inner(phi: Multivector, psi: Multivector) -> complex:
    """Hermitian product on even elements, complex-valued."""
    prod = phi.reverse() * psi
    re = prod.coefficient(0).real
    im = -(prod * _I_SIGMA3).coefficient(0).real
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
    out = Multivector(G3)
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
    re = 2.0 * prod.coefficient(0).real
    im = -2.0 * (prod * _PSEUDO).coefficient(0).real
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


# -- the n-copy correlator ------------------------------------------------------------


def slot_complex_structure(n: int, k: int) -> Multivector:
    """The blade s1 s2 of copy k among n; right multiplication realizes J_k.

    Copy k holds generators 3k-2..3k of the 3n-generator algebra.  Even
    elements of distinct copies commute, as factors of a tensor product do;
    odd ones anticommute, as in the multiparticle algebra, but no caller
    forms them.
    """
    if not 1 <= n <= 3:
        raise ValueError(f"slot count {n} out of range 1..3")
    if not 1 <= k <= n:
        raise ValueError(f"slot {k} out of range 1..{n}")
    return Multivector(G3 * n, {0b011 << G3 * (k - 1): 1.0})


def correlator(n: int) -> Multivector:
    """Idempotent identifying the complex structures of the n copies."""
    if not 2 <= n <= 3:
        raise ValueError(f"correlator defined for 2..3 slots, got {n}")
    out = Multivector.scalar(G3 * n, 1.0)
    j1 = slot_complex_structure(n, 1)
    for k in range(2, n + 1):
        out = out * (0.5 - 0.5 * (j1 * slot_complex_structure(n, k)))
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
    for name, angle in (("theta", theta), ("phi", phi)):
        if not math.isfinite(angle):
            raise ValueError(f"{name} must be finite, got {angle!r}")
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
