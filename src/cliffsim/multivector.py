"""Sparse Clifford algebra with complex coefficients over an orthonormal basis.

A basis blade e_{j1}..e_{jr} (ascending generator order) is encoded as a
bitmask with bit j-1 set iff generator e_j occurs; the empty mask is the
scalar blade 1.  A multivector is a map from blade mask to a complex
coefficient, pruned of entries below ``PRUNE_EPS``; a non-finite
coefficient is never pruned.

Every closeness check on algebra elements is ``nan_max(deviations) <= tol``
or its form over two elements, ``x.max_coeff_diff(y) <= tol``.  NaN
propagates through both, so a non-finite coefficient is never close to
anything, itself included (|inf - inf| is NaN).

Sign conventions, per grade-r blade:

* reverse                 (-1)^(r(r-1)/2)
* Hermitian conjugation   reverse sign with complex-conjugated coefficient

The last one fixes the generators (e_j -> e_j), is complex conjugation on
scalars, and makes <x|x> = sum |x_A|^2 nonnegative, since every generator
squares to +1.  Over the complex numbers every nondegenerate quadratic form
is a sum of squares, so the generator count alone fixes the algebra.

``exp_element`` takes only elements whose square is a finite scalar, such as
the gate generators and Bloch rotors, for which its closed form is exact.
"""

from __future__ import annotations

import cmath
from typing import Iterable, Mapping

MAX_GENERATORS = 64
PRUNE_EPS = 1e-14
EQ_TOL = 1e-12
RENDER_DIGITS = 12


def nan_max(values: Iterable[float]) -> float:
    """The largest of ``values`` (0.0 if there are none), or NaN if any is NaN."""
    # Python's max keeps the first of two unordered values: max(0.0, nan) is 0.0.
    worst = 0.0
    for v in values:
        if v != v:
            return v
        if v > worst:
            worst = v
    return worst


def _sign_mask(a: int) -> int:
    """Mask P(a) with sign(a b) = (-1)^popcount(P(a) & b) for every blade b.

    Bit j of the suffix parity P(a) is the parity of the bits of ``a`` above
    j, i.e. of the transpositions that move b's generator j past a's higher
    ones when the concatenated blades are sorted.  Every generator squares to
    +1, so the common ones add no sign.
    """
    p = a >> 1
    s = 1
    while s < a.bit_length():
        p ^= p >> s
        s <<= 1
    return p


def _reverse_sign(mask: int) -> int:
    return -1 if mask.bit_count() % 4 in (2, 3) else 1


class Multivector:
    """Immutable sparse multivector. Do not mutate ``terms`` after creation."""

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms: Mapping[int, complex] | None = None):
        if not 0 <= dim <= MAX_GENERATORS:
            raise ValueError(f"generator count {dim} outside 0..{MAX_GENERATORS}")
        self.dim = dim
        pruned: dict[int, complex] = {}
        if terms:
            limit = 1 << dim
            for mask, coeff in terms.items():
                if not 0 <= mask < limit:
                    raise ValueError(f"blade mask {mask:#x} outside algebra of dim {dim}")
                c = complex(coeff)
                if not abs(c) < PRUNE_EPS:  # keeps NaN, which fails every comparison
                    pruned[mask] = c
        self.terms = pruned

    # -- constructors ------------------------------------------------------

    @classmethod
    def scalar(cls, dim: int, value: complex) -> Multivector:
        return cls(dim, {0: value})

    @classmethod
    def basis_vector(cls, dim: int, j: int) -> Multivector:
        if not 1 <= j <= dim:
            raise ValueError(f"generator index {j} out of range 1..{dim}")
        return cls(dim, {1 << (j - 1): 1.0})

    @classmethod
    def _from_raw(cls, dim: int, terms: dict[int, complex]) -> Multivector:
        mv = cls.__new__(cls)
        mv.dim = dim
        mv.terms = {m: c for m, c in terms.items() if not abs(c) < PRUNE_EPS}
        return mv

    # -- basics ------------------------------------------------------------

    def coefficient(self, mask: int) -> complex:
        return self.terms.get(mask, 0j)

    def _check_compatible(self, other: Multivector) -> None:
        if self.dim != other.dim:
            raise ValueError(f"algebra mismatch: {self.dim} vs {other.dim} generators")

    # -- linear structure ----------------------------------------------------

    def __add__(self, other: Multivector | complex) -> Multivector:
        if isinstance(other, (int, float, complex)):
            other = Multivector.scalar(self.dim, other)
        if not isinstance(other, Multivector):
            return NotImplemented
        self._check_compatible(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0j) + c
        return Multivector._from_raw(self.dim, out)

    __radd__ = __add__

    def __sub__(self, other: Multivector | complex) -> Multivector:
        return self + (-other if isinstance(other, Multivector) else -complex(other))

    def __rsub__(self, other: complex) -> Multivector:
        return (-self) + complex(other)

    def __neg__(self) -> Multivector:
        return Multivector._from_raw(self.dim, {m: -c for m, c in self.terms.items()})

    # -- products ------------------------------------------------------------

    def __mul__(self, other: Multivector | complex) -> Multivector:
        if isinstance(other, (int, float, complex)):
            z = complex(other)
            return Multivector._from_raw(self.dim, {m: c * z for m, c in self.terms.items()})
        if not isinstance(other, Multivector):
            return NotImplemented
        self._check_compatible(other)
        out: dict[int, complex] = {}
        for a, ca in self.terms.items():
            q = _sign_mask(a)
            for b, cb in other.terms.items():
                m = a ^ b
                out[m] = out.get(m, 0j) + ca * cb * (-1 if (q & b).bit_count() & 1 else 1)
        return Multivector._from_raw(self.dim, out)

    def __rmul__(self, other: complex) -> Multivector:
        if isinstance(other, (int, float, complex)):
            return self * other
        return NotImplemented

    def outer(self, other: Multivector) -> Multivector:
        """Outer (wedge) product: blade terms with disjoint generator sets."""
        self._check_compatible(other)
        out: dict[int, complex] = {}
        for a, ca in self.terms.items():
            q = _sign_mask(a)
            for b, cb in other.terms.items():
                if a & b:
                    continue
                m = a ^ b
                out[m] = out.get(m, 0j) + ca * cb * (-1 if (q & b).bit_count() & 1 else 1)
        return Multivector._from_raw(self.dim, out)

    # -- involutions ------------------------------------------------------------

    def reverse(self) -> Multivector:
        return Multivector._from_raw(
            self.dim, {m: c * _reverse_sign(m) for m, c in self.terms.items()}
        )

    def dagger(self) -> Multivector:
        """Hermitian conjugation: conjugated coefficients with reverse signs."""
        return Multivector._from_raw(
            self.dim,
            {m: c.conjugate() * _reverse_sign(m) for m, c in self.terms.items()},
        )

    # -- comparison ------------------------------------------------------------

    def max_coeff_diff(self, other: Multivector) -> float:
        """``nan_max`` of |x_A - y_A| over the blades of both, a missing blade reading 0."""
        self._check_compatible(other)
        x, y = self.terms, other.terms
        return nan_max(abs(x.get(m, 0) - y.get(m, 0)) for m in x.keys() | y.keys())

    # -- rendering ---------------------------------------------------------------

    def render(self) -> str:
        """Readable form: terms sorted by (grade, mask), '(re+imi) e1e2' style."""
        if not self.terms:
            return "0"
        parts = []
        for mask in sorted(self.terms, key=lambda m: (m.bit_count(), m)):
            coeff = _format_complex(self.terms[mask])
            name = _blade_name(mask)
            parts.append(f"({coeff}) {name}".rstrip())
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"<Multivector dim={self.dim} {self.render()}>"


def _blade_name(mask: int) -> str:
    if mask == 0:
        return ""
    names = []
    j = 1
    while mask:
        if mask & 1:
            names.append(f"e{j}")
        mask >>= 1
        j += 1
    return "".join(names)


def _format_complex(c: complex) -> str:
    re, im = c.real, c.imag
    if abs(im) < PRUNE_EPS:
        return f"{re:.{RENDER_DIGITS}g}"
    if abs(re) < PRUNE_EPS:
        return f"{im:.{RENDER_DIGITS}g}i"
    return f"{re:.{RENDER_DIGITS}g}{im:+.{RENDER_DIGITS}g}i"


def hermitian_inner(x: Multivector, y: Multivector) -> complex:
    """Scalar part of x^dagger y: sum_A conj(x_A) y_A, real and nonnegative at x == y.

    The dagger's reverse sign on blade A cancels the sign of A A.
    """
    x._check_compatible(y)
    out = 0j
    for m, cx in x.terms.items():
        cy = y.terms.get(m)
        if cy is not None:
            out += cx.conjugate() * cy
    return out


def exp_element(x: Multivector) -> Multivector:
    """cosh(s) + sinh(s)/s * x for x^2 = s^2 (1 + x when s is 0).

    ``ValueError`` when x^2 has a non-scalar blade or a non-finite scalar.
    """
    x2 = x * x
    if set(x2.terms) - {0}:
        raise ValueError("x*x is not a scalar; exp_element takes only elements with a scalar square")
    w = x2.coefficient(0)
    if not cmath.isfinite(w):
        raise ValueError(f"x*x is not finite: {w!r}")
    one = Multivector.scalar(x.dim, 1.0)
    if w == 0:
        return one + x
    s = cmath.sqrt(w)
    return cmath.cosh(s) * one + (cmath.sinh(s) / s) * x
