"""Sparse Clifford algebra kernel: products, involutions, inner product."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffsim.multivector import (
    EQ_TOL,
    Multivector,
    _reverse_sign,
    exp_element,
    hermitian_inner,
    max_abs_diff,
    nan_max,
)


def random_multivector(rng, dim, nterms=6):
    terms = {}
    for _ in range(nterms):
        mask = int(rng.integers(0, 1 << dim))
        terms[mask] = complex(rng.normal(), rng.normal())
    return Multivector(dim, terms)


# Sparse multivectors with Gaussian-integer coefficients on 0..7 generators:
# every product and sum stays exact, so the algebra laws hold term for term.
dims = st.integers(0, 7)


def sparse_multivectors(dim):
    masks = st.integers(0, (1 << dim) - 1)
    coeffs = st.builds(complex, st.integers(-3, 3), st.integers(-3, 3))
    return st.dictionaries(masks, coeffs, max_size=6).map(lambda terms: Multivector(dim, terms))


NON_FINITE = [
    math.nan, -math.nan, math.inf, -math.inf, complex(0, math.nan), complex(1, -math.inf), complex(math.inf, math.nan)
]


@st.composite
def with_one_non_finite(draw, terms, keys):
    """``terms`` with one key set to a non-finite coefficient, placed at a drawn position in dict order."""
    key, bad = draw(keys), draw(st.sampled_from(NON_FINITE))
    items = [(k, c) for k, c in terms.items() if k != key]
    items.insert(draw(st.integers(0, len(items))), (key, bad))
    return dict(items)


class TestBladeProduct:
    def test_generator_squares_to_one(self):
        assert _blade_product(0b1, 0b1, 1) == (1, 0)

    def test_distinct_generators_anticommute(self):
        assert _blade_product(0b10, 0b01, 2) == (-1, 0b11)
        assert _blade_product(0b01, 0b10, 2) == (1, 0b11)

    def test_two_blades_with_common_generator(self):
        # e1e2 * e2e3 = e1 (e2 e2) e3 = e1e3, expanded by hand
        assert _blade_product(0b011, 0b110, 3) == (1, 0b101)

    def test_self_product_is_reverse_sign(self):
        # e_A e_A equals the reverse sign of A for every blade on up to 8
        # generators, so the dagger's sign cancels it in hermitian_inner.
        for m in range(1 << 8):
            assert _blade_product(m, m, 8) == (_reverse_sign(m), 0), m

    @pytest.mark.parametrize("dim", [1, 2, 3, 7, 16, 33, 40, 63, 64])
    def test_matches_brute_force_sign(self, dim):
        rng = random.Random(dim)
        full = (1 << dim) - 1
        pairs = [(full, full), (1 << (dim - 1), 1), (1, 1 << (dim - 1))]
        pairs += [(rng.getrandbits(dim), rng.getrandbits(dim)) for _ in range(200)]
        for a, b in pairs:
            assert _blade_product(a, b, dim) == (_brute_force_sign(a, b, dim), a ^ b), (a, b)


def _blade_product(a, b, dim):
    """(coefficient, mask) of the one term of e_a e_b, as a product of one-blade multivectors."""
    [(mask, coeff)] = (Multivector(dim, {a: 1.0}) * Multivector(dim, {b: 1.0})).terms.items()
    return coeff, mask


def _brute_force_sign(a, b, dim):
    """Sign of a b from sorting the concatenated generator lists by swaps."""
    gens = [j for j in range(1, dim + 1) if a >> (j - 1) & 1]
    gens += [j for j in range(1, dim + 1) if b >> (j - 1) & 1]
    inversions = sum(1 for i, x in enumerate(gens) for y in gens[i + 1 :] if x > y)
    return (-1) ** inversions


class TestGeometricProduct:
    def test_nilpotent_combination(self):
        one = Multivector.scalar(3, 1.0)
        e1 = Multivector.basis_vector(3, 1)
        prod = (one + e1) * (one - e1)
        assert prod.terms == {}

    def test_witt_pair_product_has_scalar_half(self):
        f = Multivector(2, {0b01: 0.5, 0b10: -0.5j})
        fd = Multivector(2, {0b01: 0.5, 0b10: 0.5j})
        prod = f * fd
        assert prod.coefficient(0) == 0.5
        assert prod.terms == (Multivector.scalar(2, 0.5) + f.outer(fd)).terms

    def test_vector_product_is_blade(self):
        e1 = Multivector.basis_vector(3, 1)
        e2 = Multivector.basis_vector(3, 2)
        assert (e1 * e2).terms == {0b11: 1 + 0j}

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            Multivector.scalar(2, 1.0) * Multivector.scalar(3, 1.0)


class TestOuterProduct:
    def test_self_wedge_vanishes(self):
        e1 = Multivector.basis_vector(3, 1)
        assert e1.outer(e1).terms == {}

    def test_wedge_of_generators(self):
        e1 = Multivector.basis_vector(3, 1)
        e2 = Multivector.basis_vector(3, 2)
        assert e1.outer(e2).terms == {0b11: 1 + 0j}

    def test_bilinear_expansion(self):
        # (e1+e2) ^ (e1-e2) = -2 e1e2, expanded by hand
        e1 = Multivector.basis_vector(3, 1)
        e2 = Multivector.basis_vector(3, 2)
        assert (e1 + e2).outer(e1 - e2).terms == {0b11: -2 + 0j}


class TestInvolutions:
    def test_reverse_signs(self):
        assert Multivector(3, {0b11: 1.0}).reverse().terms == {0b11: -1 + 0j}
        assert Multivector.basis_vector(3, 1).reverse().terms == {0b01: 1 + 0j}
        assert Multivector(3, {0b111: 1.0}).reverse().terms == {0b111: -1 + 0j}


class TestHermitianConjugation:
    def test_scalar_conjugation(self):
        x = Multivector.scalar(3, 1j)
        assert x.dagger().terms == {0: -1j}

    def test_maps_witt_element_to_its_dual(self):
        f = Multivector(2, {0b01: 0.5, 0b10: -0.5j})
        fd = Multivector(2, {0b01: 0.5, 0b10: 0.5j})
        assert f.dagger().terms == fd.terms
        assert fd.dagger().terms == f.terms

    def test_conjugate_linearity(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            z = complex(rng.normal(), rng.normal())
            x = random_multivector(rng, 4)
            lhs = (z * x).dagger()
            rhs = z.conjugate() * x.dagger()
            assert lhs.max_coeff_diff(rhs) < 1e-12

    def test_antiautomorphism_and_involution(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            x = random_multivector(rng, 4)
            y = random_multivector(rng, 4)
            assert (x * y).dagger().max_coeff_diff(y.dagger() * x.dagger()) < 1e-12
            assert x.dagger().dagger().terms == x.terms
            assert (x * y).reverse().max_coeff_diff(y.reverse() * x.reverse()) < 1e-12


class TestHermitianInner:
    def test_generator_norm(self):
        e1 = Multivector.basis_vector(3, 1)
        assert hermitian_inner(e1, e1) == 1

    def test_witt_idempotent_norm_is_half(self):
        f = Multivector(2, {0b01: 0.5, 0b10: -0.5j})
        fd = Multivector(2, {0b01: 0.5, 0b10: 0.5j})
        idem = f * fd
        assert hermitian_inner(idem, idem) == 0.5

    def test_equals_coefficient_sum(self):
        rng = np.random.default_rng(19)
        for _ in range(30):
            x = random_multivector(rng, 5)
            expected = sum(abs(c) ** 2 for c in x.terms.values())
            got = hermitian_inner(x, x)
            assert abs(got.imag) < 1e-12
            assert abs(got.real - expected) < 1e-12

    def test_matches_dagger_product_route(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            x = random_multivector(rng, 4)
            y = random_multivector(rng, 4)
            assert abs(hermitian_inner(x, y) - (x.dagger() * y).coefficient(0)) < 1e-12

    def test_matches_signed_formula_bit_for_bit(self):
        # Reference: the sum with a per-blade sign, reverse(A) times the sign
        # of A A.  That sign is reverse(A) again when all generators square to
        # +1 (TestBladeProduct), so the product is +1 for every blade.
        rng = np.random.default_rng(43)
        for _ in range(200):
            dim = int(rng.integers(0, 7))
            x = random_multivector(rng, dim, nterms=12)
            y = random_multivector(rng, dim, nterms=12)
            ref = 0j
            for m, cx in x.terms.items():
                cy = y.terms.get(m)
                if cy is None:
                    continue
                ref += cx.conjugate() * cy * (_reverse_sign(m) * _reverse_sign(m))
            got = hermitian_inner(x, y)
            assert (got.real.hex(), got.imag.hex()) == (ref.real.hex(), ref.imag.hex()), (x, y)

    def test_sesquilinearity(self):
        rng = np.random.default_rng(29)
        x = random_multivector(rng, 3)
        y = random_multivector(rng, 3)
        z = complex(rng.normal(), rng.normal())
        assert abs(hermitian_inner(z * x, y) - z.conjugate() * hermitian_inner(x, y)) < 1e-12
        assert abs(hermitian_inner(x, z * y) - z * hermitian_inner(x, y)) < 1e-12


class TestAlgebraLaws:
    def test_associativity_randomized(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            dim = int(rng.integers(1, 6))
            x = random_multivector(rng, dim)
            y = random_multivector(rng, dim)
            z = random_multivector(rng, dim)
            assert ((x * y) * z).max_coeff_diff(x * (y * z)) < 1e-12

    def test_distributivity_randomized(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            x = random_multivector(rng, 4)
            y = random_multivector(rng, 4)
            z = random_multivector(rng, 4)
            assert (x * (y + z)).max_coeff_diff(x * y + x * z) < 1e-12

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(st.data())
    def test_associativity_exact(self, data):
        dim = data.draw(dims, label="dim")
        x, y, z = (data.draw(sparse_multivectors(dim), label=name) for name in "xyz")
        assert ((x * y) * z).terms == (x * (y * z)).terms

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(st.data())
    def test_dagger_is_anti_automorphism(self, data):
        dim = data.draw(dims, label="dim")
        x, y = (data.draw(sparse_multivectors(dim), label=name) for name in "xy")
        assert (x * y).dagger().terms == (y.dagger() * x.dagger()).terms

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
    def test_generator_anticommutation(self, dim):
        for i in range(1, dim + 1):
            for j in range(1, dim + 1):
                ei = Multivector.basis_vector(dim, i)
                ej = Multivector.basis_vector(dim, j)
                anti = ei * ej + ej * ei
                expected = {0: 2 + 0j} if i == j else {}
                assert anti.terms == expected

    def test_involutivity_of_unary_ops(self):
        rng = np.random.default_rng(41)
        x = random_multivector(rng, 5)
        for op in ("reverse", "dagger"):
            twice = getattr(getattr(x, op)(), op)()
            assert twice.terms == x.terms


class TestExp:
    def test_exp_of_zero(self):
        zero = Multivector(2)
        assert exp_element(zero).terms == {0: 1 + 0j}

    def test_scalar_exponential(self):
        x = Multivector.scalar(2, 1j * math.pi)
        got = exp_element(x).coefficient(0)
        assert abs(got - (-1)) < 1e-12

    def test_non_scalar_square_raises(self):
        f1 = Multivector(4, {0b0001: 0.5, 0b0100: -0.5j})
        fd1 = Multivector(4, {0b0001: 0.5, 0b0100: 0.5j})
        f2 = Multivector(4, {0b0010: 0.5, 0b1000: -0.5j})
        x = 50.0 * (fd1 * f1) * (f2 + f2.dagger())
        assert set((x * x).terms) - {0}
        with pytest.raises(ValueError, match=r"x\*x is not a scalar"):
            exp_element(x)

    @pytest.mark.parametrize("c", [1e155, math.nan, math.inf])
    def test_non_finite_square_raises(self, c):
        with pytest.raises(ValueError, match=r"x\*x is not finite"):
            exp_element(Multivector(1, {0b1: c}))


class TestDeviation:
    """Every closeness check reads ``nan_max``, which never hides a NaN."""

    def test_nan_max(self):
        assert nan_max([]) == 0.0
        assert nan_max([0.5, 2.0, 1.0]) == 2.0
        assert nan_max([0.0, math.inf]) == math.inf
        for values in ([math.nan, 1.0], [1.0, math.nan], [0.0, math.nan, math.inf], [math.inf, math.nan]):
            assert math.isnan(nan_max(values)), values
            assert not nan_max(values) <= 1.0

    def test_max_abs_diff_reads_missing_keys_as_zero(self):
        assert max_abs_diff({}, {}) == 0.0
        assert max_abs_diff({1: 3 + 4j}, {}) == 5.0
        assert max_abs_diff({1: 1.0, 2: 2.0}, {2: 2.5, 3: -1.5}) == 1.5

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_non_finite_coefficient_is_never_close(self, data):
        dim = data.draw(st.integers(1, 6))
        x = data.draw(sparse_multivectors(dim))
        terms = data.draw(with_one_non_finite(x.terms, st.integers(0, (1 << dim) - 1)))
        bad = Multivector(dim, terms)
        for a, b in ((bad, x), (x, bad), (bad, bad)):
            assert not a.isclose(b) and not a.isclose(b, 1e300)
            assert a != b
            assert not a.max_coeff_diff(b) <= EQ_TOL
        assert math.isnan(bad.max_coeff_diff(bad))
        # |c - y| of a NaN c is NaN unless c has an infinite part, whose modulus is inf
        if any(math.isnan(abs(c)) for c in terms.values()):
            assert math.isnan(bad.max_coeff_diff(x)) and math.isnan(x.max_coeff_diff(bad))

    def test_nan_is_not_equal_to_the_zero_element(self):
        assert Multivector(2, {0: math.nan}) != Multivector(2)
        assert not Multivector(2, {0: math.nan}).isclose(Multivector(2, {0: math.nan}))


class TestHygiene:
    def test_prune_drops_dust(self):
        x = Multivector(2, {0: 1.0, 0b01: 1e-16})
        assert 0b01 not in x.terms

    def test_non_finite_coefficients_kept(self):
        x = Multivector(2, {0: math.nan, 0b01: math.inf, 0b10: 1e-16})
        assert set(x.terms) == {0, 0b01}
        # sums, negation and scalar products prune through the raw constructor
        assert math.isnan((Multivector.scalar(2, math.inf) - Multivector.scalar(2, math.inf)).terms[0].real)
        assert set((x * 2.0).terms) == {0, 0b01}
        assert set((-x).terms) == {0, 0b01}

    def test_equality_tolerance(self):
        x = Multivector.scalar(2, 1.0)
        y = Multivector.scalar(2, 1.0 + EQ_TOL / 10)
        assert x == y
        z = Multivector.scalar(2, 1.0 + 1e-9)
        assert x != z

    def test_mask_out_of_range(self):
        with pytest.raises(ValueError):
            Multivector(2, {0b100: 1.0})
        for j in (0, 3):
            with pytest.raises(ValueError, match=f"generator index {j} out of range 1..2"):
                Multivector.basis_vector(2, j)

    def test_generator_count_validation(self):
        assert Multivector.scalar(64, 1.0).dim == 64
        with pytest.raises(ValueError):
            Multivector(-1)
        with pytest.raises(ValueError):
            Multivector(65)

    def test_render_sorted_by_grade(self):
        x = Multivector(3, {0b11: 1.0, 0: 0.5, 0b100: 2.0})
        assert x.render() == "(0.5) + (2) e3 + (1) e1e2"


def _hex_terms(x):
    """Each coefficient of x as the float.hex of its real and imaginary parts."""
    return {m: (c.real.hex(), c.imag.hex()) for m, c in x.terms.items()}


class TestScalarOperands:
    """A number beside a multivector is that multiple of the scalar blade; any other operand is refused."""

    X = Multivector(2, {0: 1.5, 0b01: 2j, 0b11: -0.25})

    def test_add_and_subtract_a_number(self):
        shifted = {0: (4.5).hex(), 0b01: (0.0).hex(), 0b11: (-0.25).hex()}
        for y in (self.X + 3, 3 + self.X):
            assert y.terms == {0: 4.5 + 0j, 0b01: 2j, 0b11: -0.25 + 0j}
            assert {m: re for m, (re, _) in _hex_terms(y).items()} == shifted
        assert _hex_terms(self.X - 1.0) == {
            0: ((0.5).hex(), (0.0).hex()),
            0b01: ((0.0).hex(), (2.0).hex()),
            0b11: ((-0.25).hex(), (0.0).hex()),
        }
        # 2 - x is (-x) + 2: negation flips the zero parts' signs too
        assert _hex_terms(2 - self.X) == {
            0: ((0.5).hex(), (0.0).hex()),
            0b01: ((-0.0).hex(), (-2.0).hex()),
            0b11: ((0.25).hex(), (-0.0).hex()),
        }
        assert (self.X + 2j).terms == {0: 1.5 + 2j, 0b01: 2j, 0b11: -0.25 + 0j}

    def test_divide_by_a_number(self):
        # x / s is x * (1 / s)
        assert (self.X / 2).terms == {0: 0.75 + 0j, 0b01: 1j, 0b11: -0.125 + 0j}
        assert _hex_terms(self.X / 4j) == _hex_terms(self.X * (1.0 / 4j))
        assert (self.X / 4j).terms == {0: -0.375j, 0b01: 0.5 + 0j, 0b11: 0.0625j}

    def test_other_operands_are_not_implemented(self):
        assert self.X.__add__("a") is NotImplemented
        assert self.X.__mul__(None) is NotImplemented
        assert self.X.__rmul__(None) is NotImplemented
        assert self.X.__eq__(3) is NotImplemented
        assert (self.X == 3) is False and (self.X != 3) is True
        for bad in (lambda: self.X + "a", lambda: self.X * None, lambda: None * self.X):
            with pytest.raises(TypeError):
                bad()

    def test_render_and_repr(self):
        assert Multivector(2).render() == "0"
        assert repr(Multivector(2)) == "<Multivector dim=2 0>"
        assert repr(self.X) == "<Multivector dim=2 (1.5) + (2i) e1 + (-0.25) e1e2>"
