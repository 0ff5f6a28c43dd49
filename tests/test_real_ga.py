"""Real three-generator qubit models, correlator, Bloch identity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffsim.multivector import Multivector
from cliffsim.real_ga import (
    _QI,
    _QJ,
    _QK,
    TensorG3,
    bloch_angles,
    bloch_verify,
    c2_to_g3,
    correlator,
    iso_check,
    pseudoscalar,
    quat_coords,
    quat_encode,
    quat_inner,
    quat_pauli,
    rc_coords,
    rc_encode,
    rc_inner,
    rc_pauli,
    real_idempotent,
    require_real,
    sigma,
    slot_complex_structure,
)

PAULI = {
    1: np.array([[0, 1], [1, 0]], dtype=complex),
    2: np.array([[0, -1j], [1j, 0]], dtype=complex),
    3: np.array([[1, 0], [0, -1]], dtype=complex),
}


def _c2_witt():
    f = Multivector(2, {0b01: 0.5, 0b10: -0.5j})
    fd = Multivector(2, {0b01: 0.5, 0b10: 0.5j})
    return f, fd


class TestQuaternionEncoding:
    def test_basis_images(self):
        assert quat_encode(1, 0).terms == {0: 1 + 0j}
        # |1> -> sigma1 sigma3 = -i sigma2
        assert quat_encode(0, 1).terms == (sigma(1) * sigma(3)).terms

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a, b = complex(*rng.normal(size=2)), complex(*rng.normal(size=2))
            ra, rb = quat_coords(quat_encode(a, b))
            assert abs(ra - a) < 1e-14 and abs(rb - b) < 1e-14

    def test_encoding_is_even(self):
        psi = quat_encode(0.3 + 0.7j, -0.2 + 0.1j)
        assert all(m.bit_count() % 2 == 0 for m in psi.terms)


class TestQuaternionUnits:
    def test_hamilton_relations(self):
        # i^2 = j^2 = k^2 = ijk = -1, exactly
        minus_one = Multivector.scalar(3, -1.0)
        for unit in (_QI, _QJ, _QK):
            assert (unit * unit).terms == minus_one.terms
        assert (_QI * _QJ * _QK).terms == minus_one.terms
        assert (_QI * _QJ).terms == _QK.terms
        assert (_QJ * _QK).terms == _QI.terms
        assert (_QK * _QI).terms == _QJ.terms


class TestQuaternionInner:
    def test_vacuum_norm(self):
        assert quat_inner(quat_encode(1, 0), quat_encode(1, 0)) == 1

    def test_basis_orthogonality(self):
        assert quat_inner(quat_encode(1, 0), quat_encode(0, 1)) == 0

    def test_matches_coordinate_product(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            a1, b1 = complex(*rng.normal(size=2)), complex(*rng.normal(size=2))
            a2, b2 = complex(*rng.normal(size=2)), complex(*rng.normal(size=2))
            lhs = quat_inner(quat_encode(a1, b1), quat_encode(a2, b2))
            rhs = a1.conjugate() * a2 + b1.conjugate() * b2
            assert abs(lhs - rhs) < 1e-12


class TestQuaternionPauli:
    def test_z_fixes_vacuum(self):
        assert quat_pauli(3, quat_encode(1, 0)).terms == {0: 1 + 0j}

    def test_x_flips_vacuum(self):
        assert quat_pauli(1, quat_encode(1, 0)).terms == (sigma(1) * sigma(3)).terms

    def test_matches_matrix_action(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a, b = complex(*rng.normal(size=2)), complex(*rng.normal(size=2))
            for k, m in PAULI.items():
                ea, eb = m @ np.array([a, b])
                ga, gb = quat_coords(quat_pauli(k, quat_encode(a, b)))
                assert abs(ga - ea) < 1e-12 and abs(gb - eb) < 1e-12

    def test_pauli_squares_to_identity(self):
        rng = np.random.default_rng(11)
        a, b = complex(*rng.normal(size=2)), complex(*rng.normal(size=2))
        for k in (1, 2, 3):
            twice = quat_pauli(k, quat_pauli(k, quat_encode(a, b)))
            assert twice.max_coeff_diff(quat_encode(a, b)) < 1e-12

    def test_xy_commutator_is_complex_structure(self):
        # [X, Y] acts as 2i Z on coordinates
        rng = np.random.default_rng(13)
        a, b = complex(*rng.normal(size=2)), complex(*rng.normal(size=2))
        psi = quat_encode(a, b)
        comm = quat_pauli(1, quat_pauli(2, psi)) - quat_pauli(2, quat_pauli(1, psi))
        ca, cb = quat_coords(comm)
        za, zb = 2j * (PAULI[3] @ np.array([a, b]))
        assert abs(ca - za) < 1e-12 and abs(cb - zb) < 1e-12

    def test_commutes_with_complex_structure(self):
        # J psi = psi sigma1 sigma2 commutes with every Pauli action
        rng = np.random.default_rng(17)
        a, b = complex(*rng.normal(size=2)), complex(*rng.normal(size=2))
        psi = quat_encode(a, b)
        s12 = sigma(1) * sigma(2)
        for k in (1, 2, 3):
            lhs = quat_pauli(k, psi * s12)
            rhs = quat_pauli(k, psi) * s12
            assert lhs.max_coeff_diff(rhs) < 1e-12


class TestC2ToG3:
    def test_table_rows(self):
        f, fd = _c2_witt()
        assert c2_to_g3(fd).terms == (0.5 * (sigma(1) + sigma(1) * sigma(3))).terms
        assert c2_to_g3(f).terms == (0.5 * (sigma(1) - sigma(1) * sigma(3))).terms
        assert c2_to_g3(f * fd).terms == real_idempotent().terms
        one = Multivector.scalar(2, 1.0)
        assert c2_to_g3(one).terms == {0: 1 + 0j}
        assert c2_to_g3(1j * one).terms == pseudoscalar().terms
        assert c2_to_g3(1j * f).terms == (0.5 * (sigma(2) * sigma(3) - sigma(2))).terms
        assert c2_to_g3(1j * fd).terms == (0.5 * (sigma(2) * sigma(3) + sigma(2))).terms

    def test_homomorphism_report(self):
        report = iso_check()
        assert report.elements == 16
        assert report.pairs == 256
        assert report.passed
        assert report.max_product_error == 0.0
        assert report.max_dagger_error == 0.0

    def test_images_span_the_real_algebra(self):
        f, fd = _c2_witt()
        one = Multivector.scalar(2, 1.0)
        base = [one, Multivector.basis_vector(2, 1), Multivector.basis_vector(2, 2), Multivector(2, {0b11: 1.0})]
        elems = base + [1j * x for x in base]
        rows = []
        for x in elems:
            img = c2_to_g3(x)
            rows.append([img.coefficient(m).real for m in range(8)])
        assert np.linalg.matrix_rank(np.array(rows)) == 8

    def test_rejects_wrong_dimension(self):
        with pytest.raises(ValueError):
            c2_to_g3(Multivector.scalar(3, 1.0))


class TestRealComplexQubit:
    def test_basis_images(self):
        assert rc_encode(1, 0).terms == real_idempotent().terms
        assert rc_encode(0, 1).terms == (sigma(1) * real_idempotent()).terms

    def test_pauli_x_on_vacuum(self):
        got = rc_pauli(1, rc_encode(1, 0))
        assert got.terms == (sigma(1) * real_idempotent()).terms

    def test_inner_matches_coordinates(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            a1, b1 = complex(*rng.normal(size=2)), complex(*rng.normal(size=2))
            a2, b2 = complex(*rng.normal(size=2)), complex(*rng.normal(size=2))
            lhs = rc_inner(rc_encode(a1, b1), rc_encode(a2, b2))
            rhs = a1.conjugate() * a2 + b1.conjugate() * b2
            assert abs(lhs - rhs) < 1e-12

    def test_pauli_matches_matrix_action(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            a, b = complex(*rng.normal(size=2)), complex(*rng.normal(size=2))
            for k, m in PAULI.items():
                ea, eb = m @ np.array([a, b])
                ga, gb = rc_coords(rc_pauli(k, rc_encode(a, b)))
                assert abs(ga - ea) < 1e-12 and abs(gb - eb) < 1e-12

    def test_agrees_with_transported_spinor(self):
        # encoding equals the isomorphic image of the Witt-basis qubit
        rng = np.random.default_rng(29)
        f, fd = _c2_witt()
        for _ in range(20):
            a, b = complex(*rng.normal(size=2)), complex(*rng.normal(size=2))
            spinor = a * (f * fd) + b * fd
            assert rc_encode(a, b).max_coeff_diff(c2_to_g3(spinor)) < 1e-13

    def test_idempotent_anchoring(self):
        psi = rc_encode(0.6, 0.8j)
        assert (psi * real_idempotent()).max_coeff_diff(psi) < 1e-13


class TestTensorAndCorrelator:
    def test_correlator_two_slots(self):
        e2 = correlator(2)
        assert e2.terms == {(0, 0): 0.5, (0b011, 0b011): -0.5}

    def test_correlator_identifies_complex_structures(self):
        for n in (2, 3):
            en = correlator(n)
            j1 = slot_complex_structure(n, 1)
            for k in range(2, n + 1):
                jk = slot_complex_structure(n, k)
                assert (en * jk).terms == (en * j1).terms

    def test_correlator_idempotent(self):
        for n in (2, 3):
            en = correlator(n)
            assert (en * en).terms == en.terms

    def test_slots_commute(self):
        a = slot_complex_structure(2, 1)
        b = TensorG3.from_slot(2, 2, sigma(1))
        assert (a * b).terms == (b * a).terms

    def test_range_validation(self):
        with pytest.raises(ValueError):
            correlator(1)
        with pytest.raises(ValueError):
            correlator(4)
        with pytest.raises(ValueError):
            TensorG3.from_slot(2, 3, sigma(1))
        for n in (0, 4):
            with pytest.raises(ValueError, match=f"tensor slot count {n} out of range 1..3"):
                TensorG3(n)
        for key in ((0,), (0, 8), (0, -1)):
            with pytest.raises(ValueError, match="bad tensor key"):
                TensorG3(2, {key: 1.0})
        with pytest.raises(ValueError, match="slot elements must have three generators"):
            TensorG3.from_slot(2, 1, Multivector.scalar(2, 1.0))
        with pytest.raises(ValueError, match="slot count mismatch: 2 vs 3"):
            TensorG3.scalar(2, 1.0) * TensorG3.scalar(3, 1.0)

    def test_scalar_arithmetic(self):
        t = TensorG3.scalar(2, 2.0) - TensorG3.scalar(2, 0.5)
        assert t.terms == {(0, 0): 1.5}
        assert (0.5 * t).terms == {(0, 0): 0.75}

    def test_right_scalar_product_equals_left(self):
        t = TensorG3(2, {(1, 0): 0.3, (0, 3): -1.5})
        for s in (0.5, 3, -0.1, 1e-14):
            assert {k: c.hex() for k, c in (t * s).terms.items()} == {k: c.hex() for k, c in (s * t).terms.items()}
        assert (t * 2).terms == {(1, 0): 0.6, (0, 3): -3.0}
        assert (t * 1e-14).terms == {(0, 3): -1.5e-14}  # 3e-15 is pruned

    def test_equality_with_another_type_and_repr(self):
        t = TensorG3(2, {(1, 0): 0.3, (0, 3): -1.5})
        assert t.__eq__(3) is NotImplemented
        assert (t == 3) is False and (t != 3) is True
        assert repr(t) == "<TensorG3 n=2 {(0, 3): -1.5, (1, 0): 0.3}>"
        assert repr(TensorG3(1)) == "<TensorG3 n=1 {}>"

    def test_nan_term_is_kept(self):
        t = TensorG3(2, {(0, 0): 1.0, (1, 2): math.nan, (3, 0): 1e-15})
        assert set(t.terms) == {(0, 0), (1, 2)} and math.isnan(t.terms[1, 2])
        assert t != TensorG3.scalar(2, 1.0) and TensorG3.scalar(2, 1.0) != t
        assert not t.isclose(t)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_non_finite_coefficient_is_never_close(self, data):
        # One NaN or inf, at a drawn position in dict order, among finite terms
        n = data.draw(st.integers(1, 3))
        keys = st.tuples(*[st.integers(0, 7)] * n)
        finite = st.floats(-4, 4, allow_nan=False)
        terms = data.draw(st.dictionaries(keys, finite, max_size=6))
        key, bad = data.draw(keys), data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        items = [(k, c) for k, c in terms.items() if k != key]
        items.insert(data.draw(st.integers(0, len(items))), (key, bad))
        x, y = TensorG3(n, terms), TensorG3(n, dict(items))
        for a, b in ((x, y), (y, x), (y, y)):
            assert not a.isclose(b) and not a.isclose(b, 1e300)
            assert a != b


class TestBloch:
    def test_north_pole(self):
        theta, phi = bloch_angles(1, 0)
        assert theta == 0.0 and phi == 0.0
        assert max(abs(a - b) for a, b in zip(bloch_verify(theta, phi), (0, 0, 1))) < 1e-12

    def test_south_pole(self):
        theta, phi = bloch_angles(0, 1)
        assert abs(theta - math.pi) < 1e-12 and phi == 0.0
        assert max(abs(a - b) for a, b in zip(bloch_verify(theta, phi), (0, 0, -1))) < 1e-12

    def test_equator(self):
        x, y, z = bloch_verify(math.pi / 2, 0.0)
        assert max(abs(a - b) for a, b in zip((x, y, z), (1, 0, 0))) < 1e-12

    def test_grid_identity(self):
        for i in range(5):
            theta = math.pi * i / 4
            for j in range(6):
                phi = math.pi * j / 3
                got = bloch_verify(theta, phi)
                expected = (
                    math.cos(phi) * math.sin(theta),
                    math.sin(phi) * math.sin(theta),
                    math.cos(theta),
                )
                assert max(abs(a - b) for a, b in zip(got, expected)) < 1e-12

    def test_angles_strip_global_phase(self):
        alpha, beta = 0.6, 0.8j
        phase = np.exp(0.77j)
        t1 = bloch_angles(alpha, beta)
        t2 = bloch_angles(alpha * phase, beta * phase)
        assert abs(t1[0] - t2[0]) < 1e-12 and abs(t1[1] - t2[1]) < 1e-12

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            bloch_angles(1, 1)

    def test_verify_consistency_with_angles(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            v /= np.linalg.norm(v)
            theta, phi = bloch_angles(v[0], v[1])
            x, y, z = bloch_verify(theta, phi)
            expected = (
                math.cos(phi) * math.sin(theta),
                math.sin(phi) * math.sin(theta),
                math.cos(theta),
            )
            assert max(abs(a - b) for a, b in zip((x, y, z), expected)) < 1e-12


class TestRealValidation:
    def test_require_real_accepts_real(self):
        require_real(sigma(1) * 2.0)

    def test_require_real_rejects_complex(self):
        with pytest.raises(ValueError):
            require_real(1j * sigma(1))

    @pytest.mark.parametrize("imag", [math.nan, math.inf])
    def test_require_real_rejects_non_finite_imaginary_part(self, imag):
        # behind a real term and a small imaginary one, in either order
        for terms in ({0: 1.0, 0b001: 1e-13j, 0b010: complex(0, imag)}, {0b010: complex(1, imag), 0: 1e-13j}):
            with pytest.raises(ValueError, match="imaginary coefficients up to"):
                require_real(Multivector(3, terms))
        require_real(Multivector(3, {0: 1.0, 0b010: 1e-13j}))
