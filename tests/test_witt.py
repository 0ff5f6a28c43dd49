"""Witt basis construction, spinor ideal membership, amplitude extraction."""

import copy
import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffsim.multivector import EQ_TOL, Multivector, hermitian_inner
from cliffsim.witt import (
    SpinorState,
    WittContext,
    _pauli_string,
    amplitudes_to_state,
    basis_state,
    index_bits,
    is_spinor,
    ket_coordinates,
    paulis_coordinates,
    paulis_word_count,
    render_witt,
    spinor_inner,
    state_to_amplitudes,
)


class TestContextConstruction:
    def test_single_wire_elements(self):
        ctx = WittContext(1)
        assert ctx.f(1).terms == {0b01: 0.5 + 0j, 0b10: -0.5j}
        assert ctx.fdag(1).terms == {0b01: 0.5 + 0j, 0b10: 0.5j}
        assert repr(ctx) == "WittContext(n=1)" and repr(WittContext(32)) == "WittContext(n=32)"

    def test_duality_for_single_wire(self):
        ctx = WittContext(1)
        total = ctx.f(1) * ctx.fdag(1) + ctx.fdag(1) * ctx.f(1)
        assert total.terms == {0: 1 + 0j}

    def test_primitive_idempotent_scalar_part(self):
        # product of commuting two-term idempotents, scalar part (1/2)^n
        ctx = WittContext(2)
        expected = ctx.f(1) * ctx.fdag(1) * ctx.f(2) * ctx.fdag(2)
        assert ctx.idempotent.terms == expected.terms
        assert ctx.idempotent.coefficient(0) == 0.25

    def test_qubit_count_range(self):
        with pytest.raises(ValueError):
            WittContext(0)
        with pytest.raises(ValueError):
            WittContext(33)

    def test_wire_range_checks(self):
        ctx = WittContext(2)
        with pytest.raises(ValueError):
            ctx.f(3)
        with pytest.raises(ValueError):
            ctx.proj0(0)


def exact_terms(mv):
    """Terms with both coefficient parts as ``float.hex``, in term order, so that equal means bit-identical."""
    return [(mask, c.real.hex(), c.imag.hex()) for mask, c in mv.terms.items()]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_elements_from_their_formula(n):
    # the two-term closed forms against the products and the conjugation they stand for
    ctx = WittContext(n)
    for j in range(1, n + 1):
        f, fdag = ctx.f(j), ctx.fdag(j)
        assert exact_terms(ctx.proj0(j)) == exact_terms(f * fdag)
        assert exact_terms(ctx.proj1(j)) == exact_terms(fdag * f)
        # equal values: dagger() leaves a -0.0 real part on e_{j+n}, the formula a +0.0
        assert fdag.terms == f.dagger().terms and list(fdag.terms) == list(f.dagger().terms)
    for j in (0, n + 1):
        for element in (ctx.f, ctx.fdag, ctx.proj0, ctx.proj1):
            with pytest.raises(ValueError, match="out of range"):
                element(j)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(st.data())
def test_witt_relations_up_to_32_wires(data):
    # f_j f_k^dagger + f_k^dagger f_j = delta_jk and f_j f_k + f_k f_j = 0 on any register
    n = data.draw(st.integers(1, 32), label="n")
    j = data.draw(st.integers(1, n), label="j")
    k = data.draw(st.integers(1, n), label="k")
    ctx = WittContext(n)
    anti = ctx.f(j) * ctx.fdag(k) + ctx.fdag(k) * ctx.f(j)
    assert anti.terms == ({0: 1 + 0j} if j == k else {})
    assert (ctx.f(j) * ctx.f(k) + ctx.f(k) * ctx.f(j)).terms == {}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
class TestWittIdentities:
    def test_isotropy(self, n):
        ctx = WittContext(n)
        for j in range(1, n + 1):
            assert (ctx.f(j) * ctx.f(j)).terms == {}
            assert (ctx.fdag(j) * ctx.fdag(j)).terms == {}

    def test_grassmann_identities(self, n):
        ctx = WittContext(n)
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                assert (ctx.f(j) * ctx.f(k) + ctx.f(k) * ctx.f(j)).terms == {}
                assert (
                    ctx.fdag(j) * ctx.fdag(k) + ctx.fdag(k) * ctx.fdag(j)
                ).terms == {}

    def test_duality_identities(self, n):
        ctx = WittContext(n)
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                anti = ctx.f(j) * ctx.fdag(k) + ctx.fdag(k) * ctx.f(j)
                assert anti.terms == ({0: 1 + 0j} if j == k else {})

    def test_idempotent_laws(self, n):
        ctx = WittContext(n)
        for j in range(1, n + 1):
            pi, pk = ctx.proj0(j), ctx.proj1(j)
            assert (pi * pi).terms == pi.terms
            assert (pk * pk).terms == pk.terms
            assert pi.dagger().terms == pi.terms
            assert pk.dagger().terms == pk.terms
            assert (pi * pk).terms == {}
            assert (pk * pi).terms == {}
            assert (pi + pk).terms == {0: 1 + 0j}
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                for a in (ctx.proj0(j), ctx.proj1(j)):
                    for b in (ctx.proj0(k), ctx.proj1(k)):
                        assert (a * b).terms == (b * a).terms

    def test_resolution_of_identity(self, n):
        ctx = WittContext(n)
        prod = ctx.one()
        for j in range(1, n + 1):
            prod = prod * (ctx.proj0(j) + ctx.proj1(j))
        assert prod.terms == {0: 1 + 0j}

    def test_annihilation_of_idempotent(self, n):
        ctx = WittContext(n)
        for j in range(1, n + 1):
            assert (ctx.f(j) * ctx.idempotent).terms == {}


class TestBasisStates:
    def test_single_qubit_states(self):
        ctx = WittContext(1)
        assert basis_state(ctx, [0]).value.terms == (ctx.f(1) * ctx.fdag(1)).terms
        assert basis_state(ctx, [1]).value.terms == ctx.fdag(1).terms

    def test_two_qubit_one_one(self):
        ctx = WittContext(2)
        expected = ctx.fdag(1) * ctx.fdag(2) * ctx.idempotent
        assert basis_state(ctx, [1, 1]).value.terms == expected.terms

    def test_bit_validation(self):
        ctx = WittContext(2)
        with pytest.raises(ValueError):
            basis_state(ctx, [0])
        with pytest.raises(ValueError):
            basis_state(ctx, [0, 2])
        for bits, bad in (([1.0, 0], "1.0"), (["1", "0"], "'1'"), ([0, None], "None")):
            with pytest.raises(ValueError, match=re.escape(f"bits must be 0 or 1, got {bad}")):
                basis_state(ctx, bits)


class TestSpinorInner:
    def test_single_qubit_orthonormality(self):
        ctx = WittContext(1)
        zero, one = basis_state(ctx, [0]), basis_state(ctx, [1])
        assert spinor_inner(ctx, zero, one) == 0
        assert spinor_inner(ctx, zero, zero) == 1
        assert spinor_inner(ctx, one, one) == 1

    def test_three_qubit_norm(self):
        ctx = WittContext(3)
        s = basis_state(ctx, [1, 0, 1])
        assert spinor_inner(ctx, s, s) == 1

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_orthonormal_sweep(self, n):
        ctx = WittContext(n)
        states = [basis_state(ctx, index_bits(k, n)) for k in range(2 ** n)]
        for a, sa in enumerate(states):
            for b, sb in enumerate(states):
                got = spinor_inner(ctx, sa, sb)
                assert abs(got - (1.0 if a == b else 0.0)) < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_matches_the_blade_formula(self, n):
        # 2^n times the Hermitian product of the two kets' blade forms, on unit states.
        ctx = WittContext(n)
        vectors = [s.amplitudes for s in seeded_states(n, 600 + n)[:4] if s.amplitudes.any()]
        states = [amplitudes_to_state(ctx, v / np.linalg.norm(v)) for v in vectors]
        for sa in states:
            for sb in states:
                blades = (2**n) * hermitian_inner(sa.value, sb.value)
                assert abs(spinor_inner(ctx, sa, sb) - blades) < 1e-12


class TestIdealMembership:
    def test_idempotent_is_spinor(self):
        ctx = WittContext(1)
        assert is_spinor(ctx, ctx.idempotent)

    def test_annihilator_is_not(self):
        ctx = WittContext(1)
        assert not is_spinor(ctx, ctx.f(1))

    def test_left_multiples_stay_in_ideal(self):
        ctx = WittContext(1)
        assert is_spinor(ctx, ctx.fdag(1) * ctx.idempotent)

    def test_strict_mode_rejects_non_spinor(self):
        ctx = WittContext(1)
        with pytest.raises(ValueError):
            SpinorState(ctx, ctx.f(1))
        SpinorState(ctx, ctx.idempotent)  # fine

    def test_element_of_another_algebra_is_not_spinor(self):
        # A verdict, not the comparison's algebra-mismatch error.
        assert not is_spinor(WittContext(2), Multivector.scalar(6, 1.0))
        assert not is_spinor(WittContext(2), WittContext(3).idempotent)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_verdict_of_the_idempotent_product(self, n):
        # The defining test, x I = x, on kets and on kets with one blade moved by 1e-3.
        ctx = WittContext(n)
        rng = np.random.default_rng(700 + n)
        for _ in range(30):
            x = amplitudes_to_state(ctx, rng.normal(size=2**n) + 1j * rng.normal(size=2**n)).value
            moved = x + Multivector(ctx.dim, {int(rng.integers(4**n)): 1e-3})
            for element, inside in ((x, True), (moved, False)):
                by_product = (element * ctx.idempotent).max_coeff_diff(element) <= EQ_TOL
                assert is_spinor(ctx, element) == by_product == inside

    def test_state_requires_matching_algebra(self):
        ctx = WittContext(1)
        with pytest.raises(ValueError):
            SpinorState(ctx, Multivector.scalar(4, 1.0))
        other = basis_state(WittContext(2), [0, 1])
        with pytest.raises(ValueError, match="state qubit count does not match context"):
            state_to_amplitudes(ctx, other)
        for x, y in ((other, basis_state(ctx, [0])), (basis_state(ctx, [0]), other)):
            with pytest.raises(ValueError, match="state qubit count does not match context"):
                spinor_inner(ctx, x, y)

    @pytest.mark.parametrize("bad", [math.nan, complex(math.nan, 1.0), math.inf, -math.inf])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_non_finite_ket_is_not_spinor(self, n, bad):
        # A NaN or inf on each blade of a ket, on and off the basis words, is never in the ideal.
        ctx = WittContext(n)
        ket = amplitudes_to_state(ctx, np.arange(1, 2**n + 1) * (1 + 0.5j)).value
        for mask in ket.terms:
            x = Multivector(ctx.dim, {**ket.terms, mask: bad})
            assert not is_spinor(ctx, x), mask
            with pytest.raises(ValueError, match="not in the spinor ideal"):
                SpinorState(ctx, x)


class TestAmplitudes:
    def test_zero_state(self):
        ctx = WittContext(1)
        assert state_to_amplitudes(ctx, basis_state(ctx, [0])) == [1, 0]

    def test_general_superposition(self):
        ctx = WittContext(1)
        alpha, beta = 0.3 - 0.4j, 0.2 + 0.5j
        value = alpha * basis_state(ctx, [0]).value + beta * basis_state(ctx, [1]).value
        amps = state_to_amplitudes(ctx, SpinorState(ctx, value))
        assert abs(amps[0] - alpha) < 1e-12 and abs(amps[1] - beta) < 1e-12

    def test_msb_index_placement(self):
        ctx = WittContext(2)
        s = SpinorState(ctx, ctx.fdag(1) * ctx.idempotent)  # |10>
        amps = state_to_amplitudes(ctx, s)
        assert [round(abs(a), 12) for a in amps] == [0, 0, 1, 0]

    def test_round_trip_random(self):
        rng = np.random.default_rng(5)
        for n in (1, 2, 3):
            ctx = WittContext(n)
            v = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
            v /= np.linalg.norm(v)
            back = state_to_amplitudes(ctx, amplitudes_to_state(ctx, list(v)))
            assert max(abs(a - b) for a, b in zip(back, v)) < 1e-12

    def test_amplitudes_are_read_only(self):
        ctx = WittContext(2)
        s = amplitudes_to_state(ctx, [0.6, 0, 0, 0.8])
        with pytest.raises(ValueError):
            s.amplitudes[0] = 1.0
        with pytest.raises(AttributeError):
            s.amplitudes = np.zeros(4, dtype=complex)
        assert state_to_amplitudes(ctx, s) == [0.6, 0, 0, 0.8]

    def test_copy_and_pickle(self):
        ctx = WittContext(2)
        s = basis_state(ctx, (0, 1))
        for copied in (copy.copy(s), copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
            assert copied.n == 2
            assert copied.amplitudes.tobytes() == s.amplitudes.tobytes()
            assert copied.amplitudes is not s.amplitudes
            assert not copied.amplitudes.flags.writeable
            with pytest.raises(AttributeError):
                copied.amplitudes = np.zeros(4, dtype=complex)

    def test_length_validation(self):
        ctx = WittContext(2)
        with pytest.raises(ValueError):
            amplitudes_to_state(ctx, [1, 0])


def witt_coordinates(mv):
    """Witt coordinates of a multivector of the 2n-generator algebra, read from its Pauli table."""
    n = mv.dim // 2
    rows = []
    for mask, coeff in mv.terms.items():
        x, z, phase = _pauli_string(mask, n)
        rows.append((x, z, coeff * phase))
    return paulis_coordinates(n, rows)


class TestWittRendering:
    def test_coordinates_of_x_gate(self):
        ctx = WittContext(1)
        coords = witt_coordinates(ctx.f(1) + ctx.fdag(1))
        assert coords == {(1,): 1 + 0j, (2,): 1 + 0j}

    def test_coordinates_of_idempotent(self):
        ctx = WittContext(1)
        coords = witt_coordinates(ctx.f(1) * ctx.fdag(1))
        assert coords == {(0,): 1 + 0j, (3,): -1 + 0j}

    def test_render_strings(self):
        ctx = WittContext(1)
        assert render_witt(witt_coordinates(ctx.f(1) + ctx.fdag(1))) == "f1 + f1†"
        assert render_witt(witt_coordinates(Multivector(ctx.dim))) == "0"
        z = ctx.proj0(1) - ctx.proj1(1)
        assert render_witt(witt_coordinates(z)) == "1 - 2 f1†f1"

    def test_word_count_is_the_expansion_before_merging(self):
        # one row's words never merge, so the count is the sum of the rows' coordinate counts
        rng = np.random.default_rng(11)
        for n in (1, 2, 3, 5):
            for _ in range(20):
                rows = [(int(rng.integers(2**n)), int(rng.integers(2**n)), complex(rng.normal(), 1.0)) for _ in range(4)]
                count = paulis_word_count(n, rows)
                assert count == sum(len(paulis_coordinates(n, [row])) for row in rows)
                assert count >= len(paulis_coordinates(n, rows))

    def test_round_trip_against_products(self):
        # rebuilding from word coordinates reproduces the element
        rng = np.random.default_rng(9)
        ctx = WittContext(2)
        for _ in range(10):
            terms = {
                int(rng.integers(0, 16)): complex(rng.normal(), rng.normal())
                for _ in range(5)
            }
            mv = Multivector(ctx.dim, terms)
            coords = witt_coordinates(mv)
            rebuilt = Multivector(ctx.dim)
            for codes, c in coords.items():
                word = ctx.one()
                for k, code in enumerate(codes, start=1):
                    factor = {
                        0: ctx.one(),
                        1: ctx.f(k),
                        2: ctx.fdag(k),
                        3: ctx.proj1(k),
                    }[code]
                    word = word * factor
                rebuilt = rebuilt + c * word
            assert rebuilt.max_coeff_diff(mv) < 1e-12


def seeded_states(n, seed):
    """A dense, a sparse, a real and an imaginary state on n qubits, and every basis state."""
    rng = np.random.default_rng(seed)
    dense = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    sparse = dense * (rng.random(2**n) < 0.4)
    vectors = [dense, sparse, dense.real.astype(complex), 1j * dense.imag, *np.eye(2**n, dtype=complex)]
    return [amplitudes_to_state(WittContext(n), v) for v in vectors]


def inversion_witt_coordinates(mv, n):
    """Witt coordinates of a multivector, blade by blade, with the regrouping sign counted inversion by inversion."""
    out = {}
    for mask, coeff in mv.terms.items():
        order = [g for k in range(1, n + 1) for g in (k, k + n) if mask >> (g - 1) & 1]
        sign = (-1) ** sum(1 for i, g in enumerate(order) for s in order[:i] if s > g)
        words = [((), coeff * sign)]
        for k in range(1, n + 1):
            local = {
                (0, 0): {0: 1.0 + 0j},
                (1, 0): {1: 1.0 + 0j, 2: 1.0 + 0j},
                (0, 1): {1: 1j, 2: -1j},
                (1, 1): {0: -1j, 3: 2j},
            }[mask >> (k - 1) & 1, mask >> (k + n - 1) & 1]
            words = [(codes + (code,), c * lc) for codes, c in words for code, lc in local.items()]
        for codes, c in words:
            out[codes] = out.get(codes, 0j) + c
    return {codes: c for codes, c in out.items() if abs(c) > 1e-14}


def hex_terms(mv):
    return {m: (c.real.hex(), c.imag.hex()) for m, c in mv.terms.items()}


class TestJordanWignerBridge:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_value_round_trips_exactly(self, n):
        for s in seeded_states(n, 400 + n):
            assert np.array_equal(SpinorState(s.ctx, s.value).amplitudes, s.amplitudes)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_value_is_the_defining_sum(self, n, ket_by_definition):
        for s in seeded_states(n, 500 + n):
            assert hex_terms(s.value) == hex_terms(ket_by_definition(s.ctx, s.amplitudes))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_regroup_sign_matches_inversion_count(self, n):
        dim = 2 * n
        for mask in range(4**n):
            blade = Multivector(dim, {mask: 1.0})
            assert witt_coordinates(blade) == inversion_witt_coordinates(blade, n), mask

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_ket_coordinates_match_the_blade_form(self, n):
        for s in seeded_states(n, 600 + n):
            coords, reference = ket_coordinates(s), inversion_witt_coordinates(s.value, n)
            assert coords.keys() == reference.keys()
            assert all(abs(c - reference[codes]) < 1e-14 for codes, c in coords.items())
            assert render_witt(coords) == render_witt(reference)

    def test_ket_coordinates_prune_as_the_blade_form(self):
        # |a| 2^-4 is 6.25e-15 for a = 1e-13, below the blade form's prune, and 1.25e-14 for 2e-13.
        ctx = WittContext(4)
        for a, kept in ((1e-13, False), (2e-13, True)):
            s = amplitudes_to_state(ctx, [a] + [0] * 14 + [1])
            coords = ket_coordinates(s)
            assert ((0, 0, 0, 0) in coords) is kept
            assert coords.keys() == inversion_witt_coordinates(s.value, 4).keys()
