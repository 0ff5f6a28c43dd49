"""Gate elements: golden forms, super tensor signs, unitarity, state action."""

import cmath
import dataclasses
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffsim.circuit import Circuit, GateOp, run_clifford
from cliffsim.gates import (
    _BLOCK,
    GATE_SPECS,
    GateElement,
    GateOpError,
    _batches,
    _element_tables,
    _order_table,
    _pauli_table,
    apply,
    apply_all,
    build_gate,
    check_op,
    gate_from_u2,
    gate_identity,
    gate_words,
    is_unitary,
    ketbra,
    measure_probabilities,
    super_tensor,
    wire_coordinates,
)
from cliffsim.matrix_backend import random_circuit, random_unitary_2x2, run_matrix
from cliffsim.multivector import PRUNE_EPS, Multivector, exp_element, hermitian_inner
from cliffsim.witt import (
    WittContext,
    amplitudes_to_state,
    basis_state,
    index_bits,
    spinor_inner,
    state_to_amplitudes,
)


def per_string_apply(g, state):
    """The kernel one string at a time: out[i] += coeff * (-1)^popcount((i ^ x) & z) * a[i ^ x], from zeros."""
    amps = state.amplitudes
    index = np.arange(amps.size)
    out = np.zeros_like(amps)
    for x, z, coeff in g.paulis:
        source = index ^ x
        out += coeff * np.where(np.bitwise_count(source & z) & 1, -1.0, 1.0) * amps[source]
    return out


def chained_per_string_apply(gates, state):
    """``per_string_apply`` of each gate in turn."""
    for g in gates:
        state = amplitudes_to_state(state.ctx, per_string_apply(g, state))
    return state.amplitudes


def random_table(rng, n, size):
    """A seeded table of ``size`` strings, odd ones with exact coefficients (-0.0 and 0 among them)."""
    exact = [1, -1, 1j, -1j, 0.5, -0.5j, complex(-0.0, 0.5), 0]
    return tuple(
        (
            int(rng.integers(0, 2**n)),
            int(rng.integers(0, 2**n)),
            complex(exact[i % 8]) if i % 2 else complex(rng.normal(), rng.normal()),
        )
        for i in range(size)
    )


def random_amplitudes(rng, n):
    """A seeded dense vector with some exact zeros and negative-zero parts among its entries."""
    v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    v[rng.integers(0, 2**n, size=2**n // 4)] = 0j
    v[rng.integers(0, 2**n, size=2**n // 4)] = complex(-0.0, 1.0)
    return v


def random_params(rng, spec):
    """Seeded parameters of a registry gate: an angle for phase, a unitary's re/im pairs for u2."""
    if spec.params == 0:
        return ()
    if spec.params == 1:
        return (float(rng.uniform(0, 2 * math.pi)),)
    u = random_unitary_2x2(rng)
    return tuple(float(x) for e in (u[0, 0], u[0, 1], u[1, 0], u[1, 1]) for x in (e.real, e.imag))


@pytest.fixture
def ctx1():
    return WittContext(1)


@pytest.fixture
def ctx2():
    return WittContext(2)


@pytest.fixture
def ctx3():
    return WittContext(3)


class TestSingleQubitGoldenForms:
    def test_x_equals_first_generator(self, ctx1):
        g = build_gate(ctx1, "x", (1,))
        assert g.value.terms == (ctx1.fdag(1) + ctx1.f(1)).terms
        assert g.value.terms == Multivector.basis_vector(ctx1.dim, 1).terms

    def test_y_equals_minus_second_generator(self, ctx1):
        g = build_gate(ctx1, "y", (1,))
        assert g.value.terms == (1j * ctx1.fdag(1) - 1j * ctx1.f(1)).terms
        assert g.value.terms == (-Multivector.basis_vector(ctx1.dim, 2)).terms

    def test_z_equals_imaginary_bivector(self, ctx1):
        g = build_gate(ctx1, "z", (1,))
        assert g.value.terms == (ctx1.proj0(1) - ctx1.proj1(1)).terms
        e1 = Multivector.basis_vector(ctx1.dim, 1)
        e2 = Multivector.basis_vector(ctx1.dim, 2)
        assert g.value.terms == (1j * e1.outer(e2)).terms

    def test_x_flips_basis_states(self, ctx1):
        g = build_gate(ctx1, "x", (1,))
        assert apply(g, basis_state(ctx1, [0])).value.terms == basis_state(ctx1, [1]).value.terms
        assert apply(g, basis_state(ctx1, [1])).value.terms == basis_state(ctx1, [0]).value.terms

    def test_xz_product(self, ctx1):
        xz = build_gate(ctx1, "x", (1,)).value * build_gate(ctx1, "z", (1,)).value
        assert xz.terms == (ctx1.fdag(1) - ctx1.f(1)).terms
        # Z negates |1>, then X flips it: XZ|1> = -|0>
        flipped = apply(GateElement.from_blades(xz), basis_state(ctx1, [1]))
        assert flipped.value.terms == (-basis_state(ctx1, [0]).value).terms

    def test_involutions(self, ctx1):
        one = {0: 1 + 0j}
        assert (build_gate(ctx1, "x", (1,)).value * build_gate(ctx1, "x", (1,)).value).terms == one
        assert (build_gate(ctx1, "y", (1,)).value * build_gate(ctx1, "y", (1,)).value).terms == one
        assert (build_gate(ctx1, "z", (1,)).value * build_gate(ctx1, "z", (1,)).value).terms == one


class TestPhaseGate:
    def test_zero_angle_is_identity(self, ctx1):
        assert build_gate(ctx1, "phase", (1,), (0.0,)).value.terms == {0: 1 + 0j}

    def test_pi_gives_z(self, ctx1):
        g = build_gate(ctx1, "phase", (1,), (math.pi,))
        assert g.value.max_coeff_diff(build_gate(ctx1, "z", (1,)).value) < 1e-12

    def test_s_squares_to_z(self, ctx1):
        s = build_gate(ctx1, "phase", (1,), (math.pi / 2,))
        assert (s.value * s.value).max_coeff_diff(build_gate(ctx1, "z", (1,)).value) < 1e-12


class TestHadamard:
    def test_witt_and_blade_forms(self, ctx1):
        g = build_gate(ctx1, "h", (1,))
        r = 1.0 / math.sqrt(2.0)
        expected = (ctx1.proj0(1) - ctx1.proj1(1) + ctx1.f(1) + ctx1.fdag(1)) * r
        assert g.value.max_coeff_diff(expected) < 1e-13
        e1 = Multivector.basis_vector(ctx1.dim, 1)
        e2 = Multivector.basis_vector(ctx1.dim, 2)
        assert g.value.max_coeff_diff(r * (e1 + 1j * e1.outer(e2))) < 1e-13

    def test_square_is_identity(self, ctx1):
        h = build_gate(ctx1, "h", (1,)).value
        assert (h * h).max_coeff_diff(ctx1.one()) < 1e-13

    def test_action_on_zero(self, ctx1):
        amps = state_to_amplitudes(ctx1, apply(build_gate(ctx1, "h", (1,)), basis_state(ctx1, [0])))
        r = 1.0 / math.sqrt(2.0)
        assert abs(amps[0] - r) < 1e-13 and abs(amps[1] - r) < 1e-13

    def test_from_exponential(self, ctx1):
        y = build_gate(ctx1, "y", (1,)).value
        h = build_gate(ctx1, "x", (1,)).value * exp_element(-1j * (math.pi / 4.0) * y)
        assert h.max_coeff_diff(build_gate(ctx1, "h", (1,)).value) < 1e-13


class TestU2Correspondence:
    def test_identity_matrix(self, ctx1):
        g = gate_from_u2(ctx1, 1, [[1, 0], [0, 1]])
        assert g.value.terms == {0: 1 + 0j}

    def test_x_matrix(self, ctx1):
        g = gate_from_u2(ctx1, 1, [[0, 1], [1, 0]])
        assert g.value.terms == (ctx1.fdag(1) + ctx1.f(1)).terms

    def test_rejects_non_unitary(self, ctx1):
        with pytest.raises(ValueError):
            gate_from_u2(ctx1, 1, [[1, 0], [0, 2]])

    def test_rejects_non_finite_entry(self, ctx1):
        with pytest.raises(ValueError, match="non-finite parameter nan"):
            gate_from_u2(ctx1, 1, [[math.nan, 0], [0, 1]])

    def test_random_unitaries_give_unitary_elements(self, ctx1):
        rng = np.random.default_rng(101)
        for _ in range(20):
            u = random_unitary_2x2(rng)
            g = gate_from_u2(ctx1, 1, u)
            assert is_unitary(g)
            # action agrees with the matrix on both basis states
            for col in (0, 1):
                state = apply(g, basis_state(ctx1, [col]))
                amps = state_to_amplitudes(ctx1, state)
                assert max(abs(a - b) for a, b in zip(amps, u[:, col])) < 1e-10

    def test_coefficient_conditions(self, ctx1):
        rng = np.random.default_rng(103)
        for _ in range(20):
            u = random_unitary_2x2(rng)
            g = gate_from_u2(ctx1, 1, u)
            a, b, c, d = wire_coordinates(ctx1, g.value, 1)
            assert abs(abs(a) ** 2 + abs(c) ** 2 - 1) < 1e-12
            assert abs(abs(b) ** 2 + abs(d) ** 2 - 1) < 1e-12
            assert abs(b.conjugate() * a + d.conjugate() * c) < 1e-12


class TestKetBra:
    def test_lowering_projector(self, ctx1):
        assert ketbra(ctx1, [0], [1]).terms == ctx1.f(1).terms

    def test_raising_projector(self, ctx1):
        assert ketbra(ctx1, [1], [0]).terms == ctx1.fdag(1).terms

    def test_completeness(self, ctx2):
        total = Multivector.zero(ctx2.dim)
        for k in range(4):
            bits = index_bits(k, 2)
            total = total + ketbra(ctx2, bits, bits)
        assert total.terms == {0: 1 + 0j}

    def test_length_mismatch(self, ctx2):
        with pytest.raises(ValueError):
            ketbra(ctx2, [0, 1], [1])


class TestSuperTensor:
    def test_x_tensor_y_printed_expansion(self, ctx2):
        f1, fd1 = ctx2.f(1), ctx2.fdag(1)
        f2, fd2 = ctx2.f(2), ctx2.fdag(2)
        g = super_tensor(ctx2, [fd1 + f1, 1j * fd2 - 1j * f2])
        expected = 1j * (fd1 * fd2 - fd1 * f2 - f1 * fd2 + f1 * f2)
        assert g.value.terms == expected.terms

    def test_y_tensor_x_printed_expansion(self, ctx2):
        f1, fd1 = ctx2.f(1), ctx2.fdag(1)
        f2, fd2 = ctx2.f(2), ctx2.fdag(2)
        g = super_tensor(ctx2, [1j * fd1 - 1j * f1, fd2 + f2])
        expected = 1j * (fd1 * fd2 + fd1 * f2 + f1 * fd2 + f1 * f2)
        assert g.value.terms == expected.terms

    def test_identity_tensor_x(self, ctx2):
        f2, fd2 = ctx2.f(2), ctx2.fdag(2)
        g = super_tensor(ctx2, [None, fd2 + f2])
        expected = ctx2.proj0(1) * (fd2 + f2) - ctx2.proj1(1) * (fd2 + f2)
        assert g.value.terms == expected.terms

    def test_wrong_factor_count(self, ctx2):
        with pytest.raises(ValueError):
            super_tensor(ctx2, [None])

    def test_factor_outside_wire_rejected(self, ctx2):
        with pytest.raises(ValueError):
            super_tensor(ctx2, [ctx2.f(2), None])

    def test_factor_mixing_wires_rejected(self, ctx2):
        mixed = ctx2.fdag(1) + ctx2.f(2)
        with pytest.raises(ValueError):
            super_tensor(ctx2, [mixed, None])
        with pytest.raises(ValueError):
            super_tensor(ctx2, [None, mixed])
        with pytest.raises(ValueError):
            wire_coordinates(ctx2, mixed, 1)

    @pytest.mark.parametrize("n", [2, 3])
    def test_slotwise_action_oracle(self, n):
        # every choice of basis factors acts like the slot-wise product
        ctx = WittContext(n)
        basis_factors = [
            lambda k: ctx.proj0(k),
            lambda k: ctx.proj1(k),
            lambda k: ctx.f(k),
            lambda k: ctx.fdag(k),
        ]
        for combo in range(4 ** n):
            choices = [(combo >> (2 * k)) & 3 for k in range(n)]
            factors = [basis_factors[c](k + 1) for k, c in enumerate(choices)]
            g = super_tensor(ctx, factors)
            for idx in range(2 ** n):
                bits = index_bits(idx, n)
                state = basis_state(ctx, bits).value
                got = g.value * state
                slotwise = ctx.one()
                for k in range(1, n + 1):
                    local_state = ctx.fdag(k) * ctx.proj0(k) if bits[k - 1] else ctx.proj0(k)
                    slotwise = slotwise * (factors[k - 1] * local_state)
                assert got.terms == slotwise.terms

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(st.data())
    def test_random_factors_act_slotwise(self, data):
        # random (proj0, f, fdag, proj1) coordinates per wire, None for identity
        n = data.draw(st.integers(1, 4), label="n")
        ctx = WittContext(n)
        coeff = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)
        factors = []
        for k in range(1, n + 1):
            coords = data.draw(st.none() | st.tuples(coeff, coeff, coeff, coeff), label=f"wire {k}")
            if coords is None:
                factors.append(None)
            else:
                a, b, c, d = coords
                factors.append(a * ctx.proj0(k) + b * ctx.f(k) + c * ctx.fdag(k) + d * ctx.proj1(k))
        g = super_tensor(ctx, factors)
        for idx in range(2 ** n):
            bits = index_bits(idx, n)
            slotwise = ctx.one()
            for k in range(1, n + 1):
                local_state = ctx.fdag(k) * ctx.proj0(k) if bits[k - 1] else ctx.proj0(k)
                factor = factors[k - 1]
                slotwise = slotwise * (local_state if factor is None else factor * local_state)
            got = g.value * basis_state(ctx, bits).value
            assert got.max_coeff_diff(slotwise) <= 1e-12, (bits, factors)

    def test_blade_super_commutation_randomized(self):
        # (eA eB)(eC eD) = (-1)^{|B||C|} (eA eC)(eB eD) for disjoint B, C
        rng = np.random.default_rng(107)
        dim = WittContext(3).dim
        for _ in range(50):
            b = int(rng.integers(0, 64))
            c = int(rng.integers(0, 64)) & ~b
            a = int(rng.integers(0, 64))
            d = int(rng.integers(0, 64))
            ea, eb, ec, ed = (Multivector(dim, {m: 1.0}) for m in (a, b, c, d))
            lhs = (ea * eb) * (ec * ed)
            sign = (-1) ** (bin(b).count("1") * bin(c).count("1"))
            rhs = sign * (ea * ec) * (eb * ed)
            assert lhs.terms == rhs.terms


class TestControlledGates:
    def test_cnot_closed_form(self, ctx2):
        f1, fd1 = ctx2.f(1), ctx2.fdag(1)
        f2, fd2 = ctx2.f(2), ctx2.fdag(2)
        expected = f1 * fd1 - fd1 * f1 * (fd2 + f2)
        assert build_gate(ctx2, "cnot", (1, 2)).value.terms == expected.terms

    def test_cz_closed_form_and_decomposition(self, ctx2):
        f1, fd1 = ctx2.f(1), ctx2.fdag(1)
        f2, fd2 = ctx2.f(2), ctx2.fdag(2)
        expected = f1 * fd1 + fd1 * f1 * (f2 * fd2 - fd2 * f2)
        got = build_gate(ctx2, "cz", (1, 2)).value
        assert got.terms == expected.terms
        # controlled decomposition through the public tensor constructor
        alt = (
            super_tensor(ctx2, [ctx2.proj0(1), None]).value
            + super_tensor(ctx2, [ctx2.proj1(1), ctx2.proj0(2) - ctx2.proj1(2)]).value
        )
        assert got.terms == alt.terms

    def test_swap_closed_form(self, ctx2):
        f1, fd1 = ctx2.f(1), ctx2.fdag(1)
        f2, fd2 = ctx2.f(2), ctx2.fdag(2)
        expected = f1 * fd1 * f2 * fd2 + fd1 * f1 * fd2 * f2 + fd1 * f2 - f1 * fd2
        assert build_gate(ctx2, "swap", (1, 2)).value.terms == expected.terms

    def test_swap_is_symmetric(self, ctx2):
        assert build_gate(ctx2, "swap", (1, 2)).value.terms == build_gate(ctx2, "swap", (2, 1)).value.terms

    def test_cnot_action_table(self, ctx2):
        g = build_gate(ctx2, "cnot", (1, 2))
        table = {(0, 0): (0, 0), (0, 1): (0, 1), (1, 0): (1, 1), (1, 1): (1, 0)}
        for src, dst in table.items():
            got = apply(g, basis_state(ctx2, list(src)))
            assert got.value.terms == basis_state(ctx2, list(dst)).value.terms

    def test_swap_action(self, ctx2):
        g = build_gate(ctx2, "swap", (1, 2))
        got = apply(g, basis_state(ctx2, [0, 1]))
        assert got.value.terms == basis_state(ctx2, [1, 0]).value.terms

    def test_reversed_control_matches_matrix(self, ctx2):
        # control on wire 2, target on wire 1
        from cliffsim.circuit import Circuit, GateOp
        from cliffsim.matrix_backend import compare_backends

        circuit = Circuit(2, (GateOp("h", (2,)), GateOp("cnot", (2, 1))))
        report = compare_backends(circuit)
        assert report.max_deviation < 1e-12

    def test_toffoli_closed_form(self, ctx3):
        fd1, f1 = ctx3.fdag(1), ctx3.f(1)
        fd2, f2 = ctx3.fdag(2), ctx3.f(2)
        fd3, f3 = ctx3.fdag(3), ctx3.f(3)
        expected = ctx3.one() + fd1 * f1 * fd2 * f2 * (f3 + fd3 - ctx3.one())
        assert build_gate(ctx3, "ccnot", (1, 2, 3)).value.terms == expected.terms

    def test_toffoli_action(self, ctx3):
        g = build_gate(ctx3, "ccnot", (1, 2, 3))
        got = apply(g, basis_state(ctx3, [1, 1, 0]))
        assert got.value.terms == basis_state(ctx3, [1, 1, 1]).value.terms
        inert = apply(g, basis_state(ctx3, [0, 1, 0]))
        assert inert.value.terms == basis_state(ctx3, [0, 1, 0]).value.terms

    def test_cswap_closed_form_and_action(self, ctx3):
        fd1, f1 = ctx3.fdag(1), ctx3.f(1)
        fd2, f2 = ctx3.fdag(2), ctx3.f(2)
        fd3, f3 = ctx3.fdag(3), ctx3.f(3)
        expected = f1 * fd1 + fd1 * f1 * (
            f2 * fd2 * f3 * fd3 + fd2 * f2 * fd3 * f3 + fd2 * f3 - f2 * fd3
        )
        g = build_gate(ctx3, "cswap", (1, 2, 3))
        assert g.value.terms == expected.terms
        got = apply(g, basis_state(ctx3, [1, 0, 1]))
        assert got.value.terms == basis_state(ctx3, [1, 1, 0]).value.terms

    def test_distinct_wire_validation(self, ctx2):
        with pytest.raises(ValueError):
            build_gate(ctx2, "cnot", (1, 1))
        with pytest.raises(ValueError):
            build_gate(ctx2, "cnot", (1, 3))


class TestUnitarity:
    def test_x_is_unitary(self, ctx1):
        assert is_unitary(build_gate(ctx1, "x", (1,)))

    def test_bare_witt_element_is_not(self, ctx1):
        assert not is_unitary(GateElement.from_blades(ctx1.f(1)))

    @pytest.mark.parametrize("bad", [math.nan, complex(0, math.nan), math.inf])
    @pytest.mark.parametrize("row", [0, 1])
    def test_non_finite_coefficient_is_not(self, ctx1, bad, row):
        # X plus a zero Z row, with one of the two rows carrying a non-finite coefficient
        paulis = list(build_gate(ctx1, "x", (1,)).paulis) + [(0, 1, 0j)]
        x, z, _ = paulis[row]
        paulis[row] = (x, z, complex(bad))
        assert not is_unitary(GateElement(1, tuple(paulis)))

    def test_gate_element_is_immutable(self, ctx1):
        g = build_gate(ctx1, "x", (1,))
        with pytest.raises(dataclasses.FrozenInstanceError):
            g.value = ctx1.one()

    def test_all_named_gates_sweep(self):
        rng = np.random.default_rng(109)
        for n in (1, 2, 3):
            ctx = WittContext(n)
            for name, spec in GATE_SPECS.items():
                if spec.wires > n:
                    continue
                wires = tuple(range(1, spec.wires + 1))
                assert is_unitary(build_gate(ctx, name, wires, random_params(rng, spec))), name

    def test_products_of_unitaries(self, ctx2):
        rng = np.random.default_rng(113)
        from cliffsim.matrix_backend import random_circuit

        for _ in range(5):
            circuit = random_circuit(rng, 2, 8)
            total = ctx2.one()
            for op in circuit.ops:
                total = build_gate(ctx2, op.name, op.wires, op.params).value * total
            assert is_unitary(GateElement.from_blades(total))

    def test_hermitian_product_preserved(self, ctx2):
        rng = np.random.default_rng(127)
        u = random_unitary_2x2(rng)
        gates = [
            build_gate(ctx2, "cnot", (1, 2)),
            build_gate(ctx2, "h", (2,)),
            build_gate(ctx2, "swap", (1, 2)),
            gate_from_u2(ctx2, 2, u),
        ]
        for g in gates:
            for _ in range(5):
                va = rng.normal(size=4) + 1j * rng.normal(size=4)
                vb = rng.normal(size=4) + 1j * rng.normal(size=4)
                x = amplitudes_to_state(ctx2, list(va))
                y = amplitudes_to_state(ctx2, list(vb))
                before = spinor_inner(ctx2, x, y)
                after = spinor_inner(ctx2, apply(g, x), apply(g, y))
                assert abs(before - after) < 1e-10


class TestApplication:
    def test_identity_gate(self, ctx2):
        g = gate_identity(ctx2)
        s = basis_state(ctx2, [1, 0])
        assert apply(g, s).value.terms == s.value.terms

    def test_double_hadamard_round_trip(self, ctx1):
        rng = np.random.default_rng(131)
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        s = amplitudes_to_state(ctx1, list(v))
        h = build_gate(ctx1, "h", (1,))
        back = apply(h, apply(h, s))
        assert back.value.max_coeff_diff(s.value) < 1e-12

    def test_qubit_count_mismatch(self, ctx1, ctx2):
        with pytest.raises(ValueError):
            apply(build_gate(ctx1, "x", (1,)), basis_state(ctx2, [0, 0]))

    def test_empty_table_gives_zero_state(self, ctx2):
        g = super_tensor(ctx2, [Multivector.zero(ctx2.dim), None])
        assert g.paulis == ()
        s = amplitudes_to_state(ctx2, [0.5, 0.5j, -0.5, 0.5])
        assert apply(g, s).amplitudes.tobytes() == np.zeros(4, dtype=complex).tobytes()

    # n = 15 and 16 apply in two and four blocks of output indices
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 15, 16])
    @pytest.mark.parametrize("size", [0, 1, 8, 64])
    def test_random_table_matches_per_string_formula(self, n, size):
        rng = np.random.default_rng(1000 * n + size)
        g = GateElement(n, random_table(rng, n, size))
        s = amplitudes_to_state(WittContext(n), random_amplitudes(rng, n))
        assert apply(g, s).amplitudes.tobytes() == per_string_apply(g, s).tobytes()

    # Tables of 1, 8, 3 and 0 strings.  At n >= 14 the 8-string gate's blocks
    # are batches of their own, larger than the batch before; at n >= 15 the
    # second block of the 3-string gate shares a batch with the first block
    # of the next gate, whose second block starts the batch after.  From n = 4
    # the sequence repeats until it fills more than one batch; below, a whole
    # sequence is one batch.
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 14, 15, 16])
    def test_gate_sequence_matches_chained_per_string_formula(self, n):
        rng = np.random.default_rng(2000 + n)
        sizes = [1, 8, 3, 0, 1, 8, 3, 1]
        repeats = 4 * _BLOCK // (2**n * sum(sizes)) + 1 if n >= 4 else 1
        gates = [GateElement(n, random_table(rng, n, size)) for size in sizes * repeats]
        if n >= 4:
            assert len(list(_batches(_element_tables(gates, n), 2**n))) > 1
        s = amplitudes_to_state(WittContext(n), random_amplitudes(rng, n))
        assert apply_all(gates, s).amplitudes.tobytes() == chained_per_string_apply(gates, s).tobytes()

    def test_empty_gate_sequence_returns_the_input(self, ctx2):
        s = amplitudes_to_state(ctx2, [0.5, 0.5j, -0.5, complex(-0.0, 0.5)])
        assert apply_all(iter(()), s).amplitudes.tobytes() == s.amplitudes.tobytes()

    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_gate_of_another_register_in_a_sequence(self, ctx2, k):
        gates = [build_gate(ctx2, "h", (1,))] * 4
        gates[k] = build_gate(WittContext(3), "h", (1,))
        with pytest.raises(ValueError, match=f"gate {k} acts on 3 qubits, state has 2"):
            apply_all(gates, basis_state(ctx2, [0, 0]))

    @pytest.mark.parametrize("name", sorted(GATE_SPECS))
    def test_registry_gate_on_highest_wires_matches_per_string_formula(self, name):
        n = 16
        rng = np.random.default_rng(sorted(GATE_SPECS).index(name))
        ctx = WittContext(n)
        spec = GATE_SPECS[name]
        wires = tuple(int(w) for w in rng.permutation(range(n - spec.wires + 1, n + 1)))
        g = build_gate(ctx, name, wires, random_params(rng, spec))
        s = amplitudes_to_state(ctx, random_amplitudes(rng, n))
        assert apply(g, s).amplitudes.tobytes() == per_string_apply(g, s).tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 13, 16])
    def test_blade_action_matches_blade_product(self, n):
        # the signed-permutation kernel against left multiplication in the algebra

        ctx = WittContext(n)
        if n <= 3:
            masks = range(4 ** n)
            indices = range(2 ** n)
        else:
            # above the oracle's cap only a few cases: each multiplies 2^n-term blade forms
            rng = np.random.default_rng(139 + n)
            masks = [int(m) for m in rng.integers(0, 4 ** n, size=40 if n <= 6 else 3)]
            indices = [int(k) for k in rng.integers(0, 2 ** n, size=4 if n <= 6 else 2)]
        for mask in masks:
            blade = Multivector(ctx.dim, {mask: 1.0})
            for k in indices:
                basis = basis_state(ctx, index_bits(k, n))
                got = apply(GateElement.from_blades(blade), basis).value
                assert got.max_coeff_diff(blade * basis.value) <= 1e-15, (mask, k)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 13, 20, 32])
    def test_pauli_string_closed_form(self, n):
        # the closed-form Jordan-Wigner map against composing the generators' strings one by one
        from cliffsim.witt import _blade_mask, _pauli_string

        def reference(mask):
            # e_j (wire j <= n) is Z_1 ... Z_{j-1} X_j and e_{j+n} the same times -i Z_j;
            # Z^z1 X^x2 = (-1)^popcount(x2 & z1) X^x2 Z^z1 orders each product.
            x = z = 0
            phase = 1 + 0j
            for g in range(2 * n):
                if not mask >> g & 1:
                    continue
                bit = 1 << (n - 1 - g % n)
                gz = ((1 << n) - 1) ^ ((bit << 1) - 1)
                gc = 1
                if g >= n:
                    gz |= bit
                    gc = -1j
                phase *= -gc if (bit & z).bit_count() & 1 else gc
                x ^= bit
                z ^= gz
            return x, z, phase

        if n <= 4:
            masks = range(4 ** n)
        else:
            rng = random.Random(149 + n)
            masks = [rng.getrandbits(2 * n) for _ in range(200)] + [4 ** n - 1, (2 ** n - 1) << n]
        for mask in masks:
            x, z, phase = _pauli_string(mask, n)
            assert (x, z, phase) == reference(mask), mask
            assert _blade_mask(x, z, n) == (mask, phase)

    def test_phase_rotation_eigenvalue(self, ctx1):
        theta = 1.234
        gen = -0.5j * theta * build_gate(ctx1, "z", (1,)).value
        rot = exp_element(gen)
        out = rot * basis_state(ctx1, [1]).value
        expected = cmath.exp(0.5j * theta) * basis_state(ctx1, [1]).value
        assert out.max_coeff_diff(expected) < 1e-12


class TestBladeForm:
    def test_display_form_agrees_with_run_form(self):
        # the blade form, turned back into Pauli strings, is the table that apply reads

        rng = np.random.default_rng(157)
        for n in (1, 2, 3, 4):
            ctx = WittContext(n)
            states = [amplitudes_to_state(ctx, rng.normal(size=2**n) + 1j * rng.normal(size=2**n)) for _ in range(3)]
            for name, spec in GATE_SPECS.items():
                for wires in itertools.permutations(range(1, n + 1), spec.wires):
                    g = build_gate(ctx, name, wires, random_params(rng, spec))
                    back = GateElement.from_blades(g.value)
                    assert back.n == n
                    assert back.paulis == g.paulis, (name, wires)
                    for state in states:
                        assert np.array_equal(apply(back, state).amplitudes, apply(g, state).amplitudes), (name, wires)

    def test_from_blades_needs_a_qubit_algebra(self):

        with pytest.raises(ValueError):
            GateElement.from_blades(Multivector(3, {1: 1.0}))


class TestProbabilities:
    def test_basis_state(self, ctx1):
        probs = measure_probabilities(ctx1, basis_state(ctx1, [0]))
        assert probs == [1, 0]

    def test_hadamard_state(self, ctx1):
        probs = measure_probabilities(ctx1, apply(build_gate(ctx1, "h", (1,)), basis_state(ctx1, [0])))
        assert abs(probs[0] - 0.5) < 1e-12 and abs(probs[1] - 0.5) < 1e-12

    def test_bell_state(self, ctx2):
        state = apply(build_gate(ctx2, "h", (1,)), basis_state(ctx2, [0, 0]))
        state = apply(build_gate(ctx2, "cnot", (1, 2)), state)
        probs = measure_probabilities(ctx2, state)
        expected = [0.5, 0.0, 0.0, 0.5]
        assert max(abs(p - e) for p, e in zip(probs, expected)) < 1e-12

    def test_sums_to_state_norm(self, ctx2):
        rng = np.random.default_rng(137)
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        s = amplitudes_to_state(ctx2, list(v))
        total = sum(measure_probabilities(ctx2, s))
        norm = spinor_inner(ctx2, s, s)
        assert abs(total - norm.real) < 1e-10


class TestRegistry:
    def test_unknown_gate(self, ctx1):
        with pytest.raises(ValueError):
            build_gate(ctx1, "nope", (1,))

    def test_arity_validation(self, ctx2):
        with pytest.raises(ValueError):
            build_gate(ctx2, "cnot", (1,))
        with pytest.raises(ValueError):
            build_gate(ctx2, "phase", (1,), ())

    @pytest.mark.parametrize("params", [(math.nan,), (math.inf,), (-math.inf,)])
    def test_non_finite_parameter_rejected(self, ctx1, params):
        with pytest.raises(ValueError, match="finite"):
            build_gate(ctx1, "phase", (1,), params)

    def test_registry_names(self):
        assert set(GATE_SPECS) == {
            "x", "y", "z", "h", "s", "phase", "u2",
            "cnot", "cz", "swap", "ccnot", "cswap",
        }


def exact_rows(paulis):
    """A table's rows with both coefficient parts as ``float.hex``, so that equal means bit-identical."""
    return [(x, z, coeff.real.hex(), coeff.imag.hex()) for x, z, coeff in paulis]


def pauli_rows(n, wires, words):
    """The columns of ``_pauli_table`` as rows (x, z, coeff)."""
    return tuple(zip(*_pauli_table(n, wires, words)))


def looped_table(n, wires, words):
    """``_pauli_table`` through its product loop, not the one-wire closed form: each word gets an identity wire."""
    return pauli_rows(n, (*wires, None), tuple((*word, None) for word in words))


# Parameters of phase and u2 where the closed form's signed zeros and pruning
# show: zero and pi angles; X, Z and -I, also with -0.0 imaginary parts (X's
# then give (b + c) / 2 = 1 - 0j); and a = 2e-14, which puts (a + d) / 2 and
# (a - d) / 2 exactly on PRUNE_EPS.
EDGE_PARAMS = {
    "phase": [(0.0,), (-0.0,), (math.pi / 2,), (math.pi,)],
    "u2": [
        (0, 0, 1, 0, 1, 0, 0, 0),
        (0, -0.0, 1, -0.0, 1, -0.0, 0, -0.0),
        (1, 0, 0, 0, 0, 0, -1, 0),
        (1, -0.0, 0, -0.0, 0, -0.0, -1, -0.0),
        (-1, -0.0, 0, 0, 0, 0, -1, -0.0),
        (2e-14, 0, 1, 0, 1, 0, 0, 0),
    ],
}


class TestOrderTables:
    """``build_gate`` scatters import-time tables; ``_pauli_table`` on the register's own wires is the reference."""

    @pytest.mark.parametrize("n,top", [(1, 1), (2, 2), (3, 3), (4, 4), (5, 5), (6, 6), (32, 5)])
    def test_scatter_equals_expansion_on_every_wire_order(self, n, top):
        # every ordered tuple of distinct wires among the top ``top`` wires of the register
        ctx = WittContext(n)
        for name, spec in GATE_SPECS.items():
            # one fixed angle and unitary, then the edge cases
            for params in [random_params(np.random.default_rng(0), spec), *EDGE_PARAMS.get(name, [])]:
                for wires in itertools.permutations(range(n - top + 1, n + 1), spec.wires):
                    words = gate_words(name, n, wires, params)
                    reference = exact_rows(pauli_rows(n, wires, words))
                    assert exact_rows(looped_table(n, wires, words)) == reference, (name, wires, params)
                    assert exact_rows(build_gate(ctx, name, wires, params).paulis) == reference, (name, wires, params)

    def test_edge_rows_are_kept_on_the_prune_bound(self):
        # a = 2e-14: the I and Z parts are 1e-14 = PRUNE_EPS, which is kept
        paulis = build_gate(WittContext(1), "u2", (1,), EDGE_PARAMS["u2"][-1]).paulis
        assert [(x, z, abs(coeff)) for x, z, coeff in paulis] == [(0, 0, PRUNE_EPS), (0, 1, PRUNE_EPS), (1, 0, 1.0)]


class TestLookupParity:
    """A hit of ``_order_table`` is an op that ``gate_words`` accepts, with its table; every valid parameterless op hits.

    ``check_op`` accepts what ``gate_words`` accepts and refuses the rest with its message and index.
    """

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_lookup_implies_gate_words(self, n):
        ctx = WittContext(n)
        rng = np.random.default_rng(n)
        hits = 0
        for name in [*GATE_SPECS, "nope"]:
            spec = GATE_SPECS.get(name)
            for params in [(), random_params(rng, spec) if spec and spec.params else (0.5,)]:
                for k in range(5):
                    # wires -1..n+1, repeats included
                    for wires in itertools.product(range(-1, n + 2), repeat=k):
                        table = _order_table(name, n, wires, params)
                        try:
                            words = gate_words(name, n, wires, params)
                        except GateOpError as exc:
                            assert table is None, (name, wires, params)
                            with pytest.raises(GateOpError) as got:
                                check_op(name, n, wires, params)
                            assert (str(got.value), got.value.index) == (str(exc), exc.index)
                            continue
                        check_op(name, n, wires, params)  # accepts it
                        # numpy-integer wires find the same table
                        assert _order_table(name, n, tuple(map(np.int64, wires)), params) is table, (name, wires)
                        if table is None:
                            assert params, (name, wires)  # a valid parameterless op must hit
                            continue
                        hits += 1
                        reference = pauli_rows(n, wires, words)
                        assert exact_rows(build_gate(ctx, name, wires, params).paulis) == exact_rows(reference)
        # each parameterless gate on every ordered tuple of distinct wires
        assert hits == sum(math.perm(n, s.wires) for s in GATE_SPECS.values() if not s.params)


BAD_GATE_OPS = [
    ("cnot", (1, 1), ()),
    ("cnot", (4, 4), ()),
    ("x", (0,), ()),
    ("cnot", (0, 2), ()),
    ("x", (4,), ()),
    ("swap", (3, 4), ()),
    ("ccnot", (2, 4, 1), ()),
    ("h", (1,), (0.5,)),
    ("s", (1,), (math.pi,)),
    ("cnot", (1,), ()),
    ("x", (1, 2), ()),
    ("cswap", (1, 2), ()),
    ("x", (), ()),
    ("nope", (1,), ()),
    ("phase", (1,), (math.nan,)),
    ("phase", (2,), (math.inf,)),
    ("phase", (1,), ()),
    ("u2", (1,), (2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0)),
    ("cnot", tuple(range(1, 10**5)), ()),  # refused at once, not after ranking every wire
]

# Bad ops past the one-wire and rank shortcuts, with the refusal of n = 3
# pinned: counts, then each wire in turn an integer in range, then distinct
# wires, then the first non-finite parameter, then the word function (the u2
# unitarity check).
REFUSAL_PRECEDENCE = [
    ("phase", (0,), (math.nan,), "wire 0 out of range 1..3", 1),
    ("u2", (9,), (2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0), "wire 9 out of range 1..3", 1),
    ("u2", (1,), (1.0, 0.0, 0.0, math.nan, 0.0, 0.0, math.inf, 0.0), "non-finite parameter nan", 5),
    ("ccnot", (2, 2, 9), (), "wire 9 out of range 1..3", 3),
    ("cswap", (3, 1, 3), (), "gate 'cswap' requires distinct wires, got (3, 1, 3)", 3),
    ("cz", (2, 0), (), "wire 0 out of range 1..3", 2),
    ("ccnot", (0, 1.5, 2), (), "wire 0 out of range 1..3", 1),
    ("cswap", (2, 2, 1.5), (), "invalid wire 1.5", 3),
]
BAD_GATE_OPS += [row[:3] for row in REFUSAL_PRECEDENCE]
# A wire is what operator.index accepts: no float, integral or not, and no string.
BAD_GATE_OPS += [("x", (1.5,), ()), ("x", (1.0,), ()), ("cnot", (1, 2.0), ()), ("x", ("1",), ())]
# A parameter is a real number that a float holds, what math.isfinite takes:
# no complex number, string, None or integer past every float.  The first
# other one is refused at its token, before a later non-finite one.
PARAMETER_REFUSALS = [
    ("phase", (1,), (0.5 + 0j,), "invalid parameter (0.5+0j)", 2),
    ("phase", (1,), ("0.5",), "invalid parameter '0.5'", 2),
    ("phase", (1,), (None,), "invalid parameter None", 2),
    ("u2", (1,), (1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1 + 0j, 0.0), "invalid parameter (1+0j)", 8),
    ("u2", (1,), (1.0, 0.0, 0.0, "0", math.nan, 0.0, 1 + 0j, 0.0), "invalid parameter '0'", 5),
]
BAD_GATE_OPS += [row[:3] for row in PARAMETER_REFUSALS] + [("phase", (1,), (2**1024,))]


class TestOpRefusal:
    """A bad op is refused by ``check_op``, ``build_gate`` and ``run_clifford`` exactly as ``gate_words`` refuses it."""

    @pytest.mark.parametrize("name,wires,params,message,index", REFUSAL_PRECEDENCE + PARAMETER_REFUSALS)
    def test_precedence(self, name, wires, params, message, index):
        with pytest.raises(GateOpError) as got:
            gate_words(name, 3, wires, params)
        assert (str(got.value), got.value.index) == (message, index)

    @pytest.mark.parametrize("name,wires,params", BAD_GATE_OPS)
    def test_same_error_as_gate_words(self, name, wires, params):
        n = 3
        with pytest.raises(GateOpError) as expected:
            gate_words(name, n, wires, params)
        with pytest.raises(GateOpError) as got:
            check_op(name, n, wires, params)
        assert (str(got.value), got.value.index) == (str(expected.value), expected.value.index)
        with pytest.raises(GateOpError) as got:
            build_gate(WittContext(n), name, wires, params)
        assert (str(got.value), got.value.index) == (str(expected.value), expected.value.index)
        # a hand-built circuit is not parsed: its run meets the op only in the builder
        circuit = Circuit(n, (GateOp("h", (1,)), GateOp(name, wires, params), GateOp("x", (2,))))
        with pytest.raises(GateOpError) as got:
            run_clifford(circuit)
        assert (str(got.value), got.value.index) == (str(expected.value), expected.value.index)

    def test_bool_and_numpy_wires_are_their_integers(self):
        # operator.index accepts both: True is wire 1, and np.int64(3) is wire 3
        ctx = WittContext(3)
        expected = build_gate(ctx, "cnot", (1, 3)).paulis
        for wires in [(True, 3), (np.int64(1), np.int64(3)), (True, np.int64(3))]:
            check_op("cnot", 3, wires, ())
            assert _order_table("cnot", 3, wires, ()) is _order_table("cnot", 3, (1, 3), ())
            assert build_gate(ctx, "cnot", wires).paulis == expected
        check_op("phase", 3, (True,), (0.5,))
        as_int = (GateOp("h", (1,)), GateOp("phase", (1,), (0.5,)), GateOp("cnot", (1, 3)))
        as_bool = (GateOp("h", (True,)), GateOp("phase", (True,), (0.5,)), GateOp("cnot", (True, 3)))
        expected = run_clifford(Circuit(3, as_int)).amplitudes
        assert run_clifford(Circuit(3, as_bool)).amplitudes.tobytes() == expected.tobytes()
        # the oracle reads them as the same wires, by its own check
        as_numpy = (GateOp("h", (np.int64(1),)), GateOp("phase", (True,), (0.5,)), GateOp("cnot", (True, np.int64(3))))
        expected = run_matrix(Circuit(3, as_int)).amplitudes
        for ops in (as_bool, as_numpy):
            assert run_matrix(Circuit(3, ops)).amplitudes.tobytes() == expected.tobytes()


class TestFrontEnds:
    """``run_clifford`` and ``apply_all`` over ``build_gate`` feed one kernel: their amplitudes agree bit for bit."""

    # From n = 4 each circuit fills more than one batch (below, it is one
    # batch); at n = 14 a batch holds at most four strings, and at n = 15 and
    # 16 each gate spans two and four blocks.
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 14, 15, 16])
    def test_run_clifford_equals_apply_all_of_built_gates(self, n):
        depth = 4 * _BLOCK // 2**n if 4 <= n <= 6 else 30
        circuit = random_circuit(np.random.default_rng(4000 + n), n, depth)
        assert {"u2", "phase"} <= {op.name for op in circuit.ops}
        ctx = WittContext(n)
        gates = [build_gate(ctx, op.name, op.wires, op.params) for op in circuit.ops]
        if n >= 4:
            assert len(list(_batches(_element_tables(gates, n), 2**n))) > 1
        expected = apply_all(gates, basis_state(ctx, (0,) * n)).amplitudes
        assert run_clifford(circuit).amplitudes.tobytes() == expected.tobytes()
