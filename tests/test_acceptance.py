"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Exact criteria compare stored coefficient maps directly (the Witt
construction is dyadic, so cancellation is bit-exact); the rest use the
stated tolerances.
"""

import cmath
import math

import numpy as np
import pytest

from cliffsim.gates import (
    GATE_SPECS,
    UNITARY_TOL,
    GateElement,
    apply,
    build_gate,
    gate_from_u2,
    is_unitary,
    super_tensor,
    wire_coordinates,
)
from cliffsim.matrix_backend import compare_backends, random_unitary_2x2, run_fuzz
from cliffsim.multivector import Multivector, exp_element
from cliffsim.real_ga import (
    bloch_verify,
    c2_to_g3,
    correlator,
    iso_check,
    quat_coords,
    quat_encode,
    quat_inner,
    quat_pauli,
    rc_coords,
    rc_encode,
    rc_inner,
    rc_pauli,
    slot_complex_structure,
)
from cliffsim.circuit import parse_circuit
from cliffsim.witt import (
    WittContext,
    basis_state,
    index_bits,
    spinor_inner,
    state_to_amplitudes,
)

FUZZ_SEED = 20260808


def _report(num: int, name: str, ok: bool) -> None:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {name}")


def test_criterion_1_witt_identities_exact():
    ok = True
    for n in range(1, 6):
        ctx = WittContext(n)
        for j in range(1, n + 1):
            ok &= (ctx.f(j) * ctx.f(j)).terms == {}
            ok &= (ctx.fdag(j) * ctx.fdag(j)).terms == {}
            for k in range(1, n + 1):
                ok &= (ctx.f(j) * ctx.f(k) + ctx.f(k) * ctx.f(j)).terms == {}
                ok &= (ctx.fdag(j) * ctx.fdag(k) + ctx.fdag(k) * ctx.fdag(j)).terms == {}
                duality = ctx.f(j) * ctx.fdag(k) + ctx.fdag(k) * ctx.f(j)
                ok &= duality.terms == ({0: 1 + 0j} if j == k else {})
    _report(1, "Witt Grassmann/duality identities exact, n = 1..5", ok)
    assert ok


def test_criterion_2_idempotent_suite_exact():
    ok = True
    for n in range(1, 6):
        ctx = WittContext(n)
        for j in range(1, n + 1):
            pi, pk = ctx.proj0(j), ctx.proj1(j)
            ok &= (pi * pi).terms == pi.terms
            ok &= (pk * pk).terms == pk.terms
            ok &= pi.dagger().terms == pi.terms
            ok &= pk.dagger().terms == pk.terms
            ok &= (pi * pk).terms == {} and (pk * pi).terms == {}
            ok &= (pi + pk).terms == {0: 1 + 0j}
            for k in range(1, n + 1):
                for a in (ctx.proj0(j), ctx.proj1(j)):
                    for b in (ctx.proj0(k), ctx.proj1(k)):
                        ok &= (a * b).terms == (b * a).terms
    _report(2, "idempotent laws exact, n <= 5", ok)
    assert ok


def test_criterion_3_orthonormality():
    worst = 0.0
    for n in range(1, 5):
        ctx = WittContext(n)
        states = [basis_state(ctx, index_bits(k, n)) for k in range(2 ** n)]
        for a, sa in enumerate(states):
            for b, sb in enumerate(states):
                expected = 1.0 if a == b else 0.0
                worst = max(worst, abs(spinor_inner(ctx, sa, sb) - expected))
    ok = worst < 1e-12
    _report(3, f"basis orthonormality n <= 4 (worst {worst:.2e})", ok)
    assert ok


def test_criterion_4_single_gate_golden_forms():
    ctx = WittContext(1)
    f, fd = ctx.f(1), ctx.fdag(1)
    e1 = Multivector.basis_vector(ctx.dim, 1)
    e2 = Multivector.basis_vector(ctx.dim, 2)
    ok = build_gate(ctx, "x", (1,)).value.terms == (fd + f).terms
    ok &= build_gate(ctx, "x", (1,)).value.terms == e1.terms
    ok &= build_gate(ctx, "y", (1,)).value.terms == (1j * fd - 1j * f).terms
    ok &= build_gate(ctx, "y", (1,)).value.terms == (-e2).terms
    ok &= build_gate(ctx, "z", (1,)).value.terms == (f * fd - fd * f).terms
    ok &= build_gate(ctx, "z", (1,)).value.terms == (1j * e1.outer(e2)).terms
    xz = build_gate(ctx, "x", (1,)).value * build_gate(ctx, "z", (1,)).value
    ok &= xz.terms == (fd - f).terms
    ok &= (build_gate(ctx, "x", (1,)).value * build_gate(ctx, "x", (1,)).value).terms == {0: 1 + 0j}
    h_witt = (f * fd - fd * f + f + fd) * (1.0 / math.sqrt(2.0))
    ok &= build_gate(ctx, "h", (1,)).value.max_coeff_diff(h_witt) < 1e-13
    h_exp = build_gate(ctx, "x", (1,)).value * exp_element(-1j * (math.pi / 4.0) * build_gate(ctx, "y", (1,)).value)
    ok &= h_exp.max_coeff_diff(build_gate(ctx, "h", (1,)).value) < 1e-13
    ok &= h_exp.max_coeff_diff(h_witt) < 1e-13
    _report(4, "single-qubit golden forms (X, Y, Z exact; H via exp < 1e-13)", ok)
    assert ok


def test_criterion_5_multi_gate_golden_forms():
    ctx2 = WittContext(2)
    f1, fd1, f2, fd2 = ctx2.f(1), ctx2.fdag(1), ctx2.f(2), ctx2.fdag(2)
    closed = {
        "cnot": f1 * fd1 - fd1 * f1 * (fd2 + f2),
        "cz": f1 * fd1 + fd1 * f1 * (f2 * fd2 - fd2 * f2),
        "swap": f1 * fd1 * f2 * fd2 + fd1 * f1 * fd2 * f2 + fd1 * f2 - f1 * fd2,
    }
    built = {
        "cnot": build_gate(ctx2, "cnot", (1, 2)).value,
        "cz": build_gate(ctx2, "cz", (1, 2)).value,
        "swap": build_gate(ctx2, "swap", (1, 2)).value,
    }
    ok = all(built[k].max_coeff_diff(closed[k]) < 1e-12 for k in closed)

    # controlled decompositions through the public tensor constructor
    x2 = fd2 + f2
    z2 = f2 * fd2 - fd2 * f2
    cnot_dec = super_tensor(ctx2, [ctx2.proj0(1), None]).value + super_tensor(
        ctx2, [ctx2.proj1(1), x2]
    ).value
    cz_dec = super_tensor(ctx2, [ctx2.proj0(1), None]).value + super_tensor(
        ctx2, [ctx2.proj1(1), z2]
    ).value
    swap_dec = (
        super_tensor(ctx2, [ctx2.proj0(1), ctx2.proj0(2)]).value
        + super_tensor(ctx2, [ctx2.proj1(1), ctx2.proj1(2)]).value
        + super_tensor(ctx2, [ctx2.fdag(1), ctx2.f(2)]).value
        + super_tensor(ctx2, [ctx2.f(1), ctx2.fdag(2)]).value
    )
    ok &= cnot_dec.terms == built["cnot"].terms
    ok &= cz_dec.terms == built["cz"].terms
    ok &= swap_dec.terms == built["swap"].terms

    ctx3 = WittContext(3)
    g1, gd1 = ctx3.f(1), ctx3.fdag(1)
    g2, gd2 = ctx3.f(2), ctx3.fdag(2)
    g3, gd3 = ctx3.f(3), ctx3.fdag(3)
    ccnot_closed = ctx3.one() + gd1 * g1 * gd2 * g2 * (g3 + gd3 - ctx3.one())
    cswap_closed = g1 * gd1 + gd1 * g1 * (
        g2 * gd2 * g3 * gd3 + gd2 * g2 * gd3 * g3 + gd2 * g3 - g2 * gd3
    )
    ok &= build_gate(ctx3, "ccnot", (1, 2, 3)).value.max_coeff_diff(ccnot_closed) < 1e-12
    ok &= build_gate(ctx3, "cswap", (1, 2, 3)).value.max_coeff_diff(cswap_closed) < 1e-12
    ccnot_dec = (
        super_tensor(ctx3, [ctx3.proj0(1), None, None]).value
        + super_tensor(ctx3, [ctx3.proj1(1), ctx3.proj0(2), None]).value
        + super_tensor(ctx3, [ctx3.proj1(1), ctx3.proj1(2), gd3 + g3]).value
    )
    cswap_dec = (
        super_tensor(ctx3, [ctx3.proj0(1), None, None]).value
        + super_tensor(ctx3, [ctx3.proj1(1), ctx3.proj0(2), ctx3.proj0(3)]).value
        + super_tensor(ctx3, [ctx3.proj1(1), ctx3.proj1(2), ctx3.proj1(3)]).value
        + super_tensor(ctx3, [ctx3.proj1(1), ctx3.fdag(2), ctx3.f(3)]).value
        + super_tensor(ctx3, [ctx3.proj1(1), ctx3.f(2), ctx3.fdag(3)]).value
    )
    ok &= ccnot_dec.terms == build_gate(ctx3, "ccnot", (1, 2, 3)).value.terms
    ok &= cswap_dec.terms == build_gate(ctx3, "cswap", (1, 2, 3)).value.terms
    _report(5, "multi-qubit golden forms and controlled decompositions", ok)
    assert ok


def test_criterion_6_tensor_product_exhaustive():
    ok = True
    for n in (2, 3):
        ctx = WittContext(n)
        pick = [
            lambda k: ctx.proj0(k),
            lambda k: ctx.proj1(k),
            lambda k: ctx.f(k),
            lambda k: ctx.fdag(k),
        ]
        for combo in range(4 ** n):
            factors = [pick[(combo >> (2 * k)) & 3](k + 1) for k in range(n)]
            g = super_tensor(ctx, factors)
            for idx in range(2 ** n):
                bits = index_bits(idx, n)
                state = basis_state(ctx, bits).value
                slotwise = ctx.one()
                for k in range(1, n + 1):
                    local = ctx.fdag(k) * ctx.proj0(k) if bits[k - 1] else ctx.proj0(k)
                    slotwise = slotwise * (factors[k - 1] * local)
                ok &= (g.value * state).terms == slotwise.terms
    # printed expansions
    ctx2 = WittContext(2)
    f1, fd1, f2, fd2 = ctx2.f(1), ctx2.fdag(1), ctx2.f(2), ctx2.fdag(2)
    xy = super_tensor(ctx2, [fd1 + f1, 1j * fd2 - 1j * f2]).value
    yx = super_tensor(ctx2, [1j * fd1 - 1j * f1, fd2 + f2]).value
    ok &= xy.terms == (1j * (fd1 * fd2 - fd1 * f2 - f1 * fd2 + f1 * f2)).terms
    ok &= yx.terms == (1j * (fd1 * fd2 + fd1 * f2 + f1 * fd2 + f1 * f2)).terms
    _report(6, "tensor-product sign rule exhaustive (n = 2, 3) exact", ok)
    assert ok


def test_criterion_7_unitarity_sweep():
    rng = np.random.default_rng(FUZZ_SEED)
    ok = UNITARY_TOL == 1e-10  # is_unitary's tolerance
    checked = 0
    for n in range(1, 5):
        ctx = WittContext(n)
        wires_by_arity = {
            1: [(w,) for w in range(1, n + 1)],
            2: [(a, b) for a in range(1, n + 1) for b in range(1, n + 1) if a != b],
            3: [
                (a, b, c)
                for a in range(1, n + 1)
                for b in range(1, n + 1)
                for c in range(1, n + 1)
                if len({a, b, c}) == 3
            ],
        }
        for name, spec in GATE_SPECS.items():
            if spec.wires > n:
                continue
            for wires in wires_by_arity[spec.wires]:
                if spec.params == 0:
                    param_sets = [()]
                elif spec.params == 1:
                    param_sets = [(0.0,), (math.pi / 2,), (float(rng.uniform(0, 2 * math.pi)),)]
                else:
                    u = random_unitary_2x2(rng)
                    param_sets = [
                        tuple(
                            float(x)
                            for e in (u[0, 0], u[0, 1], u[1, 0], u[1, 1])
                            for x in (e.real, e.imag)
                        )
                    ]
                for params in param_sets:
                    g = build_gate(ctx, name, wires, params)
                    ok &= is_unitary(g)
                    checked += 1
    _report(7, f"unitarity sweep over registry ({checked} gate elements)", ok)
    assert ok


def test_criterion_8_differential_fuzz():
    report = run_fuzz(seed=FUZZ_SEED, circuits=200, max_qubits=4, max_depth=20, tol=1e-9)
    ok = report.failures == 0 and report.max_deviation < 1e-9
    bell = parse_circuit("qubits 2\nh 1\ncnot 1 2\n")
    res = compare_backends(bell)
    probs = [abs(a) ** 2 for a in res.clifford]
    ok &= max(abs(p - e) for p, e in zip(probs, [0.5, 0, 0, 0.5])) < 1e-12
    _report(
        8,
        f"200-circuit differential fuzz (max deviation {report.max_deviation:.2e})",
        ok,
    )
    assert ok


def test_criterion_9_u2_correspondence():
    rng = np.random.default_rng(FUZZ_SEED + 1)
    ctx = WittContext(1)
    ok = True
    for _ in range(100):
        u = random_unitary_2x2(rng)
        g = gate_from_u2(ctx, 1, u)
        ok &= is_unitary(g)
        for col in (0, 1):
            amps = state_to_amplitudes(ctx, apply(g, basis_state(ctx, [col])))
            ok &= max(abs(a - b) for a, b in zip(amps, u[:, col])) < 1e-10
        a, b, c, d = wire_coordinates(ctx, g.value, 1)
        ok &= abs(abs(a) ** 2 + abs(c) ** 2 - 1) < 1e-12
        ok &= abs(abs(b) ** 2 + abs(d) ** 2 - 1) < 1e-12
        ok &= abs(b.conjugate() * a + d.conjugate() * c) < 1e-12
    _report(9, "U(2) correspondence, 100 random unitaries", ok)
    assert ok


def test_criterion_10_real_ga_suite():
    report = iso_check()
    ok = report.pairs == 256 and report.max_product_error == 0.0
    ok &= report.max_dagger_error == 0.0

    rng = np.random.default_rng(FUZZ_SEED + 2)
    paulis = {
        1: np.array([[0, 1], [1, 0]], dtype=complex),
        2: np.array([[0, -1j], [1j, 0]], dtype=complex),
        3: np.array([[1, 0], [0, -1]], dtype=complex),
    }
    for _ in range(100):
        a1, b1 = complex(*rng.normal(size=2)), complex(*rng.normal(size=2))
        a2, b2 = complex(*rng.normal(size=2)), complex(*rng.normal(size=2))
        expected = a1.conjugate() * a2 + b1.conjugate() * b2
        ok &= abs(quat_inner(quat_encode(a1, b1), quat_encode(a2, b2)) - expected) < 1e-12
        ok &= abs(rc_inner(rc_encode(a1, b1), rc_encode(a2, b2)) - expected) < 1e-12
    for _ in range(50):
        a, b = complex(*rng.normal(size=2)), complex(*rng.normal(size=2))
        for k, m in paulis.items():
            ea, eb = m @ np.array([a, b])
            qa, qb = quat_coords(quat_pauli(k, quat_encode(a, b)))
            ra, rb = rc_coords(rc_pauli(k, rc_encode(a, b)))
            ok &= abs(qa - ea) < 1e-12 and abs(qb - eb) < 1e-12
            ok &= abs(ra - ea) < 1e-12 and abs(rb - eb) < 1e-12
    for n in (2, 3):
        en = correlator(n)
        ok &= (en * en).terms == en.terms
        j1 = slot_complex_structure(n, 1)
        for k in range(2, n + 1):
            ok &= (en * slot_complex_structure(n, k)).terms == (en * j1).terms
    _report(10, "real-algebra suite (isomorphism, inners, Pauli, correlator)", ok)
    assert ok


def test_criterion_11_bloch_identity():
    worst = 0.0
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
            worst = max(worst, max(abs(a - b) for a, b in zip(got, expected)))
    ok = worst < 1e-12
    _report(11, f"Bloch rotation identity on angle grid (worst {worst:.2e})", ok)
    assert ok
