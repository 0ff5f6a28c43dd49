"""Circuit file parsing, validation diagnostics, round-tripping."""

import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffsim.circuit import (
    Circuit,
    CircuitError,
    GateOp,
    _tokens,
    parse_bits,
    parse_circuit,
    render_circuit,
)
from cliffsim.gates import GATE_SPECS, GateElement, run_bytes, run_clifford
from cliffsim.matrix_backend import random_circuit, random_unitary_2x2
from cliffsim.witt import state_to_amplitudes


@st.composite
def registry_circuits(draw):
    """Circuits of registry gates on distinct wires; u2 lines hold a seeded unitary.

    Each wire is an int, a ``numpy.int64`` or, for wire 1, ``True``, and each
    parameter a float or a ``numpy.float64``: a hand-built circuit may hold any
    of them, as ``run_clifford`` takes them.
    """
    n = draw(st.integers(1, 5))
    names = sorted(name for name, spec in GATE_SPECS.items() if spec.wires <= n)
    ops = []
    for _ in range(draw(st.integers(0, 12))):
        name = draw(st.sampled_from(names))
        spec = GATE_SPECS[name]
        wires = tuple(draw(st.permutations(range(1, n + 1)))[: spec.wires])
        wires = tuple(draw(st.sampled_from([int, np.int64] + [bool] * (w == 1)))(w) for w in wires)
        if name == "u2":
            u = random_unitary_2x2(np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
            params = tuple(float(x) for e in u.flat for x in (e.real, e.imag))
        else:
            finite = st.floats(allow_nan=False, allow_infinity=False)
            params = tuple(draw(finite) for _ in range(spec.params))
        params = tuple(draw(st.sampled_from([float, np.float64]))(p) for p in params)
        ops.append(GateOp(name, wires, params))
    return Circuit(n, tuple(ops))


class TestParsing:
    def test_bell_circuit(self):
        circuit = parse_circuit("qubits 2\nh 1\ncnot 1 2\n")
        assert circuit == Circuit(2, (GateOp("h", (1,)), GateOp("cnot", (1, 2))))

    def test_phase_parameter(self):
        circuit = parse_circuit("qubits 1\nphase 1 1.5707963\n")
        assert circuit.ops[0] == GateOp("phase", (1,), (1.5707963,))

    def test_comments_and_blank_lines(self):
        text = "\n# a comment\nqubits 1\n\nx 1  # inline comment\n\n"
        circuit = parse_circuit(text)
        assert circuit == Circuit(1, (GateOp("x", (1,)),))

    def test_case_insensitive_names(self):
        circuit = parse_circuit("QUBITS 2\nH 1\nCNOT 1 2\n")
        assert circuit.ops[0].name == "h"

    def test_wire_in_any_decimal_script(self):
        # U+0661 ARABIC-INDIC DIGIT ONE is decimal, as int() reads it
        assert parse_circuit("qubits 1\nx \u0661\n").ops == (GateOp("x", (1,)),)

    def test_u2_takes_eight_params(self):
        text = "qubits 1\nu2 1 0 0 1 0 1 0 0 0\n"
        circuit = parse_circuit(text)
        assert circuit.ops[0].params == (0, 0, 1, 0, 1, 0, 0, 0)


class TestDiagnostics:
    def test_wire_out_of_range(self):
        with pytest.raises(CircuitError) as exc:
            parse_circuit("qubits 2\ncnot 1 3\n")
        assert exc.value.line == 2
        assert "out of range" in str(exc.value)

    def test_unknown_gate(self):
        with pytest.raises(CircuitError) as exc:
            parse_circuit("qubits 2\nfoo 1\n")
        assert exc.value.line == 2

    def test_arity_mismatch(self):
        with pytest.raises(CircuitError):
            parse_circuit("qubits 2\ncnot 1\n")

    def test_bad_parameter(self):
        with pytest.raises(CircuitError) as exc:
            parse_circuit("qubits 1\nphase 1 fast\n")
        assert "parameter" in str(exc.value)

    @pytest.mark.parametrize(
        "line,column",
        [
            ("phase 1 nan", 9),
            ("phase 1 inf", 9),
            ("phase 1 -inf", 9),
            ("phase 1 1e999", 9),
            ("u2 1 1 0 0 0 0 0 nan 0", 18),
        ],
    )
    def test_non_finite_parameter(self, line, column):
        with pytest.raises(CircuitError) as exc:
            parse_circuit(f"qubits 1\n{line}\n")
        assert (exc.value.line, exc.value.column) == (2, column)
        assert "parameter" in str(exc.value)

    @pytest.mark.parametrize(
        "text,line,column,message",
        [
            ("qubits \u00b2\n", 1, 8, "invalid qubit count '\u00b2'"),
            ("qubits 1\nx \u00b2\n", 2, 3, "invalid wire '\u00b2'"),
            ("qubits 1\nx 1 foo\n", 2, 5, "invalid parameter 'foo'"),
            ("qubits 1\nphase 1.5\n", 2, 7, "invalid wire '1.5'"),
            ("qubits 1\nu2 1 0 0 1 0 oops 0 0 0\n", 2, 14, "invalid parameter 'oops'"),
            ("qubits 3\nccnot 1 2 1.0\n", 2, 11, "invalid wire '1.0'"),
            ("qubits 1\nphase 1 \u00b2\n", 2, 9, "invalid parameter '\u00b2'"),
            # decimal words past int()'s 4300-digit limit, zero-padded ones too
            pytest.param(f"qubits 2\nx {'1' * 5000}\n", 2, 3, "wire of 5000 digits is too long", id="long-wire"),
            pytest.param(f"qubits 2\nx {'0' * 4999}1\n", 2, 3, "wire of 5000 digits is too long", id="padded-wire"),
            pytest.param(f"qubits 2\ncnot 1 {'2' * 4301}\n", 2, 8, "wire of 4301 digits is too long", id="second-wire"),
            pytest.param(f"qubits {'1' * 5000}\n", 1, 8, "qubit count of 5000 digits is too long", id="long-header"),
            pytest.param(f"qubits {'0' * 4999}1\n", 1, 8, "qubit count of 5000 digits is too long", id="padded-header"),
        ],
    )
    def test_token_not_lexed(self, text, line, column, message):
        with pytest.raises(CircuitError) as exc:
            parse_circuit(text)
        assert str(exc.value) == f"line {line}, column {column}: {message}"

    def test_duplicate_wires(self):
        with pytest.raises(CircuitError):
            parse_circuit("qubits 2\nswap 1 1\n")

    def test_missing_header(self):
        with pytest.raises(CircuitError):
            parse_circuit("x 1\n")

    def test_empty_file(self):
        with pytest.raises(CircuitError):
            parse_circuit("")

    def test_bad_qubit_count(self):
        with pytest.raises(CircuitError):
            parse_circuit("qubits zero\n")

    @pytest.mark.parametrize("count", ["0", "33", "40"])
    def test_qubit_count_out_of_range(self, count):
        with pytest.raises(CircuitError) as exc:
            parse_circuit(f"qubits {count}\nx 1\n")
        assert (exc.value.line, exc.value.column) == (1, 8)
        assert "out of range 1..32" in str(exc.value)

    def test_non_unitary_u2(self):
        with pytest.raises(CircuitError) as exc:
            parse_circuit("qubits 1\nu2 1 2 0 0 0 0 0 1 0\n")
        assert (exc.value.line, exc.value.column) == (2, 6)
        assert "not unitary" in str(exc.value)

    def test_register_beyond_memory_refused_at_header(self):
        text = "# header after a comment\nqubits 20\nx 1\n"
        with pytest.raises(CircuitError) as exc:
            parse_circuit(text, memory_bytes=run_bytes(20) - 1)
        assert (exc.value.line, exc.value.column) == (2, 8)
        assert "physical memory" in str(exc.value)
        assert parse_circuit(text, memory_bytes=run_bytes(20)).n_qubits == 20

    def test_column_reported(self):
        with pytest.raises(CircuitError) as exc:
            parse_circuit("qubits 2\ncnot 1 9\n")
        assert exc.value.column == 8


SPACES = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]

# Bad op lines behind each separator (none ends a line), with their exact
# refusal.  Vertical tab, \x1c and \x85 end a line for ``str.splitlines`` but
# not for ``parse_circuit``.
SEPARATED_BAD_LINES = [
    ("cnot{s}1{s}1", "\t", "line 3, column 8: gate 'cnot' requires distinct wires, got (1, 1)"),
    ("cnot{s}1{s}1", "\xa0", "line 3, column 8: gate 'cnot' requires distinct wires, got (1, 1)"),
    ("cnot{s}1{s}1", "\u3000", "line 3, column 8: gate 'cnot' requires distinct wires, got (1, 1)"),
    ("cnot{s}1{s}1", "\x0b", "line 3, column 8: gate 'cnot' requires distinct wires, got (1, 1)"),
    ("{s}x{s}{s}4", "\t", "line 3, column 5: wire 4 out of range 1..3"),
    ("{s}x{s}{s}4", "\xa0", "line 3, column 5: wire 4 out of range 1..3"),
    ("{s}x{s}{s}4", "\u3000", "line 3, column 5: wire 4 out of range 1..3"),
    ("{s}x{s}{s}4", "\x1c", "line 3, column 5: wire 4 out of range 1..3"),
    ("nope{s}1", "\t", "line 3, column 1: unknown gate 'nope'"),
    ("nope{s}1", "\u3000", "line 3, column 1: unknown gate 'nope'"),
    ("nope{s}1", "\x85", "line 3, column 1: unknown gate 'nope'"),
    ("phase{s}1{s}nan", "\t", "line 3, column 9: non-finite parameter nan"),
    ("phase{s}1{s}nan", "\xa0", "line 3, column 9: non-finite parameter nan"),
    ("phase{s}1{s}nan", "\u3000", "line 3, column 9: non-finite parameter nan"),
    ("phase{s}1{s}nan", "\x85", "line 3, column 9: non-finite parameter nan"),
    ("h{s}1{s}0.5", "\t", "line 3, column 1: gate 'h' takes 1 wire(s) and 0 parameter(s), got 1 and 1"),
    ("h{s}1{s}0.5", "\xa0", "line 3, column 1: gate 'h' takes 1 wire(s) and 0 parameter(s), got 1 and 1"),
    ("h{s}1{s}0.5", "\x0b", "line 3, column 1: gate 'h' takes 1 wire(s) and 0 parameter(s), got 1 and 1"),
    ("x{s}1.5", "\t", "line 3, column 3: invalid wire '1.5'"),
    ("x{s}1.5", "\u3000", "line 3, column 3: invalid wire '1.5'"),
    ("x{s}1.5", "\x1c", "line 3, column 3: invalid wire '1.5'"),
    ("cz{s}2{s}0", "\t", "line 3, column 6: wire 0 out of range 1..3"),
    ("cz{s}2{s}0", "\xa0", "line 3, column 6: wire 0 out of range 1..3"),
    ("cz{s}2{s}0", "\u3000", "line 3, column 6: wire 0 out of range 1..3"),
]

# The separators at which ``str.splitlines`` ends a line and ``parse_circuit`` does not.
SPLITLINES_ONLY = [c for c in SPACES if c not in "\n\r" and len(f"a{c}b".splitlines()) == 2]


class TestTokenizer:
    """The parser splits lines with ``str.split``; ``_tokens`` gives the columns of the header and of an error."""

    @pytest.mark.parametrize("space", SPACES, ids=lambda c: f"U+{ord(c):04X}")
    def test_words_match_str_split(self, space):
        line = space.join(["", "cnot", "1", "", "2", "# a", "comment", ""])
        assert [word for word, _ in _tokens(line)] == line.split("#", 1)[0].split() == ["cnot", "1", "2"]

    def test_columns(self):
        line = "\u3000cnot\t1  1\xa0# 1 1"
        assert _tokens(line) == [("cnot", 2), ("1", 7), ("1", 10)]
        assert _tokens("1 11 1 111 1") == [("1", 1), ("11", 3), ("1", 6), ("111", 8), ("1", 12)]

    @pytest.mark.parametrize("template,space,message", SEPARATED_BAD_LINES)
    def test_bad_line_message(self, template, space, message):
        with pytest.raises(CircuitError) as exc:
            parse_circuit("qubits 3\nh 1\n" + template.format(s=space) + "  # note\n")
        assert str(exc.value) == message

    @pytest.mark.parametrize("space", SPLITLINES_ONLY, ids=lambda c: f"U+{ord(c):04X}")
    def test_only_newlines_end_a_line(self, space):
        with pytest.raises(CircuitError) as exc:
            parse_circuit(f"qubits 2\n{space}\nx{space}9\n")
        assert str(exc.value) == "line 3, column 3: wire 9 out of range 1..2"

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=repr)
    def test_line_endings(self, newline):
        text = newline.join(["qubits 2", "", "cnot 1 2", "x 9", ""])
        with pytest.raises(CircuitError, match="^line 4, column 3: "):
            parse_circuit(text)
        assert parse_circuit(text.replace("x 9", "x 2")).ops[-1] == GateOp("x", (2,))

    @pytest.mark.parametrize("space", ["\t", "\xa0", "\u3000", "\u2003"])
    def test_separated_ops_parse(self, space):
        text = f"qubits{space}3\n{space}cnot{space}3{space}1{space}#{space}c\nphase{space}2{space}0.5\n"
        circuit = parse_circuit(text)
        assert circuit == Circuit(3, (GateOp("cnot", (3, 1)), GateOp("phase", (2,), (0.5,))))


class TestRoundTrip:
    def test_parse_render_parse(self):
        text = (
            "qubits 3\n"
            "h 1\n"
            "phase 2 0.7853981633974483\n"
            "cnot 1 3\n"
            "ccnot 1 2 3\n"
            "u2 2 0.6 0.0 0.0 0.8 0.0 0.8 0.6 0.0\n"
        )
        first = parse_circuit(text)
        second = parse_circuit(render_circuit(first))
        assert first == second

    @settings(derandomize=True, database=None, max_examples=50, deadline=None)
    @given(registry_circuits())
    def test_random_circuits_round_trip(self, circuit):
        parsed = parse_circuit(render_circuit(circuit))
        assert parsed == circuit
        assert run_clifford(parsed).amplitudes.tobytes() == run_clifford(circuit).amplitudes.tobytes()

    def test_parse_of_render_is_the_circuit(self):
        # every op comes back a GateOp, a parameterless one with the default ()
        ops = [GateOp("h", (1,)), GateOp("phase", (2,), (0.5,)), GateOp("ccnot", (3, 1, 2)), GateOp("swap", (2, 3), ())]
        circuit = Circuit(3, tuple(ops))
        parsed = parse_circuit(render_circuit(circuit))
        assert parsed == circuit
        assert [type(op) for op in parsed.ops] == [GateOp] * 4
        assert [op.params for op in parsed.ops] == [(), (0.5,), (), ()]

    def test_op_fields_cannot_be_assigned(self):
        op = GateOp("phase", (1,), (0.5,))
        for field, value in [("name", "x"), ("wires", (2,)), ("params", ())]:
            with pytest.raises(AttributeError):
                setattr(op, field, value)
        assert op == GateOp("phase", (1,), (0.5,))
        assert repr(op) == "GateOp(name='phase', wires=(1,), params=(0.5,))"

    def test_render_starts_with_header(self):
        circuit = Circuit(2, (GateOp("x", (2,)),))
        assert render_circuit(circuit).splitlines()[0] == "qubits 2"


class TestBits:
    def test_parse_bits(self):
        assert parse_bits("010", 3) == (0, 1, 0)

    def test_parse_bits_validation(self):
        with pytest.raises(ValueError):
            parse_bits("01", 3)
        with pytest.raises(ValueError):
            parse_bits("012", 3)


class TestRunClifford:
    def test_bell_amplitudes(self):
        circuit = parse_circuit("qubits 2\nh 1\ncnot 1 2\n")
        state = run_clifford(circuit)
        amps = state_to_amplitudes(state.ctx, state)
        r = 1 / math.sqrt(2)
        expected = [r, 0, 0, r]
        assert max(abs(a - e) for a, e in zip(amps, expected)) < 1e-12

    def test_initial_bits(self):
        circuit = parse_circuit("qubits 2\ncnot 1 2\n")
        state = run_clifford(circuit, init_bits=(1, 0))
        amps = state_to_amplitudes(state.ctx, state)
        assert abs(amps[3] - 1) < 1e-12

    def test_strict_mode_runs(self):
        circuit = parse_circuit("qubits 2\nh 1\ncnot 1 2\nswap 1 2\n")
        state = run_clifford(circuit)
        assert abs(sum(abs(a) ** 2 for a in state_to_amplitudes(state.ctx, state)) - 1) < 1e-10

    def test_run_path_multiplies_no_multivectors(self, monkeypatch):
        # gates reach the amplitudes through the Jordan-Wigner map alone
        from cliffsim.multivector import Multivector

        def refuse(*args):
            raise AssertionError("run_clifford multiplied two multivectors")

        monkeypatch.setattr(Multivector, "__mul__", refuse)
        circuit = random_circuit(np.random.default_rng(151), 4, 60)
        assert {op.name for op in circuit.ops} == set(GATE_SPECS)
        state = run_clifford(circuit)
        assert abs(np.linalg.norm(state.amplitudes) - 1) < 1e-10

    def test_run_path_builds_no_gate_element(self, monkeypatch):
        # each op's table goes straight from the builder to the kernel
        def refuse(*args):
            raise AssertionError("run_clifford built a GateElement")

        monkeypatch.setattr(GateElement, "__init__", refuse)
        circuit = random_circuit(np.random.default_rng(152), 4, 60)
        assert {op.name for op in circuit.ops} == set(GATE_SPECS)
        run_clifford(circuit)

    def test_run_path_never_builds_the_blade_form(self, monkeypatch):
        # gates are built and applied as Pauli tables; the blade form is for display alone
        import sys

        import cliffsim.gates
        import cliffsim.witt
        from cliffsim.matrix_backend import run_matrix

        def refuse(*args):
            raise AssertionError("run_clifford went through the blade form")

        # The Jordan-Wigner map lives in witt.py: refuse it there and under
        # every name by which a cliffsim module imported it.
        modules = [m for key, m in list(sys.modules.items()) if key.split(".")[0] == "cliffsim"]
        for name in ("_wire_bits", "_below", "_pauli_string", "_blade_mask", "paulis_to_blades"):
            original = getattr(cliffsim.witt, name)
            for module in modules:
                for attr, obj in list(vars(module).items()):
                    if obj is original:
                        monkeypatch.setattr(module, attr, refuse)
        monkeypatch.setattr(cliffsim.gates.GateElement, "value", property(refuse))
        monkeypatch.setattr(cliffsim.witt.SpinorState, "value", property(refuse))
        circuit = random_circuit(np.random.default_rng(151), 4, 60)
        assert {op.name for op in circuit.ops} == set(GATE_SPECS)
        state = run_clifford(circuit)
        assert np.max(np.abs(state.amplitudes - run_matrix(circuit).amplitudes)) < 1e-10

    def test_run_holds_one_batch_of_gate_tables(self):
        # Tables are built as the kernel takes them, so a run's peak memory
        # does not grow with the circuit; building every table first would.
        def run_peak(circuit):
            tracemalloc.start()
            try:
                run_clifford(circuit)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        short, long = (random_circuit(np.random.default_rng(d), 4, d) for d in (2000, 20000))
        run_clifford(short)  # fill the interpreter's free lists before either peak is taken
        assert run_peak(long) <= 1.2 * run_peak(short)
