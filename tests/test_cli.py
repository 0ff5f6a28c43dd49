"""Command-line interface: subcommands, exit codes, JSON output."""

import argparse
import dataclasses
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cliffsim
import cliffsim.cli
import cliffsim.gates
import cliffsim.matrix_backend
import cliffsim.witt
from cliffsim.circuit import CircuitError, parse_bits, parse_circuit
from cliffsim.cli import main
from cliffsim.gates import build_gate, run_bytes, run_clifford
from cliffsim.witt import WittContext, amplitudes_to_state, paulis_to_blades

BELL = "qubits 2\nh 1\ncnot 1 2\n"

# The directory that holds the package under test, for PYTHONPATH in a child process.
SRC = str(Path(cliffsim.__file__).parent.parent)

# Every registry gate on unsorted wires, on 5 qubits.
ORDERS5 = (
    "qubits 5\nh 1\nh 3\nh 5\nx 4\ny 2\nz 5\ns 1\nphase 3 0.7\nu2 2 0 0 1 0 1 0 0 0\n"
    "cnot 4 2\ncz 4 1\nswap 5 2\nccnot 5 1 3\ncswap 3 5 1\nccnot 2 4 1\ncswap 4 1 2\ncnot 1 5\n"
)

# Every multi-wire gate on unsorted wires at the dense oracle's 12-qubit cap.
CAP12 = "".join(
    [
        "qubits 12\n",
        *(f"h {w}\n" for w in range(1, 13)),
        "cnot 9 3\ncz 12 1\nswap 7 2\nccnot 11 4 6\ncswap 5 12 8\ncnot 2 10\nccnot 3 1 9\ncswap 10 6 1\n",
        *(f"phase {w} 0.3\n" for w in range(1, 13)),
    ]
)

# `cliffsim run ARGS...` in a fresh process; prints its exit code and the rise
# in peak RSS, in bytes, to stderr.  VmHWM, unlike ru_maxrss, does not carry
# over the peak of the process that started this one.
PEAK_GROWTH_OF_RUN = """
import sys
from cliffsim.cli import main

def peak():
    with open("/proc/self/status") as fh:
        return next(1024 * int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))

before = peak()
code = main(["run", *sys.argv[1:]])
print(code, peak() - before, file=sys.stderr)
"""


def ladder(n):
    """An h layer, a cnot ladder and a phase layer on n qubits: every amplitude nonzero."""
    lines = [f"qubits {n}", *(f"h {w}" for w in range(1, n + 1))]
    lines += [f"cnot {w} {w + 1}" for w in range(1, n)]
    lines += [f"phase {w} {0.25 * w!r}" for w in range(1, n + 1)]
    return "\n".join(lines) + "\n"


# Bad gate ops on a 2-qubit register: name, wires, parameter tokens, the
# column of the offending token in the op's line, and the message.
BAD_OPS = [
    ("foo", (1,), (), 1, "unknown gate 'foo'"),
    ("cnot", (1,), (), 1, "gate 'cnot' takes 2 wire(s) and 0 parameter(s), got 1 and 0"),
    ("x", (1,), ("2",), 1, "gate 'x' takes 1 wire(s) and 0 parameter(s), got 1 and 1"),
    ("x", (0,), (), 3, "wire 0 out of range 1..2"),
    ("x", (3,), (), 3, "wire 3 out of range 1..2"),
    ("cnot", (2, 2), (), 8, "gate 'cnot' requires distinct wires, got (2, 2)"),
    ("phase", (1,), ("nan",), 9, "non-finite parameter nan"),
    ("phase", (1,), ("inf",), 9, "non-finite parameter inf"),
    ("phase", (1,), ("1e999",), 9, "non-finite parameter inf"),
    ("u2", (1,), ("2", "0", "0", "0", "0", "0", "1", "0"), 6, "matrix is not unitary (deviation 3.000e+00)"),
    ("u2", (1,), ("1e200", "0", "0", "0", "0", "0", "1", "0"), 6, "matrix is not unitary (deviation inf)"),
]


@pytest.fixture
def bell_file(tmp_path):
    path = tmp_path / "bell.qc"
    path.write_text(BELL)
    return str(path)


class TestRun:
    def test_clifford_backend(self, bell_file, capsys):
        assert main(["run", bell_file]) == 0
        out = capsys.readouterr().out
        assert "|00>" in out and "|11>" in out

    def test_both_backends_pass(self, bell_file, capsys):
        assert main(["run", "--backend", "both", bell_file]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_matrix_backend(self, bell_file, capsys):
        assert main(["run", "--backend", "matrix", bell_file]) == 0

    def test_probabilities_flag(self, bell_file, capsys):
        assert main(["run", "--probabilities", bell_file]) == 0
        out = capsys.readouterr().out
        assert "p(|00>) = 0.5000000000" in out

    def test_json_schema(self, bell_file, capsys):
        assert main(["run", "--backend", "both", "--json", bell_file]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"backend", "amplitudes", "probabilities", "deviation"}
        assert payload["backend"] == "both"
        assert len(payload["amplitudes"]) == 4
        assert abs(payload["amplitudes"][0][0] - 1 / math.sqrt(2)) < 1e-12
        assert payload["deviation"] < 1e-9

    def test_init_flag(self, tmp_path, capsys):
        path = tmp_path / "c.qc"
        path.write_text("qubits 2\ncnot 1 2\n")
        assert main(["run", "--init", "10", "--json", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["probabilities"][3] == pytest.approx(1.0)

    def test_show_algebra(self, bell_file, capsys):
        assert main(["run", "--show-algebra", bell_file]) == 0
        out = capsys.readouterr().out
        assert "cnot 1 2:" in out
        assert "state:" in out

    def test_parse_error_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.qc"
        path.write_text("qubits 2\ncnot 1 5\n")
        assert main(["run", str(path)]) == 2
        assert "out of range" in capsys.readouterr().err

    def test_missing_file_exits_2(self, capsys):
        assert main(["run", "/nonexistent/file.qc"]) == 2

    def test_non_utf8_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.qc"
        path.write_bytes(b"qubits 1\nx 1 \xff\n")
        assert main(["run", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot read {path}: ")

    def test_leading_byte_order_mark_is_read(self, tmp_path, capsys):
        plain, marked = tmp_path / "plain.qc", tmp_path / "marked.qc"
        plain.write_bytes(BELL.encode())
        marked.write_bytes(b"\xef\xbb\xbf" + BELL.encode())
        assert main(["run", "--show-algebra", "--backend", "both", str(plain)]) == 0
        expected = capsys.readouterr()
        assert main(["run", "--show-algebra", "--backend", "both", str(marked)]) == 0
        assert capsys.readouterr() == expected

    @pytest.mark.parametrize(
        "data, message",
        [
            (b"qubits 1\n\xef\xbb\xbfx 1\n", "line 2, column 1: unknown gate '\\ufeffx'"),
            (b"qubits 2\nx 1 \xef\xbb\xbf\n", "line 2, column 5: invalid parameter '\\ufeff'"),
            (b"\xef\xbb\xbf\xef\xbb\xbfqubits 1\nx 1\n", "line 1, column 1: expected 'qubits N' header"),
        ],
    )
    def test_later_byte_order_mark_is_refused(self, tmp_path, capsys, data, message):
        path = tmp_path / "marked.qc"
        path.write_bytes(data)
        assert main(["run", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_bad_init_exits_2(self, bell_file, capsys):
        assert main(["run", "--init", "0", bell_file]) == 2

    def test_deviation_failure_exits_1(self, bell_file, capsys, monkeypatch):
        # a Clifford backend that leaves the state at |00> deviates from the oracle's Bell state
        def stuck(circuit, bits=None):
            return amplitudes_to_state(WittContext(2), [1, 0, 0, 0])

        monkeypatch.setattr(cliffsim.matrix_backend, "run_clifford", stuck)
        assert main(["run", "--backend", "both", bell_file]) == 1
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("flags", [[], ["--json"]])
    def test_non_finite_parameter_exits_2(self, tmp_path, capsys, flags):
        path = tmp_path / "nan.qc"
        path.write_text("qubits 1\nphase 1 nan\n")
        assert main(["run", "--backend", "both", *flags, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "line 2, column 9" in captured.err

    @pytest.mark.parametrize(
        "text,location",
        [
            ("qubits 40\nx 1\n", "line 1, column 8"),
            ("qubits 1\nu2 1 2 0 0 0 0 0 1 0\n", "line 2, column 6"),
            # a repeated wire behind a tab, refused at the second wire
            pytest.param("qubits 2\ncnot\t1 1\n", "line 2, column 8", id="tab-repeated-wire"),
            # a form feed is whitespace, not a line end: the bad op is on line 3
            pytest.param("qubits 2\n\f\nx 9\n", "line 3, column 3", id="form-feed"),
            # past int()'s 4300-digit limit
            pytest.param(f"qubits 2\nx {'1' * 5000}\n", "line 2, column 3", id="5000-digit-wire"),
        ],
    )
    def test_invalid_circuit_exits_2(self, tmp_path, capsys, text, location):
        path = tmp_path / "bad.qc"
        path.write_text(text)
        assert main(["run", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert location in captured.err

    def test_register_beyond_memory_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cliffsim.cli, "_physical_memory", lambda: run_bytes(3) - 1)
        path = tmp_path / "c.qc"
        path.write_text("qubits 3\nx 1\n")
        assert main(["run", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "line 1, column 8" in captured.err
        assert "physical memory" in captured.err
        path.write_text("qubits 2\nx 1\n")
        assert main(["run", str(path)]) == 0

    @pytest.mark.parametrize("backend", ["matrix", "both"])
    def test_register_beyond_matrix_cap_exits_2(self, tmp_path, capsys, monkeypatch, backend):
        calls = []
        monkeypatch.setattr(cliffsim.matrix_backend, "run_clifford", lambda *args: calls.append(args))
        path = tmp_path / "c.qc"
        path.write_text("# 13 wires\nqubits 13\nx 1\n")
        assert main(["run", "--backend", backend, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "line 2, column 8" in captured.err
        assert "1..12" in captured.err
        assert calls == []

    def test_json_non_finite_exits_1(self, bell_file, capsys, monkeypatch):
        def nan_state(circuit, bits=None):
            return amplitudes_to_state(WittContext(2), [math.nan, 0, 0, 0])

        monkeypatch.setattr(cliffsim.cli, "run_clifford", nan_state)
        assert main(["run", "--json", bell_file]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "non-finite" in captured.err

    @pytest.mark.parametrize(
        "n,backend,flags",
        [
            pytest.param(13, "clifford", [], id="13-clifford"),
            pytest.param(12, "both", [], id="12-both"),
            pytest.param(4, "both", ["--probabilities"], id="4-both-probabilities"),
            pytest.param(5, "both", ["--init", "10110"], id="5-both-init"),
            pytest.param(5, "clifford", ["--probabilities", "--init", "01101"], id="5-clifford-probabilities-init"),
        ],
    )
    def test_json_is_the_payload_dumped_whole(self, tmp_path, capsys, n, backend, flags):
        # at 13 qubits the lists are written in two blocks; --probabilities adds nothing to the object
        path = tmp_path / "ladder.qc"
        path.write_text(ladder(n))
        assert main(["run", "--json", "--backend", backend, *flags, str(path)]) == 0
        circuit = parse_circuit(path.read_text())
        bits = parse_bits(flags[flags.index("--init") + 1], n) if "--init" in flags else None
        amps = run_clifford(circuit, bits).amplitudes.tolist()
        payload = {
            "backend": backend,
            "amplitudes": [[a.real, a.imag] for a in amps],
            "probabilities": [abs(a) ** 2 for a in amps],
            "deviation": cliffsim.matrix_backend.compare_backends(circuit, bits).max_deviation if backend == "both" else None,
        }
        assert capsys.readouterr().out == json.dumps(payload) + "\n"

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc")
    def test_json_run_stays_within_run_bytes(self, tmp_path):
        # the payload is written a block at a time, not built whole as Python lists and text
        n = 16
        path = tmp_path / "ladder.qc"
        path.write_text(ladder(n))
        env = {**os.environ, "PYTHONPATH": SRC}
        proc = subprocess.run(
            [sys.executable, "-c", PEAK_GROWTH_OF_RUN, "--json", str(path)],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            timeout=120,
            check=False,
        )
        code, growth = proc.stderr.split()
        assert code == "0"
        assert int(growth) <= run_bytes(n)

    def test_json_with_show_algebra_exits_2(self, tmp_path, capsys):
        # refused before the file is read: the missing file goes unreported
        assert main(["run", "--json", "--show-algebra", str(tmp_path / "missing.qc")]) == 2
        assert capsys.readouterr() == ("", "error: --show-algebra prints text, so it cannot be combined with --json\n")

    def test_show_algebra_runs_the_circuit_once(self, bell_file, capsys, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return run_clifford(*args)

        monkeypatch.setattr(cliffsim.cli, "run_clifford", counted)
        monkeypatch.setattr(cliffsim.matrix_backend, "run_clifford", counted)
        for backend in ("clifford", "both", "matrix"):
            calls.clear()
            assert main(["run", "--show-algebra", "--backend", backend, bell_file]) == 0
            assert len(calls) == 1, backend

    def test_display_builds_one_blade_form(self, bell_file, capsys, monkeypatch):
        """The Witt lines come from Pauli tables and amplitudes: only the ``blades:`` line builds a blade form."""
        calls = []

        def counted(*args):
            calls.append(args)
            return paulis_to_blades(*args)

        monkeypatch.setattr(cliffsim.witt, "paulis_to_blades", counted)
        monkeypatch.setattr(cliffsim.gates, "paulis_to_blades", counted)
        assert main(["run", "--show-algebra", bell_file]) == 0
        assert len(calls) == 1
        calls.clear()
        assert main(["gate-dump", "cswap"]) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("tol", ["1e-9", "0.25"])
    def test_finite_tolerance_is_used(self, bell_file, capsys, monkeypatch, tol):
        # the README's `run --backend both --json --tol 1e-9 bell.qc`
        tols = []

        def spy(circuit, init_bits=None, tol=1e-9):
            tols.append(tol)
            return cliffsim.matrix_backend.compare_backends(circuit, init_bits, tol)

        monkeypatch.setattr(cliffsim.cli, "compare_backends", spy)
        assert main(["run", "--backend", "both", "--json", "--tol", tol, bell_file]) == 0
        assert tols == [float(tol)]
        assert json.loads(capsys.readouterr().out)["deviation"] < 1e-9

    def test_nan_tolerance_is_not_a_pass(self, bell_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--backend", "both", "--tol", "nan", bell_file])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --tol: must be a finite number > 0, got 'nan'" in captured.err

    @pytest.mark.parametrize("tol", ["-1", "0", "-0.0", "inf", "1e999", "abc"])
    def test_tolerance_must_be_finite_and_positive(self, bell_file, capsys, tol):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--backend", "both", "--tol", tol, bell_file])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument --tol: must be a finite number > 0, got {tol!r}" in captured.err

    def test_show_algebra_with_both_backends(self, bell_file, capsys):
        assert main(["run", "--show-algebra", "--backend", "both", bell_file]) == 0
        out = capsys.readouterr().out
        assert "h 1: " in out and "cnot 1 2: " in out and "PASS" in out

    @pytest.mark.parametrize(
        "text, flags",
        [
            pytest.param(ORDERS5, ["--backend", "both"], id="orders5-both"),
            pytest.param(ORDERS5, ["--show-algebra", "--backend", "matrix"], id="orders5-show-algebra-matrix"),
            pytest.param(CAP12, ["--backend", "both"], id="cap12-both"),
        ],
    )
    def test_every_gate_on_unsorted_wires(self, tmp_path, capsys, text, flags):
        path = tmp_path / "c.qc"
        path.write_text(text)
        assert main(["run", *flags, str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        if "both" in flags:
            assert lines[-1].startswith("backend deviation max|d| = ") and lines[-1].endswith("  PASS")
        if "--show-algebra" in flags:
            ops = parse_circuit(text).ops
            heads = [f"{op.name} {' '.join(map(str, op.wires))}" for op in ops]
            assert [line.split(":")[0] for line in lines[: len(ops)]] == heads

    def test_ladder_above_the_oracle_cap_matches_its_closed_form(self, tmp_path, capsys):
        # n = 16 runs in blocks of 2^14 outputs: |k> ends at 2^(-n/2) exp(i sum_w 0.25 w b_w(k))
        n = 16
        path = tmp_path / "ladder.qc"
        path.write_text(ladder(n))
        assert main(["run", "--json", str(path)]) == 0
        pairs = np.array(json.loads(capsys.readouterr().out)["amplitudes"])
        assert pairs.shape == (2**n, 2)
        k = np.arange(2**n)
        angle = sum(0.25 * w * (k >> (n - w) & 1) for w in range(1, n + 1))
        want = 2 ** (-n / 2) * np.exp(1j * angle)
        assert np.abs(pairs[:, 0] + 1j * pairs[:, 1] - want).max() <= 1e-12
        assert abs(math.fsum((pairs * pairs).sum(axis=1)) - 1) <= 1e-12

    def test_module_run_in_a_process(self, bell_file, capsys):
        # `python -m cliffsim.cli` prints what `main` prints and exits with its code
        assert main(["run", "--backend", "both", bell_file]) == 0
        expected = capsys.readouterr().out
        proc = subprocess.run(
            [sys.executable, "-m", "cliffsim.cli", "run", "--backend", "both", bell_file],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": SRC},
            timeout=60,
            check=False,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, expected, "")


# Tokens that mutate a circuit's words: non-finite and overflowing numbers, a
# non-ASCII decimal digit, hex, NUL, a byte-order mark, and counts out of range.
MUTATIONS = ["nan", "1e400", "\u0661", "0x10", "\x00", "\ufeff", "0", "33", "-1", "1.5", "\u00b2", "#", "\n"]


def mutated_circuit(rng):
    """A registry circuit on at most 5 qubits, then up to two words replaced, inserted or deleted."""
    n = rng.randint(1, 5)
    lines = [["qubits", str(n)]]
    for _ in range(rng.randint(1, 10)):
        name = rng.choice([g for g, spec in cliffsim.gates.GATE_SPECS.items() if spec.wires <= n])
        words = [name, *map(str, rng.sample(range(1, n + 1), cliffsim.gates.GATE_SPECS[name].wires))]
        theta = rng.uniform(0.0, 2.0 * math.pi)
        if name == "phase":
            words.append(repr(theta))
        elif name == "u2":  # [[cos, -sin], [sin, cos]]
            c, s = math.cos(theta), math.sin(theta)
            words += map(repr, (c, 0.0, -s, 0.0, s, 0.0, c, 0.0))
        lines.append(words)
    for _ in range(rng.randint(0, 2)):
        words = rng.choice(lines)
        at = rng.randint(0, len(words))
        kind = rng.choice(["replace", "replace", "insert", "delete"]) if at < len(words) else "insert"
        if kind == "delete":
            del words[at]
        else:
            words[at : at + (kind == "replace")] = [rng.choice(MUTATIONS)]
    return "".join(" ".join(words) + "\n" for words in lines)


class TestRunNeverRaises:
    """``cliffsim run`` on mutated circuits exits 0 or 2, and refuses with one ``error:`` line."""

    def test_mutated_circuits(self, tmp_path, capsys):
        rng = random.Random(18)
        path = tmp_path / "mutated.qc"
        codes = []
        for _ in range(150):
            text = mutated_circuit(rng)
            path.write_text(text, encoding="utf-8")
            argv = ["run", "--backend", rng.choice(["clifford", "matrix", "both"])]
            argv += [flag for flag in ("--json", "--probabilities") if rng.random() < 0.5]
            if rng.random() < 0.3:
                argv += ["--init", "".join(rng.choice("01") for _ in range(rng.randint(1, 5)))]
            codes.append(main([*argv, str(path)]))
            captured = capsys.readouterr()
            assert codes[-1] in (0, 2), (text, argv)
            if codes[-1] == 2:
                assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, (text, argv, captured.err)
        assert {0, 2} <= set(codes)


class TestFuzz:
    def test_small_sweep(self, capsys):
        for argv, circuits in [(["--seed", "7", "--circuits", "5"], 5), (["--circuits", "20", "--max-qubits", "3"], 20)]:
            assert main(["fuzz", *argv]) == 0
            out = capsys.readouterr().out
            assert out.count("PASS") == circuits + 1  # each circuit + summary
            assert "fuzz summary" in out

    def test_json_summary(self, capsys):
        assert main(["fuzz", "--seed", "7", "--circuits", "4", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["failures"] == 0
        assert len(payload["results"]) == 4
        assert payload["max_deviation"] < 1e-9

    def test_echoes_its_arguments(self, capsys):
        argv = ["fuzz", "--seed", "3", "--circuits", "2", "--max-qubits", "2", "--depth", "3", "--tol", "0.5"]
        assert main([*argv, "--json"]) == 0
        assert capsys.readouterr().out.startswith('{"seed": 3, "circuits": 2, "max_qubits": 2, "depth": 3, "tol": 0.5, ')
        assert main(argv) == 0
        assert capsys.readouterr().out.splitlines()[-1].startswith("fuzz summary: 2 circuits, 0 failures, ")

    def test_json_non_finite_exits_1(self, capsys, monkeypatch):
        def nan_state(circuit, bits=None):
            n = circuit.n_qubits
            return amplitudes_to_state(WittContext(n), [math.nan] * 2 ** n)

        monkeypatch.setattr(cliffsim.matrix_backend, "run_clifford", nan_state)
        assert main(["fuzz", "--seed", "7", "--circuits", "2", "--json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "non-finite" in captured.err

    def test_nan_deviation_is_the_maximum(self, capsys, monkeypatch):
        # circuit 0 reports a NaN deviation; the finite ones after it must not hide it
        compare = cliffsim.matrix_backend.compare_backends
        calls = []

        def nan_first(circuit, init_bits=None, tol=1e-9):
            report = compare(circuit, init_bits, tol)
            if not calls:
                report = dataclasses.replace(report, max_deviation=math.nan, passed=False)
            calls.append(report)
            return report

        monkeypatch.setattr(cliffsim.matrix_backend, "compare_backends", nan_first)
        report = cliffsim.matrix_backend.run_fuzz(seed=7, circuits=3)
        assert math.isnan(report.max_deviation)
        assert report.failures == 1 and not report.passed
        calls.clear()
        assert main(["fuzz", "--seed", "7", "--circuits", "3"]) == 1
        out = capsys.readouterr().out
        assert out.splitlines()[0].endswith("max|d|=nan  FAIL")
        assert out.splitlines()[-1] == "fuzz summary: 3 circuits, 1 failures, max|d|=nan  FAIL"

    @pytest.mark.parametrize(
        "flags", ["--max-qubits 0", "--max-qubits 13", "--depth 0", "--circuits -1", "--seed -1"]
    )
    def test_invalid_arguments_exit_2(self, capsys, flags):
        assert main(["fuzz", "--circuits", "3", "--depth", "2", *flags.split()]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert flags.split()[0] in captured.err

    def test_depth_beyond_memory_exits_2(self, capsys, monkeypatch):
        # one circuit of --depth ops, each up to _FUZZ_OP_BYTES, must fit in physical memory
        monkeypatch.setattr(cliffsim.cli, "_physical_memory", lambda: 10 * cliffsim.cli._FUZZ_OP_BYTES)
        argv = ["fuzz", "--circuits", "1", "--max-qubits", "1"]
        assert main([*argv, "--depth", "11"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --depth 11 needs about ") and "physical memory" in captured.err
        assert main([*argv, "--depth", "10"]) == 0

    def test_circuits_beyond_memory_exits_2(self, capsys, monkeypatch):
        # every circuit's result, up to _FUZZ_RESULT_BYTES each, is kept to the end
        monkeypatch.setattr(cliffsim.cli, "_physical_memory", lambda: 10 * cliffsim.cli._FUZZ_RESULT_BYTES)
        argv = ["fuzz", "--depth", "1", "--max-qubits", "1"]
        assert main([*argv, "--circuits", "11"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --circuits 11 needs about ") and "physical memory" in captured.err
        assert main([*argv, "--circuits", "10", "--json"]) == 0

    def test_huge_circuit_count_is_refused_before_drawing(self, capsys, monkeypatch):
        def refuse(**kwargs):
            raise AssertionError("fuzz drew a circuit")

        monkeypatch.setattr(cliffsim.cli, "run_fuzz", refuse)
        assert main(["fuzz", "--circuits", str(10**15)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: --circuits {10**15} needs about ") and captured.err.count("\n") == 1

    def test_huge_depth_is_refused_before_drawing(self):
        # in a process with a 256 MiB address space, so that a missing refusal fails fast instead of thrashing
        resource = pytest.importorskip("resource")

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (2**28, 2**28))

        env = {**os.environ, "PYTHONPATH": SRC, "OPENBLAS_NUM_THREADS": "1"}
        proc = subprocess.run(
            [sys.executable, "-m", "cliffsim.cli", "fuzz", "--depth", "1000000000000", "--circuits", "1"],
            capture_output=True,
            text=True,
            env=env,
            preexec_fn=limit,
            timeout=60,
            check=False,
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("error: --depth 1000000000000 needs about ") and proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
    def test_tolerance_must_be_finite_and_positive(self, capsys, tol):
        with pytest.raises(SystemExit) as exc:
            main(["fuzz", "--circuits", "2", "--depth", "2", "--tol", tol])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument --tol: must be a finite number > 0, got {tol!r}" in captured.err


class TestBloch:
    def test_real_pair(self, capsys):
        assert main(["bloch", "0.6", "0.8"]) == 0
        out = capsys.readouterr().out
        assert "theta" in out and "point" in out

    def test_complex_pair(self, capsys):
        assert main(["bloch", "0.6", "0.8j"]) == 0
        out = capsys.readouterr().out
        assert "+0.960000000000" in out

    def test_unnormalized_exits_2(self, capsys):
        assert main(["bloch", "1", "1"]) == 2

    @pytest.mark.parametrize("pair", [["nan", "0"], ["0", "nan"], ["1e200", "0"]])
    def test_non_finite_amplitude_exits_2(self, capsys, pair):
        assert main(["bloch", *pair]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not normalized" in captured.err

    @pytest.mark.parametrize(
        "pair", [["inf", "0"], ["0", "inf"], ["-inf", "0"], ["0", "-inf"], ["infinity", "0"], ["0", "infinity"]]
    )
    def test_infinite_amplitude_exits_2(self, capsys, pair):
        # "--" ends the options, so that "-inf" is read as an amplitude
        assert main(["bloch", "--", *pair]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "amplitudes not normalized: |a|^2+|b|^2 = inf" in captured.err

    @pytest.mark.parametrize("pair", [["0.6", "-0.8j"], ["-0.6+0.8j", "0"], ["-0.6", "-0.8"], ["-1j", "0"]])
    def test_amplitude_starting_with_minus_reads_as_after_double_dash(self, capsys, pair):
        assert main(["bloch", "--", *pair]) == 0
        expected = capsys.readouterr().out
        assert main(["bloch", *pair]) == 0
        assert capsys.readouterr().out == expected

    def test_negative_imaginary_amplitude_prints_the_angles(self, capsys):
        assert main(["bloch", "0.6", "-0.8j"]) == 0
        assert capsys.readouterr().out == (
            "theta = 1.854590436003\n"
            "phi   = 4.712388980385\n"
            "point = (-0.000000000000, -0.960000000000, -0.280000000000)\n"
        )

    @pytest.mark.parametrize("pair", [["0", "-inf"], ["-inf", "0"]])
    def test_negative_infinity_needs_no_double_dash(self, capsys, pair):
        assert main(["bloch", *pair]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "amplitudes not normalized: |a|^2+|b|^2 = inf" in captured.err

    def test_help_is_still_an_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bloch", "0.6", "-h"])
        assert exc.value.code == 0
        assert "usage: cliffsim bloch" in capsys.readouterr().out

    def test_trailing_i_is_the_imaginary_unit(self, capsys):
        assert main(["bloch", "0.6", "0.8i"]) == 0
        assert capsys.readouterr().out == (
            "theta = 1.854590436003\n"
            "phi   = 1.570796326795\n"
            "point = (-0.000000000000, +0.960000000000, -0.280000000000)\n"
        )


class TestIsoCheck:
    def test_passes(self, capsys):
        assert main(["iso-check"]) == 0
        out = capsys.readouterr().out
        assert "256 products" in out
        assert "PASS" in out


class TestGateDump:
    def test_toffoli_witt_form(self, capsys):
        assert main(["gate-dump", "ccnot"]) == 0
        out = capsys.readouterr().out
        assert "f1†f1 f2†f2 f3" in out
        assert "f3†" in out

    def test_phase_with_param(self, capsys):
        assert main(["gate-dump", "phase", "--param", "3.141592653589793"]) == 0

    @pytest.mark.parametrize("value", ["nan", "1e999"])
    def test_non_finite_param_exits_2(self, capsys, value):
        assert main(["gate-dump", "phase", "--param", value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "finite" in captured.err

    def test_unknown_gate_exits_2(self, capsys):
        assert main(["gate-dump", "NoSuch"]) == 2
        assert capsys.readouterr() == ("", "error: unknown gate 'nosuch'\n")

    @pytest.mark.parametrize("qubits", ["0", "33"])
    def test_register_out_of_range_exits_2(self, capsys, qubits):
        assert main(["gate-dump", "x", "--qubits", qubits]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"qubit count {qubits} out of range 1..32" in captured.err

    @pytest.mark.parametrize("wire,n", [("0", 1), ("40", 32)])
    def test_wire_out_of_range_without_qubits_names_the_wire(self, capsys, wire, n):
        # the register is sized from the wires and clamped to 1..32, so the wire is what is refused
        assert main(["gate-dump", "x", "--wires", wire]) == 2
        assert capsys.readouterr() == ("", f"error: wire {wire} out of range 1..{n}\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ["x", "--param", "1.0"],
            ["phase", "--u2", "1", "0", "0", "0", "0", "0", "1", "0"],
            ["phase"],
            ["u2"],
        ],
    )
    def test_parameter_count_exits_2(self, capsys, argv):
        assert main(["gate-dump", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "parameter(s), got" in captured.err

    def test_custom_wires(self, capsys):
        assert main(["gate-dump", "cnot", "--wires", "2", "1", "--qubits", "2"]) == 0
        out = capsys.readouterr().out
        assert "wires (2, 1)" in out


class TestGateOpAgreement:
    """parse_circuit, build_gate and gate-dump refuse a bad gate op with one message."""

    @pytest.mark.parametrize("name,wires,params,column,message", BAD_OPS)
    def test_same_refusal(self, capsys, name, wires, params, column, message):
        line = " ".join([name, *map(str, wires), *params])
        with pytest.raises(CircuitError) as exc:
            parse_circuit(f"qubits 2\n{line}\n")
        assert (exc.value.line, exc.value.column) == (2, column)
        assert str(exc.value) == f"line 2, column {column}: {message}"
        with pytest.raises(ValueError) as exc:
            build_gate(WittContext(2), name, wires, [float(p) for p in params])
        assert str(exc.value) == message
        flag = {0: [], 1: ["--param"], 8: ["--u2"]}[len(params)]
        argv = ["gate-dump", name, "--wires", *map(str, wires), "--qubits", "2", *flag, *params]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


class TestParserCost:
    """``main`` builds the subparser of the command it runs and no other; help and errors build all five."""

    @pytest.fixture
    def parsers(self, monkeypatch):
        """Names of the ``argparse.ArgumentParser`` objects constructed from here on."""
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        return built

    def test_run_builds_two(self, bell_file, capsys, parsers):
        assert main(["run", bell_file]) == 0
        assert parsers == ["cliffsim", "cliffsim run"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["fuzz", "--circuits", "1", "--max-qubits", "1", "--depth", "1"],
            ["bloch", "0.6", "0.8"],
            ["iso-check"],
            ["gate-dump", "x"],
        ],
    )
    def test_each_command_builds_two(self, capsys, parsers, argv):
        assert main(argv) == 0
        assert parsers == ["cliffsim", f"cliffsim {argv[0]}"]

    @pytest.mark.parametrize("argv", [["-h"], ["bogus"], ["--", "run", "x"], [], ["RUN", "x"]])
    def test_help_and_unknown_commands_build_all(self, capsys, parsers, argv):
        with pytest.raises(SystemExit):
            main(argv)
        assert len(parsers) == 6
