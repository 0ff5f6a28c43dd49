"""Command-line front-end.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
from typing import Iterator

import numpy as np

from .circuit import CircuitError, parse_bits, parse_circuit
from .gates import build_gate, gate_spec, run_clifford
from .matrix_backend import BACKEND_TOL, FUZZ_SEED_STRIDE, MAX_DENSE_QUBITS, compare_backends, run_fuzz, run_matrix
from .witt import MAX_QUBITS, WittContext, amplitudes_to_state, ket_coordinates, paulis_coordinates, paulis_word_count, render_witt

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2

# Bytes that one op of a `fuzz` circuit holds at most: a `u2` op with its eight
# parameters, 448 B held and 456 B at peak under tracemalloc over 10^5 drawn
# ops (the registry's mean is 187-204 B at n = 1..12).
_FUZZ_OP_BYTES = 456

# Bytes that `fuzz --json` keeps to the end per circuit, its result and payload
# entry: the tracemalloc peak over 2000 and 4000 default circuits, 1458 and 1404 B.
_FUZZ_RESULT_BYTES = 1460

# Bytes per circuit for each digit of `--seed` past the first, which a result keeps
# in seed * FUZZ_SEED_STRIDE + i and in its JSON text: the tracemalloc peak per circuit
# of `fuzz --json` grew by 2.44 B a digit, from 1481 B at 10 digits to 11234 B at 4000.
_FUZZ_SEED_DIGIT_BYTES = 2.5

# Words that `gate-dump` renders on its Witt line at most, counted before like
# words merge: x on wire 16 (2^16 words) took 1.2 s and 72 MB peak RSS for 5 MB
# of output, x on wire 17 (2^17 words) 2.5 s and 115 MB for 11 MB.
_DUMP_WORDS = 100_000

# Amplitudes per block of printed output: a block's Python objects and JSON
# text take about 2 MiB.
_PRINT_BLOCK = 2**12


def _blocks(amps: np.ndarray) -> Iterator[list[complex]]:
    """The amplitudes as Python complex numbers, one list per block of ``_PRINT_BLOCK``."""
    return (amps[start : start + _PRINT_BLOCK].tolist() for start in range(0, amps.size, _PRINT_BLOCK))


def _print_amplitudes(amps: np.ndarray, n: int) -> None:
    for k, a in enumerate(itertools.chain.from_iterable(_blocks(amps))):
        label = format(k, f"0{n}b")
        print(f"|{label}>  {a.real:+.10f}{a.imag:+.10f}i")


def _print_probabilities(amps: np.ndarray, n: int) -> None:
    for k, a in enumerate(itertools.chain.from_iterable(_blocks(amps))):
        label = format(k, f"0{n}b")
        print(f"p(|{label}>) = {abs(a) ** 2:.10f}")


def _physical_memory() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _refuse_non_finite() -> bool:
    print("error: result has a non-finite value, which JSON cannot carry", file=sys.stderr)
    return False


def _print_json(payload: dict) -> bool:
    """Print one JSON line; False, with a message, if a value is not finite."""
    try:
        print(json.dumps(payload, allow_nan=False))
    except ValueError:
        return _refuse_non_finite()
    return True


def _print_run_json(backend: str, amps: np.ndarray, deviation: float | None) -> bool:
    """``_print_json`` of the ``run --json`` payload, written one block of amplitudes at a time.

    The text is what ``json.dumps`` gives for the whole payload, but neither
    it nor a Python list of every amplitude is ever held at once.  A
    non-finite value is refused before anything is written.
    """
    if not np.isfinite(amps).all() or not math.isfinite(0.0 if deviation is None else deviation):
        return _refuse_non_finite()
    write = sys.stdout.write
    write(f'{{"backend": {json.dumps(backend)}, "amplitudes": [')
    for i, block in enumerate(_blocks(amps)):
        write(", " * (i > 0) + json.dumps([[a.real, a.imag] for a in block])[1:-1])
    write('], "probabilities": [')
    for i, block in enumerate(_blocks(amps)):
        write(", " * (i > 0) + json.dumps([abs(a) ** 2 for a in block])[1:-1])
    write(f'], "deviation": {json.dumps(deviation)}}}\n')
    return True


def cmd_run(args: argparse.Namespace) -> int:
    if args.json and args.show_algebra:
        print("error: --show-algebra prints text, so it cannot be combined with --json", file=sys.stderr)
        return EXIT_USAGE
    try:
        with open(args.circuit, encoding="utf-8") as fh:
            # Drop a leading byte-order mark as the utf-8-sig codec would, without
            # importing that codec (about 0.3 ms in a fresh process); the parser
            # refuses one anywhere else.
            text = fh.read().removeprefix("\ufeff")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {args.circuit}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    # The dense oracle is capped, so a matrix run is refused before either backend starts.
    max_qubits = MAX_QUBITS if args.backend == "clifford" else MAX_DENSE_QUBITS
    try:
        circuit = parse_circuit(text, memory_bytes=_physical_memory(), max_qubits=max_qubits)
        bits = parse_bits(args.init, circuit.n_qubits) if args.init else None
    except (CircuitError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    n = circuit.n_qubits
    deviation = None
    passed = True
    clifford = None
    if args.backend == "both":
        report = compare_backends(circuit, bits, tol=args.tol)
        amps = clifford = report.clifford
        deviation = report.max_deviation
        passed = report.passed
    elif args.backend == "matrix":
        amps = run_matrix(circuit, bits).amplitudes
    else:
        amps = clifford = run_clifford(circuit, bits).amplitudes

    if args.show_algebra:
        ctx = WittContext(n)
        for op in circuit.ops:
            g = build_gate(ctx, op.name, op.wires, op.params)
            loc = " ".join(map(str, op.wires))
            print(f"{op.name} {loc}: {render_witt(paulis_coordinates(n, g.paulis))}")
        if clifford is None:
            clifford = run_clifford(circuit, bits).amplitudes
        state = amplitudes_to_state(ctx, clifford)
        print(f"state: {render_witt(ket_coordinates(state))}")
        print(f"state blades: {state.value.render()}")

    if args.json:
        if not _print_run_json(args.backend, amps, deviation):
            return EXIT_VERIFY
    else:
        _print_amplitudes(amps, n)
        if args.probabilities:
            _print_probabilities(amps, n)
        if deviation is not None:
            verdict = "PASS" if passed else "FAIL"
            print(f"backend deviation max|d| = {deviation:.3e}  {verdict}")

    return EXIT_OK if passed else EXIT_VERIFY


def cmd_fuzz(args: argparse.Namespace) -> int:
    result_bytes = _FUZZ_RESULT_BYTES + _FUZZ_SEED_DIGIT_BYTES * (len(str(args.seed)) - 1)
    # Python's limit on the digits of an int converted to text (0: none; absent before 3.10.7).
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not 1 <= args.max_qubits <= MAX_DENSE_QUBITS:
        problem = f"--max-qubits must be in 1..{MAX_DENSE_QUBITS}, got {args.max_qubits}"
    elif args.depth < 1:
        problem = f"--depth must be at least 1, got {args.depth}"
    elif args.circuits < 1:
        problem = f"--circuits must be at least 1, got {args.circuits}"
    elif args.seed < 0:
        problem = f"--seed must be non-negative, got {args.seed}"
    elif digits and args.seed * FUZZ_SEED_STRIDE + args.circuits - 1 >= 10**digits:
        # Each circuit seed is printed, and str() of one past the limit raises.
        problem = f"--seed of {len(str(args.seed))} digits gives circuit seeds of more than {digits} digits, which cannot be printed"
    elif args.depth * _FUZZ_OP_BYTES > _physical_memory():
        problem = (
            f"--depth {args.depth} needs about {args.depth * _FUZZ_OP_BYTES / 2**30:.3g} GiB for one circuit, "
            f"more than the {_physical_memory() / 2**30:.3g} GiB of physical memory"
        )
    elif args.circuits * result_bytes > _physical_memory():
        problem = (
            f"--circuits {args.circuits} needs about {args.circuits * result_bytes / 2**30:.3g} GiB for its results "
            f"at {result_bytes:.0f} B each, more than the {_physical_memory() / 2**30:.3g} GiB of physical memory"
        )
    else:
        problem = None
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return EXIT_USAGE
    report = run_fuzz(
        seed=args.seed,
        circuits=args.circuits,
        max_qubits=args.max_qubits,
        max_depth=args.depth,
        tol=args.tol,
    )
    if args.json:
        payload = {
            "seed": args.seed,
            "circuits": args.circuits,
            "max_qubits": args.max_qubits,
            "depth": args.depth,
            "tol": args.tol,
            "failures": report.failures,
            "max_deviation": report.max_deviation,
            "results": [
                {
                    "index": r.index,
                    "seed": r.seed,
                    "qubits": r.n_qubits,
                    "gates": r.gate_count,
                    "deviation": r.max_deviation,
                    "pass": r.passed,
                }
                for r in report.results
            ],
        }
        if not _print_json(payload):
            return EXIT_VERIFY
    else:
        for r in report.results:
            verdict = "PASS" if r.passed else "FAIL"
            print(
                f"circuit {r.index:4d}  seed={r.seed}  n={r.n_qubits}  "
                f"gates={r.gate_count:2d}  max|d|={r.max_deviation:.3e}  {verdict}"
            )
        verdict = "PASS" if report.passed else "FAIL"
        print(
            f"fuzz summary: {args.circuits} circuits, {report.failures} failures, "
            f"max|d|={report.max_deviation:.3e}  {verdict}"
        )
    return EXIT_OK if report.passed else EXIT_VERIFY


def _parse_complex(text: str) -> complex:
    """Python's complex syntax, where a trailing imaginary unit may also be written i."""
    text = text.replace(" ", "")
    return complex(text[:-1] + "j" if text.endswith("i") else text)


def cmd_bloch(args: argparse.Namespace) -> int:
    from .real_ga import bloch_angles, bloch_verify

    try:
        alpha = _parse_complex(args.alpha)
        beta = _parse_complex(args.beta)
        theta, phi = bloch_angles(alpha, beta)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    x, y, z = bloch_verify(theta, phi)
    print(f"theta = {theta:.12f}")
    print(f"phi   = {phi:.12f}")
    print(f"point = ({x:+.12f}, {y:+.12f}, {z:+.12f})")
    return EXIT_OK


def cmd_iso_check(args: argparse.Namespace) -> int:
    from .real_ga import iso_check

    report = iso_check()
    print(
        f"isomorphism check: {report.elements} elements, {report.pairs} products"
    )
    print(f"max product error: {report.max_product_error:.3e}")
    print(f"max dagger/reverse transport error: {report.max_dagger_error:.3e}")
    print("PASS" if report.passed else "FAIL")
    return EXIT_OK if report.passed else EXIT_VERIFY


def cmd_gate_dump(args: argparse.Namespace) -> int:
    name = args.name.lower()
    params = ([] if args.param is None else [args.param]) + (args.u2 or [])
    try:
        wires = args.wires or list(range(1, gate_spec(name).wires + 1))
        # Without --qubits the register fits the wires, so a bad wire is the one refused.
        n = min(max(max(wires), 1), MAX_QUBITS) if args.qubits is None else args.qubits
        g = build_gate(WittContext(n), name, wires, params)
        words = paulis_word_count(n, g.paulis)
        if words > _DUMP_WORDS:
            raise ValueError(f"the Witt line of {name} on wires {tuple(wires)} expands to {words} words, more than the {_DUMP_WORDS} that gate-dump renders")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"{name} on wires {tuple(wires)} in {n} qubit(s):")
    print(f"  witt basis: {render_witt(paulis_coordinates(n, g.paulis))}")
    print(f"  blades:     {g.value.render()}")
    return EXIT_OK


def _tolerance(text: str) -> float:
    """The ``--tol`` argument: a finite number > 0."""
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not 0 < tol < math.inf:
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text!r}")
    return tol


def _run_arguments(run: argparse.ArgumentParser) -> None:
    run.add_argument("circuit", help="circuit file path")
    run.add_argument("--backend", choices=("clifford", "matrix", "both"), default="clifford")
    run.add_argument("--init", default=None, help="initial bitstring, MSB first")
    run.add_argument("--probabilities", action="store_true")
    run.add_argument("--show-algebra", action="store_true")
    run.add_argument("--json", action="store_true")
    run.add_argument("--tol", type=_tolerance, default=BACKEND_TOL)


def _fuzz_arguments(fuzz: argparse.ArgumentParser) -> None:
    fuzz.add_argument("--seed", type=int, default=0)
    fuzz.add_argument("--circuits", type=int, default=200)
    fuzz.add_argument("--max-qubits", type=int, default=4)
    fuzz.add_argument("--depth", type=int, default=20)
    fuzz.add_argument("--tol", type=_tolerance, default=BACKEND_TOL)
    fuzz.add_argument("--json", action="store_true")


def _bloch_arguments(bloch: argparse.ArgumentParser) -> None:
    bloch.add_argument("alpha", help="complex amplitude, e.g. 0.6 or 0.6+0.8j")
    bloch.add_argument("beta")


def _gate_dump_arguments(dump: argparse.ArgumentParser) -> None:
    dump.add_argument("name")
    dump.add_argument("--wires", type=int, nargs="+", default=None)
    dump.add_argument("--qubits", type=int, default=None)
    dump.add_argument("--param", type=float, default=None, help="angle for phase")
    dump.add_argument("--u2", type=float, nargs=8, default=None, help="re/im pairs of a b c d")


# Each command: its help text, the function that adds its arguments, and its handler.
COMMANDS = {
    "run": ("run a circuit file", _run_arguments, cmd_run),
    "fuzz": ("differential test against the matrix backend", _fuzz_arguments, cmd_fuzz),
    "bloch": ("Bloch angles and rotation check", _bloch_arguments, cmd_bloch),
    "iso-check": ("verify the real-algebra isomorphism", lambda parser: None, cmd_iso_check),
    "gate-dump": ("print a gate in the Witt basis", _gate_dump_arguments, cmd_gate_dump),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser, with the subparser of ``command`` alone when that names one, else with every one.

    Building a subparser costs about as much as parsing, so a process builds
    only the one it runs.  Its usage line still lists every command.
    """
    parser = argparse.ArgumentParser(
        prog="cliffsim",
        description="Quantum circuit simulation in complex Clifford algebras.",
    )
    names = [command] if command in COMMANDS else list(COMMANDS)
    # A metavar also renames the argument in argparse's errors (``argument
    # {run,...}:`` for ``argument command:``), so it is set only where no such
    # error can arise: with one command, which argv's first token names.
    metavar = "{" + ",".join(COMMANDS) + "}" if len(names) == 1 else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        help_text, add_arguments, func = COMMANDS[name]
        command_parser = sub.add_parser(name, help=help_text)
        add_arguments(command_parser)
        command_parser.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["bloch"] and not {"-h", "--help", "--"} & set(argv):
        # bloch has no option but -h, so every other token is an amplitude:
        # "--" keeps argparse from reading one like -0.8j or -inf as a flag.
        argv.insert(1, "--")
    parser = build_parser(argv[0] if argv else None)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
