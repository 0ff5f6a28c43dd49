"""Circuit files: a `qubits N` header, then one gate per line.

    qubits 2
    h 1            # gate name, then 1-based wires
    cnot 1 2
    phase 2 1.5707963267948966

`phase` takes one angle parameter; `u2` takes eight (re/im pairs of the
matrix entries a, b, c, d, row major).  `#` starts a comment; blank lines
are ignored.

The file format alone: circuits run through ``gates.run_clifford`` and
``matrix_backend.run_matrix``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import NamedTuple

from . import gates
from .gates import GATE_SPECS, GateOpError, check_op, gate_spec
from .witt import MAX_QUBITS


# Bytes that one line of a circuit file takes at most while it is parsed: the
# tracemalloc peak per line over 10^5 and 2 * 10^5 lines of `u2 1 0.6 0.0 0.0
# 0.8 0.0 0.8 0.6 0.0` was 568 B (238 B for `h 1`, 254 B for `cnot 1 2`).
_LINE_BYTES = 600


class GateOp(NamedTuple):
    name: str
    wires: tuple[int, ...]
    params: tuple[float, ...] = ()


@dataclass(frozen=True)
class Circuit:
    n_qubits: int
    ops: tuple[GateOp, ...]


class CircuitError(ValueError):
    """Parse or validation failure with a line/column location."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def _tokens(text_line: str) -> list[tuple[str, int]]:
    """The words of a line before any ``#``, as ``str.split`` gives them, with their 1-based columns."""
    code = text_line.split("#", 1)[0]
    toks, pos = [], 0
    for word in code.split():
        pos = code.index(word, pos)
        toks.append((word, pos + 1))
        pos += len(word)
    return toks


def _lex(word: str, index: int, wire: bool) -> int | float:
    """Token ``index`` of a gate op as a wire (decimal digits) or a parameter (a float)."""
    if wire and word.isdecimal():
        try:
            return int(word)
        except ValueError:  # more digits than int() converts (sys.get_int_max_str_digits)
            raise GateOpError(f"wire of {len(word)} digits is too long", index) from None
    if not wire:
        try:
            return float(word)
        except ValueError:
            pass
    raise GateOpError(f"invalid {'wire' if wire else 'parameter'} {word!r}", index)


def parse_circuit(text: str, memory_bytes: int | None = None, max_qubits: int = MAX_QUBITS) -> Circuit:
    r"""Parse and validate a circuit file.

    Lines end at ``\n``, ``\r\n`` and ``\r`` only, the endings that ``open``
    in text mode translates; every other line separator of
    ``str.splitlines`` (form feed, vertical tab, ``\x1c``-``\x1e``, ``\x85``,
    U+2028, U+2029) is whitespace inside a line.  Lines are split into words
    with ``str.split``; ``_tokens`` finds columns only for the header and for
    an error.  An op's wire words are converted at once if all are decimal,
    and its parameter words if all are floats; otherwise ``_lex`` takes them
    one at a time and refuses the first bad one.  Each op goes through
    ``check_op``, so a bad op keeps the message and column of ``gate_words``.
    A wire or qubit-count word of more digits than ``int`` converts is refused
    at its column.
    A register of more than ``max_qubits`` wires, or, with ``memory_bytes``,
    one whose ``gates.run_bytes`` exceeds it, is refused at its header.  With
    ``memory_bytes``, a file whose lines would not fit at ``_LINE_BYTES`` each
    is refused before any line is parsed, at the first line past the budget.
    """
    n_qubits: int | None = None
    ops: list[GateOp] = []
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.count("\n") + 1
    if memory_bytes is not None and lines * _LINE_BYTES > memory_bytes:
        raise CircuitError(
            f"the file's {lines} lines need about {lines * _LINE_BYTES / 2**30:.3g} GiB as parsed ops, "
            f"more than the {memory_bytes / 2**30:.3g} GiB of physical memory",
            memory_bytes // _LINE_BYTES + 1,
        )
    comments = "#" in text
    for lineno, raw in enumerate(text.split("\n"), start=1):
        words = (raw.split("#", 1)[0] if comments else raw).split()
        if not words:
            continue
        if n_qubits is None:
            toks = _tokens(raw)
            if toks[0][0].lower() != "qubits":
                raise CircuitError("expected 'qubits N' header", lineno, toks[0][1])
            if len(toks) != 2:
                raise CircuitError("header must be exactly 'qubits N'", lineno, toks[0][1])
            word, col = toks[1]
            if not word.isdecimal():
                raise CircuitError(f"invalid qubit count {word!r}", lineno, col)
            try:
                n_qubits = int(word)
            except ValueError:  # more digits than int() converts
                raise CircuitError(f"qubit count of {len(word)} digits is too long", lineno, col) from None
            if not 1 <= n_qubits <= max_qubits:
                raise CircuitError(f"qubit count {n_qubits} out of range 1..{max_qubits}", lineno, col)
            if memory_bytes is not None and gates.run_bytes(n_qubits) > memory_bytes:
                raise CircuitError(
                    f"qubit count {n_qubits} needs about {gates.run_bytes(n_qubits) / 2**30:.3g} GiB to run, "
                    f"more than the {memory_bytes / 2**30:.3g} GiB of physical memory",
                    lineno,
                    col,
                )
            continue
        name = words[0].lower()
        try:
            split = (GATE_SPECS.get(name) or gate_spec(name)).wires  # gate_spec only to refuse
            wire_words = words[1 : split + 1]
            try:
                params = tuple(map(float, words[split + 1 :])) if len(words) > split + 1 else ()
                wires = tuple(map(int, wire_words)) if "".join(wire_words).isdecimal() else None
            except ValueError:
                wires = None
            if wires is None:  # a bad or missing token: ``_lex`` names and locates the first bad one
                args = [_lex(word, i, i <= split) for i, word in enumerate(words[1:], start=1)]
                wires, params = tuple(args[:split]), tuple(args[split:])
            check_op(name, n_qubits, wires, params)
        except GateOpError as exc:
            raise CircuitError(str(exc), lineno, _tokens(raw)[exc.index][1]) from None
        ops.append(GateOp(name, wires, params))
    if n_qubits is None:
        raise CircuitError("empty circuit file, expected 'qubits N' header", 1)
    return Circuit(n_qubits, tuple(ops))


def render_circuit(circuit: Circuit) -> str:
    """Text form that parses back to an identical circuit: wires by ``operator.index``, parameters as floats."""
    lines = [f"qubits {circuit.n_qubits}"]
    for op in circuit.ops:
        parts = [op.name, *(str(operator.index(w)) for w in op.wires), *(repr(float(p)) for p in op.params)]
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def parse_bits(text: str, n: int) -> tuple[int, ...]:
    """Bitstring like '010' into an MSB-first bit tuple."""
    if len(text) != n or any(c not in "01" for c in text):
        raise ValueError(f"expected a bitstring of {n} 0/1 characters, got {text!r}")
    return tuple(int(c) for c in text)
