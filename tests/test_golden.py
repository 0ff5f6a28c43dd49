"""Display paths against golden transcripts: exact stdout of `run --show-algebra` and `gate-dump`.

Each transcript in ``tests/golden`` is a sequence of blocks, a ``$ cliffsim ARGS``
line followed by the stdout of that command; the circuit files it names sit
next to it.
"""

import shlex
from pathlib import Path

import pytest

from cliffsim.cli import main
from cliffsim.gates import GATE_SPECS

GOLDEN = Path(__file__).parent / "golden"


def blocks(name):
    """(args, expected stdout) for each command of a transcript."""
    out = []
    for line in (GOLDEN / name).read_text(encoding="utf-8").splitlines(keepends=True):
        if line.startswith("$ cliffsim "):
            out.append([line[len("$ cliffsim ") :].strip(), ""])
        else:
            out[-1][1] += line
    return [tuple(block) for block in out]


CASES = [pytest.param(args, text, id=args) for name in ("show_algebra.txt", "gate_dump.txt") for args, text in blocks(name)]


def test_transcripts_cover_every_backend_and_gate():
    args = [a for a, _ in blocks("show_algebra.txt")]
    assert all(any(f"--backend {b}" in a for a in args) for b in ("clifford", "matrix", "both"))
    assert {a.split()[1] for a, _ in blocks("gate_dump.txt")} == set(GATE_SPECS)


@pytest.mark.parametrize("args, expected", CASES)
def test_stdout_matches_golden(args, expected, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    assert main(shlex.split(args)) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out == expected
