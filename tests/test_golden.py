"""CLI output against golden transcripts.

``show_algebra.txt`` and ``gate_dump.txt`` pin the exact stdout of the display
paths, `run --show-algebra` and `gate-dump`: each is a sequence of blocks, a
``$ cliffsim ARGS`` line followed by the stdout of that command.
``usage.txt`` pins argparse's side (help, usage errors, every command):
each ``$ cliffsim ARGS`` line is followed by ``## exit N``, then ``## stdout``
and ``## stderr``, each followed by that stream's text.  The circuit files the
transcripts name sit next to them.
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


def usage_blocks():
    """(args, exit code, stdout, stderr) for each command of ``usage.txt``."""
    out = []
    for line in (GOLDEN / "usage.txt").read_text(encoding="utf-8").splitlines(keepends=True):
        if line.startswith("$ cliffsim"):
            out.append({"args": line[len("$ cliffsim") :].strip(), "stdout": "", "stderr": ""})
        elif line.startswith("## exit "):
            out[-1]["exit"] = int(line[len("## exit ") :])
        elif line.startswith("## "):
            stream = line[len("## ") :].strip()
        else:
            out[-1][stream] += line
    return [(b["args"], b["exit"], b["stdout"], b["stderr"]) for b in out]


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


def test_usage_transcript_covers_every_command():
    commands = {a.split()[0] for a, *_ in usage_blocks() if a and not a.startswith("-")}
    assert {"run", "fuzz", "bloch", "iso-check", "gate-dump"} <= commands


@pytest.mark.parametrize("args, code, stdout, stderr", [pytest.param(*b, id=b[0] or "(none)") for b in usage_blocks()])
def test_usage_matches_golden(args, code, stdout, stderr, capsys, monkeypatch):
    # argparse wraps help and usage to the terminal width.
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(GOLDEN)
    try:
        got = main(shlex.split(args))
    except SystemExit as exc:
        got = exc.code
    out, err = capsys.readouterr()
    assert (got, out, err) == (code, stdout, stderr)
