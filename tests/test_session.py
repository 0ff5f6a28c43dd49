"""The test session's own setup, ``conftest.py``, under the ways pytest may be run."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# A failing property test and a passing test after it.
FAILING_PROPERTY = """
from hypothesis import given, strategies as st

@given(st.integers())
def test_fails(x):
    assert x < 0

def test_passes():
    pass
"""


def test_suite_runs_with_the_cache_plugin_off(tmp_path):
    # `-p no:cacheprovider` leaves pytest's config without the cache in which
    # conftest.py makes Hypothesis's home; run from tmp_path, Hypothesis's
    # default home would land there.
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", str(ROOT / "tests" / "test_acceptance.py")],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        timeout=120,
        check=False,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "INTERNALERROR" not in proc.stdout + proc.stderr


def test_failing_property_test_leaves_the_session_running(tmp_path):
    # Hypothesis imports libcst to write its failure patch, and that import
    # warns; with every warning an error, pytest stopped with INTERNALERROR.
    path = tmp_path / "test_property.py"
    path.write_text(FAILING_PROPERTY)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(ROOT / "pyproject.toml"), str(path)],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        timeout=120,
        check=False,
    )
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out[-2000:]
    assert "1 failed, 1 passed" in out, out[-2000:]
    assert "INTERNALERROR" not in out
