"""The test session's own setup, ``conftest.py``, under the ways pytest may be run."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


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
