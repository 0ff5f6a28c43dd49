"""Output checks: every circuit's amplitudes against the dense matrix oracle."""

from __future__ import annotations

import numpy as np

TOL = 1e-9


def check_amplitudes(amps, oracle: np.ndarray) -> str | None:
    """Why `amps` (a list of [re, im] pairs) is wrong, or None if it is right.

    Wrong means: a count other than the oracle's, a non-finite value, a norm
    off by more than TOL, or an L-infinity distance from the oracle of TOL or
    more.  Each test is written so that NaN fails it.
    """
    a = np.array([complex(re, im) for re, im in amps], dtype=complex)
    if a.shape != oracle.shape:
        return f"expected {len(oracle)} amplitudes, got {len(a)}"
    if not np.all(np.isfinite(a)):
        return "non-finite amplitude"
    norm_err = abs(float(np.sum(np.abs(a) ** 2)) - 1.0)
    if not norm_err <= TOL:
        return f"norm off by {norm_err:.3e}"
    dev = float(np.max(np.abs(a - oracle)))
    if not dev < TOL:
        return f"differs from run_matrix by {dev:.3e}"
    return None
