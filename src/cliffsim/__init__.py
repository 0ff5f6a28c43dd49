"""Quantum circuit simulation in complex Clifford algebras.

States are elements of the left ideal generated by the primitive idempotent
of the Witt basis; gates are unitary algebra elements acting by left
multiplication.  A dense matrix statevector simulator is included as an
independent oracle for differential testing.

Import each name from its module.  The root re-exports only the nine names
that the benchmark under ``bench/`` reads from it, since ``bench/`` changes
apart from the library; ``tests/test_source.py`` pins them.
"""

from .circuit import parse_circuit
from .gates import GATE_SPECS, apply, build_gate, run_clifford
from .matrix_backend import run_matrix
from .witt import WittContext, basis_state, state_to_amplitudes

__version__ = "0.1.0"
