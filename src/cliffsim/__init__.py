"""Quantum circuit simulation in complex Clifford algebras.

States are elements of the left ideal generated by the primitive idempotent
of the Witt basis; gates are unitary algebra elements acting by left
multiplication.  A dense matrix statevector simulator is included as an
independent oracle for differential testing.
"""

from .circuit import Circuit, CircuitError, GateOp, parse_circuit, render_circuit
from .gates import (
    GATE_SPECS,
    GateElement,
    apply,
    apply_all,
    build_gate,
    gate_from_u2,
    is_unitary,
    ketbra,
    run_clifford,
    super_tensor,
)
from .matrix_backend import (
    BackendComparison,
    MatrixState,
    compare_backends,
    gate_matrix,
    random_circuit,
    run_fuzz,
    run_matrix,
)
from .multivector import (
    Multivector,
    exp_element,
    hermitian_inner,
)
from .witt import (
    SpinorState,
    WittContext,
    amplitudes_to_state,
    basis_state,
    is_spinor,
    ket_coordinates,
    paulis_coordinates,
    render_witt,
    spinor_inner,
    state_to_amplitudes,
)

__version__ = "0.1.0"
