"""Simulation laboratory for energy teleportation by local operations.

Closed-form results for the two-qubit model, general nearest-neighbor qubit
chains, the critical transverse-field Ising chain and a 1D massless field are
implemented side by side with brute-force numerical protocol runs that must
reproduce them.
"""

from .core import (
    EigensolverError,
    GroundState,
    InvariantViolation,
    LocalOperator,
    PovmMeasurement,
    StateVector,
    apply_measurement,
    embed_local,
    expectation,
    ground_state,
    pauli_component,
    projective_pauli_measurement,
    reduced_density,
    von_neumann_entropy,
)

__version__ = "0.1.0"

__all__ = [
    "EigensolverError",
    "GroundState",
    "InvariantViolation",
    "LocalOperator",
    "PovmMeasurement",
    "StateVector",
    "apply_measurement",
    "embed_local",
    "expectation",
    "ground_state",
    "pauli_component",
    "projective_pauli_measurement",
    "reduced_density",
    "von_neumann_entropy",
    "__version__",
]
