"""Simulator for N-party Bell tests driven by ancilla-coupled, locally
parameterized two-qubit unitaries, with direct and factorized correlator
routes, exact classical bounds, separability checks, and angle optimization.
"""

from .analysis import (
    FactorizationReport,
    OptimizationResult,
    PersistencyReport,
    PptVerdict,
    check_final_state_form,
    closed_form_final_ket,
    optimize_angles,
    partial_transpose,
    persistency_scan,
    ppt_separable,
    verify_factorization,
)
from .functionals import (
    BellFunctional,
    ViolationReport,
    classical_bound,
    evaluate,
    make_chsh,
    make_mermin3,
    parse_functional_spec,
    violation_report,
)
from .gates import (
    SO2,
    SU2,
    AngleSetting,
    olt_unitary,
    parse_angle,
    parse_setting,
    pauli,
    rotation,
    rotation_so2,
)
from .linalg import dag
from .protocol import (
    StabilizerResult,
    correlator_table,
    stabilizer_eigenvalue,
)
from .scenario import Scenario, ScenarioError, format_scenario, load_scenario, parse_scenario
from .states import (
    DensityMatrix,
    make_basis_state,
    make_bell_state,
    make_classical_correlated,
    make_ghz,
    make_werner,
    parse_state_spec,
    validate_density,
)

__version__ = "0.1.0"

__all__ = [
    "AngleSetting",
    "BellFunctional",
    "DensityMatrix",
    "FactorizationReport",
    "OptimizationResult",
    "PersistencyReport",
    "PptVerdict",
    "Scenario",
    "ScenarioError",
    "SO2",
    "SU2",
    "StabilizerResult",
    "ViolationReport",
    "check_final_state_form",
    "classical_bound",
    "closed_form_final_ket",
    "correlator_table",
    "dag",
    "evaluate",
    "format_scenario",
    "load_scenario",
    "make_basis_state",
    "make_bell_state",
    "make_chsh",
    "make_classical_correlated",
    "make_ghz",
    "make_mermin3",
    "make_werner",
    "olt_unitary",
    "optimize_angles",
    "parse_angle",
    "parse_functional_spec",
    "parse_scenario",
    "parse_setting",
    "parse_state_spec",
    "partial_transpose",
    "pauli",
    "persistency_scan",
    "ppt_separable",
    "rotation",
    "rotation_so2",
    "stabilizer_eigenvalue",
    "validate_density",
    "verify_factorization",
    "violation_report",
]
