"""Exact, seedable simulator and estimators for a minimal two-qubit
energy teleportation protocol."""

from .analysis import (
    ComparisonRow,
    PhiScanResult,
    SweepGrid,
    comparison_report,
    default_grid,
    evolution_scan,
    heatmap,
    mitigated_run,
    phi_scan,
    sampled_calibration_matrix,
)
from .model import (
    GRID_H,
    GRID_K,
    REPORT_PAIRS,
    EntropyReport,
    HamiltonianSet,
    ModelParams,
    ProtocolAngles,
    analytic_E0,
    analytic_E1,
    analytic_H1,
    analytic_V,
    angles,
    build_hamiltonians,
    entropy_report,
    free_evolution_H1,
    ground_state,
    nogo_gap,
    rho_measured,
    rho_qet,
)
from .noise import (
    MITIGATION_METHODS,
    PRESETS,
    ReadoutNoise,
    apply_noise,
    estimate_calibration_matrix,
    measurement_fidelity,
    mitigate,
)
from .protocol import (
    EstimationResult,
    Mode,
    Target,
    build_circuit,
    combine_E1,
    estimate_energy,
    run_protocol,
    run_protocol_E1,
)
from .simcore import (
    BITSTRINGS,
    Circuit,
    ClassicallyControlledRy,
    Cnot,
    ControlledRy,
    Hadamard,
    MeasureZ,
    NumericalError,
    Ry,
    evolve,
    exact_distribution,
    expectation,
    gate_unitary,
    on_qubits,
    run_shots,
)

__version__ = "0.1.0"
