"""Quaternionic Dirac plane waves over a constant quaternionic potential and
the confined relativistic square well built on them.

The package is organized bottom-up: quaternion arithmetic in the symplectic
pair representation (quaternion), the Dirac matrices plus a realified
nullspace oracle for stationary solutions (dirac), closed-form step-potential
kinematics and spinors (step), the hard-wall well with its quantized spectrum
(bag), the non-relativistic limit (nonrel), and a CLI front end (cli) that
emits deterministic CSV/JSON tables plus a self-verification report.
"""

from .quaternion import Quaternion, I, J, K, ONE, ZERO
from .dirac import (
    DiracMatrices,
    PlaneWaveState,
    QSpinor,
    apply_matrix,
    build_matrices,
    dirac_residual,
    nullspace_oracle,
    realify_stationary_operator,
    stationary_residual,
)
from .step import (
    Branch,
    BranchKinematics,
    ModeCoefficients,
    PotentialStep,
    SingularCoefficientsError,
    Zone,
    classify_zone,
    consistency_residual,
    evanescent_width,
    kinematics,
    mode_coefficients,
    principal_momentum,
    step_spinor,
)
from .bag import (
    BagLevel,
    BoundaryPhase,
    NoSolutionError,
    StationaryWavefunction,
    boundary_operator,
    boundary_phase,
    boundary_residual,
    density_profile,
    normalize,
    quantization_residual,
    quantization_residual_grid,
    quantized_momenta,
    solve_spectrum,
    stationary_wavefunction,
)
from .nonrel import NonRelLevel, NonRelParams, nr_parameters, nr_quantize, nr_wavefunction
from .report import build_report, report_passed

__version__ = "0.1.0"

__all__ = [
    "Quaternion",
    "I",
    "J",
    "K",
    "ONE",
    "ZERO",
    "DiracMatrices",
    "QSpinor",
    "PlaneWaveState",
    "build_matrices",
    "apply_matrix",
    "dirac_residual",
    "stationary_residual",
    "realify_stationary_operator",
    "nullspace_oracle",
    "Branch",
    "Zone",
    "PotentialStep",
    "BranchKinematics",
    "ModeCoefficients",
    "SingularCoefficientsError",
    "kinematics",
    "evanescent_width",
    "classify_zone",
    "principal_momentum",
    "mode_coefficients",
    "step_spinor",
    "consistency_residual",
    "NoSolutionError",
    "BoundaryPhase",
    "BagLevel",
    "StationaryWavefunction",
    "boundary_operator",
    "boundary_residual",
    "boundary_phase",
    "quantized_momenta",
    "quantization_residual",
    "quantization_residual_grid",
    "solve_spectrum",
    "stationary_wavefunction",
    "normalize",
    "density_profile",
    "NonRelParams",
    "NonRelLevel",
    "nr_parameters",
    "nr_wavefunction",
    "nr_quantize",
    "build_report",
    "report_passed",
    "__version__",
]
