"""The package namespace: `qdirac` re-exports exactly each module's `__all__`."""

import qdirac
from qdirac import bag, dirac, nonrel, quaternion, report, step

MODULES = (quaternion, dirac, step, bag, nonrel, report)

# the public names of the package before the export lists were derived
EXPORTED_BEFORE = [
    "Quaternion", "I", "J", "K", "ONE", "ZERO",
    "DiracMatrices", "QSpinor", "PlaneWaveState", "build_matrices",
    "apply_matrix", "dirac_residual", "stationary_residual",
    "realify_stationary_operator", "nullspace_oracle",
    "Branch", "Zone", "PotentialStep", "BranchKinematics", "ModeCoefficients",
    "SingularCoefficientsError", "kinematics", "evanescent_width",
    "classify_zone", "principal_momentum", "mode_coefficients", "step_spinor",
    "consistency_residual",
    "NoSolutionError", "BoundaryPhase", "BagLevel", "StationaryWavefunction",
    "boundary_operator", "boundary_residual", "boundary_phase",
    "quantized_momenta", "quantization_residual", "quantization_residual_grid",
    "solve_spectrum", "stationary_wavefunction", "normalize",
    "density_profile",
    "NonRelParams", "NonRelLevel", "nr_parameters", "nr_wavefunction",
    "nr_quantize",
    "build_report", "report_passed",
    "__version__",
]


def test_module_names_resolve_to_the_package_objects():
    for mod in MODULES:
        for name in mod.__all__:
            assert getattr(qdirac, name) is getattr(mod, name), (mod.__name__, name)


def test_package_all_is_the_module_lists_joined():
    joined = [name for mod in MODULES for name in mod.__all__] + ["__version__"]
    assert qdirac.__all__ == joined
    assert len(set(qdirac.__all__)) == len(qdirac.__all__)


def test_no_earlier_export_is_lost():
    assert len(EXPORTED_BEFORE) == 50
    assert set(EXPORTED_BEFORE) <= set(qdirac.__all__)
    assert set(qdirac.__all__) - set(EXPORTED_BEFORE) == {"potential_quaternion"}
