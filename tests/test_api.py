"""The package surface: `qdirac` re-exports exactly each module's `__all__`,
and every error the library raises for a bad argument is typed."""

import ast
from pathlib import Path

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
    assert set(qdirac.__all__) - set(EXPORTED_BEFORE) == {"potential_quaternion",
                                                          "InputError"}


# the internal faults that stay a bare ValueError (exit 4 in the CLI), by a
# part of their message: none, so every bare `raise ValueError` is refused
INTERNAL_FAULTS = set()


def test_bad_arguments_raise_input_error_not_a_bare_value_error():
    """A new check written as `raise ValueError(...)` would reach the CLI's
    internal-error exit; a bad argument raises InputError instead."""
    found = []
    for path in sorted(Path(qdirac.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "ValueError":
                source = ast.unparse(node.exc)
                site = "%s:%d: %s" % (path.name, node.lineno, source)
                assert any(m in source for m in INTERNAL_FAULTS), site
                found.append(source)
    assert len(found) == len(INTERNAL_FAULTS), found
    assert issubclass(qdirac.InputError, ValueError)


def test_each_raise_message_is_written_once():
    """A message raised from two sites is a check written twice, which can
    drift apart; the shared checks of dirac give each one a single home.
    The message is the literal first argument, or the left operand of %."""
    sites = {}
    for path in sorted(Path(qdirac.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                    and node.exc.args):
                continue
            msg = node.exc.args[0]
            if isinstance(msg, ast.BinOp) and isinstance(msg.op, ast.Mod):
                msg = msg.left
            if isinstance(msg, ast.Constant) and isinstance(msg.value, str):
                sites.setdefault(msg.value, []).append("%s:%d" % (path.name, node.lineno))
    assert sites
    assert {m: s for m, s in sites.items() if len(s) > 1} == {}


def _v0_zero_comparisons(tree):
    """(function, line) of each comparison of a `v0` name or attribute with
    the number 0, by the innermost function that holds it."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Compare):
            sides = [node.left, *node.comparators]
            v0 = any(getattr(s, "id", getattr(s, "attr", None)) == "v0" for s in sides)
            zero = any(isinstance(s, ast.Constant) and type(s.value) in (int, float)
                       and s.value == 0 for s in sides)
            if v0 and zero:
                found.append((func, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def test_only_energy_root_decides_v0_zero():
    """v0 = 0 is one case of bag._energy_root; a second test of it elsewhere
    could decide the limit another way, as solve_spectrum and
    _energy_for_momentum once did."""
    found = []
    for path in sorted(Path(qdirac.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        found += [(path.name, func, line) for func, line in _v0_zero_comparisons(tree)]
    assert [site[:2] for site in found] == [("bag.py", "_energy_root")], found
