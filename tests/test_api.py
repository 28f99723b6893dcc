"""The package surface: `qdirac` re-exports exactly each module's `__all__`,
and every error the library raises for a bad argument is typed."""

import ast
import builtins
import os
import subprocess
import sys
from dataclasses import fields, is_dataclass, replace
from fractions import Fraction
from functools import partial
from pathlib import Path

import numpy as np
import pytest

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


# the module names qbench/tracer.py reads off the package with getattr
TRACER_MODULES = ("quaternion", "dirac", "step", "bag", "nonrel", "report", "cli",
                  "_kernels")


def fresh(script):
    """Run script in a fresh interpreter with this checkout's src first on the
    path, ahead of the inherited PYTHONPATH; its assertions fail the run."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(Path(qdirac.__file__).parents[1]), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", "import sys\nimport qdirac\n" + script],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_import_loads_no_module_and_a_name_loads_up_to_its_own():
    fresh("assert [m for m in sys.modules if m.startswith('qdirac')] == ['qdirac']\n"
          "assert 'solve_spectrum' not in vars(qdirac)\n"
          "f = qdirac.solve_spectrum\n"
          "assert f is sys.modules['qdirac.bag'].solve_spectrum\n"
          # kept in the package globals: the next access is a dict hit
          "assert vars(qdirac)['solve_spectrum'] is f\n"
          "assert 'qdirac.nonrel' not in sys.modules\n"
          "assert 'qdirac.report' not in sys.modules\n")


def test_star_import_binds_exactly_all_and_dir_lists_it():
    fresh("ns = {}\n"
          "exec('from qdirac import *', ns)\n"
          "del ns['__builtins__']\n"
          "assert sorted(ns) == sorted(qdirac.__all__), sorted(ns)\n"
          "assert all(ns[n] is getattr(qdirac, n) for n in ns)\n"
          "assert set(qdirac.__all__) <= set(dir(qdirac))\n")
    fresh("assert set(qdirac.__all__) <= set(dir(qdirac))\n")


def test_each_tracer_module_name_is_its_submodule():
    fresh("for m in %r:\n"
          "    assert getattr(qdirac, m) is sys.modules['qdirac.' + m], m\n"
          % (TRACER_MODULES,))


def test_an_unknown_name_is_no_attribute():
    fresh("for name in ('no_such_name', '__wrapped__', '', 'bag.solve_spectrum'):\n"
          "    assert not hasattr(qdirac, name), name\n")


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


def _is_exception(base):
    """Whether a class base, a name or a dotted attribute, names an exception
    class of the package or of builtins."""
    name = getattr(base, "id", getattr(base, "attr", ""))
    obj = getattr(qdirac, name, None) or getattr(builtins, name, None)
    return isinstance(obj, type) and issubclass(obj, BaseException)


def test_every_error_type_is_defined_in_dirac():
    """The error types live beside InputError, so cli takes every one it maps
    to an exit code from dirac; bag and step re-export theirs."""
    found = []
    for path in sorted(Path(qdirac.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ClassDef) and any(map(_is_exception, node.bases)):
                found.append((path.name, node.lineno, node.name))
    assert {name for _, _, name in found} == {
        "InputError", "NoSolutionError", "SingularCoefficientsError"}
    assert [site for site in found if site[0] != "dirac.py"] == []
    assert qdirac.NoSolutionError is bag.NoSolutionError is dirac.NoSolutionError
    assert (qdirac.SingularCoefficientsError is step.SingularCoefficientsError
            is dirac.SingularCoefficientsError)


def _grid(grid_points):
    """The z grid of a density_profile of grid_points points."""
    pot = qdirac.PotentialStep(v0=0.3, w_abs=0.5)
    level = qdirac.solve_spectrum(1.0, pot, 1.0, 2, "minus")[-1]
    psi = qdirac.stationary_wavefunction(level, 1.0, pot, "up")
    return qdirac.density_profile(psi, grid_points)[0]


COUNTS = {
    "n_max": (partial(qdirac.quantized_momenta, 1.0),
              lambda n: qdirac.solve_spectrum(1.0, qdirac.PotentialStep(v0=0.3, w_abs=0.5),
                                              1.0, n, "minus"),
              lambda n: qdirac.nr_quantize(1.0, n, 1.0, 0.5)),
    "grid_points": (_grid,),
}


@pytest.mark.parametrize("name", COUNTS)
def test_a_count_that_is_no_int_or_too_large_is_an_input_error(name):
    # 3.0 once raised TypeError from range, 10**400 OverflowError from
    # n_max * pi or numpy's bare ValueError, 2**63 numpy's IndexError; 2**63
    # is no n_max here, since without the bound the ladder starts that long a list
    bad = [(3.0, "^%s must be an int, got 3.0$"), ("3", "^%s must be an int, got '3'$"),
           (10**400, "^%s must be at most sys.maxsize$")]
    if name == "grid_points":
        bad.append((2**63, "^%s must be at most sys.maxsize$"))
    for call in COUNTS[name]:
        for value, message in bad:
            with pytest.raises(qdirac.InputError, match=message % name):
                call(value)
        assert len(call(np.int64(3))) == 3


POT = qdirac.PotentialStep(v0=0.3, w_abs=0.5)
WAVE = qdirac.nr_wavefunction("minus", "up", qdirac.nr_parameters(2.0, 1.0, 0.5))
STANDING = qdirac.stationary_wavefunction(
    qdirac.solve_spectrum(1.0, POT, 1.0, 1, "minus")[0], 1.0, POT)

# (the argument named, a call that passes a complex or a str for it)
NOT_REAL = {
    "evanescent_width-v0": ("v0", lambda: qdirac.evanescent_width(1.0, 1j, 0.5)),
    "evanescent_width-w_abs": ("w_abs", lambda: qdirac.evanescent_width(1.0, 0.3, 1j)),
    "evanescent_width-mass": ("mass", lambda: qdirac.evanescent_width("1", 0.3, 0.5)),
    "kinematics-energy": ("energy", lambda: qdirac.kinematics(1j, 1.0, POT)),
    "kinematics-mass": ("mass", lambda: qdirac.kinematics(2.0, 1j, POT)),
    "mode_coefficients-energy": (
        "energy", lambda: qdirac.mode_coefficients(1j, 1.0, POT, "minus")),
    "solve_spectrum-mass": (
        "mass", lambda: qdirac.solve_spectrum(1j, POT, 1.0, 2, "minus")),
    "solve_spectrum-length": (
        "length", lambda: qdirac.solve_spectrum(1.0, POT, length=1j, n_max=2,
                                                branch="minus")),
    "quantized_momenta-length": ("length", lambda: qdirac.quantized_momenta(1j, 3)),
    "nr_parameters-w_abs": ("w_abs", lambda: qdirac.nr_parameters(2.0, 1.0, 1j)),
    "nr_parameters-energy": ("energy", lambda: qdirac.nr_parameters(1j, 1.0, 0.5)),
    "nr_quantize-mass": ("mass", lambda: qdirac.nr_quantize(1.0, 2, 1j, 0.5)),
    "nr_quantize-w_abs": ("w_abs", lambda: qdirac.nr_quantize(1.0, 2, 1.0, 1j)),
    "quantization_residual-momentum": (
        "momentum", lambda: qdirac.quantization_residual(1j, 1.0, POT, 1.0, "minus")),
    "boundary_phase-amp_ratio": ("amp_ratio", lambda: qdirac.boundary_phase(1j, "minus")),
    "dirac_residual-mass": ("mass", lambda: qdirac.dirac_residual(WAVE, POT, 1j)),
    "nr_quantize-length-str": ("length", lambda: qdirac.nr_quantize("1", 2, 1.0, 0.5)),
    "nr_quantize-mass-str": ("mass", lambda: qdirac.nr_quantize(1.0, 2, "1", 0.5)),
    "dirac_residual-mass-str": ("mass", lambda: qdirac.dirac_residual(WAVE, POT, "1")),
    "stationary_residual-energy-str": (
        "energy", lambda: qdirac.stationary_residual(WAVE.spinor, "2", 1.0, 1.0, POT)),
    "stationary_residual-energy": (
        "energy", lambda: qdirac.stationary_residual(WAVE.spinor, 2j, 1.0, 1.0, POT)),
    "realify_stationary_operator-energy": (
        "energy", lambda: qdirac.realify_stationary_operator(2j, 1.0, 1.0, POT)),
    "PlaneWaveState.evaluate-z": ("z", lambda: WAVE.evaluate("0.5")),
    "PlaneWaveState.evaluate-t": ("t", lambda: WAVE.evaluate(0.5, 1j)),
    "StationaryWavefunction.evaluate-z": ("z", lambda: STANDING.evaluate("0.5")),
    "principal_momentum-mom2": ("mom2", lambda: qdirac.principal_momentum(1j)),
    "principal_momentum-mom2-str": ("mom2", lambda: qdirac.principal_momentum("4")),
}


@pytest.mark.parametrize("case", NOT_REAL)
def test_a_scalar_that_is_not_real_is_an_input_error_naming_it(case):
    # each once raised TypeError from a comparison, or (a complex v0 of
    # evanescent_width, through abs) returned a window
    name, call = NOT_REAL[case]
    with pytest.raises(qdirac.InputError, match="^%s must be a real number, got " % name):
        call()


@pytest.mark.parametrize("call", [
    lambda: qdirac.nullspace_oracle(2.0, "1", 1.0, POT),
    lambda: qdirac.stationary_residual(WAVE.spinor, 2.0, "1", 1.0, POT),
], ids=["nullspace_oracle", "stationary_residual"])
def test_a_momentum_that_is_not_a_number_is_an_input_error_naming_it(call):
    # a momentum may be complex; "1" once raised AttributeError from .real
    with pytest.raises(qdirac.InputError, match="^momentum must be a number, got '1'$"):
        call()


# (the argument named, a call that passes an int beyond float64 range for it)
BEYOND_FLOAT64 = {
    "PotentialStep-v0": ("v0", lambda big: qdirac.PotentialStep(v0=big)),
    "kinematics-energy": ("energy", lambda big: qdirac.kinematics(big, 1.0, POT)),
    "kinematics-mass": ("mass", lambda big: qdirac.kinematics(2.0, big, POT)),
    "mode_coefficients-energy": (
        "energy", lambda big: qdirac.mode_coefficients(big, 1.0, POT, "minus")),
    "quantization_residual-momentum": (
        "momentum", lambda big: qdirac.quantization_residual(big, 1.0, POT, 1.0, "minus")),
    "quantization_residual-length": (
        "length", lambda big: qdirac.quantization_residual(1.0, 1.0, POT, big, "minus")),
    "quantization_residual_grid-mass": (
        "mass", lambda big: qdirac.quantization_residual_grid([1.0], big, POT, 1.0,
                                                               "minus")),
    "solve_spectrum-mass": (
        "mass", lambda big: qdirac.solve_spectrum(big, POT, 1.0, 2, "minus")),
    "evanescent_width-v0": ("v0", lambda big: qdirac.evanescent_width(1.0, big, 0.5)),
    "nr_parameters-w_abs": ("w_abs", lambda big: qdirac.nr_parameters(2.0, 1.0, big)),
    "nr_quantize-length": ("length", lambda big: qdirac.nr_quantize(big, 2, 1.0, 0.5)),
    "boundary_phase-amp_ratio": (
        "amp_ratio", lambda big: qdirac.boundary_phase(big, "minus")),
    "stationary_residual-momentum": (
        "momentum", lambda big: qdirac.stationary_residual(WAVE.spinor, 2.0, big, 1.0,
                                                           POT)),
    "nullspace_oracle-momentum": (
        "momentum", lambda big: qdirac.nullspace_oracle(2.0, big, 1.0, POT)),
    "principal_momentum-mom2": ("mom2", lambda big: qdirac.principal_momentum(big)),
    "StationaryWavefunction.evaluate-j_chi": (
        "j_chi", lambda big: replace(STANDING, j_chi=big).evaluate(0.5)),
    "StationaryWavefunction.evaluate-momentum": (
        "momentum", lambda big: replace(STANDING, momentum=big).evaluate(0.5)),
    "StationaryWavefunction.evaluate-amplitude": (
        "amplitude", lambda big: replace(STANDING, amplitude=big).evaluate(0.5)),
    "normalize-j_chi": ("j_chi", lambda big: qdirac.normalize(replace(STANDING, j_chi=big))),
    "normalize-momentum": (
        "momentum", lambda big: qdirac.normalize(replace(STANDING, momentum=big))),
    "StationaryWavefunction.density-phase": (
        "phase", lambda big: replace(STANDING, phase=big).density(0.5)),
}


@pytest.mark.parametrize("big", [10**400, -10**400, 10**5000],
                         ids=["1e400", "-1e400", "1e5000"])
@pytest.mark.parametrize("case", BEYOND_FLOAT64)
def test_a_real_beyond_float64_range_is_an_input_error_naming_it(case, big):
    # each once raised a bare OverflowError where a check or the arithmetic
    # made a float of it; the message does not format the int, which str()
    # refuses beyond 4300 digits
    name, call = BEYOND_FLOAT64[case]
    with pytest.raises(qdirac.InputError, match="^%s lies beyond float64 range$" % name):
        call(big)


def _bits(result):
    """Every real number of a result as float.hex, through records and
    complex numbers; an array as its dtype and bytes."""
    if isinstance(result, np.ndarray):
        return result.dtype, result.tobytes()
    if is_dataclass(result):
        return [_bits(getattr(result, f.name)) for f in fields(result)]
    if isinstance(result, complex):
        return float(result.real).hex(), float(result.imag).hex()
    if isinstance(result, (int, float, Fraction)):
        return float(result).hex()
    return result


# (a call, its float arguments, and for the index of each argument that is
# a real number a value it refuses, or None where no integer is refused;
# every value an integer, so that int holds it exactly)
FLOAT_TWINS = {
    "kinematics": (qdirac.kinematics, (3.0, 1.0, POT), {0: -2.0, 1: -2.0}),
    "mode_coefficients": (qdirac.mode_coefficients, (3.0, 1.0, POT, "minus"),
                          {0: -2.0, 1: -2.0}),
    "quantization_residual": (qdirac.quantization_residual, (2.0, 1.0, POT, 1.0, "minus"),
                              {0: -2.0, 1: -2.0, 3: -2.0}),
    "stationary_residual": (partial(qdirac.stationary_residual, WAVE.spinor),
                            (3.0, 2.0, 1.0, POT), {0: None, 1: None, 2: -2.0}),
    "realify_stationary_operator": (qdirac.realify_stationary_operator,
                                    (3.0, 2.0, 1.0, POT), {0: None, 1: None, 2: -2.0}),
    "principal_momentum": (qdirac.principal_momentum, (4.0,), {0: None}),
}


@pytest.mark.parametrize("kind", [int, np.float64, Fraction])
@pytest.mark.parametrize("case", FLOAT_TWINS)
def test_a_real_that_is_no_float_gives_its_float_twins_result(case, kind):
    """The per-level guards pass a float on one comparison chain and send
    any other real through the named checks: both decide alike."""
    call, args, refused = FLOAT_TWINS[case]
    want = _bits(call(*args))
    for i, bad in refused.items():
        typed = list(args)
        typed[i] = kind(args[i])
        assert _bits(call(*typed)) == want, i
        if bad is None:
            continue
        with pytest.raises(qdirac.InputError) as float_error:
            call(*args[:i], bad, *args[i + 1:])
        typed[i] = kind(bad)
        with pytest.raises(qdirac.InputError) as typed_error:
            call(*typed)
        assert str(typed_error.value) == str(float_error.value).replace(
            repr(bad), repr(typed[i]))
    all_typed = [kind(a) if i in refused else a for i, a in enumerate(args)]
    assert _bits(call(*all_typed)) == want


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


def _by_function(tree):
    """(name of the innermost function that holds it, node) for every node
    of tree; None outside any function."""
    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        yield func, node
        for child in ast.iter_child_nodes(node):
            yield from visit(child, func)

    return visit(tree, None)


def _v0_zero_comparisons(tree):
    """(function, line) of each comparison of a `v0` name or attribute with
    the number 0, by the innermost function that holds it."""
    found = []
    for func, node in _by_function(tree):
        if isinstance(node, ast.Compare):
            sides = [node.left, *node.comparators]
            v0 = any(getattr(s, "id", getattr(s, "attr", None)) == "v0" for s in sides)
            zero = any(isinstance(s, ast.Constant) and type(s.value) in (int, float)
                       and s.value == 0 for s in sides)
            if v0 and zero:
                found.append((func, node.lineno))
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


def _catches_type_error(handler):
    names = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return any(getattr(n, "id", None) == "TypeError" for n in names)


def test_every_check_has_one_shape():
    """_require_finite is the one check for finite real values, so no
    function pairs it with _require_real; and a guard decides by its named
    checks, not by catching the TypeError of a comparison. Only
    _require_count catches one, which operator.index raises for a non-int."""
    handlers, calls = [], {}
    for path in sorted(Path(qdirac.__file__).parent.glob("*.py")):
        for func, node in _by_function(ast.parse(path.read_text(), str(path))):
            site = (path.name, func)
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                if _catches_type_error(node):
                    handlers.append(site)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                calls.setdefault(site, set()).add(node.func.id)
    assert handlers == [("dirac.py", "_require_count")]
    assert [site for site, names in calls.items()
            if {"_require_real", "_require_finite"} <= names] == []


def _decorator_name(node):
    node = node.func if isinstance(node, ast.Call) else node
    return getattr(node, "id", getattr(node, "attr", None))


def test_dirac_built_is_the_one_cached_function():
    """dirac._built makes every constant table of the Dirac layer once, so
    no other function is a cache (functools.cache or lru_cache): a second
    one would be a second home for a table, as dirac._residual_tables and
    bag._wall_tables once were."""
    cached = []
    for path in sorted(Path(qdirac.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                    _decorator_name(d) in ("cache", "lru_cache")
                    for d in node.decorator_list):
                cached.append((path.name, node.name))
    assert cached == [("dirac.py", "_built")]


def test_quaternion_imports_only_math():
    """quaternion is scalar algebra: the realified blocks of its products
    are made in dirac._built, so no import other than math (and
    __future__) belongs in the module, inside a function or at its top."""
    path = Path(qdirac.__file__).parent / "quaternion.py"
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert imported <= {"math", "__future__"}, imported
