"""The benchmark's tracer (qbench/tracer.py) against the current package.

The tracer wraps qdirac functions by name and reads some of their arguments
by position, so a change in src can break `qbench/run.py --trace 1` without
touching qbench. These tests install it around real CLI runs: stdout must
not change, the derived counts must be nonzero, and every original must be
back in place afterwards.
"""

import contextlib
import importlib.util
import io
from pathlib import Path

import qdirac.cli as cli
from qdirac import _kernels, bag, quaternion

TRACER_PATH = Path(__file__).resolve().parents[1] / "qbench" / "tracer.py"

ARGVS = (
    ["bag-spectrum", "--w0-abs", "0.5", "--v0", "0.3"],
    ["zones", "--v0", "1", "--w0-abs", "0.5", "--format", "json"],
    ["density", "--w0-abs", "0.5"],
    # build_matrices must stay a plain function the tracer can wrap, or the
    # per-layer count of matrix requests in verify reads 0
    ["verify"],
)


def load_tracer():
    spec = importlib.util.spec_from_file_location("qbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def originals():
    wf, q = bag.StationaryWavefunction, quaternion.Quaternion
    return {
        "cli._render": cli._render,
        "cli.main": cli.main,
        "cli.solve_spectrum": cli.solve_spectrum,
        "bag.solve_spectrum": bag.solve_spectrum,
        "_kernels.branch_mom2_grid": _kernels.branch_mom2_grid,
        "density_split": vars(wf)["density_split"],
        "Quaternion.__mul__": vars(q)["__mul__"],
    }


def test_traced_runs_print_the_same_bytes_and_count_work():
    plain = [run(argv) for argv in ARGVS]
    assert all(code == 0 for code, _ in plain)
    before = originals()
    tracer = load_tracer().Tracer()
    with tracer.installed():
        assert cli._render is not before["cli._render"]
        traced = [run(argv) for argv in ARGVS]
    assert traced == plain
    assert originals() == before
    quantities = tracer.quantities()
    for name in ("cli.render.rows", "kernels.branch_mom2_grid.points",
                 "bag.solve_spectrum.levels",
                 "bag.StationaryWavefunction.density_split.calls",
                 "dirac.build_matrices.calls"):
        assert quantities.get(name, 0) > 0, name

