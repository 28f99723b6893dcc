"""CLI contract: headers, cell formatting, exit codes, byte-identical reruns."""

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from qdirac import (
    InputError,
    NoSolutionError,
    PotentialStep,
    SingularCoefficientsError,
    classify_zone,
    evanescent_width,
    kinematics,
    nr_quantize,
    solve_spectrum,
)
from qdirac import bag, cli, nonrel
from qdirac.cli import main

ZONES_ARGS = [
    "zones", "--mass", "1", "--v0", "1", "--w0-abs", "1",
    "--e-min", "1", "--e-max", "3", "--e-step", "0.5",
]
ZONES_HEADER = (
    "energy,p2,q2_plus,q2_minus,delta,mom2_plus,mom2_minus,"
    "zone_minus,zone_plus,e_low,e_up,delta_e"
)


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def src_env():
    """The environment with this checkout's src first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def set_cpus(monkeypatch, count):
    """Make _blocks see count CPUs: one takes the serial loop, two fork a
    child that renders the second half of every block."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)),
                        raising=False)


class TestZones:
    def test_header_shape_and_cells(self, capsys):
        code, out, err = run_cli(ZONES_ARGS, capsys)
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert lines[0] == ZONES_HEADER
        assert len(lines) == 6
        assert out.endswith("\n") and not out.endswith("\n\n")
        pot = PotentialStep(v0=1.0, w_abs=1.0)
        e_low, e_up, width = evanescent_width(1.0, 1.0, 1.0)
        for line, e in zip(lines[1:], (1.0, 1.5, 2.0, 2.5, 3.0)):
            cells = line.split(",")
            assert len(cells) == 12
            kin = kinematics(e, 1.0, pot)
            assert float(cells[0]) == e
            assert float(cells[1]) == kin.p2
            assert float(cells[4]) == kin.delta
            assert float(cells[5]) == kin.mom2_plus
            assert float(cells[6]) == kin.mom2_minus
            zm, zp = classify_zone(e, 1.0, pot)
            assert cells[7] == zm.value
            assert cells[8] == zp.value
            assert float(cells[9]) == e_low
            assert float(cells[10]) == e_up
            assert float(cells[11]) == width
        mid = lines[2].split(",")
        assert mid[7] == "evanescent" and mid[8] == "diffusion"
        assert lines[5].split(",")[7] == "diffusion"

    def test_grid_includes_endpoint_despite_rounding(self, capsys):
        code, out, _ = run_cli(
            ["zones", "--e-min", "1", "--e-max", "1.05", "--e-step", "0.01"],
            capsys,
        )
        assert code == 0
        rows = out.splitlines()[1:]
        assert len(rows) == 6
        assert float(rows[-1].split(",")[0]) == pytest.approx(1.05, abs=1e-12)

    def test_defaults_cover_mass_to_mass_plus_five(self, capsys):
        code, out, _ = run_cli(
            ["zones", "--mass", "2", "--e-step", "1"], capsys
        )
        assert code == 0
        first = out.splitlines()[1].split(",")
        last = out.splitlines()[-1].split(",")
        assert float(first[0]) == 2.0
        assert float(last[0]) == 7.0

    def test_json_object_shape(self, capsys):
        code, out, _ = run_cli(ZONES_ARGS + ["--format", "json"], capsys)
        assert code == 0
        obj = json.loads(out)
        assert list(obj) == ["command", "params", "columns", "rows"]
        assert obj["command"] == "zones"
        assert obj["params"] == {
            "mass": 1.0, "v0": 1.0, "w0_abs": 1.0, "w0_phase": 0.0,
            "e_min": 1.0, "e_max": 3.0, "e_step": 0.5,
        }
        assert obj["columns"] == ZONES_HEADER.split(",")
        assert len(obj["rows"]) == 5
        kin = kinematics(1.5, 1.0, PotentialStep(v0=1.0, w_abs=1.0))
        assert obj["rows"][1][6] == kin.mom2_minus
        assert obj["rows"][1][7] == "evanescent"


class TestBagSpectrum:
    def test_csv_matches_solver(self, capsys):
        code, out, _ = run_cli(
            ["bag-spectrum", "--w0-abs", "0.5", "--levels", "3"], capsys
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == (
            "branch,index,momentum,eff_momentum,energy,phase,norm_const,"
            "regime_flag"
        )
        levels = solve_spectrum(
            1.0, PotentialStep(w_abs=0.5), 1.0, 3, "minus"
        )
        assert len(lines) == 4
        for line, lvl in zip(lines[1:], levels):
            cells = line.split(",")
            assert cells[0] == "minus"
            assert cells[1] == "%d" % lvl.index
            assert float(cells[2]) == lvl.momentum
            assert float(cells[4]) == lvl.energy
            assert float(cells[6]) == lvl.norm_const
            assert cells[7] == "false"
        assert float(lines[1].split(",")[4]) == pytest.approx(
            2.2996081029312876, rel=1e-15
        )

    def test_regime_flag_prints_lowercase_true(self, capsys):
        code, out, _ = run_cli(
            [
                "bag-spectrum", "--w0-abs", "2", "--branch", "plus",
                "--levels", "2",
            ],
            capsys,
        )
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert rows[0][0] == "plus"
        assert rows[0][7] == "true"
        assert rows[1][7] == "false"

    def test_one_hundred_sixty_levels(self, capsys):
        code, out, err = run_cli(
            ["bag-spectrum", "--w0-abs", "0.5", "--levels", "160"], capsys
        )
        assert code == 0 and err == ""
        assert len(out.splitlines()) == 161


class TestDensity:
    def test_rows_sum_and_sample_grid(self, capsys):
        code, out, _ = run_cli(
            [
                "density", "--w0-abs", "0.5", "--levels", "2", "--level", "2",
                "--grid", "5",
            ],
            capsys,
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "z,rho,rho_complex_part,rho_quaternionic_part"
        assert len(lines) == 6
        zs = [float(line.split(",")[0]) for line in lines[1:]]
        assert zs == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0], abs=1e-15)
        for line in lines[1:]:
            _, rho, rho_c, rho_q = (float(c) for c in line.split(","))
            assert rho >= 0.0 and rho_c >= 0.0 and rho_q >= 0.0
            assert rho == pytest.approx(rho_c + rho_q, rel=1e-15)

    def test_solves_only_up_to_the_sampled_level(self, capsys):
        # level 2 of this plus branch sits on the mass shell and cannot be
        # solved; sampling level 1 must not depend on it
        base = ["density", "--w0-abs", "3.141592653589793", "--branch", "plus",
                "--level", "1"]
        code, out, err = run_cli(base + ["--levels", "2"], capsys)
        assert code == 0 and err == ""
        assert run_cli(base + ["--levels", "1"], capsys) == (0, out, "")


class TestNrSpectrum:
    def test_csv_matches_module(self, capsys):
        code, out, _ = run_cli(
            ["nr-spectrum", "--w0-abs", "0.5", "--levels", "2"], capsys
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == (
            "index,momentum,eff_plus,eff_minus,energy_plus,energy_minus,"
            "regime_flag"
        )
        levels = nr_quantize(1.0, 2, 1.0, 0.5)
        for line, lvl in zip(lines[1:], levels):
            cells = line.split(",")
            assert float(cells[1]) == lvl.momentum
            assert float(cells[4]) == lvl.energy_plus
            assert float(cells[5]) == lvl.energy_minus

    def test_w_zero_is_a_usage_error(self, capsys):
        code, out, err = run_cli(["nr-spectrum"], capsys)
        assert code == 2
        assert out == ""
        assert "w0-abs" in err


class TestExitCodes:
    def test_usage_errors_return_two(self, capsys):
        cases = [
            ["zones", "--mass", "-1"],
            ["zones", "--mass", "2", "--e-min", "1"],
            ["zones", "--e-min", "2", "--e-max", "1.5"],
            ["zones", "--e-step", "0"],
            ["bag-spectrum", "--levels", "0"],
            ["density", "--w0-abs", "0.5", "--levels", "2", "--level", "3"],
            ["density", "--w0-abs", "0.5", "--grid", "1"],
            ["bag-spectrum", "--w0-abs", "-0.5"],
        ]
        for argv in cases:
            code, out, err = run_cli(argv, capsys)
            assert code == 2, argv
            assert out == "" and err.startswith("error:")

    def test_mass_shell_error_shows_the_values_it_compares(self, capsys):
        code, out, err = run_cli(
            ["zones", "--mass", "1.0000002", "--e-min", "1.0000001"], capsys)
        assert (code, out) == (2, "")
        assert err == "error: e-min 1.0000001 is below the mass shell 1.0000002\n"

    def test_table_size_is_bounded_before_allocating(self, capsys, monkeypatch):
        # the check runs before the grid exists, so refusing a count just
        # over the bound allocates nothing
        from qdirac import cli

        def no_grid(*args, **kwargs):
            raise AssertionError("grid allocated before the size check")

        monkeypatch.setattr(np, "arange", no_grid)
        monkeypatch.setattr(np, "linspace", no_grid)
        monkeypatch.setattr(bag, "solve_spectrum", no_grid)
        monkeypatch.setattr(nonrel, "nr_quantize", no_grid)
        over = str(cli.MAX_ROWS + 1)
        for argv, flag in (
            (["zones", "--e-step", "5e-324"], "--e-step"),
            (["zones", "--e-min", "1", "--e-max", over, "--e-step", "1"], "--e-step"),
            (["density", "--w0-abs", "0.5", "--grid", over], "--grid"),
            (["bag-spectrum", "--w0-abs", "0.5", "--levels", over], "--levels"),
            (["density", "--w0-abs", "0.5", "--levels", over, "--level", over], "--level"),
            (["nr-spectrum", "--w0-abs", "0.5", "--levels", over], "--levels"),
        ):
            code, out, err = run_cli(argv, capsys)
            assert code == 2 and out == "", argv
            assert err.startswith("error: " + flag) and err.count("\n") == 1, err
            assert str(cli.MAX_ROWS) in err

    def test_table_size_bound_is_inclusive(self, capsys, monkeypatch):
        from qdirac import cli

        monkeypatch.setattr(cli, "MAX_ROWS", 3)
        code, out, _ = run_cli(
            ["zones", "--e-min", "1", "--e-max", "3", "--e-step", "1"], capsys
        )
        assert code == 0 and len(out.splitlines()) == 1 + 3
        code, _, _ = run_cli(
            ["zones", "--e-min", "1", "--e-max", "4", "--e-step", "1"], capsys
        )
        assert code == 2
        for argv, flag in ((["bag-spectrum"], "--levels"), (["nr-spectrum"], "--levels"),
                           (["density", "--grid", "3", "--levels", "4"], "--level")):
            argv = argv + ["--w0-abs", "0.5"]
            code, out, _ = run_cli(argv + [flag, "3"], capsys)
            assert code == 0 and len(out.splitlines()) == 1 + 3, argv
            code, _, err = run_cli(argv + [flag, "4"], capsys)
            assert code == 2 and err.startswith("error: %s 4 " % flag), argv
        # density solves --level levels, whatever --levels allows
        code, out, _ = run_cli(["density", "--w0-abs", "0.5", "--levels", "4",
                                "--level", "1", "--grid", "3"], capsys)
        assert code == 0 and len(out.splitlines()) == 1 + 3

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "command,flag",
        [("bag-spectrum", "--mass"), ("density", "--length"),
         ("nr-spectrum", "--length"), ("zones", "--e-min"), ("zones", "--e-max"),
         ("zones", "--e-step")],
    )
    def test_non_finite_flags_name_the_flag(self, capsys, command, flag, value):
        for given in ([flag + "=" + value], [flag, value]):
            code, out, err = run_cli([command, "--w0-abs", "0.5"] + given, capsys)
            assert code == 2 and out == ""
            assert err == "error: %s must be finite, got %s\n" % (flag, value)

    @pytest.mark.parametrize("value", ["-1e-3", "-1.5E2", "-1.", "-1.0000000000000001e-05"])
    def test_negative_float_text_is_a_value(self, capsys, value):
        """A value the way %.17g prints it reads back with or without '='."""
        argv = ["bag-spectrum", "--w0-abs", "0.5", "--levels", "2"]
        spaced = run_cli(argv + ["--v0", value], capsys)
        assert spaced == run_cli(argv + ["--v0=" + value], capsys)
        assert spaced[0] == 0 and spaced[2] == ""

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize(
        "flag,field", [("--v0", "v0"), ("--w0-abs", "w_abs"), ("--w0-phase", "w_phase")]
    )
    def test_non_finite_potential_flags(self, capsys, flag, field, value):
        code, out, err = run_cli(["bag-spectrum", flag + "=" + value], capsys)
        assert code == 2 and out == ""
        assert err == "error: %s must be finite, got %s\n" % (field, value)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_w0_abs_in_nr_spectrum(self, capsys, value):
        code, out, err = run_cli(["nr-spectrum", "--w0-abs", value], capsys)
        assert code == 2 and out == ""
        assert err == "error: w_abs must be finite, got %s\n" % value

    @pytest.mark.parametrize("argv", [
        ["zones", "--mass", "1e200", "--w0-abs", "0.5", "--e-step", "1e199",
         "--e-max", "1.5e200"],
        ["zones", "--mass", "1", "--v0", "1e200", "--w0-abs", "0.5",
         "--e-step", "1", "--e-max", "3"],
    ])
    def test_overflowing_zones_grid_is_a_usage_error(self, capsys, argv):
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: branch momenta at energy ")
        assert err.endswith(" overflow float64\n") and err.count("\n") == 1

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("argv,message", [
        (["nr-spectrum", "--w0-abs", "0.5", "--length", "1e-310", "--levels", "2"],
         "length 1e-310 is too small: the momentum 2*pi/length overflows"),
        (["bag-spectrum", "--w0-abs", "0.5", "--length", "1e-310", "--levels", "2"],
         "length 1e-310 is too small: the momentum 2*pi/(2*length) overflows"),
        (["density", "--w0-abs", "0.5", "--length", "1e-310"],
         "length 1e-310 is too small: the momentum 1*pi/(2*length) overflows"),
        (["bag-spectrum", "--w0-abs", "1e300", "--levels", "2"],
         "level 1 at energy 1e+300: the mode coefficients overflow"),
        (["bag-spectrum", "--w0-abs", "0.5", "--length", "1e-200", "--levels", "2"],
         "level 1 at energy 1.5707963267948964e+200: the mode coefficients "
         "overflow"),
    ])
    def test_float64_overflow_is_a_usage_error(self, capsys, argv, message, fmt):
        code, out, err = run_cli(argv + ["--format", fmt], capsys)
        assert code == 2 and out == ""
        assert err == "error: %s float64\n" % message

    @pytest.mark.parametrize("argv,target,reason", [
        (["nr-spectrum", "--w0-abs", "0.5"], "missing/x.csv", "No such file"),
        (["verify"], ".", "Is a directory"),
    ])
    def test_unwritable_output_is_a_usage_error(self, capsys, tmp_path, argv,
                                                target, reason):
        path = str(tmp_path / target)
        code, out, err = run_cli(argv + ["--output", path], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: cannot write --output %s: %s" % (path, reason))
        assert err.count("\n") == 1

    def test_argparse_errors_exit_two(self, capsys):
        for argv in (
            ["zones", "--no-such-flag"],
            ["bag-spectrum", "--branch", "sideways"],
            ["not-a-command"],
            [],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2, argv
            capsys.readouterr()

    def test_no_solution_returns_three(self, capsys):
        code, out, err = run_cli(
            ["bag-spectrum", "--v0", "3", "--branch", "plus", "--levels", "1"],
            capsys,
        )
        assert code == 3
        assert out == "" and err.startswith("error:")

    @pytest.mark.parametrize("argv,message", [
        (["bag-spectrum"], "resonant denominator: "),
        (["density"], "resonant denominator: "),
        (["bag-spectrum", "--w0-abs", "3.141592653589793", "--branch", "plus",
          "--levels", "2"], "coefficients singular at E = m "),
    ])
    def test_singular_coefficients_return_three(self, capsys, argv, message):
        code, out, err = run_cli(argv, capsys)
        assert code == 3 and out == ""
        assert err.startswith("error: " + message) and err.count("\n") == 1

    @pytest.mark.parametrize("argv,code,message", [
        (["--w0-abs", "0.5", "--mass", "1e308", "--levels", "2"], 3,
         "coefficients singular at E = m (delta/(E - m) pole)"),
        (["--w0-abs", "0.5", "--length", "1e308", "--levels", "1"], 3,
         "amp_ratio denominator vanishes at these parameters"),
        (["--w0-abs", "1e300", "--levels", "2"], 2,
         "level 1 at energy 1e+300: the mode coefficients overflow float64"),
    ])
    def test_coefficient_checks_keep_their_order(self, capsys, argv, code, message):
        # past each check sits a float division by zero (E = m, a zero
        # amp_ratio denominator) or a nan phase that the norm integral
        # rejects (nan coefficients), so the check that runs first names the
        # error
        got = run_cli(["bag-spectrum"] + argv, capsys)
        assert got == (code, "", "error: %s\n" % message)

    @pytest.mark.parametrize("argv", [
        ["--length", "1e308", "--v0", "1e20", "--w0-abs", "1", "--levels", "5"],
        ["--length", "1.7e308", "--levels", "2"],
    ])
    def test_widest_wells_end_in_one_line(self, capsys, argv):
        # 2*length overflows to inf in these wells, which must not make the
        # momenta 0 (a ZeroDivisionError in the norm integral)
        code, _, err = run_cli(["bag-spectrum"] + argv, capsys)
        assert code in (0, 2, 3) and err.count("\n") <= 1
        assert "Traceback" not in err

    def test_internal_error_exits_four_after_the_written_blocks(self, capsys,
                                                                monkeypatch):
        monkeypatch.setattr(cli, "BLOCK", 3)  # ZONES_ARGS has 5 rows: two blocks
        serial = run_cli(ZONES_ARGS, capsys)[1].splitlines(keepends=True)
        render, texts = cli._render, []

        def fail_second(*args):
            if texts:
                raise RuntimeError("render failed")
            texts.append(render(*args))
            return texts[0]

        monkeypatch.setattr(cli, "_render", fail_second)
        code, out, err = run_cli(ZONES_ARGS, capsys)
        # the first block whole: on two CPUs its second row range comes from
        # the child, whose copy of fail_second passes its own first call
        assert code == 4
        assert out == "".join(serial[:4])
        assert err == "error: internal: RuntimeError: render failed\n"
        set_cpus(monkeypatch, 1)
        texts.clear()
        code, out, err = run_cli(ZONES_ARGS, capsys)
        assert code == 4
        assert out == texts[0] == "".join(serial[:4])
        assert err == "error: internal: RuntimeError: render failed\n"

    @pytest.mark.parametrize("exc,code,line", [
        (InputError("bad flag"), 2, "error: bad flag\n"),
        (NoSolutionError("no level"), 3, "error: no level\n"),
        (SingularCoefficientsError("pole"), 3, "error: pole\n"),
        # a ValueError that is not an InputError is not the caller's fault
        (ValueError("math domain error"), 4,
         "error: internal: ValueError: math domain error\n"),
        (ZeroDivisionError("float division by zero"), 4,
         "error: internal: ZeroDivisionError: float division by zero\n"),
    ])
    def test_exit_code_follows_the_exception_type(self, capsys, monkeypatch, exc,
                                                  code, line):
        def fail(*args):
            raise exc

        monkeypatch.setattr(bag, "solve_spectrum", fail)
        monkeypatch.setattr(nonrel, "nr_quantize", fail)
        for command in ("bag-spectrum", "nr-spectrum"):
            got = run_cli([command, "--w0-abs", "0.5"], capsys)
            assert got == (code, "", line), command

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_output_write_error_mid_table_is_one_line(self, capsys):
        code, out, err = run_cli(
            ["zones", "--e-step", "0.0001", "--output", "/dev/full"], capsys)
        assert (code, out) == (2, "")
        assert err == ("error: cannot write --output /dev/full: "
                       "No space left on device\n")

    def test_reader_closing_stdout_ends_quietly(self):
        # 50,001 rows are 13 blocks and far more than a pipe buffer, so the
        # writer is still mid-table when the reader goes away
        argv = [sys.executable, "-m", "qdirac", "zones", "--e-step", "0.0001"]
        with subprocess.Popen(argv, env=src_env(), stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE) as proc:
            header = proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=120)
        assert header.decode() == ZONES_HEADER + "\n"
        assert (code, err) == (0, b"")

    def test_the_parser_is_built_once_per_process(self, capsys, monkeypatch):
        build, built = cli.build_parser, []

        def counting_build():
            built.append(build())
            return built[-1]

        monkeypatch.setattr(cli, "_parser", None)
        monkeypatch.setattr(cli, "build_parser", counting_build)
        assert run_cli(ZONES_ARGS, capsys)[0] == 0
        assert run_cli(["nr-spectrum", "--w0-abs", "0.5"], capsys)[0] == 0
        assert run_cli(["zones", "--e-step", "0"], capsys)[0] == 2
        assert len(built) == 1 and cli._parser is built[0]

    def test_version_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.strip().count(".") == 2


# edge values for every float flag; half the draws are ordinary values, so
# that many argv get past validation
EDGE_FLOATS = (math.nan, math.inf, -math.inf, 0.0, -0.0, 1e308, -1e308, 5e-324,
               -5e-324, -1.0, -0.5)


def fuzz_floats(low, high):
    ordinary = st.floats(low, high)
    return st.one_of(ordinary, ordinary, st.sampled_from(EDGE_FLOATS), st.floats())


POSITIVE, SIGNED = fuzz_floats(1e-3, 4.0), fuzz_floats(-4.0, 4.0)
# counts around 0 and around the 1000-row bound the test patches in
COUNT = st.one_of(st.integers(1, 12), st.integers(1, 12), st.integers(-2, 0),
                  st.integers(995, 1005))
FORMAT = st.sampled_from(("csv", "json"))
FUZZ_POT = {"--mass": POSITIVE, "--v0": SIGNED, "--w0-abs": POSITIVE,
            "--w0-phase": SIGNED, "--format": FORMAT}
FUZZ_WELL = {"--length": POSITIVE, "--levels": COUNT,
             "--branch": st.sampled_from(("minus", "plus"))}
FUZZ_FLAGS = {
    "zones": {**FUZZ_POT, "--e-min": POSITIVE, "--e-max": fuzz_floats(1.0, 8.0),
              "--e-step": fuzz_floats(0.01, 1.0)},
    "bag-spectrum": {**FUZZ_POT, **FUZZ_WELL},
    "density": {**FUZZ_POT, **FUZZ_WELL, "--level": COUNT, "--grid": COUNT,
                "--spin": st.sampled_from(("up", "down"))},
    "nr-spectrum": {"--mass": POSITIVE, "--w0-abs": POSITIVE, "--length": POSITIVE,
                    "--levels": COUNT, "--format": FORMAT},
}


@st.composite
def table_argv(draw):
    """argv that argparse accepts for one table command: any subset of its
    flags, each spelled `--flag value` or `--flag=value`."""
    command = draw(st.sampled_from(sorted(FUZZ_FLAGS)))
    flags = draw(st.fixed_dictionaries({}, optional=FUZZ_FLAGS[command]))
    argv = [command]
    for flag, value in flags.items():
        text = repr(value) if isinstance(value, float) else str(value)
        argv += [flag + "=" + text] if draw(st.booleans()) else [flag, text]
    return argv


def reject_constant(name):
    raise ValueError("non-finite JSON constant " + name)


class TestContractFuzz:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(table_argv())
    @example(["bag-spectrum", "--length", "1e308", "--v0", "1e20", "--w0-abs", "1",
              "--levels", "5"])
    @example(["bag-spectrum", "--w0-abs", "0.5", "--length", "1e308", "--levels", "1"])
    @example(["density", "--mass", "1e-200", "--v0", "3.141592653589793", "--w0-abs", "1e-8",
              "--length", "1e12", "--level", "1"])
    def test_every_accepted_argv_keeps_the_contract(self, argv):
        """Exit 0, 2 or 3 and never the internal-error code; a failure is one
        error line and no table; a rerun prints the same bytes; JSON output
        holds no NaN or Infinity."""
        runs = []
        with mock.patch.object(cli, "MAX_ROWS", 1000):
            for _ in range(2):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(argv)
                runs.append((code, out.getvalue(), err.getvalue()))
        code, out, err = runs[0]
        assert runs[1] == runs[0], argv
        assert code in (0, 2, 3), (argv, err)
        if code:
            assert out == "" and err.startswith("error: ")
            assert err.count("\n") == 1 and err.endswith("\n"), (argv, err)
        else:
            assert err == "" and out.endswith("\n"), argv
            if "json" in argv or "--format=json" in argv:
                json.loads(out, parse_constant=reject_constant)


class TestVerify:
    def test_report_passes_and_has_stable_shape(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(["verify", "--output", str(target)], capsys)
        assert code == 0
        assert out == ""
        report = json.loads(target.read_text())
        assert list(report) == ["seed", "sections", "all_assertions_passed"]
        assert report["all_assertions_passed"] is True
        kinds = {s["kind"] for s in report["sections"].values()}
        assert kinds == {"assert", "diagnostic"}
        for name, section in report["sections"].items():
            if section["kind"] == "assert":
                assert section["passed"] is True, name


class TestRuntimeDependencies:
    def test_runs_without_scipy(self, tmp_path):
        # scipy is a test-only dependency: importing the CLI must not load it,
        # and the commands that used to need it run with it blocked
        script = tmp_path / "no_scipy.py"
        script.write_text(
            "import contextlib, io, json, sys\n"
            "import qdirac.cli\n"
            "codes = {'scipy_loaded': 'scipy' in sys.modules}\n"
            "class Block:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name == 'scipy' or name.startswith('scipy.'):\n"
            "            raise ImportError('scipy blocked')\n"
            "sys.meta_path.insert(0, Block())\n"
            "for argv in (['verify'], ['bag-spectrum', '--v0', '0.7', '--w0-abs', '0.5'],\n"
            "             ['density', '--w0-abs', '0.5']):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        codes[argv[0]] = qdirac.cli.main(argv)\n"
            "print(json.dumps(codes))\n"
        )
        proc = subprocess.run([sys.executable, str(script)], env=src_env(),
                              capture_output=True, text=True, check=True)
        assert json.loads(proc.stdout) == {
            "scipy_loaded": False, "verify": 0, "bag-spectrum": 0, "density": 0,
        }

    def test_scalar_paths_run_without_numpy(self, tmp_path):
        # the scalar commands and the spectrum API use math and cmath only:
        # importing the CLI must not load numpy, and with numpy blocked they
        # print what an unblocked run prints
        script = tmp_path / "no_numpy.py"
        script.write_text(NO_NUMPY_SCRIPT)
        blocked, plain = (
            json.loads(subprocess.run(
                [sys.executable, str(script), mode], env=src_env(), capture_output=True,
                text=True, check=True).stdout)
            for mode in ("block", "plain"))
        for run in (blocked, plain):
            assert run.pop("numpy_after_import") is False
            assert run.pop("numpy_at_end") is False
        assert blocked == plain
        codes = {name: code for name, (code, _) in blocked.items()}
        assert codes == {name: code for name, code, _ in NO_NUMPY_CASES}
        assert all(out for name, (code, out) in blocked.items() if code == 0)

    def test_importing_the_cli_loads_neither_bag_nor_json(self):
        # bag-spectrum and density import bag when they run, and verify and
        # the JSON tables import json
        probe = ("import sys, qdirac.cli\n"
                 "print(sorted({'qdirac.bag', 'json'} & set(sys.modules)))")
        out = subprocess.run([sys.executable, "-c", probe], env=src_env(),
                             capture_output=True, text=True, check=True).stdout
        assert out == "[]\n"

    @pytest.mark.parametrize("argv,absent,present", [
        (["--version"], {"qdirac.report", "qdirac.nonrel", "qdirac._kernels", "numpy",
                         "qdirac.bag", "json"}, set()),
        (["bag-spectrum", "--w0-abs", "0.5"],
         {"qdirac.report", "qdirac.nonrel", "qdirac._kernels", "numpy", "json"},
         {"qdirac.bag"}),
        (["density", "--w0-abs", "0.5"],
         {"qdirac.report", "qdirac.nonrel", "qdirac._kernels", "json"},
         {"qdirac.bag", "numpy"}),
        (["zones"], {"qdirac.report", "qdirac.nonrel", "qdirac.bag", "json"},
         {"qdirac._kernels", "numpy"}),
        (["zones", "--format", "json"], {"qdirac.report", "qdirac.nonrel", "qdirac.bag"},
         {"qdirac._kernels", "numpy", "json"}),
        (["nr-spectrum", "--w0-abs", "0.5"], {"qdirac.report", "qdirac.bag", "json"},
         {"qdirac.nonrel"}),
        (["verify"], set(),
         {"qdirac.report", "qdirac.nonrel", "qdirac._kernels", "qdirac.bag", "numpy",
          "json"}),
    ], ids=["version", "bag-spectrum", "density", "zones", "zones-json", "nr-spectrum",
            "verify"])
    def test_each_command_imports_only_the_modules_it_runs(self, argv, absent, present):
        # one fresh interpreter per command: the qdirac modules, numpy and
        # json it left in sys.modules after a successful run, listed before
        # the script imports json for its own output
        script = (
            "import contextlib, io, sys\n"
            "from qdirac.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    try:\n"
            "        code = main(%r)\n"
            "    except SystemExit as exc:\n"
            "        code = exc.code\n"
            "loaded = sorted(m for m in sys.modules\n"
            "                if m in ('numpy', 'json') or m.startswith('qdirac.'))\n"
            "import json\n"
            "print(json.dumps([code, loaded]))\n"
            % (argv,))
        code, loaded = json.loads(subprocess.run(
            [sys.executable, "-c", script], env=src_env(), capture_output=True,
            text=True, check=True).stdout)
        assert code == 0
        assert {"qdirac.cli", "qdirac.dirac", "qdirac.step"} | present <= set(loaded)
        assert absent.isdisjoint(loaded), sorted(absent.intersection(loaded))


# (name, expected exit code, argv); "api" runs the spectrum API instead
NO_NUMPY_CASES = (
    ("version", 0, ["--version"]),
    ("bag_v0_zero_minus", 0, ["bag-spectrum", "--w0-abs", "0.5", "--levels", "8"]),
    ("bag_v0_zero_plus", 0,
     ["bag-spectrum", "--w0-abs", "0.5", "--levels", "8", "--branch", "plus"]),
    ("bag_v0_minus", 0,
     ["bag-spectrum", "--v0", "0.7", "--w0-abs", "0.5", "--levels", "8"]),
    ("bag_v0_plus_json", 0,
     ["bag-spectrum", "--v0", "-0.4", "--w0-abs", "0.5", "--levels", "8",
      "--branch", "plus", "--format", "json"]),
    ("nr_spectrum", 0, ["nr-spectrum", "--w0-abs", "0.5", "--levels", "20"]),
    ("usage_nonfinite_mass", 2, ["bag-spectrum", "--mass", "nan"]),
    ("usage_zones_step", 2, ["zones", "--e-step", "0"]),
    ("usage_nr_w0", 2, ["nr-spectrum"]),
    ("usage_bad_choice", 2, ["bag-spectrum", "--branch", "sideways"]),
    ("api", 0, None),
)

NO_NUMPY_SCRIPT = """\
import contextlib, io, json, sys
import qdirac.cli
out = {'numpy_after_import': 'numpy' in sys.modules}
class Block:
    def find_spec(self, name, path=None, target=None):
        if name == 'numpy' or name.startswith('numpy.'):
            raise ImportError('numpy blocked')
if sys.argv[1] == 'block':
    sys.meta_path.insert(0, Block())
from qdirac import (PotentialStep, kinematics, mode_coefficients, normalize,
                    solve_spectrum, stationary_wavefunction)
def api():
    pot = PotentialStep(v0=0.7, w_abs=0.5, w_phase=0.3)
    levels = solve_spectrum(1.0, pot, 1.0, 6, 'plus')
    wf = stationary_wavefunction(levels[-1], 1.0, pot, 'down')
    print(repr(levels), repr(wf), repr(wf.evaluate(0.3)), normalize(wf)[0],
          repr(mode_coefficients(2.0, 1.0, pot, 'minus')),
          repr(kinematics(2.0, 1.0, pot)))
    return 0
def cli(argv):
    try:
        return qdirac.cli.main(argv)
    except SystemExit as exc:
        return exc.code
for name, _, argv in %r:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = api() if argv is None else cli(argv)
    out[name] = [code, buf.getvalue()]
out['numpy_at_end'] = 'numpy' in sys.modules
print(json.dumps(out))
""" % (NO_NUMPY_CASES,)


class TestOutputStability:
    def test_output_file_equals_stdout(self, capsys, tmp_path):
        code, out, _ = run_cli(ZONES_ARGS, capsys)
        assert code == 0
        target = tmp_path / "zones.csv"
        code2, out2, _ = run_cli(ZONES_ARGS + ["--output", str(target)], capsys)
        assert code2 == 0 and out2 == ""
        assert target.read_bytes().decode() == out

    @pytest.mark.parametrize("argv", [
        ["zones", "--v0", "-0.3", "--w0-abs", "0.2", "--e-step", "0.0005"],
        ["density", "--v0", "0.7", "--w0-abs", "0.5", "--grid", "9000"],
    ])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_multi_block_output_file_equals_stdout(self, capsys, tmp_path,
                                                   argv, fmt):
        argv = argv + ["--format", fmt]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0 and out.count("\n") > 2 * cli.BLOCK
        target = tmp_path / "table"
        assert run_cli(argv + ["--output", str(target)], capsys) == (0, "", "")
        assert target.read_bytes() == out.encode()

    def test_output_file_does_not_read_the_locale(self, tmp_path):
        # -X warn_default_encoding warns at every open() that falls back to
        # the locale's encoding, and -W error makes that warning an exit 4
        argv = [sys.executable, "-X", "warn_default_encoding",
                "-W", "error::EncodingWarning", "-m", "qdirac",
                "nr-spectrum", "--w0-abs", "0.5"]
        out = subprocess.run(argv, env=src_env(), capture_output=True)
        assert (out.returncode, out.stderr) == (0, b"") and out.stdout
        target = tmp_path / "nr.csv"
        proc = subprocess.run(argv + ["--output", str(target)], env=src_env(),
                              capture_output=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
        assert target.read_bytes() == out.stdout

    def test_peak_memory_does_not_grow_with_the_row_count(self):
        # 200,001 zones rows in JSON are about 50 MB of text; written whole
        # they took the process to about 240 MB. The peak is the child's
        # own VmHWM: its ru_maxrss would also hold the high-water mark of
        # this test process, which Linux carries across fork and exec.
        script = (
            "import os, re\n"
            "from qdirac.cli import main\n"
            "code = main(['zones', '--e-min', '1', '--e-max', '196.3125',\n"
            "             '--e-step', '0.0009765625', '--format', 'json',\n"
            "             '--output', os.devnull])\n"
            "status = open('/proc/self/status').read()\n"
            "print(code, re.search(r'VmHWM:\\s*(\\d+) kB', status).group(1))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], env=src_env(),
                              capture_output=True, text=True, check=True)
        code, peak_kib = map(int, proc.stdout.split())
        assert code == 0
        assert peak_kib < 120 * 1024, peak_kib

    def test_repeat_runs_are_byte_identical(self):
        argv = [sys.executable, "-m", "qdirac"] + ZONES_ARGS + [
            "--format", "json",
        ]
        first = subprocess.run(argv, capture_output=True, check=True)
        second = subprocess.run(argv, capture_output=True, check=True)
        assert first.stdout == second.stdout
        assert first.stdout
        obj = json.loads(first.stdout)
        assert obj["command"] == "zones"


SPECIAL_FLOATS = (math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324,
                  2.2250738585072014e-308, 1e308, -1e308, 0.1, 3.0, -7.0)
TEXTS = ("minus", "a,b", 'say "hi"', "100%", "%s%d%%", "back\\slash",
         "caf\u00e9", "\u91cf\u5b50", "tab\tend", "")


def random_float(rng):
    pick = rng.random()
    if pick < 0.15:
        return rng.choice(SPECIAL_FLOATS)
    if pick < 0.3:
        return float(rng.randint(-10**6, 10**6))
    return rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-320, 307)


CELLS = {
    "float": random_float,
    "finite": lambda rng: rng.uniform(-1e3, 1e3) * 10.0 ** rng.randint(-30, 30),
    "zero": lambda rng: rng.choice((0.0, -0.0)),
    "nan": lambda rng: float("nan"),
    "int": lambda rng: rng.randint(-10**20, 10**20),
    "bool": lambda rng: rng.random() < 0.5,
    "str": lambda rng: rng.choice(TEXTS),
}


def random_table(rng, n_rows=None):
    """Columns of one kind each; a third of them hold a single value. The
    row count is drawn unless given."""
    if n_rows is None:
        n_rows = rng.choice((0, 1, 2, 3, rng.randint(4, 60)))
    kinds = [rng.choice(sorted(CELLS)) for _ in range(rng.randint(1, 7))]
    cols = []
    for kind in kinds:
        make = CELLS[kind]
        if rng.random() < 0.35:
            value = make(rng)
            cols.append([value] * n_rows)
        else:
            cols.append([make(rng) for _ in range(n_rows)])
    columns = [rng.choice(TEXTS) + kind for kind in kinds]
    params = {"mass": random_float(rng), "levels": rng.randint(1, 9),
              "branch": rng.choice(TEXTS), "e_min": None}
    return columns, params, [list(row) for row in zip(*cols)]


class TestRenderer:
    def test_tables_equal_the_cell_by_cell_oracle(self):
        """The seeded tables with every all-float column handed over as a
        float64 array, as zones and density hand theirs, non-finite cells
        included: a column whose kind comes from its dtype prints as its
        list does."""
        rng = random.Random(20261018)
        for i in range(320):
            columns, params, rows = random_table(rng)
            table = [(name, [row[j] for row in rows]) for j, name in enumerate(columns)]
            table = [(name, np.array(cells, dtype=np.float64)
                      if all(type(c) is float for c in cells) else cells)
                     for name, cells in table]
            for fmt in ("csv", "json"):
                expected = oracles.render_reference("t", params, columns, rows, fmt)
                assert "".join(cli._blocks("t", params, table, fmt)) == expected, (
                    i, fmt, rows)

    @pytest.mark.parametrize("block", [1, 2, 7, 4096])
    def test_blocks_equal_the_cell_by_cell_oracle(self, monkeypatch, block):
        """The same seeded tables written block by block: the blocks join to
        the oracle's text whatever the block size."""
        monkeypatch.setattr(cli, "BLOCK", block)
        rng = random.Random(20261018)
        for i in range(320):
            columns, params, rows = random_table(rng)
            for fmt in ("csv", "json"):
                expected = oracles.render_reference("t", params, columns, rows, fmt)
                assert write_blocks(params, columns, rows, fmt) == expected, (
                    i, fmt, rows)

    @pytest.mark.parametrize("n_rows", [0, 1, 5, 6, 7])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_columns_that_change_between_blocks(self, monkeypatch, n_rows, fmt):
        """Blocks of 3 rows; 6 and 7 rows are 2*BLOCK and 2*BLOCK + 1. Each
        column is constant, non-finite or a signed zero in some blocks only.
        The table mixes the column shapes the commands hand to _blocks:
        lists, a float64 array, and a str and a float shared by every row."""
        monkeypatch.setattr(cli, "BLOCK", 3)
        nan, inf = math.nan, math.inf
        cols = {
            "float": [1.5, 1.5, 1.5, 2.0, 3.0, 1.5, 1.5],
            "int": [7, 7, 7, 8, 7, 7, 7],
            "bool": [True, True, True, False, True, True, True],
            "str": ["a", "a", "a", "b%", "a", "a", "a"],
            "nonfinite": [0.5, 0.25, 1.0, nan, inf, -inf, 2.0],
            "same_nan": [nan] * 3 + [1.0, 2.0, 3.0, 4.0],
            "inf_block": [1.0, 2.0, 3.0, inf, inf, inf, -inf],
            "zeros": [0.0, 0.0, 0.0, -0.0, -0.0, -0.0, 0.0],
            "mixed_zeros": [0.0, -0.0, 0.0, -0.0, 0.0, -0.0, -0.0],
            "array": np.array([0.5, 0.5, 0.5, -0.0, 1e308, nan, 5e-324]),
            "shared_str": "50% of %s",
            "shared_zero": -0.0,
        }
        table = [(name, cells if isinstance(cells, (str, float)) else cells[:n_rows])
                 for name, cells in cols.items()]
        # the rows the oracle renders: an array prints as its Python floats
        # and a shared value fills every row
        cells_by_column = [
            [cells] * n_rows if isinstance(cells, (str, float))
            else cells.tolist() if isinstance(cells, np.ndarray) else cells
            for _, cells in table]
        rows = [list(row) for row in zip(*cells_by_column)]
        params = {"levels": n_rows}
        expected = oracles.render_reference("t", params, list(cols), rows, fmt)
        assert "".join(cli._blocks("t", params, table, fmt)) == expected

    @pytest.mark.parametrize("cells", [
        [1.0, 2], [2, True], [0.5, "a"], [np.float64(0.5), np.float64(1.0)],
        np.array([1, 2]), np.array(["a", "b"], dtype=object),
    ], ids=["float-int", "int-bool", "float-str", "np.float64", "int-array",
            "object-array"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_a_column_of_no_one_cell_type_raises(self, cells, fmt):
        # a float64 array, a list of one cell type or a shared str or float
        # is a column; anything else raises before the first block
        table = [("x", [0.5, 1.5]), ("y", cells)]
        with pytest.raises(TypeError, match="^a table column needs cells of one type"):
            next(cli._blocks("t", {}, table, fmt))


GOLDEN = Path(__file__).resolve().parent / "golden"
GOLDEN_TABLES = [case for case in json.loads((GOLDEN / "MANIFEST.json").read_text())[
    "cases"] if case["exit_code"] == 0 and case["name"] != "verify"]


def recorded_renders(monkeypatch):
    """Blocks of 3 rows, with the rows and the text of each _render call."""
    monkeypatch.setattr(cli, "BLOCK", 3)
    render, calls = cli._render, []

    def recording(*args):
        calls.append((args[3], render(*args)))
        return calls[-1][1]

    monkeypatch.setattr(cli, "_render", recording)
    return calls


class TestRenderContract:
    """_render's fourth positional argument is the block's list of printed
    rows, one tuple each, which the per-layer row count of the benchmark
    reads with len()."""

    @pytest.mark.parametrize("case", GOLDEN_TABLES, ids=lambda c: c["name"])
    def test_each_block_hands_one_row_per_printed_row(self, capsys, monkeypatch,
                                                      case):
        """On one CPU each block is one call. On two, a table of more than
        one block hands this process the first ceil(rows / 2) rows of each
        block, and a forked child, whose calls are not recorded here, the
        rest."""
        calls = recorded_renders(monkeypatch)
        golden = (GOLDEN / (case["name"] + ".out")).read_text()
        if "json" in case["argv"]:
            n_rows = len(json.loads(golden)["rows"])
        else:
            n_rows = golden.count("\n") - 1
        blocks = [min(3, n_rows - a) for a in range(0, n_rows, 3)]
        for cpus, parts in ((1, blocks),
                            (2, blocks if len(blocks) < 2 else
                             [(rows + 1) // 2 for rows in blocks])):
            set_cpus(monkeypatch, cpus)
            calls.clear()
            code, out, _ = run_cli(case["argv"], capsys)
            assert code == 0
            assert out == golden
            if cpus == 1:
                assert "".join(text for _, text in calls) == out
            assert [len(rows) for rows, _ in calls] == parts
            for rows, _ in calls:
                assert type(rows) is list and all(type(r) is tuple for r in rows)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("case", GOLDEN_TABLES, ids=lambda c: c["name"])
    def test_each_column_is_laid_out_once_per_table(self, capsys, monkeypatch, case,
                                                    fmt):
        # in blocks of 3 rows, _column still sees each column once, whole
        monkeypatch.setattr(cli, "BLOCK", 3)
        blocks, column, tables, seen = cli._blocks, cli._column, [], []

        def recording_blocks(command, params, table, fmt):
            tables.append(list(table))
            return blocks(command, params, table, fmt)

        def recording_column(cells, as_json):
            seen.append(cells)
            return column(cells, as_json)

        monkeypatch.setattr(cli, "_blocks", recording_blocks)
        monkeypatch.setattr(cli, "_column", recording_column)
        code, out, _ = run_cli(case["argv"] + ["--format", fmt], capsys)
        assert code == 0 and out
        (table,) = tables
        assert len(seen) == len(table)
        assert all(got is cells for got, (_, cells) in zip(seen, table))


def count_forks(monkeypatch):
    """The os.fork calls made from here on, one entry each."""
    fork, forks = os.fork, []

    def counting_fork():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return forks


# zones tables in a fresh interpreter that sees two CPUs, one for each case
# named on the command line: "closed" to stdout, "full" to /dev/full, and
# "normal" and "raise" to a file of that name. After each, one stderr line
# gives the case, the exit code, the number of forks and whether a child is
# left unwaited; "raise" fails this process's second _render call.
NO_CHILD_LEFT_SCRIPT = r"""
import os, sys
from qdirac import cli
os.sched_getaffinity = lambda pid: {0, 1}
forks, fork = [], os.fork
def counting_fork():
    forks.append(os.getpid())
    return fork()
os.fork = counting_fork
render, parent, calls = cli._render, os.getpid(), []
def fail_second(*args):
    if os.getpid() == parent:
        calls.append(args)
        if len(calls) == 2:
            raise RuntimeError('render failed')
    return render(*args)
for case in sys.argv[1:]:
    argv = ['zones', '--e-step', '0.0005']  # 10,001 rows: three blocks
    if case != 'closed':
        argv += ['--output', '/dev/full' if case == 'full' else case]
    cli._render = fail_second if case == 'raise' else render
    forks.clear()
    code = cli.main(argv)
    try:
        os.waitpid(-1, os.WNOHANG)
        left = 'a child is left'
    except ChildProcessError:
        left = 'no child left'
    print(case, code, len(forks), left, file=sys.stderr)
"""


class TestForkedHalves:
    """On more than one CPU, a table of more than one block forks one child
    that renders the second half of every block; the bytes are the serial
    loop's, and no child outlives the table."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_forked_halves_equal_the_serial_loop(self, monkeypatch, fmt):
        # BLOCK + 1, 2*BLOCK, 2*BLOCK + 1 and 3*BLOCK + 1 rows: every odd
        # count ends in a block of one row, whose second half is empty
        monkeypatch.setattr(cli, "BLOCK", 4)
        forks = count_forks(monkeypatch)
        rng = random.Random(20261020)
        for n_rows in (5, 8, 9, 13):
            for i in range(3):
                columns, params, rows = random_table(rng, n_rows)
                table = [(name, [row[j] for row in rows])
                         for j, name in enumerate(columns)]
                table = [(name, np.array(cells, dtype=np.float64)
                          if all(type(c) is float for c in cells) else cells)
                         for name, cells in table]
                texts = []
                for cpus in (1, 2):
                    set_cpus(monkeypatch, cpus)
                    texts.append("".join(cli._blocks("t", params, table, fmt)))
                assert texts[0] == texts[1], (n_rows, i, rows)
                assert texts[0] == oracles.render_reference("t", params, columns,
                                                            rows, fmt)
        assert len(forks) == 4 * 3

    @pytest.mark.parametrize("argv", [
        # BLOCK + 1 and 2*BLOCK + 1 rows: the last block is one row
        ["density", "--v0", "0.7", "--w0-abs", "0.5", "--grid", "4097",
         "--format", "json"],
        ["zones", "--v0", "-0.3", "--w0-abs", "0.2", "--e-min", "1",
         "--e-max", "3", "--e-step", "0.000244140625"],
    ])
    def test_commands_print_the_serial_bytes(self, capsys, monkeypatch, argv):
        forks = count_forks(monkeypatch)
        outs = []
        for cpus in (1, 2):
            set_cpus(monkeypatch, cpus)
            outs.append(run_cli(argv, capsys))
        assert outs[0] == outs[1]
        code, out, _ = outs[0]
        assert code == 0 and out.count("\n") > cli.BLOCK
        assert len(forks) == 1

    @pytest.mark.parametrize("fail_at", [1, 2])
    def test_a_failing_child_leaves_the_bytes_unchanged(self, capsys, monkeypatch,
                                                        fail_at):
        """The child's render raises at its first or second half: the halves
        it did not send are rendered by this process, with no error."""
        monkeypatch.setattr(cli, "BLOCK", 3)
        argv = ZONES_ARGS[:-1] + ["0.25"]  # 9 rows: three blocks
        set_cpus(monkeypatch, 1)
        serial = run_cli(argv, capsys)
        render, parent, calls = cli._render, os.getpid(), []

        def fail_in_child(*args):
            if os.getpid() != parent:
                calls.append(args)
                if len(calls) == fail_at:
                    raise RuntimeError("child render failed")
            return render(*args)

        monkeypatch.setattr(cli, "_render", fail_in_child)
        set_cpus(monkeypatch, 2)
        forks = count_forks(monkeypatch)
        assert run_cli(argv, capsys) == serial
        assert serial[0] == 0 and serial[1].count("\n") == 10
        assert len(forks) == 1

    @pytest.mark.parametrize("call", ["pipe", "fork"])
    def test_no_child_to_be_had_renders_every_half_here(self, capsys, monkeypatch,
                                                        call):
        monkeypatch.setattr(cli, "BLOCK", 3)
        set_cpus(monkeypatch, 1)
        serial = run_cli(ZONES_ARGS, capsys)
        set_cpus(monkeypatch, 2)

        def refuse():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, call, refuse)
        fds = len(os.listdir("/proc/self/fd"))
        assert run_cli(ZONES_ARGS, capsys) == serial
        assert len(os.listdir("/proc/self/fd")) == fds

    def test_a_half_that_does_not_arrive_whole_is_none(self):
        half = "1,2\n" * 3
        data = half.encode()
        sent = len(data).to_bytes(8, "little") + data
        assert cli._receive(io.BytesIO(sent)) == half
        for cut in (0, 5, 8, len(sent) - 1):
            assert cli._receive(io.BytesIO(sent[:cut])) is None, cut

    def test_no_child_outlives_a_table(self, capsys, monkeypatch, tmp_path):
        """A whole table, a reader that closes stdout mid-table, --output
        /dev/full and a _render that raises here mid-table each fork one
        child and leave none behind."""
        full = os.path.exists("/dev/full")
        expected = {
            "normal": "normal 0 1 no child left\n",
            "full": "error: cannot write --output /dev/full: No space left on "
                    "device\nfull 2 1 no child left\n",
            "raise": "error: internal: RuntimeError: render failed\n"
                     "raise 4 1 no child left\n",
            "closed": "closed 0 1 no child left\n",
        }
        for cases in (["normal", "full", "raise"] if full else ["normal", "raise"],
                      ["closed"]):
            argv = [sys.executable, "-c", NO_CHILD_LEFT_SCRIPT, *cases]
            with subprocess.Popen(argv, env=src_env(), cwd=tmp_path,
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE) as proc:
                try:
                    if cases == ["closed"]:
                        # each half block is far more than a pipe buffer: the
                        # writer is still mid-table when the reader goes away
                        closed = proc.stdout.readline()
                        proc.stdout.close()
                    err = proc.communicate(timeout=120)[1].decode()
                finally:
                    proc.kill()  # a run that hangs fails the test, not the suite
            assert proc.returncode == 0
            assert err == "".join(expected[case] for case in cases)
        set_cpus(monkeypatch, 1)
        serial = run_cli(["zones", "--e-step", "0.0005"], capsys)[1].encode()
        assert (tmp_path / "normal").read_bytes() == serial
        assert closed == serial[:len(closed)] and closed.endswith(b"\n")
        # the first block whole: this process's second call, the first half
        # of the second block, raised while the child was sending more than
        # a pipe buffer of its second half
        assert (tmp_path / "raise").read_bytes() == b"".join(
            serial.splitlines(keepends=True)[:cli.BLOCK + 1])


def write_blocks(params, columns, rows, fmt):
    """The text of cli._blocks for a ready list of rows, one list column per
    name; a table of no rows keeps its columns."""
    table = [(name, [row[i] for row in rows]) for i, name in enumerate(columns)]
    return "".join(cli._blocks("t", params, table, fmt))
