"""CLI contract: headers, cell formatting, exit codes, byte-identical reruns."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qdirac import (
    PotentialStep,
    classify_zone,
    evanescent_width,
    kinematics,
    nr_quantize,
    solve_spectrum,
)
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

    def test_table_size_is_bounded_before_allocating(self, capsys, monkeypatch):
        # the check runs before the grid exists, so refusing a count just
        # over the bound allocates nothing
        from qdirac import cli

        def no_grid(*args, **kwargs):
            raise AssertionError("grid allocated before the size check")

        monkeypatch.setattr(cli.np, "arange", no_grid)
        monkeypatch.setattr(cli, "solve_spectrum", no_grid)
        monkeypatch.setattr(cli, "nr_quantize", no_grid)
        over = str(cli.MAX_ROWS + 1)
        for argv, flag in (
            (["zones", "--e-step", "5e-324"], "--e-step"),
            (["zones", "--e-min", "1", "--e-max", over, "--e-step", "1"], "--e-step"),
            (["density", "--w0-abs", "0.5", "--grid", over], "--grid"),
            (["bag-spectrum", "--w0-abs", "0.5", "--levels", over], "--levels"),
            (["density", "--w0-abs", "0.5", "--levels", over], "--levels"),
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
        for argv, rows in ((["bag-spectrum"], 3), (["nr-spectrum"], 3),
                           (["density", "--grid", "3"], 3)):
            argv = argv + ["--w0-abs", "0.5"]
            code, out, _ = run_cli(argv + ["--levels", "3"], capsys)
            assert code == 0 and len(out.splitlines()) == 1 + rows, argv
            code, _, err = run_cli(argv + ["--levels", "4"], capsys)
            assert code == 2 and err.startswith("error: --levels"), argv

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize(
        "command,flag",
        [("bag-spectrum", "--mass"), ("density", "--length"),
         ("nr-spectrum", "--length"), ("zones", "--e-min"), ("zones", "--e-max"),
         ("zones", "--e-step")],
    )
    def test_non_finite_flags_name_the_flag(self, capsys, command, flag, value):
        code, out, err = run_cli([command, "--w0-abs", "0.5", flag + "=" + value], capsys)
        assert code == 2 and out == ""
        assert err == "error: %s must be finite, got %s\n" % (flag, value)

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

    def test_version_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.strip().count(".") == 2


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
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, str(script)], env=env,
                              capture_output=True, text=True, check=True)
        assert json.loads(proc.stdout) == {
            "scipy_loaded": False, "verify": 0, "bag-spectrum": 0, "density": 0,
        }


class TestOutputStability:
    def test_output_file_equals_stdout(self, capsys, tmp_path):
        code, out, _ = run_cli(ZONES_ARGS, capsys)
        assert code == 0
        target = tmp_path / "zones.csv"
        code2, out2, _ = run_cli(ZONES_ARGS + ["--output", str(target)], capsys)
        assert code2 == 0 and out2 == ""
        assert target.read_bytes().decode() == out

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
