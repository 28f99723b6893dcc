"""Tests of the benchmark's own checks: each checker accepts what qdirac
prints and rejects a corrupted copy of it.

    python3 -m pytest qbench
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from workloads import Task, run_task  # noqa: E402

# klein band [1, 1.22), evanescent window (1.22, 1.64), diffusion above
ZONES = ("zones", "--mass", "1", "--v0", "0.3", "--w0-abs", "1",
         "--e-min", "1", "--e-max", "4", "--e-step", "0.0009765625")
DENSITY = ("density", "--mass", "1", "--w0-abs", "0.5", "--w0-phase", "0.4",
           "--length", "1", "--levels", "2", "--level", "2", "--grid", "2001")
BAG = ("bag-spectrum", "--mass", "1", "--w0-abs", "0.5", "--w0-phase", "0.3",
       "--length", "1", "--levels", "5", "--branch", "plus")
NR = ("nr-spectrum", "--mass", "40", "--w0-abs", "0.5", "--length", "1",
      "--levels", "50")
SPECTRUM = dict(mass=1.0, v0=0.3, w_abs=0.3, w_phase=0.2, length=1.0, n_max=6,
                branch="minus")


def _cli(argv):
    out = run_task(Task(name=argv[0], kind="cli", argv=argv))
    assert out.code == 0
    return out.text


def _edit_csv(text, row, col, edit):
    lines = text.splitlines()
    cells = lines[row + 1].split(",")
    cells[col] = edit(cells[col])
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _scaled(factor):
    return lambda cell: "%.17g" % (float(cell) * factor)


@pytest.fixture(scope="module")
def zones_csv():
    return _cli(ZONES)


@pytest.fixture(scope="module")
def verify_text():
    return _cli(("verify",))


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_zones_output_passes_and_one_flipped_label_fails(fmt):
    argv = ZONES + ("--format", fmt)
    text = _cli(argv)
    assert checks.check_zones(argv, text) == []
    columns, rows = checks._table(text, fmt)
    row = next(i for i, r in enumerate(rows)
               if r[7] == "evanescent" and abs(float(r[0]) - 1.4) < 0.01)
    if fmt == "csv":
        bad = _edit_csv(text, row, 7, lambda cell: "klein")
    else:
        obj = json.loads(text)
        obj["rows"][row][7] = "klein"
        bad = json.dumps(obj)
    assert any("zone_minus" in p for p in checks.check_zones(argv, bad))


def test_zones_covers_all_three_minus_zones(zones_csv):
    labels = {line.split(",")[7] for line in zones_csv.splitlines()[1:]}
    assert labels == {"klein", "evanescent", "diffusion"}


def test_zones_rejects_a_momentum_off_by_1e9(zones_csv):
    bad = _edit_csv(zones_csv, 2000, 6, _scaled(1.0 + 1e-9))
    assert any("mom2_minus" in p for p in checks.check_zones(ZONES, bad))


def test_density_output_passes_and_scaled_density_fails():
    text = _cli(DENSITY)
    assert checks.check_density(DENSITY, text) == []
    lines = text.splitlines()
    rows = [[float(c) for c in line.split(",")] for line in lines[1:]]
    whole = "\n".join(
        [lines[0]] + [",".join("%.17g" % v for v in [r[0]] + [1.01 * x for x in r[1:]])
                      for r in rows]) + "\n"
    assert any("integrates" in p for p in checks.check_density(DENSITY, whole))
    one_part = _edit_csv(text, 700, 1, _scaled(1.01))
    assert any("rho = rho_c + rho_q" in p
               for p in checks.check_density(DENSITY, one_part))


def test_bag_spectrum_passes_and_energy_off_by_1e9_fails():
    text = _cli(BAG)
    assert checks.check_bag_spectrum(BAG, text) == []
    bad = _edit_csv(text, 3, 4, _scaled(1.0 + 1e-9))
    assert any("energy" in p for p in checks.check_bag_spectrum(BAG, bad))


def test_nr_spectrum_passes_and_energy_off_by_1e9_fails():
    text = _cli(NR)
    assert checks.check_nr_spectrum(NR, text) == []
    bad = _edit_csv(text, 10, 5, _scaled(1.0 + 1e-9))
    assert any("energy_minus" in p for p in checks.check_nr_spectrum(NR, bad))


@pytest.mark.parametrize("branch", ["minus", "plus"])
def test_inverted_levels_pass_and_energy_off_by_1e9_fails(branch):
    params = dict(SPECTRUM, branch=branch)
    levels, wfs = run_task(Task(name="t", kind="api", params=params)).value
    assert checks.check_spectrum(params, levels, wfs) == []
    bad = list(levels)
    bad[2] = dataclasses.replace(bad[2], energy=bad[2].energy * (1.0 + 1e-9))
    assert any("gives mom2" in p for p in checks.check_spectrum(params, bad, wfs))


def test_unnormalized_wavefunction_fails():
    params = dict(SPECTRUM, v0=0.0)
    levels, wfs = run_task(Task(name="t", kind="api", params=params)).value
    assert checks.check_spectrum(params, levels, wfs) == []
    bad = list(wfs)
    bad[4] = dataclasses.replace(bad[4], amplitude=bad[4].amplitude * 1.001)
    assert any("integrates" in p for p in checks.check_spectrum(params, levels, bad))


def test_verify_passes_and_one_false_assertion_fails(verify_text):
    assert checks.check_verify(0, verify_text) == []
    report = json.loads(verify_text)
    report["sections"]["complex_limit"]["passed"] = False
    problems = checks.check_verify(0, json.dumps(report))
    assert problems == ["verify: assertion section complex_limit failed"]
    report["sections"]["spectrum_values"]["e1_plus"] *= 1.0 + 1e-9
    assert any("e1_plus" in p for p in checks.check_verify(0, json.dumps(report)))
    assert checks.check_verify(1, verify_text) == ["verify exit code 1"]


def test_two_different_stdouts_for_one_task_fail():
    assert checks.check_repeats("zones-csv", ["ab", "ab", "ab"]) == []
    assert checks.check_repeats("zones-csv", ["ab", "ab", "ac"]) != []


def test_inputs_repeat_per_seed_and_vary_across_seeds():
    for name in workloads.WORKLOADS:
        assert workloads.build(name, 7) == workloads.build(name, 7)
    assert workloads.build("tables", 7) != workloads.build("tables", 8)
    assert workloads.build("spectrum", 7) != workloads.build("spectrum", 8)


def test_inverted_draws_keep_every_plus_level_above_the_mass_shell():
    for seed in range(500):
        for task in workloads.build("spectrum", seed):
            p = task.params
            q1 = math.pi / (2.0 * p["length"])
            floor = p["v0"] ** 2 + 2.0 * p["mass"] * abs(p["v0"]) + p["w_abs"] ** 2
            assert q1 * q1 >= 1.25 * floor * (1.0 - 1e-12)
            assert (p["v0"] != 0.0) == task.name.startswith("v0-")
