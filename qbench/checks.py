"""Checks of every task output against computations made apart from qdirac.

Each checker returns a list of problems (empty when the output is right).
Nothing here compares against a stored copy of earlier output: the expected
values come from the dispersion relation, the closed-form zone edges and
energies, an independent quadrature, or properties the method must have.

    dispersion   mom2_pm = E^2 + v0^2 - m^2 + w^2 +- 2*sqrt(E^2 v0^2 + p^2 w^2)
    zone edges   E_up = hypot(w, m+|v0|), E_low = max(m, hypot(w, m-|v0|))
    v0 = 0       E_n = hypot(Q_n +- w, m),  Q_n = n*pi/(2L) in the well
    nr limit     E_n = hypot(n*pi/L -+ w, m)
"""

from __future__ import annotations

import json
import math

import numpy as np

ZONES_COLUMNS = ["energy", "p2", "q2_plus", "q2_minus", "delta", "mom2_plus",
                 "mom2_minus", "zone_minus", "zone_plus", "e_low", "e_up",
                 "delta_e"]
DENSITY_COLUMNS = ["z", "rho", "rho_complex_part", "rho_quaternionic_part"]
BAG_COLUMNS = ["branch", "index", "momentum", "eff_momentum", "energy", "phase",
               "norm_const", "regime_flag"]
NR_COLUMNS = ["index", "momentum", "eff_plus", "eff_minus", "energy_plus",
              "energy_minus", "regime_flag"]

# relative tolerances; each sits orders of magnitude above the rounding of a
# correct result and below the smallest corruption the tests inject (1e-9)
CLOSED_FORM_RTOL = 1e-13
DISPERSION_RTOL = 1e-12
INVERSION_RTOL = 1e-10
NORM_TOL = 1e-9
# zone labels are compared only this far (relative) from a window edge
EDGE_MARGIN = 1e-9

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)


def options(argv) -> dict:
    """`--flag value` pairs of a qdirac argv, after the subcommand."""
    argv = list(argv)
    return dict(zip(argv[1::2], argv[2::2]))


def _table(text: str, fmt: str):
    """(columns, rows) of a CSV or JSON table; CSV cells stay strings."""
    if fmt == "json":
        obj = json.loads(text)
        return obj["columns"], obj["rows"]
    lines = text.splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _first_bad(label: str, bad) -> list:
    idx = np.flatnonzero(bad)
    if len(idx) == 0:
        return []
    return ["%s wrong on %d rows, first at row %d" % (label, len(idx), idx[0])]


def dispersion(energy, mass, v0, w_abs):
    """(p2, q2_plus, q2_minus, delta, mom2_plus, mom2_minus) from the
    even-in-v0 form of the dispersion relation."""
    e = np.asarray(energy, dtype=float)
    p2 = e * e - mass * mass
    root = np.sqrt(e * e * v0 * v0 + p2 * w_abs * w_abs)
    base = e * e + v0 * v0 - mass * mass + w_abs * w_abs
    return (p2, (e + v0) ** 2 - mass * mass, (e - v0) ** 2 - mass * mass,
            root - e * v0, base + 2.0 * root, base - 2.0 * root)


def window_edges(mass, v0, w_abs):
    a = abs(v0)
    return max(mass, math.hypot(w_abs, mass - a)), math.hypot(w_abs, mass + a)


def check_zones(argv, text: str) -> list:
    opt = options(argv)
    mass, v0, w_abs = float(opt["--mass"]), float(opt["--v0"]), float(opt["--w0-abs"])
    e_min, e_max, e_step = (float(opt[k]) for k in ("--e-min", "--e-max", "--e-step"))
    columns, rows = _table(text, opt.get("--format", "csv"))
    if columns != ZONES_COLUMNS:
        return ["zones columns %r" % (columns,)]
    n = int(round((e_max - e_min) / e_step)) + 1
    if len(rows) != n:
        return ["zones has %d rows, expected %d" % (len(rows), n)]
    num = np.array([[float(r[i]) for i in (0, 1, 2, 3, 4, 5, 6, 9, 10, 11)]
                    for r in rows])
    zone_minus = np.array([r[7] for r in rows])
    zone_plus = np.array([r[8] for r in rows])
    e = num[:, 0]
    grid = e_min + np.arange(n) * e_step
    problems = _first_bad("energy grid", ~(np.abs(e - grid) <= 1e-12 * grid))
    expected = dispersion(e, mass, v0, w_abs)
    scale = e * e + v0 * v0 + mass * mass + w_abs * w_abs
    for k, name in enumerate(ZONES_COLUMNS[1:7], start=1):
        problems += _first_bad(
            name, ~(np.abs(num[:, k] - expected[k - 1]) <= DISPERSION_RTOL * scale))
    e_low, e_up = window_edges(mass, v0, w_abs)
    for k, want in ((7, e_low), (8, e_up), (9, e_up - e_low)):
        problems += _first_bad(ZONES_COLUMNS[k + 2],
                               ~(np.abs(num[:, k] - want) <= CLOSED_FORM_RTOL * e_up))
    off = ((np.abs(e - e_low) > EDGE_MARGIN * e)
           & (np.abs(e - e_up) > EDGE_MARGIN * e))
    want_minus = np.where(e > e_up, "diffusion",
                          np.where(e > e_low, "evanescent", "klein"))
    problems += _first_bad("zone_minus", off & (zone_minus != want_minus))
    mom2_minus = expected[5]
    signed = off & (np.abs(mom2_minus) > DISPERSION_RTOL * scale)
    problems += _first_bad(
        "zone_minus == evanescent iff mom2_minus < 0",
        signed & ((zone_minus == "evanescent") != (mom2_minus < 0)))
    problems += _first_bad("zone_plus", zone_plus != "diffusion")
    return problems


def simpson(y, h: float) -> float:
    """Composite Simpson rule on an odd number of equally spaced samples."""
    return h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum())


def check_density(argv, text: str) -> list:
    opt = options(argv)
    length, grid = float(opt["--length"]), int(opt["--grid"])
    columns, rows = _table(text, opt.get("--format", "csv"))
    if columns != DENSITY_COLUMNS:
        return ["density columns %r" % (columns,)]
    if len(rows) != grid:
        return ["density has %d rows, expected %d" % (len(rows), grid)]
    z, rho, rho_c, rho_q = np.array(rows, dtype=float).T
    problems = _first_bad(
        "z grid", ~(np.abs(z - np.linspace(0.0, length, grid)) <= 1e-14 * length))
    problems += _first_bad("rho = rho_c + rho_q",
                           ~(np.abs(rho - (rho_c + rho_q)) <= 4e-16 * rho))
    problems += _first_bad("nonnegative density",
                           ~((rho >= 0) & (rho_c >= 0) & (rho_q >= 0)))
    if grid % 2 == 1:
        total = simpson(rho, length / (grid - 1))
        if not abs(total - 1.0) <= NORM_TOL:
            problems.append("density integrates to %.17g by Simpson, not 1" % total)
    return problems


def _level_problems(label, mass, v0, w_abs, length, branch, index, momentum,
                    eff, energy, phase, norm_const, regime) -> list:
    q_n = index * math.pi / (2.0 * length)
    shifted = q_n + w_abs if branch == "minus" else q_n - w_abs
    out = []
    if not abs(momentum - q_n) <= CLOSED_FORM_RTOL * q_n:
        out.append("%s momentum %r, expected n*pi/(2L) = %r" % (label, momentum, q_n))
    if not abs(eff - shifted) <= CLOSED_FORM_RTOL * q_n:
        out.append("%s eff_momentum %r, expected %r" % (label, eff, shifted))
    if v0 == 0.0:
        want = math.hypot(shifted, mass)
        if not abs(energy - want) <= CLOSED_FORM_RTOL * want:
            out.append("%s energy %r, closed form %r" % (label, energy, want))
    else:
        mom2 = dispersion(energy, mass, v0, w_abs)[5 if branch == "minus" else 4]
        if not abs(mom2 - q_n * q_n) <= INVERSION_RTOL * energy * energy:
            out.append("%s energy %r gives mom2 %r, not Q_n^2 = %r"
                       % (label, energy, float(mom2), q_n * q_n))
    if not 0.0 < phase < 2.0 * math.pi:
        out.append("%s phase %r outside (0, 2pi)" % (label, phase))
    if not (math.isfinite(norm_const) and norm_const > 0.0):
        out.append("%s norm_const %r" % (label, norm_const))
    if regime != (branch == "plus" and q_n < w_abs):
        out.append("%s regime_flag %r" % (label, regime))
    return out


def _rising(label, energies) -> list:
    if all(a < b for a, b in zip(energies, energies[1:])):
        return []
    return ["%s energies do not rise with n" % label]


def check_bag_spectrum(argv, text: str) -> list:
    opt = options(argv)
    mass, w_abs, length = (float(opt[k]) for k in ("--mass", "--w0-abs", "--length"))
    v0 = float(opt.get("--v0", "0"))
    branch, levels = opt["--branch"], int(opt["--levels"])
    columns, rows = _table(text, opt.get("--format", "csv"))
    if columns != BAG_COLUMNS:
        return ["bag-spectrum columns %r" % (columns,)]
    if len(rows) != levels:
        return ["bag-spectrum has %d rows, expected %d" % (len(rows), levels)]
    problems = []
    for n, row in enumerate(rows, start=1):
        if row[0] != branch or int(row[1]) != n:
            problems.append("bag-spectrum row %d labelled %s %s" % (n, row[0], row[1]))
            continue
        problems += _level_problems(
            "level %d" % n, mass, v0, w_abs, length, branch, n,
            *(float(x) for x in row[2:7]), row[7] == "true")
    return problems + _rising("bag-spectrum", [float(r[4]) for r in rows])


def check_nr_spectrum(argv, text: str) -> list:
    opt = options(argv)
    mass, w_abs, length = (float(opt[k]) for k in ("--mass", "--w0-abs", "--length"))
    columns, rows = _table(text, opt.get("--format", "csv"))
    if columns != NR_COLUMNS:
        return ["nr-spectrum columns %r" % (columns,)]
    if len(rows) != int(opt["--levels"]):
        return ["nr-spectrum has %d rows" % len(rows)]
    num = np.array([r[:6] for r in rows], dtype=float)
    n = np.arange(1, len(rows) + 1)
    q_n = n * math.pi / length
    want = [n, q_n, q_n - w_abs, q_n + w_abs, np.hypot(q_n - w_abs, mass),
            np.hypot(q_n + w_abs, mass)]
    problems = []
    for k, name in enumerate(NR_COLUMNS[:6]):
        problems += _first_bad(
            name, ~(np.abs(num[:, k] - want[k]) <= CLOSED_FORM_RTOL * q_n))
    flags = np.array([r[6] == "true" for r in rows])
    problems += _first_bad("regime_flag", flags != (q_n - w_abs <= w_abs))
    return problems


def gauss_legendre(f, a: float, b: float, panels: int) -> float:
    """Composite 12-point Gauss-Legendre rule for a scalar function."""
    edges = np.linspace(a, b, panels + 1)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
        total += half * sum(wt * f(float(mid + half * x))
                            for x, wt in zip(_GL_NODES, _GL_WEIGHTS))
    return total


def check_spectrum(params: dict, levels, wfs) -> list:
    """Levels and wavefunctions of one solve_spectrum call. Each density is
    integrated by a composite Gauss-Legendre rule with one panel per half
    period of the level's standing wave."""
    p = params
    if len(levels) != p["n_max"] or len(wfs) != p["n_max"]:
        return ["%d levels for n_max %d" % (len(levels), p["n_max"])]
    problems = []
    for n, (lvl, wf) in enumerate(zip(levels, wfs), start=1):
        label = "level %d" % n
        if lvl.branch.value != p["branch"] or lvl.index != n:
            problems.append("%s labelled %s %s" % (label, lvl.branch.value, lvl.index))
            continue
        problems += _level_problems(
            label, p["mass"], p["v0"], p["w_abs"], p["length"], p["branch"], n,
            lvl.momentum, lvl.eff_momentum, lvl.energy, lvl.phase,
            lvl.norm_const, bool(lvl.regime_flag))
        total = gauss_legendre(wf.density, 0.0, p["length"], n + 2)
        if not abs(total - 1.0) <= NORM_TOL:
            problems.append("%s density integrates to %.17g" % (label, total))
    return problems + _rising("spectrum", [lvl.energy for lvl in levels])


def check_verify(code: int, text: str) -> list:
    problems = [] if code == 0 else ["verify exit code %d" % code]
    report = json.loads(text)
    if report.get("all_assertions_passed") is not True:
        problems.append("verify: all_assertions_passed is not true")
    for name, section in report["sections"].items():
        if section.get("kind") == "assert" and section.get("passed") is not True:
            problems.append("verify: assertion section %s failed" % name)
    values = report["sections"]["spectrum_values"]
    for key, shift in (("e1_minus", 0.5), ("e1_plus", -0.5)):
        want = math.hypot(math.pi / 2.0 + shift, 1.0)
        if not abs(values[key] - want) <= CLOSED_FORM_RTOL * want:
            problems.append("verify: %s %r, closed form %r" % (key, values[key], want))
    return problems


def check_repeats(name: str, digests) -> list:
    """Every run of one task must print the same bytes."""
    distinct = sorted(set(digests))
    if len(distinct) <= 1:
        return []
    return ["%s: %d different stdouts over %d runs"
            % (name, len(distinct), len(digests))]


_CLI_CHECKERS = {
    "zones": check_zones,
    "density": check_density,
    "bag-spectrum": check_bag_spectrum,
    "nr-spectrum": check_nr_spectrum,
}


def check_outcome(task, outcome) -> list:
    """Dispatch one task's first successful outcome to its checker."""
    if task.kind == "api":
        return check_spectrum(task.params, *outcome.value)
    if task.argv[0] == "verify":
        return check_verify(outcome.code, outcome.text)
    return _CLI_CHECKERS[task.argv[0]](task.argv, outcome.text)
