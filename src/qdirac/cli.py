"""Command-line interface.

Subcommands: zones (branch kinematics over an energy grid), bag-spectrum
(confined levels of one branch), density (spatial density of one confined
level, split into complex and quaternionic parts), nr-spectrum (the
non-relativistic limit levels), verify (the self-check report).

Output goes to stdout or --output as CSV (header line first, 17 significant
digits, comma separator) or as a single JSON object with stable key order.
Repeated runs with identical flags produce byte-identical output; nothing
here reads the clock, the locale, or the environment.

Exit codes: 0 success, 1 verification failure, 2 invalid arguments, 3 no
solution at these parameters (no level in the requested range, or mode
coefficients singular at a level's energy).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__, _kernels
from .bag import NoSolutionError, solve_spectrum, stationary_wavefunction
from .nonrel import nr_quantize
from .report import build_report, report_passed
from .step import PotentialStep, SingularCoefficientsError, Zone, evanescent_width

__all__ = ["main", "build_parser"]

# largest table (zones or density rows, --levels); checked before anything
# is allocated
MAX_ROWS = 10**6


class UsageError(ValueError):
    """Invalid flag combination caught after parsing."""


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return "%d" % value
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def _render(command: str, params: dict, columns: list, rows: list,
            fmt: str) -> str:
    if fmt == "json":
        obj = {
            "command": command,
            "params": params,
            "columns": columns,
            "rows": rows,
        }
        return json.dumps(obj, indent=2) + "\n"
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _pot_from_args(args) -> PotentialStep:
    return PotentialStep(v0=args.v0, w_abs=args.w0_abs, w_phase=args.w0_phase)


def _cmd_zones(args):
    if args.mass < 0:
        raise UsageError("mass must be >= 0")
    pot = _pot_from_args(args)
    e_min = args.mass if args.e_min is None else args.e_min
    e_max = (args.mass + 5.0) if args.e_max is None else args.e_max
    if e_min < args.mass:
        raise UsageError("e-min %g is below the mass shell %g" % (e_min, args.mass))
    if e_max < e_min:
        raise UsageError("e-max must be >= e-min")
    if args.e_step <= 0:
        raise UsageError("e-step must be > 0")
    span = (e_max - e_min) / args.e_step + 1e-9
    if not span < MAX_ROWS:
        raise UsageError(
            "--e-step %r over [%r, %r] gives more than %d rows"
            % (args.e_step, e_min, e_max, MAX_ROWS)
        )
    energies = e_min + np.arange(int(math.floor(span)) + 1) * args.e_step
    p2, q2p, q2m, delta, mom2p, mom2m = _kernels.branch_mom2_grid(
        energies, args.mass, pot.v0, pot.w_abs
    )
    codes = _kernels.zone_minus_grid(energies, args.mass, pot.v0, pot.w_abs, mom2m)
    labels = [zone.value for zone in Zone]
    zone_plus = Zone.DIFFUSION.value
    e_low, e_up, width = evanescent_width(args.mass, pot.v0, pot.w_abs)
    rows = [
        [e, a, b, c, d, f, g, labels[z], zone_plus, e_low, e_up, width]
        for e, a, b, c, d, f, g, z in zip(
            energies.tolist(), p2.tolist(), q2p.tolist(), q2m.tolist(),
            delta.tolist(), mom2p.tolist(), mom2m.tolist(), codes.tolist(),
        )
    ]
    params = {
        "mass": args.mass, "v0": pot.v0, "w0_abs": pot.w_abs,
        "w0_phase": pot.w_phase, "e_min": e_min, "e_max": e_max,
        "e_step": args.e_step,
    }
    columns = [
        "energy", "p2", "q2_plus", "q2_minus", "delta", "mom2_plus",
        "mom2_minus", "zone_minus", "zone_plus", "e_low", "e_up", "delta_e",
    ]
    return _render("zones", params, columns, rows, args.format), 0


def _cmd_bag_spectrum(args):
    pot = _pot_from_args(args)
    levels = solve_spectrum(args.mass, pot, args.length, args.levels, args.branch)
    rows = [
        [
            lvl.branch.value, lvl.index, lvl.momentum, lvl.eff_momentum,
            lvl.energy, lvl.phase, lvl.norm_const, lvl.regime_flag,
        ]
        for lvl in levels
    ]
    params = {
        "mass": args.mass, "v0": pot.v0, "w0_abs": pot.w_abs,
        "w0_phase": pot.w_phase, "length": args.length,
        "levels": args.levels, "branch": args.branch,
    }
    columns = [
        "branch", "index", "momentum", "eff_momentum", "energy", "phase",
        "norm_const", "regime_flag",
    ]
    return _render("bag-spectrum", params, columns, rows, args.format), 0


def _cmd_density(args):
    if args.level < 1 or args.level > args.levels:
        raise UsageError(
            "level %d outside the computed range 1..%d" % (args.level, args.levels)
        )
    if args.grid < 2:
        raise UsageError("grid must be >= 2 points")
    if args.grid > MAX_ROWS:
        raise UsageError("--grid %d is over the %d-row limit" % (args.grid, MAX_ROWS))
    pot = _pot_from_args(args)
    level = solve_spectrum(args.mass, pot, args.length, args.level, args.branch)[-1]
    wf = stationary_wavefunction(level, args.mass, pot, args.spin)
    z = np.linspace(0.0, wf.length, args.grid)
    rho_c, rho_q = wf.density_split(z)
    rows = np.column_stack([z, rho_c + rho_q, rho_c, rho_q]).tolist()
    params = {
        "mass": args.mass, "v0": pot.v0, "w0_abs": pot.w_abs,
        "w0_phase": pot.w_phase, "length": args.length,
        "levels": args.levels, "level": args.level, "branch": args.branch,
        "spin": args.spin, "grid": args.grid,
    }
    columns = ["z", "rho", "rho_complex_part", "rho_quaternionic_part"]
    return _render("density", params, columns, rows, args.format), 0


def _cmd_nr_spectrum(args):
    if args.w0_abs <= 0:
        raise UsageError("nr-spectrum needs w0-abs > 0 (the limit divides by it)")
    levels = nr_quantize(args.length, args.levels, args.mass, args.w0_abs)
    rows = [
        [
            lvl.index, lvl.momentum, lvl.eff_plus, lvl.eff_minus,
            lvl.energy_plus, lvl.energy_minus, lvl.regime_flag,
        ]
        for lvl in levels
    ]
    params = {
        "mass": args.mass, "w0_abs": args.w0_abs, "length": args.length,
        "levels": args.levels,
    }
    columns = [
        "index", "momentum", "eff_plus", "eff_minus", "energy_plus",
        "energy_minus", "regime_flag",
    ]
    return _render("nr-spectrum", params, columns, rows, args.format), 0


def _cmd_verify(args):
    report = build_report()
    text = json.dumps(report, indent=2) + "\n"
    return text, (0 if report_passed(report) else 1)


def _add_pot_flags(p, v0=True, phase=True):
    p.add_argument("--mass", type=float, default=1.0, help="rest mass (default 1)")
    if v0:
        p.add_argument("--v0", type=float, default=0.0,
                       help="electrostatic-like strength (default 0)")
    p.add_argument("--w0-abs", type=float, default=0.0,
                   help="magnitude of the pure-quaternionic part (default 0)")
    if phase:
        p.add_argument("--w0-phase", type=float, default=0.0,
                       help="phase of the pure-quaternionic part (default 0)")


def _add_output_flags(p, formats=True):
    if formats:
        p.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="table format (default csv)")
    p.add_argument("--output", default=None,
                   help="write to this file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdirac",
        description="Quaternionic Dirac step and bound-state tables.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("zones", help="branch kinematics over an energy grid")
    _add_pot_flags(p)
    p.add_argument("--e-min", type=float, default=None,
                   help="grid start (default: the mass)")
    p.add_argument("--e-max", type=float, default=None,
                   help="grid end (default: mass + 5)")
    p.add_argument("--e-step", type=float, default=0.01,
                   help="grid spacing (default 0.01)")
    _add_output_flags(p)
    p.set_defaults(func=_cmd_zones)

    p = sub.add_parser("bag-spectrum", help="confined levels of one branch")
    _add_pot_flags(p)
    p.add_argument("--length", type=float, default=1.0, help="well width (default 1)")
    p.add_argument("--levels", type=int, default=5,
                   help="number of levels (default 5)")
    p.add_argument("--branch", choices=("minus", "plus"), default="minus")
    _add_output_flags(p)
    p.set_defaults(func=_cmd_bag_spectrum)

    p = sub.add_parser("density", help="density profile of one confined level")
    _add_pot_flags(p)
    p.add_argument("--length", type=float, default=1.0, help="well width (default 1)")
    p.add_argument("--levels", type=int, default=5,
                   help="number of levels to solve (default 5)")
    p.add_argument("--level", type=int, default=1,
                   help="which level to sample, 1-based (default 1)")
    p.add_argument("--branch", choices=("minus", "plus"), default="minus")
    p.add_argument("--spin", choices=("up", "down"), default="up")
    p.add_argument("--grid", type=int, default=201,
                   help="sample points across the well (default 201)")
    _add_output_flags(p)
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("nr-spectrum", help="non-relativistic limit levels")
    _add_pot_flags(p, v0=False, phase=False)
    p.add_argument("--length", type=float, default=1.0, help="well width (default 1)")
    p.add_argument("--levels", type=int, default=5,
                   help="number of levels (default 5)")
    _add_output_flags(p)
    p.set_defaults(func=_cmd_nr_spectrum)

    p = sub.add_parser("verify", help="run the self-check report (JSON)")
    _add_output_flags(p, formats=False)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # flags that several subcommands share are checked once, here
        for name in ("mass", "length", "e_min", "e_max", "e_step"):
            value = getattr(args, name, None)
            if value is not None and not math.isfinite(value):
                flag = "--" + name.replace("_", "-")
                raise UsageError("%s must be finite, got %r" % (flag, value))
        levels = getattr(args, "levels", 1)
        if levels < 1:
            raise UsageError("levels must be >= 1")
        if levels > MAX_ROWS:
            raise UsageError(
                "--levels %d is over the %d-row limit" % (levels, MAX_ROWS))
        text, code = args.func(args)
    except (NoSolutionError, SingularCoefficientsError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    except (UsageError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    if args.output is None:
        sys.stdout.write(text)
    else:
        with open(args.output, "w", newline="") as fh:
            fh.write(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
