"""Command-line interface.

Subcommands: zones (branch kinematics over an energy grid), bag-spectrum
(confined levels of one branch), density (spatial density of one confined
level, split into complex and quaternionic parts), nr-spectrum (the
non-relativistic limit levels), verify (the self-check report).

Output goes to stdout or --output as CSV (header line first, comma
separator, floats by %.17g) or as a single JSON object with stable key order
(floats by repr; non-finite floats are NaN/Infinity, as json writes them).
Both are rendered column by column through one %-template per table.
Repeated runs with identical flags produce byte-identical output; nothing
here reads the clock, the locale, or the environment.

numpy is imported by the array commands (zones, density, verify) when they
run, not with this module, so --version, bag-spectrum, nr-spectrum and the
usage errors never load it.

Exit codes: 0 success, 1 verification failure, 2 invalid arguments, 3 no
solution at these parameters (no level in the requested range, or mode
coefficients singular at a level's energy).
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys

from . import __version__, _kernels
from .bag import NoSolutionError, solve_spectrum, stationary_wavefunction
from .nonrel import nr_quantize
from .report import build_report, report_passed
from .step import (_MATH, PotentialStep, SingularCoefficientsError, Zone,
                   _zone_minus, branch_mom2, evanescent_width)

__all__ = ["main", "build_parser"]

# largest table (zones or density rows, --levels); checked before anything
# is allocated
MAX_ROWS = 10**6


class UsageError(ValueError):
    """Invalid flag combination caught after parsing."""


_BOOL_TEXT = {True: "true", False: "false"}


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return _BOOL_TEXT[value]
    if isinstance(value, int):
        return "%d" % value
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def _column(cells: tuple, as_json: bool):
    """One column's piece of the row template and the values it takes.

    The piece follows the exact type of the cells; values is None when the
    column has one distinct value, which is then literal text. A column of
    any other type, or of mixed types, goes through the per-cell encoder
    (json.dumps or _csv_cell) and takes "%s".
    """
    encode = json.dumps if as_json else _csv_cell
    kinds = set(map(type, cells))
    kind = kinds.pop() if len(kinds) == 1 else None
    first = cells[0]
    # equal cells of one type print alike, except floats 0.0 and -0.0
    if kind in (float, int, bool, str) and cells.count(first) == len(cells) and (
            first != 0.0 or len(set(map(repr, cells))) == 1):
        return encode(first).replace("%", "%%"), None
    if kind is float:
        if not as_json:
            return "%.17g", cells
        # any nan or inf cell makes the sum non-finite; json spells those
        if math.isfinite(sum(cells)):
            return "%r", cells
    elif kind is int:
        return "%d", cells
    elif kind is bool:
        return "%s", list(map(_BOOL_TEXT.__getitem__, cells))
    elif kind is str:
        if not as_json:
            return "%s", cells
        text = {s: json.dumps(s) for s in set(cells)}
        return "%s", list(map(text.__getitem__, cells))
    return "%s", list(map(encode, cells))


def _render(command: str, params: dict, columns: list, rows: list,
            fmt: str) -> str:
    """The table as CSV or JSON text, built column by column.

    Each column contributes one piece (see _column) to a single %-template,
    and every row is that template applied to its values.
    """
    as_json = fmt == "json"
    pieces, values = [], []
    for cells in zip(*rows):
        piece, col = _column(cells, as_json)
        pieces.append(piece)
        if col is not None:
            values.append(col)
    body = zip(*values) if values else itertools.repeat((), len(rows))
    if not as_json:
        return "\n".join([",".join(columns),
                          *map(",".join(pieces).__mod__, body)]) + "\n"
    # rows is the last key, so the head ends in its empty list "[]\n}"
    head = json.dumps({"command": command, "params": params,
                       "columns": columns, "rows": []}, indent=2)[:-4]
    if not rows:
        return head + "[]\n}\n"
    template = "    [\n      " + ",\n      ".join(pieces) + "\n    ]"
    return head + "[\n" + ",\n".join(map(template.__mod__, body)) + "\n  ]\n}\n"


def _params(args) -> dict:
    """The flags that describe a table, in the parser's order."""
    return {k: v for k, v in vars(args).items()
            if k not in ("command", "func", "format", "output")}


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
    n = int(math.floor(span))
    # every term of branch_mom2 is largest in size at one end of the grid,
    # so finite ends mean a finite table
    for e in (e_min, e_min + n * args.e_step):
        if not all(map(math.isfinite,
                       branch_mom2(e, args.mass, pot.v0, pot.w_abs, _MATH))):
            raise UsageError("branch momenta at energy %r overflow float64" % e)
    import numpy as np

    energies = e_min + np.arange(n + 1) * args.e_step
    grid = _kernels.branch_mom2_grid(energies, args.mass, pot.v0, pot.w_abs)
    codes = _zone_minus(energies, args.mass, pot.v0, pot.w_abs, grid[-1], np)
    labels = [zone.value for zone in Zone]
    constants = (Zone.DIFFUSION.value, *evanescent_width(args.mass, pot.v0, pot.w_abs))
    rows = list(zip(
        energies.tolist(), *(col.tolist() for col in grid),
        map(labels.__getitem__, codes.tolist()),
        *map(itertools.repeat, constants),
    ))
    params = _params(args)
    params.update(e_min=e_min, e_max=e_max)
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
    columns = [
        "branch", "index", "momentum", "eff_momentum", "energy", "phase",
        "norm_const", "regime_flag",
    ]
    return _render("bag-spectrum", _params(args), columns, rows, args.format), 0


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
    import numpy as np

    z = np.linspace(0.0, wf.length, args.grid)
    rho_c, rho_q = wf.density_split(z)
    rows = list(zip(z.tolist(), (rho_c + rho_q).tolist(), rho_c.tolist(),
                    rho_q.tolist()))
    columns = ["z", "rho", "rho_complex_part", "rho_quaternionic_part"]
    return _render("density", _params(args), columns, rows, args.format), 0


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
    columns = [
        "index", "momentum", "eff_plus", "eff_minus", "energy_plus",
        "energy_minus", "regime_flag",
    ]
    return _render("nr-spectrum", _params(args), columns, rows, args.format), 0


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
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    if args.output is None:
        sys.stdout.write(text)
        return code
    try:
        with open(args.output, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        print("error: cannot write --output %s: %s" % (args.output, exc.strerror),
              file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    raise SystemExit(main())
