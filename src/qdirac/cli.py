"""Command-line interface.

Subcommands: zones (branch kinematics over an energy grid), bag-spectrum
(confined levels of one branch), density (spatial density of one confined
level, split into complex and quaternionic parts), nr-spectrum (the
non-relativistic limit levels), verify (the self-check report). Flags and
subcommands are declared once: each flag in _FLAGS, and each subcommand in
_COMMANDS with its help, its handler and its flags, whose order fixes the
key order of a JSON table's params.

Output goes to stdout or --output as CSV (header line first, comma
separator, floats by %.17g) or as a single JSON object with stable key order
(floats by repr; non-finite floats are NaN/Infinity, as json writes them).
Each table command states its table once, as ordered (name, cells) pairs:
numpy arrays for zones and density, lists read off the level objects for
the spectra, and a str or float for a value every row shares (zones'
zone_plus and width columns, bag-spectrum's branch). _blocks lays a table
out once: _column reads each whole column once for its piece of one
%-template and the per-cell map its cells need (a float array by its dtype,
a list by one scan of its types), and _blocks builds the row template, the
CSV header or JSON head, the separator and the tail. It alone cuts the
table into blocks of BLOCK (4096) rows: a block only slices, maps and zips
the columns that are not shared into its printed rows, and _render joins
them into text, so memory does not grow with the row count. One loop
writes the blocks. Where os.fork exists, the process may run on more than
one CPU and the table spans more than one block, each block splits at its
midpoint: once the layout is fixed, one forked child renders the second
half of every block while this process renders the first, and sends each
half back on a pipe, and this process writes each block as its half
followed by the child's. Otherwise no block splits and this process
renders each whole. Either way the bytes are the same and memory holds one
block at a time. The child writes no output: a half that does not arrive
is rendered here, so every error and exit code comes from this process,
and the child is waited for on every path. Every check runs before the first
block is written; a write error mid-table leaves the blocks already
written. Repeated runs with identical flags produce byte-identical output;
nothing here reads the clock, the locale, or the environment.

Each command imports only the modules it runs. This module imports bag,
dirac and step; the handler that needs one of the rest imports it when it
runs: numpy in the array commands (zones, density, verify), _kernels in
zones, nonrel in nr-spectrum and report in verify. So --version,
bag-spectrum and the usage errors load none of numpy, _kernels, nonrel or
report.

Exit codes, by the exception behind each: 0 success, 1 verification
failure, 2 an InputError (an invalid argument, or a value derived from the
arguments that leaves float64 range) or an output that cannot be written
(OSError), 3 a NoSolutionError or SingularCoefficientsError (no level in
the requested range, or mode coefficients singular at a level's energy),
4 any other exception, a bare ValueError included: an internal error,
printed as `error: internal: <Type>: <message>`. A reader that closes
stdout early (`| head`) ends the run quietly with its usual code.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import re
import sys
import warnings

from . import __version__
from .bag import solve_spectrum, stationary_wavefunction
from .dirac import (InputError, NoSolutionError, SingularCoefficientsError,
                    _require_finite, _require_mass)
from .step import PotentialStep, Zone, _branch_mom2_in_range, _zone_minus, evanescent_width

__all__ = ["main", "build_parser"]

# largest table (zones or density rows) and most levels solved (--levels, or
# density's --level); checked before anything is allocated
MAX_ROWS = 10**6
# rows per written block: only one block's row tuples and text exist at once
BLOCK = 4096


_BOOL_TEXT = {True: "true", False: "false"}


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return _BOOL_TEXT[value]
    if isinstance(value, int):
        return "%d" % value
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def _column(cells, as_json: bool):
    """One column's piece of the row template and the per-cell map, None
    where the cells are the values as they are.

    cells is the whole column: a numpy array, a list, or the str or float
    that every row shares, whose piece is literal text. A float array takes
    its kind from its dtype; a list or any other array is scanned for the
    types of its cells once. A column of any other type, or of mixed types,
    goes through the per-cell encoder (json.dumps or _csv_cell) and takes
    "%s".
    """
    encode = json.dumps if as_json else _csv_cell
    if isinstance(cells, (str, float)):
        return encode(cells).replace("%", "%%"), None
    if isinstance(cells, list) or cells.dtype.kind != "f":
        kinds = set(map(type, cells))
        kind = kinds.pop() if len(kinds) == 1 else None
        # json spells nan and inf its own way; any of them makes the sum
        # non-finite
        finite = kind is float and as_json and math.isfinite(sum(cells))
    else:
        import numpy as np

        kind, finite = float, as_json and np.isfinite(cells).all()
    if kind is float and not as_json:
        return "%.17g", None
    if kind is float:
        return ("%r", None) if finite else ("%s", encode)
    if kind is int:
        return "%d", None
    if kind is bool:
        return "%s", _BOOL_TEXT.__getitem__
    if kind is str and as_json:
        return "%s", {s: json.dumps(s) for s in set(cells)}.__getitem__
    return "%s", None if kind is str else encode


def _render(head: str, template: str, sep: str, rows: list, tail: str) -> str:
    """One block's text: head, the row template applied to each of rows (one
    tuple per printed row) joined by sep, and tail."""
    return head + sep.join(map(template.__mod__, rows)) + tail


def _blocks(command: str, params: dict, table, fmt: str):
    """The table's text, one block of BLOCK rows at a time.

    table is an ordered sequence of (name, cells) pairs. cells is a numpy
    array, a list, or a str or float that every row shares; the first
    column that is not shared gives the row count. The layout is decided
    once per table: _column gives each column's piece and map, and the row
    template, the CSV header or JSON head, the separator and the tail are
    built here. A block only slices, maps and zips the columns that are not
    shared into its rows; the first block carries the head, the later ones
    the separator, and the last one the tail.

    One loop yields the blocks. A table of more than one block, where
    os.fork exists and a second CPU can run a child, splits each block at
    its midpoint: this process renders the first ceil(rows / 2) rows while
    a child forked once renders the rest, and each block is yielded as its
    half followed by the child's. Otherwise the midpoint is the block's end
    and no child is forked. A second half that does not arrive whole (the
    child failed, died, or could not be forked) is rendered here, so every
    error is raised here. The pipe is closed and the child waited for on
    every way out.
    """
    as_json = fmt == "json"
    names = [name for name, _ in table]
    pieces, casts = zip(*(_column(cells, as_json) for _, cells in table))
    columns = [(cells, cast) for (_, cells), cast in zip(table, casts)
               if not isinstance(cells, (str, float))]
    n = len(columns[0][0])
    if as_json:
        # rows is the last key: the head ends in the "[" of its empty list
        head = json.dumps({"command": command, "params": params, "columns": names,
                           "rows": []}, indent=2)[:-3]
        template = "\n    [\n      " + ",\n      ".join(pieces) + "\n    ]"
        sep, tail = ",", "\n  ]\n}\n" if n else "]\n}\n"
    else:
        head, template = ",".join(names) + "\n", ",".join(pieces) + "\n"
        sep = tail = ""

    def text(lead, a, b):
        # rows a..b of the table, after lead; the table's tail if they end it
        values = []
        for cells, cast in columns:
            part = cells[a:b] if isinstance(cells, list) else cells[a:b].tolist()
            values.append(part if cast is None else map(cast, part))
        return _render(lead, template, sep, list(zip(*values)), tail if b == n else "")

    cuts = [(a, min(a + BLOCK, n)) for a in range(0, max(n, 1), BLOCK)]
    split = (len(cuts) > 1 and hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
             and len(os.sched_getaffinity(0)) > 1)
    # rows a..m of each block render here and m..b in the child; m == b
    # where the table does not split, and the block renders here whole
    halves = [(a, (a + b + 1) // 2 if split else b, b) for a, b in cuts]
    src, pid = _fork_second_halves(text, sep, halves) if split else (None, None)
    try:
        for a, m, b in halves:
            first = text(head if a == 0 else sep, a, m)
            # one new string per block, as a whole block is: with the halves
            # yielded apart, or joined by +=, a reader that keeps every block
            # (qbench's StringIO) grew its heap, and the peak RSS of qbench's
            # tables runs rose by about 6 MB in half of them
            yield first + ((src and _receive(src)) or text(sep, m, b)) if m < b else first
            del first
    finally:
        if src:
            src.close()
            os.waitpid(pid, 0)


def _fork_second_halves(text, sep, halves):
    """The read end of a pipe and the pid of a forked child that sends the
    text of each second half that is not empty as one length-prefixed
    write; (None, None) where no child can be had. The child touches no
    output and ends by os._exit whatever happens."""
    try:
        r, w = os.pipe()
    except OSError:
        return None, None
    try:
        with warnings.catch_warnings():
            # Python 3.12+ warns at a fork in a process with other threads,
            # such as numpy's BLAS pool. The child runs no BLAS, and the
            # warning made an error (-W error) would leave it never waited.
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        return None, None
    if pid == 0:
        code = 1
        try:
            os.close(r)
            with open(w, "wb") as out:
                for _, m, b in halves:
                    if m < b:
                        data = text(sep, m, b).encode()
                        out.write(len(data).to_bytes(8, "little"))
                        out.write(data)
                        out.flush()
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    return open(r, "rb"), pid


def _receive(src):
    """The next length-prefixed half from the child, or None where it does
    not arrive whole."""
    size = src.read(8)
    if len(size) < 8:
        return None
    size = int.from_bytes(size, "little")
    data = src.read(size)
    return data.decode() if len(data) == size else None


# every flag, declared once: its add_argument keywords
_FLAGS = {
    "--mass": dict(type=float, default=1.0, help="rest mass (default 1)"),
    "--v0": dict(type=float, default=0.0,
                 help="electrostatic-like strength (default 0)"),
    "--w0-abs": dict(type=float, default=0.0,
                     help="magnitude of the pure-quaternionic part (default 0)"),
    "--w0-phase": dict(type=float, default=0.0,
                       help="phase of the pure-quaternionic part (default 0)"),
    "--e-min": dict(type=float, default=None, help="grid start (default: the mass)"),
    "--e-max": dict(type=float, default=None, help="grid end (default: mass + 5)"),
    "--e-step": dict(type=float, default=0.01, help="grid spacing (default 0.01)"),
    "--length": dict(type=float, default=1.0, help="well width (default 1)"),
    "--levels": dict(type=int, default=5, help="number of levels (default 5)"),
    "--level": dict(type=int, default=1,
                    help="which level to sample, 1-based (default 1)"),
    "--branch": dict(choices=("minus", "plus"), default="minus"),
    "--spin": dict(choices=("up", "down"), default="up"),
    "--grid": dict(type=int, default=201,
                   help="sample points across the well (default 201)"),
    "--format": dict(choices=("csv", "json"), default="csv",
                     help="table format (default csv)"),
    "--output": dict(default=None, help="write to this file instead of stdout"),
}


def _params(args) -> dict:
    """The flags that describe a table, in the parser's order."""
    return {k: v for k, v in vars(args).items()
            if k not in ("command", "func", "format", "output")}


def _pot_from_args(args) -> PotentialStep:
    return PotentialStep(v0=args.v0, w_abs=args.w0_abs, w_phase=args.w0_phase)


def _cmd_zones(args):
    _require_mass(args.mass)
    pot = _pot_from_args(args)
    e_min = args.mass if args.e_min is None else args.e_min
    e_max = (args.mass + 5.0) if args.e_max is None else args.e_max
    if e_min < args.mass:
        raise InputError("e-min %r is below the mass shell %r" % (e_min, args.mass))
    if e_max < e_min:
        raise InputError("e-max must be >= e-min")
    if args.e_step <= 0:
        raise InputError("e-step must be > 0")
    span = (e_max - e_min) / args.e_step + 1e-9
    if not span < MAX_ROWS:
        raise InputError(
            "--e-step %r over [%r, %r] gives more than %d rows"
            % (args.e_step, e_min, e_max, MAX_ROWS)
        )
    n = int(math.floor(span))
    # every term of branch_mom2 is largest in size at one end of the grid,
    # so finite ends mean a finite table
    for e in (e_min, e_min + n * args.e_step):
        _branch_mom2_in_range(e, args.mass, pot)
    import numpy as np

    from . import _kernels

    energies = e_min + np.arange(n + 1) * args.e_step
    grid = _kernels.branch_mom2_grid(energies, args.mass, pot.v0, pot.w_abs)
    codes = _zone_minus(energies, args.mass, pot.v0, pot.w_abs, grid[-1], np)
    table = [
        ("energy", energies),
        *zip(("p2", "q2_plus", "q2_minus", "delta", "mom2_plus", "mom2_minus"), grid),
        ("zone_minus", np.array([zone.value for zone in Zone], dtype=object)[codes]),
        ("zone_plus", Zone.DIFFUSION.value),
        *zip(("e_low", "e_up", "delta_e"),
             evanescent_width(args.mass, pot.v0, pot.w_abs)),
    ]
    params = _params(args)
    params.update(e_min=e_min, e_max=e_max)
    return _blocks("zones", params, table, args.format), 0


def _cmd_bag_spectrum(args):
    pot = _pot_from_args(args)
    levels = solve_spectrum(args.mass, pot, args.length, args.levels, args.branch)
    names = ("index", "momentum", "eff_momentum", "energy", "phase", "norm_const",
             "regime_flag")
    # one solve is one branch: every level shares it
    table = [("branch", levels[0].branch.value),
             *((name, [getattr(lvl, name) for lvl in levels]) for name in names)]
    return _blocks("bag-spectrum", _params(args), table, args.format), 0


def _cmd_density(args):
    if args.level < 1 or args.level > args.levels:
        raise InputError(
            "level %d outside the computed range 1..%d" % (args.level, args.levels)
        )
    if args.grid < 2:
        raise InputError("grid must be >= 2 points")
    if args.grid > MAX_ROWS:
        raise InputError("--grid %d is over the %d-row limit" % (args.grid, MAX_ROWS))
    pot = _pot_from_args(args)
    level = solve_spectrum(args.mass, pot, args.length, args.level, args.branch)[-1]
    wf = stationary_wavefunction(level, args.mass, pot, args.spin)
    import numpy as np

    z = np.linspace(0.0, wf.length, args.grid)
    rho_c, rho_q = wf.density_split(z)
    table = [("z", z), ("rho", rho_c + rho_q), ("rho_complex_part", rho_c),
             ("rho_quaternionic_part", rho_q)]
    return _blocks("density", _params(args), table, args.format), 0


def _cmd_nr_spectrum(args):
    if args.w0_abs <= 0:
        raise InputError("nr-spectrum needs w0-abs > 0 (the limit divides by it)")
    from .nonrel import nr_quantize

    levels = nr_quantize(args.length, args.levels, args.mass, args.w0_abs)
    names = ("index", "momentum", "eff_plus", "eff_minus", "energy_plus",
             "energy_minus", "regime_flag")
    table = [(name, [getattr(lvl, name) for lvl in levels]) for name in names]
    return _blocks("nr-spectrum", _params(args), table, args.format), 0


def _cmd_verify(args):
    from .report import build_report, report_passed

    report = build_report()
    return [json.dumps(report, indent=2) + "\n"], (0 if report_passed(report) else 1)


# each subcommand: its help, its handler and its flags, in the order that
# fixes the key order of a JSON table's params
_COMMANDS = (
    ("zones", "branch kinematics over an energy grid", _cmd_zones,
     "--mass --v0 --w0-abs --w0-phase --e-min --e-max --e-step --format --output"),
    ("bag-spectrum", "confined levels of one branch", _cmd_bag_spectrum,
     "--mass --v0 --w0-abs --w0-phase --length --levels --branch --format --output"),
    ("density", "density profile of one confined level", _cmd_density,
     "--mass --v0 --w0-abs --w0-phase --length --levels --level --branch --spin "
     "--grid --format --output"),
    ("nr-spectrum", "non-relativistic limit levels", _cmd_nr_spectrum,
     "--mass --w0-abs --length --levels --format --output"),
    ("verify", "run the self-check report (JSON)", _cmd_verify, "--output"),
)


class _Parser(argparse.ArgumentParser):
    """argparse's negative-number pattern, widened from -5 and -.5 to -1e-3,
    -1. and -inf, so `--v0 -1e-3` reads as a value. Subparsers inherit it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$", re.IGNORECASE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qdirac",
        description="Quaternionic Dirac step and bound-state tables.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, summary, func, flags in _COMMANDS:
        p = sub.add_parser(name, help=summary)
        for flag in flags.split():
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(func=func)
    return parser


# the parser of main, built on its first call rather than at import
_parser = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        # flags that several subcommands share are checked once, here
        _require_finite(**{"--" + name.replace("_", "-"): getattr(args, name)
                           for name in ("mass", "length", "e_min", "e_max", "e_step")
                           if getattr(args, name, None) is not None})
        levels = getattr(args, "levels", 1)
        if levels < 1:
            raise InputError("levels must be >= 1")
        # density solves levels 1..--level, the spectra 1..--levels
        flag, solved = (("--level", args.level) if hasattr(args, "level")
                        else ("--levels", levels))
        if solved > MAX_ROWS:
            raise InputError("%s %d is over the %d-row limit" % (flag, solved, MAX_ROWS))
        blocks, code = args.func(args)
        try:
            with (contextlib.nullcontext(sys.stdout) if args.output is None
                  else open(args.output, "w", encoding="utf-8", newline="")) as fh:
                fh.writelines(blocks)
                fh.flush()
        except OSError as exc:
            if args.output is None and isinstance(exc, BrokenPipeError):
                # the reader closed stdout (`| head`): stop quietly, with fd 1
                # on devnull so the interpreter's exit flush cannot fail again
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
                return code
            target = "stdout" if args.output is None else "--output " + args.output
            print("error: cannot write %s: %s" % (target, exc.strerror),
                  file=sys.stderr)
            return 2
        finally:
            # a table's generator may hold a forked child: close it here on
            # every path, so the child is waited for before main returns
            if hasattr(blocks, "close"):
                blocks.close()
        return code
    except (NoSolutionError, SingularCoefficientsError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    except InputError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except Exception as exc:  # a bare ValueError too; no traceback reaches the user
        print("error: internal: %s: %s" % (type(exc).__name__, exc),
              file=sys.stderr)
        return 4
