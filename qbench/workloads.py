"""Seeded task lists for the three workloads.

A task is one operation a user waits on: one `qdirac.cli.main(argv)` call
with stdout captured, or one public-API call (`solve_spectrum` followed by
`stationary_wavefunction` on every level). `build(workload, seed)` turns a
seed into a fixed list of tasks; the same seed always gives the same argv
strings and parameters. The sizes do not depend on the seed, only the
physical parameters do, so every seed asks for the same amount of work.

qdirac is imported lazily inside the task bodies, so building a task list
costs no import and the benchmark can time the import on its own.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from dataclasses import dataclass, field

# zones grids step by 2**-12 from a multiple of 2**-12, so every grid energy
# e_min + i*e_step and the row count are exact in binary floating point
E_STEP = 1.0 / 4096.0

WORKLOADS = ("tables", "spectrum", "verify")


@dataclass(frozen=True)
class Task:
    """One operation. `kind` is "cli" (argv for qdirac.cli.main) or "api"
    (keyword arguments in `params` for one solve_spectrum call)."""

    name: str
    kind: str
    argv: tuple = ()
    params: dict = field(default_factory=dict)


@dataclass
class Outcome:
    """What one task produced. `text` is the captured stdout of a CLI task,
    or a canonical rendering of the returned objects of an API task; its
    bytes are what the repeat check and the digests compare. `value` holds
    the API objects themselves for the checkers."""

    code: int
    text: str
    value: object = None


def run_task(task: Task) -> Outcome:
    """Run one task in-process. Only the qdirac call itself belongs in a timed
    region; `api_text` renders API results afterwards."""
    if task.kind == "cli":
        from qdirac import cli

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(task.argv))
        return Outcome(code=code, text=buf.getvalue())
    from qdirac import PotentialStep, solve_spectrum, stationary_wavefunction

    p = task.params
    pot = PotentialStep(v0=p["v0"], w_abs=p["w_abs"], w_phase=p["w_phase"])
    levels = solve_spectrum(p["mass"], pot, p["length"], p["n_max"], p["branch"])
    wfs = [stationary_wavefunction(lvl, p["mass"], pot) for lvl in levels]
    return Outcome(code=0, text="", value=(levels, wfs))


def api_text(outcome: Outcome) -> str:
    """Canonical text of an API result: every float by repr, which round-trips
    exactly, so equal text means bit-identical results."""
    levels, wfs = outcome.value
    lines = []
    for lvl, wf in zip(levels, wfs):
        lines.append(
            ",".join(
                [lvl.branch.value, "%d" % lvl.index]
                + [repr(x) for x in (lvl.momentum, lvl.eff_momentum, lvl.energy,
                                     lvl.phase, lvl.norm_const)]
                + [repr(bool(lvl.regime_flag))]
                + [repr(x) for x in (wf.amplitude, wf.amp_ratio, wf.j_chi,
                                     wf.w_factor)]
            )
        )
    return "\n".join(lines) + "\n"


def _f(x: float) -> str:
    return repr(float(x))


def _zones_task(rng, name, rows, fmt):
    mass = rng.uniform(0.5, 2.0)
    v0 = rng.choice((-1.0, 1.0)) * rng.uniform(0.3, 2.0)
    w_abs = rng.uniform(0.1, 1.5)
    e_min = math.ceil(mass / E_STEP) * E_STEP
    e_max = e_min + (rows - 1) * E_STEP
    argv = ["zones", "--mass", _f(mass), "--v0", _f(v0), "--w0-abs", _f(w_abs),
            "--w0-phase", _f(rng.uniform(-math.pi, math.pi)),
            "--e-min", _f(e_min), "--e-max", _f(e_max), "--e-step", _f(E_STEP),
            "--format", fmt]
    return Task(name=name, kind="cli", argv=tuple(argv))


def _well(rng):
    """Mass, width, and a quaternionic magnitude below half the first
    quantized momentum Q_1 = pi/(2L): no plus-branch level falls under the
    shift (regime_flag stays false) and no level sits near the mass shell."""
    mass = rng.uniform(0.5, 1.5)
    length = rng.uniform(0.5, 1.5)
    q1 = math.pi / (2.0 * length)
    w_abs = rng.uniform(0.1, 0.5) * q1
    return mass, length, q1, w_abs


def _v0_for(rng, mass, q1, w_abs):
    """A nonzero v0 with Q_1^2 >= 1.25 * (v0^2 + 2*mass*|v0| + w_abs^2).

    The right side is the plus-branch momentum squared at the mass shell, so
    every plus-branch level exists; it also bounds the minus branch's value
    there, so both branches cross each Q_n^2 once, upwards, and energies
    rise with n."""
    v0_max = -mass + math.sqrt(mass * mass + q1 * q1 / 1.25 - w_abs * w_abs)
    return rng.choice((-1.0, 1.0)) * rng.uniform(0.2, 0.9) * v0_max


def _tables(rng):
    tasks = [
        _zones_task(rng, "zones-csv", 20001, "csv"),
        _zones_task(rng, "zones-json", 20001, "json"),
    ]
    mass, length, _, w_abs = _well(rng)
    argv = ["density", "--mass", _f(mass), "--w0-abs", _f(w_abs),
            "--w0-phase", _f(rng.uniform(-math.pi, math.pi)),
            "--length", _f(length), "--levels", "3",
            "--level", "%d" % rng.randint(1, 3),
            "--branch", rng.choice(("minus", "plus")),
            "--spin", rng.choice(("up", "down")), "--grid", "10001"]
    tasks.append(Task(name="density", kind="cli", argv=tuple(argv)))
    mass, length, _, w_abs = _well(rng)
    argv = ["bag-spectrum", "--mass", _f(mass), "--w0-abs", _f(w_abs),
            "--w0-phase", _f(rng.uniform(-math.pi, math.pi)),
            "--length", _f(length), "--levels", "20",
            "--branch", rng.choice(("minus", "plus"))]
    tasks.append(Task(name="bag-spectrum", kind="cli", argv=tuple(argv)))
    argv = ["nr-spectrum", "--mass", _f(rng.uniform(20.0, 60.0)),
            "--w0-abs", _f(rng.uniform(0.1, 1.0)),
            "--length", _f(rng.uniform(0.5, 2.0)), "--levels", "2000"]
    tasks.append(Task(name="nr-spectrum", kind="cli", argv=tuple(argv)))
    return tasks


# (task name, v0 nonzero, branch, levels); five tasks with well separated
# costs, so the median task is the same one on every seed
_SPECTRUM_PLAN = (
    ("v0zero-minus-100", False, "minus", 100),
    ("v0zero-plus-40", False, "plus", 40),
    ("v0-minus-40", True, "minus", 40),
    ("v0-plus-60", True, "plus", 60),
    ("v0-minus-20", True, "minus", 20),
)


def _spectrum(rng):
    tasks = []
    for name, with_v0, branch, n_max in _SPECTRUM_PLAN:
        mass, length, q1, w_abs = _well(rng)
        v0 = _v0_for(rng, mass, q1, w_abs) if with_v0 else 0.0
        params = dict(mass=mass, v0=v0, w_abs=w_abs,
                      w_phase=rng.uniform(-math.pi, math.pi), length=length,
                      n_max=n_max, branch=branch)
        tasks.append(Task(name=name, kind="api", params=params))
    return tasks


def build(workload: str, seed: int) -> list:
    """The task list of one workload for one seed. `verify` takes no inputs,
    so its list is the same for every seed."""
    rng = random.Random(seed)
    if workload == "tables":
        return _tables(rng)
    if workload == "spectrum":
        return _spectrum(rng)
    if workload == "verify":
        return [Task(name="verify", kind="cli", argv=("verify",))]
    raise ValueError("unknown workload %r" % (workload,))
