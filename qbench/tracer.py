"""In-memory spans and counts around the public functions of every qdirac
module, installed from outside the package.

qdirac modules bind imported names directly (`from .bag import
solve_spectrum`), so a wrapper replaces the function under every name, in
every loaded qdirac module, that is bound to the original object; patching
only the defining module would miss the callers that hold their own
binding. `Tracer.installed()` puts the wrappers in and restores the
originals on exit.

A span wrapper records (name, start, end, parent) and accumulates per name:
calls, busy seconds (outermost spans only, so recursion is not counted
twice) and self seconds (duration minus the direct child spans). Hot leaf
functions that run inside other layers' inner loops get a count-only wrapper
instead; their time falls into the self time of the span that called them.
"""

from __future__ import annotations

import contextlib
import inspect
import sys
import time
from collections import Counter

import numpy as np

MODULES = ("quaternion", "dirac", "step", "bag", "nonrel", "report", "cli",
           "_kernels")

# called per grid row or per quadrature node: counted, not spanned
COUNT_ONLY = {"step.evanescent_width", "step.principal_momentum",
              "dirac.apply_matrix", "bag.StationaryWavefunction.density",
              "quaternion.Quaternion.mul"}


def layer_name(module: str, attr: str) -> str:
    """Metric prefix of one function: `_kernels` reads as `kernels`, the
    report's `_section_x` as `report.section.x`, the CLI's `_render` as
    `cli.render`."""
    if module == "report" and attr.startswith("_section_"):
        return "report.section." + attr[len("_section_"):]
    return "%s.%s" % (module.lstrip("_"), attr.lstrip("_"))


def _public_functions(mod):
    names = getattr(mod, "__all__", None)
    if names is None:
        names = [n for n in vars(mod) if not n.startswith("_")]
    for name in names:
        obj = getattr(mod, name, None)
        if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
            yield name, obj


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.names = []
        self._ids = {}
        self.reset()

    def reset(self):
        """Drop the spans and zero every count, at the start of a pass."""
        self.span_name, self.span_start, self.span_end, self.span_parent = [], [], [], []
        self._stack = [-1]
        self._child = [0.0]
        self._depth = Counter()
        self.calls = Counter()
        self.busy = Counter()
        self.self_s = Counter()
        self.counts = Counter()
        self.scope = Counter()

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name, fn, before=None, after=None):
        """Wrap fn in a span. `before(args, kwargs)` runs first and returns a
        token; `after(args, kwargs, result, token)` runs once fn returned.
        Both run outside the timed interval."""
        nid = self._id(name)
        clock = self.clock

        def wrapper(*args, **kwargs):
            token = before(args, kwargs) if before else None
            idx = len(self.span_start)
            self.span_name.append(nid)
            self.span_parent.append(self._stack[-1])
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            self._stack.append(idx)
            self._child.append(0.0)
            self._depth[nid] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self._stack.pop()
                dur = t1 - t0
                self.span_start[idx] = t0
                self.span_end[idx] = t1
                self.self_s[name] += dur - self._child.pop()
                self._child[-1] += dur
                self._depth[nid] -= 1
                if self._depth[nid] == 0:
                    self.busy[name] += dur
                self.calls[name] += 1
            if after:
                after(args, kwargs, result, token)
            return result

        return wrapper

    def count(self, name, fn):
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- hooks for the derived counts ------------------------------------

    def _hooks(self):
        def grid_points(args, kwargs, result, token):
            self.counts["kernels.branch_mom2_grid.points"] += len(args[0])

        def solve_enter(args, kwargs):
            with_v0 = _arg(args, kwargs, 1, "pot").v0 != 0.0
            self.scope["v0_solve"] += with_v0
            return with_v0

        def solve_exit(args, kwargs, result, with_v0):
            self.counts["bag.solve_spectrum.levels"] += len(result)
            if with_v0:
                self.scope["v0_solve"] -= 1
                self.counts["bag.inversion.levels"] += len(result)

        def kinematics_exit(args, kwargs, result, token):
            if self.scope["v0_solve"]:
                self.counts["bag.inversion.kinematics"] += 1

        def normalize_exit(args, kwargs, result, token):
            self.counts["bag.normalize.neval"] += getattr(result[1], "quad_neval", 0)

        def quantization_enter(args, kwargs):
            self.scope["quantization"] += 1

        def quantization_exit(args, kwargs, result, token):
            self.scope["quantization"] -= 1
            self.counts["report.quantization.roots"] += sum(
                b["roots_found"] for c in result["configs"]
                for b in c["branches"].values())

        def residual_exit(args, kwargs, result, token):
            if self.scope["quantization"]:
                self.counts["report.quantization.residuals"] += 1

        def render_exit(args, kwargs, result, token):
            self.counts["cli.render.bytes"] += len(result)
            self.counts["cli.render.rows"] += len(_arg(args, kwargs, 3, "rows"))

        return {
            "kernels.branch_mom2_grid": (None, grid_points),
            "bag.solve_spectrum": (solve_enter, solve_exit),
            "step.kinematics": (None, kinematics_exit),
            "bag.normalize": (None, normalize_exit),
            "report.section.quantization": (quantization_enter, quantization_exit),
            "bag.quantization_residual": (None, residual_exit),
            "cli.render": (None, render_exit),
        }

    def _targets(self):
        """(layer name, owner, attribute, original, rebind everywhere)."""
        pkg = sys.modules["qdirac"]
        for modname in MODULES:
            mod = getattr(pkg, modname)
            for attr, fn in _public_functions(mod):
                yield layer_name(modname, attr), mod, attr, fn, True
        report, cli, bag = pkg.report, pkg.cli, pkg.bag
        for attr, fn in vars(report).items():
            if attr.startswith("_section_") and inspect.isfunction(fn):
                yield layer_name("report", attr), report, attr, fn, True
        yield "cli.render", cli, "_render", cli._render, True
        # the scipy names as bound in bag only, not the report's own quad
        for attr in ("quad", "brentq"):
            if hasattr(bag, attr):
                yield "bag." + attr, bag, attr, getattr(bag, attr), False
        wf = bag.StationaryWavefunction
        for attr in ("density", "density_split"):
            yield "bag.StationaryWavefunction." + attr, wf, attr, vars(wf)[attr], False
        q = pkg.quaternion.Quaternion
        for attr in ("__mul__", "__rmul__"):
            yield "quaternion.Quaternion.mul", q, attr, vars(q)[attr], False

    @contextlib.contextmanager
    def installed(self):
        hooks = self._hooks()
        modules = [m for n, m in sys.modules.items()
                   if n == "qdirac" or n.startswith("qdirac.")]
        patched = []
        try:
            for name, owner, attr, fn, everywhere in list(self._targets()):
                if name in COUNT_ONLY:
                    wrapper = self.count(name, fn)
                else:
                    wrapper = self.span(name, fn, *hooks.get(name, (None, None)))
                if everywhere:
                    sites = [(m, a) for m in modules
                             for a, v in vars(m).items() if v is fn]
                else:
                    sites = [(owner, attr)]
                for obj, a in sites:
                    patched.append((obj, a, fn))
                    setattr(obj, a, wrapper)
            yield self
        finally:
            for obj, attr, fn in reversed(patched):
                setattr(obj, attr, fn)

    def spans(self) -> dict:
        """The spans of the current pass as arrays, times relative to the
        first span's start."""
        start = np.array(self.span_start)
        t0 = start.min() if len(start) else 0.0
        return {
            "name": np.array(self.span_name, dtype=np.int32),
            "start": start - t0,
            "end": np.array(self.span_end) - t0,
            "parent": np.array(self.span_parent, dtype=np.int32),
            "names": np.array(self.names),
        }

    def quantities(self) -> dict:
        """Every measured quantity of the current pass by metric name."""
        out = {}
        for name, n in self.calls.items():
            out[name + ".calls"] = n
        for name in self.busy:
            out[name + ".s"] = self.busy[name]
            out[name + ".self_s"] = self.self_s[name]
        out.update(self.counts)
        return out
