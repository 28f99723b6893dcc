#!/usr/bin/env python3
"""qdirac benchmark: one workload, one seed, timed in-process.

    python3 qbench/run.py --workload tables --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; qdirac is imported from its `src/`, and
nothing else. The last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with `--trace 0`, its per-layer metrics with `--trace 1`.
The line before it is a record with the machine facts, the raw timings and
the sha256 of every distinct task's stdout; the same record, and with
`--trace 1` the spans of one traced pass, are written under `qbench/out/`.
See qbench/README.md for the workloads, the metrics and the timing scheme.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SETUP_IMPORTS = 5
IMPORTTIME_RUNS = 3
MIN_ROUNDS = 3
# Every timed sample is reported as measured seconds times REF_NOMINAL_S over
# the mean of the reference_work() times taken right before and right after
# it. 0.0125 s is a typical reference time on the 2-core machine behind the
# README's figures, so reported seconds read as seconds on that machine.
REF_NOMINAL_S = 0.0125
# The in-process reference does not follow the drift of fresh-interpreter
# imports; `import numpy` in a fresh interpreter does, since it loads
# extension modules and unmarshals bytecode the same way. The median
# qdirac.cli import is reported times IMPORT_NOMINAL_S over the median numpy
# import of the same run; 0.22 s is a typical numpy import on that machine.
IMPORT_NOMINAL_S = 0.22

clock = time.perf_counter


def timed(fn) -> float:
    t0 = clock()
    fn()
    return clock() - t0


def reference_work() -> float:
    """Fixed work that uses no qdirac code: scalar float arithmetic, small
    object churn, %.17g formatting and one numpy array pass, the same mix as
    the program's hot paths. Its time tracks how fast the machine is running
    at that moment."""
    acc = 0.0
    cells = []
    for i in range(9000):
        x = 1.0 + i * 1e-3
        r = math.sqrt(x * x + 0.25) - x
        acc += math.hypot(r, x)
        cells.append("%.17g" % acc)
    a = np.linspace(1.0, 5.0, 150001)
    return acc + float(np.sqrt(a * a - 1.0).sum()) + len(",".join(cells))


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _import_cmd(*flags, module="qdirac.cli"):
    return [sys.executable, *flags, "-c", "import " + module]


def import_seconds(runs: int) -> list:
    """(seconds to import qdirac.cli, seconds to import numpy), each in a
    fresh interpreter, `runs` times in alternation. One untimed import of
    each first writes the bytecode caches, as an installed package has."""
    env = _env()

    def once(module):
        return timed(lambda: subprocess.run(_import_cmd(module=module), env=env,
                                            cwd=ROOT, check=True))

    once("qdirac.cli")
    once("numpy")
    return [(once("qdirac.cli"), once("numpy")) for _ in range(runs)]


def import_breakdown(runs: int) -> dict:
    """Median self time of the numpy, scipy and qdirac modules under
    `-X importtime`, in seconds."""
    totals = {"numpy": [], "scipy": [], "qdirac": []}
    for _ in range(runs):
        proc = subprocess.run(_import_cmd("-X", "importtime"), env=_env(),
                              cwd=ROOT, check=True, capture_output=True, text=True)
        sums = dict.fromkeys(totals, 0)
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            self_us, _, name = line[len("import time:"):].split("|")
            top = name.strip().split(".")[0]
            if top in sums and self_us.strip().isdigit():
                sums[top] += int(self_us)
        for top, us in sums.items():
            totals[top].append(us * 1e-6)
    return {top: statistics.median(v) for top, v in totals.items()}


def machine_facts() -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    numba = subprocess.run([sys.executable, "-c", "import numba"],
                           capture_output=True).returncode == 0
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "numba_imports": numba,
        "platform": platform.platform(),
    }


class Runner:
    """Runs tasks, counts attempts and failures, and keeps the digest of
    every stdout and the first successful outcome of each task for the
    checkers."""

    def __init__(self, tasks):
        self.tasks = tasks
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.first = {}
        self.digests = {t.name: [] for t in tasks}

    def run(self, task) -> float:
        """One attempt; returns the seconds the qdirac call took."""
        self.attempted += 1
        t0 = clock()
        try:
            outcome = workloads.run_task(task)
        except Exception as exc:  # a failed operation, counted and reported
            dt = clock() - t0
            self.failed += 1
            self.errors.append("%s: %s: %s" % (task.name, type(exc).__name__, exc))
            return dt
        dt = clock() - t0
        if task.kind == "api":
            outcome.text = workloads.api_text(outcome)
        self.digests[task.name].append(
            hashlib.sha256(outcome.text.encode()).hexdigest())
        if outcome.code != 0:
            self.failed += 1
            self.errors.append("%s: exit code %d" % (task.name, outcome.code))
        else:
            self.first.setdefault(task.name, outcome)
        return dt

    def problems(self) -> list:
        out = []
        for task in self.tasks:
            out += checks.check_repeats(task.name, self.digests[task.name])
            if task.name in self.first:
                out += ["%s: %s" % (task.name, p) for p in
                        checks.check_outcome(task, self.first[task.name])]
        return out

    def distinct_digests(self) -> dict:
        return {name: sorted(set(d)) for name, d in self.digests.items()}


def timed_rounds(runner, seconds):
    """Whole rounds over the task list until `seconds` have passed, at least
    MIN_ROUNDS, with reference_work() timed before the first task and after
    every task. Returns each task's samples as (seconds, reference seconds
    before, reference seconds after), round by round."""
    rounds = []
    ref_before = timed(reference_work)
    deadline = clock() + seconds
    while len(rounds) < MIN_ROUNDS or clock() < deadline:
        gc.collect()
        samples = []
        for task in runner.tasks:
            dt = runner.run(task)
            ref_after = timed(reference_work)
            samples.append((dt, ref_before, ref_after))
            ref_before = ref_after
        rounds.append(samples)
    return rounds


def end_to_end(runner, seconds, setup_samples, generate_s):
    """End-to-end metrics: setup_s is the input generation plus the median
    import of qdirac.cli rescaled by the median import of numpy (see
    IMPORT_NOMINAL_S); run_s is the median round and task_s.p50 the median
    task, both of samples rescaled by reference_work()."""
    rounds = timed_rounds(runner, seconds)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    scaled = [[dt * 2.0 * REF_NOMINAL_S / (before + after)
               for dt, before, after in samples] for samples in rounds]
    metrics = {
        "setup_s": generate_s + IMPORT_NOMINAL_S * (
            statistics.median(q for q, _ in setup_samples)
            / statistics.median(n for _, n in setup_samples)),
        "run_s": statistics.median(sum(r) for r in scaled),
        "task_s.p50": statistics.median(x for r in scaled for x in r),
        "peak_rss_mb": peak_mb,
    }
    raw = [[dt for dt, _, _ in samples] for samples in rounds]
    refs = [before for samples in rounds for _, before, _ in samples]
    detail = {
        "rounds": len(rounds),
        "reference_median_s": statistics.median(refs),
        "unscaled": {
            "setup_s": generate_s + statistics.median(q for q, _ in setup_samples),
            "run_s": statistics.median(sum(r) for r in raw),
            "task_s.p50": statistics.median(x for r in raw for x in r),
        },
        "task_median_s": {
            t.name: statistics.median(r[j] for r in scaled)
            for j, t in enumerate(runner.tasks)},
        "samples": rounds,
        "setup_samples": setup_samples,
        "generate_s": generate_s,
    }
    return metrics, detail


def traced_passes(runner, seconds):
    """Alternate an untraced and a traced pass over the task list until
    `seconds` have passed, at least two pairs. Returns the per-pass
    quantities of the traced passes, both pass-time lists and the spans of
    the first traced pass."""
    tracer = Tracer()
    plain, traced, quantities = [], [], []
    spans = None
    deadline = clock() + seconds
    while len(traced) < 2 or clock() < deadline:
        gc.collect()
        plain.append(sum(runner.run(t) for t in runner.tasks))
        gc.collect()
        tracer.reset()
        with tracer.installed():
            traced.append(sum(runner.run(t) for t in runner.tasks))
        quantities.append(tracer.quantities())
        if spans is None:
            spans = tracer.spans()
    return quantities, plain, traced, spans


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(names, runner, seconds):
    quantities, plain, traced, spans = traced_passes(runner, seconds)
    counts = [{k: v for k, v in q.items() if isinstance(v, int)} for q in quantities]
    problems = []
    if any(c != counts[0] for c in counts[1:]):
        problems.append("per-layer counts differ between traced passes")
    first = quantities[0]
    merged = dict(counts[0])
    for key in {k for q in quantities for k in q} - set(merged):
        merged[key] = statistics.median(q.get(key, 0.0) for q in quantities)
    merged["bag.inversion.kinematics_per_level"] = _ratio(
        first.get("bag.inversion.kinematics", 0), first.get("bag.inversion.levels", 0))
    merged["report.quantization.residuals_per_root"] = _ratio(
        first.get("report.quantization.residuals", 0),
        first.get("report.quantization.roots", 0))
    imports = import_breakdown(IMPORTTIME_RUNS)
    for top in ("numpy", "scipy"):
        merged["import.%s_s" % top] = imports[top]
    merged["import.qdirac_self_s"] = imports["qdirac"]
    merged["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    metrics = {n: merged.get(n, 0) for n in names}
    detail = {
        "traced_passes": len(traced),
        "untraced_pass_median_s": statistics.median(plain),
        "traced_pass_median_s": statistics.median(traced),
        "all_quantities": dict(sorted(merged.items())),
        "spans": int(len(spans["start"])),
    }
    return metrics, detail, spans, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qdirac" / "__init__.py").is_file():
        print("qbench: %s/qdirac not found; run from the root of a qdirac "
              "checkout" % SRC, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}

    facts = machine_facts()
    setup_runs = [] if args.trace else import_seconds(SETUP_IMPORTS)
    t0 = clock()
    tasks = workloads.build(args.workload, args.seed)
    generate_s = clock() - t0

    sys.path.insert(0, str(SRC))
    import qdirac.cli  # noqa: F401  (the timed tasks call into it)

    if Path(qdirac.__file__).resolve().parent != (SRC / "qdirac").resolve():
        print("qbench: imported qdirac from %s, not from %s"
              % (qdirac.__file__, SRC), file=sys.stderr)
        return 2

    runner = Runner(tasks)
    for task in tasks:  # warm pass: first outputs, caches, lazy imports
        runner.run(task)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "machine": facts,
              "tasks": {t.name: list(t.argv) or t.params for t in tasks}}
    problems = []
    OUT.mkdir(exist_ok=True)
    if args.trace:
        metrics, detail, spans, problems = per_layer(list(units), runner, args.seconds)
        np.savez(OUT / ("spans-%s-seed%d.npz" % (args.workload, args.seed)), **spans)
    else:
        metrics, detail = end_to_end(runner, args.seconds, setup_runs, generate_s)
    record.update(detail)
    problems += runner.problems()
    record.update(problems=problems, errors=runner.errors[:20],
                  digests=runner.distinct_digests(), metrics=metrics)
    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"record": record}))
    result = {
        "correct": not problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
