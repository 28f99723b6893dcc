"""Time whole qdirac command runs, each in a fresh interpreter.

Usage, from anywhere:

    python tests/cli_walls.py --src A [--src B] [--runs N]

A and B are checkouts (or their src directories). For each tree it times
`import qdirac.cli`, then `qdirac --version`, default `zones`,
`bag-spectrum` (CSV and JSON), `density` (CSV and JSON) and `nr-spectrum`,
each with --w0-abs 0.5, `verify`, and `bag-spectrum --v0 0.7 --w0-abs 0.5
--levels 100000` ("bag-spectrum 1e5"), whose wall is mostly the per-level
loop of solve_spectrum. Each runs as the `qdirac` script runs it: a fresh
interpreter that imports qdirac.cli and calls main. Stdout is
discarded; a run that exits nonzero stops the script. One untimed run of
every command and tree comes first. Then each of the N rounds (default 20)
runs every command once in every tree, alternating which tree goes first,
so that the trees see the same machine load. It prints, per command and
tree, the median wall time and its quartiles in ms, and with two trees the
change of the second median against the first.

The runs inherit this environment, PYTHONDONTWRITEBYTECODE included, with
the tree's src first on PYTHONPATH. Stdlib only.
"""

import argparse
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUN_MAIN = "import sys; from qdirac.cli import main; sys.exit(main())"
W0 = ["--w0-abs", "0.5"]
COMMANDS = (
    ("import qdirac.cli", ["-c", "import qdirac.cli"]),
    ("--version", ["-c", RUN_MAIN, "--version"]),
    ("zones", ["-c", RUN_MAIN, "zones"]),
    ("bag-spectrum", ["-c", RUN_MAIN, "bag-spectrum", *W0]),
    ("bag-spectrum json", ["-c", RUN_MAIN, "bag-spectrum", *W0, "--format", "json"]),
    ("density", ["-c", RUN_MAIN, "density", *W0]),
    ("density json", ["-c", RUN_MAIN, "density", *W0, "--format", "json"]),
    ("nr-spectrum", ["-c", RUN_MAIN, "nr-spectrum", *W0]),
    ("verify", ["-c", RUN_MAIN, "verify"]),
    ("bag-spectrum 1e5", ["-c", RUN_MAIN, "bag-spectrum", "--v0", "0.7", *W0,
                          "--levels", "100000"]),
)


def src_dir(path: str) -> Path:
    """The directory that holds the qdirac package: path/src or path."""
    root = Path(path).resolve()
    src = root / "src" if (root / "src" / "qdirac").is_dir() else root
    if not (src / "qdirac" / "cli.py").is_file():
        sys.exit("error: no qdirac package under %s" % path)
    return src


def tree_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


def wall(name, args, env) -> float:
    """Seconds for one fresh interpreter to run args."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE)
    seconds = time.perf_counter() - start
    if proc.returncode != 0:
        sys.exit("error: %s exited %d: %s" % (name, proc.returncode, proc.stderr.decode()))
    return seconds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", action="append", required=True,
                        help="a checkout or its src directory; give one or two")
    parser.add_argument("--runs", type=int, default=20, help="timed rounds (default 20)")
    args = parser.parse_args()
    if len(args.src) > 2 or args.runs < 1:
        parser.error("give one or two --src and --runs >= 1")
    envs = [tree_env(src_dir(path)) for path in args.src]
    trees = list(range(len(envs)))
    times = {(name, t): [] for name, _ in COMMANDS for t in trees}
    for name, cmd in COMMANDS:
        for env in envs:
            wall(name, cmd, env)
    for r in range(args.runs):
        for name, cmd in COMMANDS:
            for t in trees if r % 2 == 0 else trees[::-1]:
                times[name, t].append(wall(name, cmd, envs[t]))
    print("%d rounds; ms as median [q1, q3]" % args.runs)
    for t, path in enumerate(args.src):
        print("tree %d: %s" % (t, path))
    for name, _ in COMMANDS:
        cells, medians = [], []
        for t in trees:
            data = times[name, t]
            q1, med, q3 = (statistics.quantiles(data, n=4) if len(data) > 1
                           else (data[0],) * 3)
            medians.append(med)
            cells.append("%7.1f [%6.1f, %6.1f]" % (med * 1e3, q1 * 1e3, q3 * 1e3))
        change = ("  %+6.1f%%" % (100.0 * (medians[1] / medians[0] - 1.0))
                  if len(medians) == 2 else "")
        print("%-18s %s%s" % (name, "  ".join(cells), change))
    return 0


if __name__ == "__main__":
    sys.exit(main())
