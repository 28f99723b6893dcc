"""List the lines of src/qdirac that the test suite never runs.

Usage, from anywhere:

    python tests/line_trace.py [pytest arguments]

It runs pytest over the repository (tests and qbench, as a plain `pytest`
run does) with a sitecustomize.py first on PYTHONPATH. That file sets a
line tracer by sys.settrace and threading.settrace in every interpreter
that inherits the path, so CLI runs in subprocesses count too; a forked
child dumps its hits in os._exit, and every other process at exit. Each
dump is a JSON file written as UTF-8, so a run under -W error::EncodingWarning
is not disturbed. Then it prints each executable line of src/qdirac, as
its code objects' line tables give them, that no process ran, as
`path:line: source`, and a count. Stdlib only; the run takes two to three
times as long as pytest alone. The exit code is pytest's.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qdirac"

SITECUSTOMIZE = '''\
import atexit, json, os, sys, tempfile, threading

_PREFIX = %(prefix)r
_OUT = %(out)r
_hits, _kept = set(), {}


def _local(frame, event, arg):
    if event == "line":
        _hits.add((frame.f_code.co_filename, frame.f_lineno))
    return _local


def _global(frame, event, arg):
    name = frame.f_code.co_filename
    keep = _kept.get(name)
    if keep is None:
        keep = _kept[name] = os.path.realpath(name).startswith(_PREFIX)
    return _local if keep else None


def _dump():
    fd, _ = tempfile.mkstemp(suffix=".json", dir=_OUT)
    with open(fd, "w", encoding="utf-8") as out:
        json.dump(sorted((os.path.realpath(f), n) for f, n in _hits), out)


_real_exit = os._exit


def _exit(code):
    # a forked child skips atexit
    try:
        _dump()
    finally:
        _real_exit(code)


os._exit = _exit
atexit.register(_dump)
threading.settrace(_global)
sys.settrace(_global)
'''


def executable_lines(path):
    """The line numbers that the code objects compiled from path map
    instructions to."""
    lines, stack = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main(argv):
    with tempfile.TemporaryDirectory() as tmp:
        site, out = Path(tmp, "site"), Path(tmp, "hits")
        site.mkdir()
        out.mkdir()
        (site / "sitecustomize.py").write_text(SITECUSTOMIZE % {
            "prefix": os.path.realpath(PACKAGE) + os.sep, "out": str(out)},
            encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
            str(site), str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
        code = subprocess.call([sys.executable, "-m", "pytest", "-q",
                                "--continue-on-collection-errors",
                                "-p", "no:cacheprovider", *argv], cwd=ROOT, env=env)
        hits = set()
        for dump in out.iterdir():
            hits.update(map(tuple, json.loads(dump.read_text(encoding="utf-8"))))
    total = missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        source = path.read_text(encoding="utf-8").splitlines()
        name = os.path.realpath(path)
        total += len(lines)
        for line in sorted(lines):
            if (name, line) not in hits:
                missed += 1
                print("%s:%d: %s" % (path.relative_to(ROOT), line,
                                     source[line - 1].strip()))
    print("%d of %d executable lines never ran" % (missed, total))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
