"""Regenerate the golden CLI corpus in this directory.

MANIFEST.json lists every case by name and argv. A case's full stdout is
kept in <name>.out, and its exit code and stderr in the manifest. The
"digests" entries are large runs, pinned only by the sha256 of their stdout.
The manifest also records the Python, numpy and platform that wrote it,
because the last bits of the tables depend on the platform's libm.

    PYTHONPATH=src python tests/golden/regen.py NAME [NAME ...]
    PYTHONPATH=src python tests/golden/regen.py --all

A new case needs only its name and argv in the manifest; running this script
with its name fills in the rest. Regenerate only the cases whose bytes a
change moves on purpose, and list them in CHANGES.md with the reason. Never
regenerate a file to hide a difference.

For each rewritten .out file the script prints how many numeric cells moved
and the largest relative move against the old file. A digest keeps no old
output to compare with: diff such a run against the previous commit's stdout.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import platform
import re
import sys
from pathlib import Path

import numpy as np

from qdirac.cli import main

HERE = Path(__file__).resolve().parent
MANIFEST = HERE / "MANIFEST.json"
# a cell of a CSV row or a JSON value, key or string word
CELL = re.compile(r'[^,\s\[\]{}:"]+')


def run(argv):
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def moves(old: str, new: str) -> str:
    """How many numeric cells of `new` differ from `old`, and the largest
    relative move. Any other difference is reported as not comparable."""
    if old == new:
        return "unchanged"
    a, b = CELL.findall(old), CELL.findall(new)
    if len(a) != len(b):
        return "not comparable: %d cells, was %d" % (len(b), len(a))
    numeric, moved, worst = 0, 0, 0.0
    for x, y in zip(a, b):
        try:
            fx, fy = float(x), float(y)
        except ValueError:
            if x != y:
                return "not comparable: %r became %r" % (x, y)
            continue
        numeric += 1
        if x != y:
            moved += 1
            worst = max(worst, abs(fy - fx) / abs(fx) if fx else math.inf)
    return "%d of %d numeric cells moved, largest relative move %.2g" % (
        moved, numeric, worst)


def dump(manifest: dict) -> str:
    """The manifest with one entry per line, so a regenerated case shows up
    as a one-line diff."""
    parts = ["{", '  "environment": %s,' % json.dumps(manifest["environment"])]
    for key in ("cases", "digests"):
        entries = ",\n".join("    " + json.dumps(e) for e in manifest[key])
        closing = "]" if key == "digests" else "],"
        parts.append('  "%s": [\n%s\n  %s' % (key, entries, closing))
    parts.append("}")
    return "\n".join(parts) + "\n"


def regenerate(names, everything=False) -> list:
    manifest = json.loads(MANIFEST.read_text())
    known = {e["name"] for key in ("cases", "digests") for e in manifest[key]}
    unknown = set(names) - known
    if unknown:
        raise SystemExit("unknown case(s): %s" % ", ".join(sorted(unknown)))
    done = []
    for case in manifest["cases"]:
        if everything or case["name"] in names or "exit_code" not in case:
            path = HERE / (case["name"] + ".out")
            old = path.read_bytes().decode() if path.exists() else None
            code, out, err = run(case["argv"])
            path.write_text(out, newline="")
            case["exit_code"], case["stderr"] = code, err
            done.append((case["name"], "new" if old is None else moves(old, out)))
    for case in manifest["digests"]:
        if everything or case["name"] in names or "sha256" not in case:
            code, out, _ = run(case["argv"])
            if code != 0:
                raise SystemExit("%s exited %d" % (case["name"], code))
            digest = hashlib.sha256(out.encode()).hexdigest()
            note = "digest %s" % ("unchanged" if case.get("sha256") == digest else "moved")
            case["sha256"] = digest
            done.append((case["name"], note))
    manifest["environment"] = environment()
    MANIFEST.write_text(dump(manifest))
    return done


if __name__ == "__main__":
    args = sys.argv[1:]
    if not args:
        raise SystemExit(__doc__)
    everything = args == ["--all"]
    for name, note in regenerate([] if everything else args, everything):
        print("regenerated %s: %s" % (name, note))
