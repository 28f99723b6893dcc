"""Byte-level CLI contract: stdout, stderr and exit code against the golden
corpus in tests/golden.

The corpus was written by tests/golden/regen.py (see its docstring for when
a file may be regenerated). A mismatch names the golden file and its first
differing line, and repeats the environment that wrote the corpus, since the
last bits of the tables depend on the platform's libm.
"""

import hashlib
import json
import os
import subprocess
from pathlib import Path

import pytest

from qdirac import __version__
from qdirac.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = Path(__file__).resolve().parents[1] / "src"
MANIFEST = json.loads((GOLDEN / "MANIFEST.json").read_text())


def _run(argv, capsys):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _first_difference(expected: str, actual: str) -> str:
    exp, act = expected.split("\n"), actual.split("\n")
    for i, (e, a) in enumerate(zip(exp, act), start=1):
        if e != a:
            return "line %d:\n  golden: %r\n  actual: %r" % (i, e, a)
    return "line %d: golden has %d lines, actual has %d" % (
        min(len(exp), len(act)) + 1, len(exp), len(act))


def _where() -> str:
    return "corpus written on %s" % json.dumps(MANIFEST["environment"])


@pytest.mark.parametrize("case", MANIFEST["cases"], ids=lambda c: c["name"])
def test_stdout_matches_golden_file(case, capsys):
    path = GOLDEN / (case["name"] + ".out")
    code, out, err = _run(case["argv"], capsys)
    expected = path.read_bytes().decode()
    if out != expected:
        pytest.fail("%s differs at %s\n%s" % (
            path.relative_to(GOLDEN.parent.parent), _first_difference(expected, out),
            _where()))
    assert code == case["exit_code"], case["name"]
    assert err == case["stderr"], case["name"]


@pytest.mark.parametrize("case", MANIFEST["digests"], ids=lambda c: c["name"])
def test_large_run_digest(case, capsys):
    code, out, _ = _run(case["argv"], capsys)
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == case["sha256"], "%s: sha256 of stdout moved; %s" % (
        case["name"], _where())


def test_corpus_files_match_manifest():
    on_disk = {p.stem for p in GOLDEN.glob("*.out")}
    assert on_disk == {c["name"] for c in MANIFEST["cases"]}


def _pythons():
    """(pyenv root, its CPython 3.10-3.13 interpreters); ~/.pyenv where no
    pyenv is on PATH."""
    try:
        root = subprocess.run(["pyenv", "root"], capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        root = os.path.expanduser("~/.pyenv")
    return root, sorted(Path(root).glob("versions/3.1[0-3]*/bin/python"))


PYENV_ROOT, PYTHONS = _pythons()

# run in each interpreter: every case on stdin through qdirac.cli.main, in
# process, against its golden exit code, stderr and stdout (or sha256)
NUMPY_FREE_CHILD = """\
import contextlib, hashlib, io, json, sys
from qdirac.cli import main
cases = json.load(sys.stdin)
for case in cases:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(case["argv"])
        except SystemExit as exc:
            code = exc.code
    got = [code, err.getvalue(), out.getvalue()]
    if "sha256" in case:
        got[2] = hashlib.sha256(got[2].encode()).hexdigest()
    assert got == case["want"], (case["argv"], got[:2], case["want"][:2])
assert 'numpy' not in sys.modules, 'numpy was imported'
assert 'qdirac.report' not in sys.modules, 'qdirac.report was imported'
print(len(cases))
"""


NO_PYTHON = pytest.param(None, marks=pytest.mark.skip(
    reason="no CPython 3.10-3.13 under %s/versions" % PYENV_ROOT))


@pytest.mark.parametrize("python", PYTHONS or [NO_PYTHON], ids=lambda p: p and p.parts[-3])
def test_numpy_free_commands_match_golden_on_every_python(python):
    """bag-spectrum, nr-spectrum and --version print the golden bytes on
    every CPython the package supports, and never import numpy."""
    cases = [{"argv": ["--version"], "want": [0, "", __version__ + "\n"]}]
    for case in MANIFEST["cases"] + MANIFEST["digests"]:
        if case["argv"][0] not in ("bag-spectrum", "nr-spectrum"):
            continue
        if "sha256" in case:
            cases.append({"argv": case["argv"], "sha256": True,
                          "want": [0, "", case["sha256"]]})
        else:
            out = (GOLDEN / (case["name"] + ".out")).read_bytes().decode()
            cases.append({"argv": case["argv"],
                          "want": [case["exit_code"], case["stderr"], out]})
    assert len(cases) == 19
    proc = subprocess.run([str(python), "-c", NUMPY_FREE_CHILD],
                          input=json.dumps(cases), capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert proc.returncode == 0 and proc.stdout == "19\n", proc.stderr
