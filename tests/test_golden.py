"""Byte-level CLI contract: stdout, stderr and exit code against the golden
corpus in tests/golden.

The corpus was written by tests/golden/regen.py (see its docstring for when
a file may be regenerated). A mismatch names the golden file and its first
differing line, and repeats the environment that wrote the corpus, since the
last bits of the tables depend on the platform's libm.
"""

import hashlib
import json
from pathlib import Path

import pytest

from qdirac.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
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
