"""Byte-identical CLI output on every fixture and command.

Each case runs ``leavitt.cli.main`` in process on a built-in fixture and
compares stdout, stderr and the exit code with ``golden_cli.json`` next
to this file.  When an output change is intended, regenerate the data
from the repository root with

    PYTHONPATH=src python tests/test_golden_cli.py --write
"""

import contextlib
import io
import json
import os
import sys

import pytest

from leavitt.cli import main
from leavitt.fixtures import FIXTURES

COMMANDS = ("analyze", "naimark", "classes", "compseries", "rep", "ideals")
DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_cli.json")


def cases() -> list[list[str]]:
    """Every fixture through every command, text and ``--json``, plus export-dot."""
    argvs = []
    for fixture in FIXTURES:
        for command in COMMANDS:
            argvs.append([command, "--fixture", fixture])
            argvs.append([command, "--fixture", fixture, "--json"])
        argvs.append(["export-dot", "--fixture", fixture])
    return argvs


def run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"stdout": out.getvalue(), "stderr": err.getvalue(), "exit": code}


def _load() -> dict:
    with open(DATA, encoding="utf-8") as fh:
        return json.load(fh)


def test_golden_covers_every_case():
    assert sorted(_load()) == sorted(" ".join(a) for a in cases())


@pytest.mark.parametrize("argv", cases(), ids=" ".join)
def test_golden_cli(argv):
    assert run(argv) == _load()[" ".join(argv)]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden_cli.py --write")
    golden = {" ".join(a): run(a) for a in cases()}
    with open(DATA, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True, ensure_ascii=False)
        fh.write("\n")
    print(f"wrote {len(golden)} cases to {DATA}")
