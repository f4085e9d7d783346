"""Byte-identical CLI output on every fixture and command.

Each case runs ``leavitt.cli.main`` in process on a built-in fixture and
compares stdout, stderr and the exit code with ``golden_cli.json`` next
to this file, read once per module.  When an output change is intended,
regenerate the data from the repository root with

    PYTHONPATH=src python tests/test_golden_cli.py --write
"""

import contextlib
import io
import json
import os
import sys

import pytest

from leavitt import cli
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


@pytest.fixture(scope="module")
def golden() -> dict:
    with open(DATA, encoding="utf-8") as fh:
        return json.load(fh)


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(" ".join(a) for a in cases())


@pytest.mark.parametrize("argv", cases(), ids=" ".join)
def test_golden_cli(argv, golden):
    assert run(argv) == golden[" ".join(argv)]


def test_main_reuses_one_parser(golden):
    assert cli._parser() is cli._parser()
    assert cli.build_parser() is not cli.build_parser()
    # a usage error leaves the shared parser as it was
    with pytest.raises(SystemExit) as exc:
        run(["analyze"])
    assert exc.value.code == 2
    argv = ["naimark", "--fixture", "LINE3"]
    assert run(argv) == golden[" ".join(argv)]
    assert golden[" ".join(argv)]["exit"] == 0
    # commands and --json alternate over every fixture, in both orders
    for order in (1, -1):
        for fixture in FIXTURES:
            for command in COMMANDS[::order]:
                for argv in (
                    [command, "--fixture", fixture, "--json"],
                    ["export-dot", "--fixture", fixture],
                    [command, "--fixture", fixture],
                ):
                    assert run(argv) == golden[" ".join(argv)], argv


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden_cli.py --write")
    golden = {" ".join(a): run(a) for a in cases()}
    with open(DATA, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True, ensure_ascii=False)
        fh.write("\n")
    print(f"wrote {len(golden)} cases to {DATA}")
