"""The exact output of every CLI command, pinned.

``golden_cli.json`` holds, for each argv below, the exit code, stdout and
stderr of ``redweave.cli.run``: text, JSON and DOT output, usage errors,
input errors, budget refusals and ``--help``.  A change to any of them
must be deliberate.  To record the output of the current source, run

    PYTHONPATH=src python tests/test_golden_cli.py

and review the diff of ``tests/golden_cli.json``.
"""

import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from redweave.cli import run

GOLDEN = Path(__file__).with_name("golden_cli.json")
ENV = {"COLUMNS": "80"}  # argparse wraps help text to the terminal width

ARGVS = [
    [],
    ["--help"],
    ["--version"],
    ["frob"],
    ["words", "321"],
    ["words", "123"],
    ["words", "1"],
    ["words", "4321"],
    ["words", "3421", "--format", "json"],
    ["words", "3x21"],
    ["words", "7654321", "--budget-words", "100"],
    ["words", "4321", "--format", "dot"],
    ["words", "321", "--threads", "2"],
    ["words", "--help"],
    ["classes", "3421"],
    ["classes", "4321", "--format", "json"],
    ["classes", "1231"],
    ["classes", "654321", "--budget-words", "10"],
    ["classes", "--help"],
    ["graph", "3421"],
    ["graph", "4321", "--format", "json"],
    ["graph", "4321", "--format", "dot"],
    ["graph", "321", "--format", "dot"],
    ["graph", "12", "--format", "json"],
    ["graph", "--help"],
    ["poset", "3421"],
    ["poset", "4321", "--format", "json"],
    ["poset", "4321", "--format", "dot"],
    ["poset", "21", "--format", "dot"],
    ["poset", "--help"],
    ["bounds", "3421"],
    ["bounds", "3421", "--actual", "--format", "json"],
    ["bounds", "4321", "--actual"],
    ["bounds", "654321", "--actual", "--format", "json"],
    ["bounds", "21", "--budget-words", "0"],
    ["bounds", "4321", "--format", "dot"],
    ["bounds", "21", "--budget-words", "-5"],
    ["words", "4321", "--budget-words", "1.6e1"],
    ["words", "4321", "--budget-words", "1.5e1"],
    ["classes", "4321", "--budget-words", "1e12"],
    ["bounds", "21", "--budget-words", "1.5"],
    ["bounds", "21", "--budget-words", "1e-3"],
    ["bounds", "21", "--budget-words", "inf"],
    ["bounds", "21", "--budget-words", "nan"],
    ["bounds", "21", "--budget-words=-1e3"],
    ["bounds", "21", "--budget-words", "-1e3"],
    ["words", "4321", "--budget-words", "-5"],
    ["bounds", "--help"],
    ["aggregate", "3", "2"],
    ["aggregate", "4", "3", "--format", "json"],
    ["aggregate", "4", "0"],
    ["aggregate", "2", "0"],
    ["aggregate", "3", "100"],
    ["aggregate", "3", "-1"],
    ["aggregate", "1", "1"],
    ["aggregate", "9", "1"],
    ["aggregate", "--help"],
    ["subnet", "4321", "--word", "2,3,2,1,2,3", "--set", "warrington-x",
     "--predict", "--format", "json"],
    ["subnet", "3421", "--word", "21323", "--set", "212", "--predict"],
    ["subnet", "3421", "--word", "21323", "--set", "121", "--predict"],
    ["subnet", "4321", "--word", "123121", "--set", "s4-longest-classes:3"],
    ["subnet", "4321", "--word", "123121", "--set", "s4-longest-classes:9"],
    ["subnet", "4321", "--word", "123121", "--set", "s4-longest-classes:-1"],
    ["subnet", "4321", "--word", "123121", "--set", "warrington-x", "-m", "3"],
    ["subnet", "4321", "--word", "123121", "--set", "s4-longest-classes:0", "-m", "7"],
    ["subnet", "4321", "--word", "123121", "--set", "warrington-x", "-m", "4"],
    ["subnet", "4321", "--word", "123121", "--set", ""],
    ["subnet", "4321", "--word", "123121", "--set", "", "-m", "3", "--format", "json"],
    ["subnet", "321", "--word", "121", "--set", "", "-m", "0"],
    ["subnet", "321", "--word", "121", "--set", "", "-m", "-3"],
    ["subnet", "321", "--word", "121", "--set", "1,a"],
    ["subnet", "321", "--word", "121", "--set", "1a"],
    ["subnet", "4321", "--word", "1,2,9", "--set", "121"],
    ["subnet", "4321", "--word", "1", "--set", "121"],
    ["subnet", "4321", "--word", "123121"],
    ["subnet", "4321", "--word", "123121", "--set", "212", "--predict", "--budget-words", "0"],
    ["subnet", "--help"],
    ["warrington", "4"],
    ["warrington", "4", "--classes", "--format", "json"],
    ["warrington", "5", "--format", "json"],
    ["warrington", "6", "--format", "json"],
    ["warrington", "6", "--budget-words", "1000"],
    ["warrington", "6", "--classes"],
    ["warrington", "0"],
    ["warrington", "-1"],
    ["warrington", "x"],
    ["warrington", "--help"],
    ["rect", "326514"],
    ["rect", "4321", "--format", "json"],
    ["rect", "3254761", "--format", "json"],
    ["rect", "321"],
    ["rect", "--help"],
    ["cycles", "3421"],
    ["cycles", "4321", "--format", "json"],
    ["cycles", "21"],
    ["cycles", "--help"],
    ["cube", "4321"],
    ["cube", "326514", "--format", "json"],
    ["cube", "123"],
    ["cube", "--help"],
    ["scan", "4", "--threads", "1"],
    ["scan", "3", "--threads", "1", "--format", "json"],
    ["scan", "3", "--threads", "0"],
    ["scan", "3", "--threads", "100000"],
    ["scan", "x"],
    ["scan", "3", "--suite", "all"],
    ["scan", "9"],
    ["scan", "--help"],
]


def capture(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:  # argparse exits on --help and on usage errors
            code = exc.code
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.fixture(scope="module")
def golden() -> dict:
    return {tuple(case["argv"]): case for case in json.loads(GOLDEN.read_text())}


def test_golden_covers_every_argv(golden):
    assert list(golden) == [tuple(argv) for argv in ARGVS]


@pytest.mark.parametrize("argv", ARGVS, ids=lambda argv: " ".join(argv) or "-")
def test_golden(argv, golden, monkeypatch):
    for key, value in ENV.items():
        monkeypatch.setenv(key, value)
    assert capture(argv) == golden[tuple(argv)]


if __name__ == "__main__":
    os.environ.update(ENV)
    GOLDEN.write_text(json.dumps([capture(argv) for argv in ARGVS], indent=1) + "\n")
