"""Import discipline: ``import redweave`` and the CLI load only what a run needs.

The package exports its names lazily, and each CLI command imports the
layers it runs, so a fresh interpreter pays only for the command it runs.
What a fresh interpreter has loaded is read in a subprocess.
"""

import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import redweave

SRC = str(Path(__file__).resolve().parents[1] / "src")
ENV = {**os.environ,
       "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
# what neither `import redweave.cli` nor `warrington` may load
HEAVY = {"redweave.classes", "redweave.subnet", "redweave.structure", "redweave.suite",
         "redweave.bounds", "dataclasses"}

PROBE = """
import contextlib, io, json, sys
steps = {}
import redweave
steps["redweave"] = sorted(sys.modules)
import redweave.cli
steps["redweave.cli"] = sorted(sys.modules)
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert redweave.cli.run(argv) == 0
    steps[" ".join(argv)] = sorted(sys.modules)
print(json.dumps(steps))
"""


def loaded_after(*argvs: list[str]) -> dict[str, set[str]]:
    """The modules a fresh interpreter holds after each step of the probe."""
    out = subprocess.run([sys.executable, "-c", PROBE, json.dumps(argvs)], capture_output=True,
                         text=True, check=True, env=ENV, timeout=60)
    return {step: set(mods) for step, mods in json.loads(out.stdout).items()}


def test_a_command_loads_only_its_own_layers():
    loaded = loaded_after(["warrington", "6"], ["warrington", "5", "--classes"],
                          ["bounds", "4321", "--actual"], ["bounds", "4321"],
                          ["aggregate", "4", "3"], ["graph", "4321"],
                          ["subnet", "3421", "--word", "21323", "--set", "212", "--predict"],
                          ["scan", "4", "--threads", "1"])  # the last loads every layer
    assert {m for m in loaded["redweave"] if m.startswith("redweave")} == {
        "redweave", "redweave.errors"}
    assert not HEAVY & loaded["redweave.cli"]
    for step in "warrington 6", "warrington 5 --classes":  # the fold builds no G(w)
        assert not HEAVY & loaded[step], step
    # the bounds of one w read the DAG: no class list, so no G(w) layer
    assert "redweave.classes" not in loaded["bounds 4321 --actual"]
    assert "redweave.classes" not in loaded["aggregate 4 3"]  # nor does the aggregate
    assert HEAVY - {"dataclasses"} <= loaded["scan 4 --threads 1"]
    for step, modules in loaded.items():  # the records are NamedTuples
        assert "dataclasses" not in modules, step


@pytest.mark.parametrize("name", redweave.__all__)
def test_every_export_resolves_and_is_listed(name):
    assert name in dir(redweave)
    home = import_module(f"redweave.{redweave._MODULE_OF.get(name, 'errors')}")
    assert getattr(redweave, name) is getattr(home, name)
    namespace: dict = {}
    exec(f"from redweave import {name}", namespace)
    assert namespace[name] is getattr(home, name)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'count_212'"):
        redweave.count_212  # moved to the test oracles
    with pytest.raises(ImportError):
        exec("from redweave import build_graphs", {})
