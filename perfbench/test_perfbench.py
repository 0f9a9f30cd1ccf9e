"""Tests of the benchmark's own checks and tracer.

    PYTHONPATH=src python3 -m pytest perfbench
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "tests")]

import run  # noqa: E402
from workloads import (  # noqa: E402
    Call, OracleGraph, Workload, expect_cycles, expect_graph, expect_json,
    expect_refusal, s7_sample, w0_deep,
)

W0_WARRINGTON_OUT = json.dumps({"schema": "redweave/1", "n": 6, "kind": "words",
                                "count": 54520})
W0_BOUNDS_OUT = json.dumps({"schema": "redweave/1", "actual": 908})


def fail_ratio(workload, results):
    attempted, failures = run.score(zip(workload.processes, results))
    return len(failures) / attempted


def test_right_answers_score_zero():
    wl = w0_deep(1)
    assert fail_ratio(wl, [[[0, W0_WARRINGTON_OUT, ""]], [[0, W0_BOUNDS_OUT, ""]]]) == 0


@pytest.mark.parametrize("avoiding, classes", [(54521, 908), (54520, 907)])
def test_wrong_expected_value_counts_as_failure(avoiding, classes):
    wl = w0_deep(1, avoiding=avoiding, classes=classes)
    assert fail_ratio(wl, [[[0, W0_WARRINGTON_OUT, ""]], [[0, W0_BOUNDS_OUT, ""]]]) == 0.5


def test_wrong_exit_code_or_empty_output_counts_as_failure():
    wl = w0_deep(1)
    assert fail_ratio(wl, [[[1, W0_WARRINGTON_OUT, ""]], [[0, "", ""]]]) == 1


def test_refusal_check():
    assert expect_refusal(3, "", "budget refusal: 10 words exceed 5\n") is None
    assert expect_refusal(0, "", "budget refusal: x") is not None
    assert expect_refusal(3, "partial\n", "budget refusal: x") is not None
    assert expect_refusal(3, "", "Traceback (most recent call last)") is not None


def test_run_once_counts_a_real_wrong_answer():
    # bounds 3421 --actual reports 3 classes; expecting 4 must fail the call
    wl = Workload([
        [Call(["bounds", "3421", "--actual", "--format", "json"],
              expect_json("actual", 3))],
        [Call(["bounds", "3421", "--actual", "--format", "json"],
              expect_json("actual", 4))],
    ])
    result = run.run_once(wl, traced=False, deadline=time.monotonic() + 60)
    assert result["attempted"] == 2
    assert [f["argv"] for f in result["failures"]] == [wl.processes[1][0].argv]
    assert result["cpu"] > 0 and result["rss_mb"] > 0


def cli_output(argv):
    out = subprocess.run([sys.executable, "-c", run.CLI, *argv], capture_output=True,
                         text=True, cwd=run.ROOT, env=run.child_env())
    return out.returncode, out.stdout, out.stderr


def test_graph_and_cycles_checks_against_oracle():
    g = OracleGraph((4, 3, 2, 1))
    assert len(g.canonical) == 8 and len(g.edges) == 8
    code, out, err = cli_output(["graph", "4321", "--format", "json"])
    assert expect_graph(g)(code, out, err) is None
    tampered = json.loads(out)
    tampered["edges"].pop()
    assert expect_graph(g)(0, json.dumps(tampered), "") is not None
    cycles = cli_output(["cycles", "4321", "--format", "json"])
    assert expect_cycles(g.verdicts())(*cycles) is None


def test_s7_sample_is_seeded_and_stratified():
    a, b = s7_sample(7), s7_sample(7)
    assert a == b and a != s7_sample(8)
    lengths = [sum(1 for i in range(7) for j in range(i + 1, 7) if w[i] > w[j]) for w in a]
    assert sorted(set(lengths)) == [9, 10, 11, 12, 13]
    assert all(lengths.count(l) == len(a) // 5 for l in set(lengths))
    assert len(set(a)) == len(a)


def test_tracer_patches_every_namespace_and_times_generators():
    argvs = [["bounds", "3421", "--actual", "--format", "json"]]
    out = subprocess.run([sys.executable, str(HERE / "batch.py"), "--trace"],
                         input=json.dumps(argvs), capture_output=True, text=True,
                         cwd=run.ROOT, env=run.child_env(), check=True)
    doc = json.loads(out.stdout)
    assert doc["results"][0][0] == 0
    trace = doc["trace"]
    stats, counters = trace["stats"], trace["counters"]
    # size_bounds reaches scan through structure.max_braid_moves and through
    # its own import in bounds: both bindings must be wrapped
    assert stats["classes.scan"]["calls"] == 2
    assert counters["classes.scan.cache_misses"] == 1
    assert counters["classes.scan.cache_hits"] == 1
    assert counters["classes.scan.classes_found"] == 3
    assert stats["words.reduced_letter_seqs"]["yielded"] == 5  # |R(3421)|
    assert stats["words.reduced_letter_seqs"]["iter_s"] > 0
    assert counters["classes.scan.words_visited"] == 5
    for st in stats.values():
        assert st["self_s"] <= st["total_s"] + 1e-9
    assert trace["spans"] and trace["dropped_spans"] == 0


# Known defects of redweave that keep s7_struct out of BENCHMARK.json.
# When one is fixed its test passes, strict xfail turns that into a
# failure, and the marker comes off.
@pytest.mark.xfail(strict=True, reason="classify_edge_pair misses induced 8-cycles")
def test_cycles_agrees_with_oracle_on_346521():
    check = expect_cycles(OracleGraph((3, 4, 6, 5, 2, 1)).verdicts())
    assert check(*cli_output(["cycles", "346521", "--format", "json"])) is None


@pytest.mark.xfail(strict=True, reason="rect: pattern test and labelling disagree")
def test_rect_exits_0_on_3254761():
    assert cli_output(["rect", "3254761", "--format", "json"])[0] == 0
