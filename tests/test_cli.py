import argparse
import json
import multiprocessing
import os
import signal
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from redweave import InvariantViolation, bounds, classes, perm, suite, words
from redweave.bounds import aggregate_bound_check
from redweave.cli import _threads, build_parser, run
from redweave.errors import THREADS_CAP


def out_of(capsys):
    return capsys.readouterr().out


def test_words_text(capsys):
    assert run(["words", "321"]) == 0
    assert out_of(capsys) == "1,2,1\n2,1,2\ncount 2\n"


def test_words_text_streams(capsys, monkeypatch):
    def one_word_then_fail(w):
        yield (1, 2, 1)
        raise RuntimeError("the word source failed after one word")

    monkeypatch.setattr(words, "reduced_letter_seqs", one_word_then_fail)
    with pytest.raises(RuntimeError):
        run(["words", "321"])
    assert out_of(capsys) == "1,2,1\n"  # printed before the next word was asked for


def test_words_counts_the_words_once(capsys, monkeypatch):
    # one walk serves the budget guard and the printed count: each of the 24
    # states below 4321 is expanded once by the guard and once by the word DFS
    read, real, outs = [], words.kids, []
    monkeypatch.setattr(words, "kids", lambda q: read.append(q) or real(q))
    for fmt in ("text", "json"):
        read.clear()
        assert run(["words", "4321", "--format", fmt]) == 0
        assert len(read) == 48 and set(Counter(read).values()) == {2}, fmt
        outs.append(out_of(capsys))
    assert outs[0].endswith("\ncount 16\n") and json.loads(outs[1])["count"] == 16


def test_words_identity(capsys):
    assert run(["words", "123"]) == 0
    assert "(empty)" in out_of(capsys)


def test_classes_json(capsys):
    assert run(["classes", "3421", "--format", "json"]) == 0
    doc = json.loads(out_of(capsys))
    assert doc["schema"] == "redweave/1"
    assert doc["count"] == 3
    assert doc["classes"][1] == {"id": 1, "canonical": [2, 1, 2, 3, 2], "size": 1}


def test_graph_json_and_dot(capsys):
    assert run(["graph", "4321", "--format", "json"]) == 0
    doc = json.loads(out_of(capsys))
    assert len(doc["vertices"]) == 8 and len(doc["edges"]) == 8
    assert run(["graph", "4321", "--format", "dot"]) == 0
    first = out_of(capsys)
    assert run(["graph", "4321", "--format", "dot"]) == 0
    assert out_of(capsys) == first  # deterministic
    assert first.startswith("graph G {")


def test_graph_json_shape(capsys):
    assert run(["graph", "3421", "--format", "json"]) == 0
    doc = json.loads(out_of(capsys))
    assert doc["schema"] == "redweave/1"
    assert doc["w"] == [3, 4, 2, 1]
    assert [v["rank"] for v in doc["vertices"]] == [0, 1, 2]
    assert doc["edges"][0]["labels"] == [{"letter": 1, "wires": [1, 2, 3]}]


def test_graph_dot_deterministic(capsys):
    assert run(["graph", "3421", "--format", "dot"]) == 0
    out = out_of(capsys)
    assert run(["graph", "3421", "--format", "dot"]) == 0
    assert out == out_of(capsys)
    assert out.startswith("graph G {")
    assert "n0 -- n1;" in out and "rank=same" in out


@pytest.mark.parametrize("command", ["graph", "poset"])
def test_dot_labels_no_edge(capsys, monkeypatch, command):
    # DOT prints the bare pairs: no crossing pass labels an edge
    calls = Counter()

    def counted(word, _real=words.crossing_events):
        calls[word.letters] += 1
        return _real(word)

    for mod in (classes, words):
        monkeypatch.setattr(mod, "crossing_events", counted)
    assert run([command, "4321", "--format", "dot"]) == 0
    assert "  n0 -- n1;\n" in out_of(capsys) and calls == {}


def test_commands_but_classes_make_no_class_records(capsys, monkeypatch):
    def refuse(g):
        raise AssertionError(f"G({g.w}) made its class records")

    monkeypatch.setattr(classes.ClassGraph, "vertices", property(refuse))
    for argv in (["scan", "5", "--threads", "1"], ["aggregate", "5", "6"], ["cycles", "4321"],
                 ["rect", "326514"], ["cube", "326514"], ["graph", "4321"], ["poset", "4321"]):
        for fmt in ("text", "json", "dot"):
            if fmt != "dot" or argv[0] in ("graph", "poset"):
                assert run([*argv, "--format", fmt]) == 0, (argv, fmt)


def test_poset_json(capsys):
    assert run(["poset", "3421", "--format", "json"]) == 0
    doc = json.loads(out_of(capsys))
    assert doc["ranks"] == {"0": 0, "1": 1, "2": 2}
    assert doc["covers"] == [[1, 0], [2, 1]]


def test_bounds(capsys):
    assert run(["bounds", "3421", "--actual", "--format", "json"]) == 0
    doc = json.loads(out_of(capsys))
    assert doc["Y"] == 2 and doc["lower"] == 3 and doc["actual"] == 3


def test_aggregate(capsys):
    assert run(["aggregate", "3", "2", "--format", "json"]) == 0
    doc = json.loads(out_of(capsys))
    assert doc["sum_classes"] == 2 and doc["catalan"] == 14
    assert run(["aggregate", "3", "3"]) == 0
    assert run(["aggregate", "3", "100"]) == 1  # no w in S_3 has length 100
    assert run(["aggregate", "3", "-1"]) == 1


def test_violation_is_raised_after_printing(capsys, monkeypatch):
    failing = aggregate_bound_check(3, 2)._replace(injective=False)
    monkeypatch.setattr(bounds, "aggregate_bound_check", lambda *args, **kwargs: failing)
    assert run(["aggregate", "3", "2"]) == 2
    out, err = capsys.readouterr()
    assert out.endswith("injective: False\n")
    assert err == "invariant violation: aggregate bound fails for n=3, l=2\n"


def test_subnet_with_prediction(capsys):
    code = run(
        [
            "subnet",
            "4321",
            "--word",
            "2,3,2,1,2,3",
            "--set",
            "warrington-x",
            "--predict",
            "--format",
            "json",
        ]
    )
    assert code == 0
    doc = json.loads(out_of(capsys))
    assert doc["count"] == 1 and doc["predicted"] == 1


def test_subnet_friendly_prediction(capsys):
    code = run(
        ["subnet", "3421", "--word", "21323", "--set", "212", "--predict"]
    )
    assert code == 0
    assert "predicted: 2" in out_of(capsys)


def test_subnet_no_formula_is_input_error(capsys):
    code = run(["subnet", "3421", "--word", "21323", "--set", "121", "--predict"])
    assert code == 1


def test_warrington(capsys):
    assert run(["warrington", "4"]) == 0
    assert out_of(capsys).strip() == "12"
    assert run(["warrington", "4", "--classes", "--format", "json"]) == 0
    assert json.loads(out_of(capsys))["count"] == 4


def test_rect(capsys):
    assert run(["rect", "326514", "--format", "json"]) == 0
    doc = json.loads(out_of(capsys))
    assert doc["rectangular"] and doc["dims"] == [1, 2]
    assert run(["rect", "4321", "--format", "json"]) == 0
    doc = json.loads(out_of(capsys))
    assert not doc["rectangular"] and doc["witness_pattern"] == "4321"


def test_rect_exits_2_when_the_poset_fails(capsys, monkeypatch):
    def broken(g):
        raise InvariantViolation(f"poset of {g.w} broke")

    monkeypatch.setattr(classes, "build_poset", broken)
    assert run(["rect", "326514"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("invariant violation:")


def test_cycles(capsys):
    assert run(["cycles", "3421", "--format", "json"]) == 0
    doc = json.loads(out_of(capsys))
    assert doc["pairs"] == [{"v": 1, "a": 0, "b": 2, "verdict": "no_induced_cycle"}]


def test_cube(capsys):
    assert run(["cube", "4321", "--format", "json"]) == 0
    doc = json.loads(out_of(capsys))
    assert doc["dimension"] == 1 and len(doc["classes"]) == 2


def test_graph_builds_json_rows_for_json_alone():
    # text and DOT print no payload, so they build none of its rows
    for fmt in ("text", "dot", "json"):
        args = build_parser().parse_args(["graph", "4321", "--format", fmt])
        assert ({"vertices", "edges"} <= args.func(args).payload.keys()) == (fmt == "json"), fmt


def test_poset_payload_is_p_of_w_itself(monkeypatch):
    # the JSON of P(w) is its own rank dict and cover tuple, rebuilt in no format
    posets, real = [], classes.build_poset
    monkeypatch.setattr(classes, "build_poset", lambda g: posets.append(real(g)) or posets[-1])
    for fmt in ("text", "dot", "json"):
        args = build_parser().parse_args(["poset", "4321", "--format", fmt])
        payload = args.func(args).payload
        assert payload["ranks"] is posets[-1].rank and payload["covers"] is posets[-1].covers, fmt


def test_json_is_streamed_not_rendered_whole(capsys, monkeypatch):
    # the document is written as the encoder yields it, never as one string
    assert run(["graph", "4321", "--format", "json"]) == 0
    whole = out_of(capsys)

    def no_dumps(*args, **kwargs):
        raise AssertionError("the JSON document was rendered whole")

    monkeypatch.setattr(json, "dumps", no_dumps)
    assert run(["graph", "4321", "--format", "json"]) == 0
    assert out_of(capsys) == whole and json.loads(whole)["w"] == [4, 3, 2, 1]


def test_scan_clean(capsys):
    assert run(["scan", "4", "--threads", "1"]) == 0
    assert "0 violation(s)" in out_of(capsys)


@pytest.mark.usefixtures("light_shares")
def test_scan_reports_each_member_of_a_failing_orbit(capsys, monkeypatch):
    # a check patched to fail on one whole orbit: the job of its least w
    # checks every member again, in the pool's workers too (forks of this
    # process, so they see the patch), and each is reported once, in order
    orbit = sorted(set(perm._orbit((2, 4, 5, 1, 3))))
    assert len(orbit) == 4

    def cube(g):
        if g.w in orbit:
            raise InvariantViolation(f"no cube in G({g.w})")

    monkeypatch.setattr(suite, "embed_hypercube", cube)
    outs = []
    for threads in ("1", "2"):
        assert run(["scan", "5", "--threads", threads]) == 2
        outs.append(out_of(capsys))
    assert outs[0] == outs[1] == "".join(f"no cube in G({w})\n" for w in orbit) + (
        "S_5: 4 violation(s)\n")


@pytest.mark.usefixtures("light_shares")
@pytest.mark.parametrize("threads", ["100000", str(THREADS_CAP + 1)])
def test_scan_refuses_threads_past_the_cap_before_any_pool(capsys, monkeypatch, threads):
    def no_worker(*args, **kwargs):
        raise AssertionError("a worker started")

    monkeypatch.setattr(multiprocessing, "Process", no_worker)
    assert run(["scan", "3", "--threads", threads]) == 1
    assert capsys.readouterr().err.endswith(f" is above {THREADS_CAP}\n")


def test_threads_cap_is_allowed_and_bounds_the_default(monkeypatch):
    assert _threads(argparse.Namespace(threads=THREADS_CAP)) == THREADS_CAP
    monkeypatch.setattr(os, "cpu_count", lambda: 10 * THREADS_CAP)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(10 * THREADS_CAP)),
                        raising=False)
    assert _threads(argparse.Namespace(threads=None)) == THREADS_CAP


def test_default_threads_are_the_cpus_this_process_may_use(monkeypatch):
    # a container held to 2 CPUs of a 64-core host starts 2 workers, not 64
    default = argparse.Namespace(threads=None)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5}, raising=False)
    assert _threads(default) == 2
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)  # as on macOS and Windows
    assert _threads(default) == 64
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _threads(default) == 1


def test_scan_refuses_past_the_cap_before_any_work(capsys, monkeypatch):
    def fail(*args):
        raise AssertionError("check_permutation ran")

    monkeypatch.setattr(suite, "check_permutation", fail)
    assert run(["scan", "9", "--threads", "1"]) == 3
    assert capsys.readouterr().err == "budget refusal: refusing to enumerate S_9 (cap is 8)\n"


def test_subnet_rejects_a_word_of_another_permutation(capsys):
    for perm, word in (("4321", "1"), ("321", "1,2,1,2")):
        assert run(["subnet", perm, "--word", word, "--set", "121"]) == 1
        out = capsys.readouterr()
        assert out.out == "" and "is not a reduced word of" in out.err
    assert run(["subnet", "4321", "--word", "123121", "--set", "121"]) == 0


def test_exit_codes(capsys):
    assert run(["words", "3x21"]) == 1
    assert run(["classes", "1231"]) == 1
    assert run(["words", "7654321", "--budget-words", "100"]) == 3
    assert run(["words", "321", "--budget-words", "100"]) == 0
    assert run(["bounds", "21", "--budget-words", "0"]) == 3  # a budget, refused


def test_long_permutation_needs_no_deep_recursion(capsys):
    for top in (600, 1100):
        # 2,3,...,top,1 has one reduced word of top - 1 letters
        perm = ",".join(map(str, [*range(2, top + 1), 1]))
        assert run(["words", perm, "--format", "json"]) == 0
        assert json.loads(out_of(capsys))["count"] == 1
        assert run(["classes", perm, "--format", "json"]) == 0
        assert json.loads(out_of(capsys))["count"] == 1


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--version"])
    assert exc.value.code == 0


def exit_code(argv):
    try:
        return run(argv)
    except SystemExit as exc:  # argparse exits on --help and on usage errors
        return exc.code


@pytest.mark.parametrize("argv", [["--help"], ["scan", "--help"]])
def test_help(capsys, argv):
    assert exit_code(argv) == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["frob"],
        ["words", "4321", "--format", "bogus"],
        ["scan", "x"],
        ["words", "4321", "--format", "dot"],  # dot is for graph and poset only
        ["bounds", "4321", "--format", "dot"],
        ["words", "321", "--threads", "2"],  # only scan runs in parallel
        ["scan", "3", "--threads", "0"],
        ["scan", "3", "--threads", "-2"],
        ["scan", "3", "--suite", "all"],
        ["bounds", "21", "--budget-words", "-5"],  # invalid, not a refusal
    ],
)
def test_usage_errors_exit_1(capsys, argv):
    # exit 2 is reserved for invariant violations
    assert exit_code(argv) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["abc", "1e"])
def test_a_budget_that_is_no_number_exits_1(capsys, text):
    # text that Decimal cannot parse is refused as "nan" is, with no traceback
    assert exit_code(["bounds", "21", "--budget-words", text]) == 1
    err = capsys.readouterr().err
    assert err.endswith(f"error: argument --budget-words: {text!r} is not an integer\n")


def src_env() -> dict:
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="no fork")
def test_a_worker_that_dies_stops_the_scan():
    # the worker's share's job kills its own process, as an out-of-memory
    # kill would: the scan ends, with the worker's exit code on one line and
    # no traceback, instead of waiting for results that never come
    code = """if 1:
        import multiprocessing, os, signal, sys
        from redweave import classes, suite
        from redweave.cli import run
        here, real = os.getpid(), suite._check_orbit
        def job(g):
            if os.getpid() != here:
                os.kill(os.getpid(), signal.SIGKILL)
            return real(g)
        suite._check_orbit = job
        classes._SHARE_CLASSES = 1  # S_6 is too light to start a worker otherwise
        multiprocessing.set_start_method("fork")
        sys.exit(run(["scan", "6", "--threads", "2"]))
    """
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=src_env(), timeout=30)
    assert (out.returncode, out.stdout) == (4, "")
    assert out.stderr == (f"worker failure: a scan worker exited with code {-signal.SIGKILL} "
                          "before it sent its results\n")


@pytest.mark.parametrize("module", ["redweave", "redweave.cli"])
def test_python_dash_m(module):
    out = subprocess.run(
        [sys.executable, "-m", module, "words", "321", "--format", "json"],
        capture_output=True, text=True, env=src_env(), timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["count"] == 2


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE here")
def test_closed_stdout_ends_quietly():
    # w0 of S_6 has 292,864 words: far more than one pipe buffer
    proc = subprocess.Popen(
        [sys.executable, "-m", "redweave", "words", "654321"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=src_env(),
    )
    assert proc.stdout.readline() == b"1,2,1,3,2,1,4,3,2,1,5,4,3,2,1\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == -signal.SIGPIPE
    assert err == b""


def test_bounds_lists_no_classes(capsys, monkeypatch):
    def no_class_list(*args):
        raise AssertionError("the bounds listed the classes")

    monkeypatch.setattr(words, "_canonical_words", no_class_list)
    monkeypatch.setattr(classes, "ClassGraph", no_class_list)  # the one build of G(w)
    assert run(["bounds", "654321", "--actual", "--format", "json"]) == 0
    assert json.loads(out_of(capsys))["actual"] == 908


def test_bounds_without_actual_counts_no_classes(capsys, monkeypatch):
    def no_class_count(*args):
        raise AssertionError("the bounds counted the classes")

    monkeypatch.setattr(bounds, "_class_count", no_class_count)
    assert run(["bounds", "4321"]) == 0
    assert out_of(capsys).endswith("actual: None\n")
