"""redweave benchmark: runs one workload of CLI calls and checks every output.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is ``src/redweave``, used
from source (``PYTHONPATH=src``).  One client in a closed loop: each call
starts only when the previous one has exited, and every CLI call is a
fresh interpreter, so the ``scan`` cache starts cold as it does for a
CLI user.  The workload is repeated as many whole times as fit in
``--seconds`` (at least once); each time value is the median over those
repetitions.

``--trace 0`` prints the end-to-end metrics:

- ``wall_s``: seconds from spawning the workload's first process to the
  exit of its last.
- ``cpu_s``: user plus system CPU seconds of every process, pool workers
  included (read with ``os.wait4``, which counts waited-for children).
- ``peak_rss_mb``: the largest max-RSS of any one process of the run.
- ``setup_s``: interpreter start plus ``import redweave.cli``, the cost
  every CLI call pays; the median of ``SETUP_REPEATS`` fresh processes.

``fail_ratio`` (calls whose exit code or output is wrong, over calls
attempted) is printed as a line and is ``failed``/``attempted`` in the
result; it is 0 when the program is right, so it is not a bounded metric.

``--trace 1`` runs the workload once untraced and once traced.  The
traced run calls the same argv through ``redweave.cli.run`` in a fresh
process per CLI call (one process for ``s7_struct``) with the public
functions of every redweave module wrapped by ``tracer.py``, and prints
the per-layer metrics of ``LAYER_METRICS``, ``trace.overhead_s`` being
traced minus untraced ``wall_s`` (one pass each, so host noise can make
it negative).  Pool workers of ``scan`` import an
unwrapped redweave, so on ``s6_sweep`` only the parent is traced.

Every metric is printed as a line.  The last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; ``metrics`` holds the ``end_to_end`` (``--trace 0``) or
``per_layer`` (``--trace 1``) metrics that BENCHMARK.json lists.  The
full result, with the generated inputs and the trace spans, goes to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracer import MODULES
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
CLI = "import sys; from redweave.cli import run; sys.exit(run(sys.argv[1:]))"
SETUP_REPEATS = 9
DEADLINE_S = 170  # a run never outlives this; a child past it is killed

# Per-layer metrics, named after the modules of src/redweave.
# "<module>.<function>.<stat>" reads a tracer stat of one function,
# "<module>.self_s" sums the self time of the module's functions (their
# generators' included), other names are tracer counters.
LAYER_METRICS = {
    "words.canonical_letters.calls": "count",
    "words.canonical_letters.self_s": "s",
    "words.reduced_letter_seqs.words_yielded": "count",
    "words.reduced_letter_seqs.iter_s": "s",
    "words.count_reduced_words.calls": "count",
    "words.count_reduced_words.total_s": "s",
    "classes.scan.calls": "count",
    "classes.scan.self_s": "s",
    "classes.scan.cache_hits": "count",
    "classes.scan.cache_misses": "count",
    "classes.scan.words_visited": "count",
    "classes.scan.classes_found": "count",
    "classes.scan.words_per_class": "words/class",
    "classes.build_graph.total_s": "s",
    "classes.build_poset.self_s": "s",
    "classes.class_members.calls": "count",
    "classes.class_members.self_s": "s",
    "subnet.has_subnetwork.calls": "count",
    "subnet.has_subnetwork.self_s": "s",
    "subnet.count_subnetworks.calls": "count",
    "subnet.count_subnetworks.self_s": "s",
    "subnet.count_x_avoiding_words.total_s": "s",
    "structure.classify_edge_pair.calls": "count",
    "structure.classify_edge_pair.self_s": "s",
    "structure.classify_edge_pair.total_s": "s",
    "structure.rectangle_label.total_s": "s",
    "structure.embed_hypercube.total_s": "s",
    "bounds.aggregate_bound_check.total_s": "s",
    "bounds.aggregate_bound_check.scan_misses": "count",
    "bounds.size_bounds.total_s": "s",
    "suite.check_permutation.calls": "count",
    "suite.scan_sn.self_s": "s",
    "perm.pattern_count.calls": "count",
    "perm.pattern_count.self_s": "s",
    "cli.run.calls": "count",
    "cli.run.self_s": "s",
    **{f"{m}.self_s": "s" for m in MODULES},
    "trace.overhead_s": "s",
}


def child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("REDWEAVE_THREADS", None)  # scan gets --threads explicitly
    return env


def spawn(cmd: list[str], stdin: str, deadline: float) -> dict:
    """Run one child to its exit; returns its output and its own rusage.

    At ``deadline`` (monotonic), or when this process is interrupted, the
    child's whole process group, pool workers included, is killed."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(), stdin=subprocess.PIPE,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )

    def kill():
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    chunks: dict[str, str] = {}

    def drain(name, stream):
        chunks[name] = stream.read()

    readers = [threading.Thread(target=drain, args=(n, s))
               for n, s in (("out", proc.stdout), ("err", proc.stderr))]
    for r in readers:
        r.start()
    killer = threading.Timer(max(0.0, deadline - time.monotonic()), kill)
    killer.start()
    try:
        try:
            proc.stdin.write(stdin)
            proc.stdin.close()
        except BrokenPipeError:
            pass
        # wait4 reports this child's own rusage (plus the children it reaped),
        # unlike RUSAGE_CHILDREN, which is a running maximum over all children
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    except BaseException:
        kill()
        os.wait4(proc.pid, 0)
        raise
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    for r in readers:
        r.join()
    proc.stdout.close()
    proc.stderr.close()
    return {
        "code": proc.returncode,
        "stdout": chunks.get("out", ""),
        "stderr": chunks.get("err", ""),
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024,
    }


def measure_setup(deadline: float) -> float:
    times = []
    for _ in range(SETUP_REPEATS):
        r = spawn([sys.executable, "-c", "import redweave.cli"], "", deadline)
        if r["code"] != 0:
            raise RuntimeError(f"import redweave.cli failed: {r['stderr'][-500:]}")
        times.append(r["wall"])
    return statistics.median(times)


def run_once(workload, traced: bool, deadline: float) -> dict:
    """One pass over the workload's processes; outputs are checked after it."""
    runs = []
    t0 = time.perf_counter()
    for calls in workload.processes:
        if len(calls) == 1 and not traced:
            runs.append(spawn([sys.executable, "-c", CLI, *calls[0].argv], "", deadline))
        else:
            cmd = [sys.executable, str(HERE / "batch.py")] + (["--trace"] if traced else [])
            runs.append(spawn(cmd, json.dumps([c.argv for c in calls]), deadline))
    wall = time.perf_counter() - t0

    outcomes, reports = [], []
    for calls, r in zip(workload.processes, runs):
        if len(calls) == 1 and not traced:
            outcomes.append((calls, [[r["code"], r["stdout"], r["stderr"]]]))
            continue
        try:
            doc = json.loads(r["stdout"])
        except ValueError:
            doc = {}
        results = doc.get("results") or []
        if len(results) != len(calls):  # the batch died before reporting
            results = [[r["code"] or -1, "", r["stderr"][-500:]]] * len(calls)
        outcomes.append((calls, results))
        if "trace" in doc:
            reports.append(doc["trace"])
    attempted, failures = score(outcomes)
    return {"wall": wall, "cpu": sum(r["cpu"] for r in runs),
            "rss_mb": max(r["rss_mb"] for r in runs), "attempted": attempted,
            "failures": failures, "reports": reports}


def score(outcomes) -> tuple[int, list[dict]]:
    """Check every call; ``outcomes`` pairs each process's calls with its
    ``[exit code, stdout, stderr]`` results.  Returns (attempted, failures)."""
    attempted, failures = 0, []
    for calls, results in outcomes:
        for call, (code, out, err) in zip(calls, results):
            attempted += 1
            reason = call.check(code, out, err)
            if reason is not None:
                failures.append({"argv": call.argv, "reason": reason})
    return attempted, failures


def merge_reports(reports: list[dict]) -> tuple[dict, dict]:
    stats: dict[str, dict[str, float]] = {}
    counters: dict[str, float] = {}
    for rep in reports:
        for name, st in rep["stats"].items():
            acc = stats.setdefault(name, dict.fromkeys(st, 0))
            for k, v in st.items():
                acc[k] += v
        for k, v in rep["counters"].items():
            counters[k] = counters.get(k, 0) + v
    return stats, counters


def layer_metrics(stats: dict, counters: dict, overhead: float) -> dict:
    out = {}
    for metric, unit in LAYER_METRICS.items():
        fn, _, stat = metric.rpartition(".")
        if metric in counters:
            value = counters[metric]
        elif metric == "classes.scan.words_per_class":
            found = counters.get("classes.scan.classes_found", 0)
            value = counters.get("classes.scan.words_visited", 0) / found if found else 0.0
        elif metric == "trace.overhead_s":
            value = overhead
        elif fn in MODULES:
            value = sum(st["self_s"] + st["iter_self_s"]
                        for name, st in stats.items() if name.startswith(fn + "."))
        else:
            stat = "yielded" if stat == "words_yielded" else stat
            value = stats.get(fn, {}).get(stat, 0)
        out[metric] = {"value": value, "unit": unit}
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    spec_path = ROOT / "BENCHMARK.json"
    missing = [p for p in (spec_path, SRC / "redweave" / "cli.py", ROOT / "tests" / "oracles.py")
               if not p.is_file()]
    if missing:
        print(f"benchmark needs {', '.join(map(str, missing))}; run it from a "
              "redweave checkout", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(ROOT / "tests"))  # the oracles
    sys.path.insert(0, str(SRC))

    deadline = time.monotonic() + DEADLINE_S
    started = time.perf_counter()
    setup_s = measure_setup(deadline)
    workload = WORKLOADS[args.workload](args.seed)

    passes, traced_pass = [], None
    loop_start = time.perf_counter()
    while True:
        passes.append(run_once(workload, traced=False, deadline=deadline))
        elapsed = time.perf_counter() - loop_start
        # stop before a pass that would end after --seconds
        if args.trace or elapsed * (len(passes) + 1) / len(passes) > args.seconds:
            break
    if args.trace:
        traced_pass = run_once(workload, traced=True, deadline=deadline)

    every = passes + ([traced_pass] if traced_pass else [])
    attempted = sum(p["attempted"] for p in every)
    failures = [f for p in every for f in p["failures"]]
    wall_s = statistics.median(p["wall"] for p in passes)
    end_to_end = {
        "wall_s": {"value": wall_s, "unit": "s"},
        "cpu_s": {"value": statistics.median(p["cpu"] for p in passes), "unit": "s"},
        "peak_rss_mb": {"value": max(p["rss_mb"] for p in passes), "unit": "MB"},
        "setup_s": {"value": setup_s, "unit": "s"},
    }
    stats, counters, layers = {}, {}, {}
    if traced_pass:
        stats, counters = merge_reports(traced_pass["reports"])
        layers = layer_metrics(stats, counters, traced_pass["wall"] - wall_s)
    shown = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: (layers or end_to_end)[m["name"]] for m in shown}

    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "inputs": workload.inputs,
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "attempted": attempted,
        "failed": len(failures),
        "passes": [{k: p[k] for k in ("wall", "cpu", "rss_mb", "attempted")} for p in passes],
        "end_to_end": end_to_end,
        "layers": layers,
        "stats": stats,
        "counters": counters,
        "failures": failures,
        "traces": traced_pass["reports"] if traced_pass else [],
        "run_s": time.perf_counter() - started,
    }))

    for f in failures[:20]:
        print(f"FAIL {' '.join(f['argv'])}: {f['reason']}")
    print(f"{args.workload} seed {args.seed}: {len(passes)} pass(es), "
          f"{attempted} calls, fail_ratio {len(failures) / attempted:.4f}")
    for name, m in {**end_to_end, **layers}.items():
        value = m["value"]
        print(f"  {name} = {value if isinstance(value, int) else f'{value:.6g}'} {m['unit']}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
