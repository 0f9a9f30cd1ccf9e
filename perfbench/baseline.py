"""Summarize the results in perfbench/out into perfbench/baseline.json.

    python3 perfbench/baseline.py COMMIT

For every workload: the seeds run, calls attempted and failed, and per
metric the median and quartiles over the runs (end-to-end metrics from
``--trace 0`` runs, per-layer metrics from ``--trace 1`` runs).
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def summary(values: list[float]) -> dict:
    out = {"n": len(values), "median": statistics.median(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3,
                   spread=(q3 - q1) / out["median"] if out["median"] else None)
    return out


def main() -> None:
    runs = [json.loads(p.read_text()) for p in sorted((HERE / "out").glob("*.json"))]
    if not runs:
        sys.exit("no results in perfbench/out; run perfbench/run.py first")
    workloads: dict[str, dict] = {}
    for r in runs:
        wl = workloads.setdefault(r["workload"], {
            "seeds": [], "traced_seeds": [], "attempted": 0, "failed": 0,
            "end_to_end": {}, "layers": {}})
        wl["traced_seeds" if r["layers"] else "seeds"].append(r["seed"])
        wl["attempted"] += r["attempted"]
        wl["failed"] += r["failed"]
        for kind in ("end_to_end", "layers"):
            if kind == "end_to_end" and r["layers"]:
                continue  # a traced run makes one untraced pass only
            for name, m in r[kind].items():
                wl[kind].setdefault(name, {"unit": m["unit"], "values": []})["values"].append(
                    m["value"])
    for wl in workloads.values():
        for kind in ("end_to_end", "layers"):
            for m in wl[kind].values():
                m.update(summary(m.pop("values")))
    doc = {
        "commit": sys.argv[1] if len(sys.argv) > 1 else None,
        "python": sorted({r["python"] for r in runs}),
        "cpus": sorted({r["cpus"] for r in runs}),
        "seconds": sorted({r["seconds"] for r in runs}),
        "workloads": workloads,
    }
    (HERE / "baseline.json").write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
