"""Run a batch of redweave CLI argv lists in this process, one after another.

Reads a JSON list of argv lists on stdin, calls ``redweave.cli.run`` on
each with stdout and stderr captured, and prints one JSON object:
``{"results": [[exit code, stdout, stderr], ...]}``.  The ``scan`` cache
is shared by the calls, as it is in any process that calls the library
repeatedly.

With ``--trace`` the public functions of every redweave module are
wrapped first (see ``tracer.py``) and the object also carries the
tracer's report.

    PYTHONPATH=src python3 perfbench/batch.py [--trace] < argvs.json
"""

from __future__ import annotations

import contextlib
import io
import json
import sys


def run_batch(argvs: list[list[str]], tracer=None) -> list[list]:
    from redweave.cli import run

    results = []
    for i, argv in enumerate(argvs):
        if tracer is not None:
            tracer.request = i
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = run(argv)
            except SystemExit as exc:  # argparse rejects the argv
                code = exc.code if isinstance(exc.code, int) else 1
        results.append([code, out.getvalue(), err.getvalue()])
    return results


def main() -> None:
    argvs = json.load(sys.stdin)
    doc: dict = {}
    tracer = None
    if "--trace" in sys.argv[1:]:
        from tracer import Tracer

        tracer = Tracer()
        doc["wrapped"] = tracer.install()
    doc["results"] = run_batch(argvs, tracer)
    if tracer is not None:
        doc["trace"] = tracer.report()
    json.dump(doc, sys.stdout)


if __name__ == "__main__":
    main()
