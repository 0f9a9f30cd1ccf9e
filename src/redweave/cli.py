"""Command-line front door: a table of commands over library calls.

A command parses its arguments, imports the library calls it runs (so a
run loads only its own layers), calls them and returns an ``_Output``:
its payload (the JSON document without ``"schema"``) and, where the
default does not fit, its text lines, DOT lines and a failed invariant.
``run`` is the only code that prints: JSON with the schema first, DOT,
or text (``key: value`` lines of the payload unless the command has its
own), and then it raises the failed invariant.

Exit codes: 0 success, 1 invalid input, 2 internal invariant violation,
3 enumeration budget refused, 4 a ``scan`` worker exited before it sent its results.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import sys
from itertools import chain, islice
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple

from .errors import BudgetExceeded, InputError, InvariantViolation, THREADS_CAP, WORD_BUDGET_DEFAULT
from . import __version__

if TYPE_CHECKING:  # a command loads the layers it runs when it runs
    from .classes import ClassGraph, RankedPoset

SCHEMA = "redweave/1"


class _Output(NamedTuple):
    """What a command computed, for ``run`` to print."""

    payload: dict                      # the JSON document without "schema"
    text: Iterable[str] | None = None  # None: "key: value" lines of the payload
    dot: Iterable[str] | None = None   # graph and poset only
    violation: str | None = None       # a failed invariant, raised after printing


def _csv(letters) -> str:
    return ",".join(map(str, letters))


def _threads(args) -> int:
    if args.threads is None:  # the CPUs this process may run on, where the platform says
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        return min(cpus or 1, THREADS_CAP)
    if args.threads < 1:
        raise InputError(f"--threads {args.threads} is below 1")
    if args.threads > THREADS_CAP:  # refused before any worker starts
        raise InputError(f"--threads {args.threads} is above {THREADS_CAP}")
    return args.threads


def _budget(text: str) -> int:
    """--budget-words: a word count in any decimal notation ("100", "1e8"), so 0
    is allowed and a negative, a fraction, inf, nan or over 4300 digits is not."""
    from decimal import Decimal, InvalidOperation  # loaded only when the flag is given

    try:
        value = Decimal(text)
    except InvalidOperation:
        value = Decimal("nan")
    if not value.is_finite() or value.adjusted() >= 4300 or value != int(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 0:
        raise argparse.ArgumentTypeError(f"{int(value)} is negative")
    return int(value)


def _cmd_words(args) -> _Output:
    from .perm import parse_perm
    from .words import _within_budget, reduced_letter_seqs

    w = parse_perm(args.perm)
    count = _within_budget(w, args.budget_words)  # refused before any word
    # the words stream: text prints each as the DFS yields it
    payload = {"w": list(w), "count": count, "words": map(list, reduced_letter_seqs(w))}
    lines = (_csv(ls) or "(empty)" for ls in payload["words"])
    return _Output(payload, chain(lines, [f"count {count}"]))


def _graph(args) -> ClassGraph:
    """G(w) of the command's permutation, under its word budget."""
    from .classes import build_graph
    from .perm import parse_perm

    return build_graph(parse_perm(args.perm), args.budget_words)


def _cmd_classes(args) -> _Output:
    g = _graph(args)
    rows = [{"id": c.id, "canonical": list(c.canonical.letters), "size": c.size}
            for c in g.vertices]  # a size is counted on each read: read once here
    lines = (f"{r['id']}: {_csv(r['canonical']) or '(empty)'}  size {r['size']}" for r in rows)
    return _Output({"w": list(g.w), "count": len(rows), "classes": rows},
                   chain(lines, [f"count {len(rows)}"]))


def _graph_payload(g: ClassGraph, poset: RankedPoset) -> dict:
    return {
        "n": g.n,
        "w": list(g.w),
        "vertices": [
            {"id": cid, "canonical": list(c), "index_sum": sum(c), "rank": poset.rank[cid]}
            for cid, c in enumerate(g._canonical)
        ],
        "edges": [
            {
                "u": e.u,
                "v": e.v,
                "labels": [{"letter": i, "wires": list(wires)} for i, wires in e.labels],
            }
            for e in g.edges
        ],
    }


def _graph_text(g: ClassGraph) -> Iterator[str]:
    from .classes import graph_checks

    rep = graph_checks(g)
    yield f"G({_csv(g.w)}): {len(g)} vertices, {len(g.edges)} edges"
    yield f"connected {rep.connected}, bipartite {rep.bipartite}"
    for e in g.edges:
        labels = "; ".join(f"letter {i} wires {list(ws)}" for i, ws in e.labels)
        yield f"  {e.u} -- {e.v}  [{labels}]"


def _dot(g: ClassGraph, poset: RankedPoset) -> Iterator[str]:
    """G(w) for graphviz, one row per rank of P(w)."""
    yield "graph G {"
    for cid, c in enumerate(g._canonical):
        yield f'  n{cid} [label="{_csv(c) or "e"}"];'
    levels: dict[int, list[int]] = {}
    for cid, r in poset.rank.items():
        levels.setdefault(r, []).append(cid)
    for r in sorted(levels):
        ids = "; ".join(f"n{i}" for i in sorted(levels[r]))
        yield f"  {{ rank=same; {ids}; }}"
    for u, v, _ in g._pairs:  # the edges' order, with no label made
        yield f"  n{u} -- n{v};"
    yield "}"


def _cmd_graph(args) -> _Output:
    from .classes import build_poset

    g = _graph(args)
    poset = build_poset(g)
    payload = _graph_payload(g, poset) if args.format == "json" else {}  # text and DOT print none
    return _Output(payload, _graph_text(g), _dot(g, poset))


def _cmd_poset(args) -> _Output:
    from .classes import build_poset

    g = _graph(args)
    poset = build_poset(g)
    payload = {"w": list(g.w), "ranks": poset.rank, "covers": poset.covers}
    lines = chain(
        (
            f"{cid}: rank {poset.rank[cid]}  "
            f"{_csv(g._canonical[cid]) or '(empty)'}"
            for cid in poset.elements
        ),
        (f"  {upper} covers {lower}" for upper, lower in poset.covers),
    )
    return _Output(payload, lines, _dot(g, poset))


def _cmd_bounds(args) -> _Output:
    from .bounds import _size_bounds_of
    from .perm import parse_perm

    rep = _size_bounds_of(parse_perm(args.perm), args.budget_words, args.actual)
    return _Output({
        "w": list(rep.w),
        "Y": rep.y,
        "n321": rep.n321,
        "lower": rep.lower,
        "upper": rep.upper,
        "alt_upper": rep.alt_upper,
        "actual": rep.actual,
    })


def _cmd_aggregate(args) -> _Output:
    from .bounds import aggregate_bound_check

    rep = aggregate_bound_check(args.n, args.l, args.budget_words)
    failed = None if rep.ok else f"aggregate bound fails for n={args.n}, l={args.l}"
    return _Output(rep._asdict(), violation=failed)


def _cmd_subnet(args) -> _Output:
    from .perm import _triples321, longest_element, parse_perm
    from .subnet import (WARRINGTON_X, _check_word_of, _top_class, count_subnetworks,
                         parse_word_set, predicted_count_friendly, predicted_count_w0_s4)
    from .words import parse_word

    w = parse_perm(args.perm)
    word = parse_word(args.word, len(w))
    _check_word_of(w, word)
    x = parse_word_set(args.set, args.m)
    payload: dict = {
        "w": list(w),
        "word": list(word.letters),
        "m": x.m,
        "count": count_subnetworks(word, x),
    }
    if args.predict:
        if x == WARRINGTON_X and w == longest_element(len(w)):
            payload["predicted"] = predicted_count_w0_s4(word, len(w))
        elif x.perm is not None and len(_triples321(x.perm)) == 1 and x == _top_class(x.perm):
            g = _graph(args)
            payload["predicted"] = predicted_count_friendly(g, word, x.perm).predicted
        else:
            raise InputError("no applicable prediction formula for this word set")
    return _Output(payload)


def _cmd_warrington(args) -> _Output:
    from .words import _warrington_count

    count = _warrington_count(args.n, args.classes, args.budget_words)
    kind = "classes" if args.classes else "words"
    return _Output({"n": args.n, "kind": kind, "count": count}, [str(count)])


def _cmd_rect(args) -> _Output:
    from .classes import build_poset
    from .structure import rectangle_label, rectangular_witness

    g = _graph(args)
    witness = rectangular_witness(g.w)
    build_poset(g)  # a poset that fails to rank exits 2
    spec = rectangle_label(g)
    payload = {
        "rectangular": witness is None,
        "dims": list(spec.dims) if spec else None,
        "witness_pattern": "".join(map(str, witness)) if witness else None,
        "labels": {str(cid): list(pt) for cid, pt in sorted(spec.labels.items())}
        if spec
        else None,
    }
    agree = (witness is None) == (spec is not None)
    failed = None if agree else f"pattern test and labeling disagree for {g.w}"
    return _Output(payload, violation=failed)


def _cmd_cycles(args) -> _Output:
    from .structure import _edge_pair_verdicts

    g = _graph(args)
    rows = [{"v": v, "a": a, "b": b, "verdict": verdict.value}
            for v, a, b, verdict in _edge_pair_verdicts(g)]
    lines = (
        f"v={r['v']} edges ({r['v']},{r['a']}),({r['v']},{r['b']}): {r['verdict']}"
        for r in rows
    )
    return _Output({"w": list(g.w), "pairs": rows}, lines)


def _cmd_cube(args) -> _Output:
    from .structure import embed_hypercube

    g = _graph(args)
    witness = embed_hypercube(g)
    classes = {
        "".join(map(str, bits)) or "-": cid for bits, cid in sorted(witness.classes.items())
    }
    payload = {
        "w": list(g.w),
        "dimension": witness.dimension,
        "base_word": list(witness.base_word.letters),
        "classes": classes,
    }
    lines = chain(
        [f"dimension {witness.dimension}", f"base word {_csv(witness.base_word.letters)}"],
        (f"  {bits} -> class {cid}" for bits, cid in classes.items()),
    )
    return _Output(payload, lines)


def _cmd_scan(args) -> _Output:
    from .suite import scan_sn

    violations = scan_sn(args.n, args.budget_words, threads=_threads(args))
    lines = [*violations, f"S_{args.n}: {len(violations)} violation(s)"]
    failed = f"{len(violations)} invariant violation(s) in S_{args.n}" if violations else None
    return _Output({"n": args.n, "violations": violations}, lines, violation=failed)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        # a usage error is invalid input (exit 1); 2 means an invariant violation
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="redweave",
        description="Reduced words, commutation classes, and subnetwork counts.",
    )
    parser.add_argument("--version", action="version", version=f"redweave {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help, positionals=("perm",), options=None,
            formats=("text", "json")):
        p = sub.add_parser(name, help=help)
        assert hasattr(p, "_negative_number_matcher")  # private; golden case "-1e3" guards it
        p._negative_number_matcher = re.compile(r"-\.?\d")  # "-1e3" is a value, as "-5" is
        for arg in positionals:  # a permutation is parsed by its command
            p.add_argument(arg, type=str if arg == "perm" else int)
        for flag, kwargs in (options or {}).items():
            p.add_argument(flag, **kwargs)
        p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--budget-words", type=_budget, default=WORD_BUDGET_DEFAULT)
        p.set_defaults(func=handler)

    add("words", _cmd_words, "list the reduced words of a permutation")
    add("classes", _cmd_classes, "canonical class representatives and sizes")
    add("graph", _cmd_graph, "the braid-move graph of the classes",
        formats=("text", "json", "dot"))
    add("poset", _cmd_poset, "the ranked class poset with covers",
        formats=("text", "json", "dot"))
    add("bounds", _cmd_bounds, "class-count bounds for a permutation",
        options={"--actual": {"action": "store_true", "help": "also count the classes"}})
    add("aggregate", _cmd_aggregate, "summed class-count bound at fixed length", ("n", "l"))
    add("subnet", _cmd_subnet, "count subnetworks of a word", options={
        "--word": {"required": True},
        "--set": {"required": True, "help": '"2,1,2" list, "warrington-x", ...'},
        "-m": {"type": int, "default": None,
               "help": "pattern size of the set (default: largest letter + 1)"},
        "--predict": {"action": "store_true"},
    })
    add("warrington", _cmd_warrington, "X-avoiding word count for n,n-1,...,1", ("n",),
        {"--classes": {"action": "store_true", "help": "count classes instead"}})
    add("rect", _cmd_rect, "rectangularity report with grid labels")
    add("cycles", _cmd_cycles, "classify incident edge pairs of the graph")
    add("cube", _cmd_cube, "hypercube witness embedded in the graph")
    add("scan", _cmd_scan, "run the invariant suite over all of S_n", ("n",),
        {"--threads": {"type": int, "default": None}})
    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        out = args.func(args)
        if args.format == "json":  # default=list writes an iterator (`words`) as a list
            chunks = json.JSONEncoder(indent=2, default=list).iterencode(
                {"schema": SCHEMA, **out.payload})
            while batch := "".join(islice(chunks, 8192)):  # written as encoded, never whole
                sys.stdout.write(batch)
            lines = [""]  # the newline that ends the document
        elif args.format == "dot":
            lines = out.dot
        elif out.text is None:
            lines = (f"{key}: {value}" for key, value in out.payload.items())
        else:
            lines = out.text
        for line in lines:
            print(line)
        if out.violation is not None:
            raise InvariantViolation(out.violation)
        return 0
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2
    except BudgetExceeded as exc:
        print(f"budget refusal: {exc}", file=sys.stderr)
        return 3
    except ChildProcessError as exc:  # a scan worker killed, say when memory ran out
        print(f"worker failure: {exc}", file=sys.stderr)
        return 4


def main() -> None:
    if hasattr(signal, "SIGPIPE"):
        # a reader that stops early (`| head`) ends the run quietly, no traceback
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(run())


if __name__ == "__main__":
    main()
