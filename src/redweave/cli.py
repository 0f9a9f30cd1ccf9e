"""Command-line front door: every computation with text/JSON/DOT output.

Exit codes: 0 success, 1 invalid input, 2 internal invariant violation,
3 enumeration budget refused.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from itertools import combinations

from .bounds import aggregate_bound_check, size_bounds
from .classes import (
    build_graph,
    build_poset,
    enumerate_classes,
    graph_checks,
    graph_dot,
    graph_json,
)
from .errors import BudgetExceeded, InputError, InvariantViolation, WORD_BUDGET_DEFAULT
from .perm import longest_element, parse_perm, pattern_count
from .structure import (
    classify_edge_pair,
    embed_hypercube,
    rectangle_label,
    rectangular_witness,
)
from .subnet import (
    WARRINGTON_X,
    count_subnetworks,
    count_x_avoiding_classes,
    count_x_avoiding_words,
    parse_word_set,
    predicted_count_friendly,
    predicted_count_w0_s4,
    _top_class,
)
from .suite import scan_sn
from .words import enumerate_reduced_words, parse_word
from . import __version__

SCHEMA = "redweave/1"


def _emit_json(payload: dict) -> None:
    payload = {"schema": SCHEMA, **payload}
    print(json.dumps(payload, indent=2, sort_keys=False))


def _threads(args) -> int:
    if args.threads is not None:
        if args.threads < 1:
            raise InputError(f"--threads {args.threads} is below 1")
        return args.threads
    env = os.environ.get("REDWEAVE_THREADS")
    if env:
        try:
            threads = int(env)
        except ValueError:
            raise InputError(f"REDWEAVE_THREADS={env!r} is not an integer") from None
        if threads < 1:
            raise InputError(f"REDWEAVE_THREADS={env!r} is below 1")
        return threads
    return os.cpu_count() or 1


def _budget(text: str) -> int:
    """--budget-words: a word count, so 0 is allowed and a negative is not."""
    try:
        budget = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if budget < 0:
        raise argparse.ArgumentTypeError(f"{budget} is negative")
    return budget


def _cmd_words(args) -> int:
    w = parse_perm(args.perm)
    words = [list(word.letters) for word in enumerate_reduced_words(w, args.budget_words)]
    if args.format == "json":
        _emit_json({"w": list(w), "count": len(words), "words": words})
    else:
        for ls in words:
            print(",".join(map(str, ls)) or "(empty)")
        print(f"count {len(words)}")
    return 0


def _cmd_classes(args) -> int:
    w = parse_perm(args.perm)
    cls = enumerate_classes(w, args.budget_words)
    if args.format == "json":
        _emit_json(
            {
                "w": list(w),
                "count": len(cls),
                "classes": [
                    {"id": c.id, "canonical": list(c.canonical.letters), "size": c.size}
                    for c in cls
                ],
            }
        )
    else:
        for c in cls:
            canon = ",".join(map(str, c.canonical.letters)) or "(empty)"
            print(f"{c.id}: {canon}  size {c.size}")
        print(f"count {len(cls)}")
    return 0


def _cmd_graph(args) -> int:
    w = parse_perm(args.perm)
    g = build_graph(w, args.budget_words)
    poset = build_poset(g)
    if args.format == "dot":
        print(graph_dot(g, poset), end="")
    elif args.format == "json":
        _emit_json(graph_json(g, poset))
    else:
        rep = graph_checks(g)
        print(f"G({','.join(map(str, w))}): {len(g)} vertices, {len(g.edges)} edges")
        print(f"connected {rep.connected}, bipartite {rep.bipartite}")
        for e in g.edges:
            labels = "; ".join(f"letter {i} wires {list(ws)}" for i, ws in e.labels)
            print(f"  {e.u} -- {e.v}  [{labels}]")
    return 0


def _cmd_poset(args) -> int:
    w = parse_perm(args.perm)
    g = build_graph(w, args.budget_words)
    poset = build_poset(g)
    if args.format == "dot":
        print(graph_dot(g, poset), end="")
    elif args.format == "json":
        _emit_json(
            {
                "w": list(w),
                "ranks": {str(cid): r for cid, r in sorted(poset.rank.items())},
                "covers": [list(c) for c in poset.covers],
            }
        )
    else:
        for cid in poset.elements:
            canon = ",".join(map(str, g.vertices[cid].canonical.letters)) or "(empty)"
            print(f"{cid}: rank {poset.rank[cid]}  {canon}")
        for upper, lower in poset.covers:
            print(f"  {upper} covers {lower}")
    return 0


def _cmd_bounds(args) -> int:
    w = parse_perm(args.perm)
    rep = size_bounds(w, compute_actual=args.actual, budget=args.budget_words)
    payload = {
        "w": list(w),
        "Y": rep.y,
        "n321": rep.n321,
        "lower": rep.lower,
        "upper": rep.upper,
        "alt_upper": rep.alt_upper,
        "actual": rep.actual,
        "notice": rep.notice,
    }
    if args.format == "json":
        _emit_json(payload)
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")
    return 0


def _cmd_aggregate(args) -> int:
    rep = aggregate_bound_check(args.n, args.l, args.budget_words, cap=max(args.n, 8))
    payload = {
        "n": rep.n,
        "l": rep.l,
        "count_perms": rep.count_perms,
        "sum_classes": rep.sum_classes,
        "catalan": rep.catalan,
        "four_power": rep.four_power,
        "injective": rep.injective,
    }
    if args.format == "json":
        _emit_json(payload)
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")
    if not rep.ok:
        raise InvariantViolation(f"aggregate bound fails for n={args.n}, l={args.l}")
    return 0


def _cmd_subnet(args) -> int:
    w = parse_perm(args.perm)
    word = parse_word(args.word, len(w))
    x = parse_word_set(args.set, args.m)
    actual = count_subnetworks(word, x)
    payload: dict = {
        "w": list(w),
        "word": list(word.letters),
        "m": x.m,
        "count": actual,
    }
    if args.predict:
        if x == WARRINGTON_X and w == longest_element(len(w)):
            payload["predicted"] = predicted_count_w0_s4(word, len(w))
        elif x.perm is not None and pattern_count(x.perm, (3, 2, 1)) == 1 and x == _top_class(x.perm):
            pred = predicted_count_friendly(w, word, x.perm)
            payload["predicted"] = pred.predicted
        else:
            raise InputError("no applicable prediction formula for this word set")
    if args.format == "json":
        _emit_json(payload)
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")
    return 0


def _cmd_warrington(args) -> int:
    w = longest_element(args.n)
    if args.classes:
        count = count_x_avoiding_classes(w, WARRINGTON_X, args.budget_words)
        kind = "classes"
    else:
        count = count_x_avoiding_words(w, WARRINGTON_X, args.budget_words)
        kind = "words"
    if args.format == "json":
        _emit_json({"n": args.n, "kind": kind, "count": count})
    else:
        print(count)
    return 0


def _cmd_rect(args) -> int:
    w = parse_perm(args.perm)
    witness = rectangular_witness(w)
    spec = rectangle_label(w, args.budget_words)
    payload = {
        "rectangular": witness is None,
        "dims": list(spec.dims) if spec else None,
        "witness_pattern": "".join(map(str, witness)) if witness else None,
        "labels": {str(cid): list(pt) for cid, pt in sorted(spec.labels.items())}
        if spec
        else None,
    }
    if args.format == "json":
        _emit_json(payload)
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")
    if (witness is None) != (spec is not None):
        raise InvariantViolation(f"pattern test and labeling disagree for {w}")
    return 0


def _cmd_cycles(args) -> int:
    w = parse_perm(args.perm)
    g = build_graph(w, args.budget_words)
    rows = []
    for c in g.vertices:
        for a, b in combinations(sorted(g.neighbors(c.id)), 2):
            verdict = classify_edge_pair(g, c.id, a, b)
            rows.append({"v": c.id, "a": a, "b": b, "verdict": verdict.value})
    if args.format == "json":
        _emit_json({"w": list(w), "pairs": rows})
    else:
        for row in rows:
            print(f"v={row['v']} edges ({row['v']},{row['a']}),({row['v']},{row['b']}): {row['verdict']}")
    return 0


def _cmd_cube(args) -> int:
    w = parse_perm(args.perm)
    witness = embed_hypercube(w, args.budget_words)
    payload = {
        "w": list(w),
        "dimension": witness.dimension,
        "base_word": list(witness.base_word.letters),
        "classes": {
            "".join(map(str, bits)) or "-": cid
            for bits, cid in sorted(witness.classes.items())
        },
    }
    if args.format == "json":
        _emit_json(payload)
    else:
        print(f"dimension {witness.dimension}")
        print(f"base word {','.join(map(str, witness.base_word.letters))}")
        for bits, cid in sorted(witness.classes.items()):
            print(f"  {''.join(map(str, bits)) or '-'} -> class {cid}")
    return 0


def _cmd_scan(args) -> int:
    violations = scan_sn(
        args.n, args.budget_words, threads=_threads(args), cap=max(args.n, 8)
    )
    if args.format == "json":
        _emit_json({"n": args.n, "violations": violations})
    else:
        for v in violations:
            print(v)
        print(f"S_{args.n}: {len(violations)} violation(s)")
    if violations:
        raise InvariantViolation(f"{len(violations)} invariant violation(s) in S_{args.n}")
    return 0


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

    def common(p, formats=("text", "json")):
        p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--budget-words", type=_budget, default=WORD_BUDGET_DEFAULT)

    p = sub.add_parser("words", help="list the reduced words of a permutation")
    p.add_argument("perm")
    common(p)
    p.set_defaults(func=_cmd_words)

    p = sub.add_parser("classes", help="canonical class representatives and sizes")
    p.add_argument("perm")
    common(p)
    p.set_defaults(func=_cmd_classes)

    p = sub.add_parser("graph", help="the braid-move graph of the classes")
    p.add_argument("perm")
    common(p, ("text", "json", "dot"))
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser("poset", help="the ranked class poset with covers")
    p.add_argument("perm")
    common(p, ("text", "json", "dot"))
    p.set_defaults(func=_cmd_poset)

    p = sub.add_parser("bounds", help="class-count bounds for a permutation")
    p.add_argument("perm")
    p.add_argument("--actual", action="store_true", help="also count the classes")
    common(p)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("aggregate", help="summed class-count bound at fixed length")
    p.add_argument("n", type=int)
    p.add_argument("l", type=int)
    common(p)
    p.set_defaults(func=_cmd_aggregate)

    p = sub.add_parser("subnet", help="count subnetworks of a word")
    p.add_argument("perm")
    p.add_argument("--word", required=True)
    p.add_argument("--set", required=True, help='"2,1,2" list, "warrington-x", ...')
    p.add_argument("-m", type=int, default=None, help="pattern size for an empty set")
    p.add_argument("--predict", action="store_true")
    common(p)
    p.set_defaults(func=_cmd_subnet)

    p = sub.add_parser("warrington", help="X-avoiding word count for n,n-1,...,1")
    p.add_argument("n", type=int)
    p.add_argument("--classes", action="store_true", help="count classes instead")
    common(p)
    p.set_defaults(func=_cmd_warrington)

    p = sub.add_parser("rect", help="rectangularity report with grid labels")
    p.add_argument("perm")
    common(p)
    p.set_defaults(func=_cmd_rect)

    p = sub.add_parser("cycles", help="classify incident edge pairs of the graph")
    p.add_argument("perm")
    common(p)
    p.set_defaults(func=_cmd_cycles)

    p = sub.add_parser("cube", help="hypercube witness embedded in the graph")
    p.add_argument("perm")
    common(p)
    p.set_defaults(func=_cmd_cube)

    p = sub.add_parser("scan", help="run the invariant suite over all of S_n")
    p.add_argument("n", type=int)
    p.add_argument("--threads", type=int, default=None)
    common(p)
    p.set_defaults(func=_cmd_scan)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2
    except BudgetExceeded as exc:
        print(f"budget refusal: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    if hasattr(signal, "SIGPIPE"):
        # a reader that stops early (`| head`) ends the run quietly, no traceback
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(run())


if __name__ == "__main__":
    main()
