"""Command line front end.

Subcommands: compute, compare, construct, enumerate, verify, explore.
Exit codes: 0 success (verification passed / relation comparable),
1 violation found (or incomparable sequences), 2 usage error,
3 input error.  A ValueError from a spec, a parameter or a range is a usage
error; unreadable graph input, bad encoding, file errors and failed index
evaluation are input errors; any other exception is a bug and keeps its
traceback.  Identical configurations produce byte-identical outputs apart
from the timing fields.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import wienerseq
from wienerseq.enumeration import enumerate_class, parse_class_spec
from wienerseq.families import parse_family_spec
from wienerseq.graphs import (
    DisconnectedGraphError,
    Graph,
    GraphFormatError,
    _edge_list,
    parse_graph6,
    write_graph6,
)
from wienerseq.indices import evaluate, evaluate_exact, parse_index_spec
from wienerseq.sequences import Dominance, compare, distance_sequence
from wienerseq.specs import parse_spec
from wienerseq.verifier import (
    SUITES,
    VerificationReport,
    csv_summary,
    search_maximal_planar,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_INPUT = 3


class InputError(Exception):
    pass


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wienerseq",
        description="Distance sequences, Wiener-type indices, and exhaustive "
        "dominance verification for small graphs.",
    )
    parser.add_argument(
        "--version", action="version", version="wienerseq %s" % wienerseq.__version__
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(
        p: argparse.ArgumentParser, *formats: str, inputs: bool = False, families: bool = False
    ) -> None:
        if inputs:
            p.add_argument(
                "--input",
                action="append",
                default=[],
                metavar="SRC",
                help="graph source: a file path, an inline graph6 record, or - for stdin",
            )
        if families:
            p.add_argument(
                "--family",
                action="append",
                default=[],
                metavar="SPEC",
                help="constructed graph, e.g. pk:6,8 cyclepow:8,2 pathpow:6,2 "
                "oddcat:6 star:5 path:5 cycle:5 complete:5",
            )
        p.add_argument("--out", metavar="PATH", help="write output to PATH instead of stdout")
        if formats:
            p.add_argument("--format", dest="fmt", choices=formats,
                           help="output format (default %s)" % formats[0])

    p = sub.add_parser("compute", help="distance sequence and index values of one graph")
    p.set_defaults(handler=_cmd_compute)
    add_io(p, "text", "json", inputs=True, families=True)
    p.add_argument(
        "--index",
        action="append",
        default=[],
        metavar="NAME[:LAMBDA]",
        help="index to evaluate; repeatable",
    )

    p = sub.add_parser("compare", help="dominance comparison of two graphs")
    p.set_defaults(handler=_cmd_compare)
    add_io(p, "text", "json", inputs=True, families=True)

    p = sub.add_parser("construct", help="emit a constructed family member")
    p.set_defaults(handler=_cmd_construct)
    add_io(p, "graph6", "edgelist", families=True)

    p = sub.add_parser("enumerate", help="stream a graph class as graph6 records")
    p.set_defaults(handler=_cmd_enumerate)
    p.add_argument("--class", dest="klass", required=True, metavar="SPEC",
                   help="class spec, e.g. connected:6 k_tree:8,2 odd_tree:10")
    add_io(p)

    p = sub.add_parser("verify", help="run a verification suite")
    p.set_defaults(handler=_cmd_verify)
    p.add_argument("--suite", required=True, metavar="SPEC",
                   help="suite spec, e.g. order_size:6 connectivity:6,2 "
                   "k_degenerate:6,2[,k_tree] odd_trees:10 deletion:5")
    p.add_argument("--jobs", type=int, default=1)
    add_io(p, "json", "csv")

    p = sub.add_parser("explore", help="search maximal planar graphs for a counterexample")
    p.set_defaults(handler=_cmd_explore)
    p.add_argument("--class", dest="klass", required=True, metavar="SPEC",
                   help="search spec: maximal_planar:n")
    p.add_argument("--apollonian-only", action="store_true",
                   help="restrict to planar 3-trees (partial coverage)")
    p.add_argument("--jobs", type=int, default=1)
    add_io(p)
    return parser


def _load_graph(source: str) -> Graph:
    if source == "-":
        return _parse_graph_text(sys.stdin.read())
    if os.path.exists(source):
        with open(source, encoding="utf-8") as fh:
            return _parse_graph_text(fh.read())
    # not a file: treat as an inline graph6 record
    try:
        return parse_graph6(source)
    except GraphFormatError as exc:
        raise InputError("cannot read %r: not a file and not graph6 (%s)" % (source, exc)) from exc


def _parse_graph_text(text: str) -> Graph:
    stripped = text.strip().splitlines()
    if stripped and stripped[0].strip().isdigit():
        n, edges = _edge_list(text)
        if n > max(1, 2 * len(edges)):
            # Some vertex is on no edge.  Say so before Graph allocates per
            # declared vertex, so a huge vertex count fails in bounded memory.
            ends = {v for e in edges for v in e}
            w = next(v for v in range(n) if v not in ends)
            raise DisconnectedGraphError((0, w) if w else (0, 1))
        return Graph(n, edges)
    return parse_graph6(text)


def _gather_graphs(args: argparse.Namespace) -> list[Graph]:
    graphs = [_load_graph(src) for src in args.input]
    return graphs + [parse_family_spec(spec) for spec in args.family]


def _emit(text: str, out: str | None) -> None:
    if text and not text.endswith("\n"):
        text += "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _header(args: argparse.Namespace) -> dict:
    config = {
        "command": args.command,
        "inputs": getattr(args, "input", []),
        "families": getattr(args, "family", []),
        "klass": getattr(args, "klass", None),
        "suite": getattr(args, "suite", None),
        "indices": getattr(args, "index", []),
        "fmt": getattr(args, "fmt", None),
        "jobs": getattr(args, "jobs", 1),
        "out": getattr(args, "out", None),
    }
    return {"version": wienerseq.__version__, "config": config}


def _cmd_compute(args: argparse.Namespace) -> int:
    graphs = _gather_graphs(args)
    if len(graphs) != 1:
        raise ValueError("compute expects exactly one --input or --family")
    g = graphs[0]
    defs = [parse_index_spec(spec) for spec in args.index]
    seq = distance_sequence(g)
    rows = []
    for defn in defs:
        try:
            exact = evaluate_exact(defn, seq)
            value = evaluate(defn, seq) if exact is None else float(exact)
        except (ValueError, OverflowError) as exc:
            raise InputError("index %s: %s" % (defn.display_name, exc)) from exc
        entry: dict = {"name": defn.name, "value": value}
        if exact is not None:
            try:
                entry["exact_value"] = str(exact)
            except ValueError:
                # Python refuses to write an integer of more than
                # sys.get_int_max_str_digits() digits.
                raise InputError(
                    "index %s: the exact value has more than %d digits, too "
                    "long to print" % (defn.display_name, sys.get_int_max_str_digits())
                ) from None
        if defn.lam is not None:
            entry["lambda"] = defn.lam
        rows.append(entry)
    if args.fmt == "json":
        doc = _header(args) | {
            "n": g.n,
            "m": g.m,
            "distance_sequence": seq.to_pairs(),
            "indices": rows,
        }
        _emit(json.dumps(doc, indent=2, sort_keys=True), args.out)
    else:
        lines = [
            "graph: n=%d m=%d" % (g.n, g.m),
            "distance sequence: %s" % seq.to_text(),
        ]
        for defn, entry in zip(defs, rows):
            value = entry.get("exact_value", "%.12g" % entry["value"])
            lines.append("%s = %s" % (defn.display_name, value))
        _emit("\n".join(lines), args.out)
    return EXIT_OK


def _cmd_compare(args: argparse.Namespace) -> int:
    graphs = _gather_graphs(args)
    if len(graphs) != 2:
        raise ValueError("compare expects exactly two graphs (--input/--family)")
    a, b = (distance_sequence(g) for g in graphs)
    try:
        rel = compare(a, b)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    if args.fmt == "json":
        doc = _header(args) | {
            "left": a.to_pairs(),
            "right": b.to_pairs(),
            "relation": rel.tag.value,
            "less_at": rel.less_at,
            "greater_at": rel.greater_at,
        }
        _emit(json.dumps(doc, indent=2, sort_keys=True), args.out)
    else:
        lines = [
            "left:  %s" % a.to_text(),
            "right: %s" % b.to_text(),
            "relation: %s" % rel.tag.value,
        ]
        if rel.less_at is not None:
            lines.append("first strictly smaller coordinate: %d" % rel.less_at)
        if rel.greater_at is not None:
            lines.append("first strictly larger coordinate: %d" % rel.greater_at)
        _emit("\n".join(lines), args.out)
    return EXIT_VIOLATION if rel.tag == Dominance.INCOMPARABLE else EXIT_OK


def _cmd_construct(args: argparse.Namespace) -> int:
    if len(args.family) != 1:
        raise ValueError("construct expects exactly one --family")
    g = parse_family_spec(args.family[0])
    if args.fmt == "edgelist":
        lines = [str(g.n)] + ["%d %d" % e for e in g.edges]
        _emit("\n".join(lines), args.out)
    else:
        _emit(write_graph6(g), args.out)
    return EXIT_OK


def _cmd_enumerate(args: argparse.Namespace) -> int:
    name, class_args = parse_class_spec(args.klass)
    start = time.monotonic()
    records = [write_graph6(g) for g in enumerate_class(name, class_args)]
    elapsed = time.monotonic() - start
    stream = "\n".join(records)
    summary = {
        "class": name,
        "n": class_args[0],
        "params": list(class_args[1:]),
        "count": len(records),
        "elapsed": elapsed,
    }
    if args.out:
        _emit(stream, args.out)
        _emit(json.dumps(summary, indent=2, sort_keys=True), None)
    else:
        _emit(stream, None)
        sys.stderr.write(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    # maximal_planar runs through explore, not verify
    verified = {k: v for k, v in SUITES.items() if k != "maximal_planar"}
    name, values = parse_spec(args.suite, verified, "suite")
    report = SUITES[name].verify(*values, jobs=args.jobs)
    doc = report.to_dict() | _header(args)
    if args.fmt == "csv":
        _emit(csv_summary([report]), args.out)
    else:
        _emit(json.dumps(doc, indent=2, sort_keys=True), args.out)
    _summarize(report, args.suite)
    return EXIT_OK if report.passed else EXIT_VIOLATION


def _summarize(report: VerificationReport, spec: str) -> None:
    status = "PASS" if report.passed else "FAIL"
    sys.stderr.write(
        "%s %s: %d graphs, %d violations, %d equality witnesses (%.2fs)\n"
        % (
            status,
            spec,
            report.graphs_checked,
            len(report.violations),
            len(report.equality_witnesses),
            report.elapsed_s,
        )
    )


def _cmd_explore(args: argparse.Namespace) -> int:
    explored = {"maximal_planar": SUITES["maximal_planar"]}
    _, (n,) = parse_spec(args.klass, explored, "suite")
    mode = "apollonian" if args.apollonian_only else "flip"
    report = search_maximal_planar(n, mode, jobs=args.jobs)
    doc = report.to_dict() | _header(args)
    if args.out:
        _emit(json.dumps(doc, indent=2, sort_keys=True), args.out)
    counterexamples = [
        v["graph6"] for v in report.violations if v["kind"] == "dominance"
    ]
    if counterexamples:
        print("counterexample candidates at order %d (coverage = %s):" % (n, report.coverage))
        for record in counterexamples:
            print("  %s" % record)
    else:
        print("no counterexample at order %d, coverage = %s" % (n, report.coverage))
    _summarize(report, args.klass)
    return EXIT_VIOLATION if report.violations else EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (
        GraphFormatError, DisconnectedGraphError, InputError, UnicodeDecodeError, OSError
    ) as exc:
        sys.stderr.write("input error: %s\n" % exc)
        return EXIT_INPUT
    except ValueError as exc:
        sys.stderr.write("usage error: %s\n" % exc)
        return EXIT_USAGE
