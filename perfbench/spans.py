"""Span tracer and per-layer metrics for the benchmark's traced runs.

Tracing replaces module attributes of ``wienerseq`` with wrappers; the
package itself is not changed.  Each layer calls the next through a module
global, so patching the attribute that the calling module looks up catches
every call it makes, and nothing else.  A wrapper records one span per
call: its kind, its parent span, start and end.  Spans stay in memory and
are turned into metrics after the traced verdicts end.

A span's self time is its duration minus the durations of its child spans.
``canonical_form`` calls ``canonical_graph``, which is followed by
``write_graph6``, so only self times can be added up across layers.
"""

from __future__ import annotations

import importlib
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Iterator

# (module, attribute, span kind).  The module is the caller whose lookup is
# patched; the kind names the layer the call's time belongs to.
PATCHES = (
    ("enumeration", "canonical_graph", "canonical"),
    ("enumeration", "canonical_form", "canonical"),
    ("enumeration", "write_graph6", "codec"),
    ("enumeration", "is_connected", "filter"),
    ("enumeration", "is_k_connected", "filter"),
    ("enumeration", "degeneracy_check", "filter"),
    ("enumeration", "is_odd_tree", "filter"),
    ("verifier", "enumerate_connected", "generate"),
    ("verifier", "enumerate_k_connected", "generate"),
    ("verifier", "enumerate_k_trees", "generate"),
    ("verifier", "enumerate_maximal_k_degenerate", "generate"),
    ("verifier", "enumerate_odd_trees", "generate"),
    ("verifier", "enumerate_apollonian", "generate"),
    ("verifier", "enumerate_maximal_planar", "generate"),
    ("verifier", "write_graph6", "codec"),
    ("verifier", "parse_graph6", "codec"),
    ("verifier", "distance_sequence", "distance_sequence"),
    ("verifier", "deletion_bound_check", "deletion_bound"),
    ("verifier", "compare", "compare"),
    ("verifier", "monotone_consistency", "battery"),
    ("verifier", "is_cut_vertex", "predicate"),
    ("verifier", "is_k_connected", "predicate"),
    ("verifier", "_run", "check"),
    ("sequences", "distance_matrix", "distance_matrix"),
    ("indices", "compare", "compare"),
    ("indices", "evaluate_exact", "evaluate_exact"),
)

# Kinds whose return value the metrics need: canonical outputs are counted
# as distinct classes, filter results as passes, check reports as graphs.
_KEEP_RESULT = {"canonical", "filter", "check"}

ROOT = "verdict"

# Per-layer metric -> (unit, the end-to-end metric it should move).
LAYER_METRICS: dict[str, tuple[str, str]] = {
    "enumeration.canonical_s": (
        "s",
        "verdict_s on census, trees and dense; setup_s on recheck; "
        "no change to verdict_s on recheck",
    ),
    "enumeration.canonical_calls": ("count", "as enumeration.canonical_s"),
    "enumeration.classes_out": ("count", "as enumeration.canonical_s"),
    "enumeration.candidates_per_class": (
        "ratio",
        "as enumeration.canonical_s; base: canonical_calls / classes_out",
    ),
    "enumeration.generate_self_s": ("s", "as enumeration.canonical_s"),
    "enumeration.filter_s": (
        "s",
        "verdict_s on recheck (filters run on every pass), census and trees",
    ),
    "enumeration.filter_calls": ("count", "as enumeration.filter_s"),
    "enumeration.filter_passed": ("count", "as enumeration.filter_s"),
    "enumeration.filter_pass_ratio": (
        "ratio",
        "as enumeration.filter_s; base: filter_passed / filter_calls",
    ),
    "graphs.distance_matrix_s": (
        "s",
        "verdict_s on recheck; no change elsewhere",
    ),
    "graphs.distance_matrix_calls": ("count", "as graphs.distance_matrix_s"),
    "graphs.distance_matrix_per_graph": (
        "ratio",
        "as graphs.distance_matrix_s; base: distance_matrix_calls / "
        "verifier.graphs_checked",
    ),
    "graphs.codec_s": ("s", "verdict_s on recheck; no change elsewhere"),
    "graphs.codec_calls": ("count", "as graphs.codec_s"),
    "graphs.predicate_s": ("s", "verdict_s on recheck; no change elsewhere"),
    "graphs.predicate_calls": ("count", "as graphs.predicate_s"),
    "sequences.distance_sequence_s": ("s", "verdict_s on recheck"),
    "sequences.distance_sequence_calls": ("count", "verdict_s on recheck"),
    "sequences.deletion_bound_s": ("s", "verdict_s on recheck"),
    "sequences.deletion_bound_calls": ("count", "verdict_s on recheck"),
    "sequences.compare_calls": ("count", "verdict_s on recheck"),
    "indices.battery_s": ("s", "verdict_s on recheck"),
    "indices.evaluate_exact_calls": ("count", "verdict_s on recheck"),
    "verifier.check_s": ("s", "diagnostic: time in the check phase"),
    "verifier.check_share": (
        "share",
        "diagnostic; base: verifier.check_s / trace.verdict_s",
    ),
    "verifier.graphs_checked": ("count", "diagnostic: graphs checked"),
    "trace.verdict_s": ("s", "diagnostic: traced time to verdict"),
    "trace.untraced_verdict_s": ("s", "diagnostic: untraced time to verdict"),
    "trace.overhead_share": (
        "share",
        "diagnostic: cost of tracing; base: trace.verdict_s / "
        "trace.untraced_verdict_s - 1",
    ),
    "trace.unattributed_s": ("s", "diagnostic: verdict time in no layer span"),
    "trace.unattributed_share": (
        "share",
        "diagnostic; base: trace.unattributed_s / trace.verdict_s",
    ),
    "trace.spans": ("count", "diagnostic: spans recorded"),
}


class Tracer:
    """Records spans as ``[parent index, kind, start, end, result]`` lists."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, kind: str, fn: Callable) -> Callable:
        spans = self.spans
        stack = self._stack
        keep = kind in _KEEP_RESULT

        def traced(*args, **kwargs):
            rec = [stack[-1] if stack else None, kind, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                stack.pop()
            if keep:
                rec[4] = result
            return result

        return traced

    @contextmanager
    def patched(self) -> Iterator[None]:
        """Install the wrappers in ``PATCHES`` for the duration of the block."""
        saved = []
        try:
            for module_name, attr, kind in PATCHES:
                module = importlib.import_module("wienerseq." + module_name)
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                if kind == "generate":
                    # The enumerators are generators; drain them inside the
                    # span so it covers the generation work.
                    fn = _drained(fn)
                setattr(module, attr, self.wrap(kind, fn))
            yield
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of every span recorded so far."""
        from wienerseq.graphs import write_graph6

        spans = self.spans
        covered = [0.0] * len(spans)
        for parent, _, start, end, _ in spans:
            if parent is not None:
                covered[parent] += end - start
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        total_s: defaultdict = defaultdict(float)
        classes = set()
        labelings = filter_passed = graphs_checked = 0
        for i, (parent, kind, start, end, result) in enumerate(spans):
            calls[kind] += 1
            total_s[kind] += end - start
            self_s[kind] += end - start - covered[i]
            if kind == "canonical" and (
                parent is None or spans[parent][1] != "canonical"
            ):
                labelings += 1
                classes.add(result if isinstance(result, str) else write_graph6(result))
            elif kind == "filter":
                filter_passed += all(result) if isinstance(result, tuple) else bool(result)
            elif kind == "check":
                graphs_checked += result.graphs_checked
        verdict_s = total_s[ROOT]
        return {
            "enumeration.canonical_s": self_s["canonical"],
            "enumeration.canonical_calls": labelings,
            "enumeration.classes_out": len(classes),
            "enumeration.candidates_per_class": _ratio(labelings, len(classes)),
            "enumeration.generate_self_s": self_s["generate"],
            "enumeration.filter_s": self_s["filter"],
            "enumeration.filter_calls": calls["filter"],
            "enumeration.filter_passed": filter_passed,
            "enumeration.filter_pass_ratio": _ratio(filter_passed, calls["filter"]),
            "graphs.distance_matrix_s": self_s["distance_matrix"],
            "graphs.distance_matrix_calls": calls["distance_matrix"],
            "graphs.distance_matrix_per_graph": _ratio(
                calls["distance_matrix"], graphs_checked
            ),
            "graphs.codec_s": self_s["codec"],
            "graphs.codec_calls": calls["codec"],
            "graphs.predicate_s": self_s["predicate"],
            "graphs.predicate_calls": calls["predicate"],
            "sequences.distance_sequence_s": self_s["distance_sequence"],
            "sequences.distance_sequence_calls": calls["distance_sequence"],
            "sequences.deletion_bound_s": self_s["deletion_bound"],
            "sequences.deletion_bound_calls": calls["deletion_bound"],
            "sequences.compare_calls": calls["compare"],
            "indices.battery_s": total_s["battery"],
            "indices.evaluate_exact_calls": calls["evaluate_exact"],
            "verifier.check_s": total_s["check"],
            "verifier.check_share": _ratio(total_s["check"], verdict_s),
            "verifier.graphs_checked": graphs_checked,
            "trace.verdict_s": verdict_s,
            "trace.unattributed_s": self_s[ROOT],
            "trace.unattributed_share": _ratio(self_s[ROOT], verdict_s),
            "trace.spans": len(spans),
        }


def _drained(fn: Callable) -> Callable:
    def drained(*args, **kwargs):
        return list(fn(*args, **kwargs))

    return drained


def _ratio(num: float, den: float) -> float:
    # A layer that did no work on a workload reports 0 over a base of 0.
    return num / den if den else 0.0
