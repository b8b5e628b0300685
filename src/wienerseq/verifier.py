"""Exhaustive verification suites over small graph classes.

Each suite enumerates a class, compares every member's distance sequence
against the extremal family for that class, re-checks the index
consequences with exact arithmetic, and emits a deterministic report.
A run with ``jobs`` splits the members into min(jobs, members) shards by
position in the enumeration stream, run in at most one worker per CPU;
each shard returns its own report, and reports merge associatively
(counts add, violation and witness lists are sorted), so reports are
identical for any number of jobs.

The comparison with the extremal sequence and the exact index battery
depend only on the pair (sequence, extremal sequence), and many members of
a class share that pair.  Each shard therefore judges each distinct pair
once and keeps the judgement for the rest of the shard.  A shard checks
``Graph``s: it writes a member's graph6 record only when the member has a
violation, stamped into copies of them, or is an equality witness.  Records
cross a process boundary only as the payload of a pool worker, which
decodes them; a run with one busy shard decodes nothing.

A dominance pass paired with an index inequality failure cannot happen
mathematically, so it is reported as kind "internal_inconsistency" and
points at this package, not at the statement under test.
"""

from __future__ import annotations

__all__ = [
    "SUITES",
    "VerificationReport",
    "csv_summary",
    "search_maximal_planar",
    "verify_connectivity",
    "verify_deletion_bound",
    "verify_k_degenerate",
    "verify_odd_trees",
    "verify_order_size",
]

import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from functools import lru_cache
from typing import Callable, Iterable, NamedTuple

from wienerseq.enumeration import (
    canonical_graph,
    enumerate_apollonian,
    enumerate_connected,
    enumerate_k_connected,
    enumerate_k_trees,
    enumerate_maximal_k_degenerate,
    enumerate_maximal_planar,
    enumerate_odd_trees,
)
from wienerseq.families import (
    cycle,
    cycle_power,
    end_vertex_sequence_path_power,
    odd_caterpillar,
    path_complete,
    path_power,
)
from wienerseq.graphs import (
    Graph,
    is_cut_vertex,
    is_k_connected,
    parse_graph6,
    write_graph6,
)
from wienerseq.indices import (
    diameter_index,
    evaluate_exact,
    harary,
    hyper_wiener,
    monotone_consistency,
    mult_wiener,
    tsz,
    variable_wiener,
    wiener,
)
from wienerseq.sequences import (
    DistanceSequence,
    Dominance,
    compare,
    deletion_bound_check,
    deletion_bounds,
    distance_sequence,
    vertex_distance_sequence,
)
from wienerseq.specs import _check_range


# Exact-arithmetic built-ins only, so inequalities are decided without
# floating point.
_BATTERY = (
    wiener(),
    harary(),
    hyper_wiener(),
    tsz(),
    variable_wiener(2),
    mult_wiener(),
    diameter_index(),
)


@dataclass
class VerificationReport:
    suite: str
    params: dict
    graphs_checked: int
    violations: list[dict] = field(default_factory=list)
    equality_witnesses: list[str] = field(default_factory=list)
    elapsed_s: float = 0.0
    shards: int = 1
    coverage: str | None = None

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_dict(self, include_meta: bool = True) -> dict:
        out = asdict(self)
        if self.coverage is None:
            del out["coverage"]
        if not include_meta:
            del out["elapsed_s"], out["shards"]
        return out

    def to_json(self, include_meta: bool = True) -> str:
        return json.dumps(self.to_dict(include_meta), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_dict(cls, data: dict) -> "VerificationReport":
        return cls(**{f.name: data[f.name] for f in fields(cls) if f.name in data})

    @classmethod
    def from_json(cls, text: str) -> "VerificationReport":
        return cls.from_dict(json.loads(text))


def csv_summary(reports: "list[VerificationReport]") -> str:
    lines = ["suite,params,graphs_checked,violations,equality_witnesses,elapsed_s,shards"]
    for r in reports:
        params = ";".join("%s=%s" % (k, r.params[k]) for k in sorted(r.params))
        lines.append(
            "%s,%s,%d,%d,%d,%.3f,%d"
            % (
                r.suite,
                params,
                r.graphs_checked,
                len(r.violations),
                len(r.equality_witnesses),
                r.elapsed_s,
                r.shards,
            )
        )
    return "\n".join(lines) + "\n"


def _violation(
    graph6: str | None,
    kind: str,
    coordinate: int | None = None,
    lhs: object = None,
    rhs: object = None,
    index: str | None = None,
) -> dict:
    out = {
        "graph6": graph6,
        "kind": kind,
        "coordinate": coordinate,
        "lhs": None if lhs is None else str(lhs),
        "rhs": None if rhs is None else str(rhs),
    }
    if index is not None:
        out["index"] = index
    return out


@lru_cache(maxsize=None)
def _extremal(family: Callable[..., Graph], *args: int) -> DistanceSequence:
    return distance_sequence(family(*args))


def _judge(
    seq: DistanceSequence, extremal: DistanceSequence
) -> tuple[list[dict], bool]:
    """Violations of seq against extremal, with no record stamped in yet,
    and whether the two sequences are equal."""
    violations: list[dict] = []
    rel = compare(seq, extremal)
    if not rel.dominated:
        coord = rel.greater_at
        if coord is None:
            raise RuntimeError("undominated sequence without a larger coordinate")
        violations.append(
            _violation(None, "dominance", coord, seq[coord], extremal[coord])
        )
    for defn in _BATTERY:
        if monotone_consistency(defn, seq, extremal):
            continue
        kind = "internal_inconsistency" if rel.dominated else "index_bound"
        violations.append(
            _violation(
                None,
                kind,
                lhs=evaluate_exact(defn, seq),
                rhs=evaluate_exact(defn, extremal),
                index=defn.display_name,
            )
        )
    return violations, rel.tag == Dominance.EQUAL


def _check_k_degenerate(g: Graph, params: dict) -> list[dict]:
    n, k = params["n"], params["k"]
    violations: list[dict] = []
    if n >= k + 1 and not is_k_connected(g, k):
        violations.append(_violation(None, "k_connectivity", lhs=k))
    v = next(
        (v for v in range(n) if g.degree(v) == k and not is_cut_vertex(g, v)),
        None,
    )
    if v is not None:
        res = deletion_bound_check(g, v)
        if not res.holds:
            violations.append(_violation(None, "deletion_bound", coordinate=v))
        # v has degree k, so k < n
        vseq = vertex_distance_sequence(g, v)
        end = end_vertex_sequence_path_power(n, k)
        vrel = compare(vseq, end)
        if not vrel.dominated:
            coord = vrel.greater_at
            violations.append(
                _violation(None, "end_vertex_bound", coord, vseq[coord], end[coord])
            )
    elif n >= k + 1:
        violations.append(_violation(None, "degree_k_vertex", lhs=k))
    return violations


def _check_deletion(g: Graph, params: dict) -> list[dict]:
    violations: list[dict] = []
    for v, res in deletion_bounds(g).items():
        if not res.holds:
            violations.append(_violation(None, "deletion_bound", coordinate=v))
        if res.equality != res.predicted_equality:
            violations.append(
                _violation(
                    None,
                    "equality_predicate",
                    coordinate=v,
                    lhs=res.equality,
                    rhs=res.predicted_equality,
                )
            )
    return violations


def _check(suite: str, params: dict, graphs: list[Graph]) -> VerificationReport:
    """The report of one shard of the suite over the given graphs."""
    entry = SUITES[suite]
    report = VerificationReport(suite, params, len(graphs))
    # Each (sequence, extremal) pair met so far, with its judgement, so each
    # pair is judged once; its violations are shared, so none is mutated.
    judged: dict = {}
    for g in graphs:
        vs: list[dict] = []
        is_equal = False
        if entry.extremal is not None:
            key = (distance_sequence(g), _extremal(*entry.extremal(g, params)))
            if key not in judged:
                judged[key] = _judge(*key)
            vs, is_equal = judged[key]
        if entry.check is not None:
            vs = vs + entry.check(g, params)
        if vs or is_equal:
            record = write_graph6(g)
            report.violations.extend(dict(v, graph6=record) for v in vs)
            if is_equal:
                report.equality_witnesses.append(record)
    return report


def _check_shard(payload: tuple[str, dict, list[str]]) -> VerificationReport:
    """A pool worker's shard: graph6 records are its wire format."""
    suite, params, records = payload
    return _check(suite, params, [parse_graph6(r) for r in records])


def _violation_sort_key(v: dict) -> str:
    return json.dumps(v, sort_keys=True)


def _run(
    suite: str, params: dict, graphs: Iterable[Graph], jobs: int
) -> VerificationReport:
    _check_range("jobs", jobs, 1)
    # elapsed_s times the check phase only, not enumeration or encoding
    graphs = list(graphs)
    # Shard i holds graphs i, i + jobs, ...; only shards that hold a graph
    # are checked, in at most one worker per CPU.
    busy = min(jobs, len(graphs))
    if busy > 1:
        payloads = [
            (suite, params, [write_graph6(g) for g in graphs[i::jobs]])
            for i in range(busy)
        ]
        start = time.monotonic()
        with ProcessPoolExecutor(max_workers=min(busy, os.cpu_count() or 1)) as pool:
            parts = list(pool.map(_check_shard, payloads))
    else:
        start = time.monotonic()
        parts = [_check(suite, params, graphs)]
    return VerificationReport(
        suite=suite,
        params=params,
        graphs_checked=sum(part.graphs_checked for part in parts),
        violations=sorted(
            (v for part in parts for v in part.violations), key=_violation_sort_key
        ),
        equality_witnesses=sorted(w for part in parts for w in part.equality_witnesses),
        elapsed_s=time.monotonic() - start,
        shards=jobs,
    )


def verify_order_size(n: int, jobs: int = 1) -> VerificationReport:
    """Every connected graph of order n (2..CONNECTED_MAX_N) against the
    path-complete graph of its size."""
    return _run("order_size", {"n": n}, enumerate_connected(n), jobs)


def verify_connectivity(n: int, kappa: int, jobs: int = 1) -> VerificationReport:
    """Every kappa-connected graph of order n against the cycle power
    C_n^(kappa/2); for kappa = 2 the equality class must be exactly the
    cycle."""
    _check_range("kappa", kappa, 2, step=2)
    _check_range("order at kappa %d" % kappa, n, kappa + 1)
    report = _run(
        "connectivity",
        {"n": n, "kappa": kappa},
        enumerate_k_connected(n, kappa),
        jobs,
    )
    if kappa == 2:
        expected = {write_graph6(canonical_graph(cycle(n)))}
        actual = set(report.equality_witnesses)
        for record in sorted(actual - expected):
            report.violations.append(
                _violation(record, "equality_set", lhs="unexpected equality")
            )
        for record in sorted(expected - actual):
            report.violations.append(
                _violation(record, "equality_set", lhs="cycle not in equality class")
            )
        report.violations.sort(key=_violation_sort_key)
    return report


def verify_k_degenerate(
    n: int, k: int, klass: str = "maximal_k_degenerate", jobs: int = 1
) -> VerificationReport:
    """Maximal k-degenerate graphs (or k-trees) of order n against the path
    power P_n^k, with the k-connectivity side check and a re-derivation of
    the bound through a degree-k non-cut vertex."""
    if klass == "maximal_k_degenerate":
        graphs = enumerate_maximal_k_degenerate(n, k)
    elif klass == "k_tree":
        graphs = enumerate_k_trees(n, k)
    else:
        raise ValueError("class must be 'maximal_k_degenerate' or 'k_tree'")
    return _run("k_degenerate", {"n": n, "k": k, "class": klass}, graphs, jobs)


def verify_odd_trees(n: int, jobs: int = 1) -> VerificationReport:
    """Odd trees of even order n against the odd caterpillar."""
    return _run("odd_trees", {"n": n}, enumerate_odd_trees(n), jobs)


def verify_deletion_bound(n: int, jobs: int = 1) -> VerificationReport:
    """The vertex deletion bound and its equality predicate at every
    non-cut vertex of every connected graph of order n (2..CONNECTED_MAX_N)."""
    return _run("deletion", {"n": n}, enumerate_connected(n), jobs)


def search_maximal_planar(
    n: int, mode: str = "flip", jobs: int = 1
) -> VerificationReport:
    """Search for a maximal planar graph whose distance sequence is not
    dominated by the cube of the path.

    mode="flip" covers the class completely via flip closure (coverage
    "complete", orders 4..MAXIMAL_PLANAR_MAX_N); mode="apollonian" checks
    only planar 3-trees (coverage "partial", orders 3..APOLLONIAN_MAX_N).
    """
    if mode == "apollonian":
        graphs, coverage = enumerate_apollonian(n), "partial"
    elif mode == "flip":
        graphs, coverage = enumerate_maximal_planar(n), "complete"
    else:
        raise ValueError("mode must be 'flip' or 'apollonian'")
    report = _run("maximal_planar", {"n": n, "mode": mode}, graphs, jobs)
    report.coverage = coverage
    return report


class Suite(NamedTuple):
    """A suite's runner and spec arguments, the extremal graph that bounds
    each member as ``(family, *args)`` from the member and the report
    params, and the suite's further checks of each member."""

    verify: Callable[..., VerificationReport]
    args: dict[str, type]
    extremal: Callable[[Graph, dict], tuple] | None = None
    check: Callable[[Graph, dict], list[dict]] | None = None
    required: int | None = None


SUITES = {
    "order_size": Suite(
        verify_order_size, {"n": int}, lambda g, p: (path_complete, g.n, g.m)
    ),
    "connectivity": Suite(
        verify_connectivity,
        {"n": int, "kappa": int},
        lambda g, p: (cycle_power, p["n"], p["kappa"] // 2),
    ),
    "k_degenerate": Suite(
        verify_k_degenerate,
        {"n": int, "k": int, "klass": str},
        lambda g, p: (path_power, p["n"], p["k"]),
        _check_k_degenerate,
        required=2,
    ),
    "odd_trees": Suite(
        verify_odd_trees, {"n": int}, lambda g, p: (odd_caterpillar, p["n"])
    ),
    "deletion": Suite(verify_deletion_bound, {"n": int}, check=_check_deletion),
    # explore's --apollonian-only picks the mode, so the spec gives n alone
    "maximal_planar": Suite(
        search_maximal_planar, {"n": int}, lambda g, p: (path_power, p["n"], 3)
    ),
}
