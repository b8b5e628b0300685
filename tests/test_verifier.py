"""Verification suites: exhaustive dominance checks with sharded execution."""

import inspect
import json
import os

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wienerseq import (
    DeletionBoundResult,
    Dominance,
    Graph,
    VerificationReport,
    canonical_form,
    canonical_graph,
    compare,
    complete,
    csv_summary,
    cycle,
    cycle_power,
    distance_sequence,
    enumerate_connected,
    evaluate_exact,
    is_cut_vertex,
    monotone_consistency,
    odd_caterpillar,
    parse_graph6,
    path,
    path_complete,
    path_power,
    search_maximal_planar,
    verify_connectivity,
    verify_deletion_bound,
    verify_k_degenerate,
    verify_odd_trees,
    verify_order_size,
    write_graph6,
)
from wienerseq import sequences, verifier
from wienerseq.enumeration import (
    APOLLONIAN_MAX_N,
    CLASSES,
    CONNECTED_MAX_N,
    K_TREE_MAX_N,
    MAXIMAL_PLANAR_MAX_N,
)
from wienerseq.families import FAMILIES
from wienerseq.indices import INDICES
from wienerseq.verifier import SUITES, _BATTERY, _check_k_degenerate


def test_order_size_suite_passes():
    rep = verify_order_size(5)
    assert rep.passed
    assert rep.graphs_checked == 21
    assert rep.violations == []
    # every extremal member is its own equality witness
    witnesses = set(rep.equality_witnesses)
    for m in range(4, 11):
        assert canonical_form(path_complete(5, m)) in witnesses


def test_connectivity_suite_equality_is_the_cycle():
    for n in (5, 6):
        rep = verify_connectivity(n, 2)
        assert rep.passed
        assert rep.equality_witnesses == [canonical_form(cycle(n))]


def test_connectivity_suite_kappa_four():
    rep = verify_connectivity(6, 4)
    assert rep.passed
    assert rep.equality_witnesses == [canonical_form(cycle_power(6, 2))]


def test_connectivity_rejects_odd_target():
    with pytest.raises(ValueError):
        verify_connectivity(6, 3)


def test_k_degenerate_suite_passes():
    for klass in ("maximal_k_degenerate", "k_tree"):
        rep = verify_k_degenerate(6, 2, klass=klass)
        assert rep.passed
        assert rep.params["class"] == klass
    rep = verify_k_degenerate(7, 1)
    assert rep.passed
    assert rep.graphs_checked == 11


def test_k_degenerate_check_reuses_the_deletion_matrix(monkeypatch):
    # No matrix: deletion_bound_check takes the distances from v from one
    # BFS from v, g's sequence and g - v are counted from layers.
    orders = []
    real = sequences.distance_matrix

    def counting(g):
        orders.append(g.n)
        return real(g)

    monkeypatch.setattr(sequences, "distance_matrix", counting)
    g = canonical_graph(path_power(7, 2))
    params = {"n": 7, "k": 2, "class": "maximal_k_degenerate"}
    assert _check_k_degenerate(g, write_graph6(g), params) == []
    assert orders == []


def _violation(record, kind, coordinate=None, lhs=None, rhs=None, **index):
    # A violation as the suites write it, with lhs and rhs as strings.
    return {
        "graph6": record,
        "kind": kind,
        "coordinate": coordinate,
        "lhs": lhs,
        "rhs": rhs,
    } | index


def test_k_degenerate_check_reports_non_members():
    # C_5 is not 3-connected and has no vertex of degree 3.
    g = cycle(5)
    record = write_graph6(g)
    params = {"n": 5, "k": 3, "class": "maximal_k_degenerate"}
    assert _check_k_degenerate(g, record, params) == [
        _violation(record, "k_connectivity", lhs="3"),
        _violation(record, "degree_k_vertex", lhs="3"),
    ]
    # A triangle 0 1 2 with the tail 2 3 4 5 has cut vertices, and its
    # degree-2 non-cut vertex 0 has distances 1 1 2 3 4, past the 1 1 2 2 3
    # of an end vertex of P_6^2 first at coordinate 3.
    g = Graph(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5)])
    record = write_graph6(g)
    params = {"n": 6, "k": 2, "class": "maximal_k_degenerate"}
    assert _check_k_degenerate(g, record, params) == [
        _violation(record, "k_connectivity", lhs="2"),
        _violation(record, "end_vertex_bound", 3, lhs="3", rhs="2"),
    ]


def test_k_degenerate_check_reports_a_failed_deletion_bound(monkeypatch):
    # P_7^2 is a member; with the bound failing everywhere the check names
    # its first degree-2 non-cut vertex and nothing else.
    seen = []

    def failing(g, v):
        seen.append(v)
        return DeletionBoundResult(False, False, False)

    monkeypatch.setattr(verifier, "deletion_bound_check", failing)
    g = canonical_graph(path_power(7, 2))
    record = write_graph6(g)
    v = min(v for v in range(7) if g.degree(v) == 2 and not is_cut_vertex(g, v))
    params = {"n": 7, "k": 2, "class": "maximal_k_degenerate"}
    assert _check_k_degenerate(g, record, params) == [
        _violation(record, "deletion_bound", v)
    ]
    assert seen == [v]


def test_index_failures_are_reported_by_dominance(monkeypatch):
    # With every index check failing and K_n as the extremal graph, K_4 is
    # equal to its bound and reports internal inconsistencies; every other
    # connected graph of order 4 is undominated and reports a dominance
    # violation and index-bound failures.
    monkeypatch.setattr(verifier, "monotone_consistency", lambda defn, a, b: False)
    monkeypatch.setattr(verifier, "path_complete", lambda n, m: complete(n))
    rep = verify_order_size(4)
    extremal = distance_sequence(complete(4))
    graphs = list(enumerate_connected(4))
    assert rep.graphs_checked == len(graphs) == 6
    for g in graphs:
        record = write_graph6(g)
        seq = distance_sequence(g)
        if g == canonical_graph(complete(4)):
            kind, want = "internal_inconsistency", []
        else:
            c = compare(seq, extremal).greater_at
            kind = "index_bound"
            want = [_violation(record, "dominance", c, str(seq[c]), str(extremal[c]))]
        for defn in _BATTERY:
            lhs = str(evaluate_exact(defn, seq))
            rhs = str(evaluate_exact(defn, extremal))
            want.append(
                _violation(record, kind, None, lhs, rhs, index=defn.display_name)
            )
        got = [v for v in rep.violations if v["graph6"] == record]
        assert got == sorted(want, key=verifier._violation_sort_key)
    assert len(rep.violations) == 6 * len(_BATTERY) + 5


def test_connectivity_reports_a_wrong_equality_class(monkeypatch):
    # Expecting P_6 as the equality class of 2-connected graphs of order 6:
    # C_6 is an unexpected equality, and P_6 is missing from the class.
    monkeypatch.setattr(verifier, "cycle", path)
    rep = verify_connectivity(6, 2)
    cycle_record = write_graph6(canonical_graph(cycle(6)))
    path_record = write_graph6(canonical_graph(path(6)))
    assert rep.equality_witnesses == [cycle_record]
    assert rep.violations == sorted(
        [
            _violation(cycle_record, "equality_set", lhs="unexpected equality"),
            _violation(path_record, "equality_set", lhs="cycle not in equality class"),
        ],
        key=verifier._violation_sort_key,
    )
    assert not rep.passed


def test_battery_runs_once_per_distinct_sequence(monkeypatch):
    # The 21 connected graphs of order 5 have 12 distinct distance
    # sequences.  A sequence fixes the size m (its number of 1s) and so the
    # extremal P_5^m, so there are 12 distinct (sequence, extremal) pairs,
    # and each runs the 7-index battery once: 7 * 12 = 84 calls, not the
    # 7 * 21 = 147 of one battery per graph.  The memo lives for one shard,
    # so a second identical run makes 84 calls again.
    calls = []
    real = verifier.monotone_consistency

    def counting(defn, a, b):
        calls.append(defn)
        return real(defn, a, b)

    monkeypatch.setattr(verifier, "monotone_consistency", counting)
    verify_order_size(5)
    assert len(calls) == 84
    calls.clear()
    verify_order_size(5)
    assert len(calls) == 84


def _memo_free_report(n: int, extremal_of) -> VerificationReport:
    # The order-size report built graph by graph, with no memo: each graph's
    # own sequence against its own extremal, with compare,
    # monotone_consistency and evaluate_exact.
    violations, witnesses = [], []
    graphs = list(enumerate_connected(n))
    for g in graphs:
        record = write_graph6(g)
        seq = distance_sequence(g)
        extremal = distance_sequence(extremal_of(g))
        rel = compare(seq, extremal)
        if not rel.dominated:
            c = rel.greater_at
            violations.append(
                {
                    "graph6": record,
                    "kind": "dominance",
                    "coordinate": c,
                    "lhs": str(seq[c]),
                    "rhs": str(extremal[c]),
                }
            )
        for defn in _BATTERY:
            if not monotone_consistency(defn, seq, extremal):
                violations.append(
                    {
                        "graph6": record,
                        "kind": "internal_inconsistency"
                        if rel.dominated
                        else "index_bound",
                        "coordinate": None,
                        "lhs": str(evaluate_exact(defn, seq)),
                        "rhs": str(evaluate_exact(defn, extremal)),
                        "index": defn.display_name,
                    }
                )
        if rel.tag == Dominance.EQUAL:
            witnesses.append(record)
    violations.sort(key=lambda v: json.dumps(v, sort_keys=True))
    return VerificationReport(
        "order_size", {"n": n}, len(graphs), violations, sorted(witnesses)
    )


def test_violations_match_a_memo_free_reference(monkeypatch):
    # Against K_n every connected graph of order 6 but K_6 itself has a
    # larger distance sequence, so 111 of the 112 graphs are violations.
    monkeypatch.setitem(
        SUITES,
        "order_size",
        SUITES["order_size"]._replace(extremal=lambda g, p: (complete, g.n)),
    )
    want = _memo_free_report(6, lambda g: complete(g.n))
    assert len(want.violations) == 111
    assert want.equality_witnesses == [write_graph6(complete(6))]
    # jobs=4 runs a process pool, whose workers see the patched SUITES
    # because they are forked from this process
    for jobs in (1, 4):
        rep = verify_order_size(6, jobs=jobs)
        assert rep.to_json(include_meta=False) == want.to_json(include_meta=False)
    # graphs that share a sequence each get a violation under their own record
    by_seq: dict = {}
    for g in enumerate_connected(6):
        by_seq.setdefault(distance_sequence(g), []).append(write_graph6(g))
    shared = [r for records in by_seq.values() if len(records) > 1 for r in records]
    assert len(shared) > 2
    flagged = [v["graph6"] for v in rep.violations]
    assert all(flagged.count(r) == 1 for r in shared)


def test_odd_trees_suite_witness_is_the_caterpillar():
    for n in (6, 8):
        rep = verify_odd_trees(n)
        assert rep.passed
        assert rep.equality_witnesses == [canonical_form(odd_caterpillar(n))]


def test_deletion_suite_passes():
    for n in (2, 5):
        rep = verify_deletion_bound(n)
        assert rep.passed


def test_deletion_suite_reports_failures(monkeypatch):
    # Make g - v look one distance shorter (pairs at distance d >= 2 count
    # at d - 1) while g keeps its own counts.  The bound then fails at some
    # vertices, and equality fails wherever the predicate still predicts it.
    real = sequences._deletion_bound

    def shorter(counts, vcounts, rest, predicted):
        if len(rest) >= 2:
            rest = [rest[0] + rest[1]] + rest[2:] + [0]
        return real(counts, vcounts, rest, predicted)

    monkeypatch.setattr(sequences, "_deletion_bound", shorter)
    # the forked pool workers of jobs=4 inherit the patched _deletion_bound
    reports = [verify_deletion_bound(5, jobs=j) for j in (1, 4)]
    assert reports[0].to_json(include_meta=False) == reports[1].to_json(
        include_meta=False
    )
    violations = reports[0].violations
    assert {v["kind"] for v in violations} == {"deletion_bound", "equality_predicate"}
    for v in violations:
        g = parse_graph6(v["graph6"])
        assert 0 <= v["coordinate"] < g.n
        assert not is_cut_vertex(g, v["coordinate"])


def test_maximal_planar_coverage_labels():
    full = search_maximal_planar(6)
    assert full.passed and full.coverage == "complete"
    assert full.graphs_checked == 2
    partial = search_maximal_planar(6, mode="apollonian")
    assert partial.passed and partial.coverage == "partial"
    assert partial.graphs_checked == 1


@pytest.mark.parametrize(
    "call",
    [
        lambda: verify_order_size(CONNECTED_MAX_N + 1),
        lambda: verify_order_size(1),
        lambda: verify_connectivity(CONNECTED_MAX_N + 1, 2),
        lambda: verify_k_degenerate(6, 2, klass="nope"),
        lambda: verify_k_degenerate(K_TREE_MAX_N + 1, 2, klass="k_tree"),
        lambda: verify_odd_trees(7),
        lambda: search_maximal_planar(3),
        lambda: search_maximal_planar(MAXIMAL_PLANAR_MAX_N + 1),
        lambda: search_maximal_planar(6, mode="bad"),
        lambda: verify_deletion_bound(CONNECTED_MAX_N + 1),
        lambda: search_maximal_planar(APOLLONIAN_MAX_N + 1, mode="apollonian"),
        lambda: verify_order_size(4, jobs=0),
    ],
)
def test_domain_validation(call):
    with pytest.raises(ValueError):
        call()


_json_scalars = st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=6))
_reports = st.builds(
    VerificationReport,
    suite=st.text(max_size=12),
    params=st.dictionaries(st.text(max_size=6), _json_scalars, max_size=3),
    graphs_checked=st.integers(min_value=0),
    violations=st.lists(
        st.dictionaries(st.text(max_size=8), _json_scalars, max_size=5), max_size=4
    ),
    equality_witnesses=st.lists(st.text(max_size=8), max_size=4),
    elapsed_s=st.floats(min_value=0, allow_nan=False, allow_infinity=False),
    shards=st.integers(min_value=1),
    coverage=st.one_of(st.none(), st.sampled_from(["complete", "partial"])),
)


@given(_reports)
def test_report_json_round_trip(rep):
    assert VerificationReport.from_dict(rep.to_dict()) == rep
    assert VerificationReport.from_json(rep.to_json()) == rep
    lean = {"suite", "params", "graphs_checked", "violations", "equality_witnesses"}
    if rep.coverage is not None:
        lean.add("coverage")
    assert set(rep.to_dict(include_meta=False)) == lean
    assert set(rep.to_dict()) == lean | {"elapsed_s", "shards"}
    before = rep.to_json()
    out = rep.to_dict()
    out["params"]["added"] = 1
    out["violations"].append({"kind": "added"})
    for v in out["violations"]:
        v["graph6"] = "added"
    out["equality_witnesses"].append("added")
    assert rep.to_json() == before


def test_reports_identical_across_sharding():
    base = verify_order_size(5).to_json(include_meta=False)
    assert verify_order_size(5, jobs=7).to_json(include_meta=False) == base
    assert verify_order_size(5, jobs=3).to_json(include_meta=False) == base


def test_reports_identical_across_process_pool():
    base = verify_connectivity(6, 2).to_json(include_meta=False)
    pooled = verify_connectivity(6, 2, jobs=4)
    assert pooled.to_json(include_meta=False) == base
    # one shard per job
    assert pooled.to_dict()["shards"] == 4


def test_pool_starts_a_worker_per_nonempty_shard(monkeypatch):
    # The 2 connected graphs on 3 vertices fill 2 of 8 shards, so one pool
    # of 2 workers starts on a machine with 8 CPUs; the report still says 8
    # shards.
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    started = []

    class Recording(verifier.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(verifier, "ProcessPoolExecutor", Recording)
    pooled = verify_deletion_bound(3, jobs=8)
    assert started == [2]
    assert pooled.to_dict()["shards"] == 8
    base = verify_deletion_bound(3).to_json(include_meta=False)
    assert pooled.to_json(include_meta=False) == base


def test_pool_starts_at_most_a_worker_per_cpu(monkeypatch):
    # The 21 connected graphs on 5 vertices fill 21 of 10,000 shards, but a
    # machine with 2 CPUs gets a pool of 2 workers.  The fake pool runs the
    # shards in this process, so no worker starts.
    started = []

    class InProcess:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, payloads):
            return map(fn, payloads)

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(verifier, "ProcessPoolExecutor", InProcess)
    pooled = verify_deletion_bound(5, jobs=10_000)
    assert started == [2]
    assert pooled.to_dict()["shards"] == 10_000
    base = verify_deletion_bound(5).to_json(include_meta=False)
    assert pooled.to_json(include_meta=False) == base


def test_suites_reject_bad_parameters():
    with pytest.raises(ValueError, match=r"order at kappa 4 must be in 5\.\., got 4"):
        verify_connectivity(4, 4)
    with pytest.raises(ValueError, match="mode"):
        search_maximal_planar(5, mode="nope")


def test_suite_spec_arguments_are_runner_parameters():
    # the CLI calls SUITES[name].verify(jobs=..., **spec arguments)
    for name, entry in SUITES.items():
        params = inspect.signature(entry.verify).parameters
        assert set(entry.args) | {"jobs"} <= set(params), name


@pytest.mark.parametrize(
    "table,target",
    [(CLASSES, "target"), (FAMILIES, "target"), (INDICES, "target"), (SUITES, "verify")],
)
def test_spec_tables_agree_with_their_functions(table, target):
    # A spec's arguments fill the first positional parameters; exactly the
    # first `required` of those parameters lack a default.
    for name, entry in table.items():
        params = [
            p
            for p in inspect.signature(getattr(entry, target)).parameters.values()
            if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
        ]
        count = len(entry.args)
        required = count if entry.required is None else entry.required
        assert count <= len(params), name
        assert [p.default is p.empty for p in params] == [
            i < required for i in range(len(params))
        ], name


def test_passed_reflects_violations():
    rep = verify_order_size(4)
    assert rep.passed
    broken = VerificationReport.from_dict(
        rep.to_dict()
        | {
            "violations": [
                {
                    "graph6": "C~",
                    "kind": "dominance",
                    "coordinate": 0,
                    "lhs": "2",
                    "rhs": "1",
                    "index": None,
                }
            ]
        }
    )
    assert not broken.passed


def test_csv_summary_shape():
    reports = [verify_order_size(4), verify_deletion_bound(4)]
    text = csv_summary(reports)
    lines = text.strip().splitlines()
    assert lines[0] == (
        "suite,params,graphs_checked,violations,equality_witnesses,elapsed_s,shards"
    )
    assert len(lines) == 3
    assert lines[1].startswith("order_size,n=4,6,0,")
    assert lines[2].startswith("deletion,n=4,6,0,")
