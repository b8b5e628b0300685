"""Acceptance gate: the headline guarantees, one verdict line per criterion.

Each test prints a single PASS or FAIL line through the capture-disabled
channel so the verdicts are visible in any pytest run.  Criteria cover the
extremal dominance statements (exhaustively at small orders), the index
identities, the codec, and the deterministic sharded reports.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import networkx as nx
import pytest

from conftest import (
    brute_force_isomorphic,
    from_nx,
    merge,
    odd_caterpillar_increment,
    to_nx,
)
from wienerseq import (
    Dominance,
    Graph,
    canonical_form,
    compare,
    cycle,
    cycle_power,
    diameter_index,
    distance_matrix,
    distance_sequence,
    end_vertex_sequence_path_power,
    enumerate_apollonian,
    enumerate_connected,
    enumerate_maximal_planar,
    evaluate,
    evaluate_exact,
    gen_hyper_wiener,
    harary,
    hyper_wiener,
    log_mult_wiener,
    mult_wiener,
    odd_caterpillar,
    order_size_lower_bound_exact,
    parse_graph6,
    path_complete,
    path_power,
    relabel,
    search_maximal_planar,
    tsz,
    variable_wiener,
    verify_connectivity,
    verify_deletion_bound,
    verify_k_degenerate,
    verify_odd_trees,
    verify_order_size,
    vertex_distance_sequence,
    wiener,
    write_graph6,
)

import pathlib

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def _verdict(capsys, name, failures):
    status = "PASS" if not failures else "FAIL"
    with capsys.disabled():
        print("%s: %s" % (status, name))
    assert not failures, failures[:5]


def _random_connected(rng, max_n=10):
    n = rng.randint(2, max_n)
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    extra = rng.randint(0, n)
    for _ in range(extra):
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    return Graph(n, sorted(edges))


def test_criterion_1_order_size_extremal(capsys):
    failures = []
    start = time.monotonic()
    for n in range(2, 9):
        rep = verify_order_size(n)
        if not rep.passed:
            failures.append("order %d: %d violations" % (n, len(rep.violations)))
    # the 11,117 connected graphs of order 8 (A001349), 117 of them with the
    # distance sequence of the path-complete graph of their size
    if (rep.graphs_checked, len(rep.equality_witnesses)) != (11117, 117):
        failures.append(
            "order 8: %d graphs, %d equality witnesses"
            % (rep.graphs_checked, len(rep.equality_witnesses))
        )
    # directional inequalities re-derived with exact arithmetic
    for n in range(2, 7):
        for g in enumerate_connected(n):
            pk = distance_sequence(path_complete(n, g.m))
            seq = distance_sequence(g)
            if evaluate_exact(harary(), seq) < evaluate_exact(harary(), pk):
                failures.append("harary below extremal value: %s" % write_graph6(g))
            if evaluate_exact(hyper_wiener(), seq) > evaluate_exact(hyper_wiener(), pk):
                failures.append("hyper_wiener above extremal value: %s" % write_graph6(g))
    elapsed = time.monotonic() - start
    if elapsed >= 600:
        failures.append("took %.0fs, budget is 600s" % elapsed)
    _verdict(capsys, "criterion 1, size-constrained dominance at orders 2..8", failures)


def test_criterion_2_deletion_bound(capsys):
    failures = []
    for n in range(2, 9):
        rep = verify_deletion_bound(n)
        if not rep.passed:
            failures.append("order %d: %d violations" % (n, len(rep.violations)))
    if rep.graphs_checked != 11117:
        failures.append("order 8: %d graphs" % rep.graphs_checked)
    _verdict(
        capsys,
        "criterion 2, vertex deletion bound and equality predicate at orders 2..8",
        failures,
    )


def test_criterion_3_connectivity(capsys):
    failures = []
    for n in range(4, 9):
        rep = verify_connectivity(n, 2)
        if not rep.passed:
            failures.append("kappa=2 order %d: %d violations" % (n, len(rep.violations)))
        if rep.equality_witnesses != [canonical_form(cycle(n))]:
            failures.append("kappa=2 order %d: equality set is not the cycle" % n)
    for n in range(5, 9):
        rep = verify_connectivity(n, 4)
        if not rep.passed:
            failures.append("kappa=4 order %d: %d violations" % (n, len(rep.violations)))
        if canonical_form(cycle_power(n, 2)) not in rep.equality_witnesses:
            failures.append("kappa=4 order %d: squared cycle missing" % n)
    _verdict(capsys, "criterion 3, connectivity-constrained dominance", failures)


def test_criterion_4_degenerate_and_k_trees(capsys):
    failures = []
    for k in (1, 2, 3):
        for n in range(k + 2, 8):
            rep = verify_k_degenerate(n, k)
            if not rep.passed:
                failures.append(
                    "maximal %d-degenerate order %d: %d violations"
                    % (k, n, len(rep.violations))
                )
        for n in range(k + 1, 11):
            rep = verify_k_degenerate(n, k, klass="k_tree")
            if not rep.passed:
                failures.append(
                    "%d-trees order %d: %d violations" % (k, n, len(rep.violations))
                )
    for n in range(2, 13):
        for k in range(1, n):
            if end_vertex_sequence_path_power(n, k) != vertex_distance_sequence(
                path_power(n, k), 0
            ):
                failures.append("end vertex profile mismatch n=%d k=%d" % (n, k))
    _verdict(
        capsys,
        "criterion 4, degeneracy-constrained dominance and path power profiles",
        failures,
    )


def test_criterion_5_odd_trees(capsys):
    failures = []
    for n in range(4, 15, 2):
        rep = verify_odd_trees(n)
        if not rep.passed:
            failures.append("order %d: %d violations" % (n, len(rep.violations)))
        if rep.equality_witnesses != [canonical_form(odd_caterpillar(n))]:
            failures.append("order %d: extremal witness is not the caterpillar" % n)
    for n in range(6, 17, 2):
        grown = merge(
            distance_sequence(odd_caterpillar(n - 2)), odd_caterpillar_increment(n)
        )
        if grown != distance_sequence(odd_caterpillar(n)):
            failures.append("growth recurrence fails at order %d" % n)
    _verdict(capsys, "criterion 5, odd trees up to order 14", failures)


def test_criterion_6_index_identities(capsys):
    failures = []
    t6 = distance_sequence(odd_caterpillar(6))
    frozen = [
        (wiener(), 29),
        (harary(), Fraction(28, 3)),
        (hyper_wiener(), 47),
        (mult_wiener(), 5184),
        (tsz(), Fraction(265, 9)),
    ]
    for defn, expected in frozen:
        if evaluate_exact(defn, t6) != expected:
            failures.append("frozen %s value mismatch" % defn.name)
    exact_indices = [
        wiener(),
        harary(),
        hyper_wiener(),
        tsz(),
        *(variable_wiener(lam) for lam in (1, -1, 2, -2)),
        gen_hyper_wiener(1),
        gen_hyper_wiener(-1),
        mult_wiener(),
        diameter_index(),
    ]
    rng = random.Random(60221023)
    for _ in range(1000):
        seq = distance_sequence(_random_connected(rng))
        checks = [
            (evaluate(variable_wiener(1), seq), evaluate(wiener(), seq)),
            (evaluate(variable_wiener(-1), seq), evaluate(harary(), seq)),
            (evaluate(gen_hyper_wiener(1), seq), evaluate(hyper_wiener(), seq)),
            (evaluate(log_mult_wiener(), seq), math.log(evaluate(mult_wiener(), seq))),
        ]
        for got, want in checks:
            if abs(got - want) > 1e-9 * max(1.0, abs(want)):
                failures.append("identity drift on %s" % seq.to_text())
                break
        # the float value is the double nearest the exact one
        for defn in exact_indices:
            if evaluate(defn, seq) != float(evaluate_exact(defn, seq)):
                failures.append(
                    "%s exact/float drift on %s" % (defn.display_name, seq.to_text())
                )
    _verdict(
        capsys,
        "criterion 6, index identities and exact floats on 1000 seeded random graphs",
        failures,
    )


def test_criterion_7_order_size_bound(capsys):
    failures = []
    for n in range(2, 7):
        for g in enumerate_connected(n):
            seq = distance_sequence(g)
            diam = distance_matrix(g).diameter
            for defn in (wiener(), hyper_wiener(), tsz(), variable_wiener(2)):
                bound = order_size_lower_bound_exact(defn, n, g.m)
                value = evaluate_exact(defn, seq)
                if diam <= 2 and value != bound:
                    failures.append("%s not tight on %s" % (defn.name, write_graph6(g)))
                if diam >= 3 and value <= bound:
                    failures.append("%s not strict on %s" % (defn.name, write_graph6(g)))
            bound = order_size_lower_bound_exact(harary(), n, g.m)
            value = evaluate_exact(harary(), seq)
            if diam <= 2 and value != bound:
                failures.append("harary not tight on %s" % write_graph6(g))
            if diam >= 3 and value >= bound:
                failures.append("harary not strict on %s" % write_graph6(g))
    _verdict(capsys, "criterion 7, order-size bound with tightness at diameter 2", failures)


def test_criterion_8_codec_canonical_and_determinism(capsys):
    failures = []
    records = FIXTURES.joinpath("records.g6").read_text().split()
    for rec in records:
        if write_graph6(parse_graph6(rec)) != rec:
            failures.append("fixture round trip: %s" % rec)
    rng = random.Random(271828)
    for _ in range(1000):
        n = rng.randint(1, 14)
        pairs = list(itertools.combinations(range(n), 2))
        g = Graph(n, sorted(rng.sample(pairs, rng.randint(0, len(pairs)))))
        rec = write_graph6(g)
        if parse_graph6(rec) != g:
            failures.append("random round trip n=%d" % n)
            break
        ref = nx.to_graph6_bytes(to_nx(g), header=False).decode().strip()
        if rec != ref or from_nx(nx.from_graph6_bytes(rec.encode())) != g:
            failures.append("reference codec drift n=%d" % n)
            break
    # canonical labels vs permutation search at order 7
    groups = {}
    for g in enumerate_connected(7):
        key = (
            g.m,
            tuple(sorted(g.degree(v) for v in range(g.n))),
            tuple(distance_sequence(g)),
        )
        groups.setdefault(key, []).append(g)
    pairs = [
        (a, b)
        for group in groups.values()
        for a, b in itertools.combinations(group, 2)
    ]
    for a, b in rng.sample(pairs, min(300, len(pairs))):
        if canonical_form(a) == canonical_form(b) or brute_force_isomorphic(a, b):
            failures.append("canonical collision: %s %s" % (write_graph6(a), write_graph6(b)))
    sample = rng.sample(list(enumerate_connected(7)), 200)
    for g in sample:
        order = list(range(7))
        rng.shuffle(order)
        h = relabel(g, tuple(order))
        if canonical_form(h) != canonical_form(g):
            failures.append("canonical not invariant: %s" % write_graph6(g))
    one_way = verify_order_size(6, jobs=1).to_json(include_meta=False)
    four_way = verify_order_size(6, jobs=4).to_json(include_meta=False)
    eight_way = verify_order_size(6, jobs=8).to_json(include_meta=False)
    if one_way != four_way or one_way != eight_way:
        failures.append("sharded reports differ")
    _verdict(
        capsys,
        "criterion 8, codec fidelity, canonical labels, deterministic reports",
        failures,
    )


def test_criterion_9_planar_search(capsys):
    failures = []
    for n in range(4, 9):
        rep = search_maximal_planar(n)
        if not rep.passed:
            failures.append("order %d: counterexample candidates found" % n)
        if rep.coverage != "complete":
            failures.append("order %d: flip coverage not complete" % n)
        restricted = search_maximal_planar(n, mode="apollonian")
        if not restricted.passed or restricted.coverage != "partial":
            failures.append("order %d: restricted search misbehaved" % n)
        apo = {canonical_form(g) for g in enumerate_apollonian(n)}
        full = {canonical_form(g) for g in enumerate_maximal_planar(n)}
        if not apo <= full:
            failures.append("order %d: stacked members missing from search space" % n)
    # Apollonian networks past the flip closure's reach, with the cube of
    # the path as the one equality witness
    for n, count in ((9, 24), (10, 93), (11, 434)):
        restricted = search_maximal_planar(n, mode="apollonian")
        got = (
            restricted.graphs_checked,
            len(restricted.violations),
            restricted.equality_witnesses,
        )
        if got != (count, 0, [canonical_form(path_power(n, 3))]):
            failures.append("apollonian order %d: %r" % (n, got))
    _verdict(
        capsys,
        "criterion 9, planar triangulation search with coverage labels, "
        "Apollonian networks to order 11",
        failures,
    )
