"""Exhaustive generation of graph classes and canonical forms.

Counts are frozen against independent references: the graph atlas shipped
with networkx (all graphs on at most seven vertices), nonisomorphic_trees,
and published censuses of k-trees, planar triangulations, and stacked
triangulations.
"""

import itertools
import random
from collections import Counter
from functools import lru_cache

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import arbitrary_graphs, brute_force_isomorphic, from_nx, to_nx
from wienerseq import (
    Graph,
    canonical_form,
    canonical_graph,
    canonical_order,
    complete,
    cycle,
    degeneracy_check,
    enumerate_apollonian,
    enumerate_class,
    enumerate_connected,
    enumerate_k_connected,
    enumerate_k_trees,
    enumerate_maximal_k_degenerate,
    enumerate_maximal_planar,
    enumerate_odd_trees,
    is_connected,
    is_k_connected,
    is_odd_tree,
    parse_class_spec,
    path,
    relabel,
    star,
    verify_connectivity,
    write_graph6,
)
from wienerseq import enumeration
from wienerseq.enumeration import _faces

CONNECTED_COUNTS = {2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}
TREE_COUNTS = {2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106}
TWO_TREE_COUNTS = {3: 1, 4: 1, 5: 2, 6: 5, 7: 12, 8: 39, 9: 136, 10: 529}
THREE_TREE_COUNTS = {4: 1, 5: 1, 6: 2, 7: 5, 8: 15, 9: 58, 10: 275}
APOLLONIAN_COUNTS = {3: 1, 4: 1, 5: 1, 6: 1, 7: 3, 8: 7, 9: 24, 10: 93, 11: 434}
MAXIMAL_PLANAR_COUNTS = {4: 1, 5: 1, 6: 2, 7: 5, 8: 14, 9: 50}
ODD_TREE_COUNTS = {4: 1, 6: 2, 8: 3, 10: 7, 12: 13, 14: 32}
LABELED_CONNECTED_COUNTS = {2: 1, 3: 4, 4: 38, 5: 728, 6: 26704}
# k -> {n: count}; for k >= 5 every order 2..7 has one class (K_n, or K_7
# minus an edge at k = 5).
MAX_K_DEGENERATE_COUNTS = {
    1: {2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11},
    2: {2: 1, 3: 1, 4: 1, 5: 3, 6: 11, 7: 61},
    3: {2: 1, 3: 1, 4: 1, 5: 1, 6: 3, 7: 18},
    4: {2: 1, 3: 1, 4: 1, 5: 1, 6: 1, 7: 3},
}


def _labeled_connected(n):
    # Every labeled connected graph of order n: the oracle for unlabeled
    # enumeration.
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        g = Graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])
        if is_connected(g):
            yield g


@pytest.mark.parametrize("n,count", sorted(CONNECTED_COUNTS.items()))
def test_connected_counts(n, count):
    assert sum(1 for _ in enumerate_connected(n)) == count


def test_connected_counts_match_atlas():
    atlas = Counter()
    for G in nx.graph_atlas_g():
        if G.number_of_nodes() >= 2 and nx.is_connected(G):
            atlas[G.number_of_nodes()] += 1
    assert dict(atlas) == CONNECTED_COUNTS


def test_connected_per_size_matches_atlas():
    atlas = Counter(
        G.number_of_edges()
        for G in nx.graph_atlas_g()
        if G.number_of_nodes() == 6 and nx.is_connected(G)
    )
    ours = {m: sum(1 for _ in enumerate_connected(6, m=m)) for m in range(5, 16)}
    assert ours == dict(atlas)


@pytest.mark.parametrize("n,count", sorted(LABELED_CONNECTED_COUNTS.items()))
def test_labeled_connected_counts(n, count):
    assert sum(1 for _ in _labeled_connected(n)) == count


def test_labeled_collapses_to_unlabeled():
    forms = {canonical_form(g) for g in _labeled_connected(5)}
    assert len(forms) == CONNECTED_COUNTS[5]


@lru_cache(maxsize=None)
def _maximal_k_degenerate_at_8(k):
    # The maximal k-degenerate graphs among all graphs of order 8, by the
    # degeneracy check alone.  It calls a graph maximal only at the edge
    # count sum over i < n of min(i, k), so testing that count first skips
    # only graphs it rejects.
    size = sum(min(i, k) for i in range(8))
    return tuple(
        g
        for g in enumeration._all_graphs(8)
        if g.m == size and degeneracy_check(g, k) == (True, True)
    )


def _is_planar(g):
    return nx.check_planarity(to_nx(g))[0]


def _filter_at_8(name, k):
    # A class of order 8 as a filter of all graphs of order 8, by tests that
    # share no code with its grower.
    if name == "maximal_k_degenerate":
        return _maximal_k_degenerate_at_8(k)
    if name == "k_tree":
        return tuple(g for g in _maximal_k_degenerate_at_8(k) if nx.is_chordal(to_nx(g)))
    if name == "apollonian":
        return tuple(g for g in _filter_at_8("k_tree", 3) if _is_planar(g))
    if name == "maximal_planar":
        return tuple(
            g for g in enumeration._all_graphs(8) if g.m == 3 * 8 - 6 and _is_planar(g)
        )
    return tuple(g for g in enumeration._all_graphs(8) if is_odd_tree(g))


GROWN_AT_8 = {
    "maximal_k_degenerate": lambda k: enumeration._stacked(8, k, False),
    "k_tree": lambda k: enumeration._stacked(8, k, True),
    "apollonian": lambda k: enumerate_apollonian(8),
    "maximal_planar": lambda k: enumerate_maximal_planar(8),
    "odd_tree": lambda k: enumerate_odd_trees(8),
}


@pytest.mark.parametrize(
    "name,k,count",
    [("maximal_k_degenerate", k, c) for k, c in zip((1, 2, 3, 4), (23, 499, 235, 22))]
    + [("k_tree", k, c) for k, c in zip((1, 2, 3), (23, 39, 15))]
    + [("maximal_planar", 0, 14), ("apollonian", 0, 7), ("odd_tree", 0, 3)],
)
def test_grown_classes_equal_filters_of_all_graphs_at_order_8(name, k, count):
    # The canonical-deletion rules, face insertion and the flip closure
    # drop no class and add none, at one order past the cap of maximal
    # k-degenerate graphs.  _all_graphs(8) is the one criterion 1 builds,
    # cached in-process.
    grown = {canonical_graph(g) for g in GROWN_AT_8[name](k)}
    filtered = set(_filter_at_8(name, k))
    assert len(grown) == count
    assert grown == filtered


@pytest.mark.parametrize(
    "spec",
    [
        "connected:6",
        "k_tree:8,2",
        "maximal_k_degenerate:7,2",
        "odd_tree:12",
        "apollonian:9",
        "maximal_planar:8",
    ],
)
def test_enumeration_is_deterministic_and_sorted(spec):
    name, args = parse_class_spec(spec)
    graphs = list(enumerate_class(name, args))
    records = [write_graph6(g) for g in graphs]
    assert records == [write_graph6(g) for g in enumerate_class(name, args)]
    keys = [(g.m, write_graph6(g)) for g in graphs]
    assert keys == sorted(keys)
    assert len(set(records)) == len(records)


def _fresh_cache(monkeypatch, *names):
    # Each named class builder gets an empty cache for this test alone.  A
    # growth recurses, and a filter reads its parent class, through the
    # module global, so every level is built and counted, and the shared
    # cache, whose levels later tests read, comes back after the test.
    for name in names:
        grow = getattr(enumeration, name).__wrapped__
        monkeypatch.setattr(enumeration, name, lru_cache(maxsize=None)(grow))


def test_growth_encodes_each_kept_class_once(monkeypatch):
    # Classes are compared as Graphs, so graph6 is written only to sort the
    # classes kept at orders 2..5: 2 + 4 + 11 + 34, not once for each of the
    # 2 + 8 + 32 + 176 labeled children.
    calls = []

    def counting(g):
        calls.append(g)
        return write_graph6(g)

    monkeypatch.setattr(enumeration, "write_graph6", counting)
    _fresh_cache(monkeypatch, "_all_graphs")
    assert len(enumeration._all_graphs(5)) == 34
    assert len(calls) == 51


def test_flip_closure_encodes_each_kept_class_once(monkeypatch):
    # Each round of the flip closure collects canonical graphs unsorted, so
    # graph6 is written only to sort the 50 triangulations of order 9 once,
    # not for every class of every round, which took 170 calls.
    enumeration._apollonian(9)
    _fresh_cache(monkeypatch, "_triangulations")
    calls = []

    def counting(g):
        calls.append(g)
        return write_graph6(g)

    monkeypatch.setattr(enumeration, "write_graph6", counting)
    assert len(enumeration._triangulations(9)) == 50
    assert len(calls) == 50


def test_growth_validates_no_child(monkeypatch):
    # Children and canonical graphs are built from masks, so the 218
    # children of orders 2..5 (2 + 8 + 32 + 176) cost no Graph(n, edges)
    # call, neither for the child nor for its canonical graph; the one
    # validated construction is Graph(1), the root of the growth.
    calls = []
    init = Graph.__init__

    def counting(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Graph, "__init__", counting)
    _fresh_cache(monkeypatch, "_all_graphs")
    assert len(enumeration._all_graphs(5)) == 34
    assert calls == [(1,)]


def test_growth_labels_only_canonical_deletions(monkeypatch):
    # 3-trees of orders 5..10 label 4 + 7 + 11 + 25 + 87 + 379 children,
    # not all 4 + 7 + 20 + 65 + 240 + 1,102 = 1,438; Apollonian networks of
    # orders 4..11 label 1 + 4 + 6 + 8 + 13 + 36 + 131 + 544, not all
    # 1 + 4 + 6 + 8 + 30 + 84 + 336 + 1,488 = 1,957.
    calls = []

    def counting(g):
        calls.append(g)
        return canonical_graph(g)

    monkeypatch.setattr(enumeration, "canonical_graph", counting)
    _fresh_cache(monkeypatch, "_stacked", "_apollonian")
    assert len(enumeration._stacked(10, 3, True)) == 275
    assert len(calls) == 513
    calls.clear()
    assert len(enumeration._apollonian(11)) == 434
    assert len(calls) == 743


def test_odd_tree_growth_labels_each_class_once(monkeypatch):
    # Children are deduplicated by tree code, so each level labels one child
    # per class: odd trees of orders 4..12 label 1 + 2 + 3 + 7 + 13 = 26
    # children, not the n - 2 leaf-pair children of each parent of order
    # n - 2, 1·2 + 1·4 + 2·6 + 3·8 + 7·10 = 112; order 14 adds 32, not
    # 13·12 = 156, so 58 in all, not 268.
    calls = []

    def counting(g):
        calls.append(g)
        return canonical_graph(g)

    monkeypatch.setattr(enumeration, "canonical_graph", counting)
    _fresh_cache(monkeypatch, "_odd_trees")
    assert len(enumeration._odd_trees(12)) == 13
    assert len(calls) == 26
    assert len(enumeration._odd_trees(14)) == 32
    assert len(calls) == 58


def test_tree_chain_labels_each_class_once(monkeypatch):
    # For k = 1 the stacked chain grows trees, keyed by tree code, so each
    # order labels one child per class: the trees of orders 3..10 (A000055)
    # are 1 + 2 + 3 + 6 + 11 + 23 + 47 + 106 = 199 classes and labelings,
    # not the 301 canonical-deletion children.
    calls = []

    def counting(g):
        calls.append(g)
        return canonical_graph(g)

    monkeypatch.setattr(enumeration, "canonical_graph", counting)
    _fresh_cache(monkeypatch, "_stacked")
    assert len(enumeration._stacked(10, 1, False)) == 106
    assert len(calls) == 199


def _stacked_children(k, cliques):
    # Every child of the stacked growth: a new vertex on any k vertices, or
    # on any k-clique, with no deletion rule.
    def children(g):
        for s in itertools.combinations(range(g.n), k):
            if not cliques or all(
                g.has_edge(u, v) for u, v in itertools.combinations(s, 2)
            ):
                yield enumeration._attach(g, sum(1 << v for v in s))

    return children


def _face_children(g):
    # Every child of face insertion, with no deletion rule.
    for a, b, c in _faces(g):
        yield enumeration._attach(g, 1 << a | 1 << b | 1 << c)


# name -> (class args after n, root order, least degree, top order, children)
DELETION_GROWERS = {
    **{
        "k_tree:%d" % k: ((k,), k + 1, k, 10, _stacked_children(k, k > 1))
        for k in (1, 2, 3)
    },
    **{
        "maximal_k_degenerate:%d" % k: ((k,), k + 1, k, 7, _stacked_children(k, False))
        for k in (1, 2, 3, 4)
    },
    "apollonian": ((), 3, 3, 11, _face_children),
}


def _grown(name, n):
    # The canonical graphs of the class at order n, as the package grows it.
    args = DELETION_GROWERS[name][0]
    return set(enumerate_class(name.split(":")[0], (n,) + args))


def _delete(g, v):
    return Graph(
        g.n - 1, [(a - (a > v), b - (b > v)) for a, b in g.edges if v not in (a, b)]
    )


@pytest.mark.parametrize("name", sorted(DELETION_GROWERS))
def test_canonical_deletion_drops_no_class(name):
    # The oracle labels every child that the class's generator makes; the
    # deletion rule must reach the same classes at every order.
    _, root, _, top, children = DELETION_GROWERS[name]
    level = (canonical_graph(complete(root)),)
    for n in range(root + 1, top + 1):
        level = enumeration._grow(level, children)
        assert _grown(name, n) == set(level), n


@pytest.mark.parametrize("name", sorted(DELETION_GROWERS))
def test_least_degree_vertices_delete_into_the_parent_class(name):
    # The rule's lemmas: the new vertex of every child has the class's least
    # degree, and deleting any vertex of that degree from a member leaves a
    # member of the parent class.
    _, root, least, top, children = DELETION_GROWERS[name]
    parents = _grown(name, root)
    for n in range(root + 1, top + 1):
        for g in parents:
            for h in children(g):
                assert h.degree(n - 1) == least == min(map(h.degree, range(n)))
        members = _grown(name, n)
        for h in members:
            assert min(map(h.degree, range(n))) == least
            for v in range(n):
                if h.degree(v) == least:
                    assert canonical_graph(_delete(h, v)) in parents, (n, v)
        parents = members


@pytest.mark.parametrize("n,count", sorted(TREE_COUNTS.items()))
def test_tree_counts(n, count):
    assert sum(1 for _ in enumerate_k_trees(n, 1)) == count


@pytest.mark.parametrize("n,count", sorted(TWO_TREE_COUNTS.items()))
def test_two_tree_counts(n, count):
    assert sum(1 for _ in enumerate_k_trees(n, 2)) == count


@pytest.mark.parametrize("n,count", sorted(THREE_TREE_COUNTS.items()))
def test_three_tree_counts(n, count):
    assert sum(1 for _ in enumerate_k_trees(n, 3)) == count


@pytest.mark.parametrize("k", [1, 2, 3])
def test_k_trees_are_maximal_k_degenerate(k):
    for n in range(k + 1, 8):
        for g in enumerate_k_trees(n, k):
            assert g.m == k * n - k * (k + 1) // 2
            assert degeneracy_check(g, k) == (True, True)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_k_trees_within_maximal_k_degenerate(k):
    for n in range(k + 1, 8):
        trees = {canonical_form(g) for g in enumerate_k_trees(n, k)}
        degen = {canonical_form(g) for g in enumerate_maximal_k_degenerate(n, k)}
        assert trees <= degen


@pytest.mark.parametrize(
    "n,k,count",
    [
        (n, k, MAX_K_DEGENERATE_COUNTS.get(k, {}).get(n, 1))
        for k in range(1, 8)
        for n in range(2, 8)
    ],
)
def test_maximal_k_degenerate_counts(n, k, count):
    assert sum(1 for _ in enumerate_maximal_k_degenerate(n, k)) == count


def test_maximal_k_degenerate_equals_filtered_connected():
    # Growth from K_{k+1} against the filter over all connected graphs it
    # replaced.
    for n in range(2, 8):
        connected = list(enumerate_connected(n))
        for k in range(1, 8):
            grown = {canonical_form(g) for g in enumerate_maximal_k_degenerate(n, k)}
            filtered = {
                canonical_form(g)
                for g in connected
                if degeneracy_check(g, k) == (True, True)
            }
            assert grown == filtered, (n, k)


def test_maximal_k_degenerate_members_verify():
    for n in range(3, 8):
        for k in (1, 2, 3):
            if n < k + 1:
                continue
            for g in enumerate_maximal_k_degenerate(n, k):
                assert degeneracy_check(g, k) == (True, True)


@pytest.mark.parametrize("n,count", sorted(ODD_TREE_COUNTS.items()))
def test_odd_tree_counts(n, count):
    assert sum(1 for _ in enumerate_odd_trees(n)) == count


def test_odd_tree_counts_match_reference():
    for n in range(4, 15, 2):
        ref = sum(
            1
            for T in nx.nonisomorphic_trees(n)
            if all(d % 2 == 1 for _, d in T.degree())
        )
        assert sum(1 for _ in enumerate_odd_trees(n)) == ref


def test_odd_tree_members_are_odd_trees():
    for n in range(4, 15, 2):
        for g in enumerate_odd_trees(n):
            assert is_odd_tree(g)


def test_odd_trees_equal_filtered_trees():
    # Growth by leaf pairs against the filter over all trees it replaced.
    for n in range(4, 11, 2):
        grown = {canonical_form(g) for g in enumerate_odd_trees(n)}
        filtered = {canonical_form(g) for g in enumerate_k_trees(n, 1) if is_odd_tree(g)}
        assert grown == filtered


def _leaf_pair_children(g):
    # Every child of the odd-tree growth: two leaves hung on any vertex.
    for v in range(g.n):
        yield enumeration._attach(enumeration._attach(g, 1 << v), 1 << v)


def test_code_keyed_odd_trees_drop_no_class():
    # The oracle labels every leaf-pair child; keying the children by tree
    # code must keep the same classes, in the same order, at every order.
    level = (Graph(2, [(0, 1)]),)
    for n in range(4, 15, 2):
        level = enumeration._grow(level, _leaf_pair_children)
        assert enumeration._odd_trees(n) == level, n


def _prufer_tree(seq):
    # The labeled tree on len(seq) + 2 vertices with Prüfer sequence seq.
    n = len(seq) + 2
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    for v in seq:
        leaf = degree.index(1)
        edges.append((leaf, v))
        degree[leaf] -= 1
        degree[v] -= 1
    edges.append(tuple(u for u in range(n) if degree[u] == 1))
    return Graph(n, edges)


def test_tree_code_is_relabel_invariant():
    rng = random.Random(20)
    for n in range(2, 17):
        for _ in range(10):
            g = _prufer_tree([rng.randrange(n) for _ in range(n - 2)])
            order = list(range(n))
            rng.shuffle(order)
            h = relabel(g, tuple(order))
            assert enumeration._tree_code(h.bits) == enumeration._tree_code(g.bits)


@pytest.mark.parametrize("n,count", sorted(TREE_COUNTS.items()))
def test_tree_code_separates_tree_classes(n, count):
    # As many codes as classes (A000055), so no two classes share a code.
    codes = {enumeration._tree_code(g.bits) for g in enumerate_k_trees(n, 1)}
    assert len(codes) == count


def test_tree_code_edge_cases():
    code = enumeration._tree_code
    # One vertex and one edge: one centre, then two.
    assert code(Graph(1).bits) == "()"
    assert code(path(2).bits) == "()()"
    # An odd path has one centre; an even path has two, with equal halves.
    assert code(path(5).bits) == "((())(()))"
    assert code(path(6).bits) == "((()))((()))"
    # Double stars: two centres, the half-trees sorted, so the side that
    # carries more leaves does not matter.
    double_star = Graph(7, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (1, 6)])
    assert code(double_star.bits) == "(()()())(()())"
    assert code(relabel(double_star, (1, 0, 4, 5, 6, 2, 3)).bits) == code(
        double_star.bits
    )
    assert code(star(7).bits) == "(()()()()()())"


@pytest.mark.parametrize("n,count", sorted(APOLLONIAN_COUNTS.items()))
def test_apollonian_counts(n, count):
    assert sum(1 for _ in enumerate_apollonian(n)) == count


@pytest.mark.parametrize("n,count", sorted(MAXIMAL_PLANAR_COUNTS.items()))
def test_maximal_planar_counts(n, count):
    assert sum(1 for _ in enumerate_maximal_planar(n)) == count


def test_maximal_planar_members_are_planar_triangulations():
    for n in range(4, 9):
        for g in enumerate_maximal_planar(n):
            assert g.m == 3 * g.n - 6
            ok, _ = nx.check_planarity(nx.Graph(list(g.edges)))
            assert ok


def test_apollonian_equals_planar_three_trees():
    for n in range(4, 10):
        apo = {canonical_form(g) for g in enumerate_apollonian(n)}
        planar = {canonical_form(g) for g in enumerate_maximal_planar(n)}
        three_trees = {canonical_form(g) for g in enumerate_k_trees(n, 3)}
        assert apo == planar & three_trees


def _sphere_triangulations():
    # Every triangulation of order 4..9 and every Apollonian network of
    # order 4..11; the triangle (order 3) is not 3-connected.
    for n in range(4, 10):
        yield from enumerate_maximal_planar(n)
    for n in range(4, 12):
        yield from enumerate_apollonian(n)


def test_derived_faces_cover_each_edge_twice():
    graphs = list(_sphere_triangulations())
    assert len(graphs) == sum(MAXIMAL_PLANAR_COUNTS.values()) + sum(
        count for n, count in APOLLONIAN_COUNTS.items() if n >= 4
    )
    for g in graphs:
        faces = list(_faces(g))
        assert len(faces) == 2 * g.n - 4
        on = Counter(e for a, b, c in faces for e in ((a, b), (a, c), (b, c)))
        assert set(on) == set(g.edges)
        assert set(on.values()) == {2}


def test_derived_faces_match_planar_embedding():
    for g in _sphere_triangulations():
        if g.n > 8:
            continue
        ok, embedding = nx.check_planarity(nx.Graph(list(g.edges)))
        assert ok
        visited = set()
        faces = {
            frozenset(embedding.traverse_face(u, v, mark_half_edges=visited))
            for u, v in embedding.edges()
            if (u, v) not in visited
        }
        assert faces == {frozenset(f) for f in _faces(g)}


def test_k_connected_counts():
    # every connected graph is 1-connected at n >= 2
    assert sum(1 for _ in enumerate_k_connected(6, 1)) == CONNECTED_COUNTS[6]
    for n in range(4, 8):
        expected = sum(1 for g in enumerate_connected(n) if is_k_connected(g, 2))
        assert sum(1 for _ in enumerate_k_connected(n, 2)) == expected


@given(arbitrary_graphs(min_n=1, max_n=8))
@settings(deadline=None)
def test_canonical_form_is_relabel_invariant(g):
    base = canonical_form(g)
    order = tuple(reversed(range(g.n)))
    assert canonical_form(relabel(g, order)) == base
    cg = canonical_graph(g)
    assert write_graph6(cg) == base
    assert sorted(cg.degree(v) for v in range(cg.n)) == sorted(
        g.degree(v) for v in range(g.n)
    )


def test_canonical_order_is_a_permutation():
    g = star(7)
    order = canonical_order(g)
    assert sorted(order) == list(range(7))


def test_canonical_form_separates_iff_nonisomorphic():
    for n in range(2, 7):
        by_m = {}
        for g in enumerate_connected(n):
            by_m.setdefault(g.m, []).append(g)
        for group in by_m.values():
            # enumeration already dedups, so all pairs must be nonisomorphic
            for a, b in itertools.combinations(group, 2):
                assert canonical_form(a) != canonical_form(b)
                assert not brute_force_isomorphic(a, b)


def test_canonical_form_identifies_relabelings_against_brute_force():
    for g in enumerate_connected(5):
        h = relabel(g, tuple(reversed(range(g.n))))
        assert brute_force_isomorphic(g, h)
        assert canonical_form(g) == canonical_form(h)


def test_brute_force_isomorphic_examples():
    assert brute_force_isomorphic(path(4), relabel(path(4), (3, 1, 0, 2)))
    assert not brute_force_isomorphic(path(4), star(4))
    assert not brute_force_isomorphic(path(4), path(5))


def test_enumeration_ceilings():
    for m in (-1, 11):
        with pytest.raises(ValueError):
            list(enumerate_connected(5, m))
    assert list(enumerate_connected(5, 3)) == []
    assert [g.m for g in enumerate_connected(5, 10)] == [10]
    with pytest.raises(ValueError):
        list(enumerate_k_trees(8, enumeration.K_TREE_MAX_K + 1))
    with pytest.raises(ValueError):
        list(enumerate_k_trees(2, 2))
    for n, k in ((8, 2), (5, 0)):
        with pytest.raises(ValueError):
            list(enumerate_maximal_k_degenerate(n, k))


CLASS_CACHES = ("_all_graphs", "_connected", "_k_connected")


def _grown_nothing():
    return all(
        getattr(enumeration, name).cache_info().currsize == 0 for name in CLASS_CACHES
    )


def test_k_connected_rejects_kappa_before_generating(monkeypatch):
    # A kappa below 1 raises before _all_graphs builds a single level, so
    # rejecting it costs nothing at any order.
    _fresh_cache(monkeypatch, *CLASS_CACHES)
    with pytest.raises(ValueError, match=r"^kappa must be in 1\.\., got 0$"):
        next(enumerate_k_connected(8, 0))
    assert _grown_nothing()


@pytest.mark.parametrize("n,kappa", [(2, 2), (7, 7), (7, 9), (8, 8)])
def test_k_connected_yields_nothing_at_kappa_of_the_order_or_more(
    monkeypatch, n, kappa
):
    # A kappa-connected graph has more than kappa vertices, so kappa >= n
    # yields nothing without growing a class, and no cache gets the key.
    _fresh_cache(monkeypatch, *CLASS_CACHES)
    assert list(enumerate_k_connected(n, kappa)) == []
    assert _grown_nothing()
    # The order is still checked.
    with pytest.raises(ValueError, match=r"^order must be in 2\.\.8, got 9$"):
        next(enumerate_k_connected(9, 9))


def test_a_warm_second_suite_filters_no_graph(monkeypatch):
    # The connected classes are cached like the grown ones, so the first
    # verify_connectivity(6, 2) tests each of the 156 graphs of order 6 for
    # connectivity and each of the 112 connected ones for 2-connectivity,
    # and a second run tests none.
    calls = Counter()

    def counting(name):
        real = getattr(enumeration, name)

        def counted(*args):
            calls[name] += 1
            return real(*args)

        return counted

    _fresh_cache(monkeypatch, "_connected", "_k_connected")
    for name in ("is_connected", "is_k_connected"):
        monkeypatch.setattr(enumeration, name, counting(name))
    first = verify_connectivity(6, 2)
    assert calls == {"is_connected": 156, "is_k_connected": 112}
    calls.clear()
    second = verify_connectivity(6, 2)
    assert calls == {}
    text = first.to_json(include_meta=False)
    assert second.to_json(include_meta=False) == text
    assert verify_connectivity(6, 2, jobs=2).to_json(include_meta=False) == text


# (class, arguments after the order, lowest order, highest order, step
# between orders), with each highest order read from the module's cap.
ORDER_RANGES = [
    ("connected", (), 2, enumeration.CONNECTED_MAX_N, 1),
    ("k_connected", (1,), 2, enumeration.CONNECTED_MAX_N, 1),
    *(
        ("k_tree", (k,), k + 1, enumeration.K_TREE_MAX_N, 1)
        for k in range(1, enumeration.K_TREE_MAX_K + 1)
    ),
    ("maximal_k_degenerate", (1,), 2, enumeration.MAX_K_DEGENERATE_MAX_N, 1),
    ("apollonian", (), 3, enumeration.APOLLONIAN_MAX_N, 1),
    ("odd_tree", (), 4, enumeration.ODD_TREE_MAX_N, 2),
    ("maximal_planar", (), 4, enumeration.MAXIMAL_PLANAR_MAX_N, 1),
]


def test_order_ranges_cover_every_class():
    assert {name for name, *_ in ORDER_RANGES} == set(enumeration.CLASSES)


@pytest.mark.parametrize(
    "name,rest,low,high,step",
    ORDER_RANGES,
    ids=[":".join(map(str, (name, *rest))) for name, rest, *_ in ORDER_RANGES],
)
def test_order_range_of_every_class(name, rest, low, high, step):
    # The orders one step outside the range, and for a step above 1 an
    # order between two steps, raise before anything is generated; the
    # lowest order yields a graph.
    outside = [low - step, high + step] + ([low + 1] if step > 1 else [])
    for n in outside:
        with pytest.raises(ValueError):
            next(enumerate_class(name, (n, *rest)))
    assert next(enumerate_class(name, (low, *rest))).n == low


def test_class_spec_dispatch():
    assert [write_graph6(g) for g in enumerate_class("connected", (5,))] == [
        write_graph6(g) for g in enumerate_connected(5)
    ]
    name, args = parse_class_spec("k_tree:8,2")
    assert (name, args) == ("k_tree", (8, 2))
    assert sum(1 for _ in enumerate_class(name, args)) == TWO_TREE_COUNTS[8]
    for bad in (
        "nope:5",
        "connected",
        "k_tree:8",
        "k_tree:8,2,1",
        "connected:6,15,1",
        "connected:x",
        "k_tree:8,x",
        "connected:6,",
        "k_tree:8,2,",
    ):
        with pytest.raises(ValueError):
            parse_class_spec(bad)
    with pytest.raises(ValueError, match="unknown class"):
        list(enumerate_class("nope", ()))
