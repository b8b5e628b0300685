"""The labeler against the one it replaced, and on graphs that colour
refinement cannot split or splits down to the automorphism orbits; the
refinement against the one that keyed on every cell; the Graphs built from
masks against the validated constructor and relabel."""

import hashlib
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import arbitrary_graphs, from_nx
from old_labeler import _column, old_branch, old_canonical_form, old_cells
from wienerseq import (
    Graph,
    canonical_form,
    canonical_graph,
    canonical_order,
    complete,
    cycle,
    enumerate_class,
    enumerate_maximal_planar,
    parse_class_spec,
    path,
    relabel,
    star,
)
from wienerseq import enumeration
from wienerseq.enumeration import (
    _all_graphs,
    _attach,
    _branch,
    _cells,
    _flips,
    _search,
)

# spec -> (classes, first 16 hex digits of the sha256 of the records that
# the max-over-all-orderings labeler gave the class, sorted, one per line).
# "all:n" is every graph of order n, connected or not.
OLD_RECORDS = {
    "all:1": (1, "ecf5de1a2ecc66a1"),
    "all:2": (2, "b7cd2a004ade8613"),
    "all:3": (4, "a1680d75ef87e824"),
    "all:4": (11, "086836d1f4a6e90a"),
    "all:5": (34, "4cd33c244a6b9bba"),
    "all:6": (156, "b53ac0d60c7c818a"),
    "all:7": (1044, "b6647fb163f23212"),
    "k_tree:10,1": (106, "00cb057365684a18"),
    "k_tree:10,2": (529, "9838d3191c6b05c6"),
    "k_tree:10,3": (275, "2f09a255209283b6"),
    "apollonian:3": (1, "8e71b38f49355768"),
    "apollonian:4": (1, "62073900de6d9451"),
    "apollonian:5": (1, "05714328992563e6"),
    "apollonian:6": (1, "78fb6cd00cbe156a"),
    "apollonian:7": (3, "855d5838e138128d"),
    "apollonian:8": (7, "8bb07dfee3664b3c"),
    "apollonian:9": (24, "4441f1375c6d921e"),
    "apollonian:10": (93, "866ce72125f55f7d"),
    "apollonian:11": (434, "a1ead82e4ab1e8ab"),
    "maximal_planar:4": (1, "62073900de6d9451"),
    "maximal_planar:5": (1, "05714328992563e6"),
    "maximal_planar:6": (2, "04ba5fd5ae6adb76"),
    "maximal_planar:7": (5, "f95a1e6b53effec1"),
    "maximal_planar:8": (14, "de6176ea63a577eb"),
    "maximal_planar:9": (50, "6ff0b01881506b20"),
    "odd_tree:4": (1, "5adf47a8efd80b20"),
    "odd_tree:6": (2, "dcb787596211fc84"),
    "odd_tree:8": (3, "0fb4cf41c92ea164"),
    "odd_tree:10": (7, "7571c377512264bf"),
    "odd_tree:12": (13, "65fc7ef84db0b128"),
    "odd_tree:14": (32, "e89478fcc311bead"),
}


def _class(spec):
    if spec.startswith("all:"):
        return _all_graphs(int(spec[4:]))
    return tuple(enumerate_class(*parse_class_spec(spec)))


@pytest.mark.parametrize("spec", sorted(OLD_RECORDS))
def test_classes_are_the_old_labelers_classes(spec):
    count, digest = OLD_RECORDS[spec]
    records = sorted(old_canonical_form(g) + "\n" for g in _class(spec))
    assert len(records) == count
    assert len(set(records)) == count
    assert hashlib.sha256("".join(records).encode()).hexdigest()[:16] == digest


@st.composite
def graph_pairs(draw):
    # A relabeled copy, a copy with one pair toggled, or an unrelated graph
    # of the same order: isomorphic pairs and near misses both come up.
    g = draw(arbitrary_graphs(max_n=9))
    kind = draw(st.sampled_from(("relabel", "toggle", "other")))
    if kind == "other":
        return g, draw(arbitrary_graphs(min_n=g.n, max_n=g.n))
    edges = set(g.edges)
    if kind == "toggle" and g.n >= 2:
        u, v = sorted(draw(st.permutations(range(g.n)))[:2])
        edges ^= {(u, v)}
    h = Graph(g.n, sorted(edges))
    return g, relabel(h, tuple(draw(st.permutations(range(g.n)))))


@given(graph_pairs())
@settings(deadline=None, max_examples=300)
def test_old_and_new_labelers_induce_the_same_partition(pair):
    g, h = pair
    same_old = old_canonical_form(g) == old_canonical_form(h)
    assert (canonical_form(g) == canonical_form(h)) == same_old


def _nx(G):
    return from_nx(nx.convert_node_labels_to_integers(G))


UNSPLIT = {
    "C_10": cycle(10),
    "K_4,4": _nx(nx.complete_bipartite_graph(4, 4)),
    "Q3": _nx(nx.hypercube_graph(3)),
    "Petersen": _nx(nx.petersen_graph()),
    "K_3,3": _nx(nx.complete_bipartite_graph(3, 3)),
}


def _assert_relabel_invariant(g, seed):
    rng = random.Random(seed)
    base = canonical_form(g)
    for _ in range(20):
        order = list(range(g.n))
        rng.shuffle(order)
        assert canonical_form(relabel(g, tuple(order))) == base


@pytest.mark.parametrize("name", sorted(UNSPLIT))
def test_regular_graphs_refinement_cannot_split(name):
    g = UNSPLIT[name]
    assert _cells(g.bits, g.n) == [(1 << g.n) - 1]
    # One cell admits every ordering, so the search is the old one.
    assert canonical_form(g) == old_canonical_form(g)
    _assert_relabel_invariant(g, seed=g.n)


# A spider with legs of 1, 2 and 3 edges: the smallest asymmetric tree.
SPIDER = Graph(7, [(0, 1), (0, 2), (2, 3), (0, 4), (4, 5), (5, 6)])


@pytest.mark.parametrize(
    "g,orbits",
    [
        (star(7), [{0}, set(range(1, 7))]),
        (path(7), [{0, 6}, {1, 5}, {2, 4}, {3}]),
        (path(8), [{0, 7}, {1, 6}, {2, 5}, {3, 4}]),
        (SPIDER, [{v} for v in range(7)]),
    ],
)
def test_refinement_splits_down_to_the_orbits(g, orbits):
    cells = [{v for v in range(g.n) if c >> v & 1} for c in _cells(g.bits, g.n)]
    assert sorted(map(sorted, cells)) == sorted(map(sorted, orbits))
    assert sorted(canonical_order(g)) == list(range(g.n))
    assert canonical_form(g) == canonical_form(relabel(g, canonical_order(g)))
    _assert_relabel_invariant(g, seed=g.n)


def _assert_mask_built(g):
    # A Graph built from masks has the edges and bits of the Graph that the
    # validating constructor builds from its edges.
    h = Graph(g.n, g.edges)
    assert (g.n, g.edges, g.bits) == (h.n, h.edges, h.bits)


def _assert_canonical_graph_is_relabel(g):
    c = canonical_graph(g)
    _assert_mask_built(c)
    assert c == relabel(g, canonical_order(g))


def _random_graphs(count, max_n, seed):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, max_n)
        p = rng.random()
        yield Graph(
            n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        )


@pytest.mark.parametrize("n", range(1, 6))
def test_children_of_the_growth_are_mask_built(n):
    # Every child that _all_graphs(n + 1) labels: each graph of order n with
    # every neighborhood of the new vertex.
    for g in _all_graphs(n):
        for mask in range(1 << n):
            child = _attach(g, mask)
            _assert_mask_built(child)
            assert child == Graph(
                n + 1, g.edges + tuple((v, n) for v in range(n) if mask >> v & 1)
            )
            _assert_canonical_graph_is_relabel(child)


def test_random_graphs_canonical_graph_is_relabel():
    rng = random.Random(16)
    for g in _random_graphs(2000, 11, seed=16):
        _assert_canonical_graph_is_relabel(g)
        _assert_mask_built(_attach(g, rng.getrandbits(g.n)))


def test_flips_are_mask_built():
    for g in enumerate_maximal_planar(8):
        for h in _flips(g):
            _assert_mask_built(h)
            assert h.m == g.m and len(set(g.edges) ^ set(h.edges)) == 2


def _labeled_children(n):
    # Every child that _all_graphs(n) labels: each graph of order k < n with
    # every neighbourhood of the new vertex, 11,290 for n = 7.
    return [
        _attach(g, mask)
        for k in range(1, n)
        for g in _all_graphs(k)
        for mask in range(1 << k)
    ]


def test_refinement_matches_the_full_key_refinement():
    # Keying only on the cells the last round split gives the ordered cell
    # list that keying on every cell gave.  Of the 11,290 children that
    # _all_graphs(7) labels, 2,320 end with one vertex per cell.
    children = _labeled_children(7)
    cells = [_cells(g.bits, g.n) for g in children]
    assert len(children) == 11290
    assert sum(len(c) == g.n for g, c in zip(children, cells)) == 2320
    assert cells == [old_cells(g.bits, g.n) for g in children]
    for g in _random_graphs(2000, 12, seed=26):
        assert _cells(g.bits, g.n) == old_cells(g.bits, g.n)


def test_twin_class_partitions_skip_the_search(monkeypatch):
    # When every cell is a class of twins, and with one vertex per cell in
    # particular, _branch would place the cells' vertices in ascending
    # order, so _search takes that ordering without calling _branch, and
    # the canonical graph has the columns _branch finds.  The old labeler
    # maximises over all orderings, so its records differ, but both split
    # graphs alike.  The children are built before _branch is patched, so
    # growing _all_graphs here, when no test before has, is not counted.
    children = _labeled_children(7)
    discrete = [SPIDER] + [
        g for g in _random_graphs(400, 9, seed=7) if len(_cells(g.bits, g.n)) == g.n
    ]
    assert len(discrete) > 50
    twins = (
        [star(n) for n in range(3, 10)]
        + [complete(n) for n in range(2, 10)]
        + [
            _nx(nx.complete_bipartite_graph(a, b))
            for a in range(1, 6)
            for b in range(a + 1, 7)
        ]
    )
    for g in twins:
        assert len(_cells(g.bits, g.n)) < g.n
    graphs = discrete + twins
    searched = [_branch(g.bits, g.n, _cells(g.bits, g.n)) for g in graphs]

    def no_branch(bits, n, cells):
        raise AssertionError("searched a partition of twin classes")

    monkeypatch.setattr(enumeration, "_branch", no_branch)
    for g, (order, cols) in zip(graphs, searched):
        assert _search(g.bits, g.n) == tuple(order)
        c = canonical_graph(g)
        assert [_column(c.bits[i], list(range(i))) for i in range(g.n)] == cols
        rng = random.Random(g.n)
        for _ in range(3):
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert canonical_form(relabel(g, tuple(perm))) == canonical_form(g)
    forms = {canonical_form(g) for g in graphs}
    assert len(forms) == len({old_canonical_form(g) for g in graphs})

    # Of the 11,290 children that _all_graphs(7) labels, 2,320 have a
    # discrete partition and 6,084 one of twin classes, so _branch runs on
    # the other 2,886.
    calls = []

    def counting(bits, n, cells):
        calls.append(cells)
        return _branch(bits, n, cells)

    monkeypatch.setattr(enumeration, "_branch", counting)
    for g in children:
        _search(g.bits, g.n)
    assert len(calls) == 2886


def test_largest_column_search_matches_the_search_of_every_column():
    # Placing only each node's largest column finds the ordering and the
    # columns that branching on every column group found, on all 9,984
    # children of _all_graphs(6) and on random graphs up to order 12; the
    # canonical order is that ordering, through the twin-class shortcut too.
    children = [_attach(g, mask) for g in _all_graphs(6) for mask in range(1 << 6)]
    assert len(children) == 9984
    for g in children + list(_random_graphs(2000, 12, seed=27)):
        cells = _cells(g.bits, g.n)
        order, cols = old_branch(g.bits, g.n, cells)
        assert _branch(g.bits, g.n, cells) == (order, cols)
        assert canonical_order(g) == tuple(order)
