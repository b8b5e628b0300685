"""Distance sequences, dominance comparison, merging, and the deletion bound."""

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import arbitrary_graphs, connected_graphs, merge, to_nx
from wienerseq import (
    DisconnectedGraphError,
    DistanceSequence,
    Dominance,
    Graph,
    canonical_graph,
    compare,
    complete,
    cycle,
    deletion_bound_check,
    deletion_bounds,
    distance_matrix,
    distance_sequence,
    enumerate_connected,
    is_cut_vertex,
    path,
    relabel,
    star,
    vertex_distance_sequence,
    write_graph6,
)
from wienerseq import sequences, verifier
from wienerseq.families import odd_caterpillar

entry_lists = st.lists(st.integers(1, 9), max_size=30)


def seq_of(values):
    return DistanceSequence.from_entries(values)


def test_constructor_validation():
    with pytest.raises(ValueError):
        seq_of([0, 1])
    with pytest.raises(ValueError):
        seq_of([-2])
    with pytest.raises(ValueError):
        DistanceSequence([(1, -3)])
    # zero-multiplicity runs are normalized away, not rejected
    assert DistanceSequence([(1, 0)]) == seq_of([])
    with pytest.raises(ValueError, match="sorted"):
        DistanceSequence([(2, 1), (1, 1)])
    # equal adjacent values merge into one run
    assert DistanceSequence([(1, 1), (1, 2), (2, 1)]).runs == ((1, 3), (2, 1))
    with pytest.raises(ValueError, match="empty"):
        seq_of([]).max_value


@given(entry_lists)
def test_entries_sorted_and_indexable(values):
    seq = seq_of(values)
    expected = sorted(values)
    assert list(seq) == expected
    assert len(seq) == len(expected)
    assert [seq[i] for i in range(len(seq))] == expected
    assert [seq[-i] for i in range(1, len(seq) + 1)] == expected[::-1]
    for i in (len(seq), -len(seq) - 1):
        with pytest.raises(IndexError):
            seq[i]
    if expected:
        assert seq.max_value == expected[-1]


@given(entry_lists)
def test_pairs_round_trip(values):
    seq = seq_of(values)
    assert DistanceSequence.from_pairs(seq.to_pairs()) == seq


def test_to_text_run_length_form():
    assert distance_sequence(odd_caterpillar(6)).to_text() == "1^5 2^6 3^4"
    assert distance_sequence(path(4)).to_text() == "1^3 2^2 3"
    assert seq_of([]).to_text() == ""


@given(entry_lists)
def test_equality_and_hash_follow_content(values):
    a = seq_of(values)
    b = seq_of(list(reversed(values)))
    assert a == b
    assert hash(a) == hash(b)


def test_compare_frozen_examples():
    rel = compare(distance_sequence(path(5)), distance_sequence(star(5)))
    assert rel.tag == Dominance.GREATER
    assert rel.greater_at == 7 and rel.less_at is None
    assert rel.dominated is False

    rel = compare(seq_of([1, 3]), seq_of([2, 2]))
    assert rel.tag == Dominance.INCOMPARABLE
    assert rel.less_at == 0 and rel.greater_at == 1

    rel = compare(seq_of([1, 2, 2]), seq_of([1, 2, 2]))
    assert rel.tag == Dominance.EQUAL
    assert rel.less_at is None and rel.greater_at is None

    rel = compare(seq_of([1, 2, 2]), seq_of([1, 2, 3]))
    assert rel.tag == Dominance.LESS
    assert rel.dominated is True


def test_compare_rejects_length_mismatch():
    with pytest.raises(ValueError):
        compare(seq_of([1]), seq_of([1, 2]))


def _first(pairs, relation):
    # The first coordinate i with relation(x[i], y[i]), or None.
    return next((i for i, (x, y) in enumerate(pairs) if relation(x, y)), None)


@given(entry_lists, entry_lists)
def test_compare_matches_elementwise_oracle(xs, ys):
    if len(xs) != len(ys):
        xs = xs[: len(ys)]
        ys = ys[: len(xs)]
    a, b = seq_of(xs), seq_of(ys)
    pairs = list(zip(sorted(xs), sorted(ys)))
    less_at = _first(pairs, lambda x, y: x < y)
    greater_at = _first(pairs, lambda x, y: x > y)
    rel = compare(a, b)
    if less_at is None and greater_at is None:
        assert rel.tag == Dominance.EQUAL
    elif greater_at is None:
        assert rel.tag == Dominance.LESS
    elif less_at is None:
        assert rel.tag == Dominance.GREATER
    else:
        assert rel.tag == Dominance.INCOMPARABLE
    # each reported coordinate is the first one of its kind
    assert (rel.less_at, rel.greater_at) == (less_at, greater_at)
    mirror = compare(b, a)
    flipped = {
        Dominance.LESS: Dominance.GREATER,
        Dominance.GREATER: Dominance.LESS,
        Dominance.EQUAL: Dominance.EQUAL,
        Dominance.INCOMPARABLE: Dominance.INCOMPARABLE,
    }
    assert mirror.tag == flipped[rel.tag]
    assert (mirror.less_at, mirror.greater_at) == (greater_at, less_at)


@given(entry_lists, entry_lists)
def test_merge_is_sorted_union(xs, ys):
    merged = merge(seq_of(xs), seq_of(ys))
    assert list(merged) == sorted(xs + ys)
    assert merged == merge(seq_of(ys), seq_of(xs))


@given(connected_graphs(min_n=2, max_n=8))
def test_distance_sequence_matches_reference(g):
    ref = sorted(
        d
        for u, row in nx.all_pairs_shortest_path_length(to_nx(g))
        for v, d in row.items()
        if u < v
    )
    seq = distance_sequence(g)
    assert list(seq) == ref
    assert len(seq) == g.n * (g.n - 1) // 2
    assert sum(1 for d in seq if d == 1) == g.m


@pytest.mark.parametrize(
    "g,pair",
    [
        (Graph(4, [(0, 1), (2, 3)]), (0, 2)),
        (Graph(5, [(0, 2), (1, 3), (3, 4)]), (0, 1)),
        (Graph(3, [(1, 2)]), (0, 1)),
    ],
)
def test_distance_sequence_disconnected_names_the_matrix_pair(g, pair):
    # (0, lowest vertex unreachable from 0), as distance_matrix names it
    for compute in (distance_sequence, distance_matrix):
        with pytest.raises(DisconnectedGraphError) as exc:
            compute(g)
        assert exc.value.pair == pair


@st.composite
def graph_with_permutation(draw):
    g = draw(connected_graphs(min_n=2, max_n=8))
    return g, tuple(draw(st.permutations(range(g.n))))


@given(graph_with_permutation())
def test_distance_sequence_relabel_invariant(pair):
    g, order = pair
    assert distance_sequence(relabel(g, order)) == distance_sequence(g)


@given(connected_graphs(min_n=2, max_n=8))
def test_vertex_sequence_consistency(g):
    merged = None
    for v in range(g.n):
        seq = vertex_distance_sequence(g, v)
        assert len(seq) == g.n - 1
        assert sum(1 for d in seq if d == 1) == g.degree(v)
        merged = seq if merged is None else merge(merged, seq)
    # every unordered pair is counted twice across vertex sequences
    whole = distance_sequence(g)
    assert list(merged) == sorted(list(whole) + list(whole))


def test_deletion_bound_on_five_cycle():
    res = deletion_bound_check(cycle(5), 0)
    assert res.holds and not res.equality and not res.predicted_equality


def test_deletion_bound_on_four_cycle():
    res = deletion_bound_check(cycle(4), 0)
    assert res.holds and res.equality and res.predicted_equality


def test_deletion_bound_on_edge():
    res = deletion_bound_check(path(2), 0)
    assert res.holds and res.equality and res.predicted_equality


def test_deletion_bound_rejects_cut_vertex_and_bad_label():
    with pytest.raises(ValueError, match="cut vertex"):
        deletion_bound_check(path(3), 1)
    for v in (-1, 3):
        with pytest.raises(ValueError, match=r"vertex must be in 0\.\.2, got"):
            deletion_bound_check(path(3), v)
        with pytest.raises(ValueError, match=r"vertex must be in 0\.\.2, got"):
            vertex_distance_sequence(path(3), v)
    with pytest.raises(ValueError):
        deletion_bounds(Graph(1))
    with pytest.raises(ValueError):
        deletion_bound_check(Graph(1), 0)


@given(connected_graphs(min_n=2, max_n=7))
@settings(deadline=None)
def test_deletion_bound_holds_for_every_noncut_vertex(g):
    checked = {}
    for v in range(g.n):
        if is_cut_vertex(g, v):
            continue
        res = deletion_bound_check(g, v)
        assert res.holds
        assert res.equality == res.predicted_equality
        checked[v] = res
    assert deletion_bounds(g) == checked


@given(connected_graphs(min_n=2, max_n=8))
@settings(deadline=None)
def test_deletion_bounds_match_networkx(g):
    # Reference: g - v is networkx's induced subgraph on the other vertices;
    # the bound is compared entry by entry on sorted lists, and the equality
    # predicate is read from the distances of g - v.
    G = to_nx(g)
    whole = sorted(
        d
        for u, row in nx.all_pairs_shortest_path_length(G)
        for w, d in row.items()
        if u < w
    )
    results = deletion_bounds(g)
    assert set(results) == set(G) - set(nx.articulation_points(G))
    for v, res in results.items():
        rest = dict(nx.all_pairs_shortest_path_length(G.subgraph(set(G) - {v})))
        from_v = sorted(
            d for w, d in nx.single_source_shortest_path_length(G, v).items() if w != v
        )
        bound = sorted(
            [d for u, row in rest.items() for w, d in row.items() if u < w] + from_v
        )
        nbrs = sorted(G[v])
        predicted = all(
            rest[x][y] <= 2 for i, x in enumerate(nbrs) for y in nbrs[i + 1:]
        )
        assert res.holds == all(a <= b for a, b in zip(whole, bound))
        assert res.equality == (whole == bound)
        assert res.predicted_equality == predicted
        assert list(vertex_distance_sequence(g, v)) == from_v


@st.composite
def graphs_with_masks(draw):
    # A graph of order 1..10, connected or not, and a nonempty vertex mask,
    # often all of its vertices.
    g = draw(st.one_of(arbitrary_graphs(max_n=10), connected_graphs(max_n=10)))
    full = (1 << g.n) - 1
    return g, draw(st.one_of(st.just(full), st.integers(1, full)))


def _by_source(g, allowed):
    # The pair counts per distance inside allowed, one BFS per source: each
    # pair from its lower end, as the vertices above that end in its layer.
    # The lowest source's BFS runs first, so it names the missing pair.
    counts = [0] * (g.n - 1)
    for src in range(g.n):
        if allowed >> src & 1:
            above = allowed >> src + 1 << src + 1
            for d, layer in enumerate(sequences._layers(g.bits, src, allowed)):
                counts[d] += (layer & above).bit_count()
    return counts


def _outcome(f, *args):
    try:
        return f(*args)
    except DisconnectedGraphError as exc:
        return "disconnected", exc.pair, str(exc)


@given(graphs_with_masks())
@example((Graph(1), 1))
@example((path(2), 3))
@example((path(2), 2))
@example((Graph(2), 3))
@settings(deadline=None)
def test_expansion_matches_one_bfs_per_source(case):
    # The expansion of every reach together against one BFS per source: the
    # pair counts, the distance matrix's layers, and the pair a disconnected
    # vertex set raises with.
    g, allowed = case
    assert _outcome(sequences._pair_counts, g, allowed) == _outcome(
        _by_source, g, allowed
    )
    full = (1 << g.n) - 1
    assert _outcome(lambda: distance_matrix(g).layers) == _outcome(
        lambda: tuple(tuple(sequences._layers(g.bits, s, full)) for s in range(g.n))
    )


def test_deletion_bounds_match_the_slow_check_on_every_graph_to_order_7():
    # All 1 + 2 + 6 + 21 + 112 + 853 = 995 connected graphs of orders 2..7:
    # the searches of g - v from the changed sources only agree with
    # deletion_bound_check, which counts g - v from every source.
    graphs = [g for n in range(2, 8) for g in enumerate_connected(n)]
    assert len(graphs) == 995
    for g in graphs:
        assert deletion_bounds(g) == {
            v: deletion_bound_check(g, v)
            for v in range(g.n)
            if not is_cut_vertex(g, v)
        }


def _assert_hits_are_changed_sources(g):
    # v is a sole parent from s exactly when deleting v changes some
    # distance from s; a vertex that g - v cannot reach counts as changed.
    G = to_nx(g)
    dm = distance_matrix(g)
    dist = dm.d
    for s in range(g.n):
        hit = sequences._sole_parents(g.bits, dm.layers[s])
        assert not hit >> s & 1
        for v in set(range(g.n)) - {s}:
            reached = nx.single_source_shortest_path_length(G.subgraph(set(G) - {v}), s)
            changed = any(
                reached.get(t) != dist[s][t] for t in range(g.n) if t != v
            )
            assert bool(hit >> v & 1) == changed, (write_graph6(g), s, v)


def test_sole_parents_are_the_changed_sources_to_order_6():
    for n in range(2, 7):
        for g in enumerate_connected(n):
            _assert_hits_are_changed_sources(g)


@given(connected_graphs(min_n=1, max_n=9))
@settings(deadline=None)
def test_sole_parents_are_the_changed_sources(g):
    _assert_hits_are_changed_sources(g)


def _searches(monkeypatch, graphs):
    # The number of BFS of g - v that deletion_bounds runs over the graphs:
    # the matrix of g is built in graphs, so every BFS run through
    # sequences._layers is a search of some g - v.
    calls = []
    real = sequences._layers

    def counting(bits, src, allowed):
        calls.append(src)
        return real(bits, src, allowed)

    monkeypatch.setattr(sequences, "_layers", counting)
    for g in graphs:
        deletion_bounds(g)
    return len(calls)


def test_deletion_bounds_search_only_changed_sources(monkeypatch):
    for n in range(2, 9):
        # K_n has diameter 1, so no vertex is a sole parent.
        assert _searches(monkeypatch, [complete(n)]) == 0
        # P_n: every internal vertex is a cut vertex, and its first search
        # fails; an end is no vertex's only parent.
        assert _searches(monkeypatch, [path(n)]) == n - 2
    for n in range(3, 12):
        # From each source of C_n, with r = n // 2, every vertex at distance
        # k < r is the only parent of the next vertex on its side, except
        # at k = r - 1 for even n, where both sides meet at the antipode.
        # So n - 3 (odd n) or n - 4 (even n) sources change per vertex.
        per_vertex = n - 3 if n % 2 else n - 4
        assert _searches(monkeypatch, [cycle(n)]) == n * per_vertex
    # The 853 graphs of the deletion:7 suite search g - v 3,198 times.
    # Searching from every source but v and the last one would take 5 for
    # each of the 5,396 non-cut vertices and 1 for each of the 575 cut
    # vertices, 27,555 in all.
    assert _searches(monkeypatch, enumerate_connected(7)) == 3198


@st.composite
def count_triples(draw):
    # Per-distance counts of g's pairs, v's distances and g - v's pairs:
    # any vectors of one length whose totals agree, so undominated and
    # incomparable pairs occur too (a real graph never fails the bound).
    size = draw(st.integers(1, 6))
    vector = st.lists(st.integers(0, 4), min_size=size, max_size=size)
    vcounts, rest = draw(vector), draw(vector)
    total = sum(vcounts) + sum(rest)
    cuts = sorted(
        draw(st.lists(st.integers(0, total), min_size=size - 1, max_size=size - 1))
    )
    counts = [hi - lo for lo, hi in zip([0] + cuts, cuts + [total])]
    return counts, vcounts, rest


def _expand(counts):
    return [d for d, c in enumerate(counts, 1) for _ in range(c)]


@given(count_triples())
@example(([2, 1], [1, 0], [1, 1]))  # equal
@example(([3, 0], [1, 0], [1, 1]))  # strictly dominated
@example(([1, 2], [1, 0], [1, 1]))  # greater
@example(([1, 2, 0], [1, 0, 1], [1, 0, 0]))  # incomparable
def test_deletion_counts_match_elementwise_oracle(triple):
    # The count test the deletion bound runs, fed as _deletion_bound feeds
    # it, against the merged sequence compared entry by entry.
    counts, vcounts, rest = triple
    whole = _expand(counts)
    bound = sorted(_expand(vcounts) + _expand(rest))
    pairs = list(zip(whole, bound))
    sums = [v + r for v, r in zip(vcounts, rest)]
    assert sequences._crossings(zip(counts, sums)) == (
        _first(pairs, lambda x, y: x < y),
        _first(pairs, lambda x, y: x > y),
        len(whole),
        len(bound),
    )


def test_deletion_bound_check_builds_one_matrix_per_graph(monkeypatch):
    orders = []
    real = sequences.distance_matrix

    def counting(g):
        orders.append(g.n)
        return real(g)

    monkeypatch.setattr(sequences, "distance_matrix", counting)
    # no matrix at one vertex: v's distances are the layer sizes of one BFS
    # from v, and g - v is counted from layers
    deletion_bound_check(cycle(6), 0)
    assert orders == []
    # the deletion suite checks all six vertices from that one matrix of g
    orders.clear()
    g = canonical_graph(cycle(6))
    assert verifier._check_deletion(g, {"n": 6}) == []
    assert orders == [6]
    # and so builds one matrix per graph it checks
    orders.clear()
    rep = verifier.verify_deletion_bound(6)
    assert len(orders) == rep.graphs_checked == 112
