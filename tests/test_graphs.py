"""Graph container, graph6 codec, distances, and structural predicates."""

import pathlib

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    arbitrary_graphs,
    brute_force_degeneracy,
    connected_graphs,
    from_nx,
    to_nx,
)
from wienerseq import (
    DisconnectedGraphError,
    Graph,
    GraphFormatError,
    complete,
    cycle,
    degeneracy_check,
    distance_matrix,
    enumerate_connected,
    graph_power,
    is_connected,
    is_cut_vertex,
    is_k_connected,
    is_odd_tree,
    parse_edge_list,
    parse_graph6,
    path,
    path_power,
    relabel,
    star,
    write_graph6,
)
from wienerseq import graphs

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def test_graph_rejects_bad_input():
    with pytest.raises(ValueError):
        Graph(0, [])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 1), (1, 0)])


def test_edge_list_rejects_an_empty_document():
    for text in ("", "\n  \n"):
        with pytest.raises(GraphFormatError, match="empty"):
            parse_edge_list(text)


def test_predicates_reject_bad_arguments():
    for v in (-1, 3):
        with pytest.raises(ValueError, match=r"vertex must be in 0\.\.2, got"):
            is_cut_vertex(path(3), v)
    with pytest.raises(ValueError, match=r"k must be in 1\.\., got 0"):
        is_k_connected(path(3), 0)
    with pytest.raises(ValueError, match=r"k must be in 1\.\., got 0"):
        degeneracy_check(path(3), 0)


def test_graph_basic_accessors():
    g = Graph(4, [(2, 1), (0, 1)])
    assert g.edges == ((0, 1), (1, 2))
    assert g.m == 2
    assert g.degree(1) == 2
    assert sorted(g.neighbors(1)) == [0, 2]
    assert g.has_edge(1, 0) and not g.has_edge(0, 2)


@given(arbitrary_graphs())
def test_adjacency_derived_from_edges(g):
    for v in range(g.n):
        expected = [u for u in range(g.n) if (min(u, v), max(u, v)) in g.edges]
        assert list(g.neighbors(v)) == expected
        assert g.degree(v) == len(expected)
    rebuilt = Graph(g.n, [(v, u) for u, v in reversed(g.edges)])
    assert rebuilt == g
    assert hash(rebuilt) == hash(g)
    assert g.m == len(g.edges)
    from_bits = Graph._from_bits(g.bits)
    assert from_bits == g
    assert hash(from_bits) == hash(g)
    assert g != Graph(g.n + 1, g.edges)


def test_fixture_corpus_round_trip():
    records = FIXTURES.joinpath("records.g6").read_text().split()
    assert len(records) == 100
    for rec in records:
        assert write_graph6(parse_graph6(rec)) == rec


def test_fixture_corpus_matches_reference_decoder():
    for rec in FIXTURES.joinpath("records.g6").read_text().split():
        g = parse_graph6(rec)
        G = nx.from_graph6_bytes(rec.encode())
        assert g.n == G.number_of_nodes()
        assert set(g.edges) == {tuple(sorted(e)) for e in G.edges()}


@given(arbitrary_graphs(max_n=14))
def test_codec_agrees_with_reference_both_ways(g):
    rec = write_graph6(g)
    assert from_nx(nx.from_graph6_bytes(rec.encode())) == g
    ref = nx.to_graph6_bytes(to_nx(g), header=False).decode().strip()
    assert rec == ref
    assert parse_graph6(ref) == g


def test_graph6_known_record():
    g = parse_graph6("D?{")
    assert g.n == 5
    assert g.edges == ((0, 4), (1, 4), (2, 4), (3, 4))


def test_graph6_optional_prefix():
    assert parse_graph6(">>graph6<<D?{") == parse_graph6("D?{")


@pytest.mark.parametrize("n,header", [(62, "}"), (63, "~??~")], ids=["62", "63"])
def test_graph6_long_header(n, header):
    # 62 is the largest order of the 1-character header, 63 the least of
    # the 4-character one.
    g = Graph(n, [(0, n - 1)])
    rec = write_graph6(g)
    assert rec.startswith(header)
    assert len(rec) == len(header) + (n * (n - 1) // 2 + 5) // 6
    assert parse_graph6(rec) == g


def test_graph6_header_table_matches_the_definition():
    # McKay's graph6 definition: N(n) is one character for n <= 62, "~"
    # and three for n <= 258047, and "~~" and six for n <= 2^36 - 1.
    assert graphs._G6_HEADERS == (
        ("", 1, 62),
        ("~", 3, 258047),
        ("~~", 6, 68719476735),
    )


def test_graph6_decoding_validates_no_graph(monkeypatch):
    # A record's masks are built straight from its payload, so decoding
    # makes no Graph(n, edges) call.
    calls = []
    init = Graph.__init__

    def counting(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)

    records = FIXTURES.joinpath("records.g6").read_text().split()
    monkeypatch.setattr(Graph, "__init__", counting)
    for rec in records:
        parse_graph6(rec)
    assert calls == []


@st.composite
def graph6_like_records(draw):
    """A short string over "?".."~", or a record whose payload has exactly
    the length its order asks for, either with the optional prefix and
    surrounding whitespace."""
    alphabet = st.characters(min_codepoint=63, max_codepoint=126)
    if draw(st.booleans()):
        body = draw(st.text(alphabet, max_size=12))
    else:
        n = draw(st.integers(1, 20))
        need = (n * (n - 1) // 2 + 5) // 6
        body = chr(n + 63) + draw(st.text(alphabet, min_size=need, max_size=need))
    prefix = draw(st.sampled_from(("", ">>graph6<<")))
    space = st.sampled_from(("", " ", "\n", "\t "))
    return body, draw(space) + prefix + body + draw(space)


@settings(max_examples=300)
@given(graph6_like_records())
def test_graph6_reader_checks_records_or_builds_valid_graphs(case):
    # Either the record is rejected as malformed, or the decoded masks are
    # those of a valid graph and encode back to the record.
    body, text = case
    try:
        g = parse_graph6(text)
    except GraphFormatError:
        return
    assert g == Graph(g.n, g.edges)
    assert write_graph6(g) == body


def test_graph6_rejects_non_minimal_header():
    # long form for n=5 must not be accepted
    with pytest.raises(GraphFormatError):
        parse_graph6("~??D??")
    # nor the 8-character form for n=63
    with pytest.raises(GraphFormatError, match="non-minimal"):
        parse_graph6("~~?????~")


def test_graph6_rejects_nonzero_padding():
    rec = write_graph6(star(5))
    tampered = rec[:-1] + chr(63 + ((ord(rec[-1]) - 63) | 3))
    assert tampered != rec
    with pytest.raises(GraphFormatError):
        parse_graph6(tampered)


@pytest.mark.parametrize(
    "text",
    # "?" has order 0, "~??" and "~~???" cut the long headers short, and
    # "~~???~??" declares n = 258,048, the least 8-character order, with no
    # payload.
    ["", "D", "D?{?", "D\x1f{", "~", "?", "~??", "~~???", "~~???~??"],
)
def test_graph6_rejects_malformed(text):
    with pytest.raises(GraphFormatError):
        parse_graph6(text)


def test_edge_list_round_trip():
    g = parse_edge_list("4\n0 1\n1 2\n2 3\n0 3\n")
    assert g == cycle(4)


@pytest.mark.parametrize(
    "text,line",
    [
        ("x\n", 1),
        ("3\n0 1\n0 5\n", 3),
        ("3\n1 1\n", 2),
        ("3\n0 1\n0 1\n", 3),
        ("3\n0\n", 2),
        ("3\n0 x\n", 2),
        ("0\n", 1),
    ],
)
def test_edge_list_errors_carry_line_numbers(text, line):
    with pytest.raises(GraphFormatError) as exc:
        parse_edge_list(text)
    assert "line %d" % line in str(exc.value)


@given(connected_graphs(max_n=8))
def test_distance_matrix_laws(g):
    dm = distance_matrix(g)
    d = dm.d
    for u in range(g.n):
        assert d[u][u] == 0
        assert dm.ecc[u] == max(d[u])
        for v in range(g.n):
            assert d[u][v] == d[v][u]
            if u != v:
                assert (d[u][v] == 1) == g.has_edge(u, v)
            for w in range(g.n):
                assert d[u][w] <= d[u][v] + d[v][w]
    assert dm.diameter == max(dm.ecc)


@given(connected_graphs(min_n=2, max_n=8))
def test_distances_match_reference(g):
    dm = distance_matrix(g)
    d = dm.d
    ref = dict(nx.all_pairs_shortest_path_length(to_nx(g)))
    for u in range(g.n):
        for v in range(g.n):
            assert d[u][v] == ref[u][v]
        # layers[u][k - 1] is the set of the vertices at distance k from u
        assert len(dm.layers[u]) == max(ref[u].values())
        for k, layer in enumerate(dm.layers[u], 1):
            assert layer == sum(1 << v for v, dist in ref[u].items() if dist == k)


def test_distance_matrix_disconnected_names_pair():
    with pytest.raises(DisconnectedGraphError) as exc:
        distance_matrix(Graph(4, [(0, 1), (2, 3)]))
    u, v = exc.value.pair
    assert {u, v} & {0, 1} and {u, v} & {2, 3}
    assert str(u) in str(exc.value) and str(v) in str(exc.value)


@given(arbitrary_graphs(min_n=1, max_n=9))
def test_is_connected_matches_reference(g):
    assert is_connected(g) == nx.is_connected(to_nx(g))


@given(connected_graphs(min_n=2, max_n=8))
def test_cut_vertices_match_reference(g):
    arts = set(nx.articulation_points(to_nx(g)))
    assert {v for v in range(g.n) if is_cut_vertex(g, v)} == arts


@given(connected_graphs(min_n=2, max_n=7))
@settings(deadline=None)
def test_k_connected_consistent_with_connectivity(g):
    kappa = nx.node_connectivity(to_nx(g))
    for k in range(1, g.n + 1):
        assert is_k_connected(g, k) == (kappa >= k and g.n > k)


@given(arbitrary_graphs(min_n=1, max_n=7))
@settings(deadline=None)
def test_k_connected_is_false_on_disconnected_graphs(g):
    # The cut of size 0 is the connectivity test: a disconnected graph is
    # not even 1-connected.
    connected = nx.is_connected(to_nx(g))
    for k in (1, 2):
        assert not is_k_connected(g, k) or connected


@pytest.mark.parametrize("n", range(2, 9))
def test_k_connected_at_the_order(n):
    # K_n is (n - 1)-connected and no graph of order n is n-connected.  K_n
    # minus an edge has two vertices of degree n - 2: it is (n - 2)-connected
    # (for n > 2) and not (n - 1)-connected.
    kn = complete(n)
    assert is_k_connected(kn, n - 1) and not is_k_connected(kn, n)
    less = Graph(n, [e for e in kn.edges if e != (0, 1)])
    assert not is_k_connected(less, n - 1)
    assert n == 2 or is_k_connected(less, n - 2)


def test_k_connected_searches_only_the_cuts_of_size_k_minus_1(monkeypatch):
    # P_10^3 is a 3-tree, so 3-connected: it is searched once without each
    # pair of vertices, 45 times, not also once whole and once without each
    # vertex (56).  A vertex of degree below k answers with no search.
    calls = []
    real = graphs._connected_without

    def counting(g, removed):
        calls.append(removed)
        return real(g, removed)

    monkeypatch.setattr(graphs, "_connected_without", counting)
    assert is_k_connected(path_power(10, 3), 3)
    assert len(calls) == 45
    calls.clear()
    assert not is_k_connected(path(5), 2)
    assert not is_k_connected(path_power(10, 3), 4)
    assert calls == []


@pytest.mark.parametrize(
    "g,k,expected",
    [
        (path(6), 1, (True, True)),
        (star(7), 1, (True, True)),
        (path(4), 2, (True, False)),
        (cycle(6), 2, (True, False)),
        (path_power(7, 2), 2, (True, True)),
        (complete(4), 3, (True, True)),
        (complete(5), 3, (False, False)),
    ],
)
def test_degeneracy_check_examples(g, k, expected):
    assert degeneracy_check(g, k) == expected
    assert brute_force_degeneracy(g, k) == expected


@given(arbitrary_graphs(max_n=8), st.integers(1, 4))
@settings(deadline=None)
def test_degeneracy_check_matches_brute_force(g, k):
    assert degeneracy_check(g, k) == brute_force_degeneracy(g, k)


def test_degeneracy_check_matches_brute_force_on_small_connected_graphs():
    # Every maximal k-degenerate graph is connected, so this covers all of
    # them up to order 6 as well as their non-maximal neighbours.
    for n in range(2, 7):
        for g in enumerate_connected(n):
            for k in range(1, 5):
                assert degeneracy_check(g, k) == brute_force_degeneracy(g, k), (
                    write_graph6(g),
                    k,
                )


@given(connected_graphs(min_n=2, max_n=9), st.integers(1, 3), st.integers(1, 3))
def test_power_composition(g, j, k):
    assert graph_power(graph_power(g, j), k) == graph_power(g, j * k)


@given(connected_graphs(max_n=9), st.integers(1, 4))
def test_power_matches_reference(g, k):
    assert graph_power(g, k) == from_nx(nx.power(to_nx(g), k))


@pytest.mark.parametrize("k", [1, 2])
def test_power_of_disconnected_graph_raises(k):
    with pytest.raises(DisconnectedGraphError):
        graph_power(Graph(4, [(0, 1), (2, 3)]), k)


def test_power_saturates_at_diameter():
    assert graph_power(path(5), 10) == complete(5)
    assert graph_power(cycle(5), 1) == cycle(5)


def test_odd_tree_examples():
    assert is_odd_tree(path(2))
    assert not is_odd_tree(path(4))
    assert is_odd_tree(star(4))
    assert not is_odd_tree(star(5))
    assert not is_odd_tree(cycle(4))
    assert not is_odd_tree(Graph(4, [(0, 1), (2, 3)]))


@given(connected_graphs(min_n=2, max_n=10))
def test_odd_tree_matches_degree_parity(g):
    expected = g.m == g.n - 1 and all(g.degree(v) % 2 == 1 for v in range(g.n))
    assert is_odd_tree(g) == expected


@st.composite
def graph_with_order(draw):
    g = draw(arbitrary_graphs(min_n=1, max_n=9))
    order = tuple(draw(st.permutations(range(g.n))))
    return g, order


@given(graph_with_order())
def test_relabel_preserves_structure_and_inverts(pair):
    g, order = pair
    h = relabel(g, order)
    assert h.n == g.n and h.m == g.m
    assert sorted(h.degree(v) for v in range(h.n)) == sorted(
        g.degree(v) for v in range(g.n)
    )
    inverse = tuple(order.index(v) for v in range(g.n))
    assert relabel(h, inverse) == g


@pytest.mark.parametrize("order", [(0, 0, 1), (0, 1), (0, 1, 2, 3), (0, 1, -1)])
def test_relabel_rejects_a_non_permutation(order):
    with pytest.raises(ValueError, match="not a permutation"):
        relabel(path(3), order)
