"""Constructed graph families and their frozen structural facts."""

import networkx as nx
import pytest

from conftest import merge, odd_caterpillar_increment, to_nx
from wienerseq import (
    Dominance,
    Graph,
    canonical_form,
    compare,
    complete,
    cycle,
    cycle_power,
    distance_sequence,
    end_vertex_sequence_path_power,
    is_connected,
    is_odd_tree,
    odd_caterpillar,
    parse_family_spec,
    path,
    path_complete,
    path_power,
    star,
    vertex_distance_sequence,
)
from wienerseq.enumeration import enumerate_connected


def test_basic_builders():
    assert path(1).n == 1 and path(1).m == 0
    assert path(5).edges == ((0, 1), (1, 2), (2, 3), (3, 4))
    assert cycle(3) == complete(3)
    assert cycle(6).m == 6
    assert star(5).edges == ((0, 1), (0, 2), (0, 3), (0, 4))
    assert complete(5).m == 10
    with pytest.raises(ValueError):
        cycle(2)


@pytest.mark.parametrize("n", range(2, 9))
def test_path_complete_sparsest_is_a_path(n):
    assert canonical_form(path_complete(n, n - 1)) == canonical_form(path(n))


def test_path_complete_densest_is_complete():
    for n in range(2, 8):
        assert path_complete(n, n * (n - 1) // 2) == complete(n)


@pytest.mark.parametrize("n", range(4, 9))
def test_path_complete_size_and_connectivity(n):
    for m in range(n - 1, n * (n - 1) // 2 + 1):
        g = path_complete(n, m)
        assert g.n == n and g.m == m
        assert is_connected(g)


def test_path_complete_rejects_out_of_range_size():
    with pytest.raises(ValueError):
        path_complete(5, 3)
    with pytest.raises(ValueError):
        path_complete(5, 11)


@pytest.mark.parametrize("n", range(4, 8))
def test_path_complete_sequence_shrinks_with_size(n):
    prev = None
    for m in range(n - 1, n * (n - 1) // 2 + 1):
        seq = distance_sequence(path_complete(n, m))
        if prev is not None:
            assert compare(seq, prev).tag == Dominance.LESS
        prev = seq


def test_path_complete_maximizes_at_order_five():
    for g in enumerate_connected(5):
        rel = compare(distance_sequence(g), distance_sequence(path_complete(5, g.m)))
        assert rel.tag in (Dominance.LESS, Dominance.EQUAL)


def test_cycle_power_basics():
    assert cycle_power(6, 1) == cycle(6)
    assert cycle_power(8, 2).m == 16
    assert cycle_power(8, 4) == complete(8)
    assert nx.node_connectivity(to_nx(cycle_power(6, 2))) == 4
    assert nx.node_connectivity(to_nx(cycle_power(8, 2))) == 4
    with pytest.raises(ValueError):
        cycle_power(8, 0)


@pytest.mark.parametrize("n,h", [(n, h) for n in range(3, 13) for h in range(1, n // 2 + 1)])
def test_cycle_power_vertex_transitive(n, h):
    g = cycle_power(n, h)
    seqs = {vertex_distance_sequence(g, v) for v in range(g.n)}
    assert len(seqs) == 1


def test_path_power_basics():
    assert path_power(6, 1) == path(6)
    assert path_power(6, 5) == complete(6)
    assert path_power(6, 9) == complete(6)
    assert path_power(1, 2) == Graph(1)
    for n in (1, 5):
        with pytest.raises(ValueError):
            path_power(n, 0)


def test_end_vertex_closed_form_examples():
    assert end_vertex_sequence_path_power(7, 2).to_text() == "1^2 2^2 3^2"
    assert end_vertex_sequence_path_power(8, 3).to_text() == "1^3 2^3 3"
    assert end_vertex_sequence_path_power(5, 1).to_text() == "1 2 3 4"


@pytest.mark.parametrize("n", range(2, 13))
def test_end_vertex_closed_form_matches_search(n):
    for k in range(1, n):
        assert end_vertex_sequence_path_power(n, k) == vertex_distance_sequence(
            path_power(n, k), 0
        )


def test_end_vertex_closed_form_domain():
    with pytest.raises(ValueError):
        end_vertex_sequence_path_power(5, 5)
    with pytest.raises(ValueError):
        end_vertex_sequence_path_power(5, 0)


def test_odd_caterpillar_smallest_is_a_star():
    assert odd_caterpillar(4) == star(4)


@pytest.mark.parametrize("n", range(4, 21, 2))
def test_odd_caterpillar_is_an_odd_tree(n):
    g = odd_caterpillar(n)
    assert g.n == n
    assert is_odd_tree(g)


def test_odd_caterpillar_degree_profile():
    g = odd_caterpillar(10)
    degrees = sorted(g.degree(v) for v in range(g.n))
    # two spine ends, four leaves, four internal spine vertices
    assert degrees == [1, 1, 1, 1, 1, 1, 3, 3, 3, 3]


def test_odd_caterpillar_rejects_bad_order():
    with pytest.raises(ValueError):
        odd_caterpillar(2)
    with pytest.raises(ValueError):
        odd_caterpillar(7)


@pytest.mark.parametrize("n", range(6, 17, 2))
def test_odd_caterpillar_growth_recurrence(n):
    grown = merge(
        distance_sequence(odd_caterpillar(n - 2)), odd_caterpillar_increment(n)
    )
    assert grown == distance_sequence(odd_caterpillar(n))


def test_odd_caterpillar_increment_shape():
    inc = odd_caterpillar_increment(6)
    assert inc.to_text() == "1^2 2^3 3^4"
    for n in range(6, 17, 2):
        assert len(odd_caterpillar_increment(n)) == 2 * n - 3


@pytest.mark.parametrize(
    "spec,expected",
    [
        ("path:5", path(5)),
        ("cycle:7", cycle(7)),
        ("star:4", star(4)),
        ("complete:6", complete(6)),
        ("pk:6,8", path_complete(6, 8)),
        ("cyclepow:8,2", cycle_power(8, 2)),
        ("pathpow:6,2", path_power(6, 2)),
        ("oddcat:8", odd_caterpillar(8)),
    ],
)
def test_parse_family_spec(spec, expected):
    assert parse_family_spec(spec) == expected


@pytest.mark.parametrize(
    "spec",
    [
        "nope:4",
        "path",
        "path:2,3",
        "pk:6,8,1",
        "pk:6",
        "path:x",
        "pk:6,x",
        "cycle:",
        "path:5,",
        "pk:6,8,",
    ],
)
def test_parse_family_spec_rejects(spec):
    with pytest.raises(ValueError):
        parse_family_spec(spec)
