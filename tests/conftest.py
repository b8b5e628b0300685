"""Shared helpers: networkx conversion, a brute-force isomorphism oracle and
hypothesis graph strategies."""

import itertools

import networkx as nx
from hypothesis import strategies as st

from wienerseq import Graph


def to_nx(g: Graph) -> nx.Graph:
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edges)
    return G


def from_nx(G: nx.Graph) -> Graph:
    nodes = sorted(G.nodes())
    pos = {u: i for i, u in enumerate(nodes)}
    return Graph(len(nodes), [tuple(sorted((pos[u], pos[v]))) for u, v in G.edges()])


def brute_force_isomorphic(a: Graph, b: Graph) -> bool:
    """Permutation search isomorphism test, for validating canonical forms."""
    if a.n != b.n or a.m != b.m:
        return False
    if sorted(map(int.bit_count, a.bits)) != sorted(map(int.bit_count, b.bits)):
        return False
    edges_b = set(b.edges)
    for perm in itertools.permutations(range(a.n)):
        ok = True
        for u, v in a.edges:
            pu, pv = perm[u], perm[v]
            if ((pu, pv) if pu < pv else (pv, pu)) not in edges_b:
                ok = False
                break
        if ok:
            return True
    return False


@st.composite
def connected_graphs(draw, min_n=1, max_n=10):
    # spanning edges first so every draw is connected
    n = draw(st.integers(min_n, max_n))
    edges = set()
    for v in range(1, n):
        edges.add((draw(st.integers(0, v - 1)), v))
    if n >= 2:
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges.update(draw(st.lists(st.sampled_from(pairs), max_size=2 * n)))
    return Graph(n, sorted(edges))


@st.composite
def arbitrary_graphs(draw, min_n=1, max_n=12):
    n = draw(st.integers(min_n, max_n))
    edges = []
    if n >= 2:
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = draw(st.lists(st.sampled_from(pairs), unique=True))
    return Graph(n, sorted(edges))
