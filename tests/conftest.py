"""Shared helpers: networkx conversion, oracles (brute-force isomorphism,
brute-force degeneracy, sequence merging, the odd caterpillar's growth)
and hypothesis graph strategies."""

import itertools

import networkx as nx
from hypothesis import strategies as st

from wienerseq import DistanceSequence, Graph


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
    edges_a = a.edges
    edges_b = set(b.edges)
    for perm in itertools.permutations(range(a.n)):
        ok = True
        for u, v in edges_a:
            pu, pv = perm[u], perm[v]
            if ((pu, pv) if pu < pv else (pv, pu)) not in edges_b:
                ok = False
                break
        if ok:
            return True
    return False


def brute_force_degeneracy(g: Graph, k: int) -> tuple[bool, bool]:
    """(k-degenerate, maximal k-degenerate) by definition: g is k-degenerate
    when no core number (networkx) exceeds k, and maximal when adding any
    one missing edge breaks that."""

    def degenerate(G: nx.Graph) -> bool:
        return max(nx.core_number(G).values()) <= k

    G = to_nx(g)
    if not degenerate(G):
        return (False, False)
    for u, v in nx.non_edges(G):
        H = G.copy()
        H.add_edge(u, v)
        if degenerate(H):
            return (True, False)
    return (True, True)


def merge(a: DistanceSequence, b: DistanceSequence) -> DistanceSequence:
    """Multiset union, i.e. the sorted concatenation of the two sequences;
    the definition the deletion bound is stated with."""
    out: list[tuple[int, int]] = []
    ia = ib = 0
    while ia < len(a.runs) or ib < len(b.runs):
        if ib >= len(b.runs) or (ia < len(a.runs) and a.runs[ia][0] <= b.runs[ib][0]):
            v, c = a.runs[ia]
            ia += 1
        else:
            v, c = b.runs[ib]
            ib += 1
        if out and out[-1][0] == v:
            out[-1] = (v, out[-1][1] + c)
        else:
            out.append((v, c))
    return DistanceSequence(out)


def odd_caterpillar_increment(n: int) -> DistanceSequence:
    """Distance entries gained when growing the odd caterpillar from n-2 to n.

    The run-length form is (1^2, 2^3, 3^4, 4^4, ..., (n/2)^4); its length
    is 2n - 3.
    """
    if n < 6 or n % 2:
        raise ValueError("defined for even n >= 6, got %r" % (n,))
    runs = [(1, 2), (2, 3)]
    runs.extend((d, 4) for d in range(3, n // 2 + 1))
    return DistanceSequence(runs)


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
