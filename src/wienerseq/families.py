"""Constructors for the extremal families and the standard small graphs.

Each family maximizes the distance sequence inside a graph class: the
path-complete graphs among all connected graphs of fixed order and size,
cycle powers among graphs of fixed even connectivity, path powers among
maximal k-degenerate graphs, and the odd caterpillars among trees with all
degrees odd.  Labelings are fixed so construction is reproducible:
clique or spine vertices come first, in order.
"""

from __future__ import annotations

__all__ = [
    "complete",
    "cycle",
    "cycle_power",
    "end_vertex_sequence_path_power",
    "odd_caterpillar",
    "parse_family_spec",
    "path",
    "path_complete",
    "path_power",
    "star",
]

from wienerseq.graphs import Graph, graph_power
from wienerseq.sequences import DistanceSequence
from wienerseq.specs import Entry, _check_range, parse_spec


def complete(n: int) -> Graph:
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def path(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    _check_range("order", n, 3)
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def star(n: int) -> Graph:
    """Star with center 0."""
    return Graph(n, [(0, i) for i in range(1, n)])


def path_complete(n: int, m: int) -> Graph:
    """Path-complete graph: clique K_q, a path on n-q vertices, and t edges
    joining the path's first vertex into the clique.

    Vertices 0..q-1 form the clique, q..n-1 the path in order; vertex q is
    joined to clique vertices 0..t-1.  The parameters are canonical:
    m = q(q-1)/2 + (n-q-1) + t with 1 <= t <= q-1, and m = n(n-1)/2 gives
    the complete graph.  Size ranges cover n-1 <= m <= n(n-1)/2.
    """
    pairs = n * (n - 1) // 2
    _check_range("size at order %d" % n, m, n - 1, pairs)
    if m == pairs:
        return complete(n)
    q, t = _path_complete_parameters(n, m)
    edges = [(u, v) for u in range(q) for v in range(u + 1, q)]
    edges.extend((i, i + 1) for i in range(q, n - 1))
    edges.extend((c, q) for c in range(t))
    g = Graph(n, edges)
    if g.m != m:
        raise RuntimeError("path-complete graph with %d edges, not %d" % (g.m, m))
    return g


def _path_complete_parameters(n: int, m: int) -> tuple[int, int]:
    # For each clique order q the reachable sizes form the contiguous range
    # q(q-1)/2 + (n-q-1) + [1, q-1]; consecutive q ranges abut, so the
    # parameters are unique.
    for q in range(2, n):
        base = q * (q - 1) // 2 + (n - q - 1)
        if base + 1 <= m <= base + q - 1:
            return q, m - base
    raise AssertionError("no parameters for n=%d m=%d" % (n, m))


def cycle_power(n: int, h: int) -> Graph:
    """h-th power of the n-cycle."""
    return graph_power(cycle(n), h)


def path_power(n: int, k: int) -> Graph:
    """k-th power of the n-path."""
    return graph_power(path(n), k)


def end_vertex_sequence_path_power(n: int, k: int) -> DistanceSequence:
    """Distances from vertex 0 in the k-th power of the n-path, closed form.

    With s = (n - 1) // k the sorted distances are 1..s each k times,
    then s + 1 repeated n - 1 - s*k times.
    """
    _check_range("k at order %d" % n, k, 1, n - 1)
    s = (n - 1) // k
    runs = [(d, k) for d in range(1, s + 1)]
    rest = n - 1 - s * k
    if rest:
        runs.append((s + 1, rest))
    return DistanceSequence(runs)


def odd_caterpillar(n: int) -> Graph:
    """The caterpillar on an even number of vertices with all degrees odd.

    For n >= 6: a spine path on n/2 + 1 vertices (labels 0..n/2) with one
    leaf hung on each internal spine vertex; leaf labels follow spine
    position.  For n = 4 this degenerates to the star on 4 vertices.
    """
    _check_range("order", n, 4, step=2)
    if n == 4:
        return star(4)
    half = n // 2
    edges = [(i, i + 1) for i in range(half)]
    edges.extend((i, half + i) for i in range(1, half))
    return Graph(n, edges)


FAMILIES = {
    "pk": Entry(path_complete, {"n": int, "m": int}),
    "cyclepow": Entry(cycle_power, {"n": int, "h": int}),
    "pathpow": Entry(path_power, {"n": int, "k": int}),
    "oddcat": Entry(odd_caterpillar, {"n": int}),
    "star": Entry(star, {"n": int}),
    "path": Entry(path, {"n": int}),
    "cycle": Entry(cycle, {"n": int}),
    "complete": Entry(complete, {"n": int}),
}


def parse_family_spec(spec: str) -> Graph:
    """Build a graph from a family spec like "pk:6,8" or "cycle:8"."""
    name, args = parse_spec(spec, FAMILIES, "family")
    return FAMILIES[name].target(*args)
