"""Exhaustive enumeration of small graph classes up to isomorphism.

The canonical labeling is the vertex ordering whose graph6 record is
lexicographically largest over the orderings that respect the graph's
equitable partition.  Colour refinement (the root stage of individualization
and refinement in McKay & Piperno, "Practical graph isomorphism, II", 2014)
splits the degree partition by neighbour counts per cell until no cell
splits, and ranks the cells in an isomorphism-invariant order.  The
vertices of one cell have equal counts into every cell of the round
before, so each round counts neighbours only in the cells that the last
round made by splitting.  An allowed ordering lists the cells in rank
order, so position i always takes a vertex of the same cell; isomorphic
graphs have the same set of allowed records, which makes their maximum a
canonical form.  The maximum is found by a depth-first search over
placements: placing a vertex appends its adjacency column toward the
already placed prefix.  Every allowed prefix extends to an allowed
ordering, so one that takes a smaller column than the largest open one is
beaten by one that takes the largest: each node places only the vertices
of its largest column, and is cut when its columns fall below the best
ordering's.  Twin vertices (equal open or closed neighborhoods) are
interchangeable by an automorphism, so they share a cell and a column, and
only one representative per class is placed.  When
refinement ends with every cell a class of twins (one vertex per cell is
the least case), that leaves one representative at every level, so no
search runs: the canonical ordering lists each cell's vertices in
ascending order.

Every class is grown by one routine: each graph of a parent class yields
its children, each child is relabeled canonically, and the set of canonical
graphs is kept, so two children are one class exactly when their canonical
Graphs are equal.  The state is the canonical graph alone.  Growers that
add one vertex of the class's least degree yield only the children whose
new vertex is a canonical deletion (McKay, "Isomorph-free exhaustive
generation", J. Algorithms 1998), described below.  All graphs of
order n attach a new vertex with any neighborhood to a graph of order
n - 1, and Apollonian networks insert it into a triangular face.  Odd trees
of order n hang two leaves on one vertex of an odd tree of order n - 2;
the children are first deduplicated by their tree code, the AHU code
(Aho, Hopcroft & Ullman 1974) rooted at the tree's centre, which is equal
for two trees exactly when they are isomorphic, so only one child per
class is labeled.
Sphere triangulations close the Apollonian networks under diagonal flips.
Connected graphs are not grown but filtered from all graphs of their
order, and kappa-connected graphs from the connected ones; each filter runs
once per process and its class is cached like every grown class, so a
later suite over the same class tests no graph again.
Faces are derived from the graph, not carried beside it: in a maximal
planar graph of order at least 4 they are the triangles whose removal
leaves the rest connected.  graph6 is written only to sort the kept
classes, by (size, canonical record), so output order is stable across
runs and shard counts.

A Graph is its adjacency masks, and children and canonical graphs are
built from masks alone: a child's masks are its parent's plus the new
vertex's (or, for a flip, the parent's with one edge swapped), and a
canonical graph's masks are the child's masks relabeled by the canonical
ordering, the routine that relabel uses.
Each parent is a validated Graph, so these Graphs skip the checks of
Graph(n, edges), and no edge list is made for them.

Maximal k-degenerate graphs and k-trees are stacked on K_{k+1}: each new
vertex is attached to any k vertices, or to a k-clique for k-trees.  A
maximal k-degenerate graph of order n > k has kn - k(k+1)/2 edges (Lick &
White 1970), which is the most that a degeneracy order, where the i-th
vertex has at most min(i - 1, k) earlier neighbors, allows.  So in such an
order every vertex has exactly min(i - 1, k) earlier neighbors: the first
k + 1 form K_{k+1} and each later one has k earlier neighbors.  Every
stacked graph is k-degenerate with that edge count, so it is maximal.  Up
to order k + 1 the class is K_n.  For k-trees the k-cliques are built from
the masks, one common neighbourhood at a time.

Canonical deletion.  Above the base order, a k-tree or maximal
k-degenerate graph has least degree k, an Apollonian network least degree
3, and the new vertex of each child has that degree.  Deleting any vertex
of the least degree leaves a member of the parent class: in a k-tree it is
simplicial; in a maximal k-degenerate graph the rest keeps the Lick-White
edge count k(n - 1) - k(k+1)/2; in an Apollonian network its three
neighbours bound a face of the rest.  So a child is kept only when its new
vertex has the largest f(v), the sorted degrees of v's neighbours, among
the vertices of the least degree.  f is isomorphism-invariant, so every
class has a member h and a vertex v maximising f in it, and h - v is
isomorphic to some parent; attaching a vertex to that parent on the image
of v's neighbourhood (a k-set, a k-clique or a face) gives a kept child
isomorphic to h.  Ties keep several children of one class, which meet in
the set.  The rule is decided from the parent's masks and the new
neighbourhood, so a rejected child costs no Graph and no labeling.  Not
filtered: all graphs, whose deletable vertices (non-cut vertices of
connected graphs) wait on a growth from connected parents; odd trees,
which label one child per class by their tree code; and the flips of the
triangulation closure, which add no vertex.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Callable, Iterable, Iterator

from wienerseq.graphs import (
    Graph,
    _connected_without,
    _iter_bits,
    _relabeled,
    degeneracy_check,
    is_connected,
    is_k_connected,
    is_odd_tree,
    write_graph6,
)
from wienerseq.specs import Entry, _check_range, parse_spec

CONNECTED_MAX_N = 8
K_TREE_MAX_N = 10
K_TREE_MAX_K = 3
MAX_K_DEGENERATE_MAX_N = 7
APOLLONIAN_MAX_N = 11
ODD_TREE_MAX_N = 14
MAXIMAL_PLANAR_MAX_N = 9


def _cells(bits: tuple[int, ...], n: int) -> list[int]:
    # Colour refinement from the unit partition to the coarsest equitable
    # partition, as vertex masks.  A cell splits by the number of neighbours
    # each of its vertices has in every cell (packed in base n, since a
    # count is below n); the parts keep the rank of the cell and are ranked
    # among themselves by those counts, so the ranking is
    # isomorphism-invariant.  The vertices of a cell have equal counts into
    # each cell that the last round kept whole, since it was a cell when
    # theirs was made, so only the counts into the cells that the last
    # round made by splitting can differ: the key holds those alone, in
    # rank order, which ranks the parts as the full key does.  The first
    # round keys on the unit cell: the degree.
    parts: dict[int, int] = {}
    for v, b in enumerate(bits):
        d = b.bit_count()
        parts[d] = parts.get(d, 0) | 1 << v
    cells = new = [parts[d] for d in sorted(parts)]
    while len(cells) < n:
        refined = []
        split = []
        for cell in cells:
            if not cell & (cell - 1):
                refined.append(cell)
                continue
            parts = {}
            while cell:
                low = cell & -cell
                cell ^= low
                b = bits[low.bit_length() - 1]
                key = 0
                for c in new:
                    key = key * n + (b & c).bit_count()
                parts[key] = parts.get(key, 0) | low
            made = [parts[key] for key in sorted(parts)]
            refined.extend(made)
            if len(made) > 1:
                split.extend(made)
        if not split:
            break
        cells = refined
        new = split
    return cells


def _branch(
    bits: tuple[int, ...], n: int, cells: list[int]
) -> tuple[list[int] | None, list[int]]:
    # Depth-first search over the orderings that take the cells in rank
    # order: the first one found with the maximal columns, and those columns.
    best_cols: list[int] = []
    best_order: list[int] | None = None
    # cell_at[i] is the cell that position i of every allowed ordering takes.
    cell_at = [c for c in cells for _ in range(c.bit_count())]

    def dfs(order: list[int], placed: int, cols: list[int]) -> None:
        nonlocal best_cols, best_order
        i = len(order)
        if i == n:
            if cols > best_cols:
                best_cols = cols[:]
                best_order = order[:]
            return
        top = -1
        reps: list[int] = []
        rest = cell_at[i] & ~placed
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            rest ^= low
            # v's adjacency toward the placed vertices, the first placed as the
            # most significant bit, so columns compare as the graph6 bits.
            b = bits[v]
            col = 0
            for u in order:
                col = col << 1 | (b >> u & 1)
            # Keep the vertices of the largest column, one per twin class.
            if col > top:
                top, reps = col, [v]
            elif col == top and not any(
                bits[u] == b or bits[u] | 1 << u == b | low for u in reps
            ):
                reps.append(v)
        cols.append(top)
        if cols >= best_cols[: i + 1]:
            for v in reps:
                order.append(v)
                dfs(order, placed | 1 << v, cols)
                order.pop()
        cols.pop()

    dfs([], 0, [])
    return best_order, best_cols


def _search(bits: tuple[int, ...], n: int) -> tuple[int, ...]:
    # The allowed ordering with the maximal record.  When every cell is a
    # class of twins (each vertex has the open or the closed neighbourhood
    # of the cell's lowest vertex), swapping two of them is an automorphism
    # and they all have one column toward any prefix, so _branch would
    # place one representative per level, the lowest left: the cells'
    # vertices in ascending order.  A discrete partition is the case of
    # one vertex per cell.
    cells = _cells(bits, n)
    order: list[int] = []
    for cell in cells:
        low = cell & -cell
        b = bits[low.bit_length() - 1]
        while cell:
            other = cell & -cell
            v = other.bit_length() - 1
            if bits[v] != b and bits[v] | other != b | low:
                best = _branch(bits, n, cells)[0]
                if best is None:
                    raise RuntimeError(
                        "canonical search placed no ordering of %d vertices" % n
                    )
                return tuple(best)
            order.append(v)
            cell ^= other
    return tuple(order)


def canonical_order(g: Graph) -> tuple[int, ...]:
    """Vertex ordering whose graph6 record is maximal over the orderings
    that list the cells of the equitable partition in rank order."""
    return _search(g.bits, g.n)


def canonical_graph(g: Graph) -> Graph:
    """g relabeled by its canonical order."""
    return _relabeled(g.bits, _search(g.bits, g.n))


def canonical_form(g: Graph) -> str:
    """Isomorphism certificate: graph6 record of the canonical labeling."""
    return write_graph6(canonical_graph(g))


def _grow(
    parents: Iterable[Graph],
    children: Callable[[Graph], Iterable[Graph]],
    key: Callable[[Graph], object] | None = None,
) -> tuple[Graph, ...]:
    # One canonical representative per isomorphism class among the children
    # of all parents.  Classes are compared as Graphs; graph6 only sorts the
    # kept ones, in _in_class_order.  A key that is a complete isomorphism
    # invariant of the children lets one child per key value be labeled.
    kids: Iterable[Graph] = (h for g in parents for h in children(g))
    if key is not None:
        kids = {key(h): h for h in kids}.values()
    return _in_class_order({canonical_graph(h) for h in kids})


def _in_class_order(graphs: Iterable[Graph]) -> tuple[Graph, ...]:
    # The order every generated class is kept in: by size, then graph6 record.
    return tuple(sorted(graphs, key=lambda g: (g.m, write_graph6(g))))


def _attach(g: Graph, mask: int) -> Graph:
    # g plus a new vertex n adjacent to the vertices in mask, from g's masks.
    n = g.n
    return Graph._from_bits(
        tuple(b | (mask >> v & 1) << n for v, b in enumerate(g.bits)) + (mask,)
    )


@lru_cache(maxsize=None)
def _all_graphs(n: int) -> tuple[Graph, ...]:
    # Every unlabeled graph of order n, connected or not.
    if n == 1:
        return (Graph(1),)
    return _grow(
        _all_graphs(n - 1),
        lambda g: (_attach(g, mask) for mask in range(1 << g.n)),
    )


@lru_cache(maxsize=None)
def _connected(n: int) -> tuple[Graph, ...]:
    # The connected graphs of order n, in the order of _all_graphs(n).
    return tuple(g for g in _all_graphs(n) if is_connected(g))


def enumerate_connected(n: int, m: int | None = None) -> Iterator[Graph]:
    """All connected graphs of order n (and size m when given), one
    canonical representative per isomorphism class."""
    _check_range("order", n, 2, CONNECTED_MAX_N)
    if m is not None:
        _check_range("size at order %d" % n, m, 0, n * (n - 1) // 2)
    for g in _connected(n):
        if m is None or g.m == m:
            yield g


@lru_cache(maxsize=None)
def _k_connected(n: int, kappa: int) -> tuple[Graph, ...]:
    # The kappa-connected graphs of order n, for kappa < n.
    return tuple(g for g in _connected(n) if is_k_connected(g, kappa))


def enumerate_k_connected(n: int, kappa: int) -> Iterator[Graph]:
    """Connected graphs of order n with vertex connectivity at least kappa."""
    _check_range("kappa", kappa, 1)
    _check_range("order", n, 2, CONNECTED_MAX_N)
    # A kappa-connected graph has more than kappa vertices, so kappa >= n
    # grows nothing.
    if kappa < n:
        yield from _k_connected(n, kappa)


def _is_canonical_deletion(
    bits: tuple[int, ...], degrees: list[int], rivals: int, mask: int
) -> bool:
    # Whether the new vertex of g + (a vertex adjacent to mask), for g with
    # masks bits and degrees degrees, has the largest f(v), the sorted
    # degrees of v's neighbours in the child, among the child's vertices of
    # the least degree; rivals holds g's vertices of that degree outside
    # mask.  A vertex in mask gains an edge, so it is above that degree,
    # except in the one child of the triangle, which is kept.
    def f(nbrs: int) -> list[int]:
        return sorted(degrees[u] + (mask >> u & 1) for u in _iter_bits(nbrs))

    new = f(mask)
    return all(f(bits[v]) <= new for v in _iter_bits(rivals))


def _canonical_children(g: Graph, least: int, masks: Iterable[int]) -> Iterator[Graph]:
    # The children g + (a vertex adjacent to mask), for mask in masks, whose
    # new vertex is a canonical deletion; least is the degree of the new
    # vertex and the least degree of the child.
    bits = g.bits
    degrees = [b.bit_count() for b in bits]
    low = sum(1 << v for v, d in enumerate(degrees) if d == least)
    for mask in masks:
        if _is_canonical_deletion(bits, degrees, low & ~mask, mask):
            yield _attach(g, mask)


def _cliques(adj: tuple[int, ...], k: int, within: int) -> Iterator[int]:
    # Masks of the k-cliques of the graph with masks adj among the vertices
    # in within, each built once, in increasing order of its vertices.
    if k == 0:
        yield 0
        return
    for v in _iter_bits(within):
        for rest in _cliques(adj, k - 1, within & adj[v] >> v + 1 << v + 1):
            yield rest | 1 << v


@lru_cache(maxsize=None)
def _stacked(n: int, k: int, cliques: bool) -> tuple[Graph, ...]:
    # K_n up to order k + 1; above it, each new vertex is attached to k
    # vertices, which must form a clique when cliques is set (k-trees).  The
    # k-sets of vertices are the k-cliques of the complete graph.  For k = 1
    # the children are trees, deduplicated by tree code before labeling.
    if n <= k + 1:
        return (Graph(n, itertools.combinations(range(n), 2)),)
    full = (1 << n - 1) - 1
    return _grow(
        _stacked(n - 1, k, cliques),
        lambda g: _canonical_children(
            g, k, _cliques(g.bits if cliques else (full,) * g.n, k, full)
        ),
        (lambda h: _tree_code(h.bits)) if k == 1 else None,
    )


def enumerate_k_trees(n: int, k: int) -> Iterator[Graph]:
    """All k-trees of order n up to isomorphism, for k <= K_TREE_MAX_K and
    n <= K_TREE_MAX_N."""
    _check_range("k", k, 1, K_TREE_MAX_K)
    _check_range("order", n, k + 1, K_TREE_MAX_N)
    # Every vertex is a 1-clique, so trees share the maximal 1-degenerate chain.
    yield from _stacked(n, k, k > 1)


def enumerate_maximal_k_degenerate(n: int, k: int) -> Iterator[Graph]:
    """Maximal k-degenerate graphs of order n, all of them connected."""
    _check_range("order", n, 2, MAX_K_DEGENERATE_MAX_N)
    _check_range("k", k, 1)
    for g in _stacked(n, k, False):
        if degeneracy_check(g, k) != (True, True):
            raise RuntimeError(
                "grown graph %s is not maximal %d-degenerate" % (write_graph6(g), k)
            )
        yield g


def _tree_code(bits: tuple[int, ...]) -> str:
    # AHU code of the tree with masks bits, rooted at its centre: a vertex
    # is "(" + its children's codes in sorted order + ")".  The centre is
    # what stripping all leaves, round after round, leaves: one vertex, or
    # two adjacent ones, whose half-trees' codes are written as a sorted
    # pair.  Two trees get the same code exactly when they are isomorphic.
    rest = (1 << len(bits)) - 1
    while rest.bit_count() > 2:
        rest &= ~sum(
            1 << v for v in _iter_bits(rest) if (bits[v] & rest).bit_count() == 1
        )

    def code(v: int, parent: int) -> str:
        below = bits[v] & ~parent
        if not below:
            # A leaf, which most vertices of an odd tree are.
            return "()"
        return "(" + "".join(sorted([code(u, 1 << v) for u in _iter_bits(below)])) + ")"

    centre = list(_iter_bits(rest))
    if len(centre) == 1:
        return code(centre[0], 0)
    a, b = centre
    return "".join(sorted((code(a, 1 << b), code(b, 1 << a))))


@lru_cache(maxsize=None)
def _odd_trees(n: int) -> tuple[Graph, ...]:
    # A deepest internal vertex has an even number (at least two) of leaf
    # children, so removing two of them leaves an odd tree of order n - 2.
    # Children are deduplicated by tree code, so each class is labeled once.
    if n == 2:
        return (Graph(2, [(0, 1)]),)
    return _grow(
        _odd_trees(n - 2),
        lambda g: (_attach(_attach(g, 1 << v), 1 << v) for v in range(g.n)),
        lambda h: _tree_code(h.bits),
    )


def enumerate_odd_trees(n: int) -> Iterator[Graph]:
    """Trees of even order n <= ODD_TREE_MAX_N in which every degree is odd."""
    _check_range("order", n, 4, ODD_TREE_MAX_N, step=2)
    for g in _odd_trees(n):
        if not is_odd_tree(g):
            raise RuntimeError("grown tree %s is not an odd tree" % write_graph6(g))
        yield g


# ---------------------------------------------------------------------------
# Planar triangulations.  A maximal planar graph of order >= 4 is
# 3-connected, and the faces of a 3-connected planar graph are its induced
# cycles whose removal leaves the rest connected (Tutte); so the faces are
# read off the graph instead of being carried beside it.


def _faces(g: Graph) -> Iterator[tuple[int, int, int]]:
    # Each triangle a < b < c: c is a common neighbour of a and b above b.
    bits = g.bits
    for a in range(g.n):
        for b in _iter_bits(bits[a] >> a + 1 << a + 1):
            for c in _iter_bits(bits[a] & bits[b] >> b + 1 << b + 1):
                if _connected_without(g, 1 << a | 1 << b | 1 << c):
                    yield (a, b, c)


@lru_cache(maxsize=None)
def _apollonian(n: int) -> tuple[Graph, ...]:
    # Grown from the triangle by inserting a vertex into a face.
    if n == 3:
        return (Graph(3, [(0, 1), (0, 2), (1, 2)]),)
    return _grow(
        _apollonian(n - 1),
        lambda g: _canonical_children(
            g, 3, (1 << a | 1 << b | 1 << c for a, b, c in _faces(g))
        ),
    )


def enumerate_apollonian(n: int) -> Iterator[Graph]:
    """Planar 3-trees of order n, grown by face insertion."""
    _check_range("order", n, 3, APOLLONIAN_MAX_N)
    yield from _apollonian(n)


def _flips(g: Graph) -> Iterator[Graph]:
    # The edge uv on faces uvw and uvx is replaced by wx, unless w and x are
    # already adjacent.
    apexes: dict[tuple[int, ...], list[int]] = {}
    for face in _faces(g):
        for i, w in enumerate(face):
            apexes.setdefault(face[:i] + face[i + 1:], []).append(w)
    for uv, wx in apexes.items():
        if len(wx) != 2:
            raise RuntimeError("edge %r is on %d faces, not 2" % (uv, len(wx)))
        (u, v), (w, x) = uv, wx
        if not g.has_edge(w, x):
            bits = list(g.bits)
            bits[u] ^= 1 << v
            bits[v] ^= 1 << u
            bits[w] |= 1 << x
            bits[x] |= 1 << w
            yield Graph._from_bits(tuple(bits))


@lru_cache(maxsize=None)
def _triangulations(n: int) -> tuple[Graph, ...]:
    # Closure of the Apollonian networks under diagonal flips; the flip graph
    # of sphere triangulations of fixed order is connected, so this reaches
    # every isomorphism class.
    frontier = found = set(_apollonian(n))
    while frontier:
        frontier = {canonical_graph(h) for g in frontier for h in _flips(g)} - found
        found |= frontier
    return _in_class_order(found)


def enumerate_maximal_planar(n: int) -> Iterator[Graph]:
    """Maximal planar graphs (sphere triangulations) of order n."""
    _check_range("order", n, 4, MAXIMAL_PLANAR_MAX_N)
    yield from _triangulations(n)


# ---------------------------------------------------------------------------
# Class specs, shared by the CLI and the verifier.

CLASSES = {
    "connected": Entry(enumerate_connected, {"n": int, "m": int}, required=1),
    "k_connected": Entry(enumerate_k_connected, {"n": int, "kappa": int}),
    "k_tree": Entry(enumerate_k_trees, {"n": int, "k": int}),
    "maximal_k_degenerate": Entry(enumerate_maximal_k_degenerate, {"n": int, "k": int}),
    "apollonian": Entry(enumerate_apollonian, {"n": int}),
    "odd_tree": Entry(enumerate_odd_trees, {"n": int}),
    "maximal_planar": Entry(enumerate_maximal_planar, {"n": int}),
}


def parse_class_spec(spec: str) -> tuple[str, tuple[int, ...]]:
    return parse_spec(spec, CLASSES, "class")


def enumerate_class(name: str, args: tuple[int, ...]) -> Iterator[Graph]:
    if name not in CLASSES:
        raise ValueError("unknown class %r" % name)
    yield from CLASSES[name].target(*args)
