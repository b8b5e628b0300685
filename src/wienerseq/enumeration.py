"""Exhaustive enumeration of small graph classes up to isomorphism.

The canonical form used for deduplication is the lexicographically largest
graph6 record over all vertex orderings, found by a branch-and-bound
search over placements: placing a vertex appends its adjacency column
toward the already placed prefix, so candidate orderings are pruned as
soon as a column falls below the best known one.  Twin vertices (equal
open or closed neighborhoods) are interchangeable by an automorphism and
only one representative per group is branched on.

Enumeration is by vertex extension: every graph of order n arises from a
graph of order n - 1 by attaching a new vertex with some neighborhood, so
level-wise growth plus canonical deduplication yields each isomorphism
class exactly once.  k-trees grow by attaching a new vertex to a k-clique,
Apollonian networks by inserting a vertex into a triangular face, and
planar triangulations close the Apollonian seed under diagonal flips.
Yields are sorted by (size, canonical record) so output order is stable
across runs and shard counts.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterator

from wienerseq.graphs import (
    Graph,
    degeneracy_check,
    is_connected,
    is_k_connected,
    is_odd_tree,
    relabel,
    write_graph6,
)
from wienerseq.specs import Entry, parse_spec

CONNECTED_MAX_N = 8
K_TREE_MAX_N = 10
K_TREE_MAX_K = 3
MAX_K_DEGENERATE_MAX_N = 7
APOLLONIAN_MAX_N = 11
ODD_TREE_MAX_N = 14
MAXIMAL_PLANAR_MAX_N = 9


def canonical_order(g: Graph) -> tuple[int, ...]:
    """Vertex ordering whose graph6 record is maximal over all orderings."""
    n = g.n
    if n == 1:
        return (0,)
    bits = g.bits
    best_cols: list[int] | None = None
    best_order: list[int] | None = None
    full = (1 << n) - 1

    def dfs(order: list[int], placed: int, cols: list[int]) -> None:
        nonlocal best_cols, best_order
        i = len(order)
        if i == n:
            if best_cols is None or cols > best_cols:
                best_cols = cols[:]
                best_order = order[:]
            return
        groups: dict[int, list[int]] = {}
        rest = full & ~placed
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            rest ^= low
            av = bits[v]
            col = 0
            for placed_v in order:
                col = col << 1 | (av >> placed_v & 1)
            groups.setdefault(col, []).append(v)
        for col in sorted(groups, reverse=True):
            if best_cols is not None and cols == best_cols[:i] and col < best_cols[i]:
                break
            reps: list[int] = []
            for v in groups[col]:
                twin = False
                for u in reps:
                    if bits[u] == bits[v] or (
                        bits[u] | 1 << u == bits[v] | 1 << v
                    ):
                        twin = True
                        break
                if not twin:
                    reps.append(v)
            for v in reps:
                order.append(v)
                cols.append(col)
                dfs(order, placed | 1 << v, cols)
                order.pop()
                cols.pop()

    dfs([], 0, [])
    if best_order is None:
        raise RuntimeError("canonical search placed no ordering of %d vertices" % n)
    return tuple(best_order)


def canonical_graph(g: Graph) -> Graph:
    return relabel(g, canonical_order(g))


def canonical_form(g: Graph) -> str:
    """Isomorphism certificate: graph6 record of the canonical labeling."""
    return write_graph6(canonical_graph(g))


@lru_cache(maxsize=None)
def _all_graphs(n: int) -> tuple[Graph, ...]:
    # Every unlabeled graph of order n, connected or not, as canonical
    # representatives sorted by (size, graph6 record).
    if n == 1:
        return (Graph(1),)
    seen: dict[str, Graph] = {}
    for g in _all_graphs(n - 1):
        base_edges = g.edges
        for neighborhood in range(1 << (n - 1)):
            extra = [
                (v, n - 1) for v in range(n - 1) if neighborhood >> v & 1
            ]
            h = Graph(n, base_edges + tuple(extra))
            canon = canonical_graph(h)
            seen.setdefault(write_graph6(canon), canon)
    return tuple(sorted(seen.values(), key=lambda g: (g.m, write_graph6(g))))


def _labeled_graphs(n: int, m: int | None) -> Iterator[Graph]:
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for mask in range(1 << len(pairs)):
        if m is not None and mask.bit_count() != m:
            continue
        yield Graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])


def enumerate_connected(
    n: int, m: int | None = None, dedup: str = "unlabeled"
) -> Iterator[Graph]:
    """All connected graphs of order n (and size m when given).

    dedup="unlabeled" yields one canonical representative per isomorphism
    class; dedup="labeled" yields every labeled graph and is refused for
    n = 8, where the labeled stream is out of scale.
    """
    if not (2 <= n <= CONNECTED_MAX_N):
        raise ValueError("supported orders are 2..%d, got %r" % (CONNECTED_MAX_N, n))
    if dedup == "labeled":
        if n >= CONNECTED_MAX_N:
            raise ValueError("labeled enumeration is limited to n <= %d" % (CONNECTED_MAX_N - 1))
        for g in _labeled_graphs(n, m):
            if is_connected(g):
                yield g
        return
    if dedup != "unlabeled":
        raise ValueError("dedup must be 'labeled' or 'unlabeled'")
    for g in _all_graphs(n):
        if m is not None and g.m != m:
            continue
        if is_connected(g):
            yield g


def enumerate_k_connected(n: int, kappa: int) -> Iterator[Graph]:
    """Connected graphs of order n with vertex connectivity at least kappa."""
    if kappa < 1:
        raise ValueError("kappa must be positive")
    for g in enumerate_connected(n):
        if is_k_connected(g, kappa):
            yield g


@lru_cache(maxsize=None)
def _k_trees(n: int, k: int) -> tuple[Graph, ...]:
    # Grown from K_{k+1} by attaching each new vertex to a k-clique.
    if n < k + 1:
        raise ValueError("a %d-tree has at least %d vertices" % (k, k + 1))
    if n == k + 1:
        return (
            Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)]),
        )
    seen: dict[str, Graph] = {}
    for g in _k_trees(n - 1, k):
        for clique in _k_cliques(g, k):
            extra = tuple((v, n - 1) for v in clique)
            h = Graph(n, g.edges + extra)
            canon = canonical_graph(h)
            seen.setdefault(write_graph6(canon), canon)
    return tuple(sorted(seen.values(), key=lambda g: (g.m, write_graph6(g))))


def _k_cliques(g: Graph, k: int) -> Iterator[tuple[int, ...]]:
    if k == 1:
        for v in range(g.n):
            yield (v,)
    elif k == 2:
        yield from g.edges
    else:
        for combo in itertools.combinations(range(g.n), k):
            if all(
                g.has_edge(u, v) for u, v in itertools.combinations(combo, 2)
            ):
                yield combo


def enumerate_k_trees(n: int, k: int) -> Iterator[Graph]:
    """All k-trees of order n up to isomorphism, for k <= 3 and n <= 10."""
    if not (1 <= k <= K_TREE_MAX_K):
        raise ValueError("supported k is 1..%d, got %r" % (K_TREE_MAX_K, k))
    if not (k + 1 <= n <= K_TREE_MAX_N):
        raise ValueError(
            "supported orders are %d..%d for k=%d, got %r"
            % (k + 1, K_TREE_MAX_N, k, n)
        )
    yield from _k_trees(n, k)


def enumerate_maximal_k_degenerate(n: int, k: int) -> Iterator[Graph]:
    """Connected maximal k-degenerate graphs of order n, by filtering."""
    if not (2 <= n <= MAX_K_DEGENERATE_MAX_N):
        raise ValueError(
            "supported orders are 2..%d, got %r" % (MAX_K_DEGENERATE_MAX_N, n)
        )
    for g in enumerate_connected(n):
        degenerate, maximal = degeneracy_check(g, k)
        if degenerate and maximal:
            yield g


def _trees(n: int) -> tuple[Graph, ...]:
    # Unlabeled trees: the k = 1 growth chain without the public ceiling.
    return _k_trees(n, 1)


def enumerate_odd_trees(n: int) -> Iterator[Graph]:
    """Trees of even order n <= 14 in which every degree is odd."""
    if n % 2:
        raise ValueError("odd trees have even order, got %r" % (n,))
    if not (4 <= n <= ODD_TREE_MAX_N):
        raise ValueError(
            "supported orders are even 4..%d, got %r" % (ODD_TREE_MAX_N, n)
        )
    for g in _trees(n):
        if is_odd_tree(g):
            yield g


# ---------------------------------------------------------------------------
# Planar triangulations.  A state is (graph, faces) where faces is a sorted
# tuple of sorted vertex triples; every triangulation of the sphere here is
# 3-connected, so the face structure is determined by the graph and one
# stored representative per isomorphism class suffices.

Faces = tuple[tuple[int, int, int], ...]


def _triangle_state() -> tuple[Graph, Faces]:
    g = Graph(3, [(0, 1), (0, 2), (1, 2)])
    return g, ((0, 1, 2), (0, 1, 2))


def _insert_into_face(
    g: Graph, faces: Faces, face_index: int
) -> tuple[Graph, Faces]:
    a, b, c = faces[face_index]
    v = g.n
    h = Graph(g.n + 1, g.edges + ((a, v), (b, v), (c, v)))
    new_faces = list(faces[:face_index] + faces[face_index + 1:])
    new_faces.extend(
        (tuple(sorted((a, b, v))), tuple(sorted((a, c, v))), tuple(sorted((b, c, v))))
    )
    return h, tuple(sorted(new_faces))


@lru_cache(maxsize=None)
def _apollonian_states(n: int) -> tuple[tuple[Graph, Faces], ...]:
    if n == 3:
        return (_triangle_state(),)
    seen: dict[str, tuple[Graph, Faces]] = {}
    for g, faces in _apollonian_states(n - 1):
        for i in range(len(faces)):
            h, new_faces = _insert_into_face(g, faces, i)
            cert = canonical_form(h)
            seen.setdefault(cert, (h, new_faces))
    return tuple(
        state
        for _, state in sorted(seen.items(), key=lambda item: item[0])
    )


def enumerate_apollonian(n: int) -> Iterator[Graph]:
    """Planar 3-trees of order n, grown by face insertion."""
    if not (3 <= n <= APOLLONIAN_MAX_N):
        raise ValueError(
            "supported orders are 3..%d, got %r" % (APOLLONIAN_MAX_N, n)
        )
    graphs = [canonical_graph(g) for g, _ in _apollonian_states(n)]
    for g in sorted(graphs, key=write_graph6):
        yield g


def _flip_neighbors(g: Graph, faces: Faces) -> Iterator[tuple[Graph, Faces]]:
    face_at: dict[tuple[int, int], list[int]] = {}
    for idx, (a, b, c) in enumerate(faces):
        for e in ((a, b), (a, c), (b, c)):
            face_at.setdefault(e, []).append(idx)
    for (u, v), incident in face_at.items():
        if len(incident) != 2:
            raise RuntimeError("edge %r is on %d faces, not 2" % ((u, v), len(incident)))
        f1, f2 = (faces[i] for i in incident)
        w = next(x for x in f1 if x not in (u, v))
        x = next(y for y in f2 if y not in (u, v))
        if w == x or g.has_edge(w, x):
            continue
        edges = tuple(e for e in g.edges if e != (u, v))
        wx = (w, x) if w < x else (x, w)
        h = Graph(g.n, edges + (wx,))
        kept = [f for i, f in enumerate(faces) if i not in incident]
        kept.append(tuple(sorted((u, w, x))))
        kept.append(tuple(sorted((v, w, x))))
        yield h, tuple(sorted(kept))


@lru_cache(maxsize=None)
def _triangulation_states(n: int) -> tuple[tuple[Graph, Faces], ...]:
    # Closure of the stacked triangulation under diagonal flips; the flip
    # graph of sphere triangulations of fixed order is connected, so this
    # reaches every isomorphism class.
    state = _triangle_state()
    for _ in range(3, n):
        g, faces = state
        state = _insert_into_face(g, faces, 0)
    start_cert = canonical_form(state[0])
    seen: dict[str, tuple[Graph, Faces]] = {start_cert: state}
    queue = [state]
    while queue:
        g, faces = queue.pop()
        for h, new_faces in _flip_neighbors(g, faces):
            cert = canonical_form(h)
            if cert not in seen:
                seen[cert] = (h, new_faces)
                queue.append((h, new_faces))
    return tuple(
        state for _, state in sorted(seen.items(), key=lambda item: item[0])
    )


def enumerate_maximal_planar(n: int, mode: str = "flip") -> Iterator[Graph]:
    """Maximal planar graphs (sphere triangulations) of order n.

    mode="flip" closes the stacked triangulation under diagonal flips and
    covers the class completely; mode="apollonian" yields only the planar
    3-trees, a proper subset from order 6 on.
    """
    if not (4 <= n <= MAXIMAL_PLANAR_MAX_N):
        raise ValueError(
            "supported orders are 4..%d, got %r" % (MAXIMAL_PLANAR_MAX_N, n)
        )
    if mode == "apollonian":
        yield from enumerate_apollonian(n)
        return
    if mode != "flip":
        raise ValueError("mode must be 'flip' or 'apollonian'")
    graphs = [canonical_graph(g) for g, _ in _triangulation_states(n)]
    expected = 3 * n - 6
    for g in sorted(graphs, key=write_graph6):
        if g.m != expected:
            raise RuntimeError("triangulation with %d edges, not %d" % (g.m, expected))
        yield g


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


def brute_force_isomorphic(a: Graph, b: Graph) -> bool:
    """Permutation search isomorphism test, for validating canonical forms."""
    if a.n != b.n or a.m != b.m:
        return False
    if sorted(map(len, a.adj)) != sorted(map(len, b.adj)):
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
