"""Core graph type, graph6 and edge-list codecs, and structural predicates.

Vertices are the integers 0..n-1.  Graphs are simple (no loops, no parallel
edges), undirected, and immutable once constructed.  A graph is stored as
one adjacency bitmask per vertex and nothing else: its edge list and size
are read off the masks when asked for, and equality and hashing compare
the masks.  The masks keep the breadth-first traversals used throughout
the package cheap at the small orders this library targets.

The module holds the ``Graph`` type; one layered BFS from a single source
inside a vertex mask (``_layers``) for distance matrices, graph powers,
connectivity, cut vertices and k-connectivity; the distance matrix, which
keeps each source's BFS layer masks and reads distances off them; the
degeneracy and odd-tree predicates; relabeling; and the graph6 and
edge-list codecs.

graph6 bit layout, which round-trips bit-exactly here: a record is
``<header><payload>``.  The header is one row of ``_G6_HEADERS``, the
first whose largest order holds n: ``chr(n + 63)`` for n <= 62, ``"~"``
plus three characters for n <= 258047, and ``"~~"`` plus six characters
up to 2^36 - 1, n written big-endian in 6 bits per character.  The
payload packs the upper triangle of the adjacency matrix column by column
(x01, x02, x12, x03, x13, x23, ...) into 6-bit groups, most significant
bit first, zero padded to a multiple of six, each group stored as
``chr(value + 63)``.  The reader checks the record (alphabet, minimal
header, order, payload length, zero padding) and builds the adjacency
masks straight from the payload: a payload of the right length can only
name pairs row < col < n, each once, so the masks need no second check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator

from wienerseq.specs import _check_range


class GraphFormatError(ValueError):
    """Raised for malformed graph6 records or edge-list documents."""


class DisconnectedGraphError(ValueError):
    """Raised when an operation needs a connected graph but got none.

    ``pair`` holds one unreachable vertex pair (u, v) as evidence.
    """

    def __init__(self, pair: tuple[int, int]):
        self.pair = pair
        super().__init__(
            "graph is disconnected: no path between %d and %d" % pair
        )


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1, stored as its
    adjacency masks: bit v of ``bits[u]`` is set iff u and v are adjacent."""

    __slots__ = ("n", "bits")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        _check_range("order", n, 1)
        bits = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError("edge (%r, %r) out of range for n=%d" % (u, v, n))
            if u == v:
                raise ValueError("self-loop at vertex %d" % u)
            if bits[u] >> v & 1:
                raise ValueError("duplicate edge (%d, %d)" % (min(u, v), max(u, v)))
            bits[u] |= 1 << v
            bits[v] |= 1 << u
        self.n = n
        self.bits = tuple(bits)

    @classmethod
    def _from_bits(cls, bits: tuple[int, ...]) -> Graph:
        # The Graph with these adjacency masks, which must be symmetric,
        # loop-free and in range (those of a validated graph, or decoded
        # from a graph6 payload), so nothing is checked.
        g = cls.__new__(cls)
        g.n = len(bits)
        g.bits = bits
        return g

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """The edges (u, v) with u < v, in ascending order."""
        return tuple(
            (u, v)
            for u, b in enumerate(self.bits)
            for v in _iter_bits(b >> u + 1 << u + 1)
        )

    @property
    def m(self) -> int:
        """Number of edges."""
        return sum(map(int.bit_count, self.bits)) // 2

    def degree(self, v: int) -> int:
        _check_range("vertex", v, 0, self.n - 1)
        return self.bits[v].bit_count()

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Neighbors of v in ascending order."""
        _check_range("vertex", v, 0, self.n - 1)
        return tuple(_iter_bits(self.bits[v]))

    def has_edge(self, u: int, v: int) -> bool:
        _check_range("vertex", u, 0, self.n - 1)
        _check_range("vertex", v, 0, self.n - 1)
        return bool(self.bits[u] >> v & 1)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.bits == other.bits

    def __hash__(self) -> int:
        return hash(self.bits)

    def __repr__(self) -> str:
        return "Graph(n=%d, m=%d)" % (self.n, self.m)


def _iter_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class DistanceMatrix:
    """All-pairs shortest-path distances of a connected graph as BFS layers:
    ``layers[u][d - 1]`` is the mask of the vertices at distance d from u.
    """

    n: int
    layers: tuple[tuple[int, ...], ...]

    @property
    def d(self) -> tuple[tuple[int, ...], ...]:
        """``d[u][v]`` is the hop distance, read off the layers on each access."""
        return tuple(
            tuple(
                next((k for k, layer in enumerate(layers, 1) if layer >> v & 1), 0)
                for v in range(self.n)
            )
            for layers in self.layers
        )

    @property
    def ecc(self) -> tuple[int, ...]:
        """``ecc[v]`` is the eccentricity of v."""
        return tuple(map(len, self.layers))

    @property
    def diameter(self) -> int:
        return max(self.ecc)


def _layers(bits: tuple[int, ...], src: int, allowed: int) -> list[int]:
    # BFS inside the vertex set `allowed` (bitmask, containing src): the
    # vertices at distance 1, 2, ... from src as one mask per distance.
    # Raises DisconnectedGraphError((src, lowest unreached)) when some
    # vertex of `allowed` is never reached.
    layers = []
    seen = 1 << src
    frontier = seen
    while True:
        spread = 0
        m = frontier
        while m:
            low = m & -m
            spread |= bits[low.bit_length() - 1]
            m ^= low
        frontier = spread & allowed & ~seen
        if not frontier:
            break
        seen |= frontier
        layers.append(frontier)
    missing = allowed & ~seen
    if missing:
        raise DisconnectedGraphError((src, (missing & -missing).bit_length() - 1))
    return layers


def distance_matrix(g: Graph) -> DistanceMatrix:
    """The BFS layers of every vertex, one search per source.  Raises
    DisconnectedGraphError((0, the lowest vertex 0 does not reach))."""
    full = (1 << g.n) - 1
    layers = tuple(tuple(_layers(g.bits, s, full)) for s in range(g.n))
    return DistanceMatrix(g.n, layers)


def _connected_without(g: Graph, removed: int) -> bool:
    allowed = ((1 << g.n) - 1) & ~removed
    if allowed:
        try:
            _layers(g.bits, (allowed & -allowed).bit_length() - 1, allowed)
        except DisconnectedGraphError:
            return False
    return True


def is_connected(g: Graph) -> bool:
    return _connected_without(g, 0)


def is_cut_vertex(g: Graph, v: int) -> bool:
    _check_range("vertex", v, 0, g.n - 1)
    return not _connected_without(g, 1 << v)


def is_k_connected(g: Graph, k: int) -> bool:
    """True iff g has more than k vertices and no cutset smaller than k."""
    _check_range("k", k, 1)
    if g.n <= k:
        return False
    # A vertex of degree below k is cut off from the rest, which n > k makes
    # nonempty, by its neighbourhood: a cutset smaller than k.
    if any(b.bit_count() < k for b in g.bits):
        return False
    # Only the vertex sets of size k - 1 are searched; removing none (k = 1)
    # is the connectivity test.  A smaller cutset S extends to one of size
    # k - 1: g - S has n - |S| >= 3 vertices, and S stays a cutset when it
    # gains a vertex of a component of g - S with two or more vertices, or,
    # when every component is a single vertex, one of those three or more.
    # The mask loop is written out because a sum() over the cut is slower.
    for cut in itertools.combinations(range(g.n), k - 1):
        removed = 0
        for v in cut:
            removed |= 1 << v
        if not _connected_without(g, removed):
            return False
    return True


def degeneracy_check(g: Graph, k: int) -> tuple[bool, bool]:
    """Return (is k-degenerate, is maximal k-degenerate).

    Peels a minimum-degree vertex repeatedly, breaking ties toward the
    lowest label; k-degenerate iff the minimum degree never exceeds k.
    Maximal means adding any missing edge breaks k-degeneracy, which holds
    exactly when a k-degenerate g has sum over i < n of min(i, k) edges
    (Lick & White, "k-degenerate graphs", Canad. J. Math. 1970).  Proof:
    in a degeneracy order (the peeling order reversed) the i-th vertex has
    at most min(i - 1, k) earlier neighbours, so m is at most that sum and
    at the sum no edge can be added; below it some i-th vertex has fewer
    than min(i - 1, k) earlier neighbours, and an edge to an earlier
    non-neighbour keeps the order a degeneracy order.
    """
    _check_range("k", k, 1)
    alive = (1 << g.n) - 1
    while alive:
        degree, v = min(
            ((g.bits[v] & alive).bit_count(), v) for v in _iter_bits(alive)
        )
        if degree > k:
            return (False, False)
        alive ^= 1 << v
    return (True, g.m == sum(min(i, k) for i in range(g.n)))


def is_odd_tree(g: Graph) -> bool:
    """True iff g is a tree in which every vertex degree is odd."""
    if g.m != g.n - 1 or not is_connected(g):
        return False
    return all(mask.bit_count() % 2 == 1 for mask in g.bits)


def graph_power(g: Graph, k: int) -> Graph:
    """k-th power: join vertices at distance at most k.  Needs connected input."""
    _check_range("exponent", k, 1)
    full = (1 << g.n) - 1
    bits = []
    for u in range(g.n):
        near = 0
        for layer in _layers(g.bits, u, full)[:k]:
            near |= layer
        bits.append(near)
    return Graph._from_bits(tuple(bits))


def _relabeled(bits: tuple[int, ...], order: tuple[int, ...]) -> Graph:
    # The Graph whose vertex i is vertex order[i] of the graph with masks
    # bits, for a permutation order: row i is the OR of at[u], the bit of
    # u's new label, over the neighbours u of order[i].
    at = [0] * len(bits)
    for i, v in enumerate(order):
        at[v] = 1 << i
    rows = []
    for v in order:
        b = bits[v]
        row = 0
        while b:
            low = b & -b
            row |= at[low.bit_length() - 1]
            b ^= low
        rows.append(row)
    return Graph._from_bits(tuple(rows))


def relabel(g: Graph, order: tuple[int, ...]) -> Graph:
    """Graph with new label i standing for old vertex order[i]."""
    if sorted(order) != list(range(g.n)):
        raise ValueError("order %r is not a permutation of 0..%d" % (order, g.n - 1))
    return _relabeled(g.bits, order)


# ---------------------------------------------------------------------------
# graph6

# The order headers, shortest first: (prefix, characters after it, largest
# order).  An order takes the first header that holds it, so a longer
# header for an order that a shorter one holds is non-minimal.
_G6_HEADERS = (("", 1, 62), ("~", 3, 258047), ("~~", 6, (1 << 36) - 1))
# The 6 bits, most significant first, that each graph6 character stands for.
_G6_BITS = {63 + v: format(v, "06b") for v in range(64)}


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 record (optional ">>graph6<<" prefix tolerated)."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise GraphFormatError("empty graph6 record")
    for ch in s:
        if not "?" <= ch <= "~":
            raise GraphFormatError(
                "character %r outside graph6 range 63..126" % ch
            )
    # The longest prefix the record starts with picks the header.
    least = 0
    for prefix, width, largest in _G6_HEADERS:
        if s.startswith(prefix):
            start, end, smallest = len(prefix), len(prefix) + width, least
        least = largest + 1
    if len(s) < end:
        raise GraphFormatError("truncated graph6 length header")
    bitstr = s.translate(_G6_BITS)
    n = int(bitstr[6 * start:6 * end], 2)
    if n < smallest:
        raise GraphFormatError("non-minimal graph6 length header")
    if n < 1:
        raise GraphFormatError("graph6 record with order %d" % n)
    npairs = n * (n - 1) // 2
    need = (npairs + 5) // 6
    if len(s) - end != need:
        raise GraphFormatError(
            "payload length %d, expected %d characters for n=%d"
            % (len(s) - end, need, n)
        )
    # Bit i of pairs is the i-th pair of x01, x02, x12, x03, ...
    pairs = int(bitstr[::-1], 2) >> 6 * end
    if pairs >> npairs:
        raise GraphFormatError("nonzero padding bits in graph6 payload")
    # Column col holds the pairs (row, col) for row < col, so the masks are
    # symmetric, loop-free and in range by construction.
    bits = [0] * n
    for col in range(1, n):
        lower = pairs & ((1 << col) - 1)
        pairs >>= col
        bits[col] |= lower
        while lower:
            low = lower & -lower
            bits[low.bit_length() - 1] |= 1 << col
            lower ^= low
    return Graph._from_bits(tuple(bits))


def write_graph6(g: Graph) -> str:
    """Encode a graph as one graph6 record (no trailing newline)."""
    n = g.n
    for prefix, width, largest in _G6_HEADERS:
        if n <= largest:
            break
    # Gather the pairs with the first at the lowest bit (column col is the
    # low col bits of bits[col]), then reverse them once, since graph6
    # writes the first pair first; the order and the payload are packed as
    # one number.
    rev = 0
    npairs = 0
    for col in range(1, n):
        rev |= (g.bits[col] & ((1 << col) - 1)) << npairs
        npairs += col
    pad = -npairs % 6
    value = (n << npairs | int(format(rev, "0%db" % npairs)[::-1], 2)) << pad
    top = 6 * width + npairs + pad - 6
    return prefix + "".join(
        [chr((value >> shift & 63) + 63) for shift in range(top, -6, -6)]
    )


def parse_edge_list(text: str) -> Graph:
    """Parse the plain edge-list form: first line n, then one "u v" per line."""
    return Graph(*_edge_list(text))


def _edge_list(text: str) -> tuple[int, list[tuple[int, int]]]:
    # The declared order and the validated edges, with nothing allocated
    # per declared vertex.
    lines = [ln.strip() for ln in text.splitlines()]
    rows = [(i + 1, ln) for i, ln in enumerate(lines) if ln]
    if not rows:
        raise GraphFormatError("empty edge list document")
    first_no, first = rows[0]
    try:
        n = int(first)
    except ValueError:
        raise GraphFormatError(
            "line %d: expected vertex count, got %r" % (first_no, first)
        ) from None
    if n < 1:
        raise GraphFormatError("line %d: vertex count must be positive" % first_no)
    seen: set[tuple[int, int]] = set()
    edges = []
    for line_no, line in rows[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise GraphFormatError(
                "line %d: expected 'u v', got %r" % (line_no, line)
            )
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(
                "line %d: non-integer endpoint in %r" % (line_no, line)
            ) from None
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(
                "line %d: endpoint out of range 0..%d" % (line_no, n - 1)
            )
        if u == v:
            raise GraphFormatError("line %d: self-loop at %d" % (line_no, u))
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise GraphFormatError(
                "line %d: duplicate edge (%d, %d)" % (line_no, key[0], key[1])
            )
        seen.add(key)
        edges.append(key)
    return n, edges
