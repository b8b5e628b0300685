"""Distance sequences and the coordinatewise dominance order.

The distance sequence of a connected graph is the nondecreasing sequence of
all n(n-1)/2 pairwise distances.  Sequences of equal length are partially
ordered by coordinatewise comparison; two Wiener-type facts drive the rest
of the package: a monotone index respects that order, and deleting a
non-cut vertex v bounds the sequence by the merge of the remaining graph's
sequence with the distance sequence of v.

A distance sequence is counted with no matrix, as one count per distance,
from one expansion of every vertex's reach (the vertices within distance d
of it), grown together a round per distance: the reach of v in round
d + 1 is its reach in round d joined with its neighbours' reaches in round
d.  Round d adds two bits for each pair at distance d, one to the reach of
each end, so the count at d is half the growth of the reaches' popcount
sum.  Restricting the expansion to the vertex mask ``full & ~(1 << v)``
counts the pairs of g - v without building g - v; for a connected g that
count fails exactly when v is a cut vertex.

Every dominance decision is one count test on two sorted sequences a and
b given as their counts per value.  With A(t) and B(t) the numbers of
entries <= t, a[i] < b[i] exactly when B(t) <= i < A(t) for some t, so
the first coordinate where a is smaller is B(t) at the first t with
A(t) > B(t), and the first where a is larger is A(t) at the first t with
B(t) > A(t); a <= b when there is no such larger coordinate, and a == b
when there is neither.  ``compare`` reads the counts off the runs of its
two sequences.  The deletion bound reads them off per-distance counts,
never merged sequences: the bound's count at distance d is v's count plus
g - v's count.  At a single vertex v, v's counts are the layer sizes of
one BFS from v.

``deletion_bounds`` reads the BFS layers of every source of g, which one
distance matrix keeps, and searches g - v only from the sources whose
distances deleting v changes.  Let v be at distance k from a source s.
Deleting v changes some distance from s exactly when some vertex t at
distance k + 1 has v as its only neighbour at distance k: then every
shortest s-t path runs through v; otherwise every vertex of each layer
keeps a parent outside v in the layer before, so by induction on the
distance every vertex keeps its distance.  Every other source keeps its
layers, less v, in g - v.  A cut vertex v is such a sole parent from every
other source, so the first search of g - v fails exactly when v is a cut
vertex.  The equality predicate needs no more: every two neighbours of v
are within 2 in g - v exactly when deleting v changes no distance, since a
shortest path through x, v, y can then run through x, w, y instead.

Sequences are stored run-length compressed as (value, multiplicity) pairs,
and comparisons never expand them.
"""

from __future__ import annotations

__all__ = [
    "DeletionBoundResult",
    "DistanceSequence",
    "Dominance",
    "DominanceRelation",
    "compare",
    "deletion_bound_check",
    "deletion_bounds",
    "distance_sequence",
    "vertex_distance_sequence",
]

from dataclasses import dataclass
from enum import Enum
from operator import add
from typing import Iterable, Iterator, NamedTuple, Sequence

from wienerseq.graphs import (
    DisconnectedGraphError,
    Graph,
    _iter_bits,
    _layers,
    distance_matrix,
)
from wienerseq.specs import _check_range


class DistanceSequence:
    """Nondecreasing sequence of positive integers, run-length compressed."""

    __slots__ = ("runs",)

    def __init__(self, runs: Iterable[tuple[int, int]]):
        merged: list[tuple[int, int]] = []
        for value, count in runs:
            if value < 1:
                raise ValueError("entries must be positive, got %r" % (value,))
            if count < 0:
                raise ValueError("negative multiplicity %r" % (count,))
            if count == 0:
                continue
            if merged and value < merged[-1][0]:
                raise ValueError("runs must be sorted by value")
            if merged and value == merged[-1][0]:
                merged[-1] = (value, merged[-1][1] + count)
            else:
                merged.append((value, count))
        self.runs = tuple(merged)

    @classmethod
    def from_entries(cls, entries: Iterable[int]) -> "DistanceSequence":
        """Build from an arbitrary multiset of positive integers."""
        return cls((e, 1) for e in sorted(entries))

    def __len__(self) -> int:
        return sum(count for _, count in self.runs)

    def __getitem__(self, i: int) -> int:
        j = i + len(self) if i < 0 else i
        if j >= 0:
            for value, count in self.runs:
                if j < count:
                    return value
                j -= count
        raise IndexError(i)

    def __iter__(self) -> Iterator[int]:
        for value, count in self.runs:
            for _ in range(count):
                yield value

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DistanceSequence):
            return NotImplemented
        return self.runs == other.runs

    def __hash__(self) -> int:
        return hash(self.runs)

    def __repr__(self) -> str:
        return "DistanceSequence(%r)" % (self.runs,)

    def to_text(self) -> str:
        """Run-length text form, e.g. "1^8 2^8 3^8 4^4"; bare value for runs of 1."""
        parts = [
            "%d^%d" % (v, c) if c > 1 else "%d" % v for v, c in self.runs
        ]
        return " ".join(parts)

    def to_pairs(self) -> list[list[int]]:
        """JSON form: list of [value, multiplicity] pairs."""
        return [[v, c] for v, c in self.runs]

    @classmethod
    def from_pairs(cls, pairs: Iterable[Iterable[int]]) -> "DistanceSequence":
        return cls(tuple((int(v), int(c)) for v, c in pairs))

    @property
    def max_value(self) -> int:
        if not self.runs:
            raise ValueError("empty sequence has no maximum")
        return self.runs[-1][0]


class Dominance(Enum):
    LESS = "less"
    EQUAL = "equal"
    GREATER = "greater"
    INCOMPARABLE = "incomparable"


@dataclass(frozen=True)
class DominanceRelation:
    """Outcome of a coordinatewise comparison of equal-length sequences.

    ``less_at`` / ``greater_at`` are the first coordinates (0-based) where
    the left sequence is strictly smaller / larger; None when no such
    coordinate exists.
    """

    tag: Dominance
    less_at: int | None = None
    greater_at: int | None = None

    @property
    def dominated(self) -> bool:
        """Left <= right coordinatewise."""
        return self.tag in (Dominance.LESS, Dominance.EQUAL)


_TAGS = {
    (True, True): Dominance.EQUAL,
    (False, True): Dominance.LESS,
    (True, False): Dominance.GREATER,
    (False, False): Dominance.INCOMPARABLE,
}


def compare(a: DistanceSequence, b: DistanceSequence) -> DominanceRelation:
    """Coordinatewise comparison; raises on length mismatch."""
    ca, cb = dict(a.runs), dict(b.runs)
    less_at, greater_at, len_a, len_b = _crossings(
        (ca.get(v, 0), cb.get(v, 0)) for v in sorted(ca.keys() | cb.keys())
    )
    if len_a != len_b:
        raise ValueError(
            "cannot compare sequences of lengths %d and %d" % (len_a, len_b)
        )
    tag = _TAGS[less_at is None, greater_at is None]
    return DominanceRelation(tag, less_at, greater_at)


def _crossings(
    counts: Iterable[tuple[int, int]]
) -> tuple[int | None, int | None, int, int]:
    # (less_at, greater_at, len(a), len(b)) for sorted sequences a and b
    # given as (count in a, count in b) per value, in increasing order of
    # value, by the count test of the module docstring: `have` is A(t) and
    # `need` is B(t).
    less_at = greater_at = None
    have = need = 0
    for ca, cb in counts:
        have += ca
        need += cb
        if have > need:
            if less_at is None:
                less_at = need
        elif have < need and greater_at is None:
            greater_at = have
    return less_at, greater_at, have, need


def _pair_counts(g: Graph, allowed: int) -> list[int]:
    # Entry d - 1 is the number of pairs at distance d in the subgraph of g
    # induced by the vertex mask `allowed`, for d = 1..n-1, by the reach
    # expansion of the module docstring: reach[v] masks the allowed vertices
    # within distance d of v after round d (0 for v outside allowed), and
    # the round's count is half the growth of the reaches' popcount sum.  A
    # reach that is all of allowed is done, so its vertex is skipped and a
    # walk stops there.  The rounds end when every reach is done (the sum is
    # |allowed|^2) or none grows; then, unless the lowest allowed vertex s
    # reaches all of allowed, raises DisconnectedGraphError((s, the lowest
    # allowed vertex s does not reach)).
    bits = g.bits
    seen = [allowed & 1 << v for v in range(g.n)]
    reach = [b & allowed | own if own else 0 for b, own in zip(bits, seen)]
    counts = []
    total = size = allowed.bit_count()
    while reach != seen:
        grown = sum(map(int.bit_count, reach))
        counts.append((grown - total) // 2)
        total = grown
        if total == size * size:
            break
        seen = reach
        reach = seen[:]
        for v, r in enumerate(seen):
            if r != allowed and r:
                b = bits[v] & allowed
                while b:
                    low = b & -b
                    r |= seen[low.bit_length() - 1]
                    if r == allowed:
                        break
                    b ^= low
                reach[v] = r
    low = allowed & -allowed
    missing = allowed & ~reach[low.bit_length() - 1]
    if missing:
        raise DisconnectedGraphError(
            (low.bit_length() - 1, (missing & -missing).bit_length() - 1)
        )
    return counts + [0] * (g.n - 1 - len(counts))


def _sizes(layers: Sequence[int], n: int) -> list[int]:
    # Entry d - 1 is the size of layer d, for d = 1..n-1.
    return list(map(int.bit_count, layers)) + [0] * (n - 1 - len(layers))


def _vertex_counts(g: Graph, v: int) -> list[int]:
    # Entry d - 1 is the number of vertices at distance d from v.
    return _sizes(_layers(g.bits, v, (1 << g.n) - 1), g.n)


def _from_counts(counts: list[int]) -> DistanceSequence:
    return DistanceSequence(zip(range(1, len(counts) + 1), counts))


def distance_sequence(g: Graph) -> DistanceSequence:
    """Distance sequence of a connected graph; length n(n-1)/2."""
    return _from_counts(_pair_counts(g, (1 << g.n) - 1))


def vertex_distance_sequence(g: Graph, v: int) -> DistanceSequence:
    """Sorted distances from v to all other vertices; length n - 1."""
    _check_range("vertex", v, 0, g.n - 1)
    return _from_counts(_vertex_counts(g, v))


class DeletionBoundResult(NamedTuple):
    holds: bool
    equality: bool
    predicted_equality: bool


def deletion_bound_check(g: Graph, v: int) -> DeletionBoundResult:
    """Check the vertex deletion bound at a non-cut vertex v.

    The bound states that the distance sequence of g is coordinatewise at
    most the merge of the distance sequence of g - v with the sorted
    distances from v.  Equality is predicted exactly when every two
    neighbors of v are at distance at most 2 in g - v.
    """
    _check_range("vertex", v, 0, g.n - 1)
    if g.n == 1:
        raise ValueError("cannot delete the only vertex")
    # v's BFS runs first, so a disconnected g raises with the pair
    # (v, lowest vertex unreached from v).  g is then connected, so the
    # only count that can fail later is g - v's, exactly when v is a cut
    # vertex.
    vcounts = _vertex_counts(g, v)
    full = (1 << g.n) - 1
    counts = _pair_counts(g, full)
    others = full & ~(1 << v)
    try:
        rest = _pair_counts(g, others)
    except DisconnectedGraphError:
        raise ValueError("vertex %d is a cut vertex" % v) from None
    # Neighbours x and y of v are within 2 in g - v when they are adjacent
    # or share a neighbour other than v.
    bits = g.bits
    nbrs = g.neighbors(v)
    predicted = all(
        bits[x] >> y & 1 or bits[x] & bits[y] & others
        for i, x in enumerate(nbrs)
        for y in nbrs[i + 1:]
    )
    return _deletion_bound(counts, vcounts, rest, predicted)


def deletion_bounds(g: Graph) -> dict[int, DeletionBoundResult]:
    """``deletion_bound_check(g, v)`` at every non-cut vertex v.

    The bound is checked on per-distance counts read off the BFS layers
    of every source, which one distance matrix of g keeps: their sizes
    summed give g's pair counts, and v's give v's counts.  g - v is
    searched only from the sources s whose distances deleting v changes,
    those where v, at distance k from s, is the only neighbour at distance
    k of some vertex at distance k + 1.  Otherwise every vertex keeps a
    parent other than v one layer closer, so by induction no distance from
    s changes, and s counts its layers without v.  A cut vertex is such a
    sole parent from every other source, so the first search of g - v
    fails exactly when v is a cut vertex.  Equality is predicted exactly
    when no source's distances change.
    """
    if g.n == 1:
        raise ValueError("cannot delete the only vertex")
    dm = distance_matrix(g)
    rows = [_sizes(layers, g.n) for layers in dm.layers]
    # Ordered pair counts of g: each pair once from each end.
    ordered = [sum(column) for column in zip(*rows)]
    counts = [c // 2 for c in ordered]
    # changed[v]: the mask of the sources whose distances deleting v changes
    changed = [0] * g.n
    for s, layers in enumerate(dm.layers):
        for v in _iter_bits(_sole_parents(g.bits, layers)):
            changed[v] |= 1 << s
    full = (1 << g.n) - 1
    out = {}
    for v, vcounts in enumerate(rows):
        allowed = full & ~(1 << v)
        # Ordered counts of g - v: drop v's pairs from both ends, then
        # swap each changed source's layers in g, less v, for its layers
        # in g - v.
        rest = [c - 2 * x for c, x in zip(ordered, vcounts)]
        try:
            for s in _iter_bits(changed[v]):
                for d, layer in enumerate(dm.layers[s]):
                    rest[d] -= (layer & allowed).bit_count()
                for d, layer in enumerate(_layers(g.bits, s, allowed)):
                    rest[d] += layer.bit_count()
        except DisconnectedGraphError:
            continue  # g - v is disconnected: v is a cut vertex
        # Every two neighbours of v are within 2 in g - v exactly when no
        # distance changes (see the module docstring).
        rest = [c // 2 for c in rest]
        out[v] = _deletion_bound(counts, vcounts, rest, not changed[v])
    return out


def _sole_parents(bits: tuple[int, ...], layers: tuple[int, ...]) -> int:
    # The mask of the vertices that are the only neighbour one layer closer
    # of some vertex, given one source's BFS layers.  Vertices at distance
    # 1 are skipped: their one parent is the source itself.
    hit = 0
    for closer, layer in zip(layers, layers[1:]):
        for t in _iter_bits(layer):
            parents = bits[t] & closer
            if not parents & (parents - 1):
                hit |= parents
    return hit


def _deletion_bound(
    counts: list[int], vcounts: list[int], rest: list[int], predicted: bool
) -> DeletionBoundResult:
    # counts are g's pair counts per distance, vcounts v's distance counts
    # and rest g - v's pair counts.  The bound's count at distance d is v's
    # count plus g - v's count.
    less_at, greater_at, _, _ = _crossings(zip(counts, map(add, vcounts, rest)))
    holds = greater_at is None
    return DeletionBoundResult(holds, holds and less_at is None, predicted)
