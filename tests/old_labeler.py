"""The labeler that colour refinement replaced, the refinement that keyed
on every cell and the search that branched on every column, kept as slow
oracles.

`canonical_order` below is the package's labeler before the equitable
partition was added, unchanged: the graph6 record maximal over all vertex
orderings.  It and the package's labeler are both canonical forms, so they
must split graphs into the same isomorphism classes, though the records
they choose differ.  `old_cells` must give the package's `_cells` ordered
cell list exactly, and `old_branch` the package's `_branch` ordering and
columns exactly.
"""

from __future__ import annotations

from wienerseq import Graph, relabel, write_graph6


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


def old_canonical_form(g: Graph) -> str:
    return write_graph6(relabel(g, canonical_order(g)))


def old_cells(bits: tuple[int, ...], n: int) -> list[int]:
    """The package's colour refinement before its key was cut to the cells
    the last round split, unchanged: every vertex keyed on its counts into
    every cell, each round."""
    cells = [(1 << n) - 1]
    while len(cells) < n:
        refined = []
        for cell in cells:
            if not cell & (cell - 1):
                refined.append(cell)
                continue
            parts: dict[int, int] = {}
            while cell:
                low = cell & -cell
                cell ^= low
                b = bits[low.bit_length() - 1]
                key = 0
                for c in cells:
                    key = key * n + (b & c).bit_count()
                parts[key] = parts.get(key, 0) | low
            refined.extend(parts[key] for key in sorted(parts))
        if len(refined) == len(cells):
            break
        cells = refined
    return cells


def _column(av: int, prefix: list[int]) -> int:
    # The adjacency of a vertex (mask av) toward the placed vertices, the
    # first placed as the most significant bit, so that columns of equal
    # length compare as the graph6 bits they stand for.
    col = 0
    for u in prefix:
        col = col << 1 | (av >> u & 1)
    return col


def old_branch(
    bits: tuple[int, ...], n: int, cells: list[int]
) -> tuple[list[int] | None, list[int] | None]:
    """The package's search before each node placed only the vertices of
    its largest column, unchanged: every column group, largest first."""
    # Branch and bound over the orderings that take the cells in rank order:
    # the one with the maximal columns, and those columns.
    best_cols: list[int] | None = None
    best_order: list[int] | None = None
    # cell_at[i] is the cell that position i of every allowed ordering takes.
    cell_at = [c for c in cells for _ in range(c.bit_count())]

    def dfs(order: list[int], placed: int, cols: list[int]) -> None:
        nonlocal best_cols, best_order
        i = len(order)
        if i == n:
            if best_cols is None or cols > best_cols:
                best_cols = cols[:]
                best_order = order[:]
            return
        groups: dict[int, list[int]] = {}
        rest = cell_at[i] & ~placed
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            rest ^= low
            groups.setdefault(_column(bits[v], order), []).append(v)
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
    return best_order, best_cols
