"""Exact bounded colouring of agreement graphs, goodness, and full extension.

A vertical colouring extends to a full colouring without alternating
rectangles exactly when every column pair's agreement graph admits a proper
colouring with at most r classes.  The extension colours the horizontal edge
of row a between columns i and j by the index of a's class in that pair's
witness: two rows sharing a horizontal colour lie in one class, hence never
agree vertically, so no rectangle can close.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from .core import (
    AgreementGraph,
    FullGridColoring,
    RowPartition,
    VerticalColoring,
    agreement_graph,
)
from .errors import NotGoodError, TooLargeError

__all__ = [
    "GoodnessReport",
    "chromatic_at_most",
    "cached_chromatic_at_most",
    "witness_table",
    "is_good",
    "extend_to_full",
]


@dataclass(frozen=True)
class GoodnessReport:
    """Outcome of checking every agreement graph of a vertical colouring."""

    good: bool
    failing_pair: tuple[int, int] | None


def chromatic_at_most(graph: AgreementGraph, r: int) -> RowPartition | None:
    """Partition the rows of `graph` into at most r independent classes, or None.

    A clique is grown greedily by degree (ties to the lowest vertex index)
    and its vertices take colours 1, 2, ... in turn; the answer is None as
    soon as it has r + 1 vertices.  Backtracking then goes in DSATUR order:
    the uncoloured vertices sit in one bitmask per saturation level (the
    number of distinct colours among coloured neighbours), so the pick, the
    most saturated vertex with ties to the lowest index, is the lowest bit
    of the highest non-empty level.  Giving a vertex colour c moves each
    uncoloured neighbour with no neighbour yet coloured c up one level;
    undoing moves it back.  A vertex may only open colour t+1 once colours
    1..t are in use, which kills colour-permutation symmetry and makes the
    witness deterministic for a fixed input.
    """
    if r < 1:
        raise ValueError("r must be at least 1")
    m = graph.m
    adj = graph.vertex_adjacency()

    deg = list(map(int.bit_count, adj))
    v = deg.index(max(deg))
    clique = [v]
    common = adj[v]
    while common:
        if len(clique) == r:
            return None
        best = -1
        rest = common
        while rest:
            low = rest & -rest
            u = low.bit_length() - 1
            if deg[u] > best:
                best, v = deg[u], u
            rest ^= low
        clique.append(v)
        common &= adj[v]

    # m rows never use more than m colours nor reach saturation m, so a
    # header's r beyond m changes no answer and must not size the levels
    r = min(r, m)
    colors = [0] * m
    near = [0] * (r + 1)  # near[c]: vertices with a neighbour coloured c
    levels = [0] * (r + 1)  # levels[s]: uncoloured vertices of saturation s
    uncolored = (1 << m) - 1
    for c, v in enumerate(clique, start=1):
        colors[v] = c
        near[c] = adj[v]
        uncolored ^= 1 << v
    levels[0] = uncolored
    for c in range(1, len(clique) + 1):
        _raise_level(levels, near[c] & uncolored)

    def solve(uncolored: int, used: int) -> bool:
        if not uncolored:
            return True
        s = r
        while not levels[s]:
            s -= 1
        level = levels[s]
        bit = level & -level
        v = bit.bit_length() - 1
        levels[s] = level ^ bit
        rest = uncolored ^ bit
        nbrs = adj[v]
        waiting = nbrs & rest
        for c in range(1, min(used + 1, r) + 1):
            seen = near[c]
            if seen & bit:
                continue
            colors[v] = c
            moved = waiting & ~seen
            near[c] = seen | nbrs
            _raise_level(levels, moved)
            if solve(rest, c if c > used else used):
                return True
            _lower_level(levels, moved)
            near[c] = seen
        levels[s] |= bit
        return False

    if not solve(uncolored, len(clique)):
        return None
    groups: dict[int, list[int]] = {}
    for row, c in enumerate(colors, start=1):
        groups.setdefault(c, []).append(row)
    # rows are visited in order, so the groups come out in first-row order
    return RowPartition(tuple(map(tuple, groups.values())))


def _raise_level(levels: list[int], moved: int) -> None:
    """Move each vertex of `moved` up one saturation level."""
    s = len(levels) - 2
    while moved:
        here = levels[s] & moved
        if here:
            levels[s] ^= here
            levels[s + 1] |= here
            moved ^= here
        s -= 1


def _lower_level(levels: list[int], moved: int) -> None:
    """Undo `_raise_level`: move each vertex of `moved` down one level."""
    s = 1
    while moved:
        here = levels[s] & moved
        if here:
            levels[s] ^= here
            levels[s - 1] |= here
            moved ^= here
        s += 1


# The most horizontal edges extend_to_full writes; `gridram extend` of a
# one-row certificate of this size peaks near 190 MB.
MAX_EXTENSION_EDGES = 1 << 20

_witness_cache: dict[tuple[int, int], dict[int, RowPartition | None]] = {}
_UNSEEN = object()  # memo miss marker: None is a stored answer


def witness_table(m: int, r: int) -> dict[int, RowPartition | None]:
    """The memo of `chromatic_at_most` results for m rows and r colours, by edge mask.

    Only the most recently requested (m, r) table is kept: asking for another
    pair drops the others.  No search comes back to an earlier pair (G_exact
    goes size by size, each size trying r = 1, 2, ...), so this bounds the
    memo without costing any search a solve.
    """
    table = _witness_cache.get((m, r))
    if table is None:
        _witness_cache.clear()
        table = _witness_cache[(m, r)] = {}
    return table


def cached_chromatic_at_most(graph: AgreementGraph, r: int) -> RowPartition | None:
    """`chromatic_at_most` behind the memo of `witness_table`.

    Searches meet the same agreement graphs over and over, so each mask is
    solved once per table.
    """
    table = witness_table(graph.m, r)
    witness = table.get(graph.mask, _UNSEEN)
    if witness is _UNSEEN:
        witness = table[graph.mask] = chromatic_at_most(graph, r)
    return witness


def is_good(chi: VerticalColoring) -> GoodnessReport:
    """Check that every column pair's agreement graph is r-colourable.

    Pairs are scanned in lexicographic order and the first failure is
    reported.  With one row there is no row pair, so every agreement graph
    is edgeless and the colouring is good without a scan.
    """
    if chi.m > 1:
        for i, j in combinations(range(1, chi.n + 1), 2):
            if cached_chromatic_at_most(agreement_graph(chi, i, j), chi.r) is None:
                return GoodnessReport(False, (i, j))
    return GoodnessReport(True, None)


def extend_to_full(chi: VerticalColoring) -> FullGridColoring:
    """Colour all horizontal edges so that no rectangle alternates.

    Row a's edge between columns i and j takes the label of a's class in the
    pair's witness partition.  Raises NotGoodError at the first column pair,
    in lexicographic order, whose agreement graph is not r-colourable (the
    pair `is_good` reports); otherwise the result has zero alternating
    rectangles by construction.  With one row every agreement graph is
    edgeless and every label is 1, so no pair is looked at.  More than
    MAX_EXTENSION_EDGES horizontal edges raise TooLargeError before any work.
    """
    edges = chi.m * comb(chi.n, 2)
    if edges > MAX_EXTENSION_EDGES:
        raise TooLargeError(
            f"{edges} horizontal edges exceed the extension limit ({MAX_EXTENSION_EDGES})"
        )
    if chi.m == 1:
        return FullGridColoring(chi, (1,) * edges)
    horizontal: list[int] = []
    for i, j in combinations(range(1, chi.n + 1), 2):
        witness = cached_chromatic_at_most(agreement_graph(chi, i, j), chi.r)
        if witness is None:
            raise NotGoodError((i, j))
        horizontal.extend(witness.labels)
    return FullGridColoring(chi, tuple(horizontal))
