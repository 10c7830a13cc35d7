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

from .core import (
    AgreementGraph,
    FullGridColoring,
    RowPartition,
    VerticalColoring,
    agreement_graph,
    iter_bits,
)
from .errors import NotGoodError

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


def _greedy_clique(adj: list[int]) -> list[int]:
    """Grow a clique greedily by degree (ties to the lowest vertex index)."""
    m = len(adj)
    if m == 0:
        return []
    deg = [a.bit_count() for a in adj]
    v0 = max(range(m), key=deg.__getitem__)
    clique = [v0]
    common = adj[v0]
    while common:
        u = max(iter_bits(common), key=deg.__getitem__)
        clique.append(u)
        common &= adj[u]
    return clique


def chromatic_at_most(graph: AgreementGraph, r: int) -> RowPartition | None:
    """Partition the rows of `graph` into at most r independent classes, or None.

    Backtracking in DSATUR order (most saturated uncoloured vertex first,
    ties to the lowest index), seeded with a greedily grown clique that is
    pre-assigned distinct colours.  A vertex may only open colour t+1 once
    colours 1..t are in use, which kills colour-permutation symmetry and
    makes the witness deterministic for a fixed input.
    """
    if r < 1:
        raise ValueError("r must be at least 1")
    m = graph.m
    adj = graph.vertex_adjacency()

    clique = _greedy_clique(adj)
    if len(clique) > r:
        return None

    colors = [0] * m
    nbr_colors = [0] * m  # colours already present among each vertex's neighbours
    for idx, v in enumerate(clique):
        colors[v] = idx + 1
        bit = 1 << idx
        for u in iter_bits(adj[v]):
            nbr_colors[u] |= bit

    def solve(colored: int, max_used: int) -> bool:
        if colored == m:
            return True
        v = -1
        best_sat = -1
        for u in range(m):
            if colors[u] == 0:
                sat = nbr_colors[u].bit_count()
                if sat > best_sat:
                    v, best_sat = u, sat
        forbidden = nbr_colors[v]
        for c in range(1, min(max_used + 1, r) + 1):
            bit = 1 << (c - 1)
            if forbidden & bit:
                continue
            colors[v] = c
            changed = []
            for u in iter_bits(adj[v]):
                if colors[u] == 0 and not nbr_colors[u] & bit:
                    nbr_colors[u] |= bit
                    changed.append(u)
            if solve(colored + 1, max(max_used, c)):
                return True
            colors[v] = 0
            for u in changed:
                nbr_colors[u] ^= bit
        return False

    if not solve(len(clique), len(clique)):
        return None
    groups: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        groups.setdefault(c, []).append(v + 1)
    return RowPartition.from_classes(groups.values())


_witness_cache: dict[tuple[int, int], dict[int, RowPartition | None]] = {}


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
    try:
        return table[graph.mask]
    except KeyError:
        pass
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
    rectangles by construction.
    """
    horizontal: list[int] = []
    for i, j in combinations(range(1, chi.n + 1), 2):
        witness = cached_chromatic_at_most(agreement_graph(chi, i, j), chi.r)
        if witness is None:
            raise NotGoodError((i, j))
        horizontal.extend(witness.labels)
    return FullGridColoring(chi, tuple(horizontal))
