"""Two independent exact oracles for g, exact G at tiny sizes, verification.

The naive oracle enumerates full colourings edge by edge in colour-canonical
order (a new colour may only be the next unused one), pruning the moment a
placed edge closes an alternating rectangle.  The vertical oracle never looks
at a horizontal edge: it searches 1-stabilised vertical colourings column by
column, requiring every pairwise agreement graph to stay r-colourable, and
extends a hit to a full certificate.  Beyond the shared data model the two
have no common code, which is what makes their agreement evidence.

Symmetry breaking in the vertical oracle: column 1 is pinned to the constant
colouring (always reachable by switching), columns 2..n are required to be
lexicographically non-decreasing (column order is irrelevant to goodness),
and colours appear in first-use order (colour names are irrelevant).  Every
discarded colouring has a kept representative, so the search stays exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from pathlib import Path
from time import perf_counter
from typing import Iterator

from . import certio
from .coloring import GoodnessReport, cached_chromatic_at_most, extend_to_full, is_good
from .core import (
    AgreementGraph,
    ColumnColoring,
    FullGridColoring,
    GridDims,
    Rectangle,
    VerticalColoring,
    agreement_mask,
    enumerate_alternating_rectangles,
    pair_rank,
    row_pairs,
)
from .errors import TooLargeError

__all__ = [
    "SearchStats",
    "SearchResult",
    "Verdict",
    "MAX_NAIVE_EDGES",
    "g_exact_naive",
    "g_exact_vertical",
    "G_exact",
    "verify_text",
    "verify_certificate",
]

# (2, 5) has 25 edges and must stay inside the naive envelope.
MAX_NAIVE_EDGES = 26
MAX_COLUMN_SPACE = 1 << 20
MAX_VERTICAL_COLUMNS = 16
DEFAULT_NODE_BUDGET = 2_000_000


@dataclass(frozen=True)
class SearchStats:
    nodes: int
    seconds: float


@dataclass(frozen=True)
class SearchResult:
    """Exact minimum r (None when above the cap) plus certificate and stats."""

    value: int | None
    certificate: FullGridColoring | None
    stats: SearchStats


@dataclass(frozen=True)
class Verdict:
    """Verification outcome; `rectangles` for full inputs, `report` for vertical."""

    kind: str
    ok: bool
    rectangles: tuple[Rectangle, ...] = ()
    report: GoodnessReport | None = None


# ---------------------------------------------------------------------------
# Naive oracle: plain enumeration of full colourings with rectangle pruning.
# ---------------------------------------------------------------------------


def _naive_layout(m: int, n: int):
    """Edge order and rectangle-completion table for the naive enumeration.

    Edges are grouped by column: the vertical edges of column j, then the
    horizontal edges between i and j for every i < j.  A rectangle on rows
    (a, b) and columns (i, j) is then completed exactly when the horizontal
    edge of row b between i and j is placed, so each edge carries the list of
    (vertical, vertical, horizontal) indices it may close a rectangle with.
    """
    v_index: dict[tuple[int, int], int] = {}
    h_index: dict[tuple[int, int, int], int] = {}
    order: list[tuple] = []
    for j in range(1, n + 1):
        for rank in range(comb(m, 2)):
            v_index[(j, rank)] = len(order)
            order.append(("v", j, rank))
        for i in range(1, j):
            for a in range(1, m + 1):
                h_index[(i, j, a)] = len(order)
                order.append(("h", i, j, a))
    completions: list[list[tuple[int, int, int]]] = [[] for _ in order]
    for i, j in combinations(range(1, n + 1), 2):
        for a, b in row_pairs(m):
            rank = pair_rank(a, b, m)
            completions[h_index[(i, j, b)]].append(
                (v_index[(i, rank)], v_index[(j, rank)], h_index[(i, j, a)])
            )
    return order, completions, v_index, h_index


def _naive_decision(
    edge_count: int, completions: list[list[tuple[int, int, int]]], r: int, nodes: list[int]
) -> list[int] | None:
    """First rectangle-free colour assignment in canonical order, or None."""
    colors = [0] * edge_count

    def place(t: int, used: int) -> bool:
        if t == edge_count:
            return True
        for c in range(1, min(used + 1, r) + 1):
            nodes[0] += 1
            colors[t] = c
            for v1, v2, h1 in completions[t]:
                if colors[v1] == colors[v2] and colors[h1] == c:
                    break
            else:
                if place(t + 1, max(used, c)):
                    return True
        colors[t] = 0
        return False

    return list(colors) if place(0, 0) else None


def g_exact_naive(m: int, n: int, r_cap: int | None = None) -> SearchResult:
    """Exact minimum colour count by direct enumeration of full colourings.

    Tries r = 1, 2, ... up to r_cap (default min(m, n), which always
    suffices) and returns the first certificate found.  Guarded by the total
    edge count; raises TooLargeError beyond MAX_NAIVE_EDGES edges.
    """
    if m < 1 or n < 1:
        raise ValueError("grid dimensions must be positive")
    edge_count = m * comb(n, 2) + n * comb(m, 2)
    if edge_count > MAX_NAIVE_EDGES:
        raise TooLargeError(
            f"{edge_count} edges exceed the naive enumeration guard ({MAX_NAIVE_EDGES})"
        )
    if r_cap is None:
        r_cap = min(m, n)
    if r_cap < 1:
        raise ValueError("r_cap must be at least 1")

    start = perf_counter()
    order, completions, v_index, h_index = _naive_layout(m, n)
    nodes = [0]
    for r in range(1, r_cap + 1):
        solution = _naive_decision(len(order), completions, r, nodes)
        if solution is None:
            continue
        columns = tuple(
            ColumnColoring(
                m, tuple(solution[v_index[(j, rank)]] for rank in range(comb(m, 2)))
            )
            for j in range(1, n + 1)
        )
        horizontal = [0] * (m * comb(n, 2))
        for i, j in combinations(range(1, n + 1), 2):
            for a in range(1, m + 1):
                horizontal[pair_rank(i, j, n) * m + (a - 1)] = solution[h_index[(i, j, a)]]
        certificate = FullGridColoring(
            VerticalColoring(GridDims(m, n), r, columns), tuple(horizontal)
        )
        return SearchResult(r, certificate, SearchStats(nodes[0], perf_counter() - start))
    return SearchResult(None, None, SearchStats(nodes[0], perf_counter() - start))


# ---------------------------------------------------------------------------
# Vertical oracle: 1-stabilised column search over agreement graphs.
# ---------------------------------------------------------------------------


def _gen_columns(
    pair_count: int, r: int, lower: tuple[int, ...] | None, used0: int
) -> Iterator[tuple[tuple[int, ...], int]]:
    """Canonical column tuples that are lexicographically >= `lower`.

    Yields (colors, colours_used_after); entries respect first-use colour
    order given that `used0` colours are already in use.
    """
    if pair_count == 0:
        yield (), used0
        return
    entry = [0] * pair_count

    def rec(pos: int, used: int, tight: bool) -> Iterator[tuple[tuple[int, ...], int]]:
        if pos == pair_count:
            yield tuple(entry), used
            return
        low = lower[pos] if tight and lower is not None else 1
        for c in range(low, min(used + 1, r) + 1):
            entry[pos] = c
            yield from rec(pos + 1, max(used, c), tight and c == low)

    yield from rec(0, used0, lower is not None)


def _vertical_decision(
    m: int, n: int, r: int, budget: int
) -> tuple[VerticalColoring | None, int]:
    """First good 1-stabilised colouring in canonical order, or None.

    The budget applies per column-2 subtree; a tripped budget raises
    TooLargeError.
    """
    pair_count = comb(m, 2)
    col1 = ColumnColoring(m, (1,) * pair_count)
    if n == 1:
        return VerticalColoring(GridDims(m, n), r, (col1,)), 0

    def compatible(prev: ColumnColoring, cand: ColumnColoring) -> bool:
        graph = AgreementGraph(m, agreement_mask(prev, cand))
        return cached_chromatic_at_most(graph, r) is not None

    def explore(
        cols: list[ColumnColoring], used: int, nodes: list[int]
    ) -> list[ColumnColoring] | None:
        if len(cols) == n:
            return cols
        for colors, used_after in _gen_columns(pair_count, r, cols[-1].colors, used):
            nodes[0] += 1
            if nodes[0] > budget:
                raise TooLargeError(f"search exceeded the node budget ({budget}) at r={r}")
            cand = ColumnColoring(m, colors)
            if all(compatible(prev, cand) for prev in cols):
                result = explore(cols + [cand], used_after, nodes)
                if result is not None:
                    return result
        return None

    total_nodes = 0
    for colors, used_after in _gen_columns(pair_count, r, None, 1):
        total_nodes += 1
        cand = ColumnColoring(m, colors)
        if not compatible(col1, cand):
            continue
        nodes = [0]
        result = explore([col1, cand], used_after, nodes)
        total_nodes += nodes[0]
        if result is not None:
            return VerticalColoring(GridDims(m, n), r, tuple(result)), total_nodes
    return None, total_nodes


def g_exact_vertical(
    m: int,
    n: int,
    r_cap: int | None = None,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> SearchResult:
    """Exact minimum colour count via the 1-stabilised vertical search.

    Agrees with `g_exact_naive` wherever both run; the certificate is the
    extension of the found vertical colouring.  Raises TooLargeError when
    the per-column candidate space or the node budget is exceeded.
    """
    if m < 1 or n < 1:
        raise ValueError("grid dimensions must be positive")
    if r_cap is None:
        r_cap = min(m, n)
    if r_cap < 1:
        raise ValueError("r_cap must be at least 1")
    if n > MAX_VERTICAL_COLUMNS:
        raise TooLargeError(f"n={n} exceeds the column limit ({MAX_VERTICAL_COLUMNS})")

    start = perf_counter()
    total_nodes = 0
    for r in range(1, r_cap + 1):
        if r ** comb(m, 2) > MAX_COLUMN_SPACE:
            raise TooLargeError(
                f"column space {r}^C({m},2) exceeds the search envelope"
            )
        chi, nodes_used = _vertical_decision(m, n, r, node_budget)
        total_nodes += nodes_used
        if chi is not None:
            certificate = extend_to_full(chi)
            return SearchResult(
                r, certificate, SearchStats(total_nodes, perf_counter() - start)
            )
    return SearchResult(None, None, SearchStats(total_nodes, perf_counter() - start))


def G_exact(r: int, n_cap: int) -> int | None:
    """Smallest n <= n_cap where no r-colouring avoids alternating rectangles.

    Returns None when every grid up to the cap still admits one.  Only r <= 2
    is inside the exact envelope; larger r raises TooLargeError.
    """
    if r < 1:
        raise ValueError("r must be at least 1")
    if n_cap < 1:
        raise ValueError("n_cap must be at least 1")
    if r > 2:
        raise TooLargeError("exact G is only attempted for r <= 2")
    for size in range(1, n_cap + 1):
        result = g_exact_vertical(size, size, r_cap=r)
        if result.value is None:
            return size
    return None


# ---------------------------------------------------------------------------
# Certificate verification.
# ---------------------------------------------------------------------------


def verify_text(text: str) -> Verdict:
    """Parse and verify certificate text.

    Full certificates report their alternating rectangles (none means valid);
    vertical certificates report goodness.
    """
    obj = certio.parse(text)
    if isinstance(obj, FullGridColoring):
        rectangles = tuple(enumerate_alternating_rectangles(obj))
        return Verdict("full", not rectangles, rectangles=rectangles)
    report = is_good(obj)
    return Verdict("vertical", report.good, report=report)


def verify_certificate(path: str | Path) -> Verdict:
    """`verify_text` over the contents of a file."""
    return verify_text(Path(path).read_text(encoding="utf-8"))
