"""Two independent exact oracles for g, exact G at tiny sizes, verification.

The naive oracle enumerates full colourings edge by edge in colour-canonical
order (a new colour may only be the next unused one), pruning the moment a
placed edge closes an alternating rectangle.  It colours certificate slots,
the edge indices of `certio.parse` and `FullGridColoring` (vertical edges
column by column, then horizontal edges by column pair and row; see
`_naive_layout`), so a solution slices straight into a certificate.  The
vertical oracle never looks at a horizontal edge: it searches 1-stabilised
vertical colourings column by column, requiring every pairwise agreement
graph to stay r-colourable, and extends a hit to a full certificate.  Beyond
the shared data model the two have no common code, which is what makes their
agreement evidence.

Symmetry breaking in the vertical oracle: column 1 is pinned to the constant
colouring (always reachable by switching), columns 2..n are required to be
lexicographically non-decreasing (column order is irrelevant to goodness),
and colours appear in first-use order (colour names are irrelevant).  Every
discarded colouring has a kept representative, so the search stays exact.

Each call of the vertical oracle first builds a candidate table: every column
of [1, r]^C(m,2), in the lexicographic order the traversal wants, so the
columns a node may add next are the table indices from its last column's
index up.  Each node holds them as a lazy stream of the indices compatible
with every column it has chosen; a child filters the rest of its parent's
stream against its one new column only (see `_vertical_decision`).  A column
is packed into one int holding its per-colour rank masks side by side (colour
c at bits [(c-1)*C(m,2), c*C(m,2))); the agreement mask of two columns is then
one AND and an OR-fold of the r lanes, and the search reads the colouring memo
by that mask directly.  Only the colouring found is decoded into
`ColumnColoring`s.
The packed form stays private to this module: a `ColumnColoring` with its
cached `color_masks` costs about 600 B, the table about 48 B per column (50 MB
at the MAX_COLUMN_SPACE edge of 2^20 columns).

The vertical oracle's unit of work, its node, is one candidate tested
against one new column.  Its node budget holds per colour count: each
`_vertical_decision` call checks it before every test, so the budget bounds
both the compatibility tests and the colouring solves of that call.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import chain, combinations, tee
from math import comb
from pathlib import Path
from time import perf_counter

from . import certio
from .coloring import (
    _UNSEEN,
    GoodnessReport,
    cached_chromatic_at_most,
    extend_to_full,
    is_good,
    witness_table,
)
from .core import (
    AgreementGraph,
    ColumnColoring,
    FullGridColoring,
    Rectangle,
    VerticalColoring,
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
# r = 1 passes the column-space guard at any m, so rows need a bound of their own.
MAX_VERTICAL_ROWS = 64
DEFAULT_NODE_BUDGET = 10_000_000


@dataclass(frozen=True)
class SearchStats:
    """Work and wall time of one search.

    `nodes` counts the colours tried on an edge in the naive oracle and the
    candidates tested in the vertical one, summed over every colour count.
    """

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


def _naive_layout(m: int, n: int) -> tuple[list[int], list[list[tuple[int, int, int]]]]:
    """Search order and rectangle-completion table of the naive enumeration, by slot.

    Slots are certificate indices: the vertical edge of rank k in column j is
    slot (j - 1) * C(m,2) + k, the horizontal edge of row a between columns
    i < j is slot n * C(m,2) + pair_rank(i, j, n) * m + (a - 1).  The order
    groups edges by column: the vertical edges of column j, then the
    horizontal edges between i and j for every i < j.  A rectangle on rows
    (a, b) and columns (i, j) is then completed exactly when the horizontal
    edge of row b between i and j is placed, so that slot carries the
    (vertical, vertical, horizontal) slots it may close a rectangle with.
    """
    pairs = comb(m, 2)
    h_base = [n * pairs + rank * m for rank in range(comb(n, 2))]
    order: list[int] = []
    for j in range(1, n + 1):
        order.extend(range((j - 1) * pairs, j * pairs))
        for i in range(1, j):
            start = h_base[pair_rank(i, j, n)]
            order.extend(range(start, start + m))
    completions: list[list[tuple[int, int, int]]] = [[] for _ in order]
    for (i, j), start in zip(combinations(range(1, n + 1), 2), h_base):
        for rank, (a, b) in enumerate(row_pairs(m)):
            completions[start + b - 1].append(
                ((i - 1) * pairs + rank, (j - 1) * pairs + rank, start + a - 1)
            )
    return order, completions


def _naive_decision(
    order: list[int], completions: list[list[tuple[int, int, int]]], r: int, nodes: list[int]
) -> list[int] | None:
    """First rectangle-free colouring of the slots, placed in `order`, or None."""
    colors = [0] * len(order)

    def place(t: int, used: int) -> bool:
        if t == len(order):
            return True
        slot = order[t]
        for c in range(1, min(used + 1, r) + 1):
            nodes[0] += 1
            colors[slot] = c
            for v1, v2, h1 in completions[slot]:
                if colors[v1] == colors[v2] and colors[h1] == c:
                    break
            else:
                if place(t + 1, max(used, c)):
                    return True
        colors[slot] = 0
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
    order, completions = _naive_layout(m, n)
    pairs = comb(m, 2)
    nodes = [0]
    for r in range(1, r_cap + 1):
        solution = _naive_decision(order, completions, r, nodes)
        if solution is None:
            continue
        vertical = VerticalColoring.from_columns(
            m, n, r, [solution[j * pairs : (j + 1) * pairs] for j in range(n)]
        )
        certificate = FullGridColoring(vertical, tuple(solution[n * pairs :]))
        return SearchResult(r, certificate, SearchStats(nodes[0], perf_counter() - start))
    return SearchResult(None, None, SearchStats(nodes[0], perf_counter() - start))


# ---------------------------------------------------------------------------
# Vertical oracle: 1-stabilised column search over agreement graphs.
# ---------------------------------------------------------------------------


def _candidate_table(pair_count: int, r: int) -> tuple[list[int], array, array]:
    """Every column of [1, r]^pair_count in lexicographic order, as three sequences.

    Entry k is the column whose colours are the base-r digits of k plus one,
    the order `itertools.product(range(1, r + 1), repeat=pair_count)` gives.
    `packed[k]` holds its rank mask of colour c at bits
    [(c - 1) * pair_count, c * pair_count); `need[k]` is the fewest colours
    already in use for which its colours come in first-use order; `top[k]` is
    its largest colour.  Built one position at a time, extending every prefix
    by each colour in turn.
    """
    packed, need, top = [0], [0], [0]
    colours = range(1, r + 1)
    for rank in range(pair_count):
        bits = [1 << ((c - 1) * pair_count + rank) for c in colours]
        packed = [word | bit for word in packed for bit in bits]
        need = [
            max(u, c - 1) if c > t + 1 else u
            for u, t in zip(need, top)
            for c in colours
        ]
        top = [max(t, c) for t in top for c in colours]
    return packed, array("I", need), array("I", top)


def _decode_column(m: int, r: int, index: int) -> ColumnColoring:
    """The column at `index` of the candidate table."""
    colors = []
    for _ in range(comb(m, 2)):
        index, digit = divmod(index, r)
        colors.append(digit + 1)
    return ColumnColoring(m, tuple(reversed(colors)))


def _vertical_decision(
    m: int, n: int, r: int, budget: int
) -> tuple[VerticalColoring | None, int]:
    """First good 1-stabilised colouring in canonical order, or None.

    A node at depth d has chosen columns c_1 <= ... <= c_d (table indices)
    and tries each index k >= c_d as column d + 1.  Its candidate stream holds
    the indices k >= c_d compatible with all d chosen columns, in order; a
    child that picks k narrows the rest of that stream, from k on, against
    its one new column.  So every candidate is tested once against each new
    column, never again against the columns its ancestors tested it with.
    The streams are lazy: an index is tested only once some node reads that
    far.  A stream is read through `tee` copies of one buffer, by its node
    and by each child that narrows it, so what one child pulled is not
    tested again for its later siblings.  Laziness matters when a colouring
    turns up early: g(6,2) solves 1,025 masks, where narrowing each child's
    whole stream on entry would solve 32,769.

    A stream keeps the indices whose colours break first-use order, since a
    deeper column may use more colours, but no child is entered at one.

    Returns the colouring and the node count: one node per candidate tested,
    that is per index `compatible_from` reads, whatever its outcome.  The
    budget is checked before each test, so a call that raises TooLargeError
    has tested, and solved, at most `budget` candidates.
    """
    pair_count = comb(m, 2)
    packed, need, top = _candidate_table(pair_count, r)
    lane = (1 << pair_count) - 1
    shifts = [c * pair_count for c in range(1, r)]
    witnesses = witness_table(m, r)

    def compatible_from(k: int, rest: Iterator[int]) -> Iterator[int]:
        """k, then the indices of `rest`, kept when compatible with column k."""
        nonlocal nodes
        word = packed[k]
        for j in chain((k,), rest):
            nodes += 1
            if nodes > budget:
                raise TooLargeError(f"search exceeded the node budget ({budget}) at r={r}")
            both = word & packed[j]
            mask = both
            for shift in shifts:
                mask |= both >> shift
            mask &= lane
            witness = witnesses.get(mask, _UNSEEN)
            if witness is _UNSEEN:
                witness = cached_chromatic_at_most(AgreementGraph(m, mask), r)
            if witness is not None:
                yield j

    def narrow(k: int, rest: Iterator[int]) -> Iterator[int]:
        """The shareable stream of a node whose newest column is k."""
        return tee(compatible_from(k, rest), 1)[0]

    def explore(cols: list[int], used: int, stream: Iterator[int]) -> list[int] | None:
        if len(cols) == n:
            return cols
        for k in stream:
            if need[k] <= used:
                child = narrow(k, stream.__copy__())
                result = explore(cols + [k], max(used, top[k]), child)
                if result is not None:
                    return result
        return None

    # Column 1 is the constant colouring: entry 0, one colour in use.
    nodes = 0
    result = explore([0], 1, narrow(0, iter(range(1, len(packed)))))
    if result is None:
        return None, nodes
    columns = tuple(_decode_column(m, r, index) for index in result)
    return VerticalColoring(m, n, r, columns), nodes


def g_exact_vertical(
    m: int,
    n: int,
    r_cap: int | None = None,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> SearchResult:
    """Exact minimum colour count via the 1-stabilised vertical search.

    Agrees with `g_exact_naive` wherever both run; the certificate is the
    extension of the found vertical colouring.  Raises TooLargeError beyond
    the row, column or per-column candidate-space limits, or when one colour
    count would test more than `node_budget` candidates.
    """
    if m < 1 or n < 1:
        raise ValueError("grid dimensions must be positive")
    if r_cap is None:
        r_cap = min(m, n)
    if r_cap < 1:
        raise ValueError("r_cap must be at least 1")
    if n > MAX_VERTICAL_COLUMNS:
        raise TooLargeError(f"n={n} exceeds the column limit ({MAX_VERTICAL_COLUMNS})")
    if m > MAX_VERTICAL_ROWS:
        raise TooLargeError(f"m={m} exceeds the row limit ({MAX_VERTICAL_ROWS})")

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
