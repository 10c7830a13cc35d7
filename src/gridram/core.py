"""Data model for edge-colourings of grid graphs.

The grid graph on [m] x [n] is n vertical copies of K_m (one per column)
glued to m horizontal copies of K_n (one per row).  A vertical colouring
assigns a complete edge-colouring of K_m to every column; a full colouring
additionally colours every horizontal edge.  A rectangle spans two rows and
two columns, and is *alternating* when its two vertical edges share a colour
and its two horizontal edges share a colour.

Row pairs of a column are stored densely, indexed by :func:`pair_rank`, and
edge sets over row pairs (the agreement graphs) are plain integers used as
bitmasks, so comparing two columns costs a handful of word operations.  Rows,
columns and colours are 1-based throughout the public interface.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations, repeat
from math import comb
from typing import Iterable, Sequence

# bytes.translate table taking the 0/1 bytes of a membership test to ASCII digits.
_ASCII_BITS = bytes.maketrans(b"\x00\x01", b"01")

__all__ = [
    "pair_rank",
    "row_pairs",
    "ColumnColoring",
    "VerticalColoring",
    "FullGridColoring",
    "Rectangle",
    "AgreementGraph",
    "RowPartition",
    "agreement_mask",
    "agreement_graph",
    "is_alternating",
    "enumerate_alternating_rectangles",
]


def pair_rank(a: int, b: int, m: int) -> int:
    """Dense index of the unordered pair {a, b} among all pairs of [m].

    Ranks follow lexicographic (a, b) order: (1,2), (1,3), ..., (1,m),
    (2,3), ... and run from 0 to C(m,2) - 1.
    """
    if not 1 <= a < b <= m:
        raise ValueError(f"need 1 <= a < b <= m, got a={a}, b={b}, m={m}")
    return (a - 1) * m - a * (a - 1) // 2 + (b - a - 1)


@lru_cache(maxsize=None)
def row_pairs(m: int) -> tuple[tuple[int, int], ...]:
    """All unordered pairs of [m], in rank order."""
    return tuple(combinations(range(1, m + 1), 2))


def _mask_pairs(m: int, mask: int) -> list[tuple[int, int]]:
    """The row pairs set in a pair-rank mask, in rank order, as `row_pairs(m)` tuples.

    The pairs (a, b) with b > a hold the contiguous ranks pair_rank(a, a + 1, m)
    onwards, so the mask is walked one row run of m - a bits at a time; no
    step touches the whole mask, which would make a long walk quadratic.
    """
    pairs = row_pairs(m)
    found = []
    start = 0
    for width in range(m - 1, 0, -1):
        if not mask:
            break
        run = mask & ((1 << width) - 1)  # bit k: the pair of rank start + k
        mask >>= width
        while run:
            low = run & -run
            found.append(pairs[start + low.bit_length() - 1])
            run ^= low
        start += width
    return found


@dataclass(frozen=True)
class ColumnColoring:
    """A complete edge-colouring of K_m: one colour per row pair, in rank order."""

    m: int
    colors: tuple[int, ...]

    def __post_init__(self) -> None:
        expected = comb(self.m, 2)
        if len(self.colors) != expected:
            raise ValueError(
                f"expected {expected} colours for m={self.m}, got {len(self.colors)}"
            )
        if self.colors and min(self.colors) < 1:
            raise ValueError("colours are 1-based; found a value below 1")

    def color(self, a: int, b: int) -> int:
        return self.colors[pair_rank(a, b, self.m)]

    @cached_property
    def color_masks(self) -> dict[int, int]:
        """Bitmask of pair ranks per colour, keyed in first-use order.

        The agreement mask of two columns is the OR over colours of the AND
        of their per-colour masks; this is the innermost comparison of every
        search, so it stays word-parallel.  Each mask is read in one step
        from a string of its bits, highest rank first, so building it costs
        time linear in C(m,2) rather than one big-int OR per rank.
        """
        masks = dict.fromkeys(self.colors, 0)
        descending = self.colors[::-1]
        for c in masks:
            masks[c] = int(bytes(map(c.__eq__, descending)).translate(_ASCII_BITS), 2)
        return masks


@dataclass(frozen=True)
class VerticalColoring:
    """One K_m edge-colouring per column of an m x n grid, all using colours from [1, r]."""

    m: int
    n: int
    r: int
    columns: tuple[ColumnColoring, ...]

    def __post_init__(self) -> None:
        if self.m < 1 or self.n < 1:
            raise ValueError(f"grid dimensions must be positive, got {self.m}x{self.n}")
        if self.r < 1:
            raise ValueError("colour count r must be at least 1")
        if len(self.columns) != self.n:
            raise ValueError(f"expected {self.n} columns, got {len(self.columns)}")
        for pos, col in enumerate(self.columns, start=1):
            if col.m != self.m:
                raise ValueError(f"column {pos} has m={col.m}, expected {self.m}")
            if col.colors and max(col.colors) > self.r:
                raise ValueError(f"column {pos} uses a colour above r={self.r}")

    def column(self, i: int) -> ColumnColoring:
        """1-based column access."""
        if not 1 <= i <= self.n:
            raise ValueError(f"column {i} out of range 1..{self.n}")
        return self.columns[i - 1]

    def is_stabilised(self, k: int) -> bool:
        """True when columns 1..k are the constant colourings c_1..c_k."""
        if not 0 <= k <= self.n:
            return False
        return all(
            col.colors.count(i) == len(col.colors)
            for i, col in enumerate(self.columns[:k], start=1)
        )

    @classmethod
    def from_columns(
        cls, m: int, n: int, r: int, column_colors: Sequence[Sequence[int]]
    ) -> "VerticalColoring":
        """Build from per-column colour sequences in pair-rank order."""
        cols = tuple(ColumnColoring(m, tuple(colors)) for colors in column_colors)
        return cls(m, n, r, cols)


@dataclass(frozen=True)
class FullGridColoring:
    """A vertical colouring plus a colour for every horizontal edge.

    The horizontal edge of row a between columns {i, j} is stored at index
    ``pair_rank(i, j, n) * m + (a - 1)``.
    """

    vertical: VerticalColoring
    horizontal: tuple[int, ...]

    def __post_init__(self) -> None:
        expected = self.m * comb(self.n, 2)
        if len(self.horizontal) != expected:
            raise ValueError(
                f"expected {expected} horizontal colours, got {len(self.horizontal)}"
            )
        if self.horizontal and not 1 <= min(self.horizontal) <= max(self.horizontal) <= self.r:
            raise ValueError(f"horizontal colour outside [1, {self.r}]")

    @property
    def m(self) -> int:
        return self.vertical.m

    @property
    def n(self) -> int:
        return self.vertical.n

    @property
    def r(self) -> int:
        return self.vertical.r

    def horizontal_color(self, a: int, i: int, j: int) -> int:
        if not 1 <= a <= self.m:
            raise ValueError(f"row {a} out of range 1..{self.m}")
        return self.horizontal[pair_rank(i, j, self.n) * self.m + (a - 1)]


@dataclass(frozen=True, order=True)
class Rectangle:
    """Four grid vertices spanning rows (a, b) and columns (i, j)."""

    rows: tuple[int, int]
    cols: tuple[int, int]

    def __post_init__(self) -> None:
        a, b = self.rows
        i, j = self.cols
        if not (1 <= a < b and 1 <= i < j):
            raise ValueError(f"rectangle needs 1 <= a < b and 1 <= i < j, got {self}")


@dataclass(frozen=True)
class AgreementGraph:
    """Graph on the rows [m] whose edges mark colour agreements of a column pair.

    Edges are held as a single bitmask over pair ranks.  The pairs (a, b)
    with b > a hold the contiguous ranks pair_rank(a, a + 1, m) onwards, so
    one shift and mask per row gives that row's run of later neighbours, a
    small int of m - a bits; per-edge work only ever touches such a run,
    never the whole mask.
    """

    m: int
    mask: int

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError("vertex count must be positive")
        if not 0 <= self.mask < (1 << comb(self.m, 2)):
            raise ValueError("edge mask out of range for the vertex count")

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(_mask_pairs(self.m, self.mask))

    def edge_count(self) -> int:
        return self.mask.bit_count()

    def has_edge(self, a: int, b: int) -> bool:
        return bool(self.mask >> pair_rank(a, b, self.m) & 1)

    def vertex_adjacency(self) -> list[int]:
        """Per-vertex neighbour bitmasks over 0-based vertices."""
        m, mask = self.m, self.mask
        adj = [0] * m
        for a in range(1, m):
            if not mask:
                break
            width = m - a
            run = mask & ((1 << width) - 1)  # bit k: the edge (a, a + 1 + k)
            mask >>= width
            if run:
                adj[a - 1] |= run << a
                bit = 1 << (a - 1)
                while run:
                    low = run & -run
                    adj[a + low.bit_length() - 1] |= bit
                    run ^= low
        return adj


@dataclass(frozen=True)
class RowPartition:
    """Partition of a row set [m].

    Classes are sorted tuples, listed in order of their smallest element, so
    equal partitions compare equal and every consumer sees one canonical form.
    """

    classes: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for cls_ in self.classes:
            if not cls_:
                raise ValueError("partition classes must be nonempty")
            if list(cls_) != sorted(cls_):
                raise ValueError("class members must be sorted ascending")
            if seen & set(cls_):
                raise ValueError("partition classes must be disjoint")
            seen.update(cls_)
        if not seen:
            raise ValueError("partition must cover a nonempty ground set")
        if seen != set(range(1, max(seen) + 1)):
            raise ValueError("partition must cover exactly [m]")
        mins = [cls_[0] for cls_ in self.classes]
        if mins != sorted(mins):
            raise ValueError("classes must be ordered by smallest element")

    @property
    def m(self) -> int:
        return max(cls_[-1] for cls_ in self.classes)

    @cached_property
    def labels(self) -> tuple[int, ...]:
        """1-based index of each row's class, row a at position a - 1."""
        labels = [0] * self.m
        for idx, cls_ in enumerate(self.classes, start=1):
            for row in cls_:
                labels[row - 1] = idx
        return tuple(labels)

    @classmethod
    def from_classes(cls, groups: Iterable[Iterable[int]]) -> "RowPartition":
        """Normalise arbitrary groupings into the canonical form."""
        norm = sorted((tuple(sorted(g)) for g in groups if g), key=lambda c: c[0])
        return cls(tuple(norm))


def agreement_mask(col_a: ColumnColoring, col_b: ColumnColoring) -> int:
    """Bitmask of the row-pair ranks where two columns agree."""
    if col_a.m != col_b.m:
        raise ValueError("columns live on different row counts")
    masks_b = col_b.color_masks
    out = 0
    for c, mask_a in col_a.color_masks.items():
        mask_b = masks_b.get(c)
        if mask_b is not None:
            out |= mask_a & mask_b
    return out


def agreement_graph(chi: VerticalColoring, i: int, j: int) -> AgreementGraph:
    """Agreement graph of columns i < j: the row pairs coloured identically."""
    if not 1 <= i < j <= chi.n:
        raise ValueError(f"need 1 <= i < j <= n, got i={i}, j={j}, n={chi.n}")
    return AgreementGraph(chi.m, agreement_mask(chi.column(i), chi.column(j)))


def is_alternating(full: FullGridColoring, rect: Rectangle) -> bool:
    """True when both parallel edge pairs of the rectangle are monochromatic."""
    a, b = rect.rows
    i, j = rect.cols
    if b > full.m or j > full.n:
        raise ValueError(f"rectangle {rect} exceeds the {full.m}x{full.n} grid")
    if full.vertical.column(i).color(a, b) != full.vertical.column(j).color(a, b):
        return False
    return full.horizontal_color(a, i, j) == full.horizontal_color(b, i, j)


def enumerate_alternating_rectangles(full: FullGridColoring) -> list[Rectangle]:
    """All alternating rectangles, sorted lexicographically by (a, b, i, j).

    Word-parallel per column pair, over the row-run pair-rank layout of
    `AgreementGraph`: the mask of row pairs whose two horizontal edges share a
    colour takes, for each row a, that row's later same-colour rows shifted
    into the run that starts at pair_rank(a, a + 1, m).  ANDed with the
    vertical agreement mask it marks exactly the alternating rectangles, and
    only that result is walked, by `_mask_pairs`.  The interpreter steps are
    linear in the certificate plus the rectangles listed.  Hits are collected
    as plain ((a, b), (i, j)) tuples, sharing the row pairs of `row_pairs` and
    one column pair per pair scanned, and sorted before any `Rectangle` is
    built.
    """
    m, n = full.m, full.n
    columns, horizontal = full.vertical.columns, full.horizontal
    # run_start[a - 1] == pair_rank(a, a + 1, m)
    run_start = [(a - 1) * m - a * (a - 1) // 2 for a in range(1, m)]
    found: list[tuple[tuple[int, int], tuple[int, int]]] = []
    base = -m
    for cols in combinations(range(1, n + 1), 2):
        i, j = cols
        base += m  # pairs come in rank order, so this is pair_rank(i, j, n) * m
        vmask = agreement_mask(columns[i - 1], columns[j - 1])
        if not vmask:
            continue
        horiz = horizontal[base : base + m]
        rows_of: dict[int, int] = {}  # colour -> rows using it, bit a - 1 for row a
        for bit, c in enumerate(horiz):
            rows_of[c] = rows_of.get(c, 0) | 1 << bit
        hmask = 0
        for a, start in enumerate(run_start, start=1):
            later = rows_of[horiz[a - 1]] >> a  # bit k: row a + 1 + k
            if later:
                hmask |= later << start
        mask = vmask & hmask
        if mask:
            found.extend(zip(_mask_pairs(m, mask), repeat(cols)))
    found.sort()
    return [Rectangle(rows, cols) for rows, cols in found]
