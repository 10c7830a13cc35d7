"""Line-oriented certificate format for grid colourings.

    gridram v1
    type vertical          (or: type full)
    m <int> n <int> r <int>
    v <col> <a> <b> <color>     one line per vertical edge, a < b
    h <row> <i> <j> <color>     full certificates only, i < j

Lines starting with '#' are comments; blank lines are ignored.  Every edge
must appear exactly once and every colour must lie in [1, r].  Emission is
canonical (no comments, fixed ordering), so parse followed by emit is
byte-stable.  Parse failures raise CertificateError with the offending line.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from pathlib import Path

from .core import (
    ColumnColoring,
    FullGridColoring,
    VerticalColoring,
    pair_rank,
    row_pairs,
)
from .errors import CertificateError, TooLargeError

__all__ = ["emit", "parse", "load", "save"]

_HEADER = "gridram v1"
# Columns a header may declare: three m = 1 lines declare n columns, one reference each.
MAX_COLUMNS = 1 << 20


def emit(obj: VerticalColoring | FullGridColoring) -> str:
    """Canonical text form; vertical edges column-major, horizontal edges row-major.

    The "a b " and "i j " fields are formatted once per call, and row a's
    horizontal colours are read as the slice ``horizontal[a - 1::m]`` (column
    pairs in rank order), so each edge line costs one string format with no
    per-edge lookup.  Lines are joined one column or row at a time, so no
    list of every line is ever held.
    """
    if isinstance(obj, FullGridColoring):
        vertical, full = obj.vertical, obj
    else:
        vertical, full = obj, None
    m, n, r = vertical.m, vertical.n, vertical.r
    kind = "full" if full is not None else "vertical"
    blocks = [f"{_HEADER}\ntype {kind}\nm {m} n {n} r {r}\n"]
    row_fields = [f"{a} {b} " for a, b in row_pairs(m)]
    for col, column in enumerate(vertical.columns, start=1):
        head = f"v {col} "
        blocks.append("".join([f"{head}{ab}{c}\n" for ab, c in zip(row_fields, column.colors)]))
    if full is not None:
        col_fields = [f"{i} {j} " for i, j in combinations(range(1, n + 1), 2)]
        for a in range(1, m + 1):
            head = f"h {a} "
            blocks.append(
                "".join(
                    [f"{head}{ij}{c}\n" for ij, c in zip(col_fields, full.horizontal[a - 1 :: m])]
                )
            )
    return "".join(blocks)


def parse(text: str) -> VerticalColoring | FullGridColoring:
    """Parse a certificate, enforcing exhaustiveness and colour ranges.

    One pass over the lines.  An edge line whose fields are canonical decimals
    in range and whose slot is empty is stored directly; every other line
    (blank, comment, padded oddly, non-canonical, out of range, duplicate)
    goes through the full checks below, in their fixed order, so it is
    accepted or rejected exactly as a line-by-line reading would.
    """
    lines = text.splitlines()
    last_line = len(lines) if lines else 1
    numbered = enumerate(lines, start=1)

    def next_significant(missing: str) -> tuple[int, str]:
        for no, raw in numbered:
            stripped = raw.strip()
            if stripped and not stripped.startswith("#"):
                return no, stripped
        raise CertificateError(last_line, missing)

    no, line = next_significant("empty certificate")
    if line != _HEADER:
        raise CertificateError(no, f"expected {_HEADER!r}, got {line!r}")

    no, line = next_significant("missing type line")
    if line not in ("type vertical", "type full"):
        raise CertificateError(no, f"expected 'type vertical' or 'type full', got {line!r}")
    kind = line.split()[1]

    no, line = next_significant("missing dimensions line")
    tokens = line.split()
    if len(tokens) != 6 or tokens[0] != "m" or tokens[2] != "n" or tokens[4] != "r":
        raise CertificateError(no, f"expected 'm <int> n <int> r <int>', got {line!r}")
    try:
        m, n, r = int(tokens[1]), int(tokens[3]), int(tokens[5])
    except ValueError:
        raise CertificateError(no, f"non-integer dimension in {line!r}") from None
    if m < 1 or n < 1 or r < 1:
        raise CertificateError(no, f"dimensions must be positive, got m={m} n={n} r={r}")
    if n > MAX_COLUMNS:
        raise TooLargeError(f"n={n} columns exceed the certificate limit ({MAX_COLUMNS})")

    # Colours by dense edge index: vertical (col - 1) * C(m,2) + pair_rank(a, b, m),
    # horizontal pair_rank(i, j, n) * m + (row - 1).  The slots are lists when
    # the lines left could fill them.  A dimensions line declaring more edges
    # than the text has lines is sure to fail and gets sparse slots, so memory
    # follows the lines read, never the declared n*C(m,2) + m*C(n,2).
    full = kind == "full"
    pair_count = comb(m, 2)
    v_count = n * pair_count
    h_count = m * comb(n, 2) if full else 0
    left = len(lines) - no
    vertical: list[int | None] | _SparseSlots
    horizontal: list[int | None] | _SparseSlots
    vertical = [None] * v_count if v_count <= left else _SparseSlots()
    horizontal = [None] * h_count if v_count + h_count <= left else _SparseSlots()

    # The fast path reads fields through a table of canonical decimals, sized
    # by the lines read; anything else maps to 0, which no range admits.  Pair
    # ranks come from per-row offsets: pair_rank(a, b, size) == off[a] + b.
    bound = min(max(m, n, r), len(lines))
    value = {str(x): x for x in range(bound + 1)}.get
    v_off = [(a - 1) * m - a * (a - 1) // 2 - a - 1 for a in range(min(m, bound) + 1)]
    h_off = [(a - 1) * n - a * (a - 1) // 2 - a - 1 for a in range(min(n, bound) + 1)]

    for no, raw in numbered:
        tokens = raw.split()
        if len(tokens) == 5:
            edge, first, a, b, color = tokens
            first, a, b, color = value(first, 0), value(a, 0), value(b, 0), value(color, 0)
            if edge == "v":
                if 1 <= color <= r and 1 <= first <= n and 1 <= a < b <= m:
                    index = (first - 1) * pair_count + v_off[a] + b
                    if vertical[index] is None:
                        vertical[index] = color
                        continue
            elif edge == "h" and full:
                if 1 <= color <= r and 1 <= first <= m and 1 <= a < b <= n:
                    index = (h_off[a] + b) * m + first - 1
                    if horizontal[index] is None:
                        horizontal[index] = color
                        continue
        if not tokens or tokens[0].startswith("#"):
            continue
        line = raw.strip()
        if len(tokens) != 5 or tokens[0] not in ("v", "h"):
            raise CertificateError(no, f"expected an edge line, got {line!r}")
        try:
            first, a, b, color = (int(t) for t in tokens[1:])
        except ValueError:
            raise CertificateError(no, f"non-integer field in {line!r}") from None
        if not 1 <= color <= r:
            raise CertificateError(no, f"colour {color} outside [1, {r}]")
        if tokens[0] == "v":
            if not 1 <= first <= n:
                raise CertificateError(no, f"column {first} outside [1, {n}]")
            if not 1 <= a < b <= m:
                raise CertificateError(no, f"row pair ({a}, {b}) invalid for m={m}")
            index = (first - 1) * pair_count + pair_rank(a, b, m)
            if vertical[index] is not None:
                raise CertificateError(no, f"duplicate vertical edge: col {first} pair ({a}, {b})")
            vertical[index] = color
        else:
            if not full:
                raise CertificateError(no, "horizontal edge in a vertical certificate")
            if not 1 <= first <= m:
                raise CertificateError(no, f"row {first} outside [1, {m}]")
            if not 1 <= a < b <= n:
                raise CertificateError(no, f"column pair ({a}, {b}) invalid for n={n}")
            index = pair_rank(a, b, n) * m + (first - 1)
            if horizontal[index] is not None:
                raise CertificateError(no, f"duplicate horizontal edge: row {first} pair ({a}, {b})")
            horizontal[index] = color

    # Sparse slots always miss an edge, so past these checks the slots are lists.
    missing = _first_empty(vertical, v_count)
    if missing < v_count:
        col, rank = divmod(missing, pair_count)
        a, b = _pair_at(rank, m)
        raise CertificateError(
            last_line, f"missing vertical edge: col {col + 1} pair ({a}, {b})"
        )
    # With m = 1 every column is the empty colouring of K_1 and the header
    # alone declares n of them, so all share one object.
    columns = (
        tuple(
            ColumnColoring(m, tuple(vertical[start : start + pair_count]))
            for start in range(0, v_count, pair_count)
        )
        if pair_count
        else (ColumnColoring(m, ()),) * n
    )
    chi = VerticalColoring(m, n, r, columns)
    if not full:
        return chi

    missing = _first_empty(horizontal, h_count)
    if missing < h_count:
        pair, row = divmod(missing, m)
        i, j = _pair_at(pair, n)
        raise CertificateError(
            last_line, f"missing horizontal edge: row {row + 1} pair ({i}, {j})"
        )
    return FullGridColoring(chi, tuple(horizontal))


class _SparseSlots(dict):
    """Edge slots of a certificate that is sure to be incomplete; empty ones read as None."""

    def __missing__(self, index: int) -> None:
        return None


def _first_empty(slots: list[int | None] | _SparseSlots, count: int) -> int:
    """First empty slot below `count`, else `count`; sparse slots take at most filled + 1 steps."""
    if isinstance(slots, list):
        return slots.index(None) if None in slots else count
    index = 0
    while index < count and index in slots:
        index += 1
    return index


def _pair_at(rank: int, size: int) -> tuple[int, int]:
    """The pair of [size] with `pair_rank` `rank`, found in at most rank + 1 steps."""
    a = 1
    while rank >= size - a:
        rank -= size - a
        a += 1
    return a, a + 1 + rank


def load(path: str | Path) -> VerticalColoring | FullGridColoring:
    return parse(Path(path).read_text(encoding="utf-8"))


def save(obj: VerticalColoring | FullGridColoring, path: str | Path) -> None:
    Path(path).write_text(emit(obj), encoding="utf-8")
