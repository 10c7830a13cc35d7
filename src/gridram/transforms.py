"""Colour switching, stabilisation, and partition refinement.

Switching two colours at one row pair (simultaneously in every column)
generates an equivalence on vertical colourings that preserves goodness,
because it preserves every agreement graph.  Stabilisation uses switches to
make initial columns constant: column 1 can always be fixed to c_1, and a
k-stabilised colouring can be pushed to a (k+1)-stabilised one on a large
row subset by a pigeonhole over a refined partition.

A step refines, restricts to the largest class, then makes column k+1
constant in one switching pass, sound because switches at distinct row pairs
commute.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

from .coloring import cached_chromatic_at_most
from .core import (
    AgreementGraph,
    ColumnColoring,
    RowPartition,
    VerticalColoring,
    pair_rank,
    row_pairs,
)
from .errors import InternalContradictionError, NotColorableError

__all__ = [
    "SwitchRecord",
    "StabiliseStep",
    "switch",
    "stabilise_first",
    "common_refinement",
    "refined_partition",
    "restrict_rows",
    "stabilise_step",
]


@dataclass(frozen=True)
class SwitchRecord:
    """One applied switch: the row pair and the colour pair swapped there."""

    edge: tuple[int, int]
    colors: tuple[int, int]


@dataclass(frozen=True)
class StabiliseStep:
    """Outcome of one stabilisation step.

    `rows` (kept) and `switches` (applied) use the row labels of the *input* colouring;
    `coloring` is the restriction to those rows, relabelled 1..|rows|;
    `partition` is the refined partition the largest class was drawn from.
    """

    coloring: VerticalColoring
    rows: tuple[int, ...]
    partition: RowPartition
    switches: tuple[SwitchRecord, ...]


def switch(
    chi: VerticalColoring, edge: tuple[int, int], c: int, c_tilde: int
) -> VerticalColoring:
    """Swap colours c and c_tilde at one row pair, in every column at once.

    Applying the same switch twice is the identity; a switch with c equal to
    c_tilde changes nothing.
    """
    a, b = edge
    rank = pair_rank(a, b, chi.m)
    for colour in (c, c_tilde):
        if not 1 <= colour <= chi.r:
            raise ValueError(f"colour {colour} outside [1, {chi.r}]")
    return _switch_at(chi, [(rank, c, c_tilde)])


def _switch_at(chi: VerticalColoring, swaps: list[tuple[int, int, int]]) -> VerticalColoring:
    """Apply the switches (rank, c, c_tilde) at distinct ranks, building each column once.

    Switches at distinct row pairs commute, so their order does not matter.
    """
    columns = []
    for col in chi.columns:
        colors = list(col.colors)
        for rank, c, c_tilde in swaps:
            if colors[rank] == c:
                colors[rank] = c_tilde
            elif colors[rank] == c_tilde:
                colors[rank] = c
        columns.append(ColumnColoring(chi.m, tuple(colors)))
    return VerticalColoring(chi.m, chi.n, chi.r, tuple(columns))


def _make_constant(
    chi: VerticalColoring, j: int
) -> tuple[VerticalColoring, tuple[SwitchRecord, ...]]:
    """Make column j the constant colouring c_j in one switching pass.

    Returns the result and the non-identity switches, in pair-rank order.
    """
    swaps = [(rank, j, cur) for rank, cur in enumerate(chi.column(j).colors) if cur != j]
    pairs = row_pairs(chi.m)
    records = tuple(SwitchRecord(pairs[rank], (j, cur)) for rank, _, cur in swaps)
    return _switch_at(chi, swaps), records


def stabilise_first(
    chi: VerticalColoring, log: list[SwitchRecord] | None = None
) -> VerticalColoring:
    """Make column 1 the constant colouring c_1.

    Switches c_1 with the column-1 colour at every row pair (identity
    switches are skipped and not logged).  The result is equivalent to the
    input under switching, so it is good exactly when the input is.
    """
    out, records = _make_constant(chi, 1)
    if log is not None:
        log.extend(records)
    return out


def common_refinement(parts: Sequence[RowPartition]) -> RowPartition:
    """Partition whose classes are all nonempty intersections of one class per input."""
    if not parts:
        raise ValueError("need at least one partition")
    m = parts[0].m
    if any(p.m != m for p in parts):
        raise ValueError("partitions cover different ground sets")
    groups: dict[tuple[int, ...], list[int]] = {}
    for row, key in enumerate(zip(*(p.labels for p in parts)), start=1):
        groups.setdefault(key, []).append(row)
    return RowPartition.from_classes(groups.values())


def refined_partition(chi: VerticalColoring, j: int, k: int) -> RowPartition:
    """Common refinement of proper colourings of column j's colour-1..k graphs.

    The colour-i graph holds the row pairs coloured c_i in column j.  Raises
    NotColorableError(i, against=j) for the first one that is not r-colourable.
    """
    parts = []
    for i in range(1, k + 1):
        mask = chi.column(j).color_masks.get(i, 0)
        witness = cached_chromatic_at_most(AgreementGraph(chi.m, mask), chi.r)
        if witness is None:
            raise NotColorableError(i, against=j)
        parts.append(witness)
    return common_refinement(parts)


def restrict_rows(chi: VerticalColoring, rows: Iterable[int]) -> VerticalColoring:
    """Keep only the given rows, relabelled 1..|rows| in increasing order."""
    kept = sorted(set(rows))
    if len(kept) < 2:
        raise ValueError("need at least two rows to restrict to")
    if kept[0] < 1 or kept[-1] > chi.m:
        raise ValueError(f"row subset {kept} outside 1..{chi.m}")
    new_m = len(kept)
    columns = tuple(
        ColumnColoring(
            new_m,
            tuple(col.color(kept[s], kept[t]) for s, t in combinations(range(new_m), 2)),
        )
        for col in chi.columns
    )
    return VerticalColoring(new_m, chi.n, chi.r, columns)


def stabilise_step(chi: VerticalColoring, k: int) -> StabiliseStep:
    """Advance a k-stabilised colouring to a (k+1)-stabilised one on many rows.

    Because columns 1..k are constant, the agreement graph of columns i and
    k+1 (for i <= k) is exactly the graph of row pairs coloured c_i in column
    k+1.  A proper colouring of each yields a partition into c_i-independent
    classes; their common refinement has at most r^k classes, so its largest
    class X keeps at least ceil(M / r^k) rows.  Inside X, column k+1 only
    uses colours outside {c_1..c_k}; so after restricting to X, switching
    c_{k+1} with the column-(k+1) colour at every pair makes that column
    constant without touching any previously fixed colour.

    The largest class ties break to the smallest minimum element, and the
    switches run in pair-rank order, so the whole step is deterministic.
    Raises NotColorableError(i) when the i-th graph has no proper colouring;
    with k = r (and at least r^k + 1 rows, as required) this always happens.
    """
    r, m = chi.r, chi.m
    if not 1 <= k <= r:
        raise ValueError(f"level k={k} outside 1..r={r}")
    if chi.n < k + 1:
        raise ValueError(f"no column {k + 1} to stabilise (n={chi.n})")
    if m < r**k + 1:
        raise ValueError(f"need at least r^k + 1 = {r**k + 1} rows, have {m}")
    if not chi.is_stabilised(k):
        raise ValueError(f"input is not {k}-stabilised")

    refined = refined_partition(chi, k + 1, k)
    if k == r:
        # All refinement classes would be {c_1..c_r}-independent, i.e.
        # singletons, and r^r of them cannot cover r^r + 1 rows.
        raise InternalContradictionError(
            "all r agreement graphs r-colourable at k = r with more than r^r rows"
        )
    largest = max(refined.classes, key=len)
    restricted, records = _make_constant(restrict_rows(chi, largest), k + 1)
    switches = tuple(
        SwitchRecord((largest[rec.edge[0] - 1], largest[rec.edge[1] - 1]), rec.colors)
        for rec in records
    )
    return StabiliseStep(restricted, tuple(largest), refined, switches)
