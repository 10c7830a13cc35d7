"""Named constructive arguments and closed-form bound parameters.

The row-index colouring realises the trivial upper bound g(m, n) <= min(m, n).
The pigeonhole finder locates an alternating rectangle in any full colouring
that is wide enough to repeat a column and tall enough to repeat a horizontal
colour.  The refutation chain runs stabilisation steps until one fails, which
must happen once the row count reaches r^C(r+1,2) + 1, and returns the failing
column pair as an independently checkable witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, log10
from typing import Hashable, Sequence

from .core import (
    AgreementGraph,
    ColumnColoring,
    FullGridColoring,
    Rectangle,
    VerticalColoring,
    agreement_graph,
    pair_rank,
)
from .errors import (
    InternalContradictionError,
    NotColorableError,
    PreconditionUnmetError,
    TooLargeError,
)
from .transforms import StabiliseStep, SwitchRecord, stabilise_step

__all__ = [
    "RefutationWitness",
    "TheoremParams",
    "row_index_coloring",
    "shelah_find_rectangle",
    "shelah_refute",
    "theorem_params",
    "check_bound_digits",
    "BOUND_NAMES",
    "MAX_BOUND_DIGITS",
]

# Python's default limit on int-to-str conversion; larger bounds cannot be printed.
MAX_BOUND_DIGITS = 4300


@dataclass(frozen=True)
class RefutationWitness:
    """A column pair whose agreement graph is not r-colourable.

    `rows` are the surviving rows in the labels of the original input;
    `graph` lives on those rows after relabelling to 1..|rows|; `switches`
    are every switch applied along the chain, already translated back to
    original row labels, so the witness can be reproduced by replay.
    """

    columns: tuple[int, int]
    rows: tuple[int, ...]
    graph: AgreementGraph
    switches: tuple[SwitchRecord, ...]


@dataclass(frozen=True)
class TheoremParams:
    """Exact grid sizes (m, n) attached to a named bound statement."""

    m: int
    n: int
    n_floored: bool = False


def row_index_coloring(m: int, n: int) -> FullGridColoring:
    """Full colouring with r = m and no alternating rectangle.

    Every vertical edge gets colour 1 and the horizontal edges of row a get
    colour a, so horizontal edges in distinct rows never agree.  Requires
    m <= n; callers with the wide side on the rows should transpose first.
    """
    if m > n:
        raise ValueError(f"requires m <= n (got {m} > {n}); transpose the grid first")
    column = ColumnColoring(m, (1,) * comb(m, 2))
    vertical = VerticalColoring(m, n, m, (column,) * n)
    horizontal = tuple(a for _ in range(comb(n, 2)) for a in range(1, m + 1))
    return FullGridColoring(vertical, horizontal)


def shelah_find_rectangle(full: FullGridColoring) -> Rectangle:
    """Find an alternating rectangle by a double pigeonhole.

    With n >= r^C(m,2) + 1 columns, two columns carry identical colourings;
    with m >= r + 1 rows, two of the horizontal edges between those columns
    share a colour.  Both pigeonholes pick the lexicographically first hit.
    Raises PreconditionUnmetError below those sizes (no claim is made there).
    A column threshold too long to print is stated as a power; no grid held
    in memory has that many columns.
    """
    m, n, r = full.m, full.n, full.r
    if m < r + 1:
        raise PreconditionUnmetError(f"need m >= r + 1 rows, have m={m}, r={r}")
    exponent = comb(m, 2)
    if _power_digits(r, exponent) > MAX_BOUND_DIGITS:
        raise PreconditionUnmetError(
            f"need n >= r^C(m,2) + 1 = {r}^{exponent} + 1 columns, have n={n}"
        )
    if n < r**exponent + 1:
        raise PreconditionUnmetError(
            f"need n >= r^C(m,2) + 1 = {r**exponent + 1} columns, have n={n}"
        )

    cols = _first_twins([col.colors for col in full.vertical.columns])
    if cols is None:
        raise InternalContradictionError("no identical column pair despite the pigeonhole")
    i, j = cols[0] + 1, cols[1] + 1
    base = pair_rank(i, j, n) * m
    rows = _first_twins(full.horizontal[base : base + m])
    if rows is None:
        raise InternalContradictionError("no repeated horizontal colour despite m > r")
    return Rectangle((rows[0] + 1, rows[1] + 1), (i, j))


def _first_twins(values: Sequence[Hashable]) -> tuple[int, int] | None:
    """The lexicographically first 0-based positions i < j holding equal values, or None."""
    groups: dict[Hashable, list[int]] = {}
    for pos, value in enumerate(values):
        groups.setdefault(value, []).append(pos)
    twins = [(group[0], group[1]) for group in groups.values() if len(group) > 1]
    return min(twins, default=None)


def shelah_refute(chi: VerticalColoring) -> RefutationWitness:
    """Run the stabilisation chain until a step fails, and return the witness.

    Requires a 1-stabilised colouring with at least r^C(r+1,2) + 1 rows and
    at least r + 1 columns.  Each successful step divides the rows by at most
    r^k, so step k always still sees at least r^k + 1 of them, and at k = r a
    failure is forced; the returned agreement graph independently fails
    `chromatic_at_most`.
    """
    r = chi.r
    threshold = r ** comb(r + 1, 2) + 1
    if not chi.is_stabilised(1):
        raise ValueError("input is not 1-stabilised")
    if chi.m < threshold:
        raise ValueError(f"need at least r^C(r+1,2) + 1 = {threshold} rows, have {chi.m}")
    if chi.n < r + 1:
        raise ValueError(f"need at least r + 1 = {r + 1} columns, have {chi.n}")

    current = chi
    row_labels = list(range(1, chi.m + 1))
    switches: list[SwitchRecord] = []
    for k in range(1, r + 1):
        try:
            step: StabiliseStep = stabilise_step(current, k)
        except NotColorableError as err:
            graph = agreement_graph(current, err.column, k + 1)
            return RefutationWitness(
                columns=(err.column, k + 1),
                rows=tuple(row_labels),
                graph=graph,
                switches=tuple(switches),
            )
        for record in step.switches:
            a, b = record.edge
            switches.append(
                SwitchRecord((row_labels[a - 1], row_labels[b - 1]), record.colors)
            )
        row_labels = [row_labels[t - 1] for t in step.rows]
        current = step.coloring
    raise InternalContradictionError("stabilisation chain completed without a failure")


BOUND_NAMES = ("shelah", "gyarfas", "thm1", "thm2", "prop_diag", "prop_offdiag")


def check_bound_digits(r: int) -> None:
    """Refuse r whose r^C(r+1,2), the largest term of every bound, is too long to print.

    The digit count C(r+1,2) * log10(r) is estimated before any power is
    computed; beyond MAX_BOUND_DIGITS digits this raises TooLargeError.
    """
    digits = _power_digits(r, comb(r + 1, 2))
    if digits > MAX_BOUND_DIGITS:
        raise TooLargeError(
            f"r={r} gives bounds of about {digits} digits, "
            f"above the {MAX_BOUND_DIGITS}-digit limit"
        )


def _power_digits(base: int, exponent: int) -> int:
    """Decimal digits of base**exponent, estimated without computing the power."""
    return int(exponent * log10(base)) + 1


def theorem_params(r: int, which: str) -> TheoremParams:
    """Exact (m, n) parameters of the named bound statements.

    shelah        m = r^C(r+1,2) + 1, n = r + 1
    gyarfas       the diagonal bound B = r^C(r+1,2) - r^(C(r-1,2)+1) + 1, as (B, B)
    thm1          m = r^C(r+1,2) - floor(r/4) * r^C(r,2) + 1, n = r^C(r+1,2) / 2
    thm2          m = r^C(r+1,2) - r^C(r,2) + 1, n = r^(r-1) * (r^r - 1) + r + 1
    prop_diag     m = r^(r-1) * (r^r - floor(r/4)), n = r^C(r+1,2) / 2
    prop_offdiag  m = r^(r-1) * (r^r - 1), n = m + r + 1

    All values are exact integers.  The halved n of thm1 and prop_diag is not
    integral for odd r; it is floored and flagged via `n_floored`.  An r whose
    values would pass MAX_BOUND_DIGITS digits raises TooLargeError.
    """
    if which not in BOUND_NAMES:
        raise ValueError(f"unknown bound name {which!r}; expected one of {BOUND_NAMES}")
    if r < 1:
        raise ValueError("r must be at least 1")
    if which in ("thm1", "thm2") and r < 2:
        raise ValueError(f"{which} is stated for r >= 2")
    check_bound_digits(r)

    big = r ** comb(r + 1, 2)
    if which == "shelah":
        return TheoremParams(big + 1, r + 1)
    if which == "gyarfas":
        bound = big - r ** (comb(r - 1, 2) + 1) + 1
        return TheoremParams(bound, bound)
    if which == "thm1":
        m = big - (r // 4) * r ** comb(r, 2) + 1
        return TheoremParams(m, big // 2, n_floored=r % 2 == 1)
    if which == "thm2":
        m = big - r ** comb(r, 2) + 1
        return TheoremParams(m, r ** (r - 1) * (r**r - 1) + r + 1)
    if which == "prop_diag":
        m = r ** (r - 1) * (r**r - r // 4)
        return TheoremParams(m, big // 2, n_floored=r % 2 == 1)
    m = r ** (r - 1) * (r**r - 1)
    return TheoremParams(m, m + r + 1)
