"""Exact integer bound formulas and set-family machinery.

Everything here is arbitrary-precision: the named bounds overflow 64 bits
already at r = 5, and the final inequality is checked on doubled integers so
the halved right-hand side never touches floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

from .constructions import check_bound_digits, theorem_params
from .core import RowPartition, VerticalColoring
from .errors import FisherHypothesisError, InternalContradictionError
from .transforms import refined_partition

__all__ = [
    "SetFamily",
    "IntersectionSpec",
    "BoundReport",
    "LCheckResult",
    "FisherVerdict",
    "frankl_wilson_bound",
    "intersection_profile",
    "check_L_intersecting",
    "diag_intersection_spec",
    "fisher_check",
    "stabilised_partitions",
    "extract_largest_classes",
    "diag_inequality_check",
    "bound_table",
]


@dataclass(frozen=True)
class SetFamily:
    """Distinct subsets of the ground set [ground_size]."""

    ground_size: int
    sets: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        if self.ground_size < 0:
            raise ValueError("ground size must be nonnegative")
        for s in self.sets:
            if any(not 1 <= x <= self.ground_size for x in s):
                raise ValueError("set member outside the ground set")
        if len(set(self.sets)) != len(self.sets):
            raise ValueError("family members must be pairwise distinct")


@dataclass(frozen=True)
class IntersectionSpec:
    """The pairwise intersection sizes a family is allowed to realise."""

    allowed: frozenset[int]

    def __post_init__(self) -> None:
        if any(x < 0 for x in self.allowed):
            raise ValueError("intersection sizes are nonnegative")


@dataclass(frozen=True)
class LCheckResult:
    """Outcome of an intersection-size check; pair positions are 1-based."""

    ok: bool
    violating_pair: tuple[int, int] | None = None
    violating_size: int | None = None


@dataclass(frozen=True)
class FisherVerdict:
    """Confirmation record for a uniform lambda-intersecting family."""

    family_size: int
    ground_size: int
    lam: int


@dataclass(frozen=True)
class BoundReport:
    """Named exact values, optional boolean flags, and an inequality status."""

    name: str
    parameters: dict
    values: dict[str, int]
    flags: dict[str, bool] = field(default_factory=dict)
    satisfied: bool | None = None


def frankl_wilson_bound(n: int, ell: int) -> int:
    """sum_{i=0}^{ell} C(n, i): the ceiling on families realising ell intersection sizes."""
    if not 1 <= ell <= n:
        raise ValueError(f"requires 1 <= ell <= n, got ell={ell}, n={n}")
    return sum(math.comb(n, i) for i in range(ell + 1))


def intersection_profile(family: SetFamily) -> frozenset[int]:
    """The exact set of pairwise intersection sizes of a family of >= 2 sets."""
    if len(family.sets) < 2:
        raise ValueError("need at least two sets for a pairwise profile")
    return frozenset(
        len(a & b) for a, b in combinations(family.sets, 2)
    )


def check_L_intersecting(family: SetFamily, spec: IntersectionSpec) -> LCheckResult:
    """Whether every pairwise intersection size lies in the allowed set.

    Families with fewer than two sets pass vacuously; otherwise the first
    violating pair in lexicographic position order is reported.
    """
    for i, j in combinations(range(1, len(family.sets) + 1), 2):
        size = len(family.sets[i - 1] & family.sets[j - 1])
        if size not in spec.allowed:
            return LCheckResult(False, (i, j), size)
    return LCheckResult(True)


def diag_intersection_spec(r: int) -> IntersectionSpec:
    """Allowed pairwise intersection sizes in the diagonal-bound argument.

    The interval {r - floor(r/4) + 1, ..., r}.  For r < 4 the interval is
    empty and the family argument degenerates: any family with two or more
    sets fails the check, and the bound's improvement term vanishes there.
    """
    if r < 2:
        raise ValueError("stated for r >= 2")
    return IntersectionSpec(frozenset(range(r - r // 4 + 1, r + 1)))


def fisher_check(family: SetFamily) -> FisherVerdict:
    """Confirm |F| <= ground size for a uniform lambda-intersecting family.

    Requires a single pairwise intersection size lambda >= 1 (families of
    pairwise disjoint sets may include the empty set and beat the bound, so
    lambda = 0 is rejected as outside the hypothesis).  The bound itself is
    unconditional, so a violation raises InternalContradictionError: it can
    only mean the input is corrupt.
    """
    profile = intersection_profile(family)
    if len(profile) != 1:
        raise FisherHypothesisError(
            f"intersection sizes are not uniform: {sorted(profile)}"
        )
    lam = next(iter(profile))
    if lam < 1:
        raise FisherHypothesisError("requires a positive intersection size")
    if len(family.sets) > family.ground_size:
        raise InternalContradictionError(
            f"{len(family.sets)} pairwise {lam}-intersecting sets on "
            f"{family.ground_size} points"
        )
    return FisherVerdict(len(family.sets), family.ground_size, lam)


def stabilised_partitions(chi: VerticalColoring) -> dict[int, RowPartition]:
    """Refined row partitions of an (r-1)-stabilised colouring, per column j >= r.

    For each such column, the graphs of row pairs coloured c_1..c_{r-1} are
    properly coloured and the witnesses' partitions refined, giving at most
    r^(r-1) classes that carry none of those colours inside.
    """
    r = chi.r
    if r < 2:
        raise ValueError("needs r >= 2")
    if chi.n < r:
        raise ValueError(f"needs at least r = {r} columns, have {chi.n}")
    if not chi.is_stabilised(r - 1):
        raise ValueError(f"input is not {r - 1}-stabilised")
    return {j: refined_partition(chi, j, r - 1) for j in range(r, chi.n + 1)}


def extract_largest_classes(chi: VerticalColoring) -> SetFamily:
    """The largest refined class of each column j >= r, as a family on the rows.

    Ties break to the class with the smallest minimum element; classes that
    repeat across columns collapse to a single family member.
    """
    partitions = stabilised_partitions(chi)
    seen: set[frozenset[int]] = set()
    members: list[frozenset[int]] = []
    for j in sorted(partitions):
        largest = frozenset(max(partitions[j].classes, key=len))
        if largest not in seen:
            seen.add(largest)
            members.append(largest)
    return SetFamily(chi.m, tuple(members))


def diag_inequality_check(r: int) -> BoundReport:
    """Exact check of  sum_{i<=floor(r/4)} C(m, i) + r - 1  <  r^C(r+1,2) / 2.

    Here m = r^(r-1) * (r^r - floor(r/4)).  Both ground-set conventions are
    evaluated (binomials over m and over m + 1); the comparison runs on
    doubled integers and the reported margins are floored, so everything is
    exact.
    """
    if r < 2:
        raise ValueError("stated for r >= 2")
    check_bound_digits(r)
    quarter = r // 4
    m = r ** (r - 1) * (r**r - quarter)
    lhs_m = sum(math.comb(m, i) for i in range(quarter + 1)) + r - 1
    lhs_m1 = sum(math.comb(m + 1, i) for i in range(quarter + 1)) + r - 1
    rhs_doubled = r ** math.comb(r + 1, 2)
    return BoundReport(
        name="diag_inequality",
        parameters={"r": r, "m": m},
        values={
            "lhs_m": lhs_m,
            "lhs_m_plus_1": lhs_m1,
            "rhs_doubled": rhs_doubled,
            "margin_m": rhs_doubled // 2 - lhs_m,
            "margin_m_plus_1": rhs_doubled // 2 - lhs_m1,
        },
        flags={
            "satisfied_m": 2 * lhs_m < rhs_doubled,
            "satisfied_m_plus_1": 2 * lhs_m1 < rhs_doubled,
            "family_argument_degenerate": quarter == 0,
        },
        satisfied=2 * lhs_m < rhs_doubled and 2 * lhs_m1 < rhs_doubled,
    )


def bound_table(r_max: int) -> list[BoundReport]:
    """Per r in 2..r_max: every named bound exactly, with ordering flags."""
    if r_max < 2:
        raise ValueError("r_max must be at least 2")
    reports = []
    for r in range(2, r_max + 1):
        shelah = theorem_params(r, "shelah").m
        gyarfas = theorem_params(r, "gyarfas").m
        t1 = theorem_params(r, "thm1")
        t2 = theorem_params(r, "thm2")
        reports.append(
            BoundReport(
                name="bound_table",
                parameters={"r": r},
                values={
                    "shelah": shelah,
                    "gyarfas": gyarfas,
                    "thm1_m": t1.m,
                    "thm1_n": t1.n,
                    "thm2_m": t2.m,
                    "thm2_n": t2.n,
                },
                flags={
                    "thm1_m_lt_gyarfas": t1.m < gyarfas,
                    "gyarfas_lt_shelah": gyarfas < shelah,
                    "thm1_n_floored": t1.n_floored,
                },
                satisfied=diag_inequality_check(r).satisfied,
            )
        )
    return reports
