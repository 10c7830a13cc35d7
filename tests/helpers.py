"""Seeded random builders shared across the test suite."""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import combinations, product
from math import comb

from gridram import (
    FullGridColoring,
    Rectangle,
    SetFamily,
    VerticalColoring,
    is_alternating,
    switch,
)


def random_column(rng: random.Random, m: int, r: int) -> list[int]:
    return [rng.randint(1, r) for _ in range(comb(m, 2))]


def random_vertical(rng: random.Random, m: int, n: int, r: int) -> VerticalColoring:
    return VerticalColoring.from_columns(
        m, n, r, [random_column(rng, m, r) for _ in range(n)]
    )


def random_full(rng: random.Random, m: int, n: int, r: int) -> FullGridColoring:
    vertical = random_vertical(rng, m, n, r)
    horizontal = tuple(rng.randint(1, r) for _ in range(m * comb(n, 2)))
    return FullGridColoring(vertical, horizontal)


def brute_force_rectangles(full: FullGridColoring) -> list[Rectangle]:
    """Every (a, b, i, j) tested one by one with `is_alternating`, in sorted order."""
    return [
        Rectangle((a, b), (i, j))
        for a, b in combinations(range(1, full.m + 1), 2)
        for i, j in combinations(range(1, full.n + 1), 2)
        if is_alternating(full, Rectangle((a, b), (i, j)))
    ]


@lru_cache(maxsize=None)
def _monochromatic_masks(m: int, r: int) -> tuple[int, ...]:
    """For each map of rows to [1, r], the bits (lexicographic pair index) of its monochromatic row pairs."""
    pairs = list(combinations(range(m), 2))
    return tuple(
        sum(1 << k for k, (a, b) in enumerate(pairs) if labels[a] == labels[b])
        for labels in product(range(r), repeat=m)
    )


def brute_force_colourable(m: int, mask: int, r: int) -> bool:
    """Whether some map of the m rows to [1, r] leaves no edge of `mask` monochromatic.

    Bit k of `mask` is the k-th row pair (a, b), a < b, in lexicographic
    order.  Every one of the r^m maps is tried.
    """
    return any(not mono & mask for mono in _monochromatic_masks(m, r))


def random_stabilised(
    rng: random.Random, m: int, n: int, r: int, k: int
) -> VerticalColoring:
    """Columns 1..k constant c_1..c_k, the rest uniform."""
    columns = [[i] * comb(m, 2) for i in range(1, k + 1)]
    columns += [random_column(rng, m, r) for _ in range(n - k)]
    return VerticalColoring.from_columns(m, n, r, columns)


def random_sunflower(rng: random.Random) -> SetFamily:
    """Distinct sets with one common core and disjoint nonempty petals.

    Every pairwise intersection equals the core, so the family is uniformly
    core-size-intersecting by construction.
    """
    core_size = rng.randint(1, 4)
    petal_size = rng.randint(1, 3)
    petals = rng.randint(2, 6)
    ground = core_size + petal_size * petals + rng.randint(0, 3)
    elements = list(range(1, ground + 1))
    rng.shuffle(elements)
    core = frozenset(elements[:core_size])
    sets = []
    at = core_size
    for _ in range(petals):
        petal = frozenset(elements[at : at + petal_size])
        at += petal_size
        sets.append(core | petal)
    return SetFamily(ground, tuple(sets))


def replay_switches(chi: VerticalColoring, records) -> VerticalColoring:
    out = chi
    for rec in records:
        out = switch(out, rec.edge, *rec.colors)
    return out
