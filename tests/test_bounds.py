"""Exact bound formulas and the set-family layer."""

import random
from itertools import combinations
import pytest
from helpers import random_stabilised, random_sunflower

from gridram import (
    FisherHypothesisError,
    NotColorableError,
    IntersectionSpec,
    SetFamily,
    VerticalColoring,
    agreement_graph,
    bound_table,
    check_L_intersecting,
    diag_inequality_check,
    diag_intersection_spec,
    extract_largest_classes,
    fisher_check,
    frankl_wilson_bound,
    intersection_profile,
    is_good,
    stabilised_partitions,
)


class TestFranklWilson:
    def test_small_values(self):
        assert frankl_wilson_bound(4, 1) == 5
        assert frankl_wilson_bound(5, 5) == 32
        assert frankl_wilson_bound(16321, 1) == 16322

    def test_full_range_is_power_set(self):
        for n in range(1, 12):
            assert frankl_wilson_bound(n, n) == 2**n

    def test_strictly_increasing_in_ell(self):
        for n in (5, 9, 13):
            values = [frankl_wilson_bound(n, ell) for ell in range(1, n + 1)]
            assert all(x < y for x, y in zip(values, values[1:]))

    def test_hypothesis_bounds_checked(self):
        with pytest.raises(ValueError):
            frankl_wilson_bound(4, 0)
        with pytest.raises(ValueError):
            frankl_wilson_bound(4, 5)


class TestProfiles:
    def test_disjoint_pair(self):
        family = SetFamily(4, (frozenset({1, 2}), frozenset({3, 4})))
        assert intersection_profile(family) == frozenset({0})

    def test_nested_pair(self):
        family = SetFamily(4, (frozenset({1, 2}), frozenset({1, 2, 3})))
        assert intersection_profile(family) == frozenset({2})

    def test_sunflower_profile_is_core(self):
        rng = random.Random(109)
        for _ in range(50):
            family = random_sunflower(rng)
            profile = intersection_profile(family)
            assert len(profile) == 1

    def test_needs_two_sets(self):
        with pytest.raises(ValueError):
            intersection_profile(SetFamily(3, (frozenset({1}),)))

    def test_agrees_with_pairwise_scan(self):
        rng = random.Random(113)
        for _ in range(50):
            ground = rng.randint(3, 12)
            count = rng.randint(2, 50)
            sets = set()
            while len(sets) < count and len(sets) < 2**ground:
                sets.add(
                    frozenset(
                        x for x in range(1, ground + 1) if rng.random() < 0.4
                    )
                )
            family = SetFamily(ground, tuple(sets))
            scan = {
                len(a & b) for a, b in combinations(family.sets, 2)
            }
            assert intersection_profile(family) == frozenset(scan)


class TestLIntersecting:
    def test_single_set_vacuous(self):
        family = SetFamily(3, (frozenset({1}),))
        assert check_L_intersecting(family, IntersectionSpec(frozenset())).ok

    def test_sunflower_against_core_size(self):
        rng = random.Random(127)
        family = random_sunflower(rng)
        core = len(family.sets[0] & family.sets[1])
        assert check_L_intersecting(family, IntersectionSpec(frozenset({core}))).ok
        result = check_L_intersecting(family, IntersectionSpec(frozenset({core + 1})))
        assert not result.ok
        assert result.violating_pair == (1, 2)

    def test_empty_spec_rejects_any_pair(self):
        family = SetFamily(4, (frozenset({1}), frozenset({2})))
        result = check_L_intersecting(family, IntersectionSpec(frozenset()))
        assert not result.ok and result.violating_size == 0

    def test_first_violation_in_position_order(self):
        family = SetFamily(
            6,
            (
                frozenset({1, 2}),
                frozenset({1, 3}),
                frozenset({4, 5}),
            ),
        )
        result = check_L_intersecting(family, IntersectionSpec(frozenset({1})))
        assert result.violating_pair == (1, 3)
        assert result.violating_size == 0


class TestFisher:
    def test_triangle_family(self):
        family = SetFamily(
            3, (frozenset({1, 2}), frozenset({2, 3}), frozenset({1, 3}))
        )
        verdict = fisher_check(family)
        assert verdict.lam == 1 and verdict.family_size == 3

    def test_sunflowers_confirm(self):
        rng = random.Random(131)
        for _ in range(200):
            verdict = fisher_check(random_sunflower(rng))
            assert verdict.family_size <= verdict.ground_size

    def test_mixed_profile_rejected(self):
        family = SetFamily(
            5, (frozenset({1, 2}), frozenset({2, 3}), frozenset({4, 5}))
        )
        with pytest.raises(FisherHypothesisError):
            fisher_check(family)

    def test_disjoint_family_outside_hypothesis(self):
        family = SetFamily(4, (frozenset({1}), frozenset({2})))
        with pytest.raises(FisherHypothesisError):
            fisher_check(family)


class TestExtractLargestClasses:
    def test_constant_column_gives_full_ground(self):
        chi = VerticalColoring.from_columns(5, 2, 2, [[1] * 10, [2] * 10])
        partitions = stabilised_partitions(chi)
        assert partitions[2].classes == ((1, 2, 3, 4, 5),)
        family = extract_largest_classes(chi)
        assert family.sets == (frozenset({1, 2, 3, 4, 5}),)

    def test_halving_bound_at_two_colours(self):
        rng = random.Random(137)
        produced = 0
        while produced < 50:
            chi = random_stabilised(rng, 6, 3, 2, 1)
            try:
                partitions = stabilised_partitions(chi)
            except NotColorableError:
                continue
            for part in partitions.values():
                largest = max(len(c) for c in part.classes)
                assert largest >= -(-6 // 2)
            produced += 1

    def test_classes_avoid_stabilised_colours(self):
        rng = random.Random(139)
        produced = 0
        while produced < 30:
            chi = random_stabilised(rng, 7, 4, 3, 2)
            try:
                partitions = stabilised_partitions(chi)
            except NotColorableError:
                continue
            produced += 1
            for j, part in partitions.items():
                col = chi.column(j)
                for cls_ in part.classes:
                    for a, b in combinations(cls_, 2):
                        assert col.color(a, b) == 3

    def test_cross_column_intersections_are_small_cliques(self):
        # classes from two columns meet in a clique of the agreement graph,
        # so good colourings keep those intersections to at most r rows
        rng = random.Random(149)
        produced = 0
        while produced < 20:
            chi = random_stabilised(rng, 6, 3, 2, 1)
            if not is_good(chi).good:
                continue
            partitions = stabilised_partitions(chi)
            produced += 1
            for i, j in combinations(sorted(partitions), 2):
                graph = agreement_graph(chi, i, j)
                for left in partitions[i].classes:
                    for right in partitions[j].classes:
                        meet = sorted(set(left) & set(right))
                        assert len(meet) <= 2
                        for a, b in combinations(meet, 2):
                            assert graph.has_edge(a, b)
                            assert chi.column(i).color(a, b) == 2
                            assert chi.column(j).color(a, b) == 2


class TestDiagIntersectionSpec:
    def test_interval_values(self):
        assert diag_intersection_spec(4).allowed == frozenset({4})
        assert diag_intersection_spec(8).allowed == frozenset({7, 8})

    def test_degenerate_below_four(self):
        # r - floor(r/4) + 1 exceeds r, so the allowed interval is empty
        for r in (2, 3):
            spec = diag_intersection_spec(r)
            assert spec.allowed == frozenset()
            single = SetFamily(3, (frozenset({1, 2}),))
            assert check_L_intersecting(single, spec).ok
            pair = SetFamily(3, (frozenset({1}), frozenset({2})))
            assert not check_L_intersecting(pair, spec).ok
        with pytest.raises(ValueError):
            frankl_wilson_bound(5, 0)

    def test_degeneracy_flagged_in_report(self):
        assert diag_inequality_check(2).flags["family_argument_degenerate"]
        assert diag_inequality_check(3).flags["family_argument_degenerate"]
        assert not diag_inequality_check(4).flags["family_argument_degenerate"]


class TestDiagInequality:
    def test_r4_hand_values(self):
        report = diag_inequality_check(4)
        assert report.values["lhs_m"] == 16324
        assert report.values["lhs_m_plus_1"] == 16325
        assert report.values["rhs_doubled"] // 2 == 524288
        assert report.values["margin_m"] == 507964
        assert report.satisfied

    def test_r2_hand_values(self):
        report = diag_inequality_check(2)
        assert report.values["lhs_m"] == 2
        assert report.values["rhs_doubled"] == 8
        assert report.satisfied

    def test_holds_across_the_range(self):
        for r in range(2, 65):
            report = diag_inequality_check(r)
            assert report.satisfied, r
            assert report.values["margin_m"] > 0
            assert report.values["margin_m_plus_1"] > 0


class TestBoundTable:
    def test_r2_row(self):
        row = bound_table(2)[0]
        assert row.values == {
            "shelah": 9,
            "gyarfas": 7,
            "thm1_m": 9,
            "thm1_n": 4,
            "thm2_m": 7,
            "thm2_n": 9,
        }
        assert not row.flags["thm1_m_lt_gyarfas"]

    def test_small_r_degenerate_ordering_recorded(self):
        for row in bound_table(3):
            r = row.parameters["r"]
            assert row.values["thm1_m"] == row.values["shelah"]
            assert not row.flags["thm1_m_lt_gyarfas"]
            assert row.flags["gyarfas_lt_shelah"]

    def test_strict_ordering_from_r4(self):
        for row in bound_table(16):
            r = row.parameters["r"]
            if r >= 4:
                assert row.values["thm1_m"] < row.values["gyarfas"], r
                assert row.values["gyarfas"] < row.values["shelah"], r

    def test_shelah_r4(self):
        rows = {row.parameters["r"]: row for row in bound_table(4)}
        assert rows[4].values["shelah"] == 4**10 + 1 == 1048577
