"""Switching, stabilisation steps, restriction, refinement."""

import random
from itertools import combinations
from math import ceil, comb

import pytest
from helpers import random_stabilised, random_vertical, replay_switches
from hypothesis import given, settings
from hypothesis import strategies as st

from gridram import (
    NotColorableError,
    RowPartition,
    VerticalColoring,
    agreement_graph,
    common_refinement,
    is_good,
    pair_rank,
    restrict_rows,
    stabilise_first,
    stabilise_step,
    switch,
)


class TestSwitch:
    def test_identity_colour_pair(self):
        chi = VerticalColoring.from_columns(2, 2, 2, [[1], [2]])
        assert switch(chi, (1, 2), 2, 2) == chi

    def test_definition_example(self):
        chi = VerticalColoring.from_columns(2, 2, 2, [[1], [2]])
        out = switch(chi, (1, 2), 1, 2)
        assert out.column(1).colors == (2,)
        assert out.column(2).colors == (1,)

    def test_involution_on_random_colourings(self):
        rng = random.Random(41)
        for _ in range(1000):
            m = rng.randint(2, 4)
            chi = random_vertical(rng, m, rng.randint(1, 4), 3)
            edge = tuple(sorted(rng.sample(range(1, m + 1), 2)))
            c, ct = rng.randint(1, 3), rng.randint(1, 3)
            assert switch(switch(chi, edge, c, ct), edge, c, ct) == chi

    def test_out_of_range_edge_rejected(self):
        chi = VerticalColoring.from_columns(2, 1, 1, [[1]])
        with pytest.raises(ValueError):
            switch(chi, (1, 3), 1, 1)

    def test_goodness_invariant(self):
        rng = random.Random(43)
        for _ in range(200):
            m = rng.randint(2, 4)
            chi = random_vertical(rng, m, rng.randint(2, 4), 2)
            before = is_good(chi).good
            for _ in range(rng.randint(1, 4)):
                edge = tuple(sorted(rng.sample(range(1, m + 1), 2)))
                chi = switch(chi, edge, rng.randint(1, 2), rng.randint(1, 2))
            assert is_good(chi).good == before

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_switches_keep_every_agreement_graph(self, data):
        m = data.draw(st.integers(2, 6), label="m")
        n = data.draw(st.integers(2, 4), label="n")
        r = data.draw(st.integers(1, 3), label="r")
        column = st.lists(st.integers(1, r), min_size=comb(m, 2), max_size=comb(m, 2))
        columns = data.draw(st.lists(column, min_size=n, max_size=n), label="columns")
        chi = VerticalColoring.from_columns(m, n, r, columns)
        switched = chi
        for _ in range(data.draw(st.integers(1, 5), label="switches")):
            a = data.draw(st.integers(1, m - 1), label="a")
            b = data.draw(st.integers(a + 1, m), label="b")
            c = data.draw(st.integers(1, r), label="c")
            c_tilde = data.draw(st.integers(1, r), label="c_tilde")
            switched = switch(switched, (a, b), c, c_tilde)
        for i, j in combinations(range(1, n + 1), 2):
            assert agreement_graph(switched, i, j).mask == agreement_graph(chi, i, j).mask
        assert is_good(switched) == is_good(chi)


class TestStabiliseFirst:
    def test_already_stabilised_is_unchanged(self):
        chi = VerticalColoring.from_columns(3, 2, 2, [[1, 1, 1], [2, 1, 2]])
        log = []
        assert stabilise_first(chi, log) == chi
        assert log == []

    def test_two_row_example(self):
        chi = VerticalColoring.from_columns(2, 2, 2, [[2], [1]])
        out = stabilise_first(chi)
        assert out.column(1).colors == (1,)
        assert out.column(2).colors == (2,)

    def test_replay_and_goodness(self):
        rng = random.Random(47)
        for _ in range(200):
            chi = random_vertical(rng, 4, 3, 3)
            log = []
            out = stabilise_first(chi, log)
            assert out.is_stabilised(1)
            assert replay_switches(chi, log) == out
            assert is_good(out).good == is_good(chi).good


class TestCommonRefinement:
    def test_single_partition_is_identity(self):
        part = RowPartition.from_classes([[1, 2], [3, 4]])
        assert common_refinement([part]) == part

    def test_crossing_partitions_fully_split(self):
        left = RowPartition.from_classes([[1, 2], [3, 4]])
        right = RowPartition.from_classes([[1, 3], [2, 4]])
        assert common_refinement([left, right]).classes == ((1,), (2,), (3,), (4,))

    def test_direct_intersection(self):
        left = RowPartition.from_classes([[1, 2, 3], [4]])
        right = RowPartition.from_classes([[1, 2], [3, 4]])
        assert common_refinement([left, right]).classes == ((1, 2), (3,), (4,))

    def test_class_count_bounded_by_product(self):
        rng = random.Random(53)
        for _ in range(100):
            m = rng.randint(2, 8)
            parts = []
            for _ in range(rng.randint(1, 3)):
                labels = [rng.randint(0, 2) for _ in range(m)]
                groups = {}
                for row, lab in enumerate(labels, start=1):
                    groups.setdefault(lab, []).append(row)
                parts.append(RowPartition.from_classes(groups.values()))
            refined = common_refinement(parts)
            bound = 1
            for p in parts:
                bound *= len(p.classes)
            assert len(refined.classes) <= bound

    def test_mismatched_grounds_rejected(self):
        with pytest.raises(ValueError):
            common_refinement(
                [
                    RowPartition.from_classes([[1, 2]]),
                    RowPartition.from_classes([[1, 2, 3]]),
                ]
            )


class TestRestrictRows:
    def test_full_set_is_identity(self):
        rng = random.Random(59)
        chi = random_vertical(rng, 4, 3, 2)
        assert restrict_rows(chi, range(1, 5)) == chi

    def test_single_edge_restriction(self):
        chi = VerticalColoring.from_columns(3, 2, 3, [[1, 2, 3], [3, 2, 1]])
        out = restrict_rows(chi, [1, 3])
        assert out.m == 2
        assert out.column(1).colors == (2,)
        assert out.column(2).colors == (2,)

    def test_too_small_subset_rejected(self):
        chi = VerticalColoring.from_columns(3, 1, 1, [[1, 1, 1]])
        with pytest.raises(ValueError):
            restrict_rows(chi, [2])

    def test_goodness_preserved(self):
        # induced subgraphs of r-colourable graphs stay r-colourable
        rng = random.Random(61)
        checked = 0
        while checked < 100:
            chi = random_vertical(rng, 4, 3, 2)
            if not is_good(chi).good:
                continue
            keep = sorted(rng.sample(range(1, 5), rng.randint(2, 4)))
            assert is_good(restrict_rows(chi, keep)).good
            checked += 1


class TestStabiliseStep:
    def test_identity_switch_case(self):
        chi = VerticalColoring.from_columns(3, 2, 2, [[1, 1, 1], [2, 2, 2]])
        step = stabilise_step(chi, 1)
        assert step.rows == (1, 2, 3)
        assert step.partition.classes == ((1, 2, 3),)
        assert step.switches == ()
        assert step.coloring.is_stabilised(2)

    def test_non_colorable_raises(self):
        chi = VerticalColoring.from_columns(3, 2, 2, [[1, 1, 1], [1, 1, 1]])
        with pytest.raises(NotColorableError) as err:
            stabilise_step(chi, 1)
        assert err.value.column == 1

    def test_four_cycle_example(self):
        col2 = [2] * 10
        for a, b in [(1, 3), (1, 4), (2, 3), (2, 4)]:
            col2[pair_rank(a, b, 5)] = 1
        chi = VerticalColoring.from_columns(5, 2, 2, [[1] * 10, col2])
        step = stabilise_step(chi, 1)
        assert len(step.rows) >= ceil(5 / 2)
        assert step.coloring.is_stabilised(2)
        # the two bipartition sides plus the isolated row
        assert set(map(frozenset, step.partition.classes)) == {
            frozenset({1, 2, 5}),
            frozenset({3, 4}),
        }

    def test_pigeonhole_bound_and_untouched_columns(self):
        rng = random.Random(67)
        successes = 0
        while successes < 150:
            r = rng.choice([2, 3])
            k = rng.randint(1, r - 1) if r > 2 else 1
            m = r**k + 1 + rng.randint(0, 6)
            n = k + 1 + rng.randint(0, 1)
            chi = random_stabilised(rng, m, n, r, k)
            try:
                step = stabilise_step(chi, k)
            except NotColorableError:
                continue
            successes += 1
            assert len(step.rows) >= ceil(m / r**k)
            assert step.coloring.is_stabilised(k + 1)
            restricted = restrict_rows(chi, step.rows)
            for i in range(1, k + 1):
                assert step.coloring.column(i) == restricted.column(i)

    def test_exact_pigeonhole_arithmetic(self):
        # with m0 * r^k + 1 rows the kept class has more than m0 rows
        rng = random.Random(71)
        kept = 0
        while kept < 30:
            m0 = rng.randint(2, 3)
            m = m0 * 2 + 1
            chi = random_stabilised(rng, m, 2, 2, 1)
            try:
                step = stabilise_step(chi, 1)
            except NotColorableError:
                continue
            assert len(step.rows) >= m0 + 1
            kept += 1

    def test_goodness_preserved_on_good_inputs(self):
        rng = random.Random(73)
        checked = 0
        while checked < 50:
            chi = random_stabilised(rng, 5, 2, 2, 1)
            if not is_good(chi).good:
                continue
            step = stabilise_step(chi, 1)
            assert is_good(step.coloring).good
            checked += 1

    def test_level_r_always_fails(self):
        # at k = r every class would be a singleton, so some graph must fail
        rng = random.Random(79)
        for _ in range(100):
            chi = random_stabilised(rng, 5, 3, 2, 2)
            with pytest.raises(NotColorableError):
                stabilise_step(chi, 2)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_one_pass_replays_the_logged_switches(self, data):
        r = data.draw(st.integers(2, 3), label="r")
        m = data.draw(st.integers(r + 1, 8), label="m")
        n = data.draw(st.integers(2, 4), label="n")
        column = st.lists(st.integers(1, r), min_size=comb(m, 2), max_size=comb(m, 2))
        rest = data.draw(st.lists(column, min_size=n - 1, max_size=n - 1), label="columns")
        chi = VerticalColoring.from_columns(m, n, r, [[1] * comb(m, 2), *rest])
        try:
            step = stabilise_step(chi, 1)
        except NotColorableError:
            return
        assert restrict_rows(replay_switches(chi, step.switches), step.rows) == step.coloring
        edges = [record.edge for record in step.switches]
        assert all(a < b for a, b in zip(edges, edges[1:]))
        assert all(c != c_tilde for c, c_tilde in (record.colors for record in step.switches))

    def test_precondition_validation(self):
        chi = VerticalColoring.from_columns(3, 2, 2, [[1, 1, 1], [2, 2, 2]])
        with pytest.raises(ValueError):
            stabilise_step(chi, 2)  # not 2-stabilised, and no column 3
        small = VerticalColoring.from_columns(2, 2, 2, [[1], [2]])
        with pytest.raises(ValueError):
            stabilise_step(small, 1)  # needs r^1 + 1 = 3 rows
