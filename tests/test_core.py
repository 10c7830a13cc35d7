"""Core data model: pair ranking, agreement graphs, rectangle detection."""

import random
import time
from itertools import combinations
from math import comb

import pytest
from helpers import brute_force_rectangles, random_full, random_vertical
from hypothesis import given, settings
from hypothesis import strategies as st

from gridram import (
    AgreementGraph,
    ColumnColoring,
    FullGridColoring,
    Rectangle,
    RowPartition,
    VerticalColoring,
    agreement_graph,
    enumerate_alternating_rectangles,
    is_alternating,
    pair_rank,
    row_index_coloring,
)


class TestPairRank:
    def test_first_pair(self):
        assert pair_rank(1, 2, 3) == 0

    def test_last_pair(self):
        assert pair_rank(2, 3, 3) == 2

    def test_against_lexicographic_enumeration(self):
        # independent oracle: position in the sorted list of all pairs
        for m in range(2, 9):
            ordered = list(combinations(range(1, m + 1), 2))
            assert ordered.index((1, 5)) == pair_rank(1, 5, 5) if m == 5 else True
            for rank, (a, b) in enumerate(ordered):
                assert pair_rank(a, b, m) == rank

    def test_example_1_5(self):
        ordered = list(combinations(range(1, 6), 2))
        assert ordered.index((1, 5)) == 3
        assert pair_rank(1, 5, 5) == 3

    @pytest.mark.parametrize("a,b,m", [(2, 2, 3), (3, 2, 3), (1, 4, 3), (0, 1, 3)])
    def test_rejects_bad_pairs(self, a, b, m):
        with pytest.raises(ValueError):
            pair_rank(a, b, m)


class TestTypes:
    def test_dims_must_be_positive(self):
        with pytest.raises(ValueError):
            VerticalColoring(0, 3, 1, (ColumnColoring(0, ()),) * 3)

    def test_column_length_checked(self):
        with pytest.raises(ValueError):
            ColumnColoring(3, (1, 1))

    def test_colors_above_r_rejected(self):
        with pytest.raises(ValueError):
            VerticalColoring.from_columns(3, 1, 2, [[1, 2, 3]])

    def test_horizontal_length_checked(self):
        vert = VerticalColoring.from_columns(2, 2, 1, [[1], [1]])
        with pytest.raises(ValueError):
            FullGridColoring(vert, (1,))

    def test_rectangle_ordering_enforced(self):
        with pytest.raises(ValueError):
            Rectangle((2, 1), (1, 2))

    def test_rectangles_sort_lexicographically(self):
        rects = [Rectangle((1, 3), (1, 2)), Rectangle((1, 2), (2, 3))]
        assert sorted(rects) == [Rectangle((1, 2), (2, 3)), Rectangle((1, 3), (1, 2))]

    def test_partition_canonical_form(self):
        part = RowPartition.from_classes([[3, 1], [2]])
        assert part.classes == ((1, 3), (2,))
        with pytest.raises(ValueError):
            RowPartition.from_classes([[1], [3]])  # does not cover [m]


class TestAgreementGraph:
    def test_identical_columns_give_complete_graph(self):
        chi = VerticalColoring.from_columns(4, 2, 2, [[1, 2, 1, 2, 1, 2]] * 2)
        g = agreement_graph(chi, 1, 2)
        assert g.edge_count() == comb(4, 2)

    def test_everywhere_different_columns_give_empty_graph(self):
        chi = VerticalColoring.from_columns(3, 2, 2, [[1, 1, 1], [2, 2, 2]])
        assert agreement_graph(chi, 1, 2).mask == 0

    def test_mixed_example(self):
        chi = VerticalColoring.from_columns(3, 2, 2, [[1, 1, 2], [1, 2, 2]])
        assert agreement_graph(chi, 1, 2).edges == ((1, 2), (2, 3))

    def test_locality(self):
        # the graph only depends on the two columns involved
        rng = random.Random(5)
        chi = random_vertical(rng, 4, 4, 3)
        other = VerticalColoring.from_columns(
            4,
            4,
            3,
            [
                list(chi.column(1).colors),
                [3] * 6,
                list(chi.column(3).colors),
                [1] * 6,
            ],
        )
        assert agreement_graph(chi, 1, 3).mask == agreement_graph(other, 1, 3).mask

    def test_column_order_validated(self):
        chi = VerticalColoring.from_columns(2, 3, 1, [[1]] * 3)
        with pytest.raises(ValueError):
            agreement_graph(chi, 2, 2)
        with pytest.raises(ValueError):
            agreement_graph(chi, 1, 4)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_vertex_adjacency_matches_edges(self, data):
        # exact equality with the per-edge construction over pair ranks
        m = data.draw(st.integers(1, 12), label="m")
        mask = data.draw(st.integers(0, (1 << comb(m, 2)) - 1), label="mask")
        pairs = [pair for rank, pair in enumerate(combinations(range(1, m + 1), 2)) if mask >> rank & 1]
        expected = [0] * m
        for a, b in pairs:
            expected[a - 1] |= 1 << (b - 1)
            expected[b - 1] |= 1 << (a - 1)
        g = AgreementGraph(m, mask)
        adj = g.vertex_adjacency()
        assert adj == expected
        assert g.edges == tuple(pairs)
        assert all(not adj[v] >> v & 1 for v in range(m))
        assert all((adj[u] >> v & 1) == (adj[v] >> u & 1) for u in range(m) for v in range(m))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_color_masks_match_the_per_rank_construction(self, data):
        m = data.draw(st.integers(1, 12), label="m")
        r = data.draw(st.integers(1, 300), label="r")
        colors = data.draw(
            st.lists(st.integers(1, r), min_size=comb(m, 2), max_size=comb(m, 2)), label="colors"
        )
        expected: dict[int, int] = {}
        for rank, c in enumerate(colors):
            expected[c] = expected.get(c, 0) | 1 << rank
        masks = ColumnColoring(m, tuple(colors)).color_masks
        assert masks == expected
        assert list(masks) == list(expected)

    def test_bit_routines_linear_on_a_dense_730_row_mask(self):
        # 730 = 3^C(4,2) + 1 rows, the refutation size at r = 3: 266,085 pair ranks
        m = 730
        colors = tuple(random.Random(11).choices((1, 2, 3), k=comb(m, 2)))
        start = time.perf_counter()
        masks = ColumnColoring(m, colors).color_masks
        assert time.perf_counter() - start < 1.0
        dense = AgreementGraph(m, (1 << comb(m, 2)) - 1)
        start = time.perf_counter()
        adj = dense.vertex_adjacency()
        assert time.perf_counter() - start < 1.0
        assert adj == [((1 << m) - 1) ^ (1 << v) for v in range(m)]
        assert sum(mask.bit_count() for mask in masks.values()) == comb(m, 2)

    def test_stabilised_agreement_is_the_colour_one_class(self):
        # against a constant colour-1 column, agreements are exactly the
        # pairs coloured 1 in the other column
        rng = random.Random(7)
        for _ in range(50):
            chi = random_vertical(rng, 4, 3, 3)
            stab = VerticalColoring.from_columns(
                4, 3, 3, [[1] * 6] + [list(chi.column(j).colors) for j in (2, 3)]
            )
            for j in (2, 3):
                expected = stab.column(j).color_masks.get(1, 0)
                assert agreement_graph(stab, 1, j).mask == expected


def all_one_2x2() -> FullGridColoring:
    vert = VerticalColoring.from_columns(2, 2, 1, [[1], [1]])
    return FullGridColoring(vert, (1, 1))


class TestRectangles:
    def test_all_one_2x2_has_the_single_rectangle(self):
        assert enumerate_alternating_rectangles(all_one_2x2()) == [
            Rectangle((1, 2), (1, 2))
        ]

    def test_horizontal_disagreement_blocks(self):
        vert = VerticalColoring.from_columns(2, 2, 2, [[1], [1]])
        full = FullGridColoring(vert, (1, 2))
        assert enumerate_alternating_rectangles(full) == []
        assert not is_alternating(full, Rectangle((1, 2), (1, 2)))

    def test_vertical_disagreement_blocks(self):
        vert = VerticalColoring.from_columns(2, 2, 2, [[1], [2]])
        full = FullGridColoring(vert, (1, 1))
        assert enumerate_alternating_rectangles(full) == []
        assert not is_alternating(full, Rectangle((1, 2), (1, 2)))

    def test_is_alternating_on_the_all_one(self):
        assert is_alternating(all_one_2x2(), Rectangle((1, 2), (1, 2)))

    def test_out_of_range_rectangle_rejected(self):
        with pytest.raises(ValueError):
            is_alternating(all_one_2x2(), Rectangle((1, 3), (1, 2)))

    def test_membership_matches_is_alternating(self):
        rng = random.Random(23)
        for _ in range(50):
            full = random_full(rng, 3, 3, 2)
            listed = set(enumerate_alternating_rectangles(full))
            for rows in combinations(range(1, 4), 2):
                for cols in combinations(range(1, 4), 2):
                    rect = Rectangle(rows, cols)
                    assert (rect in listed) == is_alternating(full, rect)

    def test_output_sorted_and_bounded(self):
        rng = random.Random(29)
        bound = comb(3, 2) * comb(4, 2)
        for _ in range(50):
            full = random_full(rng, 3, 4, 2)
            rects = enumerate_alternating_rectangles(full)
            assert rects == sorted(rects)
            assert len(rects) <= bound

    def test_all_one_colouring_attains_the_bound(self):
        vert = VerticalColoring.from_columns(3, 4, 1, [[1, 1, 1]] * 4)
        full = FullGridColoring(vert, (1,) * (3 * comb(4, 2)))
        assert len(enumerate_alternating_rectangles(full)) == comb(3, 2) * comb(4, 2)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_scan_equals_brute_force(self, data):
        # small r is drawn often so agreement masks are dense
        m = data.draw(st.integers(1, 8), label="m")
        n = data.draw(st.integers(1, 8), label="n")
        r = data.draw(st.sampled_from((1, 1, 2, 2, 2, 3)), label="r")
        colour = st.integers(1, r)
        columns = data.draw(
            st.lists(st.lists(colour, min_size=comb(m, 2), max_size=comb(m, 2)),
                     min_size=n, max_size=n),
            label="columns",
        )
        size = m * comb(n, 2)
        horizontal = data.draw(st.lists(colour, min_size=size, max_size=size))
        full = FullGridColoring(
            VerticalColoring.from_columns(m, n, r, columns), tuple(horizontal)
        )
        assert enumerate_alternating_rectangles(full) == brute_force_rectangles(full)

    def test_scan_of_the_100_square_row_index_colouring_is_fast(self):
        # every column pair agrees on all 4,950 row pairs; a per-bit walk takes ~25 s
        full = row_index_coloring(100, 100)
        start = time.perf_counter()
        assert enumerate_alternating_rectangles(full) == []
        assert time.perf_counter() - start < 2.0
