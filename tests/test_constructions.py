"""Row-index colouring, pigeonhole rectangle finding, refutation chain, parameters."""

import random
from math import comb

import pytest
from helpers import random_full, random_stabilised, replay_switches

from gridram import (
    FullGridColoring,
    PreconditionUnmetError,
    TheoremParams,
    TooLargeError,
    VerticalColoring,
    agreement_graph,
    chromatic_at_most,
    enumerate_alternating_rectangles,
    is_alternating,
    pair_rank,
    restrict_rows,
    row_index_coloring,
    shelah_find_rectangle,
    shelah_refute,
    theorem_params,
)


class TestRowIndexColoring:
    def test_two_by_two(self):
        full = row_index_coloring(2, 2)
        assert full.r == 2
        assert full.horizontal_color(1, 1, 2) == 1
        assert full.horizontal_color(2, 1, 2) == 2
        assert enumerate_alternating_rectangles(full) == []

    def test_single_row_grid(self):
        full = row_index_coloring(1, 4)
        assert enumerate_alternating_rectangles(full) == []

    @pytest.mark.parametrize("m,n", [(2, 3), (3, 3), (3, 5), (4, 6)])
    def test_never_alternates(self, m, n):
        assert enumerate_alternating_rectangles(row_index_coloring(m, n)) == []

    def test_wide_rows_rejected(self):
        with pytest.raises(ValueError):
            row_index_coloring(3, 2)


def _first_twins(full):
    """The lexicographically first identical column pair, then the first pair of
    rows whose horizontal edges between those columns share a colour; a plain
    loop over the stored colours, independent of gridram."""
    m, n = full.m, full.n
    cols = [col.colors for col in full.vertical.columns]
    i, j = next((i, j) for i in range(n) for j in range(i + 1, n) if cols[i] == cols[j])
    base = [(p, q) for p in range(n) for q in range(p + 1, n)].index((i, j)) * m
    row = full.horizontal[base : base + m]
    a, b = next((a, b) for a in range(m) for b in range(a + 1, m) if row[a] == row[b])
    return (a + 1, b + 1), (i + 1, j + 1)


class TestShelahFindRectangle:
    def test_one_colour_two_by_two(self):
        vert = VerticalColoring.from_columns(2, 2, 1, [[1], [1]])
        full = FullGridColoring(vert, (1, 1))
        rect = shelah_find_rectangle(full)
        assert rect.rows == (1, 2) and rect.cols == (1, 2)

    def test_constructed_double_pigeonhole(self):
        # columns 1 and 5 identical, horizontal rows 1 and 2 equal between them
        rng = random.Random(83)
        full = random_full(rng, 3, 9, 2)
        cols = [list(c.colors) for c in full.vertical.columns]
        cols = [[1, 2, 1]] + [[2, 2, 2], [2, 1, 2], [1, 1, 2]] + [[1, 2, 1]] + cols[5:]
        horizontal = list(full.horizontal)
        base = pair_rank(1, 5, 9) * 3
        horizontal[base + 0] = 1
        horizontal[base + 1] = 1
        # keep earlier column pairs distinct so (1, 5) is the first identical one
        vert = VerticalColoring.from_columns(3, 9, 2, cols)
        full = FullGridColoring(vert, tuple(horizontal))
        rect = shelah_find_rectangle(full)
        assert rect.cols == (1, 5)
        assert rect.rows == (1, 2)
        assert is_alternating(full, rect)

    def test_random_trials_always_find(self):
        rng = random.Random(89)
        for _ in range(500):
            full = random_full(rng, 3, 9, 2)
            rect = shelah_find_rectangle(full)
            assert is_alternating(full, rect)
            assert (rect.rows, rect.cols) == _first_twins(full)

    def test_precondition_unmet(self):
        rng = random.Random(97)
        with pytest.raises(PreconditionUnmetError):
            shelah_find_rectangle(random_full(rng, 2, 9, 2))  # m < r + 1
        with pytest.raises(PreconditionUnmetError):
            shelah_find_rectangle(random_full(rng, 3, 8, 2))  # n < r^3 + 1

    def test_precondition_too_long_to_print_is_stated_as_a_power(self):
        # 3^C(200,2) + 1 has 9,495 digits, past Python's int-to-str limit
        rng = random.Random(99)
        with pytest.raises(PreconditionUnmetError) as err:
            shelah_find_rectangle(random_full(rng, 200, 3, 3))
        assert str(err.value) == "need n >= r^C(m,2) + 1 = 3^19900 + 1 columns, have n=3"
        # a threshold short enough to print is still printed in full
        with pytest.raises(PreconditionUnmetError) as err:
            shelah_find_rectangle(random_full(rng, 3, 8, 2))
        assert str(err.value) == "need n >= r^C(m,2) + 1 = 9 columns, have n=8"


class TestShelahRefute:
    def test_one_colour_case(self):
        chi = VerticalColoring.from_columns(2, 2, 1, [[1], [1]])
        witness = shelah_refute(chi)
        assert witness.columns == (1, 2)
        assert chromatic_at_most(witness.graph, 1) is None

    def test_random_trials_validate(self):
        rng = random.Random(101)
        for _ in range(300):
            chi = random_stabilised(rng, 9, 3, 2, 1)
            witness = shelah_refute(chi)
            assert chromatic_at_most(witness.graph, 2) is None
            assert witness.columns[0] < witness.columns[1] <= 3

    def test_witness_stable_under_replay(self):
        rng = random.Random(103)
        for _ in range(100):
            chi = random_stabilised(rng, 9, 3, 2, 1)
            witness = shelah_refute(chi)
            replayed = replay_switches(chi, witness.switches)
            sub = restrict_rows(replayed, witness.rows)
            assert agreement_graph(sub, *witness.columns).mask == witness.graph.mask

    def test_planted_triangle_fails_first_step(self):
        # column 2 carries colour 1 on all pairs of {1, 2, 3}
        cols = [[1] * comb(9, 2)]
        planted = [2] * comb(9, 2)
        for a, b in [(1, 2), (1, 3), (2, 3)]:
            planted[pair_rank(a, b, 9)] = 1
        cols.append(planted)
        cols.append([2] * comb(9, 2))
        chi = VerticalColoring.from_columns(9, 3, 2, cols)
        witness = shelah_refute(chi)
        assert witness.columns == (1, 2)
        assert witness.graph.has_edge(1, 2)
        assert witness.graph.has_edge(1, 3)
        assert witness.graph.has_edge(2, 3)

    def test_preconditions(self):
        rng = random.Random(107)
        with pytest.raises(ValueError):
            shelah_refute(random_stabilised(rng, 8, 3, 2, 1))  # too few rows
        with pytest.raises(ValueError):
            shelah_refute(random_stabilised(rng, 9, 2, 2, 1))  # too few columns
        not_stab = VerticalColoring.from_columns(
            9, 3, 2, [[2] * comb(9, 2)] + [[1] * comb(9, 2)] * 2
        )
        with pytest.raises(ValueError):
            shelah_refute(not_stab)


class TestTheoremParams:
    def test_shelah_counts_colourings(self):
        # one more row than there are distinct r-colourings of K_{r+1}
        for r in range(1, 6):
            params = theorem_params(r, "shelah")
            assert params.m - 1 == r ** comb(r + 1, 2)
            assert params.n == r + 1

    def test_known_small_values(self):
        assert theorem_params(2, "shelah").m == 9
        assert theorem_params(2, "gyarfas").m == 7
        assert theorem_params(2, "thm1") == TheoremParams(9, 4)
        t2 = theorem_params(2, "thm2")
        assert (t2.m, t2.n) == (7, 9)

    def test_thm1_r4(self):
        params = theorem_params(4, "thm1")
        assert params.m == 4**10 - 4**6 + 1 == 1044481
        assert params.n == 4**10 // 2 == 524288
        assert not params.n_floored

    def test_prop_diag_r4(self):
        params = theorem_params(4, "prop_diag")
        assert params.m == 4**3 * (4**4 - 1) == 16320
        assert params.n == 524288

    def test_odd_r_floors_and_flags(self):
        params = theorem_params(3, "thm1")
        assert params.n == 3**6 // 2 == 364
        assert params.n_floored

    def test_prop_offdiag(self):
        params = theorem_params(2, "prop_offdiag")
        assert params.m == 2 * (4 - 1) == 6
        assert params.n == 6 + 2 + 1

    def test_validation(self):
        with pytest.raises(ValueError):
            theorem_params(2, "nope")
        with pytest.raises(ValueError):
            theorem_params(1, "thm1")
        with pytest.raises(ValueError):
            theorem_params(0, "shelah")

    def test_refuses_bounds_too_long_to_print(self):
        assert len(str(theorem_params(64, "shelah").m)) == 3757
        with pytest.raises(TooLargeError):
            theorem_params(70, "shelah")
