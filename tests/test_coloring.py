"""Exact colouring, goodness, and the extension equivalence."""

import hashlib
import random
from math import comb

import pytest
from helpers import brute_force_colourable, brute_force_rectangles, random_vertical
from hypothesis import given, settings
from hypothesis import strategies as st

from gridram import (
    AgreementGraph,
    NotGoodError,
    TooLargeError,
    VerticalColoring,
    agreement_graph,
    chromatic_at_most,
    enumerate_alternating_rectangles,
    extend_to_full,
    is_good,
    pair_rank,
)
from gridram.coloring import MAX_EXTENSION_EDGES


def graph_from_edges(m, edges) -> AgreementGraph:
    mask = 0
    for a, b in edges:
        mask |= 1 << pair_rank(a, b, m)
    return AgreementGraph(m, mask)


def assert_valid_witness(graph, witness, r):
    classes = witness.classes
    assert len(classes) <= r
    members = [row for cls_ in classes for row in cls_]
    assert sorted(members) == list(range(1, graph.m + 1))
    for cls_ in classes:
        for idx, a in enumerate(cls_):
            for b in cls_[idx + 1 :]:
                assert not graph.has_edge(a, b)


class TestChromaticAtMost:
    def test_empty_graph_single_class(self):
        witness = chromatic_at_most(AgreementGraph(5, 0), 1)
        assert witness is not None
        assert witness.classes == ((1, 2, 3, 4, 5),)

    def test_triangle_needs_three(self):
        k3 = graph_from_edges(3, [(1, 2), (1, 3), (2, 3)])
        assert chromatic_at_most(k3, 2) is None
        witness = chromatic_at_most(k3, 3)
        assert witness is not None
        assert_valid_witness(k3, witness, 3)

    def test_five_cycle(self):
        c5 = graph_from_edges(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
        assert chromatic_at_most(c5, 2) is None
        witness = chromatic_at_most(c5, 3)
        assert witness is not None
        assert_valid_witness(c5, witness, 3)

    def test_monotone_in_r(self):
        rng = random.Random(17)
        for _ in range(100):
            m = rng.randint(2, 7)
            mask = rng.getrandbits(comb(m, 2))
            graph = AgreementGraph(m, mask)
            for r in range(1, m):
                if chromatic_at_most(graph, r) is not None:
                    assert chromatic_at_most(graph, r + 1) is not None

    def test_witnesses_always_validate(self):
        rng = random.Random(19)
        for _ in range(200):
            m = rng.randint(2, 7)
            graph = AgreementGraph(m, rng.getrandbits(comb(m, 2)))
            for r in (2, 3):
                witness = chromatic_at_most(graph, r)
                if witness is not None:
                    assert_valid_witness(graph, witness, r)

    def test_deterministic(self):
        graph = graph_from_edges(6, [(1, 2), (2, 3), (4, 5), (5, 6), (1, 6)])
        assert chromatic_at_most(graph, 3) == chromatic_at_most(graph, 3)

    def test_witnesses_pinned(self):
        # certificates are built from these exact partitions, so any change
        # to the search order shows here
        digest = hashlib.sha256()
        for m, r in ((6, 2), (5, 3), (5, 4)):
            for mask in range(1 << comb(m, 2)):
                digest.update(repr(chromatic_at_most(AgreementGraph(m, mask), r)).encode())
        rng = random.Random(2024)
        for _ in range(500):
            m = rng.randint(1, 40)
            r = rng.randint(1, 9)
            mask = rng.getrandbits(comb(m, 2))
            for _ in range(rng.randint(0, 3)):
                mask &= rng.getrandbits(comb(m, 2))
            digest.update(repr(chromatic_at_most(AgreementGraph(m, mask), r)).encode())
        assert (
            digest.hexdigest()
            == "476a5ea5593b86a25b0f6caff20db95e1663069d6b49a043547b8f30d9159ebe"
        )

    def test_decisions_match_brute_force(self):
        for m in range(1, 6):
            for mask in range(1 << comb(m, 2)):
                graph = AgreementGraph(m, mask)
                for r in (2, 3):
                    witness = chromatic_at_most(graph, r)
                    assert (witness is not None) == brute_force_colourable(m, mask, r)


class TestIsGood:
    def test_disjoint_constant_columns_are_good(self):
        chi = VerticalColoring.from_columns(4, 2, 2, [[1] * 6, [2] * 6])
        report = is_good(chi)
        assert report.good and report.failing_pair is None

    def test_identical_columns_fail_above_r_rows(self):
        # agreement graph is K_{r+1}, not r-colourable
        chi = VerticalColoring.from_columns(3, 2, 2, [[1, 2, 1]] * 2)
        report = is_good(chi)
        assert not report.good
        assert report.failing_pair == (1, 2)

    def test_all_colour_one_pair_of_columns(self):
        # both columns constant c_1: agreement graph K_3 is not 2-colourable
        chi = VerticalColoring.from_columns(3, 2, 2, [[1, 1, 1], [1, 1, 1]])
        assert not is_good(chi).good

    def test_few_rows_always_good(self):
        # m <= r: singleton classes colour any agreement graph
        rng = random.Random(31)
        for _ in range(100):
            chi = random_vertical(rng, 3, 3, 3)
            assert is_good(chi).good

    def test_reports_first_failing_pair(self):
        col = [1, 2, 1]
        chi = VerticalColoring.from_columns(3, 3, 2, [[2, 1, 2], col, col])
        report = is_good(chi)
        assert not report.good
        assert report.failing_pair == (2, 3)


class TestExtension:
    def test_disjoint_columns_extend_with_one_class(self):
        chi = VerticalColoring.from_columns(4, 2, 2, [[1] * 6, [2] * 6])
        full = extend_to_full(chi)
        assert set(full.horizontal) == {1}
        assert enumerate_alternating_rectangles(full) == []

    def test_not_good_raises_with_pair(self):
        chi = VerticalColoring.from_columns(3, 2, 2, [[1, 1, 1], [1, 1, 1]])
        with pytest.raises(NotGoodError) as err:
            extend_to_full(chi)
        assert err.value.failing_pair == (1, 2)

    def test_extension_size_limit(self):
        # 1448 columns give C(1448, 2) = 1,047,628 edges, 1449 give 1,049,076
        assert comb(1448, 2) <= MAX_EXTENSION_EDGES < comb(1449, 2)
        full = extend_to_full(VerticalColoring.from_columns(1, 1448, 1, [[]] * 1448))
        assert len(full.horizontal) == comb(1448, 2)
        with pytest.raises(TooLargeError, match="extension limit"):
            extend_to_full(VerticalColoring.from_columns(1, 1449, 1, [[]] * 1449))

    def test_extension_equivalence_on_random_colourings(self):
        # extendible exactly when good; extensions never alternate
        rng = random.Random(37)
        goods = bads = 0
        for _ in range(300):
            chi = random_vertical(rng, 4, 4, 2)
            report = is_good(chi)
            if report.good:
                goods += 1
                assert enumerate_alternating_rectangles(extend_to_full(chi)) == []
            else:
                bads += 1
                with pytest.raises(NotGoodError):
                    extend_to_full(chi)
                graph = agreement_graph(chi, *report.failing_pair)
                assert chromatic_at_most(graph, chi.r) is None
        assert goods and bads

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_extension_soundness(self, data):
        # checked per rectangle, independently of the word-parallel scan
        m = data.draw(st.integers(1, 6), label="m")
        n = data.draw(st.integers(1, 5), label="n")
        r = data.draw(st.integers(1, 3), label="r")
        columns = data.draw(
            st.lists(
                st.lists(st.integers(1, r), min_size=comb(m, 2), max_size=comb(m, 2)),
                min_size=n, max_size=n,
            ),
            label="columns",
        )
        chi = VerticalColoring.from_columns(m, n, r, columns)
        report = is_good(chi)
        if report.good:
            full = extend_to_full(chi)
            assert full.vertical == chi
            assert brute_force_rectangles(full) == []
        else:
            with pytest.raises(NotGoodError) as err:
                extend_to_full(chi)
            assert err.value.failing_pair == report.failing_pair
