"""Oracle behaviour: equivalence, bounds, determinism, verification."""

import hashlib
import random
from collections import Counter
from math import comb
from time import perf_counter

import pytest
from helpers import random_full

from gridram import (
    G_exact,
    TooLargeError,
    enumerate_alternating_rectangles,
    g_exact_naive,
    g_exact_vertical,
    is_good,
    row_index_coloring,
    verify_text,
)
from gridram import certio, coloring, search
from gridram.search import MAX_NAIVE_EDGES

CELLS = [(m, n) for m in (1, 2, 3) for n in (1, 2, 3)] + [(2, 4), (2, 5)]


@pytest.fixture(scope="module")
def table():
    return {
        (m, n): (g_exact_naive(m, n), g_exact_vertical(m, n)) for m, n in CELLS
    }


class TestOracles:
    def test_no_rectangle_without_two_rows(self, table):
        for n in (1, 2, 3):
            naive, vertical = table[(1, n)]
            assert naive.value == vertical.value == 1

    def test_known_small_values(self, table):
        assert table[(2, 2)][0].value == 2
        assert table[(2, 3)][0].value == 2
        assert table[(3, 3)][0].value == 2

    def test_equivalence_everywhere(self, table):
        for cell, (naive, vertical) in table.items():
            assert naive.value == vertical.value, cell

    def test_certificates_verify(self, table):
        for naive, vertical in table.values():
            for result in (naive, vertical):
                assert result.certificate is not None
                assert enumerate_alternating_rectangles(result.certificate) == []
                assert result.certificate.r == result.value

    def test_trivial_upper_bound(self, table):
        for (m, n), (naive, _) in table.items():
            assert naive.value <= min(m, n)

    def test_monotone_in_both_sides(self, table):
        values = {cell: res[0].value for cell, res in table.items()}
        for (m, n), value in values.items():
            if (m + 1, n) in values:
                assert value <= values[(m + 1, n)]
            if (m, n + 1) in values:
                assert value <= values[(m, n + 1)]

    def test_r_cap_exhaustion_reports_none(self):
        result = g_exact_naive(2, 2, r_cap=1)
        assert result.value is None and result.certificate is None
        result = g_exact_vertical(2, 2, r_cap=1)
        assert result.value is None

    def test_naive_guard(self):
        with pytest.raises(TooLargeError):
            g_exact_naive(3, 4)  # 30 edges

    def test_naive_traversal_pinned(self):
        # value, node count and certificate of every grid inside the naive
        # envelope, at the default colour cap and at r_cap = 1, as one digest
        cells = [
            (m, n)
            for m in range(1, MAX_NAIVE_EDGES + 1)
            for n in range(1, MAX_NAIVE_EDGES + 1)
            if m * comb(n, 2) + n * comb(m, 2) <= MAX_NAIVE_EDGES
        ]
        assert len(cells) == 21
        digest = hashlib.sha256()
        for m, n in cells:
            for r_cap in (None, 1):
                result = g_exact_naive(m, n, r_cap)
                cert = certio.emit(result.certificate) if result.certificate else ""
                line = f"{m} {n} {r_cap} {result.value} {result.stats.nodes}\n"
                digest.update((line + cert).encode())
        pinned = "1630817a5da2090573722a3c765e01df0d094f30819f9049c52b753d21decd27"
        assert digest.hexdigest() == pinned

    def test_vertical_guard(self):
        with pytest.raises(TooLargeError):
            g_exact_vertical(9, 9)

    def test_vertical_traversal_pinned(self):
        # the node count fixes the candidate order and the symmetry breaking
        result = g_exact_vertical(5, 5)
        assert result.value == 2
        assert result.stats.nodes == 1531

    def test_vertical_small_envelope_pinned(self):
        # value and certificate of every 3..5 x 3..8 grid at both caps, as one digest
        digest = hashlib.sha256()
        for m in range(3, 6):
            for n in range(3, 9):
                for r_cap in (None, 2):
                    result = g_exact_vertical(m, n, r_cap)
                    digest.update(f"{m} {n} {r_cap} {result.value}\n".encode())
                    digest.update(certio.emit(result.certificate).encode())
        pinned = "9f241f6ec547d759a0d25e6c1157adb9ecfc5972850a1e9c2c3c2fe8d5496867"
        assert digest.hexdigest() == pinned

    @pytest.mark.parametrize(
        "m, n, nodes, digest",
        [
            (4, 9, 35262, "79be6eda4e1b702e1ff30b112c1432f6f56281afc2889aaccf78a3d2da22a668"),
            (3, 16, 271, "b3cb60b1184dd3b3d1eb189898f5c130d3f95e0b0ed222a810f3e5c1be516b02"),
        ],
    )
    def test_vertical_traversal_pinned_at_three_colours(self, m, n, nodes, digest):
        # at r = 3 the first-use colour rule rejects columns, so the node count
        # and the certificate pin which candidates are tested and which entered
        result = g_exact_vertical(m, n)
        assert result.value == 3
        assert result.stats.nodes == nodes
        assert hashlib.sha256(certio.emit(result.certificate).encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "m, n, r_cap, value, nodes, digest, solves",
        [
            (4, 9, 2, None, 35218, None, 65),
            (5, 7, 2, 2, 19874, "fafdd890f2e99fef575e769c3f3caf6708f480dde271226035ad62dfe29bb8f2", 1025),
            (6, 5, None, 2, 43930, "2bff1fe1fb54443ceced96575077c10405dfd5bbc3c66eebbe00f1e08099f4cf", 32769),
            (6, 2, None, 2, 1025, "cae6b7595081687290f0a74ec278275c33189db22d2ec9cc6a3f5e2c6dbf67b1", 1025),
            (5, 3, None, 2, 558, "45bc8c865d89a760549c83468bef824c7196d4188162e627b4fa1f47ff495699", 464),
        ],
    )
    def test_vertical_traversal_and_solves_pinned(
        self, monkeypatch, m, n, r_cap, value, nodes, digest, solves
    ):
        # the solve count pins which agreement graphs the search tests: 6x2 and
        # 5x3 find a colouring early, so testing candidates ahead of the
        # traversal would solve masks it never reaches
        calls = []
        solve = coloring.chromatic_at_most

        def counting(graph, r):
            calls.append(graph.mask)
            return solve(graph, r)

        monkeypatch.setattr(coloring, "_witness_cache", {})
        monkeypatch.setattr(coloring, "chromatic_at_most", counting)
        result = g_exact_vertical(m, n, r_cap)
        assert result.value == value
        assert result.stats.nodes == nodes
        if digest is None:
            assert result.certificate is None
        else:
            emitted = certio.emit(result.certificate).encode()
            assert hashlib.sha256(emitted).hexdigest() == digest
        assert len(calls) == solves

    @pytest.mark.parametrize("m, n, value, boundary", [(6, 6, 2, 43948), (4, 9, 3, 35217)])
    def test_vertical_node_budget_boundary(self, m, n, value, boundary):
        # the budget holds per colour count; `boundary` is the most candidates
        # one colour count tests (both at r = 2), so one less trips and it answers
        with pytest.raises(TooLargeError, match=rf"node budget \({boundary - 1}\) at r=2"):
            g_exact_vertical(m, n, node_budget=boundary - 1)
        assert g_exact_vertical(m, n, node_budget=boundary).value == value

    @pytest.mark.parametrize(
        "m, n, nodes, digest",
        [
            (5, 5, 247, "192a9ab45c82ff0747ce7c61031784c9a817c536dd988db4634a5dd47e72b198"),
            (5, 8, 706, "45077daa1dd6b747e87345cfa4d43bad4c6da1c00a380348c08556c39c51eedd"),
        ],
    )
    def test_first_use_rule_counting_at_three_colours(self, m, n, nodes, digest):
        # started at r = 3, the 5-row search moves column 2 past candidates the
        # first-use rule turns away (colour 3 before colour 2); they stay in the
        # streams for deeper columns, so they are tested and counted, not entered.
        # One call is one colour count, so its node count is its budget boundary.
        chi, counted = search._vertical_decision(m, n, 3, nodes)
        assert counted == nodes
        assert hashlib.sha256(certio.emit(chi).encode()).hexdigest() == digest
        with pytest.raises(TooLargeError, match=rf"node budget \({nodes - 1}\) at r=3"):
            search._vertical_decision(m, n, 3, nodes - 1)

    def test_vertical_tall_columns_at_one_colour(self):
        # r = 1 passes the column-space guard at any m, so a column of 1,035
        # row pairs must not recurse once per pair
        assert g_exact_vertical(46, 2, r_cap=1).value is None
        with pytest.raises(TooLargeError, match="column space"):
            g_exact_vertical(46, 2)

    @pytest.mark.parametrize("r_cap", [None, 1])
    def test_vertical_refuses_tall_grids_at_once(self, r_cap):
        # the row bound is checked before any table is built or graph solved
        start = perf_counter()
        with pytest.raises(TooLargeError, match="row limit"):
            g_exact_vertical(1000, 2, r_cap=r_cap)
        assert perf_counter() - start < 0.1

    def test_memo_keeps_only_the_latest_table(self):
        g_exact_vertical(6, 5)
        g_exact_vertical(4, 4)
        assert list(coloring._witness_cache) == [(4, 2)]

    def test_vertical_node_budget(self, monkeypatch):
        # the budget bounds the solves: no colour count solves more masks than it allows
        solves = Counter()
        solve = coloring.chromatic_at_most

        def counting(graph, r):
            solves[r] += 1
            return solve(graph, r)

        monkeypatch.setattr(coloring, "_witness_cache", {})
        monkeypatch.setattr(coloring, "chromatic_at_most", counting)
        with pytest.raises(TooLargeError, match=r"node budget \(1000\) at r=2"):
            g_exact_vertical(6, 6, node_budget=1000)
        assert 0 < solves[2] <= 1000 and max(solves.values()) <= 1000

    def test_vertical_node_budget_counts_tested_candidates(self):
        # 5x7 at r <= 2 tests 19,874 candidates; table indices it skips are not counted
        result = g_exact_vertical(5, 7, r_cap=2, node_budget=100_000)
        assert result.value == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            g_exact_naive(0, 1)
        with pytest.raises(ValueError):
            g_exact_vertical(2, 2, r_cap=0)


class TestDeterminism:
    def test_identical_certificates_across_runs(self):
        first = g_exact_vertical(3, 3)
        second = g_exact_vertical(3, 3)
        assert certio.emit(first.certificate) == certio.emit(second.certificate)


class TestGExact:
    def test_g1_is_two(self):
        assert G_exact(1, 4) == 2

    def test_none_when_cap_too_small(self):
        assert G_exact(1, 1) is None

    def test_lower_bound_certificates(self):
        # an r-colouring of the r x r grid with no alternating rectangle
        for r in (1, 2):
            full = row_index_coloring(r, r)
            assert full.r == r
            assert enumerate_alternating_rectangles(full) == []

    def test_inverse_relations_where_computed(self):
        g11 = g_exact_vertical(1, 1).value
        assert G_exact(g11, 4) >= 2
        g_at = g_exact_vertical(G_exact(1, 4) - 1, G_exact(1, 4) - 1).value
        assert g_at <= 1

    def test_envelope(self):
        with pytest.raises(TooLargeError):
            G_exact(3, 3)


class TestVerify:
    def test_row_index_certificate_valid(self):
        verdict = verify_text(certio.emit(row_index_coloring(3, 5)))
        assert verdict.kind == "full" and verdict.ok

    def test_all_one_invalid_with_rectangle_listed(self):
        from gridram import FullGridColoring, VerticalColoring

        vert = VerticalColoring.from_columns(2, 2, 1, [[1], [1]])
        verdict = verify_text(certio.emit(FullGridColoring(vert, (1, 1))))
        assert not verdict.ok
        assert [(r.rows, r.cols) for r in verdict.rectangles] == [((1, 2), (1, 2))]

    def test_vertical_certificates_report_goodness(self):
        rng = random.Random(179)
        full = random_full(rng, 3, 3, 2)
        verdict = verify_text(certio.emit(full.vertical))
        assert verdict.kind == "vertical"
        assert verdict.ok == is_good(full.vertical).good

    def test_search_certificates_round_trip(self, tmp_path):
        from gridram import verify_certificate

        result = g_exact_vertical(3, 3)
        path = tmp_path / "cert.txt"
        certio.save(result.certificate, path)
        assert verify_certificate(path).ok
