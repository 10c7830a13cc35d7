"""Certificate text format: canonical emission, strict parsing, diagnostics."""

import hashlib
import random
import time
import tracemalloc
from itertools import combinations
from math import comb

import pytest
from helpers import random_full, random_vertical
from hypothesis import given, settings
from hypothesis import strategies as st

from gridram import CertificateError, FullGridColoring, TooLargeError, VerticalColoring
from gridram import certio


def test_round_trip_vertical():
    rng = random.Random(151)
    for _ in range(50):
        chi = random_vertical(rng, rng.randint(1, 5), rng.randint(1, 5), 3)
        text = certio.emit(chi)
        parsed = certio.parse(text)
        assert isinstance(parsed, VerticalColoring)
        assert parsed == chi
        assert certio.emit(parsed) == text


def test_round_trip_full():
    rng = random.Random(157)
    for _ in range(50):
        full = random_full(rng, rng.randint(1, 4), rng.randint(1, 4), 3)
        text = certio.emit(full)
        parsed = certio.parse(text)
        assert isinstance(parsed, FullGridColoring)
        assert parsed == full
        assert certio.emit(parsed) == text


def test_comments_and_blank_lines_ignored():
    chi = VerticalColoring.from_columns(2, 1, 1, [[1]])
    text = certio.emit(chi)
    noisy = "# preamble\n\n" + text.replace("type vertical", "type vertical\n# note")
    assert certio.parse(noisy) == chi


def test_edge_order_is_irrelevant_to_parsing():
    rng = random.Random(163)
    full = random_full(rng, 3, 3, 2)
    lines = certio.emit(full).splitlines()
    header, edges = lines[:3], lines[3:]
    rng.shuffle(edges)
    assert certio.parse("\n".join(header + edges) + "\n") == full


def test_files_round_trip(tmp_path):
    rng = random.Random(167)
    full = random_full(rng, 2, 3, 2)
    path = tmp_path / "cert.txt"
    certio.save(full, path)
    assert certio.load(path) == full


class TestDiagnostics:
    def valid_text(self) -> str:
        rng = random.Random(173)
        return certio.emit(random_full(rng, 2, 3, 2))

    def test_missing_edge(self):
        lines = self.valid_text().splitlines()
        removed = next(i for i, line in enumerate(lines) if line.startswith("v 2"))
        text = "\n".join(lines[:removed] + lines[removed + 1 :]) + "\n"
        with pytest.raises(CertificateError) as err:
            certio.parse(text)
        assert "missing vertical edge" in str(err.value)
        assert err.value.line >= 1

    def test_missing_edge_named_exactly(self):
        # the first missing edge in emission order, reported at the last line
        lines = self.valid_text().splitlines()
        kept = [line for line in lines if line not in ("v 2 1 2 1", "v 2 1 2 2")]
        with pytest.raises(CertificateError) as err:
            certio.parse("\n".join(kept) + "\n")
        assert str(err.value) == f"line {len(kept)}: missing vertical edge: col 2 pair (1, 2)"
        kept = [line for line in lines if not line.startswith("h 2 2 3 ")]
        with pytest.raises(CertificateError) as err:
            certio.parse("\n".join(kept) + "\n")
        assert str(err.value) == f"line {len(kept)}: missing horizontal edge: row 2 pair (2, 3)"

    def test_header_alone_allocates_nothing_large(self):
        # memory follows the edge lines read, not the declared n*C(m,2) + m*C(n,2)
        tracemalloc.start()
        try:
            with pytest.raises(CertificateError) as err:
                certio.parse("gridram v1\ntype full\nm 200 n 200 r 2\n")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "missing vertical edge: col 1 pair (1, 2)" in str(err.value)
        assert err.value.line == 3
        assert peak < 2 * 2**20

    def test_one_row_header_shares_one_empty_column(self):
        # m = 1 columns have no edges, so three lines declare n of them and the
        # result holds n references; n above certio.MAX_COLUMNS is refused
        text = "gridram v1\ntype vertical\nm 1 n 1000000 r 1\n"
        start = time.perf_counter()
        chi = certio.parse(text)
        assert time.perf_counter() - start < 1.0
        assert chi.n == 1_000_000 and chi.column(1_000_000).colors == ()
        tracemalloc.start()
        try:
            certio.parse(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_column_limit(self):
        head = "gridram v1\ntype vertical\nm 1 n {} r 1\n"
        assert certio.parse(head.format(certio.MAX_COLUMNS)).n == certio.MAX_COLUMNS
        with pytest.raises(TooLargeError, match="certificate limit"):
            certio.parse(head.format(certio.MAX_COLUMNS + 1))

    def test_duplicate_edge(self):
        lines = self.valid_text().splitlines()
        dup = next(line for line in lines if line.startswith("h "))
        text = "\n".join(lines + [dup]) + "\n"
        with pytest.raises(CertificateError) as err:
            certio.parse(text)
        assert "duplicate" in str(err.value)
        assert err.value.line == len(lines) + 1

    def test_colour_out_of_range(self):
        lines = self.valid_text().splitlines()
        first_v = next(i for i, line in enumerate(lines) if line.startswith("v "))
        lines[first_v] = " ".join(lines[first_v].split()[:-1] + ["9"])
        with pytest.raises(CertificateError) as err:
            certio.parse("\n".join(lines) + "\n")
        assert "outside" in str(err.value)
        assert err.value.line == first_v + 1

    def test_bad_header(self):
        with pytest.raises(CertificateError) as err:
            certio.parse("gridram v2\ntype full\nm 1 n 1 r 1\n")
        assert err.value.line == 1

    def test_bad_type(self):
        with pytest.raises(CertificateError) as err:
            certio.parse("gridram v1\ntype diagonal\nm 1 n 1 r 1\n")
        assert err.value.line == 2

    def test_malformed_dimensions(self):
        with pytest.raises(CertificateError) as err:
            certio.parse("gridram v1\ntype vertical\nm one n 1 r 1\n")
        assert err.value.line == 3

    def test_horizontal_edge_in_vertical_certificate(self):
        text = certio.emit(VerticalColoring.from_columns(2, 2, 1, [[1], [1]]))
        with pytest.raises(CertificateError) as err:
            certio.parse(text + "h 1 1 2 1\n")
        assert "horizontal edge in a vertical certificate" in str(err.value)

    def test_reversed_pair_rejected(self):
        text = self.valid_text().replace("v 1 1 2 ", "v 1 2 1 ", 1)
        with pytest.raises(CertificateError):
            certio.parse(text)

    def test_empty_input(self):
        with pytest.raises(CertificateError):
            certio.parse("")


# Tokens that int() reads differently from their canonical decimal form, or
# rejects, or that change a line's token count.
_ODD_TOKENS = ("0", "-1", "x", "007", "+2", "\u0662", "2.0", "#", "3 4")


def _mutate(text: str, rng: random.Random) -> str:
    """One random edit: drop, repeat, pad or retoken a line, add noise, or a huge r."""
    lines = text.splitlines()
    at = rng.randrange(len(lines))
    kind = rng.randrange(6)
    if kind == 0:
        del lines[at]
    elif kind == 1:
        lines.insert(at, lines[at])
    elif kind == 2:
        lines.insert(at, rng.choice(("# note", "", "   ", "\t#")))
    elif kind == 3:
        sep = rng.choice(("\t", "  ", " \t"))
        lines[at] = sep + sep.join(lines[at].split(" ")) + rng.choice(("", " ", "\t"))
    elif kind == 4:
        tokens = lines[at].split() or [""]
        tokens[rng.randrange(len(tokens))] = rng.choice(_ODD_TOKENS)
        lines[at] = " ".join(tokens)
    else:
        dims = [i for i, line in enumerate(lines) if line.split()[:1] == ["m"]]
        if dims:
            lines[dims[0]] = " ".join(lines[dims[0]].split()[:-1] + ["1000000000000"])
        else:
            lines.insert(at, "m 2 n 2 r 1000000000000")
    return "\n".join(lines) + "\n"


def _outcome(text: str) -> str:
    """The emitted text of a parse, or its diagnostic with the line number."""
    try:
        return certio.emit(certio.parse(text))
    except CertificateError as err:
        return f"error {err.line}: {err}"


def _base_certificate(rng: random.Random) -> str:
    m, n, r = rng.randint(1, 5), rng.randint(1, 4), rng.randint(1, 3)
    build = random_full if rng.random() < 0.5 else random_vertical
    return certio.emit(build(rng, m, n, r))


def _draw_colouring(data) -> VerticalColoring | FullGridColoring:
    m = data.draw(st.integers(1, 7), label="m")
    n = data.draw(st.integers(1, 5), label="n")
    r = data.draw(st.integers(1, 4), label="r")
    colour = st.integers(1, r)
    columns = data.draw(
        st.lists(st.lists(colour, min_size=comb(m, 2), max_size=comb(m, 2)),
                 min_size=n, max_size=n),
        label="columns",
    )
    obj = VerticalColoring.from_columns(m, n, r, columns)
    if data.draw(st.booleans(), label="full"):
        size = m * comb(n, 2)
        horizontal = data.draw(st.lists(colour, min_size=size, max_size=size))
        obj = FullGridColoring(obj, tuple(horizontal))
    return obj


def _reference_emit(obj: VerticalColoring | FullGridColoring) -> str:
    """The canonical text built one edge at a time through the public lookups."""
    full = obj if isinstance(obj, FullGridColoring) else None
    chi = obj.vertical if full is not None else obj
    lines = [
        "gridram v1",
        f"type {'full' if full is not None else 'vertical'}",
        f"m {chi.m} n {chi.n} r {chi.r}",
    ]
    for col in range(1, chi.n + 1):
        for a, b in combinations(range(1, chi.m + 1), 2):
            lines.append(f"v {col} {a} {b} {chi.column(col).color(a, b)}")
    if full is not None:
        for a in range(1, chi.m + 1):
            for i, j in combinations(range(1, chi.n + 1), 2):
                lines.append(f"h {a} {i} {j} {full.horizontal_color(a, i, j)}")
    return "\n".join(lines) + "\n"


class TestProperties:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_parse_inverts_emit(self, data):
        obj = _draw_colouring(data)
        text = certio.emit(obj)
        assert certio.parse(text) == obj
        assert certio.emit(certio.parse(text)) == text

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_emit_equals_the_per_edge_reference(self, data):
        obj = _draw_colouring(data)
        assert certio.emit(obj) == _reference_emit(obj)

    @settings(max_examples=100, deadline=None)
    @given(rng=st.randoms(use_true_random=False), edits=st.integers(1, 3))
    def test_mutated_certificates_fail_only_with_certificate_error(self, rng, edits):
        text = _base_certificate(rng)
        for _ in range(edits):
            text = _mutate(text, rng)
        _outcome(text)  # any exception other than CertificateError propagates

    def test_mutation_corpus_outcomes_pinned(self):
        # 500 seeded mutated certificates; the digest was computed before the
        # one-pass parser replaced the line-list one, so every acceptance and
        # every diagnostic (message and line) is unchanged
        rng = random.Random(20261018)
        digest = hashlib.sha256()
        for _ in range(500):
            text = _base_certificate(rng)
            for _ in range(rng.randint(1, 2)):
                text = _mutate(text, rng)
            digest.update(_outcome(text).encode() + b"\0")
        assert digest.hexdigest() == (
            "4df103d34a6e4fb4cd7742c1c76686e4de9bb156c8c2797111edc58facb4b36a"
        )
