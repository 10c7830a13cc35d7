"""Certificates checked in under tests/data, each pinned by independent checks.

g2_7x7_r2.txt is a full 2-colouring of the 7x7 grid with no alternating
rectangle, so G(2) >= 8.  Its columns' colour-2 masks over pair ranks are
COLOUR_2_MASKS; the horizontal edges are `extend_to_full` of that vertical
colouring.
"""

from pathlib import Path

from gridram import FullGridColoring, certio, extend_to_full
from gridram.cli import main

DATA = Path(__file__).parent / "data"
G2_7X7 = DATA / "g2_7x7_r2.txt"
COLOUR_2_MASKS = [0, 380275, 714650, 996198, 1276329, 1482255, 1692373]


def count_rectangles_by_hand(text: str) -> tuple[int, int, int]:
    """(vertical edges, horizontal edges, alternating rectangles), read without gridram."""
    lines = text.splitlines()
    _, m, _, n, _, _ = lines[2].split()
    m, n = int(m), int(n)
    v, h = {}, {}
    for line in lines[3:]:
        kind, x, p, q, c = line.split()
        (v if kind == "v" else h)[int(x), int(p), int(q)] = int(c)
    count = 0
    for a in range(1, m + 1):
        for b in range(a + 1, m + 1):
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    if v[i, a, b] == v[j, a, b] and h[a, i, j] == h[b, i, j]:
                        count += 1
    return len(v), len(h), count


def test_7x7_r2_is_the_extension_of_the_stated_columns():
    text = G2_7X7.read_text(encoding="utf-8")
    full = certio.parse(text)
    assert isinstance(full, FullGridColoring)
    assert (full.m, full.n, full.r) == (7, 7, 2)
    masks = [full.vertical.column(k).color_masks.get(2, 0) for k in range(1, 8)]
    assert masks == COLOUR_2_MASKS
    assert certio.emit(extend_to_full(full.vertical)) == text


def test_7x7_r2_verifies(capsys):
    code = main(["verify", "--input", str(G2_7X7)])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == "valid: no alternating rectangle\n"


def test_7x7_r2_has_no_rectangle_by_brute_force():
    # 7 columns x C(7,2) row pairs vertical, 7 rows x C(7,2) column pairs horizontal
    assert count_rectangles_by_hand(G2_7X7.read_text(encoding="utf-8")) == (147, 147, 0)
