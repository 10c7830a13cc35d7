"""Independent reference code that judges gridram's outputs.

Nothing here imports gridram.  The benchmark writes its inputs with these
routines and checks the program's answers against them, so a defect in
gridram's own parser, emitter or verifier cannot make a wrong answer pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations


def pairs(k: int) -> list[tuple[int, int]]:
    """Unordered pairs of 1..k in lexicographic (rank) order."""
    return list(combinations(range(1, k + 1), 2))


@dataclass
class Cert:
    """A certificate held as plain lists.

    `v[c][rank]` is the colour of column c+1 at the rank-th row pair;
    `h[q][a]` is the colour of row a+1 between the q-th column pair, or
    `h` is None for a vertical certificate.
    """

    m: int
    n: int
    r: int
    v: list[list[int]]
    h: list[list[int]] | None = None


def write_text(cert: Cert) -> str:
    """Canonical gridram v1 text: vertical edges column-major, then horizontal row-major."""
    lines = [
        "gridram v1",
        f"type {'vertical' if cert.h is None else 'full'}",
        f"m {cert.m} n {cert.n} r {cert.r}",
    ]
    row_pairs = [f"{a} {b}" for a, b in pairs(cert.m)]
    for col, colours in enumerate(cert.v, start=1):
        lines.extend(f"v {col} {p} {c}" for p, c in zip(row_pairs, colours))
    if cert.h is not None:
        col_pairs = [f"{i} {j}" for i, j in pairs(cert.n)]
        for a in range(cert.m):
            lines.extend(f"h {a + 1} {p} {cert.h[q][a]}" for q, p in enumerate(col_pairs))
    return "\n".join(lines) + "\n"


def parse_text(text: str) -> Cert:
    """Strict reader of the certificate format; raises ValueError on any defect."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if len(lines) < 3 or lines[0] != "gridram v1":
        raise ValueError("bad certificate header")
    if lines[1] not in ("type vertical", "type full"):
        raise ValueError(f"bad type line {lines[1]!r}")
    tok = lines[2].split()
    if len(tok) != 6 or tok[0::2] != ["m", "n", "r"]:
        raise ValueError(f"bad dimensions line {lines[2]!r}")
    m, n, r = int(tok[1]), int(tok[3]), int(tok[5])
    rank = {p: k for k, p in enumerate(pairs(m))}
    col_rank = {p: k for k, p in enumerate(pairs(n))}
    v = [[0] * len(rank) for _ in range(n)]
    h = [[0] * m for _ in range(len(col_rank))] if lines[1] == "type full" else None
    for line in lines[3:]:
        kind, x, y, z, c = line.split()
        x, y, z, c = int(x), int(y), int(z), int(c)
        if not 1 <= c <= r:
            raise ValueError(f"colour out of range in {line!r}")
        if kind == "v":
            slot, k = v[x - 1], rank[(y, z)]
        elif kind == "h" and h is not None:
            slot, k = h[col_rank[(y, z)]], x - 1
        else:
            raise ValueError(f"unexpected line {line!r}")
        if slot[k]:
            raise ValueError(f"duplicate edge {line!r}")
        slot[k] = c
    if any(0 in col for col in v) or (h is not None and any(0 in row for row in h)):
        raise ValueError("missing edge")
    return Cert(m, n, r, v, h)


def rectangles(cert: Cert) -> list[tuple[int, int, int, int]]:
    """Every alternating rectangle (a, b, i, j), sorted, by a plain scan."""
    assert cert.h is not None
    found = []
    row_pairs = pairs(cert.m)
    for q, (i, j) in enumerate(pairs(cert.n)):
        vi, vj, hq = cert.v[i - 1], cert.v[j - 1], cert.h[q]
        for k, (a, b) in enumerate(row_pairs):
            if vi[k] == vj[k] and hq[a - 1] == hq[b - 1]:
                found.append((a, b, i, j))
    found.sort()
    return found


def agreement_adjacency(col_a: list[int], col_b: list[int], m: int, rows=None) -> list[set[int]]:
    """Adjacency sets (0-based positions in `rows`) of the rows where two columns agree."""
    rows = list(range(1, m + 1)) if rows is None else list(rows)
    rank = {p: k for k, p in enumerate(pairs(m))}
    adj: list[set[int]] = [set() for _ in rows]
    for s, t in combinations(range(len(rows)), 2):
        k = rank[(rows[s], rows[t])]
        if col_a[k] == col_b[k]:
            adj[s].add(t)
            adj[t].add(s)
    return adj


def greedy_colouring(adj: list[set[int]]) -> list[int]:
    """A proper colouring (colours 1, 2, ...) by first fit in decreasing degree order."""
    colour = [0] * len(adj)
    for v in sorted(range(len(adj)), key=lambda u: -len(adj[u])):
        taken = {colour[w] for w in adj[v]}
        colour[v] = next(c for c in range(1, len(adj) + 2) if c not in taken)
    return colour


def find_clique(adj: list[set[int]], size: int) -> list[int] | None:
    """Some clique of the given size, or None, by plain backtracking."""

    def grow(clique: list[int], cands: set[int]) -> list[int] | None:
        if len(clique) == size:
            return clique
        for v in sorted(cands):
            got = grow(clique + [v], {u for u in cands & adj[v] if u > v})
            if got:
                return got
        return None

    return grow([], set(range(len(adj))))


# --- the named bound formulas, as stated in the theorem_params docstring ---


def bound_row(r: int) -> list[int]:
    """shelah, gyarfas, thm1_m, thm1_n, thm2_m, thm2_n at one r."""
    big = r ** math.comb(r + 1, 2)
    return [
        big + 1,
        big - r ** (math.comb(r - 1, 2) + 1) + 1,
        big - (r // 4) * r ** math.comb(r, 2) + 1,
        big // 2,
        big - r ** math.comb(r, 2) + 1,
        r ** (r - 1) * (r**r - 1) + r + 1,
    ]


def diag_inequality(r: int) -> tuple[bool, int, int, int, int]:
    """satisfied, lhs_m, lhs_m_plus_1, margin_m, margin_m_plus_1.

    sum_{i <= floor(r/4)} C(M, i) + r - 1 < r^C(r+1,2) / 2 for M = m and
    M = m + 1, where m = r^(r-1) * (r^r - floor(r/4)); margins are floored.
    """
    q = r // 4
    m = r ** (r - 1) * (r**r - q)
    lhs = [sum(math.comb(big_m, i) for i in range(q + 1)) + r - 1 for big_m in (m, m + 1)]
    rhs2 = r ** math.comb(r + 1, 2)
    ok = all(2 * x < rhs2 for x in lhs)
    return ok, lhs[0], lhs[1], rhs2 // 2 - lhs[0], rhs2 // 2 - lhs[1]
