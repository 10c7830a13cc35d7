"""The benchmark's workloads: seeded inputs, job lists and answer checks.

Each workload is a fixed list of gridram CLI jobs.  The seed orders the list
and draws the random certificates; gridram sees only the generated files.
Every check judges an answer with the independent code in `reference`, or
against a known value, never with gridram's own verifier.
"""

from __future__ import annotations

import random
import re
import sys
from dataclasses import dataclass, field
from functools import cache
from math import comb
from pathlib import Path
from typing import Callable

import reference as ref
from reference import Cert


@dataclass(frozen=True)
class Output:
    """What one job left behind: exit code, standard streams, extra files it wrote."""

    rc: int
    stdout: str
    stderr: str
    files: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class Job:
    """One CLI invocation and the check that judges its answer.

    `check` returns None for a right answer and a reason otherwise.  `canary`
    holds the exact per-job (search.nodes, coloring.solves) of a search job.
    """

    kind: str
    argv: tuple[str, ...]
    check: Callable[[Output], str | None]
    extra_outputs: tuple[str, ...] = ()
    canary: tuple[int, int] | None = None

    @property
    def subcommand(self) -> str:
        return self.argv[0]


@dataclass(frozen=True)
class Workload:
    jobs: list[Job]
    write_inputs: Callable[[], None]
    probe: Job | None = None


def _rng(seed: int, label: str) -> random.Random:
    return random.Random(f"{seed}:{label}")


# --- input generators ---------------------------------------------------------


def row_index(m: int, n: int) -> Cert:
    """Vertical colour 1 everywhere, horizontal colour a on row a: valid with r = m."""
    return Cert(m, n, m, [[1] * comb(m, 2) for _ in range(n)],
                [list(range(1, m + 1)) for _ in range(comb(n, 2))])


def random_vertical(rng: random.Random, m: int, n: int, r: int, stabilised: bool) -> Cert:
    """Uniform colours; column 1 constant 1 when `stabilised`."""
    v = [[1] * comb(m, 2)] if stabilised else []
    colours = range(1, r + 1)
    while len(v) < n:
        v.append(rng.choices(colours, k=comb(m, 2)))
    return Cert(m, n, r, v)


def random_full(rng: random.Random, m: int, n: int, r: int) -> Cert:
    cert = random_vertical(rng, m, n, r, stabilised=False)
    cert.h = [rng.choices(range(1, r + 1), k=m) for _ in range(comb(n, 2))]
    return cert


@cache
def good_vertical(seed: int) -> tuple[Cert, Cert]:
    """A random 40x40 r=8 vertical colouring whose agreement graphs greedily 8-colour,
    with the full extension those colourings give (valid by construction)."""
    rng = _rng(seed, "good40")
    while True:
        vert = random_vertical(rng, 40, 40, 8, stabilised=False)
        h = []
        for i, j in ref.pairs(40):
            adj = ref.agreement_adjacency(vert.v[i - 1], vert.v[j - 1], 40)
            colour = ref.greedy_colouring(adj)
            if max(colour) > 8:
                break
            h.append(colour)
        else:
            return vert, Cert(40, 40, 8, vert.v, h)


def planted(seed: int, k: int) -> Cert:
    """A 1-stabilised 120x4 r=3 colouring whose column 2 uses colour 1 only
    between three planted row classes of 40, and inside each class colours
    exactly half its pairs 2 and half 3, so one stabilisation step succeeds."""
    rng = _rng(seed, f"planted{k}")
    rows = list(range(1, 121))
    rng.shuffle(rows)
    cls = {row: pos // 40 for pos, row in enumerate(rows)}
    inside = []
    for _ in range(3):
        pool = [2, 3] * (comb(40, 2) // 2)
        rng.shuffle(pool)
        inside.append(pool)
    col2 = []
    for a, b in ref.pairs(120):
        col2.append(inside[cls[a]].pop() if cls[a] == cls[b] else rng.choice((1, 2, 3)))
    cert = random_vertical(rng, 120, 2, 3, stabilised=True)
    cert.v[1] = col2
    cert.v.extend(random_vertical(rng, 120, 2, 3, stabilised=False).v)
    cert.n = 4
    return cert


def refute_input(seed: int) -> Cert:
    """A random 1-stabilised r=3 colouring with r^C(r+1,2) + 1 = 730 rows and 4 columns."""
    return random_vertical(_rng(seed, "refute"), 730, 4, 3, stabilised=True)


def shelah_input(seed: int) -> Cert:
    """A random full 4x65 r=2 colouring: wide enough for the double pigeonhole."""
    return random_full(_rng(seed, "shelah"), 4, 65, 2)


# --- checks ---------------------------------------------------------------------


def _expect(out: Output, rc: int, stdout: str | None = None) -> str | None:
    if out.rc != rc:
        return f"exit {out.rc}, expected {rc}: {out.stderr.strip()[-200:]}"
    if stdout is not None and out.stdout != stdout:
        return f"stdout {out.stdout[:120]!r} differs from {stdout[:120]!r}"
    return None


def _check_search_cert(out: Output, m: int, n: int, r: int) -> str | None:
    """g = r, shown by a full certificate with no alternating rectangle."""
    if out.rc != 0 or out.stderr.strip().splitlines()[-1:] != [f"g={r} oracle=vertical"]:
        return f"exit {out.rc}, summary {out.stderr.strip()[-120:]!r}, expected g={r}"
    cert = ref.parse_text(out.stdout)
    if (cert.m, cert.n, cert.r) != (m, n, r) or cert.h is None:
        return f"certificate is {cert.m}x{cert.n} r={cert.r}, expected a full {m}x{n} r={r}"
    rects = ref.rectangles(cert)
    return f"certificate has {len(rects)} alternating rectangles" if rects else None


def _search_g(m: int, n: int, r_cap: int | None, canary: tuple[int, int], found: bool) -> Job:
    argv = ["search-g", "--m", str(m), "--n", str(n), "--oracle", "vertical"]
    if r_cap is not None:
        argv += ["--r-cap", str(r_cap)]
    if found:
        argv += ["--emit", "-"]
        check = lambda out: _check_search_cert(out, m, n, 2)  # noqa: E731
    else:
        check = lambda out: _expect(out, 0, "g=none oracle=vertical\n")  # noqa: E731
    return Job(f"search-g-{m}x{n}", tuple(argv), check, canary=canary)


def _verify_reply(rects: list[tuple[int, int, int, int]]) -> tuple[int, str]:
    if not rects:
        return 0, "valid: no alternating rectangle\n"
    lines = [f"invalid: {len(rects)} alternating rectangle(s)"]
    lines += [f"rect rows=({a},{b}) cols=({i},{j})" for a, b, i, j in rects]
    return 1, "\n".join(lines) + "\n"


def _verify_job(kind: str, path: Path, make: Callable[[], Cert]) -> Job:
    def check(out: Output) -> str | None:
        return _expect(out, *_verify_reply(ref.rectangles(make())))

    return Job(kind, ("verify", "--input", str(path)), check)


def _check_extend(out: Output, seed: int) -> str | None:
    if out.rc != 0:
        return _expect(out, 0)
    vert, _ = good_vertical(seed)
    cert = ref.parse_text(out.stdout)
    if cert.h is None or (cert.m, cert.n, cert.r) != (vert.m, vert.n, vert.r) or cert.v != vert.v:
        return "extension does not keep the input's vertical colouring"
    rects = ref.rectangles(cert)
    return f"extension has {len(rects)} alternating rectangles" if rects else None


def _check_refute(out: Output, seed: int, log: str) -> str | None:
    """The witness pair's agreement graph, rebuilt from the input and the logged
    switches, has the printed edge count and contains K4, so it is not 3-colourable."""
    if out.rc != 0:
        return _expect(out, 0)
    got = re.fullmatch(r"i=(\d+) j=(\d+) rows=([\d,]+) agreement_edges=(\d+)\n", out.stdout)
    if got is None:
        return f"unexpected refute output {out.stdout[:120]!r}"
    i, j, edges = int(got[1]), int(got[2]), int(got[4])
    rows = [int(x) for x in got[3].split(",")]
    cert = refute_input(seed)
    rank = {p: k for k, p in enumerate(ref.pairs(cert.m))}
    for line in out.files[log].splitlines():
        _, a, b, c, d = line.split()
        k = rank[(int(a), int(b))]
        for col in cert.v:
            col[k] = {int(c): int(d), int(d): int(c)}.get(col[k], col[k])
    adj = ref.agreement_adjacency(cert.v[i - 1], cert.v[j - 1], cert.m, rows)
    if sum(map(len, adj)) // 2 != edges:
        return f"witness graph has {sum(map(len, adj)) // 2} edges, output says {edges}"
    if ref.find_clique(adj, cert.r + 1) is None:
        return f"no K{cert.r + 1} found in the witness graph"
    return None


def _check_stabilise(out: Output, cert: Cert) -> str | None:
    """Kept rows are independent in column 2's colour-1 graph and hold at least
    ceil(m / r) rows; the output is the input restricted to them after swapping
    colour 2 with column 2's colour at every kept pair."""
    if out.rc != 0:
        return _expect(out, 0)
    got = re.fullmatch(r"stabilised to level 2, kept rows ([\d,]+)", out.stderr.strip())
    if got is None:
        return f"unexpected stabilise summary {out.stderr[-120:]!r}"
    kept = [int(x) for x in got[1].split(",")]
    if len(kept) < -(-cert.m // cert.r) or kept != sorted(set(kept)):
        return f"kept rows {kept} are too few or unsorted"
    rank = {p: k for k, p in enumerate(ref.pairs(cert.m))}
    want = [[] for _ in cert.v]
    for s, t in ref.pairs(len(kept)):
        k = rank[(kept[s - 1], kept[t - 1])]
        c2 = cert.v[1][k]
        if c2 == 1:
            return f"rows {kept[s - 1]} and {kept[t - 1]} are joined by colour 1 in column 2"
        swap = {2: c2, c2: 2}
        for col, dst in zip(cert.v, want):
            dst.append(swap.get(col[k], col[k]))
    expected = ref.write_text(Cert(len(kept), cert.n, cert.r, want))
    return None if out.stdout == expected else "stabilised certificate differs from the reference"


def _check_shelah(out: Output, cert: Cert) -> str | None:
    if out.rc != 0:
        return _expect(out, 0)
    got = re.fullmatch(r"a=(\d+) b=(\d+) i=(\d+) j=(\d+)\n", out.stdout)
    if got is None:
        return f"unexpected shelah-find output {out.stdout[:120]!r}"
    a, b, i, j = map(int, got.groups())
    if not (1 <= a < b <= cert.m and 1 <= i < j <= cert.n):
        return f"rectangle {(a, b, i, j)} is out of range"
    if (a, b, i, j) not in ref.rectangles(cert):
        return f"rectangle {(a, b, i, j)} does not alternate"
    return None


def _bounds_table(r_max: int) -> str:
    lines = ["r\tshelah\tgyarfas\tthm1_m\tthm1_n\tthm2_m\tthm2_n\tdiag_ineq_ok"]
    for r in range(2, r_max + 1):
        row = [str(r)] + [str(x) for x in ref.bound_row(r)]
        lines.append("\t".join(row + ["true" if ref.diag_inequality(r)[0] else "false"]))
    return "\n".join(lines) + "\n"


def _ineq_lines(r_max: int) -> str:
    lines = []
    for r in range(2, r_max + 1):
        ok, lhs, lhs1, margin, margin1 = ref.diag_inequality(r)
        lines.append(
            f"r={r} satisfied={'true' if ok else 'false'} lhs_m={lhs} lhs_m_plus_1={lhs1} "
            f"margin_m={margin} margin_m_plus_1={margin1}"
        )
    return "\n".join(lines) + "\n"


def _check_header(out: Output) -> str | None:
    """A header promising a 200x200 grid with no edges is rejected with a line number."""
    if out.stderr.startswith("gridram: error: line"):
        return _expect(out, 1, "")
    return f"no line diagnostic in {out.stderr[:120]!r}"


def _check_r70(out: Output) -> str | None:
    """Exit 0 with the exact value, or an envelope refusal; anything else is the defect."""
    if out.rc == 2 and "too large" in out.stderr:
        return None
    if out.rc != 0:
        return _expect(out, 0)
    sys.set_int_max_str_digits(0)  # this runs in a checker process, never in a job
    return _expect(out, 0, f"m={70 ** comb(71, 2) + 1} n=71\n")


# --- workloads ------------------------------------------------------------------


def _write(path: Path, cert: Cert) -> None:
    path.write_text(ref.write_text(cert), encoding="utf-8")


def search_square(seed: int, work: Path) -> Workload:
    jobs = [
        Job("search-G-r2-n6", ("search-G", "--r", "2", "--n-cap", "6"),
            lambda out: _expect(out, 0, "G=none n_cap=6\n"), canary=(113_114, 33_833)),
        _search_g(6, 6, None, (111_681, 32_769), found=True),
        _search_g(6, 5, None, (108_525, 32_769), found=True),
    ]
    return Workload(jobs, lambda: None)


def search_wide(seed: int, work: Path) -> Workload:
    # Two exhaustive 4x9 jobs per 5x7 keep the job median inside one job kind.
    exhaust = _search_g(4, 9, 2, (94_807, 65), found=False)
    jobs = [exhaust, exhaust, _search_g(5, 7, 2, (320_557, 1_025), found=True)]
    return Workload(jobs, lambda: None)


def certs(seed: int, work: Path) -> Workload:
    names = ("rowindex50", "ext40", "random40", "vert40", "header200")
    files = {name: work / f"{name}.txt" for name in names}

    def write_inputs() -> None:
        vert, ext = good_vertical(seed)
        _write(files["rowindex50"], row_index(50, 50))
        _write(files["ext40"], ext)
        _write(files["random40"], random_full(_rng(seed, "random40"), 40, 40, 4))
        _write(files["vert40"], vert)
        files["header200"].write_text("gridram v1\ntype full\nm 200 n 200 r 2\n", encoding="utf-8")

    # Two valid sparse verifies keep the job median inside that job kind.
    ext = _verify_job("verify-ext40", files["ext40"], lambda: good_vertical(seed)[1])
    jobs = [
        _verify_job("verify-rowindex50", files["rowindex50"], lambda: row_index(50, 50)),
        ext,
        ext,
        _verify_job("verify-random40", files["random40"],
                    lambda: random_full(_rng(seed, "random40"), 40, 40, 4)),
        Job("extend-vert40", ("extend", "--input", str(files["vert40"])),
            lambda out: _check_extend(out, seed)),
        Job("make-lower50", ("make-lower", "--m", "50", "--n", "50"),
            lambda out: _expect(out, 0, ref.write_text(row_index(50, 50)))),
        Job("verify-header200", ("verify", "--input", str(files["header200"])), _check_header),
    ]
    return Workload(jobs, write_inputs)


def proofs(seed: int, work: Path) -> Workload:
    refute_path, log = work / "refute730.txt", str(work / "refute730.switches")
    planted_paths = [work / f"planted{k}.txt" for k in range(3)]
    shelah_path = work / "shelah4x65.txt"

    def write_inputs() -> None:
        _write(refute_path, refute_input(seed))
        for k, path in enumerate(planted_paths):
            _write(path, planted(seed, k))
        _write(shelah_path, shelah_input(seed))

    jobs = [
        Job("refute730", ("refute", "--input", str(refute_path), "--log-switches", log),
            lambda out: _check_refute(out, seed, log), extra_outputs=(log,)),
        *(
            Job(f"stabilise-step1-planted{k}", ("stabilise", "--input", str(path), "--step", "1"),
                lambda out, k=k: _check_stabilise(out, planted(seed, k)))
            for k, path in enumerate(planted_paths)
        ),
        Job("shelah-find-4x65", ("shelah-find", "--input", str(shelah_path)),
            lambda out: _check_shelah(out, shelah_input(seed))),
        Job("bounds-rmax64", ("bounds", "--r-max", "64"),
            lambda out: _expect(out, 0, _bounds_table(64))),
        Job("check-ineq-rmax64", ("check-ineq", "--r-max", "64"),
            lambda out: _expect(out, 0, _ineq_lines(64))),
    ]
    probe = Job("bounds-r70-shelah", ("bounds", "--r", "70", "--which", "shelah"), _check_r70)
    return Workload(jobs, write_inputs, probe)


WORKLOADS: dict[str, Callable[[int, Path], Workload]] = {
    "search-square": search_square,
    "search-wide": search_wide,
    "certs": certs,
    "proofs": proofs,
}


def build(name: str, seed: int, work: Path) -> Workload:
    """The workload's jobs in seed order."""
    workload = WORKLOADS[name](seed, work)
    _rng(seed, "order").shuffle(workload.jobs)
    return workload
