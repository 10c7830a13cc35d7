"""CLI contract: wiring, output shapes, exit codes, pipelines."""

import hashlib
import io
import random
import time

import pytest
from helpers import random_stabilised

from gridram import VerticalColoring, certio, coloring
from gridram.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def good_vertical_text() -> str:
    chi = VerticalColoring.from_columns(3, 3, 2, [[1, 1, 1], [1, 1, 2], [2, 2, 2]])
    return certio.emit(chi)


def test_bounds_single(capsys):
    code, out, _ = run(capsys, "bounds", "--r", "2", "--which", "thm2")
    assert code == 0
    assert out == "m=7 n=9\n"


def test_bounds_flags_floored_n(capsys):
    code, out, _ = run(capsys, "bounds", "--r", "3", "--which", "thm1")
    assert code == 0
    assert out == "m=730 n=364 n_floored=true\n"


def test_bounds_table_header(capsys):
    code, out, _ = run(capsys, "bounds", "--r-max", "3")
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "r\tshelah\tgyarfas\tthm1_m\tthm1_n\tthm2_m\tthm2_n\tdiag_ineq_ok"
    assert lines[1].startswith("2\t9\t7\t9\t4\t7\t9\t")


def test_bounds_requires_arguments(capsys):
    code, _, err = run(capsys, "bounds")
    assert code == 1
    assert "error" in err


def test_search_g_both(capsys):
    code, out, _ = run(capsys, "search-g", "--m", "2", "--n", "2", "--oracle", "both")
    assert code == 0
    assert out == "g=2 oracles_agree=true\n"


def test_search_g_default_oracle_follows_the_naive_guard(capsys):
    # 2x2 has 4 edges, so both oracles run; 6x6 has 180, beyond the naive
    # guard, so the vertical oracle answers alone
    code, out, _ = run(capsys, "search-g", "--m", "2", "--n", "2")
    assert (code, out) == (0, "g=2 oracles_agree=true\n")
    code, out, _ = run(capsys, "search-g", "--m", "6", "--n", "6")
    assert (code, out) == (0, "g=2 oracle=vertical\n")


def test_search_g_single_oracle_tsv(capsys):
    code, out, _ = run(
        capsys, "search-g", "--m", "2", "--n", "3", "--oracle", "naive",
        "--format", "tsv",
    )
    assert code == 0
    assert out == "g\toracle\n2\tnaive\n"


def test_search_g_emits_verifiable_certificate(capsys, tmp_path):
    path = tmp_path / "cert.txt"
    code, _, _ = run(
        capsys, "search-g", "--m", "3", "--n", "3", "--emit", str(path)
    )
    assert code == 0
    code, out, _ = run(capsys, "verify", "--input", str(path))
    assert code == 0
    assert out == "valid: no alternating rectangle\n"


def test_search_g_emit_to_stdout_stays_parseable(capsys):
    code, out, err = run(capsys, "search-g", "--m", "2", "--n", "2", "--emit", "-")
    assert code == 0
    assert certio.emit(certio.parse(out)) == out
    assert "oracles_agree=true" in err


def test_search_G(capsys):
    code, out, _ = run(capsys, "search-G", "--r", "1", "--n-cap", "4")
    assert code == 0
    assert out == "G=2\n"
    code, out, _ = run(capsys, "search-G", "--r", "1", "--n-cap", "1")
    assert code == 0
    assert out == "G=none n_cap=1\n"


def test_make_lower_pipe_to_verify(capsys, monkeypatch, tmp_path):
    code, out, _ = run(capsys, "make-lower", "--m", "2", "--n", "2")
    assert code == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(out))
    code, out, _ = run(capsys, "verify", "--input", "-")
    assert code == 0
    assert out == "valid: no alternating rectangle\n"


def test_make_lower_rejects_wide_rows(capsys):
    code, _, err = run(capsys, "make-lower", "--m", "3", "--n", "2")
    assert code == 1
    assert "transpose" in err


def test_verify_invalid_full_lists_rectangles(capsys, tmp_path):
    text = "gridram v1\ntype full\nm 2 n 2 r 1\nv 1 1 2 1\nv 2 1 2 1\nh 1 1 2 1\nh 2 1 2 1\n"
    path = tmp_path / "bad.txt"
    path.write_text(text)
    code, out, _ = run(capsys, "verify", "--input", str(path))
    assert code == 1
    assert "invalid: 1 alternating rectangle(s)" in out
    assert "rect rows=(1,2) cols=(1,2)" in out


def test_verify_parse_error_has_line_number(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("gridram v1\ntype full\nm 2 n 2 r 1\nv 1 1 2 9\n")
    code, _, err = run(capsys, "verify", "--input", str(path))
    assert code == 1
    assert "line 4" in err


def test_extend_pipeline(capsys, tmp_path):
    path = tmp_path / "vert.txt"
    path.write_text(good_vertical_text())
    code, out, _ = run(capsys, "extend", "--input", str(path))
    assert code == 0
    assert certio.emit(certio.parse(out)) == out
    full_path = tmp_path / "full.txt"
    full_path.write_text(out)
    code, out, _ = run(capsys, "verify", "--input", str(full_path))
    assert code == 0


def test_extend_rejects_not_good(capsys, tmp_path):
    chi = VerticalColoring.from_columns(3, 2, 2, [[1, 1, 1], [1, 1, 1]])
    path = tmp_path / "vert.txt"
    path.write_text(certio.emit(chi))
    code, _, err = run(capsys, "extend", "--input", str(path))
    assert code == 1
    assert "(1, 2)" in err


def test_verify_one_row_wide_header_is_immediate(capsys, tmp_path):
    # one row has no row pair, so all C(3000, 2) agreement graphs are edgeless
    path = tmp_path / "vert.txt"
    path.write_text("gridram v1\ntype vertical\nm 1 n 3000 r 1\n")
    start = time.perf_counter()
    code, out, _ = run(capsys, "verify", "--input", str(path))
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert out == "valid: good vertical colouring\n"


def test_extend_one_row_wide_header_skips_the_oracle(capsys, monkeypatch, tmp_path):
    # every horizontal edge takes label 1; stdout as the per-pair extension wrote it
    def no_lookup(graph, r):
        raise AssertionError("one row needs no per-pair colouring")

    monkeypatch.setattr(coloring, "cached_chromatic_at_most", no_lookup)
    path = tmp_path / "vert.txt"
    path.write_text("gridram v1\ntype vertical\nm 1 n 1000 r 1\n")
    code, out, _ = run(capsys, "extend", "--input", str(path))
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "4d7fd522cbf73de364cca899ded8e86be8d7e3192feba5863aa7d792797435ca"


@pytest.mark.parametrize(
    "command, n, message",
    [
        ("verify", 10**12, "n=1000000000000 columns exceed the certificate limit"),
        ("extend", 100_000, "4999950000 horizontal edges exceed the extension limit"),
    ],
)
def test_one_row_header_no_consumer_can_hold_is_refused(capsys, tmp_path, command, n, message):
    # the shared n-column tuple (parse) and the C(n, 2) labels (extend) are
    # refused before they are allocated
    path = tmp_path / "vert.txt"
    path.write_text(f"gridram v1\ntype vertical\nm 1 n {n} r 1\n")
    start = time.perf_counter()
    code, out, err = run(capsys, command, "--input", str(path))
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err.startswith(f"gridram: too large: {message}")


def test_huge_header_r_is_capped_at_m(capsys, tmp_path):
    # two rows never need more than two colours, whatever r the header declares
    head = "gridram v1\ntype {}\nm 2 n 2 r 1000000000000\nv 1 1 2 1\nv 2 1 2 1\n"
    path = tmp_path / "vert.txt"
    path.write_text(head.format("vertical"))
    code, out, _ = run(capsys, "verify", "--input", str(path))
    assert (code, out) == (0, "valid: good vertical colouring\n")
    code, out, _ = run(capsys, "extend", "--input", str(path))
    assert (code, out) == (0, head.format("full") + "h 1 1 2 1\nh 2 1 2 2\n")


def test_stabilise_first_logs_switches(capsys, tmp_path):
    chi = VerticalColoring.from_columns(2, 2, 2, [[2], [1]])
    path = tmp_path / "vert.txt"
    path.write_text(certio.emit(chi))
    log = tmp_path / "switches.log"
    code, out, err = run(
        capsys, "stabilise", "--input", str(path), "--log-switches", str(log)
    )
    assert code == 0
    assert "stabilised column 1 with 1 switches" in err
    assert log.read_text() == "s 1 2 1 2\n"
    parsed = certio.parse(out)
    assert parsed.is_stabilised(1)


def test_stabilise_step_reports_rows(capsys, tmp_path):
    chi = VerticalColoring.from_columns(3, 2, 2, [[1, 1, 1], [2, 2, 2]])
    path = tmp_path / "vert.txt"
    path.write_text(certio.emit(chi))
    code, out, err = run(capsys, "stabilise", "--input", str(path), "--step", "1")
    assert code == 0
    assert "kept rows 1,2,3" in err
    assert certio.parse(out).is_stabilised(2)


def test_stabilise_step_bytes_pinned(capsys, tmp_path):
    # stdout and switch log of one step, as computed by the per-switch loop
    path = tmp_path / "vert.txt"
    path.write_text(certio.emit(random_stabilised(random.Random(102), 8, 4, 3, 1)))
    log = tmp_path / "switches.log"
    code, out, err = run(
        capsys, "stabilise", "--input", str(path), "--step", "1", "--log-switches", str(log)
    )
    assert code == 0
    assert err == "stabilised to level 2, kept rows 1,3,5,8\n"
    assert len(log.read_text().splitlines()) == 5
    digest = hashlib.sha256((out + log.read_text()).encode()).hexdigest()
    assert digest == "806c4bf5f0cb2d26079129a37424f9e963ba38cc0cdce5c6b1dcc7931f9979e1"


def test_refute_reports_witness(capsys, tmp_path):
    rng = random.Random(181)
    chi = random_stabilised(rng, 9, 3, 2, 1)
    path = tmp_path / "vert.txt"
    path.write_text(certio.emit(chi))
    code, out, _ = run(capsys, "refute", "--input", str(path))
    assert code == 0
    assert out.startswith("i=")


def test_shelah_find(capsys, tmp_path):
    from helpers import random_full

    rng = random.Random(191)
    full = random_full(rng, 3, 9, 2)
    path = tmp_path / "full.txt"
    path.write_text(certio.emit(full))
    code, out, _ = run(capsys, "shelah-find", "--input", str(path))
    assert code == 0
    assert out.startswith("a=")


def test_shelah_find_precondition_exit_code(capsys, tmp_path):
    from helpers import random_full

    rng = random.Random(193)
    full = random_full(rng, 2, 9, 2)
    path = tmp_path / "full.txt"
    path.write_text(certio.emit(full))
    code, _, err = run(capsys, "shelah-find", "--input", str(path))
    assert code == 1
    assert "m >= r + 1" in err


def test_shelah_find_precondition_too_long_to_print(capsys, tmp_path):
    from helpers import random_full

    path = tmp_path / "tall.txt"
    path.write_text(certio.emit(random_full(random.Random(197), 200, 3, 3)))
    code, out, err = run(capsys, "shelah-find", "--input", str(path))
    assert code == 1
    assert out == ""
    assert err == "gridram: error: need n >= r^C(m,2) + 1 = 3^19900 + 1 columns, have n=3\n"


def test_check_ineq(capsys):
    code, out, _ = run(capsys, "check-ineq", "--r", "4")
    assert code == 0
    assert (
        out
        == "r=4 satisfied=true lhs_m=16324 lhs_m_plus_1=16325 margin_m=507964 margin_m_plus_1=507963\n"
    )


def test_check_ineq_range_tsv(capsys):
    code, out, _ = run(capsys, "check-ineq", "--r-max", "3", "--format", "tsv")
    lines = out.splitlines()
    assert code == 0
    assert lines[0].startswith("r\tsatisfied")
    assert len(lines) == 3


def test_check_ineq_range_below_two_is_refused(capsys):
    # the same refusal as `bounds --r-max 1`, not an empty table
    for command in ("check-ineq", "bounds"):
        code, out, err = run(capsys, command, "--r-max", "1")
        assert (code, out, err) == (1, "", "gridram: error: r_max must be at least 2\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ("check-ineq", "--r", "3", "--r-max", "4"),
            "gridram check-ineq: error: argument --r-max: not allowed with argument --r",
        ),
        (
            ("bounds", "--r", "2", "--which", "shelah", "--r-max", "2"),
            "gridram: error: --r-max cannot be combined with --r or --which",
        ),
        (
            ("bounds", "--which", "shelah", "--r-max", "2"),
            "gridram: error: --r-max cannot be combined with --r or --which",
        ),
    ],
)
def test_single_value_and_range_flags_are_refused_together(capsys, argv, message):
    # neither flag may silently win over the other
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.splitlines()[-1] == message


def test_too_large_exit_code(capsys):
    code, _, err = run(capsys, "search-g", "--m", "9", "--n", "9", "--oracle", "naive")
    assert code == 2
    assert "too large" in err


def test_tall_vertical_search_exit_two(capsys):
    code, out, err = run(capsys, "search-g", "--m", "1000", "--n", "2", "--oracle", "vertical")
    assert code == 2
    assert out == ""
    assert "row limit" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("bounds", "--r", "70", "--which", "shelah"),
        ("bounds", "--r", "70", "--which", "gyarfas"),
        ("bounds", "--r-max", "70"),
        ("check-ineq", "--r-max", "70"),
    ],
)
def test_bounds_too_long_to_print_exit_two(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "too large" in err


def test_unknown_subcommand_exits_one(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 1


def test_unknown_flag_exits_one(capsys):
    code, _, _ = run(capsys, "bounds", "--bogus")
    assert code == 1


def test_console_module_entry():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "gridram", "bounds", "--r", "2", "--which", "shelah"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "m=9 n=3\n"
