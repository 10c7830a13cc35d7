"""Tests of the benchmark itself: exact-count canaries, the independent
checks, and the result format BENCHMARK.json promises.

    PYTHONPATH=src python3 -m pytest -q perfbench

They take about a minute: the canaries run the real search jobs.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import reference as ref
import run
import tracing
import workloads
from workloads import Output

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def work(tmp_path, monkeypatch):
    path = tmp_path / "work"
    path.mkdir()
    monkeypatch.setattr(run, "WORK", path)
    return path


# --- canaries: later changes cite these counts next to seconds ----------------

CANARIES = {
    # job kind: (search.nodes, coloring.solves), exact
    "search-g-6x6": (111_681, 32_769),
    "search-g-6x5": (108_525, 32_769),
    "search-G-r2-n6": (113_114, 33_833),
    "search-g-4x9": (94_807, 65),
    "search-g-5x7": (320_557, 1_025),
}


def _search_jobs(work: Path) -> dict[str, workloads.Job]:
    names = ("search-square", "search-wide")
    jobs = [job for name in names for job in workloads.build(name, 0, work).jobs]
    return {job.kind: job for job in jobs}


def test_canary_counts_are_exact_and_cold(work):
    cli = run._import_gridram()
    jobs = _search_jobs(work)
    assert {kind: job.canary for kind, job in jobs.items()} == CANARIES
    for kind, expected in CANARIES.items():
        got = run.run_job(cli, jobs[kind], traced=True)
        assert got.rc == 0
        metrics = tracing.layer_metrics(got.trace)
        assert (metrics["search.nodes"], metrics["coloring.solves"]) == expected, kind


def test_canary_repeats_in_a_second_worker(work):
    cli = run._import_gridram()
    job = _search_jobs(work)["search-g-6x5"]
    first, second = (tracing.layer_metrics(run.run_job(cli, job, traced=True).trace) for _ in range(2))
    counts = [name for name in first if run.unit_of(name) == "count"]
    assert [first[n] for n in counts] == [second[n] for n in counts]


# --- the reference code agrees with gridram where both apply ------------------


def _random_full(seed: int, m: int, n: int, r: int) -> ref.Cert:
    return workloads.random_full(random.Random(seed), m, n, r)


def test_reference_text_matches_gridram_emit_and_parse():
    from gridram import certio

    for seed in range(5):
        cert = _random_full(seed, 4, 5, 3)
        text = ref.write_text(cert)
        assert certio.emit(certio.parse(text)) == text
        assert ref.parse_text(text) == cert


def test_reference_rectangles_match_gridram():
    from gridram import certio, enumerate_alternating_rectangles

    for seed in range(5):
        cert = _random_full(seed, 6, 7, 2)
        theirs = enumerate_alternating_rectangles(certio.parse(ref.write_text(cert)))
        assert ref.rectangles(cert) == [(*x.rows, *x.cols) for x in theirs]


def test_reference_formulas_match_gridram():
    from gridram import bound_table, diag_inequality_check

    for report in bound_table(12):
        r = report.parameters["r"]
        v = report.values
        names = ("shelah", "gyarfas", "thm1_m", "thm1_n", "thm2_m", "thm2_n")
        assert ref.bound_row(r) == [v[name] for name in names]
        d = diag_inequality_check(r)
        assert ref.diag_inequality(r) == (
            d.satisfied, d.values["lhs_m"], d.values["lhs_m_plus_1"],
            d.values["margin_m"], d.values["margin_m_plus_1"],
        )


def test_planted_input_makes_one_step_succeed():
    from gridram import certio, stabilise_step

    step = stabilise_step(certio.parse(ref.write_text(workloads.planted(0, 0))), 1)
    # one planted class of 40 rows, half of whose C(40, 2) pairs need a switch
    assert len(step.rows) == 40 and len(step.switches) == 390


# --- the checks reject wrong answers ---------------------------------------------


def test_checks_reject_wrong_answers(tmp_path):
    cert = _random_full(1, 6, 6, 2)
    assert ref.rectangles(cert)
    bad = Output(0, ref.write_text(cert), "g=2 oracle=vertical\n")
    assert workloads._check_search_cert(bad, 6, 6, 2) is not None

    shelah = workloads.shelah_input(0)
    a, b, i, j = ref.rectangles(shelah)[0]
    assert workloads._check_shelah(Output(0, f"a={a} b={b} i={i} j={j}\n", ""), shelah) is None
    non_alternating = next(
        (a, b, i, j) for (i, j) in ref.pairs(4) for (a, b) in ref.pairs(4)
        if (a, b, i, j) not in set(ref.rectangles(shelah))
    )
    a, b, i, j = non_alternating
    assert workloads._check_shelah(Output(0, f"a={a} b={b} i={i} j={j}\n", ""), shelah) is not None

    planted = workloads.planted(0, 0)
    assert workloads._check_stabilise(Output(0, "", "stabilised to level 2, kept rows 1,2\n"), planted)

    table = workloads._bounds_table(8)
    assert workloads._expect(Output(0, table, ""), 0, table) is None
    assert workloads._expect(Output(0, table.replace("\t", " ", 1), ""), 0, table) is not None


def test_refute_check_needs_the_right_edge_count():
    from gridram import certio, shelah_refute

    log = "switches"

    witness = shelah_refute(certio.parse(ref.write_text(workloads.refute_input(0))))
    rows = ",".join(map(str, witness.rows))
    line = f"i={witness.columns[0]} j={witness.columns[1]} rows={rows} agreement_edges=%d\n"
    edges = witness.graph.edge_count()
    good = Output(0, line % edges, "", {log: ""})
    assert workloads._check_refute(good, 0, log) is None
    assert workloads._check_refute(Output(0, line % (edges + 1), "", {log: ""}), 0, log) is not None


def test_known_defect_probe_accepts_only_exact_or_refusal():
    check = workloads._check_r70
    assert check(Output(2, "", "gridram: too large: digit budget\n")) is None
    assert check(Output(1, "", "gridram: error: Exceeds the limit\n")) is not None


# --- whole runs: the result line BENCHMARK.json promises -------------------------


def _declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(args: list[str], cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_has_every_declared_metric(trace, section):
    done = _run(["--workload", "certs", "--seed", "3", "--seconds", "0", "--trace", trace])
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in _declared()[section]}
    assert {name: v["unit"] for name, v in result["metrics"].items()} == declared


def test_declared_workloads_exist():
    assert [w["name"] for w in _declared()["workloads"]] == list(workloads.WORKLOADS)


def test_run_fails_without_the_program(tmp_path):
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _run(["--workload", "certs", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
