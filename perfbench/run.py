"""Closed-loop benchmark of the gridram command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client, one job in flight: each job of the workload's seeded list runs
`gridram.cli.main(argv)` in a fresh worker forked after `import gridram`, so
it starts as cold as a real invocation and no colouring memo carries over.
Jobs repeat in whole passes over the list, as many as bring the time spent
in jobs closest to S seconds.  Every answer is checked by the benchmark's own reference code, in
a separate process and outside the timed window.

Times are reported in reference-speed seconds.  The machine's speed drifts
by up to 2x within minutes, so a fixed calibration kernel runs before and
after every job and set-up, and each measured time is scaled by
REF_KERNEL_S over the kernel's time around it.  Raw seconds are printed too.

With --trace 0 the end-to-end metrics are measured with tracing off.  With
--trace 1 the first half of the time runs untraced passes and the rest runs
traced ones (see tracing.py), which give the per-layer metrics.  The last
line of stdout is one JSON object; the lines before it are for people.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench_work"
# Set-up repeats until it has run at least this often and this long.
SETUP_MIN_REPS, SETUP_MAX_REPS, SETUP_MIN_S = 3, 9, 1.0
MIN_TAIL_BEYOND = 10
CRASH = 70
# The calibration kernel's time at the reference speed: roughly its time on
# a quiet 2-CPU machine, so reference seconds read close to wall seconds.
REF_KERNEL_S = 0.010

END_TO_END_UNITS = {"wall_s": "s", "job_s_p50": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_mb_per_s"):
        return "MB/s"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def _kernel() -> int:
    """Fixed pure-Python work of the kind gridram does: int arithmetic and dict traffic."""
    counts: dict[int, int] = {}
    acc = 0
    for i in range(40_000):
        key = (i * 7919) & 4095
        counts[key] = counts.get(key, 0) + 1
        acc ^= (i << (i & 31)) & 0xFFFF
    return acc + len(counts)


def kernel_s() -> float:
    """The calibration kernel's time now: the best of three runs."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best


@dataclass
class JobRun:
    job: workloads.Job
    elapsed: float  # parent's view, raw seconds: fork to reaped worker
    rc: int
    job_s: float  # worker's view, raw seconds: call into cli.main to its return
    rss_mb: float
    trace: dict | None
    verdict: str = "ok"  # "ok", "failed" or "refused"
    reason: str = ""
    kernel: float = REF_KERNEL_S  # calibration kernel seconds around this job

    @property
    def scale(self) -> float:
        """Reference seconds per raw second while this job ran."""
        return REF_KERNEL_S / self.kernel

    @property
    def ref_elapsed(self) -> float:
        return self.elapsed * self.scale

    @property
    def ref_job_s(self) -> float:
        return self.job_s * self.scale

    def ref_trace(self) -> dict:
        """The trace snapshot with its seconds in reference seconds."""
        assert self.trace is not None
        k = self.scale
        stats = [[p, s, n, t * k, own * k] for p, s, n, t, own in self.trace["stats"]]
        return {"stats": stats, "counts": self.trace["counts"]}


def _import_gridram():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import gridram.cli
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import gridram from {src}: {exc}") from None
    if not Path(gridram.cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"perfbench: imported gridram from {gridram.cli.__file__}, not {src}")
    return gridram.cli


def _worker(cli, argv: tuple[str, ...], traced: bool) -> None:
    """Body of a forked worker: run one job, write its result file, never return."""
    code = CRASH
    try:
        sys.stdout = open(WORK / "job.out", "w", encoding="utf-8")
        sys.stderr = open(WORK / "job.err", "w", encoding="utf-8")
        tracer = tracing.Tracer() if traced else None
        if tracer is not None:
            tracer.install()
        start = time.perf_counter()
        try:
            rc = cli.main(list(argv))
        except BaseException:  # a crash is a wrong answer, recorded for the check
            traceback.print_exc()
            rc = CRASH
        sys.stdout.flush()
        job_s = time.perf_counter() - start
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        sys.stdout.close()
        sys.stderr.close()
        result = {"rc": rc, "job_s": job_s, "rss_kb": rss_kb,
                  "trace": tracer.snapshot() if tracer is not None else None}
        (WORK / "job.json").write_text(json.dumps(result), encoding="utf-8")
        code = 0
    finally:
        os._exit(code)


def run_job(cli, job: workloads.Job, traced: bool) -> JobRun:
    (WORK / "job.json").unlink(missing_ok=True)
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        _worker(cli, job.argv, traced)
    _, status = os.waitpid(pid, 0)
    elapsed = time.perf_counter() - start
    try:
        res = json.loads((WORK / "job.json").read_text(encoding="utf-8"))
    except FileNotFoundError:
        return JobRun(job, elapsed, CRASH, elapsed, 0.0, None, "failed", f"worker died: {status}")
    return JobRun(job, elapsed, res["rc"], res["job_s"], res["rss_kb"] / 1024, res["trace"])


class Checker:
    """Judges answers in a forked process, once per distinct output of a job."""

    def __init__(self) -> None:
        self._seen: dict[tuple[str, str], tuple[str, str]] = {}

    def judge(self, run: JobRun) -> bool:
        """Set the run's verdict; True when that took a new check."""
        if run.verdict != "ok":
            return False
        paths = [WORK / "job.out", WORK / "job.err", *map(Path, run.job.extra_outputs)]
        digest = hashlib.sha256(str(run.rc).encode())
        for path in paths:
            digest.update(path.read_bytes() if path.exists() else b"\0missing")
        key = (run.job.kind, digest.hexdigest())
        checked = key not in self._seen
        if checked:
            self._seen[key] = self._check(run.job, run.rc, paths)
        run.verdict, run.reason = self._seen[key]
        return checked

    def _check(self, job: workloads.Job, rc: int, paths: list[Path]) -> tuple[str, str]:
        stderr = paths[1].read_text(encoding="utf-8")
        if rc == 2 and "too large" in stderr:
            return "refused", stderr.strip()
        verdict_path = WORK / "verdict.txt"
        verdict_path.unlink(missing_ok=True)
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                out = workloads.Output(
                    rc, paths[0].read_text(encoding="utf-8"), stderr,
                    {str(p): p.read_text(encoding="utf-8") for p in paths[2:] if p.exists()},
                )
                reason = job.check(out)
                verdict_path.write_text(reason or "", encoding="utf-8")
                code = 0 if reason is None else 1
            except BaseException:
                verdict_path.write_text(traceback.format_exc(), encoding="utf-8")
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        if os.waitstatus_to_exitcode(status) == 0:
            return "ok", ""
        if not verdict_path.exists():
            return "failed", f"checker died: {status}"
        return "failed", verdict_path.read_text(encoding="utf-8").strip()


def run_passes(cli, jobs, checker: Checker, traced: bool, budget: float) -> list[list[JobRun]]:
    """Whole passes over the job list, as many as bring their raw job time closest to `budget`.

    At least one pass runs.  Checks and calibration between jobs do not count.
    """
    passes: list[list[JobRun]] = []
    spent = 0.0
    kernel = kernel_s()
    while True:
        runs = []
        for job in jobs:
            run = run_job(cli, job, traced)
            before, kernel = kernel, kernel_s()
            run.kernel = (before + kernel) / 2
            if checker.judge(run):  # a check took time: measure the speed afresh
                kernel = kernel_s()
            runs.append(run)
        passes.append(runs)
        spent += sum(r.elapsed for r in runs)
        expected = statistics.median(sum(r.elapsed for r in p) for p in passes)
        if spent + expected / 2 > budget:
            return passes


def pass_wall(runs: list[JobRun]) -> float:
    """Reference seconds to all answers of one pass."""
    return sum(r.ref_elapsed for r in runs)


def setup_once(name: str, seed: int) -> tuple[float, float]:
    """(reference, raw) seconds of one set-up in a fresh interpreter."""
    before = kernel_s()
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, str(BENCH / "setup_inputs.py"), name, str(seed), str(WORK)],
        check=True, stdin=subprocess.DEVNULL,
    )
    raw = time.perf_counter() - start
    return raw * 2 * REF_KERNEL_S / (before + kernel_s()), raw


def set_up(name: str, seed: int, traced: bool) -> list[tuple[float, float]]:
    """Set up once for a traced run; otherwise repeatedly, for a steady median."""
    setups = [setup_once(name, seed)]
    while not traced and len(setups) < SETUP_MAX_REPS and (
        len(setups) < SETUP_MIN_REPS or sum(raw for _, raw in setups) < SETUP_MIN_S
    ):
        setups.append(setup_once(name, seed))
    return setups


def tail(values: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with MIN_TAIL_BEYOND samples beyond it."""
    if len(values) <= MIN_TAIL_BEYOND:
        return None
    ordered = sorted(values)
    k = len(ordered) - MIN_TAIL_BEYOND - 1
    return 100 * (k + 1) / len(ordered), ordered[k]


def print_kinds(runs: list[JobRun]) -> None:
    """Median reference seconds and peak RSS per job kind."""
    for kind in dict.fromkeys(r.job.kind for r in runs):
        mine = [r for r in runs if r.job.kind == kind]
        print(f"  {kind:<28} median {statistics.median(r.ref_job_s for r in mine):9.4f} s"
              f"  peak {max(r.rss_mb for r in mine):7.1f} MB  ({len(mine)} jobs)")


def count_verdicts(runs: list[JobRun]) -> tuple[int, int, int]:
    """(attempted, failed, refused), printing every job that was not answered right."""
    failed = [r for r in runs if r.verdict == "failed"]
    refused = [r for r in runs if r.verdict == "refused"]
    for r in failed + refused:
        print(f"{r.verdict.upper()}: {r.job.kind} ({' '.join(r.job.argv)}): {r.reason[:400]}")
    return len(runs), len(failed), len(refused)


def run_probe(cli, workload, checker: Checker) -> int:
    """Run the workload's known-defect probe outside the timed passes; 1 if the defect shows."""
    if workload.probe is None:
        return 0
    run = run_job(cli, workload.probe, traced=False)
    checker.judge(run)
    if run.verdict in ("ok", "refused"):
        print(f"known-defect probe {run.job.kind}: fixed ({run.verdict})")
        return 0
    argv = " ".join(run.job.argv)
    print(f"known-defect probe {run.job.kind} ({argv}): still wrong: {run.reason[:300]}")
    return 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = _import_gridram()
    # The thread pool is not the default configuration; jobs run sequentially.
    os.environ.pop("GRIDRAM_THREADS", None)
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        setups = set_up(args.workload, args.seed, bool(args.trace))
        workload = workloads.build(args.workload, args.seed, WORK)
        checker = Checker()
        print(f"workload {args.workload}, seed {args.seed}, {len(workload.jobs)} jobs per pass: "
              + ", ".join(job.kind for job in workload.jobs))
        if args.trace:
            result = traced_run(cli, workload, checker, args.seconds)
        else:
            result = untraced_run(cli, workload, checker, args.seconds, setups)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps(result))
    return 0


def _metric(name: str, value: float, unit: str) -> tuple[str, dict]:
    return name, {"value": value, "unit": unit}


def untraced_run(cli, workload, checker: Checker, seconds: float,
                 setups: list[tuple[float, float]]) -> dict:
    passes = run_passes(cli, workload.jobs, checker, traced=False, budget=seconds)
    runs = [r for p in passes for r in p]
    print_kinds(runs)
    attempted, failed, refused = count_verdicts(runs)
    run_probe(cli, workload, checker)
    job_s = [r.ref_job_s for r in runs]
    values = {
        "wall_s": (statistics.median(pass_wall(p) for p in passes),
                   statistics.median(sum(r.elapsed for r in p) for p in passes),
                   f"median of {len(passes)} passes"),
        "job_s_p50": (statistics.median(job_s), statistics.median(r.job_s for r in runs),
                      f"median of {len(job_s)} jobs"),
        "peak_rss_mb": (max(r.rss_mb for r in runs), None, f"max over {len(runs)} workers"),
        "setup_s": (statistics.median(ref for ref, _ in setups),
                    statistics.median(raw for _, raw in setups),
                    f"median of {len(setups)} set-ups"),
    }
    print(f"{'metric':<14} {'value':>12} unit {'raw s':>10}  samples")
    for name, (value, raw, samples) in values.items():
        raw_text = f"{raw:10.4f}" if raw is not None else " " * 10
        print(f"{name:<14} {value:12.6f} {END_TO_END_UNITS[name]:<4} {raw_text}  {samples}")
    got = tail(job_s)
    if got is None:
        print(f"job_s_tail     n/a: {len(job_s)} jobs, a tail needs more than {MIN_TAIL_BEYOND}")
    else:
        print(f"job_s_tail     {got[1]:12.6f} s    "
              f"p{got[0]:.1f} of {len(job_s)} jobs, {MIN_TAIL_BEYOND} beyond it")
    print(f"fail_ratio     {failed / attempted:12.6f}      {failed}/{attempted} jobs")
    print(f"refuse_ratio   {refused / attempted:12.6f}      {refused}/{attempted} jobs")
    print(f"calibration kernel: median {statistics.median(r.kernel for r in runs) * 1e3:.2f} ms "
          f"around jobs, reference {REF_KERNEL_S * 1e3:.2f} ms")
    print("passes (reference s / raw s): "
          + ", ".join(f"{pass_wall(p):.3f}/{sum(r.elapsed for r in p):.3f}" for p in passes))
    return {
        "correct": failed == 0 and refused == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": dict(_metric(n, v[0], END_TO_END_UNITS[n]) for n, v in values.items()),
    }


def traced_run(cli, workload, checker: Checker, seconds: float) -> dict:
    plain = run_passes(cli, workload.jobs, checker, traced=False, budget=seconds / 2)
    traced = run_passes(cli, workload.jobs, checker, traced=True, budget=seconds / 2)
    plain_runs = [r for p in plain for r in p]
    print_kinds(plain_runs)
    attempted, failed, refused = count_verdicts(plain_runs + [r for p in traced for r in p])
    defect = run_probe(cli, workload, checker)

    per_pass = [tracing.layer_metrics(tracing.merge([r.ref_trace() for r in p])) for p in traced]
    counts_repeat = all(
        p[name] == per_pass[0][name] for p in per_pass for name in p if unit_of(name) == "count"
    )
    if not counts_repeat:
        print("FAILED: per-layer counts differ between traced passes")
    canary_misses = 0
    for r in (r for p in traced for r in p if r.job.canary is not None):
        m = tracing.layer_metrics(r.trace)
        seen = (m["search.nodes"], m["coloring.solves"])
        if seen != r.job.canary:
            canary_misses += 1
            print(f"canary {r.job.kind}: nodes, solves = {seen}, table says {r.job.canary}")

    metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    for sub in tracing.SUBCOMMANDS:
        times = [r.ref_job_s for r in plain_runs if r.job.subcommand == sub]
        metrics[f"cli.{sub}_s"] = statistics.median(times) if times else 0.0
    metrics["bench.trace_overhead_ratio"] = (
        statistics.median(map(pass_wall, traced)) / statistics.median(map(pass_wall, plain))
    )
    metrics["bench.fail_ratio"] = failed / attempted
    metrics["bench.refuse_ratio"] = refused / attempted
    metrics["bench.known_defect_fails"] = defect
    metrics["bench.canary_mismatches"] = canary_misses
    print(f"{len(plain)} untraced and {len(traced)} traced passes; "
          "per-layer values are per traced pass")
    for name, value in metrics.items():
        print(f"{name:<34} {value:16.6f} {unit_of(name)}")
    return {
        "correct": failed == 0 and refused == 0 and counts_repeat,
        "attempted": attempted,
        "failed": failed,
        "metrics": dict(_metric(n, v, unit_of(n)) for n, v in metrics.items()),
    }


if __name__ == "__main__":
    sys.exit(main())
