"""Closed-loop benchmark of the linform CLI: one client, one process, one thread.

Run from the repository root:

    python3 perfbench/run.py --workload verify --seed 1 --seconds 20 --trace 0

Each job is one `linform` command run in-process through linform.cli.main on
a problem file generated from the workload seed, with stdout and stderr
captured. Jobs run in whole passes over the workload's job list until the
time spent inside main reaches --seconds. A fixed reference kernel runs
between jobs; each job's time is scaled by how fast it ran just before and after, so
the machine's own speed, which drifts by half over minutes on a shared host,
stays out of the result. Every report is checked against its expected
answer outside the timed region. The last line of stdout is one JSON
object: end-to-end metrics with --trace 0; with --trace 1 the per-layer
metrics of a traced run, which shares --seconds with an untraced run that
gives the tracing overhead. See README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from io import StringIO
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from jobs import WORKLOADS, Job, attach_answers, check, generate  # noqa: E402
from oracle import Oracle, load_test_oracles  # noqa: E402
from spans import Tracer  # noqa: E402

SETUP_REPEATS = 9
REFERENCE_MS = 1.0  # the reference kernel's time on the machine all timings are scaled to
IMPORT_PROBE = "import time; t = time.perf_counter(); import linform.cli; print(time.perf_counter() - t)"


def reference_kernel() -> int:
    """A fixed piece of plain Python that stands for the machine's speed.

    It allocates tuples, fills a dict and builds a string, as the CLI's jobs
    do, and takes about a millisecond. When other tenants slow the machine,
    it slows with the jobs: over six-second blocks of one three-minute
    `reconstruct` run on a shared 2-core VM, the raw throughput spread 0.29
    between quartiles, the scaled one 0.04.
    """
    window = [(n, n * 7 % 13) for n in range(3000)]
    sums: dict[int, int] = {}
    for n, r in window:
        sums[r] = sums.get(r, 0) + n
    bits = "".join("1" if r & 1 else "0" for _, r in window)
    return len(bits) + len(sums) + sum(n for n, _ in window[::7])


def reference_seconds() -> float:
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start


def speed_scale(reference: list[float]) -> float:
    """The factor that turns times measured beside these kernel times into reference-machine times."""
    return REFERENCE_MS / 1000 / statistics.median(reference)


@dataclass
class Run:
    """What one measured run saw: each job's scaled time in every pass, and the failures."""

    job_seconds: list[list[float]]
    passes: int = 0
    measured: float = 0.0  # seconds inside main, as measured
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    problems: Counter = field(default_factory=Counter)

    def job_ms(self) -> list[float]:
        """Each job's median time over the passes in ms, on the reference machine."""
        return [1000 * statistics.median(times) for times in self.job_seconds]

    def throughput(self) -> float:
        """Jobs per second of a pass in which every job takes its median time."""
        return len(self.job_seconds) / sum(self.job_ms()) * 1000

    def scale(self) -> float:
        """Scaled time over measured time, over the whole run."""
        return sum(map(sum, self.job_seconds)) / self.measured


def import_seconds() -> float:
    """Time to import linform.cli in a fresh interpreter, measured inside it."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    probe = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    if probe.returncode != 0:
        raise RuntimeError(f"importing linform failed: {probe.stderr.strip()[-300:]}")
    return float(probe.stdout)


def write_problems(jobs: list[Job], work: Path) -> None:
    work.mkdir(parents=True, exist_ok=True)
    paths: dict = {}
    for job in jobs:
        if job.input_file is None:
            if job.problem not in paths:
                paths[job.problem] = path = work / f"p{len(paths):03d}.json"
                path.write_text(json.dumps(job.problem.doc()))
            job.path = str(paths[job.problem].relative_to(ROOT))


def set_up(workload: str, seed: int, work: Path) -> tuple[float, list[Job]]:
    """A fresh import plus generating and writing the problem files: the median of SETUP_REPEATS, scaled."""
    times = []
    for _ in range(SETUP_REPEATS):
        reference = [reference_seconds() for _ in range(20)]
        imported = import_seconds()
        start = time.perf_counter()
        jobs = generate(workload, seed)
        write_problems(jobs, work)
        elapsed = imported + time.perf_counter() - start
        reference += [reference_seconds() for _ in range(20)]
        times.append(elapsed * speed_scale(reference))
    return statistics.median(times), jobs


def run_job(cli, job: Job):
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(job.argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an escaped exception is a failed job, not a benchmark error
            code = exc
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), elapsed


def measure(cli, jobs: list[Job], seconds: float, tracer: Tracer | None = None) -> Run:
    """Whole passes until the jobs' time reaches seconds, at least one.

    The reference kernel runs between jobs, and each job's time is scaled by
    the mean of the kernel times just before and just after it.
    """
    run = Run([[] for _ in jobs])
    while run.passes == 0 or run.measured < seconds:
        gc.collect()
        before = reference_seconds()
        for job, times in zip(jobs, run.job_seconds):
            if tracer is not None:
                tracer.job += 1
            code, stdout, elapsed = run_job(cli, job)
            after = reference_seconds()
            scale = speed_scale([before, after])
            times.append(elapsed * scale)
            if tracer is not None:
                tracer.scales[tracer.job] = scale
            before = after
            run.measured += elapsed
            run.attempted += 1
            if isinstance(code, Exception):
                run.failed += 1
                run.problems[f"{' '.join(job.argv)}: {type(code).__name__}"] += 1
                continue
            problem = check(job.expect, code, stdout)
            if problem is not None:
                run.failed += 1
                run.wrong += 1
                run.problems[f"{' '.join(job.argv)}: {problem}"] += 1
        run.passes += 1
    return run


def warm_up(cli, jobs: list[Job]) -> None:
    """One untimed run of each command's cheapest job, so first-use costs stay out of the timings."""
    def size(job):
        return sum(len(s) for s in job.problem.sets) + len(" ".join(job.args))

    cheapest: dict[str, Job] = {}
    for job in jobs:
        if job.command not in cheapest or size(job) < size(cheapest[job.command]):
            cheapest[job.command] = job
    for job in cheapest.values():
        run_job(cli, job)
    for _ in range(20):
        reference_kernel()


def end_to_end(run: Run, setup_s: float) -> dict[str, tuple[float, str]]:
    ms = run.job_ms()
    return {
        "throughput_jobs_per_s": (run.throughput(), "jobs/s"),
        "job_ms_p50": (statistics.median(ms), "ms"),
        "job_ms_p90": (statistics.quantiles(ms, n=10)[-1], "ms"),
        "ok_ratio": ((run.attempted - run.failed) / run.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Closed-loop benchmark of the linform CLI.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "linform" / "cli.py").is_file() or not (ROOT / "tests" / "oracles.py").is_file():
        print(f"perfbench: no linform checkout at {ROOT}: need src/linform and tests/oracles.py", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import linform.cli as cli

    work = ROOT / ".bench_work" / args.workload
    setup_s, jobs = set_up(args.workload, args.seed, work)
    recorded = json.loads((HERE / "recorded.json").read_text())
    attach_answers(jobs, Oracle(load_test_oracles(ROOT)), recorded)
    warm_up(cli, jobs)

    if not args.trace:
        runs = [measure(cli, jobs, args.seconds)]
        metrics = end_to_end(runs[0], setup_s)
    else:
        # Half the time untraced, half traced: their ratio is the tracing overhead.
        runs = [measure(cli, jobs, args.seconds / 2)]
        tracer = Tracer()
        tracer.install()
        try:
            runs.append(measure(cli, jobs, args.seconds / 2, tracer))
        finally:
            tracer.remove()
        tracer.write(work / "spans.jsonl")
        metrics = tracer.layer_metrics(runs[1].attempted)
        overhead = runs[0].throughput() / runs[1].throughput()
        metrics["trace_overhead"] = (overhead, "ratio")

    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    wrong = sum(r.wrong for r in runs)
    for run in runs:
        for problem, times in sorted(run.problems.items()):
            print(f"failed {times}x: {problem}", file=sys.stderr)
    print(f"{args.workload}: seed {args.seed}, {len(jobs)} jobs per pass, {runs[0].passes} passes")
    print(f"  timings scaled to the reference machine by {runs[0].scale():.4f} (1 = as measured)")
    print(f"  attempted {attempted}, failed {failed} (failed_ratio {failed / attempted:.4f}), wrong answers {wrong}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:14.6f} {unit}")
    result = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
