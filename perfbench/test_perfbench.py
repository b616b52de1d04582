"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import linform  # noqa: E402
import linform.cli as cli  # noqa: E402
from jobs import WORKLOADS, attach_answers, check, generate  # noqa: E402
from oracle import Oracle, load_test_oracles  # noqa: E402
from run import REFERENCE_MS, ROOT, Run, measure, run_job, speed_scale, write_problems  # noqa: E402
from spans import Tracer  # noqa: E402

RECORDED = json.loads((HERE / "recorded.json").read_text())


@pytest.fixture
def work():
    path = ROOT / ".bench_work" / "tests"
    shutil.rmtree(path, ignore_errors=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def answered(workload: str, seed: int, work: Path):
    jobs = generate(workload, seed)
    write_problems(jobs, work)
    attach_answers(jobs, Oracle(load_test_oracles(ROOT)), RECORDED)
    return jobs


def written(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_writes_identical_problem_files(workload, work):
    first = generate(workload, 7)
    write_problems(first, work / "a")
    second = generate(workload, 7)
    write_problems(second, work / "b")
    assert written(work / "a") == written(work / "b")
    assert [job.argv[3:] for job in first] == [job.argv[3:] for job in second]
    write_problems(generate(workload, 8), work / "c")
    assert written(work / "a") != written(work / "c")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_pass_has_enough_jobs_for_p90(workload):
    assert len(generate(workload, 1)) >= 100


def first_job(jobs, command):
    return next(job for job in jobs if job.command == command and not job.recorded)


def test_checker_accepts_the_real_report_and_flags_wrong_ones(work):
    jobs = answered("count", 3, work)
    job = first_job(jobs, "repfn")
    code, stdout, _ = run_job(cli, job)
    assert check(job.expect, code, stdout) is None

    report = json.loads(stdout)
    report["support"][0][1] += 1
    assert "support" in check(job.expect, code, json.dumps(report))
    assert "exit code" in check(job.expect, 1, stdout)
    assert check(job.expect, code, "not json") is not None


def test_checker_flags_a_witness_that_misses_the_target(work):
    jobs = answered("search", 3, work)
    job = next(j for j in jobs if j.command == "solve" and j.input_file is not None)
    code, stdout, _ = run_job(cli, job)
    assert check(job.expect, code, stdout) is None

    report = json.loads(stdout)
    report["witness"] = report["witness"][1:]
    assert "witness" in check(job.expect, code, json.dumps(report))


def test_checker_flags_a_moved_violation(work):
    jobs = answered("verify", 3, work)
    job = next(j for j in jobs if j.command == "check" and j.expect.code == 1)
    code, stdout, _ = run_job(cli, job)
    assert check(job.expect, code, stdout) is None

    report = json.loads(stdout)
    report["violations"][0]["n"] += 1
    assert "violations" in check(job.expect, code, json.dumps(report))


def snapshot():
    modules = [m for n, m in sys.modules.items() if n == "linform" or n.startswith("linform.")]
    state = {(m.__name__, attr): value for m in modules for attr, value in vars(m).items()}
    state.update({("Window", attr): value for attr, value in vars(linform.Window).items()})
    return state


def test_traced_run_restores_linform_and_records_spans(work):
    jobs = answered("search", 2, work)[:30]
    before = snapshot()
    tracer = Tracer()
    tracer.install()
    try:
        assert linform.cli.main is not before[("linform.cli", "main")]
        run = measure(cli, jobs, 0.0, tracer)
    finally:
        tracer.remove()
    after = snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)

    assert run.wrong == 0
    names = {span[0] for span in tracer.spans}
    assert {"cli.main", "cli.build_parser", "problems.parse_problem", "forms.image_repfn"} <= names
    assert len({span[4] for span in tracer.spans}) == run.attempted
    assert all(value >= -1e-9 for value in tracer.self_seconds().values())
    metrics = tracer.layer_metrics(run.attempted)
    assert metrics["forms.image_repfn.calls"][0] > 0
    assert 0 < metrics["forms.image_repfn.distinct_ratio"][0] <= 1


def test_job_time_is_the_median_over_passes_of_scaled_times():
    run = Run([[0.004, 0.002, 0.004], [0.002, 0.002, 0.003]], passes=3, measured=0.024)
    assert run.job_ms() == pytest.approx([4.0, 2.0])
    assert run.throughput() == pytest.approx(2 / 0.006)
    assert run.scale() == pytest.approx(17 / 24)


def test_speed_scale_maps_the_kernel_time_to_the_reference():
    slow = [2 * REFERENCE_MS / 1000, 2 * REFERENCE_MS / 1000]
    assert speed_scale(slow) == pytest.approx(0.5)
