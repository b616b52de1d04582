"""Record the answers that have no independent check, from the code as it stands.

Run from the repository root, on the commit whose answers are the reference:

    python3 perfbench/record.py

It runs every job of the fixed pools in jobs.py (window solves, stabilizations
and purity rejections) once, in normalized orientation, and writes each exit
code and report to perfbench/recorded.json, keyed by Job.key().
"""

from __future__ import annotations

import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from jobs import purity_pool, search_pool  # noqa: E402
from linform.cli import main  # noqa: E402


def record() -> dict:
    work = ROOT / ".bench_work" / "record"
    work.mkdir(parents=True, exist_ok=True)
    answers = {}
    for index, job in enumerate(search_pool() + purity_pool()):
        path = work / f"r{index:03d}.json"
        path.write_text(json.dumps(job.problem.doc()))
        job.path = str(path)
        out = StringIO()
        with redirect_stdout(out), redirect_stderr(StringIO()):
            code = main(job.argv)
        answers[job.key()] = [code, json.loads(out.getvalue())]
    return answers


if __name__ == "__main__":
    (HERE / "recorded.json").write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
