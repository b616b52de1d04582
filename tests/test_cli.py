"""Command-line behavior: golden outputs, exit codes, reflection reporting."""

from __future__ import annotations

import argparse
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linform import cli, forms
from linform.cli import main

HERE = Path(__file__).parent
DATA = HERE / "data"
GOLDEN = HERE / "golden"


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def data(name: str) -> str:
    return str(DATA / name)


GOLDEN_RUNS = [
    ("image_psi.json", 0, ["image", "--input", data("psi.json")]),
    ("repfn_psi.json", 0, ["repfn", "--input", data("psi.json")]),
    ("modrep_psi.json", 0, ["modrep", "--input", data("psi.json"), "-m", "4"]),
    ("cyclotomy_psi.json", 0, ["cyclotomy", "--input", data("psi.json"), "-m", "4", "-t", "1"]),
    ("check_pair.json", 0, ["check", "--input", data("pair.json")]),
    ("check_gapset.json", 1, ["check", "--input", data("gapset.json")]),
    (
        "extend_pair.json",
        0,
        ["extend", "--input", data("extend.json"), "--seed", "0:1", "--from", "-3", "--to", "3"],
    ),
    ("period_pair.json", 0, ["period", "--input", data("extend.json"), "--seed", "0:1"]),
    ("solve_pair.json", 0, ["solve", "--input", data("solve.json"), "-N", "2"]),
    ("stabilize_pair.json", 0, ["stabilize", "--input", data("extend.json")]),
    ("stabilize_degenerate.json", 0, ["stabilize", "--input", data("degenerate.json")]),
    ("image_psi.tsv", 0, ["image", "--input", data("psi.json"), "--format", "tsv"]),
    ("check_gapset.tsv", 1, ["check", "--input", data("gapset.json"), "--format", "tsv"]),
]


class TestGoldenOutputs:
    @pytest.mark.parametrize("golden,expected_code,argv", GOLDEN_RUNS, ids=lambda g: str(g))
    def test_output_matches_golden(self, capsys, golden, expected_code, argv):
        code, out, _ = run(capsys, *argv)
        assert code == expected_code
        assert out == (GOLDEN / golden).read_text()


EXIT_TABLE = [
    (0, ["image", "--input", data("pair.json")]),
    (0, ["check", "--input", data("pair.json")]),
    (1, ["check", "--input", data("gapset.json")]),
    (0, ["cyclotomy", "--input", data("psi.json"), "-m", "4", "-t", "1"]),
    (1, ["cyclotomy", "--input", data("psi.json"), "-m", "2", "-t", "1"]),
    (1, ["solve", "--input", data("extend.json"), "-t", "3", "-N", "0"]),
    (1, ["extend", "--input", data("triple.json"), "--seed", "0:11", "--from", "0", "--to", "5"]),
    (1, ["period", "--input", data("purity.json"), "--seed", "0:10"]),
    (1, ["stabilize", "--input", data("extend.json"), "-t", "3"]),
    (0, ["stabilize", "--input", data("degenerate.json")]),
    # usage and data errors, including refused computations, all exit 2
    (2, ["image", "--input", data("missing.json")]),
    (2, ["image", "--input", data("badfield.json")]),
    (2, ["modrep", "--input", data("psi.json")]),
    (2, ["extend", "--input", data("extend.json"), "--seed", "xx", "--from", "0", "--to", "1"]),
    (2, ["extend", "--input", data("extend.json"), "--seed", "0:2", "--from", "0", "--to", "1"]),
    (2, ["extend", "--input", data("degenerate.json"), "--seed", "0:1", "--from", "0", "--to", "1"]),
    (2, ["period", "--input", data("triple.json"), "--seed", "0:10", "--max-d", "1"]),
    (2, ["period", "--input", data("triple.json"), "--seed", "0:1"]),
    (2, ["solve", "--input", data("solve.json"), "-N", "-1"]),
    (2, ["solve", "--input", data("solve.json"), "-t", "1", "-N", "1"]),
    (2, ["check", "--input", data("extend.json")]),
    (2, ["check", "--input", data("psi.json"), "-t", "1"]),
    (2, ["stabilize", "--input", data("extend.json"), "-N", "0"]),
    # deep searches: one level of the DFS per candidate
    (0, ["solve", "--input", data("pair.json"), "-t", "1", "-N", "700"]),
]


class TestExitCodes:
    @pytest.mark.parametrize("expected,argv", EXIT_TABLE, ids=lambda v: str(v))
    def test_exit_code(self, capsys, expected, argv):
        code, out, err = run(capsys, *argv)
        assert code == expected
        if expected == 2:
            assert out == ""
            assert err.startswith("error:")

    def test_exhausted_budget_reports_status_and_exits_2(self, capsys):
        # Not a verdict: the search was cut short, so the exit code says
        # "no answer" while the report still explains what happened.
        code, out, _ = run(
            capsys, "solve", "--input", data("solve.json"), "-N", "2", "--max-nodes", "1"
        )
        assert code == 2
        assert json.loads(out)["status"] == "resource_limit"

    def test_wide_gap_proves_unsat_within_budget(self, capsys, tmp_path):
        # A = {-10, 10} at N = 1 puts 19 idle candidates between the two that
        # reach the window; without floors the proof took 4,194,302 nodes.
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"u": [1], "v": 1, "A": [[-10, 10]], "t": 3}))
        code, out, _ = run(
            capsys, "solve", "--input", str(path), "-N", "1", "--max-nodes", "1000000"
        )
        assert code == 1
        assert json.loads(out)["status"] == "unsat"

    @pytest.mark.parametrize(
        "document,argv",
        [
            ({"u": [1], "v": 1, "A": [[-(2**61), 2**61]], "t": 1}, ["solve", "-N", "1"]),
            ({"u": [1], "v": 2**63 - 1, "A": [[0, 1]], "t": 1}, ["solve", "-N", str(2**62)]),
            (
                {"u": [1], "v": 1, "A": [[0, 1]], "t": 1},
                ["extend", "--seed", "0:1", "--from", "-1", "--to", str(10**12)],
            ),
            ({"u": [1], "A": [[0, 1]]}, ["modrep", "-m", str(10**11)]),
            ({"u": [1], "A": [[0, 1]]}, ["cyclotomy", "-m", str(10**11), "-t", "1"]),
        ],
    )
    def test_budget_refusals_exit_2(self, capsys, tmp_path, document, argv):
        # each used to end in MemoryError, or allocate until killed
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(document))
        code, out, err = run(capsys, argv[0], "--input", str(path), *argv[1:])
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "limit" in err and "internal error" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["modrep", "--input", data("psi.json"), "-m", "4", "--seed", "0:1"],
            ["image", "--input", data("psi.json"), "-N", "3"],
            ["check", "--input", data("pair.json"), "--max-d", "3"],
            ["period", "--input", data("extend.json"), "--seed", "0:1", "--max", "3"],
        ],
        ids=lambda v: str(v),
    )
    def test_flag_the_command_does_not_read_is_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_unexpected_exception_exits_2_with_one_line(self, capsys, monkeypatch):
        def broken(args, problem):
            raise RuntimeError("broken\nhandler")

        monkeypatch.setitem(cli.COMMANDS, "image", (broken, ()))
        code, out, err = run(capsys, "image", "--input", data("psi.json"))
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert err.count("\n") == 1 and err.endswith("\n")

    def test_format_flag_never_changes_exit_code(self, capsys):
        for argv in (["check", "--input", data("gapset.json")],):
            json_code, _, _ = run(capsys, *argv)
            tsv_code, _, _ = run(capsys, *argv, "--format", "tsv")
            assert json_code == tsv_code == 1


# Generated counting problems: small forms, half of them with elements and
# coefficients that may sit near 2**62, where products and partial sums
# overflow int64.
_small_st = st.integers(min_value=-9, max_value=9)
_near_st = st.builds(
    lambda sign, d: sign * (1 << 62) + d, st.sampled_from((1, -1)), st.integers(-2, 2)
)


@st.composite
def counting_documents(draw):
    values = st.one_of(_small_st, _near_st) if draw(st.booleans()) else _small_st
    h = draw(st.integers(min_value=1, max_value=4))
    u = [draw(values.filter(bool)) for _ in range(h)]
    A = [draw(st.lists(values, min_size=1, max_size=6, unique=True)) for _ in range(h)]
    return {"u": u, "A": A}


@st.composite
def window_documents(draw):
    """Counting documents with v, B, t and f, mostly small enough to search."""
    if draw(st.integers(min_value=0, max_value=3)):
        h = draw(st.integers(min_value=1, max_value=2))
        u = [draw(st.integers(min_value=-3, max_value=3).filter(bool)) for _ in range(h)]
        elements = st.integers(min_value=-3, max_value=3)
        document = {"u": u, "A": [draw(st.lists(elements, min_size=1, max_size=4, unique=True)) for _ in u]}
    else:
        document = draw(counting_documents())
    # each field is left out, or out of range, now and then
    often = st.integers(min_value=0, max_value=7).map(bool)
    small = st.integers(min_value=-1, max_value=6)
    if draw(often):
        document["v"] = draw(st.integers(min_value=-3, max_value=3))
    if draw(often):
        modulus = draw(small)
        residues = st.integers(min_value=0, max_value=max(modulus - 1, 0)) if draw(often) else small
        document["B"] = {"modulus": modulus, "residues": draw(st.lists(residues, max_size=4, unique=True))}
    if draw(often):
        document["t"] = draw(st.integers(min_value=-1, max_value=3))
    if draw(st.booleans()):
        keys = st.integers(min_value=-4, max_value=4).map(str)
        document["f"] = {
            "default": draw(st.sampled_from(("inf", 0, 1, 2))),
            "overrides": draw(st.dictionaries(keys, st.integers(min_value=0, max_value=2), max_size=3)),
        }
    return document


def classified(argv) -> None:
    """Run argv and require an exit code of 0, 1 or 2 with its usual output, and no traceback."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    assert "internal error" not in err.getvalue()
    if code == 2 and not out.getvalue():
        assert err.getvalue().startswith("error:")
    else:  # a verdict, or a solve cut short by its node budget
        report = json.loads(out.getvalue())
        assert code < 2 or report["status"] == "resource_limit"


class TestGeneratedDocuments:
    @settings(max_examples=150, deadline=None)
    @given(
        counting_documents(),
        st.integers(min_value=-1, max_value=12),
        st.integers(min_value=-1, max_value=3),
    )
    def test_counting_commands_end_in_a_classified_outcome(self, tmp_path_factory, document, m, t):
        path = tmp_path_factory.mktemp("generated") / "problem.json"
        path.write_text(json.dumps(document))
        for argv in (
            ["image"],
            ["repfn"],
            ["modrep", "-m", str(m)],
            ["cyclotomy", "-m", str(m), "-t", str(t)],
        ):
            classified([*argv, "--input", str(path)])

    @settings(max_examples=100, deadline=None)
    @given(
        window_documents(),
        st.integers(min_value=-4, max_value=4),
        st.text(alphabet="01", min_size=1, max_size=8),
        st.integers(min_value=-1, max_value=12),
        st.integers(min_value=-1, max_value=12),
        st.integers(min_value=-1, max_value=4),
        st.integers(min_value=-1, max_value=3),
    )
    def test_window_commands_end_in_a_classified_outcome(
        self, tmp_path_factory, document, start, bits, below, above, radius, t
    ):
        path = tmp_path_factory.mktemp("generated") / "problem.json"
        path.write_text(json.dumps(document))
        seed = f"--seed={start}:{bits}"
        for argv in (
            ["check"],
            ["extend", seed, f"--from={start - below}", f"--to={start + len(bits) - 1 + above}"],
            ["period", seed, "--max-d", "6"],
            ["solve", f"-N={radius}", "--max-nodes", "2000"],
            ["solve", f"-N={radius}", f"-t={t}", "--max-nodes", "2000"],
            ["stabilize", f"-N={radius}", "--max-nodes", "2000", "--max-d", "6"],
        ):
            classified([*argv, "--input", str(path)])


class TestImageBuiltOnce:
    # Every layer, verification included, reads the image of (form, sets)
    # from one object built per command.
    @pytest.mark.parametrize(
        "most,argv",
        [
            (1, ["image", "--input", data("psi.json")]),
            (1, ["solve", "--input", data("pair.json"), "-t", "1", "-N", "50"]),
            (1, ["stabilize", "--input", data("pair.json"), "-N", "6"]),
            (1, ["check", "--input", data("pair.json")]),
            (1, ["period", "--input", data("extend.json"), "--seed", "0:1"]),
            (1, ["stabilize", "--input", data("degenerate.json")]),
        ],
        ids=lambda v: str(v),
    )
    def test_image_calls_per_command(self, capsys, monkeypatch, most, argv):
        original = forms.image_repfn
        calls = []

        def counted(form, sets):
            calls.append(form)
            return original(form, sets)

        # patch every linform module holding the function, as imported names
        # are bound at import time
        for name, module in list(sys.modules.items()):
            if name == "linform" or name.startswith("linform."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counted)
        code, _, _ = run(capsys, *argv)
        assert code == 0
        assert 1 <= len(calls) <= most


class TestParserPerCommand:
    # argparse set-up costs more than a small command: a call builds only the
    # subparser of the command it names, and the full parser otherwise
    @pytest.mark.parametrize(
        "argv,subparsers",
        [([name, "--input", data("pair.json")], 1) for name in cli.COMMANDS]
        + [(["--help"], len(cli.COMMANDS)), ([], len(cli.COMMANDS)), (["chec"], len(cli.COMMANDS))],
        ids=lambda v: str(v),
    )
    def test_subparsers_built(self, monkeypatch, argv, subparsers):
        original = argparse._SubParsersAction.add_parser
        calls = []

        def counted(self, name, **kwargs):
            calls.append(name)
            return original(self, name, **kwargs)

        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
        try:
            main(argv)
        except SystemExit:
            pass
        assert len(calls) == subparsers


def transcript(call, argv) -> tuple[object, str, str]:
    """Exit code (a SystemExit's included), stdout and stderr of call(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = call(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def full_parser_main(argv) -> int:
    return cli.dispatch(cli.build_parser().parse_args(argv))


class TestUsageTranscripts:
    # Building one command's parser must not change a byte of usage, help or
    # error output. The reference is the full parser of the running Python,
    # since argparse's wording differs between versions.
    @pytest.mark.parametrize(
        "argv",
        [[], ["--help"], ["-h"]]
        + [[name, "--help"] for name in cli.COMMANDS]
        + [
            ["chec", "--input", "f"],
            ["check", "--input", "f", "--bogus"],
            ["modrep", "--input", "f", "-m", "3", "-t", "1"],
            ["check", "--inp", "f"],
            ["-x", "check"],
            ["check", "--input", "f", "--format", "xml"],
            ["check", "--input", "f", "extra"],
        ],
        ids=lambda v: str(v),
    )
    def test_matches_full_parser(self, argv):
        assert transcript(main, argv) == transcript(full_parser_main, argv)

    @pytest.mark.parametrize("argv", [[], ["chec"]], ids=lambda v: str(v))
    def test_full_parser_errors_name_the_command_argument(self, argv):
        # a metavar on the full parser would replace "command" in these errors
        code, _, err = transcript(full_parser_main, argv)
        assert code == 2
        assert "command" in err.splitlines()[-1]

    def test_module_invocation_reads_sys_argv(self):
        long, short = (
            subprocess.run(
                [sys.executable, "-m", "linform", "check", flag], capture_output=True, text=True
            )
            for flag in ("--help", "-h")
        )
        assert long.returncode == 0
        assert long.stdout.startswith("usage: linform check")
        assert (long.returncode, long.stdout, long.stderr) == (short.returncode, short.stdout, short.stderr)


class TestReports:
    def test_reflected_check_maps_violation_back(self, capsys):
        code, out, _ = run(capsys, "check", "--input", data("reflected.json"))
        assert code == 1
        report = json.loads(out)
        assert report["reflected"] is True
        assert report["verdict"] is False
        assert report["violations"][0]["n"] == -1

    def test_reflected_solve_maps_target_overrides(self, capsys, tmp_path):
        # Original orientation constrains n=1 to zero representations; after
        # normalization that pins -1, and the witness satisfies the original.
        document = {
            "u": [-1],
            "v": -1,
            "A": [[0]],
            "f": {"default": 1, "overrides": {"1": 0}},
        }
        path = tmp_path / "reflected_solve.json"
        path.write_text(json.dumps(document))
        code, out, _ = run(capsys, "solve", "--input", str(path), "-N", "1")
        assert code == 0
        report = json.loads(out)
        assert report["reflected"] is True
        assert report["witness"] == [0, 1]

    def test_solved_report_schema(self, capsys):
        _, out, _ = run(capsys, "solve", "--input", data("solve.json"), "-N", "2")
        report = json.loads(out)
        assert list(report) == [
            "status",
            "nodes",
            "N",
            "candidate_lo",
            "candidate_hi",
            "reflected",
            "witness",
        ]

    def test_unsat_report_has_no_witness(self, capsys):
        code, out, _ = run(capsys, "solve", "--input", data("extend.json"), "-t", "3", "-N", "0")
        assert code == 1
        report = json.loads(out)
        assert "witness" not in report
        assert report["status"] == "unsat"

    def test_period_failure_names_index(self, capsys):
        code, out, _ = run(capsys, "period", "--input", data("purity.json"), "--seed", "0:10")
        assert code == 1
        report = json.loads(out)
        assert report == {"verdict": False, "inconsistent_at": -2, "reflected": False}

    def test_extend_failure_names_index(self, capsys):
        code, out, _ = run(
            capsys, "extend", "--input", data("triple.json"), "--seed", "0:11",
            "--from", "0", "--to", "5",
        )
        assert code == 1
        assert json.loads(out)["inconsistent_at"] == 2

    def test_solve_with_override_target(self, capsys):
        code, out, _ = run(capsys, "solve", "--input", data("overrides.json"), "-N", "1")
        assert code == 0
        report = json.loads(out)
        witness = report["witness"]
        assert witness == [-1, 0]

    def test_t_flag_overrides_file_value(self, capsys):
        # pair.json carries t=1; forcing t=2 with B=(2,{0}) must fail.
        code, out, _ = run(capsys, "check", "--input", data("pair.json"), "-t", "2")
        assert code == 1
        assert json.loads(out)["t"] == 2

    def test_notes_go_to_stderr_not_stdout(self, capsys):
        _, out, err = run(capsys, "check", "--input", data("pair.json"))
        assert json.loads(out)["verdict"] is True
        assert "t-complementing" in err


class TestEntryPoints:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "linform", "check", "--input", data("pair.json")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["verdict"] is True

    def test_cli_imports_only_the_standard_library(self):
        # -S keeps site-packages' startup hooks out, so every module loaded
        # comes from the interpreter or from importing linform.cli
        src = Path(cli.__file__).parents[1]
        probe = "import sys, linform.cli; print(*sorted({m.partition('.')[0] for m in sys.modules}))"
        proc = subprocess.run(
            [sys.executable, "-S", "-c", probe],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 0, proc.stderr
        loaded = set(proc.stdout.split()) - {"__main__", "linform"}
        assert loaded <= sys.stdlib_module_names, sorted(loaded - sys.stdlib_module_names)

    def test_json_output_reparses(self, capsys):
        for golden, expected_code, argv in GOLDEN_RUNS:
            if golden.endswith(".tsv"):
                continue
            _, out, _ = run(capsys, *argv)
            json.loads(out)
