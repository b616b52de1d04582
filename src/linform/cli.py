"""Command-line interface: one subcommand per library operation family.

Exit codes: 0 for success or a true verdict, 1 for a false verdict or an
unsatisfiable instance, 2 for usage errors, malformed input, overflow, or
refused/over-budget computations. Formatting flags never change exit codes.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .cyclotomy import check_condition
from .errors import InconsistentWindowError, LinformError
from .forms import image_repfn, modular_repfn
from .periodic import check_t_complementing
from .problems import ProblemFile, parse_problem
from .recursion import DEFAULT_MAX_GAP, Window, build_context, detect_period, extend
from .solver import (
    DEFAULT_NODE_BUDGET,
    SolveStatus,
    TargetFunction,
    candidate_bound,
    solve_window,
    stabilize,
)

# Command-specific flags; a command registers only the ones its handler reads (see COMMANDS).
_FLAGS = {
    "-m": {"type": int, "help": "modulus"},
    "-t": {"type": int, "help": "target count (overrides the file)"},
    "-N": {"type": int, "help": "window radius / radius cap"},
    "--seed": {"help": "window seed as START:BITS, e.g. --seed=-1:101"},
    "--from": {"dest": "lo", "type": int, "help": "extension lower end"},
    "--to": {"dest": "hi", "type": int, "help": "extension upper end"},
    "--max-nodes": {"type": int, "default": DEFAULT_NODE_BUDGET},
    "--max-d": {"dest": "max_gap", "type": int, "default": DEFAULT_MAX_GAP},
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI parser: every command's subparser, or only that of command.

    argparse set-up costs more than a small command's work, so main builds
    only the subparser of the command it was given. The top-level usage it
    prints for an error after the command still names every command: with
    one subparser registered, the metavar spells out the full choice list.
    It is set only then, because it also replaces "command" in the full
    parser's own "invalid choice" and "required" errors.
    """
    parser = argparse.ArgumentParser(
        prog="linform",
        description="Exact representation-function tools for integer linear forms.",
    )
    names = COMMANDS if command is None else (command,)
    metavar = None if command is None else "{" + ",".join(COMMANDS) + "}"
    subparsers = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        flags = COMMANDS[name][1]
        # with fewer flags per command a prefix such as --max would become
        # unambiguous; exact spellings keep every command's flags a subset
        sub = subparsers.add_parser(name, allow_abbrev=False)
        sub.add_argument("--input", required=True, help="problem file (JSON)")
        for flag in flags:
            sub.add_argument(flag, **_FLAGS[flag])
        sub.add_argument("--format", choices=("json", "tsv"), default="json")
    return parser


# Window bits are 0/1, so their bytes translate straight to the characters "0"/"1".
_BITS = bytes.maketrans(b"\0\1", b"01")


class _UsageError(Exception):
    pass


def _parse_seed(text: str) -> Window:
    head, sep, tail = text.partition(":")
    if not sep or not tail or set(tail) - {"0", "1"}:
        raise _UsageError(f'seed must look like "START:BITS" with BITS over 0/1, got "{text}"')
    try:
        start = int(head, 10)
    except ValueError:
        raise _UsageError(f'seed start "{head}" is not an integer') from None
    return Window(start, tuple(int(c) for c in tail))


def _need(value, flag: str):
    if value is None:
        raise _UsageError(f"this command requires {flag}")
    return value


def _target_count(args, problem: ProblemFile) -> int:
    t = args.t if args.t is not None else problem.t
    if t is None:
        raise _UsageError('this command requires a target count: pass -t or put "t" in the file')
    if t < 0:
        raise _UsageError("t must be a nonnegative integer")
    return t


def _cmd_image(args, problem):
    rep = image_repfn(problem.form, problem.domain)
    out = {
        "g_min": rep.g_min,
        "g_max": rep.g_max,
        "diameter": rep.diameter,
        "count_min": rep.count_min,
        "count_max": rep.count_max,
        "image": [n for n, _ in rep.support()],
    }
    return out, 0, f"image of {len(rep.counts)} values, diameter {rep.diameter}"


def _cmd_repfn(args, problem):
    rep = image_repfn(problem.form, problem.domain)
    out = {"total": rep.total(), "support": [[n, c] for n, c in rep.support()]}
    return out, 0, f"{rep.total()} tuples over {len(rep.counts)} values"


def _cmd_modrep(args, problem):
    m = _need(args.m, "-m")
    counts = modular_repfn(problem.form, problem.domain, m)
    return {"m": m, "counts": counts}, 0, f"residue counts mod {m}"


def _cmd_cyclotomy(args, problem):
    m = _need(args.m, "-m")
    t = _target_count(args, problem)
    holds, shift, reduced = check_condition(problem.form, problem.domain, m, t)
    out = {
        "verdict": holds,
        "m": m,
        "t": t,
        "L": shift,
        "coefficients": list(reduced),
    }
    note = "condition holds" if holds else "condition fails"
    return out, 0 if holds else 1, f"{note} mod {m} at t = {t}"


def _violation(out: dict, cert, reflected: bool) -> int:
    """Add the certificate's violation to out, read back through the reflection; return its n."""
    violation = cert.first_violation
    n = -violation.n if reflected else violation.n
    out["violations"] = [{"n": n, "observed": violation.observed, "expected": violation.expected}]
    return n


def _inconsistent(exc: InconsistentWindowError, reflected: bool):
    out = {"verdict": False, "inconsistent_at": exc.index, "reflected": reflected}
    return out, 1, f"no consistent bit at {exc.index}"


def _cmd_check(args, problem):
    form, reflected = problem.augmented_form().normalized()
    if problem.periodic is None:
        raise _UsageError('this command needs field "B" in the problem file')
    t = _target_count(args, problem)
    cert = check_t_complementing(form, image_repfn(form.base, problem.domain), problem.periodic, t)
    out = {
        "verdict": cert.verdict,
        "t": t,
        "period_checked": cert.period_checked,
        "reflected": reflected,
    }
    if cert.verdict:
        return out, 0, f"t-complementing over period {cert.period_checked}"
    n = _violation(out, cert, reflected)
    return out, 1, f"not t-complementing: count at {n} is {cert.first_violation.observed}, expected {t}"


def _cmd_extend(args, problem):
    form, reflected = problem.augmented_form().normalized()
    t = _target_count(args, problem)
    seed = _parse_seed(_need(args.seed, "--seed"))
    lo = _need(args.lo, "--from")
    hi = _need(args.hi, "--to")
    ctx = build_context(form, problem.domain, t)
    try:
        window = extend(ctx, seed, lo, hi)
    except InconsistentWindowError as exc:
        return _inconsistent(exc, reflected)
    bits = bytes(window.bits).translate(_BITS).decode("ascii")
    out = {"verdict": True, "start": window.start, "bits": bits, "reflected": reflected}
    return out, 0, f"extended to [{lo}, {hi}]"


def _cmd_period(args, problem):
    form, reflected = problem.augmented_form().normalized()
    t = _target_count(args, problem)
    seed = _parse_seed(_need(args.seed, "--seed"))
    ctx = build_context(form, problem.domain, t)
    try:
        pset = detect_period(ctx, seed, max_gap=args.max_gap)
    except InconsistentWindowError as exc:
        return _inconsistent(exc, reflected)
    cert = check_t_complementing(form, ctx.image, pset, t)
    out = {
        "verdict": cert.verdict,
        "period": pset.modulus,
        "bound": 1 << ctx.gap,
        "periodic_set": pset.to_dict(),
        "preperiod_checked": True,  # detect_period returns only purely periodic sets
        "reflected": reflected,
    }
    if cert.verdict:
        return out, 0, f"verified complement of period {pset.modulus}"
    return out, 1, f"period {pset.modulus} candidate fails at {_violation(out, cert, reflected)}"


def _cmd_solve(args, problem):
    form, reflected = problem.augmented_form().normalized()
    radius = _need(args.N, "-N")
    if radius < 0:
        raise _UsageError("-N must be nonnegative")
    if problem.target is not None:
        target = problem.target
        if args.t is not None:
            raise _UsageError('pass either -t or field "f", not both')
    else:
        target = TargetFunction.constant(_target_count(args, problem))
    if reflected:
        target = TargetFunction(target.default, {-n: c for n, c in target.overrides.items()})
    problem_window = candidate_bound(form, problem.domain, radius, target)
    result = solve_window(problem_window, max_nodes=args.max_nodes)
    out = {
        "status": result.status.value,
        "nodes": result.nodes_explored,
        "N": radius,
        "candidate_lo": problem_window.candidate_lo,
        "candidate_hi": problem_window.candidate_hi,
        "reflected": reflected,
    }
    if result.status is SolveStatus.SOLVED:
        out["witness"] = list(result.witness)
        return out, 0, f"solved with {len(result.witness)} elements in {result.nodes_explored} nodes"
    if result.status is SolveStatus.UNSAT:
        return out, 1, f"unsatisfiable at N = {radius} ({result.nodes_explored} nodes)"
    return out, 2, f"node budget {args.max_nodes} exhausted"


def _cmd_stabilize(args, problem):
    form, reflected = problem.augmented_form().normalized()
    t = _target_count(args, problem)
    max_n = args.N if args.N is not None else 8
    if max_n < 1:
        raise _UsageError("-N must be at least 1")
    result = stabilize(
        form, problem.domain, t, max_n, max_nodes=args.max_nodes, max_gap=args.max_gap
    )
    attempts = [{"N": a.N, "status": a.status, "detail": a.detail} for a in result.attempts]
    out: dict = {"verdict": result.found}
    if result.found:
        out["period"] = result.periodic_set.modulus
        out["bound"] = result.bound
        out["periodic_set"] = result.periodic_set.to_dict()
    out["attempts"] = attempts
    out["reflected"] = reflected
    if result.found:
        return out, 0, f"stabilized at period {result.periodic_set.modulus}"
    return out, 1, f"no verified complement within N <= {max_n}"


# command -> (handler, the _FLAGS it reads besides --input and --format)
COMMANDS = {
    "image": (_cmd_image, ()),
    "repfn": (_cmd_repfn, ()),
    "modrep": (_cmd_modrep, ("-m",)),
    "cyclotomy": (_cmd_cyclotomy, ("-m", "-t")),
    "check": (_cmd_check, ("-t",)),
    "extend": (_cmd_extend, ("-t", "--seed", "--from", "--to")),
    "period": (_cmd_period, ("-t", "--seed", "--max-d")),
    "solve": (_cmd_solve, ("-t", "-N", "--max-nodes")),
    "stabilize": (_cmd_stabilize, ("-t", "-N", "--max-nodes", "--max-d")),
}


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(report, indent=2) + "\n")
        return
    lines = []
    for key, value in report.items():
        if isinstance(value, bool):
            rendered = "true" if value else "false"
        elif isinstance(value, str):
            rendered = value
        elif isinstance(value, int):
            rendered = str(value)
        else:
            rendered = json.dumps(value, separators=(",", ":"))
        lines.append(f"{key}\t{rendered}")
    sys.stdout.write("\n".join(lines) + "\n")


def dispatch(args) -> int:
    try:
        text = Path(args.input).read_text()
    except OSError as exc:
        print(f"error: cannot read {args.input}: {exc}", file=sys.stderr)
        return 2
    try:
        problem = parse_problem(text)
        handler, _ = COMMANDS[args.command]
        report, code, note = handler(args, problem)
    except (_UsageError, LinformError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # last resort: no input may end in a traceback; repr keeps it to one line
        print(f"error: internal error: {exc!r}", file=sys.stderr)
        return 2
    _emit(report, args.format)
    if note:
        print(note, file=sys.stderr)
    return code


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    command = argv[0] if argv and argv[0] in COMMANDS else None
    args = build_parser(command).parse_args(argv)
    return dispatch(args)


def console_entry() -> None:
    sys.exit(main())
