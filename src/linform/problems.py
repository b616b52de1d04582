"""Strict problem-file schema with positional error reporting.

A problem document is a single JSON object with fields u (coefficients),
and A (one set per coefficient), plus optional v, B (periodic set), t, and
f (target function). This module checks the JSON shapes and the fields
that no constructor sees; the values themselves are validated by building
the domain objects (LinearForm, SetTuple, AugmentedForm, PeriodicSet,
TargetFunction), whose errors become ProblemFormatError; the parsed
problem keeps them. Unknown fields, repeated keys, wrong shapes, zero
coefficients, duplicates, and out-of-range integers are all rejected with
messages that name the offending position. Parsing and printing
round-trip exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .checked import ensure_int64
from .errors import IntegerOverflowError, ProblemFormatError
from .forms import AugmentedForm, LinearForm, SetTuple
from .periodic import PeriodicSet
from .solver import TargetFunction

_ALLOWED_KEYS = {"u", "v", "A", "B", "t", "f"}


@dataclass(frozen=True)
class ProblemFile:
    """A parsed problem, holding the domain objects that validated it."""

    form: LinearForm
    domain: SetTuple
    augmented: AugmentedForm | None = None  # form with v*y appended, when the file has "v"
    periodic: PeriodicSet | None = None
    t: int | None = None
    target: TargetFunction | None = None

    def augmented_form(self) -> AugmentedForm:
        if self.augmented is None:
            raise ProblemFormatError('this command needs field "v" in the problem file')
        return self.augmented


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    document = {}
    for key, value in pairs:
        if key in document:
            raise ProblemFormatError(f'duplicate key "{key}"')
        document[key] = value
    return document


def parse_problem(text: str) -> ProblemFile:
    try:
        document = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(f"malformed JSON: {exc}") from exc
    return parse_problem_dict(document)


def _build(constructor, *args):
    """Run a validating constructor or check, reporting its failure as a format error."""
    try:
        return constructor(*args)
    except (TypeError, ValueError, IntegerOverflowError) as exc:
        raise ProblemFormatError(str(exc)) from None


def parse_problem_dict(document) -> ProblemFile:
    if not isinstance(document, dict):
        raise ProblemFormatError("the problem document must be a JSON object")
    unknown = set(document) - _ALLOWED_KEYS
    if unknown:
        raise ProblemFormatError(f'unknown field "{sorted(unknown)[0]}"')

    raw_u = document.get("u")
    if not isinstance(raw_u, list) or not raw_u:
        raise ProblemFormatError('"u" must be a nonempty array of integers')
    form = _build(LinearForm, tuple(raw_u))

    raw_sets = document.get("A")
    if not isinstance(raw_sets, list) or not raw_sets:
        raise ProblemFormatError('"A" must be a nonempty array of integer arrays')
    if len(raw_sets) != len(raw_u):
        raise ProblemFormatError(
            f'"A" holds {len(raw_sets)} sets but "u" has {len(raw_u)} coefficients'
        )
    for i, raw in enumerate(raw_sets):
        if not isinstance(raw, list) or not raw:
            raise ProblemFormatError(f"A[{i}] must be a nonempty array of integers")
    sets = _build(SetTuple, tuple(tuple(raw) for raw in raw_sets))

    augmented = None
    if "v" in document:
        augmented = _build(AugmentedForm, form, document["v"])

    periodic = None
    if "B" in document:
        raw_b = document["B"]
        if not isinstance(raw_b, dict) or set(raw_b) != {"modulus", "residues"}:
            raise ProblemFormatError('"B" must be an object with fields "modulus" and "residues"')
        if not isinstance(raw_b["residues"], list):
            raise ProblemFormatError("B.residues must be an array of integers")
        periodic = _build(PeriodicSet, raw_b["modulus"], tuple(raw_b["residues"]))

    t = None
    if "t" in document:
        t = _build(ensure_int64, document["t"], "t")
        if t < 0:
            raise ProblemFormatError("t must be a nonnegative integer")

    target = None
    if "f" in document:
        raw_f = document["f"]
        if not isinstance(raw_f, dict) or not set(raw_f) <= {"default", "overrides"}:
            raise ProblemFormatError(
                '"f" must be an object with fields "default" and optionally "overrides"'
            )
        if "default" not in raw_f:
            raise ProblemFormatError('"f" needs a "default" value')
        default = raw_f["default"]
        if default == "inf":
            default = None
        elif default is not None:
            default = _build(ensure_int64, default, "f.default")
        overrides: dict[int, int] = {}
        raw_overrides = raw_f.get("overrides", {})
        if not isinstance(raw_overrides, dict):
            raise ProblemFormatError("f.overrides must be an object")
        for key, value in raw_overrides.items():
            # only the canonical spelling, so that distinct keys never collide
            # and printing the parsed problem gives back the same document
            try:
                n = int(key, 10)
            except (TypeError, ValueError):
                n = None
            if n is None or str(n) != key:
                raise ProblemFormatError(
                    f'f.overrides key "{key}" must spell an integer in plain decimal'
                )
            n = _build(ensure_int64, n, "f.overrides key")
            overrides[n] = _build(ensure_int64, value, f"f.overrides[{key}]")
        if default is None and not overrides:
            raise ProblemFormatError('f with default "inf" must override at least one value')
        target = _build(TargetFunction, default, overrides)

    return ProblemFile(form, sets, augmented=augmented, periodic=periodic, t=t, target=target)


def problem_to_dict(problem: ProblemFile) -> dict:
    document: dict = {"u": list(problem.form.coeffs), "A": [list(s) for s in problem.domain.sets]}
    if problem.augmented is not None:
        document["v"] = problem.augmented.v
    if problem.periodic is not None:
        document["B"] = problem.periodic.to_dict()
    if problem.t is not None:
        document["t"] = problem.t
    if problem.target is not None:
        default = "inf" if problem.target.default is None else problem.target.default
        document["f"] = {
            "default": default,
            "overrides": {str(n): c for n, c in sorted(problem.target.overrides.items())},
        }
    return document
