"""Exact arithmetic for representation functions of integer linear forms.

The library answers four related questions about a form
u1*x1 + ... + uh*xh + v*y over finite integer sets A1..Ah:

* counting: how often is each integer represented (plain, modular, and
  augmented variants, all exact);
* verification: does a periodic set B make every integer hit exactly t
  times, with a least-|n| counterexample when not;
* reconstruction: which periodic sets are compatible with a window of
  membership bits, via a two-sided recursion with a provable period bound;
* inversion: which finite sets realize a prescribed count profile on a
  window, via exhaustive canonical search, and do the window solutions
  stabilize into a verified periodic complement.
"""

from .checked import INT64_MAX, INT64_MIN, checked_add, checked_mul, checked_neg, checked_sub
from .cyclotomy import ConditionReport, LaurentPoly, check_condition, product
from .errors import (
    DegenerateGapError,
    GapTooLargeError,
    InconsistentWindowError,
    IntegerOverflowError,
    LinformError,
    ProblemFormatError,
)
from .forms import (
    MAX_MODULUS,
    AugmentedForm,
    LinearForm,
    RepFunction,
    SetTuple,
    augmented_repfn_finite,
    image_repfn,
    modular_repfn,
)
from .periodic import ComplementCertificate, PeriodicSet, Violation, augmented_repfn, check_t_complementing
from .problems import ProblemFile, parse_problem, parse_problem_dict, problem_to_dict
from .recursion import (
    DEFAULT_MAX_GAP,
    RecursionContext,
    Window,
    build_context,
    detect_period,
    extend,
)
from .solver import (
    DEFAULT_NODE_BUDGET,
    SolveResult,
    SolveStatus,
    StabilizeAttempt,
    StabilizeResult,
    TargetFunction,
    WindowProblem,
    candidate_bound,
    recenter,
    solve_window,
    stabilize,
)

__all__ = [
    "AugmentedForm",
    "ComplementCertificate",
    "ConditionReport",
    "DEFAULT_MAX_GAP",
    "DEFAULT_NODE_BUDGET",
    "DegenerateGapError",
    "GapTooLargeError",
    "INT64_MAX",
    "INT64_MIN",
    "InconsistentWindowError",
    "IntegerOverflowError",
    "LaurentPoly",
    "LinearForm",
    "LinformError",
    "MAX_MODULUS",
    "PeriodicSet",
    "ProblemFile",
    "ProblemFormatError",
    "RecursionContext",
    "RepFunction",
    "SetTuple",
    "SolveResult",
    "SolveStatus",
    "StabilizeAttempt",
    "StabilizeResult",
    "TargetFunction",
    "Violation",
    "Window",
    "WindowProblem",
    "augmented_repfn",
    "augmented_repfn_finite",
    "build_context",
    "candidate_bound",
    "check_condition",
    "check_t_complementing",
    "checked_add",
    "checked_mul",
    "checked_neg",
    "checked_sub",
    "detect_period",
    "extend",
    "image_repfn",
    "modular_repfn",
    "parse_problem",
    "parse_problem_dict",
    "problem_to_dict",
    "product",
    "recenter",
    "solve_window",
    "stabilize",
]
