"""Finite-window inverse problems: which sets B realize prescribed counts.

Given a normalized augmented form, a set tuple, and a target function f, the
window problem at radius N asks for a finite set B whose augmented count
equals f(n) for every |n| <= N. Any element b of a solution contributes at
least one representation with |psi(a) + v*b| <= N + g_star where g_star
bounds |psi| on the tuple, so all solutions live inside the candidate
interval [-(N + g_star)/v, (N + g_star)/v] rounded toward zero.

solve_window runs a canonical depth-first search over candidate membership:
candidates ascend, the include branch is tried before the exclude branch,
a running count above a finite f(n) prunes immediately, and once every
undecided candidate lies too high to reach a position n, the count at n is
forced and checked exactly. Excluding a candidate prunes as soon as, at a
position it touches, the included candidates plus every candidate above it
fall short of a finite f(n) (forward checking); those floors depend only
on the candidate, so they are computed once and never restored. Pruning
only drops subtrees without a solution, so the first witness in this order
is the one found. The candidates listed run from the least to the
greatest b for which some image value lands inside the window; those beyond
either end are excluded outright. A candidate between them whose shifted
image misses the window is still branched on, include first, so a witness
can carry such idle elements. The search is exhaustive: Unsat is a proof,
never a timeout; running out of the node budget reports ResourceLimit
instead. Every witness is re-verified by direct finite counting before
being returned.

stabilize chains the pieces: it solves growing windows with the constant-t
target, feeds each witness's central bits to the period detector, and
accepts the first candidate set that passes full verification.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

from .checked import checked_add, checked_mul, checked_sub
from .errors import InconsistentWindowError, LinformError
from .forms import AugmentedForm, RepFunction, SetTuple, image_repfn
from .periodic import PeriodicSet, check_t_complementing
from .recursion import DEFAULT_MAX_GAP, PeriodReport, Window, build_context, detect_period

DEFAULT_NODE_BUDGET = 10_000_000
# What one window search may allocate: the radius N sizes two lists of
# 2N + 1 counts, and the candidate span one list entry per candidate. Both
# are far above the radii in use (hundreds) and far below what exhausts
# memory.
MAX_RADIUS = 1_000_000
MAX_CANDIDATE_SPAN = 1_000_000


@dataclass(frozen=True)
class TargetFunction:
    """Required count per integer: overrides win, otherwise the default.

    A value of None means unconstrained there; finite values must be met
    exactly inside the window.
    """

    default: int | None
    overrides: dict[int, int]

    def __post_init__(self) -> None:
        if self.default is not None and self.default < 0:
            raise ValueError("f.default must be nonnegative")
        for n, value in self.overrides.items():
            if value < 0:
                raise ValueError(f"f.overrides[{n}] must be nonnegative")

    @classmethod
    def constant(cls, t: int) -> TargetFunction:
        return cls(default=t, overrides={})

    def at(self, n: int) -> int | None:
        return self.overrides.get(n, self.default)


@dataclass(frozen=True)
class WindowProblem:
    """A window problem at radius N; the candidate interval follows from the image, N and v."""

    form: AugmentedForm
    target: TargetFunction | None
    N: int
    image: RepFunction

    def __post_init__(self) -> None:
        # the candidate interval comes from the image, whose diameter must fit
        # signed 64-bit: reading it raises IntegerOverflowError otherwise
        self.image.diameter

    @property
    def g_star(self) -> int:
        return max(abs(self.image.g_min), abs(self.image.g_max))

    @property
    def candidate_hi(self) -> int:
        return checked_add(self.N, self.g_star) // self.form.v

    @property
    def candidate_lo(self) -> int:
        return -self.candidate_hi


class SolveStatus(enum.Enum):
    SOLVED = "solved"
    UNSAT = "unsat"
    RESOURCE_LIMIT = "resource_limit"


@dataclass(frozen=True)
class SolveResult:
    status: SolveStatus
    witness: tuple[int, ...] | None
    nodes_explored: int


@dataclass(frozen=True)
class StabilizeAttempt:
    N: int
    status: str
    detail: str = ""


@dataclass(frozen=True)
class StabilizeResult:
    """Either a verified periodic complement or the per-N record of why not."""

    periodic_set: PeriodicSet | None
    report: PeriodReport | None
    attempts: tuple[StabilizeAttempt, ...]

    @property
    def found(self) -> bool:
        return self.periodic_set is not None


def candidate_bound(form: AugmentedForm, sets: SetTuple, N: int) -> WindowProblem:
    """Problem skeleton with the candidate interval for radius N; target left unset."""
    if not form.is_normalized:
        raise ValueError("window problems require a normalized form (v >= 1)")
    if N < 0:
        raise ValueError("window radius N must be nonnegative")
    return WindowProblem(form, None, N, image_repfn(form.base, sets))


def solve_window(problem: WindowProblem, max_nodes: int = DEFAULT_NODE_BUDGET) -> SolveResult:
    """Canonical DFS for a finite set matching the target on [-N, N]."""
    if problem.target is None:
        raise ValueError("the problem has no target function; attach one first")
    if max_nodes < 1:
        raise ValueError("node budget must be positive")
    form, target, N, image = problem.form, problem.target, problem.N, problem.image
    if N > MAX_RADIUS:
        raise LinformError(f"window radius N = {N} exceeds the limit {MAX_RADIUS}")
    v, g_min, g_max = form.v, image.g_min, image.g_max
    support = image.support()

    # Only candidates with a representation landing inside the window matter;
    # the rest of the candidate interval is canonically excluded.
    contrib_lo = max(problem.candidate_lo, -((N + g_max) // v))
    contrib_hi = min(problem.candidate_hi, (N - g_min) // v)
    if contrib_hi - contrib_lo > MAX_CANDIDATE_SPAN:
        raise LinformError(
            f"candidate span {contrib_hi - contrib_lo} exceeds the limit {MAX_CANDIDATE_SPAN}"
        )

    required = [target.at(n) for n in range(-N, N + 1)]
    counts = [0] * (2 * N + 1)

    def advance(frontier: int, limit: int) -> int | None:
        # Verify every newly finalized position; None signals a violation.
        stop = min(limit, N)
        while frontier < stop:
            frontier += 1
            need = required[frontier + N]
            if need is not None and counts[frontier + N] != need:
                return None
        return frontier

    candidates = list(range(contrib_lo, contrib_hi + 1))
    last = len(candidates)
    if candidates:
        # every shifted value g + v*b lies between these two sums, so checking
        # them checks all
        checked_add(g_min, checked_mul(v, contrib_lo))
        checked_add(g_max, checked_mul(v, contrib_hi))
    # Once candidate b is excluded, a position n = g + v*b that it touches can
    # still gain only from the candidates above b, which reach n through the
    # image values under g in g's class mod v: below[g] in all. So the count
    # from the candidates under b must be at least f(n) - below[g] there, and
    # only the values with below[g] under the largest finite f(n) can bind.
    top = max((need for need in required if need is not None), default=0)
    below: dict[int, int] = {}  # per class mod v, the count of the values so far
    low = []  # (g, below[g]) for the values that can bind
    for value, mult in support:
        k = below.get(value % v, 0)
        if k < top:
            low.append((value, k))
        below[value % v] = k + mult
    contributions: list[list[tuple[int, int]]] = []  # (position + N, multiplicity) per candidate
    floors: list[list[tuple[int, int]]] = []  # (position + N, least count if excluded) per candidate
    for b in candidates:
        start, stop = -N - v * b, N - v * b  # the values that land in the window
        contributions.append([(value - start, mult) for value, mult in support if start <= value <= stop])
        floors.append(
            [
                (value - start, required[value - start] - k)
                for value, k in low
                if start <= value <= stop and (required[value - start] or 0) > k
            ]
        )
    # positions up to thresholds[i] are final once candidate i is decided
    thresholds = [g_min + v * b + v - 1 for b in candidates[:-1]] + [N]

    # Depth-first with an explicit stack of branches still to take, so the
    # depth is not bounded by Python's recursion limit. Popping the include
    # branch of candidate i first pushes its exclude branch, which thus runs
    # after the whole include subtree, in the order of a recursive search.
    chosen: list[int] = []  # indexes of the included candidates, innermost last
    branches = [(0, -N - 1, True)]  # (candidate index, frontier, include?)
    nodes = 0
    while branches:
        i, frontier, include = branches.pop()
        if i == last:
            if advance(frontier, N) is not None:
                break
            continue
        nodes += 1
        if nodes > max_nodes:
            return SolveResult(SolveStatus.RESOURCE_LIMIT, None, nodes)
        if include:
            branches.append((i, frontier, False))
            placed = 0
            for index, mult in contributions[i]:
                counts[index] += mult
                placed += 1
                need = required[index]
                if need is not None and counts[index] > need:
                    break
            else:
                after = advance(frontier, thresholds[i])
                if after is not None:
                    chosen.append(i)
                    branches.append((i + 1, after, True))
                    continue
            for index, mult in contributions[i][:placed]:
                counts[index] -= mult
        else:
            while chosen and chosen[-1] >= i:  # leave the include subtrees below i
                for index, mult in contributions[chosen.pop()]:
                    counts[index] -= mult
            for index, floor in floors[i]:
                if counts[index] < floor:
                    break
            else:
                after = advance(frontier, thresholds[i])
                if after is not None:
                    branches.append((i + 1, after, True))
    else:
        return SolveResult(SolveStatus.UNSAT, None, nodes)

    # Re-verify the witness by counting each position afresh, apart from the search.
    witness = tuple(candidates[i] for i in chosen)
    members = frozenset(witness)
    for n in range(-N, N + 1):
        need = target.at(n)
        if need is None:
            continue
        observed = 0
        for value, mult in support:
            delta = n - value
            if delta % v == 0 and delta // v in members:
                observed += mult
        if observed != need:
            raise AssertionError(f"witness failed re-verification at {n}")
    return SolveResult(SolveStatus.SOLVED, witness, nodes)


def recenter(form: AugmentedForm, members: tuple[int, ...], c: int) -> tuple[int, ...]:
    """Translate a finite witness by -c; only meaningful when v = 1.

    For v = 1 shifting B by -c shifts the count function by -c as well, so
    recentered window solutions stay solutions of the recentered target. No
    such clean translation exists for v > 1, hence the rejection.
    """
    if form.v != 1:
        raise ValueError("recentering is only defined for v = 1")
    return tuple(sorted(checked_sub(b, c) for b in members))


def stabilize(
    form: AugmentedForm,
    sets: SetTuple,
    t: int,
    max_n: int,
    max_nodes: int = DEFAULT_NODE_BUDGET,
    max_gap: int = DEFAULT_MAX_GAP,
) -> StabilizeResult:
    """Search radii N = 1..max_n for a window witness that settles into a verified period."""
    if max_n < 1:
        raise ValueError("max_n must be at least 1")
    ctx = build_context(form, sets, t)
    if ctx.gap == 0:
        # Gap zero forces a constant membership bit: the only infinite
        # candidate is B = Z.
        everything = PeriodicSet(1, (0,))
        if check_t_complementing(form, ctx.image, everything, t).verdict:
            report = PeriodReport(period=1, bound=1, periodic_set=everything, preperiod_checked=False)
            attempt = StabilizeAttempt(0, "degenerate", "constant membership, B = Z verified")
            return StabilizeResult(everything, report, (attempt,))
        attempt = StabilizeAttempt(0, "degenerate", "constant membership admits no infinite B")
        return StabilizeResult(None, None, (attempt,))

    attempts: list[StabilizeAttempt] = []
    skeleton = WindowProblem(form, TargetFunction.constant(t), 0, ctx.image)
    for radius in range(1, max_n + 1):
        result = solve_window(replace(skeleton, N=radius), max_nodes=max_nodes)
        if result.status is SolveStatus.UNSAT:
            # Window constraints only grow with N, so no larger radius can succeed.
            attempts.append(StabilizeAttempt(radius, "unsat", "no finite witness; larger N cannot help"))
            break
        if result.status is SolveStatus.RESOURCE_LIMIT:
            attempts.append(StabilizeAttempt(radius, "resource_limit", f"budget of {max_nodes} nodes exhausted"))
            break
        assert result.witness is not None
        members = frozenset(result.witness)
        start = -(ctx.gap // 2)
        seed = Window(start, tuple(1 if start + i in members else 0 for i in range(ctx.gap)))
        try:
            report = detect_period(ctx, seed, max_gap=max_gap)
        except InconsistentWindowError as exc:
            attempts.append(StabilizeAttempt(radius, "inconsistent", str(exc)))
            continue
        cert = check_t_complementing(form, ctx.image, report.periodic_set, t)
        if cert.verdict:
            attempts.append(StabilizeAttempt(radius, "verified", f"period {report.period}"))
            return StabilizeResult(report.periodic_set, report, tuple(attempts))
        assert cert.first_violation is not None
        attempts.append(
            StabilizeAttempt(
                radius,
                "rejected",
                f"candidate period {report.period} fails at n = {cert.first_violation.n}",
            )
        )
    return StabilizeResult(None, None, tuple(attempts))
