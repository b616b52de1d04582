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
image misses the window is idle: it has no floor either, its two subtrees
are the same, so only the include branch is taken, and a witness can carry
such idle elements. The search is exhaustive: Unsat is a proof, never a
timeout; running out of the node budget reports ResourceLimit instead.
Every witness is re-verified by direct finite counting before being
returned.

The counts live in one int, a digit of (mass + 1).bit_length() + 1 bits per
position, where the mass (the image's total count) bounds every count
(Lamport, "Multiple byte processing with full-word instructions", CACM 18,
1975). The int holds only a band: the positions from the first one not yet
final to the last one the current candidate touches, clipped to the window,
so no int is longer than min(diameter + 1, 2N + 1) digits; deciding a
candidate shifts the finalized digits out. Including adds the candidate's
packed image, then per-digit offsets under which an overcount is a carry
into a digit's top bit and a final count on target leaves the digit at
half - 1, so one mask test checks both; the floors of an exclude are carry
tests of the same kind, fused with its final digits. Each branch on the
stack keeps its own int, so backtracking restores nothing. The per-candidate
constants, the saved ints and the window-wide digit tables they are cut
from are charged against MAX_PACKED_BITS before any is built.

stabilize chains the pieces: it solves growing windows with the constant-t
target, feeds each witness's central bits to the period detector, and
accepts the first candidate set that passes full verification. With one
target throughout, counted from the window's left end, candidate index i
touches the same positions at radius N and at N + v, and the window of
N + v is that of N with 2v more positions on the right. A solution at N + v
cut to the candidates of N solves N, as every candidate reaching those
positions is among them. So wherever the witness path of N excludes a
candidate, its include branch under the same prefix is refuted at N + v as
well: the search at N + v follows that path without those branches up to
its first failing check, and goes on as a plain DFS from there. It finds
the same witness, or the same verdict, in fewer nodes.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from dataclasses import dataclass, replace
from itertools import compress

from .checked import checked_add, checked_mul, checked_sub
from .errors import InconsistentWindowError, LinformError
from .forms import AugmentedForm, RepFunction, SetTuple, finite_counts, image_repfn
from .periodic import PeriodicSet, check_t_complementing
from .recursion import DEFAULT_MAX_GAP, PeriodReport, Window, build_context, detect_period

DEFAULT_NODE_BUDGET = 10_000_000
# What one window search may allocate: the radius N sizes a list of 2N + 1
# targets, and the candidate span one list entry per candidate. Both are far
# above the radii in use (hundreds) and far below what exhausts memory.
MAX_RADIUS = 1_000_000
MAX_CANDIDATE_SPAN = 1_000_000
# What the packed counts of one window search may take, in digit bits: per
# candidate, seven constants and one saved state of at most one band each, a
# band being min(diameter + 1, 2N + 1) digits, and per window position two
# digit tables, each built through a string of one byte per bit. Checked
# before any of them is built.
PACKED_PER_CANDIDATE = 8
PACKED_PER_POSITION = 16
MAX_PACKED_BITS = 1 << 30


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
    return _search(problem, max_nodes)[0]


def _search(problem: WindowProblem, max_nodes: int, resume: bytes = b"") -> tuple[SolveResult, bytes]:
    """solve_window's search, which also returns the witness path: per candidate, 1 if included.

    Up to its first failing check, the search skips the include branch
    wherever resume holds 0. That is exact only where those branches are
    refuted in this window, as for stabilize (see the module docstring).
    """
    if problem.target is None:
        raise ValueError("the problem has no target function; attach one first")
    if max_nodes < 1:
        raise ValueError("node budget must be positive")
    form, target, N, image = problem.form, problem.target, problem.N, problem.image
    if N > MAX_RADIUS:
        raise LinformError(f"window radius N = {N} exceeds the limit {MAX_RADIUS}")
    v, g_min, g_max = form.v, image.g_min, image.g_max
    diam = g_max - g_min

    # Only candidates with a representation landing inside the window matter;
    # the rest of the candidate interval is canonically excluded.
    contrib_lo = max(problem.candidate_lo, -((N + g_max) // v))
    contrib_hi = min(problem.candidate_hi, (N - g_min) // v)
    if contrib_hi - contrib_lo > MAX_CANDIDATE_SPAN:
        raise LinformError(
            f"candidate span {contrib_hi - contrib_lo} exceeds the limit {MAX_CANDIDATE_SPAN}"
        )
    candidates = range(contrib_lo, contrib_hi + 1)
    last = len(candidates)
    # A count at n sums image values n - v*b over distinct b, so it never
    # exceeds the image's mass; a digit of width bits holds it with a spare
    # top bit for the carry tests.
    mass = image.total()
    width = (mass + 1).bit_length() + 1
    widest = min(diam + 1, 2 * N + 1)  # digits in a band
    packed = width * (PACKED_PER_CANDIDATE * last * widest + PACKED_PER_POSITION * (2 * N + 1))
    if packed > MAX_PACKED_BITS:
        raise LinformError(f"packed counts of {packed} bits exceed the limit {MAX_PACKED_BITS}")
    if candidates:
        # every shifted value g + v*b lies between these two sums, so checking
        # them checks all
        checked_add(g_min, checked_mul(v, contrib_lo))
        checked_add(g_max, checked_mul(v, contrib_hi))

    required = [target.at(n) for n in range(-N, N + 1)]
    support = image.support()
    values = [value for value, _ in support]
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

    # Digit tests. A target above the mass is as unreachable as mass + 1. An
    # offset of half - 1 - f(n) sets a digit's top bit exactly when the count
    # exceeds f(n), and leaves the digit at half - 1 exactly when the count
    # equals f(n); an offset of half - floor sets the top bit exactly when the
    # count reaches the floor. An unconstrained position is never tested.
    # Including a candidate is then one addition of its image, one of the
    # offsets and one mask test: no top bit set, and half - 1 in every digit
    # it finalizes. Excluding is one addition and one mask test: top bits at
    # the floors, half - 1 in the final digits.
    cap, half = mass + 1, 1 << (width - 1)
    high = int(format(half, f"0{width}b") * widest, 2)

    targets = set(required)

    def window_table(digit) -> bytes:
        # one digit per window position, position -N in the lowest bits
        strings = {need: format(0 if need is None else digit(need), f"0{width}b") for need in targets}
        digits = int("".join([strings[need] for need in reversed(required)]), 2)
        return digits.to_bytes((width * (2 * N + 1) + 7) // 8, "little")

    over_table = window_table(lambda need: half - 1 - min(need, cap))
    final_table = window_table(lambda need: (1 << width) - 1)

    def cut(table: bytes, lo: int, hi: int) -> int:
        # the digits of positions lo..hi, position lo in the lowest bits; with
        # one target throughout, every stretch of a table reads as its start
        if hi < lo:
            return 0
        start = 0 if len(targets) == 1 else width * (lo + N)
        stop = start + width * (hi - lo + 1)
        stretch = int.from_bytes(table[start >> 3 : (stop + 7) >> 3], "little")
        return (stretch >> (start & 7)) & ((1 << (stop - start)) - 1)

    # Candidate i's band runs from the first position not yet final to the
    # last one it touches, clipped to the window. Deciding i finalizes the
    # band's positions up to end, so the next band starts past them and the
    # counts shift down by the difference.
    def band(i: int) -> tuple:
        """(image, offsets, include test, its result, exclude offsets, test, result, shift) of candidate i."""
        vb = v * candidates[i]
        lo = g_min + vb
        base = lo if lo > -N else -N
        stop = lo + diam if lo + diam < N else N
        end = N if i == last - 1 else lo + v - 1  # the last position final once i is decided
        over = cut(over_table, base, stop)
        final = cut(final_table, base, min(end, stop))
        mask = floor = floor_bits = 0
        for value, mult in support[bisect_left(values, base - vb) : bisect_left(values, stop + 1 - vb)]:
            mask |= mult << width * (value + vb - base)
        for value, k in low:
            n = value + vb  # a floor where the count is final is implied by the final test
            if base <= n <= stop and n > end and (required[n + N] or 0) > k:
                floor |= (half - min(required[n + N] - k, cap)) << width * (n - base)
                floor_bits |= half << width * (n - base)
        expect = final & ~high  # half - 1 in each final digit
        # A position that deciding i finalizes outside its band (below the
        # first band, or between bands when v exceeds diam + 1) is reached by
        # no candidate: a positive target there fails both branches of i.
        unreached = required[stop + N + 1 : end + N + 1] if end > stop else []
        if any(unreached) or (i == 0 and any(required[: base + N])):
            expect = -1
        after = lo + v if i < last - 1 and lo + v > -N else base
        return (
            mask,
            over,
            high | final,
            expect,
            over & final | floor,
            final | floor_bits,
            expect | floor_bits,
            width * (after - base),
        )

    # The candidates from first up to past have unclipped, adjacent bands and
    # differ only in the targets over them; when those are one value, the
    # whole run takes one tuple in one step.
    first = max(1, -((N + g_min) // v) - contrib_lo)
    past = min(last - 1, (N - g_max) // v - contrib_lo + 1)
    run_lo, run_hi = g_min + v * (contrib_lo + first), g_max + v * (contrib_lo + past - 1)
    if first >= past or v > diam + 1 or len(set(required[run_lo + N : run_hi + N + 1])) != 1:
        first = past = last
    plan: list[tuple] = []
    while len(plan) < last:
        if len(plan) == first:
            plan += [band(first)] * (past - first)
            continue
        plan.append(band(len(plan)))
        if plan[-1][3] == -1:  # a candidate that always fails: nothing past it is reached
            break

    # Depth-first, going down in local variables: at candidate i, with the
    # counts of its band, the include branch is tried first and the exclude
    # branch is pushed as (i, counts), so it runs after the whole include
    # subtree, in the order of a recursive search, and the depth is not
    # bounded by Python's recursion limit. taken holds the path to i. An idle
    # candidate, whose image misses the window (so it has no floor either),
    # has two identical subtrees, so only its include branch is taken. A node
    # either moves i on by one or pops, so the count is kept at pops and the
    # budget caps how far i may go until the next one.
    if not last and any(required):
        return SolveResult(SolveStatus.UNSAT, None, 0), b""
    taken = bytearray(last)
    pending: list[tuple[int, int]] = []  # exclude branches still to take
    spent = i = counts = 0  # spent + i nodes before the node at i
    stop = min(last, max_nodes)
    include, along = True, len(resume)
    while i < stop:
        mask, over, include_test, include_ok, exclude_add, exclude_test, exclude_ok, shift = plan[i]
        if include and (i >= along or resume[i]):
            if mask:  # an idle candidate's exclude subtree is its include subtree
                pending.append((i, counts))
            counts += mask
            if (counts + over) & include_test == include_ok:
                taken[i] = 1
                counts >>= shift
                i += 1
                continue
        elif (counts + exclude_add) & exclude_test == exclude_ok:
            counts >>= shift
            i += 1
            include = True
            continue
        if not pending:
            return SolveResult(SolveStatus.UNSAT, None, spent + i + 1), b""
        back, counts = pending.pop()
        taken[back] = 0
        spent += i + 1 - back
        i, stop = back, max_nodes - spent
        if stop > last:
            stop = last
        include, along = False, 0
    if i < last:
        return SolveResult(SolveStatus.RESOURCE_LIMIT, None, max_nodes + 1), b""

    # Re-verify the witness by counting each position afresh, apart from the search.
    witness = tuple(compress(candidates, taken))
    for n, observed in enumerate(finite_counts(image, v, witness, -N, N), -N):
        need = target.at(n)
        if need is not None and observed != need:
            raise AssertionError(f"witness failed re-verification at {n}")
    return SolveResult(SolveStatus.SOLVED, witness, spent + last), bytes(taken)


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
    """Search radii N = 1..max_n for a window witness that settles into a verified period.

    Radius N resumes from the witness path of radius N - v (see the module
    docstring), so max_nodes bounds the nodes each radius visits past what
    that path already refuted.
    """
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
    paths: dict[int, bytes] = {}  # witness paths of the last v radii
    for radius in range(1, max_n + 1):
        problem = replace(skeleton, N=radius)
        result, paths[radius] = _search(problem, max_nodes, paths.pop(radius - form.v, b""))
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
