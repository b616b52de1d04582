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

The ascending order fills every pattern of the window's free left edge
before any count there is final, so it can take a hundred thousand nodes to
refute a window whose reflection it refutes in two thousand. So once the
search has spent DECIDE_AFTER nodes per candidate, it asks _decide, once,
whether the window has a solution at all. _decide branches fail first, on
the position short of its target with the fewest live candidates, which
does not depend on which end is free. If it finds none, the search ends
unsat; if it finds one, or runs out of its own budget (as many nodes as the
search had spent when it asked), the canonical search goes on from where it
stopped, so every witness is still the canonical one. The node budget binds
the canonical search alone, so every verdict it reached within a budget
before, it reaches again; the decider's nodes count in the result.

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
from dataclasses import dataclass
from itertools import compress

from .checked import checked_add, checked_mul, checked_sub
from .errors import InconsistentWindowError, LinformError
from .forms import AugmentedForm, RepFunction, SetTuple, finite_counts, image_repfn
from .periodic import PeriodicSet, check_t_complementing
from .recursion import DEFAULT_MAX_GAP, Window, build_context, detect_period

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
# before any of them is built. The decider (_decide) is charged on its own,
# before it builds anything: per candidate, its int of two digits per window
# position and one branch on its stack (counts of one digit and reach of
# two), and the live lists of those branches, at most 64-bit pointers to
# half the candidates per candidate. Where that is over the limit, the
# canonical search runs without it.
PACKED_PER_CANDIDATE = 8
PACKED_PER_POSITION = 16
DECIDE_PER_CANDIDATE = 5
MAX_PACKED_BITS = 1 << 30
# Nodes per candidate after which the canonical search asks _decide whether
# the window has a solution at all. Most windows finish well before this and
# keep their trees; in a replay of the search benchmark, any trigger from 16
# to 256 gave the same throughput, and those of 64 and below slowed the
# median job, which finishes early anyway.
DECIDE_AFTER = 128


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
    target: TargetFunction
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
    """Either a verified periodic complement or the per-N record of why not.

    bound is 2^gap, which bounds the period of every complement.
    """

    periodic_set: PeriodicSet | None
    bound: int
    attempts: tuple[StabilizeAttempt, ...]

    @property
    def found(self) -> bool:
        return self.periodic_set is not None


def candidate_bound(form: AugmentedForm, sets: SetTuple, N: int, target: TargetFunction) -> WindowProblem:
    """The window problem for target at radius N, with its candidate interval."""
    if not form.is_normalized:
        raise ValueError("window problems require a normalized form (v >= 1)")
    if N < 0:
        raise ValueError("window radius N must be nonnegative")
    return WindowProblem(form, target, N, image_repfn(form.base, sets))


def solve_window(problem: WindowProblem, max_nodes: int = DEFAULT_NODE_BUDGET) -> SolveResult:
    """Canonical DFS for a finite set matching the target on [-N, N]."""
    return _search(problem, max_nodes)[0]


def _digit_width(mass: int) -> int:
    """Bits per packed count: the mass bounds every count, and a spare top bit takes the carry tests."""
    return (mass + 1).bit_length() + 1


def _window_digits(required: list[int | None], width: int, digit) -> int:
    """digit(f(n)) per window position, 0 where f(n) is None; required lists f from -N, the lowest digit."""
    strings = {need: format(0 if need is None else digit(need), f"0{width}b") for need in set(required)}
    return int("".join([strings[need] for need in reversed(required)]), 2)


def _image_digits(support: list[tuple[int, int]], values: list[int], width: int, shift: int, lo: int, hi: int) -> int:
    """The image shifted by shift at positions lo..hi, lo in the lowest digit; values lists support's values."""
    digits = 0
    for value, mult in support[bisect_left(values, lo - shift) : bisect_left(values, hi + 1 - shift)]:
        digits |= mult << width * (value + shift - lo)
    return digits


def _contributing(problem: WindowProblem) -> range:
    """The candidates with a representation landing inside the window; the rest are excluded."""
    N, v, image = problem.N, problem.form.v, problem.image
    lo = max(problem.candidate_lo, -((N + image.g_max) // v))
    hi = min(problem.candidate_hi, (N - image.g_min) // v)
    if hi - lo > MAX_CANDIDATE_SPAN:
        raise LinformError(f"candidate span {hi - lo} exceeds the limit {MAX_CANDIDATE_SPAN}")
    return range(lo, hi + 1)


def _search(problem: WindowProblem, max_nodes: int, resume: bytes = b"") -> tuple[SolveResult, bytes]:
    """solve_window's search, which also returns the witness path: per candidate, 1 if included.

    Up to its first failing check, the search skips the include branch
    wherever resume holds 0. That is exact only where those branches are
    refuted in this window, as for stabilize (see the module docstring).
    """
    if max_nodes < 1:
        raise ValueError("node budget must be positive")
    form, target, N, image = problem.form, problem.target, problem.N, problem.image
    if N > MAX_RADIUS:
        raise LinformError(f"window radius N = {N} exceeds the limit {MAX_RADIUS}")
    v, g_min, g_max = form.v, image.g_min, image.g_max
    diam = g_max - g_min

    candidates = _contributing(problem)
    contrib_lo, last = candidates.start, len(candidates)
    # A count at n sums image values n - v*b over distinct b, so it never
    # exceeds the image's mass.
    mass = image.total()
    width = _digit_width(mass)
    widest = min(diam + 1, 2 * N + 1)  # digits in a band
    packed = width * (PACKED_PER_CANDIDATE * last * widest + PACKED_PER_POSITION * (2 * N + 1))
    if packed > MAX_PACKED_BITS:
        raise LinformError(f"packed counts of {packed} bits exceed the limit {MAX_PACKED_BITS}")
    if candidates:
        # every shifted value g + v*b lies between these two sums, so checking
        # them checks all
        checked_add(g_min, checked_mul(v, contrib_lo))
        checked_add(g_max, checked_mul(v, candidates[-1]))

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

    def window_table(digit) -> bytes:
        return _window_digits(required, width, digit).to_bytes((width * (2 * N + 1) + 7) // 8, "little")

    over_table = window_table(lambda need: half - 1 - min(need, cap))
    final_table = window_table(lambda need: (1 << width) - 1)

    def cut(table: bytes, lo: int, hi: int) -> int:
        # the digits of positions lo..hi, position lo in the lowest bits
        if hi < lo:
            return 0
        start = width * (lo + N)
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
        mask = _image_digits(support, values, width, vb, base, stop)
        floor = floor_bits = 0
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
    # Past DECIDE_AFTER nodes per candidate, _decide is asked once, if its
    # packed ints and the live lists on its stack fit the budget: until then
    # the loop runs to limit. Its nodes, decided, are outside the budget.
    limit = max_nodes
    if DECIDE_PER_CANDIDATE * last * (2 * N + 1) * width + 32 * last * last <= MAX_PACKED_BITS:
        limit = min(max_nodes, DECIDE_AFTER * last)
    stop = min(last, limit)
    decided = 0
    include, along = True, len(resume)
    while True:
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
                return SolveResult(SolveStatus.UNSAT, None, spent + i + 1 + decided), b""
            back, counts = pending.pop()
            taken[back] = 0
            spent += i + 1 - back
            i, stop = back, limit - spent
            if stop > last:
                stop = last
            include, along = False, 0
        if i == last:
            break
        if limit == max_nodes:
            return SolveResult(SolveStatus.RESOURCE_LIMIT, None, max_nodes + 1), b""
        # Stalled: the decider may spend as many nodes as the search has. A
        # refutation ends the search here; otherwise it goes on from where it
        # stopped, to the same witness or verdict as without the decider.
        solvable, decided = _decide(problem, spent + i)
        if solvable is False:
            return SolveResult(SolveStatus.UNSAT, None, spent + i + decided), b""
        limit = max_nodes
        stop = min(last, limit - spent)

    # Re-verify the witness by counting each position afresh, apart from the search.
    witness = tuple(compress(candidates, taken))
    for n, observed in enumerate(finite_counts(image, v, witness, -N, N), -N):
        need = target.at(n)
        if need is not None and observed != need:
            raise AssertionError(f"witness failed re-verification at {n}")
    return SolveResult(SolveStatus.SOLVED, witness, spent + last + decided), bytes(taken)


def _decide(problem: WindowProblem, max_nodes: int) -> tuple[bool | None, int]:
    """Whether the window has a solution, or None once max_nodes are spent; and the nodes visited.

    Fail first (Haralick and Elliott, "Increasing tree search efficiency for
    constraint satisfaction problems", 1980; Knuth's column choice in
    "Dancing Links", 2000): each node branches, include first, on the lowest
    live candidate covering the position short of its target that the
    fewest live candidates cover, a choice that does not depend on which end
    of the window is free. The counts of the constrained positions sit in
    one int per branch, in digits as wide as _search's. A node drops every
    live candidate whose include would overcount (counts only grow along a
    branch, so it stays out), fails if the counts plus every live image
    leave a position short, and succeeds when every position is on target.
    It finds no witness.
    """
    N, image, v = problem.N, problem.image, problem.form.v
    mass = image.total()
    width = _digit_width(mass)
    half, cap = 1 << (width - 1), mass + 1
    # goal holds the targets, a target above the mass being as unreachable as
    # mass + 1, and unit a 1 per constrained position; an unconstrained
    # position has no digit in keep, so no candidate image reaches it.
    required = [problem.target.at(n) for n in range(-N, N + 1)]
    goal = _window_digits(required, width, lambda need: min(need, cap))
    unit = _window_digits(required, width, lambda need: 1)
    keep, high = unit * ((1 << width) - 1), unit << (width - 1)
    over = high - unit - goal  # sets a digit's top bit exactly when its count exceeds the target
    floor = high - goal  # sets it exactly when the count reaches the target
    # Each candidate is one int: its image in the digits of the window, and
    # a 1 per position it touches in the same digits above them, so a sum of
    # candidates holds their images below split and their coverage above.
    # Each is built from the values that land in the window, as a band of
    # _search is; adding unit * (half - 1) sets the top bit of a digit
    # exactly where it is not 0.
    split, touches = keep.bit_length(), unit * (half - 1)
    support = image.support()
    values = [value for value, _ in support]
    live = []
    for b in _contributing(problem):
        start = max(image.g_min + v * b, -N)
        if digits := _image_digits(support, values, width, v * b, start, N) << width * (start + N) & keep:
            live.append(digits | ((digits + touches) & high) >> (width - 1) << split)
    # (half - 1 - k) per coverage digit leaves its top bit clear exactly where
    # at most k live candidates cover the position
    lift = unit << split
    least = (half - 2) * lift

    # A branch is (counts, live, reach): an exclude branch keeps its parent's
    # counts, so its live candidates all still fit, and its reach (the counts
    # plus every live candidate) is its parent's less the one it excludes; an
    # include branch filters and sums afresh. So an exclude branch takes over
    # its parent's list, which no other branch reads by then.
    branches = [(0, live, None)]
    nodes = 0
    while branches:
        if nodes == max_nodes:
            return None, nodes
        counts, live, reach = branches.pop()
        nodes += 1
        if counts == goal:
            return True, nodes
        if reach is None:
            base = counts + over
            live = [candidate for candidate in live if not (base + candidate) & high]
            reach = counts + sum(live)
        if (reach + floor) & high != high:
            continue
        short = (high & ~(counts + floor)) << split  # the positions below target
        level = least
        while not (fewest := short & ~(reach + level)):
            level -= lift
        position = (fewest & -fewest) >> (width - 1)
        include = live.pop(next(k for k, candidate in enumerate(live) if candidate & position))
        branches.append((counts, live, reach - include))
        branches.append((counts + (include & keep), live, None))
    return False, nodes


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
    bound = 1 << ctx.gap
    if ctx.gap == 0:
        # Gap zero forces a constant membership bit: the only infinite
        # candidate is B = Z.
        everything = PeriodicSet(1, (0,))
        if check_t_complementing(form, ctx.image, everything, t).verdict:
            attempt = StabilizeAttempt(0, "degenerate", "constant membership, B = Z verified")
            return StabilizeResult(everything, bound, (attempt,))
        attempt = StabilizeAttempt(0, "degenerate", "constant membership admits no infinite B")
        return StabilizeResult(None, bound, (attempt,))

    attempts: list[StabilizeAttempt] = []
    target = TargetFunction.constant(t)
    paths: dict[int, bytes] = {}  # witness paths of the last v radii
    for radius in range(1, max_n + 1):
        problem = WindowProblem(form, target, radius, ctx.image)
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
            pset = detect_period(ctx, seed, max_gap=max_gap)
        except InconsistentWindowError as exc:
            attempts.append(StabilizeAttempt(radius, "inconsistent", str(exc)))
            continue
        cert = check_t_complementing(form, ctx.image, pset, t)
        if cert.verdict:
            attempts.append(StabilizeAttempt(radius, "verified", f"period {pset.modulus}"))
            return StabilizeResult(pset, bound, tuple(attempts))
        assert cert.first_violation is not None
        attempts.append(
            StabilizeAttempt(
                radius,
                "rejected",
                f"candidate period {pset.modulus} fails at n = {cert.first_violation.n}",
            )
        )
    return StabilizeResult(None, bound, tuple(attempts))
