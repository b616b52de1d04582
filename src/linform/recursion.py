"""Window recursion reconstructing the membership sequence of a complement.

For a normalized augmented form (v >= 1) write g_min, g_max for the extreme
values of the finite image of the base form, count_min / count_max for how
many tuples achieve them, and gap = floor((g_max - g_min) / v). If B is any
set whose augmented count is identically t, sampling that count along the
progressions v*n + g_min and v*n + g_max yields two identities for the
membership bit of B:

    count_min * bit(n) = t - sum over forward offsets k of bit(n - k)
    count_max * bit(n) = t - sum over backward offsets k of bit(n + k)

The offsets are the integer quotients (value - g_min)/v, respectively
(g_max - value)/v, over non-extremal image values, each counted with the
multiplicity of the value; non-integer quotients contribute nothing since
the membership bit vanishes off the integers. Every offset lies in
[1, gap], so any gap consecutive bits determine the whole two-sided
sequence, and because only 2^gap distinct gap-bit states exist, the forward
orbit revisits a state within 2^gap + 1 steps. That repeat distance bounds
the period: any complement membership sequence is purely periodic with
period at most 2^gap.

Extension uses the same fact: once the gap bits a step reads repeat, every
later bit repeats. It looks for the repeat with Brent's cycle finding and
then copies the last lam bits over the rest of the range, so extending
costs O(mu + lam) steps, mu before the cycle and lam around it, plus the
output, and the same bits and error index as stepping every bit.

Extension alone is not verification. The two identities only express that
the count equals t along the residues g_min and g_max mod v; for v > 1 the
remaining residues are unconstrained, so every candidate produced here must
still pass check_t_complementing before being called a complement.

Everything operates on immutable windows and contexts, so separate
extensions never share state.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DegenerateGapError, GapTooLargeError, InconsistentWindowError, LinformError
from .forms import AugmentedForm, RepFunction, SetTuple, image_repfn
from .periodic import PeriodicSet

DEFAULT_MAX_GAP = 24
# Most bits one extension may cover: its list and window hold one entry per bit.
MAX_EXTEND_BITS = 10_000_000
# Bits stepped between two looks for a repeated state, unless gap is more.
# A look has a fixed cost of a few dozen steps, hence the least run; the
# most bounds the bytes that one look builds.
_LEAST_RUN, _MOST_RUN = 64, 1 << 14


@dataclass(frozen=True)
class Window:
    """Consecutive membership bits: bits[i] is the bit of start + i."""

    start: int
    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "bits", tuple(self.bits))
        if not self.bits:
            raise ValueError("a window holds at least one bit")
        try:
            valid = set(self.bits) <= {0, 1}
        except TypeError:  # an unhashable value is no bit either
            valid = False
        if not valid:
            raise ValueError("window bits must be 0 or 1")

    @property
    def end(self) -> int:
        return self.start + len(self.bits) - 1

    def bit(self, n: int) -> int:
        if not self.start <= n <= self.end:
            raise ValueError(f"index {n} outside window [{self.start}, {self.end}]")
        return self.bits[n - self.start]


@dataclass(frozen=True)
class RecursionContext:
    """Everything the two step identities need, precomputed from (form, sets, t)."""

    t: int
    image: RepFunction
    gap: int
    forward_offsets: tuple[tuple[int, int], ...]
    backward_offsets: tuple[tuple[int, int], ...]


def build_context(form: AugmentedForm, sets: SetTuple, t: int) -> RecursionContext:
    """Precompute extremes, gap, and offset multisets for the step identities."""
    if not form.is_normalized:
        raise ValueError("the recursion requires a normalized form (v >= 1)")
    if t < 0:
        raise ValueError("t must be a nonnegative integer")
    rep = image_repfn(form.base, sets)
    g_min, g_max, v = rep.g_min, rep.g_max, form.v
    gap = (g_max - g_min) // v
    forward: dict[int, int] = {}
    backward: dict[int, int] = {}
    for value, mult in rep.counts.items():
        if value != g_min and (value - g_min) % v == 0:
            offset = (value - g_min) // v
            forward[offset] = forward.get(offset, 0) + mult
        if value != g_max and (g_max - value) % v == 0:
            offset = (g_max - value) // v
            backward[offset] = backward.get(offset, 0) + mult
    return RecursionContext(
        t=t,
        image=rep,
        gap=gap,
        forward_offsets=tuple(sorted(forward.items())),
        backward_offsets=tuple(sorted(backward.items())),
    )


def _as_bit(rhs: int, count: int, index: int) -> int:
    # count * bit must equal rhs with bit in {0, 1}; anything else is a dead end
    if rhs == 0:
        return 0
    if rhs == count:
        return 1
    raise InconsistentWindowError(index)


def _check_seed(ctx: RecursionContext, seed: Window, max_gap: int | None = None) -> None:
    if ctx.gap == 0:
        raise DegenerateGapError("gap is zero: the window recursion has no steps")
    if max_gap is not None and ctx.gap > max_gap:
        raise GapTooLargeError(f"gap {ctx.gap} exceeds the configured limit {max_gap}")
    if len(seed.bits) < ctx.gap:
        raise ValueError(f"seed holds {len(seed.bits)} bits, recursion needs {ctx.gap}")


def _window(bits: list[int], at: int, size: int, forward: bool) -> bytes:
    """The size bits from index at on, in stepping order."""
    if forward:
        return bytes(bits[at : at + size])
    return bytes(bits[at - size + 1 : at + 1])[::-1]


def _fill(ctx: RecursionContext, bits: list[int], base: int, lo: int, hi: int, forward: bool) -> None:
    """Set bits[n - base] for lo <= n <= hi from one step identity.

    The forward (g_min) identity reads bits below n and runs upward; the
    backward (g_max) identity reads bits above n and runs downward. Either
    way every bit read is already known, so errors fire at the first
    index, in stepping order, where no bit fits.

    A step reads only the gap bits before it, so once that state repeats,
    every later bit repeats the lam bits stepped since. Brent's cycle
    finding (BIT 20, 1980) keeps one past state, the tortoise, and compares
    the states after it with it, up to a distance that doubles each time
    the tortoise moves; each run of steps is compared at once, as bytes, by
    one substring search. On the first repeat the rest of the range is
    tiled. Both compared states preceded a step that succeeded, so no later
    step could fail: the bits and any error index are those of stepping on.
    """
    if forward:
        offsets, count, d = ctx.forward_offsets, ctx.image.count_min, 1
        order = range(lo - base, hi - base + 1)
    else:
        offsets, count, d = ctx.backward_offsets, ctx.image.count_max, -1
        order = range(hi - base, lo - base - 1, -1)
    t, gap = ctx.t, ctx.gap
    # The tortoise is the state before bit p; lam of the states after it
    # have been compared with it, and the next look comes after bit look.
    # A look costs O(gap + run), so runs and distances start at gap or more.
    p, power, lam = order.start, gap if gap > _LEAST_RUN else _LEAST_RUN, 0
    look = p + d * (power - 1)
    for i in order:
        rhs = t
        for offset, mult in offsets:
            rhs -= mult * bits[i - d * offset]
        bits[i] = _as_bit(rhs, count, base + i)
        if i == look:
            run = d * (i - p) + 1 - lam
            tortoise = _window(bits, p - d * gap, gap, forward)
            found = _window(bits, p + d * (lam + 1 - gap), run + gap - 1, forward).find(tortoise)
            if found >= 0:
                lam += found + 1
                break
            lam += run
            if lam == power:
                p, power, lam = i + d, 2 * power, 0
            look = i + d * min(power - lam, max(gap, _MOST_RUN))
    else:
        return
    # Every bit from j on, in stepping order, equals the bit lam before it.
    j = p + d * lam
    rest = d * (order[-1] - j) + 1
    if forward:
        block = bits[j - lam : j]
        bits[j : j + rest] = (block * (rest // lam + 1))[:rest]
    else:
        block = bits[j + 1 : j + 1 + lam]
        skip = -rest % lam
        bits[j - rest + 1 : j + 1] = (block * (rest // lam + 2))[skip : skip + rest]


def extend(ctx: RecursionContext, seed: Window, lo: int, hi: int) -> Window:
    """Deterministically extend the seed to cover [lo, hi].

    [lo, hi] must contain the seed range and hold at most MAX_EXTEND_BITS
    bits (LinformError otherwise). Raises InconsistentWindowError at the
    first index where no bit satisfies the relevant identity.
    """
    _check_seed(ctx, seed)
    if lo > seed.start or hi < seed.end:
        raise ValueError("[lo, hi] must contain the seed range")
    if hi - lo + 1 > MAX_EXTEND_BITS:
        raise LinformError(f"[{lo}, {hi}] holds {hi - lo + 1} bits, above the limit of {MAX_EXTEND_BITS}")
    bits = [0] * (seed.start - lo) + list(seed.bits) + [0] * (hi - seed.end)
    _fill(ctx, bits, lo, seed.end + 1, hi, forward=True)
    _fill(ctx, bits, lo, lo, seed.start - 1, forward=False)
    return Window(lo, tuple(bits))


def detect_period(ctx: RecursionContext, seed: Window, max_gap: int = DEFAULT_MAX_GAP) -> PeriodicSet:
    """Extend forward until a gap-bit state repeats, then confirm pure periodicity.

    The repeat distance p satisfies p <= 2^gap by pigeonhole. The window is
    then extended p positions backward and every computed index n must agree
    with its translate n + p; a disagreement means the orbit is only
    eventually periodic, which no t-complementing set allows, so it raises
    InconsistentWindowError at the offending index. The returned set is
    normalized: its modulus is the minimal period, which divides p.
    """
    _check_seed(ctx, seed, max_gap)
    gap = ctx.gap
    base = seed.start
    bits = list(seed.bits)

    # Encode the state at j, the bits of [j, j + gap), as an integer with
    # bit i of the integer holding the membership bit of j + i. Bits are
    # stepped ahead in doubling batches, with the outcome of stepping one at
    # a time: a step that failed raises only once the scan needs its bit,
    # and the bits past the repeat are dropped, since the repeated state may
    # precede a seed bit that they need not follow.
    state = 0
    for i in range(gap):
        state |= bits[i] << i
    seen = {state: 0}
    j = 0  # the state's start, relative to base
    # A step that failed ahead of the scan, kept without its traceback and
    # popped to be raised, so that no reference cycle holds this frame.
    failed: list[InconsistentWindowError] = []
    while True:
        needed = j + gap  # rolling to the state at j + 1 consumes this bit
        if needed == len(bits):
            if failed:
                raise failed.pop()
            bits.extend([0] * needed)
            try:
                _fill(ctx, bits, base, base + needed, base + len(bits) - 1, forward=True)
            except InconsistentWindowError as exc:
                failed.append(exc.with_traceback(None))
                del bits[exc.index - base :]
            continue
        state = (state >> 1) | (bits[needed] << (gap - 1))
        j += 1
        if state in seen:
            break
        seen[state] = j
    period_len = j - seen[state]
    del bits[max(j + gap, len(seed.bits)) :]

    base -= period_len
    bits[:0] = [0] * period_len
    _fill(ctx, bits, base, base, base + period_len - 1, forward=False)
    for i, (bit, translate) in enumerate(zip(bits, bits[period_len:])):
        if bit != translate:
            n = base + i
            raise InconsistentWindowError(
                n, f"eventually periodic but not purely periodic: bit({n}) != bit({n + period_len})"
            )

    residues = sorted({(base + i) % period_len for i in range(period_len) if bits[i]})
    return PeriodicSet(period_len, tuple(residues)).normalize()
