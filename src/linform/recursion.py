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

Read in its own direction, each identity makes a bit from the bits offset
before it, so one kernel steps both: a downward step gets the bits above n
reversed, nearest first, and its output is reversed back. Once the gap
bits a step reads repeat, every later bit repeats. The kernel looks for the
repeat with Brent's cycle finding and copies the last lam bits over the
rest, so it costs O(mu + lam) steps, mu before the cycle and lam around
it, plus the output, and gives the bits and dead end of stepping every bit.

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


def _check_seed(ctx: RecursionContext, seed: Window, max_gap: int | None = None) -> None:
    if ctx.gap == 0:
        raise DegenerateGapError("gap is zero: the window recursion has no steps")
    if max_gap is not None and ctx.gap > max_gap:
        raise GapTooLargeError(f"gap {ctx.gap} exceeds the configured limit {max_gap}")
    if len(seed.bits) < ctx.gap:
        raise ValueError(f"seed holds {len(seed.bits)} bits, recursion needs {ctx.gap}")


def _fill(ctx: RecursionContext, bits: list[int], start: int, forward: bool) -> int | None:
    """Step bits[start:], zeros on entry, by one identity: bits[i] reads bits[i - offset].

    The list is in stepping order: bits[i] is the bit of n0 + i forward
    (g_min) and of n0 - i backward (g_max). Returns the first index where
    no bit fits, or None when every step succeeded.

    A step reads only the gap bits before it, so once that state repeats,
    every later bit repeats the lam bits stepped since. Brent's cycle
    finding (BIT 20, 1980) keeps one past state, the tortoise, and compares
    the states after it with it, up to a distance that doubles each time
    the tortoise moves; each run of steps is compared at once, as bytes, by
    one substring search. On the first repeat the rest of the list is
    tiled. Both compared states preceded a step that succeeded, so no later
    step could fail: the bits and any failed index are those of stepping on.
    """
    if forward:
        offsets, count = ctx.forward_offsets, ctx.image.count_min
    else:
        offsets, count = ctx.backward_offsets, ctx.image.count_max
    t, gap = ctx.t, ctx.gap
    # The tortoise is the state before bit p; lam of the states after it
    # have been compared with it, and the next look comes after bit look.
    # A look costs O(gap + run), so runs and distances start at gap or more.
    p, power, lam = start, gap if gap > _LEAST_RUN else _LEAST_RUN, 0
    look = p + power - 1
    for i in range(start, len(bits)):
        rhs = t
        for offset, mult in offsets:
            rhs -= mult * bits[i - offset]
        # count * bit must equal rhs with bit in {0, 1}; anything else is a dead end
        if rhs == count:
            bits[i] = 1
        elif rhs:
            return i
        if i == look:
            found = bytes(bits[p + lam + 1 - gap : i + 1]).find(bytes(bits[p - gap : p]))
            if found >= 0:
                lam += found + 1
                j = p + lam  # every bit from j on equals the bit lam before it
                bits[j:] = (bits[p:j] * ((len(bits) - p) // lam))[: len(bits) - j]
                return None
            lam = i + 1 - p
            if lam == power:
                p, power, lam = i + 1, 2 * power, 0
            look = i + min(power - lam, max(gap, _MOST_RUN))
    return None


def extend(ctx: RecursionContext, seed: Window, lo: int, hi: int) -> Window:
    """Deterministically extend the seed to cover [lo, hi].

    [lo, hi] must contain the seed range and hold at most MAX_EXTEND_BITS
    bits (LinformError otherwise). Steps upward from the seed's end, then
    downward from its start, and raises InconsistentWindowError at the
    first index where no bit satisfies the relevant identity.
    """
    _check_seed(ctx, seed)
    if lo > seed.start or hi < seed.end:
        raise ValueError("[lo, hi] must contain the seed range")
    if hi - lo + 1 > MAX_EXTEND_BITS:
        raise LinformError(f"[{lo}, {hi}] holds {hi - lo + 1} bits, above the limit of {MAX_EXTEND_BITS}")
    gap, below = ctx.gap, seed.start - lo
    bits = [0] * (hi - seed.start + 1)  # each list allocated once: long extensions are bound by copying
    bits[: len(seed.bits)] = seed.bits
    failed = _fill(ctx, bits, len(seed.bits), forward=True)
    if failed is not None:
        raise InconsistentWindowError(seed.start + failed)
    # downward: the seed's first gap bits, nearest first, then the bits below
    back = [0] * (gap + below)
    back[:gap] = bits[gap - 1 :: -1]
    failed = _fill(ctx, back, gap, forward=False)
    if failed is not None:
        raise InconsistentWindowError(seed.start + gap - 1 - failed)
    back.reverse()
    back[below:] = bits
    return Window(lo, tuple(back))


def detect_period(ctx: RecursionContext, seed: Window, max_gap: int = DEFAULT_MAX_GAP) -> PeriodicSet:
    """Extend forward until a gap-bit state repeats, then confirm pure periodicity.

    The repeat distance p satisfies p <= 2^gap by pigeonhole. The first
    repeat is taken among all states, the seed's own included. The window is
    then extended p positions backward and every computed index n must agree
    with its translate n + p; a disagreement means the orbit is only
    eventually periodic, which no t-complementing set allows, so it raises
    InconsistentWindowError at the lowest offending index. A step that fails
    raises at its index, once the scan needs its bit. The returned set is
    normalized: its modulus is the minimal period, which divides p.
    """
    _check_seed(ctx, seed, max_gap)
    gap = ctx.gap
    bits = list(seed.bits)  # bits[i] is the bit of seed.start + i

    # Encode the state at j, the bits of [j, j + gap), as an integer with
    # bit i of the integer holding the membership bit of j + i. Bits are
    # stepped ahead in doubling batches, with the outcome of stepping one at
    # a time: a step that failed raises only once the scan needs its bit,
    # and the bits past the repeat are dropped, since the repeated state may
    # precede a seed bit that they need not follow.
    state = sum(bit << i for i, bit in enumerate(bits[:gap]))
    seen = {state: 0}
    j = 0
    failed = None  # the index of a step that failed ahead of the scan
    while True:
        needed = j + gap  # rolling to the state at j + 1 consumes this bit
        if needed == len(bits):
            if failed is not None:
                raise InconsistentWindowError(seed.start + failed)
            bits.extend([0] * needed)
            failed = _fill(ctx, bits, needed, forward=True)
            if failed is not None:
                del bits[failed:]
            continue
        state = (state >> 1) | (bits[needed] << (gap - 1))
        j += 1
        if state in seen:
            break
        seen[state] = j
    period_len = j - seen[state]
    del bits[max(j + gap, len(seed.bits)) :]

    back = bits[gap - 1 :: -1] + [0] * period_len
    failed = _fill(ctx, back, gap, forward=False)
    if failed is not None:
        raise InconsistentWindowError(seed.start + gap - 1 - failed)
    bits[:0] = back[: gap - 1 : -1]
    base = seed.start - period_len
    for i, (bit, translate) in enumerate(zip(bits, bits[period_len:])):
        if bit != translate:
            n = base + i
            raise InconsistentWindowError(
                n, f"eventually periodic but not purely periodic: bit({n}) != bit({n + period_len})"
            )

    residues = sorted({(base + i) % period_len for i in range(period_len) if bits[i]})
    return PeriodicSet(period_len, tuple(residues)).normalize()
