"""Linear forms over integer set tuples and their representation functions.

A form u1*x1 + ... + uh*xh with nonzero integer coefficients, applied
coordinatewise to a tuple of finite integer sets, has a finite image. The
representation function records how many coordinate tuples land on each
value. The image is the sumset u1*A1 + ... + uh*Ah, so it is built one
coordinate at a time, by convolving the counts so far with ui*Ai: the
product of the generating polynomials F_Ai(z^ui), one factor per step.
The cost follows the sizes of the partial images, not that of the product.

The augmented form appends a term v*y; over a finite set B its count of
n = u1*a1 + ... + uh*ah + v*b is the sum of image[n - v*b], b in B (a
periodic B is counted in periodic.py). A form with v < 0 is normalized by
negating every coefficient, which reflects the count, R(n) -> R(-n), and
callers surface that reflection rather than hide it.

All arithmetic is checked signed 64-bit: a computation that leaves the
range raises IntegerOverflowError, never wraps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .checked import checked_add, checked_mul, checked_neg, checked_sub, ensure_int64
from .errors import LinformError

# Largest modulus for the dense residue vectors of modular_repfn and check_condition.
MAX_MODULUS = 10_000_000
# Most values a partial image may hold: a dict of a million counts takes
# about 100 MB. The largest image of the tests and the benchmark has 4,096.
MAX_IMAGE_SIZE = 1_000_000


@dataclass(frozen=True)
class LinearForm:
    """Coefficient vector of a form u1*x1 + ... + uh*xh; every ui is a nonzero integer."""

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", tuple(self.coeffs))
        if not self.coeffs:
            raise ValueError("a linear form needs at least one coefficient")
        for i, u in enumerate(self.coeffs):
            ensure_int64(u, f"coefficient u[{i}]")
            if u == 0:
                raise ValueError(f"zero coefficient u[{i}]")

    @property
    def h(self) -> int:
        return len(self.coeffs)

    def negate(self) -> LinearForm:
        return LinearForm(tuple(checked_neg(u) for u in self.coeffs))


@dataclass(frozen=True)
class AugmentedForm:
    """A linear form extended by one more term v*y with v != 0."""

    base: LinearForm
    v: int

    def __post_init__(self) -> None:
        ensure_int64(self.v, "coefficient v")
        if self.v == 0:
            raise ValueError("zero coefficient v")

    @property
    def is_normalized(self) -> bool:
        return self.v >= 1

    def normalized(self) -> tuple[AugmentedForm, bool]:
        """Return an equivalent form with v >= 1 and whether a reflection happened.

        Negating every coefficient turns counts of n into counts of -n, so a
        True second component means results must be read through n -> -n.
        """
        if self.v >= 1:
            return self, False
        return AugmentedForm(self.base.negate(), checked_neg(self.v)), True


@dataclass(frozen=True)
class SetTuple:
    """One finite, nonempty, duplicate-free integer set per form coordinate."""

    sets: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        canonical = []
        for i, raw in enumerate(self.sets):
            elements = sorted(ensure_int64(x, f"element of A[{i}]") for x in raw)
            if not elements:
                raise ValueError(f"set A[{i}] must be nonempty")
            for a, b in zip(elements, elements[1:]):
                if a == b:
                    raise ValueError(f"duplicate element in A[{i}]")
            canonical.append(tuple(elements))
        if not canonical:
            raise ValueError("a set tuple needs at least one set")
        object.__setattr__(self, "sets", tuple(canonical))

    def __len__(self) -> int:
        return len(self.sets)


@dataclass(frozen=True)
class RepFunction:
    """Finitely supported count function: value -> number of representing tuples.

    The extremes g_min and g_max, their counts, the diameter and the sorted
    support are computed on first use and kept.
    """

    counts: dict[int, int]

    def __post_init__(self) -> None:
        for value, count in self.counts.items():
            if count < 1:
                raise ValueError(f"representation count for {value} must be positive")

    def __getitem__(self, n: int) -> int:
        return self.counts.get(n, 0)

    @cached_property
    def _sorted(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.counts.items()))

    def support(self) -> list[tuple[int, int]]:
        return list(self._sorted)

    def total(self) -> int:
        return sum(self.counts.values())

    @cached_property
    def g_min(self) -> int:
        return min(self.counts)

    @cached_property
    def g_max(self) -> int:
        return max(self.counts)

    @cached_property
    def diameter(self) -> int:
        return checked_sub(self.g_max, self.g_min)

    @cached_property
    def count_min(self) -> int:
        return self.counts[self.g_min]

    @cached_property
    def count_max(self) -> int:
        return self.counts[self.g_max]

    def fold(self, m: int, shifts: Iterable[int] = (0,)) -> dict[int, int]:
        """Total count per residue class mod m (m >= 1) of the image shifted by each shift.

        Only the classes that are hit appear, so no work or space is sized by m.
        """
        folded: dict[int, int] = {}
        for shift in shifts:
            for value, count in self.counts.items():
                r = (value + shift) % m
                folded[r] = folded.get(r, 0) + count
        return folded


def image_repfn(form: LinearForm, sets: SetTuple) -> RepFunction:
    """Representation function of the form, folded in one coordinate at a time.

    Overflow is checked once per coordinate, in coordinate order: the two
    extremes ui*min(Ai) and ui*max(Ai), then the running extremes of the
    partial sums. A product ui*ai or a prefix sum u1*a1 + ... + uk*ak leaves
    the signed 64-bit range for some tuple exactly when one of those does, so
    this raises IntegerOverflowError exactly then, and the convolution itself
    runs on plain ints. A partial image holds at most min(|A1|...|Ak|,
    diameter + 1) values; above MAX_IMAGE_SIZE that refuses before the
    coordinate is convolved.
    """
    if len(sets) != form.h:
        raise ValueError(f"form has {form.h} coordinates, got {len(sets)} sets")
    counts = {0: 1}
    lo = hi = 0
    tuples = 1
    for u, elements in zip(form.coeffs, sets.sets):
        low, high = sorted((checked_mul(u, elements[0]), checked_mul(u, elements[-1])))
        lo, hi = checked_add(lo, low), checked_add(hi, high)
        tuples *= len(elements)
        size = min(tuples, hi - lo + 1)
        if size > MAX_IMAGE_SIZE:
            raise LinformError(f"image of up to {size} values exceeds the limit {MAX_IMAGE_SIZE}")
        steps = [u * a for a in elements]
        folded: dict[int, int] = {}
        get = folded.get
        for value, count in counts.items():
            for step in steps:
                key = value + step
                folded[key] = get(key, 0) + count
        counts = folded
    return RepFunction(counts)


def check_modulus(m: int) -> None:
    """Refuse a modulus that is not a positive integer or is above MAX_MODULUS."""
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise ValueError("modulus m must be a positive integer")
    if m > MAX_MODULUS:
        raise LinformError(f"modulus m = {m} exceeds the limit {MAX_MODULUS}")


def modular_repfn(form: LinearForm, sets: SetTuple, m: int) -> list[int]:
    """Fold the representation function into residue classes mod m."""
    check_modulus(m)
    folded = image_repfn(form, sets).fold(m)
    return [folded.get(r, 0) for r in range(m)]


def augmented_repfn_finite(
    form: AugmentedForm, sets: SetTuple, members: Iterable[int], n: int
) -> int:
    """Count representations n = psi(a) + v*b with b in a finite set; any v != 0."""
    ensure_int64(n, "n")
    return finite_counts(image_repfn(form.base, sets), form.v, frozenset(members), n, n)[0]


def finite_counts(image: RepFunction, v: int, members: Iterable[int], lo: int, hi: int) -> list[int]:
    """Counts of n = g + v*b over the image values g and b in members, for n = lo..hi."""
    counts = [0] * (hi - lo + 1)
    items = image.counts.items()
    for b in members:
        shift = v * b - lo
        for value, mult in items:
            if 0 <= value + shift <= hi - lo:
                counts[value + shift] += mult
    return counts
