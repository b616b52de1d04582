"""Periodic integer sets as residue classes, and complement verification.

A periodic set is stored as a modulus m >= 1 together with the sorted
residues it occupies in [0, m). The same set has one representation per
multiple of its minimal period; normalize() returns the minimal one.

check_t_complementing decides whether B represents every integer exactly
t times under an augmented form, reading the image of the base form over
the sets that the caller built once for its whole command. The augmented
count is periodic with period P = v*m (shifting n by P shifts the required
b by m, which membership in B cannot see), so one fold of the image shifted
by v*B into the classes mod P decides the whole line: the tiling identity
F_psi(z) * F_B(z^v) = t * (1 + ... + z^(P-1)) mod z^P - 1. The fold keeps
only the classes that are hit, so no work is sized by P. A failure is
reported at the violating n of least absolute value, positive first.
augmented_repfn reads the count at one n from the same fold.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .checked import checked_mul, ensure_int64
from .forms import AugmentedForm, RepFunction, SetTuple, image_repfn


@dataclass(frozen=True)
class PeriodicSet:
    """The set {r + k*m : r in residues, k in Z}; empty residues mean the empty set."""

    modulus: int
    residues: tuple[int, ...]

    def __post_init__(self) -> None:
        ensure_int64(self.modulus, "B.modulus")
        if self.modulus < 1:
            raise ValueError("B.modulus must be a positive integer")
        ordered = sorted(ensure_int64(r, "residue of B") for r in self.residues)
        for r in ordered:
            if not 0 <= r < self.modulus:
                raise ValueError(f"residue out of range in B: {r} not in [0, {self.modulus})")
        for a, b in zip(ordered, ordered[1:]):
            if a == b:
                raise ValueError(f"duplicate residue in B: {a}")
        object.__setattr__(self, "residues", tuple(ordered))

    @cached_property
    def _residue_set(self) -> frozenset[int]:
        return frozenset(self.residues)

    def member(self, n: int) -> bool:
        return n % self.modulus in self._residue_set

    def normalize(self) -> PeriodicSet:
        """Smallest-modulus representation of the same set.

        The minimal period g divides m and the residue set is invariant under
        adding g mod m, so g carries the least residue r0 to a residue r:
        g = (r - r0) mod m, with 0 read as m. Only those candidates are
        tried, in ascending order; m itself is always among them.
        """
        m, residues = self.modulus, self.residues
        if not residues:
            return PeriodicSet(1, ())
        g = next(
            g
            for g in sorted({(r - residues[0]) % m or m for r in residues})
            if m % g == 0 and all((r + g) % m in self._residue_set for r in residues)
        )
        return PeriodicSet(g, tuple({r % g for r in residues}))

    def to_dict(self) -> dict:
        return {"modulus": self.modulus, "residues": list(self.residues)}


class Violation(NamedTuple):
    n: int
    observed: int
    expected: int


@dataclass(frozen=True)
class ComplementCertificate:
    period_checked: int
    first_violation: Violation | None

    def __post_init__(self) -> None:
        if self.period_checked < 1:
            raise ValueError("period_checked must be positive")

    @property
    def verdict(self) -> bool:
        return self.first_violation is None


def _shifted_fold(
    form: AugmentedForm, image: RepFunction, periodic: PeriodicSet
) -> tuple[int, dict[int, int]]:
    """P = v*m and the count of psi(a) + v*b, b in B, per class mod P that is hit."""
    if not form.is_normalized:
        raise ValueError("a periodic B requires a normalized form (v >= 1)")
    period = checked_mul(form.v, periodic.modulus)
    return period, image.fold(period, (form.v * r for r in periodic.residues))


def augmented_repfn(form: AugmentedForm, sets: SetTuple, periodic: PeriodicSet, n: int) -> int:
    """Count n = psi(a) + v*b with b in a periodic set; v >= 1, so normalize first."""
    ensure_int64(n, "n")
    period, folded = _shifted_fold(form, image_repfn(form.base, sets), periodic)
    return folded.get(n % period, 0)


def check_t_complementing(
    form: AugmentedForm, image: RepFunction, periodic: PeriodicSet, t: int
) -> ComplementCertificate:
    """From psi's image, decide whether every integer is psi(a) + v*b, b in B, exactly t times."""
    if t < 0:
        raise ValueError("t must be a nonnegative integer")
    period, folded = _shifted_fold(form, image, periodic)
    if t == 0:
        # every class that is hit fails; report the one nearest zero
        if not folded:
            return ComplementCertificate(period, None)
        nearest = (r if 2 * r <= period else r - period for r in folded)
        n = min(nearest, key=lambda n: (abs(n), n < 0))
        return ComplementCertificate(period, Violation(n, folded[n % period], t))
    # n = 0, 1, -1, 2, -2, ...: the first `period` of them fill an interval,
    # so they meet every residue class once; each n that passes uses up a
    # class that is hit, so a failure shows within len(folded) + 1 steps
    for k in range(period):
        n = (k + 1) // 2 if k % 2 else -(k // 2)
        observed = folded.get(n % period, 0)
        if observed != t:
            return ComplementCertificate(period, Violation(n, observed, t))
    return ComplementCertificate(period, None)
