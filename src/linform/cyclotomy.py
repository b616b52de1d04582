"""Polynomial test for complementing tuples modulo m.

Each finite set A carries a generating polynomial F_A(z) = sum of z^a over
its elements. Substituting z^u and multiplying across coordinates turns
tuple enumeration into coefficient arithmetic: the product expands so that
the coefficient of z^s counts the tuples with form value s. Negative
coefficients u make the product a Laurent polynomial, so it is shifted by
the least power L that clears negative exponents before reducing modulo
z^m - 1. The tuple represents every residue class mod m exactly t times
precisely when the reduced product equals t * (1 + z + ... + z^(m-1)).
The verdict does not depend on which clearing shift is used: reduction is
a ring map and multiplying by z mod z^m - 1 only rotates coefficients,
which fixes the all-equal vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

from .checked import checked_add, checked_mul, ensure_int64
from .forms import LinearForm, SetTuple


@dataclass(frozen=True)
class LaurentPoly:
    """Sparse exact polynomial with integer exponents; zero coefficients are never stored."""

    terms: dict[int, int]

    def __post_init__(self) -> None:
        for exponent, coeff in self.terms.items():
            ensure_int64(exponent, "exponent")
            ensure_int64(coeff, "coefficient")
            if coeff == 0:
                raise ValueError(f"zero coefficient stored at exponent {exponent}")


@dataclass(frozen=True)
class CyclicPoly:
    """Residue-class coefficient vector: coeffs[r] is the total weight on r mod modulus."""

    modulus: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.modulus < 1:
            raise ValueError("modulus must be a positive integer")
        object.__setattr__(self, "coeffs", tuple(self.coeffs))
        if len(self.coeffs) != self.modulus:
            raise ValueError("coefficient vector length must equal the modulus")


class ConditionReport(NamedTuple):
    holds: bool
    shift: int
    reduced: CyclicPoly


def gen_poly(elements: Iterable[int]) -> LaurentPoly:
    """Generating polynomial of a finite set: one z^a per element."""
    terms: dict[int, int] = {}
    for a in elements:
        ensure_int64(a, "element")
        if a in terms:
            raise ValueError(f"duplicate element {a}")
        terms[a] = 1
    if not terms:
        raise ValueError("a generating polynomial needs at least one element")
    return LaurentPoly(terms)


def substitute_power(poly: LaurentPoly, u: int) -> LaurentPoly:
    """Substitute z -> z^u for nonzero u, scaling every exponent."""
    ensure_int64(u, "u")
    if u == 0:
        raise ValueError("substitution power must be nonzero")
    return LaurentPoly({checked_mul(exponent, u): coeff for exponent, coeff in poly.terms.items()})


def product(factors: Sequence[LaurentPoly]) -> LaurentPoly:
    """Exact product of one or more Laurent polynomials."""
    if not factors:
        raise ValueError("product needs at least one factor")
    result = dict(factors[0].terms)
    for factor in factors[1:]:
        next_terms: dict[int, int] = {}
        for e1, c1 in result.items():
            for e2, c2 in factor.terms.items():
                exponent = checked_add(e1, e2)
                coeff = checked_add(next_terms.get(exponent, 0), checked_mul(c1, c2))
                if coeff == 0:
                    next_terms.pop(exponent, None)
                else:
                    next_terms[exponent] = coeff
        result = next_terms
    return LaurentPoly(result)


def min_shift(poly: LaurentPoly) -> int:
    """Least L >= 0 such that z^L * poly has no negative exponents."""
    if not poly.terms:
        raise ValueError("the zero polynomial has no canonical shift")
    low = min(poly.terms)
    return -low if low < 0 else 0


def reduce_cyclic(poly: LaurentPoly, m: int) -> CyclicPoly:
    """Reduce modulo z^m - 1 by folding exponents into residue classes."""
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise ValueError("modulus m must be a positive integer")
    coeffs = [0] * m
    for exponent, coeff in poly.terms.items():
        index = exponent % m
        coeffs[index] = checked_add(coeffs[index], coeff)
    return CyclicPoly(m, tuple(coeffs))


def check_condition(form: LinearForm, sets: SetTuple, m: int, t: int) -> ConditionReport:
    """Test z^L * prod F_Ai(z^ui) == t * (1 + z + ... + z^(m-1)) mod z^m - 1."""
    if len(sets) != form.h:
        raise ValueError(f"form has {form.h} coordinates, got {len(sets)} sets")
    if t < 0:
        raise ValueError("t must be a nonnegative integer")
    factors = [substitute_power(gen_poly(a), u) for u, a in zip(form.coeffs, sets.sets)]
    expanded = product(factors)
    shift = min_shift(expanded)
    shifted = LaurentPoly(
        {checked_add(exponent, shift): coeff for exponent, coeff in expanded.terms.items()}
    )
    reduced = reduce_cyclic(shifted, m)
    target = CyclicPoly(m, tuple(t for _ in range(m)))
    return ConditionReport(reduced == target, shift, reduced)
