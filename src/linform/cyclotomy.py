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
from typing import NamedTuple, Sequence

from .checked import checked_add, checked_mul, ensure_int64
from .forms import LinearForm, SetTuple, check_modulus


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


class ConditionReport(NamedTuple):
    holds: bool
    shift: int
    reduced: tuple[int, ...]  # reduced[r]: the coefficient of z^r mod z^m - 1


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


def check_condition(form: LinearForm, sets: SetTuple, m: int, t: int) -> ConditionReport:
    """Test z^L * prod F_Ai(z^ui) == t * (1 + z + ... + z^(m-1)) mod z^m - 1.

    Overflow in a shifted exponent is raised before a bad m, and nothing is
    sized by m before check_modulus has passed it.
    """
    if len(sets) != form.h:
        raise ValueError(f"form has {form.h} coordinates, got {len(sets)} sets")
    if t < 0:
        raise ValueError("t must be a nonnegative integer")
    factors = [
        LaurentPoly({checked_mul(a, u): 1 for a in elements}) for u, elements in zip(form.coeffs, sets.sets)
    ]
    expanded = product(factors)
    shift = max(0, -min(expanded.terms))
    shifted = [(checked_add(exponent, shift), coeff) for exponent, coeff in expanded.terms.items()]
    check_modulus(m)
    reduced = [0] * m
    for exponent, coeff in shifted:
        r = exponent % m
        reduced[r] = checked_add(reduced[r], coeff)
    return ConditionReport(all(c == t for c in reduced), shift, tuple(reduced))
