"""Generating polynomials and the residue-cover condition mod z^m - 1."""

from __future__ import annotations

import math
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from linform import (
    INT64_MAX,
    MAX_MODULUS,
    IntegerOverflowError,
    LaurentPoly,
    LinearForm,
    LinformError,
    SetTuple,
    check_condition,
    cyclotomy,
    modular_repfn,
    product,
)
from linform.forms import MAX_IMAGE_SIZE

from oracles import oracle_cyclic_product
from test_forms import form_and_sets


def reduce_one(u: int, elements: tuple[int, ...], m: int) -> tuple[int, tuple[int, ...]]:
    """The shift L and reduced vector of z^L * F_A(z^u) mod z^m - 1."""
    report = check_condition(LinearForm((u,)), SetTuple((elements,)), m, 0)
    return report.shift, report.reduced


class TestLaurentPoly:
    def test_rejects_zero_coefficient_storage(self):
        with pytest.raises(ValueError):
            LaurentPoly({0: 0})


class TestGenPoly:
    """Each set enters as its generating polynomial F_A(z), one z^a per element."""

    def test_three_elements(self):
        assert reduce_one(1, (0, 1, 3), 5) == (0, (1, 1, 0, 1, 0))

    def test_negative_exponent(self):
        assert reduce_one(1, (-2, 0), 4) == (2, (1, 0, 1, 0))

    def test_singleton(self):
        assert reduce_one(1, (5,), 7) == (0, (0, 0, 0, 0, 0, 1, 0))


class TestSubstitutePower:
    """Coordinate i enters as F_Ai(z^ui): every exponent is scaled by ui."""

    def test_negative_power(self):
        assert reduce_one(-2, (0, 1), 4) == (2, (1, 0, 1, 0))

    def test_positive_power(self):
        assert reduce_one(3, (3,), 10) == (0, (0,) * 9 + (1,))

    def test_identity(self):
        assert reduce_one(1, (0, 1, 2), 3) == (0, (1, 1, 1))

    def test_exponent_overflow(self):
        with pytest.raises(IntegerOverflowError):
            check_condition(LinearForm((2,)), SetTuple(((INT64_MAX,),)), 1, 1)


class TestProduct:
    def test_distinct_powers(self):
        got = product([LaurentPoly({0: 1, 1: 1}), LaurentPoly({0: 1, 2: 1})])
        assert got.terms == {0: 1, 1: 1, 2: 1, 3: 1}

    def test_square(self):
        got = product([LaurentPoly({0: 1, 1: 1})] * 2)
        assert got.terms == {0: 1, 1: 2, 2: 1}

    def test_single_factor(self):
        poly = LaurentPoly({-1: 2, 4: 1})
        assert product([poly]).terms == poly.terms

    def test_rejects_empty_list(self):
        with pytest.raises(ValueError):
            product([])

    def test_cancellation_drops_terms(self):
        # (1 - z)(1 + z) = 1 - z^2; the z coefficient cancels exactly.
        got = product([LaurentPoly({0: 1, 1: -1}), LaurentPoly({0: 1, 1: 1})])
        assert got.terms == {0: 1, 2: -1}

    def test_product_budget_refused_before_convolving(self):
        # 1001 * 1001 terms over a span of 1001 * 1001 values: the second
        # factor is refused before a term of it is multiplied
        factors = [LaurentPoly(dict.fromkeys(range(0, u * 1001, u), 1)) for u in (1, 1001)]
        tracemalloc.start()
        try:
            with pytest.raises(LinformError, match=f"up to 1002001 terms exceeds the limit {MAX_IMAGE_SIZE}"):
                product(factors)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    def test_product_budget_is_the_smaller_bound(self, monkeypatch):
        monkeypatch.setattr(cyclotomy, "MAX_IMAGE_SIZE", 5)
        # 3 * 3 products over a span of 5 values
        assert len(product([LaurentPoly({0: 1, 1: 1, 2: 1})] * 2).terms) == 5
        with pytest.raises(LinformError, match="up to 6 terms"):
            product([LaurentPoly({0: 1, 1: 1, 2: 1}), LaurentPoly({0: 1, 3: 1})])

    def test_empty_factor_gives_the_empty_product(self):
        assert product([LaurentPoly({0: 1}), LaurentPoly({}), LaurentPoly({5: 1})]).terms == {}

    @given(form_and_sets())
    def test_expansion_matches_image_counts(self, pair):
        from linform import image_repfn

        form, sets = pair
        factors = [LaurentPoly({u * a: 1 for a in elements}) for u, elements in zip(form.coeffs, sets.sets)]
        assert product(factors).terms == image_repfn(form, sets).counts


class TestMinShift:
    """L is the least shift >= 0 that clears every negative exponent."""

    def test_negative_low(self):
        assert reduce_one(1, (-2, 0), 1)[0] == 2

    def test_already_polynomial(self):
        assert reduce_one(1, (0, 1), 1)[0] == 0

    def test_positive_low(self):
        assert reduce_one(1, (5,), 1)[0] == 0


class TestReduceCyclic:
    """Reduction mod z^m - 1 folds the shifted exponents into residue classes."""

    def test_fold_positive(self):
        assert reduce_one(1, (2, 5), 3) == (0, (0, 0, 2))

    def test_fold_negative(self):
        # shifted by 3 to {0, 2, 3} before folding
        assert reduce_one(1, (-3, -1, 0), 4) == (3, (1, 0, 1, 1))

    def test_already_reduced(self):
        assert reduce_one(1, (0, 1, 2, 3), 4) == (0, (1, 1, 1, 1))

    @given(form_and_sets(), st.integers(min_value=1, max_value=10))
    def test_mass(self, pair, m):
        form, sets = pair
        reduced = check_condition(form, sets, m, 0).reduced
        assert sum(reduced) == math.prod(map(len, sets.sets))


class TestCheckCondition:
    def test_two_coordinate_cover(self):
        report = check_condition(LinearForm((1, 1)), SetTuple(((0, 1), (0, 2))), 4, 1)
        assert report.holds is True
        assert report.shift == 0
        assert report.reduced == (1, 1, 1, 1)

    def test_negative_coefficient_shift(self):
        report = check_condition(LinearForm((-1,)), SetTuple(((0, 1),)), 2, 1)
        assert report.holds is True
        assert report.shift == 1
        assert report.reduced == (1, 1)

    def test_gap_set_fails(self):
        report = check_condition(LinearForm((1,)), SetTuple(((0, 2),)), 2, 1)
        assert report.holds is False
        assert report.shift == 0
        assert report.reduced == (2, 0)

    def test_modulus_one_counts_product_size(self):
        assert check_condition(LinearForm((1,)), SetTuple(((0, 1, 2),)), 1, 3).holds is True
        assert check_condition(LinearForm((1,)), SetTuple(((0, 1, 2),)), 1, 2).holds is False

    def test_rejects_negative_t(self):
        with pytest.raises(ValueError):
            check_condition(LinearForm((1,)), SetTuple(((0,),)), 2, -1)

    @pytest.mark.parametrize("m", [0, -3, True, 2.0])
    def test_rejects_nonpositive_modulus(self, m):
        with pytest.raises(ValueError, match="modulus m must be a positive integer"):
            check_condition(LinearForm((1,)), SetTuple(((0,),)), m, 1)

    def test_shifted_exponent_overflow_precedes_modulus(self):
        # the shift L = 1 takes INT64_MAX out of range; m = 0 is checked later
        with pytest.raises(IntegerOverflowError, match=f"{INT64_MAX} \\+ 1 overflows"):
            check_condition(LinearForm((1,)), SetTuple(((-1, INT64_MAX),)), 0, 1)

    def test_length_and_t_checked_before_modulus(self):
        with pytest.raises(ValueError, match="form has 2 coordinates, got 1 sets"):
            check_condition(LinearForm((1, 1)), SetTuple(((0,),)), 10**11, 1)
        with pytest.raises(ValueError, match="t must be a nonnegative integer"):
            check_condition(LinearForm((1,)), SetTuple(((0,),)), 10**11, -1)

    @pytest.mark.parametrize("m", [MAX_MODULUS + 1, 10**11])
    def test_modulus_above_limit_refused_before_allocating(self, m):
        tracemalloc.start()
        try:
            with pytest.raises(LinformError, match=f"exceeds the limit {MAX_MODULUS}"):
                check_condition(LinearForm((1,)), SetTuple(((0, 1),)), m, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    @given(
        form_and_sets(),
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=0, max_value=4),
    )
    def test_equivalent_to_modular_counting(self, pair, m, t):
        form, sets = pair
        expected = all(c == t for c in modular_repfn(form, sets, m))
        assert check_condition(form, sets, m, t).holds == expected

    @given(form_and_sets(), st.integers(min_value=1, max_value=10))
    def test_reduction_matches_convolution_oracle(self, pair, m):
        # The oracle multiplies factor by factor inside the cyclic ring, a
        # different route than one big expansion folded at the end. The
        # oracle has no shift, so compare after rotating ours back by L.
        form, sets = pair
        report = check_condition(form, sets, m, 0)
        rotated = tuple(report.reduced[(i + report.shift) % m] for i in range(m))
        assert list(rotated) == oracle_cyclic_product(form.coeffs, sets.sets, m)

    @given(form_and_sets(), st.integers(min_value=1, max_value=10))
    def test_shift_invariance(self, pair, m):
        # One more factor z^m moves every exponent by m, so the clearing
        # shift changes; the reduced vector only rotates, by the change in
        # total shift, and the verdict stays.
        form, sets = pair
        base = check_condition(form, sets, m, 1)
        moved = check_condition(LinearForm(form.coeffs + (1,)), SetTuple(sets.sets + ((m,),)), m, 1)
        delta = moved.shift + m - base.shift
        assert moved.reduced == tuple(base.reduced[(i - delta) % m] for i in range(m))
        assert moved.holds == base.holds

    def test_corpus_verdicts_hold_modulo_their_period(self, corpus):
        # Pairs with v=1 and B a single residue class are exactly the cases
        # where A alone must cover each class mod m once.
        for pair in corpus:
            if pair.v != 1 or len(pair.residues) != 1 or pair.t != 1:
                continue
            form = LinearForm(pair.u)
            report = check_condition(form, SetTuple(pair.sets), pair.modulus, pair.t)
            assert report.holds is True, pair.name
