"""Generating polynomials and the residue-cover condition mod z^m - 1."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from linform import (
    INT64_MAX,
    CyclicPoly,
    IntegerOverflowError,
    LaurentPoly,
    LinearForm,
    SetTuple,
    check_condition,
    gen_poly,
    min_shift,
    modular_repfn,
    product,
    reduce_cyclic,
    substitute_power,
)

from oracles import oracle_cyclic_product
from test_forms import form_and_sets

poly_st = st.dictionaries(
    st.integers(min_value=-8, max_value=8),
    st.integers(min_value=-5, max_value=5).filter(lambda c: c != 0),
    max_size=5,
).map(LaurentPoly)


class TestGenPoly:
    def test_three_elements(self):
        assert gen_poly((0, 1, 3)).terms == {0: 1, 1: 1, 3: 1}

    def test_negative_exponent(self):
        assert gen_poly((-2, 0)).terms == {-2: 1, 0: 1}

    def test_singleton(self):
        assert gen_poly((5,)).terms == {5: 1}

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate element 3"):
            gen_poly((3, 3))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            gen_poly(())


class TestSubstitutePower:
    def test_negative_power(self):
        assert substitute_power(LaurentPoly({0: 1, 1: 1}), -2).terms == {0: 1, -2: 1}

    def test_positive_power(self):
        assert substitute_power(LaurentPoly({3: 1}), 3).terms == {9: 1}

    def test_identity(self):
        poly = LaurentPoly({0: 1, 1: 1, 2: 1})
        assert substitute_power(poly, 1).terms == poly.terms

    def test_rejects_zero_power(self):
        with pytest.raises(ValueError):
            substitute_power(LaurentPoly({1: 1}), 0)

    def test_exponent_overflow(self):
        with pytest.raises(IntegerOverflowError):
            substitute_power(LaurentPoly({INT64_MAX: 1}), 2)


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

    @given(form_and_sets())
    def test_expansion_matches_image_counts(self, pair):
        from linform import image_repfn

        form, sets = pair
        factors = [substitute_power(gen_poly(a), u) for u, a in zip(form.coeffs, sets.sets)]
        assert product(factors).terms == image_repfn(form, sets).counts


class TestMinShift:
    def test_negative_low(self):
        assert min_shift(LaurentPoly({-2: 1, 0: 1})) == 2

    def test_already_polynomial(self):
        assert min_shift(LaurentPoly({0: 1, 1: 1})) == 0

    def test_positive_low(self):
        assert min_shift(LaurentPoly({5: 1})) == 0

    def test_zero_poly_rejected(self):
        with pytest.raises(ValueError):
            min_shift(LaurentPoly({}))


class TestReduceCyclic:
    def test_fold_positive(self):
        assert reduce_cyclic(LaurentPoly({5: 1, 2: 1}), 3).coeffs == (0, 0, 2)

    def test_fold_negative(self):
        assert reduce_cyclic(LaurentPoly({-1: 1}), 2).coeffs == (0, 1)

    def test_already_reduced(self):
        assert reduce_cyclic(LaurentPoly({0: 1, 1: 1, 2: 1, 3: 1}), 4).coeffs == (1, 1, 1, 1)

    @given(poly_st, poly_st, st.integers(min_value=1, max_value=8))
    def test_ring_homomorphism(self, f, g, m):
        # Reducing a product equals cyclically convolving the reductions.
        lhs = reduce_cyclic(product([f, g]), m).coeffs
        a = reduce_cyclic(f, m).coeffs
        b = reduce_cyclic(g, m).coeffs
        conv = [0] * m
        for i in range(m):
            for j in range(m):
                conv[(i + j) % m] += a[i] * b[j]
        assert list(lhs) == conv

    @given(form_and_sets(), st.integers(min_value=1, max_value=10))
    def test_mass(self, pair, m):
        form, sets = pair
        factors = [substitute_power(gen_poly(a), u) for u, a in zip(form.coeffs, sets.sets)]
        reduced = reduce_cyclic(product(factors), m)
        assert sum(reduced.coeffs) == math.prod(map(len, sets.sets))


class TestCheckCondition:
    def test_two_coordinate_cover(self):
        report = check_condition(LinearForm((1, 1)), SetTuple(((0, 1), (0, 2))), 4, 1)
        assert report.holds is True
        assert report.shift == 0
        assert report.reduced.coeffs == (1, 1, 1, 1)

    def test_negative_coefficient_shift(self):
        report = check_condition(LinearForm((-1,)), SetTuple(((0, 1),)), 2, 1)
        assert report.holds is True
        assert report.shift == 1
        assert report.reduced.coeffs == (1, 1)

    def test_gap_set_fails(self):
        report = check_condition(LinearForm((1,)), SetTuple(((0, 2),)), 2, 1)
        assert report.holds is False
        assert report.shift == 0
        assert report.reduced.coeffs == (2, 0)

    def test_modulus_one_counts_product_size(self):
        assert check_condition(LinearForm((1,)), SetTuple(((0, 1, 2),)), 1, 3).holds is True
        assert check_condition(LinearForm((1,)), SetTuple(((0, 1, 2),)), 1, 2).holds is False

    def test_rejects_negative_t(self):
        with pytest.raises(ValueError):
            check_condition(LinearForm((1,)), SetTuple(((0,),)), 2, -1)

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
        rotated = tuple(
            report.reduced.coeffs[(i + report.shift) % m] for i in range(m)
        )
        assert list(rotated) == oracle_cyclic_product(form.coeffs, sets.sets, m)

    @given(form_and_sets(), st.integers(min_value=1, max_value=10))
    def test_shift_invariance(self, pair, m):
        # Rotating the reduced vector by a full modulus is the identity, so
        # replacing L by L + m cannot change the verdict.
        form, sets = pair
        report = check_condition(form, sets, m, 1)
        extra = reduce_cyclic(LaurentPoly({m: 1}), m)
        rotated = tuple(
            report.reduced.coeffs[(i - m) % m] for i in range(m)
        )
        assert extra.coeffs == tuple(1 if i == 0 else 0 for i in range(m))
        assert rotated == report.reduced.coeffs

    def test_corpus_verdicts_hold_modulo_their_period(self, corpus):
        # Pairs with v=1 and B a single residue class are exactly the cases
        # where A alone must cover each class mod m once.
        for pair in corpus:
            if pair.v != 1 or len(pair.residues) != 1 or pair.t != 1:
                continue
            form = LinearForm(pair.u)
            report = check_condition(form, SetTuple(pair.sets), pair.modulus, pair.t)
            assert report.holds is True, pair.name


class TestCyclicPoly:
    def test_length_must_match(self):
        with pytest.raises(ValueError):
            CyclicPoly(3, (1, 1))

    def test_rejects_zero_coefficient_storage(self):
        with pytest.raises(ValueError):
            LaurentPoly({0: 0})
