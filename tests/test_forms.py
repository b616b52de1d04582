"""Exact counting: forms, images, overflow, folding, augmented counts."""

from __future__ import annotations

import itertools
import math
import time
import tracemalloc
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linform import (
    INT64_MAX,
    INT64_MIN,
    MAX_MODULUS,
    AugmentedForm,
    IntegerOverflowError,
    LinearForm,
    LinformError,
    PeriodicSet,
    SetTuple,
    augmented_repfn,
    augmented_repfn_finite,
    image_repfn,
    modular_repfn,
)
from linform.forms import MAX_IMAGE_SIZE

from oracles import oracle_augmented_count, oracle_eval, oracle_image_counts, oracle_modular_counts

# Strategy pieces shared by the property tests. Element and coefficient
# ranges are tiny on purpose: the invariants are combinatorial, not about
# magnitude, and small ranges force collisions in the image.
coeff_st = st.integers(min_value=-6, max_value=6).filter(lambda u: u != 0)
element_st = st.integers(min_value=-9, max_value=9)
set_st = st.lists(element_st, min_size=1, max_size=4, unique=True)


# Magnitudes near 2**62, where a product or a partial sum of the form can
# leave the signed 64-bit range, mixed with small values that keep it inside.
NEAR = 1 << 62
small_st = st.integers(min_value=-4, max_value=4)
near_st = st.builds(lambda sign, d: sign * NEAR + d, st.sampled_from((1, -1)), st.integers(-3, 3))
wide_coeff_st = st.one_of(st.sampled_from((1, -1, 2, -2, 3, -3)), near_st)
wide_set_st = st.lists(st.one_of(small_st, near_st), min_size=1, max_size=3, unique=True)


@st.composite
def form_and_sets(draw, max_arity: int = 3, coeffs=coeff_st, sets=set_st):
    arity = draw(st.integers(min_value=1, max_value=max_arity))
    drawn_coeffs = tuple(draw(coeffs) for _ in range(arity))
    drawn_sets = tuple(tuple(draw(sets)) for _ in range(arity))
    return LinearForm(drawn_coeffs), SetTuple(drawn_sets)


class TestConstruction:
    def test_form_rejects_zero_coefficient(self):
        with pytest.raises(ValueError, match=r"zero coefficient u\[1\]"):
            LinearForm((1, 0, 2))

    def test_form_rejects_empty(self):
        with pytest.raises(ValueError):
            LinearForm(())

    def test_form_rejects_overflowing_coefficient(self):
        with pytest.raises(IntegerOverflowError):
            LinearForm((INT64_MAX + 1,))

    def test_augmented_rejects_zero_v(self):
        with pytest.raises(ValueError, match="zero coefficient v"):
            AugmentedForm(LinearForm((1,)), 0)

    def test_normalized_identity_when_v_positive(self):
        form = AugmentedForm(LinearForm((1, 2)), 3)
        same, reflected = form.normalized()
        assert same is form
        assert reflected is False

    def test_normalized_negates_everything_when_v_negative(self):
        form = AugmentedForm(LinearForm((1, -2)), -3)
        flipped, reflected = form.normalized()
        assert reflected is True
        assert flipped.base.coeffs == (-1, 2)
        assert flipped.v == 3

    def test_set_tuple_sorts_and_rejects_duplicates(self):
        sets = SetTuple(((3, 1, 2),))
        assert sets.sets == ((1, 2, 3),)
        with pytest.raises(ValueError, match=r"duplicate element in A\[0\]"):
            SetTuple(((1, 1),))

    def test_set_tuple_rejects_empty_set(self):
        with pytest.raises(ValueError, match=r"A\[0\] must be nonempty"):
            SetTuple(((),))


def evaluate(form: LinearForm, values) -> int:
    """The form at one tuple: its image over singleton sets is that one value."""
    (value,) = image_repfn(form, SetTuple(tuple((x,) for x in values))).counts
    return value


class TestEvalForm:
    """Evaluating the form at one tuple, as image_repfn of singleton sets."""

    def test_two_coordinates(self):
        assert evaluate(LinearForm((2, -3)), (1, 2)) == -4

    def test_single_zero(self):
        assert evaluate(LinearForm((1,)), (0,)) == 0

    def test_cancellation(self):
        assert evaluate(LinearForm((1, 1)), (7, -7)) == 0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="2 coordinates"):
            evaluate(LinearForm((1, 1)), (1,))

    def test_overflow_detected(self):
        with pytest.raises(IntegerOverflowError):
            evaluate(LinearForm((2,)), (INT64_MAX,))

    @given(form_and_sets())
    def test_matches_plain_loop(self, pair):
        form, sets = pair
        for combo in itertools.product(*sets.sets):
            assert evaluate(form, combo) == oracle_eval(form.coeffs, combo)


class TestImageRepfn:
    def test_sum_of_two_binary_sets(self):
        rep = image_repfn(LinearForm((1, 1)), SetTuple(((0, 1), (0, 1))))
        assert rep.counts == {0: 1, 1: 2, 2: 1}

    def test_scaled_singleton(self):
        rep = image_repfn(LinearForm((5,)), SetTuple(((3,),)))
        assert rep.counts == {15: 1}

    def test_difference_of_binary_sets(self):
        rep = image_repfn(LinearForm((1, -1)), SetTuple(((0, 1), (0, 1))))
        assert rep.counts == {-1: 1, 0: 2, 1: 1}

    def test_support_sorted_and_total(self):
        rep = image_repfn(LinearForm((1, -1)), SetTuple(((0, 1), (0, 1))))
        assert rep.support() == [(-1, 1), (0, 2), (1, 1)]
        assert rep.total() == 4
        assert rep[0] == 2
        assert rep[99] == 0

    @given(form_and_sets())
    def test_matches_oracle(self, pair):
        form, sets = pair
        assert image_repfn(form, sets).counts == oracle_image_counts(form.coeffs, sets.sets)

    @given(form_and_sets())
    def test_mass_conservation(self, pair):
        form, sets = pair
        assert image_repfn(form, sets).total() == math.prod(map(len, sets.sets))

    @given(form_and_sets())
    def test_counts_bounded_by_product(self, pair):
        form, sets = pair
        bound = math.prod(map(len, sets.sets))
        assert all(c <= bound for c in image_repfn(form, sets).counts.values())

    @given(form_and_sets(), st.integers(min_value=-5, max_value=5))
    def test_translation_shifts_image(self, pair, c):
        # Shifting A_0 by c shifts every represented value by u_0 * c.
        form, sets = pair
        shifted_sets = SetTuple((tuple(x + c for x in sets.sets[0]),) + sets.sets[1:])
        base = image_repfn(form, sets).counts
        shifted = image_repfn(form, shifted_sets).counts
        step = form.coeffs[0] * c
        assert shifted == {n + step: count for n, count in base.items()}

    @given(form_and_sets())
    def test_negation_reflects_image(self, pair):
        form, sets = pair
        base = image_repfn(form, sets).counts
        reflected = image_repfn(form.negate(), sets).counts
        assert reflected == {-n: count for n, count in base.items()}


def overflows_on_some_tuple(form: LinearForm, sets: SetTuple) -> bool:
    """Whether some tuple has a product ui*ai or a prefix sum outside signed 64-bit."""
    for combo in itertools.product(*sets.sets):
        for k, (u, x) in enumerate(zip(form.coeffs, combo), 1):
            for value in (oracle_eval((u,), (x,)), oracle_eval(form.coeffs[:k], combo[:k])):
                if not INT64_MIN <= value <= INT64_MAX:
                    return True
    return False


class TestImageOverflow:
    # image_repfn checks overflow once per coordinate; the oracle checks every
    # product and every prefix sum of every tuple. Both must refuse exactly
    # the same inputs.

    def test_prefix_overflow_with_fitting_total(self):
        # 2**62 + 2**62 - 2**62 fits, but the partial sum 2**63 does not
        form, sets = LinearForm((1, 1, -1)), SetTuple(((NEAR,),) * 3)
        assert overflows_on_some_tuple(form, sets)
        with pytest.raises(IntegerOverflowError):
            image_repfn(form, sets)

    def test_overflowing_extreme_at_low_end_under_negative_coefficient(self):
        # -2 * min(A) = 2**63 is the largest product; the top of A is harmless
        form, sets = LinearForm((-2,)), SetTuple(((-NEAR, 0, 1),))
        assert overflows_on_some_tuple(form, sets)
        with pytest.raises(IntegerOverflowError):
            image_repfn(form, sets)

    def test_extremes_one_inside_the_range_do_not_raise(self):
        form, sets = LinearForm((-2,)), SetTuple(((-NEAR + 1, 0, 1),))
        assert image_repfn(form, sets).counts == {2 * NEAR - 2: 1, 0: 1, -2: 1}

    def test_partial_sum_may_reach_int64_min_exactly(self):
        form, sets = LinearForm((-1, -1)), SetTuple(((NEAR,), (NEAR,)))
        assert image_repfn(form, sets).counts == {-2 * NEAR: 1}
        with pytest.raises(IntegerOverflowError):
            image_repfn(LinearForm((-1, -1, -1)), SetTuple(((NEAR,), (NEAR,), (1,))))

    @settings(max_examples=300)
    @given(form_and_sets(coeffs=wide_coeff_st, sets=wide_set_st))
    def test_raises_exactly_when_some_tuple_overflows(self, pair):
        form, sets = pair
        if overflows_on_some_tuple(form, sets):
            with pytest.raises(IntegerOverflowError):
                image_repfn(form, sets)
        else:
            assert image_repfn(form, sets).counts == oracle_image_counts(form.coeffs, sets.sets)


class TestImageScale:
    def test_six_intervals_beyond_the_cartesian_walk(self):
        # 40**6 = 4.1e9 tuples: out of reach tuple by tuple, about 24,000
        # additions coordinate by coordinate, and no partial image holds more
        # than 235 values however far the tuples pass MAX_IMAGE_SIZE. Checked
        # against facts that need no second convolution.
        start = time.perf_counter()
        rep = image_repfn(LinearForm((1,) * 6), SetTuple((tuple(range(40)),) * 6))
        elapsed = time.perf_counter() - start
        assert rep.total() == 40**6
        assert (rep.g_min, rep.g_max) == (0, 234)
        assert all(rep[n] == rep[234 - n] for n in range(235))
        assert rep.count_min == rep.count_max == 1
        # compositions of 117 into 6 parts below 40, by inclusion-exclusion
        assert rep[117] == sum(
            (-1) ** j * comb(6, j) * comb(117 - 40 * j + 5, 5) for j in range(3)
        )
        assert elapsed < 1.0

    def test_image_above_limit_refused_before_convolving(self):
        # 1,001 * 1,000 tuples, all of them distinct values: refused before the
        # second coordinate, with one partial image of 1,001 values built
        sets = SetTuple((tuple(range(1001)), tuple(range(1000))))
        tracemalloc.start()
        try:
            with pytest.raises(LinformError, match=f"image of up to 1001000 values exceeds the limit {MAX_IMAGE_SIZE}"):
                image_repfn(LinearForm((1, 1001)), sets)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 200_000


class TestDiameterReport:
    def test_mixed_signs(self):
        report = image_repfn(LinearForm((2, -3)), SetTuple(((0, 1), (0, 1))))
        assert (report.g_min, report.g_max) == (-3, 2)
        assert report.diameter == 5
        assert (report.count_min, report.count_max) == (1, 1)

    def test_singleton_has_zero_diameter(self):
        report = image_repfn(LinearForm((1,)), SetTuple(((4,),)))
        assert report.g_min == report.g_max == 4
        assert report.diameter == 0

    def test_binary_sum(self):
        report = image_repfn(LinearForm((1, 1)), SetTuple(((0, 1), (0, 1))))
        assert report.diameter == 2
        assert (report.count_min, report.count_max) == (1, 1)

    @given(form_and_sets())
    def test_extremes_match_image(self, pair):
        form, sets = pair
        rep = oracle_image_counts(form.coeffs, sets.sets)
        report = image_repfn(form, sets)
        assert report.g_min == min(rep)
        assert report.g_max == max(rep)
        assert report.count_min == rep[report.g_min]
        assert report.count_max == rep[report.g_max]


class TestModularRepfn:
    def test_four_elements_mod_two(self):
        assert modular_repfn(LinearForm((1,)), SetTuple(((0, 1, 2, 3),)), 2) == [2, 2]

    def test_four_elements_mod_four(self):
        assert modular_repfn(LinearForm((1,)), SetTuple(((0, 1, 2, 3),)), 4) == [1, 1, 1, 1]

    def test_singleton_mod_five(self):
        assert modular_repfn(LinearForm((1,)), SetTuple(((0,),)), 5) == [1, 0, 0, 0, 0]

    def test_rejects_nonpositive_modulus(self):
        with pytest.raises(ValueError):
            modular_repfn(LinearForm((1,)), SetTuple(((0,),)), 0)

    @pytest.mark.parametrize("m", [MAX_MODULUS + 1, 10**11])
    def test_modulus_above_limit_refused_before_allocating(self, m):
        tracemalloc.start()
        try:
            with pytest.raises(LinformError, match=f"exceeds the limit {MAX_MODULUS}"):
                modular_repfn(LinearForm((1,)), SetTuple(((0, 1),)), m)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    @given(form_and_sets(), st.integers(min_value=1, max_value=12))
    def test_fold_consistency(self, pair, m):
        form, sets = pair
        assert modular_repfn(form, sets, m) == oracle_modular_counts(form.coeffs, sets.sets, m)

    @given(form_and_sets(), st.integers(min_value=1, max_value=12))
    def test_fold_preserves_mass(self, pair, m):
        form, sets = pair
        assert sum(modular_repfn(form, sets, m)) == math.prod(map(len, sets.sets))


class TestAugmentedRepfn:
    def test_all_integers_filter_by_divisibility(self):
        form = AugmentedForm(LinearForm((1,)), 2)
        count = augmented_repfn(form, SetTuple(((0, 1),)), PeriodicSet(1, (0,)), 7)
        assert count == 1

    def test_even_target(self):
        form = AugmentedForm(LinearForm((1,)), 1)
        count = augmented_repfn(form, SetTuple(((0, 1),)), PeriodicSet(2, (0,)), 0)
        assert count == 1

    def test_gap_misses_odd_target(self):
        form = AugmentedForm(LinearForm((1,)), 1)
        count = augmented_repfn(form, SetTuple(((0, 2),)), PeriodicSet(2, (0,)), 1)
        assert count == 0

    def test_rejects_unnormalized_form(self):
        form = AugmentedForm(LinearForm((1,)), -1)
        with pytest.raises(ValueError, match="normalized"):
            augmented_repfn(form, SetTuple(((0,),)), PeriodicSet(1, (0,)), 0)

    @given(
        form_and_sets(max_arity=2),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=-8, max_value=8),
    )
    def test_matches_oracle_on_periodic_sets(self, pair, v, n):
        form, sets = pair
        periodic = PeriodicSet(3, (0, 2))
        augmented = AugmentedForm(form, v)
        expected = oracle_augmented_count(
            form.coeffs, v, sets.sets, lambda b: b % 3 in (0, 2), n
        )
        assert augmented_repfn(augmented, sets, periodic, n) == expected

    @given(form_and_sets(max_arity=2), st.integers(min_value=1, max_value=4))
    def test_periodic_in_n_with_period_v_m(self, pair, v):
        form, sets = pair
        periodic = PeriodicSet(3, (1,))
        augmented = AugmentedForm(form, v)
        period = v * periodic.modulus
        for n in range(-6, 7):
            assert augmented_repfn(augmented, sets, periodic, n) == augmented_repfn(
                augmented, sets, periodic, n + period
            )

    @given(form_and_sets(max_arity=2), st.integers(min_value=-8, max_value=8))
    def test_bounded_by_product_size(self, pair, n):
        form, sets = pair
        augmented = AugmentedForm(form, 1)
        count = augmented_repfn(augmented, sets, PeriodicSet(2, (0,)), n)
        assert 0 <= count <= math.prod(map(len, sets.sets))


class TestAugmentedRepfnFinite:
    def test_three_member_set(self):
        form = AugmentedForm(LinearForm((1,)), 1)
        assert augmented_repfn_finite(form, SetTuple(((0, 1),)), (-3, -1, 1), 0) == 1

    def test_empty_set(self):
        form = AugmentedForm(LinearForm((1,)), 1)
        assert augmented_repfn_finite(form, SetTuple(((0, 1),)), (), 0) == 0

    def test_two_representations(self):
        form = AugmentedForm(LinearForm((1,)), 1)
        assert augmented_repfn_finite(form, SetTuple(((0, 1),)), (0, 1), 1) == 2

    def test_accepts_negative_v(self):
        # Finite counting does not require normalization; with v=-1 the
        # member must be a - n rather than n - a.
        form = AugmentedForm(LinearForm((1,)), -1)
        assert augmented_repfn_finite(form, SetTuple(((0, 1),)), (3,), -2) == 1

    @given(
        form_and_sets(max_arity=2),
        st.integers(min_value=-4, max_value=4).filter(lambda v: v != 0),
        st.lists(st.integers(min_value=-6, max_value=6), max_size=5, unique=True),
        st.integers(min_value=-10, max_value=10),
    )
    def test_matches_oracle(self, pair, v, members, n):
        form, sets = pair
        augmented = AugmentedForm(form, v)
        expected = oracle_augmented_count(form.coeffs, v, sets.sets, set(members).__contains__, n)
        assert augmented_repfn_finite(augmented, sets, members, n) == expected
