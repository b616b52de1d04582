"""Periodic sets, modulus normalization, and full-period pair verification."""

from __future__ import annotations

import math
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from linform import (
    AugmentedForm,
    LinearForm,
    PeriodicSet,
    SetTuple,
    augmented_repfn,
    augmented_repfn_finite,
    check_t_complementing,
    image_repfn,
    stabilize,
)

from linform.problems import parse_problem_dict

from corpus import CORPUS
from oracles import oracle_augmented_count, oracle_minimal_period


@st.composite
def periodic_sets(draw, max_modulus: int = 12):
    m = draw(st.integers(min_value=1, max_value=max_modulus))
    residues = draw(st.lists(st.integers(min_value=0, max_value=m - 1), max_size=m, unique=True))
    return PeriodicSet(m, tuple(sorted(residues)))


@st.composite
def inflated_periodic_sets(draw):
    """A periodic set rewritten modulo a multiple of its modulus, so that it folds."""
    b = draw(periodic_sets())
    k = draw(st.integers(min_value=1, max_value=6))
    residues = tuple(r + j * b.modulus for r in b.residues for j in range(k))
    return PeriodicSet(b.modulus * k, residues)


def shifted(periodic: PeriodicSet, c: int) -> PeriodicSet:
    """The set {b + c : b in B}, as residues of the same modulus."""
    m = periodic.modulus
    return PeriodicSet(m, tuple(sorted((r + c) % m for r in periodic.residues)))


class TestPeriodicSet:
    def test_member_even(self):
        assert PeriodicSet(2, (0,)).member(-4) is True

    def test_member_odd(self):
        assert PeriodicSet(2, (0,)).member(7) is False

    def test_member_all_integers(self):
        assert PeriodicSet(1, (0,)).member(123) is True

    def test_rejects_residue_out_of_range(self):
        with pytest.raises(ValueError):
            PeriodicSet(3, (3,))
        with pytest.raises(ValueError):
            PeriodicSet(3, (-1,))

    def test_rejects_duplicate_residue(self):
        with pytest.raises(ValueError):
            PeriodicSet(4, (1, 1))

    def test_rejects_nonpositive_modulus(self):
        with pytest.raises(ValueError):
            PeriodicSet(0, ())

    def test_dict_round_trip(self):
        b = PeriodicSet(6, (1, 4))
        assert parse_problem_dict({"u": [1], "A": [[0, 1]], "B": b.to_dict()}).periodic == b


class TestNormalize:
    def test_halves_modulus(self):
        assert PeriodicSet(4, (0, 2)).normalize() == PeriodicSet(2, (0,))

    def test_folds_to_third(self):
        assert PeriodicSet(6, (1, 4)).normalize() == PeriodicSet(3, (1,))

    def test_full_residue_system_is_all_integers(self):
        assert PeriodicSet(5, (0, 1, 2, 3, 4)).normalize() == PeriodicSet(1, (0,))

    def test_empty_set_normalizes_to_modulus_one(self):
        assert PeriodicSet(7, ()).normalize() == PeriodicSet(1, ())

    def test_huge_modulus_tries_only_residue_differences(self):
        # a walk over the integers up to m = 2^62 would never finish
        start = time.perf_counter()
        assert PeriodicSet(2**62, (0, 2**61)).normalize() == PeriodicSet(2**61, (0,))
        assert time.perf_counter() - start < 0.5

    @given(st.one_of(periodic_sets(max_modulus=40), inflated_periodic_sets()))
    def test_matches_divisor_walk_oracle(self, b):
        assert b.normalize() == PeriodicSet(*oracle_minimal_period(b.modulus, b.residues))

    @given(periodic_sets())
    def test_idempotent(self, b):
        once = b.normalize()
        assert once.normalize() == once

    @given(periodic_sets())
    def test_preserves_membership(self, b):
        small = b.normalize()
        assert small.modulus <= b.modulus
        for n in range(-2 * b.modulus, 2 * b.modulus + 1):
            assert small.member(n) == b.member(n)

    @given(periodic_sets(), st.integers(min_value=1, max_value=4))
    def test_inflation_then_normalize_round_trips(self, b, k):
        # Rewriting modulo m*k never changes the set, so the minimal form
        # of the inflated representation matches the minimal form of b.
        inflated = PeriodicSet(
            b.modulus * k,
            tuple(sorted(r + j * b.modulus for r in b.residues for j in range(k))),
        )
        assert inflated.normalize() == b.normalize()


class TestCheckTComplementing:
    def test_binary_set_with_evens(self):
        image = image_repfn(LinearForm((1,)), SetTuple(((0, 1),)))
        cert = check_t_complementing(AugmentedForm(LinearForm((1,)), 1), image, PeriodicSet(2, (0,)), 1)
        assert cert.verdict is True
        assert cert.first_violation is None
        assert cert.period_checked == 2

    def test_all_integers_doubles(self):
        image = image_repfn(LinearForm((1,)), SetTuple(((0, 1),)))
        cert = check_t_complementing(AugmentedForm(LinearForm((1,)), 1), image, PeriodicSet(1, (0,)), 2)
        assert cert.verdict is True

    def test_gap_set_fails(self):
        # Every even n is hit twice and every odd n is missed; the scan
        # starts at zero, so the doubled count is the reported witness.
        form = AugmentedForm(LinearForm((1,)), 1)
        sets = SetTuple(((0, 2),))
        cert = check_t_complementing(form, image_repfn(form.base, sets), PeriodicSet(2, (0,)), 1)
        assert cert.verdict is False
        assert cert.first_violation is not None
        assert cert.first_violation == (0, 2, 1)
        assert augmented_repfn(form, sets, PeriodicSet(2, (0,)), 1) == 0

    def test_violation_is_least_magnitude_positive_first(self):
        # R(0)=1 passes, both n=1 and n=-1 fail with count 0; the positive
        # candidate is scanned first.
        image = image_repfn(LinearForm((1,)), SetTuple(((0,),)))
        cert = check_t_complementing(AugmentedForm(LinearForm((1,)), 2), image, PeriodicSet(1, (0,)), 1)
        assert cert.verdict is False
        assert cert.first_violation.n == 1
        assert cert.first_violation.observed == 0

    def test_rejects_unnormalized_form(self):
        with pytest.raises(ValueError, match="normalized"):
            image = image_repfn(LinearForm((1,)), SetTuple(((0, 1),)))
            check_t_complementing(AugmentedForm(LinearForm((1,)), -1), image, PeriodicSet(2, (0,)), 1)

    def test_corpus_pairs_verify(self, corpus):
        for pair in corpus:
            image = image_repfn(pair.form().base, pair.set_tuple())
            cert = check_t_complementing(pair.form(), image, pair.periodic(), pair.t)
            assert cert.verdict is True, pair.name

    def test_corpus_pairs_fail_for_wrong_t(self, corpus):
        for pair in corpus:
            image = image_repfn(pair.form().base, pair.set_tuple())
            cert = check_t_complementing(pair.form(), image, pair.periodic(), pair.t + 1)
            assert cert.verdict is False, pair.name

    @given(st.integers(min_value=1, max_value=4))
    def test_verdict_invariant_under_modulus_inflation(self, k):
        form = AugmentedForm(LinearForm((1,)), 1)
        sets = SetTuple(((0, 2),))
        base = PeriodicSet(4, (0, 1))
        inflated = PeriodicSet(
            4 * k, tuple(sorted(r + j * 4 for r in base.residues for j in range(k)))
        )
        image = image_repfn(form.base, sets)
        assert check_t_complementing(form, image, base, 1).verdict is True
        assert check_t_complementing(form, image, inflated, 1).verdict is True

    def test_verified_pairs_match_finite_counting(self, corpus):
        # Counting against B clipped to a wide interval must reproduce t on
        # a window of three periods around zero.
        for pair in corpus:
            form, sets, b = pair.form(), pair.set_tuple(), pair.periodic()
            period = form.v * b.modulus
            span = 3 * period
            radius = 4 * span + 64
            members = [x for x in range(-radius, radius + 1) if b.member(x)]
            for n in range(-span, span + 1):
                assert augmented_repfn_finite(form, sets, members, n) == pair.t, (pair.name, n)

    @given(st.integers(min_value=-3, max_value=3), st.integers(min_value=-3, max_value=3))
    def test_translation_keeps_verdict_when_v_is_one(self, c0, c1):
        # v = 1: shifting each A_i by c_i is compensated by shifting B down
        # by u_0*c_0 + u_1*c_1.
        form = AugmentedForm(LinearForm((1, 2)), 1)
        sets = SetTuple(((0, 1), (0, 1)))
        b = PeriodicSet(4, (0,))
        assert check_t_complementing(form, image_repfn(form.base, sets), b, 1).verdict is True
        moved_sets = SetTuple(
            (
                tuple(x + c0 for x in sets.sets[0]),
                tuple(x + c1 for x in sets.sets[1]),
            )
        )
        moved_b = shifted(b, -(1 * c0 + 2 * c1))
        moved_image = image_repfn(form.base, moved_sets)
        assert check_t_complementing(form, moved_image, moved_b, 1).verdict is True

    def test_zero_target_reports_nearest_hit_class_without_scanning(self):
        # P = 2^40 with one class hit, half a period from zero: a scan of n
        # outward from zero would walk 2^39 values before reaching it.
        form = AugmentedForm(LinearForm((1,)), 1)
        b = PeriodicSet(2**40, (2**39,))
        cert = check_t_complementing(form, image_repfn(form.base, SetTuple(((0,),))), b, 0)
        assert cert.verdict is False
        assert cert.first_violation == (549755813888, 1, 0)

    @pytest.mark.parametrize("t", [0, 1])
    def test_gap_zero_stabilize_does_not_walk_v_residues(self, t):
        # gap 0 leaves B = Z as the only infinite candidate; with v = 2^40 the
        # image {0, 1} hits 2 of the 2^40 classes, so the check fails at once.
        result = stabilize(AugmentedForm(LinearForm((1,)), 2**40), SetTuple(((0, 1),)), t, 3)
        assert result.found is False
        assert [(a.N, a.status, a.detail) for a in result.attempts] == [
            (0, "degenerate", "constant membership admits no infinite B")
        ]


class TestAgainstDirectCounts:
    @given(periodic_sets(max_modulus=6), st.integers(min_value=-9, max_value=9))
    def test_membership_counting_agreement(self, b, n):
        form = AugmentedForm(LinearForm((1,)), 2)
        sets = SetTuple(((0, 1, 3),))
        radius = 32
        members = [x for x in range(-radius, radius + 1) if b.member(x)]
        assert augmented_repfn(form, sets, b, n) == augmented_repfn_finite(
            form, sets, members, n
        )


@st.composite
def augmented_instances(draw):
    h = draw(st.integers(min_value=1, max_value=2))
    coefficient = st.integers(min_value=-3, max_value=3).filter(bool)
    u = draw(st.lists(coefficient, min_size=h, max_size=h))
    element_sets = st.lists(st.integers(min_value=-4, max_value=4), min_size=1, max_size=3, unique=True)
    sets = draw(st.lists(element_sets, min_size=h, max_size=h))
    v = draw(st.integers(min_value=1, max_value=3))
    return u, v, sets


class TestAgainstPlainScan:
    @given(augmented_instances(), periodic_sets(max_modulus=6), st.integers(min_value=0, max_value=3))
    def test_verdict_and_first_violation(self, instance, b, t):
        # The count has period v*m, so a violation anywhere shows within
        # [-P, P]; the first one in order of |n|, positive first, is the
        # least-magnitude violation.
        u, v, sets = instance
        image = image_repfn(LinearForm(u), SetTuple(sets))
        cert = check_t_complementing(AugmentedForm(LinearForm(u), v), image, b, t)
        period = v * b.modulus
        expected = None
        for n in sorted(range(-period, period + 1), key=lambda n: (abs(n), n < 0)):
            observed = oracle_augmented_count(u, v, sets, lambda y: y % b.modulus in b.residues, n)
            if observed != t:
                expected = (n, observed, t)
                break
        assert cert.verdict is (expected is None)
        assert cert.period_checked == period
        assert cert.first_violation == expected


class TestTheorems:
    """Facts proved about tilings: a route that shares no code with the kernels or the oracles."""

    def test_dilation_and_translation_keep_the_complement(self, corpus):
        # Tijdeman, "Decomposition of the integers as a direct sum of two
        # subsets" (1995): if A + B = Z directly and gcd(k, |A|) = 1, then
        # kA + B = Z directly; and every translate A + c keeps B as well.
        kept = refuted = 0
        for pair in corpus:
            if (len(pair.u), pair.v, pair.t) != (1, 1, 1):
                continue
            (elements,) = pair.sets
            form, complement = pair.form(), pair.periodic()
            for k in (2, 3, 5, 7, -1, -3):
                for c in (0, 5, -4):
                    image = image_repfn(form.base, SetTuple((tuple(k * a + c for a in elements),)))
                    verdict = check_t_complementing(form, image, complement, 1).verdict
                    if math.gcd(k, len(elements)) == 1:
                        assert verdict, (pair.name, k, c)
                        kept += 1
                    else:
                        refuted += not verdict
        assert kept == 144 and refuted > 0
