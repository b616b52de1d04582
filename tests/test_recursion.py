"""Window recursion: stepping identities, bidirectional extension, period detection."""

from __future__ import annotations

import random
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from linform import (
    AugmentedForm,
    DegenerateGapError,
    GapTooLargeError,
    InconsistentWindowError,
    LinearForm,
    LinformError,
    SetTuple,
    Window,
    build_context,
    check_t_complementing,
    detect_period,
    extend,
    image_repfn,
    recursion,
)

from corpus import CORPUS
from oracles import oracle_extend, oracle_member_sequence


def ctx_for(u, v, sets, t=1):
    return build_context(AugmentedForm(LinearForm(u), v), SetTuple(sets), t)


class TestWindow:
    def test_end_and_bit(self):
        w = Window(-2, (1, 0, 1))
        assert w.end == 0
        assert w.bit(-2) == 1
        assert w.bit(-1) == 0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Window(0, ())

    def test_rejects_non_bits(self):
        with pytest.raises(ValueError):
            Window(0, (2,))

    def test_rejects_unhashable_values(self):
        with pytest.raises(ValueError, match="0 or 1"):
            Window(0, (1, [1]))

    def test_bit_out_of_range(self):
        with pytest.raises(ValueError, match="outside window"):
            Window(0, (1,)).bit(5)


class TestBuildContext:
    def test_binary_set(self):
        ctx = ctx_for((1,), 1, ((0, 1),))
        assert ctx.gap == 1
        assert ctx.image.count_min == 1
        assert ctx.forward_offsets == ((1, 1),)
        assert ctx.backward_offsets == ((1, 1),)

    def test_only_divisible_offsets_kept(self):
        # Image values 0,1,2,3 against v=2: only value 2 gives an integer
        # forward offset; values 1,3 sit between the recursion's samples.
        ctx = ctx_for((1,), 2, ((0, 1, 2, 3),))
        assert ctx.gap == 1
        assert ctx.forward_offsets == ((1, 1),)
        assert ctx.backward_offsets == ((1, 1),)

    def test_singleton_degenerates(self):
        ctx = ctx_for((1,), 1, ((5,),))
        assert ctx.gap == 0
        assert ctx.forward_offsets == ()
        assert ctx.backward_offsets == ()

    def test_multiplicities_counted(self):
        # x1 + x2 over {0,1}^2: value 1 is hit twice, so the offset multiset
        # carries multiplicity 2.
        ctx = ctx_for((1, 1), 1, ((0, 1), (0, 1)))
        assert ctx.gap == 2
        assert ctx.forward_offsets == ((1, 2), (2, 1))
        assert ctx.image.count_min == 1

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="normalized"):
            build_context(AugmentedForm(LinearForm((1,)), -1), SetTuple(((0, 1),)), 1)

    def test_rejects_negative_t(self):
        with pytest.raises(ValueError):
            ctx_for((1,), 1, ((0, 1),), t=-1)


class TestForwardStep:
    def test_alternation_from_one(self):
        ctx = ctx_for((1,), 1, ((0, 1),))
        assert extend(ctx, Window(0, (1,)), 0, 1).bits[-1] == 0

    def test_alternation_from_zero(self):
        ctx = ctx_for((1,), 1, ((0, 1),))
        assert extend(ctx, Window(0, (0,)), 0, 1).bits[-1] == 1

    def test_inconsistent_when_rhs_negative(self):
        ctx = ctx_for((1,), 1, ((0, 1, 2),))
        with pytest.raises(InconsistentWindowError) as err:
            extend(ctx, Window(0, (1, 1)), 0, 2).bits[-1]
        assert err.value.index == 2

    def test_rejects_degenerate_gap(self):
        ctx = ctx_for((1,), 1, ((5,),))
        with pytest.raises(DegenerateGapError):
            extend(ctx, Window(0, (1,)), 0, 1).bits[-1]

    def test_rejects_short_window(self):
        ctx = ctx_for((1,), 1, ((0, 1, 2),))
        with pytest.raises(ValueError, match="recursion needs 2"):
            extend(ctx, Window(0, (1,)), 0, 1).bits[-1]


class TestBackwardStep:
    def test_mirror_from_zero(self):
        ctx = ctx_for((1,), 1, ((0, 1),))
        assert extend(ctx, Window(1, (0,)), 0, 1).bits[0] == 1

    def test_mirror_from_one(self):
        ctx = ctx_for((1,), 1, ((0, 1),))
        assert extend(ctx, Window(1, (1,)), 0, 1).bits[0] == 0

    def test_inconsistent_when_rhs_exceeds_count(self):
        ctx = ctx_for((1,), 1, ((0, 1, 2),), t=3)
        with pytest.raises(InconsistentWindowError) as err:
            extend(ctx, Window(0, (0, 0)), -1, 1).bits[0]
        assert err.value.index == -1


class TestExtend:
    def test_alternation_both_directions(self):
        ctx = ctx_for((1,), 1, ((0, 1),))
        got = extend(ctx, Window(0, (1,)), -3, 3)
        assert got.start == -3
        assert got.bits == (0, 1, 0, 1, 0, 1, 0)

    def test_forward_only(self):
        ctx = ctx_for((1,), 1, ((0, 1),))
        got = extend(ctx, Window(0, (0,)), 0, 4)
        assert got.bits == (0, 1, 0, 1, 0)

    def test_degenerate_gap_rejected(self):
        ctx = ctx_for((1,), 1, ((5,),))
        with pytest.raises(DegenerateGapError):
            extend(ctx, Window(0, (1,)), -1, 1)

    def test_range_must_contain_seed(self):
        ctx = ctx_for((1,), 1, ((0, 1),))
        with pytest.raises(ValueError, match="must contain the seed"):
            extend(ctx, Window(0, (1,)), 1, 4)

    def test_seed_must_cover_gap(self):
        ctx = ctx_for((1, 1), 1, ((0, 1), (0, 1)))
        with pytest.raises(ValueError, match="recursion needs 2"):
            extend(ctx, Window(0, (1,)), 0, 4)

    def test_inconsistent_index_reported(self):
        # chi(n) = 1 - chi(n-1) - chi(n-2) from seed (1, 1) fails right away.
        ctx = ctx_for((1,), 1, ((0, 1, 2),))
        with pytest.raises(InconsistentWindowError) as err:
            extend(ctx, Window(0, (1, 1)), 0, 5)
        assert err.value.index == 2

    def test_corpus_round_trip(self, corpus):
        # Seeding with the true membership window must reproduce the true
        # set exactly on [-10 v m, 10 v m].
        for pair in corpus:
            ctx = build_context(pair.form(), pair.set_tuple(), pair.t)
            radius = 10 * pair.v * pair.modulus
            seed = pair.true_window(0, max(ctx.gap, 1))
            got = extend(ctx, seed, -radius, radius)
            b = pair.periodic()
            for n in range(-radius, radius + 1):
                assert got.bit(n) == (1 if b.member(n) else 0), (pair.name, n)

    def test_forward_then_backward_returns_same_bits(self, corpus):
        # Extending k steps ahead and then k steps back over the same range
        # must agree with the original window bit for bit.
        for pair in corpus:
            ctx = build_context(pair.form(), pair.set_tuple(), pair.t)
            seed = pair.true_window(0, max(ctx.gap, 1) + 3)
            ahead = extend(ctx, seed, seed.start, seed.end + 5)
            tail = Window(ahead.end - ctx.gap + 1, ahead.bits[-ctx.gap :])
            recovered = extend(ctx, tail, seed.start, ahead.end)
            assert recovered.bits == ahead.bits, pair.name

    def test_range_budget_refused_before_allocating(self):
        ctx = ctx_for((1,), 1, ((0, 1),))
        tracemalloc.start()
        try:
            with pytest.raises(LinformError, match=f"above the limit of {recursion.MAX_EXTEND_BITS}"):
                extend(ctx, Window(0, (1,)), -1, 10**12)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    def test_range_budget_counts_bits(self, monkeypatch):
        monkeypatch.setattr(recursion, "MAX_EXTEND_BITS", 10)
        ctx = ctx_for((1,), 1, ((0, 1),))
        assert len(extend(ctx, Window(0, (1,)), -4, 5).bits) == 10
        with pytest.raises(LinformError, match="holds 11 bits"):
            extend(ctx, Window(0, (1,)), -5, 5)


def outcome(u, v, sets, t, start, bits, lo, hi):
    """extend's answer in oracle_extend's shape."""
    try:
        return "bits", extend(ctx_for(u, v, sets, t), Window(start, bits), lo, hi).bits
    except InconsistentWindowError as exc:
        return "inconsistent", exc.index


class TestExtendAgainstOracle:
    """extend, which tiles once the gap-bit state repeats, against stepping every bit."""

    def test_seeded_random_instances(self):
        rng = random.Random(20260)
        seen = {"inconsistent": 0, "bits": 0, "v > 1": 0, "long": 0}
        for _ in range(1500):
            h = rng.randint(1, 2)
            u = tuple(rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(h))
            v = rng.randint(1, 3)
            sets = tuple(tuple(sorted(rng.sample(range(-6, 7), rng.randint(1, 4)))) for _ in range(h))
            t = rng.randint(0, 3)
            gap = ctx_for(u, v, sets, t).gap
            if not 1 <= gap <= 12:
                continue
            length = gap + rng.randint(0, 4)
            # half the seeds repeat a short block, so that many extend far
            period = rng.randint(1, 6)
            block = [rng.randint(0, 1) for _ in range(period if rng.random() < 0.5 else length)]
            bits = tuple(block[i % len(block)] for i in range(length))
            start = rng.randint(-20, 20)
            lo = start - rng.choice((0, 1, 70, 300, 2000))
            hi = start + length - 1 + rng.choice((0, 1, 70, 300, 2000))
            expected = oracle_extend(u, v, sets, t, start, bits, lo, hi)
            assert outcome(u, v, sets, t, start, bits, lo, hi) == expected, (u, v, sets, t, bits)
            seen[expected[0]] += 1
            if expected[0] == "bits":
                seen["v > 1"] += v > 1
                seen["long"] += hi - lo > 1000
        assert seen["inconsistent"] >= 300 and seen["bits"] >= 200
        assert seen["v > 1"] >= 100 and seen["long"] >= 50

    def test_orbit_only_eventually_periodic(self):
        # v = 2 and A = {0, 2, 11}: bit(n) = 1 - bit(n - 1) forward, so the
        # oldest seed bits are never read again and the seed state is off
        # the cycle that the bits settle into.
        u, v, sets, seed = (1,), 2, ((0, 2, 11),), (0, 0, 0, 0, 0)
        expected = oracle_extend(u, v, sets, 1, 0, seed, -500, 3000)
        assert outcome(u, v, sets, 1, 0, seed, -500, 3000) == expected
        forward = bytes(expected[1][500:])
        assert forward.find(bytes(seed), 1) == -1

    def test_range_far_longer_than_the_period(self, corpus):
        for pair in corpus:
            seed = pair.true_window(3, max(build_context(pair.form(), pair.set_tuple(), pair.t).gap, 1))
            args = (pair.u, pair.v, pair.sets, pair.t, seed.start, seed.bits, -5000, 5000)
            assert outcome(*args) == oracle_extend(*args), pair.name

    def test_gap_too_large_for_a_repeat_in_range(self):
        # A = {0, 100} is complemented by 100 ones then 100 zeros, period
        # 200: no gap-bit state repeats within 150 bits of the seed.
        seed = (1,) * 100
        args = ((1,), 1, ((0, 100),), 1, 0, seed, -150, 249)
        expected = oracle_extend(*args)
        assert list(expected[1]) == oracle_member_sequence(200, range(100), -150, 249)
        assert outcome(*args) == expected

    def test_million_bits_of_a_classic_complement(self):
        # {0, 1, 4, 5} is complemented by the residues {0, 2} mod 8
        ctx = ctx_for((1,), 1, ((0, 1, 4, 5),))
        seed = Window(0, tuple(oracle_member_sequence(8, (0, 2), 0, ctx.gap - 1)))
        got = extend(ctx, seed, -(10**6), 10**6)
        assert list(got.bits) == oracle_member_sequence(8, (0, 2), -(10**6), 10**6)


class TestDetectPeriod:
    def test_alternation(self):
        ctx = ctx_for((1,), 1, ((0, 1),))
        pset = detect_period(ctx, Window(0, (1,)))
        assert pset.modulus == 2
        assert 1 << ctx.gap == 2
        assert pset.residues == (0,)

    def test_three_term_relation(self):
        ctx = ctx_for((1,), 1, ((0, 1, 2),))
        pset = detect_period(ctx, Window(0, (1, 0)))
        assert pset.modulus == 3
        assert 1 << ctx.gap == 4
        assert pset == type(pset)(3, (0,))

    def test_two_apart_seed_both_ones(self):
        # chi(n) = 1 - chi(n-2) from seed (1,1) produces 1,1,0,0,1,1,...
        # which is the mod-4 pair {0,1}; that set really does complement.
        ctx = ctx_for((1,), 1, ((0, 2),))
        pset = detect_period(ctx, Window(0, (1, 1)))
        assert pset.modulus == 4
        assert 1 << ctx.gap == 4
        assert pset.residues == (0, 1)
        image = image_repfn(LinearForm((1,)), SetTuple(((0, 2),)))
        cert = check_t_complementing(AugmentedForm(LinearForm((1,)), 1), image, pset, 1)
        assert cert.verdict is True

    def test_detection_alone_is_not_sufficient(self):
        # v=2 with A={0,2}: the recursion pins only even targets, so it
        # happily returns the evens, but odd targets have no representation.
        form = AugmentedForm(LinearForm((1,)), 2)
        sets = SetTuple(((0, 2),))
        ctx = build_context(form, sets, 1)
        pset = detect_period(ctx, Window(0, (1,)))
        assert pset.modulus == 2
        assert pset.residues == (0,)
        cert = check_t_complementing(form, image_repfn(form.base, sets), pset, 1)
        assert cert.verdict is False
        assert cert.first_violation.n == 1

    def test_purity_check_rejects_eventually_periodic(self):
        # Forward extension from either seed settles into a cycle, but the
        # backward identity cannot reproduce the seed: membership would be
        # eventually periodic only, which no complement allows.
        ctx = ctx_for((1,), 2, ((0, 1, 2, 5),))
        assert ctx.gap == 2
        for seed_bits in ((1, 0), (0, 1)):
            with pytest.raises(InconsistentWindowError) as err:
                detect_period(ctx, Window(0, seed_bits))
            assert err.value.index == -2

    def test_degenerate_gap_rejected(self):
        ctx = ctx_for((1,), 1, ((5,),))
        with pytest.raises(DegenerateGapError):
            detect_period(ctx, Window(0, (1,)))

    def test_gap_over_limit_rejected(self):
        ctx = ctx_for((1,), 1, ((0, 2**25),))
        with pytest.raises(GapTooLargeError, match="exceeds the configured limit 24"):
            detect_period(ctx, Window(0, (1,) * (2**25)))

    def test_gap_limit_is_configurable(self):
        ctx = ctx_for((1,), 1, ((0, 1, 2),))
        with pytest.raises(GapTooLargeError):
            detect_period(ctx, Window(0, (1, 0)), max_gap=1)

    def test_corpus_periods_within_bound(self, corpus):
        for pair in corpus:
            ctx = build_context(pair.form(), pair.set_tuple(), pair.t)
            seed = pair.true_window(0, max(ctx.gap, 1))
            pset = detect_period(ctx, seed)
            assert 1 <= pset.modulus <= 2**ctx.gap, pair.name
            b = pair.periodic().normalize()
            assert pset == b, pair.name

    def test_failed_step_reported_at_its_index(self):
        # chi(n) = 1 - chi(n-1) - chi(n-2) has no bit after the seed (1, 1)
        ctx = ctx_for((1,), 1, ((0, 1, 2),))
        with pytest.raises(InconsistentWindowError) as err:
            detect_period(ctx, Window(5, (1, 1)))
        assert err.value.index == 7

    def test_failed_step_past_the_repeat_is_not_reported(self):
        # Stepping ahead meets a dead end at 7, but the states repeat before
        # the scan needs that bit; the purity check then fails at -1.
        ctx = ctx_for((1,), 1, ((0, 1, 3),), t=2)
        with pytest.raises(InconsistentWindowError) as err:
            detect_period(ctx, Window(0, (1, 0, 0, 1, 0, 1)))
        assert err.value.index == -1

    def test_bits_past_the_repeat_are_not_checked(self):
        # The repeat is with the state before the seed bit 0 at index 1;
        # the bit stepped from the repeated state (1 at index 3) differs
        # from it, but lies past the repeat, where no check reaches.
        ctx = ctx_for((1,), 2, ((1, 2, 4),))
        pset = detect_period(ctx, Window(0, (1, 0)))
        assert pset.modulus == 2
        assert pset.residues == (0,)

    @given(st.integers(min_value=-8, max_value=8))
    def test_seed_position_does_not_change_the_set(self, start):
        pair = CORPUS[4]  # x+y over {0,2}, complement {0,1} mod 4
        ctx = build_context(pair.form(), pair.set_tuple(), pair.t)
        seed = pair.true_window(start, ctx.gap)
        pset = detect_period(ctx, seed)
        assert pset == pair.periodic().normalize()
