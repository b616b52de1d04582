"""Finite-window inverse search, recentering, and the stabilization driver."""

from __future__ import annotations

import json
import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import linform.solver
from linform import (
    AugmentedForm,
    InconsistentWindowError,
    IntegerOverflowError,
    LinearForm,
    LinformError,
    PeriodicSet,
    SetTuple,
    SolveResult,
    SolveStatus,
    TargetFunction,
    Window,
    augmented_repfn_finite,
    build_context,
    candidate_bound,
    check_t_complementing,
    detect_period,
    image_repfn,
    recenter,
    solve_window,
    stabilize,
)

from linform.cli import main
from linform.solver import MAX_CANDIDATE_SPAN, MAX_PACKED_BITS, MAX_RADIUS, _decide

from corpus import CORPUS
from oracles import oracle_window_dfs, oracle_window_satisfiable


ONE = TargetFunction.constant(1)


def window_problem(u, v, sets, N, target):
    return candidate_bound(AugmentedForm(LinearForm(u), v), SetTuple(sets), N, target)


class TestTargetFunction:
    def test_constant(self):
        f = TargetFunction.constant(2)
        assert f.at(0) == 2
        assert f.at(-7) == 2

    def test_overrides_win(self):
        f = TargetFunction(default=1, overrides={0: 3})
        assert f.at(0) == 3
        assert f.at(1) == 1

    def test_none_default_means_unconstrained(self):
        f = TargetFunction(default=None, overrides={0: 1})
        assert f.at(5) is None

    def test_rejects_negative_values(self):
        with pytest.raises(ValueError):
            TargetFunction.constant(-1)
        with pytest.raises(ValueError):
            TargetFunction(default=0, overrides={2: -1})


class TestCandidateBound:
    def test_unit_v(self):
        p = candidate_bound(AugmentedForm(LinearForm((1,)), 1), SetTuple(((0, 1),)), 5, ONE)
        assert p.g_star == 1
        assert (p.candidate_lo, p.candidate_hi) == (-6, 6)

    def test_v_two_rounds_inward(self):
        p = candidate_bound(AugmentedForm(LinearForm((1,)), 2), SetTuple(((0, 1),)), 3, ONE)
        assert p.g_star == 1
        assert (p.candidate_lo, p.candidate_hi) == (-2, 2)

    def test_degenerate_point(self):
        p = candidate_bound(AugmentedForm(LinearForm((1,)), 1), SetTuple(((0,),)), 0, ONE)
        assert p.g_star == 0
        assert (p.candidate_lo, p.candidate_hi) == (0, 0)

    def test_g_star_covers_both_extremes(self):
        p = candidate_bound(AugmentedForm(LinearForm((2, -3)), 1), SetTuple(((0, 1), (0, 1))), 0, ONE)
        assert p.g_star == 3

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="normalized"):
            candidate_bound(AugmentedForm(LinearForm((1,)), -1), SetTuple(((0,),)), 1, ONE)

    def test_rejects_negative_radius(self):
        with pytest.raises(ValueError):
            candidate_bound(AugmentedForm(LinearForm((1,)), 1), SetTuple(((0,),)), -1, ONE)


class TestSolveWindow:
    def test_canonical_witness(self):
        result = solve_window(window_problem((1,), 1, ((0, 1),), 2, TargetFunction.constant(1)))
        assert result.status is SolveStatus.SOLVED
        assert result.witness == (-3, -1, 1)
        assert result.nodes_explored == 9

    def test_unsat_when_target_exceeds_product(self):
        result = solve_window(window_problem((1,), 1, ((0, 1),), 0, TargetFunction.constant(3)))
        assert result.status is SolveStatus.UNSAT
        assert result.witness is None

    def test_gap_set_small_window(self):
        result = solve_window(window_problem((1,), 1, ((0, 2),), 1, TargetFunction.constant(1)))
        assert result.status is SolveStatus.SOLVED
        assert result.witness == (-3, -2, 1)
        form, sets = AugmentedForm(LinearForm((1,)), 1), SetTuple(((0, 2),))
        for n in range(-1, 2):
            assert augmented_repfn_finite(form, sets, result.witness, n) == 1

    def test_resource_limit(self):
        result = solve_window(
            window_problem((1,), 1, ((0, 1),), 2, TargetFunction.constant(1)), max_nodes=1
        )
        assert result.status is SolveStatus.RESOURCE_LIMIT
        assert result.witness is None
        assert result.nodes_explored >= 1

    def test_shifted_value_overflow_is_rejected(self):
        # v*b and the image fit signed 64-bit, but 2**62 - 1 + v at b = 1 does not
        problem = window_problem((1,), 2**62 + 1, ((-(2**62), 2**62 - 1),), 1, TargetFunction.constant(1))
        with pytest.raises(IntegerOverflowError, match=r"^4611686018427387903 \+ 4611686018427387905 "):
            solve_window(problem)

    @pytest.mark.parametrize(
        "v,sets,N,limit",
        [
            # the radius sizes the count lists: 2N + 1 entries each
            (2**63 - 1, ((0, 1),), 2**62, f"radius N = {2**62} exceeds the limit {MAX_RADIUS}"),
            (1, ((0, 1),), MAX_RADIUS + 1, f"exceeds the limit {MAX_RADIUS}"),
            # the candidate list: one entry per b between the two ends
            (1, ((-(2**61), 2**61),), 1, f"span {2**62 + 2} exceeds the limit {MAX_CANDIDATE_SPAN}"),
            # the packed counts: 40,001 candidates with bands of 20,001 digits
            (1, ((0, 20_000),), 10_000, f"bits exceed the limit {MAX_PACKED_BITS}"),
        ],
    )
    def test_budget_refused_before_allocating(self, v, sets, N, limit):
        problem = window_problem((1,), v, sets, N, TargetFunction.constant(1))
        tracemalloc.start()
        try:
            with pytest.raises(LinformError, match=limit):
                solve_window(problem)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    def test_tree_is_pinned(self):
        # the unsat proof of the largest search in the benchmark pool: the
        # canonical order alone took 144,336 nodes, the decider ends it
        result = solve_window(window_problem((1,), 1, ((0, 1, 2, 4, 16),), 20, TargetFunction.constant(1)))
        assert result.status is SolveStatus.UNSAT
        assert result.nodes_explored == 7_763

    def test_long_window_stays_small(self):
        # one band of two digits per candidate: the list-based search, with a
        # list of (position, multiplicity) pairs per candidate, peaked at
        # 26.4 MiB on this call
        problem = window_problem((1,), 1, ((0, 1),), 20_000, TargetFunction.constant(1))
        tracemalloc.start()
        try:
            result = solve_window(problem)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.status is SolveStatus.SOLVED
        assert (len(result.witness), result.nodes_explored) == (20_001, 60_003)
        assert peak < 26.4 * 2**20

    @pytest.mark.parametrize("reach,nodes", [(10, 25), (100, 205)])
    def test_idle_candidates_branch_once(self, reach, nodes, tmp_path, capsys):
        # Only b = +-(reach - 1..reach + 1) touch [-1, 1]; branching on the
        # idle ones between them doubled the tree per candidate.
        result = solve_window(window_problem((1,), 1, ((-reach, reach),), 1, TargetFunction.constant(3)))
        assert (result.status, result.nodes_explored) == (SolveStatus.UNSAT, nodes)
        path = tmp_path / "idle.json"
        path.write_text(json.dumps({"u": [1], "v": 1, "A": [[-reach, reach]]}))
        assert main(["solve", "--input", str(path), "-t", "3", "-N", "1", "--max-nodes", "1000"]) == 1
        assert f"unsatisfiable at N = 1 ({nodes} nodes)" in capsys.readouterr().err

    def test_no_reachable_candidates_unsat(self):
        # v=2 with psi(A)={1}: every representation is odd, so requiring one
        # representation of 0 is hopeless before any branching happens.
        result = solve_window(window_problem((1,), 2, ((1,),), 0, TargetFunction.constant(1)))
        assert result.status is SolveStatus.UNSAT
        assert result.nodes_explored == 0

    def test_no_reachable_candidates_solved_empty(self):
        result = solve_window(window_problem((1,), 2, ((1,),), 0, TargetFunction.constant(0)))
        assert result.status is SolveStatus.SOLVED
        assert result.witness == ()

    def test_unconstrained_positions_skipped(self):
        f = TargetFunction(default=None, overrides={0: 2})
        result = solve_window(window_problem((1,), 1, ((0, 1),), 1, f))
        assert result.status is SolveStatus.SOLVED
        form, sets = AugmentedForm(LinearForm((1,)), 1), SetTuple(((0, 1),))
        assert augmented_repfn_finite(form, sets, result.witness, 0) == 2

    def test_override_forces_zero(self):
        f = TargetFunction(default=1, overrides={0: 0})
        result = solve_window(window_problem((1,), 1, ((0, 1),), 1, f))
        assert result.status is SolveStatus.SOLVED
        form, sets = AugmentedForm(LinearForm((1,)), 1), SetTuple(((0, 1),))
        assert augmented_repfn_finite(form, sets, result.witness, 0) == 0
        assert augmented_repfn_finite(form, sets, result.witness, 1) == 1
        assert augmented_repfn_finite(form, sets, result.witness, -1) == 1

    def test_corpus_windows_solve(self, corpus):
        for pair in corpus:
            problem = candidate_bound(pair.form(), pair.set_tuple(), 3, TargetFunction.constant(pair.t))
            result = solve_window(problem)
            assert result.status is SolveStatus.SOLVED, pair.name
            for n in range(-3, 4):
                got = augmented_repfn_finite(pair.form(), pair.set_tuple(), result.witness, n)
                assert got == pair.t, (pair.name, n)

    solver_instances = st.tuples(
        st.integers(min_value=1, max_value=3),
        st.lists(st.integers(min_value=-3, max_value=4), min_size=1, max_size=3, unique=True),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=2),
    )

    @given(solver_instances)
    @settings(max_examples=60, deadline=None)
    def test_verdict_matches_exhaustive_enumeration(self, instance):
        v, elements, radius, t = instance
        problem = window_problem((1,), v, (tuple(elements),), radius, TargetFunction.constant(t))
        result = solve_window(problem)
        truth = oracle_window_satisfiable(
            (1,),
            v,
            (tuple(elements),),
            lambda n: t,
            radius,
            problem.candidate_lo,
            problem.candidate_hi,
        )
        assert (result.status is SolveStatus.SOLVED) == truth

    def test_monotone_difficulty(self, corpus):
        # Growing the window only adds constraints: once an instance goes
        # unsat it must stay unsat for every larger radius.
        instances = [((1,), 1, ((0, 1),), 3), ((1,), 1, ((0, 2),), 1), ((1,), 2, ((0, 2),), 1)]
        for u, v, sets, t in instances:
            statuses = []
            for radius in range(0, 4):
                problem = window_problem(u, v, sets, radius, TargetFunction.constant(t))
                statuses.append(solve_window(problem).status)
            seen_unsat = False
            for status in statuses:
                if status is SolveStatus.UNSAT:
                    seen_unsat = True
                else:
                    assert not seen_unsat, statuses


class TestFloorPrune:
    """Floors against the same search without them: one answer, never a larger tree."""

    BUDGET = 20_000

    @staticmethod
    def random_instance(rng):
        h = rng.randint(1, 2)
        u = tuple(rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(h))
        if h == 2 and rng.random() < 0.3:
            u = (u[0], u[0])  # equal coefficients: values with multiplicity above 1
        sets = tuple(tuple(rng.sample(range(-4, 5), rng.randint(1, 3))) for _ in range(h))
        if rng.random() < 0.15:
            sets = ((-40, 40),) + sets[1:]  # sparse and wide: most candidates touch nothing
        v, radius = rng.randint(1, 3), rng.randint(0, 8)
        if rng.random() < 0.4:
            return u, v, sets, radius, TargetFunction.constant(rng.randint(0, 3))
        overrides = {rng.randint(-radius, radius): rng.randint(0, 3) for _ in range(rng.randint(1, 3))}
        return u, v, sets, radius, TargetFunction(rng.choice((None, None, 0, 1, 2)), overrides)

    def test_matches_search_without_floors(self):
        rng = random.Random(8)
        smaller = 0
        for _ in range(2000):
            instance = u, v, sets, radius, target = self.random_instance(rng)
            result = solve_window(window_problem(u, v, sets, radius, target), max_nodes=self.BUDGET)
            status, witness, nodes = oracle_window_dfs(u, v, sets, target.at, radius, self.BUDGET)
            assert result.nodes_explored <= nodes, instance
            if status != "resource_limit":  # floors may decide what the budget cut short
                assert (result.status.value, result.witness) == (status, witness), instance
            smaller += result.nodes_explored < nodes
        assert smaller >= 300


class TestDecide:
    """The fail-first decider that the canonical search asks once it stalls."""

    @staticmethod
    def random_instance(rng):
        h = rng.randint(1, 2)
        u = tuple(rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(h))
        if h == 2 and rng.random() < 0.5:
            u = (u[0], u[0])  # equal coefficients: values with multiplicity above 1
        sets = tuple(tuple(rng.sample(range(-4, 5), rng.randint(1, 3))) for _ in range(h))
        v, radius = rng.randint(1, 3), rng.randint(0, 8)
        needs = (0, 1, 2, 3, math.prod(map(len, sets)) + 1)  # the last one above the mass
        if rng.random() < 0.4:
            return u, v, sets, radius, TargetFunction.constant(rng.choice(needs))
        overrides = {rng.randint(-radius, radius): rng.choice(needs) for _ in range(rng.randint(1, 3))}
        return u, v, sets, radius, TargetFunction(rng.choice((None, None, *needs)), overrides)

    def test_matches_the_oracle(self):
        rng = random.Random(19)
        verdicts = {True: 0, False: 0}
        for _ in range(600):
            instance = u, v, sets, radius, target = self.random_instance(rng)
            status, _, _ = oracle_window_dfs(u, v, sets, target.at, radius, 5_000)
            if status == "resource_limit":
                continue
            solvable, _ = _decide(window_problem(u, v, sets, radius, target), 10**6)
            assert solvable is (status == "solved"), instance
            verdicts[solvable] += 1
        assert min(verdicts.values()) >= 150

    # the nine largest solve windows of the benchmark pool at N = 20, as the
    # pool writes them; the canonical order refutes them in 1,538,152 nodes
    # over both orientations
    POOL = [
        ((0, 1, 2, 4, 16), 1),
        ((0, 5, 15), 1),
        ((0, 9, 16), 2),
        ((0, 2, 6, 12, 15), 2),
        ((0, 5, 7, 15), 2),
        ((0, 3, 6, 13, 15), 2),
        ((0, 12, 16), 1),
        ((0, 8, 15), 1),
        ((0, 4, 13), 1),
    ]

    def test_pool_refutations_are_pinned(self):
        nodes = 0
        for elements, t in self.POOL:
            for u in (1,), (-1,):
                solvable, spent = _decide(window_problem(u, 1, (elements,), 20, TargetFunction.constant(t)), 10**6)
                assert solvable is False, (u, elements)
                nodes += spent
        assert nodes == 7_252

    def test_budget_runs_out(self):
        problem = window_problem((1,), 1, ((0, 1, 2, 4, 16),), 20, ONE)
        assert _decide(problem, 10) == (None, 10)
        assert _decide(problem, 10**6) == (False, 467)

    # stabilize -N 12 as recorded from the canonical search alone, before the
    # decider: per orientation, the inconsistent index of each radius from 1,
    # then the last status
    ATTEMPTS = {
        ((0, 2, 6, 12, 15), 2, 1): ([9, 8, 8, 14, 14, 9, 8, 14, 13, 12, 12], "unsat"),
        ((0, 2, 6, 12, 15), 2, -1): ([12, 11, 10, 11, 27, 26, 25, 24, 25, 27, 27], "unsat"),
        ((0, 1, 2, 4, 16), 1, 1): ([15, 14, 13, 12, 12, 10, 9, 9, 10, 14, 13, 13], None),
        ((0, 1, 2, 4, 16), 1, -1): ([14, 13, 12, 11, 10, 9, 8, 34, 33, 32, 31, 30], None),
    }

    @pytest.mark.parametrize("elements,t,sign", list(ATTEMPTS))
    def test_stabilize_attempts_are_unchanged(self, searches, elements, t, sign):
        indices, end = self.ATTEMPTS[elements, t, sign]
        expected = [
            (N, "inconsistent", f"no consistent membership bit at index {k}") for N, k in enumerate(indices, 1)
        ]
        if end == "unsat":
            expected.append((12, "unsat", "no finite witness; larger N cannot help"))
        result = stabilize(AugmentedForm(LinearForm((sign,)), 1), SetTuple((elements,)), t, 12)
        assert [(a.N, a.status, a.detail) for a in result.attempts] == expected
        # every radius's witness is the first one of the search without floors
        for N, status, witness, _ in searches:
            assert oracle_window_dfs((sign,), 1, (elements,), lambda n: t, N, 10**6)[:2] == (status.value, witness)

    @pytest.mark.parametrize(
        "elements,t,N,answer,canonical",
        [
            # the decider finds a solution
            ((0, 2, 6, 12, 15), 2, 8, (True, 42), 5_766),
            # the decider runs out of the 5,248 nodes the search had spent
            ((-1, 0, 1, 7, 15), 3, 12, (None, 5_248), 36_400),
        ],
    )
    def test_witness_after_an_open_answer(self, monkeypatch, elements, t, N, answer, canonical):
        # past the trigger the canonical search goes on from where it stopped
        # to the same first witness, within the same budget as without the
        # decider, whose nodes count in the result
        answers = []

        def recorded(problem, max_nodes):
            answers.append(_decide(problem, max_nodes))
            return answers[-1]

        monkeypatch.setattr(linform.solver, "_decide", recorded)
        problem = window_problem((1,), 1, (elements,), N, TargetFunction.constant(t))
        result = solve_window(problem)
        assert answers == [answer]
        status, witness, _ = oracle_window_dfs((1,), 1, (elements,), lambda n: t, N, 10**6)
        assert status == "solved"
        assert result == SolveResult(SolveStatus.SOLVED, witness, canonical + answer[1])
        assert solve_window(problem, canonical) == result
        assert solve_window(problem, canonical - 1) == SolveResult(SolveStatus.RESOURCE_LIMIT, None, canonical)

    def test_wide_sparse_image_is_not_packed_whole(self):
        # u = (1, M), v = M: each of the 401 candidates lands the image values
        # 0 and 1 in the window, out of an image of diameter 400M + 16; the
        # decider builds its candidates from those alone
        M = 10**9
        sets = ((0, 1, 2, 4, 16), tuple(range(401)))
        problem = window_problem((1, M), M, sets, 1, TargetFunction(None, {0: 1, 1: 2}))
        tracemalloc.start()
        try:
            assert _decide(problem, 1) == (None, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 250_000
        # the canonical search alone takes 161,200 nodes; past the trigger,
        # after 128 * 401, the decider refutes it in 801
        assert solve_window(problem) == SolveResult(SolveStatus.UNSAT, None, 128 * 401 + 801)


class TestRecenter:
    def test_translation(self):
        form = AugmentedForm(LinearForm((1,)), 1)
        assert recenter(form, (10, 12), 11) == (-1, 1)

    def test_identity(self):
        form = AugmentedForm(LinearForm((1,)), 1)
        assert recenter(form, (0,), 0) == (0,)

    def test_rejects_v_not_one(self):
        form = AugmentedForm(LinearForm((1,)), 2)
        with pytest.raises(ValueError, match="v = 1"):
            recenter(form, (0,), 1)

    def test_shift_law(self):
        form = AugmentedForm(LinearForm((1,)), 1)
        sets = SetTuple(((0, 1),))
        b = (4, 6)
        moved = recenter(form, b, 5)
        for n in range(-3, 4):
            assert augmented_repfn_finite(form, sets, moved, n) == augmented_repfn_finite(
                form, sets, b, n + 5
            )

    @given(
        st.lists(st.integers(min_value=-8, max_value=8), min_size=1, max_size=4, unique=True),
        st.integers(min_value=-5, max_value=5),
    )
    def test_shift_law_random(self, members, c):
        form = AugmentedForm(LinearForm((1, 2)), 1)
        sets = SetTuple(((0, 1), (0, 1)))
        moved = recenter(form, tuple(members), c)
        for n in range(-4, 5):
            assert augmented_repfn_finite(form, sets, moved, n) == augmented_repfn_finite(
                form, sets, tuple(members), n + c
            )


class TestStabilize:
    def test_binary_set(self):
        result = stabilize(AugmentedForm(LinearForm((1,)), 1), SetTuple(((0, 1),)), 1, 4)
        assert result.found is True
        assert result.periodic_set == PeriodicSet(2, (0,))
        assert result.attempts[-1].status == "verified"

    def test_three_set(self):
        result = stabilize(AugmentedForm(LinearForm((1,)), 1), SetTuple(((0, 1, 2),)), 1, 6)
        assert result.found is True
        assert result.periodic_set == PeriodicSet(3, (0,))

    def test_gap_set(self):
        result = stabilize(AugmentedForm(LinearForm((1,)), 1), SetTuple(((0, 2),)), 1, 6)
        assert result.found is True
        assert result.periodic_set == PeriodicSet(4, (1, 2))

    def test_found_sets_always_verify(self, corpus):
        for pair in corpus:
            result = stabilize(pair.form(), pair.set_tuple(), pair.t, 6)
            if not result.found:
                continue
            image = image_repfn(pair.form().base, pair.set_tuple())
            cert = check_t_complementing(pair.form(), image, result.periodic_set, pair.t)
            assert cert.verdict is True, pair.name
            assert result.periodic_set.modulus <= result.bound, pair.name

    def test_unsat_stops_immediately(self):
        result = stabilize(AugmentedForm(LinearForm((1,)), 1), SetTuple(((0, 1),)), 3, 5)
        assert result.found is False
        assert [a.status for a in result.attempts] == ["unsat"]
        assert result.attempts[0].N == 1

    def test_all_even_form_is_unsat(self):
        result = stabilize(AugmentedForm(LinearForm((1,)), 2), SetTuple(((0, 2),)), 1, 4)
        assert result.found is False
        assert [a.status for a in result.attempts] == ["unsat"]

    def test_resource_limit_stops(self):
        result = stabilize(
            AugmentedForm(LinearForm((1,)), 1), SetTuple(((0, 1),)), 1, 5, max_nodes=1
        )
        assert result.found is False
        assert result.attempts[-1].status == "resource_limit"

    def test_rejected_candidate_then_verified(self):
        # At N=1 the witness seeds a period-6 candidate that fails the full
        # check; the N=2 witness settles into the true complement (evens:
        # {0,1,3,6} covers every class mod 4 once, and 2b runs over 4Z).
        result = stabilize(AugmentedForm(LinearForm((1,)), 2), SetTuple(((0, 1, 3, 6),)), 1, 4)
        assert [a.status for a in result.attempts] == ["rejected", "verified"]
        assert result.found is True
        assert result.periodic_set == PeriodicSet(2, (0,))

    def test_inconsistent_candidates_recorded(self):
        # Every window witness of this instance seeds an extension that dies
        # in the backward purity check; larger windows then go unsat.
        result = stabilize(AugmentedForm(LinearForm((1,)), 2), SetTuple(((0, 1, 5),)), 1, 4)
        assert result.found is False
        assert [a.status for a in result.attempts] == [
            "inconsistent",
            "inconsistent",
            "unsat",
        ]

    def test_degenerate_gap_all_integers(self, degenerate_pair):
        result = stabilize(
            degenerate_pair.form(), degenerate_pair.set_tuple(), degenerate_pair.t, 3
        )
        assert result.found is True
        assert result.periodic_set == PeriodicSet(1, (0,))
        assert result.attempts[0].status == "degenerate"
        assert result.bound == 1

    def test_degenerate_gap_no_complement(self):
        result = stabilize(AugmentedForm(LinearForm((1,)), 2), SetTuple(((0, 1),)), 2, 3)
        assert result.found is False
        assert result.attempts[0].status == "degenerate"

    def test_rejects_nonpositive_max_n(self):
        with pytest.raises(ValueError):
            stabilize(AugmentedForm(LinearForm((1,)), 1), SetTuple(((0, 1),)), 1, 0)


def reference_stabilize(form, sets, t, max_n, max_nodes):
    """stabilize's loop on public calls, every radius solved from nothing.

    Returns the periodic set found (or None), the (N, status) of each
    attempt, and the (N, status, witness) of each window solve.
    """
    ctx = build_context(form, sets, t)
    attempts, solves = [], []
    for radius in range(1, max_n + 1):
        problem = candidate_bound(form, sets, radius, TargetFunction.constant(t))
        result = solve_window(problem, max_nodes=max_nodes)
        solves.append((radius, result.status, result.witness))
        if result.status is not SolveStatus.SOLVED:
            attempts.append((radius, result.status.value))
            break
        start = -(ctx.gap // 2)
        seed = Window(start, tuple(int(start + i in result.witness) for i in range(ctx.gap)))
        try:
            pset = detect_period(ctx, seed)
        except InconsistentWindowError:
            attempts.append((radius, "inconsistent"))
            continue
        if check_t_complementing(form, ctx.image, pset, t).verdict:
            attempts.append((radius, "verified"))
            return pset, attempts, solves
        attempts.append((radius, "rejected"))
    return None, attempts, solves


@pytest.fixture
def searches(monkeypatch):
    """Record (N, status, witness, nodes) of every private window search."""
    calls = []
    search = linform.solver._search

    def recorded(problem, max_nodes, resume=b""):
        result, path = search(problem, max_nodes, resume)
        calls.append((problem.N, result.status, result.witness, result.nodes_explored))
        return result, path

    monkeypatch.setattr(linform.solver, "_search", recorded)
    return calls


class TestResume:
    """Each stabilize radius N resumes from the witness path of radius N - v."""

    def test_matches_solving_every_radius_afresh(self, searches):
        rng = random.Random(16)
        resumed = 0
        for _ in range(300):
            h = rng.randint(1, 2)
            u = tuple(rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(h))
            sets = SetTuple(tuple(tuple(rng.sample(range(-2, 4), rng.randint(2, 4))) for _ in range(h)))
            v, t, budget = rng.randint(1, 3), rng.randint(1, 2), rng.choice((50, 500, 10**5))
            form = AugmentedForm(LinearForm(u), v)
            if not 1 <= build_context(form, sets, t).gap <= 12:
                continue  # gap 0 never searches; large gaps only slow period detection
            instance = (u, v, sets.sets, t, budget)
            found, attempts, solves = reference_stabilize(form, sets, t, 8, budget)
            searches.clear()
            result = stabilize(form, sets, t, 8, max_nodes=budget)
            got = [(a.N, a.status) for a in result.attempts]
            if attempts[-1][1] == "resource_limit":
                # resuming visits fewer nodes, so it may get past the radius
                # whose budget the reference ran out of
                assert got[: len(attempts) - 1] == attempts[:-1], instance
                assert len(got) >= len(attempts), instance
                assert [call[:3] for call in searches[: len(solves) - 1]] == solves[:-1], instance
            else:
                assert (got, result.periodic_set) == (attempts, found), instance
                assert [call[:3] for call in searches] == solves, instance
            resumed += len(solves) > v
        assert resumed >= 50

    @pytest.mark.parametrize(
        "elements,t,nodes",
        [
            # the two largest stabilize calls of the benchmark pool; every
            # radius solved afresh took 150,864 and 193,908 nodes, and
            # resuming 89,292 and 81,928 before the decider, which refutes
            # the first at N = 12 and adds its nodes to three solvable radii
            # of the second
            ((0, 2, 6, 12, 15), 2, 50_575),
            ((0, 1, 2, 4, 16), 1, 82_631),
        ],
    )
    def test_node_savings_are_pinned(self, searches, elements, t, nodes):
        result = stabilize(AugmentedForm(LinearForm((1,)), 1), SetTuple((elements,)), t, 12)
        assert [call[0] for call in searches] == list(range(1, 13))
        assert result.attempts[-1].N == 12
        assert sum(call[3] for call in searches) <= nodes

    def test_aligns_on_radius_minus_v(self):
        # stabilize verifies this instance at N = 1, so the chain of radii is
        # driven here: index i names the same candidate, counted from the
        # window's left end, at N - 3 and at N
        form, sets = AugmentedForm(LinearForm((1, 3)), 3), SetTuple(((0, 1, 2), (0, 1, 2)))
        paths, nodes = {}, 0
        for radius in range(1, 13):
            problem = candidate_bound(form, sets, radius, ONE)
            result, paths[radius] = linform.solver._search(problem, 100, paths.pop(radius - 3, b""))
            afresh = solve_window(problem)
            assert (result.status, result.witness) == (afresh.status, afresh.witness), radius
            assert result.nodes_explored <= afresh.nodes_explored
            nodes += result.nodes_explored
        assert nodes <= 107  # 142 solving every radius afresh
