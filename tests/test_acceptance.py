"""Acceptance gate: the seven package-level guarantees, one test per criterion.

Run with -v for one PASS/FAIL line per criterion; each test also prints a
summary line (visible with -s) naming the criterion and the measured scale.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import time
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

from linform import (
    AugmentedForm,
    LaurentPoly,
    LinearForm,
    SetTuple,
    SolveStatus,
    TargetFunction,
    build_context,
    candidate_bound,
    check_condition,
    check_t_complementing,
    extend,
    image_repfn,
    modular_repfn,
    product,
    solve_window,
    stabilize,
)
from linform.cli import main
from linform.problems import parse_problem, parse_problem_dict, problem_to_dict
from linform.recursion import Window

from corpus import CORPUS
from oracles import oracle_modular_counts, oracle_window_satisfiable
from test_cli import EXIT_TABLE, GOLDEN_RUNS, DATA, GOLDEN

SEED = 20260819


def random_instance(rng: random.Random):
    h = rng.randint(1, 3)
    coeffs = tuple(rng.choice([u for u in range(-5, 6) if u != 0]) for _ in range(h))
    sets = tuple(
        tuple(rng.sample(range(-10, 11), rng.randint(1, 4))) for _ in range(h)
    )
    return LinearForm(coeffs), SetTuple(sets)


def test_criterion_1_condition_matches_modular_counting():
    rng = random.Random(SEED)
    started = time.perf_counter()
    for _ in range(1000):
        form, sets = random_instance(rng)
        m = rng.randint(1, 12)
        t = rng.randint(0, 4)
        verdict = check_condition(form, sets, m, t).holds
        expected = all(c == t for c in modular_repfn(form, sets, m))
        assert verdict == expected, (form, sets, m, t)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    print(f"criterion 1: PASS (1000 instances, {elapsed:.2f}s)")


def test_criterion_2_produced_periods_respect_the_bound():
    started = time.perf_counter()
    produced = 0
    instances = 0
    for size in (2, 3, 4):
        for elements in itertools.combinations(range(7), size):
            for v in (1, 2):
                for t in (1, 2):
                    instances += 1
                    form = AugmentedForm(LinearForm((1,)), v)
                    sets = SetTuple((elements,))
                    result = stabilize(form, sets, t, 6, max_nodes=20000)
                    if not result.found:
                        continue
                    produced += 1
                    gap = build_context(form, sets, t).gap
                    assert result.periodic_set.modulus <= 2**gap, (elements, v, t)
                    image = image_repfn(form.base, sets)
                    cert = check_t_complementing(form, image, result.periodic_set, t)
                    assert cert.verdict is True, (elements, v, t)
                    assert cert.first_violation is None
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"took {elapsed:.2f}s"
    assert produced > 0
    print(
        f"criterion 2: PASS ({instances} instances, {produced} verified periods, {elapsed:.2f}s)"
    )


def test_criterion_3_recursion_reproduces_every_corpus_complement():
    assert len(CORPUS) >= 10
    for pair in CORPUS:
        ctx = build_context(pair.form(), pair.set_tuple(), pair.t)
        radius = 10 * pair.v * pair.modulus
        seed = pair.true_window(0, max(ctx.gap, 1))
        window = extend(ctx, seed, -radius, radius)
        b = pair.periodic()
        for n in range(-radius, radius + 1):
            assert window.bit(n) == (1 if b.member(n) else 0), (pair.name, n)
        ahead = extend(ctx, seed, seed.start, seed.end + 6)
        tail = Window(ahead.end - ctx.gap + 1, ahead.bits[-ctx.gap :])
        recovered = extend(ctx, tail, seed.start, ahead.end)
        assert recovered.bits == ahead.bits, pair.name
    print(f"criterion 3: PASS ({len(CORPUS)} pairs reproduced)")


def test_criterion_4_solver_agrees_with_subset_enumeration():
    compared = 0
    for pair in CORPUS:
        for radius in range(0, 5):
            for t in (pair.t, pair.t + 1):
                problem = candidate_bound(pair.form(), pair.set_tuple(), radius, TargetFunction.constant(t))
                if problem.candidate_hi - problem.candidate_lo + 1 > 22:
                    continue
                verdict = solve_window(problem).status is SolveStatus.SOLVED
                truth = oracle_window_satisfiable(
                    pair.u,
                    pair.v,
                    pair.sets,
                    lambda n: t,
                    radius,
                    problem.candidate_lo,
                    problem.candidate_hi,
                )
                assert verdict == truth, (pair.name, radius, t)
                compared += 1
    assert compared > 0
    print(f"criterion 4: PASS ({compared} instances agree with enumeration)")


def test_criterion_5_classical_complements_found_quickly():
    classics = [
        ((0, 1), 2, 1),
        ((0, 1, 2), 3, 1),
        ((0, 2), 4, 2),
    ]
    timings = []
    for elements, period, residue_count in classics:
        form = AugmentedForm(LinearForm((1,)), 1)
        sets = SetTuple((elements,))
        started = time.perf_counter()
        result = stabilize(form, sets, 1, 6)
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, (elements, elapsed)
        assert result.found, elements
        assert result.periodic_set.modulus == period, elements
        assert len(result.periodic_set.residues) == residue_count, elements
        assert check_t_complementing(form, image_repfn(form.base, sets), result.periodic_set, 1).verdict
        timings.append(elapsed)
    print(f"criterion 5: PASS (3 classics, worst {max(timings):.3f}s)")


def test_criterion_6_conservation_suite():
    rng = random.Random(SEED + 6)
    for _ in range(1000):
        form, sets = random_instance(rng)
        rep = image_repfn(form, sets)
        assert rep.total() == math.prod(map(len, sets.sets))
        m = rng.randint(1, 12)
        assert modular_repfn(form, sets, m) == oracle_modular_counts(form.coeffs, sets.sets, m)
        factors = [LaurentPoly({u * a: 1 for a in elements}) for u, elements in zip(form.coeffs, sets.sets)]
        assert product(factors).terms == rep.counts
    print("criterion 6: PASS (1000 instances conserve mass, folds, coefficients)")


def run_cli(argv):
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue()


def test_criterion_7_cli_contract():
    commands_covered = set()
    for golden, expected_code, argv in GOLDEN_RUNS:
        code, out = run_cli(argv)
        assert code == expected_code, argv
        assert out == (GOLDEN / golden).read_text(), argv
        commands_covered.add(argv[0])
    for expected_code, argv in EXIT_TABLE:
        code, _ = run_cli(argv)
        assert code == expected_code, argv
        commands_covered.add(argv[0])
    assert commands_covered == {
        "image",
        "repfn",
        "modrep",
        "cyclotomy",
        "check",
        "extend",
        "period",
        "solve",
        "stabilize",
    }
    round_tripped = 0
    for path in sorted(Path(DATA).glob("*.json")):
        if path.name == "badfield.json":
            continue
        problem = parse_problem(path.read_text())
        assert parse_problem_dict(json.loads(json.dumps(problem_to_dict(problem)))) == problem
        round_tripped += 1
    assert round_tripped > 0
    print(
        f"criterion 7: PASS (9 commands, {len(GOLDEN_RUNS)} golden runs, "
        f"{len(EXIT_TABLE)} exit rows, {round_tripped} files round-trip)"
    )
