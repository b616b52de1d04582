"""Independent reference implementations used to cross-check the library.

Everything here is written from the definitions with plain loops and no
imports from the package internals, so a test that compares the library
against these functions exercises two separate code paths.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, Sequence


def oracle_eval(u: Sequence[int], values: Sequence[int]) -> int:
    return sum(c * x for c, x in zip(u, values))


def oracle_image_counts(u: Sequence[int], sets: Sequence[Sequence[int]]) -> dict[int, int]:
    counts: dict[int, int] = {}
    for combo in itertools.product(*sets):
        value = oracle_eval(u, combo)
        counts[value] = counts.get(value, 0) + 1
    return counts


def oracle_modular_counts(u, sets, m: int) -> list[int]:
    folded = [0] * m
    for combo in itertools.product(*sets):
        folded[oracle_eval(u, combo) % m] += 1
    return folded


def oracle_augmented_count(
    u: Sequence[int],
    v: int,
    sets: Sequence[Sequence[int]],
    member: Callable[[int], bool],
    n: int,
) -> int:
    total = 0
    for combo in itertools.product(*sets):
        rest = n - oracle_eval(u, combo)
        if rest % v == 0 and member(rest // v):
            total += 1
    return total


def oracle_cyclic_product(u, sets, m: int) -> list[int]:
    """Coefficient vector mod z^m - 1 of the product of generating polynomials.

    Built by cyclic convolution of one factor at a time, a different route
    than expanding a sparse Laurent polynomial and folding once at the end.
    """
    acc = [0] * m
    acc[0] = 1
    for coeff, elements in zip(u, sets):
        factor = [0] * m
        for a in elements:
            factor[(a * coeff) % m] += 1
        nxt = [0] * m
        for i, ci in enumerate(acc):
            if ci == 0:
                continue
            for j, cj in enumerate(factor):
                if cj:
                    nxt[(i + j) % m] += ci * cj
        acc = nxt
    return acc


def oracle_window_satisfiable(
    u,
    v: int,
    sets,
    required: Callable[[int], int | None],
    radius: int,
    lo: int,
    hi: int,
) -> bool:
    """Exhaustive truth for the window problem over all subsets of [lo, hi].

    Pure bitmask enumeration with early abort; feasible up to roughly
    2^22 candidates, which covers the desk-scale corpus.
    """
    candidates = list(range(lo, hi + 1))
    window = list(range(-radius, radius + 1))
    contribution = []
    for b in candidates:
        per_n = [0] * len(window)
        for combo in itertools.product(*sets):
            n = oracle_eval(u, combo) + v * b
            if -radius <= n <= radius:
                per_n[n + radius] += 1
        contribution.append(per_n)
    needs = [required(n) for n in window]
    for mask in range(1 << len(candidates)):
        counts = [0] * len(window)
        m = mask
        index = 0
        while m:
            if m & 1:
                per_n = contribution[index]
                for k, c in enumerate(per_n):
                    counts[k] += c
            m >>= 1
            index += 1
        if all(need is None or got == need for got, need in zip(counts, needs)):
            return True
    return False


def oracle_minimal_period(modulus: int, residues: Iterable[int]) -> tuple[int, tuple[int, ...]]:
    """Least g dividing the modulus with the residue set invariant under +g, and the folded residues.

    Walks every integer up to the modulus, so keep the modulus small.
    """
    rset = set(residues)
    for g in range(1, modulus + 1):
        if modulus % g == 0 and all((r + g) % modulus in rset for r in rset):
            return g, tuple(sorted({r % g for r in rset}))
    raise AssertionError("unreachable: the modulus itself always folds")


def oracle_member_sequence(modulus: int, residues: Iterable[int], lo: int, hi: int) -> list[int]:
    rset = set(residues)
    return [1 if n % modulus in rset else 0 for n in range(lo, hi + 1)]
