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


def oracle_extend(
    u: Sequence[int],
    v: int,
    sets: Sequence[Sequence[int]],
    t: int,
    start: int,
    bits: Sequence[int],
    lo: int,
    hi: int,
) -> tuple[str, tuple[int, ...] | int]:
    """Forced extension of a seed window, one bit at a time, for v >= 1.

    The augmented count at v*n + g_min can only gain from members in
    [n - gap, n], so once the bits below n are known it fixes bit(n);
    v*n + g_max fixes it from the bits above. Steps upward to hi, then
    downward to lo, and returns ("bits", bits of [lo, hi]) or
    ("inconsistent", n) at the first n where no bit fits.
    """
    image = oracle_image_counts(u, sets)
    g_min, g_max = min(image), max(image)
    gap = (g_max - g_min) // v
    known = {start + i: bit for i, bit in enumerate(bits)}
    end = start + len(bits) - 1
    steps = [(n, g_min, range(n - gap, n)) for n in range(end + 1, hi + 1)]
    steps += [(n, g_max, range(n + 1, n + gap + 1)) for n in range(start - 1, lo - 1, -1)]
    for n, anchor, near in steps:
        x = v * n + anchor
        rest = sum(image.get(x - v * b, 0) for b in near if known[b])
        if rest == t:
            known[n] = 0
        elif rest + image[anchor] == t:
            known[n] = 1
        else:
            return "inconsistent", n
    return "bits", tuple(known[n] for n in range(lo, hi + 1))


def oracle_window_dfs(
    u,
    v: int,
    sets,
    required: Callable[[int], int | None],
    radius: int,
    max_nodes: int,
) -> tuple[str, tuple[int, ...] | None, int]:
    """The window search without floors: (status, witness, nodes) for v >= 1.

    The same canonical DFS as the library (ascending candidates, include
    first, overcount and final-count pruning), but with no reachability
    pruning, so it decides the same instances with the same first witness
    over a tree at least as large.
    """
    image = oracle_image_counts(u, sets)
    support = sorted(image.items())
    g_min, g_max = support[0][0], support[-1][0]
    candidate_hi = (radius + max(-g_min, g_max)) // v
    contrib_lo = max(-candidate_hi, -((radius + g_max) // v))
    contrib_hi = min(candidate_hi, (radius - g_min) // v)
    needs = [required(n) for n in range(-radius, radius + 1)]
    counts = [0] * (2 * radius + 1)

    def advance(frontier: int, limit: int) -> int | None:
        stop = min(limit, radius)
        while frontier < stop:
            frontier += 1
            need = needs[frontier + radius]
            if need is not None and counts[frontier + radius] != need:
                return None
        return frontier

    candidates = list(range(contrib_lo, contrib_hi + 1))
    last = len(candidates)
    contributions = [
        [(value + v * b + radius, mult) for value, mult in support if -radius <= value + v * b <= radius]
        for b in candidates
    ]
    thresholds = [g_min + v * b + v - 1 for b in candidates[:-1]] + [radius]

    chosen: list[int] = []
    branches = [(0, -radius - 1, True)]
    nodes = 0
    while branches:
        i, frontier, include = branches.pop()
        if i == last:
            if advance(frontier, radius) is not None:
                return "solved", tuple(candidates[k] for k in chosen), nodes
            continue
        nodes += 1
        if nodes > max_nodes:
            return "resource_limit", None, nodes
        if include:
            branches.append((i, frontier, False))
            placed = 0
            for index, mult in contributions[i]:
                counts[index] += mult
                placed += 1
                need = needs[index]
                if need is not None and counts[index] > need:
                    break
            else:
                after = advance(frontier, thresholds[i])
                if after is not None:
                    chosen.append(i)
                    branches.append((i + 1, after, True))
                    continue
            for index, mult in contributions[i][:placed]:
                counts[index] -= mult
        else:
            while chosen and chosen[-1] >= i:
                for index, mult in contributions[chosen.pop()]:
                    counts[index] -= mult
            after = advance(frontier, thresholds[i])
            if after is not None:
                branches.append((i + 1, after, True))
    return "unsat", None, nodes
