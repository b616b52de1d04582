"""Answers the benchmark checks reports against, computed without linform.

Image counts come from tests/oracles.py, which enumerates the Cartesian
product with plain loops. Every other answer here is derived from those
counts from the definitions, so no check runs through a linform code path.
"""

from __future__ import annotations

import importlib.util
from itertools import chain
from pathlib import Path


def load_test_oracles(root: Path):
    path = root / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("linform_test_oracles", path)
    if spec is None or spec.loader is None:
        raise ImportError(f"cannot load {path}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def outward(reflected: bool):
    """Scan order of n, least |n| first, as the written form sees the normalized scan 0, 1, -1, ..."""
    yield 0
    k = 1
    while True:
        yield -k if reflected else k
        yield k if reflected else -k
        k += 1


def outward_index(n: int) -> int:
    """Position of n in the normalized scan 0, 1, -1, 2, -2, ..."""
    return 2 * n - 1 if n > 0 else -2 * n


class Oracle:
    """Caches image counts per (u, sets); everything else is derived from them."""

    def __init__(self, test_oracles):
        self._enumerate = test_oracles.oracle_image_counts
        self._images: dict = {}

    def image(self, u, sets) -> dict[int, int]:
        key = (tuple(u), tuple(tuple(s) for s in sets))
        if key not in self._images:
            self._images[key] = self._enumerate(*key)
        return self._images[key]

    def fold(self, u, sets, m: int) -> list[int]:
        counts = [0] * m
        for value, mult in self.image(u, sets).items():
            counts[value % m] += mult
        return counts

    def augmented_period(self, u, v: int, sets, modulus: int, residues) -> list[int]:
        """Augmented counts over one period P = |v| * modulus, indexed by n mod P."""
        period = abs(v) * modulus
        counts = [0] * period
        for value, mult in self.image(u, sets).items():
            for r in residues:
                counts[(value + v * r) % period] += mult
        return counts

    def first_violation(self, u, v: int, sets, modulus: int, residues, t: int):
        """(n, observed) at the least |n| whose count differs from t, or None."""
        counts = self.augmented_period(u, v, sets, modulus, residues)
        period = len(counts)
        for i, n in enumerate(outward(v < 0)):
            if i == period:
                return None
            if counts[n % period] != t:
                return n, counts[n % period]

    def extend(self, u, v: int, sets, t: int, start: int, bits: str, lo: int, hi: int):
        """Forced extension of a seed window of B's membership bits (normalized form, v >= 1).

        At x = v*n + g_min only b in [n - gap, n] contribute, so the count
        there fixes bit(n) from the bits below it; x = v*n + g_max fixes it
        from the bits above. Returns ("bits", string) or ("inconsistent", n).
        """
        image = self.image(u, sets)
        g_min, g_max = min(image), max(image)
        gap = (g_max - g_min) // v
        known = {start + i: int(c) for i, c in enumerate(bits)}
        end = start + len(bits) - 1
        steps = chain(
            ((n, g_min, range(n - gap, n)) for n in range(end + 1, hi + 1)),
            ((n, g_max, range(n + 1, n + gap + 1)) for n in range(start - 1, lo - 1, -1)),
        )
        for n, anchor, near in steps:
            x = v * n + anchor
            rest = sum(image.get(x - v * b, 0) for b in near if known[b])
            fits = [bit for bit in (0, 1) if rest + bit * image[anchor] == t]
            if not fits:
                return "inconsistent", n
            known[n] = fits[0]
        return "bits", "".join(str(known[n]) for n in range(lo, hi + 1))

    def window_violation(self, u, v: int, sets, members, radius: int, t: int):
        """Least n in [-radius, radius] whose finite-B count differs from t, or None."""
        image = self.image(u, sets)
        counts: dict[int, int] = {}
        for b in members:
            for value, mult in image.items():
                counts[value + v * b] = counts.get(value + v * b, 0) + mult
        for n in range(-radius, radius + 1):
            if counts.get(n, 0) != t:
                return n
        return None


def minimal_period(modulus: int, residues) -> tuple[int, list[int]]:
    """Smallest modulus describing the same periodic set, with its residues."""
    members = set(residues)
    for d in range(1, modulus + 1):
        if modulus % d == 0 and all((r + d) % modulus in members for r in members):
            return d, sorted({r % d for r in members})
    raise AssertionError("unreachable: the modulus itself always works")
