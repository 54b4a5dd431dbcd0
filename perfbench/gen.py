"""Seeded benchmark inputs and the input properties the verifier depends on.

The generators and the ``.wsp`` writer here import nothing from the package
under test, so a change to the program cannot change the bytes it is given.
"""

from __future__ import annotations

import random

TWO_ADIC_N = 50000
RANDOM_N = 8000
RANDOM_S = 12


def two_adic(n: int) -> list[list[int]]:
    """Subset k+1 holds the integers of 1..n whose 2-adic valuation is k.

    Each subset is weakly sum-free and free of a/2a pairs, so the partition
    passes conditions 1 and 2; subset 1 (the odd numbers) fails condition 3
    once for every odd a with 3 <= a < (n+2)/2.
    """
    groups: list[list[int]] = []
    for x in range(1, n + 1):
        k = (x & -x).bit_length() - 1
        if k == len(groups):
            groups.append([])
        groups[k].append(x)
    return groups


def random_colouring(n: int, s: int, seed: int) -> list[list[int]]:
    """A uniformly random s-colouring of 1..n drawn from ``seed``, redrawn
    until every colour is used so the result is a partition."""
    rng = random.Random(seed)
    while True:
        groups: list[list[int]] = [[] for _ in range(s)]
        for x in range(1, n + 1):
            groups[rng.randrange(s)].append(x)
        if all(groups):
            return groups


def to_wsp(subsets: list[list[int]], n: int) -> str:
    """Canonical ``.wsp`` text for ascending subsets covering 1..n."""
    lines = ["wsp 1", f"s={len(subsets)} n={n}"]
    lines.extend(f"{i}: {' '.join(map(str, sub))}" for i, sub in enumerate(subsets, 1))
    return "\n".join(lines) + "\n"


def from_wsp(text: str) -> tuple[list[list[int]], int]:
    """(subsets, n) from well-formed ``.wsp`` text, without validation."""
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    n = int(lines[1].split("n=")[1])
    return [[int(x) for x in ln.split(":", 1)[1].split()] for ln in lines[2:]], n


def input_stats(partitions: list[tuple[list[list[int]], int]]) -> dict:
    """Elements, integer runs and weak-sum probes of (subsets, n) pairs.

    A run is a maximal block of consecutive integers in one subset.  Probes
    are computed, not counted: the bitmap verifier makes one shifted AND
    per element a <= (max-1)/2 of each subset (condition 1) and of subset 1
    extended by n+2 (condition 3), each as wide as the subset's mask.
    """
    elements = runs = probes = probe_bytes = 0
    for subsets, n in partitions:
        probed = [(sub, sub[-1]) for sub in subsets]
        probed.append((subsets[0], n + 2))  # condition 3's extended subset 1
        for sub, top in probed:
            half = (top - 1) >> 1
            k = sum(1 for a in sub if a <= half)
            probes += k
            probe_bytes += k * ((top >> 6) + 1) * 8
        for sub in subsets:
            elements += len(sub)
            runs += 1 + sum(1 for a, b in zip(sub, sub[1:]) if b != a + 1)
    return {
        "elements": elements,
        "runs": runs,
        "elems_per_run": elements / runs if runs else 0.0,
        "probes": probes,
        "probe_mb": probe_bytes / 1e6,
    }
