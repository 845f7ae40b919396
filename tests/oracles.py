"""Independent oracles used by the test suite.

These deliberately avoid the library's algorithms: interval covering is
solved by exhaustive window search over integer cells, microscopic index
assignment by brute force over permutations, oscillation by dense sampling,
plateau vertex ranges by per-cube Fraction floor/ceil, and the Weierstrass
function pointwise with exact argument reduction.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, permutations


def brute_min_window_cover(cells: set[int], window: int) -> int:
    """Minimal number of closed intervals of length `window` cells covering the
    closed union of unit cells.

    Any cover interval can be slid right until its left end hits the leftmost
    occupied cell it covers without losing occupied cells, so window starts can
    be restricted to occupied cell indices; a window starting at cell s covers
    cells s..s+window-1 fully (the single-point touch of cell s+window never
    helps cover that cell's interior).  Exhaustive search over start subsets.
    """
    if not cells:
        return 0
    starts = sorted(cells)
    for count in range(1, len(cells) + 1):
        for combo in combinations(starts, count):
            covered = set()
            for s in combo:
                covered.update(range(s, s + window))
            if cells <= covered:
                return count
    return len(cells)


def brute_micro_assignment(volumes: list[float], eps: float, n_max: int) -> bool:
    """Does an injective assignment of components to indices 1..n_max exist
    with volume_i <= eps^index_i?  Exhaustive over index permutations."""
    if not volumes:
        return True
    if len(volumes) > n_max:
        return False
    for idxs in permutations(range(1, n_max + 1), len(volumes)):
        if all(v <= eps**i for v, i in zip(volumes, idxs)):
            return True
    return False


def dense_diam(fn, x: float, r: float, h_fine: Fraction) -> float:
    """Diameter of fn over the closed ball [x-r, x+r] cap [0,1] from a dense
    grid of exact rational points with spacing h_fine."""
    lo = max(Fraction(0), Fraction(x) - Fraction(r))
    hi = min(Fraction(1), Fraction(x) + Fraction(r))
    i0 = math.ceil(lo / h_fine)
    i1 = math.floor(hi / h_fine)
    values = [fn(i * h_fine) for i in range(i0, i1 + 1)]
    for endpoint in (lo, hi):
        values.append(fn(endpoint))
    return max(values) - min(values)


def fraction_plateau_range(k: int, eta: Fraction, depth: int, j: int) -> tuple[int, int, int]:
    """Vertex range [lo, hi] of the depth-grid cells meeting the shrunken cube
    beta*K_j (beta = 1 - eta*k/2), and its center vertex, per cube in exact
    Fractions: the cube is centered at (2j+1)/(2k) with side beta/k."""
    top = 1 << depth
    center = Fraction(2 * j + 1, 2 * k)
    half = (1 - eta * k / 2) / (2 * k)
    ta, tb = (center - half) * top, (center + half) * top
    lo = int(ta) if ta.denominator == 1 else math.floor(ta)
    hi = (int(tb) - 1 if tb.denominator == 1 else math.floor(tb)) + 1
    mid = int(round(center * top))
    return lo, hi, min(max(mid, lo), hi)


def weierstrass_value(a: float, b: int, terms: int, x: Fraction | float) -> float:
    """sum a^n cos(2 pi b^n x), argument-reduced exactly for rational x."""
    x = Fraction(x)
    total = 0.0
    for n in range(terms):
        arg = (x * b**n) % 1
        total += a**n * math.cos(2.0 * math.pi * float(arg))
    return total
