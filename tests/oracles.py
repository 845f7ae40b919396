"""Independent oracles used by the test suite.

These deliberately avoid the library's algorithms: interval covering is
solved by exhaustive window search over integer cells, microscopic index
assignment by brute force over permutations, oscillation by dense sampling,
plateau vertex ranges by per-cube Fraction floor/ceil, and the Weierstrass
function pointwise with exact argument reduction.  The oscillation brackets
(1-d and d >= 2) and the greedy Vitali pass are kept here in their scalar,
quadratic form as references for the batched library versions, and the
interval layer in its Fraction-pair form (FractionIntervalUnion and the
functions after it) as the reference for the integer-array IntervalUnion.
The cube-set layer is kept as TupleCubeSet, a frozenset of index tuples, with
its cross power, components and .set reader (one line at a time), as the
reference for the key-array DyadicCubeSet and its block reader.  Covers are
kept as FractionBoxCover, tuples of Fraction endpoint pairs, with the
recursive bisection coverage check (bisection_uncovered), as the reference
for the integer-array BoxCover and
its cell-grid check; brute_uncovered_point decides coverage by testing a
point of every cell.  Evaluation is kept in its scalar form (evaluate:
locate one domain cell, then interpolate one corner at a time) as the
reference for the batched SampledFunction.evaluate_many; the oscillation
oracles evaluate through it and read domain cells from a TupleCubeSet.
The greedy N_delta sweep over every interval (greedy_count_sweep) is the
reference for the closed-form counts of isolated intervals.  The blocked
d >= 2 box count has three references: brute_grid_count lists every cell
in Fractions, compressed_grid_count takes the union of the cubes' cell
boxes by coordinate compression, and grid_count_keys writes the cell keys
of every cube into one integer array and sorts it.  The subset raster of an
IntervalUnion (subset_raster), which only tests use, is kept here in
Python integers.  The .set text in one
%-formatting pass (cube_lines_one_pass) is the reference for the chunked
save_cubes, and the .fn text in one string with every value formatted
(fn_text_one_pass) and read back one line and one float() at a time
(fn_read_line_by_line) are the references for the run-length, chunked
save_function and load_function.  The step table gauge is kept as a scan
over its knots (table_gauge_step) as the reference for the bisect lookup.
The whole-grid passes are kept in their one-pass form as the references
for the blocked library versions: a stage's values with the plateau mask
from a +1/-1 mark array (stage_values_whole_grid) and the whole stage
from it (build_stage_whole_grid, the reference for the streamed stage
chain, which holds no grid), resample through
np.linspace (resample_linspace) and the Lipschitz constant from whole-axis
differences (grid_lipschitz_whole).  The Weierstrass grid is kept with one
np.cos pass per term (weierstrass_grid_per_term) as the reference for the
one-table make_test_function grid.
"""

from __future__ import annotations

import hashlib
import math
import re
import warnings
from fractions import Fraction
from dataclasses import dataclass
from itertools import combinations, islice, permutations, product

import numpy as np


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


def fraction_slab(k: int, eta: Fraction, m: int) -> tuple[Fraction, Fraction]:
    """Slab m of a stage: [m/k - eta/2, m/k + eta/2] clipped to [0, 1]."""
    center = Fraction(m, k)
    return max(Fraction(0), center - eta / 2), min(Fraction(1), center + eta / 2)


def fraction_cube(k: int, eta: Fraction, j: int) -> tuple[Fraction, Fraction]:
    """Shrunken cube j of a stage: beta*K_j = [j/k + eta/4, (j+1)/k - eta/4]."""
    return Fraction(j, k) + eta / 4, Fraction(j + 1, k) - eta / 4


def fraction_core(k: int, eta: Fraction, j: int) -> tuple[Fraction, Fraction]:
    """Core j of a stage: gamma*beta*K_j = [j/k + eta/2, (j+1)/k - eta/2]."""
    return Fraction(j, k) + eta / 2, Fraction(j + 1, k) - eta / 2


def weierstrass_value(a: float, b: int, terms: int, x: Fraction | float) -> float:
    """sum a^n cos(2 pi b^n x), argument-reduced exactly for rational x."""
    x = Fraction(x)
    total = 0.0
    for n in range(terms):
        arg = (x * b**n) % 1
        total += a**n * math.cos(2.0 * math.pi * float(arg))
    return total


def cell_in_domain(f, cubes, cell) -> bool:
    """Whether a depth-m grid cell of f lies in one of the domain cubes, the
    index tuples of TupleCubeSet.of(f.domain)."""
    shift = f.depth - f.domain.depth
    return tuple(k >> shift for k in cell) in cubes


def containing_cell(f, cubes, x) -> tuple[int, ...]:
    """The first domain cell holding x: per axis the cell k = min(floor(x
    2^m), 2^m - 1), then k - 1 when x is a vertex above 0, tried in product
    order.  The scaling by 2^m is exact."""
    top = 1 << f.depth
    candidates: list[list[int]] = []
    for xi in x:
        if xi < 0.0 or xi > 1.0:
            raise ValueError(f"point {tuple(x)} outside [0,1]^d")
        scaled = xi * top
        k = min(math.floor(scaled), top - 1)
        cand = [k]
        if scaled == k and k - 1 >= 0:
            cand.append(k - 1)
        candidates.append(cand)
    for cell in product(*candidates):
        if cell_in_domain(f, cubes, cell):
            return cell
    raise ValueError(f"point {tuple(x)} outside the domain")


def interpolate(f, cell, x) -> float:
    """Multilinear interpolation of x in a cell that holds it: 0.0 plus each
    corner's term in corner order, its weight multiplied in axis order, a
    zero weight skipping the term."""
    top = 1 << f.depth
    out = 0.0
    for corner in product((0, 1), repeat=f.dim):
        weight = 1.0
        idx = []
        for c, k, xi in zip(corner, cell, x):
            t = xi * top - k
            weight *= t if c else 1.0 - t
            idx.append(k + c)
        if weight:
            out += weight * float(f.values[tuple(idx)])
    return out


def evaluate(f, x, cubes) -> float:
    """f at one point x (a float in d = 1), one point and one corner at a
    time: liplab's scalar SampledFunction.evaluate before the batched one.
    cubes: the domain's index tuples, TupleCubeSet.of(f.domain).cubes."""
    if isinstance(x, (int, float)):
        x = (float(x),)
    return interpolate(f, containing_cell(f, cubes, x), x)


def require_float_ends(f, x, r: float) -> None:
    """Raise the ValueError of an exact function's ball B(x, r) that has an
    end x_i -+ r in [0,1] that is not a float, checked in Fractions."""
    if not f.exact:
        return
    point = tuple(float(v) for v in x) if isinstance(x, (tuple, list)) else (float(x),)
    for xi in point:
        ends = ((Fraction(xi) - Fraction(r), xi - r), (Fraction(xi) + Fraction(r), xi + r))
        for exact, rounded in ends:
            if 0 <= exact <= 1 and Fraction(rounded) != exact:
                raise ValueError(
                    f"ball B({point}, {r}) has an end x -+ r in [0,1]"
                    " that is not a float; an exact bracket needs exact ends"
                )


def oscillation_1d(f, x: float, r: float) -> tuple[float, float]:
    """(lower, upper) of a 1-d SampledFunction over the closed ball
    [x-r, x+r], one point at a time in exact Fractions: liplab's scalar
    bracket before the batched one.

    lower is the spread of the non-NaN vertices in the exact ball.  An exact
    function on a full domain adds its values at the two ball ends; on a
    partial domain every domain cell touching the ball gives the corners of
    the ball's piece in it, each through evaluate.  One thing differs from
    that scalar code: a domain cell that touches the ball only at an end
    vertex now counts (the old loop skipped it, so a ball meeting the domain
    in that single point raised "ball does not meet the domain").  An exact
    function raises when an end x -+ r in [0,1] is not a float
    (require_float_ends).
    """
    if r <= 0:
        raise ValueError("radius must be positive")
    if not f.exact and r < 4.0 * f.h:
        raise ValueError(f"radius {r} below resolution guard 4h = {4.0 * f.h}")
    require_float_ends(f, x, r)
    top = 1 << f.depth
    X, R = Fraction(x), Fraction(r)
    lo = math.ceil(max(Fraction(0), X - R) * top)
    hi = math.floor(min(Fraction(1), X + R) * top)
    cubes = TupleCubeSet.of(f.domain).cubes

    vmin = math.inf
    vmax = -math.inf
    if lo <= hi:
        window = f.values[lo : hi + 1]
        window = window[~np.isnan(window)]
        if window.size:
            vmin = float(window.min())
            vmax = float(window.max())
    if vmin > vmax:
        if not f.exact:
            raise ValueError("no domain vertex inside the ball; deepen the grid")
        lower = 0.0
    else:
        lower = vmax - vmin
    if not f.exact:
        return lower, lower + 2.0 * f.modulus.omega(f.h)

    lo_edge = max(0.0, x - r)
    hi_edge = min(1.0, x + r)
    if f.full_domain:
        extremes = [evaluate(f, lo_edge, cubes), evaluate(f, hi_edge, cubes)]
        if vmin <= vmax:
            extremes.extend((vmin, vmax))
        upper = max(extremes) - min(extremes)
        return lower, max(upper, lower)

    emin = math.inf
    emax = -math.inf
    any_cell = False
    first = max(0, math.ceil(Fraction(lo_edge) * top) - 1)
    last = min(top - 1, math.floor(Fraction(hi_edge) * top))
    for k in range(first, last + 1):
        if not cell_in_domain(f, cubes, (k,)):
            continue
        any_cell = True
        a = max(lo_edge, k / top)
        b = min(hi_edge, (k + 1) / top)
        for corner in (a, b) if b > a else (a,):
            v = evaluate(f, corner, cubes)
            emin = min(emin, v)
            emax = max(emax, v)
    if not any_cell:
        raise ValueError("ball does not meet the domain")
    return lower, max(emax - emin, lower)


def oscillation_nd(f, x, r: float) -> tuple[float, float]:
    """(lower, upper) of a d >= 2 SampledFunction over the closed
    max-norm ball B(x, r), one point at a time: liplab's scalar d >= 2
    bracket before the batched one, with its vertex windows in exact Fractions.

    lower is the spread of the non-NaN vertices in the exact ball.  An exact
    function takes upper from the corners of the ball's pieces in every domain
    cell the closed ball meets, also one it touches only across a face on a
    box end, each through evaluate, which locates the corner again.  An
    exact function raises when an end x_i -+ r in [0,1] is not a float
    (require_float_ends).
    """
    if r <= 0:
        raise ValueError("radius must be positive")
    if not f.exact and r < 4.0 * f.h:
        raise ValueError(f"radius {r} below resolution guard 4h = {4.0 * f.h}")
    require_float_ends(f, x, r)
    top = 1 << f.depth
    R = Fraction(r)
    ranges = [
        (math.ceil(max(Fraction(0), Fraction(xi) - R) * top),
         math.floor(min(Fraction(1), Fraction(xi) + R) * top))
        for xi in x
    ]

    vmin = math.inf
    vmax = -math.inf
    if all(lo <= hi for lo, hi in ranges):
        window = f.values[tuple(slice(lo, hi + 1) for lo, hi in ranges)]
        window = window[~np.isnan(window)]
        if window.size:
            vmin = float(window.min())
            vmax = float(window.max())
    if vmin > vmax:
        if not f.exact:
            raise ValueError("no domain vertex inside the ball; deepen the grid")
        lower = 0.0
    else:
        lower = vmax - vmin
    if not f.exact:
        return lower, lower + 2.0 * f.modulus.omega(f.h)

    box_lo = [max(0.0, xi - r) for xi in x]
    box_hi = [min(1.0, xi + r) for xi in x]
    cell_ranges = []
    for blo, bhi in zip(box_lo, box_hi):
        first = max(0, math.ceil(Fraction(blo) * top) - 1)
        last = min(top - 1, math.floor(Fraction(bhi) * top))
        cell_ranges.append(range(first, last + 1))
    emin = math.inf
    emax = -math.inf
    any_cell = False
    cubes = TupleCubeSet.of(f.domain).cubes
    for cell in product(*cell_ranges):
        if not cell_in_domain(f, cubes, cell):
            continue
        any_cell = True
        corner_axes = []
        for k, blo, bhi in zip(cell, box_lo, box_hi):
            a = max(blo, k / top)
            b = min(bhi, (k + 1) / top)
            corner_axes.append((a, b) if b > a else (a,))
        for corner in product(*corner_axes):
            v = evaluate(f, corner, cubes)
            emin = min(emin, v)
            emax = max(emax, v)
    if not any_cell:
        raise ValueError("ball does not meet the domain")
    return lower, max(emax - emin, lower)


def vitali_5r_quadratic(centers, radii):
    """(kept, candidate count, discarded count) of the greedy Vitali 5r pass
    over the 1-d balls [centers[i] -+ radii[i]]: radius descending, ties by
    center, a ball kept when it is disjoint from every ball kept before it.
    kept holds candidate indices in selection order."""
    balls = list(zip(centers, radii))
    order = sorted(range(len(balls)), key=lambda i: (-balls[i][1], balls[i][0]))
    kept = []
    for i in order:
        x, r = balls[i]
        if all(abs(x - balls[k][0]) > r + balls[k][1] for k in kept):
            kept.append(i)
    return tuple(kept), len(balls), len(balls) - len(kept)


def verify_vitali_quadratic(kept, centers, radii) -> None:
    """Every kept pair disjoint; every candidate inside the 5r expansion of a
    kept ball that meets it with a radius at least its own."""
    balls = list(zip(centers, radii))
    for n, i in enumerate(kept):
        for j in kept[n + 1 :]:
            if abs(balls[i][0] - balls[j][0]) <= balls[i][1] + balls[j][1]:
                raise ValueError("kept balls are not pairwise disjoint")
    for x, r in balls:
        if not any(
            abs(x - balls[k][0]) <= r + balls[k][1]
            and balls[k][1] >= r
            and abs(x - balls[k][0]) + r <= 5.0 * balls[k][1]
            for k in kept
        ):
            raise ValueError(f"candidate at {x} escapes every 5r expansion")


@dataclass(frozen=True)
class FractionIntervalUnion:
    """Sorted, merged union of closed intervals with exact rational endpoints,
    one Fraction pair per interval: liplab's IntervalUnion before the
    integer-array layer."""

    intervals: tuple[tuple[Fraction, Fraction], ...]

    @classmethod
    def from_pairs(cls, pairs, *, assume_sorted: bool = False) -> "FractionIntervalUnion":
        items = ((Fraction(a), Fraction(b)) for a, b in pairs)
        if not assume_sorted:
            items = sorted(items)
        merged: list[tuple[Fraction, Fraction]] = []
        last_lo = None
        for a, b in items:
            if b < a or (last_lo is not None and a < last_lo):
                raise ValueError(f"interval endpoints out of order: ({a}, {b})")
            last_lo = a
            if merged and a <= merged[-1][1]:
                if b > merged[-1][1]:
                    merged[-1] = (merged[-1][0], b)
            else:
                merged.append((a, b))
        return cls(tuple(merged))

    @classmethod
    def of(cls, iu) -> "FractionIntervalUnion":
        """A liplab IntervalUnion's intervals, read from its (den, lo, hi)."""
        return cls(tuple(
            (Fraction(a, iu.den), Fraction(b, iu.den)) for a, b in zip(iu.lo.tolist(), iu.hi.tolist())
        ))

    def contains(self, x) -> bool:
        import bisect

        x = Fraction(x)
        i = bisect.bisect_right([a for a, _ in self.intervals], x) - 1
        return i >= 0 and self.intervals[i][1] >= x

    def intersect(self, other: "FractionIntervalUnion") -> "FractionIntervalUnion":
        out = []
        i = j = 0
        a, b = self.intervals, other.intervals
        while i < len(a) and j < len(b):
            lo = max(a[i][0], b[j][0])
            hi = min(a[i][1], b[j][1])
            if lo <= hi:
                out.append((lo, hi))
            if a[i][1] < b[j][1]:
                i += 1
            else:
                j += 1
        return FractionIntervalUnion.from_pairs(out)

    def subset_of(self, other: "FractionIntervalUnion") -> bool:
        return self.uncovered_by(other) is None

    def uncovered_by(self, other: "FractionIntervalUnion") -> Fraction | None:
        """A witness point of self not covered by other, or None."""
        j = 0
        o = other.intervals
        for a, b in self.intervals:
            while j < len(o) and o[j][1] < a:
                j += 1
            if j >= len(o) or o[j][0] > a:
                return a
            d = o[j][1]
            if b > d:
                nxt_lo = o[j + 1][0] if j + 1 < len(o) else None
                hi = b if nxt_lo is None or nxt_lo >= b else nxt_lo
                return (d + hi) / 2
        return None


def fraction_cantor_intervals(depth: int) -> FractionIntervalUnion:
    """Middle-thirds Cantor approximation by repeated Fraction thirds."""
    intervals = [(Fraction(0), Fraction(1))]
    for _ in range(depth):
        nxt = []
        for a, b in intervals:
            third = (b - a) / 3
            nxt.append((a, a + third))
            nxt.append((b - third, b))
        intervals = nxt
    return FractionIntervalUnion.from_pairs(intervals)


def fraction_raster(intervals, depth: int, mode: str) -> frozenset:
    """Index tuples of the depth-grid cubes meeting (overlap) or inside
    (subset) the closed Fraction intervals, one interval at a time."""
    top = 1 << depth
    h = Fraction(1, top)
    cubes: set[tuple[int]] = set()
    for a, b in intervals:
        if mode == "overlap":
            # closed overlap: cube k meets [a,b] iff k*h <= b and (k+1)*h >= a
            lo = max(0, math.ceil(a / h - 1))
            hi = min(top - 1, math.floor(b / h))
        else:
            lo = max(0, math.ceil(a / h))
            hi = min(top - 1, math.floor(b / h) - 1)
        cubes.update((k,) for k in range(lo, hi + 1))
    return frozenset(cubes)


def subset_raster(iu, depth: int) -> frozenset:
    """Index tuples of the depth-grid cubes inside a liplab IntervalUnion,
    from its (den, lo, hi) in Python integers: cube k lies in [lo, hi] / den
    when lo 2^depth <= k den and (k + 1) den <= hi 2^depth.  The library
    rasterizes only the cubes that meet a set."""
    top = 1 << depth
    cubes: set[tuple[int]] = set()
    for lo, hi in zip(iu.lo.tolist(), iu.hi.tolist()):
        first, last = -(-lo * top // iu.den), hi * top // iu.den - 1
        cubes.update((k,) for k in range(max(first, 0), min(last, top - 1) + 1))
    return frozenset(cubes)


def fraction_cube_runs(cubes, depth: int) -> tuple[tuple[Fraction, Fraction], ...]:
    """A 1-d cube set's closed cubes merged into runs of touching cubes."""
    top = 1 << depth
    runs: list[list[int]] = []
    for k in sorted(k[0] for k in cubes):
        if runs and k == runs[-1][1]:
            runs[-1][1] = k + 1
        else:
            runs.append([k, k + 1])
    return tuple((Fraction(a, top), Fraction(b, top)) for a, b in runs)


def fraction_greedy_count(intervals, delta) -> int:
    """N_delta of closed Fraction intervals by the greedy left-to-right sweep,
    one window at a time."""
    d = Fraction(delta)
    count = 0
    cover_end = None
    for a, b in intervals:
        while cover_end is None or b > cover_end:
            start = a if (cover_end is None or a > cover_end) else cover_end
            cover_end = start + d
            count += 1
            if b <= cover_end:
                break
    return count


def greedy_count_sweep(iu, delta: Fraction) -> int:
    """N_delta of an integer-array IntervalUnion by the greedy sweep over
    every interval in Python ints over the common denominator, with no
    closed form for intervals far from their neighbours."""
    L = math.lcm(iu.den, delta.denominator)
    s, d = L // iu.den, delta.numerator * (L // delta.denominator)
    count, end = 0, None
    for a, b in zip(iu.lo.tolist(), iu.hi.tolist()):
        a, b = a * s, b * s
        if end is None or a > end:  # windows from a
            more = max(1, -((a - b) // d))
            end = a + more * d
        elif b > end:  # windows from the end of the last one
            more = -((end - b) // d)
            end += more * d
        else:
            continue
        count += more
    return count


@dataclass(frozen=True)
class TupleCubeSet:
    """Subset of [0,1]^d as grid cubes {k: cube prod_i [k_i 2^-m, (k_i+1) 2^-m]},
    one index tuple per cube: liplab's DyadicCubeSet before the key array."""

    dim: int
    depth: int
    cubes: frozenset[tuple[int, ...]]

    def __post_init__(self) -> None:
        if self.dim < 1 or self.depth < 0:
            raise ValueError("need dim >= 1 and depth >= 0")
        top = 1 << self.depth
        for idx in self.cubes:
            if len(idx) != self.dim or any(k < 0 or k >= top for k in idx):
                raise ValueError(f"cube index {idx} out of range for depth {self.depth}")

    @classmethod
    def of(cls, E) -> "TupleCubeSet":
        """A DyadicCubeSet's cubes, its keys decoded one digit at a time."""
        top = 1 << E.depth
        cubes = set()
        for key in E.keys.tolist():
            idx = []
            for _ in range(E.dim):
                key, k = divmod(key, top)
                idx.append(k)
            cubes.add(tuple(reversed(idx)))
        return cls(E.dim, E.depth, frozenset(cubes))

    @classmethod
    def full(cls, dim: int, depth: int) -> "TupleCubeSet":
        return cls(dim, depth, frozenset(product(range(1 << depth), repeat=dim)))

    @classmethod
    def from_points(cls, dim: int, depth: int, points) -> "TupleCubeSet":
        top = 1 << depth
        cubes = set()
        for p in points:
            # exact for floats: top is a power of two
            cubes.add(tuple(min(max(int(x * top), 0), top - 1) for x in p))
        return cls(dim, depth, frozenset(cubes))

    def refine(self, depth: int) -> "TupleCubeSet":
        shift = depth - self.depth
        offsets = list(product(range(1 << shift), repeat=self.dim))
        cubes = set()
        for idx in self.cubes:
            for off in offsets:
                cubes.add(tuple((k << shift) + o for k, o in zip(idx, off)))
        return TupleCubeSet(self.dim, depth, frozenset(cubes))

    def contains(self, point) -> bool:
        """Closed-cube membership; boundary points belong to every touching cube."""
        top = 1 << self.depth
        axes: list[list[int]] = []
        for x in point:
            if not 0 <= x <= 1:
                return False
            scaled = x * top  # exact for floats: top is a power of two
            k = math.floor(scaled)
            cand = set()
            if k < top:
                cand.add(k)
            if scaled == k and k - 1 >= 0:
                cand.add(k - 1)
            axes.append(sorted(cand))
        return any(idx in self.cubes for idx in product(*axes))


def tuple_cross_power(E: TupleCubeSet, d: int) -> TupleCubeSet:
    """d-cubes with at least one coordinate projection cube in the 1-d set E."""
    e = {k for (k,) in E.cubes}
    cubes = {idx for idx in product(range(1 << E.depth), repeat=d) if any(k in e for k in idx)}
    return TupleCubeSet(d, E.depth, frozenset(cubes))


def tuple_components(E: TupleCubeSet) -> list[tuple[list[Fraction], list[Fraction]]]:
    """Face-connected components of a cube set as bounding boxes (lo, hi per
    axis), by flood fill over index tuples."""
    h = Fraction(1, 1 << E.depth)
    remaining = set(E.cubes)
    comps = []
    while remaining:
        seed = remaining.pop()
        stack = [seed]
        members = [seed]
        while stack:
            cur = stack.pop()
            for axis in range(E.dim):
                for step in (-1, 1):
                    nxt = list(cur)
                    nxt[axis] += step
                    t = tuple(nxt)
                    if t in remaining:
                        remaining.remove(t)
                        stack.append(t)
                        members.append(t)
        lo = [min(c[a] for c in members) * h for a in range(E.dim)]
        hi = [(max(c[a] for c in members) + 1) * h for a in range(E.dim)]
        comps.append((lo, hi))
    return comps


def tuple_read_cube_lines(lines, dim: int, depth: int) -> TupleCubeSet:
    """Index lines read one at a time: a blank line is skipped, and any other
    must hold dim decimal integers naming a cube of this depth, else
    ValueError."""
    cubes = set()
    for line in lines:
        tokens = line.split()
        if not tokens:
            continue
        if len(tokens) != dim or not all(re.fullmatch(r"-?[0-9]+", t) for t in tokens):
            raise ValueError(f"not {dim} integers: {line!r}")
        cubes.add(tuple(int(t) for t in tokens))
    return TupleCubeSet(dim, depth, frozenset(cubes))


def tuple_load_cubes(path) -> TupleCubeSet:
    """A .set file read one line at a time, by tuple_read_cube_lines."""
    with open(path, "r", encoding="utf-8") as f:
        header = f.readline().split()
        return tuple_read_cube_lines(f, int(header[1]), int(header[3]))


def brute_grid_count(cubes, depth: int, delta: Fraction) -> int:
    """Cells of the delta-grid meeting the closed cubes of this depth, one
    cube and one axis at a time in Fractions."""
    cells = set()
    for box in _cell_ranges(cubes, depth, delta):
        cells.update(product(*(range(lo, hi + 1) for lo, hi in box)))
    return len(cells)


def _cell_ranges(cubes, depth: int, delta: Fraction) -> list[list[tuple[int, int]]]:
    """Per cube, per axis, the first and last cells of the delta-grid that
    meet the closed cube, in Fractions: cell j meets [k h, (k+1) h] iff
    j delta <= (k+1) h and (j+1) delta >= k h."""
    h = Fraction(1, 1 << depth)
    top_cells = math.ceil(1 / delta)
    return [[(max(0, math.ceil(k * h / delta) - 1), min(top_cells - 1, math.floor((k + 1) * h / delta)))
             for k in idx] for idx in cubes]


def compressed_grid_count(cubes, depth: int, delta: Fraction) -> int:
    """Cells of the delta-grid meeting the closed cubes: the size of the union
    of the cubes' cell boxes, by coordinate compression.  Each axis is cut
    at every box's ends, and each compressed cell inside some box counts
    the product of its side lengths."""
    boxes = _cell_ranges(cubes, depth, delta)
    if not boxes:
        return 0
    dim = len(boxes[0])
    cuts = [sorted({c for box in boxes for c in (box[a][0], box[a][1] + 1)}) for a in range(dim)]
    total = 0
    for cell in product(*(range(len(c) - 1) for c in cuts)):
        lo = [cuts[a][i] for a, i in enumerate(cell)]
        if any(all(b[a][0] <= lo[a] <= b[a][1] for a in range(dim)) for b in boxes):
            total += math.prod(cuts[a][i + 1] - cuts[a][i] for a, i in enumerate(cell))
    return total


def grid_count_keys(cubes, depth: int, delta: Fraction) -> int:
    """Cells of the delta-grid meeting the closed cubes with these index rows
    (n, d), in integers: cubes with the same (first cell, per-axis span) row
    are taken once, each offset row writes its cells' row-major keys into
    one array, and that array is sorted; so it holds every cell key of
    every distinct row at once.  Python ints where a product would pass
    2^62."""
    def int_dtype(bound: int):
        return np.int64 if bound.bit_length() <= 62 else object

    cubes = np.asarray(cubes, dtype=np.int64)
    if not len(cubes):
        return 0
    p, q = delta.numerator, delta.denominator
    den = p << depth
    side = -(-q // p)
    dim = cubes.shape[1]
    k = cubes.astype(int_dtype(max(p, q) << depth), copy=False)
    dtype = int_dtype((2 * side) ** dim)
    lo = np.maximum(-((-k * q) // den) - 1, 0).astype(dtype, copy=False)
    hi = np.minimum((k + 1) * q // den, side - 1).astype(dtype, copy=False)
    # lo + hi names an axis's (lo, hi) pair, both being nondecreasing in k
    ids = lo[:, 0] + hi[:, 0]
    for a in range(1, dim):
        ids = ids * (2 * side - 1) + lo[:, a] + hi[:, a]
    order = np.argsort(ids, kind="stable")
    ids = ids[order]
    rows = order[np.r_[True, ids[1:] != ids[:-1]]]
    lo, span = lo[rows], hi[rows] - lo[rows]
    step = [side**a for a in reversed(range(dim))]
    first = lo @ np.array(step, dtype=dtype)
    keys = np.empty(int(np.prod(span + 1, axis=1).sum()), dtype=dtype)
    at = 0
    for offsets in product(range(int(span.max()) + 1), repeat=dim):
        reach = None  # the rows whose span covers every nonzero offset
        for a, o in enumerate(offsets):
            if o:
                reach = span[:, a] >= o if reach is None else reach & (span[:, a] >= o)
        cells = first if reach is None else first[reach]
        np.add(cells, sum(o * s for o, s in zip(offsets, step)), out=keys[at : at + len(cells)])
        at += len(cells)
    keys.sort()
    return 1 + int(np.count_nonzero(keys[1:] != keys[:-1]))


def cube_lines_one_pass(E) -> str:
    """The index lines of a DyadicCubeSet's cubes in key order, one line per
    cube, in one %-formatting pass over every index."""
    line = " ".join(["%d"] * E.dim) + "\n"
    return (line * len(E)) % tuple(E.indices().ravel().tolist())


@dataclass(frozen=True)
class FractionBoxCover:
    """Closed boxes as tuples of (lo, hi) Fraction pairs, one per axis;
    diameters (longest sides) and volumes in Fractions."""

    dim: int
    boxes: tuple

    @classmethod
    def of(cls, cover) -> "FractionBoxCover":
        """The boxes of a library BoxCover, read from its numerator arrays."""
        return cls(cover.dim, tuple(
            tuple((Fraction(a, cover.den), Fraction(b, cover.den)) for a, b in zip(lo, hi))
            for lo, hi in zip(cover.lo.tolist(), cover.hi.tolist())
        ))

    def __post_init__(self) -> None:
        boxes = tuple(tuple((Fraction(lo), Fraction(hi)) for lo, hi in box) for box in self.boxes)
        object.__setattr__(self, "boxes", boxes)

    def diameter(self, i: int) -> Fraction:
        return max(hi - lo for lo, hi in self.boxes[i])

    def volume(self, i: int) -> Fraction:
        v = Fraction(1)
        for lo, hi in self.boxes[i]:
            v *= hi - lo
        return v

    def diameters(self) -> list[Fraction]:
        return [self.diameter(i) for i in range(len(self.boxes))]


def box_contains_cube(box, lo, hi) -> bool:
    return all(bl <= l and h <= bh for (bl, bh), l, h in zip(box, lo, hi))


def covered_recursive(boxes, lo, hi, depth_left: int):
    """Is the closed box [lo,hi] covered by the union of boxes? Returns witness or None."""
    touching = [b for b in boxes if all(bl <= h and l <= bh for (bl, bh), l, h in zip(b, lo, hi))]
    for b in touching:
        if box_contains_cube(b, lo, hi):
            return None
    if not touching or depth_left == 0:
        return tuple(float((l + h) / 2) for l, h in zip(lo, hi))
    mids = [(l + h) / 2 for l, h in zip(lo, hi)]
    for corner in product(*[(0, 1)] * len(lo)):
        clo = [l if c == 0 else m for c, l, m in zip(corner, lo, mids)]
        chi = [m if c == 0 else h for c, m, h in zip(corner, mids, hi)]
        witness = covered_recursive(touching, clo, chi, depth_left - 1)
        if witness is not None:
            return witness
    return None


def bisection_uncovered(cubes, depth: int, boxes, depth_left: int = 12):
    """The first cube (index tuples, in the given order) that the bisection
    cannot prove covered by the Fraction boxes, as a float point near the
    gap, or None.  Sound, not complete: it proves a cube covered only when
    each piece of some bisection lies in one box, so a cube split by boxes
    at a non-dyadic coordinate is never proved covered."""
    h = Fraction(1, 1 << depth)
    for idx in cubes:
        witness = covered_recursive(boxes, [k * h for k in idx], [(k + 1) * h for k in idx], depth_left)
        if witness is not None:
            return witness
    return None


def brute_uncovered_point(cubes, depth: int, boxes):
    """A point of the closed cubes (index tuples) in no closed Fraction box,
    or None, by brute force: with every box and cube endpoint as a cut, an
    open cell lies in a box or misses it, so the cells' centres decide."""
    h = Fraction(1, 1 << depth)
    cuts = [
        sorted({x for box in boxes for x in box[a]} | {k * h for idx in cubes for k in (idx[a], idx[a] + 1)})
        for a in range(len(cubes[0]))
    ]
    for idx in cubes:
        axes = [
            [(a + b) / 2 for a, b in zip(c, c[1:]) if k * h <= a and b <= (k + 1) * h]
            for c, k in zip(cuts, idx)
        ]
        for p in product(*axes):
            if not any(all(lo <= x <= hi for (lo, hi), x in zip(box, p)) for box in boxes):
                return p
    return None


def fn_text_one_pass(f) -> str:
    """The .fn text of a SampledFunction as one string, every vertex value
    formatted on its own with %.17g, with no run detection or chunking."""
    head = f"d {f.dim} m {f.depth} domain {len(f.domain)}\ndomain_depth {f.domain.depth}\n"
    cubes = "".join(" ".join(map(str, row)) + "\n" for row in f.domain.indices().tolist())
    values = ("%.17g\n" * f.values.size) % tuple(f.values.ravel().tolist())
    tail = f.modulus.serialize() + ("\nexact 1\n" if f.exact else "\n")
    return head + cubes + "values\n" + values + tail


def fn_read_line_by_line(path):
    """(values, modulus line, exact) of a .fn file, reading one line at a
    time and calling float() on every value line."""
    with open(path, "r", encoding="utf-8") as fh:
        _, dim, _, depth, _, count = fh.readline().split()
        fh.readline()  # domain_depth
        for _ in range(int(count)):
            fh.readline()
        assert fh.readline().strip() == "values"
        n = (1 << int(depth)) + 1
        values = np.fromiter(map(float, islice(fh, n ** int(dim))), float, n ** int(dim))
        rest = [line.strip() for line in fh if line.strip()]
    modulus = [line for line in rest if line.startswith("modulus ")]
    return values.reshape((n,) * int(dim)), modulus[-1], "exact 1" in rest


def table_gauge_step(rs, gs, r: float) -> float:
    """Right-continuous step: the value at the largest knot <= r, by scanning
    every knot (r at or above the first knot)."""
    idx = 0
    for i, knot in enumerate(rs):
        if knot <= r:
            idx = i
        else:
            break
    return gs[idx]


def stage_values_whole_grid(values, lo_v, hi_v, anchors, eps: float):
    """(values, worst plateau offset) of one 1-d stage over the whole grid
    in one pass: the profile is f at each anchor on the plateau lo_v..hi_v
    and linear across the gaps; g - f is clamped to [-eps, eps] and plateau
    vertices in the domain carry the profile bitwise."""
    top = values.size - 1
    xp = np.ravel(np.column_stack((lo_v, hi_v))).astype(np.float64)
    fp = np.repeat(values[anchors], 2)
    g = np.interp(np.arange(top + 1, dtype=np.float64), xp, fp)
    h = g - values
    mark = np.zeros(top + 2, dtype=np.int64)
    np.add.at(mark, lo_v, 1)
    np.add.at(mark, hi_v + 1, -1)
    mask = np.cumsum(mark)[: top + 1] > 0
    with np.errstate(invalid="ignore"):
        worst = float(np.nanmax(np.abs(np.where(mask, h, 0.0))))
    np.clip(h, -eps, eps, out=h)
    return np.where(mask & ~np.isnan(values), g, values + h), worst


def build_stage_whole_grid(values, depth: int, params, kept, eps: float):
    """One 1-d stage in its whole-grid form, the reference for the streamed
    stage chain: the input values (depth, NaN off the domain) refined to the
    stage depth max(depth, params.required_depth()) by resample_linspace,
    the plateau ranges of the kept cubes by fraction_plateau_range, each
    anchored at its center vertex or, where that is NaN, at its least
    domain vertex, then stage_values_whole_grid.  Returns (values, depth,
    BLAKE2b hex digest of the values, grid Lipschitz constant); a plateau
    offset above eps raises ValueError naming it."""
    m = max(depth, params.required_depth())
    if m > depth:
        values = resample_linspace(values, m)
    ranges = [fraction_plateau_range(params.k, params.eta, m, int(j)) for j in kept]
    anchors = []
    for lo, hi, center in ranges:
        if np.isnan(values[center]):
            center = lo + int(np.flatnonzero(~np.isnan(values[lo : hi + 1]))[0])
        anchors.append(center)
    lo_v, hi_v = (np.array([r[i] for r in ranges]) for i in (0, 1))
    g, worst = stage_values_whole_grid(values, lo_v, hi_v, np.array(anchors), eps)
    if worst > eps:
        raise ValueError(f"plateau offset {worst:g} exceeds eps={eps:g}")
    digest = hashlib.blake2b(g.tobytes(), digest_size=32).hexdigest()
    return g, m, digest, grid_lipschitz_whole(g, 2.0**-m)


def resample_linspace(values, depth: int):
    """1-d values refined to the depth grid by np.interp between two
    np.linspace grids, in one pass."""
    new_grid = np.linspace(0.0, 1.0, (1 << depth) + 1)
    return np.interp(new_grid, np.linspace(0.0, 1.0, values.size), values)


def grid_lipschitz_whole(values, h: float) -> float:
    """Sum over the axes of the NaN-ignoring largest |adjacent difference|
    (0 for an axis with none), over h, each axis differenced at once."""
    total = 0.0
    for axis in range(values.ndim):
        diffs = np.abs(np.diff(values, axis=axis))
        with warnings.catch_warnings():  # an all-NaN axis counts 0
            warnings.simplefilter("ignore", RuntimeWarning)
            mx = np.nanmax(diffs) if diffs.size else 0.0
        total += 0.0 if math.isnan(mx) else float(mx)
    return total / h


def weierstrass_grid_per_term(a: float, b: int, terms: int, depth: int):
    """The Weierstrass grid with one np.cos pass over all 2^depth + 1
    reduced arguments per term."""
    top = 1 << depth
    idx = np.arange(top + 1, dtype=np.int64)
    total = np.zeros(top + 1)
    for n in range(terms):
        bn = pow(b, n, top) if top > 1 else 0
        frac = ((bn * idx) % top).astype(np.float64) / top
        total += a**n * np.cos(2.0 * math.pi * frac)
    return total
