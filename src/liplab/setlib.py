"""Finite set representations on [0,1]^d and the cover/dimension machinery.

Two representations carry everything: DyadicCubeSet (grid cubes at a dyadic
depth, any dimension) and IntervalUnion (exact rational closed intervals,
dimension 1).  All 1-d counting is exact over Fractions; d >= 2 box counting
uses grid-aligned cells and is flagged `grid-proxy`.  Diameters are max-norm
throughout, so a box's diameter is its longest side.
"""

from __future__ import annotations

import math
import os
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iter_product
from typing import Iterable, Sequence

import numpy as np

from .gauges import Gauge, GaugeLike, Pseudogauge, gauge_at_diameter

# the process umask, read once (os.umask can only be read by setting it)
_UMASK = os.umask(0o022)
os.umask(_UMASK)

__all__ = [
    "IntervalUnion",
    "DyadicCubeSet",
    "BoxCover",
    "CoverRecord",
    "CoverageError",
    "n_delta",
    "lower_box_premeasure",
    "lower_box_dim",
    "hausdorff_upper",
    "cross_power",
    "cross_product",
    "cross_power_contains",
    "product_lemma_check",
    "microscopic_certificate",
    "microscopic_verify",
    "micro_from_hzeta",
    "cantor_intervals",
    "cantor_natural_cover",
    "points_union",
    "save_cubes",
    "load_cubes",
    "save_cover",
    "load_cover",
]

Number = float | int | Fraction
MAX_CROSS_CUBES = 1 << 22


class CoverageError(ValueError):
    """A claimed cover misses part of the set; carries a witness point."""

    def __init__(self, message: str, witness):
        super().__init__(message)
        self.witness = witness


def _frac(x: Number) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


# ---------------------------------------------------------------------------
# IntervalUnion: exact closed interval unions on the line


@dataclass(frozen=True)
class IntervalUnion:
    """Sorted, merged union of closed intervals with exact rational endpoints."""

    intervals: tuple[tuple[Fraction, Fraction], ...]

    @classmethod
    def from_pairs(
        cls, pairs: Iterable[tuple[Number, Number]], *, assume_sorted: bool = False
    ) -> "IntervalUnion":
        items = ((_frac(a), _frac(b)) for a, b in pairs)
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
    def empty(cls) -> "IntervalUnion":
        return cls(())

    @property
    def is_empty(self) -> bool:
        return not self.intervals

    def measure(self) -> Fraction:
        return sum((b - a for a, b in self.intervals), Fraction(0))

    def hull(self) -> tuple[Fraction, Fraction] | None:
        if not self.intervals:
            return None
        return self.intervals[0][0], self.intervals[-1][1]

    def contains(self, x: Number) -> bool:
        import bisect

        x = _frac(x)
        starts = self._starts()
        i = bisect.bisect_right(starts, x) - 1
        return i >= 0 and self.intervals[i][1] >= x

    def _starts(self) -> list[Fraction]:
        cached = getattr(self, "_starts_cache", None)
        if cached is None:
            cached = [a for a, _ in self.intervals]
            object.__setattr__(self, "_starts_cache", cached)
        return cached

    def union(self, other: "IntervalUnion") -> "IntervalUnion":
        return IntervalUnion.from_pairs(list(self.intervals) + list(other.intervals))

    def intersect(self, other: "IntervalUnion") -> "IntervalUnion":
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
        return IntervalUnion.from_pairs(out)

    def complement_within(self, lo: Number, hi: Number) -> "IntervalUnion":
        """Closure of [lo,hi] minus this union."""
        lo, hi = _frac(lo), _frac(hi)
        out = []
        cursor = lo
        for a, b in self.intervals:
            if b < lo:
                continue
            if a > hi:
                break
            if a > cursor:
                out.append((cursor, min(a, hi)))
            cursor = max(cursor, b)
            if cursor >= hi:
                break
        if cursor < hi:
            out.append((cursor, hi))
        return IntervalUnion.from_pairs(out)

    def subset_of(self, other: "IntervalUnion") -> bool:
        return self.uncovered_by(other) is None

    def uncovered_by(self, other: "IntervalUnion") -> Fraction | None:
        """A witness point of self not covered by other, or None.

        Relies on both unions being normalized: components of `other` are
        separated by positive gaps, so a component of self starting inside
        other[j] is covered iff it also ends inside other[j].
        """
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


def points_union(points: Iterable[Number]) -> IntervalUnion:
    """Finite point set as degenerate closed intervals."""
    return IntervalUnion.from_pairs((p, p) for p in points)


def cantor_intervals(depth: int) -> IntervalUnion:
    """Middle-thirds Cantor approximation: 2^depth triadic intervals, exact."""
    intervals = [(Fraction(0), Fraction(1))]
    for _ in range(depth):
        nxt = []
        for a, b in intervals:
            third = (b - a) / 3
            nxt.append((a, a + third))
            nxt.append((b - third, b))
        intervals = nxt
    return IntervalUnion.from_pairs(intervals)


# ---------------------------------------------------------------------------
# DyadicCubeSet


@dataclass(frozen=True)
class DyadicCubeSet:
    """Subset of [0,1]^d as grid cubes {k: cube prod_i [k_i 2^-m, (k_i+1) 2^-m]}."""

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
    def from_indices(cls, dim: int, depth: int, indices: Iterable[Sequence[int]]) -> "DyadicCubeSet":
        return cls(dim, depth, frozenset(tuple(i) for i in indices))

    @classmethod
    def empty(cls, dim: int, depth: int) -> "DyadicCubeSet":
        return cls(dim, depth, frozenset())

    @classmethod
    def full(cls, dim: int, depth: int) -> "DyadicCubeSet":
        top = 1 << depth
        return cls(dim, depth, frozenset(iter_product(range(top), repeat=dim)))

    @classmethod
    def from_points(cls, dim: int, depth: int, points: Iterable[Sequence[Number]]) -> "DyadicCubeSet":
        top = 1 << depth
        cubes = set()
        for p in points:
            idx = []
            for x in p:
                k = int(_frac(x) * top)
                idx.append(min(max(k, 0), top - 1))
            cubes.add(tuple(idx))
        return cls(dim, depth, frozenset(cubes))

    @classmethod
    def from_interval_union(
        cls, iu: IntervalUnion, depth: int, mode: str = "overlap"
    ) -> "DyadicCubeSet":
        """Rasterize a 1-d set: cubes meeting it (overlap) or inside it (subset)."""
        top = 1 << depth
        h = Fraction(1, top)
        cubes: set[tuple[int]] = set()
        for a, b in iu.intervals:
            if mode == "overlap":
                # closed overlap: cube k meets [a,b] iff k*h <= b and (k+1)*h >= a
                lo = max(0, math.ceil(a / h - 1))
                hi = min(top - 1, math.floor(b / h))
                for k in range(lo, hi + 1):
                    cubes.add((k,))
            elif mode == "subset":
                lo = math.ceil(a / h)
                hi = math.floor(b / h) - 1
                for k in range(max(0, lo), min(top - 1, hi) + 1):
                    cubes.add((k,))
            else:
                raise ValueError(f"unknown rasterization mode {mode!r}")
        return cls(1, depth, frozenset(cubes))

    def __len__(self) -> int:
        return len(self.cubes)

    @property
    def is_empty(self) -> bool:
        return not self.cubes

    @property
    def side(self) -> Fraction:
        return Fraction(1, 1 << self.depth)

    def refine(self, depth: int) -> "DyadicCubeSet":
        if depth < self.depth:
            raise ValueError("refine target must be >= current depth")
        shift = depth - self.depth
        if shift == 0:
            return self
        offsets = list(iter_product(range(1 << shift), repeat=self.dim))
        cubes = set()
        for idx in self.cubes:
            base = tuple(k << shift for k in idx)
            for off in offsets:
                cubes.add(tuple(b + o for b, o in zip(base, off)))
        return DyadicCubeSet(self.dim, depth, frozenset(cubes))

    def coarsen(self, depth: int) -> "DyadicCubeSet":
        """Cube hull at a coarser depth: parent kept if any child is present."""
        if depth > self.depth:
            raise ValueError("coarsen target must be <= current depth")
        shift = self.depth - depth
        return DyadicCubeSet(
            self.dim, depth, frozenset(tuple(k >> shift for k in idx) for idx in self.cubes)
        )

    def contains(self, point: Sequence[Number]) -> bool:
        """Closed-cube membership; boundary points belong to every touching cube."""
        if len(point) != self.dim:
            raise ValueError("point dimension mismatch")
        top = 1 << self.depth
        axes: list[list[int]] = []
        for x in point:
            x = _frac(x)
            if x < 0 or x > 1:
                return False
            scaled = x * top
            k = math.floor(scaled)
            cand = set()
            if k < top:
                cand.add(k)
            if scaled == k and k - 1 >= 0:
                cand.add(k - 1)
            if k == top:
                cand.add(top - 1)
            axes.append(sorted(cand))
        return any(idx in self.cubes for idx in iter_product(*axes))

    def to_interval_union(self) -> IntervalUnion:
        if self.dim != 1:
            raise ValueError("interval form exists only in dimension 1")
        h = self.side
        return IntervalUnion.from_pairs(((k[0] * h, (k[0] + 1) * h) for k in self.cubes))

    def union(self, other: "DyadicCubeSet") -> "DyadicCubeSet":
        a, b = _common_depth(self, other)
        return DyadicCubeSet(a.dim, a.depth, a.cubes | b.cubes)

    def issubset(self, other: "DyadicCubeSet") -> bool:
        a, b = _common_depth(self, other)
        return a.cubes <= b.cubes


def _common_depth(a: DyadicCubeSet, b: DyadicCubeSet) -> tuple[DyadicCubeSet, DyadicCubeSet]:
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    depth = max(a.depth, b.depth)
    return a.refine(depth), b.refine(depth)


def _as_interval_union(E) -> IntervalUnion:
    if isinstance(E, IntervalUnion):
        return E
    if isinstance(E, DyadicCubeSet):
        return E.to_interval_union()
    return IntervalUnion.from_pairs(E)


# ---------------------------------------------------------------------------
# BoxCover / CoverRecord


@dataclass(frozen=True)
class BoxCover:
    """Ordered list of axis-aligned closed boxes, each within [-1, 2]^d.

    Endpoints may be floats or exact Fractions; diameters and volumes are
    computed from the stored endpoints with exact rational arithmetic, so the
    recorded values match the interval data exactly.
    """

    dim: int
    boxes: tuple[tuple[tuple[Number, Number], ...], ...]

    def __post_init__(self) -> None:
        for box in self.boxes:
            if len(box) != self.dim:
                raise ValueError("box dimension mismatch")
            for lo, hi in box:
                if hi < lo:
                    raise ValueError(f"box side out of order: ({lo}, {hi})")
                if lo < -1 or hi > 2:
                    raise ValueError("boxes must lie within [-1, 2]^d")

    @classmethod
    def from_intervals(cls, pairs: Iterable[tuple[Number, Number]]) -> "BoxCover":
        return cls(1, tuple(((a, b),) for a, b in pairs))

    def diameter(self, i: int) -> Fraction:
        return max(_frac(hi) - _frac(lo) for lo, hi in self.boxes[i])

    def volume(self, i: int) -> Fraction:
        v = Fraction(1)
        for lo, hi in self.boxes[i]:
            v *= _frac(hi) - _frac(lo)
        return v

    def diameters(self) -> list[Fraction]:
        return [self.diameter(i) for i in range(len(self.boxes))]

    def __len__(self) -> int:
        return len(self.boxes)

    def interval_union(self) -> IntervalUnion:
        if self.dim != 1:
            raise ValueError("interval form exists only in dimension 1")
        return IntervalUnion.from_pairs((lo, hi) for ((lo, hi),) in self.boxes)


@dataclass(frozen=True)
class CoverRecord:
    """A cover together with its gauge sum; an upper bound artifact for H^g."""

    cover: BoxCover
    gauge: GaugeLike
    total: float
    delta: float  # max diameter over the cover

    def __post_init__(self) -> None:
        check = math.fsum(
            gauge_at_diameter(self.gauge, float(d)) for d in self.cover.diameters()
        )
        scale = max(abs(self.total), abs(check), 1e-300)
        if abs(check - self.total) > 1e-12 * scale:
            raise ValueError("stored gauge sum does not match the cover")

    @classmethod
    def build(cls, cover: BoxCover, gauge: GaugeLike) -> "CoverRecord":
        diams = cover.diameters()
        total = math.fsum(gauge_at_diameter(gauge, float(d)) for d in diams)
        return cls(cover, gauge, total, float(max(diams, default=0.0)))


# ---------------------------------------------------------------------------
# Box-counting


@dataclass(frozen=True)
class NDeltaResult:
    count: int
    mode: str  # "exact-1d" | "grid-proxy"

    def __int__(self) -> int:
        return self.count


def n_delta(E, delta: Number) -> NDeltaResult:
    """Box-counting function N_delta.

    Dimension 1: exact minimal number of closed sets of diameter <= delta
    covering E (greedy left-to-right sweep over the interval representation,
    which is optimal).  Dimension >= 2: number of cells of the delta-grid
    meeting E, flagged `grid-proxy`.
    """
    d = _frac(delta)
    if d <= 0:
        raise ValueError("delta must be positive")
    if isinstance(E, DyadicCubeSet) and E.dim >= 2:
        return NDeltaResult(_grid_count(E, d), "grid-proxy")
    iu = _as_interval_union(E)
    if iu.is_empty:
        return NDeltaResult(0, "exact-1d")
    count = 0
    cover_end: Fraction | None = None
    for a, b in iu.intervals:
        while cover_end is None or b > cover_end:
            start = a if (cover_end is None or a > cover_end) else cover_end
            cover_end = start + d
            count += 1
            if b <= cover_end:
                break
    return NDeltaResult(count, "exact-1d")


def _grid_count(E: DyadicCubeSet, delta: Fraction) -> int:
    if E.is_empty:
        return 0
    den = delta.denominator
    if delta.numerator == 1 and den & (den - 1) == 0 and den <= (1 << E.depth):
        return _grid_count_dyadic(E, den.bit_length() - 1)
    h = E.side
    top_cells = math.ceil(1 / delta)
    cells: set[tuple[int, ...]] = set()
    for idx in E.cubes:
        ranges = []
        for k in idx:
            lo_edge = k * h
            hi_edge = (k + 1) * h
            # cell j meets the cube iff j*delta <= hi_edge and (j+1)*delta >= lo_edge
            jmin = max(0, math.ceil(lo_edge / delta - 1))
            jmax = min(top_cells - 1, math.floor(hi_edge / delta))
            ranges.append(range(jmin, jmax + 1))
        cells.update(iter_product(*ranges))
    return len(cells)


def _grid_count_dyadic(E: DyadicCubeSet, j: int) -> int:
    """Cells of the 2^-j grid meeting E, vectorized; closed cubes touch the
    neighboring cell whenever an edge lands on a cell boundary."""
    t = E.depth - j
    top_cells = 1 << j
    idx = np.array(sorted(E.cubes), dtype=np.int64).reshape(len(E.cubes), E.dim)
    aligned = (idx & ((1 << t) - 1)) == 0  # cube edge on a cell boundary
    lo = np.where(aligned, (idx >> t) - 1, idx >> t)
    hi = (idx + 1) >> t
    np.clip(lo, 0, top_cells - 1, out=lo)
    np.clip(hi, 0, top_cells - 1, out=hi)
    seen = None
    width = int((hi - lo).max()) if len(idx) else 0
    combos = iter_product(range(width + 1), repeat=E.dim)
    pieces = []
    for offsets in combos:
        cells = lo + np.array(offsets, dtype=np.int64)
        valid = np.all(cells <= hi, axis=1)
        if not np.any(valid):
            continue
        enc = np.zeros(int(valid.sum()), dtype=np.int64)
        for axis in range(E.dim):
            enc = enc * top_cells + cells[valid, axis]
        pieces.append(enc)
    seen = np.unique(np.concatenate(pieces))
    return int(len(seen))


@dataclass(frozen=True)
class PremeasureReport:
    """Scanned proxy for the lower box-counting premeasure.

    `value` is min over scanned delta <= eps of N_delta(E) * zeta(delta): an
    upper bound of the true inf over scanned scales.
    """

    value: float
    entries: tuple[tuple[float, int, float, float], ...]  # (delta, N, zeta, product)
    eps: float
    mode: str
    empty: bool = False
    label: str = "upper bound of the true inf over scanned scales"
    norm: str = "max"  # Euclidean diameters differ by <= sqrt(d), a bounded
    # gauge-dependent factor for doubling gauges


def lower_box_premeasure(E, zeta: GaugeLike, eps: float, scales: Sequence[Number]) -> PremeasureReport:
    scanned = [s for s in scales if float(s) <= eps or eps == math.inf]
    if not scanned:
        raise ValueError("no scanned scale lies below eps")
    entries = []
    mode = "exact-1d"
    empty = isinstance(E, DyadicCubeSet) and E.is_empty or (
        isinstance(E, IntervalUnion) and E.is_empty
    )
    for s in scanned:
        res = n_delta(E, s)
        mode = res.mode
        z = zeta.eval(float(s))
        entries.append((float(s), res.count, z, res.count * z))
    value = 0.0 if empty else min(p for _, _, _, p in entries)
    return PremeasureReport(value, tuple(entries), eps, mode, empty)


@dataclass(frozen=True)
class DimensionReport:
    """Lower box dimension proxies from a scanned scale grid."""

    lbdim_proxy: float  # min of log N / |log r| over the deepest half (liminf proxy)
    slope: float  # least-squares slope of log N against |log r|, diagnostic
    entries: tuple[tuple[float, int, float], ...]  # (r, N, ratio)
    mode: str
    empty: bool = False


def lower_box_dim(E, scales: Sequence[Number]) -> DimensionReport:
    scales = list(scales)
    if len(scales) < 6:
        raise ValueError("need at least 6 scales")
    entries = []
    mode = "exact-1d"
    for s in scales:
        res = n_delta(E, s)
        mode = res.mode
        r = float(s)
        ratio = math.log(res.count) / abs(math.log(r)) if res.count > 0 else 0.0
        entries.append((r, res.count, ratio))
    if all(n == 0 for _, n, _ in entries):
        return DimensionReport(0.0, 0.0, tuple(entries), mode, empty=True)
    tail = entries[len(entries) // 2 :]
    proxy = min(ratio for _, _, ratio in tail)
    xs = np.array([abs(math.log(r)) for r, n, _ in entries if n > 0])
    ys = np.array([math.log(n) for _, n, _ in entries if n > 0])
    slope = float(np.polyfit(xs, ys, 1)[0]) if len(xs) >= 2 else 0.0
    return DimensionReport(proxy, slope, tuple(entries), mode)


# ---------------------------------------------------------------------------
# Hausdorff upper bounds


def _natural_cover(E: DyadicCubeSet) -> BoxCover:
    h = float(E.side)
    boxes = tuple(
        tuple((k * h, (k + 1) * h) for k in idx) for idx in sorted(E.cubes)
    )
    return BoxCover(E.dim, boxes)


def _check_cover_1d(E, cover: BoxCover) -> None:
    iu = _as_interval_union(E)
    witness = iu.uncovered_by(cover.interval_union())
    if witness is not None:
        raise CoverageError(f"cover misses the set at x={float(witness)}", float(witness))


def _box_contains_cube(box, lo: Sequence[Fraction], hi: Sequence[Fraction]) -> bool:
    return all(_frac(bl) <= l and h <= _frac(bh) for (bl, bh), l, h in zip(box, lo, hi))


def _covered_recursive(boxes, lo, hi, depth_left: int):
    """Is the closed box [lo,hi] covered by the union of boxes? Returns witness or None."""
    touching = [
        b
        for b in boxes
        if all(_frac(bl) <= h and l <= _frac(bh) for (bl, bh), l, h in zip(b, lo, hi))
    ]
    for b in touching:
        if _box_contains_cube(b, lo, hi):
            return None
    if not touching or depth_left == 0:
        return tuple(float((l + h) / 2) for l, h in zip(lo, hi))
    mids = [(l + h) / 2 for l, h in zip(lo, hi)]
    for corner in iter_product(*[(0, 1)] * len(lo)):
        clo = [l if c == 0 else m for c, l, m in zip(corner, lo, mids)]
        chi = [m if c == 0 else h for c, m, h in zip(corner, mids, hi)]
        witness = _covered_recursive(touching, clo, chi, depth_left - 1)
        if witness is not None:
            return witness
    return None


def _check_cover(E, cover: BoxCover) -> None:
    if isinstance(E, (IntervalUnion,)) or (isinstance(E, DyadicCubeSet) and E.dim == 1):
        _check_cover_1d(E, cover)
        return
    h = E.side
    for idx in E.cubes:
        lo = [k * h for k in idx]
        hi = [(k + 1) * h for k in idx]
        witness = _covered_recursive(cover.boxes, lo, hi, depth_left=12)
        if witness is not None:
            raise CoverageError(f"cover misses the set near {witness}", witness)


def hausdorff_upper(E, g: GaugeLike, cover: BoxCover | None = None) -> CoverRecord:
    """Sum(g(diam)) over a verified cover: an upper bound for H^g at delta = max diam.

    With cover=None the natural dyadic cover at the set's depth is used
    (DyadicCubeSet input only).  Never a lower bound.
    """
    if cover is None:
        if not isinstance(E, DyadicCubeSet):
            raise ValueError("auto cover needs a DyadicCubeSet")
        cover = _natural_cover(E)
    _check_cover(E, cover)
    return CoverRecord.build(cover, g)


# ---------------------------------------------------------------------------
# Cross products and powers


def cross_power(E: DyadicCubeSet, d: int, max_cubes: int = MAX_CROSS_CUBES) -> DyadicCubeSet:
    """E^(cross d): d-cubes with at least one coordinate projection cube in E."""
    if E.dim != 1:
        raise ValueError("cross power takes a 1-d set")
    if d < 1:
        raise ValueError("need d >= 1")
    top = 1 << E.depth
    e = frozenset(k[0] for k in E.cubes)
    inside = len(e)
    total = top**d - (top - inside) ** d
    if total > max_cubes:
        raise ValueError(f"cross power would hold {total} cubes (limit {max_cubes})")
    if d == 1:
        return E
    others = [k for k in range(top) if k not in e]
    cubes: set[tuple[int, ...]] = set()
    full = range(top)
    for axis in range(d):
        # first coordinate hitting E at `axis` avoids double counting
        pools: list[Sequence[int]] = [others] * axis + [sorted(e)] + [full] * (d - axis - 1)
        cubes.update(iter_product(*pools))
    return DyadicCubeSet(d, E.depth, frozenset(cubes))


def cross_product(E: DyadicCubeSet, F: DyadicCubeSet, max_cubes: int = MAX_CROSS_CUBES) -> DyadicCubeSet:
    """E bowtie F = (E x Y) u (X x F) at cube level."""
    if E.depth != F.depth:
        depth = max(E.depth, F.depth)
        E, F = E.refine(depth), F.refine(depth)
    top = 1 << E.depth
    dim = E.dim + F.dim
    total = len(E.cubes) * top**F.dim + top**E.dim * len(F.cubes)
    if total > max_cubes:
        raise ValueError(f"cross product would hold up to {total} cubes (limit {max_cubes})")
    cubes: set[tuple[int, ...]] = set()
    for e in E.cubes:
        for f in iter_product(range(top), repeat=F.dim):
            cubes.add(e + f)
    for f in F.cubes:
        for e in iter_product(range(top), repeat=E.dim):
            cubes.add(e + f)
    return DyadicCubeSet(dim, E.depth, frozenset(cubes))


def cross_power_contains(E, point: Sequence[Number]) -> bool:
    """Membership in E^(cross d) for 1-d E: some coordinate lies in E."""
    if isinstance(E, DyadicCubeSet):
        return any(E.contains((x,)) for x in point)
    iu = _as_interval_union(E)
    return any(iu.contains(x) for x in point)


# ---------------------------------------------------------------------------
# Product lemma check (pseudogauge route for E x [0,1]^m)


@dataclass(frozen=True)
class ProductLemmaReport:
    ok: bool
    entries: tuple[tuple[float, int, float, float, bool], ...]
    # (r, N_r(E_n), right = N * zeta(r), left product-cover bound, inequality ok)
    note: str = "left side is the constructive product-cover upper bound"


def product_lemma_check(
    chain: Sequence, psi: Gauge, m: int, scales: Sequence[Number]
) -> ProductLemmaReport:
    """Check the product-cover inequality behind the codimension lemma.

    For E_n increasing, covers of E_n by N_r sets of diameter r cross a grid of
    ceil(1/r)^m cells give pieces of diameter r*sqrt(m+1); the check is
    left <= right * (1+r)^m per scale with zeta the induced pseudogauge.
    """
    sets = [_as_interval_union(E) for E in chain]
    for a, b in zip(sets, sets[1:]):
        if not a.subset_of(b):
            raise ValueError("chain is not increasing")
    if len(sets) == 1:
        sets = sets * len(scales)
    if len(sets) != len(scales):
        raise ValueError("need one set per scale (or a single set)")
    zeta = Pseudogauge(psi, m)
    entries = []
    ok = True
    for E, s in zip(sets, scales):
        r = float(s)
        count = n_delta(E, s).count
        right = count * zeta.eval(r)
        cells = math.ceil(1.0 / r)
        left = count * cells**m * psi.eval(r * math.sqrt(m + 1))
        good = left <= right * (1.0 + r) ** m * (1.0 + 1e-12)
        ok = ok and good
        entries.append((r, count, right, left, good))
    return ProductLemmaReport(ok, tuple(entries))


# ---------------------------------------------------------------------------
# Microscopic sets


@dataclass(frozen=True)
class MicroCertificate:
    ok: bool
    eps: float
    cover: BoxCover | None
    assignments: tuple[tuple[int, float], ...]  # (index n, component volume)
    failure: str | None = None


def _components(E) -> list[tuple[list[Fraction], list[Fraction]]]:
    """Connected components as bounding boxes (lo, hi per axis)."""
    if isinstance(E, (IntervalUnion,)) or (isinstance(E, DyadicCubeSet) and E.dim == 1):
        iu = _as_interval_union(E)
        return [([a], [b]) for a, b in iu.intervals]
    assert isinstance(E, DyadicCubeSet)
    h = E.side
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


def _inflate(lo: list[float], hi: list[float], target: float) -> tuple[tuple[float, float], ...]:
    """Grow a bbox to volume ~= target (never shrinking), kept within [-1,2]."""
    sides = [h - l for l, h in zip(lo, hi)]
    d = len(sides)
    vol = math.prod(sides)
    target = target * (1.0 - 1e-13)  # stay strictly inside the budget after rounding
    if vol < target:
        zeros = [i for i, s in enumerate(sides) if s == 0.0]
        if zeros:
            nonzero = math.prod(s for s in sides if s > 0.0) or 1.0
            grow = (target / nonzero) ** (1.0 / len(zeros))
            for i in zeros:
                sides[i] = min(grow, 3.0)
        else:
            sides[0] = min(sides[0] * target / vol, 3.0)
    out = []
    for l, h, s in zip(lo, hi, sides):
        c = (l + h) / 2.0
        a, b = c - s / 2.0, c + s / 2.0
        if a < -1.0:
            b += -1.0 - a
            a = -1.0
        if b > 2.0:
            a -= b - 2.0
            b = 2.0
        out.append((a, max(b, a)))
    return tuple(out)


def microscopic_certificate(E, eps: float, n_max: int) -> MicroCertificate:
    """Greedy certificate: boxes B_1..B_N covering E with lambda_d(B_n) <= eps^n.

    Components sorted by extent descending take the earliest unused index whose
    budget suffices; with decreasing budgets that greedy is optimal for this
    box family (each component in one box).
    """
    if not (0.0 < eps < 1.0):
        raise ValueError("eps must lie in (0,1)")
    comps = _components(E)
    if not comps:
        return MicroCertificate(True, eps, BoxCover(1, ()), ())
    dim = len(comps[0][0])
    comps.sort(key=lambda c: (-math.prod(float(h - l) for l, h in zip(*c)), [float(x) for x in c[0]]))
    boxes = []
    assignments = []
    for i, (lo, hi) in enumerate(comps):
        n = i + 1
        vol = math.prod(float(h - l) for l, h in zip(lo, hi))
        if n > n_max or vol > eps**n:
            return MicroCertificate(
                False,
                eps,
                None,
                tuple(assignments),
                failure=(
                    f"component with bounding box volume {vol:.6g} cannot fit budget "
                    f"eps^{n}={eps**n:.6g}"
                    if n <= n_max
                    else f"more than n_max={n_max} components"
                ),
            )
        boxes.append(_inflate([float(x) for x in lo], [float(x) for x in hi], eps**n))
        assignments.append((n, vol))
    return MicroCertificate(True, eps, BoxCover(dim, tuple(boxes)), tuple(assignments))


@dataclass(frozen=True)
class MicroVerifyResult:
    ok: bool
    bad_index: int | None = None  # 1-based index violating the volume budget
    uncovered: tuple | None = None


def microscopic_verify(cover: BoxCover, eps: float, E) -> MicroVerifyResult:
    """Check lambda_d(B_n) <= eps^n and coverage of E; first violation wins.

    Volumes are exact rationals of the stored endpoints, so the budget
    comparison is exact."""
    budget = Fraction(1)
    eps_f = _frac(eps)
    for i in range(len(cover)):
        budget *= eps_f
        if cover.volume(i) > budget:
            return MicroVerifyResult(False, bad_index=i + 1)
    try:
        _check_cover(E, cover)
    except CoverageError as err:
        return MicroVerifyResult(False, uncovered=(err.witness,))
    return MicroVerifyResult(True)


@dataclass(frozen=True)
class HZetaMicro:
    """Microscopic certificate derived from a small inv_log cover sum."""

    cover: BoxCover
    beta: float
    eps: float
    guarantees: tuple[tuple[int, float, float], ...]  # (n, diam, e^(-beta n))


def micro_from_hzeta(record: CoverRecord, beta: float) -> HZetaMicro:
    """Turn sum zeta(diam E_n) < 1/beta (zeta = inv_log) into box budgets e^(-beta n).

    The chain n*zeta(r_n) <= partial sum < 1/beta forces zeta(r_n) < 1/(beta n),
    hence diam < e^(-beta n); each index is checked directly rather than trusted.
    """
    gauge = record.gauge
    if not (isinstance(gauge, Gauge) and gauge.kind == "inv_log"):
        raise ValueError("micro_from_hzeta needs an inv_log cover record")
    order = sorted(range(len(record.cover)), key=record.cover.diameter, reverse=True)
    diams = [float(record.cover.diameter(i)) for i in order]
    zetas = [gauge_at_diameter(gauge, d) for d in diams]
    total = sum(zetas)
    if not (total < 1.0 / beta):
        raise ValueError(
            f"precondition failed: sum zeta(diam) = {total:.6g} >= 1/beta = {1.0 / beta:.6g}"
        )
    guarantees = []
    partial = 0.0
    for n, (diam, z) in enumerate(zip(diams, zetas), start=1):
        partial += z
        bound = math.exp(-beta * n)
        if not (n * z <= partial * (1 + 1e-12) and diam < bound):
            raise ValueError(
                f"index {n}: diam {diam:.6g} not below e^(-beta n) = {bound:.6g}"
            )
        guarantees.append((n, diam, bound))
    cover = BoxCover(record.cover.dim, tuple(record.cover.boxes[i] for i in order))
    return HZetaMicro(cover, beta, math.exp(-beta), tuple(guarantees))


def cantor_natural_cover(depth: int) -> BoxCover:
    """The 2^depth triadic intervals as a BoxCover with exact endpoints."""
    iu = cantor_intervals(depth)
    return BoxCover.from_intervals(iu.intervals)


# ---------------------------------------------------------------------------
# Text file formats


def save_cubes(path, E: DyadicCubeSet) -> None:
    lines = [f"d {E.dim} m {E.depth}"]
    for idx in sorted(E.cubes):
        lines.append(" ".join(str(k) for k in idx))
    _atomic_write(path, "\n".join(lines) + "\n")


def load_cubes(path) -> DyadicCubeSet:
    with open(path, "r", encoding="utf-8") as f:
        header = f.readline().split()
        if len(header) != 4 or header[0] != "d" or header[2] != "m":
            raise ValueError(f"bad cube set header in {path}")
        dim, depth = int(header[1]), int(header[3])
        cubes = []
        for line in f:
            line = line.strip()
            if line:
                cubes.append(tuple(int(t) for t in line.split()))
    return DyadicCubeSet(dim, depth, frozenset(cubes))


def save_cover(path, cover: BoxCover) -> None:
    lines = []
    for box in cover.boxes:
        lines.append(" ".join(f"{float(v):.17g}" for pair in box for v in pair))
    _atomic_write(path, "\n".join(lines) + ("\n" if lines else ""))


def load_cover(path) -> BoxCover:
    boxes = []
    dim = None
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            vals = [float(t) for t in line.split()]
            if not vals:
                continue
            if len(vals) % 2:
                raise ValueError("box line must hold lo/hi pairs")
            d = len(vals) // 2
            dim = d if dim is None else dim
            if d != dim:
                raise ValueError("mixed box dimensions in cover file")
            boxes.append(tuple((vals[2 * i], vals[2 * i + 1]) for i in range(d)))
    return BoxCover(dim or 1, tuple(boxes))


def _atomic_write(path, text: str) -> None:
    """Replace path with text via a per-call temp file and one rename, so
    concurrent writers never share a temp file and readers never see a part."""
    tmp = tempfile.NamedTemporaryFile(
        "w", encoding="utf-8", dir=os.path.dirname(path) or ".",
        prefix=os.path.basename(path) + ".", suffix=".tmp", delete=False,
    )
    try:
        with tmp:
            os.fchmod(tmp.fileno(), 0o666 & ~_UMASK)  # as a plain open() would
            tmp.write(text)
            tmp.flush()
            os.fsync(tmp.fileno())
        os.replace(tmp.name, path)
    except BaseException:
        os.unlink(tmp.name)
        raise
