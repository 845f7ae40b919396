"""Finite set representations on [0,1]^d and the cover/dimension machinery.

Two representations carry everything: DyadicCubeSet (grid cubes at a dyadic
depth, any dimension) and IntervalUnion (exact rational closed intervals,
dimension 1).  1-d counting is exact, in integers over a common denominator;
d >= 2 box counting counts grid-aligned cells, in integers for any rational
scale, and is flagged `grid-proxy`.  Diameters are max-norm
throughout, so a box's diameter is its longest side.
"""

from __future__ import annotations

import math
import os
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, islice
from itertools import product as iter_product
from typing import Iterable, Sequence

import numpy as np

from .gauges import ConfigError, Gauge, GaugeLike, Pseudogauge, gauge_at_diameter

# the process umask, read once (os.umask can only be read by setting it)
_UMASK = os.umask(0o022)
os.umask(_UMASK)

__all__ = [
    "IntervalUnion",
    "DyadicCubeSet",
    "BoxCover",
    "CoverageError",
    "FormatError",
    "n_delta",
    "lower_box_premeasure",
    "lower_box_dim",
    "hausdorff_upper",
    "cross_power",
    "product_lemma_check",
    "microscopic_certificate",
    "microscopic_verify",
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
MAX_CANTOR_DEPTH = 16  # cantor_intervals builds 2^depth intervals


class CoverageError(ValueError):
    """A claimed cover misses part of the set; carries a witness point."""

    def __init__(self, message: str, witness):
        super().__init__(message)
        self.witness = witness


class FormatError(ConfigError):
    """An artifact file (.set, .cover, .fn, build directory) is malformed."""


@contextmanager
def _format_errors(path):
    """Report what parsing path raises (bad tokens, lengths, keys) as FormatError."""
    try:
        yield
    except FormatError:
        raise
    except (ValueError, IndexError, KeyError, TypeError, OverflowError) as err:
        raise FormatError(f"malformed {path}: {err}") from err


# ---------------------------------------------------------------------------
# IntervalUnion: exact closed interval unions on the line

# int64 numerators stay below 2^62, so a sum of two of them cannot wrap
_INT64_BITS = 62


def _int_dtype(bound: int):
    """int64 when no magnitude reaches 2^62, else Python ints (dtype=object)."""
    return np.int64 if abs(bound).bit_length() <= _INT64_BITS else object


def _ratio(x: Number) -> tuple[int, int]:
    """x as (numerator, denominator) in lowest terms, exactly."""
    if isinstance(x, (int, np.integer)):
        return int(x), 1
    return x.as_integer_ratio()


def _common_den(values: Sequence[Number]) -> tuple[int, list[int], type]:
    """The least common denominator of int, float or Fraction values, each
    value's numerator over it, and the integer dtype that holds them."""
    ratios = [_ratio(x) for x in values]
    den = math.lcm(*(d for _, d in ratios))
    nums = [n * (den // d) for n, d in ratios]
    return den, nums, _int_dtype(max([den, *map(abs, nums)]))


def _quotients(nums: np.ndarray, den: int) -> np.ndarray:
    """nums / den as floats of nums' shape, each correctly rounded: Python's
    int / int rounds once, as float(Fraction) does."""
    return np.array([n / den for n in nums.ravel().tolist()], dtype=float).reshape(nums.shape)


def _gcd_with(g: int, a: np.ndarray) -> int:
    """gcd of g and every entry of a; each pass divides g by at least 2."""
    while g > 1:
        off = np.flatnonzero(a % g)
        if not len(off):
            break
        g = math.gcd(g, int(a[off[0]]))
    return g


def _lowest_terms(den: int, lo: np.ndarray, hi: np.ndarray, bound: int):
    """(den, lo, hi) divided by their gcd, read-only; divided arrays take the
    dtype for bound / gcd, bound being the largest magnitude they may reach."""
    g = _gcd_with(_gcd_with(den, lo.ravel()), hi.ravel())
    if g > 1:
        den, dtype = den // g, _int_dtype(bound // g)
        lo, hi = (lo // g).astype(dtype, copy=False), (hi // g).astype(dtype, copy=False)
    lo.flags.writeable = hi.flags.writeable = False
    return den, lo, hi


class IntervalUnion:
    """Sorted union of closed intervals [lo[i]/den, hi[i]/den] with exact
    rational endpoints.

    den is the least denominator of all endpoints (1 when empty).  The
    numerators satisfy lo[i] <= hi[i] < lo[i+1]: neighbouring intervals are
    separated by a positive gap, so equal sets have equal (den, lo, hi).  lo
    and hi are read-only int64 arrays while den and every numerator stay
    below 2^62, and arrays of Python ints (dtype=object, still exact) beyond;
    each operation picks its working dtype from the bit lengths it reaches.
    """

    __slots__ = ("den", "lo", "hi")

    def __init__(self, den: int, lo: np.ndarray, hi: np.ndarray) -> None:
        """The union of the sorted, separated intervals lo[i]/den..hi[i]/den,
        reduced to its least denominator."""
        den = int(den)
        if den < 1 or lo.ndim != 1 or lo.shape != hi.shape:
            raise ValueError("need den >= 1 and two 1-d numerator arrays of one length")
        reach = _reach(lo, hi)
        dtype = _int_dtype(max(den, reach))
        lo, hi = lo.astype(dtype, copy=False), hi.astype(dtype, copy=False)
        if np.any(hi < lo) or np.any(hi[:-1] >= lo[1:]):
            raise ValueError("intervals must be sorted and separated by positive gaps")
        self.den, self.lo, self.hi = _lowest_terms(den, lo, hi, max(den, reach))

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[Number, Number]]) -> "IntervalUnion":
        """The union of closed intervals (a, b), in any order, with int, float
        or Fraction endpoints; touching and overlapping intervals merge."""
        pairs = list(pairs)
        den, nums, dtype = _common_den([x for pair in pairs for x in pair])
        keys = list(zip(nums[0::2], nums[1::2]))
        for pair, (a, b) in zip(pairs, keys):
            if b < a:
                raise ValueError(f"interval endpoints out of order: {tuple(pair)}")
        keys.sort()
        lo = np.array([a for a, _ in keys], dtype=dtype)
        return _merged(den, lo, np.array([b for _, b in keys], dtype=dtype))

    def __len__(self) -> int:
        return len(self.lo)

    @property
    def is_empty(self) -> bool:
        return not len(self.lo)

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntervalUnion):
            return NotImplemented
        return (
            self.den == other.den
            and np.array_equal(self.lo, other.lo)
            and np.array_equal(self.hi, other.hi)
        )

    def floats(self) -> tuple[list[float], list[float]]:
        """(lo, hi) endpoints as correctly rounded floats."""
        return _quotients(self.lo, self.den).tolist(), _quotients(self.hi, self.den).tolist()

    def contains(self, x: Number) -> bool:
        p, q = _ratio(x)
        t = p * self.den  # x = t / (q * den)
        if self.is_empty or t < int(self.lo[0]) * q or t > int(self.hi[-1]) * q:
            return False
        i = int(np.searchsorted(self.lo, t // q, side="right")) - 1  # last start <= x
        return int(self.hi[i]) * q >= t

    def _overlaps(self, other: "IntervalUnion"):
        """Both unions over L = lcm of the denominators, in one dtype, and for
        each component i of self the components first[i]..stop[i]-1 of other
        that meet it."""
        L = math.lcm(self.den, other.den)
        sa, sb = L // self.den, L // other.den
        dtype = _int_dtype(max(L, _reach(self.lo, self.hi) * sa, _reach(other.lo, other.hi) * sb))
        alo, ahi, blo, bhi = (_scaled(x, dtype, s) for x, s in (
            (self.lo, sa), (self.hi, sa), (other.lo, sb), (other.hi, sb)))
        first = np.searchsorted(bhi, alo, side="left")  # first component ending at or after alo
        stop = np.searchsorted(blo, ahi, side="right")  # past the last starting at or before ahi
        return L, alo, ahi, blo, bhi, first, stop

    def meets(self, other: "IntervalUnion") -> np.ndarray:
        """For each component of self, whether it meets other."""
        *_, first, stop = self._overlaps(other)
        return stop > first

    def intersect(self, other: "IntervalUnion") -> "IntervalUnion":
        L, alo, ahi, blo, bhi, first, stop = self._overlaps(other)
        counts = np.maximum(stop - first, 0)
        # one piece per meeting pair; the pieces are separated since both
        # operands' components are
        i = np.repeat(np.arange(len(alo)), counts)
        j = np.arange(len(i)) - np.repeat(np.cumsum(counts) - counts - first, counts)
        return IntervalUnion(L, np.maximum(alo[i], blo[j]), np.minimum(ahi[i], bhi[j]))

    def subset_of(self, other: "IntervalUnion") -> bool:
        return self.uncovered_by(other) is None

    def uncovered_by(self, other: "IntervalUnion") -> Fraction | None:
        """A witness point of self not covered by other, or None.

        Components of `other` are separated by positive gaps, so a component
        of self starting inside other[j] is covered iff it also ends inside
        other[j].  The witness is the first uncovered start, or the midpoint
        of the first gap past other[j] within that component.
        """
        if self.is_empty:
            return None
        if other.is_empty:
            return Fraction(int(self.lo[0]), self.den)
        L, alo, ahi, blo, bhi, first, _ = self._overlaps(other)
        j = np.minimum(first, len(blo) - 1)
        starts_in = (first < len(blo)) & (blo[j] <= alo)
        bad = np.flatnonzero(~(starts_in & (ahi <= bhi[j])))
        if not len(bad):
            return None
        i = int(bad[0])
        if not starts_in[i]:
            return Fraction(int(alo[i]), L)
        j = int(j[i])
        end = int(ahi[i])
        nxt = int(blo[j + 1]) if j + 1 < len(blo) else end
        return Fraction(int(bhi[j]) + min(nxt, end), 2 * L)


def _scaled(x: np.ndarray, dtype, s: int) -> np.ndarray:
    """x * s in dtype; x itself when that is x."""
    x = x.astype(dtype, copy=False)
    return x * s if s != 1 else x


def _reach(lo: np.ndarray, hi: np.ndarray) -> int:
    """The largest numerator magnitude of sorted intervals."""
    return max(abs(int(lo[0])), abs(int(hi[-1]))) if len(lo) else 0


def _merged(den: int, lo: np.ndarray, hi: np.ndarray) -> IntervalUnion:
    """The union of intervals sorted by lo, touching and overlapping ones merged."""
    if len(lo):
        reach = np.maximum.accumulate(hi)
        first = np.flatnonzero(np.r_[True, lo[1:] > reach[:-1]])
        lo, hi = lo[first], reach[np.r_[first[1:] - 1, len(lo) - 1]]
    return IntervalUnion(den, lo, hi)


def points_union(points: Iterable[Number]) -> IntervalUnion:
    """Finite point set as degenerate closed intervals."""
    return IntervalUnion.from_pairs((p, p) for p in points)


def cantor_intervals(depth: int) -> IntervalUnion:
    """Middle-thirds Cantor approximation: 2^depth triadic intervals, exact."""
    if not 0 <= depth <= MAX_CANTOR_DEPTH:
        raise ConfigError(f"cantor depth {depth} must lie in 0..{MAX_CANTOR_DEPTH}")
    lo = np.zeros(1, dtype=np.int64)  # left ends over 3^depth
    for _ in range(depth):
        lo = np.stack([3 * lo, 3 * lo + 2], axis=1).ravel()
    return IntervalUnion(3**depth, lo, lo + 1)


# ---------------------------------------------------------------------------
# DyadicCubeSet


MAX_KEY_BITS = 62  # d * depth of a DyadicCubeSet, so that its keys fit int64


def _side_count(dim: int, depth: int) -> int:
    """2^depth, the cubes per axis of a d-dimensional grid whose keys fit int64."""
    if dim < 1 or depth < 0:
        raise ValueError("need dim >= 1 and depth >= 0")
    if dim * depth > MAX_KEY_BITS:
        raise ValueError(f"d * depth = {dim * depth} exceeds the limit {MAX_KEY_BITS}")
    return 1 << depth


def _run_heads(a: np.ndarray) -> np.ndarray:
    """Whether each entry of the sorted array a differs from the one before it."""
    heads = np.empty(len(a), dtype=bool)
    heads[:1] = True
    np.not_equal(a[1:], a[:-1], out=heads[1:])
    return heads


def _sorted_unique(a: np.ndarray) -> np.ndarray:
    """The distinct values of a, sorted; on int64 a sort is many times faster
    than np.unique, which hashes."""
    a = np.sort(a)
    return a[_run_heads(a)]


def _unravel(keys: np.ndarray, dim: int, depth: int) -> np.ndarray:
    """The (n, dim) index rows of row-major keys on the 2^depth grid."""
    return np.stack(np.unravel_index(keys, (1 << depth,) * dim), axis=-1)


def _held(keys: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Whether each entry of k is in the sorted array keys."""
    return np.searchsorted(keys, k, "right") > np.searchsorted(keys, k)


def _closed_cell_candidates(points: np.ndarray, depth: int):
    """(inside, candidates): whether each point (n, d) lies in [0,1]^d, and
    the index rows of the 2^depth grid cubes whose closure may hold it.  Each
    axis offers k = min(floor(x 2^m), 2^m - 1), then k - 1 on a vertex above
    0, in product order, the first axis slowest; the scaling is exact."""
    top = 1 << depth
    inside = ((points >= 0.0) & (points <= 1.0)).all(axis=1)
    scaled = np.where(inside[:, None], points, 0.0) * top
    k = np.minimum(np.floor(scaled), top - 1).astype(np.int64)
    below = k - ((scaled == k) & (k > 0))
    return inside, [np.where(c, below, k) for c in iter_product((False, True), repeat=points.shape[1])]


def _points(points, dim: int) -> np.ndarray:
    """points as an (n, dim) float array; shape (n,) is taken in dimension 1."""
    p = np.asarray(points, dtype=float)
    if (dim == 1 and p.ndim == 1) or not p.size:
        p = p.reshape(-1, dim)
    if p.ndim != 2 or p.shape[1] != dim:
        raise ValueError(f"points need shape (n, {dim})")
    return p


def _index_keys(dim: int, depth: int, indices) -> np.ndarray:
    """The row-major keys of cube index rows, (n, dim) or a list of tuples,
    each index checked to lie in 0..2^depth - 1."""
    top = _side_count(dim, depth)
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size and (idx.ndim != 2 or idx.shape[1] != dim):
        raise ValueError(f"cube indices need shape (n, {dim})")
    idx = idx.reshape(-1, dim)
    bad = np.flatnonzero(np.any((idx < 0) | (idx >= top), axis=1))
    if len(bad):
        raise ValueError(f"cube index {idx[bad[0]].tolist()} out of range for depth {depth}")
    return np.ravel_multi_index(tuple(idx.T), (top,) * dim)


@dataclass(frozen=True, eq=False)
class DyadicCubeSet:
    """Subset of [0,1]^d as grid cubes {k: cube prod_i [k_i 2^-m, (k_i+1) 2^-m]}.

    keys holds the cubes' row-major indices k_1 2^(m(d-1)) + ... + k_d, given
    in any order and with repeats; it is stored sorted, unique and read-only
    in int64, so key order is the lexicographic order of the index tuples.
    Keys that already strictly increase are copied, not sorted, and a
    read-only int64 array of them is kept as it is.  d * m is at most
    MAX_KEY_BITS.
    """

    dim: int
    depth: int
    keys: np.ndarray

    def __post_init__(self) -> None:
        _side_count(self.dim, self.depth)
        keys = np.asarray(self.keys, dtype=np.int64).ravel()
        if not np.all(keys[1:] > keys[:-1]):
            keys = _sorted_unique(keys)
        elif keys.flags.writeable:
            keys = keys.copy()
        if len(keys) and (keys[0] < 0 or keys[-1] >> (self.dim * self.depth)):
            raise ValueError(f"cube keys out of range for d = {self.dim} and depth {self.depth}")
        keys.flags.writeable = False
        object.__setattr__(self, "keys", keys)

    @classmethod
    def from_indices(cls, dim: int, depth: int, indices) -> "DyadicCubeSet":
        """The cubes with these index rows: an (n, dim) array or a list of tuples."""
        return cls(dim, depth, _index_keys(dim, depth, indices))

    @classmethod
    def full(cls, dim: int, depth: int) -> "DyadicCubeSet":
        return cls(dim, depth, np.arange(_side_count(dim, depth) ** dim))

    @classmethod
    def from_points(cls, dim: int, depth: int, points) -> "DyadicCubeSet":
        """The cubes holding the points (n, dim), each clamped into [0,1]^d."""
        top = _side_count(dim, depth)
        p = _points(points, dim)
        if not np.all(np.isfinite(p)):
            raise ValueError("points must be finite")
        k = np.floor(np.clip(p, 0.0, 1.0) * top).astype(np.int64)  # exact: top is a power of two
        return cls.from_indices(dim, depth, np.minimum(k, top - 1))

    @classmethod
    def from_interval_union(cls, iu: IntervalUnion, depth: int) -> "DyadicCubeSet":
        """Rasterize a 1-d set: the cubes meeting it."""
        top = _side_count(1, depth)
        dtype = _int_dtype(max(iu.den, _reach(iu.lo, iu.hi)) << depth)
        a, b = iu.lo.astype(dtype) * top, iu.hi.astype(dtype) * top  # over iu.den
        # closed overlap: cube k meets [a,b] iff k <= b*top and k+1 >= a*top
        first, last = -(-a // iu.den) - 1, b // iu.den
        first = np.maximum(first, 0).astype(_int_dtype(top))
        counts = np.maximum(np.minimum(last, top - 1) - first + 1, 0).astype(np.int64)
        # neighbouring intervals can share a cube; the set keeps it once
        ks = np.repeat(first - (np.cumsum(counts) - counts), counts)
        ks += np.arange(len(ks))
        ks.flags.writeable = False  # no one else holds it: kept, not copied, when increasing
        return cls(1, depth, ks)

    def __len__(self) -> int:
        return len(self.keys)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DyadicCubeSet):
            return NotImplemented
        same_grid = (self.dim, self.depth) == (other.dim, other.depth)
        return same_grid and np.array_equal(self.keys, other.keys)

    def indices(self) -> np.ndarray:
        """The (n, dim) index rows of the cubes, in key order."""
        return _unravel(self.keys, self.dim, self.depth)

    def refine(self, depth: int) -> "DyadicCubeSet":
        if depth < self.depth:
            raise ValueError("refine target must be >= current depth")
        shift = depth - self.depth
        if shift == 0:
            return self
        offsets = _unravel(np.arange(1 << shift * self.dim), self.dim, shift)
        cells = (self.indices()[:, None, :] << shift) + offsets
        return DyadicCubeSet.from_indices(self.dim, depth, cells.reshape(-1, self.dim))

    def contains(self, points) -> np.ndarray:
        """Closed-cube membership of points (n, dim): a point on a face belongs
        to every cube that touches it."""
        inside, candidates = _closed_cell_candidates(_points(points, self.dim), self.depth)
        keys = [np.ravel_multi_index(tuple(c.T), (1 << self.depth,) * self.dim) for c in candidates]
        return inside & np.any([_held(self.keys, k) for k in keys], axis=0)

    def to_interval_union(self) -> IntervalUnion:
        """The closed cubes merged into runs of touching cubes, in integers."""
        if self.dim != 1:
            raise ValueError("interval form exists only in dimension 1")
        top = 1 << self.depth
        k = self.keys.astype(_int_dtype(top))
        return _merged(top, k, k + 1)


def _as_interval_union(E) -> IntervalUnion:
    if isinstance(E, IntervalUnion):
        return E
    if isinstance(E, DyadicCubeSet):
        return E.to_interval_union()
    return IntervalUnion.from_pairs(E)


# ---------------------------------------------------------------------------
# BoxCover


class BoxCover:
    """Ordered closed boxes prod_a [lo[i, a]/den, hi[i, a]/den] within [-1, 2]^d.

    As in IntervalUnion, den is the least denominator (1 with no boxes), and
    lo and hi are read-only (n, dim) numerator arrays: int64 while 2 den is
    below 2^62, so that a side cannot wrap, and Python ints beyond."""

    __slots__ = ("dim", "den", "lo", "hi")

    def __init__(self, dim: int, den: int, lo: np.ndarray, hi: np.ndarray) -> None:
        dim, den = int(dim), int(den)
        if dim < 1 or den < 1 or lo.shape != hi.shape or lo.shape[1:] != (dim,):
            raise ValueError(f"need dim >= 1, den >= 1 and two (n, {dim}) numerator arrays")
        if np.any(hi < lo):
            raise ValueError("box sides must have lo <= hi")
        if np.any(lo < -den) or np.any(hi > 2 * den):
            raise ValueError("boxes must lie within [-1, 2]^d")
        lo, hi = (x.astype(_int_dtype(2 * den), copy=False) for x in (lo, hi))
        self.dim = dim
        self.den, self.lo, self.hi = _lowest_terms(den, lo, hi, 2 * den)

    @classmethod
    def from_intervals(cls, iu: IntervalUnion) -> "BoxCover":
        """The components of a 1-d IntervalUnion as boxes, in order."""
        return cls(1, iu.den, iu.lo[:, None], iu.hi[:, None])

    @classmethod
    def from_boxes(cls, dim: int, boxes: Iterable[Sequence[tuple[Number, Number]]]) -> "BoxCover":
        """Boxes of dim (lo, hi) pairs with int, float or Fraction endpoints, read exactly."""
        boxes = [tuple(box) for box in boxes]
        if any(len(box) != dim for box in boxes):
            raise ValueError("box dimension mismatch")
        den, nums, dtype = _common_den([x for box in boxes for lo, hi in box for x in (lo, hi)])
        ends = np.array(nums, dtype=dtype).reshape(len(boxes), dim, 2)
        return cls(dim, den, ends[..., 0], ends[..., 1])

    def __len__(self) -> int:
        return len(self.lo)

    def diameters(self) -> np.ndarray:
        """Each box's longest side, as a numerator over den."""
        return (self.hi - self.lo).max(axis=1)

    def gauge_sum(self, g: GaugeLike) -> float:
        """The math.fsum of g at each box's diameter, g evaluated once per box
        and the values added in box order."""
        diams = _quotients(self.diameters(), self.den).tolist()
        return math.fsum(gauge_at_diameter(g, d) for d in diams)

    def volumes(self) -> np.ndarray:
        """Each box's volume, as a numerator over den^dim."""
        return np.prod((self.hi - self.lo).astype(_int_dtype((3 * self.den) ** self.dim)), axis=1)

    def floats(self) -> tuple[np.ndarray, np.ndarray]:
        """(lo, hi) as (n, dim) arrays of correctly rounded floats."""
        return _quotients(self.lo, self.den), _quotients(self.hi, self.den)

    def interval_union(self) -> IntervalUnion:
        if self.dim != 1:
            raise ValueError("interval form exists only in dimension 1")
        order = np.argsort(self.lo[:, 0], kind="stable")
        return _merged(self.den, self.lo[order, 0], self.hi[order, 0])


# ---------------------------------------------------------------------------
# Box-counting


def n_delta(E, delta: Number) -> int:
    """Box-counting function N_delta.

    Dimension 1: exact minimal number of closed sets of diameter <= delta
    covering E (greedy left-to-right sweep over the interval representation,
    which is optimal).  Dimension >= 2: number of cells of the delta-grid
    meeting E, a grid proxy.
    """
    (count,), _ = _box_counts(E, [delta])
    return count


def _box_counts(E, scales: Sequence[Number]) -> tuple[list[int], str]:
    """N_delta of E at each scale, and the mode.  E is put in the form the
    counts read once per scan: an IntervalUnion in d = 1, counted exactly;
    in d >= 2 the DyadicCubeSet itself, whose sorted keys the grid count
    reads block by block."""
    if isinstance(E, DyadicCubeSet) and E.dim >= 2:
        count, mode = _grid_count, "grid-proxy"
    else:
        E, count, mode = _as_interval_union(E), _greedy_count, "exact-1d"
    counts = []
    for s in scales:
        delta = Fraction(s)
        if delta <= 0:
            raise ValueError("delta must be positive")
        counts.append(count(E, delta))
    return counts, mode


def _greedy_count(iu: IntervalUnion, delta: Fraction) -> int:
    """Closed windows of length delta in the greedy left-to-right cover of
    iu, each starting at the first point the previous ones leave out, over
    the common denominator.  The last window an interval needs ends at most
    delta past it, so an interval more than delta past its predecessor
    starts afresh; one that is also more than delta before its successor
    takes max(1, ceil(length / delta)) windows, as array work.  Only the
    chains of intervals at most delta apart run the sweep, in Python ints."""
    if not len(iu):
        return 0
    L = math.lcm(iu.den, delta.denominator)
    s, d = L // iu.den, delta.numerator * (L // delta.denominator)
    dtype = _int_dtype(max(_reach(iu.lo, iu.hi), 1) * s + d)  # s must fit even if all are 0
    lo, hi = _scaled(iu.lo, dtype, s), _scaled(iu.hi, dtype, s)
    fresh = np.r_[True, lo[1:] - hi[:-1] > d]
    alone = fresh & np.r_[fresh[1:], True]
    count = int(np.maximum(1, -((lo[alone] - hi[alone]) // d)).sum())
    end = None
    for a, b in zip(lo[~alone].tolist(), hi[~alone].tolist()):
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


# the (key, weight) pairs of one block of a d >= 2 box count: a block holds
# _KEY_BUDGET // 3^d cubes
_KEY_BUDGET = 1 << 15


def _point_cells(k, q: int, den: int):
    """(first, last): the cells of the grid of side p/q that hold the points
    k / 2^depth on an axis, with den = p 2^depth, unclamped.  A point on a
    cell boundary lies in two cells, any other point in one."""
    kq = k * q
    return -(-kq // den) - 1, kq // den


def _class_sizes(c, q: int, den: int, top: int):
    """Cells per axis in class c of the doubled lattice, for a delta below
    the cube side: c = 2k holds the cells at the grid point k / 2^depth,
    shared by cubes k - 1 and k (none at the ends 0 and top), and c = 2k + 1
    the cells strictly between the grid points k and k + 1, which only cube
    k meets."""
    k = c // 2
    first, last = _point_cells(k, q, den)
    shared = np.where((k > 0) & (k < top), last - first + 1, 0)
    only = _point_cells(k + 1, q, den)[0] - last - 1 + (k == 0) + (k + 1 == top)
    return np.where(c % 2, only, shared)


def _axis_digits(k, q: int, den: int, side: int, fine: bool):
    """(digits, taken) on one axis for the cube indices k (n,): the (3, n)
    key digits a cube can take, and whether it takes each (None: all).
    Below the cube side the digits are the classes 2k, 2k + 1, 2k + 2 of
    the doubled lattice.  Otherwise a cube meets at most three cells,
    first..first + span, and the digits are first, first + 1, first + 2."""
    offsets = np.arange(3)[:, None]
    if fine:
        return 2 * k + offsets, None
    first = np.maximum(_point_cells(k, q, den)[0], 0)
    span = np.minimum(_point_cells(k + 1, q, den)[1], side - 1) - first
    return first + offsets, span >= offsets


def _grid_count(E: DyadicCubeSet, delta: Fraction) -> int:
    """Cells of the delta-grid meeting the closed cubes of E, in integers.

    With delta = p/q, cell j meets cube k on an axis iff ceil(k q / (p
    2^depth)) - 1 <= j <= floor((k + 1) q / (p 2^depth)), and j runs over
    0..ceil(q/p) - 1; a cube edge on a cell boundary touches the
    neighbouring cell.  Each cube gives at most 3^d keys, each with a
    weight, and N_delta is the sum of the weights of the distinct keys:
    - delta >= the cube side: a cube meets at most three cells per axis;
      the keys are those cells, each of weight 1;
    - delta < the cube side: only neighbouring cubes' cell ranges overlap on
      an axis, so the cells of an axis fall into the classes of
      _class_sizes, and a cell meets E iff its tuple of classes is one of a
      cube's; the keys are the class tuples, each weighted by the product of
      its classes' sizes.
    Keys are numbers in base side, or 2 top + 1, first axis highest.  The
    cubes are taken in key order, in blocks of at most _KEY_BUDGET keys.  A
    block's keys are sorted with the distinct keys that earlier blocks left
    open; those below the first row the next block can reach are counted,
    the rest stay open.  The arrays are int64, or Python ints where a number
    would pass 2^62."""
    p, q = delta.numerator, delta.denominator
    dim, depth = E.dim, E.depth
    den, top, side = p << depth, 1 << depth, -(-q // p)
    fine = q > den
    base = 2 * top + 1 if fine else side
    kdtype = _int_dtype(max(p, q) << (depth + 1))  # holds (k + 2) q
    dtype = _int_dtype((max(base, side) + 2) ** dim)  # keys, with digits up to side + 1, and weights
    step = [base**a for a in reversed(range(dim))]
    block = max(1, _KEY_BUDGET // 3**dim)
    count, carry = 0, np.empty(0, dtype)
    for start in range(0, len(E), block):
        axes = np.unravel_index(E.keys[start : start + block], (top,) * dim)
        keys, taken = np.zeros((1, len(axes[0])), dtype), None
        for a, k in enumerate(axes):
            # the keys of every offset row, the long cube axis innermost
            digits, took = _axis_digits(k.astype(kdtype, copy=False), q, den, side, fine)
            keys = (keys[:, None] + digits.astype(dtype, copy=False) * step[a]).reshape(-1, len(k))
            if took is not None:
                taken = took if taken is None else (taken[:, None] & took).reshape(-1, len(k))
        keys = np.concatenate([carry, keys.ravel() if taken is None else keys[taken]])
        keys.sort()
        heads = _run_heads(keys)
        cut = len(keys)
        if start + block < len(E):  # later cubes reach no row below the next one's first
            k = int(E.keys[start + block]) >> (depth * (dim - 1))
            row = 2 * k if fine else max(_point_cells(k, q, den)[0], 0)
            cut = int(np.searchsorted(keys, row * step[0]))
        carry = keys[cut:][heads[cut:]]
        if not fine:
            count += int(np.count_nonzero(heads[:cut]))
            continue
        rest, weights = keys[:cut][heads[:cut]], 1
        for _ in range(dim):  # the last axis first
            c = (rest % base).astype(kdtype, copy=False)
            weights = _class_sizes(c, q, den, top).astype(dtype, copy=False) * weights
            rest = rest // base
        count += int(np.sum(weights))
    return count


def lower_box_premeasure(E, zeta: GaugeLike, eps: float, scales: Sequence[Number]) -> float:
    """Scanned proxy for the lower box-counting premeasure: min over scanned
    delta <= eps of N_delta(E) * zeta(delta), an upper bound of the true inf
    over scanned scales."""
    scanned = [s for s in scales if float(s) <= eps]
    if not scanned:
        raise ValueError("no scanned scale lies below eps")
    counts, _ = _box_counts(E, scanned)
    if not any(counts):
        return 0.0
    return min(count * zeta.eval(float(s)) for s, count in zip(scanned, counts))


def _fit_slope(xs: list[float], ys: list[float]) -> float:
    """The least-squares slope of the points (xs, ys), exact in Fractions of
    the floats and rounded once; 0.0 for fewer than 2 distinct xs.  No BLAS
    call: OpenBLAS allocates its buffers on the first one."""
    n = len(xs)
    xs, ys = list(map(Fraction, xs)), list(map(Fraction, ys))
    sx = sum(xs)
    spread = n * sum(x * x for x in xs) - sx * sx
    if not spread:
        return 0.0
    return float((n * sum(x * y for x, y in zip(xs, ys)) - sx * sum(ys)) / spread)


def lower_box_dim(E, scales: Sequence[Number]) -> dict:
    """Lower box dimension proxies from a scanned scale grid, as the dims
    payload: entries {r, N, ratio = log N / |log r|} per scale, lbdim_proxy
    = the least ratio over the deepest half (a liminf proxy), slope = the
    least-squares slope of log N against |log r| (a diagnostic), the
    counting mode, and empty, whether every count is 0 (both proxies 0)."""
    scales = list(scales)
    if len(scales) < 6:
        raise ValueError("need at least 6 scales")
    counts, mode = _box_counts(E, scales)
    entries = []
    for s, count in zip(scales, counts):
        r = float(s)
        ratio = math.log(count) / abs(math.log(r)) if count > 0 else 0.0
        entries.append({"r": r, "N": count, "ratio": ratio})
    empty = not any(counts)
    proxy = slope = 0.0
    if not empty:
        proxy = min(e["ratio"] for e in entries[len(entries) // 2 :])
        hit = [e for e in entries if e["N"] > 0]
        slope = _fit_slope([abs(math.log(e["r"])) for e in hit], [math.log(e["N"]) for e in hit])
    return {"lbdim_proxy": proxy, "slope": slope, "mode": mode, "empty": empty, "entries": entries}


# ---------------------------------------------------------------------------
# Hausdorff upper bounds


def _check_cover(E, cover: BoxCover) -> None:
    """Raise CoverageError, with an exact point of E, when cover misses part of E."""
    if isinstance(E, IntervalUnion) or E.dim == 1:
        # the cell grid would not see a degenerate 1-d component
        witness = _as_interval_union(E).uncovered_by(cover.interval_union())
    elif cover.dim != E.dim:
        raise ValueError(f"a {cover.dim}-d cover cannot cover a {E.dim}-d set")
    else:
        witness = _uncovered_point(E, cover)
    if witness is not None:
        raise CoverageError(f"cover misses the set at {np.asarray(witness, float).tolist()}", witness)


def _uncovered_point(E: DyadicCubeSet, cover: BoxCover) -> tuple[Fraction, ...] | None:
    """A point of the d >= 2 cube set E in no box of cover, or None; exact and complete.

    The distinct box endpoints clipped to [0,1] cut each axis, so an open
    elementary cell lies in a closed box or misses it.  A difference array
    over the boxes' cell ranges, summed along every axis, counts the boxes
    holding each cell; a cube of E is covered iff no uncovered cell meets
    its interior, which a summed-area table counts.  The witness is the
    centre of the first such cell's part within the first such cube.
    Memory: at most prod over axes of (distinct box endpoints + 1) cells,
    held with one more entry per axis in two int64 arrays and a bool array."""
    L = math.lcm(cover.den, 1 << E.depth)  # one denominator for boxes and cubes
    dtype, side = _int_dtype(2 * L), L >> E.depth
    blo, bhi = (np.clip(x.astype(dtype) * (L // cover.den), 0, L) for x in (cover.lo, cover.hi))
    cubes = E.indices().astype(dtype) * side
    cuts = [_sorted_unique(np.r_[a, b, np.array([0, L], dtype)]) for a, b in zip(blo.T, bhi.T)]
    # the cells first..stop-1 on each axis: inside a box, and meeting a cube's interior
    inside = [(np.searchsorted(c, a), np.searchsorted(c, b)) for c, a, b in zip(cuts, blo.T, bhi.T)]
    meets = [
        (np.searchsorted(c, q, "right") - 1, np.searchsorted(c, q + side)) for c, q in zip(cuts, cubes.T)
    ]
    corners = [(c, (-1) ** sum(c)) for c in iter_product((0, 1), repeat=E.dim)]
    count = np.zeros(tuple(map(len, cuts)), dtype=np.int64)  # cells per axis, plus one
    for corner, sign in corners:
        at = np.ravel_multi_index(tuple(r[c] for r, c in zip(inside, corner)), count.shape)
        count += sign * np.bincount(at, minlength=count.size).reshape(count.shape)
    for a in range(E.dim):
        np.cumsum(count, axis=a, out=count)
    uncovered = count[(slice(-1),) * E.dim] == 0
    count[...] = 0  # now the summed-area table: uncovered cells below each index
    count[(slice(1, None),) * E.dim] = uncovered
    for a in range(E.dim):
        np.cumsum(count, axis=a, out=count)
    missed = sum(sign * count[tuple(r[1 - c] for r, c in zip(meets, corner))] for corner, sign in corners)
    bad = np.flatnonzero(missed)
    if not len(bad):
        return None
    first = [int(r[0][bad[0]]) for r in meets]
    block = uncovered[tuple(slice(f, r[1][bad[0]]) for f, r in zip(first, meets))]
    cell = np.add(first, np.unravel_index(np.argmax(block), block.shape))
    return tuple(
        Fraction(max(int(c[j]), int(q)) + min(int(c[j + 1]), int(q) + side), 2 * L)
        for c, j, q in zip(cuts, cell, cubes[bad[0]])
    )


def hausdorff_upper(E, g: GaugeLike, cover: BoxCover | None = None) -> float:
    """Sum(g(diam)) over a verified cover: an upper bound for H^g at delta = max diam.

    g is evaluated once per box, and math.fsum adds the values in box order.
    With cover=None the natural dyadic cover at the set's depth is used
    (DyadicCubeSet input only).  Never a lower bound.
    """
    if cover is None:
        if not isinstance(E, DyadicCubeSet):
            raise ValueError("auto cover needs a DyadicCubeSet")
        idx = E.indices()
        cover = BoxCover(E.dim, 1 << E.depth, idx, idx + 1)
    _check_cover(E, cover)
    return cover.gauge_sum(g)


# ---------------------------------------------------------------------------
# Cross powers


def cross_power(E: DyadicCubeSet, d: int) -> DyadicCubeSet:
    """E^(cross d): d-cubes with at least one coordinate projection cube in E."""
    if E.dim != 1:
        raise ValueError("cross power takes a 1-d set")
    if d < 1:
        raise ValueError("need d >= 1")
    top = 1 << E.depth
    total = top**d - (top - len(E)) ** d
    if total > MAX_CROSS_CUBES:
        raise ValueError(f"cross power would hold {total} cubes (limit {MAX_CROSS_CUBES})")
    if d == 1:
        return E
    full = np.arange(top)
    others = np.setdiff1d(full, E.keys, assume_unique=True)
    pieces = []
    for axis in range(d):
        # first coordinate hitting E at `axis` avoids double counting
        keys = np.zeros(1, dtype=np.int64)
        for pool in [others] * axis + [E.keys] + [full] * (d - axis - 1):
            keys = (keys[:, None] * top + pool).ravel()
        pieces.append(keys)
    return DyadicCubeSet(d, E.depth, np.concatenate(pieces))


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
        count = n_delta(E, s)
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
    cover: BoxCover | None
    assignments: tuple[tuple[int, float], ...]  # (index n, component volume)
    failure: str | None = None  # None: the cover certifies the set


def _components(E) -> BoxCover:
    """The bounding boxes of E's connected components."""
    if isinstance(E, IntervalUnion) or E.dim == 1:
        return BoxCover.from_intervals(_as_interval_union(E))
    top = 1 << E.depth
    strides = [top**axis for axis in range(E.dim)]
    remaining = set(E.keys.tolist())
    lo, hi = [], []
    for seed in E.keys.tolist():
        if seed not in remaining:
            continue
        remaining.remove(seed)
        members = [seed]
        for cur in members:  # breadth first: the list grows while it is walked
            for s in strides:
                k = cur // s % top  # the coordinate that steps of s move
                for nxt in (cur - s if k else None, cur + s if k < top - 1 else None):
                    if nxt in remaining:
                        remaining.remove(nxt)
                        members.append(nxt)
        idx = _unravel(np.array(members), E.dim, E.depth)
        lo.append(idx.min(axis=0))
        hi.append(idx.max(axis=0) + 1)
    return BoxCover(E.dim, top, *(np.array(x, dtype=np.int64).reshape(-1, E.dim) for x in (lo, hi)))


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
    lo, hi = (x.tolist() for x in comps.floats())
    vols = [math.prod(sides) for sides in _quotients(comps.hi - comps.lo, comps.den).tolist()]
    boxes = []
    assignments = []
    for n, i in enumerate(sorted(range(len(comps)), key=lambda i: (-vols[i], lo[i])), start=1):
        vol = vols[i]
        if n > n_max or vol > eps**n:
            failure = f"more than n_max={n_max} components" if n > n_max else (
                f"component with bounding box volume {vol:.6g} cannot fit budget eps^{n}={eps**n:.6g}"
            )
            return MicroCertificate(None, tuple(assignments), failure)
        boxes.append(_inflate(lo[i], hi[i], eps**n))
        assignments.append((n, vol))
    return MicroCertificate(BoxCover.from_boxes(comps.dim, boxes), tuple(assignments))


def microscopic_verify(cover: BoxCover, eps: float, E) -> str | None:
    """Check lambda_d(B_n) <= eps^n and coverage of E; None when both hold,
    else a text naming the first violation: the box n with its volume and
    eps^n, or a point of E in no box.

    Volumes and eps^n are compared exactly, as integers: volume / den^d <=
    p^n / q^n for eps = p / q."""
    p, q = _ratio(eps)
    scale = cover.den**cover.dim
    budget_num = budget_den = 1
    for n, vol in enumerate(cover.volumes().tolist(), 1):
        budget_num, budget_den = budget_num * p, budget_den * q
        if vol * budget_den > budget_num * scale:
            return f"box {n} has volume {vol / scale:.6g} above eps^{n} = {eps**n:.6g}"
    try:
        _check_cover(E, cover)
    except CoverageError as err:
        return str(err)
    return None


def cantor_natural_cover(depth: int) -> BoxCover:
    """The 2^depth triadic intervals as a BoxCover with exact endpoints."""
    return BoxCover.from_intervals(cantor_intervals(depth))


# ---------------------------------------------------------------------------
# Text file formats


# cubes per chunk a .set writer formats, lines per block a reader parses, and
# bytes per block its binary pass reads
_SAVE_CUBES = 1 << 12  # cubes per .set chunk, funclib.GRID_BLOCK's size
_LOAD_LINES = 1 << 14
_COUNT_BYTES = 1 << 16


def _cube_chunks(E: DyadicCubeSet):
    """The index lines of E's cubes in key order, one chunk of text per
    _SAVE_CUBES cubes, each a %-formatting pass over its indices."""
    line = " ".join(["%d"] * E.dim) + "\n"
    for start in range(0, len(E), _SAVE_CUBES):
        rows = _unravel(E.keys[start : start + _SAVE_CUBES], E.dim, E.depth)
        yield (line * len(rows)) % tuple(rows.ravel().tolist())


def _read_cubes(lines: Iterable[str], dim: int, depth: int, rows: int) -> DyadicCubeSet:
    """The cubes of index lines in any order, repeats allowed; each line is
    blank or holds dim integers, and at most rows lines hold integers.
    Blocks of at most _LOAD_LINES lines are parsed straight from the lines
    into one key array, and no line past the last row is read."""
    _side_count(dim, depth)
    lines = iter(lines)
    keys, filled = np.empty(rows, np.int64), 0
    for line in lines if rows else ():
        if line.isspace():
            continue
        # a block starts at a line that holds integers (np.loadtxt warns on
        # no rows), and it has no more lines than rows are left
        block = chain((line,), islice(lines, min(_LOAD_LINES, rows - filled) - 1))
        block = np.loadtxt(block, np.int64, comments=None, ndmin=2)
        keys[filled : filled + len(block)] = _index_keys(dim, depth, block)
        filled += len(block)
        if filled == rows:
            break
    keys = keys[:filled]
    keys.flags.writeable = False  # so the set keeps this array when it is in key order
    return DyadicCubeSet(dim, depth, keys)


def save_cubes(path, E: DyadicCubeSet) -> None:
    _atomic_write(path, chain((f"d {E.dim} m {E.depth}\n",), _cube_chunks(E)))


def load_cubes(path) -> DyadicCubeSet:
    with _format_errors(path), open(path, "r", encoding="utf-8") as f:
        # a binary pass bounds the rows by the line ends (\n, \r\n or \r; a
        # \r\n counts twice): the header's end stands for a last line that has none
        blocks = iter(lambda: f.buffer.read(_COUNT_BYTES), b"")
        rows = sum(b.count(b"\n") + (b.count(b"\r") if b"\r" in b else 0) for b in blocks)
        f.seek(0)
        header = f.readline().split()
        if len(header) != 4 or header[0] != "d" or header[2] != "m":
            raise FormatError(f"bad cube set header in {path}")
        return _read_cubes(f, int(header[1]), int(header[3]), rows)


def save_cover(path, cover: BoxCover) -> None:
    """One line per box: each axis's lo and hi in turn, as %.17g floats."""
    ends = np.stack(cover.floats(), axis=-1).reshape(len(cover), 2 * cover.dim)
    lines = [" ".join(f"{v:.17g}" for v in row) for row in ends.tolist()]
    _atomic_write(path, "\n".join(lines) + ("\n" if lines else ""))


def load_cover(path) -> BoxCover:
    with _format_errors(path), open(path, "r", encoding="utf-8") as f:
        rows = [[float(t) for t in line.split()] for line in f if line.strip()]
        if len({len(row) for row in rows}) > 1 or any(len(row) % 2 for row in rows):
            raise FormatError(f"box lines must hold lo/hi pairs of one dimension in {path}")
        dim = len(rows[0]) // 2 if rows else 1
        return BoxCover.from_boxes(dim, [list(zip(row[0::2], row[1::2])) for row in rows])


def _atomic_write(path, chunks: str | Iterable[str]) -> None:
    """Replace path with a text, or with an iterable of its chunks written in
    turn, via a per-call temp file and one rename, so concurrent writers
    never share a temp file and readers never see a part."""
    tmp = tempfile.NamedTemporaryFile(
        "w", encoding="utf-8", dir=os.path.dirname(path) or ".",
        prefix=os.path.basename(path) + ".", suffix=".tmp", delete=False,
    )
    try:
        with tmp:
            os.fchmod(tmp.fileno(), 0o666 & ~_UMASK)  # as a plain open() would
            for chunk in (chunks,) if isinstance(chunks, str) else chunks:
                tmp.write(chunk)
            tmp.flush()
            os.fsync(tmp.fileno())
        os.replace(tmp.name, path)
    except BaseException:
        os.unlink(tmp.name)
        raise
