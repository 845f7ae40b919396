"""Sampled continuous functions on cube domains and oscillation estimators.

A SampledFunction is a vertex grid of values at dyadic spacing h = 2^-m over a
cube-set domain, interpolated multilinearly, plus a producer-declared modulus
of continuity.  Two certification semantics coexist:

* generator-backed (exact=False): values sample an external function obeying
  the modulus; oscillation brackets are [vertex spread, vertex spread + 2w(h)].
* exact (exact=True): the interpolant itself is the function; oscillation
  upper bounds are computed exactly from cell corners, at any radius.
"""

from __future__ import annotations

import math
import operator
import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, islice
from itertools import product as iter_product
from typing import NamedTuple, Sequence

import numpy as np

from .gauges import ConfigError, GaugeLike
from .setlib import DyadicCubeSet, FormatError, _atomic_write, _format_errors
from .setlib import _closed_cell_candidates, _cube_chunks, _held, _points, _read_cubes

__all__ = [
    "HolderModulus",
    "TableModulus",
    "SampledFunction",
    "OscWindow",
    "LipField",
    "oscillation",
    "oscillation_window",
    "lip_field",
    "make_test_function",
    "cantor_value",
    "save_function",
    "load_function",
    "refined_values",
    "worker_count",
]


def worker_count() -> int:
    """Workers used by per-point sweeps: always 1, since lip_field is serial."""
    return 1


# ---------------------------------------------------------------------------
# Moduli of continuity


@dataclass(frozen=True)
class HolderModulus:
    """w(t) = c * t^alpha; Lipschitz is alpha = 1, constants use c = 0."""

    c: float
    alpha: float = 1.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.c < math.inf and 0.0 < self.alpha < math.inf):
            raise ValueError(
                f"holder modulus needs a finite c >= 0 and a finite alpha > 0,"
                f" not c={self.c!r}, alpha={self.alpha!r}"
            )

    def omega(self, t: float) -> float:
        if t <= 0.0:
            return 0.0
        return self.c * t**self.alpha

    def serialize(self) -> str:
        return f"modulus holder {self.c:.17g} {self.alpha:.17g}"


@dataclass(frozen=True)
class TableModulus:
    """Step bound: w(t) = value at the smallest knot >= t (clamped at the top)."""

    knots: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.knots) != len(self.values) or not self.knots:
            raise ValueError("table modulus needs matching nonempty knots/values")
        if any(b <= a for a, b in zip(self.knots, self.knots[1:])):
            raise ValueError("knots must increase")
        if any(b < a for a, b in zip(self.values, self.values[1:])):
            raise ValueError("values must be nondecreasing")
        if not all(0.0 <= v < math.inf for v in self.values):
            raise ValueError(f"table modulus values must be finite and >= 0, not {self.values!r}")

    def omega(self, t: float) -> float:
        if t <= 0.0:
            return 0.0
        for knot, value in zip(self.knots, self.values):
            if t <= knot:
                return value
        return self.values[-1]

    def serialize(self) -> str:
        pairs = " ".join(f"{k:.17g} {v:.17g}" for k, v in zip(self.knots, self.values))
        return f"modulus table {pairs}"


Modulus = HolderModulus | TableModulus

# vertices per block of every grid pass (resample, _adjacent_maxima,
# _check_values, _weierstrass_grid, the .fn writer and construct's chain
# pass): a pass holds blocks of this size, however deep the grid, and
# construct's stages hold no grid at all
GRID_BLOCK = 1 << 12


def grid_fits(depth: int) -> bool:
    """Whether numpy can size a 1-d grid of the depth, 2^depth + 1 float64 values."""
    return (2**depth + 1) * 8 <= np.iinfo(np.intp).max


# ---------------------------------------------------------------------------
# SampledFunction


@dataclass(frozen=True)
class SampledFunction:
    """Vertex values on the depth-m grid over a cube domain, multilinear in cells."""

    dim: int
    depth: int
    domain: DyadicCubeSet
    values: np.ndarray  # shape (2^m + 1,) * dim, NaN off the domain
    modulus: Modulus
    exact: bool = False

    def __post_init__(self) -> None:
        if self.domain.dim != self.dim or self.domain.depth > self.depth:
            raise ValueError("domain must match dimension at depth <= grid depth")
        n = (1 << self.depth) + 1
        if self.values.shape != (n,) * self.dim:
            raise ValueError(f"values shape {self.values.shape} != {(n,) * self.dim}")

    @property
    def h(self) -> float:
        return 2.0**-self.depth

    @property
    def full_domain(self) -> bool:
        return len(self.domain) == (1 << self.domain.depth) ** self.dim

    def evaluate_many(self, xs) -> np.ndarray:
        """f at points of shape (n, d), or (n,) in d = 1: the multilinear
        interpolant in the first domain cell holding each point (see _locate
        and _interpolate).  A point outside [0,1]^d or off the domain raises
        ValueError."""
        points = _points(xs, self.dim)
        cells, found = _locate(self, points)
        if not found.all():
            bad = points[np.argmin(found)]
            where = "the domain" if ((bad >= 0.0) & (bad <= 1.0)).all() else "[0,1]^d"
            raise ValueError(f"point {tuple(bad.tolist())} outside {where}")
        return _interpolate(self, cells, points)

    def resample(self, depth: int) -> "SampledFunction":
        """Exact refinement: the interpolant is unchanged on the finer grid."""
        if depth == self.depth:
            return self
        values = np.empty((1 << depth) + 1)
        for lo in range(0, values.size, GRID_BLOCK):
            idx = np.arange(lo, min(lo + GRID_BLOCK, values.size))
            values[lo : lo + idx.size] = self.refined_at(depth, idx)
        return SampledFunction(1, depth, self.domain, values, self.modulus, self.exact)

    def refined_at(self, depth: int, idx: np.ndarray) -> np.ndarray:
        """The values of the refinement to depth at the nondecreasing int64
        vertex indices idx, a new array (refined_values)."""
        if depth < self.depth:
            raise ValueError("resample only refines")
        if self.dim != 1:
            raise ValueError("resample implemented for dimension 1")
        return refined_values(self.values.__getitem__, self.depth, depth, idx)

    def value_blocks(self):
        """The values in grid (C) order, GRID_BLOCK at a time, as save_function
        writes them."""
        flat = np.ascontiguousarray(self.values, dtype=np.float64).reshape(-1)
        for lo in range(0, flat.size, GRID_BLOCK):
            yield flat[lo : lo + GRID_BLOCK]

    def _adjacent_maxima(self) -> list[float]:
        """Per axis, the largest |difference| of adjacent vertex values,
        NaN-ignoring and 0.0 when there is none, over blocks of rows of the
        first axis."""
        v = self.values
        rows = max(1, GRID_BLOCK * len(v) // v.size)
        maxima = []
        for axis in range(self.dim):
            mx = 0.0
            for lo in range(0, len(v), rows):
                # the first axis's differences reach one row into the next block
                diffs = np.diff(v[lo : lo + rows + (axis == 0)], axis=axis)
                np.abs(diffs, out=diffs)
                mx = max(mx, float(np.fmax.reduce(diffs, axis=None, initial=0.0)))
            maxima.append(mx)
        return maxima

    def grid_lipschitz(self) -> float:
        """Exact Lipschitz constant of the interpolant from adjacent differences."""
        return sum(self._adjacent_maxima()) / self.h

    def validate_adjacent(self) -> None:
        bound = self.modulus.omega(self.h) * (1.0 + 1e-9)
        for mx in self._adjacent_maxima():
            if mx > bound:
                raise ValueError(
                    f"adjacent vertex difference {mx} exceeds modulus bound {bound}"
                )


def refined_values(read, depth_from: int, depth: int, idx: np.ndarray) -> np.ndarray:
    """The refinement to depth, at the nondecreasing int64 vertex indices idx,
    of the 1-d function whose values at sorted vertex indices of its
    depth_from grid read gives, as a new array.  Only the vertices of the
    cells holding idx are read: a block of idx reads a block, sparse idx
    (a stage's anchors) reads two vertices each.  np.interp works per
    element (a vertex on the coarse grid gets its value, NaN or not, and a
    point between two grid vertices reads just those two), and xp is the
    coarse grid i * 2^-depth_from, the bits of np.linspace, so any split of
    the indices gives the bits of one whole-grid pass."""
    shift = depth - depth_from
    if shift == 0:
        return read(idx)
    cells = idx >> shift
    top = 1 << depth_from
    if idx[-1] - idx[0] == idx.size - 1:  # a block
        vertices = np.arange(cells[0], min(int(cells[-1]) + 1, top) + 1)
    else:  # each distinct cell's two ends, in order, each once
        cells = cells[np.r_[True, cells[1:] != cells[:-1]]]
        vertices = np.minimum(np.stack((cells, cells + 1), axis=1).ravel(), top)
        vertices = vertices[np.r_[True, vertices[1:] != vertices[:-1]]]
    return np.interp(idx * 2.0**-depth, vertices * 2.0**-depth_from, read(vertices))


def _domain_keys(f: SampledFunction, cells: np.ndarray) -> np.ndarray:
    """The keys of the domain cubes holding grid cells (..., d)."""
    q = cells >> (f.depth - f.domain.depth)
    return np.ravel_multi_index(tuple(np.moveaxis(q, -1, 0)), (1 << f.domain.depth,) * f.dim)


def _locate(f: SampledFunction, points: np.ndarray):
    """(cells, found) for points (n, d): the first domain cell holding each
    point, and whether there is one, taking the closed-cell candidates in
    their order.  A point outside [0,1]^d is not found."""
    inside, candidates = _closed_cell_candidates(points, f.depth)
    held = [inside & _held(f.domain.keys, _domain_keys(f, c)) for c in candidates]
    first = np.argmax(held, axis=0)  # the first candidate held, else the first
    return np.stack(candidates)[first, np.arange(len(points))], np.any(held, axis=0)


def _interpolate(f: SampledFunction, cells: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Multilinear interpolation of points (n, d) in grid cells (n, d) that
    hold them: 0.0 plus each corner's term in corner order, its weight
    multiplied in axis order, a zero weight skipping the term.  A point on a
    face shared by two cells gets the same nonzero terms in the same order
    from either, so any cell holding it gives the same bits."""
    t = points * (1 << f.depth) - cells
    out = np.zeros(len(points))
    for corner in iter_product((0, 1), repeat=f.dim):
        weight = np.ones(len(points))
        for axis, c in enumerate(corner):
            weight = weight * (t[:, axis] if c else 1.0 - t[:, axis])
        on = np.flatnonzero(weight)  # a zero weight skips its term
        out[on] += weight[on] * f.values[tuple((cells[on] + corner).T)]
    return out


# ---------------------------------------------------------------------------
# Oscillation


class OscBrackets(NamedTuple):
    """The brackets of oscillation, one entry per point."""

    lower: np.ndarray
    upper: np.ndarray


def _two_sum(a, b):
    """(s, e) with s = fl(a + b) and a + b = s + e exactly (Knuth's TwoSum)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _exact_floor(s, e, scale: int) -> np.ndarray:
    """floor((s + e) * scale) for TwoSum pairs, a power of two scale and
    |s * scale| < 2^52, without a Fraction: the scaling is exact, so only an
    integral s * scale can round the other way, by the sign of e."""
    y = s * scale
    k = np.floor(y)
    return (k - ((k == y) & (e < 0.0))).astype(np.int64)


def _vertex_windows(xs: np.ndarray, r: float, depth: int):
    """Exact index windows [lo, hi] of the depth-grid vertices in
    [x-r, x+r] cap [0,1], and the TwoSum pairs (s, e) of r - x, then x + r."""
    top = 1 << depth
    s, e = _two_sum(np.concatenate((-xs, xs)), r)
    k = _exact_floor(s, e, top)
    n = xs.size
    return np.maximum(-k[:n], 0), np.minimum(k[n:], top), s, e


_NAN = np.array([np.nan])


def _window_extremes(values: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """NaN-ignoring (min, max) of values[lo:hi+1] per window, NaN where a
    window holds no number; lo and hi nondecreasing.  One reduceat over the
    span the windows touch.  reduceat takes no index equal to the span's
    length, so the span is a view reaching one vertex past hi[-1]; only when
    a window is empty or ends at the last vertex is it a copy, padded with a
    NaN that the empty windows point at."""
    base, end = lo[0], hi[-1] + 1
    if end < values.size and (lo <= hi).all():
        span, start = values[base : end + 1], lo
    else:
        span = np.concatenate((values[base:end], _NAN))
        start = np.where(lo > hi, span.size - 1 + base, lo)
    idx = np.empty(2 * lo.size, dtype=np.int64)
    idx[0::2] = start
    idx[1::2] = hi + 1
    idx -= base
    return np.fmin.reduceat(span, idx)[0::2], np.fmax.reduceat(span, idx)[0::2]


def oscillation(f: SampledFunction, points, r: float) -> OscBrackets:
    """Certified brackets of the oscillation over the closed max-norm balls
    B(x, r), for many points x of [0,1]^d at once: an array of shape (n,),
    nondecreasing, in d = 1, and of shape (n, d) in d >= 2.

    lower: spread of the vertex values inside the ball (a true lower bound).
    upper: for exact functions the interpolant's oscillation over the ball
    within the domain, else lower + 2*w(h).  Balls are those of the metric
    space Omega, B(x, r) cap Omega, so one that reaches past [0,1] or the
    domain needs no special case.  The r >= 4h resolution guard applies to
    generator-backed functions only; exact brackets need no vertex density,
    but every ball end x -+ r that lies in [0,1] must be a float (dyadic x
    and r give that), else ValueError names the ball.  Off-domain vertices
    must be NaN.
    """
    if not 0.0 < r < math.inf:
        raise ValueError("radius must be positive")
    if not f.exact and r < 4.0 * f.h:
        raise ValueError(f"radius {r} below resolution guard 4h = {4.0 * f.h}")
    points = np.asarray(points, dtype=np.float64)
    item = (f.dim,) if f.dim > 1 else ()
    if points.ndim != 1 + len(item) or points.shape[1:] != item or points.shape[0] == 0:
        shape = "(n,)" if f.dim == 1 else f"(n, {f.dim})"
        raise ValueError(f"oscillation needs a nonempty array of shape {shape} in d = {f.dim}")
    if f.dim == 1 and points.size > 1 and not (points[1:] >= points[:-1]).all():
        raise ValueError("oscillation needs nondecreasing points in d = 1")
    inside = ((points >= 0.0) & (points <= 1.0)).reshape(points.shape[0], -1).all(axis=1)
    if not inside.all():
        bad = np.atleast_1d(points[np.argmin(inside)])
        raise ValueError(f"point {tuple(bad.tolist())} outside [0,1]^d")
    # a ball of radius 2 already covers [0,1]; the cap keeps (x -+ r) 2^depth below
    # 2^52, where _exact_floor is exact
    lo, hi, s, e = _vertex_windows(points.ravel(), min(r, 2.0), f.depth)
    n = points.shape[0]
    inexact = np.zeros(n, dtype=bool)
    if f.exact:
        # an exact bracket reads the rounded ends, so an end x -+ r = end + err
        # that lies in [0,1] must be a float: its TwoSum error must be zero
        m = points.size
        end, err = np.concatenate((-s[:m], s[m:])), np.concatenate((-e[:m], e[m:]))
        bad = (err != 0.0) & (end > 0.0) & ((end < 1.0) | ((end == 1.0) & (err < 0.0)))
        inexact = bad.reshape(2, n, -1).any(axis=(0, 2))
    if f.dim == 1:
        if inexact.any():
            raise _inexact_end(points[np.argmax(inexact)], r)
        return _oscillation_1d(f, points, lo, hi, s)
    return _oscillation_nd(f, points, r, lo.reshape(n, -1), hi.reshape(n, -1), inexact)


def _inexact_end(x, r) -> ValueError:
    return ValueError(
        f"ball B({tuple(np.atleast_1d(x).tolist())}, {r}) has an end x -+ r in [0,1]"
        " that is not a float; an exact bracket needs exact ends"
    )


def _oscillation_1d(f: SampledFunction, xs, lo, hi, s) -> OscBrackets:
    """d = 1, all points in one pass; s holds the rounded r - x, then x + r.
    An exact function peaks at a vertex or at an end of the ball, so the
    vertex extremes and the in-domain ends give upper exactly; each end is
    interpolated with evaluate_many's float operations, so a one-point call
    gives the same bits.  A zero bracket is +0.0."""
    vmin, vmax = _window_extremes(f.values, lo, hi)
    n = xs.size
    low, high = -s[:n], s[n:]  # x - r and x + r, rounded
    if not f.exact:
        if np.isnan(vmin).any():
            raise ValueError("no domain vertex inside the ball; deepen the grid")
        lower = (vmax - vmin) + 0.0
        return OscBrackets(lower, lower + 2.0 * f.modulus.omega(f.h))
    lower = np.where(np.isnan(vmin), 0.0, vmax - vmin) + 0.0
    for end in (np.maximum(0.0, low), np.minimum(1.0, high)):
        p = end[:, None]
        cells, found = _locate(f, p)
        v = np.where(found, _interpolate(f, cells, p), np.nan)
        vmin, vmax = np.fmin(vmin, v), np.fmax(vmax, v)
    if np.isnan(vmax).any():
        raise ValueError("ball does not meet the domain")
    # upper >= lower: its values include the window's extremes
    return OscBrackets(lower, (vmax - vmin) + 0.0)


def _oscillation_nd(f: SampledFunction, points, r, lo, hi, inexact) -> OscBrackets:
    """d >= 2, one point at a time, each in array work.  An exact function's
    extremes lie at the corners of the ball's pieces in the domain cells it
    meets, also one the closed ball touches only across a face on a box end.
    Per axis these corners take the box ends and the grid coordinates
    between them, so they are the tensor product of those lists; a corner
    counts when a domain cell of the ball holds it, and it is interpolated in
    a ball cell that holds it, which gives the bits of evaluate_many (see
    _interpolate)."""
    top = 1 << f.depth
    out = np.empty((2, len(points)))
    for i, x in enumerate(points):
        if inexact[i]:  # raised here, so the batch raises the first point's error
            raise _inexact_end(x, r)
        window = f.values[tuple(slice(a, b + 1) for a, b in zip(lo[i], hi[i]))]
        window = window[~np.isnan(window)]
        if window.size:
            lower = float(window.max()) - float(window.min())
        elif f.exact:
            lower = 0.0
        else:
            raise ValueError("no domain vertex inside the ball; deepen the grid")
        if not f.exact:
            out[:, i] = lower, lower + 2.0 * f.modulus.omega(f.h)
            continue
        blo, bhi = np.maximum(0.0, x - r), np.minimum(1.0, x + r)
        clo = np.minimum(np.floor(blo * top), top - 1).astype(np.int64)
        chi = np.minimum(np.floor(bhi * top), top - 1).astype(np.int64)
        chi -= (bhi * top == chi) & (chi > clo)  # a box end on a vertex
        # the closed ball also meets the cell across a box end on a vertex
        glo = clo - ((blo * top == clo) & (clo > 0))
        ghi = chi + ((bhi * top == chi + 1) & (chi + 1 < top))
        ball = np.stack(np.meshgrid(*map(np.arange, glo, ghi + 1), indexing="ij"), axis=-1)
        # corner j of an axis lies in the ball cells j - 1 and j
        touched = _held(f.domain.keys, _domain_keys(f, ball))
        for axis in range(f.dim):
            t = np.moveaxis(touched, axis, 0)
            touched = np.moveaxis(np.concatenate((t[:1], t[1:] | t[:-1], t[-1:])), 0, axis)
        if not touched.any():
            raise ValueError("ball does not meet the domain")
        axes = [np.r_[a, np.arange(c + 1, d + 1) / top, b] for a, b, c, d in zip(blo, bhi, glo, ghi)]
        holders = [np.minimum(np.arange(c, d + 2), d) for c, d in zip(glo, ghi)]
        corners = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)[touched]
        cells = np.stack(np.meshgrid(*holders, indexing="ij"), axis=-1)[touched]
        v = _interpolate(f, cells, corners)
        out[:, i] = lower, max(float(v.max() - v.min()) + 0.0, lower)
    return OscBrackets(out[0], out[1])


@dataclass(frozen=True, eq=False)
class OscWindow:
    """The oscillation brackets of n points over a window of m radii.

    points (n, d); radii (m,), distinct and descending; lower and upper
    (n, m), the brackets `oscillation` gives at each (point, radius), and
    their ratios to phi(r).  Balls are max-norm, relative to the domain;
    Euclidean ones differ by <= sqrt(d).
    """

    points: np.ndarray
    radii: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    ratio_lower: np.ndarray
    ratio_upper: np.ndarray

    def __post_init__(self) -> None:
        for name in ("points", "radii", "lower", "upper", "ratio_lower", "ratio_upper"):
            getattr(self, name).flags.writeable = False

    def summary(self, mode: str) -> np.ndarray:
        """Per point, lip: the min over the window of upper/phi(r), a
        certified upper bound of the window infimum.  Lip: the max of
        lower/phi(r), a certified lower bound of the window supremum."""
        if mode == "lip":
            return self.ratio_upper.min(axis=1)
        if mode == "Lip":
            return self.ratio_lower.max(axis=1)
        raise ValueError("mode must be 'lip' or 'Lip'")


def oscillation_window(
    f: SampledFunction, points, phi: GaugeLike, radii: Sequence[float]
) -> OscWindow:
    """The window at points of shape (n, d), or (n,) in d = 1, where they
    must be nondecreasing, over the distinct radii (at least 6): one
    oscillation call per radius over all the points."""
    radii = np.array(sorted(set(map(float, radii)), reverse=True))
    if radii.size < 6:
        raise ValueError("need at least 6 window radii")
    points = np.array(_points(points, f.dim))
    lower, upper = np.empty((2, len(points), radii.size))
    for j, r in enumerate(radii.tolist()):
        if len(points):
            osc = oscillation(f, points[:, 0] if f.dim == 1 else points, r)
            lower[:, j], upper[:, j] = osc.lower, osc.upper
    phi_r = np.array([phi.eval(r) for r in radii.tolist()])
    with np.errstate(over="ignore"):  # a ratio past the float range is inf
        ratios = lower / phi_r, upper / phi_r
    return OscWindow(points, radii, lower, upper, *ratios)


@dataclass(frozen=True, eq=False)
class LipField:
    """Classification of sample points by the lip proxy against a threshold."""

    tau: float
    window: OscWindow  # at the sample cube centers that lie in the domain
    proxies: np.ndarray  # window.summary("lip")
    over_tau: DyadicCubeSet  # sample-depth cubes whose center exceeded tau

    @property
    def classes(self) -> tuple[str, ...]:
        return tuple("over" if p > self.tau else "approx-zero" for p in self.proxies.tolist())


def lip_field(
    f: SampledFunction,
    phi: GaugeLike,
    tau: float,
    sample_depth: int,
    radii: Sequence[float],
) -> LipField:
    """The lip window at the centers of a coarser sample grid (>= 4x coarser)."""
    if sample_depth > f.depth - 2:
        raise ValueError("sample grid must be at least 4x coarser than the value grid")
    grid = DyadicCubeSet.full(f.dim, sample_depth)
    centers = (grid.indices() + 0.5) / (1 << sample_depth)
    inside = f.domain.contains(centers)
    window = oscillation_window(f, centers[inside], phi, radii)
    proxies = window.summary("lip")
    over = grid.keys[inside][proxies > tau]
    return LipField(tau, window, proxies, DyadicCubeSet(f.dim, sample_depth, over))


# ---------------------------------------------------------------------------
# Benchmark generators


CANTOR_DIGITS = 120  # ternary digits read by cantor_value


def cantor_value(x: Fraction) -> float:
    """Cantor function via ternary digits; exact to < 2^-CANTOR_DIGITS."""
    if x <= 0:
        return 0.0
    if x >= 1:
        return 1.0
    num, den = x.numerator, x.denominator
    value = 0.0
    scale = 0.5
    for _ in range(CANTOR_DIGITS):
        num *= 3
        digit, num = divmod(num, den)
        if digit == 1:
            value += scale
            break
        value += scale * (digit / 2.0)
        scale /= 2.0
        if num == 0:
            break
    return value


def _weierstrass_grid(a: float, b: int, terms: int, depth: int) -> np.ndarray:
    """Sum of a^n cos(2 pi b^n x) over n < terms at the grid points x = i /
    2^depth, in order of n, one GRID_BLOCK of points at a time.  b^n x is
    reduced mod 1 exactly, to m / 2^depth, so every term reads one table of
    cos(2 pi m / 2^depth)."""
    top = 1 << depth
    table = np.cos(2.0 * math.pi * (np.arange(top) / top))
    coefficients = [(a**n, pow(b, n, top)) for n in range(terms)]
    total = np.zeros(top + 1)
    for lo in range(0, top + 1, GRID_BLOCK):
        idx = np.arange(lo, min(lo + GRID_BLOCK, top + 1), dtype=np.int64)
        block = total[lo : lo + idx.size]
        for an, bn in coefficients:
            block += an * table[(bn * idx) & (top - 1)]
    return total


def make_test_function(name: str, params: dict | None = None, depth: int = 10) -> SampledFunction:
    """Benchmark functions with closed-form moduli.

    affine(c, intercept): w(t) = |c| t, exact interpolant.
    constant(value): zero modulus, exact.
    weierstrass(a, b, terms): w(t) = C t^alpha with alpha = ln(1/a)/ln b and
        C = 2 pi b/(ab-1) + 2/(1-a), the split-at-b^N >= 1/t estimate.
    cantor: w(t) = 2 t^(ln2/ln3).
    """
    params = dict(params or {})
    top = 1 << depth
    domain = DyadicCubeSet.full(1, 0)
    if name == "constant":
        value = float(params.pop("value", params.pop("c", 0.0)))
        values = np.full(top + 1, value)
        fn = SampledFunction(1, depth, domain, values, HolderModulus(0.0, 1.0), exact=True)
    elif name == "affine":
        c = float(params.pop("c", 1.0))
        intercept = float(params.pop("intercept", 0.0))
        if not math.isfinite(abs(c) + abs(intercept)):
            raise ConfigError(f"affine values c x + {intercept:g} leave the float range")
        values = c * np.arange(top + 1) / top + intercept
        fn = SampledFunction(1, depth, domain, values, HolderModulus(abs(c), 1.0), exact=True)
    elif name == "weierstrass":
        a = float(params.pop("a", 0.5))
        b = int(params.pop("b", 3))
        terms = int(params.pop("terms", 25))
        if not (0.0 < a < 1.0) or b < 3 or b % 2 == 0 or a * b <= 1.0:
            raise ConfigError("weierstrass needs 0 < a < 1, odd b >= 3, ab > 1")
        alpha = math.log(1.0 / a) / math.log(b)
        c_holder = 2.0 * math.pi * b / (a * b - 1.0) + 2.0 / (1.0 - a)
        values = _weierstrass_grid(a, b, terms, depth)
        fn = SampledFunction(1, depth, domain, values, HolderModulus(c_holder, alpha))
    elif name == "cantor":
        alpha = math.log(2.0) / math.log(3.0)
        values = np.array([cantor_value(Fraction(i, top)) for i in range(top + 1)])
        fn = SampledFunction(1, depth, domain, values, HolderModulus(2.0, alpha))
    else:
        raise ConfigError(f"unknown test function {name!r}")
    if params:
        raise ConfigError(f"unknown parameters for {name}: {sorted(params)}")
    if top <= (1 << 20):
        fn.validate_adjacent()
    return fn


# ---------------------------------------------------------------------------
# Text file format (.fn)


# characters per read chunk: the values block is never one string
_READ_CHUNK = 1 << 16
# a read chunk looks for runs only when one of its line pairs (i, i + 1),
# i a multiple of this, repeats
_RUN_PROBE = 16


def _value_chunks(blocks):
    """The %.17g lines of the values in blocks, one chunk per block.  A run
    of bitwise-equal values in a block (-0.0 and 0.0 differ) is formatted
    once and its line repeated, which gives the bytes of formatting every
    value."""
    for block in blocks:
        bits = block.view(np.uint64)
        starts = np.flatnonzero(np.r_[True, bits[1:] != bits[:-1]])
        if len(starts) == block.size:  # no repeats
            yield ("%.17g\n" * block.size) % tuple(block.tolist())
        else:
            text = ("%.17g\n" * len(starts)) % tuple(block[starts].tolist())
            lengths = np.diff(np.r_[starts, block.size]).tolist()
            yield "".join(map(operator.mul, text.splitlines(keepends=True), lengths))


def save_function(path, f: SampledFunction) -> None:
    """Write f as a .fn file.  f may also be any object with a
    SampledFunction's dim, depth, domain, modulus and exact whose
    value_blocks() yields its float64 values in grid order, as a
    construct.TypicalBuild's streamed final function does."""
    head = f"d {f.dim} m {f.depth} domain {len(f.domain)}\ndomain_depth {f.domain.depth}\n"
    tail = f.modulus.serialize() + ("\nexact 1\n" if f.exact else "\n")
    _atomic_write(path, chain(
        (head,), _cube_chunks(f.domain), ("values\n",), _value_chunks(f.value_blocks()), (tail,)
    ))


def _parse_values(lines: list[str]) -> np.ndarray:
    """float() of each line, called once per run of equal lines.  When no
    sampled adjacent pair repeats, every line goes straight to float()."""
    if not any(map(operator.eq, lines[1::_RUN_PROBE], lines[::_RUN_PROBE])):
        return np.fromiter(map(float, lines), float, len(lines))
    change = np.fromiter(map(operator.ne, islice(lines, 1, None), lines), bool, len(lines) - 1)
    starts = np.flatnonzero(np.r_[True, change])
    heads = np.fromiter(map(float, map(lines.__getitem__, starts.tolist())), float, len(starts))
    return np.repeat(heads, np.diff(np.r_[starts, len(lines)]))


def _read_values(fh, count: int, path) -> tuple[np.ndarray, str]:
    """The next count value lines of fh, read in fixed-size chunks, and the
    text after them."""
    if 2 * count - 1 > os.fstat(fh.fileno()).st_size:  # a value line takes 2 bytes, "0\n"
        raise FormatError(f"truncated values in {path}: the file cannot hold {count}")
    flat = np.empty(count)
    filled, rest = 0, ""
    while filled < count:
        chunk = fh.read(_READ_CHUNK)
        if not chunk and not rest:
            raise FormatError(f"truncated values in {path}: {filled} of {count}")
        lines = (rest + chunk).split("\n")
        rest = lines.pop() if chunk else ""  # a partial line waits for the next chunk
        take = min(len(lines), count - filled)
        if not take:
            continue
        flat[filled:filled + take] = _parse_values(lines[:take])
        filled += take
        if take < len(lines):
            rest = "\n".join([*lines[take:], rest])
    return flat, rest


def _check_values(path, flat: np.ndarray, depth: int, domain: DyadicCubeSet) -> None:
    """FormatError naming the first vertex whose value is +-inf, or NaN on a
    vertex of a domain cube; a block of GRID_BLOCK values at a time."""
    shape = ((1 << depth) + 1,) * domain.dim
    for lo in range(0, flat.size, GRID_BLOCK):
        block = flat[lo : lo + GRID_BLOCK]
        if np.isfinite(block).all():
            continue
        at = lo + np.flatnonzero(~np.isfinite(block))
        vertices = np.stack(np.unravel_index(at, shape), axis=-1)
        bad = np.isinf(flat[at]) | domain.contains(vertices * 2.0**-depth)
        if bad.any():
            i = int(np.argmax(bad))
            raise FormatError(
                f"{path}: value {float(flat[at[i]])!r} at vertex {tuple(vertices[i].tolist())};"
                " a value must be finite, or NaN off the domain's cubes"
            )


def load_function(path) -> SampledFunction:
    with _format_errors(path), open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 6 or header[0] != "d" or header[2] != "m" or header[4] != "domain":
            raise FormatError(f"bad function header in {path}")
        dim, depth, count = int(header[1]), int(header[3]), int(header[5])
        dd_line = fh.readline().split()
        if dd_line[0] != "domain_depth":
            raise FormatError(f"missing domain_depth line in {path}")
        if not 0 <= 2 * count <= os.fstat(fh.fileno()).st_size:  # a domain line takes 2 bytes
            raise FormatError(f"{path}: the file cannot hold {count} domain cubes")
        domain = _read_cubes(fh, dim, int(dd_line[1]), count)
        marker = fh.readline().strip()
        if marker != "values":
            raise FormatError(f"missing values marker in {path}")
        n = (1 << depth) + 1
        flat, rest = _read_values(fh, n**dim, path)
        _check_values(path, flat, depth, domain)
        modulus: Modulus | None = None
        exact = False
        for line in (rest + fh.read()).split("\n"):
            tokens = line.split()
            if not tokens:
                continue
            if tokens[:2] == ["modulus", "holder"] and len(tokens) == 4:
                modulus = HolderModulus(float(tokens[2]), float(tokens[3]))
            elif tokens[:2] == ["modulus", "table"]:
                vals = [float(t) for t in tokens[2:]]
                modulus = TableModulus(tuple(vals[0::2]), tuple(vals[1::2]))
            elif tokens in (["exact", "0"], ["exact", "1"]):
                exact = tokens[1] == "1"
            else:
                raise FormatError(f"{path}: line {line.strip()!r} after the values is no"
                                  " `modulus holder|table ...` or `exact 0|1` line")
        if modulus is None:
            raise FormatError(f"missing modulus line in {path}")
        return SampledFunction(dim, depth, domain, flat.reshape((n,) * dim), modulus, exact)
