"""Partition pipeline: split the domain into a small-in-lower-box-measure part
and a part whose image carries a small Hausdorff sum, via the greedy Vitali 5r
cover of admissible balls and the disjointness volume bound.

All balls are closed max-norm balls, so the unit-ball volume entering the
bound is alpha_d = 2^d; reports carry the norm so the constant is auditable.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from .construct import ConstructError, TypicalBuild, deepest_core_complement, plateau_extremes
from .funclib import SampledFunction, oscillation
from .gauges import (
    ConfigError,
    GaugeDomainError,
    GaugeLike,
    format_gauge,
    gauge_at_diameter,
    verify_schizm_relation,
)
from .setlib import DyadicCubeSet

__all__ = [
    "VitaliCover",
    "split_partition",
    "vitali_5r",
    "image_cover_report",
    "b_image_cubes",
    "graph_cross_check",
]


@dataclass(frozen=True)
class VitaliCover:
    """Greedy disjoint subfamily whose 5r expansions cover every candidate.

    kept holds the kept candidates' indices in selection order; witnesses[i]
    is the position in kept of a kept ball that meets candidate i with a
    radius at least its own, so candidate i lies in that ball's 5r
    expansion."""

    kept: tuple[int, ...]
    witnesses: tuple[int, ...]

    def verify(self, centers, radii) -> None:
        """Disjointness on center-adjacent kept pairs (intervals in 1-d, so
        pairwise) and each candidate against its witness."""
        centers, radii = np.asarray(centers, dtype=float), np.asarray(radii, dtype=float)
        if len(self.witnesses) != len(centers):
            raise ValueError("the cover does not name one witness per candidate")
        kept = np.asarray(self.kept, dtype=np.int64)
        if np.any((kept < 0) | (kept >= len(centers))):
            raise ValueError("the cover keeps a ball that is no candidate")
        kc, kr = centers[kept], radii[kept]
        order = np.argsort(kc, kind="stable")
        c, r = kc[order], kr[order]
        if np.any(np.abs(c[:-1] - c[1:]) <= r[:-1] + r[1:]):
            raise ValueError("kept balls are not pairwise disjoint")
        # a witness outside kept reads the NaN ball past its end, which meets nothing
        kc, kr = np.append(kc, np.nan), np.append(kr, np.nan)
        w = np.asarray(self.witnesses, dtype=np.int64)
        w = np.where((w >= 0) & (w < len(kept)), w, len(kept))
        dist = np.abs(centers - kc[w])
        covered = (dist <= radii + kr[w]) & (kr[w] >= radii) & (dist + radii <= 5.0 * kr[w])
        if not np.all(covered):
            x = centers[np.argmin(covered)]
            raise ValueError(f"candidate at {x} escapes every 5r expansion")


def vitali_5r(centers, radii) -> VitaliCover:
    """Greedy 5r selection over the 1-d balls [centers[i] -+ radii[i]]:
    radius descending, ties by center, keep a ball if it is disjoint from
    every ball kept before it.

    The pass runs one radius class at a time.  The balls kept so far are
    disjoint intervals, so a ball that meets any of them meets a
    center-neighbour: one searchsorted against their centers finds, for the
    whole class, the balls that meet a larger kept ball (left neighbour
    first), which is their witness.  The class's other balls are free; in
    center order, each kept one is followed by the run of free balls it
    meets (they take it as witness), and the first free ball past the run is
    kept next, so that loop runs once per kept ball.  Meeting is the float
    test |a - b| <= ra + rb throughout.  Every candidate then meets a kept
    ball of at least its radius, so the 5x expansions of the kept family
    cover the union of all candidates; this is verified on the way out.
    """
    centers, radii = np.asarray(centers, dtype=float), np.asarray(radii, dtype=float)
    if centers.ndim != 1:
        raise ValueError("the Vitali sweep is implemented for dimension 1: centers need shape (n,)")
    if radii.shape != centers.shape:
        raise ValueError("need one radius per center")
    if not np.all(radii > 0):
        raise ValueError("ball radii must be positive")
    order = np.lexsort((centers, -radii))
    kept: list[int] = []  # candidate indices, in selection order
    witnesses = np.empty(len(centers), dtype=np.int64)
    # the kept balls in center order: center, radius, position in kept
    kc, kr, kp = np.empty(0), np.empty(0), np.empty(0, dtype=np.int64)
    classes = np.split(order, np.flatnonzero(np.diff(radii[order])) + 1) if len(order) else []
    for members in classes:
        r = float(radii[members[0]])
        x = centers[members]
        w = np.full(len(members), -1)
        if len(kc):
            at = np.searchsorted(kc, x)
            for j in (np.maximum(at - 1, 0), np.minimum(at, len(kc) - 1)):
                meets = (w < 0) & (np.abs(x - kc[j]) <= r + kr[j])
                w[meets] = kp[j[meets]]
        free = np.flatnonzero(w < 0)
        fx = x[free].tolist()
        runs = []  # positions in fx of the balls kept in this class
        i = 0
        while i < len(fx):
            runs.append(i)
            c = fx[i]
            # the first ball past the run, guessed and then moved by the float test
            j = bisect.bisect_right(fx, c + (r + r), i + 1)
            while j > i + 1 and not abs(fx[j - 1] - c) <= r + r:
                j -= 1
            while j < len(fx) and abs(fx[j] - c) <= r + r:
                j += 1
            i = j
        w[free] = len(kept) + np.searchsorted(runs, np.arange(len(fx)), side="right") - 1
        witnesses[members] = w
        new = free[runs]
        at = np.searchsorted(kc, x[new])
        kc = np.insert(kc, at, x[new])
        kr = np.insert(kr, at, r)
        kp = np.insert(kp, at, len(kept) + np.arange(len(new)))
        kept.extend(members[new].tolist())
    cover = VitaliCover(tuple(kept), tuple(witnesses.tolist()))
    cover.verify(centers, radii)
    return cover


SPLIT_RASTER_DEPTH = 14  # depth of the A/B rasters, capped at the final function's depth


def split_partition(build: TypicalBuild) -> tuple[DyadicCubeSet, DyadicCubeSet]:
    """A = rasterized certified superset of {lip_phi g* > 0}; B = Omega minus A.

    A cube lands in B exactly when it sits inside a deepest-stage core, where
    the final function is constant; the split is an exact cube-level partition.
    """
    raster_depth = min(SPLIT_RASTER_DEPTH, build.depth)
    F_intervals = deepest_core_complement(build)
    A = DyadicCubeSet.from_interval_union(F_intervals, raster_depth)
    omega = build.domain.refine(raster_depth).keys
    B = DyadicCubeSet(1, raster_depth, np.setdiff1d(omega, A.keys, assume_unique=True))
    A = DyadicCubeSet(1, raster_depth, np.intersect1d(A.keys, omega, assume_unique=True))
    return A, B


RADIUS_SCAN = 60  # deepest dyadic exponent scanned for an admissible radius


def _admissible_radius(
    f: SampledFunction, xs, phi: GaugeLike, delta: float
) -> tuple[np.ndarray, np.ndarray]:
    """Per point of xs (one point, or nondecreasing points): the largest dyadic
    r with r < delta, phi(5r) < delta and diam f(B(x,5r)) < phi(5r), and that
    diameter bound; r = 0 where the scan finds none.  Every point scans the
    same radii, so each radius is one oscillation call over the points still
    open.  An exact f's bracket needs float ends x -+ 5r, so a point stops
    scanning at the first radius where an end is not a float."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    radius = np.zeros(xs.shape)
    diam = np.zeros(xs.shape)
    open_idx = np.arange(xs.size)
    for j in range(RADIUS_SCAN + 1):
        r = 2.0**-j
        if r >= delta or 5.0 * r > 1.0:
            continue
        if f.exact:  # a rounded sum never gives back both of its operands
            x, t = xs[open_idx], 5.0 * r
            hi, lo = x + t, x - t
            open_idx = open_idx[(hi - x == t) & (hi - t == x) & (lo - x == -t) & (lo + t == x)]
        if not open_idx.size:
            break
        try:
            p5 = phi.eval(5.0 * r)
        except GaugeDomainError:
            continue
        if p5 < delta:
            upper = oscillation(f, xs[open_idx], 5.0 * r).upper
            hit = upper < p5
            radius[open_idx[hit]] = r
            diam[open_idx[hit]] = upper[hit]
            open_idx = open_idx[~hit]
    return radius, diam


def image_cover_report(
    f: SampledFunction,
    B: DyadicCubeSet,
    phi: GaugeLike,
    xi: GaugeLike,
    delta: float,
) -> dict:
    """Cover f(B) through admissible balls seeded at every cube center of B;
    returns the partition payload's image_cover record.

    Admissibility is checked against certified oscillation upper bounds, the
    greedy Vitali pass keeps a disjoint family, and the record carries the
    per-ball chain xi(diam E_i) <= xi(phi(5 r_i)) <= r_i^(d+1) (chain_audit)
    next to the analytic bound delta (1+2 delta)^d / alpha_d.  Each candidate lies in a
    kept ball's 5r expansion, whose image has diameter at most diam_upper,
    so these images cover f(B) once each cube's image lies in its own
    ball's: the ball covers the cube (radius >= half the side), or f is
    constant on it (an exact oscillation bound of 0).  The centers of the
    other cubes are the uncovered_points; the verdict needs none, and the
    sum within the bound.  Of the candidates (the covered centers), the
    Vitali pass discards all but the balls listed.
    """
    if f.dim != 1:
        raise ValueError("image cover pipeline is implemented for dimension 1")
    d = f.dim
    scales = [2.0**-j for j in range(3, 40)]
    violation = verify_schizm_relation(xi, phi, d, scales)
    if violation is not None:
        raise ConfigError(f"gauge relation xi(phi(5r)) <= r^(d+1) fails at r={violation}")
    # (k + 1/2) 2^-depth is exact in floats
    centers = (B.keys.astype(float) + 0.5) / 2.0**B.depth
    half_side = 2.0 ** -(B.depth + 1)  # the closed ball B(center, half_side) is the cube
    radii, diams = _admissible_radius(f, centers, phi, delta)
    found = radii > 0.0
    open_, narrow = ~found, found & (radii < half_side)
    if narrow.any():  # only an exact bracket can show that f is constant
        open_[narrow] = not f.exact or oscillation(f, centers[narrow], half_side).upper > 0.0
    uncovered = [[x] for x in centers[open_].tolist()]
    centers, radii, diams = centers[found], radii[found], diams[found]
    cover = vitali_5r(centers, radii)
    kept = list(cover.kept)
    balls = []
    chain = []
    total = 0.0
    # diam5: the oscillation upper bound over B(x, 5r), found for this radius
    for x, r, diam5 in zip(centers[kept].tolist(), radii[kept].tolist(), diams[kept].tolist()):
        xi_diam = gauge_at_diameter(xi, diam5)
        xi_phi = xi.eval(phi.eval(5.0 * r))
        rpow = r ** (d + 1)
        if not (xi_diam <= xi_phi * (1 + 1e-12) and xi_phi <= rpow * (1 + 1e-12)):
            raise ConfigError(
                f"chain audit failed for the kept ball at x={x}, r={r}: xi(diam) = {xi_diam:g},"
                f" xi(phi(5r)) = {xi_phi:g}, r^(d+1) = {rpow:g}"
            )
        total += xi_diam
        balls.append({"x": [x], "r": r, "diam_upper": diam5})
        chain.append({"xi_diam": xi_diam, "xi_phi_5r": xi_phi, "r_pow_d1": rpow})
    alpha_d = 2.0**d
    bound = delta * (1.0 + 2.0 * delta) ** d / alpha_d
    return {
        "gauge_xi": format_gauge(xi),
        "gauge_phi": format_gauge(phi),
        "delta": delta,
        "norm": "max",
        "alpha_d": alpha_d,
        "balls": balls,
        "sum": total,
        "bound": bound,
        "verdict": total <= bound and not uncovered,
        "chain_audit": chain,
        "uncovered_points": uncovered,
        "candidates": len(centers),
        "discarded": len(centers) - len(kept),
    }


def b_image_cubes(build: TypicalBuild, img_depth: int = 20) -> DyadicCubeSet:
    """Cubes covering f(B): the final function's values on the deepest plateaus.

    B lies in the deepest cores, where the final function must be flat (else a
    ConstructError names the cube), so f(B) is exactly this finite value set.
    Needs the value range inside [0,1] (cube sets represent [0,1] only).
    """
    n = build.n_stages
    values, mx = plateau_extremes(build, n)
    i = int(np.argmax(values != mx))  # the first plateau that is not flat, if any
    if values[i] != mx[i]:
        raise ConstructError(
            f"stage {n}: final function not flat on the plateau of cube"
            f" {build.stages[-1].kept[i]}: spread {mx[i] - values[i]:g}"
        )
    if np.min(values) < 0.0 or np.max(values) > 1.0:
        raise ConstructError(
            "plateau values leave [0,1]; a DyadicCubeSet image cover needs a [0,1] range"
        )
    return DyadicCubeSet.from_points(1, img_depth, values)


def graph_cross_check(build: TypicalBuild, B: DyadicCubeSet) -> int | None:
    """graph(f) within (A x R) u (R x B_img) on all of Omega, proved cube by
    cube; returns the key of the first B cube on no deepest kept plateau, or
    None when there is none.

    split_partition gives Omega = A u B exactly, and b_image_cubes shows that
    f is flat on every deepest kept plateau, with each plateau value in
    B_img.  What is left: every B cube lies in one plateau's vertex range
    [lo_v, hi_v] (disjoint, increasing), compared in integers on the finer
    of the two grids."""
    rec = build.stages[-1]
    depth = max(B.depth, rec.depth)
    s, t = depth - B.depth, depth - rec.depth
    i = np.searchsorted(rec.lo_v << t, B.keys << s, "right") - 1  # the last plateau at or before
    off = np.flatnonzero((i < 0) | ((B.keys + 1) << s > (rec.hi_v << t)[np.maximum(i, 0)]))
    return int(B.keys[off[0]]) if len(off) else None
