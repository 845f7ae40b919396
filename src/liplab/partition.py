"""Partition pipeline: split the domain into a small-in-lower-box-measure part
and a part whose image carries a small Hausdorff sum, via the greedy Vitali 5r
cover of admissible balls and the disjointness volume bound.

All balls are closed max-norm balls, so the unit-ball volume entering the
bound is alpha_d = 2^d; reports carry the norm so the constant is auditable.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .construct import ConstructError, TypicalBuild, deepest_core_complement, plateau_extremes
from .funclib import SampledFunction, oscillation
from .gauges import (
    GaugeDomainError,
    GaugeLike,
    format_gauge,
    gauge_at_diameter,
    verify_schizm_relation,
)
from .setlib import DyadicCubeSet

__all__ = [
    "Ball",
    "VitaliCover",
    "ImageCoverReport",
    "GraphCheckReport",
    "split_partition",
    "vitali_5r",
    "image_cover_report",
    "b_image_cubes",
    "graph_cross_check",
]


@dataclass(frozen=True)
class Ball:
    center: tuple[float, ...]
    radius: float

    def dist(self, other: "Ball") -> float:
        return max(abs(a - b) for a, b in zip(self.center, other.center))


@dataclass(frozen=True)
class VitaliCover:
    """Greedy disjoint subfamily whose 5r expansions cover every candidate.

    witnesses[i] indexes the kept ball that meets candidate i with a radius at
    least its own, so candidate i lies in that ball's 5r expansion."""

    kept: tuple[Ball, ...]
    candidate_count: int
    discarded_count: int
    witnesses: tuple[int, ...]

    def verify(self, candidates: Sequence[Ball]) -> None:
        """Disjointness on center-adjacent kept pairs (intervals in 1-d, so
        pairwise) and each candidate against its witness."""
        if len(self.witnesses) != len(candidates):
            raise ValueError("the cover does not name one witness per candidate")
        by_center = sorted(self.kept, key=lambda b: b.center)
        for a, b in zip(by_center, by_center[1:]):
            if a.dist(b) <= a.radius + b.radius:
                raise ValueError("kept balls are not pairwise disjoint")
        for c, w in zip(candidates, self.witnesses):
            k = self.kept[w] if 0 <= w < len(self.kept) else None
            if not (
                k is not None
                and c.dist(k) <= c.radius + k.radius
                and k.radius >= c.radius
                and c.dist(k) + c.radius <= 5.0 * k.radius
            ):
                raise ValueError(f"candidate at {c.center} escapes every 5r expansion")


def vitali_5r(candidates: Sequence[Ball]) -> VitaliCover:
    """Greedy 5r selection: radius descending (ties by center), keep if disjoint.

    In 1-d the kept balls are disjoint intervals, so a ball that meets any of
    them meets a center-neighbour: a sweep over the kept centers, in sorted
    order, checks only those two.  Every candidate then meets a kept ball of
    at least its radius, recorded as its witness, so the 5x expansions of the
    kept family cover the union of all candidates; this is verified on the
    way out.
    """
    if any(len(b.center) != 1 for b in candidates):
        raise ValueError("the Vitali sweep is implemented for dimension 1")
    if any(b.radius <= 0 for b in candidates):
        raise ValueError("ball radii must be positive")
    order = sorted(
        range(len(candidates)), key=lambda i: (-candidates[i].radius, candidates[i].center)
    )
    kept: list[Ball] = []
    by_center: list[int] = []  # indices into kept, in center order
    witnesses = [0] * len(candidates)
    for i in order:
        ball = candidates[i]
        at = bisect.bisect_left(by_center, ball.center, key=lambda j: kept[j].center)
        hit = None
        for j in by_center[max(at - 1, 0) : at + 1]:
            if ball.dist(kept[j]) <= ball.radius + kept[j].radius:
                hit = j
                break
        if hit is None:
            hit = len(kept)
            kept.append(ball)
            by_center.insert(at, hit)
        witnesses[i] = hit
    cover = VitaliCover(
        tuple(kept), len(candidates), len(candidates) - len(kept), tuple(witnesses)
    )
    cover.verify(candidates)
    return cover


SPLIT_RASTER_DEPTH = 14  # depth of the A/B rasters, capped at the final function's depth


def split_partition(build: TypicalBuild) -> tuple[DyadicCubeSet, DyadicCubeSet]:
    """A = rasterized certified superset of {lip_phi g* > 0}; B = Omega minus A.

    A cube lands in B exactly when it sits inside a deepest-stage core, where
    the final function is constant; the split is an exact cube-level partition.
    """
    raster_depth = min(SPLIT_RASTER_DEPTH, build.final.depth)
    F_intervals = deepest_core_complement(build)
    A = DyadicCubeSet.from_interval_union(F_intervals, raster_depth, mode="overlap")
    omega = build.final.domain.refine(raster_depth).keys
    B = DyadicCubeSet(1, raster_depth, np.setdiff1d(omega, A.keys, assume_unique=True))
    A = DyadicCubeSet(1, raster_depth, np.intersect1d(A.keys, omega, assume_unique=True))
    return A, B


@dataclass(frozen=True)
class ImageCoverReport:
    """Vitali image-cover sum against the delta(1+2delta)^d / alpha_d bound."""

    gauge_xi: str
    gauge_phi: str
    delta: float
    norm: str
    alpha_d: float
    balls: tuple[tuple[tuple[float, ...], float, float], ...]  # (x, r, diam_upper)
    total: float
    bound: float
    verdict: bool
    chain: tuple[tuple[float, float, float], ...]  # xi(diam), xi(phi(5r)), r^(d+1)
    uncovered_points: tuple[tuple[float, ...], ...]
    candidate_count: int
    discarded_count: int

    def to_json(self) -> dict:
        return {
            "gauge_xi": self.gauge_xi,
            "gauge_phi": self.gauge_phi,
            "delta": self.delta,
            "norm": self.norm,
            "alpha_d": self.alpha_d,
            "balls": [
                {"x": list(x), "r": r, "diam_upper": d} for x, r, d in self.balls
            ],
            "sum": self.total,
            "bound": self.bound,
            "verdict": self.verdict,
            "chain_audit": [
                {"xi_diam": a, "xi_phi_5r": b, "r_pow_d1": c} for a, b, c in self.chain
            ],
            "uncovered_points": [list(x) for x in self.uncovered_points],
            "candidates": self.candidate_count,
            "discarded": self.discarded_count,
        }


RADIUS_SCAN = 60  # deepest dyadic exponent scanned for an admissible radius
MAX_COVER_SAMPLES = 4096  # B cube centers seeding one image cover; a seeded subset beyond


def _admissible_radius(
    f: SampledFunction, xs, phi: GaugeLike, delta: float
) -> tuple[np.ndarray, np.ndarray]:
    """Per point of xs (one point, or nondecreasing points): the largest dyadic
    r with r < delta, phi(5r) < delta and diam f(B(x,5r)) < phi(5r), and that
    diameter bound; r = 0 where the scan finds none.  Every point scans the
    same radii, so each radius is one oscillation call over the points still
    open."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    radius = np.zeros(xs.shape)
    diam = np.zeros(xs.shape)
    open_idx = np.arange(xs.size)
    first = 0
    while (2.0**-first >= delta or 5.0 * 2.0**-first > 1.0) and first <= RADIUS_SCAN:
        first += 1
    for j in range(first, RADIUS_SCAN + 1):
        if not open_idx.size:
            break
        r = 2.0**-j
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
    *,
    seed: int = 0,
) -> ImageCoverReport:
    """Cover f(B) through admissible balls seeded at B's cube centers.

    Admissibility is checked against certified oscillation upper bounds, the
    greedy Vitali pass keeps a disjoint family, and the report carries the
    per-ball chain xi(diam E_i) <= xi(phi(5 r_i)) <= r_i^(d+1) next to the
    analytic bound delta (1+2 delta)^d / alpha_d.  Sample points with no
    admissible ball are reported, not discarded silently.
    """
    if f.dim != 1:
        raise ValueError("image cover pipeline is implemented for dimension 1")
    d = f.dim
    scales = [2.0**-j for j in range(3, 40)]
    schizm = verify_schizm_relation(xi, phi, d, scales)
    if not schizm.ok:
        raise ValueError(
            f"gauge relation xi(phi(5r)) <= r^(d+1) fails at r={schizm.first_violation}"
        )
    # (k + 1/2) 2^-depth is exact in floats
    centers = (B.keys.astype(float) + 0.5) / 2.0**B.depth
    if len(centers) > MAX_COVER_SAMPLES:
        rng = np.random.default_rng(seed)
        centers = np.sort(rng.choice(centers, size=MAX_COVER_SAMPLES, replace=False))
    radii, diams = _admissible_radius(f, centers, phi, delta)
    found = radii > 0.0
    candidates = [Ball((x,), r) for x, r in zip(centers[found].tolist(), radii[found].tolist())]
    diam_by_center = dict(zip(centers[found].tolist(), diams[found].tolist()))
    uncovered = [(x,) for x in centers[~found].tolist()]
    cover = vitali_5r(candidates)
    balls = []
    chain = []
    total = 0.0
    for ball in cover.kept:
        x = ball.center[0]
        diam5 = diam_by_center[x]  # oscillation upper bound over B(x, 5r), found for this radius
        xi_diam = gauge_at_diameter(xi, diam5)
        xi_phi = xi.eval(phi.eval(5.0 * ball.radius))
        rpow = ball.radius ** (d + 1)
        if not (xi_diam <= xi_phi * (1 + 1e-12) and xi_phi <= rpow * (1 + 1e-12)):
            raise ValueError("chain audit failed for a kept ball")
        total += xi_diam
        balls.append((ball.center, ball.radius, diam5))
        chain.append((xi_diam, xi_phi, rpow))
    alpha_d = 2.0**d  # unit-ball volume in the max norm
    bound = delta * (1.0 + 2.0 * delta) ** d / alpha_d
    return ImageCoverReport(
        format_gauge(xi),
        format_gauge(phi),
        delta,
        "max",
        alpha_d,
        tuple(balls),
        total,
        bound,
        total <= bound,
        tuple(chain),
        tuple(uncovered),
        cover.candidate_count,
        cover.discarded_count,
    )


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


@dataclass(frozen=True)
class GraphCheckReport:
    ok: bool
    checked: int
    violations: tuple[tuple[float, float], ...]


def graph_cross_check(
    f: SampledFunction,
    A: DyadicCubeSet,
    B_img: DyadicCubeSet,
    samples: Sequence[float] | int,
    *,
    seed: int = 0,
) -> GraphCheckReport:
    """graph(f) within (A x R) u (R x B_img): per sample, x in A or f(x) in B_img.

    A sample count draws that many points uniformly from Omega = f.domain: a
    uniform u in [0,1) walks the domain cubes in order, so on a full domain
    the point is u itself, bit for bit."""
    if isinstance(samples, int):
        rng = np.random.default_rng(seed)
        starts = f.domain.keys.astype(float)
        scaled = rng.uniform(0.0, 1.0, size=samples) * starts.size
        cube = np.minimum(scaled.astype(np.int64), starts.size - 1)
        xs = (starts[cube] + (scaled - cube)) / (1 << f.domain.depth)
    else:
        xs = np.asarray(samples, dtype=float)
    values = f.evaluate_many(xs)
    bad = ~(A.contains(xs) | B_img.contains(values))  # values off [0,1] are in no cube
    violations = tuple(zip(xs[bad].tolist(), values[bad].tolist()))
    return GraphCheckReport(not violations, len(xs), violations)

