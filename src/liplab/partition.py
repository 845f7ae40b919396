"""Partition pipeline: split the domain into a small-in-lower-box-measure part
and a part whose image carries a small Hausdorff sum, via the greedy Vitali 5r
cover of admissible balls and the disjointness volume bound.

All balls are closed max-norm balls, so the unit-ball volume entering the
bound is alpha_d = 2^d; reports carry the norm so the constant is auditable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .construct import ConstructError, TypicalBuild, deepest_core_complement
from .funclib import SampledFunction, oscillation
from .gauges import GaugeLike, format_gauge, gauge_at_diameter, verify_schizm_relation
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
    """Greedy disjoint subfamily whose 5r expansions cover every candidate."""

    kept: tuple[Ball, ...]
    candidate_count: int
    discarded_count: int

    def verify(self, candidates: Sequence[Ball]) -> None:
        for i, a in enumerate(self.kept):
            for b in self.kept[i + 1 :]:
                if a.dist(b) <= a.radius + b.radius:
                    raise ValueError("kept balls are not pairwise disjoint")
        for c in candidates:
            hit = False
            for k in self.kept:
                if c.dist(k) <= c.radius + k.radius and k.radius >= c.radius:
                    if c.dist(k) + c.radius <= 5.0 * k.radius:
                        hit = True
                        break
            if not hit:
                raise ValueError(f"candidate at {c.center} escapes every 5r expansion")


def vitali_5r(candidates: Sequence[Ball]) -> VitaliCover:
    """Greedy 5r selection: radius descending (ties by center), keep if disjoint.

    Every candidate then meets a kept ball of at least its radius, so the 5x
    expansions of the kept family cover the union of all candidates; this is
    verified on the way out.
    """
    if any(b.radius <= 0 for b in candidates):
        raise ValueError("ball radii must be positive")
    order = sorted(candidates, key=lambda b: (-b.radius, b.center))
    kept: list[Ball] = []
    for ball in order:
        if all(ball.dist(k) > ball.radius + k.radius for k in kept):
            kept.append(ball)
    cover = VitaliCover(tuple(kept), len(candidates), len(candidates) - len(kept))
    cover.verify(candidates)
    return cover


def split_partition(
    build: TypicalBuild, *, raster_depth: int = 14
) -> tuple[DyadicCubeSet, DyadicCubeSet]:
    """A = rasterized certified superset of {lip_phi g* > 0}; B = Omega minus A.

    A cube lands in B exactly when it sits inside a deepest-stage core, where
    the final function is constant; the split is an exact cube-level partition.
    """
    raster_depth = min(raster_depth, build.final.depth)
    F_intervals = deepest_core_complement(build)
    A = DyadicCubeSet.from_interval_union(F_intervals, raster_depth, mode="overlap")
    omega = build.omega.refine(raster_depth)
    B = DyadicCubeSet(1, raster_depth, omega.cubes - A.cubes)
    A = DyadicCubeSet(1, raster_depth, A.cubes & omega.cubes)
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


def _admissible_radius(
    f: SampledFunction, x: float, phi: GaugeLike, delta: float, scan_max: int = 60
) -> tuple[float, float] | None:
    """Largest dyadic r with r < delta, phi(5r) < delta, diam f(B(x,5r)) < phi(5r)."""
    j = 0
    while 2.0**-j >= delta or 5.0 * 2.0**-j > 1.0:
        j += 1
        if j > scan_max:
            return None
    while j <= scan_max:
        r = 2.0**-j
        try:
            p5 = phi.eval(5.0 * r)
        except Exception:
            j += 1
            continue
        if p5 < delta:
            diam = oscillation(f, x, 5.0 * r).upper
            if diam < p5:
                return r, diam
        j += 1
    return None


def image_cover_report(
    f: SampledFunction,
    B: DyadicCubeSet,
    phi: GaugeLike,
    xi: GaugeLike,
    delta: float,
    *,
    max_samples: int = 4096,
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
    h = B.side
    centers = sorted(float((k[0] + Fraction(1, 2)) * h) for k in B.cubes)
    if len(centers) > max_samples:
        rng = np.random.default_rng(seed)
        centers = sorted(rng.choice(centers, size=max_samples, replace=False))
    candidates = []
    diam_by_center: dict[float, float] = {}
    uncovered = []
    for x in centers:
        found = _admissible_radius(f, x, phi, delta)
        if found is None:
            uncovered.append((x,))
            continue
        r, diam = found
        candidates.append(Ball((x,), r))
        diam_by_center[x] = diam
    cover = vitali_5r(candidates) if candidates else VitaliCover((), 0, 0)
    balls = []
    chain = []
    total = 0.0
    for ball in cover.kept:
        x = ball.center[0]
        diam5 = oscillation(f, x, 5.0 * ball.radius).upper
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
    """Cubes covering f(B): the deepest stage's plateau values.

    B is contained in the deepest cores, where the final function equals the
    stage's plateau value, so f(B) is exactly this finite value set.  Needs
    the value range inside [0,1] (cube sets represent [0,1] only).
    """
    rec = build.stages[-1]
    values = rec.plateau_values
    if np.min(values) < 0.0 or np.max(values) > 1.0:
        raise ConstructError(
            "plateau values leave [0,1]; a DyadicCubeSet image cover needs a [0,1] range"
        )
    return DyadicCubeSet.from_points(1, img_depth, [(float(v),) for v in values])


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
    """graph(f) within (A x R) u (R x B_img): per sample, x in A or f(x) in B_img."""
    if isinstance(samples, int):
        rng = np.random.default_rng(seed)
        xs = rng.uniform(0.0, 1.0, size=samples)
    else:
        xs = np.asarray(samples, dtype=float)
    values = f.evaluate_many(xs)
    violations = []
    for x, y in zip(xs, values):
        if A.contains((float(x),)):
            continue
        if 0.0 <= y <= 1.0 and B_img.contains((float(y),)):
            continue
        violations.append((float(x), float(y)))
    return GraphCheckReport(not violations, len(xs), tuple(violations))

