"""Stage-by-stage construction of functions whose lower scaled oscillation is
certified small off an explicitly controlled exceptional set.

Each stage n shrinks the k-grid cubes by beta = 1 - eta*k/2, plateaus the
current function on every shrunken cube (pushed outward to whole grid cells,
so the plateau is exact at interpolant level), and blends linearly across the
width-eta gaps.  The gap geometry is exact rational arithmetic: with
gamma = (2-2k*eta)/(2-k*eta) the identities gamma*beta = 1 - k*eta and
(1-gamma)*(beta/k) = eta/2 hold exactly, the complement of the shrunken cores
is the union of k+1 slabs of width eta around the grid hyperplanes, and a
max-norm ball of radius eta/4 around any core point stays inside its
shrunken cube.  One routine, StageParams.pieces, gives every slab, shrunken
cube and core as integer numerators over 4k*den (eta = num/den); the
interval unions and the per-point lookups all read it.

Each later stage perturbs by at most half of every earlier stage's remaining
headroom, so every earlier strict certificate survives with positive margin.
Stage n is certified by one inequality, 2*T_n < (1/n) phi(r), checked once
at r = eta/2 (membership) and r = eta/4 (the lip bound on every core point).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

import numpy as np

from .gauges import GaugeDomainError, GaugeLike, format_gauge, parse_gauge
from .funclib import (
    GRID_BLOCK,
    HolderModulus,
    SampledFunction,
    _window_extremes,
    load_function,
    save_function,
)
from .setlib import (
    BoxCover,
    DyadicCubeSet,
    FormatError,
    IntervalUnion,
    _atomic_write,
    _format_errors,
    _held,
    _int_dtype,
    _ratio,
    lower_box_premeasure,
    microscopic_verify,
    save_cubes,
)

__all__ = [
    "StageParams",
    "StageRecord",
    "TypicalBuild",
    "ConstructError",
    "choose_stage_params",
    "plateau_vertex_ranges",
    "stage_slacks",
    "build_stage",
    "stage_budget",
    "iterate_typical",
    "plateau_extremes",
    "certify_membership",
    "exceptional_set",
    "deepest_core_complement",
    "save_build",
    "load_build",
]


class ConstructError(ValueError):
    pass


# choose_stage_params scans delta = 2^-j for j <= DELTA_SCAN, and eta to 2^-ETA_SCAN
DELTA_SCAN = 60
ETA_SCAN = 300
# iterate_typical stops early at a stage needing k > K_MAX
K_MAX = 1 << 21


# ---------------------------------------------------------------------------
# Stage parameters

# piece i of a stage is [4den*i + a*k*num, 4den*(i + b) + c*k*num] / (4k*den)
_PIECES = {"slab": (-2, 0, 2), "cube": (1, 1, -1), "core": (2, 1, -2)}


@dataclass(frozen=True)
class StageParams:
    """One stage's numbers; eta/beta/gamma are exact rationals.

    k > n with 1/k < delta; eta is dyadic with eta < 1/k and
    zeta(eta) < 1/(n(k+1)); beta = 1 - eta*k/2; gamma = (2-2k*eta)/(2-k*eta).
    """

    n: int
    eps: float
    delta: Fraction
    k: int
    eta: Fraction
    zeta_at_eta: float

    @property
    def beta(self) -> Fraction:
        return 1 - self.eta * self.k / 2

    @property
    def gamma(self) -> Fraction:
        ke = self.k * self.eta
        return (2 - 2 * ke) / (2 - ke)

    @property
    def one_minus_gamma(self) -> Fraction:
        ke = self.k * self.eta
        return ke / (2 - ke)

    @property
    def ell(self) -> Fraction:
        """Side length of the shrunken cubes, beta/k."""
        return self.beta / self.k

    @property
    def cert_radius(self) -> Fraction:
        """eta/4 = (1-gamma) * ell / 2: a core point's ball of it stays in its cube."""
        return self.eta / 4

    def validate(self) -> None:
        if self.k <= self.n:
            raise ConstructError("need k > n")
        if not (self.eta < Fraction(1, self.k)):
            raise ConstructError("need eta < 1/k")
        if Fraction(1, self.k) >= self.delta:
            raise ConstructError("need 1/k < delta")
        if not (self.zeta_at_eta * (self.k + 1) < 1.0 / self.n):
            raise ConstructError("zeta(eta)*(k+1) < 1/n failed")
        if not (self.ell < Fraction(1, self.n)):
            raise ConstructError("cube side must stay below 1/n")

    @property
    def layout_den(self) -> int:
        """4k*den (eta = num/den): the one denominator of every stage piece."""
        return 4 * self.k * self.eta.denominator

    def pieces(self, kind: str, idx):
        """Numerators (lo, hi) over layout_den of the pieces at indices idx:
        slab m = [m/k - eta/2, m/k + eta/2] clipped to [0,1] (m = 0..k), the
        shrunken cube j = [j/k + eta/4, (j+1)/k - eta/4] and its core
        j = [j/k + eta/2, (j+1)/k - eta/2] (j = 0..k-1).  The cores end at the
        neighbouring slab edges.  idx is a Python int, giving exact ints, or
        an integer array of a dtype that holds layout_den."""
        a, b, c = _PIECES[kind]
        kn, den4 = self.k * self.eta.numerator, 4 * self.eta.denominator
        lo, hi = den4 * idx + a * kn, den4 * (idx + b) + c * kn
        if kind != "slab":
            return lo, hi
        if isinstance(lo, np.ndarray):
            return np.maximum(lo, 0), np.minimum(hi, self.layout_den)
        return max(lo, 0), min(hi, self.layout_den)

    def _union(self, kind: str, count: int) -> IntervalUnion:
        D = self.layout_den
        return IntervalUnion(D, *self.pieces(kind, np.arange(count).astype(_int_dtype(D))))

    # component i of each union is piece i
    def slab_union(self) -> IntervalUnion:
        return self._union("slab", self.k + 1)

    def cube_union(self) -> IntervalUnion:
        return self._union("cube", self.k)

    def kept_cubes(self, domain: DyadicCubeSet) -> np.ndarray:
        """The indices j of the shrunken cubes that meet the domain Omega: the
        cubes the stage plateaus, for build_stage and load_build alike."""
        return np.flatnonzero(self.cube_union().meets(domain.to_interval_union()))

    def required_depth(self) -> int:
        """Smallest grid depth giving >= 4 cells per gap and per cube side."""
        need = min(self.eta / 4, self.ell / 4)
        depth = 0
        while Fraction(1, 1 << depth) > need:
            depth += 1
        return depth


def choose_stage_params(f: SampledFunction, n: int, eps: float, zeta: GaugeLike) -> StageParams:
    """Pick delta, k, eta for stage n from the function's declared modulus.

    delta: largest scanned dyadic radius with w(delta) < eps.  k: smallest
    integer > n with 1/k < delta.  eta: largest scanned dyadic with eta < 1/k
    and zeta(eta) < 1/(n(k+1)).
    """
    if n < 1 or eps <= 0.0:
        raise ConstructError("need n >= 1 and eps > 0")
    omega = f.modulus.omega
    delta = None
    for j in range(0, DELTA_SCAN + 1):
        r = 2.0**-j
        if omega(r) < eps:
            delta = Fraction(1, 1 << j)
            break
    if delta is None:
        raise ConstructError(
            f"modulus does not drop below eps={eps:g} at any scanned radius >= 2^-{DELTA_SCAN}"
        )
    k = max(n + 1, math.floor(1 / delta) + 1)
    bound = 1.0 / (n * (k + 1))
    eta = deepest = None
    # 2^-j < 1/k from j = k.bit_length() on
    for j in range(k.bit_length(), ETA_SCAN + 1):
        try:
            deepest = zeta.eval(2.0**-j)
        except GaugeDomainError:
            continue
        if deepest < bound:
            eta = Fraction(1, 1 << j)
            break
    if eta is None:
        raise ConstructError(
            f"no admissible eta within scan range: zeta stayed >= 1/(n(k+1)) = {bound:g}"
            f" down to 2^-{ETA_SCAN} (deepest scanned zeta = {deepest})"
        )
    params = StageParams(n, eps, delta, k, eta, deepest)
    params.validate()
    return params


def plateau_vertex_ranges(
    params: StageParams, depth: int, js: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lo, hi, center) vertex indices of the shrunken cubes j in js on the
    depth grid: the cells meeting [j/k + eta/4, (j+1)/k - eta/4] span
    lo = floor(j*T/k) + q .. hi = ceil((j+1)*T/k) - q with T = 2^depth and
    q = eta*T/4, an integer once depth >= required_depth() (eta dyadic); an
    off-grid q raises ConstructError.  center is the vertex nearest the cube
    center, clamped to [lo, hi]."""
    top = 1 << depth
    q = params.eta * top / 4
    if q.denominator != 1:
        raise ConstructError(
            f"stage {params.n}: eta*2^depth/4 = {q} is not an integer at depth {depth};"
            f" the plateau edges (eta = {params.eta}) are off the grid"
        )
    q = int(q)
    k = params.k
    js = np.asarray(js, dtype=np.int64)
    lo = (js * top) // k + q
    hi = -((-(js + 1) * top) // k) - q
    # nearest vertex to (2j+1)*T/(2k); never a tie: q >= 1 and eta < 1/k give T > 4k
    center = ((2 * js + 1) * top + k) // (2 * k)
    return lo, hi, np.clip(center, lo, hi)


def stage_slacks(params: StageParams, phi: GaugeLike) -> tuple[float, float]:
    """Stage n's (membership, lip) thresholds: (1/n) phi(eta/2), (1/n) phi(eta/4)."""
    n = params.n
    return phi.eval(float(params.eta / 2)) / n, phi.eval(float(params.cert_radius)) / n


# ---------------------------------------------------------------------------
# One stage


@dataclass(frozen=True)
class StageRecord:
    """Geometry and certificates of one built stage (dimension 1 layout).

    Plateaus are stored as vertex index ranges [lo_v[j], hi_v[j]] on the
    stage's grid, as computed by plateau_vertex_ranges: every cell meeting the
    shrunken cube got the anchor value, so the final diameter over each cube
    is exactly zero at build time.
    """

    params: StageParams
    depth: int
    lo_v: np.ndarray
    hi_v: np.ndarray
    kept: np.ndarray  # StageParams.kept_cubes of the domain
    membership_slack: float  # (1/n) phi(eta/2), the F(C) threshold
    lip_slack: float  # (1/n) phi(eta/4), the ball-certificate threshold

    @property
    def slack_min(self) -> float:
        return min(self.membership_slack, self.lip_slack)

    def covering_core(self, x) -> int | None:
        """Index j of the kept cube whose closed core holds the number x, else
        None; core j lies in (j/k, (j+1)/k) as eta < 1/k, so j = floor(x*k)."""
        p, q = _ratio(x)
        j = p * self.params.k // q
        if not (0 <= j < self.params.k and _held(self.kept, j)):
            return None
        lo, hi = self.params.pieces("core", j)
        return j if lo * q <= p * self.params.layout_den <= hi * q else None


def _require_dim_1(f: SampledFunction) -> None:
    if f.dim != 1:
        raise ConstructError(f"staircase builds are implemented for dimension 1, not {f.dim}")


def build_stage(
    f: SampledFunction, params: StageParams, phi: GaugeLike
) -> tuple[SampledFunction, StageRecord]:
    """Plateau f on every shrunken cube meeting the domain; blend across gaps.

    The returned function equals f(x_C) on every cell meeting C (anchor x_C is
    the center grid vertex when in the domain, else the least domain vertex of
    C), so diam g(C) = 0 exactly; across gaps g interpolates neighboring
    plateau values, and g - f is clamped to [-eps, eps].  The cubes are
    params.kept_cubes(f.domain).
    """
    _require_dim_1(f)
    need = params.required_depth()
    if f.depth < need:
        raise ConstructError(f"grid depth {f.depth} insufficient; stage needs {need}")
    m = f.depth
    top = 1 << m
    js = params.kept_cubes(f.domain)
    if len(js) == 0:
        raise ConstructError("no cube meets the domain")
    lo_v, hi_v, anchors = plateau_vertex_ranges(params, m, js)
    if not f.full_domain:
        for j in np.flatnonzero(np.isnan(f.values[anchors])):
            # a center off the domain: the least domain vertex of the plateau,
            # as the cells meeting a cube that meets the domain hold one
            anchors[j] = next(i for i in range(lo_v[j], hi_v[j] + 1)
                              if not math.isnan(f.values[i]))
    values = np.asarray(f.values, dtype=np.float64)
    plat_vals = values[anchors]

    # piecewise-linear profile: flat on plateaus, linear across gaps,
    # extended flat into the boundary slabs
    xp = np.empty(2 * len(js), dtype=np.float64)
    fp = np.empty(2 * len(js), dtype=np.float64)
    xp[0::2] = lo_v
    xp[1::2] = hi_v
    fp[0::2] = plat_vals
    fp[1::2] = plat_vals
    # the plateaus are disjoint and increasing: runs alternate gap, plateau, ..., gap
    ends = np.empty(2 * len(js) + 1, dtype=np.int64)
    ends[0:-1:2] = lo_v
    ends[1::2] = hi_v + 1
    ends[-1] = top + 1
    plateau_mask = np.repeat(np.arange(ends.size) % 2 == 1, np.diff(ends, prepend=0))

    eps = params.eps
    g = np.empty(top + 1)
    worst = 0.0
    # one block of the grid at a time; np.interp works per element, so the
    # blocks give the bits of one whole-grid pass
    for lo in range(0, top + 1, GRID_BLOCK):
        hi = min(lo + GRID_BLOCK, top + 1)
        profile = np.interp(np.arange(lo, hi, dtype=np.float64), xp, fp)
        v, on, h_fun = values[lo:hi], plateau_mask[lo:hi], g[lo:hi]
        np.subtract(profile, v, out=h_fun)
        # plateau cells must be exact: the clamp may bite only in the gaps
        worst = max(worst, np.fmax.reduce(h_fun, where=on, initial=0.0),
                    -np.fmin.reduce(h_fun, where=on, initial=0.0))
        np.clip(h_fun, -eps, eps, out=h_fun)
        np.add(v, h_fun, out=h_fun)
        # f + (A - f) can land an ulp off A; plateau vertices carry A bitwise so
        # the certified diameters are exactly zero.  Off-domain vertices stay NaN.
        np.copyto(h_fun, profile, where=on & ~np.isnan(v))
    if worst > eps:
        raise ConstructError(
            f"plateau offset {worst:g} exceeds eps={eps:g}; stage delta too optimistic"
        )

    g_fn = SampledFunction(1, m, f.domain, g, f.modulus, exact=True)
    lip = g_fn.grid_lipschitz()
    g_fn = SampledFunction(1, m, f.domain, g, HolderModulus(lip, 1.0), exact=True)

    record = StageRecord(params, m, lo_v, hi_v, js, *stage_slacks(params, phi))
    return g_fn, record


# ---------------------------------------------------------------------------
# Iterated build


@dataclass
class TypicalBuild:
    """An iterated stage build with its perturbation schedule."""

    base: SampledFunction
    final: SampledFunction
    stages: list[StageRecord]
    phi: GaugeLike
    zeta: GaugeLike
    eps0: float
    early_stop: str | None = None

    @property
    def n_stages(self) -> int:
        return len(self.stages)

    @property
    def eps_schedule(self) -> list[float]:
        return [rec.params.eps for rec in self.stages]

    def tail(self, n: int) -> float:
        """T_n = sum of budgets of stages after n."""
        return float(sum(self.eps_schedule[n:]))

    @cached_property
    def sup_distance(self) -> float:
        """max |final - base| over the final grid (NaN-ignoring), computed once
        per build and one block of the refined base at a time."""
        final, worst = self.final.values, 0.0
        for lo, diff in self.base.refined_blocks(self.final.depth):
            np.abs(np.subtract(diff, final[lo : lo + diff.size], out=diff), out=diff)
            worst = max(worst, float(np.fmax.reduce(diff, initial=0.0)))
        return worst

    @property
    def budget_failure(self) -> str | None:
        """What is wrong when the sup distance exceeds the budget sum (to a
        1e-9 relative tolerance), else None: f lies within eps0 of f0."""
        budget = sum(self.eps_schedule)
        if self.sup_distance > budget * (1.0 + 1e-9):
            return f"sup distance {self.sup_distance:g} above the budget sum {budget:g}"
        return None


def stage_budget(eps0: float, slack_mins: list[float]) -> float:
    """Budget of stage n = len(slack_mins) + 1 after stages of these slack_min:
    min(eps0 * 2^-n, min over m < n of headroom_m / 2), where headroom_m is
    slack_m/2 minus the budgets of stages m+1..n-1.  Each stage at most
    halves every headroom, so 2*T_m < slack_m survives all later stages.
    iterate_typical picks each budget by it; load_build re-derives them."""
    headroom: list[float] = []
    for n in range(1, len(slack_mins) + 2):
        eps_n = eps0 * 2.0**-n
        if headroom:
            eps_n = min(eps_n, min(headroom) / 2)
        if n <= len(slack_mins):
            headroom = [h - eps_n for h in headroom] + [slack_mins[n - 1] / 2]
    return eps_n


def iterate_typical(
    f0: SampledFunction,
    n_max: int,
    phi: GaugeLike,
    zeta: GaugeLike,
    eps0: float,
    *,
    max_depth: int = 24,
) -> TypicalBuild:
    """Run stages 1..n_max on f0's domain with stage_budget's slack-capped
    budgets.  Stages that would need a grid deeper than max_depth (or k
    beyond K_MAX) stop the build early with the completed prefix and a
    reason flag.
    """
    if n_max < 1 or eps0 <= 0:
        raise ConstructError("need n_max >= 1 and eps0 > 0")
    _require_dim_1(f0)
    g = f0
    stages: list[StageRecord] = []
    early = None
    for n in range(1, n_max + 1):
        eps_n = stage_budget(eps0, [rec.slack_min for rec in stages])
        if eps_n < 1e-250:
            early = f"slack exhaustion at stage {n}: budget underflow ({eps_n:g})"
            break
        try:
            params = choose_stage_params(g, n, eps_n, zeta)
        except ConstructError as err:
            early = f"stage {n}: {err}"
            break
        if params.k > K_MAX:
            early = f"stage {n}: k = {params.k} beyond k_max = {K_MAX}"
            break
        need = params.required_depth()
        if need > max_depth:
            early = f"stage {n}: required depth {need} beyond max_depth {max_depth}"
            break
        if need > g.depth:
            g = g.resample(need)
        g, rec = build_stage(g, params, phi)
        stages.append(rec)
    if not stages:
        raise ConstructError(f"no stage could be built: {early}")
    return TypicalBuild(f0, g, stages, phi, zeta, eps0, early)


# ---------------------------------------------------------------------------
# Certificates


@dataclass(frozen=True)
class StageCertificate:
    """Stage n's inequality 2*T_n < (1/n) phi(r) at r = eta/2 (membership:
    diam g*(C) <= 2*T_n on every shrunken cube C) and at r = eta/4 (lip:
    omega_g*(x, eta/4) <= 2*T_n at every point x of a kept core, the same
    bound for every such x; StageRecord.covering_core finds the core)."""

    n: int
    bound: float  # 2*T_n
    diam_max_measured: float  # of the final function over the stage's plateaus
    membership_margin: float  # StageRecord.membership_slack - max(bound, diam_max_measured)
    lip_margin: float  # StageRecord.lip_slack - bound


def plateau_extremes(build: TypicalBuild, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(min, max) of build.final over each kept stage-n plateau, in kept order.

    NaN-ignoring: a partial-domain cube's off-domain vertices are NaN."""
    rec = build.stages[n - 1]
    shift = build.final.depth - rec.depth
    return _window_extremes(build.final.values, rec.lo_v << shift, rec.hi_v << shift)


def certify_membership(build: TypicalBuild, n: int) -> StageCertificate:
    """Stage n's certificate; a ConstructError names the stage, the failed
    inequality and both of its sides."""
    if not (1 <= n <= build.n_stages):
        raise ConstructError(f"stage {n} not built")
    rec = build.stages[n - 1]
    bound = 2.0 * build.tail(n)
    mn, mx = plateau_extremes(build, n)
    diam_max = float(np.max(mx - mn))
    if diam_max > bound * (1.0 + 1e-9) + 1e-300:
        raise ConstructError(
            f"stage {n}: measured plateau diameter {diam_max:g} above the certified"
            f" bound 2*T_n = {bound:g}"
        )
    # unreachable under stage_budget, which load_build applies too; a
    # violation means the budget rule broke
    sides = (("membership", "eta/2", rec.membership_slack), ("lip", "eta/4", rec.lip_slack))
    failed = [
        f"{name} inequality 2*T_n < (1/n) phi({r}) fails: {bound:g} >= {threshold:g}"
        for name, r, threshold in sides
        if not bound < threshold
    ]
    if failed:
        raise ConstructError(f"stage {n}: " + "; ".join(failed))
    return StageCertificate(
        n,
        bound,
        diam_max,
        rec.membership_slack - max(bound, diam_max),
        rec.lip_slack - bound,
    )


# ---------------------------------------------------------------------------
# Exceptional set


@dataclass
class ExceptionalAnalysis:
    tail_premeasures: list[float]  # lower_box_premeasure of each tail, n = 1..N
    containment_ok: bool
    E_intervals: IntervalUnion
    F_intervals: IntervalUnion
    micro_cover: BoxCover | None  # inv_log zeta only, from _micro_route
    micro_beta: float | None
    micro_verified: bool | None
    notes: list[str]


# depth of the E.set / F.set cube rasters written with a build
RASTER_DEPTH = 16


def deepest_core_complement(build: TypicalBuild) -> IntervalUnion:
    """F: the part of Omega = build.final.domain outside every core of the
    deepest stage, which is that stage's slab union within Omega."""
    slabs = build.stages[-1].params.slab_union()
    return slabs.intersect(build.final.domain.to_interval_union())


def exceptional_set(build: TypicalBuild) -> ExceptionalAnalysis:
    """E = union of stage-tail intersections of the slab sets; F = the certified
    complement of the deepest stage's cores, E within Omega.

    The analysis carries exact interval forms, per-tail premeasure witnesses
    (< 1/n by the stage inequality), the containment F within E (cross power
    in dimension 1 is the set itself), and, when the build's zeta is the
    inv_log gauge, a microscopic certificate for E via the cover-sum route.
    """
    N = build.n_stages
    notes: list[str] = []
    slabs = [rec.params.slab_union() for rec in build.stages]
    # suffix intersections, deepest first: each step shrinks the operand
    tails = [slabs[-1]]
    for slab in reversed(slabs[:-1]):
        tails.insert(0, slab.intersect(tails[0]))
    # tail_n = intersection over m >= n is increasing in n, so the union over
    # n collapses to the deepest tail
    E_intervals = tails[-1]
    F_intervals = deepest_core_complement(build)

    reports = []
    for n in range(1, N + 1):
        scales = sorted(
            {float(build.stages[i].params.eta) for i in range(n - 1, N)}, reverse=True
        )
        reports.append(lower_box_premeasure(tails[n - 1], build.zeta, 1.0 / n, scales))

    containment = F_intervals.subset_of(E_intervals)

    cover = beta = verified = None
    if getattr(build.zeta, "kind", "") == "inv_log":
        cover, total, beta = _micro_route(E_intervals, build.zeta)
        verified = microscopic_verify(cover, math.exp(-beta), E_intervals) is None
        notes.append(f"micro route: cover sum {total:g}, beta {beta:g}")

    return ExceptionalAnalysis(
        reports,
        containment,
        E_intervals,
        F_intervals,
        cover,
        beta,
        verified,
        notes,
    )


def _micro_route(E: IntervalUnion, zeta: GaugeLike) -> tuple[BoxCover, float, float]:
    """The micro route's cover of E, its zeta sum and its beta.

    The cover is E's components, longest first, ties in order; total is
    their zeta sum, and beta = 1/(2 total) (1 when total is 0), capped at
    600/N to keep beta * N inside exp()'s range.  With zeta = inv_log, and
    every component shorter than 1/e (E lies in the deepest stage's slabs,
    eta wide, and zeta(eta) < 1 puts eta below 1/e), zeta(d) = 1/log(1/d).
    The sorted diameters give n zeta(d_n) <= total <= 1/(2 beta), so box n's
    diameter is at most e^(-2 beta n), below the budget e^(-beta n) that
    microscopic_verify checks exactly, with the cover's coverage of E, so
    the sum is hausdorff_upper's without its coverage check."""
    cover = BoxCover.from_intervals(E)
    total = cover.gauge_sum(zeta)
    beta = min(1.0 / (2.0 * total), 600.0 / max(1, len(cover))) if total > 0 else 1.0
    order = np.argsort(-cover.diameters(), kind="stable")
    return BoxCover(cover.dim, cover.den, cover.lo[order], cover.hi[order]), total, beta


# ---------------------------------------------------------------------------
# Build directory format


def save_build(directory, build: TypicalBuild) -> ExceptionalAnalysis:
    """Write the build directory; returns the exceptional_set result whose E
    and F it wrote as rasters at RASTER_DEPTH.

    stages.json keeps only what each stage chose; load_build re-derives the
    rest (zeta(eta), the slacks, the budgets, the kept cubes and plateau
    ranges), and the plateau values are read from final.fn."""
    os.makedirs(directory, exist_ok=True)
    save_function(os.path.join(directory, "base.fn"), build.base)
    save_function(os.path.join(directory, "final.fn"), build.final)
    stages = [
        {
            "n": rec.params.n,
            "k": rec.params.k,
            "eta": str(rec.params.eta),
            "delta": str(rec.params.delta),
            "depth": rec.depth,
        }
        for rec in build.stages
    ]
    _atomic_write(os.path.join(directory, "stages.json"), json.dumps(stages, indent=1))
    meta = {
        "phi": format_gauge(build.phi),
        "zeta": format_gauge(build.zeta),
        "eps0": build.eps0,
        "early_stop": build.early_stop,
    }
    _atomic_write(os.path.join(directory, "meta.json"), json.dumps(meta, indent=1))
    analysis = exceptional_set(build)
    for name, intervals in (("E.set", analysis.E_intervals), ("F.set", analysis.F_intervals)):
        cubes = DyadicCubeSet.from_interval_union(intervals, RASTER_DEPTH)
        save_cubes(os.path.join(directory, name), cubes)
    return analysis


def _stage(
    position: int, item: dict, zeta: GaugeLike, eps: float
) -> tuple[StageParams, int]:
    """(params, depth) of the stages.json entry at `position`, whose budget
    is eps.  ValueError unless n is the position, k and depth are ints and
    the choices pass StageParams.validate."""
    n, k, depth = (item[key] for key in ("n", "k", "depth"))
    if type(n) is not int or n != position:
        raise ValueError(f"n is {n!r}, not the stage's position {position}")
    if type(k) is not int or type(depth) is not int:
        raise ValueError(f"k and depth must be ints, not {k!r} and {depth!r}")
    eta = Fraction(item["eta"])
    params = StageParams(n, eps, Fraction(item["delta"]), k, eta, zeta.eval(float(eta)))
    params.validate()
    return params, depth


def _check_depths(directory, base: SampledFunction, final: SampledFunction, depths) -> None:
    """Both functions 1-d on one domain, final exact, and base.depth <= depth_1
    <= ... <= depth_N = final.depth, else a FormatError naming the file and
    the stage."""
    for name, f in (("base.fn", base), ("final.fn", final)):
        if f.dim != 1:
            raise FormatError(f"{directory}: {name} has dimension {f.dim}; builds need dimension 1")
    if final.domain != base.domain:
        raise FormatError(f"{directory}: final.fn's domain is not base.fn's; a build's"
                          " functions share one domain")
    if not final.exact:
        raise FormatError(f"{directory}: final.fn is not marked `exact 1`; a build's final"
                          " function is its own interpolant")
    if not depths:
        raise FormatError(f"{directory}: stages.json lists no stage")
    names = ["base.fn"] + [f"stage {n}" for n in range(1, len(depths) + 1)]
    chain = [base.depth, *depths]
    for n in range(1, len(chain)):
        if chain[n] < chain[n - 1]:
            raise FormatError(
                f"{directory}: {names[n]}'s grid depth {chain[n]} is below"
                f" {names[n - 1]}'s depth {chain[n - 1]}"
            )
    if final.depth != depths[-1]:
        raise FormatError(
            f"{directory}: final.fn has depth {final.depth}, not stage {len(depths)}'s"
            f" grid depth {depths[-1]}"
        )


def load_build(directory) -> TypicalBuild:
    """Read a build directory; thresholds and budgets are recomputed from
    meta.json, the kept cubes from the functions' domain, and other keys in
    stages.json (as an old build's epsilon or dropped) are ignored.
    meta.json's eps0 must be positive and finite and its early_stop null or
    a string, both functions must be 1-d on one domain (sup_distance
    compares them vertex by vertex), with base.depth <= depth_1 <= ... <=
    depth_N = final.depth, each stage must pass _stage's checks, and its
    plateau edges must lie on its grid; otherwise FormatError names the file
    and the stage."""
    base = load_function(os.path.join(directory, "base.fn"))
    final = load_function(os.path.join(directory, "final.fn"))
    with _format_errors(directory):
        with open(os.path.join(directory, "meta.json"), "r", encoding="utf-8") as fh:
            meta = json.load(fh)
        with open(os.path.join(directory, "stages.json"), "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        phi, zeta = parse_gauge(meta["phi"]), parse_gauge(meta["zeta"])
        eps0, early_stop = meta["eps0"], meta["early_stop"]
        if type(eps0) not in (int, float) or not 0.0 < eps0 < math.inf:  # as construct --eps0
            raise FormatError(f"{directory}: meta.json's eps0 {eps0!r} must be positive and finite")
        if not (early_stop is None or type(early_stop) is str):  # as iterate_typical writes it
            raise FormatError(f"{directory}: meta.json's early_stop {early_stop!r} must be null"
                              " or a string")
        choices, slacks = [], []
        for position, item in enumerate(raw, 1):
            eps = stage_budget(eps0, [min(slack) for slack in slacks])
            try:
                choices.append(_stage(position, item, zeta, eps))
                slacks.append(stage_slacks(choices[-1][0], phi))
            except (ValueError, TypeError, KeyError, ArithmeticError) as err:
                raise FormatError(f"stages.json stage {position}: {err}") from err
        _check_depths(directory, base, final, [depth for _, depth in choices])
    stages = []
    for (params, depth), slack in zip(choices, slacks):
        kept = params.kept_cubes(base.domain)
        if len(kept) == 0:  # as build_stage refuses it
            raise FormatError(f"{directory}: no stage {params.n} cube meets the functions' domain")
        try:
            lo_v, hi_v, _ = plateau_vertex_ranges(params, depth, kept)
        except ConstructError as err:  # eta's plateau edges off the stage's grid
            raise FormatError(f"stages.json {err}") from err
        stages.append(StageRecord(params, depth, lo_v, hi_v, kept, *slack))
    return TypicalBuild(base, final, stages, phi, zeta, eps0, early_stop)
