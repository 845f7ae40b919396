"""Stage-by-stage construction of functions whose lower scaled oscillation is
certified small off an explicitly controlled exceptional set.

Each stage n shrinks the k-grid cubes by beta = 1 - eta*k/2, plateaus the
current function on every shrunken cube (pushed outward to whole grid cells,
so the plateau is exact at interpolant level), and blends linearly across the
width-eta gaps.  The gap geometry is exact rational arithmetic: with
gamma = (2-2k*eta)/(2-k*eta) the identities gamma*beta = 1 - k*eta and
(1-gamma)*(beta/k) = eta/2 hold exactly, the complement of the shrunken cores
is the union of k+1 slabs of width eta around the grid hyperplanes, and a
max-norm ball of radius eta/4 around any core point stays inside its cube.

Later stages perturb by at most a quarter of the smallest slack recorded so
far, so every earlier strict certificate survives with positive margin.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iter_product

import numpy as np

from .gauges import GaugeDomainError, GaugeLike, format_gauge, parse_gauge
from .funclib import HolderModulus, SampledFunction, load_function, save_function
from .setlib import (
    BoxCover,
    CoverRecord,
    DyadicCubeSet,
    HZetaMicro,
    IntervalUnion,
    PremeasureReport,
    _atomic_write,
    lower_box_premeasure,
    micro_from_hzeta,
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
    "strip_weights",
    "build_stage",
    "iterate_typical",
    "certify_membership",
    "certify_lip_bound",
    "covered_profile",
    "exceptional_set",
    "deepest_core_complement",
    "save_build",
    "load_build",
]


class ConstructError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Stage parameters


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
        """Largest max-norm radius guaranteed inside the cube from any core
        point: (1-gamma) * ell / 2 = eta/4."""
        return self.eta / 4

    # float views; 1-gamma uses the cancellation-free form k*eta/(2-k*eta)
    @property
    def beta_f(self) -> float:
        return float(self.beta)

    @property
    def gamma_f(self) -> float:
        return float(self.gamma)

    @property
    def one_minus_gamma_f(self) -> float:
        ke = float(self.k * self.eta)
        return ke / (2.0 - ke)

    def validate(self) -> None:
        if self.k <= self.n:
            raise ConstructError("need k > n")
        if not (self.eta < Fraction(1, self.k)):
            raise ConstructError("need eta < 1/k")
        if Fraction(1, self.k) >= self.delta:
            raise ConstructError("need 1/k < delta")
        if self.gamma * self.beta != 1 - self.k * self.eta:
            raise ConstructError("identity gamma*beta = 1 - k*eta failed")
        if self.one_minus_gamma * self.ell != self.eta / 2:
            raise ConstructError("identity (1-gamma)*ell = eta/2 failed")
        if not (self.zeta_at_eta * (self.k + 1) < 1.0 / self.n):
            raise ConstructError("zeta(eta)*(k+1) < 1/n failed")
        if not (self.ell < Fraction(1, self.n)):
            raise ConstructError("cube side must stay below 1/n")

    def slab(self, m: int) -> tuple[Fraction, Fraction]:
        """m-th exceptional slab [m/k - eta/2, m/k + eta/2] clipped to [0,1]."""
        center = Fraction(m, self.k)
        return max(Fraction(0), center - self.eta / 2), min(Fraction(1), center + self.eta / 2)

    def slab_union(self) -> IntervalUnion:
        # shared-denominator construction: m/k +- eta/2 = (2m*den +- k*num)/(2k*den)
        num, den = self.eta.numerator, self.eta.denominator
        D = 2 * self.k * den
        pairs = [
            (
                Fraction(max(0, 2 * m * den - self.k * num), D),
                Fraction(min(D, 2 * m * den + self.k * num), D),
            )
            for m in range(self.k + 1)
        ]
        return IntervalUnion.from_pairs(pairs, assume_sorted=True)

    def cube_interval(self, j: int) -> tuple[Fraction, Fraction]:
        """The shrunken cube beta*K_j along one axis."""
        center = Fraction(2 * j + 1, 2 * self.k)
        half = self.beta / (2 * self.k)
        return center - half, center + half

    def core_interval(self, j: int) -> tuple[Fraction, Fraction]:
        """gamma * (beta K_j) = [j/k + eta/2, (j+1)/k - eta/2]: the cores end
        exactly at the neighboring slab edges (gamma*beta = 1 - k*eta)."""
        num, den = self.eta.numerator, self.eta.denominator
        D = 2 * self.k * den
        return (
            Fraction(2 * j * den + self.k * num, D),
            Fraction(2 * (j + 1) * den - self.k * num, D),
        )

    def core_union(self) -> IntervalUnion:
        return IntervalUnion.from_pairs(
            (self.core_interval(j) for j in range(self.k)), assume_sorted=True
        )

    def required_depth(self) -> int:
        """Smallest grid depth giving >= 4 cells per gap and per cube side."""
        need = min(self.eta / 4, self.ell / 4)
        depth = 0
        while Fraction(1, 1 << depth) > need:
            depth += 1
        return depth


def choose_stage_params(
    f: SampledFunction,
    n: int,
    eps: float,
    zeta: GaugeLike,
    *,
    delta_scan: int = 60,
    eta_scan: int = 300,
) -> StageParams:
    """Pick delta, k, eta for stage n from the function's declared modulus.

    delta: largest scanned dyadic radius with w(delta) < eps.  k: smallest
    integer > n with 1/k < delta.  eta: largest scanned dyadic with eta < 1/k
    and zeta(eta) < 1/(n(k+1)).
    """
    if n < 1 or eps <= 0.0:
        raise ConstructError("need n >= 1 and eps > 0")
    omega = f.modulus.omega
    delta = None
    for j in range(0, delta_scan + 1):
        r = 2.0**-j
        if omega(r) < eps:
            delta = Fraction(1, 1 << j)
            break
    if delta is None:
        raise ConstructError(
            f"modulus does not drop below eps={eps:g} at any scanned radius >= 2^-{delta_scan}"
        )
    k = max(n + 1, math.floor(1 / delta) + 1)
    while Fraction(1, k) >= delta:
        k += 1
    bound = 1.0 / (n * (k + 1))
    j = 0
    eta = None
    deepest = None
    while j <= eta_scan:
        candidate = Fraction(1, 1 << j)
        if candidate < Fraction(1, k):
            try:
                deepest = zeta.eval(float(candidate))
            except GaugeDomainError:
                j += 1
                continue
            if deepest < bound:
                eta = candidate
                break
        j += 1
    if eta is None:
        raise ConstructError(
            f"no admissible eta within scan range: zeta stayed >= 1/(n(k+1)) = {bound:g}"
            f" down to 2^-{eta_scan} (deepest scanned zeta = {deepest})"
        )
    params = StageParams(n, eps, delta, k, eta, zeta.eval(float(eta)))
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


def strip_weights(lo: np.ndarray, hi: np.ndarray, top: int) -> tuple[np.ndarray, np.ndarray]:
    """Per grid vertex 0..top along one axis: the strip index (the last
    plateau [lo, hi] starting at or before it) and the blend weight toward the
    next strip, nonzero only in the gaps between plateaus."""
    v = np.arange(top + 1)
    strip = np.maximum(np.searchsorted(lo, v, side="right") - 1, 0)
    gap = (v > hi[strip]) & (strip < len(lo) - 1)
    span = lo[np.minimum(strip + 1, len(lo) - 1)] - hi[strip]
    return strip, np.where(gap, (v - hi[strip]) / span, 0.0)


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
    anchors: np.ndarray  # vertex index of the anchor per kept cube
    plateau_values: np.ndarray
    lo_v: np.ndarray
    hi_v: np.ndarray
    kept: np.ndarray  # grid indices j of cubes meeting the domain
    membership_slack: float  # (1/n) phi(eta/2), the F(C) threshold
    lip_slack: float  # (1/n) phi(eta/4), the ball-certificate threshold
    dropped: tuple[int, ...] = ()

    @property
    def slack_min(self) -> float:
        return min(self.membership_slack, self.lip_slack)

    def slab_union(self) -> IntervalUnion:
        return self.params.slab_union()

    def core_union(self) -> IntervalUnion:
        return self.params.core_union()

    def covering_core(self, x: float | Fraction) -> int | None:
        """Index j with x in the closed core gamma*C_j, else None."""
        p = self.params
        x = Fraction(x) if not isinstance(x, Fraction) else x
        base = math.floor(x * p.k)
        for j in (base - 1, base, base + 1):
            if 0 <= j < p.k and j in self._kept_set():
                a, b = p.core_interval(j)
                if a <= x <= b:
                    return j
        return None

    def slab_index(self, x: float | Fraction) -> int | None:
        p = self.params
        x = Fraction(x) if not isinstance(x, Fraction) else x
        m = round(x * p.k)
        for cand in (m - 1, m, m + 1):
            if 0 <= cand <= p.k:
                a, b = p.slab(cand)
                if a <= x <= b:
                    return cand
        return None

    def _kept_set(self) -> frozenset:
        if not hasattr(self, "_kept_cache"):
            object.__setattr__(self, "_kept_cache", frozenset(int(j) for j in self.kept))
        return self._kept_cache


def build_stage(
    f: SampledFunction,
    params: StageParams,
    omega_set: DyadicCubeSet | None = None,
    phi: GaugeLike | None = None,
) -> tuple[SampledFunction, StageRecord]:
    """Plateau f on every shrunken cube meeting the domain; blend across gaps.

    The returned function equals f(x_C) on every cell meeting C (anchor x_C is
    the center grid vertex when in the domain, else the least domain vertex of
    C), so diam g(C) = 0 exactly; across gaps g interpolates neighboring
    plateau values, and g - f is clamped to [-eps, eps].
    """
    need = params.required_depth()
    if f.depth < need:
        raise ConstructError(f"grid depth {f.depth} insufficient; stage needs {need}")
    if f.dim != 1:
        return _build_stage_nd(f, params, phi)
    omega_set = omega_set or f.domain
    m = f.depth
    top = 1 << m
    js = np.arange(params.k, dtype=np.int64)
    lo_v, hi_v, anchors = plateau_vertex_ranges(params, m, js)
    dropped = []
    if not (f.full_domain and len(omega_set.cubes) == (1 << omega_set.depth)):
        omega_iu = omega_set.to_interval_union()
        for j in range(params.k):
            piece = IntervalUnion.from_pairs([params.cube_interval(j)]).intersect(omega_iu)
            if not piece.is_empty and math.isnan(f.values[anchors[j]]):
                # least domain vertex of the plateau, -1 when there is none
                anchors[j] = next(
                    (i for i in range(lo_v[j], hi_v[j] + 1) if not math.isnan(f.values[i])), -1
                )
            if piece.is_empty or anchors[j] < 0:
                dropped.append(j)
        keep = np.ones(params.k, dtype=bool)
        keep[dropped] = False
        js, lo_v, hi_v, anchors = js[keep], lo_v[keep], hi_v[keep], anchors[keep]
    if len(js) == 0:
        raise ConstructError("no cube meets the domain")
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
    positions = np.arange(top + 1, dtype=np.float64)
    g = np.interp(positions, xp, fp)

    h_fun = g - values
    eps = params.eps
    # plateau cells must be exact: the clamp may bite only in the gaps
    mark = np.zeros(top + 2, dtype=np.int64)
    np.add.at(mark, lo_v, 1)
    np.add.at(mark, hi_v + 1, -1)
    plateau_mask = np.cumsum(mark)[: top + 1] > 0
    with np.errstate(invalid="ignore"):
        worst = np.nanmax(np.abs(np.where(plateau_mask, h_fun, 0.0)))
    if worst > eps:
        raise ConstructError(
            f"plateau offset {worst:g} exceeds eps={eps:g}; stage delta too optimistic"
        )
    np.clip(h_fun, -eps, eps, out=h_fun)
    # f + (A - f) can land an ulp off A; plateau vertices carry A bitwise so
    # the certified diameters are exactly zero
    g = np.where(plateau_mask, g, values + h_fun)

    g_fn = SampledFunction(1, m, f.domain, g, f.modulus, exact=True)
    lip = g_fn.grid_lipschitz()
    g_fn = SampledFunction(1, m, f.domain, g, HolderModulus(lip, 1.0), exact=True)

    n = params.n
    membership = phi.eval(float(params.eta / 2)) / n if phi is not None else math.inf
    lip_slack = phi.eval(float(params.cert_radius)) / n if phi is not None else math.inf
    record = StageRecord(
        params,
        m,
        anchors,
        plat_vals,
        lo_v,
        hi_v,
        js,
        membership,
        lip_slack,
        tuple(dropped),
    )
    return g_fn, record


def _build_stage_nd(f, params, phi):
    """Dimension >= 2 stage: tensor-product tents over the k-grid strips."""
    m = f.depth
    top = 1 << m
    k = params.k
    # per-axis plateau vertex ranges (same along every axis)
    los, his, centers = plateau_vertex_ranges(params, m, np.arange(k))
    strip, tweight = strip_weights(los, his, top)
    values = np.asarray(f.values, dtype=np.float64)
    kept_cubes = {}
    for cube in iter_product(range(k), repeat=f.dim):
        idx = tuple(int(centers[j]) for j in cube)
        if not math.isnan(values[idx]):
            kept_cubes[cube] = idx
    if not kept_cubes:
        raise ConstructError("no cube meets the domain")
    anchor_vals = {cube: values[idx] for cube, idx in kept_cubes.items()}

    g = np.empty_like(values)
    for vidx in iter_product(range(top + 1), repeat=f.dim):
        total, wsum = 0.0, 0.0
        for corner in iter_product((0, 1), repeat=f.dim):
            w = 1.0
            cube = []
            for c, i in zip(corner, vidx):
                t = tweight[i]
                w *= t if c else 1.0 - t
                cube.append(min(strip[i] + c, k - 1))
            if w == 0.0:
                continue
            cube_t = tuple(cube)
            if cube_t in anchor_vals:
                total += w * anchor_vals[cube_t]
                wsum += w
        base = values[vidx]
        g[vidx] = base if wsum == 0.0 else (1.0 - wsum) * base + total
    h_fun = np.clip(g - values, -params.eps, params.eps)
    g = values + h_fun
    g_fn = SampledFunction(f.dim, m, f.domain, g, f.modulus, exact=True)
    lip = g_fn.grid_lipschitz()
    g_fn = SampledFunction(f.dim, m, f.domain, g, HolderModulus(lip, 1.0), exact=True)
    n = params.n
    membership = phi.eval(float(params.eta / 2)) / n if phi is not None else math.inf
    lip_slack = phi.eval(float(params.cert_radius)) / n if phi is not None else math.inf
    record = StageRecord(
        params,
        m,
        np.array([kept_cubes[c] for c in sorted(kept_cubes)], dtype=object),
        np.array([anchor_vals[c] for c in sorted(kept_cubes)]),
        los,
        his,
        np.array(sorted(kept_cubes), dtype=object),
        membership,
        lip_slack,
    )
    return g_fn, record


# ---------------------------------------------------------------------------
# Iterated build


@dataclass
class TypicalBuild:
    """An iterated stage build with its perturbation schedule."""

    base: SampledFunction
    final: SampledFunction
    stages: list[StageRecord]
    eps_schedule: list[float]
    phi: GaugeLike
    zeta: GaugeLike
    eps0: float
    omega: DyadicCubeSet
    early_stop: str | None = None

    @property
    def n_stages(self) -> int:
        return len(self.stages)

    def tail(self, n: int) -> float:
        """T_n = sum of budgets of stages after n."""
        return float(sum(self.eps_schedule[n:]))

    def sup_distance(self) -> float:
        base = self.base.resample(self.final.depth)
        return float(np.nanmax(np.abs(base.values - self.final.values)))


def iterate_typical(
    f0: SampledFunction,
    n_max: int,
    phi: GaugeLike,
    zeta: GaugeLike,
    eps0: float,
    *,
    slack_fraction: float = 0.25,
    max_depth: int = 24,
    k_max: int = 1 << 21,
    omega_set: DyadicCubeSet | None = None,
) -> TypicalBuild:
    """Run stages 1..n_max with slack-capped budgets.

    Budget at stage n is min(eps0 * 2^-n, slack_fraction * min earlier slack),
    so 2*T_n stays strictly below every stage's slack and each certificate
    survives all later perturbations.  Stages that would need a grid deeper
    than max_depth (or k beyond k_max) stop the build early with the
    completed prefix and a reason flag.
    """
    if n_max < 1 or eps0 <= 0:
        raise ConstructError("need n_max >= 1 and eps0 > 0")
    omega_set = omega_set or f0.domain
    g = f0
    stages: list[StageRecord] = []
    eps_list: list[float] = []
    min_slack = math.inf
    early = None
    for n in range(1, n_max + 1):
        eps_n = eps0 * 2.0**-n
        if stages:
            eps_n = min(eps_n, slack_fraction * min_slack)
        if eps_n < 1e-250:
            early = f"slack exhaustion at stage {n}: budget underflow ({eps_n:g})"
            break
        try:
            params = choose_stage_params(g, n, eps_n, zeta)
        except ConstructError as err:
            early = f"stage {n}: {err}"
            break
        if params.k > k_max:
            early = f"stage {n}: k = {params.k} beyond k_max = {k_max}"
            break
        need = params.required_depth()
        if need > max_depth:
            early = f"stage {n}: required depth {need} beyond max_depth {max_depth}"
            break
        if need > g.depth:
            g = g.resample(need)
        g, rec = build_stage(g, params, omega_set, phi)
        stages.append(rec)
        eps_list.append(eps_n)
        min_slack = min(min_slack, rec.slack_min)
    if not stages:
        raise ConstructError(f"no stage could be built: {early}")
    build = TypicalBuild(f0, g, stages, eps_list, phi, zeta, eps0, omega_set, early)
    # openness margins: every stage's strict inequality must survive the tail
    for n in range(1, len(stages) + 1):
        if not (2.0 * build.tail(n) < stages[n - 1].slack_min):
            raise ConstructError(
                f"internal: tail 2*T_{n} = {2 * build.tail(n):g} reached the stage slack "
                f"{stages[n - 1].slack_min:g}"
            )
    if build.sup_distance() > sum(eps_list) * (1.0 + 1e-9):
        raise ConstructError("internal: sup distance exceeded the budget sum")
    return build


# ---------------------------------------------------------------------------
# Certificates


@dataclass(frozen=True)
class MembershipCertificate:
    """diam g*(C) <= 2 T_n < (1/n) phi(eta/2) for every stage cube."""

    n: int
    ok: bool
    bound: float  # 2 T_n, the certified diameter bound
    threshold: float  # (1/n) phi(eta/2)
    margin_min: float
    diam_max_measured: float
    cube_count: int


def certify_membership(build: TypicalBuild, n: int) -> MembershipCertificate:
    if not (1 <= n <= build.n_stages):
        raise ConstructError(f"stage {n} not built")
    rec = build.stages[n - 1]
    bound = 2.0 * build.tail(n)
    threshold = rec.membership_slack
    # measured diameters of the final function over the stage-n cubes
    f = build.final
    shift = f.depth - rec.depth
    lo = rec.lo_v.astype(np.int64) << shift
    hi = rec.hi_v.astype(np.int64) << shift
    if f.dim == 1:
        starts = np.empty(2 * len(lo), dtype=np.int64)
        starts[0::2] = lo
        starts[1::2] = hi + 1
        mx = np.maximum.reduceat(f.values, starts[:-1])[0::2]
        mn = np.minimum.reduceat(f.values, starts[:-1])[0::2]
        # reduceat cannot take an empty trailing slice; last segment by hand
        mx[-1] = np.max(f.values[lo[-1] : hi[-1] + 1])
        mn[-1] = np.min(f.values[lo[-1] : hi[-1] + 1])
        diam_max = float(np.max(mx - mn))
        if diam_max > bound * (1.0 + 1e-9) + 1e-300:
            raise ConstructError(
                f"internal: measured diameter {diam_max:g} above certified bound {bound:g}"
            )
    else:
        diam_max = math.nan  # nd diameters certified by the schedule, not measured
    if not (bound < threshold):
        # unreachable under the budget capping; a violation means the build
        # was tampered with or the schedule logic broke
        raise ConstructError(
            f"membership margin violated at stage {n}: 2*T_n = {bound:g} >= "
            f"(1/n) phi = {threshold:g}"
        )
    margin = threshold - (bound if math.isnan(diam_max) else max(bound, diam_max))
    return MembershipCertificate(n, True, bound, threshold, margin, diam_max, len(rec.kept))


@dataclass(frozen=True)
class LipCertificate:
    """Exact pointwise certificate: omega_g*(x, r_n) <= 2 T_n < (1/n) phi(r_n)."""

    n: int
    point: float
    covered: bool
    cube: int | None
    radius: float | None  # r_n = eta_n / 4
    bound: float | None  # 2 T_n
    threshold: float | None  # (1/n) phi(r_n)
    margin: float | None
    slab: int | None = None  # exceptional slab index when not covered


def certify_lip_bound(build: TypicalBuild, x: float, n: int) -> LipCertificate:
    if not (1 <= n <= build.n_stages):
        raise ConstructError(f"stage {n} not built")
    rec = build.stages[n - 1]
    j = rec.covering_core(x)
    if j is None:
        return LipCertificate(n, x, False, None, None, None, None, None, rec.slab_index(x))
    radius = float(rec.params.cert_radius)
    bound = 2.0 * build.tail(n)
    threshold = rec.lip_slack
    if not (bound < threshold):
        raise ConstructError("internal: lip certificate margin lost")
    return LipCertificate(n, x, True, j, radius, bound, threshold, threshold - bound)


def covered_profile(build: TypicalBuild, x: float) -> dict:
    """Per-stage core coverage and the infinitely-often proxy (>= half of stages)."""
    flags = [build.stages[i].covering_core(x) is not None for i in range(build.n_stages)]
    needed = math.ceil(build.n_stages / 2)
    return {
        "stages_covered": [i + 1 for i, f in enumerate(flags) if f],
        "covered_often_proxy": sum(flags) >= needed,
        "note": f"proxy for 'covered infinitely often': covered at >= {needed} of "
        f"{build.n_stages} stages",
    }


# ---------------------------------------------------------------------------
# Exceptional set


@dataclass
class ExceptionalAnalysis:
    tail_premeasures: list[PremeasureReport]
    tail_component_counts: list[int]
    containment_ok: bool
    exact_tails: bool
    E_intervals: IntervalUnion
    F_intervals: IntervalUnion
    micro: HZetaMicro | None
    micro_verified: bool | None
    notes: list[str]


# depth of the E.set / F.set cube rasters written with a build
RASTER_DEPTH = 16


def deepest_core_complement(build: TypicalBuild) -> IntervalUnion:
    """F: the part of Omega outside every core of the deepest stage."""
    if build.final.dim != 1:
        raise ConstructError("exceptional_set is implemented for dimension-1 builds")
    cores = build.stages[-1].core_union()
    return cores.complement_within(0, 1).intersect(build.omega.to_interval_union())


def exceptional_set(
    build: TypicalBuild,
    *,
    exact_component_limit: int = 300_000,
) -> tuple[DyadicCubeSet, DyadicCubeSet, ExceptionalAnalysis]:
    """E = union of stage-tail intersections of the slab sets; F = the certified
    complement of the deepest stage's cores.

    The analysis carries exact interval forms, per-tail premeasure witnesses
    (< 1/n by the stage inequality), the containment F within E (cross power
    in dimension 1 is the set itself), and, when the build's zeta is the
    inv_log gauge, a microscopic certificate for E via the cover-sum route.
    The cube sets are rasters of E and F at RASTER_DEPTH.
    """
    F_intervals = deepest_core_complement(build)
    N = build.n_stages
    notes: list[str] = []
    slabs = [rec.slab_union() for rec in build.stages]
    total_components = sum(len(s.intervals) for s in slabs)
    exact_tails = total_components <= exact_component_limit
    tails: list[IntervalUnion] = []
    if exact_tails:
        # suffix intersections, deepest first: each step shrinks the operand
        suffix = slabs[N - 1]
        tails = [suffix]
        for m in range(N - 2, -1, -1):
            suffix = slabs[m].intersect(suffix)
            tails.append(suffix)
        tails.reverse()
    else:
        notes.append(
            "tail intersections left implicit (component count "
            f"{total_components} beyond exact limit); premeasures use the "
            "containment tail_n within E_C_i"
        )
        tails = [slabs[N - 1] for _ in range(N)]
    # tail_n = intersection over m >= n is increasing in n, so the union over
    # n collapses to the deepest tail
    E_intervals = tails[-1]

    reports = []
    for n in range(1, N + 1):
        scales = sorted(
            {float(build.stages[i].params.eta) for i in range(n - 1, N)}, reverse=True
        )
        reports.append(lower_box_premeasure(tails[n - 1], build.zeta, 1.0 / n, scales))

    containment = F_intervals.subset_of(E_intervals)

    micro = None
    verified = None
    zeta = build.zeta
    if getattr(zeta, "kind", "") == "inv_log":
        cover = BoxCover.from_intervals(
            (float(a), float(b)) for a, b in E_intervals.intervals
        )
        record = CoverRecord.build(cover, zeta)
        # keep beta * N well inside exp()'s range so the budgets stay positive
        beta_cap = 600.0 / max(1, len(cover))
        beta = min(1.0 / (2.0 * record.total), beta_cap) if record.total > 0 else 1.0
        micro = micro_from_hzeta(record, beta)
        verified = microscopic_verify(micro.cover, micro.eps, E_intervals).ok
        notes.append(f"micro route: cover sum {record.total:g}, beta {beta:g}")

    E_cubes = DyadicCubeSet.from_interval_union(E_intervals, RASTER_DEPTH)
    F_cubes = DyadicCubeSet.from_interval_union(F_intervals, RASTER_DEPTH)
    analysis = ExceptionalAnalysis(
        reports,
        [len(t.intervals) for t in tails],
        containment,
        exact_tails,
        E_intervals,
        F_intervals,
        micro,
        verified,
        notes,
    )
    return E_cubes, F_cubes, analysis


# ---------------------------------------------------------------------------
# Build directory format


def save_build(
    directory, build: TypicalBuild
) -> tuple[DyadicCubeSet, DyadicCubeSet, ExceptionalAnalysis]:
    """Write the build directory; returns the exceptional_set result it wrote."""
    os.makedirs(directory, exist_ok=True)
    save_function(os.path.join(directory, "base.fn"), build.base)
    save_function(os.path.join(directory, "final.fn"), build.final)
    stages = []
    for rec, eps in zip(build.stages, build.eps_schedule):
        p = rec.params
        stages.append(
            {
                "n": p.n,
                "k": p.k,
                "eta": str(p.eta),
                "beta": str(p.beta),
                "gamma": str(p.gamma),
                "delta": str(p.delta),
                "zeta_at_eta": p.zeta_at_eta,
                "epsilon": eps,
                "slack_min": rec.slack_min,
                "membership_slack": rec.membership_slack,
                "lip_slack": rec.lip_slack,
                "depth": rec.depth,
                "anchors": [int(a) for a in rec.anchors],
                "plateau_values": [float(v) for v in rec.plateau_values],
                "kept": [int(j) for j in rec.kept],
                "dropped": list(rec.dropped),
            }
        )
    _atomic_write(os.path.join(directory, "stages.json"), json.dumps(stages, indent=1))
    meta = {
        "phi": format_gauge(build.phi),
        "zeta": format_gauge(build.zeta),
        "eps0": build.eps0,
        "early_stop": build.early_stop,
    }
    _atomic_write(os.path.join(directory, "meta.json"), json.dumps(meta, indent=1))
    E_cubes, F_cubes, analysis = exceptional_set(build)
    save_cubes(os.path.join(directory, "E.set"), E_cubes)
    save_cubes(os.path.join(directory, "F.set"), F_cubes)
    return E_cubes, F_cubes, analysis


def load_build(directory) -> TypicalBuild:
    base = load_function(os.path.join(directory, "base.fn"))
    final = load_function(os.path.join(directory, "final.fn"))
    with open(os.path.join(directory, "meta.json"), "r", encoding="utf-8") as fh:
        meta = json.load(fh)
    with open(os.path.join(directory, "stages.json"), "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    phi = parse_gauge(meta["phi"])
    zeta = parse_gauge(meta["zeta"])
    stages = []
    eps_list = []
    for item in raw:
        params = StageParams(
            item["n"],
            item["epsilon"],
            Fraction(item["delta"]),
            item["k"],
            Fraction(item["eta"]),
            item["zeta_at_eta"],
        )
        params.validate()
        kept = np.array(item["kept"], dtype=np.int64)
        lo_v, hi_v, _ = plateau_vertex_ranges(params, item["depth"], kept)
        stages.append(
            StageRecord(
                params,
                item["depth"],
                np.array(item["anchors"], dtype=np.int64),
                np.array(item["plateau_values"]),
                lo_v,
                hi_v,
                kept,
                item["membership_slack"],
                item["lip_slack"],
                tuple(item["dropped"]),
            )
        )
        eps_list.append(item["epsilon"])
    return TypicalBuild(
        base,
        final,
        stages,
        eps_list,
        phi,
        zeta,
        meta["eps0"],
        final.domain,
        meta["early_stop"],
    )
