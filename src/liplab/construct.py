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

import contextlib
import json
import math
import os
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

# CPython's own BLAKE2b, which hashes about three times as fast as its
# built-in sha256; hashlib's maps OpenSSL, 3 MB more resident memory in each
# build command
try:
    from _blake2 import blake2b
except ImportError:
    from hashlib import blake2b

from .gauges import GaugeDomainError, GaugeLike, format_gauge, parse_gauge
from .funclib import (
    GRID_BLOCK,
    HolderModulus,
    SampledFunction,
    _window_extremes,
    grid_fits,
    load_function,
    refined_values,
    save_function,
)
from .setlib import (
    BoxCover,
    DyadicCubeSet,
    FormatError,
    GreedyCounts,
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
    "exceptional_rasters",
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

    def union(self, kind: str, start: int, stop: int) -> IntervalUnion:
        """The pieces start..stop-1 of a kind as one union: component i is
        piece start + i."""
        D = self.layout_den
        return IntervalUnion(D, *self.pieces(kind, np.arange(start, stop).astype(_int_dtype(D))))

    def slab_union(self) -> IntervalUnion:
        return self.union("slab", 0, self.k + 1)

    def slabs_near(self, iu: IntervalUnion) -> IntervalUnion:
        """The union of the slabs that meet the hull [x0, x1] of the nonempty
        iu: slab m does iff m/k - eta/2 <= x1 and m/k + eta/2 >= x0."""
        x0, x1 = Fraction(int(iu.lo[0]), iu.den), Fraction(int(iu.hi[-1]), iu.den)
        half = self.eta / 2
        return self.union("slab", max(math.ceil(self.k * (x0 - half)), 0),
                          min(math.floor(self.k * (x1 + half)), self.k) + 1)

    def kept_cubes(self, domain: DyadicCubeSet) -> np.ndarray:
        """The indices j of the shrunken cubes that meet the domain Omega: the
        cubes build_stage plateaus, found GRID_BLOCK cubes at a time."""
        omega = domain.to_interval_union()
        kept = []
        for lo in range(0, self.k, GRID_BLOCK):
            cubes = self.union("cube", lo, min(lo + GRID_BLOCK, self.k))
            kept.append(lo + np.flatnonzero(cubes.meets(omega)))
        return np.concatenate(kept)

    def required_depth(self) -> int:
        """Smallest grid depth giving >= 4 cells per gap and per cube side."""
        need = min(self.eta / 4, self.ell / 4)
        depth = 0
        while Fraction(1, 1 << depth) > need:
            depth += 1
        return depth


def choose_stage_params(f, n: int, eps: float, zeta: GaugeLike) -> StageParams:
    """Pick delta, k, eta for stage n from the declared modulus of f, a
    SampledFunction or a TypicalBuild's final function.

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
    """One built stage (dimension 1 layout), held as its profile, arrays of
    one entry per kept cube: no grid of the stage's values is stored.

    Plateaus are vertex index ranges [lo_v[j], hi_v[j]] on the stage's grid,
    as computed by plateau_vertex_ranges, and every cell meeting the
    shrunken cube got the anchor value plateau[j], so the final diameter
    over each cube is exactly zero at build time.  The stage's value at any
    vertex follows from these and the stage below (values_at).
    values_blake2b, lip and offset come from the first chain pass that reads
    the stage (TypicalBuild.value_blocks), which settles it; build_stage
    leaves None in all three.
    """

    params: StageParams
    depth: int
    lo_v: np.ndarray
    hi_v: np.ndarray
    kept: np.ndarray  # StageParams.kept_cubes of the domain
    plateau: np.ndarray  # the anchor value of each kept cube's plateau
    membership_slack: float  # (1/n) phi(eta/2), the F(C) threshold
    lip_slack: float  # (1/n) phi(eta/4), the ball-certificate threshold
    values_blake2b: str | None = None  # 32-byte BLAKE2b of the stage's float64 values
    lip: float | None = None  # the stage's grid Lipschitz constant, its declared modulus
    offset: float | None = None  # the largest plateau offset |profile - below| (values_at)

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

    def values_at(self, idx: np.ndarray, below: np.ndarray) -> tuple[np.ndarray, float]:
        """The stage's values at the sorted vertex indices idx of its grid,
        from below, the function below at idx, and the largest plateau
        offset |profile - below| there.  The profile is flat on plateaus,
        linear across gaps and flat into the boundary slabs; g - below is
        clamped to [-eps, eps], and plateau vertices in the domain carry the
        profile bitwise.

        Only the plateaus from the last one starting at or before idx[0] to
        the first one ending at or after idx[-1] are read: np.interp works
        per element and finds the same two knots for idx among them as among
        all, so any split of a grid gives the bits of one whole-grid pass."""
        a = max(int(np.searchsorted(self.lo_v, idx[0], side="right")) - 1, 0)
        b = int(np.searchsorted(self.hi_v, idx[-1])) + 1
        lo_v, hi_v = self.lo_v[a:b], self.hi_v[a:b]
        xp = np.empty(2 * len(lo_v), dtype=np.float64)
        xp[0::2], xp[1::2] = lo_v, hi_v
        profile = np.interp(idx.astype(np.float64), xp, np.repeat(self.plateau[a:b], 2))
        # the plateaus are disjoint and increasing: runs alternate gap,
        # plateau, ..., gap, and vertex i lies in run r, the count of ends <= i
        ends = np.empty(2 * len(lo_v), dtype=np.int64)
        ends[0::2], ends[1::2] = lo_v, hi_v + 1
        runs = np.bincount(idx.searchsorted(ends), minlength=idx.size + 1)[: idx.size].cumsum()
        on = (runs & 1).astype(bool)
        g = np.subtract(profile, below)
        # plateau cells must be exact: the clamp may bite only in the gaps
        offsets = np.where(on, g, 0.0)
        worst = float(np.fmax.reduce(np.abs(offsets, out=offsets), initial=0.0))
        eps = self.params.eps
        np.clip(g, -eps, eps, out=g)
        np.add(below, g, out=g)
        # f + (A - f) can land an ulp off A; plateau vertices carry A bitwise so
        # the certified diameters are exactly zero.  Off-domain vertices stay NaN.
        np.copyto(g, profile, where=on & ~np.isnan(below))
        return g, worst


def _require_dim_1(f: SampledFunction) -> None:
    if f.dim != 1:
        raise ConstructError(f"staircase builds are implemented for dimension 1, not {f.dim}")


class _Tally:
    """What a chain pass learns of one stage's values, fed in grid order, a
    block at a time; a block may repeat vertices already fed, which count
    once: their BLAKE2b, the largest |adjacent difference| (NaN-ignoring)
    and the largest plateau offset."""

    def __init__(self) -> None:
        self.digest = blake2b(digest_size=32)
        self.adjacent = self.worst = 0.0
        self.fed = 0
        self.last = np.empty(0)

    def feed(self, start: int, values: np.ndarray, worst: float) -> None:
        self.worst = max(self.worst, worst)
        new = values[self.fed - start :]
        if new.size:
            self.digest.update(new)
            diffs = np.abs(np.diff(np.concatenate((self.last, new))))
            self.adjacent = max(self.adjacent, float(np.fmax.reduce(diffs, initial=0.0)))
            self.last = new[-1:]
            self.fed += new.size


class _Pass:
    """One chain pass: the tallies it feeds, and per stage the block of the
    stage's grid it computed last."""

    def __init__(self, tallies: dict) -> None:
        self.tallies = tallies
        self.blocks: dict[int, tuple[int, np.ndarray]] = {}


class _FinalSums:
    """What a chain pass learns of the final function, fed in grid order a
    block at a time: the NaN-ignoring max |final - base| and each stage's
    plateau (min, max), window by window."""

    def __init__(self, build: "TypicalBuild") -> None:
        self.build = build
        self.sup = 0.0
        self.extremes = [np.full((2, len(rec.kept)), np.nan) for rec in build.stages]

    def feed(self, idx: np.ndarray, block: np.ndarray) -> None:
        build, lo, hi = self.build, int(idx[0]), int(idx[-1])
        diff = refined_values(build.base.values.__getitem__, build.base.depth, build.depth, idx)
        np.abs(np.subtract(diff, block, out=diff), out=diff)
        self.sup = max(self.sup, float(np.fmax.reduce(diff, initial=0.0)))
        for rec, (mn, mx) in zip(build.stages, self.extremes):
            # the plateaus that meet lo..hi, as windows of the final grid
            s = build.depth - rec.depth
            a = np.searchsorted(rec.hi_v, -(-lo >> s))
            b = np.searchsorted(rec.lo_v, hi >> s, "right")
            if a < b:
                bmin, bmax = _window_extremes(block, np.maximum(rec.lo_v[a:b] << s, lo) - lo,
                                              np.minimum(rec.hi_v[a:b] << s, hi) - lo)
                np.fmin(mn[a:b], bmin, out=mn[a:b])
                np.fmax(mx[a:b], bmax, out=mx[a:b])


def build_stage(build: "TypicalBuild", params: StageParams) -> StageRecord:
    """Stage n = build.n_stages + 1 on the build's final function, as its
    profile alone: the one stage step, which iterate_typical and load_build
    both take.  It makes no pass over the stage's grid; the first chain pass
    that reads the stage settles it (TypicalBuild.value_blocks).

    The stage grid has depth m = max(build.depth, params.required_depth()),
    and the function below, f, is read through the exact refinement to
    depth m, at the anchors only.  The stage g equals f(x_C) on every cell
    meeting C (anchor x_C is the center grid vertex when in the domain, else
    the least domain vertex of C), so diam g(C) = 0 exactly; across gaps g
    interpolates neighboring plateau values, and g - f is clamped to
    [-eps, eps].  The cubes are params.kept_cubes of the domain.
    """
    _require_dim_1(build.base)
    m = max(build.depth, params.required_depth())
    js = params.kept_cubes(build.domain)
    if len(js) == 0:
        raise ConstructError("no cube meets the domain")
    lo_v, hi_v, anchors = plateau_vertex_ranges(params, m, js)
    n = build.n_stages

    def read(at):
        return refined_values(lambda v: build._values(n, v), build.depth, m, at)

    # GRID_BLOCK anchors at a time, so a read's temporaries stay block-sized
    plateau = np.concatenate([read(anchors[i : i + GRID_BLOCK])
                              for i in range(0, len(anchors), GRID_BLOCK)])
    if not build.base.full_domain:
        for j in np.flatnonzero(np.isnan(plateau)):
            # a center off the domain: the least domain vertex of the plateau,
            # as the cells meeting a cube that meets the domain hold one
            plateau[j] = next(block[~np.isnan(block)][0] for block in (
                read(np.arange(lo, min(lo + GRID_BLOCK, hi_v[j] + 1)))
                for lo in range(lo_v[j], hi_v[j] + 1, GRID_BLOCK)
            ) if not np.isnan(block).all())
    rec = StageRecord(params, m, lo_v, hi_v, js, plateau, *stage_slacks(params, build.phi))
    build.stages.append(rec)
    build._sums = None
    return rec


def _offset_failure(rec: StageRecord) -> str | None:
    """What is wrong when a settled stage's largest plateau offset exceeds
    its eps, else None."""
    if rec.offset > rec.params.eps:
        return (f"plateau offset {rec.offset:g} exceeds eps={rec.params.eps:g};"
                " stage delta too optimistic")
    return None


# ---------------------------------------------------------------------------
# Iterated build


@dataclass
class TypicalBuild:
    """An iterated stage build: the base function, one StageRecord per stage,
    and its perturbation schedule.

    No stage's values are stored: a build holds its base and, per stage,
    arrays of one entry per kept cube.  _values reads any stage at sorted
    vertex indices: the stage below through the exact refinement
    (funclib.refined_values), recursively down to the base, then
    StageRecord.values_at.  Every chain pass (value_blocks) runs through
    the final grid a GRID_BLOCK at a time, settles each stage not yet
    settled and takes the final sums (sup_distance, plateau_extremes).  The
    build stands for its final function as save_function reads it (dim,
    depth, domain, modulus, exact and value_blocks); final_function()
    materializes it, which only partition needs.
    """

    base: SampledFunction
    stages: list[StageRecord]
    phi: GaugeLike
    zeta: GaugeLike
    eps0: float
    early_stop: str | None = None
    # sup_distance and plateau_extremes, from the last chain pass
    _sums: "_FinalSums | None" = field(default=None, init=False, repr=False, compare=False)

    dim = 1

    @property
    def n_stages(self) -> int:
        return len(self.stages)

    @property
    def eps_schedule(self) -> list[float]:
        return [rec.params.eps for rec in self.stages]

    @property
    def depth(self) -> int:
        return self.stages[-1].depth if self.stages else self.base.depth

    @property
    def domain(self) -> DyadicCubeSet:
        return self.base.domain

    @property
    def modulus(self):
        """The final function's declared modulus: the last stage's grid
        Lipschitz constant, settled by a chain pass if none ran since
        build_stage, or the base's modulus before any stage."""
        if not self.stages:
            return self.base.modulus
        self.settle()
        return HolderModulus(self.stages[-1].lip, 1.0)

    @property
    def exact(self) -> bool:
        return True if self.stages else self.base.exact

    def _values(self, n: int, idx: np.ndarray, run: "_Pass | None" = None) -> np.ndarray:
        """Stage n's values (n = 0: the base) at the sorted vertex indices idx
        of its grid, to be read, not written.  In a chain pass (run) the
        reads are blocks in grid order: a stage computes GRID_BLOCK of its
        own vertices at a time, feeds them to its tally and serves the reads
        of the stage above from them while they lie inside."""
        if n == 0:
            return self.base.values[idx]
        if run is None:
            return self._computed(n, idx, None)
        lo, hi = int(idx[0]), int(idx[-1]) + 1
        start, block = run.blocks.get(n, (0, None))
        if block is None or not start <= lo <= hi <= start + block.size:
            top = (1 << self.stages[n - 1].depth) + 1
            start, block = lo, self._computed(n, np.arange(lo, max(hi, min(lo + GRID_BLOCK, top))),
                                              run)
            run.blocks[n] = start, block
        return block[lo - start : hi - start]

    def _computed(self, n: int, idx: np.ndarray, run: "_Pass | None") -> np.ndarray:
        """Stage n >= 1 at idx from the stage below, read through the exact
        refinement to stage n's grid (funclib.refined_values), recursively
        down to the base, then StageRecord.values_at."""
        rec = self.stages[n - 1]
        below = self.stages[n - 2].depth if n > 1 else self.base.depth
        v = refined_values(lambda at: self._values(n - 1, at, run), below, rec.depth, idx)
        g, worst = rec.values_at(idx, v)
        if run is not None and n in run.tallies:
            run.tallies[n].feed(int(idx[0]), g, worst)
        return g

    def value_blocks(self):
        """The chain pass: the final function's values in grid order,
        GRID_BLOCK at a time.  After the last block each stage not yet
        settled, lowest first, gets its values_blake2b, lip and plateau
        offset, and ConstructError names it if the offset exceeds its eps;
        the final sums are then the build's."""
        tallies = {n: _Tally() for n, rec in enumerate(self.stages, 1)
                   if rec.values_blake2b is None}
        n, top, run, sums = self.n_stages, 1 << self.depth, _Pass(tallies), _FinalSums(self)
        for lo in range(0, top + 1, GRID_BLOCK):
            idx = np.arange(lo, min(lo + GRID_BLOCK, top + 1))
            block = self._values(n, idx, run)
            sums.feed(idx, block)
            yield block
        for n, tally in tallies.items():
            rec = self.stages[n - 1]
            self.stages[n - 1] = rec = replace(rec, values_blake2b=tally.digest.hexdigest(),
                                               lip=(0 + tally.adjacent) / 2.0**-rec.depth,
                                               offset=tally.worst)
            if failure := _offset_failure(rec):
                raise ConstructError(f"stage {n}: {failure}")
        self._sums = sums

    def settle(self) -> "_FinalSums":
        """The final sums, from a chain pass if none ran since build_stage."""
        if self._sums is None:
            for _ in self.value_blocks():
                pass
        return self._sums

    def final_function(self) -> SampledFunction:
        """The final function with its grid held whole, from one chain pass;
        only partition, whose oscillation reads the grid whole, needs it."""
        values = np.empty((1 << self.depth) + 1)
        lo = 0
        for block in self.value_blocks():
            values[lo : lo + block.size] = block
            lo += block.size
        return SampledFunction(1, self.depth, self.domain, values, self.modulus, self.exact)

    def tail(self, n: int) -> float:
        """T_n = sum of budgets of stages after n."""
        return float(sum(self.eps_schedule[n:]))

    @property
    def sup_distance(self) -> float:
        """max |final - base| over the final grid (NaN-ignoring)."""
        return self.settle().sup

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
    reason flag.  The chain pass that settles a stage runs before the next
    one is chosen; the last stage is left to the first pass that reads the
    build, which in construct is save_build's.
    """
    if n_max < 1 or eps0 <= 0:
        raise ConstructError("need n_max >= 1 and eps0 > 0")
    _require_dim_1(f0)
    build = TypicalBuild(f0, [], phi, zeta, eps0)
    for n in range(1, n_max + 1):
        eps_n = stage_budget(eps0, [rec.slack_min for rec in build.stages])
        if eps_n < 1e-250:
            build.early_stop = f"slack exhaustion at stage {n}: budget underflow ({eps_n:g})"
            break
        if build.stages:  # stage n reads stage n - 1's lip; an offset failure is no early stop
            build.settle()
        try:
            params = choose_stage_params(build, n, eps_n, zeta)
        except ConstructError as err:
            build.early_stop = f"stage {n}: {err}"
            break
        if params.k > K_MAX:
            build.early_stop = f"stage {n}: k = {params.k} beyond k_max = {K_MAX}"
            break
        need = params.required_depth()
        if need > max_depth:
            build.early_stop = f"stage {n}: required depth {need} beyond max_depth {max_depth}"
            break
        build_stage(build, params)
    if not build.stages:
        raise ConstructError(f"no stage could be built: {build.early_stop}")
    return build


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
    """(min, max) of the final function over each kept stage-n plateau, in
    kept order, from the build's last chain pass (one runs if none has).

    NaN-ignoring: a partial-domain cube's off-domain vertices are NaN."""
    mn, mx = build.settle().extremes[n - 1]
    return mn, mx


def certify_membership(build: TypicalBuild, n: int) -> StageCertificate:
    """Stage n's certificate; a ConstructError names the stage, the failed
    inequality and both of its sides."""
    if not (1 <= n <= build.n_stages):
        raise ConstructError(f"stage {n} not built")
    rec = build.stages[n - 1]
    bound = 2.0 * build.tail(n)
    mn, mx = plateau_extremes(build, n)
    # GRID_BLOCK plateaus at a time: no temporary of one entry per kept cube
    diam_max = float(np.max([np.max(mx[i : i + GRID_BLOCK] - mn[i : i + GRID_BLOCK])
                             for i in range(0, len(mx), GRID_BLOCK)]))
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
    """What the certificates payload reads of the exceptional set: the
    premeasure of each tail, the containment F within E and, when the
    build's zeta is inv_log, the micro route's cover of E, its beta and
    whether it verified."""

    tail_premeasures: list[float]  # lower_box_premeasure of each tail, n = 1..N
    containment_ok: bool
    micro_cover: BoxCover | None  # inv_log zeta only, from _micro_route
    micro_beta: float | None
    micro_verified: bool | None
    notes: list[str]


# depth of the E.set / F.set cube rasters written with a build
RASTER_DEPTH = 16


def _slab_blocks(build: TypicalBuild):
    """The sweep over the deepest stage's slab indices m = 0..k, GRID_BLOCK
    at a time: per block, E's block, the deepest stage's slabs m there, and
    F's block, E's within Omega = build.domain.  E is the deepest tail (the
    tails increase with n, so their union is the deepest), and F is the part
    of Omega outside every core of the deepest stage.  The blocks of a set
    are disjoint and in order, as the deepest slabs are."""
    params = build.stages[-1].params
    omega = build.domain.to_interval_union()
    for lo in range(0, params.k + 1, GRID_BLOCK):
        E = params.union("slab", lo, min(lo + GRID_BLOCK, params.k + 1))
        yield E, E.intersect(omega)


def exceptional_set(build: TypicalBuild) -> ExceptionalAnalysis:
    """E = union of stage-tail intersections of the slab sets; F = the certified
    complement of the deepest stage's cores, E within Omega.

    One sweep (_slab_blocks) takes the tails block by block: tail n's block
    is E's block intersected, deepest first, with the slabs of each earlier
    stage m >= n that meet it (StageParams.slabs_near), and each feeds the
    greedy N_delta counts of its tail's scales {eta_i : i >= n}, from which
    lower_box_premeasure gives the per-tail witnesses (< 1/n by the stage
    inequality).  The containment F within E (cross power in dimension 1 is
    the set itself) is checked on each block.  No tail is held whole; E is,
    as the deepest slab union, only when the build's zeta is the inv_log
    gauge, for the microscopic certificate of E via the cover-sum route.
    """
    N = build.n_stages
    notes: list[str] = []
    scales = [sorted({float(rec.params.eta) for rec in build.stages[n - 1 :]}, reverse=True)
              for n in range(1, N + 1)]
    counts = [GreedyCounts(s) for s in scales]
    containment = True
    for E, F in _slab_blocks(build):
        containment &= F.subset_of(E)
        tail = E  # tail N
        counts[-1].feed(tail)
        for n in range(N - 1, 0, -1):  # tail n: stage n's slabs within tail n + 1
            if tail.is_empty:  # and so is every earlier tail's block
                break
            tail = build.stages[n - 1].params.slabs_near(tail).intersect(tail)
            counts[n - 1].feed(tail)
    reports = [lower_box_premeasure(c, build.zeta, 1.0 / n, s)
               for n, (c, s) in enumerate(zip(counts, scales), 1)]

    cover = beta = verified = None
    if getattr(build.zeta, "kind", "") == "inv_log":
        E = build.stages[-1].params.slab_union()
        cover, total, beta = _micro_route(E, build.zeta)
        verified = microscopic_verify(cover, math.exp(-beta), E) is None
        notes.append(f"micro route: cover sum {total:g}, beta {beta:g}")

    return ExceptionalAnalysis(reports, containment, cover, beta, verified, notes)


def exceptional_rasters(build: TypicalBuild, depth: int) -> tuple[DyadicCubeSet, DyadicCubeSet]:
    """E and F rasterized at depth (the cubes meeting each) through the
    sweep, a block at a time, each marked in a mask of the 2^depth cubes: a
    cube that two neighbouring blocks share is kept once."""
    marks = np.zeros((2, 1 << depth), dtype=bool)
    for blocks in _slab_blocks(build):
        for mark, iu in zip(marks, blocks):
            mark[DyadicCubeSet.from_interval_union(iu, depth).keys] = True
    rasters = []
    for mark in marks:
        keys = np.flatnonzero(mark)
        keys.flags.writeable = False  # kept, not copied, by the set
        rasters.append(DyadicCubeSet(1, depth, keys))
    return tuple(rasters)


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
    """Write the build directory; returns the exceptional_set result, and
    writes E and F as E.set and F.set, rasters at RASTER_DEPTH that
    exceptional_rasters takes through the same blocked sweep, so neither
    set is held whole.

    stages.json keeps what each stage chose and the BLAKE2b of its values;
    load_build replays the stages from base.fn and re-derives everything
    else.  final.fn is written for analyze and is read by no build command;
    it is written from one chain pass over the final grid, a block at a
    time, which settles the stages no pass read yet (iterate_typical's last)
    and takes the final sums for the certificates.  A plateau offset above
    eps raises ConstructError in it, before final.fn or stages.json is written."""
    os.makedirs(directory, exist_ok=True)
    save_function(os.path.join(directory, "base.fn"), build.base)
    save_function(os.path.join(directory, "final.fn"), build)
    stages = [
        {
            "n": rec.params.n,
            "k": rec.params.k,
            "eta": str(rec.params.eta),
            "delta": str(rec.params.delta),
            "depth": rec.depth,
            "values_blake2b": rec.values_blake2b,
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
    for name, cubes in zip(("E.set", "F.set"), exceptional_rasters(build, RASTER_DEPTH)):
        save_cubes(os.path.join(directory, name), cubes)
    return analysis


def _stored_params(position: int, item: dict, zeta: GaugeLike, eps: float,
                   prev_depth: int) -> StageParams:
    """The params of the stages.json entry at `position`, of budget eps on a
    grid prev_depth deep.  ValueError unless n is the position, k and depth
    are ints, k <= K_MAX, the choices pass StageParams.validate, and depth
    is max(prev_depth, required_depth()), as build_stage refines, on a grid
    numpy can size."""
    n, k, depth = (item[key] for key in ("n", "k", "depth"))
    if type(n) is not int or n != position:
        raise ValueError(f"n is {n!r}, not the stage's position {position}")
    if type(k) is not int or type(depth) is not int:
        raise ValueError(f"k and depth must be ints, not {k!r} and {depth!r}")
    if k > K_MAX:
        raise ValueError(f"k = {k} beyond k_max = {K_MAX}")
    eta = Fraction(item["eta"])
    params = StageParams(n, eps, Fraction(item["delta"]), k, eta, zeta.eval(float(eta)))
    params.validate()
    need = params.required_depth()
    if depth != max(prev_depth, need):
        raise ValueError(f"depth {depth} is not the derived depth {max(prev_depth, need)}, the"
                         f" larger of the input grid's depth {prev_depth} and the required {need}")
    if not grid_fits(depth):
        raise ValueError(f"numpy cannot size a grid of 2^{depth}+1 float64 values")
    return params


def load_build(directory) -> TypicalBuild:
    """Read a build directory and replay its stages from base.fn as
    iterate_typical built them: each budget by stage_budget from meta.json's
    eps0, the params from stages.json (_stored_params), then build_stage;
    one chain pass then settles every stage, whose plateau offset must be
    within its eps and whose values_blake2b must be the stored one, and
    takes the final sums.  final.fn is not read; a stored
    values_sha256, the digest of older builds, is refused, and other
    stages.json keys (as an old build's epsilon or dropped) are ignored.
    meta.json's eps0 must be positive and finite and its early_stop null or
    a string, and base.fn must be 1-d; otherwise, or when a replay raises
    ConstructError, FormatError names the file and the stage."""
    base = load_function(os.path.join(directory, "base.fn"))
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
        if base.dim != 1:
            raise FormatError(f"{directory}: base.fn has dimension {base.dim}, not 1")
        if not raw:
            raise FormatError(f"{directory}: stages.json lists no stage")
        build = TypicalBuild(base, [], phi, zeta, eps0, early_stop)
        for position, item in enumerate(raw, 1):
            eps = stage_budget(eps0, [rec.slack_min for rec in build.stages])
            try:
                build_stage(build, _stored_params(position, item, zeta, eps, build.depth))
            except (ValueError, TypeError, KeyError, ArithmeticError) as err:
                raise FormatError(f"stages.json stage {position}: {err}") from err
            if "values_sha256" in item:
                raise FormatError(
                    f"stages.json stage {position}: values_sha256 is the stage digest of"
                    " builds before values_blake2b, which this liplab checks; construct the"
                    " build again"
                )
        # one chain pass settles every stage and takes the final sums the
        # certificates read; a plateau offset above eps is named below, in
        # stage order with the digests
        with contextlib.suppress(ConstructError):
            build.settle()
        for position, (item, rec) in enumerate(zip(raw, build.stages), 1):
            if failure := _offset_failure(rec):
                raise FormatError(f"stages.json stage {position}: {failure}")
            if item.get("values_blake2b") != rec.values_blake2b:
                raise FormatError(
                    f"stages.json stage {position}: the stage replayed from base.fn has"
                    f" values_blake2b {rec.values_blake2b}, not the stored"
                    f" {item.get('values_blake2b')!r}"
                )
    return build
