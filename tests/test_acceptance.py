"""Acceptance suite: every criterion runs at its stated tolerance and prints
one pass/fail line.  Builds are shared across criteria that reference the
same ones (3, 4 and 6), with the build cost charged to criterion 3."""

import math
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations

import numpy as np

from liplab.construct import (
    certify_membership,
    choose_stage_params,
    exceptional_set,
    iterate_typical,
)
from liplab.funclib import SampledFunction, make_test_function, oscillation_window
from liplab.gauges import make_preset
from liplab.partition import b_image_cubes, graph_cross_check, image_cover_report, split_partition
from liplab.setlib import (
    DyadicCubeSet,
    cantor_intervals,
    cantor_natural_cover,
    hausdorff_upper,
    lower_box_dim,
    microscopic_verify,
    n_delta,
    points_union,
)
from oracles import brute_min_window_cover, fraction_core

POWER1 = make_preset("power", s=1)
INV_LOG = make_preset("inv_log")
PHI_BUILD = make_preset("power", s=0.1)
LN2_LN3 = math.log(2) / math.log(3)


@contextmanager
def criterion(number: int, name: str, limit: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL after {time.perf_counter() - start:.2f}s")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number} ({name}): PASS ({elapsed:.2f}s, limit {limit:.0f}s)")
    assert elapsed < limit, f"criterion {number} exceeded its {limit}s budget"


def generated_stage_params():
    """At least 50 StageParams across n in 1..10 and both zeta gauges."""
    constant = make_test_function("constant", {"value": 0.5}, depth=6)
    affine = make_test_function("affine", {"c": 1.0}, depth=6)
    out = []
    for zeta in (POWER1, INV_LOG):
        for n in range(1, 11):
            for f0, eps in ((constant, 0.5), (affine, 0.4), (affine, 0.15)):
                out.append((choose_stage_params(f0, n, eps, zeta), zeta))
    assert len(out) >= 50
    return out


_BUILDS: dict = {}


def acceptance_builds():
    """The three criterion-3 builds: d=1, n_max=3, phi = power(0.1), zeta = power(1)."""
    if not _BUILDS:
        zeta = POWER1
        specs = {
            "constant": make_test_function("constant", {"value": 0.5}, depth=8),
            "affine": make_test_function("affine", {"c": 1.0}, depth=10),
            "weierstrass": make_test_function(
                "weierstrass", {"a": 0.5, "b": 3, "terms": 25}, depth=16
            ),
        }
        for name, base in specs.items():
            _BUILDS[name] = iterate_typical(
                base, 3, PHI_BUILD, zeta, 1.0, max_depth=24
            )
    return _BUILDS


_EXCEPTIONAL: dict = {}


def float_starts_and_lengths(iu):
    """Each interval's start and length as correctly rounded floats: the
    length is the exact integer difference over iu.den, rounded once."""
    return iu.floats()[0], [n / iu.den for n in (iu.hi - iu.lo).tolist()]


def exceptional_analyses():
    if not _EXCEPTIONAL:
        for name, build in acceptance_builds().items():
            _EXCEPTIONAL[name] = exceptional_set(build)
    return _EXCEPTIONAL


def test_criterion_1_stage_identities():
    with criterion(1, "stage identities", 1.0):
        params = generated_stage_params()
        for p, _ in params:
            assert p.gamma * p.beta == 1 - p.k * p.eta  # exact rational identity
            assert p.one_minus_gamma * (p.beta / p.k) == p.eta / 2


def test_criterion_2_gap_width_inequality():
    with criterion(2, "gap-width inequality", 1.0):
        for p, zeta in generated_stage_params():
            count = n_delta(p.slab_union(), p.eta)
            assert count <= p.k + 1
            assert count * p.zeta_at_eta < 1.0 / p.n


def test_criterion_3_typical_build_certificates():
    with criterion(3, "typical-build certificates", 30.0):
        builds = acceptance_builds()
        rng = np.random.default_rng(0)
        total_points = 0
        for name, build in builds.items():
            assert build.early_stop is None, name
            assert build.n_stages == 3
            for n in (1, 2, 3):
                # one stage certificate: the lip bound at radius eta/4 holds
                # on every kept core, so each sampled core point needs only
                # to be found in its core
                cert = certify_membership(build, n)
                assert cert.membership_margin > 0.0 and cert.lip_margin > 0.0
                rec = build.stages[n - 1]
                for _ in range(112):
                    j = int(rec.kept[int(rng.integers(0, len(rec.kept)))])
                    a, b = fraction_core(rec.params.k, rec.params.eta, j)
                    x = float(a) + rng.random() * float(b - a)
                    assert rec.covering_core(x) == j
                    total_points += 1
        assert total_points >= 1000


def test_criterion_4_exceptional_set_smallness():
    with criterion(4, "exceptional-set smallness", 30.0):
        rng = np.random.default_rng(1)
        for name, analysis in exceptional_analyses().items():
            for n, value in enumerate(analysis.tail_premeasures, start=1):
                assert value < 1.0 / n, (name, n)
            assert analysis.containment_ok
            # sampled echo of F_approx within E^(cross 1) at 10,000 points
            starts, lengths = float_starts_and_lengths(analysis.F_intervals)
            cum = np.cumsum(lengths)
            for _ in range(10_000):
                u = rng.random() * cum[-1]
                i = int(np.searchsorted(cum, u))
                x = starts[i] + rng.random() * lengths[i]
                assert analysis.E_intervals.contains(x)


def test_criterion_5_dimension_oracles():
    with criterion(5, "dimension oracles", 10.0):
        rep = lower_box_dim(cantor_intervals(12), [Fraction(1, 3**k) for k in range(1, 13)])
        assert abs(rep["lbdim_proxy"] - LN2_LN3) <= 0.02
        square = lower_box_dim(
            DyadicCubeSet.full(2, 8), [Fraction(1, 2**k) for k in range(1, 9)]
        )
        assert abs(square["lbdim_proxy"] - 2.0) <= 0.01
        pts = points_union([0.11, 0.23, 0.47, 0.71, 0.89])
        finite = lower_box_dim(pts, [Fraction(1, 2**k) for k in range(1, 25)])
        assert finite["lbdim_proxy"] <= 0.1
        gauge = make_preset("power", s=LN2_LN3)
        for k in range(1, 13):
            total = hausdorff_upper(cantor_intervals(k), gauge, cantor_natural_cover(k))
            assert abs(total - 1.0) <= 1e-12


def test_criterion_6_partition_pipeline():
    with criterion(6, "partition pipeline", 60.0):
        build = acceptance_builds()["affine"]
        xi = POWER1
        phi = make_preset("power", s=2, scale=0.2)  # phi(r) = (r/5)^2
        A, B = split_partition(build)
        totals = []
        for delta in (0.1, 0.01, 0.001):
            rep = image_cover_report(build.final_function(), B, phi, xi, delta)
            assert rep["sum"] <= delta * (1.0 + 2.0 * delta) / 2.0
            assert rep["verdict"]
            assert not rep["uncovered_points"]
            totals.append(rep["sum"])
        assert all(a >= b for a, b in zip(totals, totals[1:]))  # antitone in delta
        b_image_cubes(build)  # the final function is flat on every deepest plateau
        assert len(B) > 0 and graph_cross_check(build, B) is None


def test_criterion_7_microscopic_path():
    with criterion(7, "microscopic path", 10.0):
        base = make_test_function("constant", {"value": 0.5}, depth=8)
        build = iterate_typical(base, 3, make_preset("power", s=0.25), INV_LOG, 0.5,
                                max_depth=24)
        assert build.early_stop is None
        analysis = exceptional_set(build)
        cover, beta = analysis.micro_cover, analysis.micro_beta
        assert cover is not None
        assert microscopic_verify(cover, math.exp(-beta), analysis.E_intervals) is None
        assert analysis.micro_verified
        # certificate region contains F_approx; cross power in d = 1 is the set
        cert_region = cover.interval_union()
        assert analysis.F_intervals.subset_of(cert_region)
        rng = np.random.default_rng(2)
        starts, lengths = float_starts_and_lengths(analysis.F_intervals)
        cum = np.cumsum(lengths)
        for _ in range(2_000):
            u = rng.random() * cum[-1]
            i = int(np.searchsorted(cum, u))
            x = starts[i] + rng.random() * lengths[i]
            assert cert_region.contains(x)


def test_criterion_8_oscillation_exactness():
    with criterion(8, "oscillation exactness", 30.0):
        radii = [2.0**-j for j in range(4, 11)]
        for c in (-2.0, 0.5, 1.0):
            f = make_test_function("affine", {"c": c}, depth=12)
            tol = 2.0 * f.modulus.omega(f.h) / POWER1.eval(min(radii))
            w = oscillation_window(f, [0.5], POWER1, radii)
            lip, Lip = (float(w.summary(mode)[0]) for mode in ("lip", "Lip"))
            assert abs(lip - 2.0 * abs(c)) <= tol
            assert abs(Lip - 2.0 * abs(c)) <= tol
        const = make_test_function("constant", {"value": 0.7}, depth=12)
        w = oscillation_window(const, [0.5], POWER1, radii)
        assert w.summary("lip")[0] == 0.0
        assert w.summary("Lip")[0] == 0.0

        base = make_test_function("weierstrass", {"a": 0.5, "b": 3, "terms": 25}, depth=16)
        rng = np.random.default_rng(8)
        points = np.sort(rng.uniform(0.07, 0.93, size=64))  # a window takes them nondecreasing
        last = None
        for depth in (12, 14, 16):
            step = 1 << (16 - depth)
            f = SampledFunction(
                1, depth, base.domain, base.values[::step].copy(), base.modulus,
                exact=False,
            )
            window = [r for r in [2.0**-j for j in range(4, depth - 1)] if r >= 4 * f.h]
            proxies = oscillation_window(f, points, POWER1, window).summary("Lip")
            if last is not None:
                grew = np.sum(proxies >= last - 1e-12)
                assert grew >= 0.95 * len(points)
            last = proxies


def test_criterion_9_brute_force_cover_oracle():
    with criterion(9, "brute-force cover oracle", 60.0):
        universe = list(range(12))  # depth-5 cubes 0..11
        checked = 0
        for size in range(0, 7):
            for cells in combinations(universe, size):
                E = DyadicCubeSet.from_indices(1, 5, [(c,) for c in cells])
                for j in range(1, 6):
                    window = 1 << (5 - j)  # delta = 2^-j in units of 2^-5
                    got = n_delta(E, Fraction(1, 1 << j)) if cells else 0
                    want = brute_min_window_cover(set(cells), window)
                    assert got == want, (cells, j)
                checked += 1
        assert checked >= 2000
