import math
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liplab.construct import iterate_typical, plateau_extremes
from liplab.funclib import SampledFunction, make_test_function
from liplab.gauges import GaugeDomainError, make_preset
from liplab.partition import (
    _admissible_radius,
    b_image_cubes,
    graph_cross_check,
    image_cover_report,
    split_partition,
    vitali_5r,
)
from liplab.setlib import DyadicCubeSet, IntervalUnion, lower_box_dim
from oracles import (
    FractionIntervalUnion,
    TupleCubeSet,
    fraction_core,
    fraction_plateau_range,
    fraction_raster,
    verify_vitali_quadratic,
    vitali_5r_quadratic,
)

POWER1 = make_preset("power", s=1)
PHI_BUILD = make_preset("power", s=0.25)
PHI_PART = make_preset("power", s=2, scale=0.2)  # (r/5)^2


def affine_build(n_max=3):
    f0 = make_test_function("affine", {"c": 1.0}, depth=10)
    return iterate_typical(f0, n_max, PHI_BUILD, POWER1, 0.5, max_depth=18)


# ---------------------------------------------------------------------------
# Vitali 5r


def test_vitali_three_balls():
    centers, radii = [0.1, 0.12, 0.3], [0.05, 0.04, 0.05]
    cover = vitali_5r(centers, radii)
    assert {centers[i] for i in cover.kept} == {0.1, 0.3}
    assert len(centers) - len(cover.kept) == 1  # one candidate discarded
    # brute force over keep subsets: disjoint families where every candidate
    # intersects a member of at least its radius (the 5r-coverage witness)
    def meets(i, j):
        return abs(centers[i] - centers[j]) <= radii[i] + radii[j]

    def valid(subset):
        for a, b in combinations(subset, 2):
            if meets(a, b):
                return False
        for c in range(3):
            if not any(radii[k] >= radii[c] and meets(c, k) for k in subset):
                return False
        return True

    sizes = [
        len(sub)
        for r in range(1, 4)
        for sub in combinations(range(3), r)
        if valid(sub)
    ]
    assert min(sizes) == len(cover.kept)


def test_vitali_single_and_ties():
    single = vitali_5r([0.5], [0.1])
    assert len(single.kept) == 1
    twins = vitali_5r([0.5, 0.5], [0.1, 0.1])
    assert len(twins.kept) == 1 and len(twins.witnesses) == 2


def test_vitali_random_properties():
    rng = np.random.default_rng(4)
    centers, radii = rng.random(60), rng.uniform(0.002, 0.05, 60)
    cover = vitali_5r(centers, radii)  # verify() runs internally
    for a, b in combinations(cover.kept, 2):
        assert abs(centers[a] - centers[b]) > radii[a] + radii[b]
    delta = 0.05
    total = sum((2.0 * radii[i]) ** 1 for i in cover.kept)
    assert total <= (1.0 + 2.0 * delta) ** 1


def test_vitali_rejects_nonpositive_radius():
    with pytest.raises(ValueError):
        vitali_5r([0.5], [0.0])
    with pytest.raises(ValueError, match="dimension 1"):
        vitali_5r([[0.5, 0.5]], [0.1])


# dyadic centers and radii, as image_cover_report produces: every float
# predicate of the pass is then exact
_DYADIC_BALLS = st.lists(
    st.tuples(st.integers(0, 1 << 10).map(lambda k: k / 2**10), st.integers(3, 10).map(lambda j: 2.0**-j)),
    max_size=60,
)


@settings(max_examples=300, deadline=None)
@given(_DYADIC_BALLS)
def test_vitali_sweep_matches_quadratic_oracle(balls):
    centers, radii = [x for x, _ in balls], [r for _, r in balls]
    cover = vitali_5r(centers, radii)
    kept, count, discarded = vitali_5r_quadratic(centers, radii)
    assert (cover.kept, len(centers), len(centers) - len(cover.kept)) == (kept, count, discarded)
    verify_vitali_quadratic(cover.kept, centers, radii)


@pytest.mark.parametrize(
    "centers, radii, expected",
    [
        # two balls that touch: distance 0.25 + 0.125 meets, so one is kept
        ([0.25, 0.625], [0.25, 0.125], (0,)),
        ([0.625, 0.25], [0.125, 0.25], (1,)),
        # equal centers and radii: the first in candidate order is kept
        ([0.5, 0.5, 0.5], [0.125, 0.125, 0.125], (0,)),
        # equal radii spaced exactly 2r apart: each meets its neighbours, so
        # every second ball is kept
        ([k / 8 for k in range(7)], [1 / 16] * 7, (0, 2, 4, 6)),
        ([k / 8 for k in reversed(range(7))], [1 / 16] * 7, (6, 4, 2, 0)),
        # the small ball at 0.4375 misses its left center-neighbour (0.125)
        # and touches only its right one (0.625), also with a kept ball of
        # its own radius on its left
        ([0.125, 0.625, 0.4375], [0.125, 0.125, 0.0625], (0, 1)),
        ([0.125, 0.625, 0.46875, 0.3125], [0.125, 0.125, 1 / 32, 1 / 32], (0, 1, 3)),
    ],
)
def test_vitali_edge_cases_match_quadratic_oracle(centers, radii, expected):
    cover = vitali_5r(centers, radii)
    assert cover.kept == expected
    kept, count, discarded = vitali_5r_quadratic(centers, radii)
    assert (cover.kept, len(centers), len(centers) - len(cover.kept)) == (kept, count, discarded)
    verify_vitali_quadratic(cover.kept, centers, radii)
    # every witness is a kept ball that meets its candidate with a radius at least its own
    for i, w in enumerate(cover.witnesses):
        k = cover.kept[w]
        assert abs(centers[i] - centers[k]) <= radii[i] + radii[k] and radii[k] >= radii[i]


def test_vitali_verify_rejects_tampered_covers():
    candidates = ([0.2, 0.36, 0.48], [0.1, 0.08, 0.05])
    cover = vitali_5r(*candidates)
    assert cover.kept == (0, 2)
    assert cover.witnesses == (0, 0, 1)
    # a dropped kept ball leaves itself without a witness
    dropped = replace(cover, kept=cover.kept[:1], witnesses=(0, 0, 0))
    with pytest.raises(ValueError, match="escapes"):
        dropped.verify(*candidates)
    with pytest.raises(ValueError, match="escapes"):
        replace(cover, kept=cover.kept[:1]).verify(*candidates)
    # the ball at 0.48 meets the one at 0.36 and its 5r expansion covers it,
    # but its radius is smaller, so it is no Vitali witness
    with pytest.raises(ValueError, match="escapes"):
        replace(cover, witnesses=(0, 1, 1)).verify(*candidates)
    with pytest.raises(ValueError, match="one witness per candidate"):
        replace(cover, witnesses=(0, 0)).verify(*candidates)
    overlapping = replace(cover, kept=(0, 1), witnesses=(0, 1, 1))
    with pytest.raises(ValueError, match="disjoint"):
        overlapping.verify(*candidates)


# ---------------------------------------------------------------------------
# split_partition


def test_split_is_exact_partition():
    build = affine_build(1)
    A, B = split_partition(build)
    omega = DyadicCubeSet.full(1, A.depth)
    a, b = TupleCubeSet.of(A).cubes, TupleCubeSet.of(B).cubes
    assert a | b == TupleCubeSet.of(omega).cubes
    assert not (a & b)
    rng = np.random.default_rng(1)
    hits = 0
    xs = rng.random(2000)
    for in_a, in_b in zip(A.contains(xs), B.contains(xs)):
        assert in_a or in_b
        if in_a != in_b:
            hits += 1
    assert hits >= 1990  # only cube-boundary points land in both


@pytest.mark.parametrize("kept", [list(range(8)), [1], [0, 2], [0, 1, 6]])
def test_split_matches_tuple_reference(kept):
    # on Omega = the kept eighths of [0,1]: A = raster of F within Omega,
    # B = the rest of Omega, as frozensets of index tuples; on the partial
    # domains the raster of F reaches one cube past Omega
    f = make_test_function("affine", {"c": 1.0}, depth=10)
    on = np.zeros(f.values.shape, dtype=bool)
    for q in kept:
        on[q * 128 : (q + 1) * 128 + 1] = True
    domain = DyadicCubeSet(1, 3, kept)
    f = SampledFunction(1, f.depth, domain, np.where(on, f.values, np.nan), f.modulus, f.exact)
    build = iterate_typical(f, 2, PHI_BUILD, POWER1, 0.5, max_depth=18)
    A, B = split_partition(build)
    # F, the deepest slab union within Omega, built whole here
    F = build.stages[-1].params.slab_union().intersect(domain.to_interval_union())
    raster = fraction_raster(FractionIntervalUnion.of(F).intervals, A.depth, "overlap")
    omega = TupleCubeSet.of(domain).refine(A.depth).cubes
    assert TupleCubeSet.of(A).cubes == raster & omega
    assert TupleCubeSet.of(B).cubes == omega - raster
    assert len(A) and len(B) and (len(kept) == 8) == (raster <= omega)


def test_split_b_is_plateau_cores():
    build = affine_build(1)
    A, B = split_partition(build)
    p = build.stages[-1].params
    cores = IntervalUnion.from_pairs(fraction_core(p.k, p.eta, j) for j in range(p.k))
    for idx in TupleCubeSet.of(B).cubes:
        h = Fraction(1, 1 << B.depth)
        assert cores.contains(idx[0] * h) and cores.contains((idx[0] + 1) * h)


# ---------------------------------------------------------------------------
# image_cover_report


def test_image_cover_constant_function():
    f0 = make_test_function("constant", {"value": 0.5}, depth=8)
    build = iterate_typical(f0, 2, PHI_BUILD, POWER1, 0.5)
    A, B = split_partition(build)
    rep = image_cover_report(build.final_function(), B, PHI_PART, POWER1, 0.01)
    assert rep["sum"] == 0.0
    assert rep["bound"] == pytest.approx(0.01 * 1.02 / 2.0)
    assert rep["verdict"]
    assert not rep["uncovered_points"]
    for link in rep["chain_audit"]:
        assert link["xi_diam"] <= link["xi_phi_5r"] <= link["r_pow_d1"] * (1 + 1e-12)


def test_image_cover_ladder_affine():
    build = affine_build()
    _, B = split_partition(build)
    totals = []
    for delta in (0.1, 0.01, 0.001):
        rep = image_cover_report(build.final_function(), B, PHI_PART, POWER1, delta)
        assert rep["verdict"]
        assert rep["sum"] <= delta * (1 + 2 * delta) / 2.0
        assert not rep["uncovered_points"]
        totals.append(rep["sum"])
    assert all(a >= b for a, b in zip(totals, totals[1:]))


def test_image_cover_requires_schizm():
    build = affine_build(1)
    _, B = split_partition(build)
    with pytest.raises(ValueError, match="xi"):
        image_cover_report(build.final_function(), B, POWER1, POWER1, 0.01)


def test_image_cover_report_json_fields():
    build = affine_build(1)
    _, B = split_partition(build)
    payload = image_cover_report(build.final_function(), B, PHI_PART, POWER1, 0.1)
    assert sorted(payload) == ["alpha_d", "balls", "bound", "candidates", "chain_audit",
                               "delta", "discarded", "gauge_phi", "gauge_xi", "norm", "sum",
                               "uncovered_points", "verdict"]
    assert payload["norm"] == "max" and payload["alpha_d"] == 2.0
    assert payload["sum"] <= payload["bound"]
    assert len(payload["balls"]) == len(payload["chain_audit"])
    assert payload["discarded"] == payload["candidates"] - len(payload["balls"])
    assert payload["candidates"] == len(B)  # one ball per cube center


def test_image_cover_needs_each_cube_in_its_own_ball_or_flat():
    # depth-2 cubes have half side 1/8, and every admissible radius lies
    # below delta = 0.01: each ball covers its center but not its cube, and
    # the final function varies on cubes 1 and 2, so the verdict fails
    build = affine_build(1)
    B = DyadicCubeSet(1, 2, [1, 2])
    rep = image_cover_report(build.final_function(), B, PHI_PART, POWER1, 0.01)
    assert rep["candidates"] == 2 and max(ball["r"] for ball in rep["balls"]) < 0.01
    assert rep["sum"] <= rep["bound"] and rep["uncovered_points"] == [[0.375], [0.625]]
    assert rep["verdict"] is False
    # on affine_build's B (depth 14) the cubes next to A get radii below half
    # the side, 2^-15, but the final function is constant on every B cube
    build = affine_build()
    _, B = split_partition(build)
    rep = image_cover_report(build.final_function(), B, PHI_PART, POWER1, 0.01)
    assert min(ball["r"] for ball in rep["balls"]) < 2.0**-15 and B.depth == 14
    assert rep["candidates"] == len(B) and not rep["uncovered_points"] and rep["verdict"]


def test_image_cover_leaves_a_center_without_float_ball_ends_uncovered():
    # the center 0.875 finds no admissible ball before its ends 0.875 -+ 5r
    # stop being floats, near r = 2^-52: it stays at r = 0 and is reported
    # uncovered, where the scan once raised oscillation's ValueError
    build = affine_build(1)
    rep = image_cover_report(build.final_function(), DyadicCubeSet(1, 2, [3]), PHI_PART, POWER1,
                             0.01)
    assert rep["balls"] == [] and rep["uncovered_points"] == [[0.875]]
    assert rep["candidates"] == 0 and rep["verdict"] is False


# ---------------------------------------------------------------------------
# graph cross check


def test_graph_cross_check_passes():
    build = affine_build()
    A, B = split_partition(build)
    b_image_cubes(build)  # the final function is flat on every deepest plateau
    assert len(B) > 0 and graph_cross_check(build, B) is None


def _plateau_oracle(build, B: DyadicCubeSet) -> list[int]:
    """The B cubes whose closed cube lies in no deepest kept plateau, from
    fraction_plateau_range per kept cube, in Fractions."""
    rec = build.stages[-1]
    p = rec.params
    ranges = [fraction_plateau_range(p.k, p.eta, rec.depth, j)[:2] for j in rec.kept.tolist()]
    h, g = Fraction(1, 1 << B.depth), Fraction(1, 1 << rec.depth)
    return [b for b in B.keys.tolist()
            if not any(lo * g <= b * h and (b + 1) * h <= hi * g for lo, hi in ranges)]


def test_graph_cross_check_names_a_b_cube_off_every_plateau():
    build = affine_build(2)
    A, B = split_partition(build)
    assert _plateau_oracle(build, B) == []
    # cube 0 starts at 0, before plateau 0, which begins eta/4 into [0,1]
    assert 0 in A.keys
    with_zero = DyadicCubeSet(1, B.depth, np.union1d(B.keys, [0]))
    assert len(with_zero) == len(B) + 1 and graph_cross_check(build, with_zero) == 0
    # every A cube added: the first one the oracle finds off every plateau is named
    both = DyadicCubeSet(1, B.depth, np.union1d(B.keys, A.keys))
    off = _plateau_oracle(build, both)
    assert off and graph_cross_check(build, both) == off[0]
    # a B cube on a coarser grid than the stage's, straddling two plateaus
    coarse = DyadicCubeSet(1, 1, [0])
    assert graph_cross_check(build, coarse) == 0 == _plateau_oracle(build, coarse)[0]


def test_partition_dimension_echo():
    build = affine_build()
    A, _ = split_partition(build)
    B_img = b_image_cubes(build)
    scales = [2.0**-j for j in range(1, 11)]
    lb_A = lower_box_dim(A, scales)
    lb_B = lower_box_dim(B_img, scales)
    assert 0.0 <= lb_A["lbdim_proxy"] <= 1.0
    assert lb_B["lbdim_proxy"] <= 0.75  # finitely many plateau values


def test_admissible_radius_skips_only_gauge_domain_errors():
    f = make_test_function("constant", {"value": 0.5}, depth=10)

    class Truncated:  # (r/5)^2, defined only up to 2^-4
        def eval(self, r):
            if r > 2.0**-4:
                raise GaugeDomainError(f"r={r} outside (0, 2^-4]")
            return (r / 5.0) ** 2

    class Faulty:
        def eval(self, r):
            raise ZeroDivisionError("fault inside the gauge")

    # radii whose 5r leaves the gauge's domain are skipped, the first inside wins
    assert _admissible_radius(f, 0.5, Truncated(), 0.1) == (2.0**-7, 0.0)
    with pytest.raises(ZeroDivisionError):
        _admissible_radius(f, 0.5, Faulty(), 0.1)
