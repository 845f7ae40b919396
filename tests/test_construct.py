import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liplab.construct import (
    ConstructError,
    StageParams,
    build_stage,
    certify_lip_bound,
    certify_membership,
    choose_stage_params,
    covered_profile,
    exceptional_set,
    iterate_typical,
    load_build,
    plateau_vertex_ranges,
    save_build,
    strip_weights,
)
from liplab.funclib import SampledFunction, make_test_function
from liplab.gauges import make_preset
from liplab.setlib import DyadicCubeSet, IntervalUnion, cross_power, n_delta
from oracles import fraction_plateau_range, loop_strip_weights

POWER1 = make_preset("power", s=1)
PHI = make_preset("power", s=0.25)
INV_LOG = make_preset("inv_log")


def small_affine_build(n_max=3, eps0=0.5, phi=PHI, zeta=POWER1):
    f0 = make_test_function("affine", {"c": 1.0}, depth=10)
    return iterate_typical(f0, n_max, phi, zeta, eps0, max_depth=18)


# ---------------------------------------------------------------------------
# Stage parameters


def test_choose_params_power_zeta_k2():
    # constant base: delta = 1 is admissible, so k = 2 and eta is the largest
    # dyadic with eta < 1/k and zeta(eta) < 1/(n(k+1)) = 1/3, hence 1/4
    f0 = make_test_function("constant", {"value": 0.5}, depth=8)
    p = choose_stage_params(f0, 1, 0.5, POWER1)
    assert p.k == 2
    assert p.eta == Fraction(1, 4)
    assert p.beta == Fraction(3, 4)
    assert p.gamma == Fraction(2, 3)
    assert p.gamma * p.beta == Fraction(1, 2) == 1 - p.k * p.eta
    p.validate()


def test_choose_params_inv_log():
    # Lipschitz-1 base with eps = 0.4: delta = 2^-2, k = 5, and eta needs
    # |ln eta| > n(k+1) = 12
    f0 = make_test_function("affine", {"c": 1.0}, depth=10)
    p = choose_stage_params(f0, 2, 0.4, INV_LOG)
    assert p.delta == Fraction(1, 4)
    assert p.k == 5
    assert p.eta == Fraction(1, 1 << 18)
    assert p.zeta_at_eta * (p.k + 1) < 0.5
    assert p.eta < math.exp(-12)
    p.validate()


def test_choose_params_plateau_zeta_errors():
    flat = make_preset("table", rs=(1e-300, 1.0), gs=(0.5, 0.5))
    f0 = make_test_function("constant", {"value": 0.5}, depth=8)
    with pytest.raises(ConstructError, match="no admissible eta"):
        choose_stage_params(f0, 1, 0.5, flat, eta_scan=40)


def test_stage_identities_exact_and_float():
    bases = [
        make_test_function("constant", {"value": 0.5}, depth=8),
        make_test_function("affine", {"c": 1.0}, depth=10),
    ]
    for zeta in (POWER1, INV_LOG):
        for n in range(1, 11):
            for f0, eps in ((bases[0], 0.5), (bases[1], 0.3), (bases[1], 0.1)):
                p = choose_stage_params(f0, n, eps, zeta)
                assert p.gamma * p.beta == 1 - p.k * p.eta  # exact rationals
                assert p.one_minus_gamma * (p.beta / p.k) == p.eta / 2
                assert p.cert_radius == p.eta / 4
                lhs = p.one_minus_gamma_f * (p.beta_f / p.k)
                rhs = float(p.eta) / 2.0
                assert lhs == pytest.approx(rhs, rel=1e-12)


def test_eta_consequence_exact_counts():
    f0 = make_test_function("affine", {"c": 1.0}, depth=10)
    for n in (1, 2, 4):
        p = choose_stage_params(f0, n, 0.4, POWER1)
        E = p.slab_union()
        count = n_delta(E, p.eta).count
        assert count <= p.k + 1
        assert count * p.zeta_at_eta < 1.0 / n


def test_slab_and_core_geometry():
    p = StageParams(1, 0.5, Fraction(1), 2, Fraction(1, 8), 0.125)
    p.validate()
    assert p.slab(0) == (Fraction(0), Fraction(1, 16))
    assert p.slab(1) == (Fraction(7, 16), Fraction(9, 16))
    assert p.core_interval(0) == (Fraction(1, 16), Fraction(7, 16))
    # complement of the cores within [0,1] is exactly the slab union
    comp = p.core_union().complement_within(0, 1)
    assert comp.intervals == p.slab_union().intervals


# ---------------------------------------------------------------------------
# build_stage


def test_build_stage_affine_staircase():
    f0 = make_test_function("affine", {"c": 1.0}, depth=6)
    p = StageParams(1, 0.5, Fraction(1), 2, Fraction(1, 8), 0.125)
    g, rec = build_stage(f0, p, phi=POWER1)
    # plateau values are f at the center anchors 1/4 and 3/4
    assert list(rec.plateau_values) == pytest.approx([0.25, 0.75])
    # diameters over both cubes are exactly zero
    cert_vals = g.values
    for j, (lo, hi) in enumerate(zip(rec.lo_v, rec.hi_v)):
        window = cert_vals[lo : hi + 1]
        assert float(np.max(window) - np.min(window)) == 0.0
    assert np.max(np.abs(g.values - f0.values)) <= 0.5


def test_build_stage_constant_identity():
    f0 = make_test_function("constant", {"value": 0.25}, depth=6)
    p = StageParams(1, 0.5, Fraction(1), 2, Fraction(1, 8), 0.125)
    g, rec = build_stage(f0, p, phi=POWER1)
    assert np.array_equal(g.values, f0.values)


@st.composite
def _stage_on_grid(draw):
    """(params, e, odd m) with eta = m/2^e < 1/k."""
    k = draw(st.integers(2, 600))
    m = 2 * draw(st.integers(0, 3)) + 1
    e = draw(st.integers((k * m).bit_length(), (k * m).bit_length() + 5))
    return StageParams(1, 0.5, Fraction(1), k, Fraction(m, 1 << e), 0.0), e, m


@settings(max_examples=150, deadline=None)
@given(_stage_on_grid(), st.integers(0, 3))
def test_plateau_vertex_ranges_match_fraction_oracle(stage, extra):
    p, e, _ = stage
    # q = eta*2^depth/4 is an integer from depth e+2 on; for eta = 2^-e that
    # is already the stage's required depth
    depth = max(p.required_depth(), e + 2) + extra
    lo, hi, center = plateau_vertex_ranges(p, depth, np.arange(p.k))
    expected = [fraction_plateau_range(p.k, p.eta, depth, j) for j in range(p.k)]
    assert [tuple(map(int, t)) for t in zip(lo, hi, center)] == expected


@settings(max_examples=50, deadline=None)
@given(_stage_on_grid())
def test_plateau_vertex_ranges_reject_off_grid_eta(stage):
    p, e, m = stage
    if m == 1:
        assert p.required_depth() >= e + 2
    with pytest.raises(ConstructError, match=f"stage {p.n}"):
        plateau_vertex_ranges(p, e + 1, np.arange(p.k))


@settings(max_examples=100, deadline=None)
@given(_stage_on_grid(), st.integers(0, 2))
def test_strip_weights_match_vertex_loop(stage, extra):
    p, e, _ = stage
    depth = max(p.required_depth(), e + 2) + extra
    lo, hi, _ = plateau_vertex_ranges(p, depth, np.arange(p.k))
    strip, weight = strip_weights(lo, hi, 1 << depth)
    expected = loop_strip_weights(lo.tolist(), hi.tolist(), 1 << depth)
    assert (strip.tolist(), weight.tolist()) == expected


def test_build_stage_partial_domain_drops_cubes():
    f0 = make_test_function("affine", {"c": 1.0}, depth=8)
    p = StageParams(1, 0.5, Fraction(1, 4), 5, Fraction(1, 8), 0.125)
    omega = DyadicCubeSet(1, 1, frozenset({(0,)}))
    _, rec = build_stage(f0, p, omega, POWER1)
    assert rec.kept.tolist() == [0, 1, 2]
    assert rec.dropped == (3, 4)
    assert rec.lo_v.tolist() == [8, 59, 110]
    assert rec.hi_v.tolist() == [44, 95, 146]
    assert rec.anchors.tolist() == [26, 77, 128]


def test_build_stage_depth_guard():
    f0 = make_test_function("affine", {"c": 1.0}, depth=3)
    p = StageParams(1, 0.5, Fraction(1), 2, Fraction(1, 32), 1 / 32)
    with pytest.raises(ConstructError, match="depth"):
        build_stage(f0, p, phi=POWER1)


def test_build_stage_2d_plateaus_and_gap_geometry():
    depth = 6
    top = (1 << depth) + 1
    xs = np.linspace(0.0, 1.0, top)
    values = xs[:, None] + 0.5 * xs[None, :]
    f0 = SampledFunction(
        2, depth, DyadicCubeSet.full(2, 0), values,
        make_test_function("affine", {"c": 1.5}, depth=2).modulus, exact=True,
    )
    p = StageParams(1, 0.9, Fraction(1), 2, Fraction(1, 8), 0.125)
    g, rec = build_stage(f0, p, phi=POWER1)
    # four plateau squares, constant on every cell meeting each cube
    E = p.slab_union()
    cross = cross_power(DyadicCubeSet.from_interval_union(E, depth), 2)
    core_1d = p.core_union()
    for j0 in range(2):
        for j1 in range(2):
            a0, b0 = p.cube_interval(j0)
            a1, b1 = p.cube_interval(j1)
            mid = (float((a0 + b0) / 2), float((a1 + b1) / 2))
            center_val = g.evaluate(mid)
            for dx in (-0.3, 0.3):
                probe = (mid[0] + dx * float(b0 - a0), mid[1])
                assert g.evaluate(probe) == pytest.approx(center_val, abs=1e-15)
    # condition (a) at cube level: complement of the cores sits in E^(cross 2)
    rng = np.random.default_rng(2)
    for pt in rng.random((2000, 2)):
        in_core = core_1d.contains(pt[0]) and core_1d.contains(pt[1])
        if not in_core:
            assert cross.contains(tuple(pt))
    # and exhaustively, cube-wise at the working depth
    core_sub = DyadicCubeSet.from_interval_union(core_1d, depth, mode="subset")
    inside = {c[0] for c in core_sub.cubes}
    for i0 in range(1 << depth):
        for i1 in range(1 << depth):
            if i0 in inside and i1 in inside:
                continue
            assert (i0, i1) in cross.cubes


# ---------------------------------------------------------------------------
# iterate_typical


def test_iterate_affine_three_stages():
    build = small_affine_build()
    assert build.n_stages == 3 and build.early_stop is None
    assert build.sup_distance() <= sum(build.eps_schedule) + 1e-12
    for n in (1, 2, 3):
        assert 2.0 * build.tail(n) < build.stages[n - 1].slack_min


def test_iterate_constant_base_is_fixed_point():
    f0 = make_test_function("constant", {"value": 0.5}, depth=8)
    build = iterate_typical(f0, 3, PHI, POWER1, 0.5, max_depth=20)
    final = build.base.resample(build.final.depth)
    assert np.array_equal(build.final.values, final.values)
    for n in (1, 2, 3):
        cert = certify_membership(build, n)
        assert cert.ok and cert.diam_max_measured == 0.0


def test_iterate_single_stage_lip_zero_at_centers():
    build = small_affine_build(n_max=1)
    rec = build.stages[0]
    from liplab.funclib import oscillation

    j = int(rec.kept[len(rec.kept) // 2])
    a, b = rec.params.core_interval(j)
    x = float((a + b) / 2)
    pair = oscillation(build.final, x, float(rec.params.cert_radius))
    assert pair.upper == 0.0


def test_iterate_spec_example_budget_cascade():
    # phi = power(1) with eps0 = 0.1 drives k into the millions by stage 3;
    # the build must stop early with the completed prefix rather than blow up
    f0 = make_test_function("affine", {"c": 1.0}, depth=10)
    build = iterate_typical(f0, 3, POWER1, POWER1, 0.1, max_depth=24, k_max=1 << 21)
    assert build.n_stages >= 2
    if build.n_stages < 3:
        assert build.early_stop is not None
    for n in range(1, build.n_stages + 1):
        assert certify_membership(build, n).ok


def test_iterate_rejects_bad_inputs():
    f0 = make_test_function("affine", {"c": 1.0}, depth=8)
    with pytest.raises(ConstructError):
        iterate_typical(f0, 0, PHI, POWER1, 0.5)
    with pytest.raises(ConstructError):
        iterate_typical(f0, 1, PHI, POWER1, -1.0)


# ---------------------------------------------------------------------------
# Certificates


def test_certify_membership_margins():
    build = small_affine_build()
    for n in (1, 2, 3):
        cert = certify_membership(build, n)
        assert cert.ok
        assert cert.bound < cert.threshold
        assert cert.margin_min > 0.0
        assert cert.diam_max_measured <= cert.bound + 1e-300


def test_certify_membership_constant_margin_value():
    f0 = make_test_function("constant", {"value": 0.5}, depth=8)
    build = iterate_typical(f0, 1, PHI, POWER1, 0.5)
    cert = certify_membership(build, 1)
    eta = build.stages[0].params.eta
    assert cert.threshold == pytest.approx(PHI.eval(float(eta / 2)), rel=1e-12)
    assert cert.margin_min == pytest.approx(cert.threshold, rel=1e-12)  # T_1 = 0


def test_certify_membership_detects_tampering():
    build = small_affine_build()
    build.eps_schedule[2] = 10.0  # fake a huge later perturbation
    with pytest.raises(ConstructError):
        certify_membership(build, 1)


def test_certify_lip_bound_covered_and_not():
    build = small_affine_build()
    for n in (1, 2, 3):
        rec = build.stages[n - 1]
        p = rec.params
        j = int(rec.kept[0])
        a, b = p.core_interval(j)
        cert = certify_lip_bound(build, float((a + b) / 2), n)
        assert cert.covered and cert.cube == j
        assert cert.radius == float(p.eta / 4)
        assert cert.bound < cert.threshold
        assert cert.margin > 0.0
        # a grid point x = m/k sits inside the exceptional slab
        miss = certify_lip_bound(build, float(Fraction(1, p.k)), n)
        assert not miss.covered and miss.slab == 1


def test_certified_bound_dominates_sampled_osc():
    from liplab.funclib import oscillation

    build = small_affine_build()
    for n in (1, 2, 3):
        rec = build.stages[n - 1]
        p = rec.params
        j = int(rec.kept[len(rec.kept) // 3])
        a, b = p.core_interval(j)
        x = float((a + b) / 2)
        cert = certify_lip_bound(build, x, n)
        measured = oscillation(build.final, x, cert.radius).upper
        assert measured <= cert.bound + 1e-300


def test_lip_field_over_tau_fraction_matches_stage_geometry():
    # at tau = 2/n the over-threshold sample points stay inside the slab
    # region, whose measure is (k+1) * eta
    from liplab.funclib import lip_field

    f0 = make_test_function("affine", {"c": 1.0}, depth=10)
    build = iterate_typical(f0, 1, POWER1, POWER1, 1.0, max_depth=16)
    rec = build.stages[0]
    p = rec.params
    r_cert = float(p.cert_radius)
    radii = sorted({r_cert * 2.0**j for j in range(6)}, reverse=True)
    field = lip_field(build.final, POWER1, 2.0, build.final.depth - 2, radii)
    frac = len(field.over_tau) / len(field.points)
    assert frac <= float((p.k + 1) * p.eta) + 0.05
    # covered core centers classify as approximately zero
    slabs = rec.slab_union()
    for point, cls in zip(field.points, field.classes):
        if cls == "over":
            # an over-threshold sample cube must meet the slab region
            h = 2.0 ** -(build.final.depth - 2)
            assert any(slabs.contains(point[0] + s) for s in (-h / 2, 0.0, h / 2))


def test_covered_profile():
    build = small_affine_build()
    rec = build.stages[2]
    a, b = rec.params.core_interval(int(rec.kept[1]))
    prof = covered_profile(build, float((a + b) / 2))
    assert 3 in prof["stages_covered"]
    x_slab = float(Fraction(1, build.stages[0].params.k))
    prof2 = covered_profile(build, x_slab)
    assert isinstance(prof2["covered_often_proxy"], bool)


# ---------------------------------------------------------------------------
# Exceptional set


def test_exceptional_set_one_stage():
    f0 = make_test_function("constant", {"value": 0.5}, depth=8)
    build = iterate_typical(f0, 1, PHI, POWER1, 0.5)
    E, F, analysis = exceptional_set(build)
    p = build.stages[0].params
    assert analysis.tail_component_counts == [p.k + 1]
    count = n_delta(analysis.E_intervals, p.eta).count
    assert count == p.k + 1
    assert count * p.zeta_at_eta < 1.0
    assert analysis.containment_ok


def test_exceptional_set_three_stages():
    build = small_affine_build()
    E, F, analysis = exceptional_set(build)
    assert analysis.exact_tails
    for n, rep in enumerate(analysis.tail_premeasures, start=1):
        assert rep.value < 1.0 / n
    # tails are nested increasing
    t = analysis.tail_component_counts
    assert analysis.containment_ok
    rng = np.random.default_rng(0)
    F_iu = analysis.F_intervals
    hits = 0
    for _ in range(2000):
        x = float(rng.random())
        if F_iu.contains(x):
            hits += 1
            assert analysis.E_intervals.contains(x)
    assert hits > 0
    # the returned cube sets keep the containment
    assert F.issubset(E)


def test_exceptional_set_micro_route_inv_log():
    f0 = make_test_function("constant", {"value": 0.5}, depth=8)
    build = iterate_typical(f0, 3, PHI, INV_LOG, 0.5, max_depth=24)
    E, F, analysis = exceptional_set(build)
    assert analysis.micro is not None
    assert analysis.micro_verified
    assert analysis.micro.eps == pytest.approx(math.exp(-analysis.micro.beta))
    # certificate region contains F_approx (cross power in d=1 is the set)
    cert_iu = analysis.micro.cover.interval_union()
    assert analysis.F_intervals.subset_of(cert_iu)


# ---------------------------------------------------------------------------
# Build directory round trip


def test_build_save_load_round_trip(tmp_path):
    build = small_affine_build()
    save_build(tmp_path / "b", build)
    back = load_build(tmp_path / "b")
    assert back.n_stages == build.n_stages
    assert back.eps_schedule == pytest.approx(build.eps_schedule)
    assert np.array_equal(back.final.values, build.final.values)
    for a, b in zip(back.stages, build.stages):
        assert a.params == b.params
        assert np.array_equal(a.anchors, b.anchors)
        assert np.array_equal(a.lo_v, b.lo_v)
        assert a.slack_min == pytest.approx(b.slack_min)
    for n in (1, 2, 3):
        orig = certify_membership(build, n)
        again = certify_membership(back, n)
        assert orig.bound == pytest.approx(again.bound)
        assert orig.threshold == pytest.approx(again.threshold)
