import dataclasses
import json
import math
import re
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liplab import construct as construct_mod
from liplab import funclib, setlib
from liplab.construct import (
    ConstructError,
    _micro_route,
    StageParams,
    StageRecord,
    TypicalBuild,
    build_stage,
    certify_membership,
    choose_stage_params,
    deepest_core_complement,
    exceptional_set,
    iterate_typical,
    load_build,
    plateau_vertex_ranges,
    save_build,
)
from liplab.funclib import HolderModulus, SampledFunction, make_test_function, save_function
from liplab.gauges import make_preset
from liplab.setlib import (
    DyadicCubeSet,
    FormatError,
    IntervalUnion,
    cross_power,
    load_cubes,
    microscopic_verify,
    n_delta,
)
from oracles import (
    FractionIntervalUnion,
    TupleCubeSet,
    build_stage_whole_grid,
    fraction_core,
    fraction_cube,
    fraction_plateau_range,
    fraction_slab,
    grid_lipschitz_whole,
    resample_linspace,
    stage_values_whole_grid,
    subset_raster,
)

POWER1 = make_preset("power", s=1)
PHI = make_preset("power", s=0.25)
INV_LOG = make_preset("inv_log")


def _piece(p: StageParams, kind: str, i: int) -> tuple[Fraction, Fraction]:
    """Piece i of a stage as a Fraction pair, from StageParams.pieces."""
    lo, hi = p.pieces(kind, i)
    return Fraction(lo, p.layout_den), Fraction(hi, p.layout_den)


def small_affine_build(n_max=3, eps0=0.5, phi=PHI, zeta=POWER1):
    f0 = make_test_function("affine", {"c": 1.0}, depth=10)
    return iterate_typical(f0, n_max, phi, zeta, eps0, max_depth=18)


def one_stage(f, p: StageParams) -> tuple[SampledFunction, StageRecord]:
    """Stage 1 on f: its final function, materialized, and its record."""
    build = TypicalBuild(f, [], POWER1, POWER1, 1.0)
    rec = build_stage(build, p)
    return build.final_function(), rec


def on_left_half(f):
    """f restricted to the domain [0, 1/2]: NaN at the vertices beyond it."""
    values = f.values.copy()
    values[(1 << f.depth) // 2 + 1 :] = np.nan
    half = DyadicCubeSet.from_indices(1, 1, [(0,)])
    return SampledFunction(1, f.depth, half, values, f.modulus, f.exact)


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
        choose_stage_params(f0, 1, 0.5, flat)


def test_stage_identities_exact():
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


def test_eta_consequence_exact_counts():
    f0 = make_test_function("affine", {"c": 1.0}, depth=10)
    for n in (1, 2, 4):
        p = choose_stage_params(f0, n, 0.4, POWER1)
        E = p.slab_union()
        count = n_delta(E, p.eta)
        assert count <= p.k + 1
        assert count * p.zeta_at_eta < 1.0 / n


def test_slab_and_core_geometry():
    p = StageParams(1, 0.5, Fraction(1), 2, Fraction(1, 8), 0.125)
    p.validate()
    assert p.layout_den == 64
    assert p.pieces("slab", 0) == (0, 4) and p.pieces("slab", 1) == (28, 36)
    assert p.pieces("core", 0) == (4, 28)
    assert FractionIntervalUnion.of(p.slab_union()).intervals[:2] == (
        (Fraction(0), Fraction(1, 16)), (Fraction(7, 16), Fraction(9, 16))
    )
    assert _piece(p, "core", 0) == (Fraction(1, 16), Fraction(7, 16))


# ---------------------------------------------------------------------------
# build_stage


def test_build_stage_affine_staircase():
    f0 = make_test_function("affine", {"c": 1.0}, depth=6)
    p = StageParams(1, 0.5, Fraction(1), 2, Fraction(1, 8), 0.125)
    g, rec = one_stage(f0, p)
    # plateau values are f at the center anchors 1/4 and 3/4
    assert list(g.values[rec.lo_v]) == pytest.approx([0.25, 0.75])
    # diameters over both cubes are exactly zero
    cert_vals = g.values
    for j, (lo, hi) in enumerate(zip(rec.lo_v, rec.hi_v)):
        window = cert_vals[lo : hi + 1]
        assert float(np.max(window) - np.min(window)) == 0.0
    assert np.max(np.abs(g.values - f0.values)) <= 0.5


def test_build_stage_constant_identity():
    f0 = make_test_function("constant", {"value": 0.25}, depth=6)
    p = StageParams(1, 0.5, Fraction(1), 2, Fraction(1, 8), 0.125)
    g, rec = one_stage(f0, p)
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


@settings(max_examples=100, deadline=None)
@given(_stage_on_grid())
def test_cores_end_at_slab_edges(stage):
    # the slabs and the cores tile [0,1], so the complement of the cores is
    # exactly the slab union
    p, _, _ = stage
    assert p.pieces("slab", 0)[0] == 0 and p.pieces("slab", p.k)[1] == p.layout_den
    for j in range(p.k):
        assert p.pieces("core", j) == (p.pieces("slab", j)[1], p.pieces("slab", j + 1)[0])


@settings(max_examples=100, deadline=None)
@given(_stage_on_grid(), st.sampled_from([0, 64]))
def test_slab_and_cube_unions_match_fraction_pairs(stage, finer):
    # a finer eta takes 2k * den past 2^62, onto Python-int numerators
    p = dataclasses.replace(stage[0], eta=stage[0].eta / 2**finer)
    slabs = FractionIntervalUnion.from_pairs(fraction_slab(p.k, p.eta, m) for m in range(p.k + 1))
    assert FractionIntervalUnion.of(p.slab_union()) == slabs
    half = p.beta / (2 * p.k)  # the shrunken cube beta*K_j around (2j+1)/(2k)
    cubes = [(Fraction(2 * j + 1, 2 * p.k) - half, Fraction(2 * j + 1, 2 * p.k) + half)
             for j in range(p.k)]
    assert list(FractionIntervalUnion.of(p.cube_union()).intervals) == cubes
    assert cubes == [fraction_cube(p.k, p.eta, j) for j in range(p.k)]
    assert [_piece(p, "core", j) for j in range(p.k)] == [fraction_core(p.k, p.eta, j) for j in range(p.k)]


@st.composite
def _stage_with_kept(draw):
    """A StageRecord with random (k, eta), eta < 1/k any rational or a deep
    dyadic (numerators past 2^62), and a random kept subset of the cubes."""
    k = draw(st.integers(1, 40))
    if draw(st.booleans()):
        num = draw(st.integers(1, 50))
        eta = Fraction(num, num * k + draw(st.integers(1, 10**12)))
    else:
        eta = Fraction(1, 1 << draw(st.integers(k.bit_length() + 1, 90)))
    p = StageParams(1, 0.5, Fraction(1), k, eta, 0.0)
    kept = sorted(draw(st.sets(st.integers(0, k - 1))))
    none = np.zeros(0, dtype=np.int64)
    return StageRecord(p, 0, none, none, np.array(kept, dtype=np.int64), 1.0, 1.0, "")


def _probes(p, j):
    """Exact ends of core j, cube j and slabs j and j + 1, m/k, (j + 1/2)/k,
    0 and 1, each as a Fraction and as the float nearest it and its two
    float neighbours."""
    m = min(j + 1, p.k)
    exact = [Fraction(0), Fraction(1), Fraction(m, p.k), Fraction(2 * j + 1, 2 * p.k),
             *fraction_core(p.k, p.eta, j), *fraction_cube(p.k, p.eta, j),
             *fraction_slab(p.k, p.eta, j), *fraction_slab(p.k, p.eta, m)]
    for x in exact:
        f = float(x)
        yield from (x, f, math.nextafter(f, -math.inf), math.nextafter(f, math.inf))


def _first_holding(pieces: dict, x):
    return next((i for i, (a, b) in pieces.items() if a <= x <= b), None)


def _slab_holding(p: StageParams, x):
    """The first slab m whose closed piece, from StageParams.pieces, holds x."""
    scaled = Fraction(x) * p.layout_den
    return next((m for m in range(p.k + 1)
                 if p.pieces("slab", m)[0] <= scaled <= p.pieces("slab", m)[1]), None)


@settings(max_examples=200, deadline=None)
@given(_stage_with_kept(), st.data())
def test_covering_core_and_slab_index_match_fraction_oracle(rec, data):
    p = rec.params
    cores = {j: fraction_core(p.k, p.eta, j) for j in rec.kept.tolist()}
    slabs = {m: fraction_slab(p.k, p.eta, m) for m in range(p.k + 1)}
    for j in {0, p.k - 1, data.draw(st.integers(0, p.k - 1))}:
        for x in _probes(p, j):
            assert rec.covering_core(x) == _first_holding(cores, x), x
            assert _slab_holding(p, x) == _first_holding(slabs, x), x


@settings(max_examples=50, deadline=None)
@given(_stage_on_grid())
def test_plateau_vertex_ranges_reject_off_grid_eta(stage):
    p, e, m = stage
    if m == 1:
        assert p.required_depth() >= e + 2
    with pytest.raises(ConstructError, match=f"stage {p.n}"):
        plateau_vertex_ranges(p, e + 1, np.arange(p.k))


def test_build_stage_partial_domain_drops_cubes():
    f0 = on_left_half(make_test_function("affine", {"c": 1.0}, depth=8))
    p = StageParams(1, 0.5, Fraction(1, 4), 5, Fraction(1, 8), 0.125)
    g, rec = one_stage(f0, p)
    assert rec.kept.tolist() == [0, 1, 2]  # cubes 3 and 4 miss the domain
    assert np.array_equal(p.kept_cubes(f0.domain), rec.kept)
    assert rec.lo_v.tolist() == [8, 59, 110]
    assert rec.hi_v.tolist() == [44, 95, 146]
    # each plateau carries f0 at its anchor vertex, bitwise, on its domain vertices
    for lo, hi, anchor in zip(rec.lo_v, rec.hi_v, [26, 77, 128]):
        assert g.values[anchor] == f0.values[anchor]
        window = g.values[lo : hi + 1]
        assert np.array_equal(window[~np.isnan(window)], np.full(min(hi, 128) - lo + 1,
                                                                  f0.values[anchor]))


def test_partial_domain_build_certifies_and_round_trips(tmp_path):
    # stage 3 refines the half-domain function past its base depth
    f0 = on_left_half(make_test_function("affine", {"c": 1.0}, depth=10))
    build = iterate_typical(f0, 3, PHI, POWER1, 0.5, max_depth=18)
    assert build.n_stages == 3 and build.early_stop is None
    final = build.final_function()
    assert final.depth > f0.depth and final.domain == f0.domain
    in_domain = ~np.isnan(f0.resample(final.depth).values)
    assert not np.isnan(final.values[in_domain]).any()
    # plateaus stop at the domain: every vertex off Omega stays NaN
    assert np.isnan(final.values[~in_domain]).all()
    for n in (1, 2, 3):
        cert = certify_membership(build, n)
        assert cert.membership_margin > 0.0 and cert.lip_margin > 0.0
        assert cert.diam_max_measured <= cert.bound
    analysis = exceptional_set(build)
    for n, value in enumerate(analysis.tail_premeasures, start=1):
        assert value < 1.0 / n
    assert analysis.containment_ok
    assert analysis.F_intervals == deepest_core_complement(build)
    # F lies in Omega = [0, 1/2]; a reloaded build certifies the same set
    assert analysis.F_intervals.subset_of(IntervalUnion.from_pairs([(0, Fraction(1, 2))]))
    save_build(tmp_path / "b", build)
    again = exceptional_set(load_build(tmp_path / "b"))
    assert again.F_intervals == analysis.F_intervals
    assert again.E_intervals == analysis.E_intervals


def _assert_same_record(a: StageRecord, b: StageRecord) -> None:
    for field in dataclasses.fields(StageRecord):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and np.array_equal(x, y), field.name
        else:
            assert x == y, field.name


def _refined_copy(f: SampledFunction, depth: int) -> SampledFunction:
    """f on the depth grid, refined in one np.interp pass."""
    return SampledFunction(1, depth, f.domain, resample_linspace(f.values, depth), f.modulus,
                           f.exact)


def test_build_stage_refines_a_shallower_grid():
    # the stage needs depth 7; a depth-3 f is read through its refinement
    f0 = make_test_function("affine", {"c": 1.0}, depth=3)
    p = StageParams(1, 0.5, Fraction(1), 2, Fraction(1, 32), 1 / 32)
    assert p.required_depth() == 7
    g, rec = one_stage(f0, p)
    g_ref, rec_ref = one_stage(_refined_copy(f0, 7), p)
    assert g.depth == rec.depth == 7 and f0.depth == 3
    assert g.values.tobytes() == g_ref.values.tobytes() and g.modulus == g_ref.modulus
    _assert_same_record(rec, rec_ref)


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 40), st.integers(0, 2), st.integers(0, 3),
       st.sampled_from([0.05, 0.5, 2.0]), st.sampled_from([1, 5, 64]),
       st.integers(0, 2**32 - 1), st.booleans())
def test_build_stage_on_a_shallower_f_matches_the_refined_copy(k, e_extra, finer, eps, block,
                                                               seed, partial):
    # f is `finer` levels below the stage depth, the required depth of
    # eta = 2^-e < 1/k; on Omega = [0, 1/2] its vertices past 1/2 are NaN,
    # so the plateaus there take the fallback anchor
    e = k.bit_length() + e_extra
    p = StageParams(1, eps, Fraction(1), k, Fraction(1, 1 << e), 0.0)
    depth = p.required_depth()
    rng = np.random.default_rng(seed)
    values = rng.normal(0.0, 0.3, (1 << (depth - finer)) + 1)
    domain = DyadicCubeSet.full(1, 0)
    if partial:
        domain = DyadicCubeSet(1, 1, [0])
        values[values.size // 2 + 1 :] = np.nan
    f = SampledFunction(1, depth - finer, domain, values, HolderModulus(1.0), True)

    def outcome(fn):
        try:
            return one_stage(fn, p)
        except ConstructError as err:
            return str(err)

    with mock.patch.object(construct_mod, "GRID_BLOCK", block), \
            mock.patch.object(funclib, "GRID_BLOCK", block):
        got, expected = outcome(f), outcome(_refined_copy(f, depth))
    if isinstance(expected, str):
        assert got == expected
        return
    (g, rec), (g_ref, rec_ref) = got, expected
    assert g.depth == depth and g.values.tobytes() == g_ref.values.tobytes()
    assert g.modulus == g_ref.modulus
    _assert_same_record(rec, rec_ref)


def test_build_stage_refines_without_a_refined_copy():
    # a depth-18 stage from a depth-16 f holds blocks: neither a refined
    # copy of f nor its output grid, one of which is 2 MB
    f = make_test_function("affine", {"c": 1.0}, depth=16)
    p = StageParams(1, 0.5, Fraction(1), 2, Fraction(1, 1 << 16), 0.0)
    assert p.required_depth() == 18
    build = TypicalBuild(f, [], PHI, POWER1, 1.0)
    tracemalloc.start()
    try:
        rec = build_stage(build, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    grid = 8 * ((1 << 18) + 1)
    assert rec.depth == build.depth == 18
    assert peak <= grid / 4, peak / grid


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 40), st.sampled_from([1, 3, 5, 7]), st.integers(0, 3), st.integers(0, 2),
       st.sampled_from([0.05, 0.5, 2.0]), st.sampled_from([1, 5, 64, 1 << 16]),
       st.integers(0, 2**32 - 1), st.booleans())
def test_build_stage_blocks_match_whole_grid_oracle(k, m, e_extra, extra, eps, block, seed,
                                                     with_nan):
    # eta = m/2^e < 1/k; the plateau edges lie on the grid from depth e + 2 on
    e = (k * m).bit_length() + e_extra
    p = StageParams(1, eps, Fraction(1), k, Fraction(m, 1 << e), 0.0)
    depth = max(p.required_depth(), e + 2) + extra
    rng = np.random.default_rng(seed)
    values = rng.normal(0.0, 0.3, (1 << depth) + 1)
    if with_nan:
        values[rng.random(values.size) < 0.05] = np.nan
    f = SampledFunction(1, depth, DyadicCubeSet.full(1, 0), values, HolderModulus(1.0), True)
    lo, hi, anchors = plateau_vertex_ranges(p, depth, np.arange(k))
    expected, worst = stage_values_whole_grid(values, lo, hi, anchors, eps)
    with mock.patch.object(construct_mod, "GRID_BLOCK", block), \
            mock.patch.object(funclib, "GRID_BLOCK", block):
        if worst > eps:
            with pytest.raises(ConstructError, match=re.escape(f"plateau offset {worst:g} ")):
                one_stage(f, p)
            return
        g, _ = one_stage(f, p)
    assert g.values.tobytes() == expected.tobytes()
    assert g.modulus == HolderModulus(grid_lipschitz_whole(expected, g.h), 1.0)


@st.composite
def _stage_chains(draw):
    """(base, params of 1-3 stages, GRID_BLOCK): random base values at a
    depth that may lie below the stages' own, on [0, 1] or on [0, 1/2]
    with NaN past 1/2, and stages of eta = 2^-e < 1/k, as
    choose_stage_params picks them."""
    partial = draw(st.booleans())
    depth = draw(st.integers(1 if partial else 0, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.normal(0.0, 0.3, (1 << depth) + 1)
    domain = DyadicCubeSet.full(1, 0)
    if partial:
        domain = DyadicCubeSet(1, 1, [0])
        values[values.size // 2 + 1 :] = np.nan
    base = SampledFunction(1, depth, domain, values, HolderModulus(1.0), True)
    params = []
    for n in range(1, draw(st.sampled_from([3, 2, 1])) + 1):
        k = draw(st.integers(2, 24))
        e = k.bit_length() + draw(st.integers(0, 2))
        eps = draw(st.sampled_from([2.0, 2.0, 0.5, 0.05]))
        params.append(StageParams(n, eps, Fraction(1), k, Fraction(1, 1 << e), 0.0))
    return base, params, draw(st.sampled_from([1, 7, 64, 1 << 12]))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_stage_chains())
def test_streamed_stage_chain_matches_whole_grid_stages(chain):
    # each stage of the chain, built by build_stage (one pass per stage) and
    # replayed by add_stage and one pass for all (load_build's route),
    # against the whole-grid stages applied in turn: every stage's digest,
    # depth and lip, the final values and modulus, and sup_distance, bit for
    # bit; a plateau offset above eps fails at the same stage either way
    base, params, block = chain
    values, depth, digests, lips, failure = base.values, base.depth, [], [], None
    for p in params:
        try:
            values, depth, digest, lip = build_stage_whole_grid(
                values, depth, p, p.kept_cubes(base.domain), p.eps)
        except ValueError as err:
            failure = str(err)
            break
        digests.append(digest)
        lips.append(lip)
    with mock.patch.object(construct_mod, "GRID_BLOCK", block), \
            mock.patch.object(funclib, "GRID_BLOCK", block):
        built = TypicalBuild(base, [], POWER1, POWER1, 1.0)
        for p in params[: len(digests)]:
            build_stage(built, p)
        if failure is not None:
            with pytest.raises(ConstructError, match=re.escape(failure)):
                build_stage(built, params[len(digests)])
            return
        replayed = TypicalBuild(base, [], POWER1, POWER1, 1.0)
        for p in params:
            replayed.add_stage(p)
        offsets = replayed._settle(range(1, len(params) + 1))
        final = built.final_function()
    assert all(offsets[p.n] <= p.eps for p in params)
    assert [rec.values_blake2b for rec in built.stages] == digests
    assert [rec.lip for rec in built.stages] == lips
    assert built.stages[-1].depth == depth and final.depth == depth
    assert final.values.tobytes() == values.tobytes()
    assert final.modulus == HolderModulus(lips[-1], 1.0) == built.modulus
    for a, b in zip(replayed.stages, built.stages):
        _assert_same_record(a, b)
    assert built.sup_distance == replayed.sup_distance == float(np.nanmax(
        np.abs(resample_linspace(base.values, depth) - values), initial=0.0))


def test_streamed_build_and_report_hold_less_than_one_final_grid(tmp_path, monkeypatch):
    # stage 2 refines the depth-10 stage 1 to depth 18.  construct's path
    # (iterate_typical, save_build, the certificates) and report's
    # (load_build, the certificates) each trace less than one final grid,
    # (2^18 + 1) * 8 bytes, and neither materializes the final function;
    # the stages once held two such grids
    f0 = make_test_function("affine", {"c": 1.0}, depth=10)
    phi, zeta = make_preset("power", s=0.1), make_preset("power", s=0.6)
    monkeypatch.setattr(TypicalBuild, "final_function", lambda build: pytest.fail("materialized"))

    def traced_peak(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def certify(build):
        analysis = exceptional_set(build)
        assert analysis.containment_ok and build.budget_failure is None
        return [certify_membership(build, n) for n in (1, 2)]

    def construct():
        build = iterate_typical(f0, 2, phi, zeta, 0.5, max_depth=24)
        assert [rec.depth for rec in build.stages] == [10, 18]
        save_build(tmp_path / "b", build)
        certify(build)

    grid = 8 * ((1 << 18) + 1)
    peak = traced_peak(construct)
    assert peak < grid, peak / grid
    peak = traced_peak(lambda: certify(load_build(tmp_path / "b")))
    assert peak < grid, peak / grid


def test_sup_distance_leaves_the_build_untouched():
    # the refined blocks of the base are the scratch space, at equal depths
    # too, so the base is not written into
    depths = []
    for f0, n_max in ((make_test_function("constant", {"value": 0.5}, depth=8), 1),
                      (make_test_function("affine", {"c": 1.0}, depth=10), 3)):
        pristine = f0.values.copy()
        build = iterate_typical(f0, n_max, PHI, POWER1, 0.5, max_depth=18)
        depths.append((build.base.depth, build.depth))
        expected = np.abs(resample_linspace(pristine, build.depth) - build.final_function().values)
        assert build.sup_distance == float(np.nanmax(expected))
        assert np.array_equal(build.base.values, pristine)
    assert depths == [(8, 8), (10, 16)]


def test_2d_core_complement_in_cross_power():
    depth = 6
    p = StageParams(1, 0.9, Fraction(1), 2, Fraction(1, 8), 0.125)
    E = p.slab_union()
    cross = cross_power(DyadicCubeSet.from_interval_union(E, depth), 2)
    core_1d = IntervalUnion(p.layout_den, *p.pieces("core", np.arange(p.k)))
    # condition (a) at cube level: complement of the cores sits in E^(cross 2)
    rng = np.random.default_rng(2)
    pts = rng.random((2000, 2))
    in_cross = cross.contains(pts)
    for pt, hit in zip(pts, in_cross):
        in_core = core_1d.contains(pt[0]) and core_1d.contains(pt[1])
        if not in_core:
            assert hit
    # and exhaustively, cube-wise at the working depth
    inside = {c[0] for c in subset_raster(core_1d, depth)}
    cubes = TupleCubeSet.of(cross).cubes
    for i0 in range(1 << depth):
        for i1 in range(1 << depth):
            if i0 in inside and i1 in inside:
                continue
            assert (i0, i1) in cubes


def test_build_rejects_dimension_2(tmp_path):
    depth = 6
    xs = np.linspace(0.0, 1.0, (1 << depth) + 1)
    f0 = SampledFunction(
        2, depth, DyadicCubeSet.full(2, 0), xs[:, None] + 0.5 * xs[None, :],
        make_test_function("affine", {"c": 1.5}, depth=2).modulus, exact=True,
    )
    p = StageParams(1, 0.9, Fraction(1), 2, Fraction(1, 8), 0.125)
    with pytest.raises(ConstructError, match="dimension 1, not 2"):
        build_stage(TypicalBuild(f0, [], POWER1, POWER1, 1.0), p)
    with pytest.raises(ConstructError, match="dimension 1, not 2"):
        iterate_typical(f0, 2, PHI, POWER1, 0.5)
    # a build directory whose base.fn is 2-d is refused on load
    save_build(tmp_path / "b", small_affine_build(n_max=1))
    save_function(tmp_path / "b" / "base.fn", f0)
    with pytest.raises(FormatError, match="base.fn has dimension 2, not 1"):
        load_build(tmp_path / "b")


REPLAY_MISMATCH = r"stages.json stage 1: the stage replayed from base.fn has values_blake2b"


def test_load_build_needs_one_domain(tmp_path):
    # sup_distance skips each vertex where either function is NaN, so a
    # base.fn on [0, 1/2] alone would bound the distance on half of Omega;
    # replayed from it, stage 1 is not the stored one
    full = small_affine_build(n_max=1)
    save_build(tmp_path / "full", full)
    save_function(tmp_path / "full" / "base.fn", on_left_half(full.base))
    with pytest.raises(FormatError, match=REPLAY_MISMATCH):
        load_build(tmp_path / "full")
    # a build on [0, 1/2] loads, and refuses a base.fn on all of [0, 1]
    half = iterate_typical(on_left_half(full.base), 1, PHI, POWER1, 0.5)
    save_build(tmp_path / "half", half)
    assert load_build(tmp_path / "half").domain == half.base.domain
    save_function(tmp_path / "half" / "base.fn", full.base)
    with pytest.raises(FormatError, match=REPLAY_MISMATCH):
        load_build(tmp_path / "half")


# ---------------------------------------------------------------------------
# iterate_typical


def test_iterate_affine_three_stages():
    build = small_affine_build()
    assert build.n_stages == 3 and build.early_stop is None
    assert build.sup_distance <= sum(build.eps_schedule) + 1e-12
    for n in (1, 2, 3):
        assert 2.0 * build.tail(n) < build.stages[n - 1].slack_min


def test_iterate_constant_base_is_fixed_point():
    f0 = make_test_function("constant", {"value": 0.5}, depth=8)
    build = iterate_typical(f0, 3, PHI, POWER1, 0.5, max_depth=20)
    final = build.base.resample(build.depth)
    assert np.array_equal(build.final_function().values, final.values)
    for n in (1, 2, 3):
        assert certify_membership(build, n).diam_max_measured == 0.0


def test_iterate_single_stage_lip_zero_at_centers():
    build = small_affine_build(n_max=1)
    rec = build.stages[0]
    from liplab.funclib import oscillation

    j = int(rec.kept[len(rec.kept) // 2])
    a, b = fraction_core(rec.params.k, rec.params.eta, j)
    x = float((a + b) / 2)
    assert oscillation(build.final_function(), [x], float(rec.params.cert_radius)).upper[0] == 0.0


def test_iterate_spec_example_budget_cascade():
    # phi = power(1) with eps0 = 0.1 drives k into the millions by stage 3;
    # the build must stop early with the completed prefix rather than blow up
    f0 = make_test_function("affine", {"c": 1.0}, depth=10)
    build = iterate_typical(f0, 3, POWER1, POWER1, 0.1, max_depth=24)
    assert build.n_stages >= 2
    if build.n_stages < 3:
        assert build.early_stop is not None
    for n in range(1, build.n_stages + 1):
        cert = certify_membership(build, n)
        assert cert.membership_margin > 0.0 and cert.lip_margin > 0.0


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
        rec = build.stages[n - 1]
        assert cert.n == n
        assert cert.bound < rec.membership_slack and cert.bound < rec.lip_slack
        assert cert.membership_margin > 0.0 and cert.lip_margin > 0.0
        assert rec.params.cert_radius == rec.params.eta / 4
        assert cert.diam_max_measured <= cert.bound + 1e-300


def test_certify_membership_constant_margin_value():
    f0 = make_test_function("constant", {"value": 0.5}, depth=8)
    build = iterate_typical(f0, 1, PHI, POWER1, 0.5)
    cert = certify_membership(build, 1)
    rec = build.stages[0]
    eta = rec.params.eta
    assert rec.membership_slack == pytest.approx(PHI.eval(float(eta / 2)), rel=1e-12)
    assert rec.lip_slack == pytest.approx(PHI.eval(float(eta / 4)), rel=1e-12)
    assert cert.membership_margin == pytest.approx(rec.membership_slack, rel=1e-12)  # T_1 = 0
    assert cert.lip_margin == rec.lip_slack


def test_iterate_budget_keeps_every_stage_open():
    # a later budget capped only by a quarter of the smallest earlier slack
    # let 2*T_2 reach stage 2's slack here; halving every stage's remaining
    # headroom keeps each strict inequality
    f0 = make_test_function("constant", {"value": 0.5}, depth=10)
    build = iterate_typical(f0, 5, make_preset("power", s=0.1), POWER1, 1.0)
    assert build.n_stages == 5 and build.early_stop is None
    for n in range(1, 6):
        assert 2.0 * build.tail(n) < build.stages[n - 1].slack_min


def test_certify_membership_detects_tampering():
    build = small_affine_build()
    rec = build.stages[2]
    # fake a huge later perturbation
    build.stages[2] = dataclasses.replace(rec, params=dataclasses.replace(rec.params, eps=10.0))
    with pytest.raises(ConstructError) as err:
        certify_membership(build, 1)
    # both inequalities fail, each named with its two sides
    membership, lip = str(err.value).split("; ")
    assert membership.startswith("stage 1: membership inequality 2*T_n < (1/n) phi(eta/2) fails: ")
    assert lip.startswith("lip inequality 2*T_n < (1/n) phi(eta/4) fails: ")
    assert float(membership.split()[-3]) == pytest.approx(2.0 * build.tail(1), rel=1e-5)


def test_certify_membership_names_a_lip_only_failure():
    # 2*T_1 between the lip threshold (1/n) phi(eta/4) and the membership
    # threshold (1/n) phi(eta/2) fails the lip inequality alone
    build = small_affine_build()
    rec = build.stages[0]
    eps = (rec.lip_slack + rec.membership_slack) / 4 - build.stages[1].params.eps
    build.stages[2] = dataclasses.replace(
        build.stages[2], params=dataclasses.replace(build.stages[2].params, eps=eps)
    )
    assert rec.lip_slack <= 2.0 * build.tail(1) < rec.membership_slack
    with pytest.raises(ConstructError) as err:
        certify_membership(build, 1)
    assert str(err.value).startswith("stage 1: lip inequality 2*T_n < (1/n) phi(eta/4) fails: ")
    assert "membership" not in str(err.value)


def test_stage_certificate_covers_core_midpoints_not_grid_points():
    build = small_affine_build()
    for n in (1, 2, 3):
        rec = build.stages[n - 1]
        p = rec.params
        cert = certify_membership(build, n)
        assert p.cert_radius == p.eta / 4
        assert cert.bound < rec.lip_slack and cert.lip_margin > 0.0
        j = int(rec.kept[0])
        a, b = fraction_core(p.k, p.eta, j)
        assert rec.covering_core(float((a + b) / 2)) == j
        assert _slab_holding(p, float((a + b) / 2)) is None
        # a grid point x = m/k sits inside the exceptional slab
        assert rec.covering_core(float(Fraction(1, p.k))) is None
        assert _slab_holding(p, float(Fraction(1, p.k))) == 1


def test_certified_bound_dominates_sampled_osc():
    from liplab.funclib import oscillation

    build = small_affine_build()
    final = build.final_function()
    for n in (1, 2, 3):
        rec = build.stages[n - 1]
        p = rec.params
        j = int(rec.kept[len(rec.kept) // 3])
        a, b = fraction_core(p.k, p.eta, j)
        x = float((a + b) / 2)
        assert rec.covering_core(x) == j
        cert = certify_membership(build, n)
        measured = oscillation(final, [x], float(p.cert_radius)).upper[0]
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
    field = lip_field(build.final_function(), POWER1, 2.0, build.depth - 2, radii)
    frac = len(field.over_tau) / len(field.window.points)
    assert frac <= float((p.k + 1) * p.eta) + 0.05
    # covered core centers classify as approximately zero
    slabs = rec.params.slab_union()
    for point, cls in zip(field.window.points.tolist(), field.classes):
        if cls == "over":
            # an over-threshold sample cube must meet the slab region
            h = 2.0 ** -(build.depth - 2)
            assert any(slabs.contains(point[0] + s) for s in (-h / 2, 0.0, h / 2))


# ---------------------------------------------------------------------------
# Exceptional set


def test_exceptional_set_one_stage():
    f0 = make_test_function("constant", {"value": 0.5}, depth=8)
    build = iterate_typical(f0, 1, PHI, POWER1, 0.5)
    analysis = exceptional_set(build)
    p = build.stages[0].params
    assert len(analysis.E_intervals) == p.k + 1
    count = n_delta(analysis.E_intervals, p.eta)
    assert count == p.k + 1
    assert count * p.zeta_at_eta < 1.0
    assert analysis.containment_ok


def test_exceptional_set_three_stages(tmp_path):
    build = small_affine_build()
    analysis = exceptional_set(build)
    # each tail is the exact intersection of the slab sets of stages n..N:
    # its premeasure is the least N_eta(tail) * zeta(eta) over the etas of
    # those stages at most 1/n
    slabs = [rec.params.slab_union() for rec in build.stages]
    for n in (1, 2, 3):
        tail = slabs[n - 1]
        for later in slabs[n:]:
            tail = tail.intersect(later)
        etas = [rec.params.eta for rec in build.stages[n - 1 :] if rec.params.eta <= Fraction(1, n)]
        want = min(n_delta(tail, float(eta)) * build.zeta.eval(float(eta)) for eta in etas)
        assert analysis.tail_premeasures[n - 1] == want < 1.0 / n
    assert analysis.E_intervals == tail
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
    assert analysis.F_intervals == deepest_core_complement(build)
    # the E.set and F.set rasters written with the build keep the containment
    save_build(tmp_path / "b", build)
    E, F = load_cubes(tmp_path / "b" / "E.set"), load_cubes(tmp_path / "b" / "F.set")
    assert F.depth == E.depth and TupleCubeSet.of(F).cubes <= TupleCubeSet.of(E).cubes


def _assert_micro_budgets(cover, beta):
    """Diameters nonincreasing, and box n's exact diameter below e^(-beta n)."""
    diams = [Fraction(int(d), cover.den) for d in cover.diameters().tolist()]
    assert diams == sorted(diams, reverse=True)
    for n, diam in enumerate(diams, start=1):
        assert diam < math.exp(-beta * n)


def test_exceptional_set_micro_route_inv_log():
    f0 = make_test_function("constant", {"value": 0.5}, depth=8)
    build = iterate_typical(f0, 3, PHI, INV_LOG, 0.5, max_depth=24)
    analysis = exceptional_set(build)
    assert analysis.micro_cover is not None
    assert analysis.micro_verified
    _assert_micro_budgets(analysis.micro_cover, analysis.micro_beta)
    # certificate region contains F_approx (cross power in d=1 is the set)
    cert_iu = analysis.micro_cover.interval_union()
    assert analysis.F_intervals.subset_of(cert_iu)


def test_micro_route_covers_E_exactly():
    # E's endpoints here are not floats, so a cover from rounded endpoints
    # misses E; the micro cover is E's components, exact
    f0 = make_test_function("affine", {"c": 1.0}, depth=10)
    build = iterate_typical(f0, 1, make_preset("power", s=0.1), INV_LOG, 1.0)
    analysis = exceptional_set(build)
    assert analysis.micro_cover.interval_union() == analysis.E_intervals
    assert analysis.micro_verified
    _assert_micro_budgets(analysis.micro_cover, analysis.micro_beta)


def test_micro_route_checks_coverage_once(monkeypatch):
    # the route sums the gauge itself; microscopic_verify makes the one check
    checks = []
    check_cover = setlib._check_cover

    def counted(E, cover):
        checks.append(len(cover))
        return check_cover(E, cover)

    monkeypatch.setattr(setlib, "_check_cover", counted)
    f0 = make_test_function("affine", {"c": 1.0}, depth=10)
    build = iterate_typical(f0, 1, make_preset("power", s=0.1), INV_LOG, 1.0)
    checks.clear()
    assert exceptional_set(build).micro_verified
    assert len(checks) == 1


def test_micro_route_sorts_longest_first_ties_in_order():
    # five components at x = n/10, of lengths 2^-20, 2^-30, 2^-20, 2^-25, 2^-30
    exps = [20, 30, 20, 25, 30]
    E = IntervalUnion.from_pairs(
        (Fraction(n, 10), Fraction(n, 10) + Fraction(1, 2**e)) for n, e in enumerate(exps, start=1)
    )
    cover, total, beta = _micro_route(E, INV_LOG)
    starts = [Fraction(int(x), cover.den) for x in cover.lo[:, 0].tolist()]
    assert starts == [Fraction(n, 10) for n in (1, 3, 4, 2, 5)]
    assert total == pytest.approx(sum(1.0 / (e * math.log(2)) for e in exps), rel=1e-12)
    assert beta == 1.0 / (2.0 * total)
    _assert_micro_budgets(cover, beta)
    assert microscopic_verify(cover, math.exp(-beta), E) is None


def test_micro_route_harmonic_example_verifies():
    # components of length e^(-10n), n = 1..10: zeta = 1/(10n), a harmonic sum
    pairs = []
    for n in range(1, 11):
        x = Fraction(n, 20)
        # exact endpoints: in float, x + e^(-10n) would absorb the tiny width
        pairs.append((x, x + Fraction(math.exp(-10 * n))))
    E = IntervalUnion.from_pairs(pairs)
    cover, total, beta = _micro_route(E, INV_LOG)
    assert total == pytest.approx(sum(1.0 / (10 * n) for n in range(1, 11)), rel=1e-12)
    assert cover.interval_union() == E
    _assert_micro_budgets(cover, beta)
    assert microscopic_verify(cover, math.exp(-beta), E) is None


def test_micro_route_empty_sum_and_beta_cap():
    # points only: the sum is 0 and beta is 1
    points = IntervalUnion.from_pairs([(Fraction(1, 3),) * 2, (Fraction(1, 2),) * 2])
    cover, total, beta = _micro_route(points, INV_LOG)
    assert (total, beta, len(cover)) == (0.0, 1.0, 2)
    assert microscopic_verify(cover, math.exp(-beta), points) is None
    # 2000 points beside one interval: beta is capped at 600/N, which keeps
    # the last budget e^(-beta N) = e^-600 positive
    pairs = [(Fraction(k, 4096),) * 2 for k in range(1, 2001)]
    E = IntervalUnion.from_pairs(pairs + [(Fraction(1, 2), Fraction(1, 2) + Fraction(1, 2**40))])
    cover, total, beta = _micro_route(E, INV_LOG)
    assert 1.0 / (2.0 * total) > 600.0 / 2001 and beta == 600.0 / 2001
    assert cover.lo[0, 0] == cover.den // 2  # the interval comes first
    assert microscopic_verify(cover, math.exp(-beta), E) is None


# ---------------------------------------------------------------------------
# Build directory round trip


def test_build_save_load_round_trip(tmp_path):
    build = small_affine_build()
    save_build(tmp_path / "b", build)
    back = load_build(tmp_path / "b")
    stages = json.loads((tmp_path / "b" / "stages.json").read_text())
    for item in stages:
        assert list(item) == ["n", "k", "eta", "delta", "depth", "values_blake2b"]
    assert back.n_stages == build.n_stages
    assert back.eps_schedule == pytest.approx(build.eps_schedule)
    assert back.eps_schedule == build.eps_schedule
    for a, b in zip(back.stages, build.stages):
        assert a.params.zeta_at_eta == b.params.zeta_at_eta
        assert a.membership_slack == b.membership_slack
        assert a.lip_slack == b.lip_slack
        assert np.array_equal(a.kept, b.kept) and a.kept.tolist() == list(range(a.params.k))
    assert np.array_equal(back.final_function().values, build.final_function().values)
    for a, b in zip(back.stages, build.stages):
        assert a.params == b.params
        assert np.array_equal(a.lo_v, b.lo_v) and np.array_equal(a.hi_v, b.hi_v)
        assert a.slack_min == pytest.approx(b.slack_min)
    for n in (1, 2, 3):
        orig = certify_membership(build, n)
        again = certify_membership(back, n)
        assert orig.bound == pytest.approx(again.bound)
        assert orig.membership_margin == pytest.approx(again.membership_margin)
        assert orig.lip_margin == pytest.approx(again.lip_margin)


@pytest.fixture(scope="module")
def replay_builds():
    """construct's builds whose replay must match bit for bit: the three
    acceptance builds, a build on Omega = cube 0 at depth 1, the CI inv_log
    build and a build stopped early at stage 4 (its grid past max_depth)."""
    from test_acceptance import acceptance_builds

    affine = make_test_function("affine", {"c": 1.0}, depth=10)
    phi = make_preset("power", s=0.1)
    return {
        **acceptance_builds(),
        "partial": iterate_typical(on_left_half(affine), 3, PHI, POWER1, 0.5, max_depth=18),
        "inv_log": iterate_typical(affine, 1, phi, INV_LOG, 1.0),
        "early": iterate_typical(affine, 4, phi, POWER1, 1.0, max_depth=18),
    }


def _assert_bitwise(a: SampledFunction, b: SampledFunction) -> None:
    assert (a.dim, a.depth, a.exact, a.domain) == (b.dim, b.depth, b.exact, b.domain)
    assert a.modulus == b.modulus and a.modulus.serialize() == b.modulus.serialize()
    assert a.values.dtype == b.values.dtype and a.values.tobytes() == b.values.tobytes()


@pytest.mark.parametrize("name", ["constant", "affine", "weierstrass", "partial", "inv_log",
                                  "early"])
def test_load_build_replays_construct_bitwise(tmp_path, replay_builds, name):
    # the values (NaN bits included), modulus, exact flag and depth of the
    # final function, and every StageRecord field, as construct built them
    build = replay_builds[name]
    assert (build.early_stop is not None) == (name == "early")
    save_build(tmp_path / "b", build)
    (tmp_path / "b" / "final.fn").unlink()  # no build command reads it
    back = load_build(tmp_path / "b")
    _assert_bitwise(back.base, build.base)
    _assert_bitwise(back.final_function(), build.final_function())
    assert back.early_stop == build.early_stop and back.eps_schedule == build.eps_schedule
    assert len(back.stages) == len(build.stages)
    for a, b in zip(back.stages, build.stages):
        _assert_same_record(a, b)
