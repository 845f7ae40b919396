import math
import os
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest

from liplab.gauges import Pseudogauge, make_preset
from liplab.setlib import (
    _atomic_write,
    BoxCover,
    CoverRecord,
    CoverageError,
    DyadicCubeSet,
    IntervalUnion,
    cantor_intervals,
    cantor_natural_cover,
    cross_power,
    cross_power_contains,
    cross_product,
    hausdorff_upper,
    load_cover,
    load_cubes,
    lower_box_dim,
    lower_box_premeasure,
    micro_from_hzeta,
    microscopic_certificate,
    microscopic_verify,
    n_delta,
    points_union,
    product_lemma_check,
    save_cover,
    save_cubes,
)
from oracles import brute_micro_assignment, brute_min_window_cover

LN2_LN3 = math.log(2) / math.log(3)


# ---------------------------------------------------------------------------
# IntervalUnion basics


def test_interval_union_merges_touching():
    iu = IntervalUnion.from_pairs([(0, Fraction(1, 2)), (Fraction(1, 2), 1)])
    assert iu.intervals == ((Fraction(0), Fraction(1)),)


def test_interval_union_ops():
    a = IntervalUnion.from_pairs([(0, Fraction(1, 4)), (Fraction(1, 2), 1)])
    b = IntervalUnion.from_pairs([(Fraction(1, 8), Fraction(3, 4))])
    inter = a.intersect(b)
    assert inter.intervals == (
        (Fraction(1, 8), Fraction(1, 4)),
        (Fraction(1, 2), Fraction(3, 4)),
    )
    comp = a.complement_within(0, 1)
    assert comp.intervals == ((Fraction(1, 4), Fraction(1, 2)),)
    assert a.union(comp).intervals == ((Fraction(0), Fraction(1)),)
    assert inter.subset_of(a) and inter.subset_of(b)
    assert not a.subset_of(b)
    assert a.contains(0.25) and not a.contains(0.3)


def test_uncovered_witness():
    a = IntervalUnion.from_pairs([(0, 1)])
    b = IntervalUnion.from_pairs([(0, Fraction(1, 3)), (Fraction(2, 3), 1)])
    w = a.uncovered_by(b)
    assert w is not None and Fraction(1, 3) < w < Fraction(2, 3)
    assert b.uncovered_by(a) is None


# ---------------------------------------------------------------------------
# DyadicCubeSet


def test_refine_coarsen_round_trip():
    E = DyadicCubeSet.from_indices(2, 3, [(0, 1), (5, 7), (3, 3)])
    assert E.refine(5).coarsen(3) == E


def test_contains_closed_boundaries():
    E = DyadicCubeSet.from_indices(1, 2, [(1,)])  # [1/4, 1/2]
    assert E.contains((0.25,)) and E.contains((0.5,)) and E.contains((0.3,))
    assert not E.contains((0.24,)) and not E.contains((0.51,))


def test_rasterization_modes():
    iu = IntervalUnion.from_pairs([(Fraction(3, 16), Fraction(5, 16))])
    overlap = DyadicCubeSet.from_interval_union(iu, 2)
    assert overlap.cubes == frozenset({(0,), (1,)})
    subset = DyadicCubeSet.from_interval_union(iu, 4, mode="subset")
    assert subset.cubes == frozenset({(3,), (4,)})


# ---------------------------------------------------------------------------
# n_delta


def test_n_delta_full_interval():
    E = DyadicCubeSet.full(1, 8)
    res = n_delta(E, Fraction(1, 4))
    assert res.count == 4 and res.mode == "exact-1d"
    # brute-force window oracle on the cell representation
    assert brute_min_window_cover(set(range(8)), 2) == 4  # depth-3 cells, window 1/4


def test_n_delta_cantor_depth2():
    E = cantor_intervals(2)
    assert n_delta(E, Fraction(1, 9)).count == 4
    # oracle in units of 1/9: occupied cells {0,2,6,8}, window 1 cell
    assert brute_min_window_cover({0, 2, 6, 8}, 1) == 4


def test_n_delta_empty_and_points():
    assert n_delta(IntervalUnion.empty(), Fraction(1, 4)).count == 0
    pts = points_union([Fraction(1, 10), Fraction(2, 10), Fraction(9, 10)])
    assert n_delta(pts, Fraction(1, 10)).count == 2
    assert n_delta(pts, Fraction(1, 100)).count == 3


def test_n_delta_cantor_exact_all_scales():
    E = cantor_intervals(8)
    for k in range(1, 9):
        assert n_delta(E, Fraction(1, 3**k)).count == 2**k


def test_n_delta_antitone_and_monotone():
    rng = np.random.default_rng(0)
    for _ in range(20):
        cubes = rng.choice(32, size=rng.integers(1, 8), replace=False)
        E = DyadicCubeSet.from_indices(1, 5, [(int(c),) for c in cubes])
        F = DyadicCubeSet.from_indices(
            1, 5, [(int(c),) for c in cubes] + [(int(rng.integers(0, 32)),)]
        )
        deltas = [Fraction(1, 2**j) for j in range(1, 6)]
        counts = [n_delta(E, d).count for d in deltas]
        assert all(a <= b for a, b in zip(counts, counts[1:]))  # antitone in delta
        for d in deltas:
            assert n_delta(E, d).count <= n_delta(F, d).count
        scales = [Fraction(1, 2**j) for j in range(1, 7)]
        assert (
            lower_box_dim(E, scales).lbdim_proxy
            <= lower_box_dim(F, scales).lbdim_proxy + 1e-12
        )


def test_n_delta_grid_proxy_2d():
    E = DyadicCubeSet.full(2, 3)
    res = n_delta(E, Fraction(1, 4))
    assert res.mode == "grid-proxy"
    assert res.count == 16


# ---------------------------------------------------------------------------
# Premeasure and dimension


def test_premeasure_single_point():
    E = points_union([0.0])
    zeta = make_preset("power", s=1)
    rep = lower_box_premeasure(E, zeta, math.inf, [Fraction(1, 2**j) for j in range(1, 11)])
    assert rep.value == pytest.approx(2.0**-10)
    assert all(n == 1 for _, n, _, _ in rep.entries)


def test_premeasure_unit_interval():
    E = IntervalUnion.from_pairs([(0, 1)])
    zeta = make_preset("power", s=1)
    rep = lower_box_premeasure(E, zeta, math.inf, [Fraction(1, 2**j) for j in range(1, 11)])
    assert rep.value == pytest.approx(1.0)
    for _, n, _, p in rep.entries:
        assert 1.0 <= p <= 2.0


def test_premeasure_cantor_exact_product():
    E = cantor_intervals(8)
    zeta = make_preset("power", s=LN2_LN3)
    rep = lower_box_premeasure(E, zeta, math.inf, [Fraction(1, 3**k) for k in range(1, 9)])
    for _, n, z, p in rep.entries:
        assert p == pytest.approx(1.0, rel=1e-12)
    assert rep.value == pytest.approx(1.0, rel=1e-12)


def test_lower_box_dim_cantor():
    rep = lower_box_dim(cantor_intervals(12), [Fraction(1, 3**k) for k in range(1, 13)])
    assert rep.lbdim_proxy == pytest.approx(LN2_LN3, abs=1e-12)
    assert rep.slope == pytest.approx(LN2_LN3, abs=1e-9)


def test_lower_box_dim_square_and_empty():
    rep = lower_box_dim(DyadicCubeSet.full(2, 8), [Fraction(1, 2**k) for k in range(1, 9)])
    assert rep.lbdim_proxy == pytest.approx(2.0, abs=1e-12)
    empty = lower_box_dim(
        DyadicCubeSet.empty(1, 4), [Fraction(1, 2**k) for k in range(1, 9)]
    )
    assert empty.empty and empty.lbdim_proxy == 0.0


def test_lower_box_dim_finite_set():
    pts = points_union([0.11, 0.23, 0.47, 0.71, 0.89])
    rep = lower_box_dim(pts, [Fraction(1, 2**k) for k in range(1, 25)])
    assert rep.lbdim_proxy <= 0.1
    assert abs(rep.slope) <= 0.1


# ---------------------------------------------------------------------------
# Hausdorff upper bounds


def test_hausdorff_cantor_sums_are_one():
    g = make_preset("power", s=LN2_LN3)
    for k in range(1, 13):
        rec = hausdorff_upper(cantor_intervals(k), g, cantor_natural_cover(k))
        assert abs(rec.total - 1.0) <= 1e-12


def test_hausdorff_point_auto_cover():
    g = make_preset("power", s=2)
    for m in (4, 8):
        E = DyadicCubeSet.from_points(1, m, [(0.5,)])
        rec = hausdorff_upper(E, g)
        assert rec.total == pytest.approx((2.0**-m) ** 2, rel=1e-12)


def test_hausdorff_unit_interval_power2():
    g = make_preset("power", s=2)
    for k in (2, 6, 10):
        rec = hausdorff_upper(DyadicCubeSet.full(1, k), g)
        assert rec.total == pytest.approx(2.0**-k, rel=1e-12)


def test_hausdorff_cover_must_cover():
    g = make_preset("power", s=1)
    with pytest.raises(CoverageError) as err:
        hausdorff_upper(cantor_intervals(2), g, cantor_natural_cover(3))
    assert 0.0 <= err.value.witness <= 1.0


def test_cover_record_sum_validation():
    cover = cantor_natural_cover(3)
    good = CoverRecord.build(cover, make_preset("power", s=1))
    with pytest.raises(ValueError):
        CoverRecord(cover, good.gauge, good.total * 2.0, good.delta)


# ---------------------------------------------------------------------------
# Cross products


def test_cross_power_slabs():
    E = DyadicCubeSet.from_points(1, 4, [(0.5,)])
    X = cross_power(E, 2)
    assert X.contains((0.5, 0.9)) and X.contains((0.9, 0.5))
    assert not X.contains((0.9, 0.9))
    top = 16
    assert len(X) == top**2 - (top - len(E)) ** 2


def test_cross_power_empty_identity():
    E = DyadicCubeSet.empty(1, 3)
    assert cross_power(E, 3).is_empty
    F = DyadicCubeSet.from_indices(1, 3, [(2,)])
    assert cross_power(F, 1) == F


def test_cross_power_matches_brute_force():
    rng = np.random.default_rng(1)
    cubes = [(int(c),) for c in rng.choice(64, size=11, replace=False)]
    E = DyadicCubeSet.from_indices(1, 6, cubes)
    X = cross_power(E, 2)
    pts = rng.random((10_000, 2))
    for p in pts:
        want = E.contains((p[0],)) or E.contains((p[1],))
        assert X.contains(tuple(p)) == want
        assert cross_power_contains(E, p) == want


def test_cross_product_union_rule():
    E = DyadicCubeSet.from_indices(1, 1, [(0,)])
    F = DyadicCubeSet.from_indices(1, 1, [(1,)])
    X = cross_product(E, F)
    assert X.dim == 2
    assert X.cubes == frozenset({(0, 0), (0, 1), (1, 1)})
    # operands at unequal depth auto-refine to the deeper grid
    F2 = DyadicCubeSet.from_indices(1, 2, [(2,), (3,)])  # same point set as F
    X2 = cross_product(E, F2)
    assert X2.depth == 2
    assert X2 == X.refine(2)


def test_cross_power_overflow_guard():
    E = DyadicCubeSet.full(1, 8)
    with pytest.raises(ValueError):
        cross_power(E, 4, max_cubes=1000)


# ---------------------------------------------------------------------------
# Product lemma


def test_product_lemma_single_point():
    psi = make_preset("power", s=1)
    rep = product_lemma_check(
        [points_union([0.0])], psi, 1, [Fraction(1, 2**j) for j in range(1, 9)]
    )
    assert rep.ok
    for r, count, right, left, good in rep.entries:
        assert count == 1 and good
        assert left <= right * (1.0 + r) * (1 + 1e-12)


def test_product_lemma_unit_interval():
    psi = make_preset("power", s=2)
    scales = [Fraction(1, 2**j) for j in range(1, 9)]
    rep = product_lemma_check([IntervalUnion.from_pairs([(0, 1)])], psi, 1, scales)
    assert rep.ok
    for r, count, right, left, good in rep.entries:
        # zeta(r) = (r sqrt2)^2 / r = 2r and N_r = ceil(1/r) on the dyadic grid
        assert right == pytest.approx(2.0 * r * math.ceil(1.0 / r), rel=1e-12)
        assert 2.0 <= right <= 2.0 * (1.0 + r) + 1e-12


def test_product_lemma_m0_degenerates():
    psi = make_preset("power", s=1)
    rep = product_lemma_check(
        [points_union([0.25])], psi, 0, [Fraction(1, 2**j) for j in range(1, 9)]
    )
    for _, count, right, left, good in rep.entries:
        assert left == pytest.approx(right, rel=1e-12) and good


def test_product_lemma_rejects_bad_chain():
    psi = make_preset("power", s=1)
    chain = [IntervalUnion.from_pairs([(0, Fraction(1, 2))]), points_union([0.9])]
    with pytest.raises(ValueError):
        product_lemma_check(chain, psi, 1, [Fraction(1, 2), Fraction(1, 4)])


# ---------------------------------------------------------------------------
# Microscopic certificates


def test_micro_three_points():
    E = points_union([0.2, 0.5, 0.8])
    cert = microscopic_certificate(E, 0.1, 10)
    assert cert.ok
    sides = sorted((float(b[0][1] - b[0][0]) for b in cert.cover.boxes), reverse=True)
    assert sides == pytest.approx([0.1, 0.01, 0.001], rel=1e-9)
    assert microscopic_verify(cert.cover, 0.1, E).ok


def test_micro_slab_single_box():
    slab = DyadicCubeSet.from_indices(2, 6, [(0, j) for j in range(64)])
    cert = microscopic_certificate(slab, 0.1, 5)
    assert cert.ok and len(cert.cover) == 1
    assert float(cert.cover.volume(0)) <= 0.1
    assert microscopic_verify(cert.cover, 0.1, slab).ok


def test_micro_stage_slabs():
    # k+1 intervals of width eta with eta <= eps^(k+1)
    k, eps = 4, 0.2
    eta = Fraction(1, 4096)  # 2^-12 < 0.2^5 = 3.2e-4
    E = IntervalUnion.from_pairs(
        (Fraction(m, k) - eta / 2, Fraction(m, k) + eta / 2) for m in range(1, k)
    )
    cert = microscopic_certificate(E, eps, k + 1)
    assert cert.ok
    assert microscopic_verify(cert.cover, eps, E).ok


def test_micro_greedy_matches_brute_force():
    rng = np.random.default_rng(3)
    for _ in range(40):
        n_comp = int(rng.integers(1, 5))
        lo = np.sort(rng.random(n_comp))
        widths = rng.random(n_comp) * 0.04
        pairs = []
        cursor = 0.0
        for a, w in zip(lo, widths):
            start = max(cursor + 0.01, a)
            pairs.append((start, start + w))
            cursor = start + w
        pairs = [(a, min(b, 2.0)) for a, b in pairs]
        E = IntervalUnion.from_pairs(pairs)
        eps = float(rng.uniform(0.05, 0.5))
        n_max = int(rng.integers(1, 8))
        cert = microscopic_certificate(E, eps, n_max)
        vols = [float(b - a) for a, b in E.intervals]
        assert cert.ok == brute_micro_assignment(vols, eps, n_max)


def test_micro_verify_failures():
    E = points_union([0.2, 0.8])
    eps = 0.1
    bad = BoxCover.from_intervals([(0.15, 0.25), (0.8 - eps**1.5 / 2, 0.8 + eps**1.5 / 2)])
    res = microscopic_verify(bad, eps, E)
    assert not res.ok and res.bad_index == 2
    missing = BoxCover.from_intervals([(0.15, 0.25)])
    res2 = microscopic_verify(missing, eps, E)
    assert not res2.ok and res2.uncovered is not None


def test_micro_failure_reports_component():
    E = IntervalUnion.from_pairs([(0, Fraction(1, 2))])
    cert = microscopic_certificate(E, 0.1, 10)
    assert not cert.ok and "volume" in cert.failure


def test_micro_from_hzeta_harmonic():
    inv = make_preset("inv_log")
    pairs = []
    for n in range(1, 11):
        x = Fraction(n, 20)
        # exact endpoints: in float, x + e^(-10n) would absorb the tiny width
        pairs.append((x, x + Fraction(math.exp(-10 * n))))
    record = CoverRecord.build(BoxCover.from_intervals(pairs), inv)
    assert record.total == pytest.approx(sum(1.0 / (10 * n) for n in range(1, 11)), rel=1e-12)
    with pytest.raises(ValueError):
        micro_from_hzeta(record, 9.0)  # 0.2929 >= 1/9
    out = micro_from_hzeta(record, 3.0)
    for n, diam, bound in out.guarantees:
        assert diam < bound == pytest.approx(math.exp(-3.0 * n), rel=1e-12)
    E = IntervalUnion.from_pairs(pairs)
    assert microscopic_verify(out.cover, out.eps, E).ok


def test_micro_from_hzeta_single_and_plateau():
    inv = make_preset("inv_log")
    single = CoverRecord.build(
        BoxCover.from_intervals([(0.5, 0.5 + math.exp(-100))]), inv
    )
    out = micro_from_hzeta(single, 50.0)
    assert out.guarantees[0][1] < math.exp(-50)
    two = CoverRecord.build(BoxCover.from_intervals([(0.0, 0.5), (0.5, 1.0)]), inv)
    with pytest.raises(ValueError):
        micro_from_hzeta(two, 2.0)  # zeta(1/2) = 1 each, sum 2 >= 1/2


# ---------------------------------------------------------------------------
# File formats


def test_cube_set_round_trip(tmp_path):
    E = DyadicCubeSet.from_indices(2, 4, [(0, 3), (7, 7), (15, 0)])
    path = tmp_path / "e.set"
    save_cubes(path, E)
    assert load_cubes(path) == E
    text = path.read_text().splitlines()
    assert text[0] == "d 2 m 4"


def test_cover_round_trip(tmp_path):
    cover = BoxCover(2, (((0.0, 0.25), (0.5, 1.0)), ((-0.5, 1.5), (0.0, 0.125)),))
    path = tmp_path / "c.cover"
    save_cover(path, cover)
    back = load_cover(path)
    assert back.dim == 2
    assert [tuple(map(float, b)) for box in back.boxes for b in box] == [
        tuple(map(float, b)) for box in cover.boxes for b in box
    ]


def test_atomic_write_concurrent_writers(tmp_path):
    path = tmp_path / "out.txt"
    texts = ("a" * 40_000 + "\n", "b" * 60_000 + "\n")
    _atomic_write(path, texts[0])
    errors, seen = [], set()
    done = threading.Event()

    def write(text):
        try:
            for _ in range(50):
                _atomic_write(path, text)
        except Exception as err:  # collected and asserted below
            errors.append(err)

    def read():
        while not done.is_set():
            seen.add(path.read_text())

    writers = [threading.Thread(target=write, args=(t,)) for t in texts * 2]
    reader = threading.Thread(target=read)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in writers + [reader]:
            t.start()
        for t in writers:
            t.join(timeout=60)
        done.set()
        reader.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in writers + [reader])
    assert not errors
    assert seen <= set(texts)  # readers never see a partial file
    assert path.read_text() in texts
    assert os.listdir(tmp_path) == ["out.txt"]  # no temp file left behind


def test_atomic_write_failure_leaves_target_and_no_temp(tmp_path):
    path = tmp_path / "out.txt"
    _atomic_write(path, "old\n")
    with pytest.raises(UnicodeEncodeError):
        _atomic_write(path, "bad \ud800")
    assert path.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["out.txt"]
