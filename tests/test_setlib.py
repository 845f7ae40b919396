import math
import os
import sys
import threading
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liplab import setlib
from liplab.construct import _micro_route
from liplab.gauges import Gauge, Pseudogauge, make_preset
from liplab.setlib import (
    MAX_KEY_BITS,
    _atomic_write,
    _check_cover,
    _components,
    _quotients,
    BoxCover,
    CoverageError,
    DyadicCubeSet,
    FormatError,
    GreedyCounts,
    IntervalUnion,
    cantor_intervals,
    cantor_natural_cover,
    cross_power,
    hausdorff_upper,
    load_cover,
    load_cubes,
    lower_box_dim,
    lower_box_premeasure,
    microscopic_certificate,
    microscopic_verify,
    n_delta,
    points_union,
    product_lemma_check,
    save_cover,
    save_cubes,
)
from oracles import (
    FractionBoxCover,
    FractionIntervalUnion,
    bisection_uncovered,
    brute_uncovered_point,
    brute_grid_count,
    compressed_grid_count,
    cube_lines_one_pass,
    grid_count_keys,
    brute_micro_assignment,
    brute_min_window_cover,
    fraction_cantor_intervals,
    fraction_cube_runs,
    fraction_greedy_count,
    fraction_raster,
    subset_raster,
    greedy_count_sweep,
    TupleCubeSet,
    tuple_components,
    tuple_cross_power,
    tuple_load_cubes,
    tuple_read_cube_lines,
)

LN2_LN3 = math.log(2) / math.log(3)


def pairs_of(iu: IntervalUnion) -> tuple[tuple[Fraction, Fraction], ...]:
    return FractionIntervalUnion.of(iu).intervals


# ---------------------------------------------------------------------------
# IntervalUnion basics


def test_interval_union_merges_touching():
    iu = IntervalUnion.from_pairs([(0, Fraction(1, 2)), (Fraction(1, 2), 1)])
    assert pairs_of(iu) == ((Fraction(0), Fraction(1)),)


def test_interval_union_ops():
    a = IntervalUnion.from_pairs([(0, Fraction(1, 4)), (Fraction(1, 2), 1)])
    b = IntervalUnion.from_pairs([(Fraction(1, 8), Fraction(3, 4))])
    inter = a.intersect(b)
    assert pairs_of(inter) == (
        (Fraction(1, 8), Fraction(1, 4)),
        (Fraction(1, 2), Fraction(3, 4)),
    )
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
# IntervalUnion against the Fraction-pair reference in oracles.py

# denominators that push the common denominator past int64 when combined
_BIG_DENS = st.sampled_from([7, 1 << 20, 3**13, (1 << 61) - 1, (1 << 62) + 1, 1 << 80])


@st.composite
def _endpoint(draw):
    """Mostly a point of the 1/24 grid (so intervals touch, overlap and share
    raster cubes), sometimes nudged by a tiny fraction, as int, float or Fraction."""
    x = Fraction(draw(st.integers(-2, 26)), 24)
    if draw(st.booleans()):
        x += Fraction(draw(st.integers(-3, 3)), draw(_BIG_DENS))
    kind = draw(st.sampled_from(["fraction", "fraction", "float", "int"]))
    if kind == "float":
        return float(x)
    return int(x) if kind == "int" and x.denominator == 1 else x


def _pairs(max_size=8):
    return st.lists(st.tuples(_endpoint(), _endpoint()).map(lambda p: tuple(sorted(p))),
                    max_size=max_size)


def _both(pairs):
    return IntervalUnion.from_pairs(pairs), FractionIntervalUnion.from_pairs(pairs)


def _probes(*unions):
    """Endpoints, midpoints and tiny offsets of the unions' intervals."""
    out = {Fraction(-1), Fraction(1, 2), Fraction(2)}
    for u in unions:
        for a, b in u.intervals:
            out.update({a, b, (a + b) / 2, a - Fraction(1, 10**30), b + Fraction(1, 10**30)})
    return sorted(out)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_endpoint(), _endpoint()), max_size=8))
def test_from_pairs_matches_fraction_oracle(pairs):
    # unsorted pairs included: both sides raise on an interval with b < a
    try:
        want = FractionIntervalUnion.from_pairs(pairs)
    except ValueError:
        with pytest.raises(ValueError, match="out of order"):
            IntervalUnion.from_pairs(pairs)
        return
    got = IntervalUnion.from_pairs(pairs)
    assert pairs_of(got) == want.intervals
    assert len(got) == len(want.intervals) and got.is_empty == (not want.intervals)
    # canonical form: the least denominator, the dtype its bit lengths allow
    assert got.den == math.lcm(1, *(x.denominator for p in want.intervals for x in p))
    reach = max([got.den] + [abs(int(v)) for v in (*got.lo, *got.hi)])
    assert got.lo.dtype == (np.int64 if reach.bit_length() <= 62 else object)
    assert got == IntervalUnion.from_pairs(want.intervals)  # merged input, same value
    assert got == IntervalUnion.from_pairs(reversed(pairs))


@settings(max_examples=300, deadline=None)
@given(_pairs(), _pairs())
def test_interval_ops_match_fraction_oracle(pa, pb):
    a, ref_a = _both(pa)
    b, ref_b = _both(pb)
    assert pairs_of(a.intersect(b)) == ref_a.intersect(ref_b).intervals
    assert a.uncovered_by(b) == ref_a.uncovered_by(ref_b)
    assert b.uncovered_by(a) == ref_b.uncovered_by(ref_a)
    assert a.subset_of(b) == ref_a.subset_of(ref_b)
    assert (a == b) == (ref_a.intervals == ref_b.intervals)
    meets = [bool(FractionIntervalUnion((c,)).intersect(ref_b).intervals) for c in ref_a.intervals]
    assert a.meets(b).tolist() == meets
    for x in _probes(ref_a, ref_b):
        for probe in (x, float(x)):
            assert a.contains(probe) == ref_a.contains(probe)


@settings(max_examples=300, deadline=None)
@given(_pairs(), st.integers(0, 7))
def test_raster_matches_fraction_oracle(pairs, depth):
    # below depth 5 a cube is wider than the 1/24 grid step, so neighbouring
    # intervals often share one
    iu, ref = _both(pairs)
    overlap = DyadicCubeSet.from_interval_union(iu, depth)
    subset = DyadicCubeSet(1, depth, np.array(sorted(k for k, in subset_raster(iu, depth)), int))
    for mode, got in (("overlap", overlap), ("subset", subset)):
        cubes = TupleCubeSet.of(got).cubes
        assert cubes == fraction_raster(ref.intervals, depth, mode)
        assert pairs_of(got.to_interval_union()) == fraction_cube_runs(cubes, depth)


_DELTAS = st.one_of(
    st.builds(lambda j: Fraction(1, 2**j), st.integers(0, 8)),
    st.builds(lambda j: Fraction(1, 3**j), st.integers(0, 5)),
    st.builds(lambda j: 3.0**-j, st.integers(1, 5)),
    st.floats(1e-2, 2.0),
    st.builds(Fraction, st.integers(1, 30), st.integers(1, 97)),
)


@settings(max_examples=300, deadline=None)
@given(_pairs(12), _DELTAS)
def test_n_delta_matches_fraction_sweep(pairs, delta):
    iu, ref = _both(pairs)
    assert n_delta(iu, delta) == fraction_greedy_count(ref.intervals, delta)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 40), st.integers(0, 40)), min_size=1, max_size=40),
       st.integers(1, 60))
def test_n_delta_greedy_chains_match_fraction_sweep(steps, delta):
    # intervals on a 1/1000 grid, closer together than delta: windows carry
    # from one interval into the next, which may need several more, between
    # runs of intervals that start past the previous window
    pairs, x = [], 0
    for gap, width in steps:
        pairs.append((Fraction(x, 1000), Fraction(x + width, 1000)))
        x += width + gap
    iu, ref = _both(pairs)
    for d in (Fraction(delta, 1000), delta / 1000):
        assert n_delta(iu, d) == fraction_greedy_count(ref.intervals, d)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6), st.sampled_from([1000, 1 << 70, 3**45]), st.booleans(), st.data())
def test_greedy_count_closed_form_matches_sweep(units, den, high, data):
    # gaps of exactly delta, below it and beyond it, and degenerate intervals;
    # den 2^70 or 3^45 puts the numerators on the object path, and `high`
    # moves them above 2^62
    step = st.tuples(st.one_of(st.just(units), st.integers(1, 3 * units)),
                     st.one_of(st.just(0), st.integers(0, 3 * units)))
    steps = data.draw(st.lists(step, min_size=1, max_size=30))
    pairs, x = [], den // 2 + 1 if high else 0  # den // 2 + 1 is prime to den
    for gap, width in steps:
        pairs.append((Fraction(x, den), Fraction(x + width, den)))
        x += width + gap
    iu = IntervalUnion.from_pairs(pairs)
    if high and den > 1000:
        assert iu.lo.dtype == object and iu.lo[0] > 1 << 62
    for delta in (Fraction(units, den), Fraction(units, den) + Fraction(1, 3 * den)):
        count = n_delta(iu, delta)
        assert count == greedy_count_sweep(iu, delta) == fraction_greedy_count(pairs_of(iu), delta)


@settings(max_examples=300, deadline=None)
@given(_pairs(16), st.lists(_DELTAS, min_size=1, max_size=3), st.data())
def test_greedy_counts_fed_in_blocks_match_fraction_sweep(pairs, deltas, data):
    # the set cut into blocks at any components, empty blocks included: each
    # block has its own least denominator, so the common one grows as blocks
    # come, and a window or a chain of close intervals runs across the cuts
    iu, ref = _both(pairs)
    cuts = sorted(data.draw(st.lists(st.integers(0, len(iu)), max_size=5)))
    counts = GreedyCounts(deltas)
    for a, b in zip([0, *cuts], [*cuts, len(iu)]):
        counts.feed(IntervalUnion(iu.den, iu.lo[a:b], iu.hi[a:b]))
    want = [fraction_greedy_count(ref.intervals, d) for d in deltas]
    assert counts.counts(deltas) == want == [n_delta(iu, d) for d in deltas]
    # reading the counts leaves the fed state as it was
    assert counts.counts(deltas[::-1]) == want[::-1]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 40), st.integers(0, 40)), min_size=1, max_size=40),
       st.integers(1, 60), st.data())
def test_greedy_counts_fed_in_blocks_carry_chains(steps, delta, data):
    # intervals on a 1/1000 grid, some closer together than delta, cut into
    # blocks of 1 to 4: a chain's windows carry across the cuts, and a
    # block's first interval may end a chain that started blocks before
    pairs, x = [], 0
    for gap, width in steps:
        pairs.append((Fraction(x, 1000), Fraction(x + width, 1000)))
        x += width + gap
    iu = IntervalUnion.from_pairs(pairs)
    sizes = data.draw(st.lists(st.integers(1, 4), min_size=len(iu), max_size=len(iu)))
    deltas = [Fraction(delta, 1000), delta / 1000]
    counts, a = GreedyCounts(deltas), 0
    for size in sizes:
        counts.feed(IntervalUnion(iu.den, iu.lo[a : a + size], iu.hi[a : a + size]))
        a += size
    assert counts.counts(deltas) == [fraction_greedy_count(pairs_of(iu), d) for d in deltas]


def test_cantor_intervals_match_fraction_thirds():
    for depth in range(0, 9):
        got = cantor_intervals(depth)
        assert pairs_of(got) == fraction_cantor_intervals(depth).intervals
        assert got.den == 3**depth and len(got) == 2**depth


def test_int64_and_object_paths_meet_at_62_bits():
    # lcm of two coprime denominators just under and just over 2^62
    p = (1 << 31) - 1
    for q, dtype in (((1 << 31) + 1, np.int64), ((1 << 31) + 3, object)):
        assert (p * q).bit_length() == (62 if dtype is np.int64 else 63)
        pa, pb = [(Fraction(1, p), 1)], [(0, Fraction(q - 1, q))]
        a, ref_a = _both(pa)
        b, ref_b = _both(pb)
        assert a.lo.dtype == b.lo.dtype == np.int64
        inter = a.intersect(b)
        assert inter.den == p * q and inter.lo.dtype == dtype
        assert pairs_of(inter) == ref_a.intersect(ref_b).intervals
        assert inter.uncovered_by(a) is None and a.uncovered_by(inter) == ref_a.uncovered_by(
            ref_a.intersect(ref_b))
        for delta in (Fraction(1, 7), 1 / 3):
            assert n_delta(inter, delta) == fraction_greedy_count(pairs_of(inter), delta)
    # a raster whose den * 2^depth crosses 2^62 (and 2^63, where int64 would
    # wrap): den = 3^25 has 40 bits
    den = 3**25
    pairs = [(Fraction(5, den), Fraction(9, den)),
             (Fraction(den // 2, den), Fraction(den // 2 + 7, den)),
             (1 - Fraction(2, den), 1 - Fraction(1, den))]
    iu, ref = _both(pairs)
    assert iu.den == den and iu.lo.dtype == np.int64
    for depth in (22, 23, 24):
        assert (den << depth).bit_length() == 40 + depth
        cubes = TupleCubeSet.of(DyadicCubeSet.from_interval_union(iu, depth)).cubes
        assert cubes == fraction_raster(ref.intervals, depth, "overlap")
        assert subset_raster(iu, depth) == fraction_raster(ref.intervals, depth, "subset")


def test_float_endpoints_are_correctly_rounded():
    # a denominator above 2^53: numpy's int64 -> float64 division rounds twice
    den = (1 << 61) - 1
    nums = np.random.default_rng(3).integers(1, den, size=2000)
    nums = np.unique(nums)
    iu = IntervalUnion(den, nums[0::2][: len(nums) // 2], nums[1::2][: len(nums) // 2])
    assert iu.den == den and iu.lo.dtype == np.int64
    lo, hi = iu.floats()
    assert lo == [float(a) for a, _ in pairs_of(iu)]
    assert hi == [float(b) for _, b in pairs_of(iu)]
    # the test bites: the double-rounded numpy form differs on some endpoint
    assert np.any(iu.lo.astype(np.float64) / np.float64(den) != np.array(lo))


def test_interval_union_value_semantics():
    a = IntervalUnion.from_pairs([(0, Fraction(1, 2)), (Fraction(1, 2), 1)])
    b = IntervalUnion.from_pairs([(0.0, 1.0)])
    assert a == b and a != IntervalUnion.from_pairs([])
    with pytest.raises(ValueError):
        a.lo[0] = 5  # read-only numerators
    with pytest.raises(ValueError, match="positive gaps"):
        IntervalUnion(4, np.array([0, 2]), np.array([2, 3]))  # touching: not canonical


# ---------------------------------------------------------------------------
# DyadicCubeSet


def test_refine_coarsen_round_trip():
    E = DyadicCubeSet.from_indices(2, 3, [(0, 1), (5, 7), (3, 3)])
    F = E.refine(5)
    # each cube splits into its 4 x 4 children, whose parents are E's cubes
    assert F.depth == 5 and len(F) == 16 * len(E)
    assert {tuple(k >> 2 for k in idx) for idx in TupleCubeSet.of(F).cubes} == TupleCubeSet.of(E).cubes
    assert E.refine(3) is E


def test_contains_closed_boundaries():
    E = DyadicCubeSet.from_indices(1, 2, [(1,)])  # [1/4, 1/2]
    assert E.contains([0.25, 0.5, 0.3, 0.24, 0.51]).tolist() == [True, True, True, False, False]


_COORDS = st.one_of(
    st.floats(-0.25, 1.25),
    st.builds(lambda k, e: k / 2**e, st.integers(-1, 65), st.integers(0, 6)),
    st.builds(Fraction, st.integers(-3, 40), st.integers(1, 40)),
    st.integers(-1, 2),
)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 6), st.data())
def test_point_location_matches_fraction_comparisons(depth, data):
    # contains and from_points scale floats by 2^depth without a Fraction;
    # the closed-cube test and truncated index below compare in Fractions
    top = 1 << depth
    cubes = data.draw(st.sets(st.tuples(st.integers(0, top - 1), st.integers(0, top - 1))))
    E = DyadicCubeSet.from_indices(2, depth, sorted(cubes))
    # grid vertices and cube centers of this depth, as floats and Fractions
    grid = st.builds(lambda k, half: (k + half) / top, st.integers(-1, top), st.sampled_from([0, 0.5]))
    coord = st.one_of(_COORDS, grid, grid.map(Fraction))
    point = data.draw(st.tuples(coord, coord))
    exact = [Fraction(x) for x in point]
    inside = any(
        all(Fraction(k, top) <= x <= Fraction(k + 1, top) for k, x in zip(idx, exact))
        for idx in cubes
    )
    assert E.contains([point]).tolist() == [inside]
    cell = tuple(min(max(int(x * top), 0), top - 1) for x in exact)
    assert TupleCubeSet.of(DyadicCubeSet.from_points(2, depth, [point])).cubes == {cell}


# the deepest grid per dimension whose every cube the reference enumerates
_REF_DEPTH = {1: 7, 2: 4, 3: 3}


@st.composite
def _cube_lists(draw):
    """(dim, depth, index tuples in any order, some repeated)."""
    dim = draw(st.sampled_from(sorted(_REF_DEPTH)))
    depth = draw(st.integers(0, _REF_DEPTH[dim]))
    top = 1 << depth
    cubes = draw(st.lists(st.tuples(*[st.integers(0, top - 1)] * dim), max_size=40))
    repeats = draw(st.lists(st.sampled_from(cubes), max_size=5)) if cubes else []
    return dim, depth, cubes + repeats


def _probe_points(draw, dim: int, depth: int, n: int = 30) -> list[tuple[float, ...]]:
    """Grid vertices and cube centers of this depth, points off [0,1], NaN."""
    top = 1 << depth
    coord = st.one_of(
        st.builds(lambda k, half: (k + half) / top, st.integers(-1, top), st.sampled_from([0, 0.5])),
        st.floats(-0.25, 1.25),
        st.sampled_from([math.nan, math.inf, -math.inf]),
    )
    return draw(st.lists(st.tuples(*[coord] * dim), min_size=1, max_size=n))


@settings(max_examples=300, deadline=None)
@given(_cube_lists(), st.integers(0, 2), st.data())
def test_cube_set_matches_tuple_reference(case, shift, data):
    dim, depth, cubes = case
    E = DyadicCubeSet.from_indices(dim, depth, cubes)
    ref = TupleCubeSet(dim, depth, frozenset(cubes))
    assert TupleCubeSet.of(E) == ref
    assert E.indices().tolist() == [list(c) for c in sorted(ref.cubes)]
    assert np.all(np.diff(E.keys) > 0) and not E.keys.flags.writeable
    assert DyadicCubeSet(dim, depth, E.keys[::-1]) == E
    assert TupleCubeSet.of(DyadicCubeSet.full(dim, depth)) == TupleCubeSet.full(dim, depth)
    if depth + shift <= _REF_DEPTH[dim]:
        assert TupleCubeSet.of(E.refine(depth + shift)) == ref.refine(depth + shift)
    points = _probe_points(data.draw, dim, depth)
    assert E.contains(points).tolist() == [ref.contains(p) for p in points]
    finite = [p for p in points if all(map(math.isfinite, p))]
    assert TupleCubeSet.of(DyadicCubeSet.from_points(dim, depth, finite)) == (
        TupleCubeSet.from_points(dim, depth, finite)
    )
    if dim == 1:
        assert E.contains([x for (x,) in points]).tolist() == [ref.contains(p) for p in points]
        assert pairs_of(E.to_interval_union()) == fraction_cube_runs(ref.cubes, depth)
        for d in range(1, 4):
            if d * depth <= 12:
                assert TupleCubeSet.of(cross_power(E, d)) == tuple_cross_power(ref, d)
    if dim == 2:
        def boxes(comps):
            return sorted((tuple(lo), tuple(hi)) for lo, hi in comps)

        comps = [tuple(zip(*box)) for box in FractionBoxCover.of(_components(E)).boxes]
        assert boxes(comps) == boxes(tuple_components(ref))


@settings(max_examples=100, deadline=None)
@given(_cube_lists(), st.randoms(use_true_random=False))
def test_cube_file_round_trip_matches_tuple_reference(tmp_path_factory, case, rnd):
    # lines in any order, repeated, padded with blanks and spaces
    dim, depth, cubes = case
    lines = [" ".join(map(str, c)) for c in cubes] + ["", "   "]
    lines += [" " + line + " \t" for line in rnd.sample(lines, k=len(lines) // 3)]
    rnd.shuffle(lines)
    path = tmp_path_factory.mktemp("cubes") / "e.set"
    path.write_text(f"d {dim} m {depth}\n" + "\n".join(lines) + "\n")
    E = load_cubes(path)
    assert TupleCubeSet.of(E) == tuple_load_cubes(path)
    save_cubes(path, E)
    want = [f"d {dim} m {depth}"] + [" ".join(map(str, c)) for c in sorted(set(cubes))]
    assert path.read_text() == "\n".join(want) + "\n"
    assert load_cubes(path) == E


# a line that is not dim integers of the set's depth, by kind
_MALFORMED = {
    "token": lambda dim, top: " ".join(["x"] + ["0"] * (dim - 1)),
    "float": lambda dim, top: " ".join(["0.5"] * dim),
    "negative": lambda dim, top: " ".join(["-1"] + ["0"] * (dim - 1)),
    "range": lambda dim, top: " ".join([str(top)] + ["0"] * (dim - 1)),
    "wide": lambda dim, top: " ".join(["0"] * (dim + 1)),
    "narrow": lambda dim, top: " ".join(["0"] * (dim - 1)) or "0 0",
}


@settings(max_examples=150, deadline=None)
@given(_cube_lists(), st.randoms(use_true_random=False),
       st.sampled_from([None, *sorted(_MALFORMED)]), st.integers(1, 3))
def test_read_cubes_matches_line_oracle(tmp_path_factory, case, rnd, bad, rows_per_block):
    # blank and padded lines, any order, repeats, and at most one malformed
    # line, read 1 to 3 rows a block: load_cubes gives the oracle's cubes or
    # a FormatError, and the .fn domain reader stops after its rows
    dim, depth, cubes = case
    lines = [" ".join(map(str, c)) for c in cubes] + ["", "   ", "\t"]
    lines += [" " + line + " \t" for line in rnd.sample(lines, k=len(lines) // 3)]
    rnd.shuffle(lines)
    if bad is not None:
        lines.insert(rnd.randrange(len(lines) + 1), _MALFORMED[bad](dim, 1 << depth))
    try:
        want = tuple_read_cube_lines(lines, dim, depth)
    except ValueError:
        want = None
    path = tmp_path_factory.mktemp("cubes") / "e.set"
    path.write_text(f"d {dim} m {depth}\n" + "\n".join(lines) + "\n")
    with mock.patch.object(setlib, "_LOAD_LINES", rows_per_block):
        if want is None:
            with pytest.raises(FormatError):
                load_cubes(path)
            return
        assert TupleCubeSet.of(load_cubes(path)) == want
        text = [line + "\n" for line in lines] + ["values\n"]
        data = [i for i, line in enumerate(lines) if line.strip()]
        source = iter(text)
        assert TupleCubeSet.of(setlib._read_cubes(source, dim, depth, len(data))) == want
        assert list(source) == text[data[-1] + 1 if data else 0 :]


def test_load_cubes_holds_one_key_array(tmp_path):
    # a 210k-cube depth-10 2-d set: the reader's peak is the key array and
    # one block of rows, where a list of every block's keys held two copies
    keys = np.flatnonzero(np.random.default_rng(0).random(1 << 20) < 0.2)
    save_cubes(tmp_path / "r2d.set", DyadicCubeSet(2, 10, keys))
    tracemalloc.start()
    try:
        E = load_cubes(tmp_path / "r2d.set")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(E) == len(keys) > 200_000 and np.array_equal(E.keys, keys)
    assert peak <= 1.5 * E.keys.nbytes, peak / E.keys.nbytes


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(*[st.one_of(st.integers(0, 2**31 - 1), st.sampled_from([0, 1, 2**30, 2**31 - 1]))] * 2),
        min_size=1, max_size=6,
    ),
    st.integers(0, 31),
)
def test_grid_count_at_the_key_limit(cubes, j):
    # d * depth = 62 = MAX_KEY_BITS: the dyadic cell codes reach 2^62 and
    # must not wrap
    E = DyadicCubeSet.from_indices(2, 31, cubes)
    for delta in (Fraction(1, 2**j), Fraction(1, 3 ** (j % 20))):
        assert n_delta(E, delta) == brute_grid_count(cubes, 31, delta)


@st.composite
def _grid_count_cases(draw):
    """A 2-d or 3-d cube set, small or at the key limit, and a dyadic,
    triadic or float delta no finer than an eighth of a cube side."""
    dim = draw(st.integers(2, 3))
    depth = draw(st.one_of(st.integers(0, 5 if dim == 2 else 3), st.just(62 // dim)))
    top = 1 << depth
    cubes = draw(st.sets(st.tuples(*[st.integers(0, top - 1)] * dim), max_size=12))
    delta = draw(st.one_of(
        st.integers(0, depth + 3).map(lambda j: Fraction(1, 2**j)),
        st.integers(1, 12).map(lambda i: Fraction(1, 3**i)).filter(lambda d: d * top * 8 >= 1),
        st.floats(2.0 ** -(depth + 3), 1.0).map(Fraction),
    ))
    return dim, depth, cubes, delta


@settings(max_examples=300, deadline=None)
@given(_grid_count_cases())
def test_grid_count_matches_brute_force(case):
    # products past 2^62 (float deltas at the key limit) run on Python ints
    dim, depth, cubes, delta = case
    E = DyadicCubeSet.from_indices(dim, depth, sorted(cubes))
    assert n_delta(E, delta) == brute_grid_count(cubes, depth, delta)


@st.composite
def _blocked_count_cases(draw):
    """A 2-d or 3-d cube set, small or at the key limit, with runs of
    neighbouring cubes and far-apart ones, and a delta at or above the cube
    side 2^-depth, or below it down to 2^-(depth + 6): dyadic, triadic or a
    float."""
    dim = draw(st.integers(2, 3))
    depth = draw(st.one_of(st.integers(0, 4 if dim == 2 else 3), st.just(62 // dim)))
    top = 1 << depth
    corner = draw(st.tuples(*[st.one_of(st.integers(0, top - 1), st.just(top - 1))] * dim))
    near = st.tuples(*[st.integers(max(c - 3, 0), c) for c in corner])
    anywhere = st.tuples(*[st.integers(0, top - 1)] * dim)
    cubes = draw(st.sets(st.one_of(near, anywhere), max_size=10 if dim == 2 else 6))
    # delta in [2^-finest, 2^-coarsest]: below the cube side 2^-depth, down
    # to 2^-(depth + 6), or at or above it
    fine = draw(st.booleans())
    coarsest, finest = (depth, depth + 6) if fine else (0, depth)
    deltas = [
        st.integers(coarsest + fine, finest).map(lambda j: Fraction(1, 2**j)),
        st.floats(2.0**-finest, 2.0**-coarsest, exclude_max=fine).map(Fraction),
    ]
    triadic = [i for i in range(1, 40) if 2.0**-finest <= 3.0**-i <= 2.0**-coarsest
               and (3.0**-i < 2.0**-depth) == fine]
    if triadic:
        deltas.append(st.sampled_from(triadic).map(lambda i: Fraction(1, 3**i)))
    delta = draw(st.one_of(deltas))
    assert (delta < Fraction(1, top)) == fine
    return dim, depth, sorted(cubes), delta


@settings(max_examples=300, deadline=None)
@given(_blocked_count_cases(), st.integers(1, 3))
def test_blocked_grid_count_matches_references(tmp_path_factory, case, per_block):
    # blocks of 1 to 3 cubes and files written and read 2 lines at a time,
    # so every set crosses blocks and chunks; at the key limit the keys and
    # weights run on Python ints
    dim, depth, cubes, delta = case
    path = tmp_path_factory.mktemp("blocks") / "e.set"
    with mock.patch.multiple(setlib, _KEY_BUDGET=per_block * 3**dim, _SAVE_CUBES=2, _LOAD_LINES=2):
        save_cubes(path, DyadicCubeSet.from_indices(dim, depth, cubes))
        got = n_delta(load_cubes(path), delta)
    assert got == compressed_grid_count(cubes, depth, delta)
    work = len(cubes) * (float(Fraction(1, 1 << depth) / delta) + 3) ** dim  # cells to list
    if work <= 50_000:
        assert got == grid_count_keys(cubes, depth, delta)
    if work <= 20_000:
        assert got == brute_grid_count(cubes, depth, delta)


def test_grid_count_far_below_the_cube_side():
    # at delta = 2^-24 a depth-4 cube meets 2^20 cells per axis and one more
    # past each end that lies inside [0,1]; separated cubes share no cell
    E = DyadicCubeSet.from_indices(2, 4, [(1, 2), (5, 9)])
    assert n_delta(E, Fraction(1, 2**24)) == 2 * (2**20 + 2) ** 2
    corner = DyadicCubeSet.from_indices(2, 4, [(0, 15), (15, 15)])
    assert n_delta(corner, Fraction(1, 2**24)) == (2**20 + 1) ** 2 + (2**20 + 1) ** 2
    # side by side, the two cubes share the cells on their common face
    pair = DyadicCubeSet.from_indices(2, 4, [(3, 7), (4, 7)])
    assert n_delta(pair, Fraction(1, 2**24)) == (2 * 2**20 + 2) * (2**20 + 2)
    three_d = DyadicCubeSet.from_indices(3, 4, [(1, 2, 3), (9, 9, 9)])
    assert n_delta(three_d, Fraction(1, 2**24)) == 2 * (2**20 + 2) ** 3


def test_grid_count_memory_does_not_grow_below_the_cube_side():
    # 13k depth-8 cubes: listing every cell at delta = 2^-14 would take
    # 13k * 66^2 keys (450 MB); the blocked count holds a fixed budget
    keys = np.flatnonzero(np.random.default_rng(3).random(1 << 16) < 0.2)
    E = DyadicCubeSet(2, 8, keys)
    peaks = []
    for j in (8, 14, 20):
        tracemalloc.start()
        n_delta(E, Fraction(1, 2**j))
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert max(peaks) < 16 << 20, peaks


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 255), max_size=40),
       st.sampled_from(["as drawn", "sorted", "strictly increasing", "descending"]))
def test_cube_set_keys_match_sorted_unique(keys, order):
    # keys that already strictly increase skip the sort; every order, with
    # repeats or empty, stores the same keys, in an array of the set's own
    keys = {"as drawn": keys, "sorted": sorted(keys), "strictly increasing": sorted(set(keys)),
            "descending": sorted(keys, reverse=True)}[order]
    given_keys = np.array(keys, dtype=np.int64)
    E = DyadicCubeSet(2, 4, given_keys)
    assert E.keys.tolist() == sorted(set(keys))
    assert np.array_equal(E.keys, setlib._sorted_unique(given_keys))
    assert E.keys.dtype == np.int64 and not E.keys.flags.writeable
    assert given_keys.flags.writeable and not np.shares_memory(E.keys, given_keys)
    assert DyadicCubeSet(2, 4, E.keys) == E


def test_save_cubes_chunks_match_one_pass_text(tmp_path):
    rng = np.random.default_rng(5)
    sets = [DyadicCubeSet(1, 6, []), DyadicCubeSet(1, 6, rng.integers(0, 64, 20)),
            DyadicCubeSet(2, 4, rng.integers(0, 256, 30)), DyadicCubeSet(3, 3, rng.integers(0, 512, 7))]
    path = tmp_path / "e.set"
    with mock.patch.multiple(setlib, _SAVE_CUBES=3, _LOAD_LINES=2):
        for E in sets:
            save_cubes(path, E)
            assert path.read_text() == f"d {E.dim} m {E.depth}\n" + cube_lines_one_pass(E)
            assert load_cubes(path) == E


def test_key_limit_is_enforced():
    assert MAX_KEY_BITS == 62
    DyadicCubeSet.from_indices(2, 31, [(2**31 - 1, 2**31 - 1)])
    DyadicCubeSet(1, 62, [2**62 - 1])
    for dim, depth in ((2, 40), (1, 63), (3, 21)):
        with pytest.raises(ValueError, match="limit 62"):
            DyadicCubeSet(dim, depth, [])
    with pytest.raises(ValueError, match="limit 62"):
        DyadicCubeSet.from_indices(2, 40, [(0, 0), (1 << 34, 0)])
    with pytest.raises(ValueError, match="out of range"):
        DyadicCubeSet(2, 3, [64])
    with pytest.raises(ValueError, match="out of range"):
        DyadicCubeSet.from_indices(2, 3, [(0, 8)])
    with pytest.raises(ValueError, match="shape"):
        DyadicCubeSet.from_indices(2, 3, [(0, 1, 2)])
    with pytest.raises(ValueError, match="shape"):
        DyadicCubeSet.from_indices(2, 3, [0, 1])
    with pytest.raises(ValueError, match="finite"):
        DyadicCubeSet.from_points(1, 3, [math.nan])


def test_rasterization_modes():
    iu = IntervalUnion.from_pairs([(Fraction(3, 16), Fraction(5, 16))])
    overlap = DyadicCubeSet.from_interval_union(iu, 2)
    assert overlap.keys.tolist() == [0, 1]
    assert sorted(subset_raster(iu, 4)) == [(3,), (4,)]


# ---------------------------------------------------------------------------
# n_delta


def test_n_delta_full_interval():
    E = DyadicCubeSet.full(1, 8)
    assert n_delta(E, Fraction(1, 4)) == 4
    # brute-force window oracle on the cell representation
    assert brute_min_window_cover(set(range(8)), 2) == 4  # depth-3 cells, window 1/4


def test_n_delta_cantor_depth2():
    E = cantor_intervals(2)
    assert n_delta(E, Fraction(1, 9)) == 4
    # oracle in units of 1/9: occupied cells {0,2,6,8}, window 1 cell
    assert brute_min_window_cover({0, 2, 6, 8}, 1) == 4


def test_n_delta_empty_and_points():
    assert n_delta(IntervalUnion.from_pairs([]), Fraction(1, 4)) == 0
    pts = points_union([Fraction(1, 10), Fraction(2, 10), Fraction(9, 10)])
    assert n_delta(pts, Fraction(1, 10)) == 2
    assert n_delta(pts, Fraction(1, 100)) == 3


def test_n_delta_cantor_exact_all_scales():
    E = cantor_intervals(8)
    for k in range(1, 9):
        assert n_delta(E, Fraction(1, 3**k)) == 2**k


def test_n_delta_antitone_and_monotone():
    rng = np.random.default_rng(0)
    for _ in range(20):
        cubes = rng.choice(32, size=rng.integers(1, 8), replace=False)
        E = DyadicCubeSet.from_indices(1, 5, [(int(c),) for c in cubes])
        F = DyadicCubeSet.from_indices(
            1, 5, [(int(c),) for c in cubes] + [(int(rng.integers(0, 32)),)]
        )
        deltas = [Fraction(1, 2**j) for j in range(1, 6)]
        counts = [n_delta(E, d) for d in deltas]
        assert all(a <= b for a, b in zip(counts, counts[1:]))  # antitone in delta
        for d in deltas:
            assert n_delta(E, d) <= n_delta(F, d)
        scales = [Fraction(1, 2**j) for j in range(1, 7)]
        assert (
            lower_box_dim(E, scales)["lbdim_proxy"]
            <= lower_box_dim(F, scales)["lbdim_proxy"] + 1e-12
        )


def test_n_delta_grid_proxy_2d():
    E = DyadicCubeSet.full(2, 3)
    assert n_delta(E, Fraction(1, 4)) == 16
    assert lower_box_dim(E, [Fraction(1, 2**k) for k in range(1, 7)])["mode"] == "grid-proxy"


# ---------------------------------------------------------------------------
# Premeasure and dimension


def test_premeasure_single_point():
    E = points_union([0.0])
    zeta = make_preset("power", s=1)
    scales = [Fraction(1, 2**j) for j in range(1, 11)]
    assert lower_box_premeasure(E, zeta, math.inf, scales) == pytest.approx(2.0**-10)
    assert all(n_delta(E, s) == 1 for s in scales)


def test_premeasure_unit_interval():
    E = IntervalUnion.from_pairs([(0, 1)])
    zeta = make_preset("power", s=1)
    scales = [Fraction(1, 2**j) for j in range(1, 11)]
    assert lower_box_premeasure(E, zeta, math.inf, scales) == pytest.approx(1.0)
    for s in scales:
        assert 1.0 <= n_delta(E, s) * zeta.eval(float(s)) <= 2.0


def test_premeasure_cantor_exact_product():
    E = cantor_intervals(8)
    zeta = make_preset("power", s=LN2_LN3)
    scales = [Fraction(1, 3**k) for k in range(1, 9)]
    for s in scales:
        assert n_delta(E, s) * zeta.eval(float(s)) == pytest.approx(1.0, rel=1e-12)
    assert lower_box_premeasure(E, zeta, math.inf, scales) == pytest.approx(1.0, rel=1e-12)


def test_lower_box_dim_cantor():
    rep = lower_box_dim(cantor_intervals(12), [Fraction(1, 3**k) for k in range(1, 13)])
    assert rep["lbdim_proxy"] == pytest.approx(LN2_LN3, abs=1e-12)
    assert rep["slope"] == pytest.approx(LN2_LN3, abs=1e-9)


def test_lower_box_dim_square_and_empty():
    rep = lower_box_dim(DyadicCubeSet.full(2, 8), [Fraction(1, 2**k) for k in range(1, 9)])
    assert rep["lbdim_proxy"] == pytest.approx(2.0, abs=1e-12)
    empty = lower_box_dim(
        DyadicCubeSet(1, 4, []), [Fraction(1, 2**k) for k in range(1, 9)]
    )
    assert empty["empty"] and empty["lbdim_proxy"] == empty["slope"] == 0.0


def test_lower_box_dim_slope_is_the_exact_fit():
    # log N is exactly 2 |log r| at every scale of the full square, so the
    # fit is 2.0 (np.polyfit's was 2.0000000000000004)
    rep = lower_box_dim(DyadicCubeSet.full(2, 8), [Fraction(1, 2**k) for k in range(1, 9)])
    assert rep["slope"] == 2.0
    # off a line, the slope 13.5/6 is a float; 1/3 is rounded once
    assert setlib._fit_slope([1.0, 2.0, 3.0], [2.0, 4.0, 6.5]) == 2.25
    assert setlib._fit_slope([0.0, 3.0], [0.0, 1.0]) == 1 / 3
    assert setlib._fit_slope([0.5], [7.0]) == setlib._fit_slope([], []) == 0.0


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.floats(0.0, 50.0), st.floats(0.0, 50.0)), min_size=2, max_size=40,
                unique_by=lambda p: p[0]))
def test_fit_slope_matches_polyfit(points):
    xs, ys = map(list, zip(*points))
    if max(xs) - min(xs) < 1.0:  # polyfit's conditioning, not the exact fit, limits this
        return
    assert setlib._fit_slope(xs, ys) == pytest.approx(np.polyfit(xs, ys, 1)[0], rel=1e-9,
                                                      abs=1e-9)


def test_lower_box_dim_finite_set():
    pts = points_union([0.11, 0.23, 0.47, 0.71, 0.89])
    rep = lower_box_dim(pts, [Fraction(1, 2**k) for k in range(1, 25)])
    assert rep["lbdim_proxy"] <= 0.1
    assert abs(rep["slope"]) <= 0.1


# ---------------------------------------------------------------------------
# Hausdorff upper bounds


def test_hausdorff_cantor_sums_are_one():
    g = make_preset("power", s=LN2_LN3)
    for k in range(1, 13):
        total = hausdorff_upper(cantor_intervals(k), g, cantor_natural_cover(k))
        assert abs(total - 1.0) <= 1e-12


def test_hausdorff_point_auto_cover():
    g = make_preset("power", s=2)
    for m in (4, 8):
        E = DyadicCubeSet.from_points(1, m, [(0.5,)])
        assert hausdorff_upper(E, g) == pytest.approx((2.0**-m) ** 2, rel=1e-12)


def test_hausdorff_unit_interval_power2():
    g = make_preset("power", s=2)
    for k in (2, 6, 10):
        assert hausdorff_upper(DyadicCubeSet.full(1, k), g) == pytest.approx(2.0**-k, rel=1e-12)


def test_hausdorff_cover_must_cover():
    g = make_preset("power", s=1)
    with pytest.raises(CoverageError) as err:
        hausdorff_upper(cantor_intervals(2), g, cantor_natural_cover(3))
    assert 0.0 <= err.value.witness <= 1.0


# ---------------------------------------------------------------------------
# BoxCover and the coverage check against the Fraction references

_ENDPOINTS = st.one_of(
    st.integers(-1, 2),
    st.floats(-1.0, 2.0),  # subnormals reach denominators of 2^1074
    st.fractions(-1, 2, max_denominator=12),
    st.fractions(-1, 2, max_denominator=10**30),
)


@st.composite
def _rational_boxes(draw):
    dim = draw(st.integers(1, 3))
    side = st.tuples(_ENDPOINTS, _ENDPOINTS).map(lambda p: tuple(sorted(p, key=Fraction)))
    return dim, draw(st.lists(st.tuples(*[side] * dim), max_size=6))


@settings(max_examples=300, deadline=None)
@given(_rational_boxes())
def test_box_cover_matches_fraction_reference(case):
    dim, boxes = case
    cover = BoxCover.from_boxes(dim, boxes)
    ref = FractionBoxCover(dim, boxes)
    assert FractionBoxCover.of(cover) == ref
    den = cover.den
    assert math.gcd(den, *cover.lo.ravel().tolist(), *cover.hi.ravel().tolist()) == 1
    assert (cover.lo.dtype == np.int64) == ((2 * den).bit_length() <= 62)
    assert not cover.lo.flags.writeable and not cover.hi.flags.writeable
    assert [Fraction(d, den) for d in cover.diameters().tolist()] == ref.diameters()
    assert [Fraction(v, den**dim) for v in cover.volumes().tolist()] == [
        ref.volume(i) for i in range(len(boxes))
    ]
    assert _quotients(cover.diameters(), den).tolist() == [float(d) for d in ref.diameters()]
    lo, hi = cover.floats()
    assert lo.tolist() == [[float(a) for a, _ in box] for box in ref.boxes]
    assert hi.tolist() == [[float(b) for _, b in box] for box in ref.boxes]
    if dim == 1:
        union = IntervalUnion.from_pairs(box[0] for box in boxes)
        assert cover.interval_union() == union
        assert FractionBoxCover.of(BoxCover.from_intervals(union)).boxes == tuple(
            (pair,) for pair in pairs_of(union)
        )


@st.composite
def _cubes_and_boxes(draw):
    """A small cube set, boxes that cover some of its cubes (whole, or split
    in two at a coordinate that need not be dyadic), and random boxes."""
    dim = draw(st.sampled_from([2, 3]))
    depth = draw(st.integers(0, 3 if dim == 2 else 2))
    top = 1 << depth
    cubes = draw(st.lists(st.tuples(*[st.integers(0, top - 1)] * dim), min_size=1, max_size=8))
    boxes = []
    covered = True
    for idx in cubes:
        if not draw(st.integers(0, 4)):
            covered = False
            continue
        box = [(Fraction(k, top), Fraction(k + 1, top)) for k in idx]
        axis = draw(st.integers(-1, dim - 1))
        if axis < 0:
            boxes.append(box)
            continue
        a, b = box[axis]
        t = draw(st.fractions(a, b, max_denominator=30))
        boxes += [box[:axis] + [(a, t)] + box[axis + 1 :], box[:axis] + [(t, b)] + box[axis + 1 :]]
    side = st.tuples(*[st.fractions(-1, 2, max_denominator=2 * top + 1)] * 2).map(sorted)
    boxes += draw(st.lists(st.tuples(*[side] * dim), max_size=4))
    return dim, depth, cubes, boxes, covered


@settings(max_examples=200, deadline=None)
@given(_cubes_and_boxes())
def test_cover_check_is_exact_and_complete(case):
    dim, depth, cubes, boxes, covered = case
    E = DyadicCubeSet.from_indices(dim, depth, cubes)
    ref = FractionBoxCover(dim, boxes)
    try:
        _check_cover(E, BoxCover.from_boxes(dim, boxes))
        witness = None
    except CoverageError as err:
        witness = err.witness
    cubes = E.indices().tolist()
    assert (witness is None) == (brute_uncovered_point(cubes, depth, ref.boxes) is None)
    if covered or bisection_uncovered(cubes, depth, ref.boxes, 6) is None:
        assert witness is None
    if witness is not None:
        h = Fraction(1, 1 << depth)
        assert len(witness) == dim and all(isinstance(x, Fraction) for x in witness)
        assert any(all(k * h <= x <= (k + 1) * h for k, x in zip(idx, witness)) for idx in cubes)
        assert not any(all(a <= x <= b for (a, b), x in zip(box, witness)) for box in ref.boxes)


def test_cover_split_at_a_third():
    # two boxes meeting at x = 1/3 cover the unit square; no dyadic bisection
    # of the square puts each piece inside one box
    third = Fraction(1, 3)
    boxes = [((0, third), (0, 1)), ((third, 1), (0, 1))]
    E = DyadicCubeSet.full(2, 0)
    g = make_preset("power", s=1)
    assert hausdorff_upper(E, g, BoxCover.from_boxes(2, boxes)) == 2.0
    assert bisection_uncovered([(0, 0)], 0, FractionBoxCover(2, boxes).boxes) is not None
    with pytest.raises(CoverageError) as err:
        hausdorff_upper(E, g, BoxCover.from_boxes(2, boxes[:1]))
    assert err.value.witness == (Fraction(2, 3), Fraction(1, 2))
    with pytest.raises(ValueError, match="cannot cover"):
        hausdorff_upper(E, g, BoxCover.from_boxes(1, [((0, 1),)]))


# ---------------------------------------------------------------------------
# Cross products


def test_cross_power_slabs():
    E = DyadicCubeSet.from_points(1, 4, [(0.5,)])
    X = cross_power(E, 2)
    assert X.contains([(0.5, 0.9), (0.9, 0.5), (0.9, 0.9)]).tolist() == [True, True, False]
    top = 16
    assert len(X) == top**2 - (top - len(E)) ** 2


def test_cross_power_empty_identity():
    E = DyadicCubeSet(1, 3, [])
    assert len(cross_power(E, 3)) == 0
    F = DyadicCubeSet.from_indices(1, 3, [(2,)])
    assert cross_power(F, 1) == F


def test_cross_power_matches_brute_force():
    rng = np.random.default_rng(1)
    cubes = [(int(c),) for c in rng.choice(64, size=11, replace=False)]
    E = DyadicCubeSet.from_indices(1, 6, cubes)
    X = cross_power(E, 2)
    pts = rng.random((10_000, 2))
    want = [E.contains([p[0]])[0] or E.contains([p[1]])[0] for p in pts]
    assert X.contains(pts).tolist() == want


def test_cross_power_overflow_guard():
    # 64^4 = 16.7M cubes, beyond MAX_CROSS_CUBES = 4M: refused before building
    with pytest.raises(ValueError, match="limit"):
        cross_power(DyadicCubeSet.full(1, 6), 4)


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
    assert cert.failure is None
    lo, hi = cert.cover.floats()
    sides = sorted((hi - lo)[:, 0].tolist(), reverse=True)
    assert sides == pytest.approx([0.1, 0.01, 0.001], rel=1e-9)
    assert microscopic_verify(cert.cover, 0.1, E) is None


def test_micro_slab_single_box():
    slab = DyadicCubeSet.from_indices(2, 6, [(0, j) for j in range(64)])
    cert = microscopic_certificate(slab, 0.1, 5)
    assert cert.failure is None and len(cert.cover) == 1
    assert float(Fraction(int(cert.cover.volumes()[0]), cert.cover.den**2)) <= 0.1
    assert microscopic_verify(cert.cover, 0.1, slab) is None


def test_micro_stage_slabs():
    # k+1 intervals of width eta with eta <= eps^(k+1)
    k, eps = 4, 0.2
    eta = Fraction(1, 4096)  # 2^-12 < 0.2^5 = 3.2e-4
    E = IntervalUnion.from_pairs(
        (Fraction(m, k) - eta / 2, Fraction(m, k) + eta / 2) for m in range(1, k)
    )
    cert = microscopic_certificate(E, eps, k + 1)
    assert cert.failure is None
    assert microscopic_verify(cert.cover, eps, E) is None


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
        vols = [float(b - a) for a, b in pairs_of(E)]
        assert (cert.failure is None) == brute_micro_assignment(vols, eps, n_max)


def test_micro_verify_failures():
    E = points_union([0.2, 0.8])
    eps = 0.1
    bad = BoxCover.from_boxes(1, [((0.15, 0.25),), ((0.8 - eps**1.5 / 2, 0.8 + eps**1.5 / 2),)])
    res = microscopic_verify(bad, eps, E)
    assert res.startswith("box 2 has volume 0.0316228 above eps^2 = 0.01"), res
    missing = BoxCover.from_boxes(1, [((0.15, 0.25),)])
    res2 = microscopic_verify(missing, eps, E)
    assert res2 == "cover misses the set at 0.8"


def test_micro_failure_reports_component():
    E = IntervalUnion.from_pairs([(0, Fraction(1, 2))])
    cert = microscopic_certificate(E, 0.1, 10)
    assert cert.cover is None and "volume" in cert.failure


def test_hausdorff_upper_evaluates_the_gauge_once_per_box():
    # the micro route sums the gauge over its cover as hausdorff_upper does,
    # once per box and nowhere else
    calls = []

    class CountingGauge(Gauge):
        def eval(self, r):
            calls.append(r)
            return super().eval(r)

    E = IntervalUnion.from_pairs((Fraction(n, 20), Fraction(n, 20) + Fraction(1, 2**40))
                                 for n in range(1, 6))
    total = hausdorff_upper(E, CountingGauge("inv_log"), BoxCover.from_intervals(E))
    assert total == pytest.approx(5.0 / (40.0 * math.log(2.0)), rel=1e-12)
    assert calls == [2.0**-40] * 5
    calls.clear()
    cover, _, _ = _micro_route(E, CountingGauge("inv_log"))
    assert len(cover) == 5
    assert calls == [2.0**-40] * 5


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
    cover = BoxCover.from_boxes(2, (((0.0, 0.25), (0.5, 1.0)), ((-0.5, 1.5), (0.0, 0.125)),))
    path = tmp_path / "c.cover"
    save_cover(path, cover)
    back = load_cover(path)
    assert back.dim == 2
    assert [x.tolist() for x in back.floats()] == [x.tolist() for x in cover.floats()]
    for body in ("0 0.5 x 1\n", "0 0.5 1\n", "0 0.5\n0 0.5 0 1\n", "0 3\n"):
        path.write_text(body)
        with pytest.raises(FormatError):
            load_cover(path)


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
