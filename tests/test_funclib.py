import math
import re
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from liplab import funclib
from liplab.cli import main
from liplab.funclib import (
    HolderModulus,
    SampledFunction,
    cantor_value,
    lip_field,
    load_function,
    make_test_function,
    oscillation,
    oscillation_window,
    save_function,
)
from liplab.gauges import make_preset
from liplab.setlib import DyadicCubeSet, FormatError, save_cubes
from oracles import grid_lipschitz_whole, resample_linspace, weierstrass_grid_per_term
from oracles import TupleCubeSet, fn_read_line_by_line, fn_text_one_pass, dense_diam, oscillation_1d, oscillation_nd, weierstrass_value
from oracles import evaluate as reference_evaluate

POWER1 = make_preset("power", s=1)


def window(lo: int, hi: int) -> list[float]:
    return [2.0**-j for j in range(lo, hi + 1)]


def one(f, x, r) -> tuple[float, float]:
    """(lower, upper) of a one-point oscillation call at x."""
    osc = oscillation(f, np.array([x]), r)
    return float(osc.lower[0]), float(osc.upper[0])


def summary(f, x, radii, mode: str) -> float:
    """The window summary at the one point x."""
    return float(oscillation_window(f, [x], POWER1, radii).summary(mode)[0])


# ---------------------------------------------------------------------------
# Evaluation


def test_evaluate_affine_exact():
    f = make_test_function("affine", {"c": 2.0}, depth=10)
    assert f.evaluate_many([0.25])[0] == pytest.approx(0.5, rel=1e-15)
    assert f.evaluate_many([0.0])[0] == 0.0
    assert f.evaluate_many([1.0])[0] == 2.0
    # interpolation is exact on affine functions at non-grid points too
    assert f.evaluate_many([1 / 3])[0] == pytest.approx(2 / 3, rel=1e-12)


def test_evaluate_constant():
    f = make_test_function("constant", {"value": 3.0}, depth=6)
    for x in (0.0, 0.3, 1.0):
        assert f.evaluate_many([x])[0] == 3.0


def test_evaluate_weierstrass_at_zero():
    f = make_test_function("weierstrass", {"a": 0.5, "b": 3, "terms": 20}, depth=10)
    expected = sum(0.5**n for n in range(20))  # cos terms are all 1 at x = 0
    assert f.evaluate_many([0.0])[0] == pytest.approx(expected, rel=1e-12)


def test_affine_grid_values():
    f = make_test_function("affine", {"c": 2.0}, depth=10)
    assert np.allclose(f.values, 2.0 * np.arange(1025) / 1024, rtol=0, atol=0)


def test_evaluate_outside_domain():
    f = make_test_function("affine", {"c": 1.0}, depth=6)
    with pytest.raises(ValueError):
        f.evaluate_many([1.5])
    half = DyadicCubeSet.from_indices(1, 1, [(0,)])
    g = SampledFunction(1, 6, half, f.values, f.modulus, exact=True)
    with pytest.raises(ValueError):
        g.evaluate_many([0.75])
    assert g.evaluate_many([0.25])[0] == pytest.approx(0.25)


@st.composite
def _evaluation_cases(draw):
    """A SampledFunction of dimension 1, 2 or 3 on a full or partial domain,
    NaN off it, its values drawn from a seeded palette that holds both
    signed zeros, and points whose coordinates are grid vertices, cell-face
    midpoints, signed zeros, arbitrary floats in [0,1], or now and then
    outside [0,1]."""
    dim = draw(st.integers(1, 3))
    depth = draw(st.integers(0, (7, 4, 3)[dim - 1]))
    side = 1 << draw(st.integers(0, min(depth, 2)))
    cubes = draw(st.sets(st.tuples(*[st.integers(0, side - 1)] * dim), min_size=1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = (1 << depth) + 1
    palette = np.r_[0.0, -0.0, rng.uniform(-1e3, 1e3, 3)]
    values = rng.choice(palette, size=(n,) * dim)
    span = (n - 1) // side
    on = np.zeros(values.shape, dtype=bool)
    for q in cubes:
        on[tuple(slice(k * span, (k + 1) * span + 1) for k in q)] = True
    values[~on] = np.nan
    domain = DyadicCubeSet.from_indices(dim, side.bit_length() - 1, sorted(cubes))
    f = SampledFunction(dim, depth, domain, values, HolderModulus(1.0), exact=True)
    top = 1 << depth
    coord = st.one_of(
        st.integers(0, top).map(lambda k: k / top),
        st.integers(0, 2 * top).map(lambda k: k / (2 * top)),
        st.sampled_from([0.0, -0.0, 1.0]),
        st.floats(0.0, 1.0),
    )
    point = st.tuples(*[coord] * dim)
    outside = st.tuples(*[st.one_of(coord, st.sampled_from([-0.25, 1.5, -5e-324]))] * dim)
    points = draw(st.lists(st.one_of(point, point, point, outside), min_size=1, max_size=8))
    return f, points


@settings(max_examples=400, deadline=None)
@given(_evaluation_cases())
def test_evaluate_matches_scalar_reference(case):
    # bit for bit against the one-point, one-corner reference evaluation;
    # a batch raises the error of its first bad point
    f, points = case
    cubes = TupleCubeSet.of(f.domain).cubes
    expected = []
    for p in points:
        try:
            expected.append(reference_evaluate(f, p, cubes))
        except ValueError as err:
            expected.append(str(err))
    good = [i for i, want in enumerate(expected) if not isinstance(want, str)]
    batch = np.array(points)
    errors = [want for want in expected if isinstance(want, str)]
    if errors:
        with pytest.raises(ValueError, match=re.escape(errors[0])):
            f.evaluate_many(batch)
    want = [_bits(expected[i]) for i in good]
    assert [_bits(v) for v in f.evaluate_many(batch[good])] == want
    if f.dim == 1:
        assert [_bits(v) for v in f.evaluate_many(batch[good, 0])] == want
    for p, want in zip(points, expected):
        if isinstance(want, str):
            with pytest.raises(ValueError, match=re.escape(want)):
                f.evaluate_many([p])
        else:
            assert _bits(f.evaluate_many([p])[0]) == _bits(want)


# ---------------------------------------------------------------------------
# Oscillation


def test_oscillation_affine_dyadic_radius():
    f = make_test_function("affine", {"c": 2.0}, depth=10)
    lower, upper = one(f, 0.5, 0.125)
    assert lower == pytest.approx(0.5, rel=1e-15)  # 2c*r with vertices at x+-r
    assert upper == pytest.approx(0.5, rel=1e-15)  # exact interpolant oscillation


def test_oscillation_constant_zero():
    f = make_test_function("constant", {"value": 1.0}, depth=8)
    lower, upper = one(f, 0.3125, 0.25)
    assert lower == 0.0 and upper == 0.0
    # 0.3 - 0.25 is no float, and an exact bracket needs exact ball ends
    message = r"B\(\(0.3,\), 0.25\) has an end x -\+ r in \[0,1\] that is not a float"
    with pytest.raises(ValueError, match=message):
        one(f, 0.3, 0.25)


def test_oscillation_resolution_guard():
    f = make_test_function("weierstrass", {}, depth=8)  # generator-backed
    with pytest.raises(ValueError):
        one(f, 0.5, 2.0 * f.h)
    exact = make_test_function("affine", {"c": 1.0}, depth=8)
    upper = one(exact, 0.5, exact.h / 2)[1]  # exact path has no guard
    assert upper == pytest.approx(2.0 * (exact.h / 2), rel=1e-12)


def test_oscillation_weierstrass_vs_dense_oracle():
    a, b, terms = 0.5, 3, 20
    f = make_test_function("weierstrass", {"a": a, "b": b, "terms": terms}, depth=16)
    oracle = dense_diam(
        lambda t: weierstrass_value(a, b, terms, t), 0.5, 2.0**-6, Fraction(1, 1 << 22)
    )
    lower, upper = one(f, 0.5, 2.0**-6)
    assert lower <= oracle <= upper
    assert lower >= 0.95 * oracle


def test_oscillation_lower_2d_partial_domain_matches_dense_mask():
    # domain: three quadrants of [0,1]^2, NaN beyond them; centers and radii are
    # multiples of 2^-20, so the float ball test below is exact
    depth = 6
    top = 1 << depth
    rng = np.random.default_rng(11)
    coords = np.arange(top + 1) / top
    X, Y = np.meshgrid(coords, coords, indexing="ij")
    values = rng.uniform(-1.0, 1.0, size=X.shape)
    values[(X > 0.5) & (Y > 0.5)] = np.nan
    domain = DyadicCubeSet.from_indices(2, 1, [(0, 0), (0, 1), (1, 0)])
    f = SampledFunction(2, depth, domain, values, HolderModulus(1.0))
    empty = 0
    for _ in range(300):
        x = rng.integers(0, (1 << 20) + 1, size=2) / 2**20
        r = float(rng.integers(1 << 16, 1 << 19)) / 2**20  # r >= 4h = 2^-4
        inside = values[np.maximum(np.abs(X - x[0]), np.abs(Y - x[1])) <= r]
        inside = inside[~np.isnan(inside)]
        if inside.size == 0:
            empty += 1
            with pytest.raises(ValueError, match="no domain vertex"):
                one(f, tuple(x), r)
            continue
        assert one(f, tuple(x), r)[0] == inside.max() - inside.min()
    assert 0 < empty < 300


def test_oscillation_brackets_100_random_generator_points():
    # dense oracle on a 64x finer grid; lower <= oracle diam <= upper exactly
    rng = np.random.default_rng(7)
    cases = [
        ("affine", {"c": -1.5}, lambda t: -1.5 * float(t), 33),
        ("cantor", {}, lambda t: cantor_value(Fraction(t)), 33),
        ("weierstrass", {"a": 0.5, "b": 3, "terms": 12},
         lambda t: weierstrass_value(0.5, 3, 12, t), 34),
    ]
    total = 0
    for name, params, fn, count in cases:
        f = make_test_function(name, params, depth=10)
        for _ in range(count):
            # a multiple of 2^-40, so that x -+ r is a float, as an exact bracket needs
            x = round(float(rng.uniform(0.2, 0.8)) * 2**40) / 2**40
            r = float(2.0 ** -rng.integers(4, 7))
            lower, upper = one(f, x, r)
            oracle = dense_diam(fn, x, r, Fraction(1, 1 << 16))
            assert lower <= oracle + 1e-12
            assert oracle <= upper + 1e-12
            total += 1
    assert total == 100


# ---------------------------------------------------------------------------
# Batched oscillation against the scalar Fraction oracles


@st.composite
def _functions(draw):
    """A 1-d SampledFunction on a full or partial domain, NaN exactly at the
    vertices of no domain cube, its values drawn from a few that include
    both signed zeros (so constant and two-valued stretches are common)."""
    depth = draw(st.integers(2, 7))
    domain_depth = draw(st.integers(0, min(depth, 3)))
    cubes = draw(st.sets(st.integers(0, (1 << domain_depth) - 1), min_size=1))
    value = st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]),
        st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
    )
    palette = draw(st.lists(value, min_size=1, max_size=4))
    top = 1 << depth
    values = np.array(draw(st.lists(st.sampled_from(palette), min_size=top + 1, max_size=top + 1)))
    span = 1 << (depth - domain_depth)
    on = np.zeros(top + 1, dtype=bool)
    for q in cubes:
        on[q * span : (q + 1) * span + 1] = True
    values[~on] = np.nan
    domain = DyadicCubeSet(1, domain_depth, sorted(cubes))
    return SampledFunction(1, depth, domain, values, HolderModulus(1.0), exact=draw(st.booleans()))


_DYADICS = st.integers(0, 9).flatmap(lambda e: st.integers(0, 1 << e).map(lambda k: k / 2**e))
_RADII = st.one_of(
    st.builds(lambda k, e: k / 2**e, st.integers(1, 1 << 10), st.integers(0, 12)),
    st.floats(min_value=5e-324, max_value=2.0),
)


@st.composite
def _balls(draw):
    """A radius and nondecreasing centers: dyadic ones, as the partition scan
    uses, arbitrary floats, and centers whose ball ends round onto a dyadic
    point (x = g -+ r in floats), where only the exact error decides the
    vertex window."""
    r = draw(_RADII)
    near = st.builds(lambda g, sign: g + sign * r, _DYADICS, st.sampled_from([-1.0, 1.0]))
    x = st.one_of(_DYADICS, st.floats(0.0, 1.0), near).filter(lambda v: 0.0 <= v <= 1.0)
    return sorted(draw(st.lists(x, min_size=1, max_size=6))), r


def _bits(v) -> int:
    return int(np.float64(v).view(np.int64))


@settings(max_examples=500, deadline=None)
@given(_functions(), _balls())
def test_oscillation_1d_matches_scalar_oracle(f, balls):
    xs, r = balls
    expected = []
    for x in xs:
        try:
            expected.append(oscillation_1d(f, x, r))
        except ValueError as err:
            expected.append(str(err))
    errors = [e for e in expected if isinstance(e, str)]
    if errors:
        with pytest.raises(ValueError) as info:
            oscillation(f, np.array(xs), r)
        assert str(info.value) in errors
    else:
        got = oscillation(f, np.array(xs), r)
        for i, (lower, upper) in enumerate(expected):
            assert _bits(got.lower[i]) == _bits(lower)
            assert _bits(got.upper[i]) == _bits(upper)
    # a one-point call gives the same bits
    for x, want in zip(xs, expected):
        if isinstance(want, str):
            with pytest.raises(ValueError, match=re.escape(want)):
                one(f, x, r)
        else:
            lower, upper = one(f, x, r)
            assert (_bits(lower), _bits(upper)) == (_bits(want[0]), _bits(want[1]))


@st.composite
def _functions_2d(draw):
    """A 2-d SampledFunction on a full or partial domain, NaN exactly at the
    vertices of no domain cube, its values drawn as in _functions."""
    depth = draw(st.integers(1, 4))
    side = 1 << draw(st.integers(0, min(depth, 2)))
    cubes = draw(
        st.sets(st.tuples(st.integers(0, side - 1), st.integers(0, side - 1)), min_size=1)
    )
    value = st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]),
        st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
    )
    palette = draw(st.lists(value, min_size=1, max_size=4))
    n = (1 << depth) + 1
    values = np.array(draw(st.lists(st.sampled_from(palette), min_size=n * n, max_size=n * n)))
    values = values.reshape(n, n)
    span = (n - 1) // side
    on = np.zeros((n, n), dtype=bool)
    for q0, q1 in cubes:
        on[q0 * span : (q0 + 1) * span + 1, q1 * span : (q1 + 1) * span + 1] = True
    values[~on] = np.nan
    domain = DyadicCubeSet.from_indices(2, side.bit_length() - 1, sorted(cubes))
    return SampledFunction(2, depth, domain, values, HolderModulus(1.0), exact=draw(st.booleans()))


@st.composite
def _balls_2d(draw):
    """A radius, also one far beyond [0,1], and 2-d centers whose coordinates
    are dyadic, arbitrary, or put a ball end on a dyadic point, so that balls
    clip at 0 and 1."""
    r = draw(st.one_of(_RADII, st.floats(min_value=2.0, max_value=1e300)))
    near = st.builds(lambda g, sign: g + sign * r, _DYADICS, st.sampled_from([-1.0, 1.0]))
    coord = st.one_of(_DYADICS, st.floats(0.0, 1.0), near).filter(lambda v: 0.0 <= v <= 1.0)
    return draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=4)), r


@settings(max_examples=300, deadline=None)
@given(_functions_2d(), _balls_2d())
def test_oscillation_nd_matches_scalar_oracle(f, balls):
    points, r = balls
    expected = []
    for x in points:
        try:
            expected.append(oscillation_nd(f, x, r))
        except ValueError as err:
            expected.append(str(err))
    # the batch raises the first point's error
    first = next((e for e in expected if isinstance(e, str)), None)
    if first is not None:
        with pytest.raises(ValueError, match=re.escape(first)):
            oscillation(f, np.array(points), r)
        return
    got = oscillation(f, np.array(points), r)
    for i, (lower, upper) in enumerate(expected):
        assert _bits(got.lower[i]) == _bits(lower)
        assert _bits(got.upper[i]) == _bits(upper)


@st.composite
def _windows(draw):
    """(values, lo, hi) with lo and hi nondecreasing; a zero length makes an
    empty window unless an earlier window's end carries past it."""
    size = draw(st.integers(1, 40))
    number = st.one_of(st.just(math.nan), st.floats(-1e3, 1e3))
    values = np.array(draw(st.lists(number, min_size=size, max_size=size)))
    count = draw(st.integers(1, 8))
    lo = np.sort(draw(st.lists(st.integers(0, size - 1), min_size=count, max_size=count)))
    lengths = np.array(draw(st.lists(st.integers(0, 6), min_size=count, max_size=count)))
    hi = np.minimum(np.maximum.accumulate(lo + lengths - 1), size - 1)
    return values, lo.astype(np.int64), hi.astype(np.int64)


NAN = math.nan


@settings(max_examples=500, deadline=None)
@given(_windows())
@example((np.array([1.0, 2.0, 3.0, 4.0]), np.array([0, 2]), np.array([1, 3])))  # ends at last
@example((np.array([1.0, NAN, NAN, 4.0]), np.array([0, 1, 3]), np.array([0, 2, 2])))  # all-NaN, empty
@example((np.array([5.0, 1.0, 2.0, 3.0, 0.0]), np.array([1, 2]), np.array([2, 3])))  # view
def test_window_extremes_match_per_window_nan_extremes(windows):
    values, lo, hi = windows
    got_min, got_max = funclib._window_extremes(values, lo, hi)
    for i, (a, b) in enumerate(zip(lo, hi)):
        w = values[a : b + 1]
        if w.size == 0 or np.isnan(w).all():
            assert np.isnan(got_min[i]) and np.isnan(got_max[i])
        else:
            assert got_min[i] == np.nanmin(w) and got_max[i] == np.nanmax(w)


def test_oscillation_nd_counts_a_domain_cell_the_ball_touches_across_a_face():
    # depth 2, Omega = {x0 >= 1/2}; the ball B((1/4, 1/2), 1/4) has the box
    # [0, 1/2] x [1/4, 3/4], whose end x0 = 1/2 is the face of the domain
    # cells (2, 1) and (2, 2): their face points lie in the ball and in Omega
    i0, i1 = np.meshgrid(np.arange(5), np.arange(5), indexing="ij")
    values = (5.0 * i0 + i1).astype(float)
    values[:2] = np.nan
    domain = DyadicCubeSet.from_indices(2, 1, [(1, 0), (1, 1)])
    f = SampledFunction(2, 2, domain, values, HolderModulus(1.0), exact=True)
    assert f.evaluate_many([(0.5, 0.5)])[0] == 12.0
    got = oscillation(f, [[0.25, 0.5]], 0.25)
    # the vertex window reads f(1/2, x1) = 11, 12, 13 at x1 = 1/4, 1/2, 3/4
    assert (got.lower[0], got.upper[0]) == (2.0, 2.0)
    assert oscillation_nd(f, (0.25, 0.5), 0.25) == (2.0, 2.0)
    # the same across the box's lower end: Omega = {x0 <= 1/2}, B((3/4, 1/2), 1/4)
    mirrored = SampledFunction(
        2, 2, DyadicCubeSet.from_indices(2, 1, [(0, 0), (0, 1)]), values[::-1].copy(),
        HolderModulus(1.0), exact=True,
    )
    got = oscillation(mirrored, [[0.75, 0.5]], 0.25)
    assert (got.lower[0], got.upper[0]) == (2.0, 2.0)
    assert oscillation_nd(mirrored, (0.75, 0.5), 0.25) == (2.0, 2.0)


def test_oscillation_rejects_bad_points():
    f = make_test_function("affine", {"c": 1.0}, depth=6)
    with pytest.raises(ValueError, match="outside"):
        oscillation(f, np.array([0.5, 1.5]), 0.1)
    with pytest.raises(ValueError, match="nondecreasing"):
        oscillation(f, np.array([0.5, 0.25]), 0.1)
    with pytest.raises(ValueError, match="radius must be positive"):
        oscillation(f, np.array([0.5]), math.inf)
    for shape in ((0,), (2, 1), ()):
        with pytest.raises(ValueError, match=r"shape \(n,\)"):
            oscillation(f, np.full(shape, 0.5), 0.1)
    g = SampledFunction(2, 4, DyadicCubeSet.full(2, 0), np.zeros((17, 17)), f.modulus, True)
    for shape in ((0, 2), (2,), (2, 3)):
        with pytest.raises(ValueError, match=r"shape \(n, 2\)"):
            oscillation(g, np.full(shape, 0.5), 0.1)
    with pytest.raises(ValueError, match="outside"):
        oscillation(g, np.array([[0.5, 0.5], [0.25, -0.5]]), 0.1)


def test_oscillation_window_follows_the_exact_ball_end():
    # x - r (first) and x + r (second) round onto the vertex 1/2, which the
    # exact ball leaves out; only the TwoSum error moves the window off it.
    # An exact function refuses such a ball, a generator-backed one (whose
    # bracket reads only the window) takes it.
    f = make_test_function("affine", {"c": 1.0}, depth=5)
    g = SampledFunction(1, 5, f.domain, f.values, f.modulus, exact=False)
    for x, r, lower in ((0.8, 0.3, 15 / 32), (0.35, 0.15, 8 / 32)):
        assert Fraction(x) - Fraction(r) != Fraction(1, 2) != Fraction(x) + Fraction(r)
        got = one(g, x, r)
        assert got[0] == lower
        assert got == oscillation_1d(g, x, r)
        with pytest.raises(ValueError, match="not a float"):
            one(f, x, r)


def test_oscillation_counts_a_domain_end_the_ball_touches():
    # Omega = [0, 1/2]; the ball [1/2, 3/4] meets it in the single point 1/2
    f = make_test_function("affine", {"c": 1.0}, depth=4)
    values = f.values.copy()
    values[9:] = np.nan
    half = SampledFunction(1, 4, DyadicCubeSet(1, 1, [0]), values, f.modulus, True)
    assert one(half, 0.625, 0.125) == (0.0, 0.0)
    assert oscillation_1d(half, 0.625, 0.125) == (0.0, 0.0)
    # this ball's end x - r rounds onto 1/2, but the exact ball misses Omega:
    # an exact bracket refuses the inexact end rather than read the rounded one
    for check in (one, oscillation_1d):
        with pytest.raises(ValueError, match=r"B\(\(0.8,\), 0.3\) has an end .* not a float"):
            check(half, 0.8, 0.3)
    # x + r rounds onto 1/2 from above and from below; the bracket of a
    # generator-backed function follows the exact ball
    g = make_test_function("affine", {"c": 1.0}, depth=7)
    values = g.values.copy()
    values[65:] = np.nan
    half = SampledFunction(1, 7, DyadicCubeSet(1, 1, [0]), values, g.modulus, False)
    for x, r in ((0.45, 0.05), (0.35, 0.15)):
        assert list(map(_bits, one(half, x, r))) == list(map(_bits, oscillation_1d(half, x, r)))
    # Omega = [0, 1/4] u [1/2, 3/4] on the depth-2 grid: the gap's two
    # vertices carry values, but a ball inside the gap meets no domain point
    values = np.array([0.0, 1.0, 2.0, 3.0, np.nan])
    gaps = SampledFunction(
        1, 2, DyadicCubeSet(1, 2, [0, 2]), values, f.modulus, True
    )
    for check in (one, oscillation_1d):
        with pytest.raises(ValueError, match="does not meet the domain"):
            check(gaps, 0.375, 0.0625)


# ---------------------------------------------------------------------------
# Scaled oscillation estimates


def test_scaled_osc_affine_both_modes():
    for c in (-2.0, 0.5, 1.0):
        f = make_test_function("affine", {"c": c}, depth=12)
        radii = window(4, 10)
        tol = 2.0 * f.modulus.omega(f.h) / POWER1.eval(min(radii))
        lip = summary(f, 0.5, radii, "lip")
        Lip = summary(f, 0.5, radii, "Lip")
        assert abs(lip - 2.0 * abs(c)) <= tol
        assert abs(Lip - 2.0 * abs(c)) <= tol
        assert Lip <= lip + 1e-12


def test_scaled_osc_constant_zero():
    f = make_test_function("constant", {"value": 2.5}, depth=12)
    assert summary(f, 0.5, window(4, 10), "lip") == 0.0


def test_scaled_osc_entries_ordering():
    f = make_test_function("weierstrass", {}, depth=14)
    w = oscillation_window(f, [0.37], POWER1, window(4, 10))
    assert w.lower.shape == (1, 7)
    for r, lo, hi, rlo, rhi in zip(w.radii, w.lower[0], w.upper[0], w.ratio_lower[0],
                                   w.ratio_upper[0]):
        assert lo <= hi
        assert hi - lo <= 2.0 * f.modulus.omega(f.h) + 1e-15
        assert rlo == pytest.approx(lo / r) and rhi == pytest.approx(hi / r)


def test_lip_proxy_antitone_under_deepening():
    f = make_test_function("affine", {"c": 1.0}, depth=12)
    shallow = summary(f, 0.5, window(4, 9), "lip")
    deep = summary(f, 0.5, window(4, 10), "lip")
    assert deep <= shallow + 1e-15


def test_weierstrass_lip_proxy_monotone_in_depth():
    base = make_test_function("weierstrass", {}, depth=16)
    rng = np.random.default_rng(5)
    points = rng.uniform(0.07, 0.93, size=8)
    last = None
    for depth in (12, 14, 16):
        step = 1 << (16 - depth)
        f = SampledFunction(
            1, depth, base.domain, base.values[::step].copy(), base.modulus, exact=False
        )
        radii = [r for r in window(4, depth - 2) if r >= 4 * f.h]
        proxies = np.array([summary(f, x, radii, "Lip") for x in points])
        if last is not None:
            assert np.all(proxies >= last - 1e-12)
        last = proxies


# ---------------------------------------------------------------------------
# lip field


def test_lip_field_constant_all_zero():
    f = make_test_function("constant", {"value": 1.0}, depth=10)
    field = lip_field(f, POWER1, 0.1, 4, window(4, 9))
    assert set(field.classes) == {"approx-zero"}
    assert len(field.over_tau) == 0


def test_lip_field_affine_all_over():
    f = make_test_function("affine", {"c": 1.0}, depth=10)
    field = lip_field(f, POWER1, 0.1, 4, window(4, 9))
    assert set(field.classes) == {"over"}
    assert len(field.over_tau) == 16


def test_lip_field_invariant_under_constant_shift():
    f = make_test_function("weierstrass", {}, depth=12)
    shifted = SampledFunction(
        1, 12, f.domain, f.values + 3.7, f.modulus, exact=f.exact
    )
    a = lip_field(f, POWER1, 0.5, 4, window(4, 9))
    b = lip_field(shifted, POWER1, 0.5, 4, window(4, 9))
    # oscillation depends on value differences only; float shifts may move
    # the last ulp, so classification is the exact invariant
    assert a.classes == b.classes
    assert a.over_tau == b.over_tau
    for pa, pb in zip(a.proxies, b.proxies):
        assert pa == pytest.approx(pb, rel=1e-9)


def test_lip_field_records_match_the_scalar_oracle_on_a_partial_domain():
    # Omega = 5 of the 8 depth-3 cubes; each (point, radius) bracket of the
    # window is the one-point oracle bracket, bit for bit
    base = make_test_function("weierstrass", {"terms": 8}, depth=10)
    cubes = {0, 1, 3, 4, 6}
    on = np.zeros(base.values.size, dtype=bool)
    for q in cubes:
        on[q * 128 : (q + 1) * 128 + 1] = True
    values = np.where(on, base.values, np.nan)
    domain = DyadicCubeSet(1, 3, sorted(cubes))
    for exact in (True, False):
        f = SampledFunction(1, 10, domain, values, base.modulus, exact)
        field = lip_field(f, POWER1, 0.5, 5, window(3, 8))
        w = field.window
        assert w.points.tolist() == [[(k + 0.5) / 32] for k in range(32) if k // 4 in cubes]
        for i, x in enumerate(w.points[:, 0].tolist()):
            for j, r in enumerate(w.radii.tolist()):
                lo, hi, rlo, rhi = (float(a[i, j]) for a in (w.lower, w.upper, w.ratio_lower,
                                                             w.ratio_upper))
                lower, upper = oscillation_1d(f, x, r)
                assert (_bits(lo), _bits(hi)) == (_bits(lower), _bits(upper))
                assert (rlo, rhi) == (lower / POWER1.eval(r), upper / POWER1.eval(r))


def test_lip_field_needs_coarser_grid():
    f = make_test_function("affine", {}, depth=6)
    with pytest.raises(ValueError):
        lip_field(f, POWER1, 0.1, 5, window(2, 4))


# ---------------------------------------------------------------------------
# Generators


def test_cantor_function_values():
    f = make_test_function("cantor", {}, depth=8)
    tol = f.modulus.omega(f.h)
    assert abs(f.evaluate_many([1 / 3])[0] - 0.5) <= tol
    assert abs(f.evaluate_many([2 / 3])[0] - 0.5) <= tol
    assert f.evaluate_many([1.0])[0] == 1.0
    assert f.evaluate_many([0.0])[0] == 0.0
    # digit-algorithm oracle at dyadic grid points
    for i in (1, 85, 128, 255):
        assert f.values[i] == pytest.approx(cantor_value(Fraction(i, 256)), abs=1e-12)
    # the exact interpolated value at 1/3 against the oracle of its cell corners
    lo, hi = cantor_value(Fraction(85, 256)), cantor_value(Fraction(86, 256))
    t = float(Fraction(1, 3) * 256 - 85)
    assert f.evaluate_many([1 / 3])[0] == pytest.approx(lo + t * (hi - lo), rel=1e-12)


def test_weierstrass_symmetry_and_period():
    f = make_test_function("weierstrass", {"a": 0.5, "b": 3, "terms": 25}, depth=12)
    top = 1 << 12
    for i in (1, 100, 1000, 2047):
        assert f.values[i] == pytest.approx(f.values[top - i], rel=1e-12, abs=1e-12)
    assert f.values[0] == pytest.approx(f.values[top], rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(a=st.floats(0.05, 0.95), b=st.sampled_from([3, 5, 7, 9, 11]), terms=st.integers(1, 30),
       depth=st.integers(0, 14), block=st.sampled_from([3, 64, 1 << 12]))
@example(a=0.5, b=3, terms=25, depth=14, block=1 << 12)
def test_weierstrass_grid_matches_per_term_oracle(a, b, terms, depth, block):
    # the one-table grid, a block of points at a time, reads the same
    # cosines as a np.cos pass per term over the whole grid
    expected = weierstrass_grid_per_term(a, b, terms, depth)
    with mock.patch.object(funclib, "GRID_BLOCK", block):
        got = funclib._weierstrass_grid(a, b, terms, depth)
    assert got.tobytes() == expected.tobytes()


def test_weierstrass_parameter_validation():
    with pytest.raises(ValueError):
        make_test_function("weierstrass", {"a": 1.5})
    with pytest.raises(ValueError):
        make_test_function("weierstrass", {"b": 4})
    with pytest.raises(ValueError):
        make_test_function("weierstrass", {"a": 0.2, "b": 3})  # ab <= 1


def test_adjacent_vertex_modulus_invariant():
    for name, params in (
        ("affine", {"c": -2.0}),
        ("cantor", {}),
        ("weierstrass", {}),
    ):
        f = make_test_function(name, params, depth=10)
        diffs = np.abs(np.diff(f.values))
        assert np.max(diffs) <= f.modulus.omega(f.h) * (1 + 1e-9)


def test_grid_lipschitz_exactness():
    f = make_test_function("affine", {"c": -2.0}, depth=8)
    assert f.grid_lipschitz() == pytest.approx(2.0, rel=1e-12)


def test_resample_preserves_interpolant():
    f = make_test_function("affine", {"c": 1.0}, depth=6)
    g = f.resample(9)
    assert g.depth == 9
    for x in (0.1, 0.33, 0.875):
        assert g.evaluate_many([x])[0] == pytest.approx(f.evaluate_many([x])[0], rel=1e-15)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 8), st.integers(1, 4), st.sampled_from([1, 3, 64, 1 << 16]),
       st.integers(0, 2**32 - 1), st.booleans())
def test_resample_blocks_match_linspace_oracle(depth, extra, block, seed, with_nan):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(1 << depth) + 1)
    if with_nan:
        values[rng.random(values.size) < 0.2] = np.nan
    f = SampledFunction(1, depth, DyadicCubeSet.full(1, 0), values, HolderModulus(1.0), True)
    with mock.patch.object(funclib, "GRID_BLOCK", block):
        g = f.resample(depth + extra)
    assert g.values.tobytes() == resample_linspace(values, depth + extra).tobytes()
    assert f.resample(depth) is f


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 2), st.integers(0, 6), st.sampled_from([1, 3, 64, 1 << 16]),
       st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.3, 1.0]))
def test_grid_lipschitz_blocks_match_whole_axis_oracle(dim, depth, block, seed, nan_share):
    # the first axis's differences cross the block edges; an all-NaN axis counts 0
    rng = np.random.default_rng(seed)
    values = rng.normal(size=((1 << depth) + 1,) * dim)
    values[rng.random(values.shape) < nan_share] = np.nan
    f = SampledFunction(dim, depth, DyadicCubeSet.full(dim, 0), values, HolderModulus(1.0))
    with mock.patch.object(funclib, "GRID_BLOCK", block):
        assert f.grid_lipschitz() == grid_lipschitz_whole(values, f.h)


@pytest.mark.parametrize("line", [
    "modulus holder -1 0.5", "modulus holder nan 0.5", "modulus holder inf 0.5",
    "modulus holder 1 0", "modulus holder 1 -0.5", "modulus holder 1 nan", "modulus holder 1 inf",
    "modulus table 1 -1", "modulus table 1 nan", "modulus table 0.5 0 1 inf",
])
def test_fn_modulus_line_is_validated(tmp_path, line):
    path = tmp_path / "m.fn"
    save_function(path, make_test_function("affine", {"c": 1.0}, depth=4))
    text = path.read_text()
    assert "modulus holder 1 1\n" in text
    for ok in ("modulus holder 0 1", "modulus table 1 0"):  # a zero bound is a bound
        path.write_text(text.replace("modulus holder 1 1\n", ok + "\n"))
        assert load_function(path).modulus.omega(0.5) == 0.0
    path.write_text(text.replace("modulus holder 1 1\n", line + "\n"))
    with pytest.raises(FormatError, match="modulus"):
        load_function(path)


# ---------------------------------------------------------------------------
# File format


def test_function_round_trip(tmp_path):
    f = make_test_function("weierstrass", {"a": 0.5, "b": 3, "terms": 12}, depth=8)
    path = tmp_path / "w.fn"
    save_function(path, f)
    g = load_function(path)
    assert g.dim == f.dim and g.depth == f.depth and g.exact == f.exact
    assert np.array_equal(g.values, f.values)
    assert isinstance(g.modulus, HolderModulus)
    assert g.modulus == f.modulus
    assert g.domain == f.domain


def test_function_round_trip_exact_flag(tmp_path):
    f = make_test_function("affine", {"c": 1.0}, depth=6)
    assert f.exact
    path = tmp_path / "a.fn"
    save_function(path, f)
    assert load_function(path).exact


def test_function_round_trip_table_modulus(tmp_path):
    from liplab.funclib import TableModulus

    base = make_test_function("constant", {"value": 0.25}, depth=4)
    table = TableModulus((0.25, 0.5, 1.0), (0.0, 0.0, 0.0))
    f = SampledFunction(1, 4, base.domain, base.values, table, exact=False)
    path = tmp_path / "t.fn"
    save_function(path, f)
    g = load_function(path)
    assert isinstance(g.modulus, TableModulus)
    assert g.modulus == table
    assert g.modulus.omega(0.3) == 0.0


def test_function_round_trip_partial_domain(tmp_path):
    half = DyadicCubeSet.from_indices(1, 1, [(0,)])
    values = np.where(np.linspace(0, 1, 17) <= 0.5, np.linspace(0, 1, 17), np.nan)
    f = SampledFunction(1, 4, half, values, HolderModulus(1.0, 1.0), exact=True)
    path = tmp_path / "h.fn"
    save_function(path, f)
    g = load_function(path)
    assert g.domain == half
    assert np.array_equal(np.isnan(g.values), np.isnan(f.values))
    assert np.allclose(g.values[:9], f.values[:9])
    assert g.evaluate_many([0.25])[0] == pytest.approx(0.25)
    with pytest.raises(ValueError):
        g.evaluate_many([0.75])


def test_function_round_trip_2d(tmp_path):
    grid = np.linspace(0.0, 1.0, 5)
    values = grid[:, None] * 2.0 + grid[None, :]
    f = SampledFunction(
        2, 2, DyadicCubeSet.full(2, 0), values, HolderModulus(3.0, 1.0), exact=True
    )
    path = tmp_path / "p.fn"
    save_function(path, f)
    g = load_function(path)
    assert g.dim == 2 and np.array_equal(g.values, values)
    assert g.evaluate_many([(0.5, 0.25)])[0] == pytest.approx(1.25)


_FN_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.5, 1 / 3, 0.1, 5e-324, 1e300, math.inf, -math.inf,
                     math.nan]),
    st.floats(),
)


@st.composite
def _runs_functions(draw):
    """A SampledFunction on the full depth-0 domain whose values, in file
    order, are runs of a few lengths drawn from a pool with -0.0 and 0.0."""
    dim = draw(st.sampled_from([1, 1, 2]))
    depth = draw(st.integers(0, 6 if dim == 1 else 3))
    n = (1 << depth) + 1
    runs = draw(st.lists(st.tuples(_FN_VALUES, st.integers(1, 12)), min_size=1, max_size=24))
    flat = np.repeat([v for v, _ in runs], [k for _, k in runs])
    values = np.resize(flat, n**dim).reshape((n,) * dim)  # the runs again, cyclically
    modulus = HolderModulus(draw(st.sampled_from([0.0, 1.0, 2.5])), 1.0)
    return SampledFunction(dim, depth, DyadicCubeSet.full(dim, 0), values, modulus,
                           draw(st.booleans()))


def _all_bits(values: np.ndarray) -> list[int]:
    return values.ravel().view(np.uint64).tolist()


@settings(max_examples=200, deadline=None)
@given(_runs_functions(), st.integers(1, 40), st.integers(1, 300), st.integers(1, 20))
def test_fn_io_matches_one_pass_oracle(tmp_path_factory, f, block, chunk, probe):
    # small write blocks and read chunks put runs and lines across their
    # boundaries; a block of one value is a run by itself.  The codec is
    # checked on every float, the value check left out
    path = tmp_path_factory.getbasetemp() / "runs.fn"
    with mock.patch.multiple(funclib, GRID_BLOCK=block, _READ_CHUNK=chunk, _RUN_PROBE=probe,
                             _check_values=lambda *args: None):
        save_function(path, f)
        g = load_function(path)
    assert path.read_bytes() == fn_text_one_pass(f).encode()
    values, modulus, exact = fn_read_line_by_line(path)
    assert _all_bits(g.values) == _all_bits(values)
    on = ~np.isnan(f.values)  # every NaN is written as "nan", payload dropped
    assert _all_bits(g.values[on]) == _all_bits(f.values[on]) and np.isnan(g.values[~on]).all()
    assert g.modulus.serialize() == modulus and g.exact == exact == f.exact
    # on the full domain every vertex is a domain vertex: load_function
    # refuses the first one whose value is not finite
    bad = np.flatnonzero(~np.isfinite(f.values.ravel()))
    if bad.size:
        vertex = tuple(int(i) for i in np.unravel_index(bad[0], f.values.shape))
        with pytest.raises(FormatError, match=re.escape(f"at vertex {vertex};")):
            load_function(path)


def test_fn_and_set_writers_hold_a_chunk_at_a_time(tmp_path):
    # run heads are found and values formatted per GRID_BLOCK chunk, and a
    # .set is formatted a GRID_BLOCK of cubes at a time, so neither writer
    # holds as much as what it writes: the 0.5 MB depth-16 Weierstrass grid
    # peaked at 1.9 MB traced when the run heads spanned the grid, and the
    # 32,768 cubes of a depth-16 raster at 1.9 MB in 2^16-cube chunks
    f = make_test_function("weierstrass", dict(a=0.5, b=3, terms=25), 16)
    E = DyadicCubeSet(1, 18, np.arange(0, 1 << 18, 2))
    for write, path, data in ((save_function, "w.fn", f), (save_cubes, "e.set", E)):
        tracemalloc.start()
        try:
            write(tmp_path / path, data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = f.values.nbytes if data is f else E.keys.nbytes
        assert peak < size, (path, peak / size)


def test_fn_io_runs_across_default_block_and_chunk(tmp_path):
    # 2^17 + 1 values: plateaus across the GRID_BLOCK-value write blocks and
    # the read chunks, a distinct stretch, and -0.0 next to 0.0
    n = (1 << 17) + 1
    values = np.repeat([0.25, -0.0, 0.0, 1 / 3, 0.25], [65_000, 1000, 1, 3000, 0])[:n]
    values = np.r_[values, np.sin(np.arange(40_000.0)), np.full(n, 0.1)][:n]
    f = SampledFunction(1, 17, DyadicCubeSet.full(1, 0), values, HolderModulus(1.0))
    save_function(tmp_path / "big.fn", f)
    assert (tmp_path / "big.fn").read_bytes() == fn_text_one_pass(f).encode()
    g = load_function(tmp_path / "big.fn")
    oracle = fn_read_line_by_line(tmp_path / "big.fn")[0]
    assert _all_bits(g.values) == _all_bits(oracle) == _all_bits(values)


def test_fn_reader_takes_any_float_literal(tmp_path):
    # 2^3 + 1 value lines: spellings of one value, a repeat, blanks around a
    # number, and LF or CRLF line ends.  The domain is [0, 1/2], so the nan
    # at vertex 6 lies off it
    literals = ["1", "1.0", " 2.5 ", "1e0", "1e0", "-0", "nan", "+7", "1_0"]
    body = ("d 1 m 3 domain 1\ndomain_depth 1\n0\nvalues\n" + "\n".join(literals)
            + "\nmodulus holder 1 1\n")
    for name, text in (("lf.fn", body), ("crlf.fn", body.replace("\n", "\r\n"))):
        (tmp_path / name).write_bytes(text.encode())
        assert _all_bits(load_function(tmp_path / name).values) == _all_bits(
            np.array([float(x) for x in literals]))


@pytest.mark.parametrize("chunk", [5, 1 << 20])
def test_fn_malformed_values_raise_format_error(tmp_path, monkeypatch, chunk):
    values = np.repeat([0.5, 0.25, 0.75], [20, 20, 25])
    f = SampledFunction(1, 6, DyadicCubeSet.full(1, 0), values, HolderModulus(1.0))
    lines = fn_text_one_pass(f).splitlines(keepends=True)
    first = lines.index("values\n") + 1
    modulus = lines[-1]
    bad = {
        "truncated.fn": lines[: first + 30],
        "truncated-modulus.fn": lines[: first + 30] + [modulus],
        "blank.fn": lines[:first] + ["\n"] + lines[first + 1 :],
        "blank-in-run.fn": lines[: first + 5] + ["\n"] + lines[first + 6 :],
        "spaces.fn": lines[: first + 5] + ["  \n"] + lines[first + 6 :],
        "token.fn": lines[: first + 21] + ["abc\n"] + lines[first + 22 :],
        "nomodulus.fn": lines[:-1],
        "deep.fn": ["d 1 m 40 domain 1\n", "domain_depth 0\n", "0\n", "values\n", "0\n",
                    modulus],
    }
    monkeypatch.setattr(funclib, "_READ_CHUNK", chunk)
    for name, body in bad.items():
        (tmp_path / name).write_text("".join(body))
        with pytest.raises(FormatError):
            load_function(tmp_path / name)
        assert main(["analyze", str(tmp_path / name)]) == 2, name
