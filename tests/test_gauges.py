import dataclasses
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from liplab.gauges import (
    Gauge,
    GaugeDomainError,
    GaugeSpecError,
    Pseudogauge,
    format_gauge,
    make_preset,
    parse_gauge,
    parse_spec,
    verify_schizm_relation,
)
from oracles import table_gauge_step


def dyadic_scales(lo: int, hi: int) -> list[float]:
    """Scales 2^-lo .. 2^-hi, decreasing."""
    return [2.0**-j for j in range(lo, hi + 1)]


def test_power_closed_form():
    g = make_preset("power", s=2)
    assert g.eval(0.5) == 0.25
    assert g.eval(1.0) == 1.0


def test_power_is_identity_for_s1():
    g = make_preset("power", s=1)
    for r in (1.0, 0.25, 2.0**-30):
        assert g.eval(r) == r


def test_inv_log_formula_and_plateau():
    g = make_preset("inv_log")
    assert abs(g.eval(math.exp(-9)) - 1.0 / 9.0) <= 1e-12 / 9.0
    assert g.eval(1.0 / math.e) == pytest.approx(1.0, rel=1e-12)
    assert g.eval(0.5) == 1.0
    assert g.eval(1.0) == 1.0


def test_super_power_values():
    g = make_preset("super_power")
    assert g.eval(0.1) == pytest.approx(1e-10, rel=1e-12)
    assert g.eval(0.5) == pytest.approx(0.25, rel=1e-12)


def test_super_power_underflow_is_domain_error():
    g = make_preset("super_power")
    with pytest.raises(GaugeDomainError):
        g.eval(2.0**-12)


def test_exp_sqrt_log_against_extended_precision():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    g = make_preset("exp_sqrt_log", d=2)
    r = 2.0**-36
    got = g.eval(r)
    rr = mp.mpf(2) ** -36
    want = mp.exp(-mp.sqrt(abs(mp.log(rr)))) * rr
    assert abs(got - float(want)) <= 1e-12 * float(want)
    # the ratio to r^(d-1) at this scale
    assert got / r == pytest.approx(6.77e-3, rel=1e-2)


def test_domain_errors():
    g = make_preset("power", s=1)
    with pytest.raises(GaugeDomainError):
        g.eval(0.0)
    with pytest.raises(GaugeDomainError):
        g.eval(-0.5)
    with pytest.raises(GaugeDomainError):
        g.eval(1.5)


def test_preset_validation():
    with pytest.raises(GaugeSpecError):
        make_preset("power", s=-1)
    with pytest.raises(GaugeSpecError):
        make_preset("exp_sqrt_log", d=0.5)
    with pytest.raises(GaugeSpecError):
        make_preset("nope")
    with pytest.raises(GaugeSpecError):
        make_preset("inv_log", s=2)


def test_gauge_is_a_kind_and_its_parameters():
    assert [f.name for f in dataclasses.fields(Gauge)] == ["kind", "params"]
    table = make_preset("table", rs=(0.25, 0.5), gs=(0.1, 0.3))
    assert table.params == (("rs", (0.25, 0.5)), ("gs", (0.1, 0.3)))
    assert table.r_min == 0.25


def test_overflow_is_domain_error():
    # parsing evaluates nothing; the power overflows at 0.5 and underflows to 0 at 2^-12
    g = parse_gauge("power(s=1000,scale=1000)")
    with pytest.raises(GaugeDomainError, match=r"power\(s=1000,scale=1000\) overflows at r=0.5"):
        g.eval(0.5)
    value = g.eval(2.0**-10)
    assert isinstance(value, float) and value > 0.0
    with pytest.raises(GaugeDomainError, match="non-positive"):
        g.eval(2.0**-12)
    with pytest.raises(GaugeDomainError, match="overflows"):
        parse_gauge("power(s=2,scale=1e308)").eval(0.5)


def test_right_continuity_proxy():
    presets = [
        make_preset("power", s=1),
        make_preset("power", s=2, scale=0.2),
        make_preset("inv_log"),
        make_preset("exp_sqrt_log", d=2),
    ]
    for g in presets:
        for r in dyadic_scales(1, 40):
            above = math.nextafter(r, math.inf)
            assert abs(g.eval(above) - g.eval(r)) <= 1e-9 * g.eval(r)
    sp = make_preset("super_power")
    for r in dyadic_scales(1, 7):  # super_power underflows deeper
        above = math.nextafter(r, math.inf)
        assert abs(sp.eval(above) - sp.eval(r)) <= 1e-9 * sp.eval(r)


def test_table_gauge_right_continuous_steps():
    g = make_preset("table", rs=(0.125, 0.25, 0.5), gs=(0.1, 0.2, 0.4))
    assert g.eval(0.125) == 0.1
    assert g.eval(0.2) == 0.1
    assert g.eval(0.25) == 0.2
    assert g.eval(0.9) == 0.4
    with pytest.raises(GaugeDomainError):
        g.eval(0.1)  # below the first knot


def test_pseudogauge_m0_matches_base():
    import random

    rng = random.Random(0)
    base = make_preset("exp_sqrt_log", d=2)
    zeta = Pseudogauge(base, 0)
    for _ in range(1000):
        r = math.exp(rng.uniform(math.log(1e-12), 0.0))
        assert abs(zeta.eval(r) - base.eval(r)) <= 1e-12 * base.eval(r)


def test_pseudogauge_formula_and_domain():
    base = make_preset("power", s=2)
    zeta = Pseudogauge(base, 1)
    r = 0.25
    assert zeta.eval(r) == pytest.approx((r * math.sqrt(2)) ** 2 / r, rel=1e-12)
    assert zeta.r_max == pytest.approx(1 / math.sqrt(2))
    with pytest.raises(GaugeDomainError):
        zeta.eval(0.9)


def test_pseudogauge_underflow_and_overflow_are_domain_errors():
    # r**m underflows to 0.0: no raw ZeroDivisionError
    zeta = Pseudogauge(make_preset("power", s=1), 400)
    for r in (1e-3, 1e-300, 5e-324):
        with pytest.raises(GaugeDomainError, match=f"r\\*\\*400 underflows to 0.0 at r={r!r}"):
            zeta.eval(r)
    # a subnormal r**m with a quotient past the float range is refused as well
    assert 0.0 < 2e-11**30 < 1e-320
    with pytest.raises(GaugeDomainError, match="overflows at r=2e-11"):
        Pseudogauge(make_preset("power", s=1), 30).eval(2e-11)
    assert Pseudogauge(make_preset("power", s=1), 2).eval(1e-3) == pytest.approx(
        math.sqrt(3) * 1e3, rel=1e-12
    )


def test_schizm_equality_passes():
    xi = make_preset("power", s=1)
    phi = make_preset("power", s=2, scale=0.2)  # phi(r) = (r/5)^2
    assert verify_schizm_relation(xi, phi, 1, dyadic_scales(3, 20)) is None
    for r in dyadic_scales(3, 20):
        assert xi.eval(phi.eval(5.0 * r)) == pytest.approx(r**2, rel=1e-12)


def test_schizm_violation_reports_first_scale():
    xi = make_preset("power", s=1)
    phi = make_preset("power", s=1)
    # xi(phi(0.5)) = 0.5 > 0.01
    assert verify_schizm_relation(xi, phi, 1, [0.1, 0.05]) == 0.1


def test_schizm_higher_dimension_equality():
    # xi = r^2, phi(r) = (r/5)^((d+1)/2), d = 3: xi(phi(5r)) = r^(d+1) exactly
    d = 3
    xi = make_preset("power", s=2)
    phi = make_preset("power", s=(d + 1) / 2, scale=0.2)
    assert verify_schizm_relation(xi, phi, d, dyadic_scales(3, 16)) is None
    for r in dyadic_scales(3, 16):
        assert xi.eval(phi.eval(5.0 * r)) == pytest.approx(r ** (d + 1), rel=1e-12)


def test_exp_sqrt_log_ratio_monotone_and_vanishing():
    d = 2
    g = make_preset("exp_sqrt_log", d=d)
    ratios = [g.eval(r) / r ** (d - 1) for r in dyadic_scales(1, 50)]
    assert all(b < a for a, b in zip(ratios, ratios[1:]))
    # e^{-sqrt|ln r|} needs very deep scales to cross small thresholds:
    # below c takes |ln r| > (ln 1/c)^2, so witness on a sparse deep grid
    deep = [2.0 ** -(8 * j) for j in range(1, 101)]
    deep_ratios = [g.eval(r) / r ** (d - 1) for r in deep]
    assert all(b < a for a, b in zip(deep_ratios, deep_ratios[1:]))
    for c in (0.1, 0.01, 1e-3, 1e-6):
        witness = next((r for r, q in zip(deep, deep_ratios) if q < c), None)
        assert witness is not None, f"no scanned witness below c={c}"


def test_super_power_below_powers_with_threshold():
    g = make_preset("super_power")
    for s in (1, 2, 10):
        r_star = 1.0 / s  # eval(r) < r^s exactly when r < 1/s
        for r in dyadic_scales(1, 7):
            if r < r_star:
                assert g.eval(r) < r**s
        above = min((r for r in dyadic_scales(0, 7) if r > r_star), default=None)
        if above is not None and above <= 1.0:
            assert g.eval(above) >= above**s


def test_format_parse_round_trip():
    specs = ["power(s=1)", "power(s=2,scale=0.2)", "exp_sqrt_log(d=2)", "inv_log", "super_power"]
    for spec in specs:
        g = parse_gauge(spec)
        again = parse_gauge(format_gauge(g))
        assert again == g
    table = make_preset("table", rs=(0.25, 0.5), gs=(0.1, 0.3))
    assert parse_gauge(format_gauge(table)) == table
    with pytest.raises(GaugeSpecError):
        parse_gauge("power[s=1]")


def _floats(lo, hi):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False)


@st.composite
def _tables(draw):
    rs = sorted(draw(st.lists(_floats(1e-9, 1.0), min_size=1, max_size=5, unique=True)))
    gs = draw(st.lists(_floats(1e-9, 1e3), min_size=len(rs), max_size=len(rs)))
    return make_preset("table", rs=tuple(rs), gs=tuple(gs))


_POWERS = st.builds(
    lambda s, c: make_preset("power", s=s, scale=c), _floats(1e-3, 8.0), _floats(1e-3, 1e3)
)
_EXP_SQRT_LOGS = st.builds(lambda d: make_preset("exp_sqrt_log", d=d), _floats(1.0, 50.0))


@given(st.one_of(_POWERS, _EXP_SQRT_LOGS, _tables()))
def test_format_gauge_is_lossless(g):
    assert parse_gauge(format_gauge(g)) == g


@given(_tables(), st.lists(_floats(1e-9, 1.0), max_size=5))
def test_table_eval_matches_knot_scan(g, extra):
    rs, gs = g.param("rs"), g.param("gs")
    near = [math.nextafter(x, t) for x in rs for t in (0.0, 2.0)]
    for r in [*rs, *near, *extra]:
        if r < rs[0] or r > 1.0:
            with pytest.raises(GaugeDomainError):
                g.eval(r)
        else:
            assert g.eval(r) == table_gauge_step(rs, gs, r)


def test_format_gauge_keeps_short_form():
    assert format_gauge(parse_gauge("power(s=2,scale=0.2)")) == "power(s=2,scale=0.2)"
    assert format_gauge(parse_gauge("power(s=0.1)")) == "power(s=0.1)"
    assert format_gauge(parse_gauge("power(s=1.0000001)")) == "power(s=1.0000001)"


def test_parse_spec_grammar():
    assert parse_spec("affine") == ("affine", {})
    assert parse_spec(" affine( c = 2 , intercept=-1e-3, ) ") == (
        "affine", {"c": 2.0, "intercept": -0.001}
    )
    assert parse_spec("table(rs=0.25:0.5,gs=1)") == ("table", {"rs": (0.25, 0.5), "gs": 1.0})
    for bad in ("affine(c)", "affine(c=abc)", "affine(=1)", "affine[c=1]", "Affine(c=1)",
                "table(rs=0.25:x,gs=1)"):
        with pytest.raises(GaugeSpecError):
            parse_spec(bad)


def test_parse_gauge_rejects_lists_for_scalars():
    with pytest.raises(GaugeSpecError, match="one number"):
        parse_gauge("power(s=1:2)")
    assert parse_gauge("table(rs=0.5,gs=2)") == make_preset("table", rs=(0.5,), gs=(2.0,))
