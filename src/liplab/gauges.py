"""Evaluable gauges and pseudogauges for scaled-oscillation and measure work.

A gauge is a non-decreasing, right-continuous scale function g with g(r) > 0
for r > 0; a pseudogauge only needs right-continuity and positivity.  Gauges
here are closed forms (plus an optional sampled table) restricted to a finite
domain (0, r_max].  Monotonicity and decay-to-zero are certified by a scan
over a dyadic grid at construction time and stored as flags; no limit claims
are made beyond the scanned scales.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Sequence

__all__ = [
    "Gauge",
    "Pseudogauge",
    "GaugeDomainError",
    "GaugeSpecError",
    "make_preset",
    "compare_gauges",
    "verify_schizm_relation",
    "format_gauge",
    "parse_gauge",
    "parse_spec",
    "dyadic_scales",
]

# dyadic grid used to certify the monotone / vanishing flags at construction
_FLAG_SCAN = [2.0 ** -j for j in range(1, 51)]


class GaugeDomainError(ValueError):
    """Scale argument outside a gauge's definition domain."""


class GaugeSpecError(ValueError):
    """Malformed preset name, parameters, or textual gauge form."""


def dyadic_scales(lo: int, hi: int) -> list[float]:
    """Scales 2^-lo .. 2^-hi, decreasing."""
    return [2.0 ** -j for j in range(lo, hi + 1)]


@dataclass(frozen=True)
class Gauge:
    """One evaluable scale function.

    `monotone` and `vanishes_at_zero` are set only after the construction-time
    scan confirmed the property on every evaluated grid scale; they certify
    nothing beyond that grid.
    """

    kind: str
    params: tuple[tuple[str, float], ...] = ()
    r_max: float = 1.0
    monotone: bool = field(default=False, compare=False)
    vanishes_at_zero: bool = field(default=False, compare=False)

    def param(self, name: str, default: float | None = None) -> float:
        for key, value in self.params:
            if key == name:
                return value
        if default is None:
            raise GaugeSpecError(f"gauge {self.kind} missing parameter {name!r}")
        return default

    @property
    def r_min(self) -> float:
        if self.kind == "table":
            return self._table()[0][0]
        return 0.0

    def _table(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        rs = tuple(v for k, v in self.params if k.startswith("r"))
        gs = tuple(v for k, v in self.params if k.startswith("g"))
        return rs, gs

    def _eval_unchecked(self, r: float) -> float:
        if self.kind == "power":
            return (self.param("scale", 1.0) * r) ** self.param("s")
        if self.kind == "exp_sqrt_log":
            d = self.param("d")
            return math.exp(-math.sqrt(abs(math.log(r)))) * r ** (d - 1.0)
        if self.kind == "inv_log":
            if r <= 1.0 / math.e:
                return 1.0 / abs(math.log(r))
            return 1.0
        if self.kind == "super_power":
            t = math.log(r) / r
            if t < -740.0:
                raise GaugeDomainError(
                    f"super_power underflows at r={r!r}; not representable as a positive float"
                )
            return math.exp(t)
        if self.kind == "table":
            rs, gs = self._table()
            # right-continuous step: value of the largest knot <= r
            idx = 0
            for i, knot in enumerate(rs):
                if knot <= r:
                    idx = i
                else:
                    break
            return gs[idx]
        raise GaugeSpecError(f"unknown gauge kind {self.kind!r}")

    def eval(self, r: float) -> float:
        if not (r > 0.0) or r > self.r_max or r < self.r_min:
            raise GaugeDomainError(
                f"r={r!r} outside domain ({self.r_min}, {self.r_max}] of {format_gauge(self)}"
            )
        value = self._eval_unchecked(r)
        if not (value > 0.0 and math.isfinite(value)):
            raise GaugeDomainError(
                f"{format_gauge(self)} evaluated to non-positive/non-finite {value!r} at r={r!r}"
            )
        return value

    __call__ = eval


@dataclass(frozen=True)
class Pseudogauge:
    """zeta(r) = base(r * sqrt(m+1)) / r^m, the codimension-m pseudogauge."""

    base: Gauge
    m: int = 0

    def __post_init__(self) -> None:
        if self.m < 0:
            raise GaugeSpecError("codimension m must be nonnegative")

    @property
    def r_max(self) -> float:
        return self.base.r_max / math.sqrt(self.m + 1)

    @property
    def r_min(self) -> float:
        return self.base.r_min / math.sqrt(self.m + 1)

    @property
    def kind(self) -> str:
        return f"pseudo[{self.base.kind},m={self.m}]"

    def eval(self, r: float) -> float:
        if not (r > 0.0) or r > self.r_max:
            raise GaugeDomainError(f"r={r!r} outside domain (0, {self.r_max}] of {self.kind}")
        if self.m == 0:
            return self.base.eval(r)
        return self.base.eval(r * math.sqrt(self.m + 1)) / r**self.m

    __call__ = eval


GaugeLike = Gauge | Pseudogauge


def _scan_flags(g: Gauge) -> tuple[bool, bool]:
    values = []
    for r in _FLAG_SCAN:
        if r > g.r_max or r < g.r_min:
            continue
        try:
            values.append(g._eval_unchecked(r))
        except GaugeDomainError:
            break
    if len(values) < 2:
        return False, False
    monotone = all(b <= a for a, b in zip(values, values[1:]))
    # finite-scale decay proxy: halved across the scan and still falling
    vanishes = monotone and values[-1] < 0.5 * values[0] and values[-1] < values[-2]
    return monotone, vanishes


def make_preset(name: str, **params: float | tuple[float, ...]) -> Gauge:
    """Build one of the preset gauges; logs are natural throughout."""
    if name != "table" and any(isinstance(v, tuple) for v in params.values()):
        raise GaugeSpecError(f"{name} parameters take one number each, not a list")
    if name == "power":
        s = float(params.pop("s", 1.0))
        scale = float(params.pop("scale", 1.0))
        if params:
            raise GaugeSpecError(f"unknown power parameters {sorted(params)}")
        if s <= 0 or scale <= 0:
            raise GaugeSpecError("power gauge needs s > 0 and scale > 0")
        items: tuple[tuple[str, float], ...] = (("s", s),)
        if scale != 1.0:
            items += (("scale", scale),)
        g = Gauge("power", items)
    elif name == "exp_sqrt_log":
        d = float(params.pop("d", 1.0))
        if params:
            raise GaugeSpecError(f"unknown exp_sqrt_log parameters {sorted(params)}")
        if d < 1:
            raise GaugeSpecError("exp_sqrt_log needs dimension d >= 1")
        g = Gauge("exp_sqrt_log", (("d", d),))
    elif name == "inv_log":
        if params:
            raise GaugeSpecError("inv_log takes no parameters")
        g = Gauge("inv_log")
    elif name == "super_power":
        if params:
            raise GaugeSpecError("super_power takes no parameters")
        g = Gauge("super_power")
    elif name == "table":
        rs = params.pop("rs", None)
        gs = params.pop("gs", None)
        if params or rs is None or gs is None:
            raise GaugeSpecError("table gauge needs rs=<knots> and gs=<values>")
        # a one-knot table has scalar rs/gs
        rs = (float(rs),) if isinstance(rs, (int, float)) else tuple(map(float, rs))
        gs = (float(gs),) if isinstance(gs, (int, float)) else tuple(map(float, gs))
        if len(rs) != len(gs) or not rs:
            raise GaugeSpecError("table gauge needs matching nonempty knot/value lists")
        if any(b <= a for a, b in zip(rs, rs[1:])):
            raise GaugeSpecError("table knots must be strictly increasing")
        if any(v <= 0 for v in gs):
            raise GaugeSpecError("table values must be positive")
        items = tuple((f"r{i}", r) for i, r in enumerate(rs)) + tuple(
            (f"g{i}", v) for i, v in enumerate(gs)
        )
        g = Gauge("table", items)
    else:
        raise GaugeSpecError(f"unknown preset {name!r}")
    monotone, vanishes = _scan_flags(g)
    return Gauge(g.kind, g.params, g.r_max, monotone, vanishes)


def gauge_at_diameter(g: GaugeLike, diam: float) -> float:
    """g(diam) with the gauge axiom g(0) = 0 applied for degenerate sets."""
    if diam == 0.0:
        return 0.0
    return g.eval(diam)


@dataclass(frozen=True)
class GaugeComparison:
    """Finite-scale proxy for the ordering phi <= psi (never a proof)."""

    scales: tuple[float, ...]
    ratios: tuple[float, ...]
    tail_running_max: tuple[float, ...]
    verdict: str  # bounded-tail | diverging-tail | vanishing-tail
    note: str = "finite-scale proxy, not a proof"


def compare_gauges(phi: GaugeLike, psi: GaugeLike, scales: Sequence[float]) -> GaugeComparison:
    """Ratio report psi(r)/phi(r) over a decreasing scale grid.

    The verdict compares the deepest-half endpoints by a factor of two; it is
    a labeled proxy for the r -> 0 limsup, nothing stronger.
    """
    scales = list(scales)
    if len(scales) < 8:
        raise GaugeSpecError("need at least 8 scales")
    if any(b >= a for a, b in zip(scales, scales[1:])):
        raise GaugeSpecError("scales must be strictly decreasing")
    if scales[0] / scales[-1] < 1e6:
        raise GaugeSpecError("scales must span at least 6 orders of magnitude")
    ratios = [psi.eval(r) / phi.eval(r) for r in scales]
    tail = ratios[len(ratios) // 2 :]
    running = []
    best = -math.inf
    for value in reversed(tail):
        best = max(best, value)
        running.append(best)
    running.reverse()
    if tail[-1] > 2.0 * tail[0]:
        verdict = "diverging-tail"
    elif tail[-1] < 0.5 * tail[0]:
        verdict = "vanishing-tail"
    else:
        verdict = "bounded-tail"
    return GaugeComparison(tuple(scales), tuple(ratios), tuple(running), verdict)


@dataclass(frozen=True)
class SchizmReport:
    """Per-scale check of xi(phi(5r)) <= r^(d+1)."""

    ok: bool
    first_violation: float | None
    entries: tuple[tuple[float, float, float, float], ...]  # (r, phi(5r), xi(phi(5r)), r^(d+1))


def verify_schizm_relation(
    xi: GaugeLike, phi: GaugeLike, d: int, scales: Sequence[float]
) -> SchizmReport:
    entries = []
    first_violation = None
    for r in scales:
        phi5 = phi.eval(5.0 * r)
        lhs = xi.eval(phi5)
        rhs = r ** (d + 1)
        entries.append((r, phi5, lhs, rhs))
        if lhs > rhs and first_violation is None:
            first_violation = r
    return SchizmReport(first_violation is None, first_violation, tuple(entries))


_SPEC_RE = re.compile(r"^\s*([a-z_]+)\s*(?:\(([^)]*)\))?\s*$")


def _format_number(v: float) -> str:
    """%g when it reads back as the same float, else repr (lossless)."""
    return f"{v:g}" if float(f"{v:g}") == v else repr(v)


def format_gauge(g: GaugeLike) -> str:
    """One-line textual form `kind(param=value,...)` used in CLI flags and reports."""
    if isinstance(g, Pseudogauge):
        return f"pseudo(base={format_gauge(g.base)},m={g.m})"
    if g.kind == "table":
        rs, gs = g._table()
        rtxt = ":".join(repr(v) for v in rs)
        gtxt = ":".join(repr(v) for v in gs)
        return f"table(rs={rtxt},gs={gtxt})"
    if not g.params:
        return g.kind
    inner = ",".join(f"{k}={_format_number(v)}" for k, v in g.params)
    return f"{g.kind}({inner})"


def parse_spec(text: str) -> tuple[str, dict[str, float | tuple[float, ...]]]:
    """Split `kind(key=value,...)` into its name and float parameters; a
    `:`-separated value is a tuple of floats.  Malformed text raises
    GaugeSpecError."""
    match = _SPEC_RE.match(text)
    if not match:
        raise GaugeSpecError(f"cannot parse spec {text!r}; expected kind(key=value,...)")
    name, inner = match.group(1), match.group(2)
    params: dict[str, float | tuple[float, ...]] = {}
    for item in (inner or "").split(","):
        if not item.strip():
            continue
        key, eq, value = item.partition("=")
        key = key.strip()
        if not eq or not key:
            raise GaugeSpecError(f"bad parameter {item!r} in {text!r}; expected key=value")
        try:
            numbers = tuple(float(v) for v in value.split(":"))
        except ValueError as err:
            raise GaugeSpecError(f"non-numeric value {value.strip()!r} in {text!r}") from err
        params[key] = numbers if len(numbers) > 1 else numbers[0]
    return name, params


def parse_gauge(text: str) -> Gauge:
    """Inverse of format_gauge for the preset kinds."""
    name, params = parse_spec(text)
    return make_preset(name, **params)
