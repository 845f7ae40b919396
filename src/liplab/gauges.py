"""Evaluable gauges and pseudogauges for scaled-oscillation and measure work.

A gauge is a non-decreasing, right-continuous scale function g with g(r) > 0
for r > 0; a pseudogauge only needs right-continuity and positivity.  A Gauge
is a kind and its parameters: a closed form (power, exp_sqrt_log, inv_log,
super_power) or a right-continuous step table, evaluated on (0, R_MAX] (a
table from its first knot).  Nothing about monotonicity or decay is checked
or stored; eval only refuses a radius outside the domain and a value that is
not a positive finite float, overflow included, as GaugeDomainError.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

__all__ = [
    "ConfigError",
    "Gauge",
    "Pseudogauge",
    "GaugeDomainError",
    "GaugeSpecError",
    "make_preset",
    "verify_schizm_relation",
    "format_gauge",
    "parse_gauge",
    "parse_spec",
]

# every gauge and pseudogauge argument stays at most R_MAX
R_MAX = 1.0


class ConfigError(ValueError):
    """Input that no run can use: a flag, a spec or a file.  The CLI exits 2."""


class GaugeDomainError(ConfigError):
    """Scale argument outside a gauge's definition domain."""


class GaugeSpecError(ConfigError):
    """Malformed preset name, parameters, or textual gauge form."""


@dataclass(frozen=True)
class Gauge:
    """One evaluable scale function: a kind and its (name, value) parameters.
    A table's parameters are its knots rs and values gs, two float tuples."""

    kind: str
    params: tuple[tuple[str, float | tuple[float, ...]], ...] = ()

    def param(self, name: str, default: float | None = None) -> float | tuple[float, ...]:
        for key, value in self.params:
            if key == name:
                return value
        if default is None:
            raise GaugeSpecError(f"gauge {self.kind} missing parameter {name!r}")
        return default

    @property
    def r_min(self) -> float:
        return self.param("rs")[0] if self.kind == "table" else 0.0

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
            # right-continuous step: value of the largest knot <= r
            return self.param("gs")[bisect_right(self.param("rs"), r) - 1]
        raise GaugeSpecError(f"unknown gauge kind {self.kind!r}")

    def eval(self, r: float) -> float:
        if not (r > 0.0) or r > R_MAX or r < self.r_min:
            raise GaugeDomainError(
                f"r={r!r} outside domain ({self.r_min}, {R_MAX}] of {format_gauge(self)}"
            )
        try:
            value = self._eval_unchecked(r)
        except OverflowError:
            raise GaugeDomainError(f"{format_gauge(self)} overflows at r={r!r}") from None
        if not (value > 0.0 and math.isfinite(value)):
            raise GaugeDomainError(
                f"{format_gauge(self)} evaluated to non-positive/non-finite {value!r} at r={r!r}"
            )
        return value


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
        return R_MAX / math.sqrt(self.m + 1)

    @property
    def kind(self) -> str:
        return f"pseudo[{self.base.kind},m={self.m}]"

    def eval(self, r: float) -> float:
        if not (r > 0.0) or r > self.r_max:
            raise GaugeDomainError(f"r={r!r} outside domain (0, {self.r_max}] of {self.kind}")
        if self.m == 0:
            return self.base.eval(r)
        scale = r**self.m
        if scale == 0.0:
            raise GaugeDomainError(f"r**{self.m} underflows to 0.0 at r={r!r} in {self.kind}")
        value = self.base.eval(r * math.sqrt(self.m + 1)) / scale
        if not math.isfinite(value):
            raise GaugeDomainError(f"{self.kind} overflows at r={r!r}")
        return value


GaugeLike = Gauge | Pseudogauge


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
        return Gauge("power", items)
    if name == "exp_sqrt_log":
        d = float(params.pop("d", 1.0))
        if params:
            raise GaugeSpecError(f"unknown exp_sqrt_log parameters {sorted(params)}")
        if d < 1:
            raise GaugeSpecError("exp_sqrt_log needs dimension d >= 1")
        return Gauge("exp_sqrt_log", (("d", d),))
    if name == "inv_log":
        if params:
            raise GaugeSpecError("inv_log takes no parameters")
        return Gauge("inv_log")
    if name == "super_power":
        if params:
            raise GaugeSpecError("super_power takes no parameters")
        return Gauge("super_power")
    if name == "table":
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
        return Gauge("table", (("rs", rs), ("gs", gs)))
    raise GaugeSpecError(f"unknown preset {name!r}")


def gauge_at_diameter(g: GaugeLike, diam: float) -> float:
    """g(diam) with the gauge axiom g(0) = 0 applied for degenerate sets."""
    if diam == 0.0:
        return 0.0
    return g.eval(diam)


def verify_schizm_relation(
    xi: GaugeLike, phi: GaugeLike, d: int, scales: Sequence[float]
) -> float | None:
    """The first scale r at which xi(phi(5r)) <= r^(d+1) fails, or None."""
    for r in scales:
        if xi.eval(phi.eval(5.0 * r)) > r ** (d + 1):
            return r
    return None


_SPEC_RE = re.compile(r"^\s*([a-z_]+)\s*(?:\(([^)]*)\))?\s*$")


def _format_number(v: float | tuple[float, ...]) -> str:
    """%g when it reads back as the same float, else repr (lossless); a
    tuple is its reprs joined by `:`."""
    if isinstance(v, tuple):
        return ":".join(map(repr, v))
    return f"{v:g}" if float(f"{v:g}") == v else repr(v)


def format_gauge(g: GaugeLike) -> str:
    """One-line textual form `kind(param=value,...)` used in CLI flags and reports."""
    if isinstance(g, Pseudogauge):
        return f"pseudo(base={format_gauge(g.base)},m={g.m})"
    if not g.params:
        return g.kind
    inner = ",".join(f"{k}={_format_number(v)}" for k, v in g.params)
    return f"{g.kind}({inner})"


def parse_spec(text: str) -> tuple[str, dict[str, float | tuple[float, ...]]]:
    """Split `kind(key=value,...)` into its name and float parameters; a
    `:`-separated value is a tuple of floats.  Malformed text or a non-finite
    number raises GaugeSpecError."""
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
        if not all(map(math.isfinite, numbers)):
            raise GaugeSpecError(f"non-finite value {value.strip()!r} in {text!r}")
        params[key] = numbers if len(numbers) > 1 else numbers[0]
    return name, params


def parse_gauge(text: str) -> Gauge:
    """Inverse of format_gauge for the preset kinds."""
    name, params = parse_spec(text)
    return make_preset(name, **params)
