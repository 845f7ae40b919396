"""Batch front door: analyze functions, run builds, estimate dimensions,
drive the partition pipeline, and emit machine-readable reports.

Exit status: 0 when every requested certificate passed, 1 when a command
wrote its payload with a false verdict, 2 on a ConfigError (the gauge and
format errors included), a ConstructError, an OSError or a MemoryError.
No command draws a random number (--seed is accepted and has no effect),
and report payloads carry no timestamps (timestamps live in a sidecar), so
reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import sys
import time
import typing
from dataclasses import asdict, dataclass, field
from itertools import chain, islice

# liplab makes no BLAS call, so OpenBLAS's thread pool does no work for it;
# numpy starts the pool when it loads, which costs each process about 70 ms
# with one thread per core.  The variable is read then, so it is set before
# numpy is imported; a value the user set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

# Each command compiles and runs only the modules it reaches: dims needs
# gauges and setlib, analyze adds funclib, construct and report add
# construct, and only partition needs partition.  The three command modules
# are bound here as lazy modules, in sys.modules and on the package, and one
# executes at its first attribute access; main's except clause reads
# construct_mod.ConstructError only once an exception reaches it.  A module
# imported before this one is kept as it is.  LazyLoader is not thread-safe
# before Python 3.12; liplab runs no threads (funclib.worker_count is 1).
for _name in ("construct", "funclib", "partition"):
    if f"{__package__}.{_name}" not in sys.modules:
        _spec = importlib.util.find_spec(f"{__package__}.{_name}")
        _spec.loader = importlib.util.LazyLoader(_spec.loader)
        sys.modules[_spec.name] = _module = importlib.util.module_from_spec(_spec)
        _spec.loader.exec_module(_module)
        setattr(sys.modules[__package__], _name, _module)

from . import construct as construct_mod  # noqa: E402
from . import funclib, gauges, partition, setlib  # noqa: E402
from .gauges import ConfigError  # noqa: E402

# 1-d header; for d >= 2 the point column x becomes x1,...,xd
CSV_COLUMNS = "x,scale,osc_lower,osc_upper,ratio_lower,ratio_upper"
# JSON encoder chunks joined per payload write, and CSV rows formatted per block
_JSON_CHUNKS = 1 << 12
_CSV_ROWS = 1 << 12


@dataclass
class RunConfig:
    """One CLI invocation; round-trips losslessly through JSON."""

    command: str
    input_path: str | None = None
    out: str | None = None
    gauge: str | None = None
    phi: str | None = None
    zeta: str | None = None
    xi: str | None = None
    base: str | None = None
    mode: str = "lip"
    window: str = "4..10"
    depths: str | None = None
    scales: str | None = None
    delta_ladder: str | None = None
    eps: float | None = None
    eps0: float = 0.5
    tau: float = 0.1
    nmax: int = 3
    depth: int = 10
    max_depth: int = 24
    sample_depth: int | None = None
    img_depth: int = 20
    seed: int = 0

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str | bytes, command: str | None = None) -> "RunConfig":
        """Parse a config file; text that is not JSON, or a field of the wrong
        JSON type, is a ConfigError.  A command given here, the subcommand on the command line, replaces
        the file's, which may then be left out."""
        try:
            data = json.loads(text)
        except ValueError as err:  # bad JSON, or bytes that are not text
            raise ConfigError(f"config file is not JSON: {err}") from None
        if not isinstance(data, dict):
            raise ConfigError("a config file holds one JSON object")
        hints = typing.get_type_hints(cls)
        for key, value in data.items():
            if key not in hints:
                raise ConfigError(f"unknown config field {key!r}")
            allowed = typing.get_args(hints[key]) or (hints[key],)
            if float in allowed and type(value) is int:
                value = data[key] = float(value)
            if type(value) not in allowed:
                names = " or ".join("null" if t is type(None) else t.__name__ for t in allowed)
                raise ConfigError(f"config field {key!r} takes {names}, not {json.dumps(value)}")
        if command is not None:
            data["command"] = command
        elif "command" not in data:
            raise ConfigError("a config file read alone needs a \"command\" field")
        return cls(**data)


def _at_least(what: str, value: int, lo: int) -> int:
    if value < lo:
        raise ConfigError(f"{what} {value} must be >= {lo}")
    return value


def _parse_range(spec: str, what: str) -> range:
    try:
        lo, hi = (int(tok) for tok in spec.split(".."))
    except ValueError as err:
        raise ConfigError(f"bad {what} spec {spec!r}; expected like 4..10") from err
    if lo < 0 or hi < lo:
        raise ConfigError(f"bad {what} spec {spec!r}; need 0 <= lo <= hi")
    return range(lo, hi + 1)


def _parse_list(spec: str, convert, what: str) -> list:
    try:
        return [convert(tok) for tok in spec.split(",")]
    except ValueError as err:
        raise ConfigError(f"bad {what} {spec!r}") from err


def _parse_window(spec: str) -> list[float]:
    radii = [2.0**-j for j in _parse_range(spec, "window")]
    if len(radii) < 6:
        raise ConfigError(f"window {spec!r} gives {len(radii)} radii; need at least 6")
    return radii


def _window_radii(window: list[float], f: funclib.SampledFunction) -> list[float]:
    """The window radii >= 4h, or 2^-2..2^-7 when fewer than 6 remain; a
    generator-backed function keeps only the fallback radii >= 4h too."""
    radii = [r for r in window if r >= 4.0 * f.h]
    if len(radii) >= 6:
        return radii
    radii = [2.0**-j for j in range(2, 8) if f.exact or 2.0**-j >= 4.0 * f.h]
    if len(radii) < 6:
        raise ConfigError(f"depth {f.depth} leaves {len(radii)} radii >= 4h; need at least 6")
    return radii


def _parse_scales(spec: str) -> list:
    from fractions import Fraction

    kind, _, rest = spec.partition(":")
    if kind in ("dyadic", "triadic"):
        base = 2 if kind == "dyadic" else 3
        js = _parse_range(rest, "scales")
        scales = [Fraction(1, base**j) for j in js]
        for j, r in zip(js, scales):
            if float(r) == 0.0:  # the report takes log(float(r))
                raise ConfigError(f"scale {base}^-{j} in {spec!r} rounds to 0.0 as a float")
    else:
        scales = _parse_list(spec, float, "scales spec")
    if len(set(scales)) < len(scales):
        raise ConfigError(f"scales {spec!r} repeats a scale")
    if len(scales) < 6:
        raise ConfigError(f"scales {spec!r} gives {len(scales)} scales; need at least 6")
    for r in scales:
        if not 0 < r < 1:
            raise ConfigError(f"scale {float(r):g} in {spec!r} must lie in (0,1)")
    return scales


def _parse_base(spec: str, depth: int) -> funclib.SampledFunction:
    name, params = gauges.parse_spec(spec)
    if any(isinstance(v, tuple) for v in params.values()):
        raise ConfigError(f"base function parameters take one number each: {spec!r}")
    return funclib.make_test_function(name, params, depth)


def _json_chunks(payload):
    """The text of json.dumps(payload, sort_keys=True, indent=1) and a
    newline, _JSON_CHUNKS encoder chunks at a time."""
    chunks = json.JSONEncoder(sort_keys=True, indent=1).iterencode(payload)
    while block := list(islice(chunks, _JSON_CHUNKS)):
        yield "".join(block)
    yield "\n"


def _csv_rows(tables):
    """The lines of each table's rows as %.17g fields, _CSV_ROWS rows per
    chunk; no rows at all give one blank line."""
    for table in tables:
        line = ",".join(["%.17g"] * table.shape[1]) + "\n"
        for start in range(0, len(table), _CSV_ROWS):
            block = table[start : start + _CSV_ROWS]
            yield (line * len(block)) % tuple(block.ravel().tolist())
    if not any(len(table) for table in tables):
        yield "\n"


def _write_json(path: str, payload) -> None:
    setlib._atomic_write(path, _json_chunks(payload))
    meta = {"written_unix": time.time(), "payload": os.path.basename(path)}
    setlib._atomic_write(path + ".meta", json.dumps(meta) + "\n")


def _subsample(f: funclib.SampledFunction, depth: int) -> funclib.SampledFunction:
    step = 1 << (f.depth - depth)
    return funclib.SampledFunction(
        f.dim, depth, f.domain, f.values[(slice(None, None, step),) * f.dim].copy(), f.modulus,
        exact=False,
    )


# ---------------------------------------------------------------------------
# Commands


def _cmd_analyze(cfg: RunConfig) -> int:
    if cfg.mode not in ("lip", "Lip"):
        raise ConfigError(f"mode {cfg.mode!r} must be 'lip' or 'Lip'")
    if not math.isfinite(cfg.tau):
        raise ConfigError(f"--tau {cfg.tau:g} must be finite")
    f = funclib.load_function(cfg.input_path)
    phi = gauges.parse_gauge(cfg.gauge or "power(s=1)")
    out = cfg.out or "analyze"
    window = _parse_window(cfg.window)
    depths = _parse_list(cfg.depths, int, "depths") if cfg.depths else [f.depth]
    if len(set(depths)) < len(depths):
        raise ConfigError(f"--depths {cfg.depths!r} repeats a depth")
    for depth in depths:
        if not f.domain.depth <= depth <= f.depth:
            raise ConfigError(
                f"--depths entry {depth} must lie in {f.domain.depth}..{f.depth},"
                " from the domain's depth up to the function's"
            )
    sample_depth = max(1, min(depths) - 6) if cfg.sample_depth is None else cfg.sample_depth
    if not 0 <= sample_depth <= min(depths) - 2:
        raise ConfigError(f"sample depth {sample_depth} must lie in 0..{min(depths) - 2}")
    fields, proxies_by_depth, tables = {}, {}, []
    for depth in depths:
        fd = f if depth == f.depth else _subsample(f, depth)
        lf = funclib.lip_field(fd, phi, cfg.tau, sample_depth, _window_radii(window, fd))
        fields[depth] = lf
        w = lf.window
        proxies_by_depth[str(depth)] = w.summary(cfg.mode).tolist()
        # one row per (point, radius), in the window's order
        columns = (np.broadcast_to(w.radii, w.lower.shape), w.lower, w.upper, w.ratio_lower,
                   w.ratio_upper)
        tables.append(np.column_stack((w.points.repeat(w.radii.size, axis=0),
                                       *(c.ravel() for c in columns))))
    header = CSV_COLUMNS
    if f.dim > 1:
        header = ",".join(f"x{i}" for i in range(1, f.dim + 1)) + CSV_COLUMNS[1:]
    setlib._atomic_write(out + ".csv", chain((header + "\n",), _csv_rows(tables)))
    final_field = fields.get(f.depth) or funclib.lip_field(
        f, phi, cfg.tau, sample_depth, _window_radii(window, f)
    )
    payload = {
        "gauge": gauges.format_gauge(phi),
        "mode": cfg.mode,
        "tau": cfg.tau,
        "points": final_field.window.points.tolist(),
        "proxies": final_field.proxies.tolist(),
        "classes": list(final_field.classes),
        "proxies_by_depth": proxies_by_depth,
        "over_tau_cubes": (
            final_field.over_tau.keys if f.dim == 1 else final_field.over_tau.indices()
        ).tolist(),
        "sample_depth": sample_depth,
    }
    _write_json(out + ".json", payload)
    return 0


def _cmd_construct(cfg: RunConfig) -> int:
    if not cfg.out:
        raise ConfigError("construct needs --out directory")
    _at_least("--nmax", cfg.nmax, 1)
    if not 0 <= cfg.depth <= cfg.max_depth <= setlib.MAX_KEY_BITS:
        raise ConfigError(f"need 0 <= --depth {cfg.depth} <= --max-depth {cfg.max_depth}"
                          f" <= {setlib.MAX_KEY_BITS}")
    if not funclib.grid_fits(cfg.max_depth):
        raise ConfigError(f"--max-depth {cfg.max_depth}: numpy cannot size a grid of"
                          f" 2^{cfg.max_depth}+1 float64 values")
    if not 0.0 < cfg.eps0 < math.inf:
        raise ConfigError(f"--eps0 {cfg.eps0:g} must be positive and finite")
    base = _parse_base(cfg.base or "constant(value=0.5)", cfg.depth)
    phi = gauges.parse_gauge(cfg.phi or "power(s=0.25)")
    zeta = gauges.parse_gauge(cfg.zeta or "power(s=1)")
    build = construct_mod.iterate_typical(
        base, cfg.nmax, phi, zeta, cfg.eps0, max_depth=cfg.max_depth
    )
    analysis = construct_mod.save_build(cfg.out, build)
    return _write_certificates(build, analysis, cfg, os.path.join(cfg.out, "certificates.json"))


def _write_certificates(
    build: construct_mod.TypicalBuild,
    analysis: construct_mod.ExceptionalAnalysis,
    cfg: RunConfig,
    path: str,
) -> int:
    """Write the certificates payload to path; 0 when all passed, else name
    every failure on stderr and return 1."""
    payload, failures = _certificates_payload(build, analysis, cfg)
    _write_json(path, payload)
    if failures:
        print(f"certificate failure: {'; '.join(failures)} ({path})", file=sys.stderr)
    return 1 if failures else 0


def _certificates_payload(
    build: construct_mod.TypicalBuild,
    analysis: construct_mod.ExceptionalAnalysis,
    cfg: RunConfig,
) -> tuple[dict, list[str]]:
    """The payload and what failed in it, in the payload's order."""
    membership, failures = [], []
    for n in range(1, build.n_stages + 1):
        try:
            cert = construct_mod.certify_membership(build, n)
        except construct_mod.ConstructError as err:
            failures.append(str(err))
            membership.append({"n": n, "ok": False, "error": str(err)})
            continue
        rec = build.stages[n - 1]
        membership.append({"n": n, "ok": True, "bound": cert.bound, "cubes": len(rec.kept),
                           "threshold": rec.membership_slack,
                           "margin_min": cert.membership_margin})
    if build.early_stop is not None:
        failures.append(f"early stop: {build.early_stop}")
    if build.budget_failure:
        failures.append(build.budget_failure)
    premeasures = [
        {"n": i + 1, "value": value, "target": 1.0 / (i + 1), "ok": value < 1.0 / (i + 1)}
        for i, value in enumerate(analysis.tail_premeasures)
    ]
    if not analysis.containment_ok:
        failures.append("containment_ok")
    if analysis.micro_verified is False:  # None: no micro route was run
        failures.append("micro_verified")
    failures += [f"premeasure n={p['n']}" for p in premeasures if not p["ok"]]
    payload = {
        "early_stop": build.early_stop,
        "eps_schedule": list(build.eps_schedule),
        "sup_distance": build.sup_distance,
        "membership": membership,
        "exceptional": {
            "premeasures": premeasures,
            "containment_ok": analysis.containment_ok,
            "micro_verified": analysis.micro_verified,
            "notes": analysis.notes,
        },
        "all_pass": not failures,
    }
    return payload, failures


def _load_set(spec: str):
    """A cube-set file, or a builtin exact spec: cantor:<depth>, points:<x,y,..>."""
    kind, _, rest = spec.partition(":")
    if kind == "cantor":
        try:
            depth = int(rest)
        except ValueError as err:
            raise ConfigError(f"bad cantor depth {rest!r}") from err
        return setlib.cantor_intervals(depth)
    if kind == "points":
        points = _parse_list(rest, float, "points")
        for x in points:
            if not 0.0 <= x <= 1.0:
                raise ConfigError(f"point {x:g} in {spec!r} must lie in [0,1]")
        return setlib.points_union(points)
    return setlib.load_cubes(spec)


def _cmd_dims(cfg: RunConfig) -> int:
    E = _load_set(cfg.input_path)
    scales = _parse_scales(cfg.scales or "dyadic:1..10")
    _write_json(cfg.out or "dims.json", setlib.lower_box_dim(E, scales))
    return 0


def _cmd_partition(cfg: RunConfig) -> int:
    if not 0 <= cfg.img_depth <= setlib.MAX_KEY_BITS:
        raise ConfigError(f"--img-depth {cfg.img_depth} must lie in 0..{setlib.MAX_KEY_BITS}")
    xi = gauges.parse_gauge(cfg.xi or "power(s=1)")
    phi = gauges.parse_gauge(cfg.phi or "power(s=2,scale=0.2)")
    ladder = _parse_list(cfg.delta_ladder or "0.1,0.01,0.001", float, "delta ladder")
    for delta in ladder:
        if not 0.0 < delta < math.inf:
            raise ConfigError(f"--delta-ladder entry {delta:g} must be positive and finite")
    build = construct_mod.load_build(cfg.input_path)
    B_img = partition.b_image_cubes(build, cfg.img_depth)
    A, B = partition.split_partition(build)
    final = build.final_function()  # oscillation reads the grid whole
    reports = [partition.image_cover_report(final, B, phi, xi, delta) for delta in ladder]
    failures = []
    for r in reports:
        where = f"image_cover at delta={r['delta']:g}: "
        if r["uncovered_points"]:
            failures.append(f"{where}{len(r['uncovered_points'])} of {len(B)} B cube centres"
                            " uncovered")
        elif not r["verdict"]:
            failures.append(f"{where}sum {r['sum']:g} above bound {r['bound']:g}")
    rising = [(a, b) for a, b in zip(reports, reports[1:]) if not a["sum"] >= b["sum"]]
    failures += [f"antitone: sum {b['sum']:g} at delta={b['delta']:g} above sum {a['sum']:g}"
                 f" at delta={a['delta']:g}" for a, b in rising]
    off_plateau = partition.graph_cross_check(build, B)
    if off_plateau is not None:
        failures.append(f"graph_check: B cube {off_plateau} at depth {B.depth} lies on no"
                        " deepest plateau")
    scale_hi = min(12, A.depth)
    dims_scales = [2.0**-j for j in range(1, max(7, scale_hi) + 1)]
    if build.budget_failure:  # a library defect: a replayed build keeps its budgets
        failures.append(build.budget_failure)
    ok = not failures
    payload = {
        "split": {"A_cubes": len(A), "B_cubes": len(B), "depth": A.depth},
        "image_cover": reports,
        "antitone_ok": not rising,
        "graph_check": {"ok": off_plateau is None, "checked": len(B), "off_plateau": off_plateau},
        "lbdim_A": setlib.lower_box_dim(A, dims_scales)["lbdim_proxy"],
        "lbdim_B_img": setlib.lower_box_dim(B_img, dims_scales)["lbdim_proxy"],
        "all_pass": ok,
    }
    out = cfg.out or "partition.json"
    _write_json(out, payload)
    if failures:
        print(f"certificate failure: {'; '.join(failures)} (see {out})", file=sys.stderr)
    return 0 if ok else 1


def _cmd_micro(cfg: RunConfig) -> int:
    if cfg.eps is None:
        raise ConfigError("micro needs --eps")
    if not 0.0 < cfg.eps < 1.0:
        raise ConfigError(f"--eps {cfg.eps:g} must lie in (0,1)")
    _at_least("--nmax", cfg.nmax, 1)
    E = _load_set(cfg.input_path)
    cert = setlib.microscopic_certificate(E, cfg.eps, cfg.nmax)
    out = cfg.out or "micro"
    failure = cert.failure
    if failure is None:
        failure = setlib.microscopic_verify(cert.cover, cfg.eps, E)
        setlib.save_cover(out + ".cover", cert.cover)
    payload = {
        "ok": failure is None,
        "eps": cfg.eps,
        "boxes": len(cert.cover) if cert.cover else 0,
        "assignments": [list(a) for a in cert.assignments],
        "failure": failure,
    }
    _write_json(out + ".json", payload)
    if failure is not None:
        print(f"certificate failure: {failure}", file=sys.stderr)
    return 0 if failure is None else 1


def _cmd_report(cfg: RunConfig) -> int:
    build = construct_mod.load_build(cfg.input_path)
    analysis = construct_mod.exceptional_set(build)
    return _write_certificates(build, analysis, cfg, cfg.out or "report.json")


# ---------------------------------------------------------------------------
# Entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liplab",
        description="scaled-oscillation analysis, box dimensions, and staircase builds",
        argument_default=argparse.SUPPRESS,
    )
    parser.add_argument("--config", default=None, help="load a RunConfig JSON file (flags override)")
    sub = parser.add_subparsers(dest="command")

    def common(p, needs_input=True):
        if needs_input:
            p.add_argument("input_path")
        p.add_argument("--out")
        p.add_argument("--seed", type=int)

    p = sub.add_parser("analyze", help="per-point oscillation records and lip field")
    common(p)
    p.add_argument("--gauge")
    p.add_argument("--mode", choices=["lip", "Lip"])
    p.add_argument("--window")
    p.add_argument("--depths")
    p.add_argument("--tau", type=float)
    p.add_argument("--sample-depth", dest="sample_depth", type=int)

    p = sub.add_parser("construct", help="run an iterated stage build")
    common(p, needs_input=False)
    p.add_argument("--base")
    p.add_argument("--nmax", type=int)
    p.add_argument("--phi")
    p.add_argument("--zeta")
    p.add_argument("--eps0", type=float)
    p.add_argument("--depth", type=int)
    p.add_argument("--max-depth", dest="max_depth", type=int)

    p = sub.add_parser("dims", help="lower box dimension report for a cube set")
    common(p)
    p.add_argument("--scales")

    p = sub.add_parser("partition", help="A/B split, image cover ladder, graph check")
    common(p)
    p.add_argument("--xi")
    p.add_argument("--phi")
    p.add_argument("--delta-ladder", dest="delta_ladder")
    p.add_argument("--img-depth", dest="img_depth", type=int)

    p = sub.add_parser("micro", help="microscopic certificate for a cube set")
    common(p)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--nmax", type=int)

    p = sub.add_parser("report", help="re-derive all certificates for a build directory")
    common(p)
    return parser


_COMMANDS = {
    "analyze": _cmd_analyze,
    "construct": _cmd_construct,
    "dims": _cmd_dims,
    "partition": _cmd_partition,
    "micro": _cmd_micro,
    "report": _cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    command = getattr(args, "command", None)
    if command is None:
        parser.print_help()
        return 2
    try:
        cfg = RunConfig(command=command)
        if getattr(args, "config", None):
            with open(args.config, "rb") as fh:
                cfg = RunConfig.from_json(fh.read(), command)
        for key, value in vars(args).items():
            if key != "config" and value is not None and hasattr(cfg, key):
                setattr(cfg, key, value)
        _at_least("--seed", cfg.seed, 0)
        return _COMMANDS[cfg.command](cfg)
    except (ConfigError, construct_mod.ConstructError, OSError, MemoryError) as err:
        # a ConstructError here: no build can be made from these inputs; a
        # MemoryError: an array they ask for cannot be allocated
        print(f"config error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
