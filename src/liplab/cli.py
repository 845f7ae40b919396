"""Batch front door: analyze functions, run builds, estimate dimensions,
drive the partition pipeline, and emit machine-readable reports.

Exit status: 0 when every requested certificate passed, 1 on certificate
failure, 2 on configuration errors.  All randomness flows from --seed
(default 0); report payloads carry no timestamps (timestamps live in a
sidecar), so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import construct as construct_mod
from . import funclib, gauges, partition, setlib

CSV_COLUMNS = "x,scale,osc_lower,osc_upper,ratio_lower,ratio_upper"


class ConfigError(ValueError):
    pass


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
    samples: int = 10000
    seed: int = 0

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        return cls(**json.loads(text))


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
    return [2.0**-j for j in _parse_range(spec, "window")]


def _parse_scales(spec: str) -> list:
    from fractions import Fraction

    kind, _, rest = spec.partition(":")
    if kind in ("dyadic", "triadic"):
        base = 2 if kind == "dyadic" else 3
        return [Fraction(1, base**j) for j in _parse_range(rest, "scales")]
    return _parse_list(spec, float, "scales spec")


def _parse_base(spec: str, depth: int) -> funclib.SampledFunction:
    name, params = gauges.parse_spec(spec)
    if any(isinstance(v, tuple) for v in params.values()):
        raise ConfigError(f"base function parameters take one number each: {spec!r}")
    try:
        return funclib.make_test_function(name, params, depth)
    except ValueError as err:
        raise ConfigError(str(err)) from err


def _write_json(path: str, payload) -> None:
    setlib._atomic_write(path, json.dumps(payload, sort_keys=True, indent=1) + "\n")
    meta = {"written_unix": time.time(), "payload": os.path.basename(path)}
    setlib._atomic_write(path + ".meta", json.dumps(meta) + "\n")


def _subsample(f: funclib.SampledFunction, depth: int) -> funclib.SampledFunction:
    if depth > f.depth:
        raise ConfigError(f"cannot subsample depth {f.depth} up to {depth}")
    step = 1 << (f.depth - depth)
    return funclib.SampledFunction(
        f.dim, depth, f.domain, f.values[::step].copy(), f.modulus, exact=False
    )


# ---------------------------------------------------------------------------
# Commands


def _cmd_analyze(cfg: RunConfig) -> int:
    f = funclib.load_function(cfg.input_path)
    phi = gauges.parse_gauge(cfg.gauge or "power(s=1)")
    out = cfg.out or "analyze"
    depths = _parse_list(cfg.depths, int, "depths") if cfg.depths else [f.depth]
    sample_depth = cfg.sample_depth or max(1, min(depths) - 6)
    rows = []
    proxies_by_depth = {}
    for depth in depths:
        fd = _subsample(f, depth) if depth < f.depth else f
        radii = [r for r in _parse_window(cfg.window) if r >= 4.0 * fd.h]
        if len(radii) < 6:
            radii = [2.0**-j for j in range(2, 8)]
        lf = funclib.lip_field(fd, phi, cfg.tau, sample_depth, radii)
        proxies = []
        for point in lf.points:
            rec = funclib.scaled_osc_estimate(fd, point, phi, radii, mode=cfg.mode)
            proxies.append(rec.summary)
            for r, lo, hi, rlo, rhi in rec.entries:
                rows.append(
                    f"{point[0]:.17g},{r:.17g},{lo:.17g},{hi:.17g},{rlo:.17g},{rhi:.17g}"
                )
        proxies_by_depth[depth] = proxies
    setlib._atomic_write(out + ".csv", CSV_COLUMNS + "\n" + "\n".join(rows) + "\n")
    final_field = funclib.lip_field(
        f, phi, cfg.tau, sample_depth, [r for r in _parse_window(cfg.window) if r >= 4 * f.h] or [2.0**-j for j in range(2, 8)]
    )
    payload = {
        "gauge": gauges.format_gauge(phi),
        "mode": cfg.mode,
        "tau": cfg.tau,
        "points": [list(p) for p in final_field.points],
        "proxies": list(final_field.proxies),
        "classes": list(final_field.classes),
        "proxies_by_depth": {str(k): v for k, v in proxies_by_depth.items()},
        "over_tau_cubes": sorted(int(c[0]) for c in final_field.over_tau.cubes),
        "sample_depth": sample_depth,
    }
    _write_json(out + ".json", payload)
    return 0


def _cmd_construct(cfg: RunConfig) -> int:
    if not cfg.out:
        raise ConfigError("construct needs --out directory")
    base = _parse_base(cfg.base or "constant(value=0.5)", cfg.depth)
    phi = gauges.parse_gauge(cfg.phi or "power(s=0.25)")
    zeta = gauges.parse_gauge(cfg.zeta or "power(s=1)")
    build = construct_mod.iterate_typical(
        base, cfg.nmax, phi, zeta, cfg.eps0, max_depth=cfg.max_depth
    )
    _, _, analysis = construct_mod.save_build(cfg.out, build)
    payload, ok = _certificates_payload(build, analysis, cfg)
    _write_json(os.path.join(cfg.out, "certificates.json"), payload)
    if not ok:
        _report_failure(payload, os.path.join(cfg.out, "certificates.json"))
    return 0 if ok else 1


def _certificates_payload(
    build: construct_mod.TypicalBuild,
    analysis: construct_mod.ExceptionalAnalysis,
    cfg: RunConfig,
) -> tuple[dict, bool]:
    membership = []
    ok = build.early_stop is None
    for n in range(1, build.n_stages + 1):
        try:
            cert = construct_mod.certify_membership(build, n)
        except construct_mod.ConstructError as err:
            ok = False
            membership.append({"n": n, "ok": False, "error": str(err)})
            continue
        ok = ok and cert.ok
        membership.append(
            {
                "n": cert.n,
                "ok": cert.ok,
                "bound": cert.bound,
                "threshold": cert.threshold,
                "margin_min": cert.margin_min,
                "cubes": cert.cube_count,
            }
        )
    rng = np.random.default_rng(cfg.seed)
    lip_samples = []
    for n in range(1, build.n_stages + 1):
        rec = build.stages[n - 1]
        params = rec.params
        count = 0
        for _ in range(64):
            j = int(rng.integers(0, len(rec.kept)))
            a, b = params.core_interval(int(rec.kept[j]))
            x = float(a) + rng.random() * float(b - a)
            cert = construct_mod.certify_lip_bound(build, x, n)
            if cert.covered:
                count += 1
                ok = ok and cert.margin is not None and cert.margin > 0.0
        lip_samples.append({"n": n, "covered_samples": count})
    premeasures = [
        {"n": i + 1, "value": rep.value, "target": 1.0 / (i + 1), "ok": rep.value < 1.0 / (i + 1)}
        for i, rep in enumerate(analysis.tail_premeasures)
    ]
    ok = ok and all(p["ok"] for p in premeasures) and analysis.containment_ok
    if analysis.micro_verified is not None:
        ok = ok and analysis.micro_verified
    payload = {
        "early_stop": build.early_stop,
        "eps_schedule": list(build.eps_schedule),
        "sup_distance": build.sup_distance(),
        "membership": membership,
        "lip_samples": lip_samples,
        "exceptional": {
            "premeasures": premeasures,
            "containment_ok": analysis.containment_ok,
            "exact_tails": analysis.exact_tails,
            "micro_verified": analysis.micro_verified,
            "notes": analysis.notes,
        },
        "all_pass": ok,
    }
    return payload, ok


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
        return setlib.points_union(_parse_list(rest, float, "points"))
    return setlib.load_cubes(spec)


def _cmd_dims(cfg: RunConfig) -> int:
    E = _load_set(cfg.input_path)
    scales = _parse_scales(cfg.scales or "dyadic:1..10")
    report = setlib.lower_box_dim(E, scales)
    payload = {
        "lbdim_proxy": report.lbdim_proxy,
        "slope": report.slope,
        "mode": report.mode,
        "empty": report.empty,
        "entries": [{"r": r, "N": n, "ratio": q} for r, n, q in report.entries],
    }
    _write_json(cfg.out or "dims.json", payload)
    return 0


def _cmd_partition(cfg: RunConfig) -> int:
    xi = gauges.parse_gauge(cfg.xi or "power(s=1)")
    phi = gauges.parse_gauge(cfg.phi or "power(s=2,scale=0.2)")
    ladder = _parse_list(cfg.delta_ladder or "0.1,0.01,0.001", float, "delta ladder")
    build = construct_mod.load_build(cfg.input_path)
    A, B = partition.split_partition(build)
    reports = [
        partition.image_cover_report(
            build.final, B, phi, xi, delta, seed=cfg.seed
        )
        for delta in ladder
    ]
    antitone = all(a.total >= b.total for a, b in zip(reports, reports[1:]))
    B_img = partition.b_image_cubes(build, cfg.img_depth)
    graph = partition.graph_cross_check(build.final, A, B_img, cfg.samples, seed=cfg.seed)
    scale_hi = min(12, A.depth)
    dims_scales = [2.0**-j for j in range(1, max(7, scale_hi) + 1)]
    lb_A = setlib.lower_box_dim(A, dims_scales)
    lb_B = setlib.lower_box_dim(B_img, dims_scales)
    ok = all(r.verdict for r in reports) and antitone and graph.ok
    payload = {
        "split": {"A_cubes": len(A), "B_cubes": len(B), "depth": A.depth},
        "image_cover": [r.to_json() for r in reports],
        "antitone_ok": antitone,
        "graph_check": {
            "ok": graph.ok,
            "checked": graph.checked,
            "violations": [list(v) for v in graph.violations],
        },
        "lbdim_A": lb_A.lbdim_proxy,
        "lbdim_B_img": lb_B.lbdim_proxy,
        "all_pass": ok,
    }
    _write_json(cfg.out or "partition.json", payload)
    if not ok:
        bad = [k for k, v in (("image_cover", all(r.verdict for r in reports)),
                              ("antitone", antitone), ("graph_check", graph.ok)) if not v]
        print(f"certificate failure: {', '.join(bad)} (see {cfg.out or 'partition.json'})",
              file=sys.stderr)
    return 0 if ok else 1


def _cmd_micro(cfg: RunConfig) -> int:
    E = _load_set(cfg.input_path)
    if cfg.eps is None:
        raise ConfigError("micro needs --eps")
    cert = setlib.microscopic_certificate(E, cfg.eps, cfg.nmax)
    out = cfg.out or "micro"
    ok = cert.ok
    if cert.ok and cert.cover is not None:
        verify = setlib.microscopic_verify(cert.cover, cfg.eps, E)
        ok = verify.ok
        setlib.save_cover(out + ".cover", cert.cover)
    payload = {
        "ok": ok,
        "eps": cfg.eps,
        "boxes": len(cert.cover) if cert.cover else 0,
        "assignments": [list(a) for a in cert.assignments],
        "failure": cert.failure,
    }
    _write_json(out + ".json", payload)
    if not ok:
        print(f"certificate failure: {cert.failure or 'cover failed verification'}",
              file=sys.stderr)
    return 0 if ok else 1


def _cmd_report(cfg: RunConfig) -> int:
    build = construct_mod.load_build(cfg.input_path)
    _, _, analysis = construct_mod.exceptional_set(build)
    payload, ok = _certificates_payload(build, analysis, cfg)
    _write_json(cfg.out or "report.json", payload)
    if not ok:
        _report_failure(payload, cfg.out or "report.json")
    return 0 if ok else 1


def _report_failure(payload: dict, path: str) -> None:
    bad = [f"membership n={m['n']}" for m in payload["membership"] if not m.get("ok")]
    if payload.get("early_stop"):
        bad.append(f"early stop: {payload['early_stop']}")
    exc = payload.get("exceptional", {})
    for key in ("containment_ok", "micro_verified"):
        if exc.get(key) is False:
            bad.append(key)
    bad.extend(f"premeasure n={p['n']}" for p in exc.get("premeasures", ()) if not p["ok"])
    print(f"certificate failure: {'; '.join(bad) or 'see report'} ({path})", file=sys.stderr)


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
    p.add_argument("--samples", type=int)

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
    cfg = RunConfig(command=command)
    if getattr(args, "config", None):
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                cfg = RunConfig.from_json(fh.read())
        except (OSError, ValueError, TypeError) as err:
            print(f"config error: {err}", file=sys.stderr)
            return 2
        cfg.command = command
    for key, value in vars(args).items():
        if key == "config":
            continue
        if value is not None and hasattr(cfg, key):
            setattr(cfg, key, value)
    try:
        return _COMMANDS[cfg.command](cfg)
    except (ConfigError, gauges.GaugeSpecError, FileNotFoundError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except (construct_mod.ConstructError, ValueError) as err:
        print(f"certificate failure: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
