import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from liplab import cli, funclib, gauges, partition, setlib
from liplab import construct as construct_mod
from liplab.cli import RunConfig, main
from oracles import fraction_core


def run(args):
    return main([str(a) for a in args])


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_run_config_round_trip():
    cfg = RunConfig(command="dims", input_path="e.set", scales="triadic:1..8", seed=3)
    again = RunConfig.from_json(cfg.to_json())
    assert again == cfg


def test_construct_and_report_deterministic(workdir, monkeypatch):
    calls = []
    exceptional_set = construct_mod.exceptional_set

    def counted(*args, **kwargs):
        calls.append(1)
        return exceptional_set(*args, **kwargs)

    monkeypatch.setattr(construct_mod, "exceptional_set", counted)
    # a zeta that %g would round: meta.json must carry it exactly, or report's
    # premeasures drift from construct's
    assert run(["construct", "--out", "b", "--base", "constant(value=0.5)",
                "--nmax", 2, "--depth", 8, "--zeta", "power(s=1.0000001)"]) == 0
    assert len(calls) == 1  # save_build's result feeds certificates.json
    assert json.loads((workdir / "b" / "meta.json").read_text())["zeta"] == "power(s=1.0000001)"
    for name in ("base.fn", "final.fn", "stages.json", "meta.json", "E.set", "F.set",
                 "certificates.json"):
        assert (workdir / "b" / name).exists()
    assert run(["report", "b", "--out", "r1.json"]) == 0
    assert run(["report", "b", "--out", "r2.json"]) == 0
    assert (workdir / "r1.json").read_bytes() == (workdir / "r2.json").read_bytes()
    assert (workdir / "b" / "certificates.json").read_bytes() == (workdir / "r1.json").read_bytes()
    payload = json.loads((workdir / "r1.json").read_text())
    assert payload["all_pass"]
    assert "written_unix" not in (workdir / "r1.json").read_text()
    meta = json.loads((workdir / "r1.json.meta").read_text())
    assert "written_unix" in meta


def test_construct_budget_keeps_later_stages_open(workdir):
    assert run(["construct", "--out", "c5", "--base", "constant(value=0.5)", "--nmax", 5,
                "--phi", "power(s=0.1)", "--eps0", 1.0]) == 0
    assert json.loads((workdir / "c5" / "certificates.json").read_text())["all_pass"]


def test_report_ignores_stored_thresholds(workdir):
    # an older stages.json carrying derived keys, stage 1 tampered: report
    # recomputes every threshold and writes the untampered bytes
    assert run(["construct", "--out", "b", "--base", "affine(c=1)", "--nmax", 2]) == 0
    assert run(["report", "b", "--out", "r1.json"]) == 0
    stages = json.loads((workdir / "b" / "stages.json").read_text())
    for item in stages:
        item.update(beta="1/2", gamma="2/3", slack_min=1.0, membership_slack=1.0, lip_slack=1.0,
                    zeta_at_eta=0.0, kept=list(range(item["k"])))
    stages[0].update(membership_slack=123.0, zeta_at_eta=1e-9)
    (workdir / "b" / "stages.json").write_text(json.dumps(stages, indent=1))
    assert run(["report", "b", "--out", "r2.json"]) == 0
    assert (workdir / "r1.json").read_bytes() == (workdir / "r2.json").read_bytes()
    meta = json.loads((workdir / "b" / "meta.json").read_text())
    phi, zeta = gauges.parse_gauge(meta["phi"]), gauges.parse_gauge(meta["zeta"])
    payload = json.loads((workdir / "r2.json").read_text())
    for item, cert in zip(stages, payload["membership"]):
        eta = Fraction(item["eta"])
        assert cert["threshold"] == phi.eval(float(eta / 2)) / item["n"]
    for item, rec in zip(stages, construct_mod.load_build("b").stages):
        eta, n = Fraction(item["eta"]), item["n"]
        assert rec.params.zeta_at_eta == zeta.eval(float(eta))
        assert rec.membership_slack == phi.eval(float(eta / 2)) / n
        assert rec.lip_slack == phi.eval(float(eta / 4)) / n


@pytest.mark.parametrize("dropped", [[-1], [999999], ["x"], [1.5], 5, None, [0, 0], [True]],
                         ids=repr)
def test_report_rejects_a_malformed_dropped_list(workdir, dropped):
    # each was once read as no cube dropped, or as dropping cube 0 or 1; an
    # older build directory stores a dropped list, which load_build now
    # passes over for the kept cubes it derives, so no list changes a byte
    assert run(["construct", "--out", "b", "--base", "affine(c=1)", "--nmax", 2,
                "--depth", 8]) == 0
    assert run(["report", "b", "--out", "r1.json"]) == 0
    stages = json.loads((workdir / "b" / "stages.json").read_text())
    stages[1]["dropped"] = dropped
    (workdir / "b" / "stages.json").write_text(json.dumps(stages, indent=1))
    assert run(["report", "b", "--out", "r2.json"]) == 0
    assert (workdir / "r1.json").read_bytes() == (workdir / "r2.json").read_bytes()


def test_report_finds_a_plateau_hidden_by_a_stored_dropped_list(workdir, capsys):
    # final.fn moved by 0.01 inside stage 3's plateau of cube 50, whose bound
    # 2*T_3 is 0; a stored "dropped": [50] once hid that plateau from report
    assert run(["construct", "--base", "affine(c=1)", "--depth", 10, "--nmax", 3,
                "--phi", "power(s=0.1)", "--zeta", "power(s=1)", "--eps0", 1.0,
                "--out", "b"]) == 0
    rec = construct_mod.load_build("b").stages[2]
    assert rec.lo_v[50] <= 800 <= rec.hi_v[50]
    final = funclib.load_function(workdir / "b" / "final.fn")
    values = final.values.copy()
    values[800] += 0.01
    funclib.save_function(workdir / "b" / "final.fn", funclib.SampledFunction(
        1, final.depth, final.domain, values, final.modulus, exact=True))
    stages = json.loads((workdir / "b" / "stages.json").read_text())
    stages[2]["dropped"] = [50]
    (workdir / "b" / "stages.json").write_text(json.dumps(stages, indent=1))
    capsys.readouterr()
    assert run(["report", "b", "--out", "r.json"]) == 1
    assert "stage 3: measured plateau diameter" in capsys.readouterr().err
    payload = json.loads((workdir / "r.json").read_text())
    assert payload["all_pass"] is False
    assert payload["membership"][2]["error"].startswith("stage 3: measured plateau diameter")


def test_dropped_round_trips_through_the_build_directory(workdir):
    # a build on Omega = [0, 1/2] drops the cubes of its second half, and
    # load_build derives the same kept cubes from the domain
    f = funclib.make_test_function("affine", {"c": 1.0}, depth=10)
    values = f.values.copy()
    values[(1 << f.depth) // 2 + 1 :] = np.nan
    half = funclib.SampledFunction(
        1, f.depth, setlib.DyadicCubeSet.from_indices(1, 1, [(0,)]), values, f.modulus, f.exact
    )
    build = construct_mod.iterate_typical(
        half, 2, gauges.parse_gauge("power(s=0.1)"), gauges.parse_gauge("power(s=1)"), 0.5
    )
    construct_mod.save_build("half", build)
    stages = json.loads((workdir / "half" / "stages.json").read_text())
    for item, rec, again in zip(stages, build.stages, construct_mod.load_build("half").stages):
        assert "dropped" not in item
        dropped = sorted(set(range(rec.params.k)) - set(rec.kept.tolist()))
        assert dropped and rec.kept.tolist() == sorted(set(rec.kept.tolist()))
        assert np.array_equal(again.kept, rec.kept) and again.kept.dtype == np.int64
        for j in (int(rec.kept[0]), int(rec.kept[-1]), dropped[0]):
            a, b = fraction_core(rec.params.k, rec.params.eta, j)
            assert again.covering_core((a + b) / 2) == (j if j in rec.kept else None)


def test_artifact_round_trip_identity(workdir):
    f = funclib.make_test_function("weierstrass", {"terms": 10}, depth=8)
    funclib.save_function("w.fn", f)
    g = funclib.load_function("w.fn")
    assert np.array_equal(f.values, g.values) and f.modulus == g.modulus
    E = setlib.DyadicCubeSet.from_indices(1, 5, [(0,), (17,), (31,)])
    setlib.save_cubes("e.set", E)
    assert setlib.load_cubes("e.set") == E


def test_dims_command_cantor(workdir):
    assert run(["dims", "cantor:12", "--scales", "triadic:1..12", "--out", "d.json"]) == 0
    payload = json.loads((workdir / "d.json").read_text())
    assert abs(payload["lbdim_proxy"] - math.log(2) / math.log(3)) <= 0.02
    assert payload["mode"] == "exact-1d"


def test_dims_command_cube_file(workdir):
    E = setlib.DyadicCubeSet.full(1, 6)
    setlib.save_cubes("full.set", E)
    assert run(["dims", "full.set", "--scales", "dyadic:1..6", "--out", "d.json"]) == 0
    payload = json.loads((workdir / "d.json").read_text())
    assert payload["lbdim_proxy"] == pytest.approx(1.0, abs=1e-12)


def test_analyze_command(workdir):
    f = funclib.make_test_function("affine", {"c": 1.0}, depth=12)
    funclib.save_function("a.fn", f)
    assert run(["analyze", "a.fn", "--gauge", "power(s=1)", "--window", "4..10",
                "--out", "an", "--tau", 0.1]) == 0
    lines = (workdir / "an.csv").read_text().splitlines()
    assert lines[0] == cli.CSV_COLUMNS
    assert len(lines) > 10
    payload = json.loads((workdir / "an.json").read_text())
    assert set(payload["classes"]) == {"over"}
    assert payload["sample_depth"] == 6
    # an explicit --sample-depth 0 is used, not replaced by the default
    assert run(["analyze", "a.fn", "--sample-depth", 0, "--out", "an0"]) == 0
    assert json.loads((workdir / "an0.json").read_text())["sample_depth"] == 0


def test_analyze_depth_ladder_monotone(workdir):
    f = funclib.make_test_function("weierstrass", {"terms": 15}, depth=14)
    funclib.save_function("w.fn", f)
    assert run(["analyze", "w.fn", "--mode", "Lip", "--depths", "10,12,14",
                "--window", "4..12", "--sample-depth", 3, "--out", "lw"]) == 0
    payload = json.loads((workdir / "lw.json").read_text())
    by_depth = payload["proxies_by_depth"]
    d10, d12, d14 = by_depth["10"], by_depth["12"], by_depth["14"]
    grows = sum(1 for a, b in zip(d10, d12) if b >= a - 1e-12)
    grows2 = sum(1 for a, b in zip(d12, d14) if b >= a - 1e-12)
    assert grows >= 0.95 * len(d10)
    assert grows2 >= 0.95 * len(d12)


def test_analyze_shallow_function_falls_back_to_default_window(workdir):
    # depth 10 leaves 5 radii of 2^-4..2^-12 at >= 4h; every depth, the
    # full-depth field included, then uses 2^-2..2^-7
    funclib.save_function("a.fn", funclib.make_test_function("affine", {"c": 1.0}, depth=10))
    assert run(["analyze", "a.fn", "--window", "4..12", "--out", "an"]) == 0
    scales = {line.split(",")[1] for line in (workdir / "an.csv").read_text().splitlines()[1:]}
    assert sorted(float(r) for r in scales) == [2.0**-j for j in range(7, 1, -1)]


def test_analyze_2d_over_tau_cubes(workdir):
    depth = 6
    xs = np.linspace(0.0, 1.0, (1 << depth) + 1)
    f = funclib.SampledFunction(
        2, depth, setlib.DyadicCubeSet.full(2, 0), xs[:, None] + 0.5 * xs[None, :],
        funclib.HolderModulus(1.5, 1.0), exact=True,
    )
    funclib.save_function("a2.fn", f)
    assert run(["analyze", "a2.fn", "--sample-depth", 1, "--tau", 0.1, "--out", "an"]) == 0
    payload = json.loads((workdir / "an.json").read_text())
    assert payload["classes"] == ["over"] * 4
    assert payload["over_tau_cubes"] == [[0, 0], [0, 1], [1, 0], [1, 1]]
    # one CSV column per coordinate: every (point, scale) row is distinct
    lines = (workdir / "an.csv").read_text().splitlines()
    assert lines[0] == "x1,x2," + cli.CSV_COLUMNS[2:]
    keys = [tuple(line.split(",")[:3]) for line in lines[1:]]
    assert len(keys) == len(set(keys)) == 4 * 6
    # a depth ladder subsamples every axis; a sampled (non-exact) function
    # keeps the vertex-only oscillation path, and depth 7 keeps six radii >= 4h
    depth = 8
    xs = np.linspace(0.0, 1.0, (1 << depth) + 1)
    f = funclib.SampledFunction(
        2, depth, setlib.DyadicCubeSet.full(2, 0), xs[:, None] + 0.5 * xs[None, :],
        funclib.HolderModulus(1.5, 1.0), exact=False,
    )
    funclib.save_function("a8.fn", f)
    assert run(["analyze", "a8.fn", "--depths", "7,8", "--sample-depth", 1, "--window", "0..5",
                "--out", "lad"]) == 0
    by_depth = json.loads((workdir / "lad.json").read_text())["proxies_by_depth"]
    assert set(by_depth) == {"7", "8"} and len(by_depth["7"]) == 4


@pytest.mark.parametrize("mode", ["lip", "Lip"])
def test_analyze_one_oscillation_per_point_radius_depth(workdir, monkeypatch, mode):
    funclib.save_function("w.fn", funclib.make_test_function("weierstrass", {"terms": 10}, depth=12))
    calls = []
    oscillation = funclib.oscillation

    def counted(f, points, r):
        calls.append((f.depth, r, points.tolist()))
        return oscillation(f, points, r)

    monkeypatch.setattr(funclib, "oscillation", counted)
    assert run(["analyze", "w.fn", "--mode", mode, "--depths", "10,12", "--window", "4..9",
                "--sample-depth", 3, "--out", "an"]) == 0
    # one batched call per (depth, radius), covering each (depth, point, radius) once
    assert len(calls) == len({(depth, r) for depth, r, _ in calls}) == 2 * 6
    seen = [(depth, x, r) for depth, r, points in calls for x in points]
    assert len(seen) == len(set(seen)) == 2 * 8 * 6  # depths x points x radii


def test_analyze_rejects_a_repeated_depth(workdir):
    funclib.save_function("w.fn", funclib.make_test_function("weierstrass", {"terms": 10}, depth=12))
    assert run(["analyze", "w.fn", "--depths", "10,10", "--out", "an"]) == 2
    assert run(["analyze", "w.fn", "--depths", "12,10,12", "--out", "an"]) == 2
    assert not (workdir / "an.csv").exists()


def test_partition_command(workdir):
    assert run(["construct", "--out", "b", "--base", "affine(c=1)", "--nmax", 2,
                "--phi", "power(s=0.25)", "--depth", 10]) == 0
    assert run(["partition", "b", "--xi", "power(s=1)", "--phi", "power(s=2,scale=0.2)",
                "--delta-ladder", "0.1,0.01", "--out", "p.json"]) == 0
    payload = json.loads((workdir / "p.json").read_text())
    assert payload["all_pass"] and payload["antitone_ok"]
    assert payload["graph_check"]["ok"]
    for rep in payload["image_cover"]:
        assert rep["sum"] <= rep["bound"]
    # plateau values outside [0,1] have no cube-set image cover: a config
    # error before the image-cover ladder runs
    assert run(["construct", "--out", "b3", "--base", "affine(c=3)", "--nmax", 1,
                "--depth", 10]) == 0
    assert run(["partition", "b3", "--out", "p3.json"]) == 2
    assert not (workdir / "p3.json").exists()


def test_partition_on_a_partial_domain(workdir):
    # a build on Omega = [0, 1/2], made through the API: the image cover and
    # the graph check take B's cubes, all inside Omega
    f = funclib.make_test_function("affine", {"c": 1.0}, depth=10)
    values = f.values.copy()
    values[(1 << f.depth) // 2 + 1 :] = np.nan
    half = funclib.SampledFunction(
        1, f.depth, setlib.DyadicCubeSet.from_indices(1, 1, [(0,)]), values, f.modulus, f.exact
    )
    build = construct_mod.iterate_typical(
        half, 3, gauges.parse_gauge("power(s=0.1)"), gauges.parse_gauge("power(s=1)"), 0.5
    )
    construct_mod.save_build("half", build)
    assert run(["partition", "half", "--delta-ladder", "0.001", "--out", "p.json"]) == 0
    payload = json.loads((workdir / "p.json").read_text())
    assert payload["all_pass"] and payload["graph_check"]["checked"] == payload["split"]["B_cubes"]
    assert all(0.0 <= ball["x"][0] <= 0.5 for ball in payload["image_cover"][0]["balls"])


def test_partition_failure_lines_name_what_failed(workdir, capsys, monkeypatch):
    # each failed check names its delta, its pair of deltas or its B cube
    assert run(["construct", "--out", "b", "--base", "affine(c=1)", "--nmax", 2,
                "--depth", 10]) == 0
    cover = partition.image_cover_report
    monkeypatch.setattr(partition, "image_cover_report", lambda f, B, phi, xi, delta: dict(
        cover(f, B, phi, xi, delta), sum=1.0 / delta, verdict=False))
    monkeypatch.setattr(partition, "graph_cross_check", lambda build, B: int(B.keys[0]))
    capsys.readouterr()
    assert run(["partition", "b", "--delta-ladder", "0.5,0.25", "--out", "p.json"]) == 1
    err = capsys.readouterr().err
    payload = json.loads((workdir / "p.json").read_text())
    assert payload["antitone_ok"] is False and payload["graph_check"]["ok"] is False
    key, depth = payload["graph_check"]["off_plateau"], payload["split"]["depth"]
    bound = payload["image_cover"][0]["bound"]
    assert err.startswith(f"certificate failure: image_cover at delta=0.5: sum 2 above bound"
                          f" {bound:g}; image_cover at delta=0.25: sum 4 above bound ")
    assert "; antitone: sum 4 at delta=0.25 above sum 2 at delta=0.5; " in err
    assert f"; graph_check: B cube {key} at depth {depth} lies on no deepest plateau" in err


def test_micro_command_pass_and_fail(workdir, capsys, monkeypatch):
    E = setlib.DyadicCubeSet.from_points(1, 12, [(0.2,), (0.5,), (0.8,)])
    setlib.save_cubes("pts.set", E)
    assert run(["micro", "pts.set", "--eps", 0.1, "--nmax", 20, "--out", "m"]) == 0
    payload = json.loads((workdir / "m.json").read_text())
    assert payload["ok"] and payload["boxes"] == 3
    cover = setlib.load_cover(workdir / "m.cover")
    assert setlib.microscopic_verify(cover, 0.1, E) is None
    # a fat component cannot be certified at eps close to its size
    F = setlib.DyadicCubeSet.from_interval_union(
        setlib.IntervalUnion.from_pairs([(0, 0.5)]), 4
    )
    setlib.save_cubes("fat.set", F)
    capsys.readouterr()
    assert run(["micro", "fat.set", "--eps", 0.25, "--nmax", 10, "--out", "mf"]) == 1
    assert capsys.readouterr().err.startswith("certificate failure: component with bounding box")
    # a cover that fails its exact check: the failure line is the check's text
    monkeypatch.setattr(setlib, "microscopic_verify", lambda cover, eps, E: "box 2 is too big")
    assert run(["micro", "pts.set", "--eps", 0.1, "--nmax", 20, "--out", "mv"]) == 1
    assert capsys.readouterr().err == "certificate failure: box 2 is too big\n"
    payload = json.loads((workdir / "mv.json").read_text())
    assert payload["ok"] is False and payload["failure"] == "box 2 is too big"


@pytest.mark.parametrize("flags, note", [
    (("--base", "affine(c=1)", "--depth", 10, "--nmax", 1, "--phi", "power(s=0.1)",
      "--zeta", "inv_log", "--eps0", 1.0), "micro route: cover sum 0.929737, beta 0.537787"),
    (("--base", "constant(value=0.5)", "--depth", 8, "--nmax", 2, "--phi", "power(s=0.25)",
      "--zeta", "inv_log"), "micro route: cover sum 0.462402, beta 1.08131"),
], ids=["affine", "constant"])
def test_inv_log_micro_route_verifies(workdir, flags, note):
    # E's endpoints are not floats in both builds: the micro cover must be exact
    assert run(["construct", *flags, "--out", "b"]) == 0
    assert run(["report", "b", "--out", "r.json"]) == 0
    for path in (workdir / "b" / "certificates.json", workdir / "r.json"):
        exceptional = json.loads(path.read_text())["exceptional"]
        assert exceptional["micro_verified"] is True
        assert exceptional["notes"] == [note]


def test_config_errors_exit_2(workdir, capsys):
    assert run(["dims", "missing.set"]) == 2
    assert run(["analyze", "nope.fn"]) == 2
    f = funclib.make_test_function("constant", {}, depth=8)
    funclib.save_function("c.fn", f)
    assert run(["analyze", "c.fn", "--gauge", "bogus(q=1)"]) == 2
    assert run(["construct", "--base", "weierstrass(a=2.0)", "--out", "x"]) == 2
    assert run([]) == 2  # no subcommand prints help and signals a config error
    # an input path that is a directory, or a file where a build directory belongs
    (workdir / "adir").mkdir()
    for args in (["dims", "adir"], ["analyze", "adir"], ["micro", "adir", "--eps", 0.5],
                 ["report", "c.fn"], ["partition", "c.fn"]):
        capsys.readouterr()
        assert run(args) == 2, args
        assert capsys.readouterr().err.startswith("config error: "), args
    # malformed specs at the input boundary
    for base in ("affine(c)", "affine(c=abc)", "affine(c=1:2)", "affine[c=1]"):
        assert run(["construct", "--base", base, "--out", "x"]) == 2
    assert run(["construct", "--phi", "power(s=abc)", "--out", "x"]) == 2
    assert run(["construct", "--zeta", "power(s=1:2)", "--out", "x"]) == 2
    # non-finite numbers in a base or gauge spec
    for base in ("constant(value=inf)", "constant(value=nan)", "affine(c=-inf)"):
        assert run(["construct", "--base", base, "--out", "x"]) == 2, base
    for phi in ("power(s=nan)", "power(s=inf)", "power(s=1,scale=nan)"):
        assert run(["construct", "--phi", phi, "--out", "x"]) == 2, phi
    # out-of-range numbers exit 2 before any work
    assert run(["construct", "--nmax", 0, "--out", "x"]) == 2
    assert run(["construct", "--eps0", -1, "--out", "x"]) == 2
    assert run(["construct", "--eps0", "nan", "--out", "x"]) == 2
    assert run(["construct", "--seed", -1, "--out", "x"]) == 2
    assert run(["construct", "--max-depth", 0, "--nmax", 1, "--depth", 8, "--out", "x"]) == 2
    assert run(["construct", "--max-depth", 6, "--depth", 8, "--out", "x"]) == 2
    assert run(["micro", "cantor:6", "--eps", 0.5, "--nmax", 0]) == 2
    assert run(["dims", "cantor:-1"]) == 2
    assert run(["dims", f"cantor:{setlib.MAX_CANTOR_DEPTH + 1}"]) == 2
    assert run(["dims", "cantor:60"]) == 2
    # config-file fields of the wrong JSON type
    for fields in ({"scales": 5}, {"depth": "ten"}, {"eps0": True}, {"nmax": 2.5}):
        (workdir / "bad.json").write_text(json.dumps({"command": "construct", **fields}))
        assert run(["--config", "bad.json", "construct", "--out", "x"]) == 2, fields
        assert run(["--config", "bad.json", "dims", "cantor:5"]) == 2, fields
    assert not (workdir / "x").exists()
    for scales in ("dyadic:a..3", "triadic:a..3", "dyadic:3", "dyadic:-1..3", "0.5,abc",
                   "dyadic:1..3", "0.5,0.25"):
        assert run(["dims", "cantor:6", "--scales", scales]) == 2
    # every scale must be finite and lie in (0,1)
    for bad in ("inf", "0", "-0.1", "nan", "1"):
        scales = f"0.5,0.25,0.125,{bad},0.01,0.001"
        assert run(["dims", "cantor:6", "--scales", scales]) == 2, scales
    for scales in ("dyadic:0..5", "triadic:0..5"):
        assert run(["dims", "cantor:6", "--scales", scales]) == 2, scales
    # a scale that rounds to 0.0 as a float is named before any count
    for args, name in ((["cantor:4", "--scales", "dyadic:1070..1080"], "2^-1075"),
                       (["points:0.5", "--scales", "triadic:670..680"], "3^-679")):
        capsys.readouterr()
        assert run(["dims", *args]) == 2, args
        assert f"scale {name} in" in capsys.readouterr().err, args
    for points in ("points:0.1,1.5", "points:-0.1,0.5", "points:nan", "points:0.5,inf"):
        assert run(["dims", points]) == 2, points
    assert run(["micro", "cantor:6", "--eps", 2]) == 2
    assert run(["micro", "cantor:6", "--eps", 0]) == 2
    assert run(["dims", "cantor:x"]) == 2
    assert run(["dims", "points:0.5,abc"]) == 2
    assert run(["analyze", "c.fn", "--depths", "8,x"]) == 2
    assert run(["analyze", "c.fn", "--window", "4..x"]) == 2
    assert run(["analyze", "c.fn", "--window", "4..7"]) == 2  # 4 radii, need 6
    assert run(["analyze", "c.fn", "--depths", "9"]) == 2  # c.fn has depth 8
    assert run(["analyze", "c.fn", "--sample-depth", 7]) == 2  # need <= 8 - 2
    assert run(["analyze", "c.fn", "--depths", "6,8", "--sample-depth", 5]) == 2
    # a ladder depth below the domain's depth cannot hold the domain
    d6 = funclib.SampledFunction(1, 8, setlib.DyadicCubeSet.full(1, 6), f.values, f.modulus, True)
    funclib.save_function("d6.fn", d6)
    capsys.readouterr()
    assert run(["analyze", "d6.fn", "--depths", "5,8"]) == 2
    assert "--depths entry 5" in capsys.readouterr().err
    for tau in ("nan", "inf"):
        assert run(["analyze", "c.fn", "--tau", tau]) == 2, tau
    # a generator-backed depth-8 function has 5 fallback radii >= 4h = 2^-6
    funclib.save_function("w8.fn", funclib.make_test_function("weierstrass", {}, 8))
    assert run(["analyze", "w8.fn"]) == 2
    assert run(["construct", "--out", "b", "--nmax", 1, "--depth", 8]) == 0
    assert run(["partition", "b", "--delta-ladder", "0.1,abc"]) == 2
    for flags in (["--img-depth", -1], ["--delta-ladder", "0"], ["--delta-ladder", "nan"],
                  ["--delta-ladder", "0.1,-0.01"], ["--delta-ladder", "inf"],
                  ["--img-depth", setlib.MAX_KEY_BITS + 1]):
        assert run(["partition", "b", "--out", "p.json", *flags]) == 2, flags
    assert not (workdir / "p.json").exists()
    # malformed artifact files
    text = (workdir / "c.fn").read_text()
    lines = text.splitlines(keepends=True)
    bad_fns = {
        "header.fn": "d 1 m x domain 1\n" + "".join(lines[1:]),
        "truncated.fn": "".join(lines[:100]),
        "garbage.fn": "not a function file\n",
        "token.fn": "".join(lines[:5] + ["abc\n"] + lines[6:]),  # a value line
        "nomodulus.fn": "".join(line for line in lines if not line.startswith("modulus")),
    }
    for name, body in bad_fns.items():
        (workdir / name).write_text(body)
        assert run(["analyze", name]) == 2, name
    bad_sets = {
        "header.set": "d 1\n0\n",
        "token.set": "d 1 m 4\n0\nx\n",
        "length.set": "d 2 m 4\n0 1\n3\n",
        "range.set": "d 1 m 4\n16\n",
        "wide.set": "d 2 m 4\n0 1 2\n3\n",  # four indices, but three on one line
        "negative.set": "d 2 m 4\n0 -1\n",
        "huge.set": "d 2 m 30\n1180591620717411303423 5\n",
    }
    for name, body in bad_sets.items():
        (workdir / name).write_text(body)
        assert run(["dims", name]) == 2, name
    # cube keys are int64: d * depth beyond 62 is refused before any index is
    # read (a 1-d depth-70 line once overflowed int64 and a 2-d depth-40 set
    # miscounted its cells)
    deep_sets = {
        "deep.set": "d 2 m 70\n1180591620717411303423 5\n",
        "wrap.set": f"d 2 m 40\n0 0\n{1 << 34} 0\n",
        "deep1.set": "d 1 m 63\n5\n",
    }
    for name, body in deep_sets.items():
        (workdir / name).write_text(body)
        capsys.readouterr()
        assert run(["dims", name]) == 2, name
        assert "exceeds the limit 62" in capsys.readouterr().err, name
    meta = json.loads((workdir / "b" / "meta.json").read_text())
    del meta["phi"]
    (workdir / "b" / "meta.json").write_text(json.dumps(meta))
    assert run(["report", "b"]) == 2
    (workdir / "b" / "stages.json").write_text("[{")
    assert run(["report", "b"]) == 2


@pytest.mark.parametrize("lead", [8, 9, 10, 11])
def test_malformed_set_lines_in_a_later_chunk_exit_2(workdir, monkeypatch, capsys, lead):
    # .set files are parsed 4 lines at a time here: the bad lines come after
    # `lead` good and blank ones, so a wide row and its neighbour fall in one
    # chunk or in two
    monkeypatch.setattr(setlib, "_LOAD_LINES", 4)
    good = "".join(f"{i} {15 - i}\n" if i % 3 else "\n" for i in range(lead))
    tails = {
        "wide": "0 1 2\n3\n",  # four indices, but three on one line
        "length": "0 1\n3\n",
        "token": "0 1\n0 x\n",
        "range": "0 1\n0 16\n",
        "negative": "0 1\n0 -1\n",
        "huge": "0 1\n1180591620717411303423 5\n",
    }
    (workdir / "ok.set").write_text("d 2 m 4\n" + good)
    assert run(["dims", "ok.set", "--out", "ok.json"]) == 0
    for name, tail in tails.items():
        (workdir / f"{name}.set").write_text("d 2 m 4\n" + good + tail + good)
        capsys.readouterr()
        assert run(["dims", f"{name}.set", "--out", "x.json"]) == 2, name
        err = capsys.readouterr().err
        assert f"{name}.set" in err and "Traceback" not in err, name
    assert not (workdir / "x.json").exists()


def test_dims_far_below_the_cube_side(workdir):
    # two separated depth-4 cubes counted down to delta = 2^-24, where each
    # meets 2^20 + 2 cells per axis; every count is the product per cube
    setlib.save_cubes("two.set", setlib.DyadicCubeSet.from_indices(2, 4, [(1, 2), (5, 9)]))
    assert run(["dims", "two.set", "--scales", "dyadic:1..24", "--out", "d.json"]) == 0
    entries = json.loads((workdir / "d.json").read_text())["entries"]
    assert [e["N"] for e in entries[4:]] == [2 * (2 ** (j - 4) + 2) ** 2 for j in range(5, 25)]


def test_gauge_outside_its_domain_exits_2(workdir, capsys):
    # a gauge that the run evaluates outside its domain is a configuration
    # error, not a certificate failure; the message names the gauge or radius
    funclib.save_function("w.fn", funclib.make_test_function("weierstrass", {"terms": 10}, 14))
    assert run(["construct", "--out", "b", "--base", "affine(c=1)", "--nmax", 1,
                "--depth", 10]) == 0
    for args, words in (
        (["analyze", "w.fn", "--gauge", "table(rs=0.5,gs=1)"], "outside domain (0.5, 1.0]"),
        (["analyze", "w.fn", "--gauge", "super_power", "--window", "4..12"], "super_power"),
        (["partition", "b", "--xi", "table(rs=0.5,gs=1)"], "outside domain (0.5, 1.0]"),
    ):
        capsys.readouterr()
        assert run([*args, "--out", "out"]) == 2, args
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and words in err and "Traceback" not in err
    assert not list(workdir.glob("out*"))


def test_partition_reads_plateau_values_from_final_function(workdir):
    # an older stages.json carrying anchors and plateau values, all altered:
    # partition reads f(B) from final.fn and writes the untampered bytes
    assert run(["construct", "--out", "b", "--base", "affine(c=1)", "--nmax", 2,
                "--phi", "power(s=0.25)", "--depth", 10]) == 0
    flags = ["--delta-ladder", "0.1"]
    assert run(["partition", "b", "--out", "p1.json", *flags]) == 0
    build = construct_mod.load_build("b")
    stages = json.loads((workdir / "b" / "stages.json").read_text())
    for item, rec in zip(stages, build.stages):
        item.update(anchors=[0] * len(rec.kept), plateau_values=[0.5] * len(rec.kept))
    (workdir / "b" / "stages.json").write_text(json.dumps(stages, indent=1))
    assert run(["partition", "b", "--out", "p2.json", *flags]) == 0
    assert (workdir / "p1.json").read_bytes() == (workdir / "p2.json").read_bytes()


def test_partition_rejects_final_function_off_its_plateau(workdir, capsys):
    assert run(["construct", "--out", "b", "--base", "affine(c=1)", "--nmax", 2,
                "--phi", "power(s=0.25)", "--depth", 10]) == 0
    build = construct_mod.load_build("b")
    rec, final = build.stages[-1], build.final
    j = len(rec.kept) // 2
    vertex = (int(rec.lo_v[j]) + int(rec.hi_v[j])) // 2 << (final.depth - rec.depth)
    values = final.values.copy()
    values[vertex] += 2.0**-20
    funclib.save_function(workdir / "b" / "final.fn", funclib.SampledFunction(
        1, final.depth, final.domain, values, final.modulus, final.exact))
    capsys.readouterr()
    assert run(["partition", "b", "--out", "p.json"]) == 2
    err = capsys.readouterr().err
    assert f"stage {rec.params.n}" in err and f"cube {int(rec.kept[j])}:" in err
    assert "spread 9.53674e-07" in err
    assert not (workdir / "p.json").exists()


# stage depths 10, 10, 13
UNEVEN_DEPTHS = ["construct", "--base", "affine(c=1)", "--depth", 10, "--nmax", 3,
                 "--phi", "power(s=0.1)", "--zeta", "power(s=1)", "--eps0", 1.0]


def _replace_fn(path, depth):
    funclib.save_function(path, funclib.make_test_function("affine", {"c": 1.0}, depth))


@pytest.mark.parametrize("tamper, words", [
    (lambda b: _replace_fn(b / "final.fn", 10),
     "final.fn has depth 10, not stage 3's grid depth 13"),
    (lambda b: _replace_fn(b / "base.fn", 16),
     "stage 1's grid depth 10 is below base.fn's depth 16"),
    (lambda b: (b / "stages.json").write_text(
        (b / "stages.json").read_text().replace('"depth": 13', '"depth": 9')),
     "stage 3's grid depth 9 is below stage 2's depth 10"),
], ids=["shallow final.fn", "deep base.fn", "shallower stage"])
def test_build_depths_out_of_order_exit_2(workdir, capsys, tamper, words):
    # once a raw IndexError from plateau_extremes, or "resample only refines"
    assert run([*UNEVEN_DEPTHS, "--out", "b"]) == 0
    depths = [item["depth"] for item in json.loads((workdir / "b" / "stages.json").read_text())]
    assert depths == [10, 10, 13]
    tamper(workdir / "b")
    for command in ("report", "partition"):
        capsys.readouterr()
        assert run([command, "b", "--out", "out.json"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: b: ") and words in err and "Traceback" not in err
    assert not (workdir / "out.json").exists()


@pytest.fixture(scope="module")
def uneven_build(tmp_path_factory):
    out = tmp_path_factory.mktemp("uneven") / "b"
    assert run([*UNEVEN_DEPTHS, "--out", out]) == 0
    return out


@pytest.mark.parametrize("stage, key, value, words", [
    (1, "eta", "1/2", "need eta < 1/k"),
    (1, "eta", "1/0", "Fraction(1, 0)"),
    (3, "eta", "1/4096", "eta*2^depth/4 = 1/2 is not an integer at depth 13"),
    (1, "delta", "0", "need 1/k < delta"),
    (1, "k", 0, "need k > n"),
    (3, "n", 2, "n is 2, not the stage's position 3"),
    (2, "n", True, "n is True, not the stage's position 2"),
    (1, "n", 0, "n is 0, not the stage's position 1"),
    (1, "depth", 10.0, "k and depth must be ints, not 5 and 10.0"),
    (2, "k", False, "k and depth must be ints, not False and"),
])
def test_malformed_stage_exits_2_and_names_it(workdir, capsys, uneven_build, stage, key, value,
                                              words):
    # once exit 1 with no report, exit 0 against the wrong 1/n, or a raw
    # ZeroDivisionError or TypeError traceback
    shutil.copytree(uneven_build, workdir / "b")
    stages = json.loads((workdir / "b" / "stages.json").read_text())
    stages[stage - 1][key] = value
    (workdir / "b" / "stages.json").write_text(json.dumps(stages, indent=1))
    for command in ("report", "partition"):
        capsys.readouterr()
        assert run([command, "b", "--out", "out.json"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: stages.json stage {stage}: "), err
        assert words in err and "Traceback" not in err
    assert not (workdir / "out.json").exists()


def test_stored_epsilon_is_ignored(workdir, uneven_build):
    # stages.json no longer stores the budgets: load_build derives each from
    # meta.json's eps0 and the earlier stages' slacks, so an epsilon that an
    # older build wrote, or an edited one, changes no byte of the report
    shutil.copytree(uneven_build, workdir / "b")
    stages = json.loads((workdir / "b" / "stages.json").read_text())
    assert all("epsilon" not in item for item in stages)
    for value in ("x", math.inf, True, 100.0):
        (workdir / "b" / "stages.json").write_text(
            json.dumps([dict(item, epsilon=value) for item in stages], indent=1))
        assert run(["report", "b", "--out", "r.json"]) == 0, value
        assert (workdir / "r.json").read_bytes() == (workdir / "b" / "certificates.json").read_bytes()


def test_report_records_a_stage_inequality_failure(uneven_build):
    # stage 3's budget raised to 10 breaks stage 1's and 2's inequalities,
    # lip included: each failure is named in its stage's entry.  A build
    # directory cannot carry such a budget, so the build is edited in memory
    build = construct_mod.load_build(uneven_build)
    rec = build.stages[2]
    build.stages[2] = dataclasses.replace(rec, params=dataclasses.replace(rec.params, eps=10.0))
    analysis = construct_mod.exceptional_set(build)
    payload, failures = cli._certificates_payload(build, analysis, RunConfig(command="report"))
    assert payload["all_pass"] is False and payload["eps_schedule"][2] == 10.0
    for n, entry in enumerate(payload["membership"], start=1):
        rec = build.stages[n - 1]
        if n == 3:  # T_3 = 0: stage 3 still holds
            assert entry["ok"] and entry["bound"] == 0.0
            continue
        assert entry == {"n": n, "ok": False, "error": entry["error"]}
        assert entry["error"] == (
            f"stage {n}: membership inequality 2*T_n < (1/n) phi(eta/2) fails:"
            f" {2 * build.tail(n):g} >= {rec.membership_slack:g}; lip inequality"
            f" 2*T_n < (1/n) phi(eta/4) fails: {2 * build.tail(n):g} >= {rec.lip_slack:g}"
        )
    assert failures == [entry["error"] for entry in payload["membership"][:2]]


def test_report_names_a_tampered_plateau(workdir, capsys, uneven_build):
    # a final.fn value moved by 0.01 inside a stage-3 plateau, where the
    # certified bound 2*T_3 is 0: report writes the failure and exits 1
    shutil.copytree(uneven_build, workdir / "b")
    final = funclib.load_function(workdir / "b" / "final.fn")
    values = final.values.copy()
    values[800] += 0.01
    funclib.save_function(workdir / "b" / "final.fn", funclib.SampledFunction(
        1, final.depth, final.domain, values, final.modulus, exact=True))
    capsys.readouterr()
    assert run(["report", "b", "--out", "r.json"]) == 1
    words = "stage 3: measured plateau diameter 0.01 above the certified bound 2*T_n = 0"
    payload = json.loads((workdir / "r.json").read_text())
    assert payload["all_pass"] is False and payload["membership"][2]["error"] == words
    err = capsys.readouterr().err
    assert err.startswith(f"certificate failure: {words}") and "(r.json)" in err
    assert "Traceback" not in err


def test_report_checks_the_approximation_budget(workdir, capsys):
    # a build directory mixed from two runs with the same flags: an affine
    # build's base.fn under a Weierstrass build.  Every stage certificate
    # still holds, but the final function lies 2.5 from this base, beyond
    # the budget sum, so report writes all_pass false and exits 1
    flags = ["--depth", 10, "--nmax", 2, "--phi", "power(s=0.1)", "--zeta", "power(s=1)"]
    assert run(["construct", "--base", "affine(c=1)", *flags, "--out", "a"]) == 0
    assert run(["construct", "--base", "weierstrass(a=0.5,b=3,terms=25)", *flags, "--out", "w"]) == 0
    shutil.copyfile(workdir / "a" / "base.fn", workdir / "w" / "base.fn")
    capsys.readouterr()
    assert run(["report", "w", "--out", "r.json"]) == 1
    payload = json.loads((workdir / "r.json").read_text())
    passed = json.loads((workdir / "w" / "certificates.json").read_text())
    assert payload["all_pass"] is False and passed["all_pass"] is True
    assert payload.keys() == passed.keys()  # no new key: passing builds keep their bytes
    assert all(entry["ok"] for entry in payload["membership"])
    sup, budget = payload["sup_distance"], sum(payload["eps_schedule"])
    assert sup > 2.5 > 1.0 > budget
    err = capsys.readouterr().err
    assert err == f"certificate failure: sup distance {sup:g} above the budget sum {budget:g} (r.json)\n"


def test_partition_checks_the_approximation_budget(workdir, capsys):
    # partition's affine build of the benchmark, with a Weierstrass build's
    # base.fn: the image covers and the graph check still pass, but the
    # final function lies farther from this base than the budget sum
    flags = ["--depth", 10, "--nmax", 3, "--phi", "power(s=0.1)", "--zeta", "power(s=1)",
             "--eps0", 1.0]
    assert run(["construct", "--base", "affine(c=1)", *flags, "--out", "a"]) == 0
    assert run(["construct", "--base", "weierstrass(a=0.5,b=3,terms=25)", *flags, "--out", "w"]) == 0
    assert run(["partition", "a", "--out", "ok.json"]) == 0
    shutil.copyfile(workdir / "w" / "base.fn", workdir / "a" / "base.fn")
    capsys.readouterr()
    assert run(["partition", "a", "--out", "p.json"]) == 1
    payload = json.loads((workdir / "p.json").read_text())
    passed = json.loads((workdir / "ok.json").read_text())
    assert payload["all_pass"] is False and passed["all_pass"] is True
    assert payload.keys() == passed.keys()  # no new key: passing builds keep their bytes
    assert payload["antitone_ok"] and payload["graph_check"]["ok"]
    sup = construct_mod.load_build("a").sup_distance
    budget = sum(json.loads((workdir / "a" / "certificates.json").read_text())["eps_schedule"])
    assert sup > budget
    err = capsys.readouterr().err
    assert err == (f"certificate failure: sup distance {sup:g} above the budget sum {budget:g}"
                   " (see p.json)\n")


@pytest.mark.parametrize("line", ["modulus holder -1 0.5", "modulus holder nan 0.5",
                                  "modulus table 1 -1", "modulus table 1 nan"])
def test_fn_modulus_line_out_of_range_exits_2(workdir, capsys, line):
    # each of these once gave osc_upper < osc_lower or NaN brackets, and exit 0
    funclib.save_function("w.fn", funclib.make_test_function("weierstrass", {}, 12))
    text = (workdir / "w.fn").read_text()
    modulus = next(row for row in text.splitlines() if row.startswith("modulus"))
    (workdir / "w.fn").write_text(text.replace(modulus, line))
    capsys.readouterr()
    assert run(["analyze", "w.fn", "--window", "4..12", "--out", "a"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: malformed w.fn: ") and "modulus" in err, err
    assert not (workdir / "a.csv").exists()


def _python(code, cwd, **env):
    """Run python -c code in cwd against this liplab, with env's variables
    set (None unsets one); its stdout, after checking it exited 0."""
    src = str(Path(cli.__file__).resolve().parents[1])
    child = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for key, value in env.items():
        if value is None:
            child.pop(key, None)
        else:
            child[key] = value
    done = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=child,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_no_command_imports_numpy_random(tmp_path):
    # numpy.random costs about 6 MB of resident memory, and no command draws
    # a random number: each command runs in turn, and the first one after
    # which numpy.random is loaded is named
    code = (
        "import sys\n"
        "from liplab import funclib, setlib\n"
        "from liplab.cli import main\n"
        "funclib.save_function('w.fn', funclib.make_test_function('weierstrass', {}, 10))\n"
        "setlib.save_cubes('e.set', setlib.DyadicCubeSet.from_points(2, 6, [(0.2, 0.3), (0.7, 0.1)]))\n"
        "for argv in (['construct', '--out', 'b', '--base', 'affine(c=1)', '--nmax', '2'],\n"
        "             ['report', 'b', '--out', 'r.json'], ['partition', 'b', '--out', 'p.json'],\n"
        "             ['analyze', 'w.fn', '--window', '2..8', '--out', 'a'],\n"
        "             ['dims', 'e.set', '--out', 'd.json'],\n"
        "             ['micro', 'e.set', '--eps', '0.5', '--out', 'm']):\n"
        "    assert main(argv) == 0, argv\n"
        "    if 'numpy.random' in sys.modules:\n"
        "        sys.exit(f'{argv[0]} imported numpy.random')\n"
        "print('none')\n"
    )
    assert _python(code, tmp_path) == "none\n"


def test_import_liplab_leaves_numpy_unimported(tmp_path):
    # so that liplab.cli can set numpy's environment before numpy loads
    assert _python("import sys, liplab; print('numpy' in sys.modules)", tmp_path) == "False\n"


@pytest.mark.parametrize("argv, unexecuted", [
    (["dims", "cantor:6", "--out", "d.json"], "construct funclib partition"),
    (["micro", "cantor:6", "--eps", "0.99", "--nmax", "100", "--out", "m"], "construct funclib partition"),
    (["analyze", "w.fn", "--window", "2..8", "--out", "a"], "construct partition"),
    (["construct", "--out", "c", "--base", "affine(c=1)", "--nmax", "1"], "partition"),
    (["report", "b", "--out", "r.json"], "partition"),
], ids=["dims", "micro", "analyze", "construct", "report"])
def test_command_executes_only_the_modules_it_reaches(workdir, argv, unexecuted):
    # liplab.cli binds construct, funclib and partition as lazy modules; a
    # fresh process runs one command and names those it left unexecuted
    funclib.save_function("w.fn", funclib.make_test_function("weierstrass", {}, 10))
    assert run(["construct", "--out", "b", "--base", "affine(c=1)", "--nmax", "1"]) == 0
    code = (
        "import sys, types\n"
        "from liplab.cli import main\n"
        f"assert main({argv!r}) == 0\n"
        "print(*(n for n in ('construct', 'funclib', 'gauges', 'partition', 'setlib')\n"
        "        if type(sys.modules['liplab.' + n]) is not types.ModuleType))\n"
    )
    assert _python(code, workdir) == unexecuted + "\n"


@pytest.mark.parametrize("given, expected", [(None, "1"), ("3", "3")])
def test_cli_defaults_openblas_to_one_thread(tmp_path, given, expected):
    code = "import os, liplab.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert _python(code, tmp_path, OPENBLAS_NUM_THREADS=given) == expected + "\n"


def test_dims_bytes_do_not_depend_on_blas_threads(workdir):
    # dims' slope is liplab's one BLAS call (np.polyfit).  This process
    # imported numpy with the default thread count; the CLI processes run
    # with the one-thread default and with two threads
    rng = np.random.default_rng(7)
    setlib.save_cubes("r2d.set", setlib.DyadicCubeSet.from_indices(
        2, 6, np.argwhere(rng.random((64, 64)) < 0.3)))
    for spec, scales in (("r2d.set", "dyadic:1..6"), ("cantor:8", "triadic:1..8")):
        assert run(["dims", spec, "--scales", scales, "--out", "here.json"]) == 0
        expected = (workdir / "here.json").read_bytes()
        for threads in (None, "2"):
            _python(f"import sys; from liplab.cli import main; sys.exit(main(['dims', {spec!r},"
                    f" '--scales', {scales!r}, '--out', 'child.json']))", workdir,
                    OPENBLAS_NUM_THREADS=threads)
            assert (workdir / "child.json").read_bytes() == expected, (spec, threads)


def test_config_file_load(workdir):
    cfg = RunConfig(command="dims", input_path="cantor:6", scales="triadic:1..6",
                    out="dd.json")
    (workdir / "cfg.json").write_text(cfg.to_json())
    assert run(["--config", "cfg.json", "dims", "cantor:6"]) == 0
    assert (workdir / "dd.json").exists()


def test_config_file_without_command_loads(workdir):
    # the subcommand on the command line names the command
    (workdir / "cfg.json").write_text(json.dumps({"scales": "triadic:1..6", "out": "dd.json"}))
    assert run(["--config", "cfg.json", "dims", "cantor:6"]) == 0
    assert json.loads((workdir / "dd.json").read_text())["entries"][0]["r"] == 1 / 3
    with pytest.raises(cli.ConfigError):
        RunConfig.from_json('{"scales": "triadic:1..6"}')


def test_config_file_unknown_mode_exits_2_before_loading(workdir, monkeypatch, capsys):
    funclib.save_function("c.fn", funclib.make_test_function("constant", {}, depth=8))
    (workdir / "bad.json").write_text(json.dumps({"command": "analyze", "mode": "foo"}))
    loads = []
    monkeypatch.setattr(funclib, "load_function", lambda path: loads.append(path))
    capsys.readouterr()
    assert run(["--config", "bad.json", "analyze", "c.fn"]) == 2
    assert capsys.readouterr().err.startswith("config error: mode 'foo'")
    assert not loads and not (workdir / "analyze.json").exists()
