import json
import math
import os

import numpy as np
import pytest

from liplab import cli, funclib, setlib
from liplab import construct as construct_mod
from liplab.cli import RunConfig, main


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


def test_micro_command_pass_and_fail(workdir):
    E = setlib.DyadicCubeSet.from_points(1, 12, [(0.2,), (0.5,), (0.8,)])
    setlib.save_cubes("pts.set", E)
    assert run(["micro", "pts.set", "--eps", 0.1, "--nmax", 20, "--out", "m"]) == 0
    payload = json.loads((workdir / "m.json").read_text())
    assert payload["ok"] and payload["boxes"] == 3
    cover = setlib.load_cover(workdir / "m.cover")
    assert setlib.microscopic_verify(cover, 0.1, E).ok
    # a fat component cannot be certified at eps close to its size
    F = setlib.DyadicCubeSet.from_interval_union(
        setlib.IntervalUnion.from_pairs([(0, 0.5)]), 4
    )
    setlib.save_cubes("fat.set", F)
    assert run(["micro", "fat.set", "--eps", 0.25, "--nmax", 10, "--out", "mf"]) == 1


def test_config_errors_exit_2(workdir):
    assert run(["dims", "missing.set"]) == 2
    assert run(["analyze", "nope.fn"]) == 2
    f = funclib.make_test_function("constant", {}, depth=8)
    funclib.save_function("c.fn", f)
    assert run(["analyze", "c.fn", "--gauge", "bogus(q=1)"]) == 2
    assert run(["construct", "--base", "weierstrass(a=2.0)", "--out", "x"]) == 2
    assert run([]) == 2  # no subcommand prints help and signals a config error
    # malformed specs at the input boundary
    for base in ("affine(c)", "affine(c=abc)", "affine(c=1:2)", "affine[c=1]"):
        assert run(["construct", "--base", base, "--out", "x"]) == 2
    assert run(["construct", "--phi", "power(s=abc)", "--out", "x"]) == 2
    assert run(["construct", "--zeta", "power(s=1:2)", "--out", "x"]) == 2
    assert not (workdir / "x").exists()
    for scales in ("dyadic:a..3", "triadic:a..3", "dyadic:3", "dyadic:-1..3", "0.5,abc"):
        assert run(["dims", "cantor:6", "--scales", scales]) == 2
    assert run(["dims", "cantor:x"]) == 2
    assert run(["dims", "points:0.5,abc"]) == 2
    assert run(["analyze", "c.fn", "--depths", "8,x"]) == 2
    assert run(["analyze", "c.fn", "--window", "4..x"]) == 2
    assert run(["construct", "--out", "b", "--nmax", 1, "--depth", 8]) == 0
    assert run(["partition", "b", "--delta-ladder", "0.1,abc"]) == 2


def test_config_file_load(workdir):
    cfg = RunConfig(command="dims", input_path="cantor:6", scales="triadic:1..6",
                    out="dd.json")
    (workdir / "cfg.json").write_text(cfg.to_json())
    assert run(["--config", "cfg.json", "dims", "cantor:6"]) == 0
    assert (workdir / "dd.json").exists()


def test_threads_env_cap(monkeypatch):
    monkeypatch.setenv("LIPLAB_THREADS", "2")
    assert funclib.worker_count() == 2
    monkeypatch.setenv("LIPLAB_THREADS", "bogus")
    assert funclib.worker_count() >= 1
