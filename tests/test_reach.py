"""Guard against library code that nothing runs.

The traffic below runs, in one process and on small inputs, the CLI commands
of both benchmark workloads and of every CI step, plus the paths those leave
out: a partial-domain build through the API, `analyze` on a generator-backed
`.fn` with a table modulus, a `micro` run that passes and one that fails,
and a `--config` run.  sys.setprofile records each function it enters.
Every `def` of a liplab module must be entered, unless tests/test_acceptance.py
references its name or the allowlist below gives the reason it stays.
"""

import ast
import inspect
import json
import shutil
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import liplab
from liplab import cli, construct, funclib, gauges, setlib

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(liplab.__file__).resolve().parent

# module.qualname; a class's entry covers its methods
ALLOWED_UNREACHED = {
    "funclib.worker_count": "perfbench/run.py calls it on its context line",
    "setlib.cross_power": "the exceptional set of the d >= 2 build (ROADMAP item 7)",
    "setlib.product_lemma_check": "the smallness certificate of the d >= 2 build (ROADMAP item 7)",
    "gauges.Pseudogauge": "the codimension pseudogauge of the d >= 2 build (ROADMAP item 7)",
    "setlib.IntervalUnion.__eq__": "value equality, which tests compare sets with",
    "setlib.DyadicCubeSet.__eq__": "value equality, which tests compare domains and rasters with",
    "cli.RunConfig.to_json": "writes the --config form that the README describes",
    "setlib.load_cover": "reads the .cover files that `liplab micro` writes",
    "setlib.CoverageError": "raised by hausdorff_upper for a given cover that misses the set",
    "funclib._inexact_end": "the refusal of a ball end that is not a float; dyadic points and"
    " radii, which every command uses, never reach it",
    "funclib.SampledFunction.resample": "a whole refined copy of a function, which no command"
    " makes since build_stage reads through the refinement; perfbench/tracer.py names it as a"
    " target (ROADMAP item 1B removes it with that target)",
    "funclib.SampledFunction.grid_lipschitz": "the exact Lipschitz constant of a function held"
    " as a grid; construct's stages hold none and take theirs from their chain pass",
    "funclib.SampledFunction.evaluate_many": "point evaluation of a function, the public form of"
    " the cell lookup and interpolation that oscillation's ball ends use",
}


def _defs() -> dict[tuple[str, int, str], str]:
    """module.qualname of every def in the package, keyed by (module, first
    line, name) of its code object.  Class bodies are walked but not
    counted; comprehensions, generator expressions and lambdas are skipped."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        stack = [(compile(path.read_text(encoding="utf-8"), str(path), "exec"), path.stem)]
        while stack:
            code, prefix = stack.pop()
            for const in code.co_consts:
                if not isinstance(const, types.CodeType) or const.co_name.startswith("<"):
                    continue
                name = f"{prefix}.{const.co_name}"
                if const.co_flags & inspect.CO_NEWLOCALS:  # a function, not a class body
                    found[(path.stem, const.co_firstlineno, const.co_name)] = name
                stack.append((const, name))
    return found


def _acceptance_names() -> set[str]:
    names = set()
    for node in ast.walk(ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def _run(*argv, code=0):
    assert cli.main([str(a) for a in argv]) == code, argv


def _edit_json(path: Path, edit) -> None:
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))


def _traffic(tmp: Path) -> None:
    rng = np.random.default_rng(7)
    # perfbench staircase-weierstrass and CI's acceptance-scale build, smaller
    _run("construct", "--base", "weierstrass(a=0.5,b=3,terms=25)", "--depth", 10, "--nmax", 2,
         "--phi", "power(s=0.1)", "--zeta", "power(s=1)", "--eps0", 0.5, "--max-depth", 24,
         "--out", tmp / "w")
    _run("report", tmp / "w", "--out", tmp / "w" / "report.json")
    funclib.save_function(tmp / "copy.fn", funclib.load_function(tmp / "w" / "base.fn"))
    # a loaded build's streamed final function, written from one chain pass
    # (TypicalBuild.value_blocks), is final.fn
    funclib.save_function(tmp / "final-copy.fn", construct.load_build(tmp / "w"))
    assert (tmp / "final-copy.fn").read_bytes() == (tmp / "w" / "final.fn").read_bytes()
    # perfbench partition-analyze-dims
    funclib.save_function(tmp / "w.fn", funclib.make_test_function(
        "weierstrass", dict(a=0.5, b=3, terms=25), 12))
    setlib.save_cubes(tmp / "r2d.set", setlib.DyadicCubeSet(2, 6, np.flatnonzero(
        rng.random(1 << 12) < 0.2)))
    _run("construct", "--base", "affine(c=1)", "--depth", 10, "--nmax", 3, "--phi", "power(s=0.1)",
         "--zeta", "power(s=1)", "--eps0", 1.0, "--out", tmp / "affine")
    _run("partition", tmp / "affine", "--xi", "power(s=1)", "--phi", "power(s=2,scale=0.2)",
         "--delta-ladder", "0.1,0.01,0.001", "--out", tmp / "partition.json")
    _run("analyze", tmp / "w.fn", "--gauge", "power(s=1)", "--window", "4..10",
         "--out", tmp / "window")
    _run("analyze", tmp / "w.fn", "--mode", "Lip", "--depths", "10,12", "--out", tmp / "ladder")
    _run("dims", "cantor:8", "--scales", "triadic:1..8", "--out", tmp / "cantor.json")
    _run("dims", "points:0.1,0.5,0.9", "--out", tmp / "points.json")
    _run("dims", tmp / "r2d.set", "--scales", "dyadic:1..8", "--out", tmp / "r2d.json")
    _run("construct", "--base", "cantor", "--depth", 8, "--nmax", 1, "--out", tmp / "cantor")
    # CI: the micro route of an inv_log build, and the tampered builds
    inv = tmp / "inv"
    _run("construct", "--base", "affine(c=1)", "--depth", 10, "--nmax", 1, "--phi", "power(s=0.1)",
         "--zeta", "inv_log", "--eps0", 1.0, "--out", inv)
    _run("report", inv, "--out", inv / "report.json")
    shutil.copytree(tmp / "affine", tmp / "plateau")
    base = funclib.load_function(tmp / "plateau" / "base.fn")
    values = base.values.copy()
    values[512] += 0.01  # stage 1's plateau anchor of cube 2
    funclib.save_function(tmp / "plateau" / "base.fn", funclib.SampledFunction(
        1, base.depth, base.domain, values, base.modulus, base.exact))
    _edit_json(tmp / "plateau" / "stages.json", lambda s: s[2].update(dropped=[50]))
    _run("report", tmp / "plateau", "--out", tmp / "plateau" / "report.json", code=2)
    shutil.copytree(inv, tmp / "nofinal")
    (tmp / "nofinal" / "final.fn").unlink()
    _run("report", tmp / "nofinal", "--out", tmp / "nofinal" / "report.json")
    _run("partition", tmp / "nofinal", "--delta-ladder", "0.01", "--out", tmp / "nofinal.json")
    for key, value in (("depth", 40), ("k", 99999999999999999999), ("values_blake2b", "0")):
        shutil.copytree(tmp / "affine", tmp / key)
        _edit_json(tmp / key / "stages.json", lambda s: s[1].update({key: value}))
        _run("report", tmp / key, "--out", tmp / key / "report.json", code=2)
    shutil.copytree(tmp / "affine", tmp / "eta")
    _edit_json(tmp / "eta" / "stages.json", lambda s: s[0].update(eta="1/2"))
    _run("report", tmp / "eta", "--out", tmp / "eta" / "report.json", code=2)
    _run("construct", "--base", "affine(c=1)", "--depth", 10, "--nmax", 1,
         "--phi", "power(s=2,scale=1e308)", "--out", tmp / "overflow", code=2)
    # CI: exact 2-d oscillation and 2-d and 3-d box counts
    full = setlib.DyadicCubeSet.full(2, 0)
    funclib.save_function(tmp / "e2d.fn", funclib.SampledFunction(
        2, 8, full, rng.random((257, 257)), funclib.HolderModulus(512.0), exact=True))
    setlib.save_cubes(tmp / "r3d.set", setlib.DyadicCubeSet(3, 3, np.flatnonzero(
        rng.random(1 << 9) < 0.2)))
    _run("analyze", tmp / "e2d.fn", "--depths", "7,8", "--window", "0..5", "--sample-depth", 1,
         "--out", tmp / "e2d")
    _run("dims", tmp / "r2d.set", "--scales", "triadic:1..6", "--out", tmp / "r2d-triadic.json")
    _run("dims", tmp / "r3d.set", "--scales", "dyadic:1..6", "--out", tmp / "r3d.json")
    # a partial-domain build through the API, and partition on it
    f = funclib.make_test_function("affine", {"c": 1.0}, depth=10)
    values = f.values.copy()
    values[(1 << f.depth) // 2 + 1 :] = np.nan
    half = setlib.DyadicCubeSet.from_indices(1, 1, [(0,)])
    build = construct.iterate_typical(
        funclib.SampledFunction(1, f.depth, half, values, f.modulus, f.exact), 2,
        gauges.parse_gauge("power(s=0.1)"), gauges.parse_gauge("power(s=1)"), 0.5)
    construct.save_build(tmp / "half", build)
    _run("partition", tmp / "half", "--delta-ladder", "0.01", "--out", tmp / "half.json")
    # a generator-backed .fn on a partial domain with a table modulus
    rough = funclib.SampledFunction(
        1, 10, half, np.where(np.arange(1025) <= 512, np.sin(np.arange(1025) / 50.0), np.nan),
        funclib.TableModulus((0.01, 1.0), (0.1, 2.0)))
    funclib.save_function(tmp / "table.fn", rough)
    _run("analyze", tmp / "table.fn", "--window", "2..8", "--out", tmp / "table")
    # micro: three 2-d components pass, the random set fails
    setlib.save_cubes(tmp / "pts.set", setlib.DyadicCubeSet.from_points(
        2, 8, [(0.2, 0.3), (0.5, 0.5), (0.8, 0.1)]))
    _run("micro", tmp / "pts.set", "--eps", 0.1, "--nmax", 20, "--out", tmp / "m")
    _run("micro", tmp / "r2d.set", "--eps", 0.5, "--out", tmp / "m-fail", code=1)
    # a --config run
    (tmp / "cfg.json").write_text(json.dumps({"scales": "dyadic:1..6", "out": str(tmp / "c.json")}))
    _run("--config", tmp / "cfg.json", "dims", tmp / "r2d.set")


@pytest.fixture(scope="module")
def unreached(tmp_path_factory) -> set[str]:
    """module.qualname of each def that the traffic did not enter and that
    no acceptance test names."""
    defined = _defs()
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    old = sys.getprofile()
    sys.setprofile(profile)
    try:
        _traffic(tmp_path_factory.mktemp("reach"))
    finally:
        sys.setprofile(old)
    for code in codes:
        path = Path(code.co_filename)
        if path.resolve().parent == PACKAGE:
            defined.pop((path.stem, code.co_firstlineno, code.co_name), None)
    acceptance = _acceptance_names()
    return {name for name in defined.values() if name.rpartition(".")[2] not in acceptance}


def _covers(key: str, name: str) -> bool:
    return name == key or name.startswith(key + ".")


def test_every_def_is_reached(unreached):
    bare = sorted(n for n in unreached if not any(_covers(key, n) for key in ALLOWED_UNREACHED))
    assert not bare, f"entered by no command and named by no acceptance test: {bare}"


def test_allowlist_is_current(unreached):
    # an entry whose code is gone, or now entered or named by an acceptance
    # test, should leave the list
    stale = sorted(key for key in ALLOWED_UNREACHED if not any(_covers(key, n) for n in unreached))
    assert not stale, f"allowlist entries no longer needed: {stale}"
