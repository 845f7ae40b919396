"""The CLI exit contract: 0 pass, 1 certificate failure, 2 configuration error.

Exit 1 comes only from a command that wrote a payload whose verdict is
false; an input that no run can use exits 2 with a `config error:` line and
writes nothing.  The table below pins inputs at that border, and the fuzzer
mutates one token of a small build's files and checks that `cli.main`
returns 0, 1 or 2 and raises nothing else, that a report that passes
keeps its budgets and its sup distance within meta.json's eps0, and that
report and partition, which never read final.fn, write the intact build's
bytes whatever final.fn holds.
"""

import json
import re
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from liplab import cli, funclib, setlib

AFFINE = ["construct", "--base", "affine(c=1)", "--depth", 10, "--nmax", 3,
          "--phi", "power(s=0.1)", "--zeta", "power(s=1)", "--eps0", 1.0]
# meta.json early_stop values of the copies early-<name>; construct writes
# null or a string
EARLY_STOPS = {"0": 0, "false": False, "list": [1], "object": {"a": 1}, "text": "stage 4: x"}
# stages.json copies stage-<name>: (stage, key, value)
STAGE_EDITS = {"depth-40": (1, "depth", 40), "k-huge": (1, "k", 99999999999999999999),
               "k-40": (2, "k", 40), "eta-third": (1, "eta", "1/3"),
               "sha": (3, "values_blake2b", "0" * 64),
               "sha256-key": (1, "values_sha256", "0" * 64)}


def _main(argv, capsys) -> tuple[int, str]:
    capsys.readouterr()
    code = cli.main([str(a) for a in argv])
    return code, capsys.readouterr().err


def _verdict(path: Path) -> bool:
    """The verdict a command wrote: `all_pass`, or `ok` for micro."""
    payload = json.loads(path.read_text())
    return payload["all_pass"] if "all_pass" in payload else payload["ok"]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The affine build, a copy whose meta.json has eps0 -1, a copy with a
    Weierstrass build's base.fn and stage 1's epsilon set to 100, a copy
    whose base.fn keeps only Omega = [0, 1/2], a copy whose base.fn has an
    empty domain, a copy per EARLY_STOPS value and per STAGE_EDITS entry,
    and four exact 1-d .fn files: all NaN, one value inf, one value 1e308,
    and one whose `exact 1` line is misspelt."""
    root = tmp_path_factory.mktemp("contract")
    assert cli.main([str(a) for a in AFFINE + ["--out", root / "aff"]]) == 0
    full = setlib.DyadicCubeSet.full(1, 0)
    funclib.save_function(root / "nan.fn", funclib.SampledFunction(
        1, 8, full, np.full(257, np.nan), funclib.HolderModulus(1.0), exact=True))
    f = funclib.make_test_function("affine", {"c": 1.0}, 8)
    values = f.values.copy()
    values[100] = np.inf
    funclib.save_function(root / "inf.fn", funclib.SampledFunction(
        1, 8, f.domain, values, f.modulus, exact=True))
    values[100] = 1e308  # finite, but its oscillation ratios pass the float range
    funclib.save_function(root / "huge.fn", funclib.SampledFunction(
        1, 8, f.domain, values, f.modulus, exact=True))
    shutil.copytree(root / "aff", root / "eps0")
    meta = json.loads((root / "eps0" / "meta.json").read_text())
    (root / "eps0" / "meta.json").write_text(json.dumps(dict(meta, eps0=-1.0)))
    for name, early_stop in EARLY_STOPS.items():
        shutil.copytree(root / "aff", root / f"early-{name}")
        text = json.dumps(dict(meta, early_stop=early_stop))
        (root / f"early-{name}" / "meta.json").write_text(text)
    for name, (stage, key, value) in STAGE_EDITS.items():
        shutil.copytree(root / "aff", root / f"stage-{name}")
        stages = json.loads((root / f"stage-{name}" / "stages.json").read_text())
        stages[stage - 1][key] = value
        (root / f"stage-{name}" / "stages.json").write_text(json.dumps(stages))
    shutil.copytree(root / "aff", root / "mixed")
    funclib.save_function(root / "mixed" / "base.fn", funclib.make_test_function(
        "weierstrass", {"a": 0.5, "b": 3.0, "terms": 25}, 10))
    stages = json.loads((root / "mixed" / "stages.json").read_text())
    stages[0]["epsilon"] = 100.0
    (root / "mixed" / "stages.json").write_text(json.dumps(stages))
    shutil.copytree(root / "aff", root / "half")
    base = funclib.load_function(root / "half" / "base.fn")
    values = base.values.copy()
    values[513:] = np.nan
    funclib.save_function(root / "half" / "base.fn", funclib.SampledFunction(
        1, base.depth, setlib.DyadicCubeSet(1, 1, [0]), values, base.modulus, base.exact))
    shutil.copytree(root / "aff", root / "empty")
    f = funclib.load_function(root / "empty" / "base.fn")
    funclib.save_function(root / "empty" / "base.fn", funclib.SampledFunction(
        1, f.depth, setlib.DyadicCubeSet(1, 0, []), np.full_like(f.values, np.nan), f.modulus,
        f.exact))
    funclib.save_function(root / "exac.fn", funclib.make_test_function("affine", {"c": 1.0}, 10))
    text = (root / "exac.fn").read_text()
    (root / "exac.fn").write_text(text.replace("\nexact 1\n", "\nexac 1\n"))
    return root


SHA_MISMATCH = "stages.json stage 1: the stage replayed from base.fn has values_blake2b"
MIXED = "stages.json stage 1: plateau offset 1.33086 exceeds eps=0.5"
CASES = {
    # eps0 * 2^-1 underflows the budget: nothing was built, so nothing failed
    "eps0-underflow": (["construct", "--eps0", 1e-300, "--out", "{out}"], 2,
                       "no stage could be built"),
    "no-admissible-eta": (["construct", "--base", "weierstrass(a=0.5,b=3,terms=25)", "--depth", 10,
                           "--nmax", 2, "--zeta", "power(s=0.001)", "--out", "{out}"], 2,
                          "no admissible eta"),
    "gauge-relation": (["partition", "{aff}", "--xi", "power(s=0.5)", "--phi", "power(s=1)",
                        "--out", "{out}"], 2,
                       "gauge relation xi(phi(5r)) <= r^(d+1) fails at r=0.125"),
    # the relation fails at r = 2^-45, below the radii the pre-check scans
    "chain-audit": (["partition", "{aff}", "--xi", "table(rs=1e-40:1e-25,gs=1:1e-60)",
                     "--phi", "power(s=2,scale=0.2)", "--delta-ladder", 5e-14, "--out", "{out}"], 2,
                    f"chain audit failed for the kept ball at x=0.00042724609375, r={2.0**-45!r}"),
    "fn-all-nan": (["analyze", "{root}/nan.fn", "--out", "{out}"], 2, "value nan at vertex (0,)"),
    "fn-inf": (["analyze", "{root}/inf.fn", "--out", "{out}"], 2, "value inf at vertex (100,)"),
    "depth-below-0": (["construct", "--depth", -1, "--out", "{out}"], 2, "need 0 <= --depth -1"),
    "max-depth-past-key-bits": (["construct", "--depth", 8, "--max-depth", 63, "--out", "{out}"], 2,
                                "--max-depth 63 <= 62"),
    # once a traceback: 2^45+1 float64 values are 256 TiB, past the address
    # space, so the allocation fails at once
    "depth-unallocatable": (["construct", "--depth", 45, "--max-depth", 50, "--out", "{out}"], 2,
                            "Unable to allocate"),
    # once numpy's `array is too big` traceback
    "max-depth-past-array-size": (["construct", "--depth", 60, "--max-depth", 62, "--out", "{out}"],
                                  2, "--max-depth 62: numpy cannot size a grid"),
    # once exit 0, with a rank-deficient slope fit over one distinct scale
    "dims-repeated-scale": (["dims", "cantor:4", "--scales", "0.5,0.5,0.5,0.5,0.5,0.5", "--out",
                             "{out}"], 2, "repeats a scale"),
    "affine-overflow": (["construct", "--base", "affine(c=1e308,intercept=1e308)", "--out", "{out}"],
                        2, "leave the float range"),
    # once skipped, which left the function inexact, and exit 0
    "fn-misspelt-trailer": (["analyze", "{root}/exac.fn", "--out", "{out}"], 2,
                            "line 'exac 1' after the values is no"),
    # once ignored, and exit 0
    "meta-eps0-negative": (["report", "{root}/eps0", "--out", "{out}"], 2,
                           "eps0: meta.json's eps0 -1.0 must be positive and finite"),
    # once exit 1, as a recorded early stop
    **{f"meta-early-stop-{name}": (["report", f"{{root}}/early-{name}", "--out", "{out}"], 2,
                                   f"meta.json's early_stop {value!r} must be null or a string")
       for name, value in EARLY_STOPS.items() if name != "text"},
    "meta-early-stop-text": (["report", "{root}/early-text", "--out", "{out}"], 1,
                             "early stop: stage 4: x"),
    # once exit 0: a stored stage-1 budget of 100 covered the foreign base's
    # distance 2.5, where the budgets derived from eps0 1.0 sum to 0.74; then
    # exit 1 on that distance.  Replayed from the foreign base.fn, stage 1
    # cannot plateau it within its budget
    "budget-stage1-mixed-report": (["report", "{root}/mixed", "--out", "{out}"], 2, MIXED),
    "budget-stage1-mixed-partition": (["partition", "{root}/mixed", "--out", "{out}"], 2, MIXED),
    # once exit 0: sup_distance skipped the NaN half of base.fn, and the
    # approximation claim held on [0, 1/2] alone
    "domain-half-base-report": (["report", "{root}/half", "--out", "{out}"], 2, SHA_MISMATCH),
    "domain-half-base-partition": (["partition", "{root}/half", "--out", "{out}"], 2,
                                   SHA_MISMATCH),
    # no stage keeps a cube, so no plateau can be measured
    "domain-empty": (["report", "{root}/empty", "--out", "{out}"], 2,
                     "stages.json stage 1: no cube meets the domain"),
    # a stored stage is refused before its grid is built, or by its replay
    "stage-depth-40": (["report", "{root}/stage-depth-40", "--out", "{out}"], 2,
                       "stages.json stage 1: depth 40 is not the derived depth 10"),
    "stage-k-huge": (["partition", "{root}/stage-k-huge", "--out", "{out}"], 2,
                     "stages.json stage 1: k = 99999999999999999999 beyond k_max = 2097152"),
    "stage-k-40": (["report", "{root}/stage-k-40", "--out", "{out}"], 2,
                   "stages.json stage 2: the stage replayed from base.fn has values_blake2b"),
    "stage-eta-third": (["report", "{root}/stage-eta-third", "--out", "{out}"], 2,
                        "stages.json stage 1: need eta < 1/k"),
    "stage-sha": (["partition", "{root}/stage-sha", "--out", "{out}"], 2,
                  "stages.json stage 3: the stage replayed from base.fn has values_blake2b"
                  " 2ba3e4e56bcc49ec405e931eca088527d9a2377ef0520748c98fb8ae08391cff, not the"
                  f" stored {'0' * 64!r}"),
    # the stage digest of builds before values_blake2b
    "stage-sha256-key": (["report", "{root}/stage-sha256-key", "--out", "{out}"], 2,
                         "stages.json stage 1: values_sha256 is the stage digest of builds"
                         " before values_blake2b"),
    # an overflowing ratio is inf, with no RuntimeWarning
    "fn-ratio-overflow": (["analyze", "{root}/huge.fn", "--out", "{out}"], 0, ""),
    # no admissible ball at any B cube center: the cover holds no ball, and
    # every center is uncovered
    "uncovered-ladder": (["partition", "{aff}", "--delta-ladder", 1e-300, "--out", "{out}"], 1,
                         "image_cover at delta=1e-300: 5626 of 5626 B cube centres uncovered"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_exit_contract_table(inputs, tmp_path, capsys, name):
    argv, code, words = CASES[name]
    out = tmp_path / "out"
    argv = [str(a).format(root=inputs, aff=inputs / "aff", out=out) for a in argv]
    got, err = _main(argv, capsys)
    assert got == code, err
    if code == 0:
        assert err == ""
        return
    assert err.startswith("certificate failure: " if code == 1 else "config error: "), err
    assert words in err and "Traceback" not in err
    if code == 1:  # the payload is written, and its verdict is false
        assert _verdict(out) is False
    else:
        assert not out.exists() and not list(tmp_path.glob("out*"))


def test_uncovered_ladder_payload(inputs, tmp_path, capsys):
    out = tmp_path / "p.json"
    assert _main(["partition", inputs / "aff", "--delta-ladder", 1e-300, "--out", out],
                 capsys)[0] == 1
    (cover,) = json.loads(out.read_text())["image_cover"]
    assert cover["balls"] == [] and cover["sum"] == 0.0 <= cover["bound"]
    assert len(cover["uncovered_points"]) == 5626 and cover["verdict"] is False


# ---------------------------------------------------------------------------
# Fuzzer: one token of one file of a small build, and the commands that read it

FUZZ_BUILD = ["construct", "--base", "affine(c=1)", "--depth", 8, "--nmax", 2,
              "--phi", "power(s=0.1)", "--zeta", "power(s=1)", "--eps0", 1.0]
# a token: a run of characters that are not white space or JSON punctuation
TOKEN = re.compile(r"[^\s,:\[\]{}]+")
REPLACEMENTS = [
    "0", "1", "-1", "2", "3", "7", "17", "40", "63", "64", "-0.0", "0.5", "1e-300", "1e308",
    "1e309", "-1e309", "nan", "inf", "-inf", "NaN", "x", "", "null", "true", "false", "[]", "{}",
    '""', '"0"', '"1/2"', '"1/0"', '"-1/3"', '"x"', "99999999999999999999", "0.1",
]
COMMANDS = {
    "stages.json": ["report", "partition"],
    "meta.json": ["report", "partition"],
    "base.fn": ["report", "analyze"],
    "final.fn": ["report", "partition", "analyze"],
    "E.set": ["dims", "micro"],
}


@pytest.fixture(scope="module")
def fuzz_build(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    assert cli.main([str(a) for a in FUZZ_BUILD + ["--out", root / "b"]]) == 0
    return root / "b"


@pytest.fixture(scope="module")
def intact_payloads(fuzz_build, tmp_path_factory):
    """The report and partition payload bytes of the unmutated build."""
    root = tmp_path_factory.mktemp("intact")
    payloads = {}
    for command in ("report", "partition"):
        assert cli.main(_argv(command, fuzz_build, fuzz_build, root / command)) == 0
        payloads[command] = (root / f"{command}.json").read_bytes()
    return payloads


def _argv(command: str, build: Path, path: Path, out: Path) -> list[str]:
    """The command line that writes its JSON payload to out.json."""
    if command in ("report", "partition"):
        return [command, str(build), "--out", f"{out}.json"]
    if command == "analyze":
        return ["analyze", str(path), "--window", "2..8", "--out", str(out)]
    if command == "dims":
        return ["dims", str(path), "--out", f"{out}.json"]
    return ["micro", str(path), "--eps", "0.5", "--out", str(out)]


@st.composite
def _mutations(draw):
    name = draw(st.sampled_from(sorted(COMMANDS)))
    command = draw(st.sampled_from(COMMANDS[name]))
    # most tokens of a .fn are values: aim at the head and the tail too
    index = draw(st.one_of(st.integers(0, 40), st.integers(-6, -1), st.integers(0, 1 << 20)))
    # a replacement, or the token doubled or cut short by one character
    token = draw(st.one_of(st.sampled_from(REPLACEMENTS), st.sampled_from([2, -1])))
    return name, command, index, token


@settings(max_examples=600, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_mutations())
def test_one_token_mutation_keeps_the_exit_contract(fuzz_build, intact_payloads, tmp_path, capsys,
                                                    mutation):
    name, command, index, token = mutation
    build = tmp_path / "b"
    shutil.rmtree(build, ignore_errors=True)
    shutil.copytree(fuzz_build, build)
    path = build / name
    text = path.read_text()
    spans = [m.span() for m in TOKEN.finditer(text)]
    lo, hi = spans[index % len(spans)]
    old = text[lo:hi]
    new = {2: old + old, -1: old[:-1]}.get(token, token)
    path.write_text(text[:lo] + new + text[hi:])
    out = tmp_path / "out"
    Path(f"{out}.json").unlink(missing_ok=True)
    argv = _argv(command, build, path, out)
    code, err = _main(argv, capsys)  # any exception fails the test
    assert code in (0, 1, 2), (argv, code, err)
    if name == "final.fn" and command in intact_payloads:  # a file they never read
        assert code == 0, (argv, err)
        assert Path(f"{out}.json").read_bytes() == intact_payloads[command], argv
    if code == 1:
        assert _verdict(Path(f"{out}.json")) is False, (argv, err)
    if code == 2:
        assert err.startswith("config error: "), (argv, err)
    if code == 0 and command == "report":
        # f lies within eps0 of f0, read from the payload and meta.json alone
        payload = json.loads(Path(f"{out}.json").read_text())
        eps0 = json.loads((build / "meta.json").read_text())["eps0"]
        assert sum(payload["eps_schedule"]) <= eps0, (argv, payload["eps_schedule"], eps0)
        assert payload["sup_distance"] <= eps0, (argv, payload["sup_distance"], eps0)
