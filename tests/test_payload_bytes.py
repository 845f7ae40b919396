"""Pinned sha256 digests of the CLI payloads on fixed inputs.

A refactor must leave these bytes unchanged.  A change that means to alter
a payload byte updates the digest here and says why in CHANGES.md.
"""

import hashlib
from unittest import mock

import numpy as np
import pytest

from liplab import cli, funclib, setlib
from liplab.cli import CSV_COLUMNS, main

BUILDS = {
    "constant": ("--base", "constant(value=0.5)", "--depth", "8", "--nmax", "2"),
    # the affine build of perfbench's partition-analyze-dims workload
    "affine": ("--base", "affine(c=1)", "--depth", "10", "--nmax", "3", "--phi", "power(s=0.1)",
               "--zeta", "power(s=1)", "--eps0", "1.0"),
    # an inv_log build, whose micro route covers E exactly
    "affine-inv_log": ("--base", "affine(c=1)", "--depth", "10", "--nmax", "1", "--phi",
                       "power(s=0.1)", "--zeta", "inv_log", "--eps0", "1.0"),
    # the build of perfbench's staircase-weierstrass workload
    "staircase-weierstrass": ("--base", "weierstrass(a=0.5,b=3,terms=25)", "--depth", "16",
                              "--nmax", "2", "--phi", "power(s=0.1)", "--zeta", "power(s=1)",
                              "--eps0", "0.5", "--max-depth", "24"),
}

BUILD_DIGESTS = {
    "constant": {
        "certificates.json":
            "cdbb73cb02efd1b02b1ca1e1fa658e88cbac8eb174348d638c356335e5a2568f",
        "report.json":
            "cdbb73cb02efd1b02b1ca1e1fa658e88cbac8eb174348d638c356335e5a2568f",
        "E.set":
            "9ff24a21fec95e43cc1e863d8da985af9c61e887a6a313a9b2a081871455399e",
        "F.set":
            "9ff24a21fec95e43cc1e863d8da985af9c61e887a6a313a9b2a081871455399e",
        "stages.json":
            "ace1db6e526b5e75c08429890cc72f03834e4245fb8cece961c17a0d984b4e44",
    },
    "affine": {
        "certificates.json":
            "373f480eb1eab6fed52fdbdbf819d79d1b355b5e89fc145f0065be7ab6f96c92",
        "report.json":
            "373f480eb1eab6fed52fdbdbf819d79d1b355b5e89fc145f0065be7ab6f96c92",
        "E.set":
            "016691bb0a83388cb4044dcd415c791a2c444461232469b5d55be589ce2dc89d",
        "F.set":
            "016691bb0a83388cb4044dcd415c791a2c444461232469b5d55be589ce2dc89d",
        "stages.json":
            "3b2982d83a1c5f3c0a598015634b3fd2234627842f39df7fe13d41a04a9a1e1b",
    },
    "affine-inv_log": {
        "certificates.json":
            "e90bbffe327eb9a91a61eff5b833c50f0f3fce6db272fb49e1b45050a30315e7",
        "report.json":
            "e90bbffe327eb9a91a61eff5b833c50f0f3fce6db272fb49e1b45050a30315e7",
        "E.set":
            "6dd4963b89e0741913d19708e8c922a290065cdb8c44cb66d9176a446824adf5",
        "F.set":
            "6dd4963b89e0741913d19708e8c922a290065cdb8c44cb66d9176a446824adf5",
        "stages.json":
            "1b9db887e642ddff30709640c6c4b504f15d51bbc5dd3a7c7515e48045020405",
    },
    "staircase-weierstrass": {
        "certificates.json":
            "6705f2c0597ba94560c507f43c5320c518301073dc4fb33b109022c878156789",
        "report.json":
            "6705f2c0597ba94560c507f43c5320c518301073dc4fb33b109022c878156789",
        "E.set":
            "cf77ba764da3a26b649b923c3ddf5912451be470672ae3f33c870ca27b69abcb",
        "F.set":
            "cf77ba764da3a26b649b923c3ddf5912451be470672ae3f33c870ca27b69abcb",
        "stages.json":
            "205e59f142792494528c407b8d89772dea758c2b8673b71bb6a61bd7ceaaed42",
        # the function files: a run-length writer must give these bytes
        "base.fn":
            "e1cde4cb07e9e605ac7fe5fc4fd9bf1783e2e04c9feccaebab6dd382616f7792",
        "final.fn":
            "81fad90367d8955d09fa3d48540d1d940e95586678234b1b36db675fd4d4a052",
    },
}

PARTITION_DIGEST = "ef83aa00585ff04474d2fd228489d94aec1c79b572c656bd3fcda60933e290af"
DIMS_CANTOR_DIGEST = "0fa7d13f54e24c96fae7db9e276e9c74cdcb6dc465defb69d783a5938c2f636c"
DIMS_2D_DIGEST = "8dc5850773e81c44c9bc6c909348fbb018784e4aeb7a1308dce2825805edd21e"
MICRO_2D_DIGESTS = {
    "m2d.json": "7868ebbad6b0b28d8e741f6f7b410edc22290b7869ad1f83dbf33e90ec4a7728",
    "m2d.cover": "79b0bb9f2530d8963ca09b5d02994d20b250a7fa061f8c21dc6235410680bb75",
}
ANALYZE_2D_DIGESTS = {
    "an.json": "ce8ee9f3b5e12b7dc8a12f9e5933a62f825939246be748120646f3509b3dea59",
    "an.csv": "f99d32583267e08351a9b3974d4bb1ff4e25872f464e9beea5f4dda95687bdea",
}
# perfbench's two analyze commands on the depth-16 Weierstrass .fn
ANALYZE_1D = {
    "window": ("--gauge", "power(s=1)", "--window", "4..12"),
    "ladder": ("--mode", "Lip", "--depths", "12,14,16"),
}
ANALYZE_1D_DIGESTS = {
    "window.csv": "36601a4fd5fa64005e2da17801a495428fff7aae9ef9028d62c42eb5c22ddde3",
    "window.json": "f19ea361a0fac5d959cbfc6e87d9bf37545961d26772d1b0a6141b217b1d3036",
    "ladder.csv": "fb8a4b30ad8e510fd9baed2023958447438ebc003dea63ff9fc6d7e4cb23ec25",
    "ladder.json": "8d47fc9c3e46e6a80d77706996b77c2a050a139a04eaeba1b4c503b55af913af",
}
ANALYZE_EMPTY_DIGESTS = {
    "empty.csv": "1a570aff6776c6ec918f99af6b8b0b0306f1e19afda2b4fff4225f38dbfe5b17",
    "empty.json": "a7f44f36cc967c4a86a9e2d37324dda9541cf474c1c72be51f9fc9d5bf45289e",
}
PARTIAL_FN_DIGEST = "01617201930306b46befff091ad54448c9bd7b81fdf9877964fa69cddf947e01"


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def builds(tmp_path_factory):
    root = tmp_path_factory.mktemp("payload_bytes")
    for name, flags in BUILDS.items():
        out = root / name
        assert main(["construct", *flags, "--out", str(out)]) == 0
        assert main(["report", str(out), "--out", str(out / "report.json")]) == 0
    return root


@pytest.mark.parametrize("name", sorted(BUILDS))
def test_build_payload_bytes(builds, name):
    got = {file: _sha256(builds / name / file) for file in BUILD_DIGESTS[name]}
    assert got == BUILD_DIGESTS[name]


def test_partition_payload_bytes(builds, tmp_path):
    out = tmp_path / "partition.json"
    assert main(["partition", str(builds / "affine"), "--xi", "power(s=1)",
                 "--phi", "power(s=2,scale=0.2)", "--delta-ladder", "0.1,0.01,0.001",
                 "--out", str(out)]) == 0
    assert _sha256(out) == PARTITION_DIGEST


def test_dims_cantor_payload_bytes(tmp_path):
    out = tmp_path / "cantor.json"
    assert main(["dims", "cantor:8", "--out", str(out)]) == 0
    assert _sha256(out) == DIMS_CANTOR_DIGEST


def test_dims_2d_payload_bytes(tmp_path):
    # a seeded depth-6 set whose lines come shuffled, five of them twice
    rng = np.random.default_rng(7)
    lines = [f"{a} {b}" for a, b in np.argwhere(rng.random((64, 64)) < 0.3).tolist()]
    lines = [lines[i] for i in rng.permutation(len(lines))] + lines[:5]
    (tmp_path / "r2d.set").write_text("d 2 m 6\n" + "\n".join(lines) + "\n")
    out = tmp_path / "r2d.json"
    assert main(["dims", str(tmp_path / "r2d.set"), "--scales", "dyadic:1..6",
                 "--out", str(out)]) == 0
    assert _sha256(out) == DIMS_2D_DIGEST


def test_micro_2d_payload_bytes(tmp_path):
    # five components, two of them with equal volume
    blobs = [(3, 4), (3, 5), (10, 40), (11, 40), (11, 41), (30, 30), (50, 2), (60, 60), (61, 60)]
    (tmp_path / "m2d.set").write_text("d 2 m 6\n" + "\n".join(f"{a} {b}" for a, b in blobs) + "\n")
    assert main(["micro", str(tmp_path / "m2d.set"), "--eps", "0.5", "--nmax", "12",
                 "--out", str(tmp_path / "m2d")]) == 0
    assert {name: _sha256(tmp_path / name) for name in MICRO_2D_DIGESTS} == MICRO_2D_DIGESTS


def _analyze_2d_partial_domain(tmp_path) -> dict[str, str]:
    depth = 6
    xs = np.linspace(0.0, 1.0, (1 << depth) + 1)
    values = xs[:, None] + 0.5 * xs[None, :] ** 2
    values[33:, 33:] = np.nan  # off the domain's missing quarter
    domain = setlib.DyadicCubeSet.from_indices(2, 1, [(0, 0), (0, 1), (1, 0)])
    f = funclib.SampledFunction(2, depth, domain, values, funclib.HolderModulus(1.5, 1.0),
                                exact=True)
    funclib.save_function(tmp_path / "a2.fn", f)
    assert main(["analyze", str(tmp_path / "a2.fn"), "--sample-depth", "2", "--tau", "2.3",
                 "--out", str(tmp_path / "an")]) == 0
    return {name: _sha256(tmp_path / name) for name in ANALYZE_2D_DIGESTS}


def test_analyze_2d_partial_domain_payload_bytes(tmp_path):
    assert _analyze_2d_partial_domain(tmp_path) == ANALYZE_2D_DIGESTS


def test_analyze_2d_payload_bytes_in_small_write_blocks(tmp_path):
    # the CSV rows and the JSON encoder chunks are written a block at a time
    with mock.patch.multiple(cli, _JSON_CHUNKS=3, _CSV_ROWS=2):
        assert _analyze_2d_partial_domain(tmp_path) == ANALYZE_2D_DIGESTS


@pytest.mark.parametrize("name", sorted(ANALYZE_1D))
def test_analyze_1d_payload_bytes(tmp_path, name):
    f = funclib.make_test_function("weierstrass", dict(a=0.5, b=3, terms=25), 16)
    funclib.save_function(tmp_path / "w.fn", f)
    assert main(["analyze", str(tmp_path / "w.fn"), *ANALYZE_1D[name],
                 "--out", str(tmp_path / name)]) == 0
    files = (f"{name}.csv", f"{name}.json")
    assert {file: _sha256(tmp_path / file) for file in files} == {
        file: ANALYZE_1D_DIGESTS[file] for file in files
    }


def test_analyze_empty_field_payload_bytes(tmp_path):
    # Omega = depth-3 cube 0, so the one depth-0 sample center 1/2 lies off it:
    # the CSV is the header and a blank line, and the payload has no points
    xs = np.linspace(0.0, 1.0, (1 << 10) + 1)
    values = np.where(xs <= 0.125, xs, np.nan)
    domain = setlib.DyadicCubeSet(1, 3, [0])
    f = funclib.SampledFunction(1, 10, domain, values, funclib.HolderModulus(1.0, 1.0),
                                exact=True)
    funclib.save_function(tmp_path / "e.fn", f)
    assert main(["analyze", str(tmp_path / "e.fn"), "--sample-depth", "0",
                 "--out", str(tmp_path / "empty")]) == 0
    assert (tmp_path / "empty.csv").read_text() == CSV_COLUMNS + "\n\n"
    assert '"points": []' in (tmp_path / "empty.json").read_text()
    assert {name: _sha256(tmp_path / name) for name in ANALYZE_EMPTY_DIGESTS} == (
        ANALYZE_EMPTY_DIGESTS
    )


def test_partial_domain_function_file_bytes(tmp_path):
    depth, kept = 8, [0, 2, 3, 6]
    values = np.sin(np.arange((1 << depth) + 1) / 7.0)
    on = np.zeros(values.shape, dtype=bool)
    for q in kept:
        on[q * 32 : (q + 1) * 32 + 1] = True
    values[~on] = np.nan
    domain = setlib.DyadicCubeSet.from_indices(1, 3, [(q,) for q in kept])
    f = funclib.SampledFunction(1, depth, domain, values, funclib.HolderModulus(0.25, 1.0))
    funclib.save_function(tmp_path / "p1.fn", f)
    assert _sha256(tmp_path / "p1.fn") == PARTIAL_FN_DIGEST
