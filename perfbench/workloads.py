"""The two benchmark workloads: their set-up, their measured CLI commands,
the checks on each command's output, and the exact counters read from the
artifacts. perfbench/NOTES.md says why each workload was chosen.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass


@dataclass(frozen=True)
class Command:
    """One measured `liplab` invocation; paths are relative to its run directory."""

    label: str
    argv: tuple[str, ...]  # starts with the subcommand
    outputs: tuple[str, ...]  # files or directories it writes

    @property
    def command(self) -> str:
        return self.argv[0]


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[Command, ...]
    # set-up, in the inputs directory: python snippets (formatted with
    # the seed) and then CLI invocations
    setup_python: tuple[str, ...] = ()
    setup_commands: tuple[Command, ...] = ()
    # relative to the run directory: the build directory the commands write
    # or read, and the .fn/.set input files they read
    build: str | None = None
    input_files: tuple[str, ...] = ()


# A 2-d cube set at depth 10 that keeps each cube with probability 0.2.
RANDOM_SET = """\
import numpy as np
kept = np.argwhere(np.random.default_rng({seed}).random((1024, 1024)) < 0.2)
with open("r2d.set", "w", encoding="utf-8") as fh:
    fh.write("d 2 m 10\\n")
    np.savetxt(fh, kept, fmt="%d")
"""

WEIERSTRASS_FN = """\
from liplab import funclib
f = funclib.make_test_function("weierstrass", dict(a=0.5, b=3, terms=25), 16)
funclib.save_function("w.fn", f)
"""


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "staircase-weierstrass",
            (
                Command(
                    "construct",
                    ("construct", "--base", "weierstrass(a=0.5,b=3,terms=25)", "--depth", "16", "--nmax", "2",
                     "--phi", "power(s=0.1)", "--zeta", "power(s=1)", "--eps0", "0.5",
                     "--max-depth", "24", "--out", "build"),
                    ("build",),
                ),
                Command("report", ("report", "build", "--out", "report.json"), ("report.json",)),
            ),
            build="build",
        ),
        Workload(
            "partition-analyze-dims",
            (
                Command(
                    "partition",
                    ("partition", "../inputs/affine", "--xi", "power(s=1)",
                     "--phi", "power(s=2,scale=0.2)", "--delta-ladder", "0.1,0.01,0.001",
                     "--out", "partition.json"),
                    ("partition.json",),
                ),
                Command(
                    "analyze-window",
                    ("analyze", "../inputs/w.fn", "--gauge", "power(s=1)", "--window", "4..12",
                     "--out", "window"),
                    ("window.csv", "window.json"),
                ),
                Command(
                    "analyze-Lip",
                    ("analyze", "../inputs/w.fn", "--mode", "Lip", "--depths", "12,14,16",
                     "--out", "ladder"),
                    ("ladder.csv", "ladder.json"),
                ),
                Command(
                    "dims-cantor",
                    ("dims", "cantor:12", "--scales", "triadic:1..12", "--out", "cantor.json"),
                    ("cantor.json",),
                ),
                Command(
                    "dims-r2d",
                    ("dims", "../inputs/r2d.set", "--scales", "dyadic:1..10", "--out", "r2d.json"),
                    ("r2d.json",),
                ),
            ),
            setup_python=(WEIERSTRASS_FN, RANDOM_SET),
            setup_commands=(
                Command(
                    "construct-affine",
                    ("construct", "--base", "affine(c=1)", "--depth", "10", "--nmax", "3",
                     "--phi", "power(s=0.1)", "--zeta", "power(s=1)", "--eps0", "1.0",
                     "--out", "affine"),
                    ("affine",),
                ),
            ),
            build="../inputs/affine",
            input_files=("../inputs/w.fn", "../inputs/r2d.set"),
        ),
    )
}


def output_digest(run_dir: str, cmd: Command) -> str:
    """sha256 over the command's output files, skipping `.meta` sidecars."""
    files = []
    for out in cmd.outputs:
        path = os.path.join(run_dir, out)
        if os.path.isdir(path):
            files += [os.path.join(out, name) for name in os.listdir(path)]
        else:
            files.append(out)
    h = hashlib.sha256()
    for rel in sorted(f for f in files if not f.endswith(".meta")):
        h.update(rel.encode() + b"\0")
        h.update(_file_sha256(os.path.join(run_dir, rel)))
    return h.hexdigest()


def _file_sha256(path: str) -> bytes:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.digest()


def _payloads(run_dir: str, cmd: Command):
    for out in cmd.outputs:
        path = os.path.join(run_dir, out)
        if os.path.isdir(path):
            path = os.path.join(path, "certificates.json")
        if path.endswith(".json") and os.path.isfile(path):
            with open(path, "r", encoding="utf-8") as fh:
                yield out, json.load(fh)


def output_problems(run_dir: str, cmd: Command) -> list[str]:
    """Checks beyond the exit code: `all_pass` where present, and oracles."""
    problems = []
    for out, payload in _payloads(run_dir, cmd):
        if payload.get("all_pass", True) is not True:
            problems.append(f"{out}: all_pass is {payload.get('all_pass')!r}")
    if cmd.label == "dims-cantor":
        # N(3^-j) = 2^j exactly for the middle-thirds Cantor set
        (_, payload), = _payloads(run_dir, cmd)
        if not math.isclose(payload["lbdim_proxy"], math.log(2) / math.log(3), rel_tol=1e-12):
            problems.append(f"cantor lbdim_proxy {payload['lbdim_proxy']!r} != log2/log3")
    return problems


def _count_lines(path: str) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh) - 1  # header line


def _components(path: str) -> int:
    """Maximal runs of consecutive cubes in a 1-d `.set` file."""
    with open(path, "r", encoding="utf-8") as fh:
        fh.readline()
        idx = sorted(int(line) for line in fh if line.strip())
    return sum(1 for a, b in zip([None] + idx, idx) if a is None or b != a + 1)


def artifact_counters(run_dir: str, workload: Workload) -> dict[str, float]:
    """Exact counts read from the files a run used and wrote, never from timers."""
    counters = dict.fromkeys(COUNTER_NAMES, 0)
    files = [os.path.join(run_dir, f) for f in workload.input_files]
    if workload.build:
        build = os.path.join(run_dir, workload.build)
        with open(os.path.join(build, "stages.json"), "r", encoding="utf-8") as fh:
            stages = json.load(fh)
        counters["construct.stage_k"] = max(s["k"] for s in stages)
        counters["construct.grid_depth"] = max(s["depth"] for s in stages)
        counters["construct.tail_components"] = _components(os.path.join(build, "E.set"))
        files += [os.path.join(build, "base.fn"), os.path.join(build, "final.fn")]
    counters["funclib.fn_bytes"] = sum(os.path.getsize(f) for f in files if f.endswith(".fn"))
    counters["setlib.cubes_loaded"] = sum(_count_lines(f) for f in files if f.endswith(".set"))
    for cmd in workload.commands:
        for _, payload in _payloads(run_dir, cmd):
            for rec in payload.get("image_cover", ()):
                counters["partition.vitali.candidates"] += rec["candidates"]
                counters["partition.vitali.kept"] += rec["candidates"] - rec["discarded"]
    if counters["partition.vitali.candidates"]:
        counters["partition.vitali.kept_ratio"] = (
            counters["partition.vitali.kept"] / counters["partition.vitali.candidates"]
        )
    return counters


COUNTER_NAMES = (
    "construct.stage_k",
    "construct.grid_depth",
    "construct.tail_components",
    "partition.vitali.candidates",
    "partition.vitali.kept",
    "partition.vitali.kept_ratio",
    "funclib.fn_bytes",
    "setlib.cubes_loaded",
)
