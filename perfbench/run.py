"""liplab benchmark: drives the real `liplab` CLI and prints one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a liplab checkout; it imports liplab from ./src and
writes only under perfbench/_work/. The load is a closed loop with one
client: each command starts when the previous one has ended, and whole
iterations of the workload's commands repeat until the next one would end
after --seconds.

--trace 0 reports the end-to-end metrics from subprocess runs. --trace 1
runs one untraced iteration and then the same commands in-process with
perfbench/tracer.py wrapped around liplab's public functions, and reports the
per-layer metrics, the tracing overhead and the exact artifact counters; the
spans are written to perfbench/_work/trace-<workload>-seed<seed>.jsonl.

Every operation is checked: exit code 0, `all_pass` true wherever the payload
has it, the workload's oracles, and an output sha256 (`.meta` sidecars
excluded) identical across all runs of the command in one invocation. The
last line of stdout is {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import tracer
import workloads
from workloads import Command, Workload

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
SETUP_REPEATS = 3  # setup_s is the median of this many set-ups
IMPORT_REPEATS = 5  # cli.import_s is the median of this many fresh imports
DEADLINE_S = 170.0  # no command is left running past this point of a run, whatever --seconds asks
CLI_COMMANDS = ("construct", "report", "partition", "analyze", "dims")


@dataclass
class CommandResult:
    cmd: Command
    wall_s: float
    rss_mb: float
    exit_code: int
    digest: str
    problems: list[str]

    @property
    def ok(self) -> bool:
        return self.exit_code == 0 and not self.problems


class Runner:
    """Starts liplab subprocesses with a pinned environment and a hard deadline."""

    def __init__(self, deadline: float) -> None:
        self.deadline = deadline
        self.cpus = len(os.sched_getaffinity(0))
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
        # os.cpu_count() can exceed the cores this process may use
        self.env["LIPLAB_THREADS"] = str(self.cpus)

    def process(self, argv: list[str], cwd: str, stderr_path: str) -> tuple[float, float, int]:
        """Wall seconds, max RSS in MB and exit code of one child process."""
        with open(stderr_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdout=subprocess.DEVNULL, stderr=err)
            killed = threading.Event()
            timer = threading.Timer(max(1.0, self.deadline - time.monotonic()),
                                    lambda: (killed.set(), proc.kill()))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        if killed.is_set():
            print(f"deadline: a command was killed after {wall:.1f} s, {DEADLINE_S:g} s into the run")
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_maxrss / 1024.0, proc.returncode

    def python(self, code: str, cwd: str) -> str:
        """Run a python snippet against liplab; its stdout."""
        done = subprocess.run(
            [sys.executable, "-c", code], cwd=cwd, env=self.env, capture_output=True, text=True,
            timeout=max(1.0, self.deadline - time.monotonic()),
        )
        if done.returncode != 0:
            raise SetupError(f"python set-up step failed:\n{done.stderr[-2000:]}")
        return done.stdout

    def cli(self, cmd: Command, run_dir: str) -> CommandResult:
        stderr_path = os.path.join(run_dir, f"{cmd.label}.stderr")
        wall, rss, code = self.process(
            [sys.executable, "-m", "liplab.cli", *cmd.argv], run_dir, stderr_path
        )
        return finish(cmd, run_dir, wall, rss, code, stderr_path)


class SetupError(RuntimeError):
    pass


def finish(cmd: Command, run_dir: str, wall: float, rss: float, code: int, stderr_path: str | None) -> CommandResult:
    if code != 0:
        tail = ""
        if stderr_path and os.path.isfile(stderr_path):
            with open(stderr_path, "r", encoding="utf-8", errors="replace") as fh:
                tail = fh.read()[-500:].strip()
        return CommandResult(cmd, wall, rss, code, "", [f"exit {code}: {tail}"])
    return CommandResult(
        cmd, wall, rss, code, workloads.output_digest(run_dir, cmd),
        workloads.output_problems(run_dir, cmd),
    )


def set_up(runner: Runner, workload: Workload, inputs: str, seed: int) -> float:
    """A fresh interpreter importing liplab.cli, then the workload's inputs; the seconds taken."""
    shutil.rmtree(inputs, ignore_errors=True)
    os.makedirs(inputs)
    t0 = time.perf_counter()
    runner.python("import liplab.cli", inputs)
    for code in workload.setup_python:
        runner.python(code.format(seed=seed), inputs)
    for cmd in workload.setup_commands:
        result = runner.cli(with_seed(cmd, seed), inputs)
        if not result.ok:
            raise SetupError(f"set-up command {cmd.label} failed: {result.problems}")
    return time.perf_counter() - t0


def with_seed(cmd: Command, seed: int) -> Command:
    return Command(cmd.label, (*cmd.argv, "--seed", str(seed)), cmd.outputs)


def host_probe() -> float:
    """Fixed CPU work, timed once per run. A diagnostic only: it scales nothing."""
    t0 = time.perf_counter()
    sum(i * i % 7 for i in range(2_000_000))
    return time.perf_counter() - t0


def run_context(runner: Runner, args, work: str, probe: float) -> dict:
    # the worker count comes from liplab itself, under the pinned environment; the
    # import is also the untimed warm-up that fills the page cache and writes
    # liplab's bytecode before anything is timed
    workers, numpy_version = runner.python(
        "import numpy, liplab.cli, liplab.funclib as f; print(f.worker_count(), numpy.__version__)", work
    ).split()
    git_sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30)
            git_sha = done.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    pkg = os.path.join(SRC, "liplab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, 1 client",
        "cpu_affinity": runner.cpus,
        "os_cpu_count": os.cpu_count(),
        "lip_field_workers": int(workers),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_sha": git_sha,
        "src_sha256": src.hexdigest(),
        "host_probe_s": probe,
    }


def iterate(runner: Runner, workload: Workload, work: str, seed: int, seconds: float) -> list[list[CommandResult]]:
    """Closed-loop iterations of the workload's commands until the next would end after `seconds`."""
    commands = [with_seed(c, seed) for c in workload.commands]
    iterations: list[list[CommandResult]] = []
    t0 = time.perf_counter()
    while True:
        run_dir = os.path.join(work, f"iter-{len(iterations)}")
        os.makedirs(run_dir)
        iterations.append([runner.cli(c, run_dir) for c in commands])
        expected = statistics.median(sum(r.wall_s for r in it) for it in iterations)
        elapsed = time.perf_counter() - t0
        if elapsed + expected > seconds:
            return iterations
        if time.monotonic() + expected > runner.deadline:
            print(f"deadline: stopped after {elapsed:.1f} s of the {seconds:g} s asked, "
                  f"to end within {DEADLINE_S:g} s of the start")
            return iterations


def check_digests(results: list[CommandResult], reference: dict[str, str]) -> None:
    """Every run of a command in one invocation must write the same bytes."""
    for r in results:
        if r.exit_code == 0:
            first = reference.setdefault(r.cmd.label, r.digest)
            if r.digest != first:
                r.problems.append(f"output sha256 {r.digest[:16]} differs from first run {first[:16]}")


def per_command_seconds(walls) -> dict[str, float]:
    """Seconds per CLI subcommand from (Command, seconds) pairs."""
    out = dict.fromkeys(CLI_COMMANDS, 0.0)
    for cmd, seconds in walls:
        out[cmd.command] += seconds
    return out


def print_results(results: list[CommandResult], tag: str) -> None:
    for r in results:
        status = "ok" if r.ok else "FAIL " + "; ".join(r.problems)
        rss = f"{r.rss_mb:7.1f} MB" if r.rss_mb else "in-process"  # no RSS of its own
        print(f"{tag} {r.cmd.label:<15} wall {r.wall_s:8.3f} s  rss {rss}  "
              f"sha256 {r.digest or '-'}  {status}")


def run_untraced(runner: Runner, workload: Workload, work: str, args) -> tuple[dict, list[CommandResult]]:
    setups = [set_up(runner, workload, os.path.join(work, "inputs"), args.seed)
              for _ in range(SETUP_REPEATS)]
    print(f"setup_s samples {' '.join(f'{s:.4f}' for s in setups)}")
    iterations = iterate(runner, workload, work, args.seed, args.seconds)
    reference: dict[str, str] = {}
    for i, it in enumerate(iterations):
        check_digests(it, reference)
        print_results(it, f"iter {i + 1}/{len(iterations)}")
    results = [r for it in iterations for r in it]
    medians = {
        c.label: statistics.median(r.wall_s for r in results if r.cmd.label == c.label)
        for c in workload.commands
    }
    for command, seconds in per_command_seconds((c, medians[c.label]) for c in workload.commands).items():
        if seconds:
            print(f"median {command}_s = {seconds:.4f} s")
    metrics = {
        "wall_s": (sum(medians.values()), "s"),
        "peak_rss_mb": (statistics.median(max(r.rss_mb for r in it) for it in iterations), "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    return metrics, results


def run_traced(runner: Runner, workload: Workload, work: str, args, context: dict) -> tuple[dict, list[CommandResult]]:
    inputs = os.path.join(work, "inputs")
    set_up(runner, workload, inputs, args.seed)
    imports, starts = [], []
    for _ in range(IMPORT_REPEATS):
        t0 = time.perf_counter()
        imports.append(float(runner.python(
            "import time; t = time.perf_counter(); import liplab.cli; "
            "print(repr(time.perf_counter() - t))", inputs)))
        starts.append(time.perf_counter() - t0)
    commands = [with_seed(c, args.seed) for c in workload.commands]
    plain_dir = os.path.join(work, "untraced")
    os.makedirs(plain_dir)
    plain = [runner.cli(c, plain_dir) for c in commands]

    sys.path.insert(0, SRC)
    os.environ["LIPLAB_THREADS"] = runner.env["LIPLAB_THREADS"]
    import liplab.cli

    traced_dir = os.path.join(work, "traced")
    os.makedirs(traced_dir)
    spans = tracer.Tracer()
    traced = []
    cwd = os.getcwd()
    os.chdir(traced_dir)
    try:
        with spans.installed():
            for cmd in commands:
                spans.op = cmd.label
                t0 = time.perf_counter()
                try:
                    code = liplab.cli.main(list(cmd.argv))
                except Exception as err:  # a crash is one failed operation, not the end of the run
                    print(f"{cmd.label}: {type(err).__name__}: {err}", file=sys.stderr)
                    code = 99
                traced.append(finish(cmd, traced_dir, time.perf_counter() - t0, 0.0, code, None))
    finally:
        os.chdir(cwd)
    reference: dict[str, str] = {}
    check_digests(plain, reference)
    check_digests(traced, reference)
    print_results(plain, "untraced")
    print_results(traced, "traced  ")
    for name in spans.missing:
        print(f"trace: {name} not found; its metrics read 0")
    for op, counts in spans.calls_by_op().items():
        print(f"trace: calls in {op}: " + ", ".join(f"{n} {c}" for n, c in sorted(counts.items())))

    summary = spans.summary()
    metrics: dict[str, tuple[float, str]] = {}
    for name, row in summary.items():
        metrics[f"{name}.calls"] = (row["calls"], "count")
        metrics[f"{name}.self_s"] = (row["self_s"], "s")
        metrics[f"{name}.total_s"] = (row["total_s"], "s")
    for module, targets in tracer.TARGETS.items():
        failures = sum(summary[f"{module}.{t}"]["failures"] for t in targets)
        metrics[f"{module}.failures"] = (failures, "count")
    for name, value in workloads.artifact_counters(traced_dir, workload).items():
        metrics[name] = (value, "ratio" if name.endswith("_ratio") else "count")
    metrics["cli.import_s"] = (statistics.median(imports), "s")
    metrics["cli.start_s"] = (statistics.median(starts), "s")
    for command, seconds in per_command_seconds((r.cmd, r.wall_s) for r in plain).items():
        metrics[f"cli.{command}_s"] = (seconds, "s")
    plain_wall = sum(r.wall_s for r in plain)
    traced_wall = sum(r.wall_s for r in traced)
    # the in-process run skips each command's interpreter start and import
    overhead = traced_wall - (plain_wall - len(plain) * metrics["cli.start_s"][0])
    metrics["trace.overhead_s"] = (overhead, "s")
    print(f"trace: untraced wall {plain_wall:.4f} s, traced wall {traced_wall:.4f} s, "
          f"overhead net of start-up {overhead:+.4f} s, {len(spans.spans)} spans")

    path = os.path.join(WORK, f"trace-{workload.name}-seed{args.seed}.jsonl")
    spans.write_jsonl(path, {"context": context, "summary": summary})
    print(f"trace: spans written to {os.path.relpath(path, ROOT)}")
    return metrics, plain + traced


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "liplab", "cli.py")):
        print(f"perfbench: no liplab sources under {SRC}; run from the root of a liplab checkout",
              file=sys.stderr)
        return 2

    started = time.monotonic()
    runner = Runner(started + DEADLINE_S)
    workload = workloads.WORKLOADS[args.workload]
    probe = host_probe()
    work = os.path.join(WORK, f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    os.makedirs(work)
    try:
        context = run_context(runner, args, work, probe)
        print("context " + json.dumps(context, sort_keys=True))
        if args.trace:
            metrics, results = run_traced(runner, workload, work, args, context)
        else:
            metrics, results = run_untraced(runner, workload, work, args)
    except SetupError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(not r.ok for r in results)
    print(f"error_rate = {failed}/{len(results)} = {failed / len(results):.4f}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
