"""Benchmark of the springerq command line, end to end and layer by layer.

    python3 perfbench/run.py --workload stalks --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py            # every workload, traced, run_seconds each

Run from anywhere; the program is taken from ``src/`` next to this
directory, with nothing to build.  The workloads, their reasons and the
metrics with their units and bounds are listed in ``BENCHMARK.json`` at the
repository root, which this script reads.

One run of a workload is a closed loop with one client: it starts one cold
``python3 -m springerq ...`` process at a time, waits for it, checks its
output, and starts the next until ``--seconds`` have passed.  Before the
loop it times a cold ``--help`` several times (``setup_s``).  With
``--trace 1`` it then runs the command once more in a fresh process under
``perfbench/tracer.py`` and reports the per-layer metrics.

The host's speed drifts: on a shared 2-vCPU virtual machine the same
child took anywhere from 1.1 to 2.0 s, and the medians of ten 25-second runs
spread by 5-24% (quartile distance over median).  That is why wall_s and
cpu_s have the largest bound allowed, 0.25; peak RSS repeats to 0.1%.

Every child is an attempt.  A child fails on a non-zero exit, a timeout or a
failed output check, and no failure is dropped.  Timings are taken over the
children that passed.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give each end-to-end metric's median, quartiles and sample count, every
per-layer metric and the environment.

The inputs do not depend on ``--seed``; the seed is recorded with the
result only.  Each command takes one or two integer sizes, and no other size
keeps the end-to-end metrics within a third of their bounds: stalks --n 21
takes 20% longer than --n 20, orbits --n 19 enumerates 1.4 times as many
partitions as --n 18, verify --n-max 12 takes half the time of 13, and
the fano pairs that match the division work of (50, 25), such as (47, 26)
or (53, 24), differ from it in rows, lookups and peak RSS.  A run of a
different seed is therefore a repeat of the same input.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from tracer import MARKER as TRACE_MARKER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = ROOT / "BENCHMARK.json"

SETUP_PROBES = 15
CHILD_TIMEOUT_S = 60.0  # nominal children take under 2 s
BUDGET_S = 150.0  # per workload; no child outlives it, so a run ends in 180 s
LAUNCHER_GRACE_S = 10.0



# -- output checks ---------------------------------------------------------
# Each check takes the command's sizes and its parsed JSON output and returns
# a list of problems; an empty list means the output is correct.


def partition_count(m: int) -> int:
    """p(m) by Euler's pentagonal-number recurrence."""
    p = [1] + [0] * m
    for k in range(1, m + 1):
        total, j = 0, 1
        while j * (3 * j - 1) // 2 <= k:
            sign = 1 if j % 2 else -1
            total += sign * p[k - j * (3 * j - 1) // 2]
            if j * (3 * j + 1) // 2 <= k:
                total += sign * p[k - j * (3 * j + 1) // 2]
            j += 1
        p[k] = total
    return p[m]


def check_stalks(n: int, out: dict) -> list[str]:
    problems = []
    if out.get("rank") != n:
        problems.append(f"rank {out.get('rank')} != {n}")
    f, t = out.get("f", []), out.get("t", [])
    if len(f) != n + 1 or len(t) != n or any(len(row) != i + 2 for i, row in enumerate(t)):
        problems.append("wrong number of f_i or T^i_j")
    elif f[0] != [[0, "1"]] or f[1] != [[-n, "1"]]:
        problems.append("f_0 != 1 or f_1 != q^-n")
    return problems


def verify_case_totals(n_max: int) -> dict[str, int]:
    """Closed-form case counts of the five identity suites up to n_max."""
    ranks = range(1, n_max + 1)
    return {
        "cc-identity": sum(n // 2 for n in ranks),
        "kostka-closed-form": sum((n // 2 + 1) * (n // 2 + 2) // 2 for n in ranks),
        "poincare-identity": sum(n + 1 for n in ranks),
        "solver-closed-form": sum(n + 1 + n * (n + 3) // 2 for n in ranks),
        "two-power-sum": sum(n + 1 for n in ranks),
    }


def check_verify(n_max: int, out: dict) -> list[str]:
    problems = [] if out.get("ok") is True else ["ok is not true"]
    got = {s.get("name"): s.get("cases") for s in out.get("suites", []) if s.get("passed")}
    if got != verify_case_totals(n_max):
        problems.append(f"suite case counts {got} != closed-form totals")
    return problems


def check_orbits(n: int, out: dict) -> list[str]:
    problems = []
    rows = out.get("rows", [])
    expected = partition_count(2 * n + 1)
    if out.get("count") != expected or len(rows) != expected:
        problems.append(f"count {out.get('count')} / {len(rows)} rows != p({2 * n + 1}) = {expected}")
    dims = [r["dim"] for r in rows]
    if any(a < b for a, b in zip(dims, dims[1:])):
        problems.append("rows are not in non-increasing dim order")
    labels = [r["partition"] for r in rows]
    if len(set(labels)) != len(labels) or any(
            sum(map(int, p.split(","))) != 2 * n + 1 for p in labels):
        problems.append(f"rows are not distinct partitions of {2 * n + 1}")
    return problems


def check_fano(n: int, i: int, out: dict) -> list[str]:
    problems = []
    betti = [int(r["betti"]) for r in out.get("rows", [])]
    dim = 2 * i * (n - i)
    if out.get("complex_dim") != dim or len(betti) != dim + 1:
        return [f"expected {dim + 1} rows of complex dimension {dim}"]
    total = sum(math.comb(2 * n + 1, j) * math.comb(2 * n - i - j, i - j) for j in range(i + 1))
    if sum(betti) != total:
        problems.append(f"sum of Betti numbers {sum(betti)} != {total}")
    if betti != betti[::-1]:
        problems.append("Betti numbers are not Poincare-symmetric")
    return problems


@dataclass(frozen=True)
class Workload:
    argv: tuple[str, ...]
    check: Callable[[dict], list[str]]
    digest: str  # sha256 of stdout, pinned from the seed implementation


# The reason for each workload is its "why" in BENCHMARK.json.
WORKLOADS = {
    "stalks": Workload(
        ("stalks", "--n", "20", "--check", "--format", "json"),
        lambda out: check_stalks(20, out),
        "605223c1fd0b5f4bf9bf2e784c5fd97a65572bbbde28b273c59c8130f5b712c2"),
    "verify": Workload(
        ("verify", "--n-max", "13", "--format", "json"),
        lambda out: check_verify(13, out),
        "d66173f38cdc20a9c6321f417e45f040b91e925d967fd063de2cf4b9922746a3"),
    "orbits": Workload(
        ("orbits", "--n", "18", "--format", "json"),
        lambda out: check_orbits(18, out),
        "9afb885fc859939ed1946e757c3137f90eab50e9de463860a4d6a7bd651248a9"),
    "fano": Workload(
        ("fano", "--n", "50", "--i", "25", "--format", "json"),
        lambda out: check_fano(50, 25, out),
        "19c232e55e7c4706a08ebfb3e0c8fb1af52d81ee7b535b2a094c8d6a7ca0243f"),
}


# -- running one child -----------------------------------------------------


@dataclass
class Child:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: bytes
    stderr: bytes
    problems: list[str] = field(default_factory=list)


def run_child(argv: list[str], timeout: float) -> Child:
    """Run argv to completion from the repository root, with PYTHONPATH=src.

    The child is spawned by perfbench/launch.py, which times it from spawn
    to exit and reads its own CPU time and peak RSS from wait4.  A child
    still running after ``timeout`` is killed and reaped, and recorded with
    a problem.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with tempfile.TemporaryFile(dir=ROOT) as out, tempfile.TemporaryFile(dir=ROOT) as err:
        report_fd, write_fd = os.pipe()
        with os.fdopen(report_fd) as report:
            try:
                launcher = subprocess.Popen(
                    [sys.executable, "-S", str(HERE / "launch.py"), str(write_fd),
                     str(timeout), *argv],
                    stdin=subprocess.DEVNULL, stdout=out, stderr=err, cwd=ROOT, env=env,
                    pass_fds=(write_fd,), start_new_session=True)
            finally:
                os.close(write_fd)
            try:
                launcher.wait(timeout + LAUNCHER_GRACE_S)
            finally:
                if launcher.returncode is None:  # hung or interrupted
                    os.killpg(launcher.pid, signal.SIGKILL)
                    launcher.wait()
            text = report.read()
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read(), err.read()
    if not text:
        return Child(0.0, 0.0, 0.0, stdout, stderr,
                     [f"launcher failed: {stderr.decode(errors='replace')[-300:]}"])
    usage = json.loads(text)
    child = Child(usage["wall_s"], usage["cpu_s"], usage["peak_rss_mb"], stdout, stderr)
    if usage["timed_out"]:
        child.problems.append(f"timed out after {timeout:g} s")
    elif usage["exit_code"] != 0:
        child.problems.append(f"exit code {usage['exit_code']}")
    return child


def judge(workload: Workload, child: Child) -> Child:
    """Add every failed output check of a workload run to child.problems."""
    if child.problems:
        return child
    if hashlib.sha256(child.stdout).hexdigest() != workload.digest:
        child.problems.append("stdout differs from the pinned digest")
    try:
        out = json.loads(child.stdout)
    except ValueError as exc:
        child.problems.append(f"stdout is not JSON: {exc}")
        return child
    if not isinstance(out, dict):
        child.problems.append("stdout is not a JSON object")
        return child
    try:
        child.problems.extend(workload.check(out))
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        child.problems.append(f"malformed output: {exc!r}")
    return child


def judge_help(child: Child) -> Child:
    if not child.problems and not child.stdout.startswith(b"usage: springerq"):
        child.problems.append("--help did not print the usage")
    return child


# -- one workload ------------------------------------------------------------


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    e2e: dict[str, list[float]] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)

    def record(self, what: str, child: Child) -> Child:
        self.attempted += 1
        self.failed += bool(child.problems)
        self.problems.extend(f"{what}: {p}" for p in child.problems)
        return child


def run_workload(name: str, seconds: float, trace: bool) -> Result:
    workload = WORKLOADS[name]
    result = Result()
    deadline = time.perf_counter() + BUDGET_S

    def timeout() -> float:
        return min(CHILD_TIMEOUT_S, deadline - time.perf_counter())

    python = sys.executable
    help_argv = [python, "-m", "springerq", "--help"]
    # The first child compiles the bytecode cache; users do not pay that twice.
    result.record("warm-up", judge_help(run_child(help_argv, timeout())))
    probes = []
    for _ in range(SETUP_PROBES):
        probes.append(result.record("setup", judge_help(run_child(help_argv, timeout()))))
        if probes[-1].problems:
            break

    runs = []
    start = time.perf_counter()
    while not runs or (time.perf_counter() - start < seconds and timeout() > 0):
        child = run_child([python, "-m", "springerq", *workload.argv], max(timeout(), 1.0))
        runs.append(result.record("run", judge(workload, child)))
    passed = [c for c in runs if not c.problems] or runs
    result.e2e = {
        "wall_s": [c.wall_s for c in passed],
        "cpu_s": [c.cpu_s for c in passed],
        "peak_rss_mb": [c.peak_rss_mb for c in passed],
        "setup_s": [c.wall_s for c in ([c for c in probes if not c.problems] or probes)],
    }

    if trace:
        argv = [python, str(HERE / "tracer.py"), *workload.argv]
        child = judge(workload, run_child(argv, max(timeout(), 1.0)))
        lines = child.stderr.decode(errors="replace").splitlines()
        if lines and lines[-1].startswith(TRACE_MARKER):
            result.layers = json.loads(lines[-1][len(TRACE_MARKER):])
        else:
            child.problems.append("no trace line on stderr")
        result.record("traced run", child)
        result.layers["cli.stdout_bytes"] = len(child.stdout)
        result.layers["trace.overhead_ratio"] = (
            child.wall_s / statistics.median(result.e2e["wall_s"]))
    return result


# -- reporting ---------------------------------------------------------------


def environment() -> dict:
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
    }


def git_commit() -> Optional[str]:
    """HEAD of the checkout, read from .git; None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def summary(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def report(name: str, result: Result, spec: dict, trace: bool, prefix: str = "") -> dict:
    """Print a workload's metrics by name and unit; return the result metrics:
    the end-to-end ones, or with ``trace`` the per-layer ones."""
    attempted, failed = result.attempted, result.failed
    print(f"[{name}] attempted {attempted}, failed {failed}, "
          f"failed_frac {failed / attempted:.4f}")
    for problem in result.problems:
        print(f"[{name}]   FAILED {problem}")
    metrics = {}
    for m in spec["end_to_end"]:
        values = result.e2e[m["name"]]
        med, q1, q3 = summary(values)
        print(f"[{name}] {m['name']:<14} median {med:.6g} {m['unit']}"
              f"  q1 {q1:.6g}  q3 {q3:.6g}  n={len(values)}")
        metrics[m["name"]] = {"value": med, "unit": m["unit"]}
    if trace:
        metrics = {}
        for m in spec["per_layer"]:
            value = result.layers.get(m["name"], 0)  # absent only if the traced run failed
            shown = value if isinstance(value, int) else f"{value:.6g}"
            print(f"[{name}] {m['name']:<36} {shown} {m['unit']}")
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return {prefix + k: v for k, v in metrics.items()}


def main(argv: Optional[list[str]] = None) -> int:
    spec = json.loads(SPEC.read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "springerq" / "cli.py").is_file():
        sys.exit(f"perfbench: no springerq sources under {ROOT / 'src'}")

    print(f"perfbench seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"env={json.dumps(environment())}", flush=True)
    selected = names if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    for name in selected:
        result = run_workload(name, args.seconds, bool(args.trace))
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update(report(name, result, spec, bool(args.trace), prefix))
        attempted += result.attempted
        failed += result.failed
        sys.stdout.flush()
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
