"""Benchmark of the ``skewbrace`` CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep|verify|ratio --seed N \
        --seconds S --trace 0|1

One closed-loop client runs one ``skewbrace`` subprocess at a time, built
from ``src/`` of the checkout.  Inputs are generated from the seed by the
benchmark's own code (``workloads``, ``tables``, ``families``) and every
output is checked against independent expectations.

With ``--trace 0`` the run repeats passes over the workload's operations
about ``--seconds`` long, but at least two (see NOMINAL_PASS_S), and
reports the end-to-end metrics as medians over passes.  The set-up cost
``setup_s`` is the median CPU time (user+sys, as for ``cpu_s``) of
``skewbrace family`` with no specs, run SETUP_PROBES times before each
pass and after the last, so it is sampled across the same stretch of
time as the passes.  CPU time is used because on a shared machine the
wall time of this 0.2 s start-up spreads about half again as widely
between runs.  With ``--trace 1`` it runs
one plain pass and one pass under ``tracer.py`` and reports the per-layer
metrics of the traced pass; ``trace.overhead_s`` is the difference of the
two pass wall times.

Metric names and units are read from ``BENCHMARK.json`` in the checkout.
Stdout ends with one JSON line: {"correct", "attempted", "failed",
"metrics"}.  The lines before it repeat every metric by name and unit,
with ``fail_ratio`` and the per-operation latency median and tail
(``op_p50_s``, ``op_tail_s``, with the tail percentile and sample count).  A failed
operation counts in ``failed``; ``correct`` is false when an operation
fails in any way other than the known defect recorded on it (see
``workloads.Op``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import workloads

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 3  # no-op runs before each pass and after the last
RUN_LIMIT_S = 170.0  # children still running this long after the run began are killed
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
# Typical pass wall time per workload on a 2-core x86 box at the commit that
# defined the benchmark.  A run makes --seconds / NOMINAL_PASS_S passes, at
# least MIN_PASSES, a count that does not depend on machine load, so every
# run of a workload attempts the same operations and reports the same tail
# percentile.  A verify or ratio pass takes most of a 15 s run or more, so
# those runs make two passes and last two to four times --seconds.
NOMINAL_PASS_S = {"sweep": 7.0, "verify": 11.0, "ratio": 11.0}
MIN_PASSES = 2


@dataclass
class Result:
    code: int
    stdout: str
    wall_s: float
    cpu_s: float
    rss_kib: int


@dataclass
class Pass:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_kib: int = 0
    latencies: list[float] = field(default_factory=list)
    stats: dict = field(default_factory=dict)


class Runner:
    """Spawns one child at a time and reads its rusage with wait4."""

    def __init__(self, root: Path, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        env = dict(os.environ)
        for key in ("BRACE_ORDER_CAP", "BRACE_AUT_CAP"):
            env.pop(key, None)
        paths = [str(root / "src"), env.get("PYTHONPATH", "")]
        env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
        self.env = env

    def run(self, argv: list[str], stats_path: Path | None = None) -> Result:
        out = self.workdir / "stdout"
        err = self.workdir / "stderr"
        if stats_path is None:
            cmd = [sys.executable, "-m", "skewbrace", *argv]
        else:
            cmd = [sys.executable, str(HERE / "tracer.py"), str(stats_path), "--", *argv]
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_CLOSE, 0),
            (os.POSIX_SPAWN_OPEN, 1, str(out), flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, str(err), flags, 0o644),
        ]
        start = time.perf_counter()
        pid = os.posix_spawn(cmd[0], cmd, self.env, file_actions=actions)
        finished = threading.Event()

        def kill() -> None:
            # the child stays a zombie until wait4 below, so its pid cannot
            # have been reused when this fires
            if not finished.is_set():
                os.kill(pid, signal.SIGKILL)

        timer = threading.Timer(max(0.0, self.deadline - start), kill)
        timer.start()
        try:
            os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
            wall = time.perf_counter() - start
        finally:
            finished.set()
            timer.cancel()
            timer.join()
            _, status, usage = os.wait4(pid, 0)
        return Result(
            os.waitstatus_to_exitcode(status),
            out.read_text(errors="replace"),
            wall,
            usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss,
        )


class Bench:
    def __init__(self, runner: Runner, ops: list[workloads.Op]):
        self.runner = runner
        self.ops = ops
        self.digests: list[str | None] = [None] * len(ops)
        self.attempted = 0
        self.failures: list[tuple[workloads.Op, str]] = []

    def run_pass(self, traced: bool = False) -> Pass:
        result = Pass()
        stats_path = self.runner.workdir / "stats.json" if traced else None
        start = time.perf_counter()
        for k, op in enumerate(self.ops):
            if traced:
                stats_path.unlink(missing_ok=True)
            res = self.runner.run(op.argv, stats_path)
            self.attempted += 1
            result.cpu_s += res.cpu_s
            result.rss_kib = max(result.rss_kib, res.rss_kib)
            result.latencies.append(res.wall_s)
            reason = _checked(op, res)
            digest = hashlib.sha256(res.stdout.encode()).hexdigest()
            if reason is None and self.digests[k] not in (None, digest):
                reason = "stdout differs from the first pass"
            self.digests[k] = self.digests[k] or digest
            if traced and not stats_path.exists():
                reason = reason or "the tracer wrote no statistics"
            elif traced:
                _merge(result.stats, json.loads(stats_path.read_text()))
            if reason is not None:
                self.failures.append((op, reason))
        result.wall_s = time.perf_counter() - start
        return result

    @property
    def correct(self) -> bool:
        return all(reason == op.known_defect for op, reason in self.failures)


def _checked(op: workloads.Op, res: Result) -> str | None:
    try:
        return op.check(res.stdout, res.code)
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        return f"unreadable output ({type(exc).__name__}: {exc}), exit {res.code}"


def _merge(total: dict, traced: dict) -> None:
    for key, value in traced["stats"].items():
        total[key] = total.get(key, 0) + value
    absent = total.setdefault("absent", [])
    absent.extend(a for a in traced["absent"] if a not in absent)


def setup_probe(runner: Runner, times: list[float], failures: list[str]) -> None:
    for _ in range(SETUP_PROBES):
        res = runner.run(["family"])
        if res.code != 0 or res.stdout != "no specs\n":
            failures.append(f"set-up run: exit {res.code}, stdout {res.stdout!r}")
        times.append(res.cpu_s)


def tail(latencies: list[float]) -> tuple[float, int]:
    """Value at the highest whole percentile with at least TAIL_BEYOND
    samples above it (nearest rank), and that percentile.  With fewer than
    2 * TAIL_BEYOND samples no percentile above the median qualifies, and
    the median (p50) is reported."""
    xs = sorted(latencies)
    n = len(xs)
    pct = min(99, max(50, math.floor(100 * (n - TAIL_BEYOND) / n)))
    return xs[math.ceil(pct / 100 * n) - 1], pct


def layer_metrics(names: list[str], stats: dict, overhead_s: float) -> dict:
    def ratio(num: str, den: str) -> float:
        return stats.get(num, 0) / stats[den] if stats.get(den) else 0.0

    values = {name: stats.get(name, 0) for name in names}
    values["groups.lattice.repeat_share"] = ratio(
        "groups.lattice.repeat_calls", "groups.lattice.calls")
    values["groups.lattice.repeat_time_share"] = ratio(
        "groups.lattice.repeat_time_s", "groups.lattice.time_s")
    values["braces.stable.keep_ratio"] = ratio("braces.stable.kept", "braces.stable.tested")
    values["trace.overhead_s"] = overhead_s
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    deadline = time.perf_counter() + RUN_LIMIT_S
    root = Path.cwd()
    if not (root / "src" / "skewbrace" / "__main__.py").is_file():
        print(f"error: no skewbrace sources under {root / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    workdir = root / ".perfbench_tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        rng = random.Random(f"{args.workload}:{args.seed}")
        ops = workloads.WORKLOADS[args.workload](rng, workdir, args.seed)
        runner = Runner(root, workdir, deadline)
        bench = Bench(runner, ops)
        setup_failures: list[str] = []
        if args.trace:
            plain = bench.run_pass()
            traced = bench.run_pass(traced=True)
            passes = [plain]
            metrics = layer_metrics([m["name"] for m in spec["per_layer"]],
                                    traced.stats, traced.wall_s - plain.wall_s)
            absent = traced.stats.get("absent", [])
            latency_lines = []
        else:
            count = max(MIN_PASSES, round(args.seconds / NOMINAL_PASS_S[args.workload]))
            runner.run(["family"])  # warms the file cache
            setup_times: list[float] = []
            passes = []
            for _ in range(count):
                setup_probe(runner, setup_times, setup_failures)
                passes.append(bench.run_pass())
            setup_probe(runner, setup_times, setup_failures)
            metrics = {
                "wall_s": statistics.median(p.wall_s for p in passes),
                "cpu_s": statistics.median(p.cpu_s for p in passes),
                "peak_rss_mib": statistics.median(p.rss_kib for p in passes) / 1024,
                "setup_s": statistics.median(setup_times),
            }
            absent = []
            # Per-operation latency is printed but not a bounded metric: on
            # sweep it repeats wall_s and on ratio it reads short commands
            # whose process start-up jitter exceeds any allowed bound.
            latencies = [x for p in passes for x in p.latencies]
            tail_s, tail_pct = tail(latencies)
            latency_lines = [
                f"op_p50_s {statistics.median(latencies):.6g} s",
                f"op_tail_s {tail_s:.6g} s  (p{tail_pct} of {len(latencies)} samples)",
            ]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    print(f"python {platform.python_version()}, numpy {np.__version__}, "
          f"{os.cpu_count()} cpus; closed loop, one client, one skewbrace "
          f"process at a time")
    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} untraced "
          f"pass(es) of {len(ops)} operation(s); {bench.attempted} attempted, "
          f"{len(bench.failures)} failed")
    print(f"fail_ratio {len(bench.failures) / bench.attempted:.4f} 1")
    for line in latency_lines:
        print(line)
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    for k, op in enumerate(ops):
        median = statistics.median(p.latencies[k] for p in passes)
        print(f"  {op.name}: median {median:.3f} s over {len(passes)} pass(es)")
    for op, reason in bench.failures:
        label = "known defect" if reason == op.known_defect else "FAILED"
        print(f"{label}: {op.name}: {reason}")
    for failure in setup_failures:
        print(f"FAILED: {failure}")
    for name in absent:
        print(f"absent from the package: {name}")
    correct = bench.correct and not setup_failures
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
