"""Measurement loop, traced run and result line of the benchmark (see run.py).

The machine this benchmark was written on changes the speed of one CPU by
up to 60% for seconds at a time (a shared host), and a probe on the other
CPU does not see it. So a timer signal runs a small fixed kernel in the
main thread every ``PROBE_INTERVAL_S`` seconds while a run measures, and
every timing is reported in reference seconds: the interval's raw seconds,
less the probe's own time, times ``PROBE_REFERENCE_S`` over the typical
probe time inside the interval (the mean of its middle 80%). Raw seconds
are printed beside them.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

import tracer
import workloads
from analogkit import cli

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
PROBE_INTERVAL_S = 0.025
# Typical probe time at the reference speed. It fixes the unit of the reported
# timings, so it must not change once the benchmark has a baseline.
PROBE_REFERENCE_S = 0.0008


def _probe_kernel() -> None:
    """Interpreter and small-array work, as analogkit does (about 1 ms)."""
    x, table = 0, {}
    for i in range(4000):
        x += i * i % 7
        table[i & 255] = x
    a = np.arange(1000.0)
    for _ in range(10):
        a = np.sqrt(a * a + 1.0)


class SpeedProbe:
    """Probe kernel runs ``(start, seconds)`` taken by a timer signal in the main thread."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._previous = None

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _probe_kernel()
        self.samples.append((t0, time.perf_counter() - t0))

    def reference_seconds(self, t0: float, t1: float) -> float:
        """Work done in [t0, t1], in seconds at the reference speed."""
        inside = sorted(d for start, d in self.samples if t0 <= start <= t1)
        speed = inside or sorted(d for _, d in self.samples)
        trim = len(speed) // 10
        typical = statistics.fmean(speed[trim:len(speed) - trim])
        return ((t1 - t0) - sum(inside)) * PROBE_REFERENCE_S / typical


@dataclass
class RoundResult:
    start: float
    end: float
    commands: list[tuple[workloads.Command, float, float]] = field(default_factory=list)
    failed: list[workloads.Command] = field(default_factory=list)


def run_record(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """The machine and source the figures belong to (metadata, not metrics)."""
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    src_lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "git_commit": _git_commit(), "src_lines": src_lines,
    }


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Run:
    """Bookkeeping of one benchmark process: operations, failures, probes."""

    def __init__(self, wl: workloads.Workload, seed: int, work: Path):
        self.wl, self.seed, self.work = wl, seed, work
        self.probe = SpeedProbe()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def setup(self, ws: Path):
        t0 = time.perf_counter()
        inputs = self.wl.setup(ws, self.seed)
        return inputs, t0, time.perf_counter()

    def round(self, ws: Path) -> RoundResult:
        """The command sequence once, with the workspace as working directory."""
        result = RoundResult(start=time.perf_counter(), end=0.0)
        cwd = Path.cwd()
        os.chdir(ws)
        try:
            for command in self.wl.commands():
                t0 = time.perf_counter()
                try:
                    code = cli.main(list(command.argv))
                except Exception:  # a traceback is a failed operation, not a benchmark crash
                    traceback.print_exc()
                    code = -1
                result.commands.append((command, t0, time.perf_counter()))
                if code != 0:
                    result.failed.append(command)
        finally:
            os.chdir(cwd)
        result.end = time.perf_counter()
        self.attempted += len(result.commands)
        self.failed += len(result.failed)
        self.failures += [f"exit code {' '.join(c.argv)}" for c in result.failed]
        return result

    def expect_equal(self, what: str, digests: list[str]) -> None:
        if len(set(digests)) != 1:
            self.failures.append(f"{what} differ: {digests}")
            self.failed += 1

    def check(self, ws: Path, inputs: workloads.Inputs) -> None:
        if self.failed:
            return  # outputs of a failed command are not worth checking
        found = self.wl.check(ws, inputs, self.seed)
        self.failures += found
        self.failed += min(len(found), self.attempted)


def measure(run: Run, seconds: float) -> dict[str, float]:
    """End-to-end metrics: medians over set-ups and over rounds."""
    wl = run.wl
    setups, input_digests = [], []
    for k in range(SETUP_REPEATS):
        inputs, t0, t1 = run.setup(run.work / f"setup{k}")
        setups.append((t0, t1))
        input_digests.append(workloads.digest(run.work / f"setup{k}", wl.input_files()))
    run.expect_equal("inputs of one seed", input_digests)
    ws = run.work / "setup0"

    rounds, output_digests = [], []
    while True:
        rounds.append(run.round(ws))
        output_digests.append(workloads.digest(ws, wl.output_files()))
        elapsed = rounds[-1].end - rounds[0].start
        if elapsed + statistics.fmean(r.end - r.start for r in rounds) > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    run.expect_equal("outputs of the rounds", output_digests)
    run.check(ws, inputs)

    print_stage_table(run.probe, rounds, setups)
    print(f"inputs {input_digests[0][:16]}  outputs {output_digests[0][:16]}  "
          f"{len(run.probe.samples)} probe samples, "
          f"median {statistics.median(d for _, d in run.probe.samples) * 1e3:.4f} ms")
    per_round = [
        wl.round_metrics([(c, run.probe.reference_seconds(t0, t1)) for c, t0, t1 in r.commands],
                         ws, inputs)
        for r in rounds if not r.failed
    ]
    metrics = {"setup_s": statistics.median(run.probe.reference_seconds(*s) for s in setups),
               "peak_rss_mb": peak_rss_mb}
    for name in [*workloads.END_TO_END, *workloads.STAGE_RATES]:
        samples = [m[name] for m in per_round if name in m]
        if samples:
            metrics[name] = statistics.median(samples)
    return metrics


def traced(run: Run) -> dict[str, float]:
    """One untraced round, then set-up and a round under the tracer."""
    wl = run.wl
    plain_ws, traced_ws = run.work / "plain", run.work / "traced"
    run.setup(plain_ws)
    plain = run.round(plain_ws)
    t = tracer.Tracer()
    t.install()
    try:
        inputs, _, _ = run.setup(traced_ws)
        with_trace = run.round(traced_ws)
    finally:
        t.uninstall()
    run.expect_equal("traced and untraced inputs",
                     [workloads.digest(d, wl.input_files()) for d in (plain_ws, traced_ws)])
    run.expect_equal("traced and untraced outputs",
                     [workloads.digest(d, wl.output_files()) for d in (plain_ws, traced_ws)])
    run.check(traced_ws, inputs)
    walls = [sum(run.probe.reference_seconds(t0, t1) for _, t0, t1 in r.commands)
             for r in (plain, with_trace)]
    print(f"wall_s untraced {walls[0]:.4f}, traced {walls[1]:.4f} (reference seconds)")
    print("span tree, raw seconds (calls, total, self):")
    for line in t.span_tree():
        print("  " + line)
    return t.layer_metrics(walls[1] - walls[0])


def print_stage_table(probe: SpeedProbe, rounds: list[RoundResult], setups) -> None:
    """Sample count, raw median and maximum, and reference median of every stage."""
    samples: dict[str, list[tuple[float, float]]] = {
        "setup": setups, "round": [(r.start, r.end) for r in rounds]}
    for r in rounds:
        for command, t0, t1 in r.commands:
            label = command.stage + (f" {command.method}" if command.method else "")
            samples.setdefault(label, []).append((t0, t1))
    print(f"{'stage':<24} {'n':>3} {'median_s':>10} {'max_s':>10} {'median_ref_s':>13}")
    for label, intervals in samples.items():
        raw = [t1 - t0 for t0, t1 in intervals]
        ref = statistics.median(probe.reference_seconds(*i) for i in intervals)
        print(f"{label:<24} {len(raw):>3} {statistics.median(raw):>10.4f} {max(raw):>10.4f} "
              f"{ref:>13.4f}")


def main(args) -> int:
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    record = run_record(wl.name, args.seed, args.seconds, bool(args.trace))
    print("run record " + json.dumps(record, sort_keys=True))

    work = ROOT / ".bench_work" / f"{wl.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(wl, args.seed, work)
    if args.trace:
        units = {name: unit for name, unit, _ in tracer.PER_LAYER}
        reported = list(units)
    else:
        units = {**workloads.END_TO_END, **workloads.STAGE_RATES}
        reported = list(workloads.END_TO_END)
    try:
        with run.probe:
            values = traced(run) if args.trace else measure(run, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # not empty: another run is using it
    for message in run.failures:
        print("FAILED " + message)
    for name in units:
        if name in values:
            print(f"{name:<44} {values[name]:>18.6f} {units[name]}")
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in reported if n in values},
    }
    print(json.dumps(result))
    return 0
