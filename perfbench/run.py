#!/usr/bin/env python3
"""Benchmark latticeineq through its CLI, in process, on one seeded workload.

    python3 perfbench/run.py --workload fuzz --seed 1 --seconds 10 --trace 0

One client, closed loop: the harness calls `latticeineq.cli.main(argv)`
again as soon as the previous call returns.  After one untimed warm-up call,
a run repeats whole passes over the workload's calls (see workloads.py) while
the next pass is expected to end within `--seconds`, so every run holds the
same mix of calls.  Every call's exit code and stdout are validated; failed
calls are counted, never fatal.

End-to-end times are reported in reference-host seconds (see HostSpeed): a
fixed pure-Python reference loop is timed every few tens of milliseconds
while the workload runs, and each call's wall time is scaled by how much
slower than nominal that loop ran around it.  This cancels the swings in
the speed of a shared host; the wall-clock figures are printed in the
details line.

`--trace 0` reports the end-to-end metrics.  `--trace 1` runs each pass
untraced and then again with the span tracer installed, and reports
per-layer metrics (see tracer.py).  The last line of
stdout is one JSON object with the keys correct, attempted, failed, metrics;
the line before it holds the run metadata.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import importlib.metadata
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 15
SETUP_CODE = "import latticeineq.cli as c; c.build_parser()"
REF_NOMINAL_S = 1e-3  # reference-loop time on the reference host


def prepare() -> dict:
    """Clear LATTICE_INEQ_* from the environment and put the checkout's
    `src` first on sys.path; return the cleared variables."""
    if not (SRC / "latticeineq" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no latticeineq sources under {SRC}")
    cleared = {k: os.environ.pop(k) for k in sorted(os.environ)
               if k.startswith("LATTICE_INEQ_")}
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return cleared


def reference_loop():
    """Fixed pure-Python work (Fraction, dict and int operations, the mix the
    program spends its time on) that takes about REF_NOMINAL_S on the
    reference host.  It uses nothing from the program."""
    total, counts, bits = Fraction(0), {}, 0
    for i in range(1, 230):
        total += Fraction(1, i)
        counts[i & 63] = counts.get(i & 63, 0) + i
        bits ^= (i * 2654435761) & 0xFFFFFFFF
    return total, bits


class HostSpeed:
    """Samples the speed of a shared host while the workload runs.

    On a shared host the speed of the same single-threaded code swings by up
    to 1.8x, in windows from tens of milliseconds to seconds, as the host's
    other load comes and goes.  A background thread times the reference loop
    every PERIOD_S; it takes the interpreter lock for under a millisecond
    each time, so it interleaves with the workload on the same processor.
    A step that ran from t0 to t1 then takes

        seconds = (t1 - t0) * REF_NOMINAL_S / mean(reference times near it)

    on the reference host, where "near" is within PAD_S of the step, so a
    short step still has a few samples.  The reference loop slows down with
    the host and the ratio cancels the swing.
    """

    PERIOD_S = 0.025
    PAD_S = 0.06

    def __init__(self):
        self.ends = []       # perf_counter at the end of each sample, ascending
        self.durations = []  # seconds the reference loop took
        self._stop = threading.Event()
        self._thread = None

    def sample(self):
        t0 = time.perf_counter()
        reference_loop()
        t1 = time.perf_counter()
        self.ends.append(t1)
        self.durations.append(t1 - t0)

    def _run(self):
        while not self._stop.wait(self.PERIOD_S):
            self.sample()

    def __enter__(self):
        self._thread = threading.Thread(target=self._run, name="host-speed", daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self.sample()  # the last step has a sample after it

    def seconds(self, t0: float, t1: float) -> float:
        """Reference-host seconds of a step that ran from t0 to t1."""
        lo = bisect.bisect_left(self.ends, t0 - self.PAD_S)
        hi = bisect.bisect_right(self.ends, t1 + self.PAD_S)
        if lo == hi:
            raise RuntimeError("no host-speed sample near a timed step")
        ref = statistics.fmean(self.durations[lo:hi])
        return (t1 - t0) * REF_NOMINAL_S / ref


@contextlib.contextmanager
def pinned_to_one_cpu():
    """Keep this process, and so the host-speed thread and the workload, on
    the processor it runs on now; yield that processor, or None where
    affinity cannot be set.  The previous affinity is restored on exit."""
    try:
        previous = os.sched_getaffinity(0)
        cpu = os.sched_getcpu() if hasattr(os, "sched_getcpu") else min(previous)
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        yield None
        return
    try:
        yield cpu
    finally:
        os.sched_setaffinity(0, previous)


def measure_setup(repeats: int = SETUP_REPEATS) -> tuple:
    """Reference-host seconds of fresh interpreters that import the CLI and
    build its parser, and their raw wall seconds; one untimed start first
    writes the bytecode caches.  The reference loop is timed right before
    and after each start (the host-speed thread would compete with it)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    cmd = [sys.executable, "-c", SETUP_CODE]

    def start():
        subprocess.run(cmd, env=env, cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)

    start()
    speed = HostSpeed()
    spans = []
    for _ in range(repeats):
        for _ in range(3):
            speed.sample()
        t0 = time.perf_counter()
        start()
        spans.append((t0, time.perf_counter()))
    for _ in range(3):
        speed.sample()
    return [speed.seconds(t0, t1) for t0, t1 in spans], [t1 - t0 for t0, t1 in spans]


class Runner:
    """Runs calls through the CLI, validates them and counts failures."""

    def __init__(self, cli):
        self.cli = cli
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def call(self, call, tracer=None):
        """Run one call; return ((start, end) by perf_counter, items done)
        with items 0 on failure.  With a tracer, spans are recorded only
        inside the call."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is not None:
                tracer.enabled = True
            t0 = time.perf_counter()
            try:
                code = self.cli.main(list(call.argv))
            except SystemExit as exc:  # argparse rejected the arguments
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # a crash is a failed call, not a failed run
                code = f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.enabled = False
        self.attempted += 1
        if isinstance(code, str):
            problem = f"raised {code}"
        else:
            try:
                problem = call.validate(code, out.getvalue())
            except (LookupError, TypeError, ValueError, AttributeError) as exc:
                problem = f"malformed output: {exc!r}"
        if problem is None:
            return (t0, t1), call.items
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{' '.join(call.argv)}: {problem} {err.getvalue().strip()}")
        return (t0, t1), 0

    def run_pass(self, calls, tracer=None):
        """((start, end) of each call, items done) over one pass."""
        results = [self.call(c, tracer) for c in calls]
        return [span for span, _ in results], sum(done for _, done in results)


def repeat(step, seconds: float) -> list:
    """Call `step()` while the next call is expected to end within `seconds`
    (at least once); return its results."""
    results = []
    start = time.perf_counter()
    last = 0.0
    while not results or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        results.append(step())
        last = time.perf_counter() - t0
    return results


def git_sha():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def metadata(args, cleared: dict) -> dict:
    from latticeineq import kernels

    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(),
        "python": platform.python_version(), "numpy": numpy_version,
        "nproc": os.cpu_count(), "kernel_backend": getattr(kernels, "BACKEND", None),
        "cleared_env": cleared,
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(runner, calls, seconds) -> tuple:
    with pinned_to_one_cpu() as cpu:
        setup, raw_setup = measure_setup()
        runner.call(calls[0])  # untimed warm-up
        with HostSpeed() as speed:
            passes = repeat(lambda: runner.run_pass(calls), seconds)
    durations = [[speed.seconds(t0, t1) for t0, t1 in spans] for spans, _ in passes]
    durations_ms = [dt * 1e3 for dts in durations for dt in dts]
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    items = [done for _, done in passes]
    metrics = {
        # median over passes, so a burst of machine noise moves one sample
        "items_per_s": metric(statistics.median(
            done / sum(dts) for done, dts in zip(items, durations)), "1/s"),
        "setup_s": metric(statistics.median(setup), "s"),
        "peak_rss_mb": metric(peak_mb, "MB"),
        "call_p50_ms": metric(statistics.median(durations_ms), "ms"),
        "call_p90_ms": metric(statistics.quantiles(durations_ms, n=10)[8], "ms"),
    }
    raw_s = sum(t1 - t0 for spans, _ in passes for t0, t1 in spans)
    return metrics, {
        "calls": len(durations_ms), "passes": len(passes), "items": sum(items),
        "pinned_cpu": cpu, "host_samples": len(speed.durations),
        "host_slowdown": statistics.median(speed.durations) / REF_NOMINAL_S,
        "wall_items_per_s": sum(items) / raw_s,
        "wall_setup_s": statistics.median(raw_setup),
    }


def per_layer(runner, calls, seconds, spans_path) -> tuple:
    """Each untraced pass is followed by the same pass traced, so the
    overhead compares calls made close together in time.  Self times sum
    over every traced call."""
    from tracer import LAYERS, SPAN_NAMES, Tracer

    runner.run_pass(calls)  # untimed warm-up: a whole pass, so both sides start warm
    tracer = Tracer()

    def wall(spans):
        return sum(t1 - t0 for t0, t1 in spans)

    def pair():
        plain = wall(runner.run_pass(calls)[0])
        tracer.install()
        try:
            return plain, wall(runner.run_pass(calls, tracer)[0])
        finally:
            tracer.uninstall()

    pairs = repeat(pair, seconds)
    wall = sum(traced for _, traced in pairs)
    table = tracer.self_times()
    metrics = {}
    for layer in LAYERS:
        layer_s = sum(s for name, (_, s) in table.items() if name.startswith(layer + "."))
        metrics[f"{layer}.self_s"] = metric(layer_s, "s")
        metrics[f"{layer}.self_share"] = metric(layer_s / wall, "share")
    for name in SPAN_NAMES:
        n_calls, self_s = table[name]
        metrics[f"{name}.calls"] = metric(n_calls, "count")
        metrics[f"{name}.self_s"] = metric(self_s, "s")
    c = tracer.counters
    checks = sum(table[n][0] for n in SPAN_NAMES if n.startswith("certify.check_"))
    kernel_s = table["kernels.subset_stats"][1] + table["kernels.subset_boundary"][1]
    metrics.update({
        "certify.cert_share": metric(c["certified"] / c["reports"] if c["reports"] else 0.0,
                                     "share"),
        "certify.set_counts_per_check": metric(
            table["certify.set_counts"][0] / checks if checks else 0.0, "ratio"),
        "kernels.cells": metric(c["cells"], "count"),
        "kernels.ns_per_cell": metric(kernel_s / c["cells"] * 1e9 if c["cells"] else 0.0,
                                      "ns"),
        "fileio.bytes_in": metric(c["bytes_in"], "B"),
        "fileio.bytes_out": metric(c["bytes_out"], "B"),
        "trace.overhead_share": metric(wall / sum(plain for plain, _ in pairs) - 1, "share"),
        "trace.unattributed_share": metric(
            1 - sum(s for _, s in table.values()) / wall, "share"),
    })
    tracer.write_spans(spans_path)
    return metrics, {"calls": len(calls) * len(pairs), "passes": len(pairs),
                     "spans": len(tracer.start),
                     "spans_file": os.path.relpath(spans_path, ROOT)}


def run(workload: str, seed: int, seconds: float, trace: bool, scale: float = 1.0):
    """Run one workload; return (result, details) where result is the
    object printed as the last line."""
    from latticeineq import cli
    from workloads import make_calls

    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT_DIR)
    try:
        calls = make_calls(workload, seed, workdir, scale)
        runner = Runner(cli)
        if trace:
            spans = OUT_DIR / f"spans-{workload}.tsv"
            metrics, details = per_layer(runner, calls, seconds, str(spans))
        else:
            metrics, details = end_to_end(runner, calls, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    details["errors"] = runner.errors
    result = {"correct": runner.failed == 0, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}
    return result, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("fuzz", "enumerate", "anneal", "check"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cleared = prepare()
    result, details = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in details["errors"]:
        print(f"perfbench: failed call: {line}", file=sys.stderr)
    print(json.dumps({"meta": metadata(args, cleared), "details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
