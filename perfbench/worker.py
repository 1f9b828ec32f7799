"""Run one workload in a process of its own and print its result as JSON.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 [--size full|tiny] [--probe]

Set-up time runs from the start of ``main`` (before numpy and modkernel
are imported) to the end of the workload's set-up.  ``--probe`` stops
there.  Otherwise one warm-up pass runs untimed, then passes of the
workload run until the next one would overrun ``--seconds``; a reference
loop, timed from a timer signal, runs beside them and calibrates their
times.  With ``--trace 1`` passes run untraced for a third of the time,
then the span recorder is installed and each further unit (a set-up and
a pass) is traced; every original function is restored afterwards.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--probe", action="store_true")
    return parser.parse_args(argv)


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default")}


class Runner:
    """Runs passes of one workload and collects timings and failures."""

    def __init__(self, workload):
        self.workload = workload
        self.passes: list = []
        self.walls: list = []
        self.windows: list = []
        self.attempted = 0
        self.errors: list = []
        self.failed = 0
        self.fingerprint = None

    def run_checks(self) -> None:
        errors = self.workload.run_checks()
        self.attempted += 1
        self._fail(errors)

    def one_pass(self, next_op=lambda: None):
        """Run and check one pass; returns it, or None if it raised."""
        t0 = time.perf_counter()
        try:
            result = self.workload.run_pass(next_op)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.errors.append("a pass raised; see standard error")
            self.failed += 1
            self.attempted += 1
            return None
        wall = time.perf_counter() - t0
        self.attempted += result.ops
        errors = self.workload.check_pass(result)
        fingerprint = result.outputs["fingerprint"]
        if self.fingerprint is None:
            self.fingerprint = fingerprint
        elif fingerprint != self.fingerprint:
            errors.append("outputs differ from the first pass")
        self._fail(errors)
        self.walls.append(wall)
        self.windows.append((t0, t0 + wall))
        self.passes.append(result)
        return result

    def warm_up(self) -> None:
        """One checked pass whose time is not kept: the first pass of a
        process pays for lazy imports and cold caches."""
        if self.one_pass() is not None:
            self.walls.clear()
            self.windows.clear()
            self.passes.clear()

    def _fail(self, errors: list) -> None:
        if errors:
            self.failed += 1
            self.errors += errors

    def run_until(self, deadline: float, before_pass=lambda: None,
                  next_op=lambda: None) -> None:
        """Passes until the next would end after ``deadline``; at least one."""
        while True:
            before_pass()
            if self.one_pass(next_op) is None:
                return
            estimate = statistics.median(self.walls)
            if time.perf_counter() + estimate > deadline:
                return


class ReferenceLoop:
    """A fixed pure-Python loop, timed every ``PERIOD_S`` from a timer
    signal in the measuring thread.

    A small shared host runs at a fast and a slow speed by turns, each
    lasting from under a second to a minute, and the share of slow time
    in a run swings its pass times by up to 1.7x.  The loop's mean time
    during a pass tracks that share, so a pass's time over it is steady:
    ``calibrated`` gives a pass's time on a machine on which the loop
    takes ``NOMINAL_S``.  The loop costs about 1% of the pass time.
    """

    PERIOD_S = 0.1
    ITERATIONS = 20_000
    NOMINAL_S = 1e-3

    def __init__(self):
        self.samples: list = []     # (end, duration)
        self.previous = None

    def _time_loop(self, signum, frame) -> None:
        t0 = time.perf_counter()
        total = 0
        for i in range(self.ITERATIONS):
            total += i % 7
        t1 = time.perf_counter()
        self.samples.append((t1, t1 - t0))

    def install(self) -> None:
        self.previous = signal.signal(signal.SIGALRM, self._time_loop)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)

    def restore(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self.previous)

    def mean(self, start: float = -math.inf, end: float = math.inf) -> float:
        """The loop's mean time over the samples that ended in the window;
        over the whole run if none did, and ``NOMINAL_S`` if none ran."""
        durations = ([d for t, d in self.samples if start < t <= end]
                     or [d for _, d in self.samples] or [self.NOMINAL_S])
        return statistics.fmean(durations)

    def calibrated(self, walls: list, windows: list) -> float:
        """The median over the passes of each pass's calibrated time."""
        return statistics.median(wall * self.NOMINAL_S / self.mean(*window)
                                 for wall, window in zip(walls, windows))


def traced_units(runner: Runner, workload, deadline: float) -> dict:
    """Trace set-up and pass units until ``deadline``; per-unit self times
    and counts, the overhead ratio, and any count that did not repeat."""
    from spans import COUNT_NAMES, SpanRecorder, wrapped_attributes
    recorder = SpanRecorder()
    first = len(runner.walls)
    units = []

    def next_op():
        recorder.op += 1

    def before_pass():
        if units:
            units[-1][1] = recorder.snapshot()
        units.append([recorder.snapshot(), None])
        workload.setup()

    recorder.install()
    try:
        runner.run_until(deadline, before_pass, next_op)
    finally:
        recorder.restore()
    units[-1][1] = recorder.snapshot()
    left = wrapped_attributes()
    if left:
        runner.errors.append(f"wrappers left behind: {left}")
        runner.failed += 1
    recorder.write(OUT / f"spans-{workload.name}.jsonl")

    deltas = [{k: after[k] - before[k] for k in after} for before, after in units]
    metrics = {k: statistics.fmean(d[k] for d in deltas) for k in deltas[0]}
    for name in COUNT_NAMES:
        if len({d[name] for d in deltas}) > 1:
            runner.errors.append(f"count {name} differs between units")
            runner.failed += 1
    traced = runner.walls[first:]
    if traced:
        metrics["trace.overhead_ratio"] = (statistics.median(traced)
                                           / statistics.median(runner.walls[:first]))
    return metrics


def main(argv=None) -> int:
    t0 = time.perf_counter()
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    import modkernel
    if Path(modkernel.__file__).resolve().parent != ROOT / "src" / "modkernel":
        print(f"error: imported modkernel from {modkernel.__file__}, "
              f"not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    import workloads
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        workload = workloads.WORKLOADS[args.workload](
            ROOT, args.seed, args.size, scratch)
        workload.setup()
        setup_s = time.perf_counter() - t0
        if args.probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        return measure(workload, args, setup_s)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def measure(workload, args, setup_s: float) -> int:
    from spans import wrapped_attributes
    runner = Runner(workload)
    runner.run_checks()
    runner.warm_up()
    start = time.perf_counter()
    deadline = start + args.seconds
    layers = {}
    calibrated, reference_detail = None, {}
    if args.trace:
        # A third of the time untraced, for the overhead ratio and the
        # floor ratio, then traced units.
        runner.run_until(start + args.seconds / 3)
        untraced = len(runner.walls)
        if runner.passes:
            layers.update(workload.layer_info(runner.passes))
            layers.update(traced_units(runner, workload, deadline))
    else:
        reference = ReferenceLoop()
        reference.install()
        try:
            runner.run_until(deadline)
        finally:
            reference.restore()
        untraced = len(runner.walls)
        if runner.passes:
            calibrated = reference.calibrated(runner.walls, runner.windows)
            reference_detail = {"reference_loop_mean_ms":
                                (reference.mean() * 1e3, "ms")}
        if wrapped_attributes():
            runner.errors.append("the untraced run found wrapped functions")
            runner.failed += 1
    if not runner.passes:
        print("error: no pass completed", file=sys.stderr)
        return 1
    result = {
        "setup_s": setup_s,
        "wall_s": statistics.median(runner.walls[:untraced]),
        "calibrated_wall_s": calibrated,
        "passes": len(runner.walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "detail": {**workload.summarize(runner.passes[:untraced]),
                   **reference_detail},
        "layers": layers,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "errors": runner.errors,
        "environment": environment(),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
