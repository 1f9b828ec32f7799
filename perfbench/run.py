"""modkernel benchmark: one workload, one command, every metric by name.

    python3 perfbench/run.py --workload train-wide|experiments-small|score-large \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each run starts its processes from
``perfbench/worker.py``: a few set-up probes, whose set-up times and the
measuring process's give the median ``setup_s``, then the process that
measures for ``--seconds`` and checks the outputs.  ``--trace 0`` reports
the ``end_to_end`` metrics of ``BENCHMARK.json`` and wraps nothing;
``--trace 1`` reports its ``per_layer`` metrics from a traced run.  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.

The source tree (``src/modkernel``) and ``configs/`` must be present; the
run fails without them.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
TIME_LIMIT_S = 170.0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("train-wide", "experiments-small", "score-large"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs a smoke-test size, not for measuring")
    return parser.parse_args(argv)


class WorkerError(RuntimeError):
    pass


def run_worker(args, *extra, timeout: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.setdefault("OPENBLAS_NUM_THREADS", str(min(2, os.cpu_count() or 1)))
    # One string-hash seed for every process, so dict layouts, and the
    # speed that goes with them, do not vary from run to run.
    env["PYTHONHASHSEED"] = "0"
    command = [sys.executable, str(HERE / "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--size", args.size, *extra]
    try:
        proc = subprocess.run(command, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker did not finish within {timeout:.0f} s") from None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    started = time.monotonic()
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "modkernel" / "__init__.py").is_file() \
            or not (ROOT / "configs").is_dir() or not spec_path.is_file():
        print(f"error: {ROOT} lacks src/modkernel, configs/ or BENCHMARK.json",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    try:
        setups = [run_worker(args, "--probe", timeout=60.0)["setup_s"]
                  for _ in range(SETUP_SAMPLES - 1)]
        remaining = TIME_LIMIT_S - (time.monotonic() - started)
        result = run_worker(args, timeout=remaining)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(result["setup_s"])

    measured = {"setup_s": statistics.median(setups),
                "calibrated_wall_s": result["calibrated_wall_s"],
                "peak_rss_mb": result["peak_rss_mb"],
                **result["layers"]}
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": measured.get(m["name"], 0.0), "unit": m["unit"]}
               for m in wanted}

    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {result['passes']}  set-ups {len(setups)}")
    for name, metric in metrics.items():
        print(f"  {name:44s} {metric['value']:.6g} {metric['unit']}")
    detail = {"wall_s": (result["wall_s"], "s"), **result["detail"]}
    for name, (value, unit) in detail.items():
        print(f"  {name:44s} {value:.6g} {unit}")
    print(f"  {'error_rate':44s} {failed / attempted:.6g} "
          f"({failed} failed of ops {attempted})")
    print("  environment " + json.dumps(result["environment"], sort_keys=True))
    for error in result["errors"]:
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0 and not result["errors"],
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
