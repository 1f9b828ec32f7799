"""Smoke test of the benchmark itself, at a tiny size.

    python3 perfbench/smoke.py

Checks that:
- ``BENCHMARK.json`` is well formed and names every span and count the
  recorder produces;
- each workload runs untraced and traced through ``run.py`` at the tiny
  size, reports exactly the metrics ``BENCHMARK.json`` lists and is
  correct;
- in process, the recorder wraps every by-name alias of its targets and
  leaves no wrapper behind in ``modkernel`` after a traced pass;
- ``run.py`` fails without printing a result when the source tree is
  missing.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}$")

# Aliases the recorder must reach: by-name imports and re-exports.
REQUIRED_ALIASES = (
    "modkernel.training.gram_tensor",
    "modkernel.transfer.kernel_matrix",
    "modkernel.transfer.partition_pairs",
    "modkernel.transfer.proxy_value",
    "modkernel.transfer.freeze_and_train_output",
    "modkernel.experiments.train_input_module",
    "modkernel.experiments.freeze_and_train_output",
    "modkernel.experiments.train_end_to_end",
    "modkernel.experiments.score_candidate",
    "modkernel.experiments.retrain_oracle",
    "modkernel.experiments.make_dataset",
    "modkernel.experiments.write_json",
    "modkernel.experiments.write_csv",
    "modkernel.autodiff.topological_order",
    "modkernel.autodiff.sgd_step",
)


def check(condition: bool, message: str, failures: list) -> None:
    if not condition:
        failures.append(message)
        print(f"FAIL {message}")


def check_spec(spec: dict, failures: list) -> None:
    from spans import COUNT_NAMES, SPAN_NAMES
    check(set(spec) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}, "BENCHMARK.json keys", failures)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    check(len(names) == len(set(names)), "metric and workload names unique",
          failures)
    for m in spec["end_to_end"] + spec["per_layer"]:
        check(bool(NAME.match(m["name"])) and bool(UNIT.match(m["unit"]))
              and m["better"] in ("lower", "higher"), f"metric {m}", failures)
    for m in spec["end_to_end"]:
        check(set(m) == {"name", "unit", "better", "bound"}
              and 0 < m["bound"] <= 0.25, f"bound of {m['name']}", failures)
    check(any(m["name"] == "setup_s" for m in spec["end_to_end"]),
          "setup_s present", failures)
    per_layer = {m["name"] for m in spec["per_layer"]}
    wanted = {f"{n}.self_s" for n in SPAN_NAMES} | set(COUNT_NAMES)
    check(wanted <= per_layer, f"per_layer lacks {wanted - per_layer}", failures)


def run_benchmark(root: Path, workload: str, trace: int) -> tuple:
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload",
         workload, "--seed", "0", "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, proc.stderr


def check_runs(spec: dict, failures: list) -> None:
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            code, lines, err = run_benchmark(ROOT, workload, trace)
            label = f"{workload} trace {trace}"
            check(code == 0 and lines, f"{label} exit {code}: {err[-500:]}",
                  failures)
            if code != 0 or not lines:
                continue
            result = json.loads(lines[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{label} result keys", failures)
            check(result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 1, f"{label} correct", failures)
            check(set(result["metrics"]) == {m["name"] for m in spec[section]},
                  f"{label} metric names", failures)
            print(f"ok   {label}")


def check_restore(failures: list) -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import spans
    import workloads
    with tempfile.TemporaryDirectory(dir=HERE / "out") as scratch:
        for cls in workloads.WORKLOADS.values():
            workload = cls(ROOT, 0, "tiny", Path(scratch))
            recorder = spans.SpanRecorder()
            patched = recorder.install()
            try:
                workload.setup()
                workload.run_pass(lambda: None)
            finally:
                recorder.restore()
            missing = set(REQUIRED_ALIASES) - set(patched)
            check(not missing, f"{cls.name}: aliases not wrapped: {missing}",
                  failures)
            left = spans.wrapped_attributes()
            check(not left, f"{cls.name}: wrappers left behind: {left}",
                  failures)
            check(len(recorder.spans) > 0 and None not in recorder.spans,
                  f"{cls.name}: spans recorded and closed", failures)
            print(f"ok   {cls.name} traced in process, originals restored")


def check_bare_directory(failures: list) -> None:
    """The benchmark must fail where only it and BENCHMARK.json exist."""
    with tempfile.TemporaryDirectory(dir=HERE / "out") as bare:
        bare = Path(bare)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        code, lines, _ = run_benchmark(bare, "train-wide", 0)
        printed = any(line.startswith("{") for line in lines)
        check(code != 0 and not printed,
              f"bare directory: exit {code}, result printed {printed}", failures)
        print("ok   bare directory fails without a result")


def main() -> int:
    (HERE / "out").mkdir(exist_ok=True)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures: list = []
    check_spec(spec, failures)
    check_runs(spec, failures)
    check_restore(failures)
    check_bare_directory(failures)
    print("smoke test " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
