"""Compare the artifacts of two revisions, file by file.

    python tools/artifact_diff.py [BASE [CHANGE]] [--skip-slow]

BASE defaults to HEAD and CHANGE to the working tree (its tracked files and
its untracked files that git does not ignore).  Each side is exported into a
scratch directory, a revision with ``git archive`` and the working tree by
copying, so the repository is only read.  Both sides then run, in parallel
and with OpenBLAS on one thread:

- every committed config under ``configs/`` (``--skip-slow`` leaves out
  ``modular-vs-e2e``);
- the small config of each experiment kind that criterion 10 reruns
  (``SMALL_CONFIGS`` in ``tests/oracles.py`` of this checkout, the same
  configs on both sides);
- ``dump-config`` on each committed config;

and each side's two schema files are taken as they are.  Every JSON and CSV
file except ``metadata.json`` is compared, together with the exit status of
every run.  For each file that differs, the tool prints the largest relative
numeric change and the first key or row that differs.  It exits 0 only when
every file is identical on both sides.
"""

from __future__ import annotations

import argparse
import csv
import importlib.util
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SLOW_CONFIGS = {"modular-vs-e2e"}
SCHEMA_FILES = ("config-schema.json", "report-schema.json")

# Runs inside one exported side, with that side's src/ on the path:
# argv is the output directory, a JSON file of small configs and the
# names of the committed configs to run.
_SIDE_SCRIPT = r'''
import contextlib, io, json, shutil, sys, traceback
from pathlib import Path
from modkernel.cli import main

out, small, names = Path(sys.argv[1]), Path(sys.argv[2]), sys.argv[3:]

def call(args):
    """(exit status, stdout); an exception is recorded, not raised."""
    stdout = io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout):
            return main(args), stdout.getvalue()
    except Exception:
        traceback.print_exc()
        return "exception: " + traceback.format_exc().splitlines()[-1], ""

status = {}
for name in names:
    config = f"configs/{name}.json"
    status[f"run {name}"], _ = call(["run", config, "--output-root",
                                     str(out / "committed")])
    status[f"dump-config {name}"], text = call(["dump-config", config])
    (out / "dump-config").mkdir(parents=True, exist_ok=True)
    (out / "dump-config" / f"{name}.json").write_text(text)
inline = out / "inline-configs"
inline.mkdir(parents=True, exist_ok=True)
for kind, doc in json.loads(small.read_text()).items():
    path = inline / f"{kind}.json"
    path.write_text(json.dumps(dict(doc, output_dir=kind)))
    status[f"run small {kind}"], _ = call(["run", str(path), "--output-root",
                                           str(out / "small")])
shutil.rmtree(inline)
(out / "exit-status.json").write_text(
    json.dumps(status, indent=2, sort_keys=True) + "\n")
'''


def _git(*args) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True).stdout


def export(revision: str | None, dest: Path) -> None:
    """Write the files of ``revision`` (the working tree when None) to
    ``dest``."""
    dest.mkdir(parents=True)
    if revision is not None:
        with tarfile.open(fileobj=io.BytesIO(_git("archive", revision))) as tar:
            tar.extractall(dest, filter="data")
        return
    listed = _git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in filter(None, listed.decode().split("\0")):
        source = ROOT / name
        if source.is_file():  # a tracked file deleted in the working tree
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name)


def committed_configs(tree: Path, skip_slow: bool) -> list:
    return sorted(path.stem for path in (tree / "configs").glob("*.json")
                  if path.name not in SCHEMA_FILES
                  and not (skip_slow and path.stem in SLOW_CONFIGS))


def small_configs() -> dict:
    spec = importlib.util.spec_from_file_location(
        "oracles", ROOT / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SMALL_CONFIGS


def start_side(tree: Path, out: Path, small: Path,
               skip_slow: bool) -> subprocess.Popen:
    env = {key: value for key, value in os.environ.items()
           if key != "MODKERNEL_OUTPUT_ROOT"}
    env.update(OPENBLAS_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=str(tree / "src"))
    return subprocess.Popen(
        [sys.executable, "-c", _SIDE_SCRIPT, str(out), str(small),
         *committed_configs(tree, skip_slow)],
        cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True)


def artifacts(out: Path) -> dict:
    """Relative path -> file, for every JSON and CSV file but metadata."""
    return {str(path.relative_to(out)): path
            for path in sorted(out.rglob("*"))
            if path.suffix in (".json", ".csv") and path.name != "metadata.json"}


def _load(path: Path):
    """A JSON document, or a CSV file as its header and one dict per row."""
    text = path.read_text()
    if path.suffix == ".csv":
        header, *rows = list(csv.reader(io.StringIO(text))) or [[]]
        return {"header": header, "row": [dict(zip(header, row)) for row in rows]}
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _number(value) -> float | None:
    if isinstance(value, bool):
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def _differences(a, b, where: str = ""):
    """(location, a, b) for each leaf that differs, in document order."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in [*a, *(key for key in b if key not in a)]:
            yield from _differences(a.get(key, "<absent>"),
                                    b.get(key, "<absent>"),
                                    f"{where}.{key}" if where else key)
    elif isinstance(a, list) and isinstance(b, list):
        for i in range(max(len(a), len(b))):
            yield from _differences(a[i] if i < len(a) else "<absent>",
                                    b[i] if i < len(b) else "<absent>",
                                    f"{where}[{i}]")
    elif a != b and not _both_nan(a, b):
        yield where, a, b


def _both_nan(a, b) -> bool:
    x, y = _number(a), _number(b)
    return x is not None and y is not None and math.isnan(x) and math.isnan(y)


def _relative_change(a, b) -> float | None:
    x, y = _number(a), _number(b)
    if x is None or y is None:
        return None
    if math.isnan(x) or math.isnan(y) or math.isinf(x) or math.isinf(y):
        return math.inf
    scale = max(abs(x), abs(y))
    return abs(x - y) / scale if scale else 0.0


def describe(path_a: Path, path_b: Path) -> str:
    """How two files with different bytes differ."""
    diffs = list(_differences(_load(path_a), _load(path_b)))
    if not diffs:
        return "the bytes differ but the values are equal"
    changes = [c for c in (_relative_change(x, y) for _, x, y in diffs)
               if c is not None]
    largest = (f"largest relative change {max(changes):.3g}" if changes
               else "no numeric change")
    where, x, y = diffs[0]
    return (f"{largest}; {len(diffs)} values differ, the first at {where}: "
            f"{str(x)[:60]} -> {str(y)[:60]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", nargs="?", default="HEAD",
                        help="revision to compare from (default HEAD)")
    parser.add_argument("change", nargs="?", default=None,
                        help="revision to compare to (default the working tree)")
    parser.add_argument("--skip-slow", action="store_true",
                        help="leave out the modular-vs-e2e committed config")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="artifact-diff-") as scratch:
        scratch = Path(scratch)
        small = scratch / "small-configs.json"
        small.write_text(json.dumps(small_configs()))
        sides = {"base": args.base, "change": args.change}
        runs = {}
        for side, revision in sides.items():
            export(revision, scratch / side / "tree")
            runs[side] = start_side(scratch / side / "tree", scratch / side / "out",
                                    small, args.skip_slow)
        errors = {side: proc.communicate()[1] for side, proc in runs.items()}
        for side, proc in runs.items():
            stderr = errors[side]
            if proc.returncode != 0:
                print(f"{side}: the runs stopped with status {proc.returncode}:"
                      f"\n{stderr}", file=sys.stderr)
                return 2
            if stderr.strip():
                print(f"{side}: {stderr.strip()}", file=sys.stderr)
            for schema in SCHEMA_FILES:
                source = scratch / side / "tree" / "configs" / schema
                if source.is_file():
                    (scratch / side / "out" / "schemas").mkdir(exist_ok=True)
                    shutil.copy(source, scratch / side / "out" / "schemas")

        base = artifacts(scratch / "base" / "out")
        change = artifacts(scratch / "change" / "out")
        same = differ = 0
        for name in sorted(set(base) | set(change)):
            if name not in change or name not in base:
                print(f"ONLY {'base' if name in base else 'change'}: {name}")
                differ += 1
            elif base[name].read_bytes() == change[name].read_bytes():
                same += 1
            else:
                print(f"DIFF {name}: {describe(base[name], change[name])}")
                differ += 1
        label = args.change or "the working tree"
        print(f"{args.base} vs {label}: {same} files identical, "
              f"{differ} differ")
        return 0 if differ == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
