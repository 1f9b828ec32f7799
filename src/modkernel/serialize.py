"""Parameter entries, canonical JSON, and deterministic CSV emission.

Parameters serialize to a JSON list of (name, shape, row-major values)
entries.  JSON is always dumped canonically (sorted keys, two-space
indent, trailing newline) and floats use Python's shortest round-trip
repr, so identical state produces identical bytes.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from .errors import IngestionError

MODULE_FORMAT = "modkernel-module-v1"


def params_to_entries(named_params) -> list:
    """``named_params``: iterable of (name, tensor-or-array)."""
    entries = []
    for name, param in named_params:
        arr = np.asarray(getattr(param, "data", param), dtype=np.float64)
        entries.append({
            "name": str(name),
            "shape": list(arr.shape),
            "values": [float(v) for v in arr.ravel()],
        })
    return entries


def entries_to_params(entries: list) -> list:
    """(name, array) pairs of entries whose ``shape`` is a list of
    integers >= 0 and whose ``values`` are a flat list of numbers that
    fills it; anything else raises ``IngestionError``."""
    out = []
    for entry in entries:
        shape = entry["shape"]
        if not isinstance(shape, list) or not all(
                isinstance(s, int) and not isinstance(s, bool) and s >= 0
                for s in shape):
            raise IngestionError(
                f"tensor {entry['name']!r} shape must be a list of integers "
                f">= 0, got {shape!r}")
        try:
            arr = np.array(entry["values"])
        except ValueError:  # a ragged nested list
            arr = None
        if arr is None or arr.ndim != 1 or arr.dtype.kind not in "iuf":
            raise IngestionError(
                f"tensor {entry['name']!r} values must be a flat list of "
                "numbers")
        arr = arr.astype(np.float64, copy=False)
        if arr.size != math.prod(shape):
            raise IngestionError(
                f"tensor {entry['name']!r} declares shape {shape} "
                f"but holds {arr.size} values")
        out.append((entry["name"], arr.reshape(shape)))
    return out


def dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def write_json(path, obj) -> None:
    Path(path).write_text(dump_json(obj))


def read_json(path) -> dict:
    return json.loads(Path(path).read_text())


def _format_cell(value) -> str:
    if isinstance(value, (float, np.floating)):
        v = float(value)
        return "nan" if math.isnan(v) else repr(v)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return "" if value is None else str(value)


def write_csv(path, header, rows) -> None:
    """Rows are sequences aligned with ``header``; floats use repr."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_format_cell(v) for v in row])
