"""Parameter entries, canonical JSON, deterministic CSV emission, and the
one JSON-schema checker, ``validate_schema``, of reports, config values
and spec dataclass fields.

Parameters serialize to a JSON list of (name, shape, row-major values)
entries.  JSON is always dumped canonically (sorted keys, two-space
indent, trailing newline) and floats use Python's shortest round-trip
repr, so identical state produces identical bytes; a NaN or infinity is
null.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import operator
from dataclasses import MISSING, field, fields
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, IngestionError

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
    """Canonical JSON; a NaN or infinity, which JSON lacks, is null."""
    try:
        return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError:  # only an object that holds one is walked in Python
        return json.dumps(_finite(obj), sort_keys=True, indent=2) + "\n"


def _finite(obj):
    if isinstance(obj, dict):
        return {key: _finite(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(value) for value in obj]
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


def write_json(path, obj) -> None:
    Path(path).write_text(dump_json(obj))


def read_json(path, error=IngestionError):
    """The JSON document in ``path``; a directory, bytes that are not UTF-8
    text, or text that does not parse (with its line and column) raise
    ``error``."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except IsADirectoryError:
        raise error(f"{path}: is a directory, not a JSON file") from None
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text (byte {exc.start} is "
                    f"{exc.object[exc.start]:#04x})") from None
    except json.JSONDecodeError as exc:
        raise error(
            f"{path}: parse error at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from None


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


# ---------------------------------------------------------------------------
# the JSON-schema subset every report, config value and spec field obeys
# ---------------------------------------------------------------------------

_REAL = (int, float, np.integer, np.floating)
_TYPES = {"object": dict, "array": (list, tuple), "string": str,
          "boolean": bool, "null": type(None), "integer": (int, np.integer),
          "number": _REAL}

# A bounded value must be a finite number on the bound's side: JSON has no
# NaN or infinity, and NaN fails every comparison.
_BOUNDS = (("minimum", ">=", operator.ge), ("exclusiveMinimum", ">", operator.gt),
           ("maximum", "<=", operator.le), ("exclusiveMaximum", "<", operator.lt))


def validate_schema(obj, schema: dict, path: str = "$") -> None:
    """Check ``obj`` against a JSON-schema subset (type, enum, the four
    bounds, object properties, item counts, items, prefixItems and
    uniqueItems); raises ConfigurationError naming the offending path."""
    expected = schema.get("type")
    if expected is not None:
        types = (_TYPES[expected] if isinstance(expected, str)
                 else tuple(map(_TYPES.__getitem__, expected)))
        # isinstance takes a bool for an int; only "boolean" admits one.
        if not isinstance(obj, types) or (type(obj) is bool
                                          and "boolean" not in expected):
            raise ConfigurationError(
                f"{path}: expected {expected}, got {type(obj).__name__}")
    if "enum" in schema and obj not in schema["enum"]:
        raise ConfigurationError(f"{path}: {obj!r} not in {schema['enum']}")
    if isinstance(obj, _REAL) and type(obj) is not bool:
        for key, sign, holds in _BOUNDS:
            if key in schema and not (math.isfinite(obj)
                                      and holds(obj, schema[key])):
                raise ConfigurationError(
                    f"{path}: {obj!r} is not a finite number {sign} {schema[key]}")
    elif isinstance(obj, dict):
        for key in schema.get("required", ()):
            if key not in obj:
                raise ConfigurationError(f"{path}: missing required key '{key}'")
        props = schema.get("properties", {})
        extra = schema.get("additionalProperties", True)
        for key, value in obj.items():
            if key in props:
                validate_schema(value, props[key], f"{path}.{key}")
            elif extra is False:
                raise ConfigurationError(f"{path}: unknown key '{key}'")
            elif isinstance(extra, dict):
                validate_schema(value, extra, f"{path}.{key}")
    elif isinstance(obj, (list, tuple)):
        if len(obj) < schema.get("minItems", 0):
            raise ConfigurationError(f"{path}: expected {schema['minItems']} "
                                     f"or more items, got {len(obj)}")
        if len(obj) > schema.get("maxItems", len(obj)):
            raise ConfigurationError(f"{path}: expected {schema['maxItems']} "
                                     f"or fewer items, got {len(obj)}")
        prefix, items = schema.get("prefixItems", ()), schema.get("items")
        for i, item in enumerate(obj):
            sub = prefix[i] if i < len(prefix) else items
            if sub is not None:
                validate_schema(item, sub, f"{path}[{i}]")
        if schema.get("uniqueItems") and any(obj.count(x) > 1 for x in obj):
            raise ConfigurationError(f"{path}: items must be distinct, got {obj!r}")


def check_entries(section: str, values: dict, table: dict) -> None:
    """Check ``values`` against their (schema, default) entries in ``table``."""
    for key, value in values.items():
        validate_schema(value, table[key][0], f"{section}.{key}")


# JSON-schema types of the spec dataclasses' field annotations.
_FIELD_TYPES = {"int": "integer", "float": "number", "str": "string",
                "tuple": "array", "str | None": ["string", "null"]}


def ranged(default=MISSING, **schema):
    """A spec dataclass field whose range (``minimum``, ``enum``, ``items``
    and the other keywords of ``validate_schema``) rides in its metadata."""
    return field(default=default, metadata=schema)


@functools.cache
def field_schemas(spec_class) -> tuple:
    """(field, JSON schema of its type and range) for each field of a spec
    dataclass; the schemas are shared, so callers copy before changing."""
    return tuple((f, {"type": _FIELD_TYPES[f.type], **f.metadata})
                 for f in fields(spec_class))


def check_fields(spec, section: str) -> None:
    """Check each field of the dataclass ``spec`` against its schema."""
    for f, schema in field_schemas(type(spec)):
        validate_schema(getattr(spec, f.name), schema, f"{section}.{f.name}")
