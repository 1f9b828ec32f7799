"""Experiment configuration: a single JSON file, strictly validated.

Unknown keys are rejected by name, defaults are filled on load, and
``dump_config`` emits a canonical form, so load -> dump -> load is the
identity.  A small schema checker is also provided; emitted JSON reports
are validated against the committed report schema.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, fields as dataclass_fields
from pathlib import Path

from .datasets import DatasetSpec
from .errors import ConfigurationError
from .serialize import dump_json
from .training import ArchitectureSpec, TrainConfig, _is_finite, _is_integer
from .transfer import SCORING_DEFAULTS, validate_subsample_fraction

EXPERIMENT_KINDS = ("sanity-dynamics", "proxy-sweep", "modular-vs-e2e",
                    "label-efficiency", "transferability", "lemma-suite",
                    "theorem-oracle")

_REQUIRED = object()

# JSON types of the dataclass field annotations; tuples load from arrays.
_JSON_TYPES = {"int": int, "float": float, "str": str, "tuple": list,
               "str | None": (str, type(None))}


def _fields_of(spec_class, nullable=()) -> dict:
    """Section table built from a spec dataclass: fields without a default
    are required; ``nullable`` ones default to null (filled in later)."""
    table = {}
    for f in dataclass_fields(spec_class):
        types, default = _JSON_TYPES[f.type], f.default
        if f.name in nullable:
            types, default = (types, type(None)), None
        elif default is MISSING:
            default = _REQUIRED
        table[f.name] = (types, default)
    return table


_DATASET_FIELDS = _fields_of(DatasetSpec)
_ARCHITECTURE_FIELDS = _fields_of(ArchitectureSpec,
                                  nullable=("input_dim", "num_classes"))
_TRAIN_FIELDS = _fields_of(TrainConfig)

# Sections that replace some 'train' keys for one stage of one experiment
# kind; every key they leave out falls back to 'train'.
TRAIN_OVERRIDES = ("sweep.output_train", "transfer.candidate_train",
                   "transfer.oracle_train", "modular.input_train")

_SWEEP_FIELDS = {
    "checkpoint_epochs": (list, _REQUIRED),
    "output_train": ((dict, type(None)), None),
}

_MODULAR_FIELDS = {
    "input_train": ((dict, type(None)), None),
}

_LABEL_EFFICIENCY_FIELDS = {
    "budgets": (list, _REQUIRED),
    "balanced": (bool, True),
    "seed": (int, 0),
}

_TRANSFER_FIELDS = {
    "source_tasks": (list, _REQUIRED),
    "target_task": (list, _REQUIRED),
    "proxy": (str, SCORING_DEFAULTS["proxy"]),
    "subsample_fraction": (float, SCORING_DEFAULTS["subsample_fraction"]),
    "seed": (int, SCORING_DEFAULTS["seed"]),
    "include_random_candidate": (bool, True),
    "candidate_train": ((dict, type(None)), None),
    "oracle_train": ((dict, type(None)), None),
}

_LEMMA_FIELDS = {
    "instances": (int, 10_000),
    "dims": (list, [2, 3, 4, 5, 6, 7, 8]),
    "seed": (int, 0),
    "tolerance": (float, 1e-9),
}

# The lemma defaults, also read by geometry.run_lemma_suite and the
# verify-lemma command line.
LEMMA_DEFAULTS = {key: default for key, (_, default) in _LEMMA_FIELDS.items()}


def check_lemma_settings(instances, dims, seed, tolerance) -> None:
    """Reject lemma-suite settings the suite cannot run on: it needs at
    least one instance, a non-empty list of dimensions of at least 1, a
    non-negative seed and a finite, non-negative tolerance."""
    if not _is_integer(instances, 1):
        raise ConfigurationError(
            f"lemma 'instances' must be an integer >= 1, got {instances!r}")
    if (not isinstance(dims, (list, tuple)) or not dims
            or not all(_is_integer(d, 1) for d in dims)):
        raise ConfigurationError(
            "lemma 'dims' must be a non-empty list of integers >= 1, "
            f"got {dims!r}")
    if not _is_integer(seed, 0):
        raise ConfigurationError(
            f"lemma 'seed' must be an integer >= 0, got {seed!r}")
    if not (_is_finite(tolerance) and tolerance >= 0):
        raise ConfigurationError(
            f"lemma 'tolerance' must be a finite number >= 0, got {tolerance!r}")

_THEOREM_FIELDS = {
    "instances": ((list, type(None)), None),
}

_KNOWN_THRESHOLDS = (
    "min_train_accuracy", "max_accuracy_gap", "min_spearman",
    "min_label_efficiency_ratio", "max_cost_ratio", "max_failures",
    "min_test_accuracy", "max_counterexamples",
)

_TOP_SECTIONS = {
    "dataset": _DATASET_FIELDS,
    "architecture": _ARCHITECTURE_FIELDS,
    "train": _TRAIN_FIELDS,
    "sweep": _SWEEP_FIELDS,
    "modular": _MODULAR_FIELDS,
    "label_efficiency": _LABEL_EFFICIENCY_FIELDS,
    "transfer": _TRANSFER_FIELDS,
    "lemma": _LEMMA_FIELDS,
    "theorem": _THEOREM_FIELDS,
}


_INVALID = object()


def _coerce(value, types):
    if not isinstance(types, tuple):
        types = (types,)
    if float in types and isinstance(value, int) and not isinstance(value, bool):
        return float(value)
    if bool not in types and isinstance(value, bool):
        return _INVALID
    return value if isinstance(value, types) else _INVALID


def _resolve_section(section: str, doc: dict, fields: dict,
                     partial: bool = False) -> dict:
    """Check ``doc`` against ``fields``; fill defaults unless ``partial``."""
    if not isinstance(doc, dict):
        raise ConfigurationError(f"section '{section}' must be an object")
    for key in doc:
        if key not in fields:
            raise ConfigurationError(
                f"unknown key '{key}' in section '{section}'")
    out = {}
    for key, (types, default) in fields.items():
        if key in doc:
            coerced = _coerce(doc[key], types)
            if coerced is _INVALID:
                raise ConfigurationError(
                    f"key '{key}' in section '{section}' has the wrong type")
            out[key] = coerced
        elif partial:
            continue
        elif default is _REQUIRED:
            raise ConfigurationError(
                f"section '{section}' is missing required key '{key}'")
        else:
            out[key] = json.loads(json.dumps(default))
    return out


@dataclass
class ExperimentConfig:
    """A fully resolved experiment description."""

    resolved: dict

    @property
    def experiment(self) -> str:
        return self.resolved["experiment"]

    @property
    def output_dir(self) -> str:
        return self.resolved["output_dir"]

    @property
    def thresholds(self) -> dict:
        return self.resolved.get("thresholds", {})

    def section(self, name: str) -> dict | None:
        return self.resolved.get(name)

    def section_or_defaults(self, name: str) -> dict:
        """The resolved section, or its defaults when the config omits it."""
        return (self.section(name)
                or _resolve_section(name, {}, _TOP_SECTIONS[name]))

    def dataset_spec(self) -> DatasetSpec:
        sec = self.section("dataset")
        if sec is None:
            raise ConfigurationError(
                f"experiment '{self.experiment}' needs a 'dataset' section")
        return DatasetSpec(**sec)

    def architecture_spec(self) -> ArchitectureSpec:
        sec = dict(self.section_or_defaults("architecture"))
        data = self.section("dataset") or {}
        if sec.get("input_dim") is None:
            if not data.get("d"):
                raise ConfigurationError(
                    "architecture.input_dim is unset and the dataset "
                    "declares no dimension")
            sec["input_dim"] = data["d"]
        if sec.get("num_classes") is None:
            sec["num_classes"] = data.get("num_classes", 2)
        sec["hidden_widths"] = tuple(int(w) for w in sec["hidden_widths"])
        return ArchitectureSpec(**sec)

    def train_config(self, override_key: str | None = None) -> TrainConfig:
        """The 'train' section, with the keys of ``override_key`` (one of
        ``TRAIN_OVERRIDES``) laid over it when that section is set."""
        sec = dict(self.section_or_defaults("train"))
        if override_key:
            sec.update(_override(self.resolved, override_key) or {})
        return TrainConfig.from_dict(sec)


def _override(resolved: dict, key: str) -> dict | None:
    parent, _, name = key.partition(".")
    return (resolved.get(parent) or {}).get(name)


def resolve_config(doc: dict) -> ExperimentConfig:
    if not isinstance(doc, dict):
        raise ConfigurationError("the configuration root must be an object")
    known_top = {"experiment", "output_dir", "thresholds", *_TOP_SECTIONS}
    for key in doc:
        if key not in known_top:
            raise ConfigurationError(f"unknown key '{key}' at the top level")
    if "experiment" not in doc:
        raise ConfigurationError("missing required key 'experiment'")
    kind = doc["experiment"]
    if kind not in EXPERIMENT_KINDS:
        raise ConfigurationError(
            f"unknown experiment kind {kind!r}; expected one of {EXPERIMENT_KINDS}")

    resolved = {"experiment": kind,
                "output_dir": str(doc.get("output_dir", "out"))}
    for section, fields in _TOP_SECTIONS.items():
        if section in doc:
            resolved[section] = _resolve_section(section, doc[section], fields)
    thresholds = doc.get("thresholds", {})
    if not isinstance(thresholds, dict):
        raise ConfigurationError("'thresholds' must be an object")
    for key, value in thresholds.items():
        if key not in _KNOWN_THRESHOLDS:
            raise ConfigurationError(f"unknown key '{key}' in 'thresholds'")
        if not _is_finite(value):
            raise ConfigurationError(
                f"threshold '{key}' must be a finite number, got {value!r}")
    resolved["thresholds"] = {k: float(v) for k, v in sorted(thresholds.items())}

    cfg = ExperimentConfig(resolved=resolved)
    # Eagerly construct the typed specs so value-level validation runs now.
    if "dataset" in resolved:
        cfg.dataset_spec()
    if "train" in resolved:
        cfg.train_config()
    if "transfer" in resolved:
        validate_subsample_fraction(resolved["transfer"]["subsample_fraction"])
    for section in ("label_efficiency", "transfer"):
        seed = resolved.get(section, {}).get("seed", 0)
        if seed < 0:
            raise ConfigurationError(
                f"'{section}.seed' must be an integer >= 0, got {seed}")
    if "lemma" in resolved:
        check_lemma_settings(**resolved["lemma"])
    for key in TRAIN_OVERRIDES:
        override = _override(resolved, key)
        if override is not None:
            parent, _, name = key.partition(".")
            resolved[parent][name] = _resolve_section(
                key, override, _TRAIN_FIELDS, partial=True)
            try:
                cfg.train_config(key)
            except ConfigurationError as exc:
                raise ConfigurationError(f"section '{key}': {exc}") from None
    arch = resolved.get("architecture")
    if arch is not None and (arch.get("input_dim") is not None
                             or resolved.get("dataset", {}).get("d")):
        cfg.architecture_spec()
    return cfg


def load_config(path) -> ExperimentConfig:
    text = Path(path).read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"{path}: parse error at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from None
    return resolve_config(doc)


def dump_config(cfg: ExperimentConfig) -> str:
    return dump_json(cfg.resolved)


# ---------------------------------------------------------------------------
# minimal schema checking for emitted reports
# ---------------------------------------------------------------------------

_TYPE_MAP = {
    "object": dict,
    "array": list,
    "string": str,
    "boolean": bool,
    "null": type(None),
}


def validate_schema(obj, schema: dict, path: str = "$") -> None:
    """Check ``obj`` against a small JSON-schema subset; raises
    ConfigurationError naming the offending path."""
    expected = schema.get("type")
    if expected is not None:
        kinds = expected if isinstance(expected, list) else [expected]
        ok = False
        for kind in kinds:
            if kind == "number":
                ok = ok or (isinstance(obj, (int, float))
                            and not isinstance(obj, bool))
            elif kind == "integer":
                ok = ok or (isinstance(obj, int) and not isinstance(obj, bool))
            else:
                ok = ok or isinstance(obj, _TYPE_MAP[kind])
        if not ok:
            raise ConfigurationError(
                f"{path}: expected {expected}, got {type(obj).__name__}")
    if "enum" in schema and obj not in schema["enum"]:
        raise ConfigurationError(f"{path}: {obj!r} not in {schema['enum']}")
    if isinstance(obj, dict):
        for key in schema.get("required", []):
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
    if isinstance(obj, list) and "items" in schema:
        for i, item in enumerate(obj):
            validate_schema(item, schema["items"], f"{path}[{i}]")
