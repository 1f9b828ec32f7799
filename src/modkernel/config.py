"""Experiment configuration: a single JSON file, strictly validated.

Each key has one (JSON schema, default) entry in its section's table; the
spec dataclasses carry theirs in their field metadata.  Unknown keys are
rejected by name, each value is checked by ``validate_schema``, defaults
are filled on load, and ``dump_config`` emits a canonical form, so load ->
dump -> load is the identity.  ``config_schema`` renders the tables.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass

from .datasets import GENERATED_KINDS, DatasetSpec, train_count
from .errors import ConfigurationError
from .serialize import dump_json, field_schemas, read_json, validate_schema
from .training import (ArchitectureSpec, TrainConfig, check_budgets,
                       check_checkpoints)
from .transfer import SCORING_FIELDS

EXPERIMENT_KINDS = ("sanity-dynamics", "proxy-sweep", "modular-vs-e2e",
                    "label-efficiency", "transferability", "lemma-suite",
                    "theorem-oracle")

_REQUIRED = object()

_ROOT_SCHEMA = {"experiment": {"type": "string", "enum": EXPERIMENT_KINDS},
                "output_dir": {"type": "string"}}


def _fields_of(spec_class, nullable=()) -> dict:
    """Section table built from a spec dataclass: fields without a default
    are required; ``nullable`` ones default to null (filled in later)."""
    table = {}
    for f, schema in field_schemas(spec_class):
        schema, default = dict(schema), f.default
        if f.name in nullable:
            schema["type"], default = [schema["type"], "null"], None
        elif default is MISSING:
            default = _REQUIRED
        table[f.name] = (schema, default)
    return table


_DATASET_FIELDS = _fields_of(DatasetSpec)
_ARCHITECTURE_FIELDS = _fields_of(ArchitectureSpec,
                                  nullable=("input_dim", "num_classes"))
_TRAIN_FIELDS = _fields_of(TrainConfig)

# Sections that replace some 'train' keys for one stage of one experiment
# kind; every key they leave out falls back to 'train'.
TRAIN_OVERRIDES = ("sweep.output_train", "transfer.candidate_train",
                   "transfer.oracle_train", "modular.input_train")
_OVERRIDE = ({"type": ["object", "null"]}, None)


def _list_of(items: dict, **counts) -> dict:
    """A non-empty array of ``items``; ``counts`` sets other item counts."""
    return {"type": "array", "items": items, "minItems": 1, **counts}


# Two distinct class indices: a binary task, class 'b' against class 'a'.
_CLASS_PAIR = _list_of({"type": "integer", "minimum": 0}, minItems=2,
                       maxItems=2, uniqueItems=True)

_SWEEP_FIELDS = {
    "checkpoint_epochs": (_list_of({"type": "integer", "minimum": 0}),
                          _REQUIRED),
    "output_train": _OVERRIDE,
}

_MODULAR_FIELDS = {"input_train": _OVERRIDE}

_LABEL_EFFICIENCY_FIELDS = {
    "budgets": (_list_of({"type": "integer", "minimum": 1}), _REQUIRED),
    "balanced": ({"type": "boolean"}, True),
    "seed": ({"type": "integer", "minimum": 0}, 0),
}

_TRANSFER_FIELDS = {
    "source_tasks": (_list_of(_CLASS_PAIR), _REQUIRED),
    "target_task": (_CLASS_PAIR, _REQUIRED),
    **SCORING_FIELDS,
    "include_random_candidate": ({"type": "boolean"}, True),
    "candidate_train": _OVERRIDE,
    "oracle_train": _OVERRIDE,
}

# The lemma-suite settings, also read by geometry.run_lemma_suite and the
# verify-lemma command line.
LEMMA_FIELDS = {
    "instances": ({"type": "integer", "minimum": 1}, 10_000),
    "dims": (_list_of({"type": "integer", "minimum": 1}), [2, 3, 4, 5, 6, 7, 8]),
    "seed": ({"type": "integer", "minimum": 0}, 0),
    "tolerance": ({"type": "number", "minimum": 0}, 1e-9),
}
LEMMA_DEFAULTS = {key: default for key, (_, default) in LEMMA_FIELDS.items()}

_THEOREM_FIELDS = {
    "instances": (dict(_list_of({"type": "string"}), type=["array", "null"]),
                  None),
}

# Each threshold lies in the range of the metric it gates; outside it, the
# gate could never pass, or never fail.
_SHARE = {"type": "number", "minimum": 0, "maximum": 1}
_AT_LEAST_0 = {"type": "number", "minimum": 0}
_THRESHOLD_FIELDS = {
    "min_train_accuracy": (_SHARE, None),
    "max_accuracy_gap": (_SHARE, None),
    "min_spearman": ({"type": "number", "minimum": -1, "maximum": 1}, None),
    "min_label_efficiency_ratio": (_AT_LEAST_0, None),
    "max_cost_ratio": (_AT_LEAST_0, None),
    "max_failures": (_AT_LEAST_0, None),
    "min_test_accuracy": (_SHARE, None),
    "max_counterexamples": (_AT_LEAST_0, None),
}

_TOP_SECTIONS = {
    "dataset": _DATASET_FIELDS,
    "architecture": _ARCHITECTURE_FIELDS,
    "train": _TRAIN_FIELDS,
    "sweep": _SWEEP_FIELDS,
    "modular": _MODULAR_FIELDS,
    "label_efficiency": _LABEL_EFFICIENCY_FIELDS,
    "transfer": _TRANSFER_FIELDS,
    "lemma": LEMMA_FIELDS,
    "theorem": _THEOREM_FIELDS,
}


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
    for key, (schema, default) in fields.items():
        if key in doc:
            value = doc[key]
            validate_schema(value, schema, f"{section}.{key}")
            out[key] = float(value) if schema["type"] == "number" else value
        elif partial:
            continue
        elif default is _REQUIRED:
            raise ConfigurationError(
                f"section '{section}' is missing required key '{key}'")
        else:
            out[key] = _json_copy(default)
    return out


def _json_copy(value):
    """``value`` as JSON loads it back: tuples become lists, at any depth."""
    return ([_json_copy(v) for v in value] if isinstance(value, (list, tuple))
            else value)


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
        return ArchitectureSpec.from_dict(sec)

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
    """Check ``doc`` against the section tables, and then the checks that
    span fields or sections wherever the values are known at load."""
    if not isinstance(doc, dict):
        raise ConfigurationError("the configuration root must be an object")
    for key in doc:
        if key not in {*_ROOT_SCHEMA, "thresholds", *_TOP_SECTIONS}:
            raise ConfigurationError(f"unknown key '{key}' at the top level")
    if "experiment" not in doc:
        raise ConfigurationError("missing required key 'experiment'")
    resolved = {"experiment": doc["experiment"],
                "output_dir": doc.get("output_dir", "out")}
    for key, schema in _ROOT_SCHEMA.items():
        validate_schema(resolved[key], schema, key)
    for section, fields in _TOP_SECTIONS.items():
        if section in doc:
            resolved[section] = _resolve_section(section, doc[section], fields)
    resolved["thresholds"] = dict(sorted(_resolve_section(
        "thresholds", doc.get("thresholds", {}), _THRESHOLD_FIELDS,
        partial=True).items()))
    for key in TRAIN_OVERRIDES:
        override = _override(resolved, key)
        if override is not None:
            parent, _, name = key.partition(".")
            resolved[parent][name] = _resolve_section(
                key, override, _TRAIN_FIELDS, partial=True)

    cfg = ExperimentConfig(resolved=resolved)
    train = cfg.train_config()
    for key in TRAIN_OVERRIDES:
        if _override(resolved, key) is not None:
            try:
                cfg.train_config(key)
            except ConfigurationError as exc:
                # Each field passed under its own path above, so what fails
                # is the schedule this section sets: name it by that path.
                raise ConfigurationError(
                    str(exc).replace("train.", f"{key}.", 1)) from None
    data, label, transfer = (resolved.get(key) for key in (
        "dataset", "label_efficiency", "transfer"))
    if data is not None:
        cfg.dataset_spec()
    if "sweep" in resolved:
        check_checkpoints(resolved["sweep"]["checkpoint_epochs"], train)
    # The size and labels of a file dataset are unknown until it is read.
    if data is None or data["kind"] not in GENERATED_KINDS:
        return cfg
    classes = data["num_classes"]
    if label is not None:
        check_budgets(label["budgets"],
                      train_count(data["n"], data["split_fraction"]),
                      classes, label["balanced"])
    if transfer is not None:
        for key, pairs in (("source_tasks", transfer["source_tasks"]),
                           ("target_task", [transfer["target_task"]])):
            if any(max(pair) >= classes for pair in pairs):
                raise ConfigurationError(
                    f"transfer.{key}: {transfer[key]} names a class outside "
                    f"the dataset's {classes} classes (0 to {classes - 1})")
    return cfg


def load_config(path) -> ExperimentConfig:
    return resolve_config(read_json(path, ConfigurationError))


def dump_config(cfg: ExperimentConfig) -> str:
    return dump_json(cfg.resolved)


def config_schema() -> dict:
    """The JSON schema of a config, rendered from the section tables;
    ``configs/config-schema.json`` holds it as ``dump_json`` writes it."""
    def section(fields: dict, kind="object") -> dict:
        return {"type": kind, "additionalProperties": False,
                "required": [k for k, (_, d) in fields.items() if d is _REQUIRED],
                "properties": {k: schema for k, (schema, _) in fields.items()}}

    props = {name: section(fields) for name, fields in
             [*_TOP_SECTIONS.items(), ("thresholds", _THRESHOLD_FIELDS)]}
    for key in TRAIN_OVERRIDES:
        parent, _, name = key.partition(".")
        props[parent]["properties"][name] = section(_TRAIN_FIELDS,
                                                    ["object", "null"])
    return {"type": "object", "additionalProperties": False,
            "required": ["experiment"],
            "properties": {**_ROOT_SCHEMA, **props}}
