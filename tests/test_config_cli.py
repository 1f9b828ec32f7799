import contextlib
import csv
import inspect
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from modkernel.cli import main
from modkernel.config import (EXPERIMENT_KINDS, TRAIN_OVERRIDES, dump_config,
                              load_config, validate_schema)
from modkernel.kernels import NONLINEARITIES
from modkernel.losses import LOSS_KINDS
from modkernel.proxies import PROXY_KINDS
from modkernel.errors import ConfigurationError
from modkernel.datasets import make_dataset
from modkernel.experiments import REPORT_SCHEMA, binary_subtask, run_experiment
from modkernel.serialize import dump_json, read_json
from modkernel.training import TrainConfig

from oracles import SMALL_CONFIGS

CONFIG_DIR = Path(__file__).parent.parent / "configs"


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


MINIMAL_LEMMA = {
    "experiment": "lemma-suite",
    "lemma": {"instances": 200, "seed": 1},
}


def _floats(low, high):
    return st.floats(low, high, allow_nan=False, allow_infinity=False)


def _section(required=None, **optional):
    return st.fixed_dictionaries(required or {}, optional=optional)


def _lr_steps(least_epochs):
    return st.tuples(_floats(1e-6, 1.0) | st.integers(1, 3),
                     st.integers(least_epochs, 100)).map(list)


# A schedule's first entry has an epoch, so no schedule sums to 0 epochs.
_TRAIN_SECTIONS = _section(
    batch_size=st.integers(2, 512),
    lr_schedule=st.tuples(_lr_steps(1), st.lists(_lr_steps(0), max_size=2))
    .map(lambda steps: [steps[0], *steps[1]]),
    momentum=_floats(0.0, 0.99), seed=st.integers(0, 2 ** 32),
    proxy=st.sampled_from(PROXY_KINDS),
    loss=st.sampled_from(("xe",) + LOSS_KINDS),
    trace_every=st.integers(1, 50), plateau_tol=_floats(0.0, 1.0),
    plateau_patience=st.integers(1, 50), resample_limit=st.integers(0, 500))


@st.composite
def config_docs(draw):
    """Valid config documents: every section optional, each key of a
    section optional unless its range depends on it, values drawn from
    their valid ranges."""
    doc = {"experiment": draw(st.sampled_from(EXPERIMENT_KINDS))}
    sections = {
        "output_dir": st.text("abcxyz/-_0123", min_size=1, max_size=12),
        # A generated dataset needs n and d, and at most 2 * d blob classes.
        "dataset": st.integers(1, 20).flatmap(lambda d: _section(
            {"kind": st.sampled_from(("gaussian-blobs", "random-label")),
             "n": st.integers(1, 500), "d": st.just(d)},
            num_classes=st.integers(2, min(6, 2 * d)),
            seed=st.integers(0, 10 ** 6),
            split_fraction=_floats(0.01, 1.0), separation=_floats(0.0, 20.0),
            noise=_floats(0.0, 5.0))),
        "architecture": _section(
            input_dim=st.none() | st.integers(1, 20),
            hidden_widths=st.lists(st.integers(1, 64), max_size=3),
            latent_dim=st.integers(1, 8),
            num_classes=st.none() | st.integers(2, 6),
            hidden_nonlinearity=st.sampled_from(NONLINEARITIES),
            link_nonlinearity=st.sampled_from(NONLINEARITIES),
            link_epsilon=_floats(1e-15, 1e-3)),
        "train": _TRAIN_SECTIONS,
        "modular": _section(input_train=st.none() | _TRAIN_SECTIONS),
        "lemma": _section(
            instances=st.integers(1, 10 ** 5),
            dims=st.lists(st.integers(1, 9), min_size=1, max_size=4),
            seed=st.integers(0, 10 ** 6), tolerance=_floats(0.0, 1e-3)),
        "thresholds": _section(
            min_train_accuracy=_floats(0.0, 1.0),
            max_accuracy_gap=_floats(0.0, 1.0) | st.integers(0, 1),
            min_spearman=_floats(-1.0, 1.0)),
    }
    for key, strategy in sections.items():
        if draw(st.booleans()):
            doc[key] = draw(strategy)
    data = doc.get("dataset")
    most = round(data["n"] * data.get("split_fraction", 0.8)) if data else 100
    if most >= 1 and draw(st.booleans()):
        # Budgets fit the drawn training split; a balanced one gives each
        # of the drawn classes a label, unless it takes the whole split.
        balanced = draw(st.booleans())
        fewest = min(data.get("num_classes", 2), most) if (
            data and balanced) else 1
        doc["label_efficiency"] = draw(_section(
            {"budgets": st.lists(st.integers(fewest, most), min_size=1,
                                 max_size=4),
             "balanced": st.just(balanced)},
            seed=st.integers(0, 10 ** 6)))
    if draw(st.booleans()):
        # Checkpoints are epoch counts of the drawn stage-1 schedule.
        epochs = TrainConfig.from_dict(doc.get("train", {})).total_epochs
        doc["sweep"] = draw(_section(
            {"checkpoint_epochs": st.lists(st.integers(0, epochs), min_size=1,
                                           max_size=4)},
            output_train=st.none() | _TRAIN_SECTIONS))
    return doc


class TestConfigLoading:
    def test_minimal_config_fills_defaults(self, tmp_path):
        cfg = load_config(write_config(tmp_path, MINIMAL_LEMMA))
        assert cfg.experiment == "lemma-suite"
        assert cfg.resolved["lemma"]["dims"] == [2, 3, 4, 5, 6, 7, 8]
        assert cfg.resolved["lemma"]["tolerance"] == 1e-9
        assert cfg.output_dir == "out"

    def test_unknown_key_is_named(self, tmp_path):
        doc = {"experiment": "sanity-dynamics",
               "train": {"lr_sched": [[0.1, 5]]}}
        with pytest.raises(ConfigurationError, match="lr_sched"):
            load_config(write_config(tmp_path, doc))

    def test_unknown_top_level_key(self, tmp_path):
        with pytest.raises(ConfigurationError, match="outputs"):
            load_config(write_config(
                tmp_path, {"experiment": "lemma-suite", "outputs": "x"}))

    def test_unknown_experiment_kind(self, tmp_path):
        with pytest.raises(ConfigurationError, match="grid-search"):
            load_config(write_config(tmp_path, {"experiment": "grid-search"}))

    def test_parse_error_carries_line_info(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "experiment": "lemma-suite",\n  oops\n}')
        with pytest.raises(ConfigurationError, match="line 3"):
            load_config(path)

    def test_missing_required_key(self, tmp_path):
        doc = {"experiment": "proxy-sweep", "sweep": {}}
        with pytest.raises(ConfigurationError, match="checkpoint_epochs"):
            load_config(write_config(tmp_path, doc))

    def test_wrong_type_rejected(self, tmp_path):
        doc = {"experiment": "lemma-suite", "lemma": {"instances": "many"}}
        with pytest.raises(ConfigurationError, match="instances"):
            load_config(write_config(tmp_path, doc))

    @pytest.mark.parametrize("train", [{"trace_every": 0},
                                       {"momentum": 1.0},
                                       {"momentum": -0.1},
                                       {"lr_schedule": [[float("nan"), 2]]},
                                       {"lr_schedule": [[float("inf"), 2]]},
                                       {"plateau_tol": float("nan")},
                                       {"lr_schedule": [[0.1, 2.5]]},
                                       {"lr_schedule": [[0.1, True]]},
                                       {"plateau_patience": 0},
                                       {"plateau_patience": -1},
                                       {"resample_limit": -1}])
    def test_bad_train_value_rejected_at_load(self, tmp_path, train):
        doc = {"experiment": "sanity-dynamics", "train": train}
        with pytest.raises(ConfigurationError, match=next(iter(train))):
            load_config(write_config(tmp_path, doc))

    @pytest.mark.parametrize("doc", [
        {"experiment": "sanity-dynamics", "train": {"seed": -1}},
        {"experiment": "sanity-dynamics",
         "dataset": {"kind": "random-label", "n": 8, "d": 2, "seed": -1}},
        {"experiment": "label-efficiency",
         "label_efficiency": {"budgets": [4], "seed": -1}},
        {"experiment": "transferability",
         "transfer": {"source_tasks": [[0, 1]], "target_task": [0, 1],
                      "seed": -1}},
    ], ids=["train", "dataset", "label_efficiency", "transfer"])
    def test_negative_seed_rejected_at_load(self, tmp_path, doc):
        with pytest.raises(ConfigurationError, match="seed"):
            load_config(write_config(tmp_path, doc))

    @pytest.mark.parametrize("lemma, key", [
        ({"instances": -5}, "instances"),
        ({"instances": 0}, "instances"),
        ({"dims": []}, "dims"),
        ({"dims": ["a"]}, "dims"),
        ({"dims": [0, 2]}, "dims"),
        ({"dims": [2.5]}, "dims"),
        ({"seed": -1}, "seed"),
        ({"tolerance": -1.0}, "tolerance"),
    ])
    def test_bad_lemma_value_rejected_at_load(self, tmp_path, lemma, key):
        doc = {"experiment": "lemma-suite", "lemma": lemma}
        with pytest.raises(ConfigurationError, match=key):
            load_config(write_config(tmp_path, doc))

    def test_lemma_dimension_one_loads(self, tmp_path):
        doc = {"experiment": "lemma-suite", "lemma": {"dims": [1, 2]}}
        assert load_config(write_config(tmp_path, doc)).resolved["lemma"][
            "dims"] == [1, 2]

    def test_unknown_threshold_rejected(self, tmp_path):
        doc = dict(MINIMAL_LEMMA, thresholds={"min_vibes": 1.0})
        with pytest.raises(ConfigurationError, match="min_vibes"):
            load_config(write_config(tmp_path, doc))

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_threshold_rejected(self, tmp_path, value):
        doc = dict(MINIMAL_LEMMA, thresholds={"max_failures": value})
        with pytest.raises(ConfigurationError, match="max_failures"):
            load_config(write_config(tmp_path, doc))

    def test_round_trip_is_lossless_and_idempotent(self, tmp_path):
        doc = {
            "experiment": "modular-vs-e2e",
            "output_dir": "out/x",
            "dataset": {"kind": "gaussian-blobs", "n": 64, "d": 4,
                        "num_classes": 2, "seed": 3},
            "architecture": {"hidden_widths": [8], "latent_dim": 2},
            "train": {"batch_size": 16, "lr_schedule": [[0.05, 2]],
                      "seed": 1},
            "thresholds": {"min_train_accuracy": 0.5},
        }
        cfg1 = load_config(write_config(tmp_path, doc))
        text1 = dump_config(cfg1)
        path2 = tmp_path / "canonical.json"
        path2.write_text(text1)
        cfg2 = load_config(path2)
        assert cfg2.resolved == cfg1.resolved
        assert dump_config(cfg2) == text1

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(doc=config_docs())
    def test_round_trip_holds_for_generated_configs(self, doc):
        """load -> dump_config -> load is the identity on every valid
        config, and the dumped text is a fixed point."""
        with tempfile.TemporaryDirectory() as tmp:
            cfg1 = load_config(write_config(Path(tmp), doc))
            text1 = dump_config(cfg1)
            path2 = Path(tmp) / "canonical.json"
            path2.write_text(text1)
            cfg2 = load_config(path2)
        assert cfg2.resolved == cfg1.resolved
        assert dump_config(cfg2) == text1

    def test_train_config_override_section(self, tmp_path):
        doc = {
            "experiment": "proxy-sweep",
            "dataset": {"kind": "gaussian-blobs", "n": 64, "d": 4},
            "train": {"batch_size": 16, "seed": 1},
            "sweep": {"checkpoint_epochs": [0, 1],
                      "output_train": {"batch_size": 8}},
        }
        cfg = load_config(write_config(tmp_path, doc))
        assert cfg.train_config().batch_size == 16
        assert cfg.train_config("sweep.output_train").batch_size == 8

    @staticmethod
    def _with_override(key, override):
        parent, _, name = key.partition(".")
        required = {"sweep": {"checkpoint_epochs": [0]},
                    "transfer": {"source_tasks": [[0, 1]],
                                 "target_task": [0, 1]}}
        return {"experiment": "modular-vs-e2e",
                "train": {"batch_size": 16},
                parent: dict(required.get(parent, {}), **{name: override})}

    @pytest.mark.parametrize("key", TRAIN_OVERRIDES)
    def test_override_unknown_key_names_section(self, tmp_path, key):
        doc = self._with_override(key, {"lr_shedule": [[0.1, 5]]})
        with pytest.raises(ConfigurationError,
                           match=f"'lr_shedule' in section '{key}'"):
            load_config(write_config(tmp_path, doc))

    @pytest.mark.parametrize("key", TRAIN_OVERRIDES)
    @pytest.mark.parametrize("override", [{"batch_size": "8"},
                                          {"momentum": None},
                                          {"lr_schedule": [[0.1]]},
                                          {"lr_schedule": [[-0.1, 5]]},
                                          {"lr_schedule": [[0.1, 0]]},
                                          {"trace_every": 0},
                                          {"momentum": 1.0}])
    def test_override_bad_value_names_section(self, tmp_path, key, override):
        doc = self._with_override(key, override)
        path = re.escape(f"{key}.{next(iter(override))}")
        with pytest.raises(ConfigurationError, match=path):
            load_config(write_config(tmp_path, doc))

    def test_override_keeps_only_given_keys(self, tmp_path):
        doc = self._with_override("modular.input_train", {"momentum": 0})
        cfg = load_config(write_config(tmp_path, doc))
        assert cfg.resolved["modular"]["input_train"] == {"momentum": 0.0}
        assert cfg.train_config("modular.input_train").momentum == 0.0
        assert cfg.train_config("modular.input_train").batch_size == 16

    @pytest.mark.parametrize("path", sorted(
        p for p in CONFIG_DIR.glob("*.json") if "schema" not in p.name),
        ids=lambda p: p.stem)
    def test_committed_configs_match_config_schema(self, path):
        schema = read_json(CONFIG_DIR / "config-schema.json")
        validate_schema(read_json(path), schema)
        load_config(path)


    @pytest.mark.parametrize("key,value", [
        ("latent_dim", 0), ("hidden_widths", [0]), ("num_classes", 1),
        ("hidden_nonlinearity", "foo"), ("link_epsilon", 0.0)])
    def test_bad_architecture_value_rejected_at_load(self, tmp_path, key,
                                                     value, capsys):
        doc = {"experiment": "sanity-dynamics",
               "dataset": {"kind": "gaussian-blobs", "n": 20, "d": 3},
               "architecture": {key: value}}
        assert main(["dump-config", str(write_config(tmp_path, doc))]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


class TestConfigSchemaFile:
    """configs/config-schema.json describes what the loader accepts."""

    SCHEMA = read_json(CONFIG_DIR / "config-schema.json")

    def test_sections_list_the_loader_fields(self):
        from modkernel.config import _TOP_SECTIONS
        props = self.SCHEMA["properties"]
        assert props.keys() == {"experiment", "output_dir", "thresholds",
                                *_TOP_SECTIONS}
        for section, fields in _TOP_SECTIONS.items():
            assert props[section]["properties"].keys() == fields.keys(), section
            assert props[section]["additionalProperties"] is False, section

    def test_enums_match_the_code(self):
        from modkernel.config import EXPERIMENT_KINDS
        from modkernel.datasets import DATASET_KINDS
        from modkernel.kernels import NONLINEARITIES
        from modkernel.losses import LOSS_KINDS
        from modkernel.proxies import PROXY_KINDS
        props = self.SCHEMA["properties"]
        assert props["experiment"]["enum"] == list(EXPERIMENT_KINDS)
        assert props["dataset"]["properties"]["kind"]["enum"] == list(
            DATASET_KINDS)
        train = props["train"]["properties"]
        assert train["proxy"]["enum"] == list(PROXY_KINDS)
        assert train["loss"]["enum"] == ["xe", *LOSS_KINDS]
        assert props["transfer"]["properties"]["proxy"]["enum"] == list(
            PROXY_KINDS)
        arch = props["architecture"]["properties"]
        for key in ("hidden_nonlinearity", "link_nonlinearity"):
            assert arch[key]["enum"] == list(NONLINEARITIES), key

    def test_thresholds_are_the_known_ones(self):
        from modkernel.config import _THRESHOLD_FIELDS
        thresholds = self.SCHEMA["properties"]["thresholds"]
        assert thresholds["additionalProperties"] is False
        assert thresholds["properties"].keys() == _THRESHOLD_FIELDS.keys()
        for name, schema in thresholds["properties"].items():
            assert schema["type"] == "number", name


class TestSchemaValidation:
    def test_report_schema_file_matches_embedded(self):
        committed = read_json(Path(__file__).parent.parent
                              / "configs" / "report-schema.json")
        assert committed == REPORT_SCHEMA

    def test_validate_schema_rejects_bad_types(self):
        with pytest.raises(ConfigurationError, match="passed"):
            validate_schema({"experiment": "lemma-suite", "passed": "yes",
                             "metrics": {}, "artifacts": [],
                             "thresholds": {}}, REPORT_SCHEMA)

    def test_validate_schema_rejects_unknown_keys(self):
        with pytest.raises(ConfigurationError, match="extra"):
            validate_schema({"experiment": "lemma-suite", "passed": True,
                             "metrics": {}, "artifacts": [], "thresholds": {},
                             "extra": 1}, REPORT_SCHEMA)


class TestRunExperiment:
    def test_lemma_suite_passes_and_validates(self, tmp_path):
        cfg = load_config(write_config(tmp_path, dict(
            MINIMAL_LEMMA, output_dir=str(tmp_path / "out"))))
        assert run_experiment(cfg) == 0
        report = read_json(tmp_path / "out" / "report.json")
        validate_schema(report, REPORT_SCHEMA)
        assert report["passed"] is True
        assert (tmp_path / "out" / "lemma_report.json").exists()
        assert (tmp_path / "out" / "metadata.json").exists()

    def test_theorem_oracle_single_instance(self, tmp_path):
        doc = {"experiment": "theorem-oracle", "output_dir": str(tmp_path / "out"),
               "theorem": {"instances": ["two-point-hinge-1d"]}}
        cfg = load_config(write_config(tmp_path, doc))
        assert run_experiment(cfg) == 0
        rep = read_json(tmp_path / "out" / "theorem_report.json")
        assert rep["instances"][0]["passed"] is True

    def test_unknown_theorem_instance_rejected(self, tmp_path):
        doc = {"experiment": "theorem-oracle",
               "theorem": {"instances": ["martingale"]},
               "output_dir": str(tmp_path / "out")}
        cfg = load_config(write_config(tmp_path, doc))
        with pytest.raises(ConfigurationError, match="martingale"):
            run_experiment(cfg)

    def test_output_root_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MODKERNEL_OUTPUT_ROOT", str(tmp_path / "root"))
        doc = dict(MINIMAL_LEMMA, output_dir="nested/lemma")
        cfg = load_config(write_config(tmp_path, doc))
        assert run_experiment(cfg) == 0
        assert (tmp_path / "root" / "nested" / "lemma" / "report.json").exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        doc = {
            "experiment": "sanity-dynamics",
            "output_dir": str(tmp_path / "out"),
            "dataset": {"kind": "gaussian-blobs", "n": 48, "d": 4,
                        "num_classes": 2, "seed": 3, "split_fraction": 0.75},
            "architecture": {"hidden_widths": [8], "latent_dim": 2},
            "train": {"batch_size": 16, "lr_schedule": [[0.05, 3]], "seed": 1,
                      "proxy": "nmse-neo"},
        }
        cfg = load_config(write_config(tmp_path, doc))
        run_experiment(cfg)
        first = {p.name: p.read_bytes()
                 for p in (tmp_path / "out").iterdir()
                 if p.suffix in (".json", ".csv") and p.name != "metadata.json"}
        run_experiment(cfg)
        second = {p.name: p.read_bytes()
                  for p in (tmp_path / "out").iterdir()
                  if p.suffix in (".json", ".csv") and p.name != "metadata.json"}
        assert first == second


    def test_proxy_sweep_metadata_times_both_stages(self, tmp_path):
        doc = {
            "experiment": "proxy-sweep",
            "output_dir": str(tmp_path / "out"),
            "dataset": {"kind": "gaussian-blobs", "n": 48, "d": 4,
                        "num_classes": 2, "seed": 3, "split_fraction": 0.75},
            "architecture": {"hidden_widths": [8], "latent_dim": 2},
            "train": {"batch_size": 16, "lr_schedule": [[0.05, 3]], "seed": 1,
                      "proxy": "nmse-neo"},
            "sweep": {"checkpoint_epochs": [0, 3]},
        }
        run_experiment(load_config(write_config(tmp_path, doc)))
        meta = read_json(tmp_path / "out" / "metadata.json")
        assert meta["stage1_seconds"] > 0 and meta["stage2_seconds"] > 0
        assert (meta["stage1_seconds"] + meta["stage2_seconds"]
                <= meta["duration_seconds"])
        assert "seconds" not in (tmp_path / "out" / "report.json").read_text()

    def test_transferability_metadata_times_the_candidates_stage_one(
            self, tmp_path):
        """The candidates' stage-1 seconds and module steps, one step per
        batch of each candidate in each epoch, sit beside the scoring and
        oracle seconds; the report names no time."""
        doc = dict(SMALL_CONFIGS["transferability"],
                   output_dir=str(tmp_path / "out"))
        cfg = load_config(write_config(tmp_path, doc))
        base = make_dataset(cfg.dataset_spec())
        train = cfg.train_config("transfer.candidate_train")
        rows = [binary_subtask(base, pair).X_train.shape[0]
                for pair in doc["transfer"]["source_tasks"]]
        run_experiment(cfg)
        meta = read_json(tmp_path / "out" / "metadata.json")
        assert meta["stage1_steps"] == train.total_epochs * sum(
            -(-n // train.batch_size) for n in rows)
        assert meta["stage1_seconds"] > 0
        assert (meta["stage1_seconds"] + meta["scoring_seconds"]
                + meta["oracle_seconds"] <= meta["duration_seconds"])
        assert "seconds" not in (tmp_path / "out" / "report.json").read_text()


class TestModularVsE2eSchedules:
    """Stage 1 of modular-vs-e2e trains on 'modular.input_train' when it is
    set; stage 2 and the end-to-end baseline always train on 'train'."""

    DOC = {
        "experiment": "modular-vs-e2e",
        "dataset": {"kind": "gaussian-blobs", "n": 64, "d": 4,
                    "num_classes": 2, "seed": 3, "split_fraction": 1.0},
        "architecture": {"hidden_widths": [8], "latent_dim": 2},
        "train": {"batch_size": 16, "lr_schedule": [[0.05, 4]], "seed": 1,
                  "proxy": "nmse-neo"},
    }

    @staticmethod
    def _run(tmp_path, doc):
        cfg = load_config(write_config(tmp_path, dict(
            doc, output_dir=str(tmp_path / "out"))))
        run_experiment(cfg)
        traces = {}
        for name in ("trace_modular_input", "trace_modular_output",
                     "trace_e2e"):
            with open(tmp_path / "out" / f"{name}.csv", newline="") as fh:
                traces[name] = list(csv.DictReader(fh))
        return traces, read_json(tmp_path / "out" / "report.json")

    @staticmethod
    def _lr(rows):
        return [float(row["lr"]) for row in rows]

    def test_without_override_every_stage_uses_train(self, tmp_path):
        traces, report = self._run(tmp_path, self.DOC)
        assert self._lr(traces["trace_modular_input"]) == [0.05] * 4
        assert self._lr(traces["trace_e2e"]) == [0.05] * 4
        assert set(self._lr(traces["trace_modular_output"])) == {0.05}
        assert report["metrics"]["final_proxy"] == float(
            traces["trace_modular_input"][-1]["objective"])

    def test_override_changes_stage_one_only(self, tmp_path):
        doc = dict(self.DOC, modular={"input_train": {
            "lr_schedule": [[0.02, 2], [0.01, 1]]}})
        traces, _ = self._run(tmp_path, doc)
        assert self._lr(traces["trace_modular_input"]) == [0.02, 0.02, 0.01]
        assert self._lr(traces["trace_e2e"]) == [0.05] * 4
        assert set(self._lr(traces["trace_modular_output"])) == {0.05}


class TestBinaryLosses:
    """A binary decomposable loss trains a one-column output module, so
    every training experiment runs on a two-class task under it."""

    BASE = {
        "dataset": {"kind": "gaussian-blobs", "n": 48, "d": 4,
                    "num_classes": 2, "seed": 3, "split_fraction": 0.75},
        "architecture": {"hidden_widths": [8], "latent_dim": 2},
        "train": {"batch_size": 16, "lr_schedule": [[0.05, 3]], "seed": 1,
                  "proxy": "nmse-neo"},
    }
    EXTRA = {
        "sanity-dynamics": {},
        "modular-vs-e2e": {},
        "proxy-sweep": {"sweep": {"checkpoint_epochs": [0, 1, 3]}},
        "label-efficiency": {"label_efficiency": {"budgets": [4, 10],
                                                  "balanced": True}},
    }

    @pytest.mark.parametrize("loss", ["xe2", "tanh-mse", "hinge"])
    @pytest.mark.parametrize("experiment", list(EXTRA))
    def test_two_class_run_writes_a_valid_report(self, tmp_path, experiment,
                                                 loss):
        doc = dict(self.BASE, experiment=experiment,
                   output_dir=str(tmp_path / "out"), **self.EXTRA[experiment])
        doc["train"] = dict(doc["train"], loss=loss)
        assert main(["run", str(write_config(tmp_path, doc))]) == 0
        report = read_json(tmp_path / "out" / "report.json")
        validate_schema(report, REPORT_SCHEMA)
        assert report["experiment"] == experiment and report["passed"]

    def test_binary_loss_on_four_classes_exits_2(self, tmp_path, capsys):
        doc = dict(self.BASE, experiment="sanity-dynamics",
                   output_dir=str(tmp_path / "out"))
        doc["dataset"] = dict(doc["dataset"], num_classes=4)
        doc["train"] = dict(doc["train"], loss="hinge")
        assert main(["run", str(write_config(tmp_path, doc))]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert "'hinge'" in err and "4" in err

    @pytest.mark.parametrize("experiment", list(EXTRA))
    def test_binary_loss_on_four_classes_stops_before_stage_1(
            self, tmp_path, capsys, experiment):
        """The output width is checked before stage 1, so a failing run
        leaves no stage-1 trace or checkpoint behind."""
        out = tmp_path / "out"
        doc = dict(self.BASE, experiment=experiment, output_dir=str(out),
                   **self.EXTRA[experiment])
        doc["dataset"] = dict(doc["dataset"], num_classes=4)
        doc["train"] = dict(doc["train"], loss="hinge")
        assert main(["run", str(write_config(tmp_path, doc))]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'hinge'" in err
        assert list(out.iterdir()) == []


class TestLabelsOutsideTheClasses:
    """A label below 0 or at or above the class count stops a training run
    with exit 2 before it writes anything."""

    @pytest.mark.parametrize("labels,message", [
        ((0, -1), "line 2 (byte offset 10) has a negative label -1"),
        ((0, 5), "the dataset has label 5, but the architecture has 2 classes")])
    @pytest.mark.parametrize("experiment", list(TestBinaryLosses.EXTRA))
    def test_exits_2_with_nothing_written(self, tmp_path, capsys, experiment,
                                          labels, message):
        csv_path = tmp_path / "data.csv"
        csv_path.write_text("".join(f"{i}.0,1.0,{labels[i % 2]}\n"
                                    for i in range(8)))
        out = tmp_path / "out"
        doc = dict(experiment=experiment, output_dir=str(out),
                   dataset={"kind": "csv-file", "path": str(csv_path)},
                   architecture={"input_dim": 2, "hidden_widths": [4],
                                 "latent_dim": 2},
                   train={"batch_size": 4, "lr_schedule": [[0.05, 3]]},
                   **TestBinaryLosses.EXTRA[experiment])
        assert main(["run", str(write_config(tmp_path, doc))]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert list(out.iterdir()) == []


class TestCli:
    def test_dump_config(self, tmp_path, capsys):
        path = write_config(tmp_path, MINIMAL_LEMMA)
        assert main(["dump-config", str(path)]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["experiment"] == "lemma-suite"

    def test_run_verb(self, tmp_path):
        path = write_config(tmp_path, dict(MINIMAL_LEMMA,
                                           output_dir=str(tmp_path / "o")))
        assert main(["run", str(path)]) == 0

    def test_config_error_exits_2(self, tmp_path):
        path = write_config(tmp_path, {"experiment": "lemma-suite",
                                       "bogus_key": 1})
        assert main(["run", str(path)]) == 2

    def test_broken_proxy_name_exits_2(self, tmp_path):
        doc = {
            "experiment": "sanity-dynamics",
            "output_dir": str(tmp_path / "o"),
            "dataset": {"kind": "gaussian-blobs", "n": 32, "d": 4},
            "train": {"proxy": "mmd-neo"},
        }
        path = write_config(tmp_path, doc)
        assert main(["run", str(path)]) == 2

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["run", str(tmp_path / "absent.json")]) == 2

    def test_verify_lemma(self, tmp_path, capsys):
        out_path = tmp_path / "lemma.json"
        assert main(["verify-lemma", "--instances", "100",
                     "--output", str(out_path)]) == 0
        assert "0 failures" in capsys.readouterr().out
        assert read_json(out_path)["failures"] == 0

    @pytest.mark.parametrize("flags", [["--instances", "-3"],
                                       ["--instances", "0"],
                                       ["--seed", "-1"],
                                       ["--tolerance", "-1.0"]])
    def test_verify_lemma_bad_flag_exits_2(self, flags, capsys):
        assert main(["verify-lemma", *flags]) == 2
        assert "error: lemma" in capsys.readouterr().err

    def test_run_bad_lemma_section_exits_2(self, tmp_path):
        path = write_config(tmp_path, {"experiment": "lemma-suite",
                                       "output_dir": str(tmp_path / "o"),
                                       "lemma": {"instances": -5}})
        assert main(["run", str(path)]) == 2
        assert not (tmp_path / "o").exists()

    def test_verify_lemma_and_run_write_identical_reports(self, tmp_path):
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        lemma = [sys.executable, "-m", "modkernel.cli", "verify-lemma",
                 "--output", str(tmp_path / "a.json")]
        run = [sys.executable, "-m", "modkernel.cli", "run",
               str(CONFIG_DIR / "lemma-suite.json"),
               "--output-root", str(tmp_path / "root")]
        for cmd in (lemma, run):
            result = subprocess.run(cmd, cwd=tmp_path, env=env,
                                    capture_output=True, text=True,
                                    timeout=300)
            assert result.returncode == 0, result.stderr
        report = tmp_path / "root" / "out" / "lemma-suite" / "lemma_report.json"
        assert (tmp_path / "a.json").read_bytes() == report.read_bytes()

    def test_verify_lemma_defaults_match_empty_lemma_section(
            self, tmp_path, monkeypatch):
        from modkernel import geometry
        signature = inspect.signature(geometry.run_lemma_suite)
        calls = []

        def record(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            calls.append(dict(bound.arguments, dims=tuple(bound.arguments["dims"])))
            return geometry.LemmaSuiteReport(instances=0, failures=0,
                                             worst_residuals={}, branches={})

        monkeypatch.setattr(geometry, "run_lemma_suite", record)
        assert main(["verify-lemma"]) == 0
        path = write_config(tmp_path, {"experiment": "lemma-suite",
                                       "output_dir": str(tmp_path / "o"),
                                       "lemma": {}})
        assert main(["run", str(path)]) == 0
        cli_call, run_call = calls
        assert cli_call == run_call

    def test_verify_theorem(self, capsys):
        assert main(["verify-theorem", "--instance",
                     "one-code-degenerate"]) == 0
        assert "pass" in capsys.readouterr().out

    @staticmethod
    def _score_transfer_inputs(tmp_path) -> list:
        """A config and two candidate files, as score-transfer arguments."""
        from modkernel.training import ArchitectureSpec, TwoModuleModel
        from modkernel.transfer import CandidateModule
        arch = ArchitectureSpec(input_dim=4, hidden_widths=(8,), latent_dim=2,
                                num_classes=2)
        for i in range(2):
            CandidateModule(id=f"c{i}", model=TwoModuleModel(arch, seed=i),
                            source_task="t").save(tmp_path / f"c{i}.json")
        doc = {"experiment": "transferability",
               "dataset": {"kind": "gaussian-blobs", "n": 80, "d": 4,
                           "num_classes": 2, "seed": 0},
               "transfer": {"source_tasks": [[0, 1]], "target_task": [0, 1]}}
        cfg_path = write_config(tmp_path, doc)
        return [str(cfg_path), str(tmp_path / "c0.json"),
                str(tmp_path / "c1.json")]

    def test_score_transfer(self, tmp_path, capsys):
        out_path = tmp_path / "ranking.json"
        code = main(["score-transfer", *self._score_transfer_inputs(tmp_path),
                     "--subsample-fraction", "1.0",
                     "--output", str(out_path)])
        assert code == 0
        ranking = read_json(out_path)
        assert {e["rank"] for e in ranking["entries"]} == {1, 2}
        assert "rank 1" in capsys.readouterr().out

    def test_score_transfer_defaults_match_transfer_section(self):
        from modkernel.cli import _build_parser
        from modkernel.config import resolve_config
        from modkernel.transfer import score_candidate
        section = resolve_config({
            "experiment": "transferability",
            "transfer": {"source_tasks": [[0, 1]], "target_task": [0, 1]},
        }).section("transfer")
        signature = inspect.signature(score_candidate).parameters
        flags = _build_parser().parse_args(["score-transfer", "c.json", "m.json"])
        for key in ("proxy", "subsample_fraction", "seed"):
            assert signature[key].default == section[key], key
            assert getattr(flags, key) == section[key], key

    def test_score_transfer_non_finite_candidate_exits_2(self, tmp_path,
                                                          capsys):
        config, candidate, _ = self._score_transfer_inputs(tmp_path)
        doc = read_json(candidate)
        doc["tensors"][0]["values"][0] = float("nan")
        Path(candidate).write_text(json.dumps(doc))
        out_path = tmp_path / "ranking.json"
        code = main(["score-transfer", config, candidate,
                     "--output", str(out_path)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "'input.0.weight'" in captured.err
        assert "Traceback" not in captured.err and "rank" not in captured.out
        assert not out_path.exists()

    def test_score_transfer_unknown_architecture_field_exits_2(self, tmp_path,
                                                               capsys):
        config, candidate, _ = self._score_transfer_inputs(tmp_path)
        doc = read_json(candidate)
        doc["architecture"]["depth"] = 3
        Path(candidate).write_text(json.dumps(doc))
        out_path = tmp_path / "ranking.json"
        code = main(["score-transfer", config, candidate,
                     "--output", str(out_path)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "depth" in captured.err
        assert "Traceback" not in captured.err and "rank" not in captured.out
        assert not out_path.exists()

    def test_score_transfer_bad_header_value_exits_2(self, tmp_path, capsys):
        config, candidate, _ = self._score_transfer_inputs(tmp_path)
        doc = read_json(candidate)
        doc["output_dim"] = "x"
        Path(candidate).write_text(json.dumps(doc))
        out_path = tmp_path / "ranking.json"
        code = main(["score-transfer", config, candidate,
                     "--output", str(out_path)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "output_dim" in captured.err
        assert "Traceback" not in captured.err and "rank" not in captured.out
        assert not out_path.exists()

    @pytest.mark.parametrize("values", [["a"], None, [[0.5], [0.5]]],
                             ids=["string", "null", "nested"])
    def test_score_transfer_non_numeric_values_exit_2(self, tmp_path, capsys,
                                                      values):
        config, candidate, _ = self._score_transfer_inputs(tmp_path)
        doc = read_json(candidate)
        doc["tensors"][0]["values"] = values
        Path(candidate).write_text(json.dumps(doc))
        out_path = tmp_path / "ranking.json"
        code = main(["score-transfer", config, candidate,
                     "--output", str(out_path)])
        assert code == 2
        captured = capsys.readouterr()
        name = doc["tensors"][0]["name"]
        assert captured.err.startswith("error: ") and repr(name) in captured.err
        assert "Traceback" not in captured.err and "rank" not in captured.out
        assert not out_path.exists()

    @pytest.mark.parametrize("text, named", [
        ('{"format": "modkernel-module-v1", "tens', "line 1, column 35"),
        ("[1, 2]", "expected object")], ids=["truncated", "list-root"])
    def test_score_transfer_malformed_candidate_file_exits_2(
            self, tmp_path, capsys, text, named):
        config, candidate, _ = self._score_transfer_inputs(tmp_path)
        Path(candidate).write_text(text)
        out_path = tmp_path / "ranking.json"
        code = main(["score-transfer", config, candidate,
                     "--output", str(out_path)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and named in captured.err
        assert "Traceback" not in captured.err and "rank" not in captured.out
        assert not out_path.exists()

    @staticmethod
    def _unreadable(path, kind) -> str:
        """Make ``path`` a file that is not UTF-8 text, or a directory;
        returns what the error line names."""
        if kind == "not-utf8":
            path.write_bytes(b"\xff\xfe{}")
            return "not UTF-8 text (byte 0 is 0xff)"
        path.unlink(missing_ok=True)
        path.mkdir()
        return "is a directory"

    @pytest.mark.parametrize("kind", ["not-utf8", "directory"])
    def test_unreadable_config_file_exits_2(self, tmp_path, capsys, kind):
        path = tmp_path / "config.json"
        named = self._unreadable(path, kind)
        assert main(["dump-config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and named in captured.err
        assert "Traceback" not in captured.err and captured.out == ""

    @pytest.mark.parametrize("kind", ["not-utf8", "directory"])
    def test_score_transfer_unreadable_candidate_file_exits_2(
            self, tmp_path, capsys, kind):
        config, candidate, _ = self._score_transfer_inputs(tmp_path)
        named = self._unreadable(Path(candidate), kind)
        out_path = tmp_path / "ranking.json"
        code = main(["score-transfer", config, candidate,
                     "--output", str(out_path)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and named in captured.err
        assert "Traceback" not in captured.err and "rank" not in captured.out
        assert not out_path.exists()

    def test_verify_theorem_unknown_instance_exits_2(self, capsys):
        assert main(["verify-theorem", "--instance", "martingale"]) == 2
        assert "martingale" in capsys.readouterr().err

    def test_score_transfer_negative_seed_exits_2(self, tmp_path, capsys):
        out_path = tmp_path / "ranking.json"
        code = main(["score-transfer", *self._score_transfer_inputs(tmp_path),
                     "--seed", "-1", "--output", str(out_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "seed" in err
        assert "Traceback" not in err
        assert not out_path.exists()


NAN, INF = float("nan"), float("inf")

# A config that sets every key of every section to a valid value; each
# hostile value below replaces one of them.
EVERY_KEY = {
    "output_dir": "out",
    "dataset": {"kind": "gaussian-blobs", "n": 40, "d": 4, "num_classes": 4,
                "seed": 0, "split_fraction": 0.5, "separation": 8.0,
                "noise": 1.0, "path": None, "labels_path": None},
    "architecture": {"input_dim": 4, "hidden_widths": [4], "latent_dim": 2,
                     "num_classes": 4, "hidden_nonlinearity": "relu",
                     "link_nonlinearity": "tanh", "link_epsilon": 1e-12},
    "train": {"batch_size": 8, "lr_schedule": [[0.05, 2]], "momentum": 0.9,
              "seed": 0, "proxy": "nmse", "loss": "xe", "trace_every": 1,
              "plateau_tol": 1e-6, "plateau_patience": 5,
              "resample_limit": 100},
    "sweep": {"checkpoint_epochs": [0, 2], "output_train": {"seed": 1}},
    "modular": {"input_train": {"seed": 1}},
    "label_efficiency": {"budgets": [4], "balanced": True, "seed": 0},
    "transfer": {"source_tasks": [[0, 1]], "target_task": [2, 3],
                 "proxy": "al", "subsample_fraction": 0.5, "seed": 0,
                 "include_random_candidate": True, "candidate_train": None,
                 "oracle_train": None},
    "lemma": {"instances": 10, "dims": [2], "seed": 0, "tolerance": 1e-9},
    "theorem": {"instances": ["one-code-degenerate"]},
    "thresholds": {"min_train_accuracy": 0.0, "max_accuracy_gap": 1.0,
                   "min_spearman": -1.0, "min_label_efficiency_ratio": 0.0,
                   "max_cost_ratio": 100.0, "max_failures": 0,
                   "min_test_accuracy": 0.0, "max_counterexamples": 0},
}

# Values outside each key's range, written out by hand so that the
# property checks the range table instead of restating it.
_BAD_COUNT = [-1, 2.5, True, "3", None]
_BAD_SEED = [-1, 0.5, True, "0", None]
_BAD_REAL = [NAN, INF, -INF, True, "1.0", None]
_BAD_OVERRIDE = [5, "x", [], True, {"bogus": 1}, {"momentum": 1.0},
                 {"lr_schedule": []}, {"lr_schedule": [[0.1, 0]]},
                 {"batch_size": 1}]
HOSTILE = {
    "experiment": ["grid-search", 1, None, ["lemma-suite"]],
    "output_dir": [5, None, ["out"], True],
    "dataset.kind": ["moons", 1, None],
    "dataset.n": [0, *_BAD_COUNT],
    "dataset.d": [0, 1, *_BAD_COUNT],
    "dataset.num_classes": [1, 0, 9, 2.0, True, None],
    "dataset.seed": _BAD_SEED,
    "dataset.split_fraction": [0, 0.0, -0.5, 1.5, *_BAD_REAL],
    "dataset.separation": [-1.0, *_BAD_REAL],
    "dataset.noise": [-1.0, -INF, *_BAD_REAL],
    "dataset.path": [5, True, ["a"]],
    "dataset.labels_path": [5, False, {}],
    "architecture.input_dim": [0, -1, 2.5, True, "4"],
    "architecture.hidden_widths": [[0], [8.7], [-1], [True], [None], "8", 8],
    "architecture.latent_dim": [0, *_BAD_COUNT],
    "architecture.num_classes": [1, 0, 2.5, True],
    "architecture.hidden_nonlinearity": ["foo", 1, None],
    "architecture.link_nonlinearity": ["swish", [], None],
    "architecture.link_epsilon": [0, 0.0, -1e-3, *_BAD_REAL],
    "train.batch_size": [1, 0, *_BAD_COUNT],
    "train.lr_schedule": [[], [[0.1]], [[0.1, 2, 3]], [[0, 2]], [[-0.1, 2]],
                          [[NAN, 2]], [[INF, 2]], [[0.1, 2.5]], [[0.1, -1]],
                          [[0.1, True]], [["0.1", 2]], [0.1, 2], "fast",
                          None, [[0.1, 0]], [[0.1, 0], [0.01, 0]]],
    "train.momentum": [1.0, -0.1, *_BAD_REAL],
    "train.seed": _BAD_SEED,
    "train.proxy": ["mmd", 3, None],
    "train.loss": ["mse", 0, None],
    "train.trace_every": [0, *_BAD_COUNT],
    "train.plateau_tol": [-1e-6, *_BAD_REAL],
    "train.plateau_patience": [0, *_BAD_COUNT],
    "train.resample_limit": _BAD_COUNT,
    "sweep.checkpoint_epochs": [[], [-1], [2.5], [3], [True], [None], "0", 2,
                                None],
    "sweep.output_train": _BAD_OVERRIDE,
    "modular.input_train": _BAD_OVERRIDE,
    "label_efficiency.budgets": [[], [0], [-3], [1.5], [True], ["4"], 4, None],
    "label_efficiency.balanced": [1, "yes", None],
    "label_efficiency.seed": _BAD_SEED,
    "transfer.source_tasks": [[], [[0]], [[0, 0]], [[0, 4]], [[0, 1.0]],
                              [[-1, 1]], [[0, 1], [1, 1]], [0, 1], "x",
                              None],
    "transfer.target_task": [[], [0], [0, 0], [0.0, 1.0], [0, 4], [-1, 0],
                             [0, 1, 2], [True, False], "0-1", None],
    "transfer.proxy": ["bogus", 1, None],
    "transfer.subsample_fraction": [0, 0.0, -0.1, 1.5, *_BAD_REAL],
    "transfer.seed": _BAD_SEED,
    "transfer.include_random_candidate": [0, "no", None],
    "transfer.candidate_train": _BAD_OVERRIDE,
    "transfer.oracle_train": _BAD_OVERRIDE,
    "lemma.instances": [0, *_BAD_COUNT],
    "lemma.dims": [[], [0], [2.5], ["a"], [True], 3, None],
    "lemma.seed": _BAD_SEED,
    "lemma.tolerance": [-1.0, *_BAD_REAL],
    "theorem.instances": [[], "one-code-degenerate", [1], 5],
    "thresholds.min_train_accuracy": [1.5, -0.1, *_BAD_REAL],
    "thresholds.max_accuracy_gap": [-0.1, 2, *_BAD_REAL],
    "thresholds.min_spearman": [1.5, -2, *_BAD_REAL],
    "thresholds.min_label_efficiency_ratio": [-1, *_BAD_REAL],
    "thresholds.max_cost_ratio": [-1, *_BAD_REAL],
    "thresholds.max_failures": [-1, *_BAD_REAL],
    "thresholds.min_test_accuracy": [1.01, -1, *_BAD_REAL],
    "thresholds.max_counterexamples": [-1, *_BAD_REAL],
}


def _with_value(doc: dict, path: str, value) -> dict:
    doc = json.loads(json.dumps(doc))
    *sections, key = path.split(".")
    target = doc
    for section in sections:
        target = target[section]
    target[key] = value
    return doc


class TestHostileConfigs:
    """Every value outside its key's range stops ``modkernel run`` at load,
    with exit 2 and one ``error:`` line naming the key, before anything is
    written."""

    @pytest.mark.parametrize("experiment", EXPERIMENT_KINDS)
    def test_every_key_config_loads(self, tmp_path, experiment):
        load_config(write_config(tmp_path, dict(EVERY_KEY,
                                                experiment=experiment)))

    def test_property_covers_every_key_of_the_table(self):
        from modkernel.config import config_schema
        paths = set()
        for name, schema in config_schema()["properties"].items():
            paths |= ({f"{name}.{key}" for key in schema["properties"]}
                      if "properties" in schema else {name})
        assert set(HOSTILE) == paths
        given = {"experiment"}
        for name, value in EVERY_KEY.items():
            given |= ({f"{name}.{key}" for key in value}
                      if isinstance(value, dict) else {name})
        assert given == paths

    @pytest.mark.parametrize("path", sorted(HOSTILE))
    @settings(max_examples=4, deadline=None, derandomize=True)
    @given(experiment=st.sampled_from(EXPERIMENT_KINDS))
    def test_hostile_value_exits_2_before_writing(self, path, experiment):
        section, key = path.split(".")[0], path.split(".")[-1]
        for value in HOSTILE[path]:
            doc = _with_value(dict(EVERY_KEY, experiment=experiment), path,
                              value)
            with tempfile.TemporaryDirectory() as tmp:
                root = Path(tmp) / "root"
                err = io.StringIO()
                with contextlib.redirect_stderr(err):
                    code = main(["run", str(write_config(Path(tmp), doc)),
                                 "--output-root", str(root)])
                assert code == 2, (path, value)
                err = err.getvalue()
                assert err.startswith("error: ") and err.count("\n") == 1
                assert section in err and key in err, (path, value, err)
                assert not root.exists(), (path, value)

    @pytest.mark.parametrize("config, path, value", [
        ("label-efficiency", "dataset.noise", NAN),
        ("label-efficiency", "dataset.noise", -1.0),
        ("label-efficiency", "dataset.separation", INF),
        ("sanity-dynamics", "architecture.hidden_widths", [8.7]),
        ("label-efficiency", "label_efficiency.budgets", [1.5]),
        ("label-efficiency", "label_efficiency.budgets", []),
        ("proxy-sweep", "sweep.checkpoint_epochs", [2.5]),
        ("proxy-sweep", "sweep.checkpoint_epochs", [-1]),
        ("proxy-sweep", "sweep.checkpoint_epochs", [21]),
        ("proxy-sweep", "sweep.checkpoint_epochs", []),
        ("transferability", "transfer.target_task", [0.0, 1.0]),
        ("transferability", "transfer.target_task", [0]),
        ("transferability", "transfer.target_task", [0, 99]),
        ("transferability", "transfer.source_tasks", [[0, 99]]),
        ("transferability", "transfer.source_tasks", []),
        ("transferability", "transfer.proxy", "bogus"),
        ("theorem-oracle", "theorem.instances", []),
        ("sanity-dynamics", "dataset.n", 0),
        ("sanity-dynamics", "dataset.num_classes", 1),
        ("sanity-dynamics", "dataset.num_classes", 17),
        ("label-efficiency", "label_efficiency.budgets", [4, 301]),
        ("label-efficiency", "label_efficiency.budgets", [3, 8]),
        ("modular-vs-e2e", "train.lr_schedule", [[0.01, 0]]),
        ("proxy-sweep", "sweep.output_train", {"lr_schedule": [[0.01, 0]]}),
        ("transferability", "transfer.oracle_train",
         {"lr_schedule": [[0.01, 0]]}),
        ("transferability", "transfer.candidate_train",
         {"lr_schedule": [[0.01, 0]]}),
        ("modular-vs-e2e", "modular.input_train",
         {"lr_schedule": [[0.01, 0]]}),
    ])
    def test_committed_config_with_one_bad_value_exits_2_at_load(
            self, tmp_path, capsys, config, path, value):
        doc = _with_value(read_json(CONFIG_DIR / f"{config}.json"), path,
                          value)
        root = tmp_path / "root"
        assert main(["run", str(write_config(tmp_path, doc)),
                     "--output-root", str(root)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and path in err
        assert "Traceback" not in err and not root.exists()

    def test_diverging_schedule_stops_with_an_error_line(self, tmp_path,
                                                         capsys):
        doc = _with_value(read_json(CONFIG_DIR / "sanity-dynamics.json"),
                          "train.lr_schedule", [[1e300, 3]])
        code = main(["run", str(write_config(tmp_path, doc)),
                     "--output-root", str(tmp_path / "root")])
        err = capsys.readouterr().err
        assert code == 1 and "error: training diverged" in err
        assert "Traceback" not in err


class TestLabelBudgetsAtLoad:
    """A generated dataset's training count is known at load, so a label
    budget above it, or a balanced one below the class count, stops the
    run there."""

    @pytest.mark.parametrize("n, fraction", [(480, 0.625), (5, 0.5),
                                             (7, 0.5), (9, 0.25), (3, 1.0)])
    def test_boundary_is_the_training_split(self, tmp_path, n, fraction):
        from modkernel.datasets import DatasetSpec, make_dataset
        dataset = {"kind": "random-label", "n": n, "d": 2, "seed": 0,
                   "split_fraction": fraction}
        count = make_dataset(DatasetSpec(**dataset)).X_train.shape[0]
        doc = {"experiment": "label-efficiency", "dataset": dataset}
        for budgets, balanced in (([count], True), ([1, count], False)):
            load_config(write_config(tmp_path, dict(doc, label_efficiency={
                "budgets": budgets, "balanced": balanced})))
        with pytest.raises(ConfigurationError,
                           match=r"label_efficiency\.budgets: \[%d\]"
                           % (count + 1)):
            load_config(write_config(tmp_path, dict(doc, label_efficiency={
                "budgets": [1, count + 1], "balanced": False})))

    def test_unbalanced_budget_below_the_class_count_loads(self, tmp_path):
        doc = read_json(CONFIG_DIR / "label-efficiency.json")
        doc["label_efficiency"].update(budgets=[1, 3], balanced=False)
        load_config(write_config(tmp_path, doc))


def _run_in_fresh_root(doc: dict) -> tuple:
    """``modkernel run`` on ``doc`` under a new output root: (exit code,
    stderr, whether the root exists afterwards, the report or None)."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "root"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["run", str(write_config(Path(tmp), doc)),
                         "--output-root", str(root)])
        report = root / doc.get("output_dir", "out") / "report.json"
        return (code, err.getvalue(), root.exists(),
                read_json(report) if report.is_file() else None)


class TestExperimentKinds:
    """Each experiment kind needs some sections and gates some values;
    ``modkernel run`` checks a config against its kind before it writes
    anything, and a gated value the run cannot produce fails its gate."""

    BASE = {key: value for key, value in EVERY_KEY.items()
            if key != "thresholds"}

    @pytest.mark.parametrize("experiment, threshold", [
        ("sanity-dynamics", "min_spearman"),
        ("sanity-dynamics", "max_counterexamples"),
        ("sanity-dynamics", "max_accuracy_gap"),
        ("modular-vs-e2e", "min_test_accuracy"),
        ("modular-vs-e2e", "max_failures"),
        ("proxy-sweep", "min_train_accuracy"),
        ("proxy-sweep", "max_cost_ratio"),
        ("label-efficiency", "min_test_accuracy"),
        ("label-efficiency", "min_spearman"),
        ("transferability", "min_label_efficiency_ratio"),
        ("transferability", "min_train_accuracy"),
        ("lemma-suite", "max_counterexamples"),
        ("lemma-suite", "min_spearman"),
        ("theorem-oracle", "max_failures"),
        ("theorem-oracle", "min_train_accuracy"),
    ])
    def test_threshold_the_kind_does_not_gate_exits_2_before_writing(
            self, experiment, threshold):
        doc = dict(self.BASE, experiment=experiment,
                   thresholds={threshold: 0.0})
        code, err, wrote, _ = _run_in_fresh_root(doc)
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"thresholds.{threshold}" in err and not wrote

    @pytest.mark.parametrize("experiment, section", [
        ("sanity-dynamics", "dataset"),
        ("modular-vs-e2e", "dataset"),
        ("proxy-sweep", "dataset"),
        ("proxy-sweep", "sweep"),
        ("label-efficiency", "dataset"),
        ("label-efficiency", "label_efficiency"),
        ("transferability", "dataset"),
        ("transferability", "transfer"),
    ])
    def test_missing_section_exits_2_before_writing(self, experiment,
                                                    section):
        doc = {key: value for key, value in self.BASE.items()
               if key != section}
        code, err, wrote, _ = _run_in_fresh_root(dict(doc,
                                                     experiment=experiment))
        assert code == 2 and err.startswith("error: ")
        assert f"{experiment} needs a '{section}' section" in err
        assert not wrote

    def test_spearman_gate_over_two_candidates_fails(self):
        doc = {"experiment": "transferability",
               "dataset": {"kind": "gaussian-blobs", "n": 80, "d": 4,
                           "num_classes": 4, "seed": 3},
               "architecture": {"hidden_widths": [4], "latent_dim": 2},
               "train": {"batch_size": 16, "lr_schedule": [[0.05, 2]]},
               "transfer": {"source_tasks": [[0, 1]], "target_task": [2, 3],
                            "subsample_fraction": 1.0},
               "thresholds": {"min_spearman": -1.0}}
        code, err, _, report = _run_in_fresh_root(doc)
        assert code == 1 and err == ""
        assert report["metrics"]["candidates"] == 2.0
        assert report["metrics"]["spearman"] is None
        assert report["passed"] is False

    def test_every_threshold_is_gated_and_every_kind_has_a_runner(self):
        from modkernel.config import _THRESHOLD_FIELDS
        from modkernel.experiments import _KINDS
        assert set(_KINDS) == set(EXPERIMENT_KINDS)
        gated = set()
        for runner, sections, values in _KINDS.values():
            assert callable(runner)
            gated |= set(values)
        assert {name[4:] for name in _THRESHOLD_FIELDS} <= gated
        assert all({f"min_{v}", f"max_{v}"} & _THRESHOLD_FIELDS.keys()
                   for v in gated)


def _strict_json(text: str):
    """``text`` parsed as RFC 8259 JSON, which has no NaN or Infinity."""
    def reject(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(text, parse_constant=reject)


class TestStrictJson:
    """A value a run cannot define is written as null, never as a bare
    NaN or Infinity token."""

    def test_two_checkpoint_sweep_writes_a_null_spearman(self, tmp_path):
        doc = {"experiment": "proxy-sweep",
               "dataset": {"kind": "gaussian-blobs", "n": 48, "d": 4,
                           "num_classes": 2, "seed": 3},
               "architecture": {"hidden_widths": [8], "latent_dim": 2},
               "train": {"batch_size": 16, "lr_schedule": [[0.05, 1]]},
               "sweep": {"checkpoint_epochs": [0, 1]},
               "thresholds": {"min_spearman": 0.0}}
        root = tmp_path / "root"
        with contextlib.redirect_stderr(io.StringIO()):
            code = main(["run", str(write_config(tmp_path, doc)),
                         "--output-root", str(root)])
        assert code == 1
        written = sorted(root.rglob("*.json"))
        assert written
        for path in written:
            _strict_json(path.read_text())
        report = _strict_json((root / "out" / "report.json").read_text())
        assert report["metrics"]["spearman"] is None
        assert report["passed"] is False

    def test_dump_json_writes_non_finite_floats_as_null(self):
        finite = {"b": [1.5, (2, -0.0)], "a": {"c": 1e-300, "d": None}}
        assert dump_json(finite) == json.dumps(finite, sort_keys=True,
                                               indent=2) + "\n"
        mixed = {"b": [NAN, (INF, 2.5)], "a": {"c": -INF, "d": "nan"}}
        assert _strict_json(dump_json(mixed)) == {
            "a": {"c": None, "d": "nan"}, "b": [None, [None, 2.5]]}


def test_config_schema_file_is_generated_from_the_tables():
    from modkernel.config import config_schema
    from modkernel.serialize import dump_json
    assert ((CONFIG_DIR / "config-schema.json").read_text()
            == dump_json(config_schema()))
