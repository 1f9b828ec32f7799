"""Experiment orchestration: run a validated config, emit artifacts.

Every experiment writes, into its output directory: a canonical
``report.json`` (schema-checked), the resolved config, trace/result CSVs,
and parameter checkpoints.  Rerunning with the same config and seed
reproduces those files byte for byte; wall-clock timings and timestamps
live in ``metadata.json``, which is the one file allowed to differ.

Exit status: 0 when every in-config threshold holds, 1 otherwise; a gated
value the run could not produce (None or NaN) fails.  ``_KINDS`` says what
each kind needs and may gate, checked before anything is written.
"""

from __future__ import annotations

import datetime
import os
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import geometry
from .config import EXPERIMENT_KINDS, ExperimentConfig, dump_config, validate_schema
from .datasets import Dataset, make_dataset
from .errors import ConfigurationError
from .serialize import write_csv, write_json
from .training import (TwoModuleModel, freeze_and_train_output,
                       label_efficiency_run, proxy_accuracy_sweep,
                       train_end_to_end, train_input_module)
from .transfer import (CandidateModule, attach_oracle, rank_candidates,
                       rank_correlation, retrain_oracle, score_candidate)

OUTPUT_ROOT_ENV = "MODKERNEL_OUTPUT_ROOT"

REPORT_SCHEMA = {
    "type": "object",
    "required": ["experiment", "passed", "metrics", "artifacts", "thresholds"],
    "additionalProperties": False,
    "properties": {
        "experiment": {"type": "string", "enum": list(EXPERIMENT_KINDS)},
        "passed": {"type": "boolean"},
        "metrics": {
            "type": "object",
            "additionalProperties": {"type": ["number", "boolean", "null"]},
        },
        "artifacts": {"type": "array", "items": {"type": "string"}},
        "thresholds": {
            "type": "object",
            "additionalProperties": {"type": "number"},
        },
    },
}


def resolve_output_dir(cfg: ExperimentConfig,
                       output_root: str | None = None) -> Path:
    root = output_root or os.environ.get(OUTPUT_ROOT_ENV)
    out = Path(cfg.output_dir)
    if root and not out.is_absolute():
        out = Path(root) / out
    out.mkdir(parents=True, exist_ok=True)
    return out


def run_experiment(cfg: ExperimentConfig,
                   output_root: str | None = None) -> int:
    runner, sections, gated = _KINDS[cfg.experiment]
    for section in sections:
        if cfg.section(section) is None:
            raise ConfigurationError(
                f"{cfg.experiment} needs a '{section}' section")
    for name in cfg.thresholds:
        if name[4:] not in gated:
            raise ConfigurationError(f"thresholds.{name}: {cfg.experiment} "
                                     f"gates only {', '.join(gated)}")
    outdir = resolve_output_dir(cfg, output_root)
    started = datetime.datetime.now(datetime.timezone.utc).isoformat()
    t0 = time.perf_counter()
    metrics, artifacts, passed, timing = runner(cfg, outdir)
    elapsed = time.perf_counter() - t0
    passed = passed and _gates_hold(cfg.thresholds, metrics)
    timing_ok = _gates_hold(cfg.thresholds, timing)

    (outdir / "resolved-config.json").write_text(dump_config(cfg))
    report = {
        "experiment": cfg.experiment,
        "passed": bool(passed),
        "metrics": metrics,
        "artifacts": sorted(artifacts + ["resolved-config.json"]),
        "thresholds": cfg.thresholds,
    }
    validate_schema(report, REPORT_SCHEMA)
    write_json(outdir / "report.json", report)
    write_json(outdir / "metadata.json", {
        "started_at": started, "duration_seconds": elapsed,
        "timing_ok": timing_ok, **timing})
    return 0 if (passed and timing_ok) else 1


def _gates_hold(thresholds: dict, values: dict) -> bool:
    """Whether each threshold on a key of ``values`` holds: ``min_<key>``
    is a floor and ``max_<key>`` a ceiling.  A value that is None or NaN
    fails its gate."""
    def holds(name, bound):
        value = values[name[4:]]
        return value is not None and (value <= bound if name[:4] == "max_"
                                      else value >= bound)
    return all(holds(name, bound) for name, bound in thresholds.items()
               if name[4:] in values)


def _write_trace_artifacts(outdir: Path, name: str, trace) -> list:
    trace.to_csv(outdir / f"{name}.csv")
    return [f"{name}.csv"]


def _write_activations(outdir: Path, traces, data: Dataset) -> list:
    rows = []
    for trace in traces:
        for epoch, feats in trace.activations:
            for i, (f0, f1) in enumerate(feats):
                rows.append([epoch, i, f0, f1, int(data.y_train[i])])
    if not rows:
        return []
    write_csv(outdir / "activations.csv",
              ("epoch", "index", "feat0", "feat1", "label"), rows)
    return ["activations.csv"]


def _save_checkpoint(outdir: Path, name: str, model: TwoModuleModel,
                     meta: dict | None = None) -> list:
    write_json(outdir / f"{name}.json", model.to_checkpoint(meta))
    return [f"{name}.json"]


def _write_dataset_summary(outdir: Path, data: Dataset) -> list:
    write_json(outdir / "dataset.json", {
        "train_examples": int(data.X_train.shape[0]),
        "test_examples": int(data.X_test.shape[0]),
        "dimension": int(data.dim),
        "train_class_counts": {str(k): v for k, v in data.class_counts().items()},
    })
    return ["dataset.json"]


# ---------------------------------------------------------------------------
# runners
# ---------------------------------------------------------------------------

def _checked_setup(cfg: ExperimentConfig, loss: str) -> tuple:
    """The config's architecture and dataset, once the output module can
    take the stage-2 ``loss`` and every label is one of its classes: a
    binary loss on more than two classes, or a label at or above the
    class count, fails here, before stage 1 trains or writes anything."""
    arch = cfg.architecture_spec()
    arch.output_width(loss)
    data = make_dataset(cfg.dataset_spec())
    if data.num_classes > arch.num_classes:
        raise ConfigurationError(
            f"the dataset has label {data.num_classes - 1}, but the "
            f"architecture has {arch.num_classes} classes (labels 0 to "
            f"{arch.num_classes - 1})")
    return arch, data


def _run_sanity_dynamics(cfg: ExperimentConfig, outdir: Path):
    train_cfg = cfg.train_config()
    arch, data = _checked_setup(cfg, train_cfg.loss)
    model = TwoModuleModel(arch, seed=train_cfg.seed)
    artifacts = _write_dataset_summary(outdir, data)
    trace_in, _ = train_input_module(model, data, train_cfg)
    artifacts += _write_trace_artifacts(outdir, "trace_input", trace_in)
    artifacts += _save_checkpoint(outdir, "stage1_checkpoint", model,
                                  {"stage": "input"})
    trace_out = freeze_and_train_output(model, data, train_cfg)
    artifacts += _write_trace_artifacts(outdir, "trace_output", trace_out)
    artifacts += _save_checkpoint(outdir, "stage2_checkpoint", model,
                                  {"stage": "output"})
    artifacts += _write_activations(outdir, [trace_in], data)
    metrics = {
        "final_proxy": trace_in.final("objective"),
        "train_accuracy": trace_out.final("train_accuracy"),
        "test_accuracy": trace_out.final("test_accuracy"),
    }
    return metrics, artifacts, True, {}


def _run_modular_vs_e2e(cfg: ExperimentConfig, outdir: Path):
    train_cfg = cfg.train_config()
    # Stage 1 is its own optimization problem, so it may take its own
    # schedule; stage 2 and the end-to-end baseline share 'train'.
    input_cfg = cfg.train_config("modular.input_train")
    arch, data = _checked_setup(cfg, train_cfg.loss)

    modular = TwoModuleModel(arch, seed=train_cfg.seed)
    trace_in, _ = train_input_module(modular, data, input_cfg)
    trace_out = freeze_and_train_output(modular, data, train_cfg)

    baseline = TwoModuleModel(arch, seed=train_cfg.seed,
                              output_dim=arch.output_width(train_cfg.loss))
    trace_e2e = train_end_to_end(baseline, data, train_cfg)

    artifacts = _write_dataset_summary(outdir, data)
    artifacts += _write_trace_artifacts(outdir, "trace_modular_input", trace_in)
    artifacts += _write_trace_artifacts(outdir, "trace_modular_output", trace_out)
    artifacts += _write_trace_artifacts(outdir, "trace_e2e", trace_e2e)
    artifacts += _save_checkpoint(outdir, "modular_checkpoint", modular)
    artifacts += _save_checkpoint(outdir, "e2e_checkpoint", baseline)
    artifacts += _write_activations(outdir, [trace_in, trace_e2e], data)

    mdlr = trace_out.final("train_accuracy")
    e2e = trace_e2e.final("train_accuracy")
    metrics = {
        "final_proxy": trace_in.final("objective"),
        "modular_train_accuracy": mdlr,
        "e2e_train_accuracy": e2e,
        "train_accuracy": min(mdlr, e2e),
        "accuracy_gap": abs(mdlr - e2e),
    }
    return metrics, artifacts, True, {}


def _run_proxy_sweep(cfg: ExperimentConfig, outdir: Path):
    section = cfg.section("sweep")
    train_cfg = cfg.train_config()
    output_cfg = cfg.train_config("sweep.output_train")
    arch, data = _checked_setup(cfg, output_cfg.loss)
    model = TwoModuleModel(arch, seed=train_cfg.seed)
    artifacts = _write_dataset_summary(outdir, data)
    timing = {}
    rows = proxy_accuracy_sweep(model, data, section["checkpoint_epochs"],
                                train_cfg, output_cfg, timing)
    write_csv(outdir / "sweep.csv", ("epoch", "proxy", "accuracy"),
              [[r["epoch"], r["proxy"], r["accuracy"]] for r in rows])
    artifacts.append("sweep.csv")
    spearman = (rank_correlation([r["proxy"] for r in rows],
                                 [r["accuracy"] for r in rows])
                if len(rows) >= 3 else float("nan"))
    metrics = {"spearman": spearman, "checkpoints": float(len(rows))}
    return metrics, artifacts, True, timing


def _run_label_efficiency(cfg: ExperimentConfig, outdir: Path):
    section = cfg.section("label_efficiency")
    train_cfg = cfg.train_config()
    arch, data = _checked_setup(cfg, train_cfg.loss)
    model = TwoModuleModel(arch, seed=train_cfg.seed)
    artifacts = _write_dataset_summary(outdir, data)
    train_input_module(model, data, train_cfg)

    n = data.X_train.shape[0]
    budgets = sorted({*section["budgets"], n})
    rows = label_efficiency_run(model, data, budgets, section["balanced"],
                                section["seed"], train_cfg)
    num_classes = data.num_classes
    header = ["budget", "test_accuracy"] + [f"recall_{c}"
                                            for c in range(num_classes)]
    write_csv(outdir / "label_efficiency.csv", header,
              [[r["budget"], r["test_accuracy"], *r["per_class_recall"]]
               for r in rows])
    smallest = rows[0]["test_accuracy"]
    full = rows[-1]["test_accuracy"]
    metrics = {
        "smallest_budget_accuracy": smallest,
        "full_budget_accuracy": full,
        "label_efficiency_ratio": (smallest / full if full > 0
                                   else float("nan")),
    }
    artifacts.append("label_efficiency.csv")
    return metrics, artifacts, True, {}


def _run_transferability(cfg: ExperimentConfig, outdir: Path):
    section = cfg.section("transfer")
    base = make_dataset(cfg.dataset_spec())
    # Every source and target task is a two-class subtask.
    arch = replace(cfg.architecture_spec(), num_classes=2)
    candidate_cfg = cfg.train_config("transfer.candidate_train")
    oracle_cfg = cfg.train_config("transfer.oracle_train")

    candidates = []
    artifacts = _write_dataset_summary(outdir, base)
    cand_dir = outdir / "candidates"
    cand_dir.mkdir(exist_ok=True)
    for i, pair in enumerate(section["source_tasks"]):
        a, b = pair
        task = binary_subtask(base, (a, b))
        model = TwoModuleModel(arch, seed=candidate_cfg.seed + i)
        train_input_module(model, task, candidate_cfg)
        cand = CandidateModule(id=f"src-{a}-{b}", model=model,
                               source_task=f"{a}-vs-{b}")
        candidates.append(cand)
    if section["include_random_candidate"]:
        model = TwoModuleModel(arch, seed=candidate_cfg.seed + 10_000)
        candidates.append(CandidateModule(id="random-init", model=model,
                                          source_task="none"))
    for cand in candidates:
        cand.save(cand_dir / f"{cand.id}.json")
        artifacts.append(f"candidates/{cand.id}.json")

    target = binary_subtask(base, section["target_task"])

    t0 = time.perf_counter()
    scores = {c.id: score_candidate(c, target, section["proxy"],
                                    section["subsample_fraction"],
                                    section["seed"])
              for c in candidates}
    scoring_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    oracle = retrain_oracle(candidates, target, oracle_cfg)
    oracle_seconds = time.perf_counter() - t0

    report = attach_oracle(rank_candidates(scores), oracle)
    write_json(outdir / "transfer_report.json", report.as_dict())
    report.to_csv(outdir / "transfer_report.csv")
    report.to_polar_csv(outdir / "transfer_polar.csv")
    artifacts += ["transfer_report.json", "transfer_report.csv",
                  "transfer_polar.csv"]

    cost_ratio = (scoring_seconds / oracle_seconds if oracle_seconds > 0
                  else float("inf"))
    metrics = {
        "spearman": report.rank_correlation_value,
        "candidates": float(len(candidates)),
    }
    timing = {"scoring_seconds": scoring_seconds,
              "oracle_seconds": oracle_seconds, "cost_ratio": cost_ratio}
    return metrics, artifacts, True, timing


def binary_subtask(base: Dataset, pair: tuple) -> Dataset:
    """Restrict a labeled dataset to two distinct classes, relabeled {0, 1}."""
    a, b = pair

    def pick(X, y):
        mask = (y == a) | (y == b)
        return X[mask], (y[mask] == b).astype(np.int64)

    X_train, y_train = pick(base.X_train, base.y_train)
    X_test, y_test = pick(base.X_test, base.y_test)
    if X_train.shape[0] == 0:
        raise ConfigurationError(f"no training data for classes {a}, {b}")
    return Dataset(X_train, y_train, X_test, y_test)


def _run_lemma_suite(cfg: ExperimentConfig, outdir: Path):
    section = cfg.section_or_defaults("lemma")
    rep = geometry.run_lemma_suite(
        num_instances=section["instances"], dims=tuple(section["dims"]),
        seed=section["seed"], tol=section["tolerance"])
    write_json(outdir / "lemma_report.json", rep.as_dict())
    metrics = {"instances": float(rep.instances),
               "failures": float(rep.failures)}
    passed = rep.failures <= cfg.thresholds.get("max_failures", 0)
    return metrics, ["lemma_report.json"], passed, {}


def _run_theorem_oracle(cfg: ExperimentConfig, outdir: Path):
    section = cfg.section_or_defaults("theorem")
    reports = [r.as_dict() for r in
               geometry.committed_bruteforce_reports(section["instances"])]
    write_json(outdir / "theorem_report.json", {"instances": reports})
    counterexamples = sum(len(r["counterexamples"]) for r in reports)
    metrics = {"instances": float(len(reports)),
               "counterexamples": float(counterexamples)}
    return metrics, ["theorem_report.json"], all(r["passed"] for r in reports), {}


# Each experiment kind: its runner, the sections its run needs (any other
# section it reads has defaults), and the report metrics or timing values
# its thresholds may gate, as 'min_<value>' or 'max_<value>'.
_KINDS = {
    "sanity-dynamics": (_run_sanity_dynamics, ("dataset",),
                        ("train_accuracy", "test_accuracy")),
    "modular-vs-e2e": (_run_modular_vs_e2e, ("dataset",),
                       ("train_accuracy", "accuracy_gap")),
    "proxy-sweep": (_run_proxy_sweep, ("dataset", "sweep"), ("spearman",)),
    "label-efficiency": (_run_label_efficiency, ("dataset", "label_efficiency"),
                         ("label_efficiency_ratio",)),
    "transferability": (_run_transferability, ("dataset", "transfer"),
                        ("spearman", "cost_ratio")),
    "lemma-suite": (_run_lemma_suite, (), ("failures",)),
    "theorem-oracle": (_run_theorem_oracle, (), ("counterexamples",)),
}
