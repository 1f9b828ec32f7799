"""The three benchmark workloads, each calling modkernel's public API.

A workload is built from a root directory (the checkout), a workload
seed, a size ("full" for measurement, "tiny" for the smoke test) and a
scratch directory.  ``setup`` builds inputs and modules; ``run_pass``
does one fixed unit of work and returns its raw outputs and part
timings; ``check_pass`` checks those outputs outside the timed region.
``next_op`` is called before each operation so traced spans carry an
operation id.

Seed 0 reproduces the seeds of the committed configs; any other seed
derives every dataset and training seed from it.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import statistics
import tempfile
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from modkernel import (autodiff as ad, config, datasets, experiments, kernels,
                       proxies, training, transfer)

import floor

DEFAULT_SEED = 0
# A plateau patience no committed schedule reaches, in epochs.
NO_EARLY_STOP = 1_000_000


def derive_seed(seed: int, default: int, label: str) -> int:
    if seed == DEFAULT_SEED:
        return default
    return zlib.crc32(f"{seed}:{label}".encode()) & 0x7FFFFFFF


@dataclass
class PassResult:
    ops: int
    parts: dict
    outputs: dict = field(default_factory=dict)


def _median(values) -> float:
    return float(statistics.median(values))


class Workload:
    """Defaults for a workload with no run-level check and no layer
    metric of its own."""

    name = ""

    def run_checks(self) -> list:
        return []

    def layer_info(self, untraced: list) -> dict:
        return {}


# ---------------------------------------------------------------------------
# train-wide: the modular-vs-e2e problem, truncated
# ---------------------------------------------------------------------------

class TrainWide(Workload):
    """Stage 1, stage 2 and end-to-end on the modular-vs-e2e problem.

    Random labels, n=1000, d=32, one 512-wide relu layer, latent 2, tanh
    link, 10 classes, batch 128, cts-neo, lr 0.01 (the first entry of the
    committed schedule) and momentum 0.9.  The plateau patience exceeds
    the epoch count, so early stopping cannot fire and every pass does the
    same number of steps.
    """

    name = "train-wide"
    N, D, WIDTH, CLASSES, BATCH = 1000, 32, 512, 10, 128
    LR, MOMENTUM, PROXY = 0.01, 0.9, "cts-neo"
    # Epochs of stage 1, stage 2 and end-to-end.
    EPOCHS = {"full": (50, 200, 50), "tiny": (1, 2, 1)}
    GRADIENT_RTOL = 1e-10

    def __init__(self, root: Path, seed: int, size: str, scratch: Path):
        self.dataset_seed = derive_seed(seed, 7, "train-wide.dataset")
        self.train_seed = derive_seed(seed, 0, "train-wide.train")
        self.epochs = self.EPOCHS[size]
        self.steps_per_epoch = len(range(0, self.N, self.BATCH))

    def setup(self) -> None:
        self.data = datasets.make_dataset(datasets.DatasetSpec(
            kind="random-label", n=self.N, d=self.D,
            num_classes=self.CLASSES, seed=self.dataset_seed,
            split_fraction=1.0))
        self.arch = training.ArchitectureSpec(
            input_dim=self.D, hidden_widths=(self.WIDTH,), latent_dim=2,
            num_classes=self.CLASSES, hidden_nonlinearity="relu",
            link_nonlinearity="tanh")
        self.configs = [training.TrainConfig(
            batch_size=self.BATCH, lr_schedule=((self.LR, epochs),),
            momentum=self.MOMENTUM, seed=self.train_seed, proxy=self.PROXY,
            loss="xe", trace_every=500, plateau_patience=epochs + 1)
            for epochs in self.epochs]
        self.model = training.TwoModuleModel(self.arch, seed=self.train_seed)

    def run_checks(self) -> list:
        """The first stage-1 gradient against the numpy floor's."""
        model = self.model
        X, y = self.data.X_train, self.data.y_train
        idx = next(self._stage1_batches())
        alpha, beta = model.link.bounds()
        part = proxies.partition_pairs(y[idx])
        K = kernels.gram_tensor(model.link, model.pre_link(ad.constant(X[idx])))
        objective = proxies.proxy_tensor(self.PROXY, K, part, alpha, beta)
        params = model.input_params()
        ad.zero_gradients(params)
        ad.backward(ad.neg(objective))
        _, expected = floor.stage1_gradient([p.data for p in params],
                                            X[idx], y[idx])
        worst = max(float(np.abs(p.grad - g).max() / np.abs(g).max())
                    for p, g in zip(params, expected))
        ad.zero_gradients(params)
        if not worst <= self.GRADIENT_RTOL:
            return [f"first stage-1 gradient differs from the floor by "
                    f"{worst:.3e} relative"]
        return []

    def _stage1_batches(self):
        """The batch order train_input_module draws for this seed."""
        rng = np.random.default_rng(self.train_seed)
        for _ in range(self.epochs[0]):
            order = rng.permutation(self.N)
            for i in range(0, self.N, self.BATCH):
                yield order[i:i + self.BATCH]

    def run_pass(self, next_op) -> PassResult:
        stage1, stage2, e2e = self.configs
        modular = training.TwoModuleModel(self.arch, seed=self.train_seed)
        baseline = training.TwoModuleModel(self.arch, seed=self.train_seed)
        next_op()
        t0 = time.perf_counter()
        trace_in, _ = training.train_input_module(modular, self.data, stage1)
        t1 = time.perf_counter()
        next_op()
        trace_out = training.freeze_and_train_output(modular, self.data, stage2)
        t2 = time.perf_counter()
        next_op()
        trace_e2e = training.train_end_to_end(baseline, self.data, e2e)
        t3 = time.perf_counter()
        modular.unfreeze_input()
        digest = hashlib.sha256()
        for p in modular.params() + baseline.params():
            digest.update(p.data.tobytes())
        return PassResult(ops=3, parts={"stage1_s": t1 - t0, "stage2_s": t2 - t1,
                                        "e2e_s": t3 - t2},
                          outputs={"traces": (trace_in, trace_out, trace_e2e),
                                   "fingerprint": digest.hexdigest()})

    def check_pass(self, result: PassResult) -> list:
        errors = []
        for trace in result.outputs["traces"]:
            for row in trace.rows:
                values = [row["objective"]]
                if row["stage"] != "input":
                    values.append(row["train_accuracy"])
                if not np.all(np.isfinite(values)):
                    errors.append(f"non-finite {row['stage']} trace value "
                                  f"at epoch {row['epoch']}")
        return errors

    def summarize(self, passes: list) -> dict:
        steps = [e * self.steps_per_epoch for e in self.epochs]
        out = {}
        for name, part, count in (("stage1_steps_per_s", "stage1_s", steps[0]),
                                  ("stage2_steps_per_s", "stage2_s", steps[1]),
                                  ("e2e_steps_per_s", "e2e_s", steps[2])):
            out[name] = (_median(count / p.parts[part] for p in passes), "1/s")
        return out

    def layer_info(self, untraced: list) -> dict:
        """Library stage-1 time over the numpy floor's on the same batches
        (medians of the untraced passes and of three floor runs), and the
        final stage-1 proxy value."""
        params = [p.data for p in self.model.input_params()]
        floor_times = []
        for _ in range(3):
            t0 = time.perf_counter()
            floor.stage1_floor(params, self.data.X_train, self.data.y_train,
                               self._stage1_batches(), self.LR, self.MOMENTUM)
            floor_times.append(time.perf_counter() - t0)
        library_s = _median(p.parts["stage1_s"] for p in untraced)
        trace_in = untraced[-1].outputs["traces"][0]
        return {"training.stage1_floor_ratio": library_s / _median(floor_times),
                "training.stage1_proxy_final": trace_in.final("objective")}


# ---------------------------------------------------------------------------
# experiments-small: the six fast committed configs
# ---------------------------------------------------------------------------

def _validate(obj, schema: dict, path: str = "$") -> list:
    """The JSON-schema subset the committed report schema uses."""
    types = {"object": dict, "array": list, "string": str, "boolean": bool,
             "null": type(None)}

    def has_type(kind):
        if kind == "number":
            return isinstance(obj, (int, float)) and not isinstance(obj, bool)
        return isinstance(obj, types[kind])

    expected = schema.get("type")
    if expected is not None:
        kinds = expected if isinstance(expected, list) else [expected]
        if not any(has_type(k) for k in kinds):
            return [f"{path}: expected {expected}"]
    if "enum" in schema and obj not in schema["enum"]:
        return [f"{path}: {obj!r} not allowed"]
    errors = []
    if isinstance(obj, dict):
        errors += [f"{path}: missing {key}" for key in schema.get("required", [])
                   if key not in obj]
        props = schema.get("properties", {})
        extra = schema.get("additionalProperties", True)
        for key, value in obj.items():
            if key in props:
                errors += _validate(value, props[key], f"{path}.{key}")
            elif extra is False:
                errors.append(f"{path}: unexpected key {key}")
            elif isinstance(extra, dict):
                errors += _validate(value, extra, f"{path}.{key}")
    if isinstance(obj, list) and "items" in schema:
        for i, item in enumerate(obj):
            errors += _validate(item, schema["items"], f"{path}[{i}]")
    return errors


class ExperimentsSmall(Workload):
    """``experiments.run_experiment`` on the six fast committed configs,
    each into a fresh temporary output root.

    Timed passes run the configs with early stopping off, at every seed,
    so that a pass does the same work on every seed and on every commit.
    At the default seed the run-level check runs the committed configs
    once, as committed, and gates their thresholds.
    """

    name = "experiments-small"
    TRAINING = ("sanity-dynamics", "proxy-sweep", "label-efficiency",
                "transferability")
    VERIFICATION = ("lemma-suite", "theorem-oracle")

    def __init__(self, root: Path, seed: int, size: str, scratch: Path):
        self.root, self.seed, self.size, self.scratch = root, seed, size, scratch
        self.schema = json.loads((root / "configs" / "report-schema.json").read_text())
        self.gated = seed == DEFAULT_SEED and size == "full"

    def _committed_path(self, name: str) -> Path:
        return self.root / "configs" / f"{name}.json"

    def _config_path(self, name: str) -> Path:
        doc = json.loads(self._committed_path(name).read_text())
        for section, value in doc.items():
            if isinstance(value, dict) and (section in ("dataset", "train")
                                            or "seed" in value):
                value["seed"] = derive_seed(self.seed, value.get("seed", 0),
                                            f"{name}.{section}")
        _no_early_stop(doc)
        if self.size == "tiny":
            _shrink(doc)
        out = self.scratch / "configs" / f"{name}.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(doc))
        return out

    def setup(self) -> None:
        self.configs = {name: config.load_config(self._config_path(name))
                        for name in self.TRAINING + self.VERIFICATION}

    def run_checks(self) -> list:
        """At the default seed, every committed config must exit 0, which
        means its thresholds hold, and write a valid report."""
        if not self.gated:
            return []
        committed = {name: config.load_config(self._committed_path(name))
                     for name in self.configs}
        return self._check(self._run(committed, lambda: None), allowed=(0,))

    def run_pass(self, next_op) -> PassResult:
        return self._run(self.configs, next_op)

    def _run(self, configs: dict, next_op) -> PassResult:
        parts, codes, reports = {}, {}, {}
        for name, cfg in configs.items():
            out_root = Path(tempfile.mkdtemp(prefix="exp-", dir=self.scratch))
            try:
                next_op()
                t0 = time.perf_counter()
                codes[name] = experiments.run_experiment(cfg, str(out_root))
                parts[name] = time.perf_counter() - t0
                report = out_root / cfg.output_dir / "report.json"
                reports[name] = report.read_bytes() if report.is_file() else None
            finally:
                shutil.rmtree(out_root, ignore_errors=True)
        digest = hashlib.sha256()
        for name in configs:
            digest.update(reports[name] or b"")
        return PassResult(ops=len(configs), parts=parts,
                          outputs={"codes": codes, "reports": reports,
                                   "fingerprint": digest.hexdigest()})

    def check_pass(self, result: PassResult) -> list:
        # Exit 1 is a threshold not met, which is gated only on the
        # committed configs.
        return self._check(result, allowed=(0, 1))

    def _check(self, result: PassResult, allowed: tuple) -> list:
        errors = []
        for name, code in result.outputs["codes"].items():
            if code not in allowed:
                errors.append(f"{name} exited {code}")
            raw = result.outputs["reports"][name]
            if raw is None:
                errors.append(f"{name} wrote no report.json")
                continue
            errors += [f"{name} report: {e}"
                       for e in _validate(json.loads(raw), self.schema)]
        return errors

    def summarize(self, passes: list) -> dict:
        return {
            "training_experiments_s": (_median(
                sum(p.parts[n] for n in self.TRAINING) for p in passes), "s"),
            "verification_experiments_s": (_median(
                sum(p.parts[n] for n in self.VERIFICATION) for p in passes), "s"),
        }


def _train_sections(doc: dict) -> list:
    """The config's train section and the train overrides inside it."""
    sections = [doc.get("train")]
    for section in ("sweep", "transfer"):
        sections += [value for key, value in doc.get(section, {}).items()
                     if key.endswith("_train")]
    return [s for s in sections if isinstance(s, dict)]


def _no_early_stop(doc: dict) -> None:
    """Set every plateau patience past any schedule's length, so that the
    work of a pass depends neither on the seed nor on the numerics."""
    for section in _train_sections(doc):
        section["plateau_patience"] = NO_EARLY_STOP


def _shrink(doc: dict) -> None:
    """Cut a config down to a smoke-test size: one epoch per schedule
    entry, few checkpoints and lemma instances, a small dataset."""
    def shrink_schedule(section):
        if isinstance(section, dict) and "lr_schedule" in section:
            section["lr_schedule"] = [[lr, 1] for lr, _ in section["lr_schedule"]]

    for section in _train_sections(doc):
        shrink_schedule(section)
    if "sweep" in doc:
        epochs = sum(e for _, e in doc["train"]["lr_schedule"])
        doc["sweep"]["checkpoint_epochs"] = list(range(epochs + 1))
    if "lemma" in doc:
        doc["lemma"]["instances"] = 70
    if "dataset" in doc:
        doc["dataset"]["n"] = min(doc["dataset"]["n"], 480)


# ---------------------------------------------------------------------------
# score-large: training-free scoring at large n
# ---------------------------------------------------------------------------

class ScoreLarge(Workload):
    """``transfer.score_candidate`` with the whole target (fraction 1.0)
    for every proxy on a few frozen candidates, forward only."""

    name = "score-large"
    N = {"full": 3000, "tiny": 200}
    D = 12
    WIDTHS = ((24,), (64,), (32, 32))
    TOLERANCE = 1e-9

    def __init__(self, root: Path, seed: int, size: str, scratch: Path):
        self.n = self.N[size]
        self.dataset_seed = derive_seed(seed, 0, "score-large.dataset")
        self.candidate_seed = derive_seed(seed, 0, "score-large.candidates")
        self.score_seed = derive_seed(seed, 0, "score-large.score")
        self.references = None

    def setup(self) -> None:
        self.target = datasets.make_dataset(datasets.DatasetSpec(
            kind="gaussian-blobs", n=self.n, d=self.D, num_classes=2,
            seed=self.dataset_seed, split_fraction=1.0, noise=4.0))
        self.candidates = [transfer.CandidateModule(
            id=f"cand-{i}", source_task="none",
            model=training.TwoModuleModel(training.ArchitectureSpec(
                input_dim=self.D, hidden_widths=widths, latent_dim=2,
                num_classes=2), seed=self.candidate_seed + i))
            for i, widths in enumerate(self.WIDTHS)]

    def run_pass(self, next_op) -> PassResult:
        scores = {}
        t0 = time.perf_counter()
        for cand in self.candidates:
            for kind in proxies.PROXY_KINDS:
                next_op()
                scores[cand.id, kind] = transfer.score_candidate(
                    cand, self.target, kind, 1.0, self.score_seed)
        return PassResult(ops=len(scores), parts={"scoring_s": time.perf_counter() - t0},
                          outputs={"scores": scores,
                                   "fingerprint": repr(sorted(scores.items()))})

    def check_pass(self, result: PassResult) -> list:
        if self.references is None:
            y = self.target.y_train
            self.num_negatives = int((y[:, None] != y[None, :]).sum())
            self.references = {
                cand.id: floor.proxy_references(
                    [(W.data, b.data) for W, b in cand.model.input_module.layers],
                    self.target.X_train, y)
                for cand in self.candidates}
        errors = []
        for (cid, kind), score in result.outputs["scores"].items():
            low, high = floor.proxy_bounds(kind, self.num_negatives)
            if not low <= score <= high:
                errors.append(f"{cid} {kind}: {score} outside [{low}, {high}]")
            expected = self.references[cid][kind]
            if not abs(score - expected) <= self.TOLERANCE:
                errors.append(f"{cid} {kind}: {score} differs from the "
                              f"reference {expected}")
        return errors

    def summarize(self, passes: list) -> dict:
        return {"scores_per_s": (_median(p.ops / p.parts["scoring_s"]
                                         for p in passes), "1/s"),
                "n": (self.n, "count")}


WORKLOADS = {w.name: w for w in (TrainWide, ExperimentsSmall, ScoreLarge)}
