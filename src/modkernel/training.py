"""Two-module models and the two-stage training algorithm.

Stage one trains the input module alone by gradient ascent on a pairwise
proxy objective evaluated through the link feature map; the output module
is never touched.  Stage two freezes the input module, caches its link
features, reinitializes the output module, and trains it on the overall
loss.  An end-to-end baseline trains the same backbone jointly.  Drivers
for the label-efficiency and proxy-versus-accuracy studies sit on top.

One trainer is single-threaded over its model; independent runs (sweep
checkpoints, label budgets) are deterministic given their seeds and may
run in parallel processes.
"""

from __future__ import annotations

import zlib
from dataclasses import asdict, dataclass, field

import numpy as np

from . import autodiff as ad
from . import proxies
from .datasets import Dataset
from .errors import ConfigurationError, DegenerateBatchError, IngestionError
from .kernels import FeatureMap, gram_tensor
from .losses import LOSS_KINDS, make_loss, risk_tensor
from .serialize import (MODULE_FORMAT, entries_to_params, params_to_entries,
                        write_csv)

TRACE_HEADER = ("stage", "epoch", "lr", "objective",
                "train_accuracy", "test_accuracy", "resamples")


@dataclass(frozen=True)
class ArchitectureSpec:
    """Layer widths of the two-module backbone.

    The input module is a fully-connected stack ending in ``latent_dim``
    pre-link activations; the output module is one affine map from the
    link features to ``num_classes`` logits (or to a single score when the
    overall loss is a binary decomposable one).
    """

    input_dim: int
    hidden_widths: tuple = (64,)
    latent_dim: int = 2
    num_classes: int = 2
    hidden_nonlinearity: str = "relu"
    link_nonlinearity: str = "tanh"
    link_epsilon: float = 1e-12

    def as_dict(self) -> dict:
        return dict(asdict(self), hidden_widths=list(self.hidden_widths))

    @classmethod
    def from_dict(cls, doc: dict) -> "ArchitectureSpec":
        doc = dict(doc)
        doc["hidden_widths"] = tuple(doc.get("hidden_widths", ()))
        return cls(**doc)


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 128
    lr_schedule: tuple = ((0.1, 20), (0.01, 20), (0.001, 20))
    momentum: float = 0.9
    seed: int = 0
    proxy: str = "nmse-neo"
    loss: str = "xe"
    trace_every: int = 1
    plateau_tol: float = 1e-6
    plateau_patience: int = 5
    resample_limit: int = 100

    def __post_init__(self):
        if not self.lr_schedule:
            raise ConfigurationError("lr_schedule must be nonempty")
        for lr, epochs in self.lr_schedule:
            if lr <= 0 or epochs < 0:
                raise ConfigurationError(
                    f"bad schedule entry (lr={lr}, epochs={epochs})")
        if self.batch_size < 2:
            raise ConfigurationError("batch_size must be at least 2")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigurationError(
                f"momentum must lie in [0, 1), got {self.momentum}")
        if self.trace_every < 1:
            raise ConfigurationError("trace_every must be at least 1")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")
        proxies.validate_proxy_kind(self.proxy)
        if self.loss != "xe" and self.loss not in LOSS_KINDS:
            raise ConfigurationError(
                f"unknown loss kind {self.loss!r}; expected 'xe' or one of {LOSS_KINDS}")

    @property
    def total_epochs(self) -> int:
        return sum(e for _, e in self.lr_schedule)

    @classmethod
    def from_dict(cls, doc: dict) -> "TrainConfig":
        doc = dict(doc)
        if "lr_schedule" in doc:
            try:
                doc["lr_schedule"] = tuple(
                    (float(lr), int(ep)) for lr, ep in doc["lr_schedule"])
            except (TypeError, ValueError):
                raise ConfigurationError(
                    "lr_schedule must be a list of [lr, epochs] pairs, got "
                    f"{doc['lr_schedule']!r}") from None
        return cls(**doc)


def _init_affine(rng: np.random.Generator, d_in: int, d_out: int) -> tuple:
    bound = 1.0 / np.sqrt(d_in)
    W = ad.Tensor(rng.uniform(-bound, bound, (d_in, d_out)), requires_grad=True)
    b = ad.Tensor(rng.uniform(-bound, bound, d_out), requires_grad=True)
    return W, b


class AffineStack:
    """Fully-connected layers with a nonlinearity between (not after) them."""

    def __init__(self, dims, nonlinearity: str, rng: np.random.Generator):
        self.nonlinearity = nonlinearity
        self.layers = [_init_affine(rng, dims[i], dims[i + 1])
                       for i in range(len(dims) - 1)]

    def forward(self, x: ad.Tensor) -> ad.Tensor:
        out = x
        last = len(self.layers) - 1
        for i, (W, b) in enumerate(self.layers):
            out = ad.affine(out, W, b, self.nonlinearity if i < last else None)
        return out

    def params(self) -> list:
        return [t for pair in self.layers for t in pair]

    def named_params(self, prefix: str) -> list:
        out = []
        for i, (W, b) in enumerate(self.layers):
            out.append((f"{prefix}.{i}.weight", W))
            out.append((f"{prefix}.{i}.bias", b))
        return out


class TwoModuleModel:
    """input module -> link feature map -> affine output module."""

    def __init__(self, arch: ArchitectureSpec, seed: int = 0,
                 output_dim: int | None = None):
        self.arch = arch
        self.seed = seed
        rng = np.random.default_rng(seed)
        dims = [arch.input_dim, *arch.hidden_widths, arch.latent_dim]
        self.input_module = AffineStack(dims, arch.hidden_nonlinearity, rng)
        self.link = FeatureMap(nonlinearity=arch.link_nonlinearity,
                               normalize=True, epsilon=arch.link_epsilon)
        self.output_dim = arch.num_classes if output_dim is None else output_dim
        self.output_weight, self.output_bias = _init_affine(
            rng, arch.latent_dim, self.output_dim)

    # -- forward ----------------------------------------------------------
    def pre_link(self, x: ad.Tensor) -> ad.Tensor:
        return self.input_module.forward(x)

    def link_features(self, x: ad.Tensor) -> ad.Tensor:
        return self.link.apply_tensor(self.pre_link(x))

    def forward(self, x: ad.Tensor) -> ad.Tensor:
        return ad.affine(self.link_features(x), self.output_weight,
                         self.output_bias)

    def link_features_np(self, X: np.ndarray) -> np.ndarray:
        return self.link_features(ad.constant(X)).data

    def logits_np(self, X: np.ndarray) -> np.ndarray:
        return self.forward(ad.constant(X)).data

    # -- parameters -------------------------------------------------------
    def input_params(self) -> list:
        return self.input_module.params()

    def output_params(self) -> list:
        return [self.output_weight, self.output_bias]

    def params(self) -> list:
        return self.input_params() + self.output_params()

    def named_params(self) -> list:
        named = self.input_module.named_params("input")
        named.append(("output.weight", self.output_weight))
        named.append(("output.bias", self.output_bias))
        return named

    def freeze_input(self) -> None:
        for p in self.input_params():
            p.requires_grad = False
            p.grad = None

    def unfreeze_input(self) -> None:
        for p in self.input_params():
            if p.grad is None:
                p.requires_grad = True
                p.grad = np.zeros_like(p.data)

    def reinit_output(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        W, b = _init_affine(rng, self.arch.latent_dim, self.output_dim)
        self.output_weight, self.output_bias = W, b

    # -- checkpoint files --------------------------------------------------
    def to_checkpoint(self, meta: dict | None = None) -> dict:
        return {
            "format": MODULE_FORMAT,
            "architecture": self.arch.as_dict(),
            "output_dim": self.output_dim,
            "seed": self.seed,
            "tensors": params_to_entries(self.named_params()),
            "meta": meta or {},
        }

    @classmethod
    def from_checkpoint(cls, doc: dict) -> "TwoModuleModel":
        if doc.get("format") != MODULE_FORMAT:
            raise IngestionError(
                f"unexpected module checkpoint format: {doc.get('format')!r}")
        arch = ArchitectureSpec.from_dict(doc["architecture"])
        model = cls(arch, seed=doc.get("seed", 0),
                    output_dim=doc.get("output_dim"))
        loaded = dict(entries_to_params(doc["tensors"]))
        for name, tensor in model.named_params():
            if name not in loaded:
                raise IngestionError(f"module checkpoint lacks tensor {name!r}")
            data = loaded[name]
            if data.shape != tensor.data.shape:
                raise IngestionError(
                    f"tensor {name!r} has shape {data.shape}; the "
                    f"architecture needs {tensor.data.shape}")
            if not np.isfinite(data).all():
                raise IngestionError(f"tensor {name!r} holds non-finite values")
            tensor.data = data.copy()
        return model


@dataclass
class DynamicsTrace:
    """Per-checkpoint training records, plus 2-D link activations when the
    latent dimension is 2 (for scatter emission)."""

    rows: list = field(default_factory=list)
    activations: list = field(default_factory=list)

    def add(self, stage: str, epoch: int, lr: float, objective: float,
            train_acc: float, test_acc: float, resamples: int = 0) -> None:
        if self.rows and self.rows[-1]["stage"] == stage:
            if epoch <= self.rows[-1]["epoch"]:
                raise ConfigurationError("trace epochs must strictly increase")
        self.rows.append({
            "stage": stage, "epoch": epoch, "lr": lr, "objective": objective,
            "train_accuracy": train_acc, "test_accuracy": test_acc,
            "resamples": resamples,
        })

    def to_csv(self, path) -> None:
        write_csv(path, TRACE_HEADER,
                  [[r[k] for k in TRACE_HEADER] for r in self.rows])

    def final(self, key: str):
        return self.rows[-1][key] if self.rows else None


def _predict(logits: np.ndarray, binary_score: bool) -> np.ndarray:
    if binary_score:
        return (logits.ravel() > 0).astype(np.int64)
    return logits.argmax(axis=1)


def accuracy(logits: np.ndarray, labels: np.ndarray,
             binary_score: bool = False) -> float:
    if labels.size == 0:
        return float("nan")
    return float((_predict(logits, binary_score) == labels).mean())


def _schedule_epochs(cfg: TrainConfig):
    epoch = 0
    for lr, epochs in cfg.lr_schedule:
        for _ in range(epochs):
            yield epoch, lr
            epoch += 1


def _fit(params: list, cfg: TrainConfig, rng: np.random.Generator, n: int,
         batch_loss, end_epoch) -> None:
    """Momentum SGD on ``params`` over the schedule of ``cfg``.

    Each epoch draws a permutation of ``range(n)`` from ``rng``, descends
    the scalar ``batch_loss(idx)`` on each consecutive ``batch_size`` slice
    of it, and then calls ``end_epoch(epochs_done, lr)``, which returns
    True to stop early.
    """
    opt = ad.SgdMomentum(params, cfg.lr_schedule[0][0], cfg.momentum)
    for epoch, lr in _schedule_epochs(cfg):
        opt.learning_rate = lr
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            loss = batch_loss(order[start:start + cfg.batch_size])
            opt.zero_grad()
            ad.backward(loss)
            opt.step()
        if end_epoch(epoch + 1, lr):
            return


def _trace_due(cfg: TrainConfig, done: int) -> bool:
    return done % cfg.trace_every == 0 or done == cfg.total_epochs


# ---------------------------------------------------------------------------
# stage one: proxy ascent on the input module
# ---------------------------------------------------------------------------

def train_input_module(model: TwoModuleModel, data: Dataset, cfg: TrainConfig,
                       checkpoint_epochs=None) -> tuple:
    """SGD ascent on the proxy; returns (trace, snapshots by epoch).

    ``checkpoint_epochs`` requests deep parameter snapshots after the given
    epoch counts (0 means the untouched initialization).
    """
    alpha, beta = model.link.bounds()
    proxies.validate_proxy_for_bounds(cfg.proxy, beta)
    wanted = set(checkpoint_epochs or [])
    snapshots: dict[int, list] = {}
    trace = DynamicsTrace()
    rng = np.random.default_rng(cfg.seed)
    resamples = 0

    def snap_if_wanted(done: int) -> None:
        if done in wanted:
            snapshots[done] = [p.data.copy() for p in model.input_params()]

    def batch_loss(idx):
        nonlocal resamples
        idx, part, resampled = _usable_batch(rng, data.y_train, idx, cfg)
        resamples += resampled
        acts = model.pre_link(ad.constant(data.X_train[idx]))
        K = gram_tensor(model.link, acts)
        return ad.neg(proxies.proxy_tensor(cfg.proxy, K, part, alpha, beta))

    def end_epoch(done: int, lr: float) -> bool:
        nonlocal resamples
        snap_if_wanted(done)
        if _trace_due(cfg, done):
            value = full_proxy_value(model, data.X_train, data.y_train, cfg.proxy)
            trace.add("input", done, lr, value, float("nan"), float("nan"),
                      resamples)
            _record_activations(trace, model, data, done)
        resamples = 0
        return False

    snap_if_wanted(0)
    _fit(model.input_params(), cfg, rng, data.X_train.shape[0], batch_loss,
         end_epoch)
    return trace, snapshots


def _usable_batch(rng, labels, idx, cfg: TrainConfig) -> tuple:
    """Swap in random batches until the proxy's pair types are present;
    returns (indices, their pair partition, number of redraws)."""
    n = labels.shape[0]
    resamples = 0
    while True:
        part = proxies.partition_pairs(labels[idx])
        if not proxies.is_degenerate_for(cfg.proxy, part):
            return idx, part, resamples
        resamples += 1
        if resamples > cfg.resample_limit:
            raise DegenerateBatchError(
                f"could not draw a batch with the pair types {cfg.proxy!r} needs")
        idx = rng.choice(n, size=min(cfg.batch_size, n), replace=False)


def full_proxy_value(model: TwoModuleModel, X: np.ndarray, y: np.ndarray,
                     kind: str) -> float:
    alpha, beta = model.link.bounds()
    part = proxies.partition_pairs(y)
    if proxies.is_degenerate_for(kind, part):
        return float("nan")
    return proxies.feature_proxy_value(kind, model.link_features_np(X), part,
                                       alpha, beta)


def _record_activations(trace: DynamicsTrace, model: TwoModuleModel,
                        data: Dataset, epoch: int) -> None:
    if model.arch.latent_dim == 2:
        trace.activations.append((epoch, model.link_features_np(data.X_train)))


# ---------------------------------------------------------------------------
# stage two: overall-loss descent on the output module alone
# ---------------------------------------------------------------------------

def _loss_and_logits(model: TwoModuleModel, feats: ad.Tensor,
                     labels: np.ndarray, cfg: TrainConfig) -> tuple:
    logits = ad.affine(feats, model.output_weight, model.output_bias)
    if cfg.loss == "xe":
        return ad.cross_entropy_logits(logits, labels), logits
    loss = make_loss(cfg.loss)
    return risk_tensor(loss, logits, labels == 1), logits


def _binary_score_mode(cfg: TrainConfig) -> bool:
    return cfg.loss != "xe"


def _output_logits(model: TwoModuleModel, feats: np.ndarray) -> np.ndarray:
    return ad.affine(ad.constant(feats), model.output_weight,
                     model.output_bias).data


def freeze_and_train_output(model: TwoModuleModel, data: Dataset,
                            cfg: TrainConfig) -> DynamicsTrace:
    """Reinitialize and train the output module on frozen link features.

    Features are computed once (the input module never changes during this
    stage), so each step touches only the affine output map.  Stops early
    when the full-train loss plateaus.
    """
    model.freeze_input()
    model.reinit_output(_derived_seed(cfg.seed, "output-init"))
    feats_train = model.link_features_np(data.X_train)
    feats_test = (model.link_features_np(data.X_test)
                  if data.X_test.size else np.zeros((0, model.arch.latent_dim)))
    return _train_output_on_features(model, feats_train, data.y_train,
                                     feats_test, data.y_test, cfg)


def _train_output_on_features(model: TwoModuleModel, feats_train, y_train,
                              feats_test, y_test,
                              cfg: TrainConfig) -> DynamicsTrace:
    trace = DynamicsTrace()
    binary = _binary_score_mode(cfg)
    best_loss = np.inf
    stale = 0

    def batch_loss(idx):
        loss, _ = _loss_and_logits(model, ad.constant(feats_train[idx]),
                                   y_train[idx], cfg)
        return loss

    def end_epoch(done: int, lr: float) -> bool:
        nonlocal best_loss, stale
        full_loss, logits = _loss_and_logits(model, ad.constant(feats_train),
                                             y_train, cfg)
        if best_loss - full_loss.item() < cfg.plateau_tol:
            stale += 1
        else:
            stale = 0
        stop = stale >= cfg.plateau_patience
        best_loss = min(best_loss, full_loss.item())
        if _trace_due(cfg, done) or stop:
            train_acc = accuracy(logits.data, y_train, binary)
            test_acc = (accuracy(_output_logits(model, feats_test), y_test,
                                 binary)
                        if y_test.size else float("nan"))
            trace.add("output", done, lr, float(full_loss.item()),
                      train_acc, test_acc)
        return stop

    rng = np.random.default_rng(_derived_seed(cfg.seed, "output-batches"))
    _fit(model.output_params(), cfg, rng, feats_train.shape[0], batch_loss,
         end_epoch)
    return trace


def _derived_seed(seed: int, label: str) -> np.random.SeedSequence:
    # crc32 keeps the derivation stable across processes (hash() is not).
    return np.random.SeedSequence([seed, zlib.crc32(label.encode())])


# ---------------------------------------------------------------------------
# end-to-end baseline
# ---------------------------------------------------------------------------

def train_end_to_end(model: TwoModuleModel, data: Dataset,
                     cfg: TrainConfig) -> DynamicsTrace:
    """Joint SGD on the overall loss; same trace format as the stages."""
    trace = DynamicsTrace()
    binary = _binary_score_mode(cfg)

    def batch_loss(idx):
        feats = model.link_features(ad.constant(data.X_train[idx]))
        loss, _ = _loss_and_logits(model, feats, data.y_train[idx], cfg)
        return loss

    def end_epoch(done: int, lr: float) -> bool:
        if _trace_due(cfg, done):
            feats_full = model.link_features(ad.constant(data.X_train))
            full_loss, logits = _loss_and_logits(model, feats_full,
                                                 data.y_train, cfg)
            train_acc = accuracy(logits.data, data.y_train, binary)
            test_acc = (accuracy(model.logits_np(data.X_test), data.y_test, binary)
                        if data.y_test.size else float("nan"))
            trace.add("e2e", done, lr, float(full_loss.item()),
                      train_acc, test_acc)
            _record_activations(trace, model, data, done)
        return False

    _fit(model.params(), cfg, np.random.default_rng(cfg.seed),
         data.X_train.shape[0], batch_loss, end_epoch)
    return trace


# ---------------------------------------------------------------------------
# experiment drivers
# ---------------------------------------------------------------------------

def label_efficiency_run(model: TwoModuleModel, data: Dataset, label_budgets,
                         balanced: bool, seed: int, cfg: TrainConfig) -> list:
    """Retrain the output module on shrinking labeled subsets.

    The input module must already be trained (pairwise supervision only);
    each budget reinitializes the output module and returns test accuracy
    plus per-class recall.  Rows: dicts keyed budget/test_accuracy/recall.
    """
    model.freeze_input()
    feats_train = model.link_features_np(data.X_train)
    feats_test = model.link_features_np(data.X_test)
    n = data.X_train.shape[0]
    num_classes = data.num_classes
    binary = _binary_score_mode(cfg)
    rows = []
    for budget in label_budgets:
        budget = int(budget)
        if budget < 1 or budget > n:
            raise ConfigurationError(f"label budget {budget} out of range")
        rng = np.random.default_rng(
            np.random.SeedSequence([seed, budget]))
        if budget == n:
            chosen = np.arange(n)
        elif balanced:
            if budget < num_classes:
                raise ConfigurationError(
                    f"balanced budget {budget} is below the class count "
                    f"{num_classes}")
            quota = [budget // num_classes + (1 if c < budget % num_classes else 0)
                     for c in range(num_classes)]
            picks = []
            for c, q in enumerate(quota):
                pool = np.flatnonzero(data.y_train == c)
                if q > pool.size:
                    raise ConfigurationError(
                        f"class {c} has only {pool.size} examples, need {q}")
                picks.append(rng.choice(pool, size=q, replace=False))
            chosen = np.concatenate(picks)
        else:
            chosen = rng.choice(n, size=budget, replace=False)
        model.reinit_output(_derived_seed(cfg.seed, "output-init"))
        _train_output_on_features(model, feats_train[chosen],
                                  data.y_train[chosen], feats_test,
                                  data.y_test, cfg)
        logits = _output_logits(model, feats_test)
        acc = accuracy(logits, data.y_test, binary)
        pred = _predict(logits, binary)
        recall = []
        for c in range(num_classes):
            mask = data.y_test == c
            recall.append(float((pred[mask] == c).mean()) if mask.any()
                          else float("nan"))
        rows.append({"budget": budget, "test_accuracy": acc,
                     "per_class_recall": recall})
    return rows


def proxy_accuracy_sweep(model: TwoModuleModel, data: Dataset,
                         checkpoint_epochs, cfg: TrainConfig,
                         output_cfg: TrainConfig | None = None) -> list:
    """Snapshot the input module along stage one; for each snapshot train a
    fresh output module to convergence and pair the proxy value with the
    best accuracy it reaches.  Rows: dicts keyed epoch/proxy/accuracy."""
    checkpoint_epochs = list(checkpoint_epochs)
    output_cfg = output_cfg or cfg
    _, snapshots = train_input_module(model, data, cfg,
                                      checkpoint_epochs=checkpoint_epochs)
    final_input = [p.data.copy() for p in model.input_params()]
    rows = []
    for epoch in checkpoint_epochs:
        if epoch not in snapshots:
            raise ConfigurationError(
                f"checkpoint epoch {epoch} exceeds the schedule "
                f"({cfg.total_epochs} epochs)")
        for p, arr in zip(model.input_params(), snapshots[epoch]):
            p.data = arr.copy()
        value = full_proxy_value(model, data.X_train, data.y_train, cfg.proxy)
        trace = freeze_and_train_output(model, data, output_cfg)
        best = max((r["test_accuracy"] for r in trace.rows
                    if not np.isnan(r["test_accuracy"])),
                   default=trace.final("train_accuracy"))
        rows.append({"epoch": epoch, "proxy": value, "accuracy": float(best)})
    for p, arr in zip(model.input_params(), final_input):
        p.data = arr.copy()
    model.unfreeze_input()
    return rows
