"""Two-module models and the two-stage training algorithm.

Stage one trains the input module alone by gradient ascent on a pairwise
proxy objective evaluated through the link feature map; the output module
is never touched.  Stage two trains a fresh output module on the link
features, read once; the input module stays frozen because no fit steps
it, and every read outside a training step runs on constants of the
parameter arrays, so no read changes the model.  An end-to-end baseline
trains the same backbone jointly.  Drivers for the label-efficiency and
proxy-versus-accuracy studies sit on top.

Every fit is a stack trained in lockstep, each member following the
trajectory it would follow alone: stage 1 steps K input modules of one
architecture, each on its own dataset (``train_input_stack``), and stage
2 K output heads sharing data, labels, config and feature width
(``train_output_stack``).  A model's own stage 1, its own output module
and a label budget are stacks of one.  A stage-1 stack splits into a
slice per CPU the process may use, all but the first trained in forked
children, with the same bits.  Training is deterministic given the seeds.
"""

from __future__ import annotations

import math
import os
import pickle
import time
import zlib
from dataclasses import asdict, dataclass, field

import numpy as np

from . import autodiff as ad
from . import proxies
from .datasets import Dataset
from .errors import (ConfigurationError, ContractError, DegenerateBatchError,
                     DivergenceError, IngestionError, WorkerError)
from .kernels import NONLINEARITIES, FeatureMap, gram_tensor
from .losses import LOSS_KINDS, make_loss, risk_tensor
from .serialize import (MODULE_FORMAT, check_fields, entries_to_params,
                        params_to_entries, ranged, validate_schema, write_csv)

TRACE_HEADER = ("stage", "epoch", "lr", "objective",
                "train_accuracy", "test_accuracy", "resamples")


@dataclass(frozen=True)
class ArchitectureSpec:
    """Layer widths of the two-module backbone.

    The input module is a fully-connected stack ending in ``latent_dim``
    pre-link activations; the output module is one affine map from the
    link features to ``output_width(loss)`` columns.
    """

    input_dim: int = ranged(minimum=1)
    hidden_widths: tuple = ranged((64,), items={"type": "integer", "minimum": 1})
    latent_dim: int = ranged(2, minimum=1)
    num_classes: int = ranged(2, minimum=2)
    hidden_nonlinearity: str = ranged("relu", enum=NONLINEARITIES)
    link_nonlinearity: str = ranged("tanh", enum=NONLINEARITIES)
    link_epsilon: float = ranged(1e-12, exclusiveMinimum=0)

    def __post_init__(self):
        check_fields(self, "architecture")

    def output_width(self, loss: str) -> int:
        """Columns of the output module under ``loss``: one score for a
        binary decomposable loss, one logit per class for ``"xe"``."""
        if loss == "xe":
            return self.num_classes
        if self.num_classes != 2:
            raise ConfigurationError(
                f"the binary loss {loss!r} needs 2 classes, got "
                f"{self.num_classes}")
        return 1

    def as_dict(self) -> dict:
        return dict(asdict(self), hidden_widths=list(self.hidden_widths))

    @classmethod
    def from_dict(cls, doc: dict) -> "ArchitectureSpec":
        doc = dict(doc)
        doc["hidden_widths"] = tuple(doc.get("hidden_widths", ()))
        return cls(**doc)


# One lr_schedule entry: [learning rate, epochs at that rate].
_LR_STEP = {"type": "array", "minItems": 2, "maxItems": 2, "prefixItems": [
    {"type": "number", "exclusiveMinimum": 0}, {"type": "integer", "minimum": 0}]}


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = ranged(128, minimum=2)
    lr_schedule: tuple = ranged(((0.1, 20), (0.01, 20), (0.001, 20)),
                                minItems=1, items=_LR_STEP)
    momentum: float = ranged(0.9, minimum=0, exclusiveMaximum=1)
    seed: int = ranged(0, minimum=0)
    proxy: str = ranged("nmse-neo", enum=proxies.PROXY_KINDS)
    loss: str = ranged("xe", enum=("xe", *LOSS_KINDS))
    trace_every: int = ranged(1, minimum=1)
    plateau_tol: float = ranged(1e-6, minimum=0)
    plateau_patience: int = ranged(5, minimum=1)
    resample_limit: int = ranged(100, minimum=0)

    def __post_init__(self):
        check_fields(self, "train")
        if self.total_epochs == 0:
            raise ConfigurationError(
                "train.lr_schedule: the epochs sum to 0; a schedule needs "
                "at least one epoch")

    @property
    def total_epochs(self) -> int:
        return sum(e for _, e in self.lr_schedule)

    @classmethod
    def from_dict(cls, doc: dict) -> "TrainConfig":
        doc = dict(doc)
        if "lr_schedule" in doc:
            doc["lr_schedule"] = tuple((float(lr), ep)
                                       for lr, ep in doc["lr_schedule"])
        return cls(**doc)


def _init_affine(rng: np.random.Generator, d_in: int, d_out: int) -> tuple:
    bound = 1.0 / np.sqrt(d_in)
    W = ad.Tensor(rng.uniform(-bound, bound, (d_in, d_out)), requires_grad=True)
    b = ad.Tensor(rng.uniform(-bound, bound, d_out), requires_grad=True)
    return W, b


def _affine_chain(x: ad.Tensor, params: list, nonlinearity: str) -> ad.Tensor:
    """``x`` through layers [W0, b0, W1, b1, ...], ``nonlinearity`` between."""
    for i in range(0, len(params), 2):
        kind = nonlinearity if i + 2 < len(params) else None
        x = ad.affine(x, params[i], params[i + 1], kind)
    return x


class AffineStack:
    """The (weight, bias) pairs of fully-connected layers."""

    def __init__(self, dims, rng: np.random.Generator):
        self.layers = [_init_affine(rng, dims[i], dims[i + 1])
                       for i in range(len(dims) - 1)]

    def params(self) -> list:
        return [t for pair in self.layers for t in pair]

    def named_params(self, prefix: str) -> list:
        out = []
        for i, (W, b) in enumerate(self.layers):
            out.append((f"{prefix}.{i}.weight", W))
            out.append((f"{prefix}.{i}.bias", b))
        return out


# A module checkpoint: an object of the module format, whose architecture
# fields ArchitectureSpec checks.
_CHECKPOINT_HEADER = {"type": "object", "required": [
    "format", "architecture", "tensors"], "properties": {
    "format": {"enum": [MODULE_FORMAT]},
    "architecture": {"type": "object"},
    "seed": {"type": "integer", "minimum": 0},
    "output_dim": {"type": ["integer", "null"], "minimum": 1},
    "tensors": {"type": "array", "items": {
        "type": "object", "required": ["name", "shape", "values"]}}}}


class TwoModuleModel:
    """input module -> link feature map -> affine output module."""

    def __init__(self, arch: ArchitectureSpec, seed: int = 0,
                 output_dim: int | None = None):
        self.arch = arch
        self.seed = seed
        rng = np.random.default_rng(seed)
        dims = [arch.input_dim, *arch.hidden_widths, arch.latent_dim]
        self.input_module = AffineStack(dims, rng)
        self.link = FeatureMap(nonlinearity=arch.link_nonlinearity,
                               epsilon=arch.link_epsilon)
        self.output_weight, self.output_bias = _init_affine(
            rng, arch.latent_dim,
            arch.num_classes if output_dim is None else output_dim)

    # -- forward ----------------------------------------------------------
    def pre_link(self, x: ad.Tensor) -> ad.Tensor:
        return _affine_chain(x, self.input_params(),
                             self.arch.hidden_nonlinearity)

    def forward(self, x: ad.Tensor) -> ad.Tensor:
        return ad.affine(self.link.apply_tensor(self.pre_link(x)),
                         self.output_weight, self.output_bias)

    def link_features_np(self, X: np.ndarray) -> np.ndarray:
        """The link features of ``X``, read forward-only."""
        return _read_link_features(self, X,
                                   [p.data for p in self.input_params()])

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

    def unfreeze_input(self) -> None:
        """No-op, bound only for the benchmark's train-wide pass
        (perfbench/workloads.py); it goes with that call (ROADMAP item 5)."""

    # -- checkpoint files --------------------------------------------------
    def to_checkpoint(self, meta: dict | None = None) -> dict:
        return {
            "format": MODULE_FORMAT,
            "architecture": self.arch.as_dict(),
            "output_dim": self.output_weight.data.shape[1],
            "seed": self.seed,
            "tensors": params_to_entries(self.named_params()),
            "meta": meta or {},
        }

    @classmethod
    def from_checkpoint(cls, doc: dict) -> "TwoModuleModel":
        try:
            validate_schema(doc, _CHECKPOINT_HEADER, "module checkpoint")
        except ConfigurationError as exc:
            raise IngestionError(str(exc)) from None
        try:
            arch = ArchitectureSpec.from_dict(doc["architecture"])
        except (TypeError, ConfigurationError) as exc:  # a bad field
            raise IngestionError(f"module checkpoint architecture: {exc}") from None
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


def _read_link_features(model: TwoModuleModel, X: np.ndarray,
                        arrays: list) -> np.ndarray:
    """The link features of ``X`` under input-module ``arrays`` (in
    ``input_params`` order), built on constants: no node keeps a graph."""
    acts = _affine_chain(ad.constant(X), [ad.constant(a) for a in arrays],
                         model.arch.hidden_nonlinearity)
    return model.link.apply_tensor(acts).data


@dataclass
class DynamicsTrace:
    """Per-checkpoint training records, plus 2-D link activations when the
    latent dimension is 2 (for scatter emission)."""

    rows: list = field(default_factory=list)
    activations: list = field(default_factory=list)

    def add(self, stage: str, epoch: int, lr: float, objective: float,
            train_acc: float, test_acc: float, resamples: int = 0,
            feats: np.ndarray | None = None) -> None:
        """Append a row; 2-D link features ``feats`` join the activations."""
        if self.rows and self.rows[-1]["stage"] == stage:
            if epoch <= self.rows[-1]["epoch"]:
                raise ConfigurationError("trace epochs must strictly increase")
        self.rows.append({
            "stage": stage, "epoch": epoch, "lr": lr, "objective": objective,
            "train_accuracy": train_acc, "test_accuracy": test_acc,
            "resamples": resamples,
        })
        if feats is not None and feats.shape[1] == 2:
            self.activations.append((epoch, feats))

    def to_csv(self, path) -> None:
        write_csv(path, TRACE_HEADER,
                  [[r[k] for k in TRACE_HEADER] for r in self.rows])

    def final(self, key: str):
        return self.rows[-1][key] if self.rows else None


def _predict(logits: np.ndarray) -> np.ndarray:
    """Class predictions; a one-column logit matrix is a binary score."""
    if logits.shape[1] == 1:
        return (logits[:, 0] > 0).astype(np.int64)
    return logits.argmax(axis=1)


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    if labels.size == 0:
        return float("nan")
    return float((_predict(logits) == labels).mean())


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
    of it, and then calls ``end_epoch(epochs_done, lr)``.  That returns
    None to go on, or the positions along the parameters' leading (stack)
    axis that go on, which drops the others with their gradients and
    velocities; an empty selection stops the fit.  A batch loss that is
    NaN or infinite stops it with a ``DivergenceError``.
    """
    opt = ad.SgdMomentum(params, cfg.lr_schedule[0][0], cfg.momentum)
    for epoch, lr in _schedule_epochs(cfg):
        opt.learning_rate = lr
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            loss = batch_loss(order[start:start + cfg.batch_size])
            if not math.isfinite(loss.item()):
                raise DivergenceError(
                    f"training diverged: the batch loss is {loss.item()} in "
                    f"epoch {epoch + 1}, at learning rate {lr}")
            opt.zero_grad()
            ad.backward(loss)
            opt.step()
        going_on = end_epoch(epoch + 1, lr)
        if going_on is not None:
            if not going_on.size:
                return
            opt.select(going_on)


def _trace_due(cfg: TrainConfig, done: int) -> bool:
    return done % cfg.trace_every == 0 or done == cfg.total_epochs


# ---------------------------------------------------------------------------
# stage one: proxy ascent on the input module
# ---------------------------------------------------------------------------

def train_input_module(model: TwoModuleModel, data: Dataset, cfg: TrainConfig,
                       checkpoint_epochs=None) -> tuple:
    """SGD ascent on the proxy; returns (trace, snapshots by epoch).

    ``checkpoint_epochs`` requests deep parameter snapshots after the given
    epoch counts (0 means the untouched initialization).  The module
    trains as a stack of one (``train_input_stack``).
    """
    return train_input_stack([model], [data], cfg, checkpoint_epochs)[0]


def train_input_stack(models, datasets, cfg: TrainConfig,
                      checkpoint_epochs=None) -> list:
    """Stage 1 of K input modules of one architecture, module k on
    ``datasets[k]``, in lockstep; returns one (trace, snapshots) per
    module, as ``train_input_module`` returns them.

    Each module draws its permutations and redraws from its own generator
    in its solo order.  At each batch position, each run of consecutive
    modules with batches of one row count takes one graph of stacked nodes
    (2-D for a run of one), one backward pass and one momentum step, so
    each module follows its solo trajectory bit for bit.  With K > 1 the
    modules' parameters become views of the stacked ones.  The first of
    ``stack_slices(K)`` trains here, and each other in a forked child,
    which sends back its modules' arrays and results, or its error.
    """
    model, count = models[0], len(models)
    if len(datasets) != count or any(m.arch != model.arch for m in models):
        raise ContractError("a stage-1 stack needs one architecture and one "
                            "dataset per module")
    proxies.validate_proxy_for_bounds(cfg.proxy, model.link.bounds()[1])
    (_, stop), *others = stack_slices(count)
    children = []
    try:
        for start, end in others:
            children.append(_fork_slice(models[start:end], datasets[start:end],
                                        cfg, checkpoint_epochs, start))
        results = _lockstep(models[:stop], datasets[:stop], cfg,
                            checkpoint_epochs)
    finally:  # every child is reaped, whatever this process raised
        sent = []
        for pid, read in children:
            with os.fdopen(read, "rb") as pipe:
                sent.append((pipe.read(), os.waitpid(pid, 0)[1]))
    for (start, end), (data, status) in zip(others, sent):
        if not data:
            raise WorkerError(f"the stage-1 worker of modules {start} to "
                              f"{end - 1} exited with code "
                              f"{os.waitstatus_to_exitcode(status)}, no result")
        trained, arrays = pickle.loads(data)
        if arrays is None:
            raise trained
        for p, array in zip((p for m in models[start:end]
                             for p in m.input_params()), arrays):
            p.data = array
        results += trained
    return results


def usable_cpus() -> int:
    """The CPUs this process may use; 1 without fork or sched_getaffinity."""
    forks = hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
    return len(os.sched_getaffinity(0)) if forks else 1


def stack_slices(count: int) -> list:
    """(start, stop) of each slice a stage-1 stack of ``count`` modules
    trains in: one per usable CPU, at most ``count``."""
    parts = min(count, usable_cpus())
    return [(count * i // parts, count * (i + 1) // parts)
            for i in range(parts)]


def _fork_slice(models, datasets, cfg: TrainConfig, checkpoint_epochs,
                offset: int) -> tuple:
    """Fork a child that trains a slice, module ``offset`` first, and pipes
    back (results, parameter arrays) or (its error, None) as one pickle;
    returns (pid, the pipe's read end)."""
    read, write = os.pipe()
    pid = os.fork()
    if pid:
        os.close(write)
        return pid, read
    try:  # the child leaves by os._exit: no atexit hook or stdio flush runs
        try:
            sent = (_lockstep(models, datasets, cfg, checkpoint_epochs, offset),
                    [p.data for m in models for p in m.input_params()])
        except Exception as error:
            sent = error, None
        with os.fdopen(write, "wb") as pipe:
            pipe.write(pickle.dumps(sent))
        os._exit(0)
    finally:
        os._exit(1)


def _lockstep(models, datasets, cfg: TrainConfig, checkpoint_epochs=None,
              offset: int = 0) -> list:
    """Stage 1 of a checked stack in this process, ``models[0]`` being
    module ``offset`` of the whole stack."""
    model, count = models[0], len(models)
    alpha, beta = model.link.bounds()
    params = model.input_params() if count == 1 else [
        ad.Tensor(np.array(arrays), requires_grad=True) for arrays in
        zip(*([p.data for p in m.input_params()] for m in models))]
    for k, m in enumerate(models if count > 1 else ()):
        for p, stacked in zip(m.input_params(), params):
            p.data = stacked.data[k]
    opt = ad.SgdMomentum(params, cfg.lr_schedule[0][0], cfg.momentum)
    rngs = [np.random.default_rng(cfg.seed) for _ in models]
    results = [(DynamicsTrace(), {}) for _ in models]

    def end_epoch(done: int, lr: float, resamples: list) -> None:
        for m, data, (trace, snapshots), redrawn in zip(
                models, datasets, results, resamples):
            if done in (checkpoint_epochs or ()):
                snapshots[done] = [p.data.copy() for p in m.input_params()]
            if done and _trace_due(cfg, done):
                feats = m.link_features_np(data.X_train)
                trace.add("input", done, lr, _features_proxy(
                    m.link, feats, data.y_train, cfg.proxy), float("nan"),
                    float("nan"), redrawn, feats)

    end_epoch(0, 0.0, [0] * count)
    for epoch, lr in _schedule_epochs(cfg):
        opt.learning_rate = lr
        orders = [rng.permutation(d.y_train.shape[0])
                  for rng, d in zip(rngs, datasets)]
        resamples = [0] * count
        for start in range(0, max(o.size for o in orders), cfg.batch_size):
            runs = []  # [(module, batch indices, pair partition)] each
            for k, (rng, data, order) in enumerate(zip(rngs, datasets, orders)):
                if start >= order.size:
                    continue
                idx, part, redrawn = _usable_batch(
                    rng, data.y_train, order[start:start + cfg.batch_size], cfg,
                    offset + k)
                resamples[k] += redrawn
                if runs and runs[-1][-1][0] == k - 1 and (
                        runs[-1][-1][1].size == idx.size):
                    runs[-1].append((k, idx, part))
                else:
                    runs.append([(k, idx, part)])
            for run in runs:
                (first, idx, part), size = run[0], len(run)
                sub = opt if size == count else opt.rows(
                    first if size == 1 else slice(first, first + size))
                X = datasets[first].X_train[idx]
                if size > 1:
                    X = np.array([datasets[k].X_train[i] for k, i, _ in run])
                    part = proxies.stack_partitions([p for _, _, p in run])
                acts = _affine_chain(ad.constant(X), sub.params,
                                     model.arch.hidden_nonlinearity)
                # The last graph lives until this one is built, so its
                # memory is reused rather than returned and faulted back.
                losses = ad.neg(proxies.proxy_tensor(
                    cfg.proxy, gram_tensor(model.link, acts), part, alpha,
                    beta))
                for (k, _, _), loss in zip(run, losses.data.flat):
                    if not math.isfinite(loss):
                        raise DivergenceError(
                            f"training diverged: module {offset + k}'s batch "
                            f"loss is {loss} in epoch {epoch + 1}, at learning "
                            f"rate {lr}")
                sub.zero_grad()
                ad.backward(losses if size == 1 else ad.tensor_sum(losses))
                sub.step()
        end_epoch(epoch + 1, lr, resamples)
    return results


def _usable_batch(rng, labels, idx, cfg: TrainConfig, module: int) -> tuple:
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
                f"module {module}: could not draw a batch with the pair "
                f"types {cfg.proxy!r} needs")
        idx = rng.choice(n, size=min(cfg.batch_size, n), replace=False)


def full_proxy_value(model: TwoModuleModel, X: np.ndarray, y: np.ndarray,
                     kind: str) -> float:
    return _features_proxy(model.link, model.link_features_np(X), y, kind)


def _features_proxy(link: FeatureMap, feats: np.ndarray, y: np.ndarray,
                    kind: str) -> float:
    """The ``kind`` proxy of the link features ``feats`` under labels
    ``y``; NaN when the labels lack a pair type it needs."""
    part = proxies.partition_pairs(y)
    if proxies.is_degenerate_for(kind, part):
        return float("nan")
    return proxies.feature_proxy_value(kind, feats, part, *link.bounds())


# ---------------------------------------------------------------------------
# stage two: overall-loss descent on the output module alone
# ---------------------------------------------------------------------------

def _output_loss(logits: ad.Tensor, labels: np.ndarray,
                 cfg: TrainConfig) -> ad.Tensor:
    """The stage-2 loss of n-by-C logits, or one per head of a stack."""
    if cfg.loss == "xe":
        return ad.cross_entropy_logits(logits, labels)
    return risk_tensor(make_loss(cfg.loss), logits, labels == 1)


def freeze_and_train_output(model: TwoModuleModel, data: Dataset,
                            cfg: TrainConfig) -> DynamicsTrace:
    """Reinitialize and train the output module on fixed link features.

    The features are read once, forward-only, and the module trains on
    them as a stack of one head (``train_output_stack``), which then
    becomes the model's output module.  The input module is left as it is.
    """
    width = model.arch.output_width(cfg.loss)
    traces, W, b = train_output_stack(
        model.link_features_np(data.X_train)[None], data.y_train,
        model.link_features_np(data.X_test)[None], data.y_test, width, cfg)
    model.output_weight, model.output_bias = (
        ad.Tensor(t[0], requires_grad=True) for t in (W, b))
    return traces[0]


def train_output_stack(feats_train: np.ndarray, y_train: np.ndarray,
                       feats_test: np.ndarray, y_test: np.ndarray,
                       width: int, cfg: TrainConfig) -> tuple:
    """Stage 2: fresh output heads of ``width`` columns on K frozen feature
    sets (K-by-n-by-d arrays sharing labels), fitted in lockstep by
    momentum SGD; one head is a stack of one.

    Every head starts from the same seed-derived init and sees the same
    batches.  A step descends the sum of the K batch losses, whose
    gradient with respect to head k is that head's own, so each head
    follows the trajectory it would follow alone.  After each epoch every
    head takes its full-train loss; one that has plateaued records its
    last trace row and leaves the stack.  Returns (one trace per head, the
    K-by-d-by-width weights, the K-by-width biases), in stack order.
    """
    count, _, dim = feats_train.shape
    rng = np.random.default_rng(_derived_seed(cfg.seed, "output-init"))
    W, b = (ad.Tensor(np.repeat(t.data[None], count, axis=0),
                      requires_grad=True)
            for t in _init_affine(rng, dim, width))
    traces = [DynamicsTrace() for _ in range(count)]
    weights, biases = np.empty_like(W.data), np.empty_like(b.data)
    heads = np.arange(count)  # the head at each stack position
    best = np.full(count, np.inf)
    stale = np.zeros(count, dtype=np.int64)

    def retire(positions) -> None:
        weights[heads[positions]] = W.data[positions]
        biases[heads[positions]] = b.data[positions]

    def batch_loss(idx):
        logits = ad.affine(ad.constant(feats_train.take(idx, axis=1)), W, b)
        return ad.tensor_sum(_output_loss(logits, y_train[idx], cfg))

    def end_epoch(done: int, lr: float):
        nonlocal heads, best, stale, feats_train, feats_test
        logits = ad.affine(ad.constant(feats_train), W, b)
        full = _output_loss(logits, y_train, cfg).data
        stale = np.where(best - full < cfg.plateau_tol, stale + 1, 0)
        stop = stale >= cfg.plateau_patience
        best = np.fmin(best, full)
        stopping, due = stop.any(), _trace_due(cfg, done)
        if stopping or due:
            test_logits = ad.affine(ad.constant(feats_test), W, b).data
            for i in np.flatnonzero(stop | due):
                traces[heads[i]].add(
                    "output", done, lr, float(full[i]),
                    accuracy(logits.data[i], y_train),
                    accuracy(test_logits[i], y_test))
        if not stopping:
            return None
        retire(stop)
        going_on = np.flatnonzero(~stop)
        heads, best, stale = heads[going_on], best[going_on], stale[going_on]
        feats_train, feats_test = feats_train[going_on], feats_test[going_on]
        return going_on

    rng = np.random.default_rng(_derived_seed(cfg.seed, "output-batches"))
    _fit([W, b], cfg, rng, feats_train.shape[1], batch_loss, end_epoch)
    retire(np.arange(heads.size))
    return traces, weights, biases


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

    def batch_loss(idx):
        return _output_loss(model.forward(ad.constant(data.X_train[idx])),
                            data.y_train[idx], cfg)

    def end_epoch(done: int, lr: float) -> None:
        if _trace_due(cfg, done):
            W, b = (ad.constant(t.data) for t in model.output_params())
            feats = model.link_features_np(data.X_train)
            logits = ad.affine(ad.constant(feats), W, b)
            test_logits = ad.affine(
                ad.constant(model.link_features_np(data.X_test)), W, b)
            trace.add("e2e", done, lr,
                      float(_output_loss(logits, data.y_train, cfg).item()),
                      accuracy(logits.data, data.y_train),
                      accuracy(test_logits.data, data.y_test), feats=feats)

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
    each budget fits a fresh output head (a stack of one) and returns
    test accuracy plus per-class recall; the model's own output module is
    left as it is.  Rows: dicts keyed budget/test_accuracy/recall.
    """
    n = data.X_train.shape[0]
    num_classes = data.num_classes
    check_budgets(label_budgets, n, num_classes, balanced)
    feats_train = model.link_features_np(data.X_train)
    feats_test = model.link_features_np(data.X_test)
    width = model.arch.output_width(cfg.loss)
    rows = []
    for budget in label_budgets:
        rng = np.random.default_rng(np.random.SeedSequence([seed, budget]))
        if budget == n:
            chosen = np.arange(n)
        elif balanced:
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
        _, W, b = train_output_stack(feats_train[None, chosen],
                                     data.y_train[chosen], feats_test[None],
                                     data.y_test, width, cfg)
        logits = feats_test @ W[0] + b[0]
        acc = accuracy(logits, data.y_test)
        pred = _predict(logits)
        recall = []
        for c in range(num_classes):
            mask = data.y_test == c
            recall.append(float((pred[mask] == c).mean()) if mask.any()
                          else float("nan"))
        rows.append({"budget": budget, "test_accuracy": acc,
                     "per_class_recall": recall})
    return rows


def check_budgets(budgets, train_count: int, num_classes: int,
                  balanced: bool) -> None:
    """Each label budget must fit the training split; balanced, it needs a
    label per class unless it takes the whole split."""
    least = num_classes if balanced else 1
    bad = [b for b in budgets
           if not (least <= b <= train_count or b == train_count > 0)]
    if bad:
        raise ConfigurationError(f"label_efficiency.budgets: {bad} lie outside "
                                 f"{least} to {train_count} (the training count)")


def check_checkpoints(checkpoint_epochs, cfg: TrainConfig) -> None:
    """Every checkpoint must be an epoch count of the stage-1 schedule."""
    outside = [e for e in checkpoint_epochs if not 0 <= e <= cfg.total_epochs]
    if outside:
        raise ConfigurationError(
            f"sweep.checkpoint_epochs: {outside} lie outside the stage-1 "
            f"schedule of {cfg.total_epochs} epochs")


def proxy_accuracy_sweep(model: TwoModuleModel, data: Dataset,
                         checkpoint_epochs, cfg: TrainConfig,
                         output_cfg: TrainConfig | None = None,
                         timing: dict | None = None) -> list:
    """Snapshot the input module along stage one; for each snapshot train a
    fresh output module to convergence and pair the proxy value with the
    best accuracy it reaches.  Rows: dicts keyed epoch/proxy/accuracy.

    The output modules of all snapshots train as one stack
    (``train_output_stack``).  ``timing``, when given, receives the
    seconds of stage 1 (``stage1_seconds``) and of everything after it
    (``stage2_seconds``).
    """
    checkpoint_epochs = list(checkpoint_epochs)
    check_checkpoints(checkpoint_epochs, cfg)
    output_cfg = output_cfg or cfg
    t0 = time.perf_counter()
    _, snapshots = train_input_module(model, data, cfg,
                                      checkpoint_epochs=checkpoint_epochs)
    t1 = time.perf_counter()
    values, feats_train, feats_test = [], [], []
    for epoch in checkpoint_epochs:
        snapshot = snapshots[epoch]
        feats_train.append(_read_link_features(model, data.X_train, snapshot))
        values.append(_features_proxy(model.link, feats_train[-1],
                                      data.y_train, cfg.proxy))
        feats_test.append(_read_link_features(model, data.X_test, snapshot))
    traces, _, _ = train_output_stack(
        np.stack(feats_train), data.y_train, np.stack(feats_test),
        data.y_test, model.arch.output_width(output_cfg.loss), output_cfg)
    rows = []
    for epoch, value, trace in zip(checkpoint_epochs, values, traces):
        best = max((r["test_accuracy"] for r in trace.rows
                    if not np.isnan(r["test_accuracy"])),
                   default=trace.final("train_accuracy"))
        rows.append({"epoch": epoch, "proxy": value, "accuracy": float(best)})
    if timing is not None:
        timing.update(stage1_seconds=t1 - t0,
                      stage2_seconds=time.perf_counter() - t1)
    return rows
