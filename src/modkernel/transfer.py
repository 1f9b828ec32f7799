"""Training-free reusability scoring of frozen pretrained input modules.

A candidate input module is scored on a target task by evaluating a
pairwise proxy objective on its frozen link features over a seeded
subsample of the target data; no parameter ever changes.  Candidates are
then ranked by score, and a retraining oracle (train a fresh output module
on each frozen candidate, all in one stack) provides the ground truth the
ranking is compared against via Spearman rank correlation.

Candidates score independently; report assembly is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .datasets import Dataset
from .errors import ContractError, DegenerateBatchError, DimensionError
from .proxies import (PROXY_KINDS, feature_proxy_value, is_degenerate_for,
                      partition_pairs)
# Unused here: bound only because the benchmark's span check requires
# these aliases (REQUIRED_ALIASES in perfbench/smoke.py).  They go when
# the benchmark drops them.
from .kernels import kernel_matrix  # noqa: F401
from .proxies import proxy_value  # noqa: F401
from .training import freeze_and_train_output  # noqa: F401
from .serialize import check_entries, read_json, write_csv, write_json
from .training import TrainConfig, TwoModuleModel, train_output_stack


@dataclass
class CandidateModule:
    """A frozen pretrained input module (with its link) plus provenance."""

    id: str
    model: TwoModuleModel
    source_task: str = ""

    @classmethod
    def from_checkpoint_file(cls, path, id: str | None = None) -> "CandidateModule":
        doc = read_json(path)
        model = TwoModuleModel.from_checkpoint(doc)
        meta = doc.get("meta", {})
        return cls(id=id or meta.get("id", str(path)),
                   model=model, source_task=meta.get("source_task", ""))

    def save(self, path) -> None:
        write_json(path, self.model.to_checkpoint(
            meta={"id": self.id, "source_task": self.source_task}))


# The scoring settings' (schema, default) entries, also in the config's
# 'transfer' section table and the score-transfer command line.
SCORING_FIELDS = {
    "proxy": ({"type": "string", "enum": PROXY_KINDS}, "al"),
    "subsample_fraction": (
        {"type": "number", "exclusiveMinimum": 0, "maximum": 1}, 0.1),
    "seed": ({"type": "integer", "minimum": 0}, 0),
}
SCORING_DEFAULTS = {key: default for key, (_, default) in SCORING_FIELDS.items()}

# Redraws of a degenerate scoring subsample before giving up.
SCORING_RETRIES = 20


def score_candidate(candidate: CandidateModule, target_data: Dataset,
                    proxy: str = SCORING_DEFAULTS["proxy"],
                    subsample_fraction: float = SCORING_DEFAULTS["subsample_fraction"],
                    seed: int = SCORING_DEFAULTS["seed"]) -> float:
    """Proxy value of the frozen module on a seeded target subsample.

    The proxy is read from the subsample's link features; their n-by-n
    kernel is never formed.  Degenerate subsamples (missing a pair type
    the proxy needs) are redrawn up to ``SCORING_RETRIES`` times before
    erroring, and the whole target at once.  No parameters change.
    """
    check_entries("transfer", {"proxy": proxy, "seed": seed,
                               "subsample_fraction": subsample_fraction},
                  SCORING_FIELDS)
    n = target_data.X_train.shape[0]
    if n < 2:
        raise DegenerateBatchError(
            f"scoring needs at least 2 target training examples, got {n}")
    alpha, beta = candidate.model.link.bounds()
    size = n if subsample_fraction >= 1.0 else max(
        2, int(round(subsample_fraction * n)))
    # The whole target is read in place, and draws nothing.
    rng = None if size == n else np.random.default_rng(seed)
    for _ in range(SCORING_RETRIES + 1):
        idx = slice(None) if rng is None else rng.choice(n, size=size,
                                                         replace=False)
        part = partition_pairs(target_data.y_train[idx])
        if not is_degenerate_for(proxy, part):
            feats = candidate.model.link_features_np(target_data.X_train[idx])
            return feature_proxy_value(proxy, feats, part, alpha, beta)
        if rng is None:
            raise DegenerateBatchError(
                f"the whole target lacks a pair type proxy {proxy!r} needs")
    raise DegenerateBatchError(
        f"no usable subsample for proxy {proxy!r} after {SCORING_RETRIES} retries")


@dataclass
class TransferReport:
    """Scores, ranks, optional oracle accuracies, and their agreement."""

    entries: list = field(default_factory=list)
    rank_correlation_value: float | None = None

    def as_dict(self) -> dict:
        return {"entries": self.entries,
                "rank_correlation": self.rank_correlation_value}

    def to_csv(self, path) -> None:
        header = ("id", "score", "rank", "oracle_accuracy", "oracle_rank")
        write_csv(path, header,
                  [[e.get(k) for k in header] for e in self.entries])

    def to_polar_csv(self, path) -> None:
        """One row per candidate: an angle slot and a radius where smaller
        means more transferable (radius = 1 - normalized score)."""
        ids = [e["id"] for e in self.entries]
        scores = np.array([e["score"] for e in self.entries])
        span = scores.max() - scores.min()
        radii = (1.0 - (scores - scores.min()) / span if span > 0
                 else np.full(len(ids), 0.5))
        order = np.argsort(ids)
        rows = []
        for slot, i in enumerate(order):
            angle = 360.0 * slot / len(ids)
            rows.append([ids[i], angle, float(radii[i]),
                         float(scores[i]), self.entries[i]["rank"]])
        write_csv(path, ("id", "angle_deg", "radius", "score", "rank"), rows)


def rank_candidates(scores: dict) -> TransferReport:
    """Descending score; ties broken by candidate id, lexicographically.
    A NaN or infinite score has no place in that order and is rejected."""
    if not scores:
        raise ContractError("need at least one candidate to rank")
    bad = [cid for cid, score in scores.items() if not np.isfinite(score)]
    if bad:
        raise ContractError(f"non-finite scores for candidates {bad}")
    ordered = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    report = TransferReport()
    for rank, (cid, score) in enumerate(ordered, start=1):
        report.entries.append({"id": cid, "score": float(score), "rank": rank,
                               "oracle_accuracy": None, "oracle_rank": None})
    return report


def attach_oracle(report: TransferReport, accuracies: dict) -> TransferReport:
    """Add retrain-oracle accuracies and ranks, then the rank agreement.

    Reported ranks break ties lexicographically; the correlation is taken
    on the raw values so genuine ties are averaged, not ordered by id.
    """
    ordered = sorted(accuracies.items(), key=lambda kv: (-kv[1], kv[0]))
    oracle_rank = {cid: rank for rank, (cid, _) in enumerate(ordered, start=1)}
    for entry in report.entries:
        entry["oracle_accuracy"] = float(accuracies[entry["id"]])
        entry["oracle_rank"] = oracle_rank[entry["id"]]
    if len(report.entries) >= 3:
        report.rank_correlation_value = rank_correlation(
            [-e["score"] for e in report.entries],
            [-e["oracle_accuracy"] for e in report.entries])
    return report


def retrain_oracle(candidates, target_data: Dataset,
                   cfg: TrainConfig) -> dict:
    """Held-out accuracy of a fresh output module, sized for the target's
    classes, trained on each frozen candidate: {id: accuracy}.

    The heads of candidates with equal link width train as one stack
    (``train_output_stack``), each as it would train alone.  Each
    candidate's link features are read; no candidate changes.
    """
    groups: dict[int, list] = {}
    for cand in candidates:
        groups.setdefault(cand.model.arch.latent_dim, []).append(cand)
    accuracies = {}
    for group in groups.values():
        arch = replace(group[0].model.arch, num_classes=target_data.num_classes)
        traces, _, _ = train_output_stack(
            np.stack([c.model.link_features_np(target_data.X_train)
                      for c in group]), target_data.y_train,
            np.stack([c.model.link_features_np(target_data.X_test)
                      for c in group]), target_data.y_test,
            arch.output_width(cfg.loss), cfg)
        for cand, trace in zip(group, traces):
            accuracies[cand.id] = float(trace.final("test_accuracy"))
    return {c.id: accuracies[c.id] for c in candidates}


def _average_ranks(values) -> np.ndarray:
    """1-based ranks, ties sharing their mean rank; each NaN ranks alone,
    after every number."""
    # return_index makes the sort stable, which orders the NaNs by position.
    _, _, inverse, counts = np.unique(
        np.asarray(values, dtype=np.float64), return_index=True,
        return_inverse=True, return_counts=True, equal_nan=False)
    ends = np.cumsum(counts)
    return ((ends - counts + ends - 1) / 2.0 + 1.0)[inverse]


def rank_correlation(first, second) -> float:
    """Spearman correlation of two rankings (ties get average ranks)."""
    first = np.asarray(first, dtype=np.float64)
    second = np.asarray(second, dtype=np.float64)
    if first.shape != second.shape:
        raise DimensionError(
            f"rank lists differ in length: {first.shape} vs {second.shape}")
    if first.ndim != 1 or first.shape[0] < 3:
        raise ContractError("rank correlation needs at least 3 entries")
    ra, rb = _average_ranks(first), _average_ranks(second)
    ra -= ra.mean()
    rb -= rb.mean()
    denom = np.sqrt((ra * ra).sum() * (rb * rb).sum())
    if denom == 0.0:
        return 0.0
    return float((ra * rb).sum() / denom)
