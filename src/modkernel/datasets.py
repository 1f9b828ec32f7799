"""Dataset generation and ingestion.

Generated datasets are pure functions of their spec (seed included), so a
spec reproduces identical bytes on every machine.  Two file formats are
ingested: plain CSV (one example per row, label last) and the big-endian
magic/dims IDX format, so real digit datasets can be run optionally.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, IngestionError
from .serialize import check_fields, ranged

GENERATED_KINDS = ("random-label", "gaussian-blobs")
DATASET_KINDS = (*GENERATED_KINDS, "csv-file", "idx-file")


@dataclass(frozen=True)
class DatasetSpec:
    """``n`` and ``d`` size a generated kind (a file kind reads both);
    ``noise`` is the standard deviation around each blob mean."""

    kind: str = ranged(enum=DATASET_KINDS)
    n: int = ranged(0, minimum=0)
    d: int = ranged(0, minimum=0)
    num_classes: int = ranged(2, minimum=2)
    seed: int = ranged(0, minimum=0)
    split_fraction: float = ranged(0.8, exclusiveMinimum=0, maximum=1)
    separation: float = ranged(8.0, minimum=0)
    noise: float = ranged(1.0, minimum=0)
    path: str | None = None
    labels_path: str | None = None

    def __post_init__(self):
        check_fields(self, "dataset")
        if self.kind in GENERATED_KINDS and min(self.n, self.d) < 1:
            raise ConfigurationError(
                f"dataset.n and dataset.d must be at least 1 for kind "
                f"{self.kind!r}, got n={self.n}, d={self.d}")
        if self.kind == "gaussian-blobs" and self.num_classes > 2 * self.d:
            raise ConfigurationError(
                f"dataset.num_classes: {self.num_classes} blob classes need "
                f"d >= {(self.num_classes + 1) // 2}, got d={self.d}")


@dataclass
class Dataset:
    X_train: np.ndarray
    y_train: np.ndarray
    X_test: np.ndarray
    y_test: np.ndarray

    @property
    def num_classes(self) -> int:
        labels = self.y_train if self.y_test.size == 0 else np.concatenate(
            [self.y_train, self.y_test])
        return int(labels.max()) + 1 if labels.size else 0

    @property
    def dim(self) -> int:
        return self.X_train.shape[1]

    def class_counts(self) -> dict:
        values, counts = np.unique(self.y_train, return_counts=True)
        return {int(v): int(c) for v, c in zip(values, counts)}


def train_count(n: int, fraction: float) -> int:
    """How many of ``n`` examples the train split keeps."""
    return int(round(n * fraction))


def _split(X: np.ndarray, y: np.ndarray, fraction: float,
           rng: np.random.Generator) -> Dataset:
    n = X.shape[0]
    order = rng.permutation(n)
    cut = train_count(n, fraction)
    train, test = order[:cut], order[cut:]
    return Dataset(X[train], y[train], X[test], y[test])


def blob_means(num_classes: int, d: int, separation: float) -> np.ndarray:
    """Class centers at +-separation along distinct axes (2 per axis)."""
    means = np.zeros((num_classes, d))
    for c in range(num_classes):
        axis, sign = divmod(c, 2)
        means[c, axis] = separation * (1.0 if sign == 0 else -1.0)
    return means


def make_dataset(spec: DatasetSpec) -> Dataset:
    rng = np.random.default_rng(spec.seed)
    if spec.kind == "random-label":
        X = rng.standard_normal((spec.n, spec.d))
        y = rng.integers(0, spec.num_classes, spec.n)
        return _split(X, y, spec.split_fraction, rng)
    if spec.kind == "gaussian-blobs":
        means = blob_means(spec.num_classes, spec.d, spec.separation)
        y = rng.permutation(np.arange(spec.n) % spec.num_classes)
        X = means[y] + spec.noise * rng.standard_normal((spec.n, spec.d))
        return _split(X, y, spec.split_fraction, rng)
    if spec.kind == "csv-file":
        X, y = read_labeled_csv(spec.path)
        return _split(X, y, spec.split_fraction, rng)
    X = read_idx_images(spec.path)
    y = read_idx_labels(spec.labels_path)
    if X.shape[0] != y.shape[0]:
        raise IngestionError(
            f"idx pair mismatch: {X.shape[0]} images vs {y.shape[0]} labels")
    return _split(X, y, spec.split_fraction, rng)


def read_labeled_csv(path) -> tuple:
    """Rows of "v1,...,vd,label" with finite features and a label >= 0;
    errors carry the line and byte offset."""
    if path is None:
        raise ConfigurationError("csv-file dataset needs a path")
    rows, labels = [], []
    offset = 0
    width = None
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            text = raw.decode("utf-8", errors="replace").strip()
            if text:
                parts = text.split(",")
                try:
                    values = [float(v) for v in parts[:-1]]
                    label = int(parts[-1])
                except ValueError as exc:
                    raise IngestionError(
                        f"{path}: malformed row at line {line_no} "
                        f"(byte offset {offset}): {exc}") from None
                if width is None:
                    width = len(values)
                elif len(values) != width:
                    raise IngestionError(
                        f"{path}: row at line {line_no} (byte offset {offset}) "
                        f"has {len(values)} features, expected {width}")
                if not values:
                    raise IngestionError(
                        f"{path}: row at line {line_no} (byte offset {offset}) "
                        "has no feature columns")
                if not all(map(math.isfinite, values)):
                    raise IngestionError(
                        f"{path}: row at line {line_no} (byte offset {offset}) "
                        "has a non-finite feature")
                if label < 0:
                    raise IngestionError(
                        f"{path}: row at line {line_no} (byte offset {offset}) "
                        f"has a negative label {label}")
                rows.append(values)
                labels.append(label)
            offset += len(raw)
    if not rows:
        raise IngestionError(f"{path}: no data rows")
    return np.asarray(rows, dtype=np.float64), np.asarray(labels, dtype=np.int64)


_IDX_IMAGES_MAGIC = 0x00000803
_IDX_LABELS_MAGIC = 0x00000801


def _read_idx(path, magic: int, what: str) -> tuple:
    """(dimension sizes, uint8 body) of an IDX file whose magic number must
    be ``magic``; its last byte is the number of dimensions."""
    blob = Path(path).read_bytes()
    header = 4 * (1 + (magic & 0xFF))
    if len(blob) < header:
        raise IngestionError(f"{path}: truncated idx header (byte offset 0)")
    found, *dims = struct.unpack(f">{header // 4}I", blob[:header])
    if found != magic:
        raise IngestionError(
            f"{path}: bad idx {what} magic 0x{found:08x} (byte offset 0)")
    expected = header + math.prod(dims)
    if len(blob) != expected:
        raise IngestionError(
            f"{path}: expected {expected} bytes, found {len(blob)} "
            f"(byte offset {min(expected, len(blob))})")
    return dims, np.frombuffer(blob, dtype=np.uint8, offset=header)


def read_idx_images(path) -> np.ndarray:
    if path is None:
        raise ConfigurationError("idx-file dataset needs a path")
    (count, rows, cols), data = _read_idx(path, _IDX_IMAGES_MAGIC, "image")
    return data.reshape(count, rows * cols).astype(np.float64) / 255.0


def read_idx_labels(path) -> np.ndarray:
    if path is None:
        raise ConfigurationError("idx-file dataset needs a labels_path")
    _, data = _read_idx(path, _IDX_LABELS_MAGIC, "label")
    return data.astype(np.int64)
