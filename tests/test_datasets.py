import struct

import numpy as np
import pytest

from modkernel.datasets import (DatasetSpec, make_dataset, read_idx_images,
                                read_idx_labels)
from modkernel.errors import ConfigurationError, IngestionError

from oracles import nearest_centroid_accuracy


class TestGeneratedDatasets:
    def test_random_label_deterministic_bytes(self):
        spec = DatasetSpec(kind="random-label", n=1000, d=32, num_classes=10,
                           seed=7, split_fraction=1.0)
        a, b = make_dataset(spec), make_dataset(spec)
        assert a.X_train.tobytes() == b.X_train.tobytes()
        assert a.y_train.tobytes() == b.y_train.tobytes()

    def test_blobs_separable_for_centroid_oracle(self):
        spec = DatasetSpec(kind="gaussian-blobs", n=400, d=8, num_classes=4,
                           seed=5, split_fraction=0.5)
        data = make_dataset(spec)
        assert nearest_centroid_accuracy(data.X_train, data.y_train,
                                         data.X_test, data.y_test) == 1.0

    def test_split_fraction(self):
        spec = DatasetSpec(kind="random-label", n=100, d=4, num_classes=2,
                           seed=0, split_fraction=0.8)
        data = make_dataset(spec)
        assert data.X_train.shape[0] == 80
        assert data.X_test.shape[0] == 20

    def test_different_seeds_differ(self):
        base = dict(kind="random-label", n=50, d=4, num_classes=2,
                    split_fraction=1.0)
        a = make_dataset(DatasetSpec(seed=1, **base))
        b = make_dataset(DatasetSpec(seed=2, **base))
        assert a.X_train.tobytes() != b.X_train.tobytes()

    def test_too_many_blob_classes_rejected(self):
        with pytest.raises(ConfigurationError, match="num_classes"):
            DatasetSpec(kind="gaussian-blobs", n=20, d=2, num_classes=10)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            DatasetSpec(kind="moons")

    def test_class_counts(self):
        spec = DatasetSpec(kind="gaussian-blobs", n=40, d=4, num_classes=4,
                           seed=0, split_fraction=1.0)
        counts = make_dataset(spec).class_counts()
        assert sum(counts.values()) == 40
        assert set(counts) == {0, 1, 2, 3}


class TestCsvIngestion:
    def test_reads_labeled_rows(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1.0,2.0,0\n3.0,4.0,1\n")
        spec = DatasetSpec(kind="csv-file", path=str(path), seed=0,
                           split_fraction=1.0)
        data = make_dataset(spec)
        assert data.X_train.shape == (2, 2)
        assert set(data.y_train) == {0, 1}

    def test_malformed_row_reports_byte_offset(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0,0\noops,4.0,1\n")
        with pytest.raises(IngestionError, match="byte offset 10"):
            make_dataset(DatasetSpec(kind="csv-file", path=str(path), seed=0))

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1.0,2.0,0\n1.0,1\n")
        with pytest.raises(IngestionError, match="expected 2"):
            make_dataset(DatasetSpec(kind="csv-file", path=str(path), seed=0))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_feature_reports_line_and_byte_offset(self, tmp_path,
                                                             value):
        path = tmp_path / "bad.csv"
        path.write_text(f"1.0,2.0,0\n3.0,4.0,1\n5.0,{value},0\n")
        with pytest.raises(IngestionError,
                           match=r"line 3 \(byte offset 20\) has a non-finite"):
            make_dataset(DatasetSpec(kind="csv-file", path=str(path), seed=0))

    def test_negative_label_reports_line_and_byte_offset(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0,0\n3.0,4.0,-1\n")
        with pytest.raises(IngestionError, match=r"line 2 \(byte offset 10\) "
                           "has a negative label -1"):
            make_dataset(DatasetSpec(kind="csv-file", path=str(path), seed=0))


def write_idx_pair(tmp_path, count=10, rows=4, cols=3,
                   magic_img=0x00000803, magic_lbl=0x00000801):
    rng = np.random.default_rng(0)
    pixels = rng.integers(0, 256, (count, rows, cols), dtype=np.uint8)
    labels = rng.integers(0, 3, count, dtype=np.uint8)
    img_path = tmp_path / "images.idx"
    lbl_path = tmp_path / "labels.idx"
    img_path.write_bytes(struct.pack(">IIII", magic_img, count, rows, cols)
                         + pixels.tobytes())
    lbl_path.write_bytes(struct.pack(">II", magic_lbl, count)
                         + labels.tobytes())
    return img_path, lbl_path, pixels, labels


class TestIdxIngestion:
    def test_roundtrip(self, tmp_path):
        img, lbl, pixels, labels = write_idx_pair(tmp_path)
        X = read_idx_images(img)
        y = read_idx_labels(lbl)
        assert X.shape == (10, 12)
        np.testing.assert_allclose(X, pixels.reshape(10, 12) / 255.0)
        np.testing.assert_array_equal(y, labels)

    def test_magic_mismatch(self, tmp_path):
        img, lbl, _, _ = write_idx_pair(tmp_path, magic_img=0x12345678)
        with pytest.raises(IngestionError, match="magic"):
            read_idx_images(img)

    def test_truncated_payload(self, tmp_path):
        img, _, _, _ = write_idx_pair(tmp_path)
        img.write_bytes(img.read_bytes()[:-5])
        with pytest.raises(IngestionError, match="expected"):
            read_idx_images(img)

    @pytest.mark.parametrize("which", ["images", "labels"])
    @pytest.mark.parametrize("fault", ["short-header", "magic", "payload"])
    def test_error_messages_carry_byte_offsets(self, tmp_path, which, fault):
        img, lbl, _, _ = write_idx_pair(tmp_path)
        path, header = (img, 16) if which == "images" else (lbl, 8)
        blob = path.read_bytes()
        if fault == "short-header":
            path.write_bytes(blob[:header - 1])
            message = "truncated idx header (byte offset 0)"
        elif fault == "magic":
            path.write_bytes(b"\0\0\x08\x02" + blob[4:])
            kind = "image" if which == "images" else "label"
            message = f"bad idx {kind} magic 0x00000802 (byte offset 0)"
        else:
            path.write_bytes(blob[:-5])
            message = (f"expected {len(blob)} bytes, found {len(blob) - 5} "
                       f"(byte offset {len(blob) - 5})")
        reader = read_idx_images if which == "images" else read_idx_labels
        with pytest.raises(IngestionError) as info:
            reader(path)
        assert str(info.value) == f"{path}: {message}"

    def test_full_dataset_load(self, tmp_path):
        img, lbl, _, labels = write_idx_pair(tmp_path)
        spec = DatasetSpec(kind="idx-file", path=str(img),
                           labels_path=str(lbl), seed=0, split_fraction=1.0)
        data = make_dataset(spec)
        assert data.X_train.shape[0] == 10

    def test_count_mismatch_between_files(self, tmp_path):
        img, _, _, _ = write_idx_pair(tmp_path)
        short = tmp_path / "short.idx"
        short.write_bytes(struct.pack(">II", 0x00000801, 3) + b"\0\1\2")
        with pytest.raises(IngestionError, match="mismatch"):
            make_dataset(DatasetSpec(kind="idx-file", path=str(img),
                                     labels_path=str(short), seed=0))
