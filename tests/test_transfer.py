import json
import tracemalloc

import numpy as np
import pytest

from modkernel.config import resolve_config
from modkernel.datasets import Dataset, DatasetSpec, make_dataset
from modkernel.errors import (ConfigurationError, ContractError,
                              DegenerateBatchError, DimensionError,
                              IngestionError)
from modkernel.kernels import FeatureMap, kernel_matrix
from modkernel.proxies import PROXY_KINDS
from modkernel.serialize import dump_json, write_json
from modkernel.training import (ArchitectureSpec, TrainConfig, TwoModuleModel,
                                freeze_and_train_output, full_proxy_value,
                                train_input_module)
from modkernel.transfer import (CandidateModule, _average_ranks, attach_oracle,
                                rank_candidates, rank_correlation,
                                retrain_oracle, score_candidate)

from oracles import (average_ranks_reference, proxy_reference,
                     spearman_from_ranks)


def target_blobs(seed=21):
    return make_dataset(DatasetSpec(kind="gaussian-blobs", n=160, d=6,
                                    num_classes=2, seed=seed,
                                    split_fraction=0.75))


def fresh_candidate(cid="cand", seed=0, trained_on=None):
    arch = ArchitectureSpec(input_dim=6, hidden_widths=(12,), latent_dim=2,
                            num_classes=2)
    model = TwoModuleModel(arch, seed=seed)
    if trained_on is not None:
        cfg = TrainConfig(batch_size=32, lr_schedule=((0.05, 20),),
                          momentum=0.9, seed=seed, proxy="nmse-neo",
                          loss="xe", trace_every=10)
        train_input_module(model, trained_on, cfg)
    return CandidateModule(id=cid, model=model, source_task="test")


class TestScoreCandidate:
    def test_same_seed_same_score(self):
        data = target_blobs()
        cand = fresh_candidate()
        a = score_candidate(cand, data, "al", subsample_fraction=1.0, seed=5)
        b = score_candidate(cand, data, "al", subsample_fraction=1.0, seed=5)
        assert a == b

    def test_collapsed_features_hit_worst_nmse_neo(self):
        data = target_blobs()
        cand = fresh_candidate()
        # zero weights, nonzero bias: every input maps to one unit vector
        for i, p in enumerate(cand.model.input_params()):
            p.data[...] = 0.0 if p.data.ndim == 2 else (i + 1.0)
        score = score_candidate(cand, data, "nmse-neo",
                                subsample_fraction=1.0, seed=0)
        alpha, beta = 1.0, -1.0
        assert score == pytest.approx(-(alpha - beta) ** 2, abs=1e-9)

    def test_pretrained_beats_random_init(self):
        data = target_blobs()
        trained = fresh_candidate("trained", seed=1, trained_on=data)
        random_c = fresh_candidate("random", seed=1)
        s_trained = score_candidate(trained, data, "al", 1.0, seed=0)
        s_random = score_candidate(random_c, data, "al", 1.0, seed=0)
        assert s_trained > s_random

    def test_never_mutates_candidate(self):
        data = target_blobs()
        cand = fresh_candidate()
        before = dump_json(cand.model.to_checkpoint())
        score_candidate(cand, data, "al", subsample_fraction=0.5, seed=3)
        assert dump_json(cand.model.to_checkpoint()) == before

    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_examples_is_degenerate(self, n):
        data = target_blobs()
        tiny = Dataset(data.X_train[:n], data.y_train[:n], data.X_test,
                       data.y_test)
        with pytest.raises(DegenerateBatchError, match="at least 2"):
            score_candidate(fresh_candidate(), tiny, "al", 0.5, seed=0)

    @pytest.mark.parametrize("n", [129, 300])
    def test_single_class_target_fails_after_its_retries(self, n):
        X = np.random.default_rng(n).standard_normal((n, 6))
        one_class = Dataset(X, np.zeros(n, dtype=np.int64), X[:0],
                            np.zeros(0, dtype=np.int64))
        with pytest.raises(DegenerateBatchError, match="after 20 retries"):
            score_candidate(fresh_candidate(), one_class, "al", 1.0, seed=0)

    @pytest.mark.parametrize("fraction", [0.0, -0.5, 1.5])
    def test_fraction_outside_unit_interval_rejected(self, fraction):
        with pytest.raises(ConfigurationError, match="subsample_fraction"):
            score_candidate(fresh_candidate(), target_blobs(), "al", fraction)

    def test_unknown_proxy_rejected(self):
        with pytest.raises(ConfigurationError, match="mmd"):
            score_candidate(fresh_candidate(), target_blobs(), "mmd", 1.0)

    @pytest.mark.parametrize("fraction", [0.0, 1.5])
    def test_config_rejects_fraction_outside_unit_interval(self, fraction):
        doc = {"experiment": "transferability",
               "transfer": {"source_tasks": [[0, 1]], "target_task": [0, 1],
                            "subsample_fraction": fraction}}
        with pytest.raises(ConfigurationError, match="subsample_fraction"):
            resolve_config(doc)

    def test_full_fraction_equals_full_kernel_matrix_value(self):
        """The whole target scores the kernel_matrix of its pre-link
        activations, to the exact sums over it (absolute for utal, whose
        value comes from cancelling sums)."""
        data = target_blobs()
        cand = fresh_candidate()
        score = score_candidate(cand, data, "utal", 1.0, seed=9)
        spec = FeatureMap("tanh")
        from modkernel.autodiff import constant
        acts = cand.model.pre_link(constant(data.X_train)).data
        K = kernel_matrix(spec, acts)
        want = proxy_reference("utal", K, data.y_train, 1.0, -1.0)
        assert score == pytest.approx(want, rel=0, abs=1e-13)


class TestScoringMemory:
    N = 1000

    @pytest.fixture(scope="class")
    def target(self):
        return make_dataset(DatasetSpec(kind="gaussian-blobs", n=self.N, d=6,
                                        num_classes=2, seed=3,
                                        split_fraction=1.0))

    @pytest.mark.parametrize("scorer", ["score_candidate", "full_proxy_value"])
    @pytest.mark.parametrize("kind", PROXY_KINDS)
    def test_peak_under_a_quarter_of_a_kernel_matrix(self, target, kind,
                                                     scorer):
        """Scoring holds the link features and their class moments, and
        never forms the n-by-n kernel."""
        model = fresh_candidate().model
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            if scorer == "score_candidate":
                score_candidate(CandidateModule(id="c", model=model), target,
                                kind, subsample_fraction=1.0, seed=0)
            else:
                full_proxy_value(model, target.X_train, target.y_train, kind)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * self.N ** 2 * 8, f"{kind}: peak {peak} bytes"


class TestRanking:
    def test_single_candidate(self):
        report = rank_candidates({"only": 0.3})
        assert report.entries[0]["rank"] == 1

    def test_ties_break_lexicographically(self):
        report = rank_candidates({"b": 0.5, "a": 0.5, "c": 0.9})
        assert [e["id"] for e in report.entries] == ["c", "a", "b"]

    def test_three_scores(self):
        report = rank_candidates({"x": 0.9, "y": 0.1, "z": 0.5})
        ranks = {e["id"]: e["rank"] for e in report.entries}
        assert ranks == {"x": 1, "z": 2, "y": 3}

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            rank_candidates({})

    @pytest.mark.parametrize("bad, value", [
        ("a", float("nan")), ("b", float("nan")), ("b", float("inf")),
        ("b", float("-inf")),
    ], ids=["nan-first", "nan-middle", "inf", "-inf"])
    def test_non_finite_score_rejected(self, bad, value):
        """A non-finite score raises, naming its candidate, wherever it
        falls in the input order."""
        scores = {"a": 0.5, "b": 0.6, "c": 0.7}
        scores[bad] = value
        with pytest.raises(ContractError, match=f"'{bad}'"):
            rank_candidates(scores)

    def test_rank_invariant_under_increasing_transform(self):
        scores = {"a": 0.2, "b": 1.4, "c": -0.3, "d": 0.9}
        base = rank_candidates(scores)
        squashed = rank_candidates({k: np.tanh(v) for k, v in scores.items()})
        assert ([e["id"] for e in base.entries]
                == [e["id"] for e in squashed.entries])

    def test_report_csvs(self, tmp_path):
        report = rank_candidates({"a": 1.0, "b": 0.0, "c": 0.5})
        report = attach_oracle(report, {"a": 0.9, "b": 0.4, "c": 0.6})
        report.to_csv(tmp_path / "r.csv")
        report.to_polar_csv(tmp_path / "p.csv")
        lines = (tmp_path / "r.csv").read_text().splitlines()
        assert lines[0] == "id,score,rank,oracle_accuracy,oracle_rank"
        polar = (tmp_path / "p.csv").read_text().splitlines()
        assert polar[0] == "id,angle_deg,radius,score,rank"
        assert len(polar) == 4
        assert report.rank_correlation_value == pytest.approx(1.0)


class TestRetrainOracle:
    def test_identical_candidates_identical_accuracy(self):
        data = target_blobs()
        cfg = TrainConfig(batch_size=32, lr_schedule=((0.1, 15),),
                          momentum=0.9, seed=4, proxy="al", loss="xe",
                          trace_every=5)
        c1 = fresh_candidate("one", seed=6)
        c2 = fresh_candidate("two", seed=6)
        together = retrain_oracle([c1, c2], data, cfg)
        assert together["one"] == together["two"]
        assert (retrain_oracle([c1], data, cfg)["one"]
                == retrain_oracle([c2], data, cfg)["two"] == together["one"])

    def test_candidate_parameters_survive_oracle(self):
        data = target_blobs()
        cfg = TrainConfig(batch_size=32, lr_schedule=((0.1, 10),),
                          momentum=0.9, seed=4, proxy="al", loss="xe",
                          trace_every=5)
        cand = fresh_candidate("keep", seed=8)
        before = dump_json(cand.model.to_checkpoint())
        retrain_oracle([cand], data, cfg)
        assert dump_json(cand.model.to_checkpoint()) == before

    def test_trained_candidate_within_a_point_of_source_model(self):
        data = target_blobs(seed=33)
        cand = fresh_candidate("self", seed=2, trained_on=data)
        cfg = TrainConfig(batch_size=32, lr_schedule=((0.1, 30), (0.01, 10)),
                          momentum=0.9, seed=2, proxy="nmse-neo", loss="xe",
                          trace_every=10)
        from modkernel.training import freeze_and_train_output
        trace = freeze_and_train_output(cand.model, data, cfg)
        direct = trace.final("test_accuracy")
        oracle = retrain_oracle([cand], data, cfg)["self"]
        assert abs(direct - oracle) <= 0.01 + 1e-12

    @pytest.mark.parametrize("loss", ["xe2", "tanh-mse", "hinge"])
    def test_binary_loss_on_two_class_target(self, loss):
        """A binary decomposable loss trains a one-column head, matches
        stage 2 on an equal model, and leaves the candidate as is."""
        data = target_blobs()
        cfg = TrainConfig(batch_size=32, lr_schedule=((0.1, 10),),
                          momentum=0.9, seed=4, proxy="al", loss=loss,
                          trace_every=5)
        cand = fresh_candidate("bin", seed=8)
        before = dump_json(cand.model.to_checkpoint())
        oracle = retrain_oracle([cand], data, cfg)["bin"]
        assert dump_json(cand.model.to_checkpoint()) == before
        twin = fresh_candidate("twin", seed=8).model
        trace = freeze_and_train_output(twin, data, cfg)
        assert twin.output_weight.data.shape == (2, 1)
        assert oracle == trace.final("test_accuracy")

    def test_head_counts_the_target_classes(self):
        """The head is sized for the target, not the source."""
        data = make_dataset(DatasetSpec(kind="gaussian-blobs", n=120, d=6,
                                        num_classes=3, seed=2))
        cfg = TrainConfig(batch_size=32, lr_schedule=((0.1, 5),), seed=1,
                          loss="xe", trace_every=5)
        assert 0.0 <= retrain_oracle([fresh_candidate()], data,
                                     cfg)["cand"] <= 1.0
        with pytest.raises(ConfigurationError, match="'hinge'.*3"):
            retrain_oracle([fresh_candidate()], data,
                           TrainConfig(batch_size=32, lr_schedule=((0.1, 5),),
                                       loss="hinge"))


class TestLockstepOracle:
    """retrain_oracle's stacked heads against one-at-a-time stage-2 fits
    on copies of the candidates."""

    @staticmethod
    def _candidates(data):
        cands = []
        for i, latent in enumerate((2, 3, 2, 3, 2)):
            arch = ArchitectureSpec(input_dim=6, hidden_widths=(12,),
                                    latent_dim=latent, num_classes=2)
            model = TwoModuleModel(arch, seed=i)
            cfg = TrainConfig(batch_size=32, lr_schedule=((0.05, 2 * i),),
                              seed=i, proxy="nmse-neo", trace_every=10)
            train_input_module(model, data, cfg)
            cands.append(CandidateModule(id=f"c{i}", model=model))
        return cands

    @staticmethod
    def _serial(cands, data, cfg):
        accuracies, stops = {}, {}
        for cand in cands:
            model = TwoModuleModel.from_checkpoint(cand.model.to_checkpoint())
            trace = freeze_and_train_output(model, data, cfg)
            accuracies[cand.id] = trace.final("test_accuracy")
            stops[cand.id] = trace.final("epoch")
        return accuracies, stops

    @pytest.mark.parametrize("loss,patience", [
        ("xe", 2), ("xe", 10 ** 6), ("xe2", 2), ("tanh-mse", 2),
        ("hinge", 2)])
    def test_matches_serial_fits_and_keeps_candidates(self, loss, patience):
        source, target = target_blobs(seed=5), target_blobs(seed=33)
        cands = self._candidates(source)
        before = [dump_json(c.model.to_checkpoint()) for c in cands]
        cfg = TrainConfig(batch_size=32, lr_schedule=((0.1, 20), (0.01, 10)),
                          seed=3, proxy="al", loss=loss, trace_every=10,
                          plateau_patience=patience, plateau_tol=1e-3)
        oracle = retrain_oracle(cands, target, cfg)
        assert [dump_json(c.model.to_checkpoint()) for c in cands] == before
        want, stops = self._serial(cands, target, cfg)
        assert list(oracle) == [c.id for c in cands]
        assert oracle == want
        if loss == "xe" and patience == 2:  # heads left the stack apart
            assert len(set(stops.values())) > 1


class TestRankCorrelation:
    def test_identical(self):
        assert rank_correlation([1, 2, 3, 4], [1, 2, 3, 4]) == pytest.approx(1.0)

    def test_reversed(self):
        assert rank_correlation([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0)

    def test_hand_spearman_value(self):
        assert rank_correlation([1, 2, 3], [1, 3, 2]) == pytest.approx(0.5)
        assert spearman_from_ranks([1, 2, 3], [1, 3, 2]) == pytest.approx(0.5)

    def test_matches_classic_formula_on_permutations(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = rng.permutation(6) + 1
            b = rng.permutation(6) + 1
            assert rank_correlation(a, b) == pytest.approx(
                spearman_from_ranks(a, b), abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            rank_correlation([1, 2, 3], [1, 2])

    def test_too_short(self):
        with pytest.raises(ContractError):
            rank_correlation([1, 2], [2, 1])

    def test_average_ranks_match_loop_oracle(self):
        """Bit for bit, on vectors with ties, signed zeros, infinities and
        several NaNs."""
        rng = np.random.default_rng(11)
        for trial in range(300):
            n = int(rng.integers(1, 60))
            values = (rng.integers(-3, 4, n).astype(np.float64) if trial % 2
                      else rng.standard_normal(n))
            values[rng.random(n) < 0.15] = np.nan
            values[rng.random(n) < 0.1] = -0.0
            values[rng.random(n) < 0.05] = np.inf
            assert (_average_ranks(values).tobytes()
                    == average_ranks_reference(values).tobytes()), values


class TestCheckpointFiles:
    def test_candidate_roundtrip(self, tmp_path):
        cand = fresh_candidate("disk", seed=5)
        path = tmp_path / "cand.json"
        cand.save(path)
        loaded = CandidateModule.from_checkpoint_file(path)
        assert loaded.id == "disk"
        assert dump_json(loaded.model.to_checkpoint()) == dump_json(
            cand.model.to_checkpoint())

    @pytest.mark.parametrize("fault", ["missing", "shape", "count", "nan",
                                       "inf"])
    def test_bad_tensor_rejected_by_name(self, tmp_path, fault):
        """A missing tensor, one whose shape is not the architecture's or
        does not fit its values, and a non-finite value all fail to load."""
        doc = fresh_candidate().model.to_checkpoint()
        entry = doc["tensors"][2]
        assert entry["name"] == "input.1.weight" and entry["shape"] == [12, 2]
        if fault == "missing":
            del doc["tensors"][2]
        elif fault == "shape":
            entry["shape"] = [2, 12]
        elif fault == "count":
            entry["values"].pop()
        else:
            entry["values"][5] = float(fault)
        path = tmp_path / "bad.json"
        write_json(path, doc)
        with pytest.raises(IngestionError, match="'input.1.weight'"):
            CandidateModule.from_checkpoint_file(path)

    @pytest.mark.parametrize("values", [
        ["a"] * 24, None, [[0.5] * 2] * 12, [[0.5] * 2] * 11 + [[0.5]]],
        ids=["string", "null", "nested", "ragged"])
    def test_non_numeric_values_rejected_by_name(self, tmp_path, values):
        """Values that are not a flat list of numbers fail to load with a
        typed error, even where they would fill the declared shape."""
        doc = fresh_candidate().model.to_checkpoint()
        entry = doc["tensors"][2]
        assert entry["name"] == "input.1.weight" and entry["shape"] == [12, 2]
        entry["values"] = values
        path = tmp_path / "bad.json"
        write_json(path, doc)
        with pytest.raises(IngestionError, match="'input.1.weight'"):
            CandidateModule.from_checkpoint_file(path)

    @pytest.mark.parametrize("shape", ["ab", None, 3, [2.0], [True, 2],
                                       [-1, -2]],
                             ids=["string", "null", "int", "float", "bool",
                                  "negative"])
    def test_malformed_shape_rejected_by_name(self, tmp_path, shape):
        """A shape that is not a list of integers >= 0 fails to load with a
        typed error, before any count or reshape reads it."""
        doc = fresh_candidate().model.to_checkpoint()
        entry = doc["tensors"][2]
        assert entry["name"] == "input.1.weight"
        entry["shape"] = shape
        path = tmp_path / "bad.json"
        write_json(path, doc)
        with pytest.raises(IngestionError, match="'input.1.weight' shape"):
            CandidateModule.from_checkpoint_file(path)

    @pytest.mark.parametrize("fault", ["missing", "null", "list",
                                       "unknown-field", "missing-field"])
    def test_bad_architecture_rejected(self, tmp_path, fault):
        """A header without an architecture object, or with an unknown or
        missing field, fails to load with a typed error."""
        doc = fresh_candidate().model.to_checkpoint()
        if fault == "missing":
            del doc["architecture"]
        elif fault == "null":
            doc["architecture"] = None
        elif fault == "list":
            doc["architecture"] = [6, 12, 2]
        elif fault == "unknown-field":
            doc["architecture"]["depth"] = 3
        else:
            del doc["architecture"]["input_dim"]
        path = tmp_path / "bad.json"
        write_json(path, doc)
        with pytest.raises(IngestionError, match="architecture"):
            CandidateModule.from_checkpoint_file(path)

    @pytest.mark.parametrize("fault", ["output_dim-str", "output_dim-negative",
                                       "seed-negative", "tensors-null",
                                       "entry-without-shape"])
    def test_bad_header_value_rejected(self, tmp_path, fault):
        """Header values of the wrong type or range fail to load with a
        typed error that names the field."""
        doc = fresh_candidate().model.to_checkpoint()
        field = fault.split("-")[0]
        if fault == "output_dim-str":
            doc["output_dim"] = "x"
        elif fault == "output_dim-negative":
            doc["output_dim"] = -1
        elif fault == "seed-negative":
            doc["seed"] = -3
        elif fault == "tensors-null":
            doc["tensors"] = None
        else:
            del doc["tensors"][1]["shape"]
            field = "shape"
        path = tmp_path / "bad.json"
        write_json(path, doc)
        with pytest.raises(IngestionError, match=field):
            CandidateModule.from_checkpoint_file(path)

    @pytest.mark.parametrize("field,value", [
        ("input_dim", "3"), ("latent_dim", 0), ("hidden_widths", [0]),
        ("num_classes", 1), ("hidden_nonlinearity", "foo"),
        ("link_nonlinearity", "foo"), ("link_epsilon", 0.0)])
    def test_bad_architecture_value_rejected(self, tmp_path, field, value):
        doc = fresh_candidate().model.to_checkpoint()
        doc["architecture"][field] = value
        path = tmp_path / "bad.json"
        write_json(path, doc)
        with pytest.raises(IngestionError, match="architecture"):
            CandidateModule.from_checkpoint_file(path)

    def test_bad_format_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(IngestionError):
            CandidateModule.from_checkpoint_file(path)
