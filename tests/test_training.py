import os
import tracemalloc

import numpy as np
import pytest

import modkernel.autodiff as ad
from modkernel import proxies, training
from modkernel.datasets import Dataset, DatasetSpec, make_dataset
from modkernel.errors import (ConfigurationError, ContractError,
                              DegenerateBatchError, DivergenceError,
                              WorkerError)
from modkernel.kernels import FeatureMap, kernel_matrix
from modkernel.losses import make_loss, risk
from modkernel.training import (ArchitectureSpec, TrainConfig, TwoModuleModel,
                                accuracy, freeze_and_train_output,
                                label_efficiency_run, proxy_accuracy_sweep,
                                train_end_to_end, train_input_module,
                                train_input_stack, train_output_stack,
                                full_proxy_value, TRACE_HEADER)

from oracles import (one_head_stage_two, one_module_stage_one,
                     proxy_references)


def blob_data(n=200, d=6, classes=4, seed=3, split=0.75):
    return make_dataset(DatasetSpec(kind="gaussian-blobs", n=n, d=d,
                                    num_classes=classes, seed=seed,
                                    split_fraction=split))


def small_arch(d=6, latent=3, classes=4):
    return ArchitectureSpec(input_dim=d, hidden_widths=(16,),
                            latent_dim=latent, num_classes=classes)


def quick_cfg(**kw):
    defaults = dict(batch_size=32, lr_schedule=((0.05, 8),), momentum=0.9,
                    seed=1, proxy="nmse-neo", loss="xe", trace_every=4)
    defaults.update(kw)
    return TrainConfig(**defaults)


def param_bytes(params):
    return [p.data.tobytes() for p in params]


def record_link_maps(monkeypatch):
    """Patch ``FeatureMap.apply_tensor`` to log each (input, output) pair."""
    maps = []
    apply_tensor = FeatureMap.apply_tensor

    def recorded(self, x):
        out = apply_tensor(self, x)
        maps.append((x, out))
        return out

    monkeypatch.setattr(FeatureMap, "apply_tensor", recorded)
    return maps


class TestForwardOnlyReads:
    @pytest.mark.parametrize("requires_grad", [True, False])
    def test_feature_read_records_no_graph(self, monkeypatch, requires_grad):
        """link_features_np builds constant nodes only: no node keeps
        parents or a backward rule, whatever the parameters require."""
        model = TwoModuleModel(small_arch(), seed=0)
        for p in model.input_params():
            p.requires_grad = requires_grad
        maps = record_link_maps(monkeypatch)
        feats = model.link_features_np(blob_data().X_train)
        [(acts, out)] = maps
        assert feats is out.data
        for node in (acts, out):
            assert not node.requires_grad
            assert node._parents == () and node._backward is None

    def test_read_holds_one_hidden_layer_array(self):
        """Each affine layer adds its bias and applies its nonlinearity
        in its product's buffer: reading n = 3000 rows through one 64-wide
        relu layer peaks below 1.5 hidden-layer arrays."""
        n, width = 3000, 64
        model = TwoModuleModel(ArchitectureSpec(
            input_dim=12, hidden_widths=(width,), latent_dim=2), seed=0)
        X = np.random.default_rng(0).standard_normal((n, 12))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            model.link_features_np(X)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * n * width * 8, f"peak {peak} bytes"

    @pytest.mark.parametrize("train", [train_input_module, train_end_to_end])
    def test_one_full_train_read_per_traced_epoch(self, monkeypatch, train):
        """A traced epoch maps the training set through the link once;
        that read gives both the objective and the activations."""
        data = blob_data(classes=2)
        maps = record_link_maps(monkeypatch)
        model = TwoModuleModel(small_arch(latent=2, classes=2), seed=0)
        out = train(model, data, quick_cfg(lr_schedule=((0.05, 4),),
                                           trace_every=1))
        trace = out[0] if isinstance(out, tuple) else out
        full = [y for x, y in maps if x.shape[0] == data.X_train.shape[0]]
        assert len(trace.activations) == len(full) == 4
        for (_, feats), node in zip(trace.activations, full):
            assert feats is node.data

    def test_end_to_end_trains_after_label_budgets(self):
        """Label-budget heads leave no state on the model, so the same
        model then trains end to end with a finite trace."""
        data = blob_data()
        model = TwoModuleModel(small_arch(), seed=0)
        train_input_module(model, data, quick_cfg())
        label_efficiency_run(model, data, [8], True, 0, quick_cfg())
        before = param_bytes(model.input_params())
        trace = train_end_to_end(model, data, quick_cfg())
        assert trace.rows
        assert np.isfinite([r["objective"] for r in trace.rows]).all()
        assert param_bytes(model.input_params()) != before


class TestTrainInputModule:
    def test_zero_epochs_leaves_params_untouched(self):
        """The epoch-0 snapshot is the initialization, and a schedule step
        of zero epochs trains nothing: the bits match the schedule
        without it."""
        data = blob_data()
        runs = []
        for schedule in (((0.1, 0), (0.05, 8)), ((0.05, 8),)):
            model = TwoModuleModel(small_arch(), seed=0)
            before = param_bytes(model.input_params())
            _, snaps = train_input_module(model, data,
                                          quick_cfg(lr_schedule=schedule),
                                          checkpoint_epochs=[0])
            assert [s.tobytes() for s in snaps[0]] == before
            runs.append(param_bytes(model.params()))
        assert runs[0] == runs[1]

    def test_two_class_blobs_reach_near_maximal_proxy(self):
        data = blob_data(n=120, classes=2, seed=5)
        model = TwoModuleModel(small_arch(classes=2, latent=2), seed=0)
        cfg = quick_cfg(lr_schedule=((0.05, 30), (0.01, 10)))
        train_input_module(model, data, cfg)
        value = full_proxy_value(model, data.X_train, data.y_train, "nmse-neo")
        assert value >= -0.05

    def test_fixed_seed_is_deterministic(self):
        data = blob_data()
        runs = []
        for _ in range(2):
            model = TwoModuleModel(small_arch(), seed=0)
            trace, _ = train_input_module(model, data, quick_cfg())
            runs.append((param_bytes(model.params()),
                         [r["objective"] for r in trace.rows]))
        assert runs[0] == runs[1]

    def test_output_module_untouched_during_stage_one(self):
        data = blob_data()
        model = TwoModuleModel(small_arch(), seed=0)
        before = param_bytes(model.output_params())
        train_input_module(model, data, quick_cfg())
        assert param_bytes(model.output_params()) == before

    def test_neo_proxy_with_relu_link_rejected(self):
        data = blob_data()
        arch = ArchitectureSpec(input_dim=6, hidden_widths=(16,), latent_dim=3,
                                num_classes=4, link_nonlinearity="relu")
        model = TwoModuleModel(arch, seed=0)
        with pytest.raises(ConfigurationError):
            train_input_module(model, data, quick_cfg(proxy="nmse-neo"))

    def test_checkpoint_snapshots(self):
        data = blob_data()
        model = TwoModuleModel(small_arch(), seed=0)
        init = [p.data.copy() for p in model.input_params()]
        _, snaps = train_input_module(model, data, quick_cfg(),
                                      checkpoint_epochs=[0, 3, 8])
        assert set(snaps) == {0, 3, 8}
        for a, b in zip(snaps[0], init):
            np.testing.assert_array_equal(a, b)


def _binary_task(n, seed, single_class=False):
    """n two-class training rows in two shifted clouds (one class only
    when ``single_class``), and as many test rows."""
    rng = np.random.default_rng(seed)
    y = np.zeros(n, dtype=np.int64) if single_class else np.arange(n) % 2
    X = rng.standard_normal((n, 6)) + 1.5 * y[:, None]
    return Dataset(X, y, X.copy(), y.copy())


def _row_bits(rows):
    """Trace rows with every float as its bits, so NaN equals NaN."""
    return [{key: float.hex(value) if isinstance(value, float) else value
             for key, value in row.items()} for row in rows]


def _same_stage_one(models_a, results_a, models_b, results_b, checkpoints):
    """Parameters, trace rows (NaN-aware, resamples included), snapshots
    and activations of two stage-1 runs, byte for byte."""
    for a, b, (trace_a, snaps_a), (trace_b, snaps_b) in zip(
            models_a, models_b, results_a, results_b, strict=True):
        assert param_bytes(a.params()) == param_bytes(b.params())
        assert _row_bits(trace_a.rows) == _row_bits(trace_b.rows)
        assert set(snaps_a) == set(snaps_b) == set(checkpoints)
        for epoch in checkpoints:
            assert param_bytes(snaps_a[epoch]) == param_bytes(snaps_b[epoch])
        assert [(e, f.tobytes()) for e, f in trace_a.activations] == [
            (e, f.tobytes()) for e, f in trace_b.activations]


def _cpus(monkeypatch, count):
    """Let the stage-1 stack see ``count`` usable CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


class TestInputStack:
    """Stage 1 of K modules in lockstep against each module trained alone.

    At batch 16 the three tasks have 40, 49 and 48 training rows.  At
    position 32 the first has a ragged batch of 8 rows, a run of one,
    and the other two a run of two full batches.  The second task's last
    batch has 1 row, which lacks an inter-class pair, so it is redrawn in
    every epoch, and then trains alone at position 48.

    On a machine with two or more CPUs the stack splits into forked
    slices; after every test here no child process is left."""

    SIZES = (40, 49, 48)
    CHECKPOINTS = [0, 2, 5]

    @pytest.fixture(autouse=True)
    def no_child_left(self):
        yield
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def _cfg(self, proxy="nmse-neo", **kw):
        return quick_cfg(batch_size=16, lr_schedule=((0.05, 3), (0.01, 2)),
                         proxy=proxy, **{"trace_every": 2, **kw})

    def _setup(self, sizes=SIZES):
        tasks = [_binary_task(n, seed) for seed, n in enumerate(sizes)]
        models = [TwoModuleModel(small_arch(latent=2, classes=2), seed=seed)
                  for seed in range(len(tasks))]
        return models, tasks

    @pytest.mark.parametrize("proxy", ["nmse-neo", "cts"])
    def test_lockstep_has_the_bits_of_each_module_alone(self, proxy):
        cfg = self._cfg(proxy)
        alone, tasks = self._setup()
        solo = [train_input_module(model, task, cfg, self.CHECKPOINTS)
                for model, task in zip(alone, tasks)]
        stacked, _ = self._setup()
        lockstep = train_input_stack(stacked, tasks, cfg, self.CHECKPOINTS)
        assert all(r["resamples"] >= 1 for r in solo[1][0].rows)
        _same_stage_one(alone, solo, stacked, lockstep, self.CHECKPOINTS)

    @pytest.mark.parametrize("cpus", [None, 3])
    @pytest.mark.parametrize("sizes", [SIZES, (40, 49, 48, 33, 17)])
    def test_forked_slices_have_the_bits_of_one_process(self, monkeypatch,
                                                        sizes, cpus):
        """The stack split over the machine's CPUs (None) or over three,
        against it in one process; the 5-module tasks of 33 and 17 rows
        end in a redrawn batch of 1 row too."""
        if cpus is None and len(os.sched_getaffinity(0)) < 2:
            pytest.skip("one usable CPU: the stack does not fork")
        cfg = self._cfg()
        with monkeypatch.context() as patch:
            _cpus(patch, 1)
            assert training.stack_slices(len(sizes)) == [(0, len(sizes))]
            here, tasks = self._setup(sizes)
            one_process = train_input_stack(here, tasks, cfg, self.CHECKPOINTS)
        if cpus:
            _cpus(monkeypatch, cpus)
        assert len(training.stack_slices(len(sizes))) > 1
        forked, _ = self._setup(sizes)
        split = train_input_stack(forked, tasks, cfg, self.CHECKPOINTS)
        assert any(row["resamples"] for trace, _ in split[1:]
                   for row in trace.rows)
        _same_stage_one(here, one_process, forked, split, self.CHECKPOINTS)

    def test_slices_are_contiguous_and_capped_at_the_stack(self, monkeypatch):
        _cpus(monkeypatch, 2)
        assert training.stack_slices(1) == [(0, 1)]
        assert training.stack_slices(5) == [(0, 2), (2, 5)]
        _cpus(monkeypatch, 4)
        assert training.stack_slices(3) == [(0, 1), (1, 2), (2, 3)]
        assert training.stack_slices(6) == [(0, 1), (1, 3), (3, 4), (4, 6)]

    def test_a_module_alone_follows_the_plain_loop(self):
        """train_input_module against a 2-D loop written out in full,
        redraws included: the same bits and the same redraw counts."""
        cfg = self._cfg(trace_every=1)
        _, tasks = self._setup()
        for task in tasks:
            model = TwoModuleModel(small_arch(latent=2, classes=2), seed=3)
            plain = TwoModuleModel(small_arch(latent=2, classes=2), seed=3)
            trace, _ = train_input_module(model, task, cfg)
            redraws = one_module_stage_one(plain, task, cfg)
            assert param_bytes(model.params()) == param_bytes(plain.params())
            assert [r["resamples"] for r in trace.rows] == redraws

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("module", [0, 1, 2])
    def test_a_non_finite_loss_stops_the_stack(self, monkeypatch, cpus,
                                               module):
        """At two CPUs module 0 trains here and modules 1 and 2 in a child;
        the error names the module by its place in the whole stack."""
        _cpus(monkeypatch, cpus)
        models, tasks = self._setup()
        models[module].input_params()[0].data[:] = np.nan
        with pytest.raises(DivergenceError,
                           match=f"module {module}'s batch loss is nan"):
            train_input_stack(models, tasks, self._cfg())

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_an_exhausted_redraw_stops_the_stack(self, monkeypatch, cpus):
        _cpus(monkeypatch, cpus)
        models, tasks = self._setup()
        tasks[2] = _binary_task(48, 2, single_class=True)
        with pytest.raises(DegenerateBatchError,
                           match="module 2: .* 'nmse-neo' needs"):
            train_input_stack(models, tasks, self._cfg(resample_limit=3))

    def test_a_worker_that_dies_without_a_result_raises(self, monkeypatch):
        """A child that leaves before it writes raises WorkerError, with
        its exit code, once this process's own slice is done."""
        lockstep = training._lockstep

        def dying(models, datasets, cfg, checkpoint_epochs=None, offset=0):
            if offset:
                os._exit(1)
            return lockstep(models, datasets, cfg, checkpoint_epochs, offset)

        _cpus(monkeypatch, 2)
        monkeypatch.setattr(training, "_lockstep", dying)
        models, tasks = self._setup()
        with pytest.raises(WorkerError, match="modules 1 to 2 exited with "
                                              "code 1"):
            train_input_stack(models, tasks, self._cfg())

    def test_modules_of_two_architectures_rejected(self, monkeypatch):
        """The check runs before any child is forked."""
        def no_fork():
            raise AssertionError("forked before the stack was checked")

        _cpus(monkeypatch, 2)
        monkeypatch.setattr(os, "fork", no_fork)
        models, tasks = self._setup()
        models[2] = TwoModuleModel(small_arch(latent=3, classes=2), seed=0)
        with pytest.raises(ContractError):
            train_input_stack(models, tasks, self._cfg())
        with pytest.raises(ContractError):
            train_input_stack(models[:2] + models[:1], tasks[:2], self._cfg())


class TestFreezeAndTrainOutput:
    def test_input_params_bit_identical_during_stage_two(self):
        data = blob_data()
        model = TwoModuleModel(small_arch(), seed=0)
        train_input_module(model, data, quick_cfg())
        before = param_bytes(model.input_params())
        freeze_and_train_output(model, data, quick_cfg())
        assert param_bytes(model.input_params()) == before

    def test_stage_two_and_label_budgets_leave_input_module_as_is(self):
        """Neither call steps or flags the input module: its data stays
        bit-identical and every parameter still requires gradients."""
        data = blob_data()
        model = TwoModuleModel(small_arch(), seed=0)
        train_input_module(model, data, quick_cfg())
        before = param_bytes(model.input_params())
        for run in (lambda: freeze_and_train_output(model, data, quick_cfg()),
                    lambda: label_efficiency_run(model, data, [8, 20], True,
                                                 0, quick_cfg())):
            run()
            assert param_bytes(model.input_params()) == before
            assert all(p.requires_grad and p.grad is not None
                       for p in model.input_params())

    def test_separable_features_reach_full_train_accuracy(self):
        # one class per half-plane in the 2-D link space
        rng = np.random.default_rng(4)
        X = rng.standard_normal((80, 2)) * 0.1
        X[:40, 0] += 3.0
        X[40:, 0] -= 3.0
        y = np.array([1] * 40 + [0] * 40)
        data = Dataset(X, y, X.copy(), y.copy())
        arch = ArchitectureSpec(input_dim=2, hidden_widths=(8,), latent_dim=2,
                                num_classes=2)
        model = TwoModuleModel(arch, seed=2)
        cfg = quick_cfg(lr_schedule=((0.2, 40),), batch_size=20)
        trace = freeze_and_train_output(model, data, cfg)
        assert trace.final("train_accuracy") == 1.0

    def test_stage_two_objective_equals_decomposed_risk(self):
        data = blob_data(classes=2)
        arch = small_arch(classes=2)
        model = TwoModuleModel(arch, seed=0)
        cfg = quick_cfg(loss="xe2", lr_schedule=((0.05, 3),))
        trace = freeze_and_train_output(model, data, cfg)
        feats = model.link_features_np(data.X_train)
        scores = feats @ model.output_weight.data + model.output_bias.data
        expected = risk(make_loss("xe2"), scores, data.y_train == 1)
        assert trace.final("objective") == pytest.approx(expected, abs=1e-12)


    @pytest.mark.parametrize("loss", ["xe", "xe2", "tanh-mse", "hinge"])
    def test_loss_sets_output_width(self, loss):
        """A binary decomposable loss trains one score column; xe trains
        one logit per class.  The constructor's width does not matter."""
        data = blob_data(classes=2)
        model = TwoModuleModel(small_arch(classes=2), seed=0)
        trace = freeze_and_train_output(model, data, quick_cfg(loss=loss))
        width = 2 if loss == "xe" else 1
        assert model.output_weight.data.shape == (3, width)
        assert model.output_bias.data.shape == (width,)
        assert model.to_checkpoint()["output_dim"] == width
        assert 0.0 <= trace.final("test_accuracy") <= 1.0

    def test_binary_loss_needs_two_classes(self):
        model = TwoModuleModel(small_arch(classes=4), seed=0)
        with pytest.raises(ConfigurationError, match="'hinge'.*4"):
            freeze_and_train_output(model, blob_data(), quick_cfg(loss="hinge"))


class TestEndToEnd:
    def test_zero_epochs_unchanged(self):
        """A schedule step of zero epochs, first or between two others,
        trains nothing: the bits match the schedule without it."""
        data = blob_data()
        runs = []
        for schedule in (((0.1, 0), (0.05, 8)), ((0.05, 4), (0.1, 0),
                                                  (0.05, 4)), ((0.05, 8),)):
            model = TwoModuleModel(small_arch(), seed=0)
            train_end_to_end(model, data, quick_cfg(lr_schedule=schedule))
            runs.append(param_bytes(model.params()))
        assert runs[0] == runs[2] and runs[1] == runs[2]

    def test_fixed_seed_determinism(self):
        data = blob_data()
        runs = []
        for _ in range(2):
            model = TwoModuleModel(small_arch(), seed=0)
            train_end_to_end(model, data, quick_cfg())
            runs.append(param_bytes(model.params()))
        assert runs[0] == runs[1]

    def test_full_batch_descent_is_monotone(self):
        data = blob_data(n=60, split=1.0)
        model = TwoModuleModel(small_arch(), seed=0)
        cfg = TrainConfig(batch_size=60, lr_schedule=((0.01, 100),),
                          momentum=0.0, seed=0, proxy="nmse-neo", loss="xe",
                          trace_every=1, plateau_patience=10 ** 6)
        trace = train_end_to_end(model, data, cfg)
        losses = [r["objective"] for r in trace.rows]
        assert all(a >= b - 1e-12 for a, b in zip(losses, losses[1:]))

    def test_blobs_memorized(self):
        data = blob_data(n=120, split=1.0)
        model = TwoModuleModel(small_arch(), seed=0)
        cfg = quick_cfg(lr_schedule=((0.05, 40), (0.01, 20)))
        trace = train_end_to_end(model, data, cfg)
        assert trace.final("train_accuracy") == 1.0


class TestLabelEfficiency:
    def _trained(self):
        data = blob_data(n=240, classes=4, seed=9)
        model = TwoModuleModel(small_arch(), seed=0)
        train_input_module(model, data, quick_cfg(
            lr_schedule=((0.05, 25), (0.01, 10))))
        return model, data

    def test_full_budget_matches_stage_two(self):
        model, data = self._trained()
        cfg = quick_cfg()
        trace = freeze_and_train_output(model, data, cfg)
        rows = label_efficiency_run(model, data, [data.X_train.shape[0]],
                                    balanced=True, seed=0, cfg=cfg)
        assert rows[0]["test_accuracy"] == trace.final("test_accuracy")

    def test_changes_no_model_parameter(self):
        model, data = self._trained()
        freeze_and_train_output(model, data, quick_cfg())
        before = param_bytes(model.params())
        label_efficiency_run(model, data, [8, 20], balanced=True, seed=0,
                             cfg=quick_cfg())
        assert param_bytes(model.params()) == before

    def test_balanced_budget_below_class_count_rejected(self):
        model, data = self._trained()
        with pytest.raises(ConfigurationError):
            label_efficiency_run(model, data, [3], balanced=True, seed=0,
                                 cfg=quick_cfg())

    def test_missing_class_has_zero_recall(self):
        model, data = self._trained()
        rng = np.random.default_rng(0)
        # unbalanced budget drawn from three classes only
        keep = np.flatnonzero(data.y_train != 3)
        X = data.X_train[keep]
        y = data.y_train[keep]
        reduced = Dataset(X, y, data.X_test, data.y_test)
        rows = label_efficiency_run(model, reduced, [X.shape[0]],
                                    balanced=False, seed=0, cfg=quick_cfg())
        assert rows[0]["per_class_recall"][3] == 0.0


class TestProxyAccuracySweep:
    def test_single_checkpoint(self):
        data = blob_data()
        model = TwoModuleModel(small_arch(), seed=0)
        rows = proxy_accuracy_sweep(model, data, [4], quick_cfg())
        assert len(rows) == 1 and rows[0]["epoch"] == 4

    def test_duplicate_checkpoints_give_identical_rows(self):
        data = blob_data()
        model = TwoModuleModel(small_arch(), seed=0)
        rows = proxy_accuracy_sweep(model, data, [3, 3], quick_cfg())
        assert rows[0]["proxy"] == rows[1]["proxy"]
        assert rows[0]["accuracy"] == rows[1]["accuracy"]

    def test_checkpoint_beyond_schedule_rejected(self):
        data = blob_data()
        model = TwoModuleModel(small_arch(), seed=0)
        with pytest.raises(ConfigurationError):
            proxy_accuracy_sweep(model, data, [10 ** 6], quick_cfg())


def hexes(arr):
    return [float.hex(float(v)) for v in np.ravel(arr)]


def best_accuracy(trace):
    return max((r["test_accuracy"] for r in trace.rows
                if not np.isnan(r["test_accuracy"])),
               default=trace.final("train_accuracy"))


def serial_sweep(model, data, epochs, cfg, output_cfg):
    """The sweep as one ``freeze_and_train_output`` fit per checkpoint:
    its rows, and each checkpoint's trained head as hex strings."""
    _, snapshots = train_input_module(model, data, cfg,
                                      checkpoint_epochs=epochs)
    rows, heads = [], []
    for epoch in epochs:
        for p, arr in zip(model.input_params(), snapshots[epoch]):
            p.data = arr.copy()
        value = full_proxy_value(model, data.X_train, data.y_train, cfg.proxy)
        trace = freeze_and_train_output(model, data, output_cfg)
        rows.append({"epoch": epoch, "proxy": value,
                     "accuracy": float(best_accuracy(trace))})
        heads.append((hexes(model.output_weight.data),
                      hexes(model.output_bias.data), trace.rows))
    return rows, heads


class TestLockstepStageTwo:
    """Output heads fitted as one stack against one-at-a-time fits."""

    EPOCHS = [0, 2, 5, 9, 14]

    @staticmethod
    def _output_cfg(**kw):
        return quick_cfg(lr_schedule=((0.1, 25), (0.01, 10)), trace_every=5,
                         **kw)

    @pytest.mark.parametrize("patience", [2, 10 ** 6])
    def test_sweep_rows_and_heads_match_serial_fits(self, patience):
        data = blob_data()
        cfg = quick_cfg(lr_schedule=((0.05, 14),))
        output_cfg = self._output_cfg(plateau_patience=patience,
                                      plateau_tol=3e-3)
        serial_rows, serial_heads = serial_sweep(
            TwoModuleModel(small_arch(), seed=0), data, self.EPOCHS, cfg,
            output_cfg)
        model = TwoModuleModel(small_arch(), seed=0)
        assert proxy_accuracy_sweep(model, data, self.EPOCHS, cfg,
                                    output_cfg) == serial_rows

        _, snapshots = train_input_module(TwoModuleModel(small_arch(), seed=0),
                                          data, cfg,
                                          checkpoint_epochs=self.EPOCHS)
        feats = []
        for epoch in self.EPOCHS:
            for p, arr in zip(model.input_params(), snapshots[epoch]):
                p.data = arr
            feats.append((model.link_features_np(data.X_train),
                          model.link_features_np(data.X_test)))
        traces, W, b = train_output_stack(
            np.stack([f for f, _ in feats]), data.y_train,
            np.stack([f for _, f in feats]), data.y_test, 4, output_cfg)
        for k, (weight, bias, rows) in enumerate(serial_heads):
            assert hexes(W[k]) == weight and hexes(b[k]) == bias
            assert traces[k].rows == rows
        stops = {t.rows[-1]["epoch"] for t in traces}
        if patience == 2:  # the heads left the stack apart
            assert stops == {16, 24}
        else:
            assert stops == {35}

    @pytest.mark.parametrize("loss", ["xe2", "tanh-mse", "hinge"])
    def test_binary_loss_sweep_matches_serial_fits(self, loss):
        data = blob_data(classes=2)
        arch = small_arch(classes=2)
        cfg = quick_cfg(lr_schedule=((0.05, 14),))
        output_cfg = self._output_cfg(loss=loss, plateau_patience=3,
                                      plateau_tol=1e-4)
        serial_rows, _ = serial_sweep(TwoModuleModel(arch, seed=0), data,
                                      self.EPOCHS, cfg, output_cfg)
        rows = proxy_accuracy_sweep(TwoModuleModel(arch, seed=0), data,
                                    self.EPOCHS, cfg, output_cfg)
        assert ([r["accuracy"] for r in rows]
                == [r["accuracy"] for r in serial_rows])
        assert [r["proxy"] for r in rows] == [r["proxy"] for r in serial_rows]

    @pytest.mark.parametrize("patience", [2, 10 ** 6])
    def test_one_head_matches_the_2d_loop(self, patience):
        """freeze_and_train_output, a stack of one head, has the weights
        and trace of a plain 2-D fit of that head."""
        data = blob_data()
        model = TwoModuleModel(small_arch(), seed=0)
        train_input_module(model, data, quick_cfg())
        cfg = self._output_cfg(plateau_patience=patience, plateau_tol=3e-3)
        rows, W, b = one_head_stage_two(
            model.link_features_np(data.X_train), data.y_train,
            model.link_features_np(data.X_test), data.y_test, 4, cfg)
        trace = freeze_and_train_output(model, data, cfg)
        assert hexes(model.output_weight.data) == hexes(W)
        assert hexes(model.output_bias.data) == hexes(b)
        assert trace.rows == rows
        assert (hexes([r["objective"] for r in trace.rows])
                == hexes([r["objective"] for r in rows]))
        assert (rows[-1]["epoch"] < cfg.total_epochs) == (patience == 2)

    def test_sweep_reads_each_checkpoints_features_once(self, monkeypatch):
        """After stage 1, the sweep reads the training link features of
        each checkpoint once, for both its proxy value and its head."""
        import modkernel.training as training
        data = blob_data()
        reads = []
        stage_one = training.train_input_module

        def counted_stage_one(*args, **kw):
            out = stage_one(*args, **kw)
            reads.clear()
            return out

        read_link_features = training._read_link_features

        def counted_link_features(model, X, arrays):
            reads.append(X is data.X_train)
            return read_link_features(model, X, arrays)

        monkeypatch.setattr(training, "train_input_module", counted_stage_one)
        monkeypatch.setattr(training, "_read_link_features",
                            counted_link_features)
        proxy_accuracy_sweep(TwoModuleModel(small_arch(), seed=0), data,
                             [0, 3, 8], quick_cfg())
        assert reads.count(True) == 3

    def test_sweep_reports_its_stage_times(self):
        timing = {}
        proxy_accuracy_sweep(TwoModuleModel(small_arch(), seed=0), blob_data(),
                             [0, 4], quick_cfg(), timing=timing)
        assert set(timing) == {"stage1_seconds", "stage2_seconds"}
        assert all(v > 0 for v in timing.values())


class TestFullProxyValue:
    def test_reads_the_kernel_matrix_of_the_link_features(self):
        """full_proxy_value scores the kernel_matrix of the pre-link
        activations, which has the bits of the link features times their
        transpose, to the exact sums over it: relative for the proxies of
        order one, absolute for al and utal, whose values come from
        cancelling sums."""
        data = blob_data(classes=3)
        model = TwoModuleModel(small_arch(classes=3), seed=2)
        X, y = data.X_train, data.y_train
        K = kernel_matrix(model.link, model.pre_link(ad.constant(X)).data)
        feats = model.link_features_np(X)
        assert K.tobytes() == (feats @ feats.T).tobytes()
        want = proxy_references(K, y, *model.link.bounds())
        for kind in proxies.PROXY_KINDS:
            got = full_proxy_value(model, X, y, kind)
            if kind in ("al", "utal"):
                assert got == pytest.approx(want[kind], rel=0, abs=1e-13), kind
            else:
                assert got == pytest.approx(want[kind], rel=1e-13), kind


class TestTraceAndModel:
    def test_trace_csv_roundtrip(self, tmp_path):
        data = blob_data()
        model = TwoModuleModel(small_arch(), seed=0)
        trace, _ = train_input_module(model, data, quick_cfg())
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(TRACE_HEADER)
        assert len(lines) == len(trace.rows) + 1

    def test_checkpoint_roundtrip_is_exact(self):
        model = TwoModuleModel(small_arch(), seed=11)
        doc = model.to_checkpoint(meta={"id": "m"})
        clone = TwoModuleModel.from_checkpoint(doc)
        assert param_bytes(clone.params()) == param_bytes(model.params())

    @pytest.mark.parametrize("field,value", [
        ("input_dim", 0), ("input_dim", "3"), ("input_dim", 2.0),
        ("latent_dim", 0), ("hidden_widths", (16, 0)), ("hidden_widths", (-1,)),
        ("num_classes", 1), ("num_classes", True),
        ("hidden_nonlinearity", "foo"), ("link_nonlinearity", "foo"),
        ("link_epsilon", 0.0), ("link_epsilon", -1e-3),
        ("link_epsilon", float("nan")), ("link_epsilon", "1e-12")])
    def test_bad_architecture_value_rejected(self, field, value):
        doc = small_arch().as_dict()
        doc[field] = value
        with pytest.raises(ConfigurationError, match=field.split("_")[-1]):
            ArchitectureSpec.from_dict(doc)

    def test_accuracy_helper(self):
        logits = np.array([[2.0, -1.0], [0.5, 3.0]])
        assert accuracy(logits, np.array([0, 1])) == 1.0
        scores = np.array([[0.4], [-0.2]])
        assert accuracy(scores, np.array([1, 0])) == 1.0

    def test_bad_schedule_rejected(self):
        with pytest.raises(ConfigurationError):
            TrainConfig(lr_schedule=())
        with pytest.raises(ConfigurationError):
            TrainConfig(lr_schedule=((-0.1, 5),))
        for no_epochs in (((0.1, 0),), ((0.1, 0), (0.01, 0))):
            with pytest.raises(ConfigurationError, match="lr_schedule"):
                TrainConfig(lr_schedule=no_epochs)
