"""Tests of the approximate inference executor, metrics and campaign machinery."""

import numpy as np
import pytest

from repro.datasets.synthetic import SyntheticCifarConfig, make_synthetic_cifar
from repro.multipliers.accurate import AccurateMultiplier
from repro.multipliers.perforated import PerforatedMultiplier
from repro.simulation.campaign import (
    TrainedModelCache,
    TrainingSettings,
    accuracy_sweep,
    experiment_dataset,
    train_reference_model,
)
from repro.simulation.inference import (
    AccurateProduct,
    ApproximateExecutor,
    ExecutionPlan,
    LUTProduct,
    PerforatedProduct,
)
from repro.simulation.metrics import (
    OutputErrorStats,
    accuracy,
    accuracy_loss_percent,
    output_error_stats,
)


class TestMetrics:
    def test_accuracy(self):
        assert accuracy(np.array([1, 2, 3, 4]), np.array([1, 2, 0, 4])) == 0.75

    def test_accuracy_validation(self):
        with pytest.raises(ValueError):
            accuracy(np.array([1, 2]), np.array([1]))
        with pytest.raises(ValueError):
            accuracy(np.array([]), np.array([]))

    def test_accuracy_loss_percent(self):
        assert accuracy_loss_percent(0.90, 0.88) == pytest.approx(2.0)
        assert accuracy_loss_percent(0.90, 0.92) == pytest.approx(-2.0)

    def test_output_error_stats(self, rng):
        ref = rng.normal(size=(10, 10))
        stats = output_error_stats(ref, ref)
        assert stats.mean == 0.0 and stats.rmse == 0.0
        shifted = output_error_stats(ref, ref - 1.0)
        assert shifted.mean == pytest.approx(1.0)
        assert shifted.variance == pytest.approx(0.0, abs=1e-12)
        assert isinstance(shifted, OutputErrorStats)

    def test_output_error_stats_shape_check(self, rng):
        with pytest.raises(ValueError):
            output_error_stats(np.zeros((2, 2)), np.zeros((3, 2)))


class TestProductModels:
    def test_perforated_from_config(self):
        from repro.core.accelerator_model import AcceleratorConfig

        assert isinstance(
            PerforatedProduct.from_config(AcceleratorConfig.accurate(64)), AccurateProduct
        )
        model = PerforatedProduct.from_config(AcceleratorConfig.make(64, 2))
        assert isinstance(model, PerforatedProduct)
        assert model.m == 2 and model.use_control_variate

    def test_names(self):
        assert PerforatedProduct(2, True).name == "perforated_m2+V"
        assert PerforatedProduct(2, False).name == "perforated_m2"
        assert "accurate" in LUTProduct(AccurateMultiplier()).name

    def test_invalid_m(self):
        with pytest.raises(ValueError):
            PerforatedProduct(-1)
        with pytest.raises(ValueError):
            PerforatedProduct(8)

    def test_m_zero_degenerates_to_accurate(self, rng):
        """m=0 is valid and matches the accurate array, with and without V."""
        from repro.core.approx_conv import accurate_product_sums
        from repro.core.control_variate import ControlVariate

        acts = rng.integers(0, 256, size=(13, 9), dtype=np.uint8)
        weights = rng.integers(0, 256, size=(9, 5), dtype=np.uint8)
        cv = ControlVariate.from_weight_matrix(weights)
        reference = accurate_product_sums(acts, weights)
        for use_cv in (True, False):
            model = PerforatedProduct(0, use_control_variate=use_cv)
            sums = model.product_sums(acts, weights, cv)
            np.testing.assert_array_equal(np.asarray(sums), reference)
            kernel = model.compile(weights, cv)
            np.testing.assert_array_equal(np.asarray(kernel(acts)), reference)


class TestExecutionPlan:
    def test_uniform_and_override(self):
        base = ExecutionPlan.uniform(AccurateProduct())
        override = base.with_layer("conv1", PerforatedProduct(2))
        assert isinstance(base.model_for("conv1"), AccurateProduct)
        assert isinstance(override.model_for("conv1"), PerforatedProduct)
        assert isinstance(override.model_for("other"), AccurateProduct)
        # the original plan is unchanged
        assert "conv1" not in base.per_layer

    def test_from_config(self):
        from repro.core.accelerator_model import AcceleratorConfig

        plan = ExecutionPlan.from_config(AcceleratorConfig.make(32, 1, use_control_variate=False))
        model = plan.model_for("any")
        assert isinstance(model, PerforatedProduct)
        assert not model.use_control_variate


class TestApproximateExecutor:
    def test_accurate_plan_close_to_float_model(self, tiny_executor, trained_tiny_model, tiny_dataset):
        images = tiny_dataset.test_images[:16]
        float_logits = trained_tiny_model.forward(images)
        quant_logits = tiny_executor.forward(images, ExecutionPlan.uniform(AccurateProduct()))
        # 8-bit post-training quantization: logits agree to within a small error.
        assert np.abs(float_logits - quant_logits).max() < 0.5 * np.abs(float_logits).max() + 0.5

    def test_accurate_plan_preserves_accuracy(self, tiny_executor, trained_tiny_model, tiny_dataset):
        from repro.nn.training import evaluate_accuracy

        float_acc = evaluate_accuracy(
            trained_tiny_model, tiny_dataset.test_images, tiny_dataset.test_labels
        )
        quant_acc = accuracy(
            tiny_executor.predict(tiny_dataset.test_images, ExecutionPlan.uniform(AccurateProduct())),
            tiny_dataset.test_labels,
        )
        assert quant_acc >= float_acc - 0.12

    def test_lut_path_matches_analytic_path(self, tiny_executor, tiny_dataset):
        """Perforated LUT emulation and the analytical fast path agree."""
        images = tiny_dataset.test_images[:8]
        analytic = tiny_executor.forward(
            images, ExecutionPlan.uniform(PerforatedProduct(2, use_control_variate=False))
        )
        lut = tiny_executor.forward(
            images, ExecutionPlan.uniform(LUTProduct(PerforatedMultiplier(2)))
        )
        assert np.allclose(analytic, lut)

    def test_control_variate_improves_over_plain_perforation(
        self, tiny_executor, tiny_dataset
    ):
        images = tiny_dataset.test_images
        labels = tiny_dataset.test_labels
        acc_cv = accuracy(
            tiny_executor.predict(images, ExecutionPlan.uniform(PerforatedProduct(2, True))),
            labels,
        )
        acc_plain = accuracy(
            tiny_executor.predict(images, ExecutionPlan.uniform(PerforatedProduct(2, False))),
            labels,
        )
        assert acc_cv >= acc_plain

    def test_logit_error_reduced_by_control_variate(self, tiny_executor, tiny_dataset):
        images = tiny_dataset.test_images[:24]
        reference = tiny_executor.forward(images, ExecutionPlan.uniform(AccurateProduct()))
        with_cv = tiny_executor.forward(
            images, ExecutionPlan.uniform(PerforatedProduct(2, True))
        )
        without = tiny_executor.forward(
            images, ExecutionPlan.uniform(PerforatedProduct(2, False))
        )
        assert output_error_stats(reference, with_cv).rmse < output_error_stats(
            reference, without
        ).rmse

    def test_per_layer_plan(self, tiny_executor, tiny_dataset):
        layer = tiny_executor.mac_layer_names()[0]
        plan = ExecutionPlan.uniform(AccurateProduct()).with_layer(
            layer, PerforatedProduct(3, use_control_variate=False)
        )
        out = tiny_executor.forward(tiny_dataset.test_images[:4], plan)
        ref = tiny_executor.forward(
            tiny_dataset.test_images[:4], ExecutionPlan.uniform(AccurateProduct())
        )
        assert not np.allclose(out, ref)

    def test_mac_layer_names_match_model(self, tiny_executor, trained_tiny_model):
        assert tiny_executor.mac_layer_names() == [
            node.name for node in trained_tiny_model.conv_dense_nodes()
        ]

    def test_grouped_conv_model_executes(self, tiny_dataset, rng):
        """ShuffleNet-style grouped/depthwise convolutions run through the executor."""
        from repro.models.zoo import build_model

        model = build_model("shufflenet", num_classes=tiny_dataset.num_classes, rng=rng)
        executor = ApproximateExecutor(model, tiny_dataset.train_images[:32])
        out = executor.forward(
            tiny_dataset.test_images[:4], ExecutionPlan.uniform(PerforatedProduct(1))
        )
        assert out.shape == (4, tiny_dataset.num_classes)
        assert np.isfinite(out).all()


class TestCampaign:
    @pytest.fixture(scope="class")
    def small_dataset(self):
        return make_synthetic_cifar(
            SyntheticCifarConfig(num_classes=4, train_per_class=30, test_per_class=8, seed=5)
        )

    def test_train_reference_model(self, small_dataset):
        trained = train_reference_model(
            "vgg13", small_dataset, TrainingSettings(epochs=2, seed=1)
        )
        assert trained.name == "vgg13"
        assert 0.0 <= trained.float_accuracy <= 1.0
        assert trained.cache_entry is None  # never reads or writes a record

    def test_cache_round_trip(self, small_dataset, tmp_path):
        cache = TrainedModelCache(cache_dir=str(tmp_path))
        settings = TrainingSettings(epochs=1, seed=2)
        first = cache.load_or_train("vgg13", small_dataset, settings)
        second = cache.load_or_train("vgg13", small_dataset, settings)
        assert second.float_accuracy == pytest.approx(first.float_accuracy)
        # Trained or loaded, the model knows its entry.
        assert first.cache_entry == second.cache_entry is not None
        x = small_dataset.test_images[:4]
        assert np.allclose(first.model.forward(x), second.model.forward(x))

    def test_cache_keyed_by_training_settings(self, small_dataset, tmp_path):
        """Changing hyper-parameters must retrain, not reuse a stale model."""
        import os

        cache = TrainedModelCache(cache_dir=str(tmp_path))
        settings = TrainingSettings(epochs=1, seed=2)
        cache.load_or_train("vgg13", small_dataset, settings)
        files_before = sorted(os.listdir(tmp_path))
        # Same (model, dataset, seed) but different epochs: distinct entry.
        more_epochs = TrainingSettings(epochs=2, seed=2)
        retrained = cache.load_or_train("vgg13", small_dataset, more_epochs)
        files_after = sorted(os.listdir(tmp_path))
        assert len(files_after) == len(files_before) + 2
        assert retrained.float_accuracy >= 0.0
        # Re-requesting either settings hits its own cached entry.
        assert sorted(os.listdir(tmp_path)) == files_after
        cache.load_or_train("vgg13", small_dataset, settings)
        cache.load_or_train("vgg13", small_dataset, more_epochs)
        assert sorted(os.listdir(tmp_path)) == files_after

    def test_cache_rejects_mismatched_meta(self, small_dataset, tmp_path):
        """Tampered / stale metadata triggers a retrain instead of a stale hit."""
        import json
        import os

        cache = TrainedModelCache(cache_dir=str(tmp_path))
        settings = TrainingSettings(epochs=1, seed=2)
        cache.load_or_train("vgg13", small_dataset, settings)
        meta_path = next(
            os.path.join(tmp_path, f) for f in os.listdir(tmp_path) if f.endswith(".json")
        )
        with open(meta_path) as handle:
            meta = json.load(handle)
        meta["settings"]["epochs"] = 99
        with open(meta_path, "w") as handle:
            json.dump(meta, handle)
        reloaded = cache.load_or_train("vgg13", small_dataset, settings)
        with open(meta_path) as handle:
            repaired = json.load(handle)
        assert repaired["settings"]["epochs"] == 1
        assert 0.0 <= reloaded.float_accuracy <= 1.0

    def test_accuracy_sweep_on_a_pool_matches_serial(self, small_dataset, tmp_path):
        cache = TrainedModelCache(cache_dir=str(tmp_path))
        trained = cache.load_or_train("vgg13", small_dataset, TrainingSettings(epochs=1, seed=3))
        kwargs = dict(perforations=(0, 2), max_eval_images=16)
        serial = accuracy_sweep([trained], {small_dataset.name: small_dataset}, **kwargs)
        parallel = accuracy_sweep(
            [trained], {small_dataset.name: small_dataset}, max_workers=2, **kwargs
        )
        assert parallel.baselines == serial.baselines
        assert parallel.records == serial.records
        # m=0 cells are the accurate design: zero accuracy loss.
        assert parallel.lookup("vgg13", small_dataset.name, 0, True).accuracy_loss == 0.0
        assert parallel.lookup("vgg13", small_dataset.name, 0, False).accuracy_loss == 0.0

    def test_accuracy_sweep_never_retrains_cached_models(
        self, small_dataset, tmp_path, monkeypatch
    ):
        """In-process and on a pool (whose forked workers inherit the
        models): results and error stats identical to the serial sweep, and
        no worker ever (re)trains a model."""
        import repro.simulation.campaign as campaign

        cache = TrainedModelCache(cache_dir=str(tmp_path))
        settings = TrainingSettings(epochs=1, seed=3)
        trained = cache.load_or_train("vgg13", small_dataset, settings)
        datasets = {small_dataset.name: small_dataset}
        kwargs = dict(perforations=(1, 2), max_eval_images=16)
        serial = accuracy_sweep([trained], datasets, **kwargs)

        # Cache hit: a second load returns the stored model without training.
        def _no_training(*args, **kw):
            raise AssertionError("training ran after the model was already cached")

        monkeypatch.setattr(campaign, "train_reference_model", _no_training)
        reloaded = cache.load_or_train("vgg13", small_dataset, settings)
        assert reloaded.float_accuracy == trained.float_accuracy

        # Workers (fork start method) inherit the patched trainer: any retrain
        # inside the sweep would blow up the worker and fail the sweep.
        for max_workers in (1, 2):
            shared = accuracy_sweep(
                [reloaded], datasets, max_workers=max_workers, **kwargs
            )
            assert shared.baselines == serial.baselines
            assert shared.records == serial.records
            for record, expected in zip(shared.records, serial.records):
                assert record.accuracy_loss == expected.accuracy_loss

        # Cache-hit assertion: every cell of a model reuses one calibrated
        # executor — the worker builds it exactly once.
        from repro.runtime import worker

        state: dict = {}
        worker.init_worker_state(state, [reloaded], datasets, 16, 128)
        specs = campaign._sweep_cell_specs([reloaded], (1, 2))
        assert len(specs) > 1
        for _, m, with_cv in specs:
            worker.eval_cell_chunk(state, [(0, campaign._spec_plan(m, with_cv))])
        assert state["executor_builds"] == 1

    def test_plan_sweep_parity_across_execution_modes(self, small_dataset, tmp_path):
        """plan_sweep in-process and on a pool is bit-identical to sweeping
        every plan on its own, where no layer prefix is shared."""
        from repro.simulation.campaign import plan_sweep
        from repro.simulation.inference import (
            AccurateProduct,
            ExecutionPlan,
            PerforatedProduct,
        )

        cache = TrainedModelCache(cache_dir=str(tmp_path))
        trained = cache.load_or_train("vgg13", small_dataset, TrainingSettings(epochs=1, seed=3))
        names = [node.name for node in trained.model.conv_dense_nodes()]
        plans = [("baseline", ExecutionPlan.uniform(AccurateProduct()))]
        for depth in (0, 2, 4):
            for m in (1, 2):
                plan = ExecutionPlan.uniform(AccurateProduct())
                for name in names[depth:]:
                    plan = plan.with_layer(name, PerforatedProduct(m))
                plans.append((f"exact{depth}_m{m}", plan))
        datasets = {small_dataset.name: small_dataset}
        kwargs = dict(max_eval_images=16)
        reference = [
            record
            for labeled in plans
            for record in plan_sweep(
                [trained], datasets, [labeled], max_workers=1, **kwargs
            )
        ]
        assert [r.plan_label for r in reference] == [label for label, _ in plans]
        reused = plan_sweep([trained], datasets, plans, max_workers=1, **kwargs)
        parallel = plan_sweep([trained], datasets, plans, max_workers=2, **kwargs)
        assert reused == reference
        assert parallel == reference

    def test_schedule_cells_groups_shared_prefixes(self, small_dataset, tmp_path):
        from repro.runtime.scheduling import model_mac_names, schedule_cells
        from repro.simulation.inference import (
            AccurateProduct,
            ExecutionPlan,
            PerforatedProduct,
        )

        cache = TrainedModelCache(cache_dir=str(tmp_path))
        trained = cache.load_or_train("vgg13", small_dataset, TrainingSettings(epochs=1, seed=3))
        names = [node.name for node in trained.model.conv_dense_nodes()]

        def exact_prefix(depth, m):
            plan = ExecutionPlan.uniform(AccurateProduct())
            for name in names[depth:]:
                plan = plan.with_layer(name, PerforatedProduct(m))
            return plan

        # deliberately interleaved input order
        plans = [
            ("deep_m1", exact_prefix(4, 1)),
            ("shallow_m1", exact_prefix(0, 1)),
            ("deep_m2", exact_prefix(4, 2)),
            ("shallow_m2", exact_prefix(0, 2)),
            ("baseline", ExecutionPlan.uniform(AccurateProduct())),
        ]
        order = schedule_cells(
            [(0, plan) for _, plan in plans], {0: model_mac_names(trained)}
        )
        assert sorted(order) == list(range(len(plans)))
        schedule = [plans[plan_index][0] for plan_index in order]
        # the two deep-prefix plans (and the baseline, which shares their
        # exact prefix) must be adjacent; shallow plans sort elsewhere
        deep_block = {"deep_m1", "deep_m2", "baseline"}
        positions = [i for i, label in enumerate(schedule) if label in deep_block]
        assert positions == list(range(min(positions), min(positions) + 3))

    def test_accuracy_sweep_structure(self, small_dataset, tmp_path):
        cache = TrainedModelCache(cache_dir=str(tmp_path))
        trained = cache.load_or_train("vgg13", small_dataset, TrainingSettings(epochs=2, seed=3))
        result = accuracy_sweep(
            [trained],
            {small_dataset.name: small_dataset},
            perforations=(1, 2),
            max_eval_images=24,
        )
        assert len(result.records) == 4  # 2 m-values x {with, without} V
        record = result.lookup("vgg13", small_dataset.name, 1, True)
        assert record.baseline_accuracy >= 0
        assert np.isfinite(record.accuracy_loss)
        assert np.isfinite(result.average_loss(small_dataset.name, 1, True))
        with pytest.raises(LookupError):
            result.lookup("vgg13", small_dataset.name, 3, True)
        with pytest.raises(LookupError):
            result.average_loss(small_dataset.name, 3, True)

    def test_sweep_cv_beats_no_cv_on_average(self, small_dataset, tmp_path):
        cache = TrainedModelCache(cache_dir=str(tmp_path))
        trained = cache.load_or_train("vgg13", small_dataset, TrainingSettings(epochs=2, seed=3))
        result = accuracy_sweep(
            [trained], {small_dataset.name: small_dataset}, perforations=(2,), max_eval_images=32
        )
        assert result.average_loss(small_dataset.name, 2, True) <= result.average_loss(
            small_dataset.name, 2, False
        )

    def test_experiment_dataset_configs(self):
        ds10 = experiment_dataset(10, train_per_class=2)
        assert ds10.num_classes == 10
        ds100 = experiment_dataset(100, train_per_class=1)
        assert ds100.num_classes == 100
        with pytest.raises(ValueError):
            experiment_dataset(50)


class TestCalibrationRecords:
    """The activation parameters a cached model stores per calibration set
    (:func:`~repro.simulation.campaign.calibrated_executor`): what keys a
    record, what a bad record or a failed write does, and the service
    paths on top of it."""

    SETTINGS = TrainingSettings(epochs=1, seed=4)

    @pytest.fixture(scope="class")
    def stored_entry(self, tiny_dataset, tmp_path_factory):
        """The files of one trained vgg13 cache entry."""
        directory = tmp_path_factory.mktemp("trained-entry")
        TrainedModelCache(cache_dir=str(directory)).load_or_train(
            "vgg13", tiny_dataset, self.SETTINGS
        )
        return sorted(directory.iterdir())

    @pytest.fixture
    def cached(self, stored_entry, tiny_dataset, tmp_path):
        """The entry loaded from a cache directory of the test's own."""
        import shutil

        for path in stored_entry:
            shutil.copy(path, tmp_path)
        return TrainedModelCache(cache_dir=str(tmp_path)).load_or_train(
            "vgg13", tiny_dataset, self.SETTINGS
        )

    @staticmethod
    def records(trained) -> list[str]:
        import glob

        return sorted(glob.glob(f"{trained.cache_entry}.calib-*.json"))

    def test_only_cached_models_keep_records(
        self, cached, tiny_dataset, calibration_walks, tmp_path
    ):
        import dataclasses
        import os

        from repro.simulation.campaign import calibrated_executor, trained_cache_stem

        images = tiny_dataset.train_images[:32]
        stem = trained_cache_stem("vgg13", tiny_dataset.name, self.SETTINGS)
        assert cached.cache_entry == os.path.join(str(tmp_path), stem)
        uncached = dataclasses.replace(cached, cache_entry=None)
        calibrated_executor(uncached, images)
        calibrated_executor(uncached, images)
        assert len(calibration_walks) == 2 and self.records(cached) == []
        calibrated_executor(cached, images)
        calibrated_executor(cached, images)
        assert len(calibration_walks) == 3 and len(self.records(cached)) == 1

    def test_stored_params_must_cover_the_mac_layers(self, cached, tiny_dataset):
        images = tiny_dataset.train_images[:32]
        params = ApproximateExecutor(cached.model, images).act_params()
        first = next(iter(params))
        for stored in ({**params, "ghost": params[first]}, dict(list(params.items())[1:])):
            with pytest.raises(ValueError, match="MAC layers"):
                ApproximateExecutor(cached.model, images, act_params=stored)

    def test_every_input_of_the_key_misses(
        self, cached, tiny_dataset, calibration_walks, monkeypatch
    ):
        """Changed weights, one changed calibration pixel, another image
        count, another percentile and another BLAS configuration each
        calibrate again; each then hits its own record."""
        from repro.runtime import sizing
        from repro.simulation.campaign import calibrated_executor

        images = tiny_dataset.train_images[:32]
        pixel = images.copy()
        pixel[0, 0, 0, 0] += 0.25
        other_cpu = "OpenBLAS 0.3.31  USE64BITINT DYNAMIC_ARCH NO_AFFINITY Haswell MAX_THREADS=64"
        calibrated_executor(cached, images)
        calibrated_executor(cached, images)
        assert len(calibration_walks) == 1
        for calibration, percentile in (
            (pixel, 99.9),
            (tiny_dataset.train_images[:31], 99.9),
            (images, 99.0),
        ):
            calibrated_executor(cached, calibration, percentile)
            calibrated_executor(cached, calibration, percentile)
        assert len(calibration_walks) == 4 and len(self.records(cached)) == 4
        with monkeypatch.context() as patch:
            patch.setattr(sizing, "blas_config", lambda: other_cpu)
            calibrated_executor(cached, images)
            calibrated_executor(cached, images)
        assert len(calibration_walks) == 5
        calibrated_executor(cached, images)  # the record now holds the other CPU's key
        assert len(calibration_walks) == 6
        weight = cached.model.conv_dense_nodes()[0].layer.weight
        weight *= 1.0 + 1e-6  # in place: a retrained model
        calibrated_executor(cached, images)
        calibrated_executor(cached, images)
        assert len(calibration_walks) == 7
        # A record per calibration set: a miss on the same set overwrites.
        assert len(self.records(cached)) == 4

    @pytest.mark.parametrize(
        "damage",
        [
            "truncated",
            "not an object",
            "another key",
            "a missing node",
            "an extra node",
            "a zero scale",
            "a NaN scale",
            "a zero point of 256",
            "a zero point of true",
        ],
    )
    def test_a_bad_record_recalibrates_and_is_rewritten(
        self, cached, tiny_dataset, calibration_walks, damage
    ):
        import json

        from repro.simulation.campaign import calibrated_executor

        images = tiny_dataset.train_images[:32]
        expected = calibrated_executor(cached, images).act_params()
        (path,) = self.records(cached)
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        good = json.loads(text)
        record = json.loads(text)
        first = cached.model.conv_dense_nodes()[0].name
        if damage == "truncated":
            text = text[: len(text) // 2]
        elif damage == "not an object":
            text = json.dumps([record])
        else:
            if damage == "another key":
                record["key"] = "0" * 64
            elif damage == "a missing node":
                del record["act_params"][first]
            elif damage == "an extra node":
                record["act_params"]["ghost"] = [0.5, 0]
            elif damage == "a zero scale":
                record["act_params"][first][0] = 0.0
            elif damage == "a NaN scale":
                record["act_params"][first][0] = float("nan")
            elif damage == "a zero point of 256":
                record["act_params"][first][1] = 256
            elif damage == "a zero point of true":
                record["act_params"][first][1] = True
            text = json.dumps(record)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        assert calibrated_executor(cached, images).act_params() == expected
        assert len(calibration_walks) == 2
        with open(path, encoding="utf-8") as handle:
            assert json.load(handle) == good
        assert calibrated_executor(cached, images).act_params() == expected
        assert len(calibration_walks) == 2

    @pytest.mark.parametrize("failure", ["read-only directory", "ENOSPC"])
    def test_a_failed_write_changes_no_result(
        self, cached, tiny_dataset, monkeypatch, fresh_accuracies, failure
    ):
        """The sweep scores as it would have, raises nothing and leaves
        neither a record nor a temporary file."""
        import errno
        import os
        import tempfile

        from repro.simulation.campaign import plan_sweep

        directory = os.path.dirname(cached.cache_entry)
        plans = [
            ExecutionPlan.uniform(AccurateProduct()),
            ExecutionPlan.uniform(PerforatedProduct(2)),
        ]
        kwargs = dict(max_eval_images=16, calibration_images=32)
        expected = fresh_accuracies(cached, tiny_dataset, plans, **kwargs)
        if failure == "ENOSPC":

            def no_space(src, dst):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), dst)

            monkeypatch.setattr(os, "replace", no_space)
        else:
            os.chmod(directory, 0o555)
            if os.access(directory, os.W_OK):
                # The mode does not stop root: raise what it stops others with.
                def read_only(*args, **kwargs):
                    raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), directory)

                monkeypatch.setattr(tempfile, "mkstemp", read_only)
        try:
            records = plan_sweep(
                [cached],
                {tiny_dataset.name: tiny_dataset},
                [(str(index), plan) for index, plan in enumerate(plans)],
                **kwargs,
            )
        finally:
            os.chmod(directory, 0o755)
        assert [record.accuracy for record in records] == expected
        names = os.listdir(directory)
        assert not [name for name in names if name.endswith(".tmp")]
        assert self.records(cached) == []

    def test_a_pool_and_the_serial_path_agree_cold_and_warm(
        self, cached, tiny_dataset, fresh_accuracies
    ):
        """A cold pass on either path leaves one record for the model and
        calibration set (two pool workers miss at once and both write it),
        and the warm pass scores the same accuracies from it."""
        import os

        from repro.runtime import EvaluationService

        plans = [
            ExecutionPlan.uniform(AccurateProduct()),
            ExecutionPlan.uniform(PerforatedProduct(1)),
            ExecutionPlan.uniform(PerforatedProduct(3, use_control_variate=False)),
        ]
        kwargs = dict(max_eval_images=16, calibration_images=32)
        expected = fresh_accuracies(cached, tiny_dataset, plans, **kwargs)
        datasets = {tiny_dataset.name: tiny_dataset}
        for workers in (2, 1):
            for path in self.records(cached):
                os.remove(path)
            for _ in ("cold", "warm"):
                with EvaluationService(
                    [cached], datasets, max_workers=workers, **kwargs
                ) as service:
                    assert service.evaluate_plans(0, plans) == expected
                assert len(self.records(cached)) == 1
        directory = os.path.dirname(cached.cache_entry)
        assert not [name for name in os.listdir(directory) if name.endswith(".tmp")]
