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

    def test_weight_overrides(self, tiny_executor, tiny_dataset):
        layer = tiny_executor.mac_layer_names()[0]
        original = tiny_executor.quantized_weights(layer)
        zeroed = [np.zeros_like(codes) for codes in original]
        tiny_executor.set_weight_override(layer, zeroed)
        try:
            overridden = tiny_executor.forward(
                tiny_dataset.test_images[:4], ExecutionPlan.uniform(AccurateProduct())
            )
        finally:
            tiny_executor.clear_weight_overrides()
        restored = tiny_executor.forward(
            tiny_dataset.test_images[:4], ExecutionPlan.uniform(AccurateProduct())
        )
        reference = tiny_executor.forward(
            tiny_dataset.test_images[:4], ExecutionPlan.uniform(AccurateProduct())
        )
        assert not np.allclose(overridden, reference)
        assert np.allclose(restored, reference)

    def test_weight_override_validation(self, tiny_executor):
        layer = tiny_executor.mac_layer_names()[0]
        with pytest.raises(ValueError):
            tiny_executor.set_weight_override(layer, [])

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

    def test_cache_round_trip(self, small_dataset, tmp_path):
        cache = TrainedModelCache(cache_dir=str(tmp_path))
        settings = TrainingSettings(epochs=1, seed=2)
        first = cache.load_or_train("vgg13", small_dataset, settings)
        second = cache.load_or_train("vgg13", small_dataset, settings)
        assert second.float_accuracy == pytest.approx(first.float_accuracy)
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
        """In-process and on a pool (which publishes through shared memory):
        results and error stats identical to the serial sweep, and no worker
        ever (re)trains a model."""
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

        store = campaign.publish_trained_models([reloaded])
        state: dict = {}
        try:
            worker.init_worker_state(state, store, datasets, 16, 128)
            specs = campaign._sweep_cell_specs([reloaded], (1, 2))
            assert len(specs) > 1
            for _, m, with_cv in specs:
                worker.eval_cell_chunk(state, [(0, campaign._spec_plan(m, with_cv))])
            assert state["executor_builds"] == 1
        finally:
            state.clear()
            store.unlink()

    def test_publish_trained_models_zero_copy_views(self, small_dataset, tmp_path):
        """Attached models view one shared block read-only and predict
        identically to the originals."""
        from repro.simulation.campaign import publish_trained_models

        cache = TrainedModelCache(cache_dir=str(tmp_path))
        trained = cache.load_or_train("vgg13", small_dataset, TrainingSettings(epochs=1, seed=3))
        store = publish_trained_models([trained])
        try:
            assert store.nbytes_shared() > 0
            attached = store.attach()
            assert len(attached) == 1
            clone = attached[0]
            assert clone.name == trained.name
            assert clone.float_accuracy == trained.float_accuracy
            x = small_dataset.test_images[:4]
            np.testing.assert_array_equal(clone.model.forward(x), trained.model.forward(x))
            # Parameters are read-only views into the block, not copies.
            assert all(
                not p.flags.writeable and not p.flags.owndata
                for _, _, p in clone.model.parameters()
            )
            # attach() is idempotent per process.
            assert store.attach() is attached
        finally:
            del attached, clone
            store.unlink()

    def test_publish_trained_models_memmap_fallback(self, small_dataset, tmp_path):
        """Without POSIX shared memory the block degrades to a memmapped file."""
        import os

        from repro.simulation.campaign import publish_trained_models

        cache = TrainedModelCache(cache_dir=str(tmp_path))
        trained = cache.load_or_train("vgg13", small_dataset, TrainingSettings(epochs=1, seed=3))
        store = publish_trained_models([trained], prefer_shared_memory=False)
        try:
            assert store.kind == "memmap" and os.path.exists(store.name)
            clone = store.attach()[0]
            x = small_dataset.test_images[:4]
            np.testing.assert_array_equal(clone.model.forward(x), trained.model.forward(x))
        finally:
            del clone
            store.unlink()
        assert not os.path.exists(store.name)

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
