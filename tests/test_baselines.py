"""Tests of the Fig. 5 techniques (ours + the three state-of-the-art baselines)."""

import numpy as np
import pytest

from repro.baselines.alwann import AlwannBaseline, tune_weights, tuned_product
from repro.baselines.base import TechniqueResult
from repro.baselines.ours import ControlVariateTechnique
from repro.baselines.reconfigurable import ReconfigurableBaseline
from repro.baselines.weight_oriented import WeightOrientedBaseline, WeightOrientedProduct
from repro.core.control_variate import ControlVariate
from repro.dse.evaluator import PlanEvaluator
from repro.hardware.area_power import array_cost
from repro.core.accelerator_model import AcceleratorConfig
from repro.multipliers.accurate import AccurateMultiplier
from repro.multipliers.library import MultiplierLibrary
from repro.multipliers.truncated import TruncatedMultiplier
from repro.runtime.jobs import decode_plan, encode_plan
from repro.simulation.campaign import TrainedModel
from repro.simulation.inference import (
    AccurateProduct,
    ApproximateExecutor,
    ExecutionPlan,
    LUTProduct,
)

CALIBRATION_IMAGES = 64


@pytest.fixture(scope="module")
def library():
    return MultiplierLibrary.synthetic_evoapprox(seed=4, n_evolved=3)


@pytest.fixture(scope="module")
def trained(trained_tiny_model, tiny_dataset):
    return TrainedModel(
        name="vgg13",
        dataset_name=tiny_dataset.name,
        model=trained_tiny_model,
        float_accuracy=0.0,
    )


@pytest.fixture(scope="module")
def evaluator(trained, tiny_dataset):
    return PlanEvaluator(trained, tiny_dataset, calibration_images=CALIBRATION_IMAGES)


class _Surface:
    """Only the evaluator surface a technique may use, recording how many
    plans each ``evaluate`` call scores."""

    def __init__(self, evaluator, with_executor=False):
        self._evaluator = evaluator
        self.calls: list[int] = []
        if with_executor:
            self.executor = evaluator.executor

    def mac_layer_names(self):
        return self._evaluator.mac_layer_names()

    def evaluate(self, plans):
        plans = list(plans)
        self.calls.append(len(plans))
        return self._evaluator.evaluate(plans)


class TestWeightTuning:
    def test_identity_for_accurate_multiplier(self, rng):
        codes = rng.integers(0, 256, size=(9, 4)).astype(np.uint8)
        tuned = tune_weights(codes, AccurateMultiplier())
        assert np.array_equal(tuned, codes)

    def test_reduces_expected_error(self, rng):
        """Tuned weights never increase the mean absolute product error."""
        mult = TruncatedMultiplier(weight_bits=2, activation_bits=0)
        codes = rng.integers(0, 256, size=(30, 3)).astype(np.uint8)
        acts = rng.integers(0, 256, size=2000)
        lut = mult.build_lut()

        def mean_error(weight_codes):
            w = weight_codes.astype(np.int64).reshape(-1)
            return np.abs(
                lut[w[:, None], acts[None, :]] - codes.astype(np.int64).reshape(-1)[:, None] * acts[None, :]
            ).mean()

        tuned = tune_weights(codes, mult)
        assert mean_error(tuned) <= mean_error(codes) + 1e-9

    def test_range_validation(self):
        with pytest.raises(ValueError):
            tune_weights(np.array([300]), AccurateMultiplier())

    def test_respects_search_radius(self, rng):
        codes = rng.integers(5, 250, size=(10, 2)).astype(np.uint8)
        tuned = tune_weights(codes, TruncatedMultiplier(2, 0), search_radius=2)
        assert np.abs(tuned.astype(int) - codes.astype(int)).max() <= 2

    def test_activation_distribution_used(self, rng):
        codes = rng.integers(0, 256, size=(6, 2)).astype(np.uint8)
        acts = rng.integers(0, 32, size=500)
        tuned = tune_weights(codes, TruncatedMultiplier(1, 1), activation_codes=acts)
        assert tuned.shape == codes.shape

    @pytest.mark.parametrize(
        "multiplier", [TruncatedMultiplier(2, 1), TruncatedMultiplier(1, 2)], ids=str
    )
    def test_tuned_product_multiplies_the_tuned_weights(self, rng, multiplier):
        """The tuned table over a layer's own codes computes the products of
        the tuned codes under the library table."""
        weights = rng.integers(0, 256, size=(12, 5)).astype(np.uint8)
        acts = rng.integers(0, 256, size=(7, 12)).astype(np.uint8)
        cv = ControlVariate.from_weight_matrix(weights)
        tuned = tune_weights(weights, multiplier)
        assert not np.array_equal(tuned, weights)
        np.testing.assert_array_equal(
            tuned_product(multiplier).product_sums(acts, weights, cv),
            LUTProduct(multiplier).product_sums(acts, tuned, cv),
        )

    def test_tuned_product_fingerprint_names_the_tuning(self):
        multiplier = TruncatedMultiplier(2, 1)
        tuned = tuned_product(multiplier)
        assert tuned.fingerprint() != LUTProduct(multiplier).fingerprint()
        assert tuned.fingerprint() == tuned_product(multiplier).fingerprint()
        # The codec sends the tuned table by value: the tuning survives the wire.
        plan = ExecutionPlan.uniform(tuned)
        names = ["conv"]
        assert decode_plan(encode_plan(plan)).fingerprints(names) == plan.fingerprints(names)

    def test_accurate_tuning_is_the_accurate_table(self):
        assert tuned_product(AccurateMultiplier()).fingerprint() == (
            LUTProduct(AccurateMultiplier()).fingerprint()
        )

    def test_tuned_plans_run_compiled_as_on_the_reference_walk(
        self, trained_tiny_model, tiny_dataset
    ):
        """Every fixed-function entry of the default library, tuned, is
        bit-exact between the compiled and the reference walk."""
        images = tiny_dataset.test_images[:4]
        calibration = tiny_dataset.train_images[:CALIBRATION_IMAGES]
        compiled = ApproximateExecutor(trained_tiny_model, calibration)
        reference = ApproximateExecutor(trained_tiny_model, calibration, use_compiled=False)
        candidates = AlwannBaseline(MultiplierLibrary.synthetic_evoapprox())._candidates()
        plans = [ExecutionPlan.uniform(tuned_product(e.multiplier)) for e in candidates]
        got = compiled.forward_many(images, plans)
        want = reference.forward_many(images, plans)
        for compiled_out, reference_out in zip(got, want):
            np.testing.assert_array_equal(
                compiled_out.view(np.uint64), reference_out.view(np.uint64)
            )


class TestWeightOrientedProduct:
    def test_threshold_zero_means_all_conservative(self, rng):
        acts = rng.integers(0, 256, size=(7, 12))
        weights = rng.integers(0, 256, size=(12, 5))
        cv = ControlVariate.from_weight_matrix(weights)
        product = WeightOrientedProduct(m_low=0, m_high=2, threshold=0, compensate_mean=False)
        assert np.array_equal(product.product_sums(acts, weights, cv), acts @ weights)

    def test_threshold_max_means_all_aggressive(self, rng):
        from repro.core.approx_conv import perforated_product_sums

        acts = rng.integers(0, 256, size=(7, 12))
        weights = rng.integers(0, 256, size=(12, 5))
        cv = ControlVariate.from_weight_matrix(weights)
        product = WeightOrientedProduct(m_low=2, m_high=2, threshold=256, compensate_mean=False)
        assert np.array_equal(
            product.product_sums(acts, weights, cv),
            perforated_product_sums(acts, weights, 2),
        )

    def test_mean_compensation_reduces_bias(self, rng):
        acts = rng.integers(0, 256, size=(400, 24))
        weights = rng.integers(0, 256, size=(24, 3))
        cv = ControlVariate.from_weight_matrix(weights)
        exact = acts @ weights
        plain = WeightOrientedProduct(1, 2, threshold=128, compensate_mean=False)
        comp = WeightOrientedProduct(1, 2, threshold=128, compensate_mean=True)
        bias_plain = np.abs((exact - plain.product_sums(acts, weights, cv)).mean())
        bias_comp = np.abs((exact - comp.product_sums(acts, weights, cv)).mean())
        assert bias_comp < bias_plain

    def test_validation(self):
        with pytest.raises(ValueError):
            WeightOrientedProduct(3, 2, 10)
        with pytest.raises(ValueError):
            WeightOrientedProduct(0, 2, 300)

    def test_mode_masks(self, rng):
        weights = np.array([[10, 200], [150, 90]])
        product = WeightOrientedProduct(0, 2, threshold=100)
        assert np.array_equal(product.mode_masks(weights), np.array([[True, False], [False, True]]))


class TestTechniques:
    def test_ours_technique(self, evaluator):
        technique = ControlVariateTechnique(m=2, array_size=32)
        result = technique.apply(evaluator)
        assert isinstance(result, TechniqueResult)
        assert result.extra_cycles_per_layer == 1
        accurate_power = array_cost(AcceleratorConfig.accurate(32)).power_mw
        assert result.array_power_mw < accurate_power
        assert result.accuracy_loss_percent < 20.0

    def test_alwann_selects_feasible_multiplier(self, evaluator, library):
        technique = AlwannBaseline(library, array_size=32, max_accuracy_drop=0.05)
        result = technique.apply(evaluator)
        assert result.technique == "alwann"
        assert result.extra_cycles_per_layer == 0
        assert result.baseline_accuracy - result.accuracy <= 0.05
        assert "multiplier" in result.details

    def test_alwann_impossible_budget_falls_back_to_accurate(self, evaluator, library):
        technique = AlwannBaseline(
            library, array_size=32, max_accuracy_drop=-1.0, apply_weight_tuning=False
        )
        result = technique.apply(evaluator)
        assert result.details["multiplier"] == "accurate"
        assert result.accuracy == result.baseline_accuracy
        accurate_power = array_cost(AcceleratorConfig.accurate(32)).power_mw
        assert result.array_power_mw == pytest.approx(accurate_power, rel=1e-6)

    def test_weight_oriented_within_budget(self, evaluator):
        technique = WeightOrientedBaseline(array_size=32, max_accuracy_drop=0.05)
        result = technique.apply(evaluator)
        assert result.technique == "weight_oriented"
        assert result.baseline_accuracy - result.accuracy <= 0.05
        assert "configuration" in result.details

    def test_reconfigurable_assignment(self, evaluator):
        technique = ReconfigurableBaseline(array_size=32, max_accuracy_drop=0.05)
        result = technique.apply(evaluator)
        assert result.technique == "reconfigurable"
        assignment = result.details["assignment"]
        assert list(assignment) == evaluator.mac_layer_names()
        assert all(m in (0, 1, 2) for m in assignment.values())

    def test_reconfigurable_validation(self):
        with pytest.raises(ValueError):
            ReconfigurableBaseline(accuracy_levels=(0,))

    def test_ordering_ours_saves_most_power(self, evaluator, library):
        """Our technique's array power is the lowest among the four techniques
        (the driver of the Fig. 5 energy ordering)."""
        ours = ControlVariateTechnique(m=2, array_size=32).apply(evaluator)
        alwann = AlwannBaseline(library, array_size=32, max_accuracy_drop=0.02).apply(
            evaluator
        )
        woa = WeightOrientedBaseline(array_size=32, max_accuracy_drop=0.02).apply(evaluator)
        reconf = ReconfigurableBaseline(array_size=32, max_accuracy_drop=0.02).apply(
            evaluator
        )
        assert ours.array_power_mw < min(
            alwann.array_power_mw, woa.array_power_mw, reconf.array_power_mw
        )


def _technique(name, library):
    techniques = [
        ControlVariateTechnique(m=2, array_size=32),
        AlwannBaseline(library, array_size=32, max_accuracy_drop=0.05),
        WeightOrientedBaseline(array_size=32, max_accuracy_drop=0.05),
        ReconfigurableBaseline(array_size=32, max_accuracy_drop=0.05),
    ]
    return next(technique for technique in techniques if technique.name == name)


class TestScoringSurface:
    @pytest.mark.parametrize("name", ["ours", "alwann", "weight_oriented", "reconfigurable"])
    def test_reported_accuracies_match_a_fresh_executor(
        self, evaluator, library, trained, tiny_dataset, fresh_accuracies, name
    ):
        """Each technique reports the accuracy its chosen plan scores on a
        fresh executor, with no re-evaluation of its own."""
        result = _technique(name, library).apply(evaluator)
        accurate = ExecutionPlan.uniform(AccurateProduct())
        assert [result.accuracy, result.baseline_accuracy] == fresh_accuracies(
            trained, tiny_dataset, [result.plan, accurate], calibration_images=CALIBRATION_IMAGES
        )

    @pytest.mark.parametrize("name", ["alwann", "weight_oriented", "reconfigurable"])
    def test_searches_score_one_candidate_per_call(self, evaluator, library, name):
        """The accurate baseline is scored once, then one candidate per
        ``evaluate`` call, through nothing but the evaluator surface (and,
        for the weight-oriented thresholds, the local executor)."""
        surface = _Surface(evaluator, with_executor=name == "weight_oriented")
        result = _technique(name, library).apply(surface)
        assert surface.calls and set(surface.calls) == {1}
        assert result.baseline_accuracy == evaluator.evaluate(
            [ExecutionPlan.uniform(AccurateProduct())]
        )[0]

    def test_ours_scores_baseline_and_plan_in_one_call(self, evaluator, library):
        surface = _Surface(evaluator)
        _technique("ours", library).apply(surface)
        assert surface.calls == [2]

    def test_weight_oriented_reads_codes_from_the_local_executor(self, evaluator):
        """Without ``executor`` (a remote evaluator) the thresholds cannot be
        set, and nothing is scored."""
        surface = _Surface(evaluator)
        with pytest.raises(AttributeError):
            WeightOrientedBaseline(array_size=32).apply(surface)
        assert surface.calls == []
