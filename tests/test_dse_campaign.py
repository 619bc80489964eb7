"""End-to-end tests of the DSE campaign engine and its acceptance criteria.

The heavyweight criteria of the subsystem live here:

* the greedy campaign's minimum-energy point meets the loss budget and
  beats the all-accurate design on energy;
* every accuracy the campaign reports is **bit-exact** with the equivalent
  hand-enumerated :func:`repro.simulation.campaign.plan_sweep`;
* killing and re-running a campaign with ``resume=True`` performs **zero
  duplicate plan evaluations** (everything replays from the ledger), and a
  job-layer record under a campaign key is re-evaluated, not replayed;
* NSGA-II is deterministic under a fixed seed and scores each generation
  in one evaluator call;
* exhaustive search reproduces the brute-force front on a small space;
* each baseline adapter's external point is what its technique's ``apply``
  measures on the campaign's evaluator, in process and on a worker pool.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.baselines import AlwannBaseline, ReconfigurableBaseline, WeightOrientedBaseline
from repro.dse import (
    CampaignLedger,
    PlanEvaluator,
    SearchSpace,
    get_strategy,
    run_campaign,
)
from repro.dse.pareto import ParetoFront, ParetoPoint
from repro.dse.strategies import SearchStrategy
from repro.multipliers.library import MultiplierLibrary
from repro.runtime.jobs import JobManager
from repro.runtime.service import EvaluationService
from repro.simulation.campaign import TrainedModel, plan_sweep
from repro.simulation.inference import AccurateProduct, ExecutionPlan

pytestmark = pytest.mark.dse

MAX_LOSS = 0.5
CALIBRATION_IMAGES = 64


@pytest.fixture(scope="module")
def trained(trained_tiny_model, tiny_dataset):
    return TrainedModel(
        name="vgg13",
        dataset_name=tiny_dataset.name,
        model=trained_tiny_model,
        float_accuracy=0.0,
    )


def _evaluator(trained, tiny_dataset):
    """An in-process evaluator with the campaigns' calibration setup."""
    return PlanEvaluator(trained, tiny_dataset, calibration_images=CALIBRATION_IMAGES)


def _greedy_campaign(trained, tiny_dataset, **kwargs):
    return run_campaign(
        trained,
        tiny_dataset,
        strategy="greedy",
        max_loss=MAX_LOSS,
        evaluator=_evaluator(trained, tiny_dataset),
        array_size=64,
        **kwargs,
    )


@pytest.fixture(scope="module")
def greedy_result(trained, tiny_dataset, tmp_path_factory):
    ledger_dir = tmp_path_factory.mktemp("dse-ledger")
    result = _greedy_campaign(trained, tiny_dataset, ledger=CampaignLedger(str(ledger_dir)))
    return result, ledger_dir


class TestGreedyAcceptance:
    def test_min_energy_point_meets_loss_budget(self, greedy_result):
        result, _ = greedy_result
        best = result.best()
        assert best is not None
        assert best.accuracy_loss <= MAX_LOSS

    def test_min_energy_point_beats_accurate_energy(self, greedy_result):
        result, _ = greedy_result
        best = result.best()
        assert best.energy_nj < result.accurate_energy_nj
        assert result.energy_reduction_percent() > 0

    def test_front_is_nondominated(self, greedy_result):
        result, _ = greedy_result
        points = result.front.points()
        for a in points:
            assert not any(b.dominates(a) for b in points if b is not a)

    def test_accuracies_bit_exact_with_hand_enumerated_plan_sweep(
        self, greedy_result, trained, tiny_dataset
    ):
        """Every campaign accuracy equals the plan_sweep value for that plan."""
        result, _ = greedy_result
        space = SearchSpace.build(trained.model, tiny_dataset.image_shape, array_size=64)
        sampled = [
            p for p in result.points if "assignment" in p.meta and not p.meta.get("external")
        ]
        # The full point set is large; the front plus a deterministic slice
        # of the evaluated points is plenty to pin bit-exactness.
        chosen = {p.label: p for p in result.front.points()}
        for point in sampled[:: max(1, len(sampled) // 8)]:
            chosen.setdefault(point.label, point)
        labeled_plans = [
            (label, space.plan(point.meta["assignment"]))
            for label, point in chosen.items()
        ]
        records = plan_sweep(
            [trained],
            {tiny_dataset.name: tiny_dataset},
            labeled_plans,
            calibration_images=CALIBRATION_IMAGES,
            max_workers=1,
        )
        sweep_acc = {r.plan_label: r.accuracy for r in records}
        for label, point in chosen.items():
            assert sweep_acc[label] == point.accuracy  # bit-exact, no tolerance

    def test_resume_performs_zero_duplicate_evaluations(
        self, greedy_result, trained, tiny_dataset
    ):
        first, ledger_dir = greedy_result
        resumed = _greedy_campaign(
            trained,
            tiny_dataset,
            ledger=CampaignLedger(str(ledger_dir)),
            resume=True,
        )
        assert resumed.stats["evaluations"] == 0
        assert resumed.stats["ledger_replays"] == first.stats["evaluations"]
        assert resumed.front.points() == first.front.points()
        assert resumed.baseline_accuracy == first.baseline_accuracy

    def test_interrupted_campaign_resumes_without_rework(
        self, trained, tiny_dataset, tmp_path
    ):
        """A budget-killed campaign resumes: replays everything, only new
        plans are evaluated, and the union converges to the full result."""
        ledger = CampaignLedger(str(tmp_path))
        partial = _greedy_campaign(
            trained, tiny_dataset, ledger=ledger, budget_evals=10
        )
        assert partial.stats["evaluations"] <= 10
        resumed = _greedy_campaign(
            trained,
            tiny_dataset,
            ledger=CampaignLedger(str(tmp_path)),
            resume=True,
        )
        # Every previously evaluated plan came from the ledger...
        assert resumed.stats["ledger_replays"] == partial.stats["evaluations"]
        # ... and the resumed run never re-evaluated one of them: fresh
        # evaluations and replays partition the point set.
        assert (
            resumed.stats["ledger_replays"] + resumed.stats["evaluations"]
            == resumed.stats["points"]
        )


    def test_resume_reevaluates_job_layer_records(
        self, trained, tiny_dataset, tmp_path
    ):
        """The job layer keys its --cache-persist ("result-cache") records
        with the campaign's plan_key recipe but stores only an accuracy: a
        resumed campaign treats such a record as a miss, evaluates the plan
        and overwrites the record with a replayable one."""
        manager = JobManager(
            [trained],
            {tiny_dataset.name: tiny_dataset},
            calibration_images=CALIBRATION_IMAGES,
            cache_persist_dir=str(tmp_path),
        )
        try:
            job = manager.submit(0, [ExecutionPlan.uniform(AccurateProduct())])
            assert job.wait(timeout=120)
        finally:
            manager.close()
        (record_path,) = tmp_path.glob("*.json")
        assert json.loads(record_path.read_text())["kind"] == "result-cache"

        resumed = _greedy_campaign(
            trained,
            tiny_dataset,
            ledger=CampaignLedger(str(tmp_path)),
            resume=True,
            budget_evals=2,
        )
        assert resumed.stats["ledger_replays"] == 0
        assert resumed.stats["ledger"]["hits"] == 0
        record = json.loads(record_path.read_text())
        assert record["accuracy"] == resumed.baseline_accuracy
        assert record["energy_nj"] == resumed.accurate_energy_nj
        # The overwritten record replays on the next resume.
        again = _greedy_campaign(
            trained,
            tiny_dataset,
            ledger=CampaignLedger(str(tmp_path)),
            resume=True,
            budget_evals=2,
        )
        assert again.stats["ledger_replays"] >= 1
        assert again.baseline_accuracy == resumed.baseline_accuracy


class TestBudgetAndDedup:
    def test_budget_caps_fresh_evaluations(self, trained, tiny_dataset):
        result = _greedy_campaign(trained, tiny_dataset, budget_evals=5)
        assert result.stats["evaluations"] <= 5

    def test_budget_must_cover_the_baseline(self, trained, tiny_dataset):
        with pytest.raises(ValueError):
            _greedy_campaign(trained, tiny_dataset, budget_evals=0)

    def test_duplicate_assignments_scored_once(self, trained, tiny_dataset):
        class DuplicateStrategy(SearchStrategy):
            name = "duplicate-probe"

            def search(self, ctx):
                step = (1,) + (0,) * (ctx.space.num_layers - 1)
                first = ctx.score([step, step])
                second = ctx.score([step])
                assert first[0] is first[1] is second[0]

        result = run_campaign(
            trained,
            tiny_dataset,
            strategy=DuplicateStrategy(),
            max_loss=MAX_LOSS,
            evaluator=_evaluator(trained, tiny_dataset),
            array_size=64,
        )
        # accurate + the single stepped plan; duplicates only bump the counter.
        assert result.stats["evaluations"] == 2
        assert result.stats["dedup_hits"] == 2


class TestNsga2:
    def _run(self, trained, tiny_dataset, seed: int):
        return run_campaign(
            trained,
            tiny_dataset,
            strategy=get_strategy("nsga2", population=8, generations=2),
            max_loss=MAX_LOSS,
            budget_evals=40,
            evaluator=_evaluator(trained, tiny_dataset),
            rng=np.random.default_rng(seed),
            array_size=64,
        )

    def test_seeded_runs_are_identical(self, trained, tiny_dataset):
        a = self._run(trained, tiny_dataset, seed=123)
        b = self._run(trained, tiny_dataset, seed=123)
        assert a.front.points() == b.front.points()
        assert a.stats["evaluations"] == b.stats["evaluations"]

    def test_respects_budget_and_keeps_accurate_anchor(self, trained, tiny_dataset):
        result = self._run(trained, tiny_dataset, seed=7)
        assert result.stats["evaluations"] <= 40
        # The all-accurate anchor is always evaluated first.
        labels = {p.label for p in result.points}
        accurate_label = "-".join(["A"] * 9)
        assert any(label == accurate_label for label in labels)

    def test_one_evaluate_call_per_generation(self, trained, tiny_dataset):
        """The baseline, the initial population and each generation's
        children are one ``evaluate`` call (one service batch) each."""
        calls: list[int] = []

        class CountingEvaluator(PlanEvaluator):
            def evaluate(self, plans):
                calls.append(len(plans))
                return super().evaluate(plans)

        evaluator = CountingEvaluator(
            trained, tiny_dataset, calibration_images=CALIBRATION_IMAGES
        )
        generations = 2
        result = run_campaign(
            trained,
            tiny_dataset,
            strategy=get_strategy("nsga2", population=6, generations=generations),
            max_loss=MAX_LOSS,
            rng=np.random.default_rng(3),
            evaluator=evaluator,
            array_size=64,
        )
        assert len(calls) == 2 + generations
        assert calls[0] == 1  # the all-accurate baseline
        assert sum(calls) == result.stats["evaluations"] == evaluator.evaluations
        assert evaluator.service.batches_submitted == len(calls)


class TestExhaustive:
    def test_matches_brute_force_front(self, trained, tiny_dataset, fresh_accuracies):
        layers = ["s0_c0_conv", "s0_c1_conv", "classifier"]
        space = SearchSpace.build(
            trained.model,
            tiny_dataset.image_shape,
            perforations=(2,),
            include_no_cv=False,
            layers=layers,
        )
        assert space.size() == 8
        result = run_campaign(
            trained,
            tiny_dataset,
            strategy="exhaustive",
            max_loss=MAX_LOSS,
            space=space,
            evaluator=_evaluator(trained, tiny_dataset),
        )
        assert result.stats["evaluations"] == space.size()

        # Brute force, every plan on its own fresh executor (same setup).
        assignments = list(space.enumerate_assignments())
        accuracies = fresh_accuracies(
            trained,
            tiny_dataset,
            [space.plan(a) for a in assignments],
            calibration_images=CALIBRATION_IMAGES,
        )
        expected = ParetoFront()
        baseline = accuracies[assignments.index((0, 0, 0))]
        for assignment, acc in zip(assignments, accuracies):
            expected.add(
                ParetoPoint(
                    label=space.label(assignment),
                    energy_nj=space.energy_nj(assignment),
                    accuracy=acc,
                    accuracy_loss=100.0 * (baseline - acc),
                )
            )
        assert result.front.points() == expected.points()


    def test_unbudgeted_exhaustive_on_huge_space_rejected(self, trained, tiny_dataset):
        with pytest.raises(ValueError, match="needs an evaluation budget"):
            run_campaign(
                trained,
                tiny_dataset,
                strategy="exhaustive",
                max_loss=MAX_LOSS,
            )


class TestBaselineStrategies:
    def test_ours_fixed_contributes_external_point(self, trained, tiny_dataset):
        result = run_campaign(
            trained,
            tiny_dataset,
            strategy="ours-fixed",
            max_loss=MAX_LOSS,
            evaluator=_evaluator(trained, tiny_dataset),
            array_size=64,
        )
        external = [p for p in result.points if p.meta.get("external")]
        assert len(external) == 1
        assert external[0].label == "ours"
        assert external[0].energy_nj > 0
        # One-call techniques spend no campaign evaluations beyond the anchor.
        assert result.stats["evaluations"] == 1


#: Loss budget of the adapter tests, in percentage points: loose enough that
#: every technique approximates something on the tiny network.
ADAPTER_MAX_LOSS = 10.0

_TECHNIQUES = {
    "alwann": lambda: AlwannBaseline(
        MultiplierLibrary.synthetic_evoapprox(),
        array_size=64,
        max_accuracy_drop=ADAPTER_MAX_LOSS / 100.0,
    ),
    "weight-oriented": lambda: WeightOrientedBaseline(
        array_size=64, max_accuracy_drop=ADAPTER_MAX_LOSS / 100.0
    ),
    "reconfigurable": lambda: ReconfigurableBaseline(
        array_size=64, max_accuracy_drop=ADAPTER_MAX_LOSS / 100.0
    ),
}


@pytest.fixture(scope="class", params=[1, 2], ids=["in-process", "2-worker"])
def service_evaluator(request, trained, tiny_dataset):
    """A :class:`PlanEvaluator` on an in-process service and on a 2-worker pool."""
    with EvaluationService(
        [trained],
        {tiny_dataset.name: tiny_dataset},
        max_workers=request.param,
        calibration_images=CALIBRATION_IMAGES,
    ) as service:
        yield PlanEvaluator(trained, tiny_dataset, service=service)


class TestBaselineAdapters:
    @pytest.mark.parametrize("strategy", sorted(_TECHNIQUES))
    def test_external_point_equals_the_technique(
        self, trained, tiny_dataset, service_evaluator, strategy
    ):
        result = run_campaign(
            trained,
            tiny_dataset,
            strategy=strategy,
            max_loss=ADAPTER_MAX_LOSS,
            evaluator=service_evaluator,
            array_size=64,
        )
        external = [p for p in result.points if p.meta.get("external")]
        assert len(external) == 1
        point = external[0]
        expected = _TECHNIQUES[strategy]().apply(service_evaluator)
        space = SearchSpace.build(trained.model, tiny_dataset.image_shape, array_size=64)
        assert point.label == expected.technique
        assert point.accuracy == expected.accuracy
        assert point.energy_nj == space.uniform_energy_nj(
            expected.array_power_mw,
            extra_cycles_per_layer=expected.extra_cycles_per_layer,
        )
        assert point.meta["details"] == expected.details
        assert result.baseline_accuracy == expected.baseline_accuracy
        # The technique's own search is not charged to the campaign budget.
        assert result.stats["evaluations"] == 1
