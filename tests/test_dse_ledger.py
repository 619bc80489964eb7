"""Tests of the campaign ledger, its content addressing, and SeedBank."""

from __future__ import annotations

import errno
import json
import os

import numpy as np
import pytest

from repro.core.seeding import SeedBank
from repro.dse.ledger import CampaignLedger, evaluation_context_key, plan_key
from repro.models.zoo import build_model
from repro.simulation.inference import (
    AccurateProduct,
    ExecutionPlan,
    LUTProduct,
    PerforatedProduct,
)
from repro.multipliers.perforated import PerforatedMultiplier
from repro.runtime.jobs.cache import ResultCache

pytestmark = pytest.mark.dse


@pytest.fixture(scope="module")
def small_model():
    return build_model("vgg13", num_classes=4, base_width=8, rng=np.random.default_rng(0))


@pytest.fixture(scope="module")
def context(small_model):
    rng = np.random.default_rng(3)
    eval_images = rng.uniform(size=(8, 16, 16, 3))
    eval_labels = rng.integers(0, 4, 8)
    calib = rng.uniform(size=(4, 16, 16, 3))
    key = evaluation_context_key(small_model, eval_images, eval_labels, calib)
    return small_model, eval_images, eval_labels, calib, key


LAYERS = ("s0_c0_conv", "s0_c1_conv", "classifier")


class TestContextKey:
    def test_stable_across_calls(self, context):
        model, images, labels, calib, key = context
        assert evaluation_context_key(model, images, labels, calib) == key

    def test_sensitive_to_eval_arrays(self, context):
        model, images, labels, calib, key = context
        perturbed = images.copy()
        perturbed[0, 0, 0, 0] += 1e-9
        assert evaluation_context_key(model, perturbed, labels, calib) != key

    def test_sensitive_to_calibration_and_knobs(self, context):
        model, images, labels, calib, key = context
        assert evaluation_context_key(model, images, labels, calib[:2]) != key
        assert (
            evaluation_context_key(model, images, labels, calib, batch_size=128) != key
        )
        assert evaluation_context_key(model, images, labels, calib, tag="other") != key

    def test_sensitive_to_model_parameters(self, context):
        _, images, labels, calib, key = context
        other = build_model(
            "vgg13", num_classes=4, base_width=8, rng=np.random.default_rng(1)
        )
        assert evaluation_context_key(other, images, labels, calib) != key


class TestPlanKey:
    def test_behavioral_addressing_m0_equals_accurate(self, context):
        *_, key = context
        accurate = ExecutionPlan.uniform(AccurateProduct())
        m0 = ExecutionPlan.uniform(PerforatedProduct(0))
        assert plan_key(key, accurate, LAYERS) == plan_key(key, m0, LAYERS)

    def test_distinct_plans_distinct_keys(self, context):
        *_, key = context
        a = ExecutionPlan.uniform(PerforatedProduct(1))
        b = ExecutionPlan.uniform(PerforatedProduct(2))
        assert plan_key(key, a, LAYERS) != plan_key(key, b, LAYERS)

    def test_lut_plans_keyed_by_table_digest(self, context):
        *_, key = context
        a = ExecutionPlan.uniform(LUTProduct(PerforatedMultiplier(1)))
        b = ExecutionPlan.uniform(LUTProduct(PerforatedMultiplier(1)))
        assert plan_key(key, a, LAYERS) == plan_key(key, b, LAYERS)

    def test_context_partitions_records(self, context):
        *_, key = context
        plan = ExecutionPlan.uniform(PerforatedProduct(1))
        assert plan_key(key, plan, LAYERS) != plan_key("other-context", plan, LAYERS)


class TestCampaignLedger:
    def test_round_trip_and_counters(self, tmp_path):
        ledger = CampaignLedger(path=str(tmp_path))
        assert ledger.get("k1") is None
        ledger.put("k1", {"accuracy": 0.5})
        assert ledger.get("k1") == {"accuracy": 0.5}
        assert ledger.hits == 1 and ledger.misses == 1
        assert len(ledger) == 1

    def test_records_survive_new_instance(self, tmp_path):
        CampaignLedger(path=str(tmp_path)).put("k", {"energy_nj": 1.0})
        fresh = CampaignLedger(path=str(tmp_path))
        assert fresh.contains("k")
        assert fresh.get("k") == {"energy_nj": 1.0}

    def test_record_files_are_valid_json(self, tmp_path):
        ledger = CampaignLedger(path=str(tmp_path))
        ledger.put("deadbeef", {"label": "A", "accuracy": 0.75})
        path = os.path.join(str(tmp_path), "deadbeef.json")
        with open(path, "r", encoding="utf-8") as handle:
            assert json.load(handle)["label"] == "A"
        # No temp files left behind.
        assert all(not name.endswith(".tmp") for name in os.listdir(str(tmp_path)))

    def test_corrupt_record_treated_as_missing(self, tmp_path):
        ledger = CampaignLedger(path=str(tmp_path))
        with open(os.path.join(str(tmp_path), "bad.json"), "w") as handle:
            handle.write("{not json")
        assert ledger.get("bad") is None

    def test_non_utf8_record_treated_as_missing(self, tmp_path):
        """Byte garbage is a miss, and a warm-starting result cache skips it
        and still loads the good records."""
        CampaignLedger(path=str(tmp_path)).put("good", {"accuracy": 0.25})
        with open(os.path.join(str(tmp_path), "garbage.json"), "wb") as handle:
            handle.write(b"\xff\xfe\x80 not utf-8 \xc3")
        ledger = CampaignLedger(path=str(tmp_path))
        assert ledger.get("garbage") is None
        assert ledger.get("good") == {"accuracy": 0.25}
        assert ledger.misses == 1 and ledger.hits == 1
        cache = ResultCache(persist_dir=str(tmp_path))
        assert cache.stats()["loaded"] == 1
        assert cache.get("good") == 0.25

    def test_non_object_record_treated_as_missing(self, tmp_path):
        """A JSON value that is not an object is a miss, not a record."""
        CampaignLedger(path=str(tmp_path)).put("good", {"accuracy": 0.5})
        with open(os.path.join(str(tmp_path), "list.json"), "w") as handle:
            json.dump([1, 2], handle)
        ledger = CampaignLedger(path=str(tmp_path))
        assert ledger.get("list") is None
        assert ledger.misses == 1
        assert list(ledger.iter_disk_records()) == [("good", {"accuracy": 0.5})]
        assert ResultCache(persist_dir=str(tmp_path)).get("good") == 0.5

    def test_enospc_on_overwrite_keeps_the_old_record(self, tmp_path, monkeypatch):
        """A full disk while ``put`` overwrites a record: the error
        propagates, no temp file is left, and the old record file is
        byte-identical and still readable by a fresh ledger."""
        ledger = CampaignLedger(path=str(tmp_path))
        ledger.put("k", {"accuracy": 0.5})
        record = tmp_path / "k.json"
        before = record.read_bytes()

        def no_space(src, dst):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), dst)

        monkeypatch.setattr(os, "replace", no_space)
        with pytest.raises(OSError) as raised:
            ledger.put("k", {"accuracy": 0.75})
        monkeypatch.undo()
        assert raised.value.errno == errno.ENOSPC
        assert sorted(path.name for path in tmp_path.iterdir()) == ["k.json"]
        assert record.read_bytes() == before
        assert CampaignLedger(path=str(tmp_path)).get("k") == {"accuracy": 0.5}

    def test_memory_only_ledger(self):
        ledger = CampaignLedger(path=None)
        ledger.put("k", {"a": 1})
        assert ledger.get("k") == {"a": 1}
        assert ledger.stats()["records"] == 1

    def test_contains_does_not_touch_counters(self, tmp_path):
        ledger = CampaignLedger(path=str(tmp_path))
        ledger.put("k", {})
        assert ledger.contains("k") and not ledger.contains("missing")
        assert ledger.hits == 0 and ledger.misses == 0


class TestSeedBank:
    def test_streams_are_deterministic(self):
        a = SeedBank(42).generator("nsga2").integers(0, 1000, 5)
        b = SeedBank(42).generator("nsga2").integers(0, 1000, 5)
        assert np.array_equal(a, b)

    def test_streams_are_independent_by_name(self):
        bank = SeedBank(42)
        assert bank.seed_for("nsga2") != bank.seed_for("dataset")
        a = bank.generator("nsga2").integers(0, 1000, 5)
        b = bank.generator("dataset").integers(0, 1000, 5)
        assert not np.array_equal(a, b)

    def test_root_seed_changes_every_stream(self):
        assert SeedBank(1).seed_for("x") != SeedBank(2).seed_for("x")

    def test_none_seed_is_stable_default(self):
        assert SeedBank(None).seed_for("x") == SeedBank(None).seed_for("x")

    def test_spawn_is_hierarchical(self):
        child = SeedBank(7).spawn("worker")
        assert child.root_seed == SeedBank(7).seed_for("worker")
