"""Image-shard parallelism of the executor.

``ApproximateExecutor.forward_many`` splits every batch into contiguous
image shards, one thread each (the process's core share,
:func:`repro.runtime.sizing.eval_thread_count`).  Every operation from the
input to the logits is per-image, so the split must never change a bit.
This suite pins that and the shard-safety of the state the shards share:

* sharded logits equal the one-thread walk bit for bit on a plain, a
  grouped-conv and a residual network, under accurate,
  perforated and LUT plan mixes, for batches of 1, 2 and an odd size, and
  with LUT layers that stream their error terms tap by tap;
* the fused-launch counters count every physical launch exactly, and a
  kernel both shards need is compiled once;
* a failing shard's exception reaches the caller, and the process pins its
  BLAS to one thread before a sharded walk only;
* one compiled LUT kernel called from two threads with different row
  counts gives every caller its one-thread result (the one-hot scratch
  array is bound once per call).
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.core.backends import NumpyBackend
from repro.core.product_kernels import LUTKernel, MultiPlanKernel
from repro.models.zoo import build_model
from repro.multipliers.perforated import PerforatedMultiplier
from repro.multipliers.truncated import TruncatedMultiplier
from repro.runtime import sizing
from repro.simulation.inference import (
    AccurateProduct,
    ApproximateExecutor,
    ExecutionPlan,
    LUTProduct,
    PerforatedProduct,
    ProductModel,
)

pytestmark = pytest.mark.engine

NETWORKS = {
    "vgg13": {},
    "shufflenet": {},  # grouped convolutions
    "resnet44": {"base_width": 4},  # residual merges
}


@pytest.fixture
def cpus(monkeypatch):
    """Set the schedulable CPUs the executor splits its batches over."""

    def set_cpus(count: int) -> None:
        monkeypatch.setattr(sizing, "effective_cpu_count", lambda: count)

    return set_cpus


_EXECUTORS: dict[str, ApproximateExecutor] = {}


def _executor(name: str, tiny_dataset) -> ApproximateExecutor:
    if name not in _EXECUTORS:
        model = build_model(
            name,
            num_classes=tiny_dataset.num_classes,
            rng=np.random.default_rng(3),
            **NETWORKS[name],
        )
        _EXECUTORS[name] = ApproximateExecutor(model, tiny_dataset.train_images[:32])
    return _EXECUTORS[name]


def _plan_mix(executor: ApproximateExecutor) -> list[ExecutionPlan]:
    """Uniform accurate / perforated / LUT plans plus per-layer mixes."""
    names = executor.mac_layer_names()
    lut = LUTProduct(TruncatedMultiplier(1, 2))
    mixed = ExecutionPlan.uniform(PerforatedProduct(1))
    for i, name in enumerate(names):
        choice = (AccurateProduct(), PerforatedProduct(3, False), lut)[i % 3]
        mixed = mixed.with_layer(name, choice)
    return [
        ExecutionPlan.uniform(AccurateProduct()),
        ExecutionPlan.uniform(PerforatedProduct(2)),
        ExecutionPlan.uniform(PerforatedProduct(3, use_control_variate=False)),
        ExecutionPlan.uniform(LUTProduct(PerforatedMultiplier(2))),
        mixed,
        mixed.with_layer(names[-1], PerforatedProduct(2)),
    ]


class TestShardedForwardMany:
    @pytest.mark.parametrize("network", sorted(NETWORKS))
    @pytest.mark.parametrize("batch", [1, 2, 7])
    def test_sharded_logits_equal_the_one_thread_walk_bit_for_bit(
        self, tiny_dataset, cpus, network, batch
    ):
        executor = _executor(network, tiny_dataset)
        plans = _plan_mix(executor)
        images = tiny_dataset.test_images[:batch]
        cpus(1)
        one_thread = executor.forward_many(images, plans)
        cpus(3)  # 7 images: shards of 2, 2 and 3
        sharded = executor.forward_many(images, plans)
        assert len(sharded) == len(plans)
        for expected, logits in zip(one_thread, sharded):
            assert logits.dtype == np.float64
            np.testing.assert_array_equal(
                logits.view(np.uint64), expected.view(np.uint64)
            )

    @pytest.mark.parametrize("network", sorted(NETWORKS))
    def test_sharded_streaming_lut_logits_equal_the_one_thread_walk(
        self, tiny_dataset, cpus, streaming_lut, network
    ):
        """LUT layers streaming their error terms tap by tap, uniform and
        mixed with compiled-LUT and perforated layers, split over shards."""
        executor = _executor(network, tiny_dataset)
        names = executor.mac_layer_names()
        lut = streaming_lut(TruncatedMultiplier(1, 2))
        mixed = ExecutionPlan.uniform(lut)
        for i, name in enumerate(names):
            choice = (lut, LUTProduct(PerforatedMultiplier(2)), PerforatedProduct(2))[i % 3]
            mixed = mixed.with_layer(name, choice)
        plans = [ExecutionPlan.uniform(lut), mixed]
        images = tiny_dataset.test_images[:7]
        cpus(1)
        one_thread = executor.forward_many(images, plans)
        cpus(3)
        sharded = executor.forward_many(images, plans)
        for expected, logits in zip(one_thread, sharded):
            np.testing.assert_array_equal(
                logits.view(np.uint64), expected.view(np.uint64)
            )
        assert lut.compiled and all(k._error_matrix is None for k in lut.compiled)

    def test_fused_counters_count_every_shard_launch(
        self, trained_tiny_model, tiny_dataset, cpus
    ):
        """Four shards (more than the cores) make exactly four times the
        one-shard launches, each carrying the same plans, so plans per
        launch does not move; a lost counter update would break it."""
        calib = tiny_dataset.train_images[:32]
        plans = _plan_mix(ApproximateExecutor(trained_tiny_model, calib))
        images = tiny_dataset.test_images[:8]
        stats = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for shards in (1, 4):
                cpus(shards)
                executor = ApproximateExecutor(trained_tiny_model, calib)
                for _ in range(3):
                    executor.forward_many(images, plans)
                stats[shards] = executor.fused_stats()
        finally:
            sys.setswitchinterval(interval)
        assert stats[1]["fused_launches"] > 0
        assert stats[4]["fused_launches"] == 4 * stats[1]["fused_launches"]
        assert stats[4]["fused_plans_total"] == 4 * stats[1]["fused_plans_total"]

    def test_shards_compile_each_kernel_once(
        self, trained_tiny_model, tiny_dataset, cpus, monkeypatch
    ):
        compiled: list[int] = []
        compile_multi = NumpyBackend.compile_multi

        def spy(backend, models, *args, **kwargs):
            compiled.append(len(models))
            return compile_multi(backend, models, *args, **kwargs)

        monkeypatch.setattr(NumpyBackend, "compile_multi", spy)
        calib = tiny_dataset.train_images[:32]
        images = tiny_dataset.test_images[:8]
        counts = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for shards in (1, 4):
                cpus(shards)
                executor = ApproximateExecutor(trained_tiny_model, calib)
                compiled.clear()
                executor.forward_many(images, _plan_mix(executor))
                counts[shards] = sorted(compiled)
        finally:
            sys.setswitchinterval(interval)
        # The spy sits on the executor's one compile path, so it must see
        # every fused kernel the walk builds.
        assert counts[1]
        assert counts[4] == counts[1]

    def test_a_failing_shard_raises_to_the_caller(
        self, trained_tiny_model, tiny_dataset, cpus
    ):
        class Exploding(ProductModel):
            def product_sums(self, act_codes, weight_codes, control_variate):
                raise RuntimeError("shard failure")

            def fingerprint(self) -> tuple:
                return ("exploding",)

        executor = ApproximateExecutor(trained_tiny_model, tiny_dataset.train_images[:32])
        cpus(2)
        with pytest.raises(RuntimeError, match="shard failure"):
            executor.forward(tiny_dataset.test_images[:4], ExecutionPlan.uniform(Exploding()))

    def test_blas_is_pinned_before_a_sharded_walk_only(
        self, trained_tiny_model, tiny_dataset, cpus, monkeypatch
    ):
        threads: list[int] = []
        monkeypatch.setattr(
            sizing, "_openblas_thread_calls", lambda: (threads.append, lambda: 1)
        )
        executor = ApproximateExecutor(trained_tiny_model, tiny_dataset.train_images[:32])
        plan = ExecutionPlan.uniform(PerforatedProduct(2))
        cpus(2)
        executor.forward(tiny_dataset.test_images[:1], plan)  # one image: one shard
        assert threads == []
        executor.forward(tiny_dataset.test_images[:2], plan)
        assert threads == [sizing.EVAL_BLAS_THREADS]


def _lut_table() -> np.ndarray:
    levels = np.arange(256, dtype=np.int64)
    lut = levels[:, None] * levels[None, :]
    return lut - (lut % 7)  # a non-exact table: the error term is compiled


class _ScratchRace:
    """Forces the worst interleaving of two callers on the ``_ones`` scratch.

    Both callers see the array too short, the long caller stores its longer
    array first, the short caller overwrites it, and only then may the long
    caller read the attribute again.  A kernel that reads the scratch once
    per call never waits at that last step.
    """

    #: (role, access, n-th access of that kind) -> (wait for, then signal)
    SCRIPT = {
        ("long", "read", 1): (None, "long_read"),
        ("short", "read", 1): ("long_read", "short_read"),
        ("long", "write", 1): ("short_read", "long_write"),
        ("short", "write", 1): ("long_write", "short_write"),
        ("long", "read", 2): ("short_write", None),
    }

    def arm(self, roles: dict[int, str]) -> None:
        """Script the next round for the threads of ``roles`` (ident -> role)."""
        self.__dict__["_race"] = {
            "roles": roles,
            "counts": {},
            "events": {name: threading.Event() for _, name in self.SCRIPT.values() if name},
        }

    def _gated(self, access: str, action):
        race = self.__dict__.get("_race")
        role = race and race["roles"].get(threading.get_ident())
        if role is None:
            return action()
        key = (role, access)
        race["counts"][key] = race["counts"].get(key, 0) + 1
        wait, signal = self.SCRIPT.get((*key, race["counts"][key]), (None, None))
        if wait is not None and not race["events"][wait].wait(timeout=10):
            raise TimeoutError(f"{role} {access} waited for {wait}")
        result = action()
        if signal is not None:
            race["events"][signal].set()
        return result

    def __getattribute__(self, name):
        if name != "_ones":
            return object.__getattribute__(self, name)
        return self._gated("read", lambda: object.__getattribute__(self, name))

    def __setattr__(self, name, value):
        if name != "_ones":
            return object.__setattr__(self, name, value)
        return self._gated("write", lambda: object.__setattr__(self, name, value))


class _RacedLUTKernel(_ScratchRace, LUTKernel):
    pass


class _RacedMultiPlanKernel(_ScratchRace, MultiPlanKernel):
    pass


@pytest.mark.parametrize("fused", [False, True], ids=["lut_kernel", "multi_plan"])
def test_one_lut_kernel_called_from_two_threads_is_exact(fused):
    """Each round two threads call one compiled LUT kernel with different
    row counts, both growing its one-hot scratch array in the interleaving
    that lets the shorter array win; every result must still equal the
    one-thread result."""
    rng = np.random.default_rng(5)
    taps, filters, rounds = 9, 4, 20
    weights = rng.integers(0, 256, size=(taps, filters), dtype=np.uint8)
    acts = rng.integers(0, 256, size=(8 + 3 * rounds, taps), dtype=np.uint8)
    lut = _lut_table()
    if fused:
        blocks = [LUTKernel(weights, lut), LUTKernel(weights, lut - (lut % 5))]
        kernel = _RacedMultiPlanKernel(blocks)
        reference = MultiPlanKernel(blocks)

        def evaluate(target, rows):
            return target.product_sums_multi(acts[:rows], shared=True)

    else:
        kernel = _RacedLUTKernel(weights, lut)
        reference = LUTKernel(weights, lut)

        def evaluate(target, rows):
            return target(acts[:rows])

    rows_of = {"long": lambda step: 8 + 3 * step, "short": lambda step: 5 + 2 * step}
    expected = {
        rows: evaluate(reference, rows)
        for rows_at in rows_of.values()
        for rows in map(rows_at, range(rounds))
    }
    failures: list[str] = []
    barrier = threading.Barrier(3, timeout=30)

    def caller(role: str) -> None:
        for step in range(rounds):
            barrier.wait()  # the main thread arms the round
            barrier.wait()
            rows = rows_of[role](step)
            try:
                if not np.array_equal(evaluate(kernel, rows), expected[rows]):
                    failures.append(f"{role}: wrong sums at {rows} rows")
            except Exception as exc:  # noqa: BLE001 - reported below
                failures.append(f"{role}: {type(exc).__name__} at {rows} rows: {exc}")

    threads = {role: threading.Thread(target=caller, args=(role,)) for role in rows_of}
    for thread in threads.values():
        thread.start()
    for _ in range(rounds):
        barrier.wait()
        kernel._ones = np.empty(0, dtype=np.int8)  # both callers must grow it
        kernel.arm({thread.ident: role for role, thread in threads.items()})
        barrier.wait()
    for thread in threads.values():
        thread.join(timeout=60)
        assert not thread.is_alive()
    assert failures == []
