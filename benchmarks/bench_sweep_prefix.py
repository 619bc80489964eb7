"""Shared-memory publishing footprint of the multi-process sweep.

Publishing the trained parameters *and the evaluation datasets* through the
shared-memory store must shrink the pickled per-worker payload by a large
factor; the private (unique) bytes a worker holds after materializing the
evaluation images are measured via ``/proc/<pid>/smaps_rollup`` in a fresh
subprocess.

Results are printed, written to ``results/sweep_prefix.txt`` and merged into
the ``sweep_prefix`` section of the machine-readable
``results/BENCH_engine.json`` ledger.  Run via pytest
(``pytest -m engine benchmarks/bench_sweep_prefix.py``) or as a script.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
import tempfile

import numpy as np
import pytest

from conftest import record_bench, update_json_result, write_result

from repro.datasets.synthetic import SyntheticCifarConfig, make_synthetic_cifar
from repro.models.zoo import build_model
from repro.nn.optimizers import SGD
from repro.nn.training import Trainer
from repro.simulation.campaign import (
    TrainedModel,
    publish_datasets,
    publish_trained_models,
)

pytestmark = pytest.mark.engine

PAYLOAD_MIN_REDUCTION = 5.0

_SRC_DIR = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))


def _setup() -> tuple[TrainedModel, dict]:
    """One quickly trained network and its dataset."""
    dataset = make_synthetic_cifar(
        SyntheticCifarConfig(
            num_classes=10, image_size=32, train_per_class=20, test_per_class=20, seed=3
        )
    )
    model = build_model("vgg13", num_classes=10, rng=np.random.default_rng(0))
    trainer = Trainer(model, SGD(learning_rate=0.05), rng=np.random.default_rng(1))
    trainer.fit(dataset.train_images, dataset.train_labels, epochs=1, batch_size=32)
    trained = TrainedModel(
        name="vgg13", dataset_name=dataset.name, model=model, float_accuracy=0.0
    )
    return trained, {dataset.name: dataset}


def _worker_private_kib(payload_path: str) -> int | None:
    """Private (unique) KiB a fresh worker *adds* by materializing the
    evaluation images from ``payload_path`` — the per-worker RSS share that
    cannot be shared with siblings.  Measured as the smaps_rollup private
    delta around unpickle + touch, so interpreter/numpy baseline noise
    cancels out.  Linux-only; None when unavailable."""
    script = (
        "import pickle, sys\n"
        "def private_kib():\n"
        "    total = 0\n"
        "    for line in open('/proc/self/smaps_rollup'):\n"
        "        if line.startswith(('Private_Clean:', 'Private_Dirty:')):\n"
        "            total += int(line.split()[1])\n"
        "    return total\n"
        "import numpy  # noqa: F401 - pay the import before the baseline\n"
        "import repro.simulation.campaign  # noqa: F401\n"
        "before = private_kib()\n"
        "payload = pickle.load(open(sys.argv[1], 'rb'))\n"
        "if hasattr(payload, 'attach'):\n"
        "    payload = payload.attach()\n"
        "touched = 0.0\n"
        "for ds in payload.values():\n"
        "    touched += float(ds.test_images.sum()) + float(ds.train_images.sum())\n"
        "print(max(0, private_kib() - before))\n"
    )
    if not os.path.exists("/proc/self/smaps_rollup"):  # pragma: no cover
        return None
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", script, payload_path],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return int(out.stdout.strip())


def run_shared_payload_footprint(trained, datasets) -> dict:
    """Pickled per-worker payload bytes and private worker memory, shared
    (SharedArrayStore handles) vs unshared (full copies)."""
    plain_models = len(pickle.dumps(trained, protocol=pickle.HIGHEST_PROTOCOL))
    plain_datasets = len(pickle.dumps(datasets, protocol=pickle.HIGHEST_PROTOCOL))

    model_store = publish_trained_models(trained)
    dataset_store = publish_datasets(datasets)
    result: dict = {}
    try:
        shared_models = len(pickle.dumps(model_store, protocol=pickle.HIGHEST_PROTOCOL))
        shared_datasets = len(
            pickle.dumps(dataset_store, protocol=pickle.HIGHEST_PROTOCOL)
        )
        result = {
            "plain_payload_bytes": plain_models + plain_datasets,
            "shared_payload_bytes": shared_models + shared_datasets,
            "payload_reduction": (plain_models + plain_datasets)
            / (shared_models + shared_datasets),
            "bytes_in_shared_block": model_store.nbytes_shared()
            + dataset_store.nbytes_shared(),
        }
        # Per-worker private memory after materializing the eval images.
        with tempfile.TemporaryDirectory() as tmp:
            plain_path = os.path.join(tmp, "plain.pkl")
            shared_path = os.path.join(tmp, "shared.pkl")
            with open(plain_path, "wb") as handle:
                pickle.dump(datasets, handle, protocol=pickle.HIGHEST_PROTOCOL)
            with open(shared_path, "wb") as handle:
                pickle.dump(dataset_store, handle, protocol=pickle.HIGHEST_PROTOCOL)
            plain_kib = _worker_private_kib(plain_path)
            shared_kib = _worker_private_kib(shared_path)
        result["worker_private_kib_plain"] = plain_kib
        result["worker_private_kib_shared"] = shared_kib
        if plain_kib is not None and shared_kib is not None:
            result["worker_private_kib_saved"] = plain_kib - shared_kib
    finally:
        model_store.unlink()
        dataset_store.unlink()
    return result


def _render(footprint: dict) -> str:
    lines = [
        "shared-memory dataset publishing",
        "",
        "Per-worker payload (models + datasets shipped to each worker):",
        f"  plain copies   {footprint['plain_payload_bytes']:12,} bytes",
        f"  shared handles {footprint['shared_payload_bytes']:12,} bytes"
        f"  ({footprint['payload_reduction']:.0f}x smaller; "
        f"{footprint['bytes_in_shared_block']:,} bytes published once)",
    ]
    plain_kib = footprint.get("worker_private_kib_plain")
    shared_kib = footprint.get("worker_private_kib_shared")
    if plain_kib is not None and shared_kib is not None:
        lines += [
            "",
            "Worker private (unique) memory added by materializing the eval images:",
            f"  plain copies   {plain_kib:10,} KiB",
            f"  shared views   {shared_kib:10,} KiB"
            f"  ({footprint['worker_private_kib_saved']:,} KiB stay shared)",
        ]
    return "\n".join(lines)


def test_sweep_prefix_benchmark(results_dir):
    """Shared publishing shrinks the per-worker payload by a large factor."""
    trained, datasets = _setup()
    footprint = run_shared_payload_footprint([trained], datasets)
    rendered = _render(footprint)
    path = write_result(results_dir, "sweep_prefix.txt", rendered)
    json_path = update_json_result(results_dir, "sweep_prefix", {"footprint": footprint})
    from repro.provenance import dataset_digest, model_digest

    manifest_path = record_bench(
        "sweep_prefix",
        inputs={
            "model_digest": model_digest(trained.model),
            "dataset_digests": {
                name: dataset_digest(ds) for name, ds in datasets.items()
            },
            "min_payload_reduction": PAYLOAD_MIN_REDUCTION,
        },
        outputs={"footprint": footprint},
    )
    print("\n" + rendered)
    print(f"\n[written to {path} and {json_path}; manifest {manifest_path}]")
    assert footprint["payload_reduction"] >= PAYLOAD_MIN_REDUCTION


if __name__ == "__main__":
    trained_main, datasets_main = _setup()
    print(_render(run_shared_payload_footprint([trained_main], datasets_main)))
