"""Serve-layer throughput benchmark: jobs/sec and cache-hit ratio over HTTP.

Boots the job daemon in-process (:class:`~repro.runtime.server.JobServer`
over a :class:`~repro.runtime.jobs.JobManager`) and drives it with N
concurrent synthetic clients, each its own HTTP session submitting the same
round-robin pool of single-cell evaluation jobs.  Because the pool repeats
across clients, the steady state exercises exactly what a shared daemon
sees: the first submission of each unique recipe is evaluated, every
duplicate — from any client — is served from the service-level result
cache.

Recorded into the ``serve_throughput`` section of the machine-readable
``results/BENCH_engine.json`` ledger:

* ``jobs_pps`` / ``cells_pps`` — end-to-end served throughput (submit +
  poll + result decode over HTTP).  Regression-gated as tolerance *floors*
  by ``repro verify-results``: improvements always pass, a collapse fails.
* ``cache_hit_ratio`` and the hit/miss split — **deterministic** by
  construction (the dispatcher serializes execution, so exactly one miss
  per unique recipe regardless of client interleaving) and therefore
  compared exactly against the golden ledger: a changed ratio means the
  content-addressed recipe key or the dedup itself changed.
* ``wall_clock_s`` — observability only (ignored by the gate).

Run via pytest (``pytest -m serve benchmarks/bench_serve_throughput.py``)
or as a script.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from conftest import record_bench, update_json_result

from repro.runtime.jobs import HttpJobClient, JobManager
from repro.runtime.server import JobServer
from repro.simulation.inference import (
    AccurateProduct,
    ExecutionPlan,
    PerforatedProduct,
)

pytestmark = pytest.mark.serve

CLIENTS = 4
JOBS_PER_CLIENT = 6

#: The shared pool of unique single-cell jobs the synthetic clients draw
#: from, round-robin.  6 unique recipes x 4 clients x 6 jobs = 24 cells of
#: which 18 are cross-client duplicates: hit ratio 0.75 by construction.
PLAN_POOL = (
    ExecutionPlan.uniform(AccurateProduct()),
    ExecutionPlan.uniform(PerforatedProduct(1)),
    ExecutionPlan.uniform(PerforatedProduct(1, use_control_variate=False)),
    ExecutionPlan.uniform(PerforatedProduct(2)),
    ExecutionPlan.uniform(PerforatedProduct(2, use_control_variate=False)),
    ExecutionPlan.uniform(PerforatedProduct(3)),
)


def _setup():
    """One quickly trained tiny network (the bench_dse_search workload)."""
    from repro.datasets.synthetic import SyntheticCifarConfig, make_synthetic_cifar
    from repro.models.zoo import build_model
    from repro.nn.optimizers import SGD
    from repro.nn.training import Trainer
    from repro.simulation.campaign import TrainedModel

    dataset = make_synthetic_cifar(
        SyntheticCifarConfig(
            num_classes=10,
            image_size=16,
            train_per_class=40,
            test_per_class=16,
            noise_std=0.12,
            confusion=0.25,
            seed=21,
        )
    )
    model = build_model(
        "vgg13", num_classes=10, base_width=8, rng=np.random.default_rng(0)
    )
    trainer = Trainer(model, SGD(learning_rate=0.08), rng=np.random.default_rng(1))
    trainer.fit(dataset.train_images, dataset.train_labels, epochs=2, batch_size=32)
    trained = TrainedModel(
        name="vgg13", dataset_name=dataset.name, model=model, float_accuracy=0.0
    )
    return trained, dataset


def _drive_clients(url: str, clients: int, jobs_per_client: int) -> float:
    """Fan N synthetic HTTP clients at ``url``; return the wall time.

    Client ``i``'s job ``s`` submits recipe ``PLAN_POOL[(i + s) %
    len(PLAN_POOL)]`` — deterministic, so the unique recipe set (and with
    it every cache counter) is fixed regardless of thread interleaving.
    """
    errors: list[BaseException] = []

    def client_loop(index: int) -> None:
        try:
            client = HttpJobClient(url, poll_interval=0.01)
            for step in range(jobs_per_client):
                plans = [PLAN_POOL[(index + step) % len(PLAN_POOL)]]
                job_id = client.submit_job(
                    0, plans, session=f"client-{index}", label=f"bench-{index}-{step}"
                )
                client.wait(job_id, timeout=600)
        except BaseException as error:  # surfaced after the join
            errors.append(error)

    start = time.perf_counter()
    workers = [
        threading.Thread(target=client_loop, args=(index,))
        for index in range(clients)
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    wall = time.perf_counter() - start
    if errors:
        raise errors[0]
    return wall


def run_serve_throughput(trained, dataset, clients=CLIENTS, jobs_per_client=JOBS_PER_CLIENT) -> dict:
    """Fan N synthetic HTTP clients over one daemon; measure served rates."""
    manager = JobManager(
        [trained],
        {dataset.name: dataset},
        calibration_images=64,
        max_queue_depth=clients * jobs_per_client + 1,
        max_inflight_per_session=jobs_per_client + 1,
    )
    server = JobServer(manager)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        wall = _drive_clients(server.url, clients, jobs_per_client)
        stats = HttpJobClient(server.url).stats()
    finally:
        server.shutdown_and_close()
        thread.join(timeout=10)

    cache = stats["cache"]
    jobs_total = clients * jobs_per_client
    cells_total = cache["hits"] + cache["misses"]
    return {
        "clients": clients,
        "jobs_per_client": jobs_per_client,
        "unique_recipes": len(PLAN_POOL),
        "jobs_completed": stats["jobs"]["completed"],
        "cells_total": cells_total,
        "cache_hits": cache["hits"],
        "cache_misses": cache["misses"],
        "cache_hit_ratio": cache["hit_ratio"],
        "jobs_pps": jobs_total / wall,
        "cells_pps": cells_total / wall,
        "wall_clock_s": wall,
    }


def _render(metrics: dict) -> list[str]:
    return [
        "Serve throughput: N concurrent HTTP clients over one job daemon",
        f"({metrics['clients']} clients x {metrics['jobs_per_client']} jobs, "
        f"{metrics['unique_recipes']} unique recipes)",
        "",
        f"  jobs served        {metrics['jobs_completed']:6d}"
        f"  ({metrics['jobs_pps']:8.2f} jobs/s)",
        f"  cells served       {metrics['cells_total']:6d}"
        f"  ({metrics['cells_pps']:8.2f} cells/s)",
        f"  cache hit ratio    {metrics['cache_hit_ratio']:6.2f}"
        f"  ({metrics['cache_hits']} hits / {metrics['cache_misses']} misses)",
        f"  wall clock         {metrics['wall_clock_s']:8.2f} s",
    ]


def test_serve_throughput_benchmark(results_dir):
    """N concurrent clients against one daemon: duplicates dedup to one
    evaluation per unique recipe; jobs/sec and the hit ratio land in the
    JSON ledger under the regression gate."""
    trained, dataset = _setup()
    metrics = run_serve_throughput(trained, dataset)
    json_path = update_json_result(results_dir, "serve_throughput", metrics)
    from repro.provenance import dataset_digest, model_digest

    manifest_path = record_bench(
        "serve_throughput",
        inputs={
            "model_digest": model_digest(trained.model),
            "dataset_digest": dataset_digest(dataset),
            "clients": CLIENTS,
            "jobs_per_client": JOBS_PER_CLIENT,
            "unique_recipes": len(PLAN_POOL),
        },
        outputs=metrics,
    )
    print("\n" + "\n".join(_render(metrics)))
    print(f"[serve throughput written to {json_path}; manifest {manifest_path}]")

    # The dedup invariant: execution is serialized by the dispatcher, so
    # exactly one miss per unique recipe no matter how clients interleave.
    assert metrics["jobs_completed"] == CLIENTS * JOBS_PER_CLIENT
    assert metrics["cache_misses"] == len(PLAN_POOL)
    expected_hits = CLIENTS * JOBS_PER_CLIENT - len(PLAN_POOL)
    assert metrics["cache_hits"] == expected_hits
    assert metrics["cache_hit_ratio"] == expected_hits / (CLIENTS * JOBS_PER_CLIENT)
    assert metrics["jobs_pps"] > 0


if __name__ == "__main__":
    trained_main, dataset_main = _setup()
    print("\n".join(_render(run_serve_throughput(trained_main, dataset_main))))
