"""One benchmark pass in a fresh process: set up, run one workload, report.

``run.py`` starts this script once per pass and reads the JSON object it
prints as its last stdout line.  A pass:

1. imports ``repro`` from the checkout's ``src/`` (never an installed copy),
2. builds the synthetic CIFAR-10 dataset and loads the trained models from
   the benchmark's own model cache (``--state``; ``--train`` fills it),
3. generates the workload's inputs from ``--seed``,
4. runs the workload once, the way the matching ``repro`` verb does, and
5. prints its timings, result digest, counters and peak memory.

With ``--trace-dir`` the pass installs the span wrappers of ``tracing.py``
first and writes its spans (and those of its pool workers or daemon) there.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import resource
import signal
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Models are trained once per checkout on this dataset seed, for this many
#: epochs, and are shared by every workload seed: ``--seed`` generates the
#: inputs evaluated against them, never the training data.
TRAIN_SEED = 2021
EPOCHS = 1
CLASSES = 10

TABLE3_IMAGES = 128
DSE_MODEL = "vgg13"
DSE_IMAGES = 360
DSE_BUDGET_EVALS = 40
POOL_WORKERS = 2
SERVED_CLIENTS = 2
SERVED_JOBS_PER_CLIENT = 24
SERVED_EVAL_IMAGES = 64
SERVED_CALIBRATION_IMAGES = 64
SERVED_CANDIDATE_PLANS = 3

WORKLOADS = ("table3", "dse_greedy", "dse_greedy_pool", "served_mixed")


def digest(payload) -> str:
    """sha256 of the canonical JSON of a result payload."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _status_kb(pid: int, field: str) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def descendants(pid: int) -> list[int]:
    """Every live descendant of ``pid`` (Linux ``/proc`` children lists)."""
    found: list[int] = []
    pending = [pid]
    while pending:
        current = pending.pop()
        try:
            tasks = os.listdir(f"/proc/{current}/task")
        except OSError:
            continue
        for task in tasks:
            try:
                with open(f"/proc/{current}/task/{task}/children", encoding="ascii") as handle:
                    children = [int(token) for token in handle.read().split()]
            except OSError:
                continue
            found.extend(children)
            pending.extend(children)
    return found


def tree_peak_mb(pids) -> float:
    """Own peak RSS plus the peak RSS of ``pids`` and their descendants."""
    total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    seen = set()
    for pid in pids:
        for member in [pid, *descendants(pid)]:
            if member not in seen:
                seen.add(member)
                total_kb += _status_kb(member, "VmHWM")
    return total_kb / 1024.0


def eval_inputs(dataset, seed: int, count: int, stream: int):
    """A seeded subset of the test split: the inputs a workload evaluates."""
    import numpy as np

    rng = np.random.default_rng([int(seed), stream])
    n_test = dataset.test_images.shape[0]
    indices = np.sort(rng.choice(n_test, size=min(count, n_test), replace=False))
    return dataset.test_images[indices], dataset.test_labels[indices]


# ----------------------------------------------------------------------
# Set-up shared by the local workloads
# ----------------------------------------------------------------------
def load_models(state: str, names, tracer):
    from repro.core.seeding import SeedBank
    from repro.simulation import campaign

    def timed(name, function):
        if tracer is None:
            return function()
        with tracer.span(name):
            return function()

    # The same dataset seed stream the CLI derives from `--seed TRAIN_SEED`.
    dataset = timed(
        "campaign.dataset",
        lambda: campaign.experiment_dataset(
            num_classes=CLASSES, seed=SeedBank(TRAIN_SEED).seed_for("dataset")
        ),
    )
    cache = campaign.TrainedModelCache(cache_dir=os.path.join(state, "models"))
    settings = campaign.TrainingSettings(epochs=EPOCHS)
    models = [
        timed("campaign.load", lambda name=name: cache.load_or_train(name, dataset, settings))
        for name in names
    ]
    return dataset, models


def run_table3(args, tracer, out: dict) -> None:
    from repro.cli.common import sweep_jobs_local, sweep_manifest_outputs
    from repro.models.zoo import MODEL_NAMES
    from repro.provenance import record_run

    dataset, models = load_models(args.state, MODEL_NAMES, tracer)
    images, labels = eval_inputs(dataset, args.seed, TABLE3_IMAGES, stream=3)
    evalset = dataclasses.replace(dataset, test_images=images, test_labels=labels)
    out["setup_end"] = time.monotonic()
    with record_run("table3", label="perfbench") as manifest:
        sweep, totals, stats = sweep_jobs_local(models, {evalset.name: evalset}, (1, 2, 3), 1)
        manifest.outputs.update(sweep_manifest_outputs(sweep))
    out["run_end"] = time.monotonic()
    out["payload"] = [
        [r.model, r.m, r.with_control_variate, r.baseline_accuracy, r.approximate_accuracy]
        for r in sweep.records
    ]
    out["attempted"] = totals["cells"]
    out["failed"] = 0
    out["counters"] = {"engine": stats["engine"], "jobs": stats["jobs"], "cache": stats["cache"]}
    out["rss_mb"] = tree_peak_mb([])


def run_dse(args, tracer, out: dict, pool: bool) -> None:
    import numpy as np

    from repro.dse import CampaignLedger, run_campaign
    from repro.dse.engine import build_campaign_service
    from repro.dse.evaluator import PlanEvaluator
    from repro.provenance import record_run

    dataset, (trained,) = load_models(args.state, [DSE_MODEL], tracer)
    images, labels = eval_inputs(dataset, args.seed, DSE_IMAGES, stream=5)
    service = None
    if pool:
        service = build_campaign_service(
            [trained], dataset, POOL_WORKERS, eval_images=images, eval_labels=labels
        )
        service.start()
    out["setup_end"] = time.monotonic()
    try:
        with record_run("dse", label="perfbench") as manifest:
            evaluator = None
            if service is None:
                evaluator = PlanEvaluator(
                    trained, dataset, eval_images=images, eval_labels=labels
                )
            result = run_campaign(
                trained,
                dataset,
                strategy="greedy",
                budget_evals=DSE_BUDGET_EVALS,
                evaluator=evaluator,
                service=service,
                ledger=CampaignLedger(path=None),
                rng=np.random.default_rng(0),
            )
            manifest.outputs["front"] = [
                [p.label, p.energy_nj, p.accuracy] for p in result.front.points()
            ]
        out["run_end"] = time.monotonic()
        if service is not None:
            engine = service.stats()["engine"]
            out["rss_mb"] = tree_peak_mb(descendants(os.getpid()))
        else:
            executor = evaluator.executor
            engine = {**executor.reuse_stats(), **executor.fused_stats(), "workers": 1}
            out["rss_mb"] = tree_peak_mb([])
    finally:
        if service is not None:
            service.close()
    out["payload"] = {
        "front": [[p.label, p.energy_nj, p.accuracy] for p in result.front.points()],
        "evaluations": result.stats["evaluations"],
    }
    out["attempted"] = result.stats["evaluations"]
    out["failed"] = 0
    out["counters"] = {
        "engine": engine,
        "dse": {key: result.stats[key] for key in ("evaluations", "dedup_hits", "points")},
    }


# ----------------------------------------------------------------------
# served_mixed: a `repro serve` daemon and a closed-loop load generator
# ----------------------------------------------------------------------
def client_jobs(seed: int, client: int, models: list[dict]):
    """The fixed, seeded job sequence of one client.

    Jobs alternate between a per-model Table III job (7 uniform plans; a
    cache hit once any client ran it) and a job of a few single-layer
    candidate plans (mostly cache misses).  Both kinds visit the models in
    a seeded order that gives every model the same share of jobs, so the
    seed changes which plans run, not how much work each model gets.
    """
    import numpy as np

    from repro.simulation.campaign import _spec_plan
    from repro.simulation.inference import AccurateProduct, ExecutionPlan, PerforatedProduct

    rng = np.random.default_rng([int(seed), 7, client])
    order = rng.permutation(len(models))
    table3_specs = [(None, False)] + [(m, cv) for m in (1, 2, 3) for cv in (True, False)]
    jobs = []
    for index in range(SERVED_JOBS_PER_CLIENT):
        model = models[int(order[(index // 2) % len(models)])]
        if index % 2 == 0:
            plans = [_spec_plan(m, cv) for m, cv in table3_specs]
        else:
            plans = []
            for _ in range(SERVED_CANDIDATE_PLANS):
                layer = model["mac_layer_names"][int(rng.integers(len(model["mac_layer_names"])))]
                product = PerforatedProduct(int(rng.integers(1, 4)), bool(rng.integers(2)))
                plans.append(ExecutionPlan.uniform(AccurateProduct()).with_layer(layer, product))
        jobs.append((model["index"], plans))
    return jobs


def spawn_daemon(args, trace: bool):
    from repro.models.zoo import MODEL_NAMES

    entry = [os.path.join(HERE, "serve_main.py")] if trace else ["-m", "repro"]
    command = [
        sys.executable,
        *entry,
        "serve",
        "--models",
        *MODEL_NAMES,
        "--classes",
        str(CLASSES),
        "--epochs",
        str(EPOCHS),
        "--seed",
        str(TRAIN_SEED),
        "--cache-dir",
        os.path.join(args.state, "models"),
        "--max-eval-images",
        str(SERVED_EVAL_IMAGES),
        "--calibration-images",
        str(SERVED_CALIBRATION_IMAGES),
        "--workers",
        "1",
    ]
    return subprocess.Popen(
        command,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env={
            **os.environ,
            "PYTHONPATH": SRC,
            **({"PERFBENCH_TRACE_DIR": args.trace_dir} if trace else {}),
        },
        cwd=ROOT,
    )


def stop_daemon(daemon) -> None:
    if daemon.poll() is None:
        daemon.send_signal(signal.SIGTERM)
    try:
        daemon.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        daemon.kill()
        daemon.communicate()


def run_served(args, tracer, out: dict) -> None:
    from repro.runtime.jobs import AdmissionError, HttpJobClient, JobClientError, JobFailedError

    spawned = time.monotonic()
    daemon = spawn_daemon(args, tracer is not None)
    try:
        line = daemon.stdout.readline()
        if not line.startswith("serving on "):
            raise RuntimeError(f"daemon failed to start: {line!r} {daemon.stderr.read()}")
        url = line.split()[2]
        client = HttpJobClient(url)
        models = client.models()
        out["setup_end"] = time.monotonic()
        out["setup_start"] = spawned
        sequences = [client_jobs(args.seed, c, models) for c in range(SERVED_CLIENTS)]
        results: list[list] = [[] for _ in sequences]
        errors: list[str] = []
        root = tracer.open("served.run") if tracer is not None else None

        def drive(index: int) -> None:
            session = f"client{index}"
            for model_index, plans in sequences[index]:
                span = tracer.open("client.job", parent=root["id"]) if tracer else None
                start = time.perf_counter()
                try:
                    job_id = client.submit_job(model_index, plans, session=session)
                    view = client.wait(job_id, timeout=120)
                except (AdmissionError, JobClientError, JobFailedError, TimeoutError) as error:
                    errors.append(f"{type(error).__name__}: {error}")
                    results[index].append(None)
                    continue
                finally:
                    if span is not None:
                        tracer.close(span)
                latency_ms = (time.perf_counter() - start) * 1e3
                if span is not None:
                    span["job"] = job_id
                hit = view["cache_hits"] == view["cells"]
                results[index].append((latency_ms, hit, view["accuracies"]))

        threads = [threading.Thread(target=drive, args=(i,)) for i in range(SERVED_CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if root is not None:
            tracer.close(root)
        out["run_end"] = time.monotonic()
        stats = client.stats()
        out["rss_mb"] = tree_peak_mb([daemon.pid])
    finally:
        stop_daemon(daemon)
    done = [r for per_client in results for r in per_client if r is not None]
    out["payload"] = [[r and r[2] for r in per_client] for per_client in results]
    out["attempted"] = sum(len(s) for s in sequences)
    out["failed"] = out["attempted"] - len(done)
    out["errors"] = errors[:5]
    out["latencies_ms"] = [r[0] for r in done]
    out["hit_latencies_ms"] = [r[0] for r in done if r[1]]
    out["counters"] = {"engine": stats["engine"], "jobs": stats["jobs"], "cache": stats["cache"]}


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--state", required=True)
    parser.add_argument("--spawned-at", type=float, default=None)
    parser.add_argument("--trace-dir", default=None)
    parser.add_argument("--train", action="store_true", help="only fill the model cache")
    args = parser.parse_args(argv)
    spawned = args.spawned_at if args.spawned_at is not None else time.monotonic()

    sys.path.insert(0, SRC)
    import_start = time.perf_counter_ns()
    # repro.simulation first: importing repro.runtime alone is circular.
    import repro.simulation  # noqa: F401
    import repro.runtime  # noqa: F401

    import_end = time.perf_counter_ns()
    if not os.path.abspath(repro.simulation.__file__).startswith(SRC + os.sep):
        print(f"error: imported repro from outside {SRC}", file=sys.stderr)
        return 2

    if args.train:
        from repro.models.zoo import MODEL_NAMES

        load_models(args.state, MODEL_NAMES, None)
        return 0

    tracer = None
    if args.trace_dir is not None:
        import tracing

        tracer = tracing.install(tracing.Tracer(args.trace_dir))
        if args.workload != "served_mixed":
            tracer.add("startup.import", import_start, import_end)

    out: dict = {"workload": args.workload, "seed": args.seed}
    if args.workload == "table3":
        run_table3(args, tracer, out)
    elif args.workload in ("dse_greedy", "dse_greedy_pool"):
        run_dse(args, tracer, out, pool=args.workload == "dse_greedy_pool")
    else:
        run_served(args, tracer, out)
    if tracer is not None:
        tracer.flush()
    import tracing

    out["wrapped"] = len(tracing.installed_wrappers())

    setup_start = out.pop("setup_start", spawned)
    setup_end = out.pop("setup_end")
    run_end = out.pop("run_end")
    out["setup_s"] = setup_end - setup_start
    out["run_s"] = run_end - setup_end
    out["digest"] = digest(out.pop("payload"))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
