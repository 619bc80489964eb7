"""The repo benchmark: one workload, measured end to end or traced by layer.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload table3 --seed 3 --seconds 10 --trace 0

Each measured pass runs in a fresh ``passes.py`` process against a warm
trained-model cache that the benchmark owns (``.perfbench/`` in the
checkout; the first run trains it, outside every metric).  Passes repeat
until ``--seconds`` have elapsed, and at least ``MIN_PASSES`` of them ran.
Every pass's result digest must equal the reference stored for the seed in
``references.json`` (or, for a seed without one, every other pass's digest).

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` — the end-to-end metrics of ``BENCHMARK.json``
with ``--trace 0``, its per-layer metrics with ``--trace 1``.  A traced run
measures untraced passes for the first half of its time and traced passes
for the second; the difference of their ``run_s`` medians is the tracing
overhead.  Spans land in ``.perfbench/trace/<workload>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench")
REFERENCES = os.path.join(HERE, "references.json")

sys.path.insert(0, HERE)
import passes  # noqa: E402
import tracing  # noqa: E402

MIN_PASSES = 3
MIN_TRACED_PASSES = 2
PASS_TIMEOUT_S = 150
#: Served percentiles need at least ten samples beyond them.
SERVED_PERCENTILES = (("job", 0.5), ("job", 0.95), ("hit_job", 0.5), ("hit_job", 0.9))
#: Workloads whose digests must agree: the pool campaign finds the serial front.
REFERENCE_KEY = {"dse_greedy": "dse", "dse_greedy_pool": "dse"}

END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "startup.import_s": "s",
    "campaign.dataset_s": "s",
    "campaign.load_s": "s",
    "nn.im2col_s": "s",
    "nn.batchnorm_s": "s",
    "nn.relu_s": "s",
    "nn.pool_s": "s",
    "nn.merge_s": "s",
    "quant.quantize_s": "s",
    "quant.output_real_s": "s",
    "quant.output_real_stacked_s": "s",
    "core.kernel_s": "s",
    "core.kernel_calls": "count",
    "core.kernel_multi_s": "s",
    "core.kernel_multi_calls": "count",
    "core.compile_s": "s",
    "core.macs": "count",
    "core.bytes": "bytes",
    "executor.calibrate_s": "s",
    "executor.forward_calls": "count",
    "executor.forward_many_calls": "count",
    "executor.mac_visits": "count",
    "executor.prefix_hit_ratio": "ratio",
    "executor.act_hit_ratio": "ratio",
    "service.start_s": "s",
    "service.evaluate_s": "s",
    "service.wait_s": "s",
    "service.chunks": "count",
    "service.plans_per_launch": "count",
    "scheduling.plan_s": "s",
    "worker.chunk_s": "s",
    "jobs.queue_wait_p50_ms": "ms",
    "jobs.queue_wait_p95_ms": "ms",
    "jobs.run_p50_ms": "ms",
    "jobs.cache_hit_ratio": "ratio",
    "jobs.rejected": "count",
    "http.requests_per_job": "count",
    "http.request_p50_ms": "ms",
    "http.job_overhead_p50_ms": "ms",
    "codec.s": "s",
    "codec.bytes_per_job": "bytes",
    "served.jobs": "count",
    "served.hit_jobs": "count",
    "served.job_p50_ms": "ms",
    "served.job_p95_ms": "ms",
    "served.hit_job_p50_ms": "ms",
    "served.hit_job_p90_ms": "ms",
    "error_rate": "ratio",
    "dse.evaluate_s": "s",
    "dse.strategy_s": "s",
    "dse.evaluations": "count",
    "dse.dedup_hits": "count",
    "provenance.record_run_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_pct": "%",
    "trace.nesting_violations": "count",
}


def child_env(workload: str) -> dict:
    return {
        **os.environ,
        "PYTHONPATH": SRC,
        "REPRO_CACHE_DIR": os.path.join(STATE, "models"),
        "REPRO_MANIFEST_DIR": os.path.join(STATE, "manifests", workload),
    }


def ensure_models(env: dict) -> None:
    """Train the shared models once per checkout (excluded from every metric)."""
    marker = os.path.join(STATE, "models", f".trained-{passes.TRAIN_SEED}-{passes.EPOCHS}")
    if os.path.exists(marker):
        return
    subprocess.run(
        [sys.executable, os.path.join(HERE, "passes.py"), "--state", STATE, "--train"],
        env=env,
        cwd=ROOT,
        check=True,
        stdout=subprocess.DEVNULL,
        timeout=900,
    )
    with open(marker, "w", encoding="ascii") as handle:
        handle.write("ok\n")


def run_pass(workload: str, seed: int, env: dict, trace_dir: str | None) -> dict:
    command = [
        sys.executable,
        os.path.join(HERE, "passes.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--state",
        STATE,
        "--spawned-at",
        repr(time.monotonic()),
    ]
    if trace_dir is not None:
        command += ["--trace-dir", trace_dir]
    completed = subprocess.run(
        command, env=env, cwd=ROOT, capture_output=True, text=True, timeout=PASS_TIMEOUT_S
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"{workload} pass exited {completed.returncode}:\n{completed.stderr[-4000:]}"
        )
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    if (result["wrapped"] > 0) != (trace_dir is not None):
        raise RuntimeError(f"{workload} pass ran with {result['wrapped']} tracing wrappers")
    return result


def served_samples_ok(results: list[dict]) -> bool:
    pools = {
        "job": sum(len(r["latencies_ms"]) for r in results),
        "hit_job": sum(len(r["hit_latencies_ms"]) for r in results),
    }
    return all(
        tracing.samples_beyond(pools[kind], fraction) >= 10
        for kind, fraction in SERVED_PERCENTILES
    )


def run_passes(
    workload, seed, env, budget_s, min_passes, trace_root=None, need_samples=False
) -> list[dict]:
    """Passes until ``budget_s`` elapsed and ``min_passes`` ran (and, with
    ``need_samples``, until the served percentiles have enough samples)."""
    results: list[dict] = []
    start = time.monotonic()
    while True:
        trace_dir = None
        if trace_root is not None:
            trace_dir = os.path.join(trace_root, f"pass{len(results)}")
        results.append(run_pass(workload, seed, env, trace_dir))
        if (
            time.monotonic() - start >= budget_s
            and len(results) >= min_passes
            and (not need_samples or served_samples_ok(results))
        ):
            return results


def check_digests(workload: str, seed: int, results: list[dict]) -> bool:
    digests = {r["digest"] for r in results}
    key = REFERENCE_KEY.get(workload, workload)
    with open(REFERENCES, encoding="utf-8") as handle:
        reference = json.load(handle).get(key, {}).get(str(seed))
    if reference is None:
        print(
            f"note: no stored reference for {key} seed {seed}; "
            "checked that every pass produced the same result",
            file=sys.stderr,
        )
        return len(digests) == 1
    if digests != {reference}:
        print(f"error: result digest {sorted(digests)} != reference {reference}", file=sys.stderr)
        return False
    return True


def record_reference(workload: str, seed: int, results: list[dict]) -> None:
    digests = {r["digest"] for r in results}
    if len(digests) != 1:
        raise RuntimeError(f"passes disagree: {sorted(digests)}")
    with open(REFERENCES, encoding="utf-8") as handle:
        stored = json.load(handle)
    stored.setdefault(REFERENCE_KEY.get(workload, workload), {})[str(seed)] = digests.pop()
    with open(REFERENCES, "w", encoding="utf-8") as handle:
        json.dump(stored, handle, indent=1, sort_keys=True)
        handle.write("\n")


def end_to_end_metrics(results: list[dict]) -> dict:
    return {
        "setup_s": statistics.median(r["setup_s"] for r in results),
        "run_s": statistics.median(r["run_s"] for r in results),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in results),
    }


def ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def per_layer_metrics(untraced: list[dict], traced: list[dict], trace_root: str) -> dict:
    spans, events = tracing.load_process_traces(trace_root)
    metrics = tracing.layer_metrics(spans, events, len(traced))
    for name, span_name in (
        ("startup.import_s", "startup.import"),
        ("campaign.dataset_s", "campaign.dataset"),
        ("campaign.load_s", "campaign.load"),
    ):
        total = sum(s["end"] - s["start"] for s in spans if s["name"] == span_name)
        metrics[name] = total / 1e9 / len(traced)
    overheads = tracing.join_client_jobs(spans, events)
    metrics["http.job_overhead_p50_ms"] = tracing.percentile(overheads, 0.5) if overheads else 0.0

    engines = [r["counters"]["engine"] for r in traced]
    total = {key: sum(e.get(key, 0) for e in engines) for key in engines[0]}
    metrics["executor.prefix_hit_ratio"] = ratio(
        total.get("prefix_cache_hits", 0), total.get("prefix_cache_misses", 0)
    )
    metrics["executor.act_hit_ratio"] = ratio(
        total.get("act_cache_hits", 0), total.get("act_cache_misses", 0)
    )
    launches = total.get("fused_launches", 0)
    metrics["service.plans_per_launch"] = (
        total.get("fused_plans_total", 0) / launches if launches else 0.0
    )
    caches = [r["counters"].get("cache") for r in traced if "cache" in r["counters"]]
    metrics["jobs.cache_hit_ratio"] = ratio(
        sum(c["hits"] for c in caches), sum(c["misses"] for c in caches)
    )
    metrics["jobs.rejected"] = sum(
        r["counters"]["jobs"]["rejected"] for r in traced if "jobs" in r["counters"]
    ) / len(traced)
    dse = [r["counters"]["dse"] for r in traced if "dse" in r["counters"]]
    metrics["dse.evaluations"] = sum(d["evaluations"] for d in dse) / len(traced)
    metrics["dse.dedup_hits"] = sum(d["dedup_hits"] for d in dse) / len(traced)

    # End-user served latencies come from the untraced passes.
    jobs = [x for r in untraced for x in r.get("latencies_ms", ())]
    hits = [x for r in untraced for x in r.get("hit_latencies_ms", ())]
    metrics["served.jobs"] = len(jobs)
    metrics["served.hit_jobs"] = len(hits)
    for kind, fraction in SERVED_PERCENTILES:
        values = jobs if kind == "job" else hits
        metrics[f"served.{kind}_p{round(fraction * 100)}_ms"] = (
            tracing.percentile(values, fraction) if values else 0.0
        )
    attempted = sum(r["attempted"] for r in untraced + traced)
    metrics["error_rate"] = sum(r["failed"] for r in untraced + traced) / attempted

    plain = statistics.median(r["run_s"] for r in untraced)
    with_spans = statistics.median(r["run_s"] for r in traced)
    metrics["trace.overhead_s"] = with_spans - plain
    metrics["trace.overhead_pct"] = 100.0 * (with_spans - plain) / plain
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=passes.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-reference",
        action="store_true",
        help="store this seed's result digest in references.json",
    )
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2

    env = child_env(args.workload)
    shutil.rmtree(env["REPRO_MANIFEST_DIR"], ignore_errors=True)
    ensure_models(env)
    if args.trace:
        trace_root = os.path.join(STATE, "trace", args.workload)
        shutil.rmtree(trace_root, ignore_errors=True)
        half = args.seconds / 2
        untraced = run_passes(
            args.workload,
            args.seed,
            env,
            half,
            MIN_TRACED_PASSES,
            need_samples=args.workload == "served_mixed",
        )
        traced = run_passes(args.workload, args.seed, env, half, MIN_TRACED_PASSES, trace_root)
        results = untraced + traced
        values = per_layer_metrics(untraced, traced, trace_root)
        units = LAYER_UNITS
    else:
        results = run_passes(args.workload, args.seed, env, args.seconds, MIN_PASSES)
        values = end_to_end_metrics(results)
        units = END_TO_END
    if args.record_reference:
        record_reference(args.workload, args.seed, results)
    correct = check_digests(args.workload, args.seed, results)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results) if correct else attempted
    for result in results:
        for error in result.get("errors", ()):
            print(f"error: {error}", file=sys.stderr)
    report = {
        "correct": correct and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
