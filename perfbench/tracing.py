"""In-memory span tracing of the repro stack, installed from outside ``src/``.

A traced benchmark pass calls :func:`install`, which wraps the public
functions and methods of each layer of ``repro`` (see :data:`HOOKS`) so
every call records a span: name, start, end, parent and thread.  Spans are
kept in memory and written out once per process by :meth:`Tracer.flush`:

* the pass process flushes explicitly when its work is done;
* forked pool workers inherit the installed wrappers and flush from a
  ``multiprocessing`` finalizer when the pool shuts them down;
* the ``repro serve`` daemon is launched through ``serve_main.py``, which
  installs the wrappers, runs the CLI and flushes on return.

An untraced pass never imports this module's :func:`install`, so the
program runs unmodified.  :func:`layer_metrics` turns the flushed spans of
every process into the per-layer metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import math
import os
import threading
import time

#: (module, attribute path, span name).  Names imported into another
#: module by ``from x import y`` are wrapped where the caller looks them up.
HOOKS = (
    # nn: the float layers the executor runs between MAC layers
    ("repro.simulation.inference", "im2col", "nn.im2col"),
    ("repro.nn.layers", "BatchNorm.forward", "nn.batchnorm"),
    ("repro.nn.layers", "ReLU.forward", "nn.relu"),
    ("repro.nn.layers", "MaxPool2D.forward", "nn.pool"),
    ("repro.nn.layers", "AvgPool2D.forward", "nn.pool"),
    ("repro.nn.layers", "GlobalAvgPool.forward", "nn.pool"),
    ("repro.nn.layers", "Add.forward", "nn.merge"),
    ("repro.nn.layers", "Concat.forward", "nn.merge"),
    # quantization
    ("repro.simulation.inference", "quantize", "quant.quantize"),
    ("repro.quantization.qlayers", "QuantizedLinearOp.output_real", "quant.output_real"),
    (
        "repro.quantization.qlayers",
        "QuantizedLinearOp.output_real_stacked",
        "quant.output_real_stacked",
    ),
    # core: product kernels and their compilation
    ("repro.core.product_kernels", "ProductKernel.__call__", "core.kernel"),
    ("repro.core.product_kernels", "MultiPlanKernel.product_sums_multi", "core.kernel_multi"),
    ("repro.core.backends", "NumpyBackend.compile", "core.compile"),
    ("repro.core.backends", "NumpyBackend.compile_multi", "core.compile"),
    # simulation.inference: the executor
    ("repro.simulation.inference", "ApproximateExecutor.__init__", "executor.calibrate"),
    ("repro.simulation.inference", "ApproximateExecutor.forward", "executor.forward"),
    ("repro.simulation.inference", "ApproximateExecutor.forward_many", "executor.forward_many"),
    # runtime: service, scheduling, worker
    ("repro.runtime.service", "EvaluationService.start", "service.start"),
    ("repro.runtime.service", "EvaluationService.submit", "service.evaluate"),
    ("repro.runtime.service", "EvaluationBatch.results", "service.wait"),
    ("repro.runtime.service", "schedule_cells", "scheduling.plan"),
    ("repro.runtime.service", "shared_prefix_depths", "scheduling.plan"),
    ("repro.runtime.service", "plan_group_slices", "scheduling.plan"),
    ("repro.runtime.service", "cost_balanced_chunks", "scheduling.plan"),
    ("repro.runtime.service", "contiguous_chunks", "scheduling.plan"),
    ("repro.runtime.service", "eval_cell_chunk", "worker.chunk"),
    ("repro.runtime.worker", "eval_cell_chunk", "worker.chunk"),
    # runtime.jobs
    ("repro.runtime.jobs.manager", "JobManager.submit", "jobs.submit"),
    # runtime.server, client and codec
    ("repro.runtime.jobs.client", "HttpJobClient.submit_job", "http.request"),
    ("repro.runtime.jobs.client", "HttpJobClient.job", "http.request"),
    ("repro.runtime.jobs.client", "encode_plans", "codec.encode"),
    ("repro.runtime.server", "decode_plans", "codec.decode"),
    # dse
    ("repro.dse.engine", "CampaignContext.score", "dse.evaluate"),
    ("repro.dse.strategies", "GreedySearch.search", "dse.strategy"),
    ("repro.dse.strategies", "NSGA2Search.search", "dse.strategy"),
    ("repro.dse.strategies", "ExhaustiveSearch.search", "dse.strategy"),
    # provenance
    ("repro.provenance.manifest", "RunManifest.write", "provenance.record_run"),
    ("repro.provenance.environment", "provenance_environment", "provenance.record_run"),
)

#: Job lifecycle methods recorded as timestamped events, not spans: a job
#: waits in the queue on no thread, so it has no call to wrap.
JOB_EVENTS = (
    ("repro.runtime.jobs.model", "Job.mark_running", "running"),
    ("repro.runtime.jobs.model", "Job.finish", "done"),
)


class Tracer:
    """Spans and events of one process, kept in memory until :meth:`flush`."""

    def __init__(self, directory: str | None = None):
        self.directory = directory
        self.spans: list[dict] = []
        self.events: list[tuple[str, str, int]] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self.pid = os.getpid()

    # -- spans ----------------------------------------------------------
    def _stack(self) -> list[dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> dict | None:
        """The innermost open span of the calling thread."""
        stack = self._stack()
        return stack[-1] if stack else None

    def open(self, name: str, parent: str | None = None) -> dict:
        """Start a span; ``parent`` defaults to the thread's open span."""
        stack = self._stack()
        span = {
            "id": f"{self.pid}:{next(self._ids)}",
            "parent": parent if parent is not None else (stack[-1]["id"] if stack else None),
            "name": name,
            "pid": self.pid,
            "tid": threading.get_ident(),
            "start": time.perf_counter_ns(),
            "end": None,
        }
        stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter_ns()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)

    def add(self, name: str, start: int, end: int) -> None:
        """Record a root span measured before tracing was installed."""
        self.spans.append(
            {
                "id": f"{self.pid}:{next(self._ids)}",
                "parent": None,
                "name": name,
                "pid": self.pid,
                "tid": threading.get_ident(),
                "start": start,
                "end": end,
            }
        )

    @contextlib.contextmanager
    def span(self, name: str, parent: str | None = None):
        """Context manager form of :meth:`open` / :meth:`close`."""
        span = self.open(name, parent)
        try:
            yield span
        finally:
            self.close(span)

    def event(self, kind: str, key: str) -> None:
        self.events.append((kind, key, time.perf_counter_ns()))

    # -- processes ------------------------------------------------------
    def after_fork(self) -> None:
        """Start a forked child empty and flush it at its exit."""
        import multiprocessing.util

        self.spans = []
        self.events = []
        self._local = threading.local()
        self.pid = os.getpid()
        multiprocessing.util.Finalize(self, self.flush, exitpriority=10)

    def flush(self) -> str | None:
        """Write this process's spans and events to ``directory``."""
        if self.directory is None:
            return None
        os.makedirs(self.directory, exist_ok=True)
        path = os.path.join(self.directory, f"spans-{self.pid}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"pid": self.pid, "spans": self.spans, "events": self.events}, handle)
        return path


# ----------------------------------------------------------------------
# Installing wrappers
# ----------------------------------------------------------------------
def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name)
    return owner, attr


def _annotate(name: str, span: dict, args: tuple, result) -> None:
    """Computed operand sizes and job ids attached to selected spans."""
    if name == "core.kernel":
        kernel, act = args[0], args[1]
        rows = act.shape[0]
        span["macs"] = rows * kernel.taps * kernel.filters
        span["bytes"] = act.nbytes + kernel.taps * kernel.filters + rows * kernel.filters * 8
    elif name == "core.kernel_multi":
        kernel, act = args[0], args[1]
        shared = args[2] if len(args) > 2 else False
        rows = act.shape[0] * (kernel.plans if shared else 1)
        span["macs"] = rows * kernel.taps * kernel.filters
        span["bytes"] = act.nbytes + kernel.taps * kernel.filters + rows * kernel.filters * 8
    elif name == "executor.forward":
        span["mac_visits"] = len(args[0].mac_layer_names())
    elif name == "executor.forward_many":
        span["mac_visits"] = len(args[0].mac_layer_names()) * len(args[2])
    elif name == "codec.encode":
        span["bytes"] = len(json.dumps(result))
    elif name == "jobs.submit":
        span["job"] = result.id


_ANNOTATED = {
    "core.kernel",
    "core.kernel_multi",
    "executor.forward",
    "executor.forward_many",
    "codec.encode",
    "jobs.submit",
}


def _span_wrapper(tracer: Tracer, name: str, function):
    annotate = name in _ANNOTATED

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        outer = tracer.current()
        if name.startswith("core.") and outer is not None and outer["name"].startswith("core."):
            # A fused kernel falling back to per-block kernels: the outer
            # span already counts this work.
            return function(*args, **kwargs)
        span = tracer.open(name)
        try:
            result = function(*args, **kwargs)
        finally:
            tracer.close(span)
        if annotate:
            _annotate(name, span, args, result)
        return result

    return wrapper


def _event_wrapper(tracer: Tracer, kind: str, function):
    @functools.wraps(function)
    def wrapper(job, *args, **kwargs):
        result = function(job, *args, **kwargs)
        tracer.event(kind, job.id)
        return result

    return wrapper


_INSTALLED: list[tuple[object, str, object]] = []
#: The installed tracer; ``register_after_fork`` holds it only weakly.
_TRACER: Tracer | None = None


def _replace(module_name: str, path: str, wrap) -> None:
    owner, attr = _resolve(module_name, path)
    original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    wrapper = wrap(original)
    wrapper.__perfbench_original__ = original
    setattr(owner, attr, wrapper)
    _INSTALLED.append((owner, attr, original))


def install(tracer: Tracer, extra_hooks=()) -> Tracer:
    """Wrap every hook of :data:`HOOKS` (plus ``extra_hooks``) and
    :data:`JOB_EVENTS` with ``tracer``.

    Import ``repro.simulation`` before ``repro.runtime``: importing the
    runtime package first hits a known circular import.
    """
    global _TRACER
    if _INSTALLED:
        raise RuntimeError("tracing is already installed")
    importlib.import_module("repro.simulation")
    for module_name, path, span_name in (*HOOKS, *extra_hooks):
        _replace(module_name, path, lambda f, n=span_name: _span_wrapper(tracer, n, f))
    for module_name, path, kind in JOB_EVENTS:
        _replace(module_name, path, lambda f, k=kind: _event_wrapper(tracer, k, f))
    import multiprocessing.util

    multiprocessing.util.register_after_fork(tracer, Tracer.after_fork)
    _TRACER = tracer
    return tracer


def uninstall() -> None:
    """Restore every wrapped attribute (used by the self-tests)."""
    global _TRACER
    while _INSTALLED:
        owner, attr, original = _INSTALLED.pop()
        setattr(owner, attr, original)
    _TRACER = None


def installed_wrappers() -> list[str]:
    """Hooks currently replaced by a tracing wrapper."""
    found = []
    for module_name, path, _ in HOOKS + JOB_EVENTS:
        owner, attr = _resolve(module_name, path)
        if hasattr(getattr(owner, attr), "__perfbench_original__"):
            found.append(f"{module_name}.{path}")
    return found


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
def union_length(intervals) -> int:
    """Total length covered by possibly overlapping ``(start, end)`` pairs."""
    total = 0
    cover_start = cover_end = None
    for start, end in sorted(intervals):
        if cover_end is None or start > cover_end:
            if cover_end is not None:
                total += cover_end - cover_start
            cover_start, cover_end = start, end
        else:
            cover_end = max(cover_end, end)
    if cover_end is not None:
        total += cover_end - cover_start
    return total


def self_times(spans: list[dict]) -> dict[str, int]:
    """Self time of every span: its duration minus the part of it that its
    children cover.  Children from several threads may overlap each other;
    their union is subtracted once, clipped to the parent's interval."""
    children: dict[str, list[tuple[int, int]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    result = {}
    for span in spans:
        start, end = span["start"], span["end"]
        clipped = [
            (max(s, start), min(e, end))
            for s, e in children.get(span["id"], ())
            if min(e, end) > max(s, start)
        ]
        result[span["id"]] = (end - start) - union_length(clipped)
    return result


def nesting_violations(spans: list[dict]) -> int:
    """Spans that start before or end after their parent."""
    by_id = {span["id"]: span for span in spans}
    count = 0
    for span in spans:
        parent = by_id.get(span["parent"])
        if parent is not None and (
            span["start"] < parent["start"] or span["end"] > parent["end"]
        ):
            count += 1
    return count


def percentile(values, fraction: float) -> float:
    """Nearest-rank percentile of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(count: int, fraction: float) -> int:
    """Samples that lie beyond the nearest-rank ``fraction`` percentile."""
    return count - max(1, math.ceil(fraction * count))


def load_process_traces(directory: str) -> tuple[list[dict], list[tuple]]:
    """Spans and events of every process that flushed under ``directory``."""
    spans: list[dict] = []
    events: list[tuple] = []
    for folder, _, files in sorted(os.walk(directory)):
        for name in sorted(files):
            if name.startswith("spans-") and name.endswith(".json"):
                with open(os.path.join(folder, name), encoding="utf-8") as handle:
                    payload = json.load(handle)
                spans.extend(payload["spans"])
                events.extend(tuple(event) for event in payload["events"])
    return spans, events


#: Per-layer self-time metrics: metric name -> span names summed.
SELF_TIME_METRICS = {
    "nn.im2col_s": ("nn.im2col",),
    "nn.batchnorm_s": ("nn.batchnorm",),
    "nn.relu_s": ("nn.relu",),
    "nn.pool_s": ("nn.pool",),
    "nn.merge_s": ("nn.merge",),
    "quant.quantize_s": ("quant.quantize",),
    "quant.output_real_s": ("quant.output_real",),
    "quant.output_real_stacked_s": ("quant.output_real_stacked",),
    "core.kernel_s": ("core.kernel",),
    "core.kernel_multi_s": ("core.kernel_multi",),
    "core.compile_s": ("core.compile",),
    "executor.calibrate_s": ("executor.calibrate",),
    "service.start_s": ("service.start",),
    "service.evaluate_s": ("service.evaluate",),
    "service.wait_s": ("service.wait",),
    "scheduling.plan_s": ("scheduling.plan",),
    "worker.chunk_s": ("worker.chunk",),
    "codec.s": ("codec.encode", "codec.decode"),
    "dse.evaluate_s": ("dse.evaluate",),
    "dse.strategy_s": ("dse.strategy",),
    "provenance.record_run_s": ("provenance.record_run",),
}

#: Call counts: metric name -> span names counted.
COUNT_METRICS = {
    "core.kernel_calls": ("core.kernel",),
    "core.kernel_multi_calls": ("core.kernel_multi",),
    "executor.forward_calls": ("executor.forward",),
    "executor.forward_many_calls": ("executor.forward_many",),
    "service.chunks": ("worker.chunk",),
}


def layer_metrics(spans: list[dict], events: list[tuple], passes: int) -> dict[str, float]:
    """Per-pass self times (s) and counts of every traced layer.

    Sums run over every process's spans and are divided by the number of
    traced passes; job and HTTP latencies are pooled percentiles.
    """
    selfs = self_times(spans)
    by_name: dict[str, list[dict]] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)
    metrics: dict[str, float] = {}
    for metric, names in SELF_TIME_METRICS.items():
        total = sum(selfs[s["id"]] for name in names for s in by_name.get(name, ()))
        metrics[metric] = total / 1e9 / passes
    for metric, names in COUNT_METRICS.items():
        metrics[metric] = sum(len(by_name.get(name, ())) for name in names) / passes
    kernels = by_name.get("core.kernel", []) + by_name.get("core.kernel_multi", [])
    metrics["core.macs"] = sum(s.get("macs", 0) for s in kernels) / passes
    metrics["core.bytes"] = sum(s.get("bytes", 0) for s in kernels) / passes
    forwards = by_name.get("executor.forward", []) + by_name.get("executor.forward_many", [])
    metrics["executor.mac_visits"] = sum(s.get("mac_visits", 0) for s in forwards) / passes

    # Job lifecycle: submitted (end of the JobManager.submit span), running,
    # done.  Queue wait and run time per job, pooled over every pass.
    submitted = {s["job"]: s["end"] for s in by_name.get("jobs.submit", ()) if "job" in s}
    marks: dict[str, dict[str, int]] = {}
    for kind, job, stamp in events:
        marks.setdefault(job, {})[kind] = stamp
    waits = [
        (marks[job]["running"] - t) / 1e6
        for job, t in submitted.items()
        if "running" in marks.get(job, {})
    ]
    runs = [
        (m["done"] - m["running"]) / 1e6 for m in marks.values() if "done" in m and "running" in m
    ]
    metrics["jobs.queue_wait_p50_ms"] = percentile(waits, 0.5) if waits else 0.0
    metrics["jobs.queue_wait_p95_ms"] = percentile(waits, 0.95) if waits else 0.0
    metrics["jobs.run_p50_ms"] = percentile(runs, 0.5) if runs else 0.0

    requests = by_name.get("http.request", [])
    encodes = by_name.get("codec.encode", [])
    jobs = len(encodes)
    metrics["http.requests_per_job"] = len(requests) / jobs if jobs else 0.0
    metrics["http.request_p50_ms"] = (
        percentile([(s["end"] - s["start"]) / 1e6 for s in requests], 0.5) if requests else 0.0
    )
    metrics["codec.bytes_per_job"] = sum(s.get("bytes", 0) for s in encodes) / jobs if jobs else 0.0
    metrics["trace.nesting_violations"] = nesting_violations(spans)
    return metrics


def join_client_jobs(spans: list[dict], events: list[tuple]) -> list[float]:
    """Per served job: client latency minus the daemon's queue wait and run.

    Client ``client.job`` spans carry the job id the daemon's
    ``jobs.submit`` span returned, so the two sides join on it.  What is
    left is transport, codec and polling time (ms).
    """
    submitted = {s["job"]: s["start"] for s in spans if s["name"] == "jobs.submit" and "job" in s}
    done = {job: stamp for kind, job, stamp in events if kind == "done"}
    overheads = []
    for span in spans:
        job = span.get("job")
        if span["name"] == "client.job" and job in submitted and job in done:
            daemon = done[job] - submitted[job]
            overheads.append(((span["end"] - span["start"]) - daemon) / 1e6)
    return overheads
