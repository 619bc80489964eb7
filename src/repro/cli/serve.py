"""``repro serve`` — run the evaluation runtime as an HTTP job daemon.

Hosts trained models on one :class:`~repro.runtime.jobs.manager.JobManager`
behind the stdlib HTTP server (:mod:`repro.runtime.server`): clients POST
``/jobs`` and wait on ``/jobs/<id>?wait=S``, every job runs on one warm
engine, and the service-level result cache makes duplicate cells free
across all of them (a fully cached job is answered by its POST).
``repro table3|dse --remote URL`` are the matching clients.

The startup handshake is one line on stdout::

    serving on http://127.0.0.1:43211 (1 model(s), workers=1)

``--port 0`` (the default) binds an ephemeral port, so scripted users — the
``make serve-smoke`` gate among them — parse the URL from that line.
SIGTERM/SIGINT shut down gracefully: queued jobs are cancelled and the
engine is closed, its workers drained, before exit.
"""

from __future__ import annotations

import argparse
import signal
import threading

from repro.models.zoo import MODEL_NAMES

from repro.cli.common import add_workers_flag, check_counts, cli_error, load_models


def _hosted_models(args: argparse.Namespace):
    """Train (or load from cache) the models the daemon hosts.

    ``--golden-workload`` hosts the deterministic golden-workload model
    with its canonical measurement setup (calibration head included), so a
    served sweep is byte-comparable against ``results/golden/``.

    Returns ``(trained_models, datasets, calibration_images,
    max_eval_images)``.
    """
    if args.golden_workload:
        from repro.provenance.workload import (
            CALIBRATION_IMAGES,
            _train_workload_model,
        )

        trained, dataset = _train_workload_model()
        return [trained], {dataset.name: dataset}, CALIBRATION_IMAGES, None

    datasets, trained_models, _ = load_models(args, args.classes, args.models)
    return trained_models, datasets, args.calibration_images, args.max_eval_images


def cmd_serve(args: argparse.Namespace) -> int:
    error = check_counts(args)
    if error is not None:
        return cli_error(error)
    from repro.runtime.jobs import JobManager
    from repro.runtime.server import JobServer
    from repro.runtime.sizing import resolve_worker_count

    trained_models, datasets, calibration_images, max_eval_images = _hosted_models(args)
    manager = JobManager(
        trained_models,
        datasets,
        max_workers=resolve_worker_count(args.workers),
        max_eval_images=max_eval_images,
        calibration_images=calibration_images,
        max_queue_depth=args.queue_depth,
        cache_persist_dir=args.cache_persist,
    )
    server = JobServer(manager, host=args.host, port=args.port)

    def _shutdown(signum, frame) -> None:
        # shutdown() blocks until serve_forever() returns; calling it from
        # the signal handler on the serving thread would deadlock, so a
        # helper thread delivers it.
        threading.Thread(target=server.shutdown, daemon=True).start()

    signal.signal(signal.SIGTERM, _shutdown)
    signal.signal(signal.SIGINT, _shutdown)

    print(
        f"serving on {server.url} ({len(trained_models)} model(s), "
        f"workers={manager.service.max_workers})",
        flush=True,
    )
    try:
        server.serve_forever(poll_interval=0.2)
    finally:
        server.server_close()
        manager.close()
    print("serve: shut down cleanly", flush=True)
    return 0


def register(sub) -> None:
    serve = sub.add_parser(
        "serve",
        help="run the evaluation runtime as an HTTP job daemon "
        "(POST /jobs, GET /jobs/<id>, /models, /stats, /healthz); "
        "`repro table3|dse --remote URL` are the matching clients",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=0,
        help="listening port; 0 (the default) binds an ephemeral port, "
        "printed in the one-line startup handshake",
    )
    serve.add_argument(
        "--models",
        nargs="+",
        choices=MODEL_NAMES,
        default=["vgg13"],
        help="reference networks to host (trained or loaded from cache at "
        "startup)",
    )
    serve.add_argument(
        "--classes",
        type=int,
        nargs="+",
        choices=(10, 100),
        default=[10],
        help="dataset variants to host each model on",
    )
    serve.add_argument("--epochs", type=int, default=6)
    serve.add_argument(
        "--golden-workload",
        action="store_true",
        help="host the deterministic golden-workload model (canonical "
        "measurement setup) instead of --models/--classes — served sweeps "
        "are byte-comparable against results/golden/",
    )
    serve.add_argument(
        "--seed",
        type=int,
        default=None,
        help="root seed of the hosted datasets' generation (the same "
        "dataset stream as `repro table3|dse --seed`)",
    )
    serve.add_argument("--cache-dir", default=None)
    add_workers_flag(serve)
    serve.add_argument("--max-eval-images", type=int, default=None)
    serve.add_argument("--calibration-images", type=int, default=128)
    serve.add_argument(
        "--queue-depth",
        type=int,
        default=64,
        help="admission control: a job submitted while this many jobs "
        "wait in the queue is rejected with HTTP 429 reason queue_full "
        "(the running job has left the queue and does not count)",
    )
    serve.add_argument(
        "--cache-persist",
        default=None,
        metavar="DIR",
        help="spill the result cache through an on-disk ledger here; a "
        "restarted daemon reloads it and starts warm (a repeated sweep "
        "is a 100%% cache-hit run)",
    )
    serve.add_argument("--verbose", action="store_true")
    serve.set_defaults(func=cmd_serve)
