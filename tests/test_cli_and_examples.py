"""Tests of the CLI and smoke tests of the fast example scripts."""

import runpy
import sys

import pytest

from repro.cli import build_parser, main


class TestCli:
    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_hardware_command(self, capsys):
        assert main(["hardware", "--array-sizes", "16", "--perforations", "1", "2"]) == 0
        out = capsys.readouterr().out
        assert "norm. power" in out
        assert out.count("\n") >= 4  # title + header + separator + 2 rows

    def test_error_model_command(self, capsys):
        assert main(["error-model", "--m", "1", "--taps", "32", "--trials", "500"]) == 0
        out = capsys.readouterr().out
        assert "ours (+V)" in out and "w/o V" in out

    def test_table3_matches_accuracy_sweep(self, capsys, monkeypatch, tmp_path):
        """One model's ``repro table3`` run records exactly the accuracies
        that :func:`accuracy_sweep` returns on the same setup."""
        from repro.cli.common import sweep_manifest_outputs
        from repro.provenance import RunManifest
        from repro.simulation.campaign import (
            TrainedModelCache,
            TrainingSettings,
            accuracy_sweep,
            experiment_dataset,
        )

        monkeypatch.setenv("REPRO_MANIFEST_DIR", str(tmp_path / "manifests"))
        argv = ["table3", "--models", "vgg13", "--classes", "10", "--epochs", "1"]
        argv += ["--perforations", "0", "1", "--max-eval-images", "16"]
        assert main(argv + ["--cache-dir", str(tmp_path)]) == 0
        assert "ours loss" in capsys.readouterr().out
        outputs = RunManifest.load(str(tmp_path / "manifests" / "table3.json")).outputs

        dataset = experiment_dataset(num_classes=10)
        trained = TrainedModelCache(cache_dir=str(tmp_path)).load_or_train(
            "vgg13", dataset, TrainingSettings(epochs=1)
        )
        sweep = accuracy_sweep(
            [trained], {dataset.name: dataset}, perforations=(0, 1), max_eval_images=16
        )
        expected = sweep_manifest_outputs(sweep)
        assert outputs["baselines"] == expected["baselines"]
        assert outputs["records"] == expected["records"]

    def test_invalid_model_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table3", "--models", "alexnet"])

    def test_help_lists_the_verbs(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        verbs = "{hardware,table3,dse,info,verify-results,error-model,serve}"
        assert verbs in capsys.readouterr().out

    @pytest.mark.parametrize("verb", ["backends", "accuracy", "sweep"])
    def test_retired_verb_is_unknown(self, capsys, verb):
        """One compile path, so no ``backends``; one accuracy sweep,
        ``table3``, so no ``accuracy`` or ``sweep``."""
        with pytest.raises(SystemExit) as excinfo:
            main([verb])
        assert excinfo.value.code == 2
        assert f"invalid choice: '{verb}'" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["table3", "dse", "serve"])
    def test_engine_backend_flag_is_unknown(self, capsys, verb):
        """Every verb that had ``--engine-backend`` rejects it as an
        unknown argument."""
        with pytest.raises(SystemExit) as excinfo:
            main([verb, "--engine-backend", "numpy"])
        assert excinfo.value.code == 2
        assert "--engine-backend" in capsys.readouterr().err

    def test_no_prefix_reuse_flag(self, capsys):
        """The cross-plan reuse escape hatch is gone: every verb that had
        ``--no-prefix-reuse`` now rejects it as an unknown argument."""
        for verb in ("table3", "dse", "serve"):
            with pytest.raises(SystemExit) as excinfo:
                build_parser().parse_args([verb, "--no-prefix-reuse"])
            assert excinfo.value.code == 2
            assert "--no-prefix-reuse" in capsys.readouterr().err


def _recorded_requests(monkeypatch) -> list[tuple[str, str]]:
    """``(method, path)`` of every request an ``HttpJobClient`` sends from
    now on (the requests still go out)."""
    from repro.runtime.jobs.client import HttpJobClient

    requests = []
    request_once = HttpJobClient._request_once

    def recording_request_once(client, method, path, payload):
        requests.append((method, path))
        return request_once(client, method, path, payload)

    monkeypatch.setattr(HttpJobClient, "_request_once", recording_request_once)
    return requests


def _unreachable_url() -> str:
    """The URL of a free local port: nothing listens on it."""
    import socket

    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return f"http://127.0.0.1:{probe.getsockname()[1]}"


class TestCliErrorPaths:
    """Unknown strategy names and bad flag values exit non-zero with a
    clear message."""

    def test_dse_unknown_strategy(self, capsys):
        assert main(["dse", "--strategy", "simulated-annealing"]) == 2
        err = capsys.readouterr().err
        assert "unknown search strategy" in err
        assert "greedy" in err  # the message names the registered options

    def test_dse_subsample_and_cap_mutually_exclusive(self, capsys):
        assert (
            main(["dse", "--subsample-eval", "16", "--max-eval-images", "32"]) == 2
        )
        assert "mutually exclusive" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_dse_max_loss_must_be_finite(self, value, capsys, monkeypatch):
        """NaN or an infinite loss budget would reach the JSON output and the
        manifest as non-standard JSON: a one-line exit-2 error before any
        model loads."""
        from repro.simulation.campaign import TrainedModelCache

        def no_model_loads(*args, **kwargs):
            raise AssertionError("a model was loaded before the --max-loss check")

        monkeypatch.setattr(TrainedModelCache, "load_or_train", no_model_loads)
        assert main(["dse", f"--max-loss={value}", "--json"]) == 2
        err = capsys.readouterr().err
        assert err == f"error: --max-loss must be a finite number, got {float(value)}\n"

    def test_dse_non_positive_subsample_rejected(self, capsys):
        assert main(["dse", "--subsample-eval", "-3"]) == 2
        assert "must be positive" in capsys.readouterr().err
        assert main(["dse", "--subsample-eval", "0"]) == 2
        assert "must be positive" in capsys.readouterr().err

    def test_remote_errors_are_one_line_exit_2(self, capsys, monkeypatch, tmp_path):
        """``--max-eval-images`` next to ``--remote`` is rejected before any
        request is sent, and an unreachable daemon is a one-line error
        with exit 2, not a job-client traceback."""
        monkeypatch.setenv("REPRO_MANIFEST_DIR", str(tmp_path))
        requests = _recorded_requests(monkeypatch)
        url = _unreachable_url()

        assert main(["table3", "--remote", url, "--max-eval-images", "8"]) == 2
        err = capsys.readouterr().err
        assert "incompatible flags: --max-eval-images" in err
        assert requests == []

        assert main(["table3", "--remote", url]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"cannot reach {url}" in err
        assert requests  # the daemon was tried

    def test_dse_remote_names_every_local_flag_before_any_request(
        self, capsys, monkeypatch, tmp_path
    ):
        """``repro dse --remote`` rejects the shared local-evaluation flags
        and its own in one message, before any request is sent."""
        monkeypatch.setenv("REPRO_MANIFEST_DIR", str(tmp_path))
        requests = _recorded_requests(monkeypatch)
        argv = ["dse", "--remote", _unreachable_url(), "--workers", "2"]
        argv += ["--max-eval-images", "8", "--calibration-images", "64"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.rstrip().endswith(
            "incompatible flags: --workers, --max-eval-images, --calibration-images"
        )
        assert requests == []

    @pytest.mark.parametrize("failure", ["queue_full", "job_failed"])
    def test_remote_rejected_or_failed_job_is_one_line_exit_2(
        self, failure, capsys, monkeypatch, tmp_path, trained_tiny_model, tiny_dataset
    ):
        """A daemon that refuses a sweep job (HTTP 429) or fails one makes
        the verb print a one-line error and exit 2, not a traceback."""
        import dataclasses
        import threading

        from repro.runtime.jobs import JobManager
        from repro.runtime.server import JobServer
        from repro.simulation.campaign import TrainedModel

        monkeypatch.setenv("REPRO_MANIFEST_DIR", str(tmp_path))
        # One network hosted for two datasets: the sweep submits two jobs.
        second = dataclasses.replace(tiny_dataset, name=f"{tiny_dataset.name}-b")
        datasets = {dataset.name: dataset for dataset in (tiny_dataset, second)}
        models = [
            TrainedModel(
                name="vgg13",
                dataset_name=name,
                model=trained_tiny_model,
                float_accuracy=0.0,
            )
            for name in datasets
        ]
        if failure == "queue_full":
            # No dispatcher: the first job stays queued, the second is refused.
            manager = JobManager(models, datasets, max_queue_depth=1, auto_start=False)
            expected = "job queue is full (1 jobs queued)"
        else:
            manager = JobManager(models, datasets)

            def failing_evaluate_plans(model_index, plans):
                raise RuntimeError("forced evaluation failure")

            monkeypatch.setattr(manager.service, "evaluate_plans", failing_evaluate_plans)
            expected = "failed: RuntimeError: forced evaluation failure"
        server = JobServer(manager)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            argv = ["table3", "--remote", server.url, "--models", "vgg13"]
            status = main(argv + ["--perforations", "1"])
        finally:
            server.shutdown_and_close()
            thread.join(timeout=10)
        err = capsys.readouterr().err
        assert status == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert expected in err

    @pytest.mark.parametrize(
        "command, flag",
        [
            ("table3", "--workers"),
            ("table3", "--max-eval-images"),
            ("table3", "--perforations"),
            ("dse", "--workers"),
            ("dse", "--max-eval-images"),
            ("dse", "--calibration-images"),
            ("dse", "--array-size"),
            ("dse", "--perforations"),
            ("serve", "--workers"),
            ("serve", "--queue-depth"),
            ("serve", "--max-eval-images"),
            ("serve", "--calibration-images"),
            ("hardware", "--array-sizes"),
            ("hardware", "--perforations"),
            ("error-model", "--taps"),
            ("error-model", "--trials"),
            ("error-model", "--m"),
        ],
    )
    def test_invalid_counts_exit_2_before_any_model_loads(
        self, command, flag, capsys, monkeypatch
    ):
        """One contract for every count and perforation flag of every verb
        that has it: a count below 1, or a perforation outside [0, 7]
        ([1, 7] for ``hardware``, whose MAC+ shares need an approximate
        array), is a one-line error with exit 2, reported before any model
        is loaded or trained and before any work starts."""
        from repro.simulation.campaign import TrainedModelCache

        def no_model_loads(*args, **kwargs):
            raise AssertionError("a model was loaded before the count check")

        monkeypatch.setattr(TrainedModelCache, "load_or_train", no_model_loads)
        if flag in ("--perforations", "--m"):
            low = 1 if command == "hardware" else 0
            cases, bound = ("-1", "8", "9"), f"must lie in [{low}, 7]"
            if low:
                cases = ("0",) + cases
        else:
            cases, bound = ("0", "-4"), "must be a positive integer"
        for bad in cases:
            argvs = [[command, flag, bad]]
            if flag in ("--perforations", "--array-sizes"):
                argvs.append([command, flag, "1", bad])  # a later value too
            for argv in argvs:
                assert main(argv) == 2, argv
                captured = capsys.readouterr()
                assert captured.err == f"error: {flag} {bound}, got {bad}\n"
                assert captured.out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["--session-inflight", "2"],
            ["--ledger-dir", "D"],
            ["--manifests"],
            ["--cache-entries", "5"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_retired_serve_flags_are_unknown(self, capsys, argv):
        """Per-session caps and ledgers, per-job manifests and the cache
        capacity are gone: their ``repro serve`` flags exit 2."""
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", *argv])
        assert excinfo.value.code == 2
        assert argv[0] in capsys.readouterr().err


class TestRemoteTable3:
    def test_title_counts_networks_not_hosted_pairs(
        self, capsys, monkeypatch, tmp_path, trained_tiny_model, tiny_dataset
    ):
        """Two networks hosted for two datasets are four (model, dataset)
        pairs: the title counts 2 models, as the local path does."""
        import dataclasses
        import threading

        from repro.runtime.jobs import JobManager
        from repro.runtime.server import JobServer
        from repro.simulation.campaign import TrainedModel

        monkeypatch.setenv("REPRO_MANIFEST_DIR", str(tmp_path))
        second = dataclasses.replace(tiny_dataset, name=f"{tiny_dataset.name}-b")
        datasets = {dataset.name: dataset for dataset in (tiny_dataset, second)}
        models = [
            TrainedModel(
                name=name,
                dataset_name=dataset_name,
                model=trained_tiny_model,
                float_accuracy=0.0,
            )
            for name in ("vgg13", "resnet44")
            for dataset_name in datasets
        ]
        server = JobServer(JobManager(models, datasets))
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            argv = ["table3", "--remote", server.url, "--models", "vgg13", "resnet44"]
            assert main(argv + ["--perforations", "1"]) == 0
        finally:
            server.shutdown_and_close()
            thread.join(timeout=10)
        out = capsys.readouterr().out
        assert "(2 hosted models x 2 datasets, m = 1, " in out


class TestTable3Command:
    def test_table3_command_small(self, capsys, tmp_path):
        """table3 runs the multi-model session end to end (subset config)."""
        assert (
            main(
                [
                    "table3",
                    "--models",
                    "vgg13",
                    "--classes",
                    "10",
                    "--epochs",
                    "1",
                    "--perforations",
                    "1",
                    "--max-eval-images",
                    "16",
                    "--workers",
                    "2",
                    "--cache-dir",
                    str(tmp_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Table III" in out and "average" in out and "vgg13" in out

    def test_runs_in_the_suite_write_nothing_into_the_working_directory(
        self, capsys, monkeypatch, tmp_path
    ):
        """The suite's autouse fixture points the manifest and trained-model
        cache directories at a temporary directory: a table3 run that sets
        neither leaves its manifest, its model and its calibration record
        there, and nothing under its working directory."""
        import glob
        import os

        monkeypatch.chdir(tmp_path)
        argv = ["table3", "--models", "vgg13", "--classes", "10", "--epochs", "1"]
        assert main(argv + ["--perforations", "1", "--max-eval-images", "16"]) == 0
        assert "Table III" in capsys.readouterr().out
        assert not (tmp_path / "results" / "manifests").exists()
        assert os.listdir(tmp_path) == []
        manifests = os.environ["REPRO_MANIFEST_DIR"]
        assert os.path.exists(os.path.join(manifests, "table3.json"))
        cache = os.environ["REPRO_CACHE_DIR"]
        assert len(glob.glob(os.path.join(cache, "vgg13__*.calib-*.json"))) == 1

    def test_repeated_values_are_swept_once(self, capsys, monkeypatch, tmp_path):
        """A repeated model, class count or perforation prints the table of
        the distinct values: a repeated model would count twice in the
        average rows."""
        monkeypatch.setenv("REPRO_MANIFEST_DIR", str(tmp_path / "manifests"))
        argv = ["table3", "--epochs", "1", "--max-eval-images", "32"]
        argv += ["--cache-dir", str(tmp_path)]
        distinct = ["--models", "vgg13", "resnet44", "--classes", "10"]
        assert main(argv + distinct + ["--perforations", "2"]) == 0
        expected = capsys.readouterr().out
        assert "(2 models x 1 datasets, m = 2, " in expected
        repeated = ["--models", "vgg13", "vgg13", "resnet44", "--classes", "10", "10"]
        assert main(argv + repeated + ["--perforations", "2", "2"]) == 0
        assert capsys.readouterr().out == expected


class TestDseCommand:
    def test_dse_greedy_end_to_end_and_resume(self, capsys, tmp_path):
        import json

        args = [
            "dse",
            "--model",
            "vgg13",
            "--classes",
            "10",
            "--epochs",
            "1",
            "--strategy",
            "greedy",
            "--max-loss",
            "0.5",
            "--budget-evals",
            "12",
            "--max-eval-images",
            "16",
            "--seed",
            "0",
            "--cache-dir",
            str(tmp_path),
            "--ledger",
            str(tmp_path / "ledger"),
            "--json",
        ]
        assert main(args) == 0
        first = json.loads(capsys.readouterr().out)
        assert first["stats"]["evaluations"] <= 12
        assert first["stats"]["ledger_replays"] == 0
        assert first["front"], "campaign produced no front"
        for point in first["front"]:
            assert {"label", "energy_nj", "accuracy", "accuracy_loss"} <= set(point)

        # Re-running with --resume replays every recorded evaluation and
        # never re-evaluates a plan: fresh evals + replays == distinct points.
        assert main(args + ["--resume"]) == 0
        resumed = json.loads(capsys.readouterr().out)
        assert resumed["stats"]["ledger_replays"] == first["stats"]["evaluations"]
        assert (
            resumed["stats"]["ledger_replays"] + resumed["stats"]["evaluations"]
            == resumed["stats"]["points"]
        )
        assert resumed["baseline_accuracy"] == first["baseline_accuracy"]

    def test_dse_seed_threads_dataset_and_subsampling(self, capsys, tmp_path):
        """--seed reaches the synthetic dataset (name suffix) and the eval
        subsample; the same seed reproduces the identical campaign."""
        import json

        args = [
            "dse",
            "--classes",
            "10",
            "--epochs",
            "1",
            "--strategy",
            "greedy",
            "--budget-evals",
            "4",
            "--subsample-eval",
            "16",
            "--seed",
            "7",
            "--cache-dir",
            str(tmp_path),
            "--no-ledger",
            "--json",
        ]
        assert main(args) == 0
        first = json.loads(capsys.readouterr().out)
        assert "-seed" in first["dataset"]
        assert main(args) == 0
        second = json.loads(capsys.readouterr().out)
        assert first["front"] == second["front"]
        assert first["baseline_accuracy"] == second["baseline_accuracy"]

    def test_dse_workers_matches_serial_front(self, capsys, tmp_path, monkeypatch):
        """--workers N is bit-exact with the serial path: identical fronts.
        A single-model run records the service it scored on in its
        manifest, with the effective worker count."""
        import json

        from repro.provenance import RunManifest
        from repro.runtime.sizing import resolve_worker_count

        args = [
            "dse",
            "--classes",
            "10",
            "--epochs",
            "1",
            "--strategy",
            "greedy",
            "--budget-evals",
            "8",
            "--max-eval-images",
            "16",
            "--seed",
            "0",
            "--cache-dir",
            str(tmp_path),
            "--no-ledger",
            "--json",
        ]
        monkeypatch.setenv("REPRO_MANIFEST_DIR", str(tmp_path / "serial"))
        assert main(args + ["--workers", "1"]) == 0
        serial = json.loads(capsys.readouterr().out)
        monkeypatch.setenv("REPRO_MANIFEST_DIR", str(tmp_path / "parallel"))
        assert main(args + ["--workers", "2"]) == 0
        parallel = json.loads(capsys.readouterr().out)
        assert parallel["front"] == serial["front"]
        assert parallel["baseline_accuracy"] == serial["baseline_accuracy"]
        # The effective pool size is the request clamped to the
        # schedulable CPUs (degrade-to-serial).
        workers = resolve_worker_count(2)
        assert parallel["stats"]["workers"] == workers
        for run, expected in (("serial", 1), ("parallel", workers)):
            manifest = RunManifest.load(str(tmp_path / run / "dse-vgg13.json"))
            service = manifest.inputs["service"]
            assert service["workers"] == expected
            assert service["models"] == [{"name": "vgg13", "dataset": serial["dataset"]}]

    def test_dse_multi_model_shared_service(self, capsys, tmp_path):
        """--models runs one campaign per model on one shared service."""
        import json

        args = [
            "dse",
            "--models",
            "vgg13",
            "resnet44",
            "--classes",
            "10",
            "--epochs",
            "1",
            "--strategy",
            "greedy",
            "--budget-evals",
            "4",
            "--max-eval-images",
            "16",
            "--seed",
            "0",
            "--cache-dir",
            str(tmp_path),
            "--no-ledger",
            "--json",
        ]
        assert main(args) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [entry["model"] for entry in payload["models"]] == ["vgg13", "resnet44"]
        for entry in payload["models"]:
            assert entry["front"], f"no front for {entry['model']}"
            assert entry["stats"]["evaluations"] <= 4


class TestDseRemoteBaselines:
    """``repro dse --strategy <baseline> --remote URL`` against an in-process
    daemon hosting the model the local run trains."""

    @pytest.fixture(scope="class")
    def remote(self, tmp_path_factory):
        import threading

        from repro.runtime.jobs import JobManager
        from repro.runtime.server import JobServer
        from repro.simulation.campaign import (
            TrainedModelCache,
            TrainingSettings,
            experiment_dataset,
        )

        cache_dir = str(tmp_path_factory.mktemp("remote-dse-cache"))
        dataset = experiment_dataset(num_classes=10)
        trained = TrainedModelCache(cache_dir=cache_dir).load_or_train(
            "vgg13", dataset, TrainingSettings(epochs=1)
        )
        server = JobServer(
            JobManager([trained], {dataset.name: dataset}, max_eval_images=16)
        )
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        yield cache_dir, server.url
        server.shutdown_and_close()
        thread.join(timeout=10)

    @staticmethod
    def _argv(cache_dir: str, strategy: str) -> list[str]:
        return [
            "dse",
            "--classes",
            "10",
            "--epochs",
            "1",
            "--strategy",
            strategy,
            "--max-loss",
            "10",
            "--cache-dir",
            cache_dir,
            "--no-ledger",
            "--json",
        ]

    def test_alwann_remote_point_equals_local(self, remote, capsys, monkeypatch, tmp_path):
        import json

        monkeypatch.setenv("REPRO_MANIFEST_DIR", str(tmp_path))
        cache_dir, url = remote
        argv = self._argv(cache_dir, "alwann")
        assert main(argv + ["--max-eval-images", "16"]) == 0
        local = json.loads(capsys.readouterr().out)
        assert main(argv + ["--remote", url]) == 0
        remote_run = json.loads(capsys.readouterr().out)
        assert "alwann" in [point["label"] for point in local["front"]]
        assert remote_run["front"] == local["front"]
        assert remote_run["baseline_accuracy"] == local["baseline_accuracy"]
        assert remote_run["stats"]["context_key"] == local["stats"]["context_key"]

    def test_weight_oriented_remote_is_one_line_exit_2(
        self, remote, capsys, monkeypatch, tmp_path
    ):
        monkeypatch.setenv("REPRO_MANIFEST_DIR", str(tmp_path))
        cache_dir, url = remote
        assert main(self._argv(cache_dir, "weight-oriented") + ["--remote", url]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "weight-oriented" in err and "without --remote" in err


class TestExamples:
    """The fast examples must run end to end (the training-heavy ones are
    exercised indirectly through the campaign tests and benches)."""

    @pytest.mark.parametrize(
        "script",
        [
            "examples/quickstart.py",
            "examples/accelerator_design_space.py",
        ],
    )
    def test_example_runs(self, script, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", [script])
        runpy.run_path(script, run_name="__main__")
        out = capsys.readouterr().out
        assert len(out.splitlines()) > 5
