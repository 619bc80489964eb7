"""Tests of the provenance layer: manifests, atomic writes, regression gate.

Covers the contracts ISSUE 6 pins:

* manifest round-trip — write → load → re-serialize is hash-stable, and a
  tampered payload is rejected;
* atomic read-modify-write of the shared bench ledger — an interrupt
  mid-write leaves the old document intact;
* the comparator's key-classification policy and its edge cases (missing
  golden section, floor tolerance boundary, Pareto front reordered but
  otherwise equal);
* `repro info --json` and the `verify-results` CLI (refresh determinism,
  perturb → fail → refresh → pass, SKIP_REGRESSION);
* manifest input digests reproducing the campaign ledger's context key and
  the trained-model cache stem.
"""

from __future__ import annotations

import dataclasses
import json
import glob
import os

import numpy as np
import pytest

from repro.cli import main
from repro.provenance import (
    Finding,
    RunManifest,
    canonical_json,
    compare_bench_ledgers,
    compare_golden_payloads,
    dataset_digest,
    load_json,
    model_digest,
    payload_digest,
    provenance_environment,
    record_run,
    update_json_atomic,
    write_json_atomic,
)
from repro.provenance.manifest import DIGEST_KEY, jsonable
from repro.provenance.regression import DEFAULT_TOLERANCE, classify_key
from repro.runtime.sizing import blas_thread_count


@pytest.fixture(autouse=True)
def _manifest_dir(tmp_path, monkeypatch):
    """Every test writes manifests under its own tmp dir, never the repo."""
    monkeypatch.setenv("REPRO_MANIFEST_DIR", str(tmp_path / "manifests"))
    monkeypatch.delenv("SKIP_REGRESSION", raising=False)
    monkeypatch.delenv("REPRO_REGRESSION_TOL", raising=False)


class TestJsonable:
    def test_numpy_and_container_sanitization(self):
        @dataclasses.dataclass
        class Point:
            x: int
            y: float

        value = {
            "scalar": np.float64(1.5),
            "int": np.int32(7),
            "array": np.arange(4).reshape(2, 2),
            "tuple": (1, 2),
            "set": {"b", "a"},
            "dataclass": Point(1, 2.5),
            3: "int key",
        }
        out = jsonable(value)
        assert out["scalar"] == 1.5 and isinstance(out["scalar"], float)
        assert out["int"] == 7 and isinstance(out["int"], int)
        assert out["array"] == [[0, 1], [2, 3]]
        assert out["tuple"] == [1, 2]
        assert out["set"] == ["a", "b"]
        assert out["dataclass"] == {"x": 1, "y": 2.5}
        assert out["3"] == "int key"
        json.dumps(out)  # fully serializable

    def test_canonical_json_is_order_independent(self):
        assert canonical_json({"b": 1, "a": (1, 2)}) == canonical_json(
            {"a": [1, 2], "b": np.int64(1)}
        )


class TestManifestRoundTrip:
    def test_write_load_reserialize_hash_stable(self, tmp_path):
        manifest = RunManifest(
            kind="test",
            label="round/trip",
            inputs={"seed": np.int64(0), "digest": "abc"},
            outputs={"rows": [(1, 2.5), (3, 4.5)]},
            environment={"python": "x"},
        )
        path = manifest.write(str(tmp_path))
        assert manifest.path == path
        on_disk = load_json(path)
        assert on_disk["schema"] == "repro-run-manifest/v1"
        loaded = RunManifest.load(path)
        # Round trip: loading and re-serializing reproduces the digest.
        assert loaded.to_payload()[DIGEST_KEY] == on_disk[DIGEST_KEY]
        assert payload_digest(on_disk) == on_disk[DIGEST_KEY]

    def test_label_slug_in_filename(self, tmp_path):
        path = RunManifest(kind="bench", label="a b/c").write(str(tmp_path))
        assert os.path.basename(path) == "bench-a-b-c.json"

    def test_tampered_payload_rejected(self, tmp_path):
        path = RunManifest(kind="test", outputs={"v": 1}).write(str(tmp_path))
        payload = load_json(path)
        payload["outputs"]["v"] = 2
        with pytest.raises(ValueError, match="digest mismatch"):
            RunManifest.from_payload(payload)

    def test_record_run_success_and_env(self, tmp_path):
        with record_run("demo", directory=str(tmp_path), inputs={"a": 1}) as m:
            m.outputs["answer"] = 42
        loaded = RunManifest.load(os.path.join(str(tmp_path), "demo.json"))
        assert loaded.status == "ok"
        assert loaded.inputs == {"a": 1}
        assert loaded.outputs == {"answer": 42}
        assert loaded.wall_clock_s >= 0
        # The environment block is stamped automatically.
        assert loaded.environment["package"]["name"] == "repro-dac21"
        assert "numpy" in loaded.environment["packages"]

    def test_record_run_error_path_still_writes(self, tmp_path):
        with pytest.raises(RuntimeError, match="boom"):
            with record_run("demo", directory=str(tmp_path)) as m:
                m.inputs["seed"] = 3
                raise RuntimeError("boom")
        loaded = RunManifest.load(os.path.join(str(tmp_path), "demo.json"))
        assert loaded.status == "error"
        assert loaded.error == "RuntimeError: boom"
        assert loaded.inputs == {"seed": 3}

    def test_record_run_unwritable_dir_warns_not_crashes(
        self, tmp_path, monkeypatch, capsys
    ):
        # Provenance never crashes the run it describes: an unwritable
        # manifest directory degrades to a stderr warning on the success
        # path (a chmod-based fixture would not block root, so the write
        # failure is injected directly)...
        import repro.provenance.manifest as manifest_mod

        def exploding_write(path, payload, indent=2):
            raise OSError("read-only filesystem")

        monkeypatch.setattr(manifest_mod, "write_json_atomic", exploding_write)
        with record_run("demo", directory=str(tmp_path)) as m:
            m.outputs["answer"] = 42
        assert "could not write run manifest" in capsys.readouterr().err
        # ... and never masks the original exception on the error path.
        with pytest.raises(RuntimeError, match="boom"):
            with record_run("demo", directory=str(tmp_path)):
                raise RuntimeError("boom")
        assert "could not write run manifest" in capsys.readouterr().err

    def test_record_run_honors_env_dir(self, tmp_path, monkeypatch):
        target = tmp_path / "elsewhere"
        monkeypatch.setenv("REPRO_MANIFEST_DIR", str(target))
        with record_run("demo") as m:
            pass
        assert m.path == os.path.join(str(target), "demo.json")
        assert os.path.exists(m.path)


class TestAtomicLedgerUpdate:
    def test_merge_preserves_other_sections(self, tmp_path):
        path = str(tmp_path / "ledger.json")
        update_json_atomic(path, "a", {"x": 1})
        update_json_atomic(path, "b", {"y": 2})
        merged = update_json_atomic(path, "a", {"x": 3})
        assert merged == {"a": {"x": 3}, "b": {"y": 2}}
        assert load_json(path) == merged

    def test_interrupt_mid_write_leaves_old_document(self, tmp_path, monkeypatch):
        path = str(tmp_path / "ledger.json")
        update_json_atomic(path, "a", {"x": 1})
        before = open(path, encoding="utf-8").read()

        import repro.provenance.manifest as manifest_mod

        def exploding_replace(src, dst):
            raise OSError("interrupted mid-rename")

        monkeypatch.setattr(manifest_mod.os, "replace", exploding_replace)
        with pytest.raises(OSError, match="interrupted"):
            update_json_atomic(path, "b", {"y": 2})
        monkeypatch.undo()
        # Old document intact, no temp droppings left behind.
        assert open(path, encoding="utf-8").read() == before
        assert glob.glob(str(tmp_path / "*.tmp")) == []

    def test_corrupt_file_starts_fresh(self, tmp_path):
        path = str(tmp_path / "ledger.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{truncated")
        assert update_json_atomic(path, "a", {"x": 1}) == {"a": {"x": 1}}

    def test_atomic_write_honors_umask(self, tmp_path):
        # mkstemp creates 0600 temp files; the rename must not leak that
        # onto results files — they stay umask-default readable.
        path = str(tmp_path / "out.json")
        old_umask = os.umask(0o022)
        try:
            write_json_atomic(path, {"v": 1})
        finally:
            os.umask(old_umask)
        assert os.stat(path).st_mode & 0o777 == 0o644

    def test_write_json_atomic_is_deterministic(self, tmp_path):
        payload = {"b": 2, "a": [1, 2]}
        first, second = str(tmp_path / "1.json"), str(tmp_path / "2.json")
        write_json_atomic(first, dict(reversed(list(payload.items()))))
        write_json_atomic(second, payload)
        assert open(first, "rb").read() == open(second, "rb").read()


class TestComparatorPolicy:
    def test_classify_key(self):
        assert classify_key("wall_clock_s") == "ignore"
        assert classify_key("reuse_time") == "ignore"
        assert classify_key("worker_private_kib_plain") == "ignore"
        assert classify_key("speedup_vs_serial") == "floor"
        assert classify_key("payload_reduction") == "floor"
        assert classify_key("throughput_ips") == "floor"
        assert classify_key("plain_payload_bytes") == "band"
        assert classify_key("accuracy_loss") == "exact"
        assert classify_key("front_size") == "exact"

    def test_bare_index_key_inherits_parent_policy(self):
        # Worker counts under speedup_vs_serial carry no policy of their
        # own; they are floors because their parent is.
        assert classify_key("4", parent="floor") == "floor"
        assert classify_key("1", parent="ignore") == "ignore"
        assert classify_key("4") == "exact"  # no parent: default exact
        # A named key never inherits — its own policy wins.
        assert classify_key("accuracy_loss", parent="floor") == "exact"

    def test_speedup_vs_serial_children_are_floors_not_exact(self):
        # The committed golden's shape: timing-derived speedups keyed by
        # worker count.  A rerun jitters these values; they are held to the
        # floor policy, never to exact match — and ``speedup_vs_serial``
        # additionally carries an *absolute* floor of 1.0 (minus the 10 %
        # noise margin): parallel must degrade to serial rather than lose
        # to it, regardless of what a historical golden recorded.
        golden = {
            "dse_parallel_campaign": {
                "evaluations": 60,
                "speedup_vs_serial": {"1": 1.0, "4": 0.5177858712557567},
            }
        }
        fresh_near_serial = {
            "dse_parallel_campaign": {
                "evaluations": 60,
                "speedup_vs_serial": {"1": 1.0, "4": 0.95},
            }
        }
        # Sub-unity golden: exempt from the relative floor, and 0.95 clears
        # the absolute floor's noise margin — a degraded-to-serial rerun of
        # a box that once recorded 0.52x passes.
        assert compare_bench_ledgers(golden, fresh_near_serial, 0.5).ok
        # A fresh run that truly loses to serial fails the absolute floor
        # even though it *improves* on the (historically broken) golden.
        fresh_lost = {
            "dse_parallel_campaign": {
                "evaluations": 60,
                "speedup_vs_serial": {"1": 1.0, "4": 0.61},
            }
        }
        report = compare_bench_ledgers(golden, fresh_lost, 0.5)
        assert [f.kind for f in report.failures] == ["floor"]
        assert "lost to serial" in report.failures[0].message
        # A >=1.0 golden child still enforces its floor...
        golden["dse_parallel_campaign"]["speedup_vs_serial"]["4"] = 2.0
        fresh_regressed = {
            "dse_parallel_campaign": {
                "evaluations": 60,
                "speedup_vs_serial": {"1": 1.0, "4": 0.9},
            }
        }
        report = compare_bench_ledgers(golden, fresh_regressed, 0.5)
        assert [f.kind for f in report.failures] == ["floor"]
        assert report.failures[0].path.endswith("speedup_vs_serial.4")
        # ... and non-timing siblings stay exact.
        fresh_perturbed = {
            "dse_parallel_campaign": {
                "evaluations": 61,
                "speedup_vs_serial": {"1": 1.0, "4": 2.0},
            }
        }
        report = compare_bench_ledgers(golden, fresh_perturbed, 0.5)
        assert [f.kind for f in report.failures] == ["exact"]

    def test_speedup_absolute_floor_boundary(self):
        # The absolute floor's noise margin must admit exactly the x0.9
        # jitter the self-consistency test applies to a 1.0 golden...
        golden = {"s": {"speedup_vs_serial": {"1": 1.0}}}
        fresh = {"s": {"speedup_vs_serial": {"1": 0.9}}}
        assert compare_bench_ledgers(golden, fresh, DEFAULT_TOLERANCE).ok
        # ... and reject anything below it.
        fresh = {"s": {"speedup_vs_serial": {"1": 0.89}}}
        report = compare_bench_ledgers(golden, fresh, DEFAULT_TOLERANCE)
        assert not report.ok
        assert "lost to serial" in report.failures[0].message

    def test_committed_golden_ledger_passes_against_itself_jittered(self):
        # End-to-end guard on the real committed baseline: replaying it
        # with every timing-derived value jittered must stay green, i.e.
        # a bench rerun on the same code cannot fail the gate spuriously.
        golden = load_json(os.path.join("results", "golden", "BENCH_engine.json"))

        def jitter(node):
            if isinstance(node, dict):
                return {
                    key: (
                        value * 0.9
                        if isinstance(value, float)
                        and classify_key(key, "floor") != "exact"
                        else jitter(value)
                    )
                    for key, value in node.items()
                }
            return node

        assert compare_bench_ledgers(golden, jitter(golden), DEFAULT_TOLERANCE).ok

    def test_missing_golden_section_fails(self):
        report = compare_bench_ledgers({"gone": {"v": 1}}, {}, 0.5)
        assert not report.ok
        assert report.failures[0].kind == "missing"

    def test_extra_fresh_section_warns(self):
        report = compare_bench_ledgers({}, {"new": {"v": 1}}, 0.5)
        assert report.ok
        assert report.warnings[0].kind == "unbaselined"
        assert "bench-refresh" in report.warnings[0].message

    def test_floor_tolerance_boundary(self):
        golden = {"s": {"speedup": 2.0}}
        # floor = 2.0 * (1 - 0.5) = 1.0; exactly-at-floor passes...
        assert compare_bench_ledgers(golden, {"s": {"speedup": 1.0}}, 0.5).ok
        # ... just below fails ...
        report = compare_bench_ledgers(golden, {"s": {"speedup": 0.999}}, 0.5)
        assert [f.kind for f in report.failures] == ["floor"]
        # ... and improvements never fail.
        assert compare_bench_ledgers(golden, {"s": {"speedup": 9.0}}, 0.5).ok

    def test_sub_unity_golden_floor_not_enforced(self):
        # A 0.54x "speedup" baselined on a starved 1-cpu box is an
        # environment artifact; fresh runs must not be held to it.
        golden = {"s": {"speedup": 0.54}}
        assert compare_bench_ledgers(golden, {"s": {"speedup": 0.1}}, 0.5).ok

    def test_band_policy_for_bytes(self):
        golden = {"s": {"shared_payload_bytes": 1000}}
        assert compare_bench_ledgers(
            golden, {"s": {"shared_payload_bytes": 1400}}, 0.5
        ).ok
        report = compare_bench_ledgers(
            golden, {"s": {"shared_payload_bytes": 1600}}, 0.5
        )
        assert [f.kind for f in report.failures] == ["band"]

    def test_ignored_keys_never_fail(self):
        golden = {"s": {"wall_clock_s": 1.0, "reuse_time": 2.0, "v": 3}}
        fresh = {"s": {"wall_clock_s": 99.0, "v": 3}}  # reuse_time missing too
        assert compare_bench_ledgers(golden, fresh, 0.5).ok

    def test_exact_value_perturbation_fails(self):
        golden = {"s": {"accuracy_loss": 0.25}}
        report = compare_bench_ledgers(golden, {"s": {"accuracy_loss": 0.26}}, 0.5)
        assert [f.kind for f in report.failures] == ["exact"]

    def test_type_change_fails(self):
        report = compare_bench_ledgers({"s": {"v": "a"}}, {"s": {"v": 1}}, 0.5)
        assert [f.kind for f in report.failures] == ["type"]

    def test_front_reordered_but_equal_passes(self):
        a = {"label": "A", "energy_nj": 1.0, "accuracy": 0.9}
        b = {"label": "B", "energy_nj": 2.0, "accuracy": 0.95}
        golden = {"front": [a, b], "front_size": 2}
        fresh = {"front": [b, a], "front_size": 2}
        assert compare_golden_payloads("pareto_front", golden, fresh) == []

    def test_front_perturbed_value_fails(self):
        a = {"label": "A", "energy_nj": 1.0}
        golden = {"front": [a]}
        fresh = {"front": [{"label": "A", "energy_nj": 1.0001}]}
        findings = compare_golden_payloads("pareto_front", golden, fresh)
        assert [f.severity for f in findings] == ["fail"]
        assert "front" in findings[0].path

    def test_finding_describe(self):
        finding = Finding("sec", "a.b", "exact", "fail", "changed")
        assert finding.describe() == "[fail] sec:a.b — changed"

    def test_report_payload_shape(self):
        report = compare_bench_ledgers({"gone": {}}, {"new": {}}, 0.25)
        payload = report.to_payload()
        assert payload["ok"] is False
        assert payload["tolerance"] == 0.25
        assert len(payload["failures"]) == 1 and len(payload["warnings"]) == 1


class TestProvenanceEnvironment:
    def test_environment_block(self):
        env = provenance_environment()
        assert env["package"]["name"] == "repro-dac21"
        import repro

        assert env["package"]["version"] == repro.__version__
        assert env["cpu_count"] >= 1
        # Import-failure reasons are recorded, not swallowed.
        assert set(env["packages"]) == {"numpy", "scipy"}
        for probe in env["packages"].values():
            if probe["available"]:
                assert probe["version"]
            else:
                assert probe["reason"]
        backends = [row["name"] for row in env["engine_backends"]]
        assert backends == ["numpy", "lowmem"]
        assert env["seed_defaults"]["campaign_rng_seed"] == 0

    def test_numpy_probe_available(self):
        env = provenance_environment()
        assert env["packages"]["numpy"]["available"] is True
        assert env["packages"]["numpy"]["version"] == np.__version__


class TestInfoCommand:
    def test_info_json_machine_readable(self, capsys):
        assert main(["info", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["package"]["name"] == "repro-dac21"
        assert "packages" in payload and "engine_backends" in payload
        assert set(payload["runtime"]) == {
            "stats_schema",
            "auto_workers",
            "blas_threads",
            "pool_worker_blas_threads",
            "default_queue_depth",
            "default_session_inflight",
        }
        # The host's own BLAS threads, read through the library's getter,
        # next to the one thread every pool worker pins itself to.
        assert payload["runtime"]["blas_threads"] == blas_thread_count()
        assert payload["runtime"]["pool_worker_blas_threads"] == 1
        for row in payload["engine_backends"]:
            assert set(row) == {"name", "available", "default", "reason"}

    def test_info_text_mode(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "Probed packages" in out
        assert "Engine backends" in out
        assert "seed defaults" in out

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["info", "--bogus"])
        assert excinfo.value.code == 2


class TestVerifyResultsCli:
    """The gate end to end, on a synthetic bench ledger (--skip-workload
    keeps the expensive golden workload out of tier 1; `make check` runs
    it for real)."""

    @staticmethod
    def _dirs(tmp_path):
        results = tmp_path / "results"
        golden = tmp_path / "golden"
        results.mkdir()
        return str(results), str(golden)

    @staticmethod
    def _args(results, golden, *extra):
        return [
            "verify-results",
            "--results",
            results,
            "--golden",
            golden,
            "--skip-workload",
            *extra,
        ]

    def test_missing_golden_dir_is_usage_error(self, tmp_path, capsys):
        results, golden = self._dirs(tmp_path)
        assert main(self._args(results, golden)) == 2
        assert "bench-refresh" in capsys.readouterr().err

    def test_skip_regression_env_short_circuits(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SKIP_REGRESSION", "1")
        results, golden = self._dirs(tmp_path)
        assert main(self._args(results, golden)) == 0
        assert "skipped" in capsys.readouterr().out

    def test_negative_tolerance_rejected(self, tmp_path):
        results, golden = self._dirs(tmp_path)
        assert main(self._args(results, golden, "--tolerance", "-1")) == 2

    def test_refresh_verify_perturb_refresh_cycle(self, tmp_path, capsys):
        results, golden = self._dirs(tmp_path)
        ledger_path = os.path.join(results, "BENCH_engine.json")
        write_json_atomic(
            ledger_path,
            {"dse_search": {"greedy": {"evaluations": 21, "wall_clock_s": 1.0}}},
        )
        # Baseline, then verify green.
        assert main(self._args(results, golden, "--refresh")) == 0
        assert "refreshed" in capsys.readouterr().out
        assert main(self._args(results, golden)) == 0
        assert "PASS" in capsys.readouterr().out
        # Perturb a deterministic value -> FAIL, exit 1.
        update_json_atomic(
            ledger_path, "dse_search", {"greedy": {"evaluations": 99, "wall_clock_s": 2.0}}
        )
        assert main(self._args(results, golden)) == 1
        captured = capsys.readouterr()
        assert "FAIL" in captured.out
        assert "bench-refresh" in captured.err
        # Deliberate re-baseline -> green again.
        assert main(self._args(results, golden, "--refresh")) == 0
        capsys.readouterr()
        assert main(self._args(results, golden)) == 0
        assert "PASS" in capsys.readouterr().out

    def test_refresh_is_deterministic(self, tmp_path, capsys):
        results, golden = self._dirs(tmp_path)
        write_json_atomic(
            os.path.join(results, "BENCH_engine.json"),
            {"b_section": {"v": 1}, "a_section": {"w": 2}},
        )
        golden_path = os.path.join(golden, "BENCH_engine.json")
        assert main(self._args(results, golden, "--refresh")) == 0
        first = open(golden_path, "rb").read()
        assert main(self._args(results, golden, "--refresh")) == 0
        second = open(golden_path, "rb").read()
        assert first == second

    def test_throughput_regression_beyond_tolerance_fails(self, tmp_path, capsys):
        results, golden = self._dirs(tmp_path)
        ledger_path = os.path.join(results, "BENCH_engine.json")
        write_json_atomic(ledger_path, {"engine": {"lut": {"speedup": 6.0}}})
        assert main(self._args(results, golden, "--refresh")) == 0
        capsys.readouterr()
        # Within the default 0.5 band: 4.0 >= 6.0 * 0.5 -> PASS.
        write_json_atomic(ledger_path, {"engine": {"lut": {"speedup": 4.0}}})
        assert main(self._args(results, golden)) == 0
        capsys.readouterr()
        # Halved-plus throughput: 2.0 < 3.0 -> FAIL.
        write_json_atomic(ledger_path, {"engine": {"lut": {"speedup": 2.0}}})
        assert main(self._args(results, golden)) == 1

    def test_json_output(self, tmp_path, capsys):
        results, golden = self._dirs(tmp_path)
        write_json_atomic(
            os.path.join(results, "BENCH_engine.json"), {"s": {"v": 1}}
        )
        assert main(self._args(results, golden, "--refresh")) == 0
        capsys.readouterr()
        assert main(self._args(results, golden, "--json")) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True and payload["failures"] == []

    def test_missing_fresh_ledger_fails(self, tmp_path, capsys):
        results, golden = self._dirs(tmp_path)
        write_json_atomic(
            os.path.join(results, "BENCH_engine.json"), {"s": {"v": 1}}
        )
        assert main(self._args(results, golden, "--refresh")) == 0
        os.unlink(os.path.join(results, "BENCH_engine.json"))
        capsys.readouterr()
        assert main(self._args(results, golden)) == 1
        assert "make engine dse" in capsys.readouterr().out

    def test_verify_writes_its_own_manifest(self, tmp_path, monkeypatch):
        manifest_dir = tmp_path / "manifests"
        monkeypatch.setenv("REPRO_MANIFEST_DIR", str(manifest_dir))
        results, golden = self._dirs(tmp_path)
        write_json_atomic(
            os.path.join(results, "BENCH_engine.json"), {"s": {"v": 1}}
        )
        assert main(self._args(results, golden, "--refresh")) == 0
        assert main(self._args(results, golden)) == 0
        loaded = RunManifest.load(str(manifest_dir / "verify-results.json"))
        assert loaded.status == "ok"
        assert loaded.outputs["ok"] is True


class TestGoldenWorkloadHelpers:
    def test_write_and_verify_goldens_round_trip(self, tmp_path):
        from repro.provenance.workload import verify_goldens, write_goldens

        payloads = {
            "inputs.json": {"model_digest": "abc", "context_key": "def"},
            "accuracy_table.json": {"rows": [{"m": 1, "accuracy": 0.5}]},
            "pareto_front.json": {"front": [{"label": "A", "energy_nj": 1.0}]},
        }
        write_goldens(payloads, str(tmp_path))
        assert verify_goldens(payloads, str(tmp_path), DEFAULT_TOLERANCE) == []
        # A reordered front still verifies; a perturbed digest does not.
        reordered = dict(payloads)
        reordered["pareto_front.json"] = {
            "front": list(reversed(payloads["pareto_front.json"]["front"]))
        }
        assert verify_goldens(reordered, str(tmp_path), DEFAULT_TOLERANCE) == []
        tampered = dict(payloads)
        tampered["inputs.json"] = {"model_digest": "zzz", "context_key": "def"}
        findings = verify_goldens(tampered, str(tmp_path), DEFAULT_TOLERANCE)
        assert findings and all(f.severity == "fail" for f in findings)

    def test_missing_golden_file_fails_with_hint(self, tmp_path):
        from repro.provenance.workload import verify_goldens

        findings = verify_goldens(
            {"inputs.json": {"model_digest": "abc"}}, str(tmp_path)
        )
        assert [f.kind for f in findings] == ["missing"]
        assert "bench-refresh" in findings[0].message


class TestDigestAlignment:
    """Manifest input digests reproduce the ledger / cache identities."""

    def test_model_and_dataset_digests_deterministic_and_sensitive(
        self, trained_tiny_model, tiny_dataset
    ):
        assert model_digest(trained_tiny_model) == model_digest(trained_tiny_model)
        assert dataset_digest(tiny_dataset) == dataset_digest(tiny_dataset)
        state = trained_tiny_model.state_dict()
        name = sorted(state)[0]
        perturbed = {k: v.copy() for k, v in state.items()}
        perturbed[name].flat[0] += 1.0

        class Fake:
            def state_dict(self):
                return perturbed

        assert model_digest(Fake()) != model_digest(trained_tiny_model)

    def test_trained_cache_stem_matches_cache_paths(self, tmp_path):
        from repro.simulation.campaign import (
            TrainedModelCache,
            TrainingSettings,
            trained_cache_stem,
        )

        settings = TrainingSettings()
        cache = TrainedModelCache(cache_dir=str(tmp_path))
        stem = trained_cache_stem("vgg13", "synthetic-cifar10", settings)
        npz_path, meta_path = cache._paths("vgg13", "synthetic-cifar10", settings)
        assert os.path.basename(npz_path) == f"{stem}.npz"
        assert os.path.basename(meta_path) == f"{stem}.json"
        assert f"seed{settings.seed}" in stem

    def test_campaign_context_key_matches_ledger_records(
        self, trained_tiny_model, tiny_dataset, tmp_path
    ):
        from repro.dse import CampaignLedger, run_campaign
        from repro.dse.engine import front_payload
        from repro.simulation.campaign import TrainedModel

        trained = TrainedModel(
            name="vgg13",
            dataset_name=tiny_dataset.name,
            model=trained_tiny_model,
            float_accuracy=0.0,
        )
        ledger = CampaignLedger(path=str(tmp_path / "ledger"))
        result = run_campaign(
            trained,
            tiny_dataset,
            strategy="greedy",
            max_loss=5.0,
            budget_evals=4,
            max_eval_images=32,
            calibration_images=32,
            array_size=16,
            ledger=ledger,
        )
        context_key = result.stats["context_key"]
        record_paths = glob.glob(str(tmp_path / "ledger" / "*.json"))
        assert record_paths
        for path in record_paths:
            record = load_json(path)
            # Every ledger record of the campaign is keyed under the very
            # context digest the run manifest embeds.
            assert record["context"] == context_key
        # And the front payload carries the ledger record keys.
        for point in front_payload(result):
            assert set(point) == {
                "label",
                "energy_nj",
                "accuracy",
                "accuracy_loss",
                "ledger_key",
            }
