"""End-to-end smoke test of the ``repro serve`` daemon (``make serve-smoke``).

Boots the real CLI entry point as a subprocess — not an in-process
:class:`~repro.runtime.server.JobServer` — so the whole stack is on the
hook: argument parsing, golden-workload hosting, the ephemeral-port
handshake line, HTTP transport, signal handling and shared-memory teardown.

The script asserts, in order:

1. **handshake** — the daemon (``--golden-workload --cache-persist DIR``)
   prints ``serving on http://...`` and answers ``/healthz`` with its
   hosted-model count;
2. **golden parity** — a Table-III sweep submitted over HTTP (the golden
   workload's perforations) reproduces ``results/golden/accuracy_table.json``
   byte-exactly: served jobs run the same engine as the in-process gate;
3. **cross-submission caching** — resubmitting the identical sweep is
   served entirely from the daemon's result cache: every ``POST /jobs``
   reply of it already reads ``done``, and ``/stats`` records the hits;
4. **CLI client** — ``repro table3 --remote URL`` at the golden
   workload's perforations exits 0 and writes its run manifest into the
   smoke's temporary directory; the manifest's records reproduce
   ``results/golden/accuracy_table.json`` and its job totals read every
   cell from the daemon's result cache;
5. **clean shutdown** — SIGTERM drains the daemon (exit code 0, the
   ``shut down cleanly`` line) and leaves no leaked ``/dev/shm`` blocks;
6. **warm restart** — a second daemon on the same ``--cache-persist``
   directory reports ``cache.loaded > 0`` in ``/stats`` and serves the
   golden sweep byte-exactly with zero cache misses, then shuts down as
   cleanly as the first.

Exit status 0 on success, 1 with a one-line diagnosis on any failure.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
GOLDEN_TABLE = os.path.join(REPO_ROOT, "results", "golden", "accuracy_table.json")
HANDSHAKE = re.compile(r"serving on (http://\S+)")
SHM_DIR = "/dev/shm"
BOOT_TIMEOUT_S = 300.0
SHUTDOWN_TIMEOUT_S = 60.0


class SmokeFailure(Exception):
    """One failed assertion of the smoke run (its message is the diagnosis)."""


def _shm_entries() -> set[str]:
    if not os.path.isdir(SHM_DIR):
        return set()
    return set(os.listdir(SHM_DIR))


def _boot(env: dict, persist_dir: str, tag: str) -> tuple[subprocess.Popen, str]:
    """Start ``repro serve --golden-workload`` and read its handshake URL."""
    print(f"serve-smoke: booting the {tag} daemon ...")
    daemon = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve", "--golden-workload",
            "--cache-persist", persist_dir, "--port", "0",
        ],
        cwd=REPO_ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    deadline = time.monotonic() + BOOT_TIMEOUT_S
    while time.monotonic() < deadline:
        line = daemon.stdout.readline()
        if not line:
            raise SmokeFailure(
                f"{tag} daemon exited before the handshake (code {daemon.poll()})"
            )
        sys.stdout.write(f"  [{tag}] {line}")
        match = HANDSHAKE.search(line)
        if match:
            return daemon, match.group(1)
    raise SmokeFailure(f"no {tag} handshake within {BOOT_TIMEOUT_S:.0f}s")


def _shutdown(daemon: subprocess.Popen, tag: str, shm_before: set[str]) -> None:
    """SIGTERM: exit 0, the clean-shutdown line, no leaked shared memory."""
    daemon.send_signal(signal.SIGTERM)
    try:
        daemon.wait(timeout=SHUTDOWN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SmokeFailure(
            f"{tag} daemon ignored SIGTERM for {SHUTDOWN_TIMEOUT_S:.0f}s"
        ) from None
    tail = daemon.stdout.read() or ""
    for line in tail.splitlines():
        print(f"  [{tag}] {line}")
    if daemon.returncode != 0:
        raise SmokeFailure(f"{tag} daemon exited with code {daemon.returncode}")
    if "shut down cleanly" not in tail:
        raise SmokeFailure(
            f"{tag} daemon exited 0 but never printed the clean-shutdown line"
        )
    leaked = _shm_entries() - shm_before
    if leaked:
        raise SmokeFailure(f"leaked shared-memory blocks: {sorted(leaked)}")


def _recording_client(url: str):
    """An ``HttpJobClient`` that keeps the state of every ``POST /jobs``
    reply in ``post_states``."""
    from repro.runtime.jobs import HttpJobClient

    class RecordingClient(HttpJobClient):
        def __init__(self, base_url: str):
            super().__init__(base_url)
            self.post_states: list[str] = []

        def _request(self, method, path, payload=None):
            reply = super()._request(method, path, payload)
            if method == "POST":
                self.post_states.append(reply["job"]["state"])
            return reply

    return RecordingClient(url)


def _accuracy_table(outputs: dict) -> dict:
    """The golden ``accuracy_table.json`` payload of a one-model sweep,
    read from the sweep's run-manifest outputs block."""
    records = outputs["records"]
    return {
        "model": records[0]["model"],
        "dataset": records[0]["dataset"],
        "baseline_accuracy": records[0]["baseline_accuracy"],
        "rows": [
            {
                "m": record["m"],
                "with_control_variate": record["with_control_variate"],
                "accuracy": record["approximate_accuracy"],
                "accuracy_loss": record["accuracy_loss"],
            }
            for record in records
        ],
    }


def _served_accuracy_table(client, perforations):
    """The golden ``accuracy_table.json`` payload, rebuilt from served jobs."""
    from repro.cli.common import sweep_manifest_outputs
    from repro.runtime.jobs import sweep_over_jobs

    sweep, totals = sweep_over_jobs(client, perforations=perforations)
    return _accuracy_table(sweep_manifest_outputs(sweep)), totals


def _check_golden(table: dict, golden: dict, what: str) -> None:
    if table != golden:
        raise SmokeFailure(
            f"{what} diverged from results/golden/accuracy_table.json: "
            f"served {json.dumps(table, sort_keys=True)} != golden "
            f"{json.dumps(golden, sort_keys=True)}"
        )


def _run_remote_client(url, env, golden, perforations, manifest_dir) -> None:
    """``repro table3 --remote URL`` exits 0, and its manifest holds the
    golden accuracy table, every cell read from the daemon's cache."""
    argv = ["table3", "--remote", url, "--models", "vgg13", "--perforations"]
    argv += [str(m) for m in perforations]
    print(f"serve-smoke: `repro {' '.join(argv)}` ...")
    result = subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        cwd=REPO_ROOT,
        env={**env, "REPRO_MANIFEST_DIR": manifest_dir},
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        timeout=BOOT_TIMEOUT_S,
    )
    if result.returncode != 0:
        tail = "\n".join(result.stdout.splitlines()[-15:])
        raise SmokeFailure(f"`repro table3 --remote` exited {result.returncode}:\n{tail}")
    path = os.path.join(manifest_dir, "table3-remote.json")
    with open(path, "r", encoding="utf-8") as handle:
        outputs = json.load(handle)["outputs"]
    _check_golden(_accuracy_table(outputs), golden, "`repro table3 --remote` manifest")
    jobs = outputs["jobs"]
    if jobs["cache_hits"] != jobs["cells"]:
        raise SmokeFailure(
            "`repro table3 --remote` was not fully served from cache: "
            f"{jobs['cache_hits']}/{jobs['cells']} hits"
        )


def _cold_leg(env, persist_dir, manifest_dir, golden, perforations, shm_before) -> None:
    daemon, url = _boot(env, persist_dir, "cold")
    try:
        client = _recording_client(url)
        health = client.healthz()
        if health.get("status") != "ok" or health.get("models") != 1:
            raise SmokeFailure(f"unexpected /healthz payload: {health}")
        print(f"serve-smoke: daemon healthy at {url}")

        # 1st sweep over HTTP: byte-exact against the committed golden.
        table, totals = _served_accuracy_table(client, perforations)
        _check_golden(table, golden, "served sweep")
        print(
            f"serve-smoke: served sweep matches the golden accuracy table "
            f"({totals['cells']} cells, {totals['cache_misses']} evaluated)"
        )

        # 2nd identical sweep: every cell must come from the result cache,
        # and every job must be answered by its POST reply.
        client.post_states.clear()
        table_again, totals_again = _served_accuracy_table(client, perforations)
        _check_golden(table_again, golden, "cached resubmission")
        if totals_again["cache_hits"] != totals_again["cells"]:
            raise SmokeFailure(
                "duplicate sweep was not fully served from cache: "
                f"{totals_again['cache_hits']}/{totals_again['cells']} hits"
            )
        if client.post_states != ["done"] * totals_again["jobs"]:
            raise SmokeFailure(
                "a POST /jobs reply of the fully cached sweep was not done: "
                f"{client.post_states}"
            )
        stats = client.stats()
        if stats["cache"]["hits"] < totals_again["cells"]:
            raise SmokeFailure(
                f"/stats records {stats['cache']['hits']} cache hits, expected "
                f"at least {totals_again['cells']}"
            )
        print(
            f"serve-smoke: duplicate submission fully cached "
            f"({totals_again['cache_hits']}/{totals_again['cells']} hits, "
            f"{len(client.post_states)} POST replies done, "
            f"/stats hit ratio {stats['cache']['hit_ratio']:.2f})"
        )

        _run_remote_client(url, env, golden, perforations, manifest_dir)
        print(
            "serve-smoke: the table3 --remote manifest matches the golden "
            "accuracy table, every cell from cache"
        )

        _shutdown(daemon, "cold", shm_before)
        print("serve-smoke: clean shutdown, no leaked shared memory")
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait(timeout=10)


def _warm_leg(env, persist_dir, golden, perforations, shm_before) -> None:
    from repro.runtime.jobs import HttpJobClient

    daemon, url = _boot(env, persist_dir, "warm")
    try:
        client = HttpJobClient(url)
        loaded = client.stats()["cache"].get("loaded", 0)
        if loaded <= 0:
            raise SmokeFailure(f"restarted daemon loaded nothing from {persist_dir}")
        table, totals = _served_accuracy_table(client, perforations)
        _check_golden(table, golden, "warm-restarted sweep")
        if totals["cache_misses"] != 0:
            raise SmokeFailure(
                f"warm restart re-evaluated {totals['cache_misses']} cells — "
                "the persisted cache did not carry them"
            )
        _shutdown(daemon, "warm", shm_before)
        print(
            f"serve-smoke: warm restart loaded {loaded} cells and served "
            f"{totals['cache_hits']}/{totals['cells']} from the persisted cache"
        )
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait(timeout=10)


def main() -> int:
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
    from repro.provenance.workload import PERFORATIONS

    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    env["PYTHONUNBUFFERED"] = "1"
    shm_before = _shm_entries()
    try:
        if not os.path.exists(GOLDEN_TABLE):
            raise SmokeFailure(f"{GOLDEN_TABLE} missing — run `make bench-refresh` first")
        with open(GOLDEN_TABLE, "r", encoding="utf-8") as handle:
            golden = json.load(handle)
        with tempfile.TemporaryDirectory(prefix="serve-smoke-") as scratch:
            persist_dir = os.path.join(scratch, "result-cache")
            _cold_leg(env, persist_dir, scratch, golden, PERFORATIONS, shm_before)
            _warm_leg(env, persist_dir, golden, PERFORATIONS, shm_before)
    except SmokeFailure as failure:
        print(f"serve-smoke: FAIL — {failure}", file=sys.stderr)
        return 1
    print("serve-smoke: PASS")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
