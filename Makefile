# CI-style entry points.  `make check` is the gate a PR must pass: the
# tier-1 suite, the engine parity/throughput suite, the DSE search suite +
# benchmark, the DSE CLI smoke, the perfbench result digests, and the
# provenance regression gate
# (verify-results), which replays the deterministic golden workload and
# compares the freshly merged results/BENCH_engine.json against the
# checked-in baselines under results/golden/.  The perf-tracking benches
# merge their metrics into results/BENCH_engine.json so the perf trajectory
# is diffable across PRs.  Any unregistered-marker warning is promoted to an
# error (markers are registered once, in pyproject.toml).
#
# Intentional baseline changes: run `make bench-refresh` to rewrite
# results/golden/ from the current tree, review the diff, and commit it.
# `SKIP_REGRESSION=1 make check` skips only the verify-results gate.

PYTHON ?= python
PYTEST = PYTHONPATH=src $(PYTHON) -m pytest -W error::pytest.PytestUnknownMarkWarning

.PHONY: check tier1 engine dse dse-smoke runtime-smoke scheduler-unit serve-smoke perfbench-digests verify-results bench-refresh

# verify-results runs LAST so it judges the bench ledger the engine/dse/
# serve targets just rewrote, not a stale one.
check: tier1 engine dse runtime-smoke dse-smoke serve-smoke perfbench-digests verify-results

tier1:
	$(PYTEST) -x -q

# Engine suite: product-kernel parity through the one compile path
# (NumpyBackend), the float-glue, calibration and image-shard oracles, plus
# the engine-throughput bench.
engine:
	$(PYTEST) -q -m engine tests benchmarks/bench_engine_throughput.py

# DSE search suite plus its evaluations-to-front benchmark.
dse:
	$(PYTEST) -q -m dse tests benchmarks/bench_dse_search.py

# Scheduler unit subset: tests of the prefix-aware ordering (on untrained
# toy models) and its edge cases, the chunking contracts, the pool workers'
# image ranges and the sizing policy (core share of image-shard threads,
# BLAS pin) — runs in about a second, the first thing to reach for when
# touching the scheduler.
scheduler-unit:
	$(PYTEST) -q tests/test_runtime_scheduling.py

# Evaluation-runtime suite: scheduler units plus EvaluationService lifecycle
# and graceful shutdown (worker failure and SIGKILL injection),
# service-vs-serial bit-exact parity with the pool's image split (images
# not divisible by the workers, fewer images than workers), one BLAS
# thread per image-shard thread, parallel DSE campaigns.
runtime-smoke: scheduler-unit
	$(PYTEST) -q -m runtime tests

# End-to-end greedy and NSGA-II explorations through the CLI on the
# synthetic workload (< 60 s; the first leg trains a 1-epoch reference model
# on the first run, and the NSGA-II leg reuses it), then the Pareto example
# (examples/dse_pareto.py: trains its own small model, runs greedy and
# NSGA-II through run_campaign on one evaluator and a shared ledger in a
# temporary directory; ~8 s).  Hermetic: the model cache and the campaign
# ledger live under a repo-local scratch directory, not the user's global
# cache.
DSE_SMOKE_DIR ?= .dse-smoke
DSE_SMOKE_FLAGS = --classes 10 --epochs 1 --max-loss 0.5 --max-eval-images 64 \
  --seed 0 --cache-dir $(DSE_SMOKE_DIR) --ledger $(DSE_SMOKE_DIR)/ledger
dse-smoke:
	PYTHONPATH=src $(PYTHON) -m repro dse --strategy greedy --budget-evals 60 \
	  $(DSE_SMOKE_FLAGS)
	PYTHONPATH=src $(PYTHON) -m repro dse --strategy nsga2 --budget-evals 40 \
	  $(DSE_SMOKE_FLAGS)
	PYTHONPATH=src $(PYTHON) examples/dse_pareto.py

# HTTP job-daemon suite + end-to-end serve smoke.  The pytest leg runs the
# endpoint-contract/wire-input/served-parity/queue-admission/client-retry
# tests plus the serve-throughput bench (jobs/sec + cache-hit ratio merged into
# results/BENCH_engine.json); the script leg boots the real `repro serve
# --golden-workload --cache-persist` CLI on an ephemeral port, POSTs the
# golden sweep over HTTP, verifies it byte-exactly against
# results/golden/accuracy_table.json, asserts a duplicate submission is
# served from the result cache, runs `repro table3 --remote <url>` at the
# golden perforations and demands its manifest hold the golden table with
# every cell from cache, SIGTERMs into a clean shutdown with no leaked
# /dev/shm blocks, then warm-restarts a daemon on the persisted cache and
# demands a 0-miss golden sweep.
serve-smoke:
	$(PYTEST) -q -m serve tests benchmarks/bench_serve_throughput.py
	PYTHONPATH=src $(PYTHON) scripts/serve_smoke.py

# Result digests of the repo benchmark: one short seed-0 run of each
# perfbench workload (the first run in a checkout trains its model cache
# into .perfbench/), failing unless the run's result line reports
# "correct": true and "failed": 0.  Timings are not judged here.  The
# target first deletes the calibration records stored next to the trained
# models (and nothing else), so both ways of building an executor meet the
# same reference digests: the first table3 pass calibrates all six
# networks and stores their records, its later passes and the DSE passes
# (the same 128 calibration images) load them, and the first served_mixed
# pass calibrates on its own 64 images, which its later passes load.
PERFBENCH_WORKLOADS = table3 dse_greedy dse_greedy_pool served_mixed
PERFBENCH_CHECK = import json, sys; r = json.loads(sys.stdin.readlines()[-1]); \
  print(sys.argv[1], "correct:", r["correct"], "failed:", r["failed"]); \
  sys.exit(r["correct"] is not True or r["failed"] != 0)
perfbench-digests:
	rm -f .perfbench/models/*.calib-*.json
	@set -e; for w in $(PERFBENCH_WORKLOADS); do \
	  $(PYTHON) perfbench/run.py --workload $$w --seed 0 --seconds 1 --trace 0 \
	    | $(PYTHON) -c '$(PERFBENCH_CHECK)' $$w; \
	done

# Provenance regression gate: replay the deterministic golden workload and
# compare fresh results against results/golden/.  Honors SKIP_REGRESSION=1
# (skip entirely) and REPRO_REGRESSION_TOL (throughput tolerance band).
verify-results:
	PYTHONPATH=src $(PYTHON) -m repro verify-results

# Re-baseline: rewrite results/golden/ from the current tree (golden
# workload payloads + a canonicalized copy of results/BENCH_engine.json).
# Review the diff before committing.
bench-refresh:
	PYTHONPATH=src $(PYTHON) -m repro verify-results --refresh
