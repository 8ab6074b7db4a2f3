# Convenience targets for the CrowdSky reproduction.

.PHONY: install test test-robustness test-obs test-pref test-perf-core test-perfbench test-perf-obs test-sweep test-analysis test-sanitize test-recovery test-sharded regen-golden bench bench-ci bench-trajectory bench-baseline bench-scale bench-crowd-scale experiments experiments-paper examples trace-demo report-demo lint lint-baseline

# Suite for bench-trajectory (smoke | ci | paper | scale).
BENCH_SUITE ?= ci

# Shard counts exercised by test-sharded (space-separated; empty =
# the suite's default {1 2 4 7} — the CI matrix pins one per job).
REPRO_TEST_SHARDS ?=

# Seeds swept by the fault-injection suite (space-separated, override
# with `make test-robustness REPRO_FAULT_SEEDS="0 1 2 3 4 5"`).
REPRO_FAULT_SEEDS ?= 0 1 2 7 42

install:
	pip install -e '.[dev]'

test:
	pytest tests/

test-robustness:
	REPRO_FAULT_SEEDS="$(REPRO_FAULT_SEEDS)" pytest tests/test_faults.py -m faults -q

test-obs:
	pytest tests/test_obs.py -m obs -q

# Preference-closure suite: the numpy-vs-reference graph differential,
# golden counts, coverage floor and the perf smoke.
test-pref:
	pytest -m pref -q

# Closure checksums (numpy vs reference), numpy closure work pinned to
# the committed crowd-scale record and to hand-counted tie merges, and
# the dominance-kernel perf smoke.
test-perf-core:
	pytest tests/test_perf_core.py -m perf -q

# Self-tests of the query benchmark (perfbench/, BENCHMARK.json) on
# tiny relations of every workload: counts repeat, self times partition
# the traced wall time, each layer shows up only on the workloads that
# use it, and the metric names match BENCHMARK.json.
test-perfbench:
	python3 -m pytest perfbench -q

# Pin the <2% disabled-observability overhead claim and the profiler/
# cost-report exactness properties (docs/profiling.md).
test-perf-obs:
	pytest tests/test_perf_obs.py -m perf -q
	pytest tests/test_report.py -m obs -q

# Sweep engine: parallel/serial differential, result cache, obs merging.
test-sweep:
	pytest tests/test_sweep.py -m sweep -q

# Invariant-linter suite: rule fixtures (module-local and
# interprocedural), call-graph builder, suppression/baseline
# round-trip, result cache, sanitizer units, JSON schema, self-clean
# gate, Hypothesis crash-safety.
test-analysis:
	pytest tests/test_analysis.py tests/test_callgraph.py tests/test_cache.py tests/test_sanitize.py -m analysis -q

# Runtime determinism sanitizer gate: the crash-recovery differential
# and the preference-closure differential re-run with every test
# wrapped in the sanitizer (--repro-sanitize); any wall-clock read,
# global-RNG use or os.urandom call on a result path fails the test
# with a stack pointing at the offending line (docs/static-analysis.md).
test-sanitize:
	pytest tests/test_journal.py tests/test_recovery.py -m recovery -q --repro-sanitize
	pytest tests/test_preference_differential.py -q --repro-sanitize

# Journal durability: corruption matrix + the crash-injection
# differential harness (resume is byte-identical at every write point).
test-recovery:
	pytest tests/test_journal.py tests/test_recovery.py -m recovery -q

# Sharded-vs-serial differential harness: the sharded skyline mask
# equals the serial one across shard counts, partitioners and the
# process pool, plus merge-cost invariants (docs/sharding.md).
test-sharded:
	REPRO_TEST_SHARDS="$(REPRO_TEST_SHARDS)" pytest tests/test_sharded.py -m shard -q

# Static invariant gate: determinism, layering, obs-schema,
# cache-purity and exception hygiene over src/, modulo the committed
# baseline (docs/static-analysis.md). Fails on any new finding.
lint:
	PYTHONPATH=src python -m repro.analysis check src --baseline analysis-baseline.json

# Regenerate analysis-baseline.json after an intentional grandfathering
# change — then write a rationale into every new entry and commit.
lint-baseline:
	PYTHONPATH=src python -m repro.analysis baseline src --baseline analysis-baseline.json --write

# Refresh tests/fixtures/golden_counts.json after an intentional
# behaviour change (then commit the diff).
regen-golden:
	PYTHONPATH=src python -m tests.regen_golden

bench:
	pytest benchmarks/ --benchmark-only

bench-ci:
	pytest benchmarks/ --benchmark-only --repro-scale ci

# Run the pinned benchmark suite (BENCH_SUITE=smoke|ci|paper,
# default ci: closure n=512, fig6a cold/warm, crowdsky n=1000), append
# a fingerprinted record to BENCH_trajectory.json and gate it against
# benchmarks/baselines/bench_trajectory.json (docs/profiling.md).
bench-trajectory:
	python -m repro.experiments bench --suite $(BENCH_SUITE) --check

# Refresh the committed bench baselines after an intentional
# performance change (re-records smoke + ci), then commit the diff.
bench-baseline:
	PYTHONPATH=src python benchmarks/record_bench_baseline.py

# Refresh only the scale-suite baseline (the sharded machine-phase
# n=10k/100k/1M curve; minutes per repeat), then commit the diff.
bench-scale:
	PYTHONPATH=src python benchmarks/record_bench_baseline.py scale

# Refresh only the crowd-scale baseline (serial CrowdSky at
# n=1k..20k and the closure-update counts that tests/test_perf_core.py
# pins), then commit the diff.
bench-crowd-scale:
	PYTHONPATH=src python benchmarks/record_bench_baseline.py crowd-scale

experiments:
	python -m repro.experiments run all --scale ci

experiments-paper:
	python -m repro.experiments run all --scale paper

# Run every example script; stop at the first one that exits non-zero.
examples:
	@for f in examples/*.py; do echo "== $$f"; python $$f || exit 1; echo; done

# Record a small traced IND run, then validate the JSONL trace against
# the event schema (an unregistered event name fails it) and check that
# the metrics dump holds exactly the metrics the trace folds to. Then
# the same across two worker processes, whose events the parent absorbs,
# and for the parallel schedulers (fig8 runs ParallelDSet and
# ParallelSL).
trace-demo:
	python -m repro.experiments run fig6a --scale smoke --no-cache \
		--trace trace-demo.jsonl --metrics trace-demo.prom
	python -m repro.experiments trace validate trace-demo.jsonl \
		--metrics trace-demo.prom
	python -m repro.experiments trace summarize trace-demo.jsonl
	python -m repro.experiments run fig6a --scale smoke --no-cache \
		--jobs 2 --trace trace-demo-jobs2.jsonl --metrics trace-demo-jobs2.prom
	python -m repro.experiments trace validate trace-demo-jobs2.jsonl \
		--metrics trace-demo-jobs2.prom
	python -m repro.experiments run fig8 --scale smoke --no-cache \
		--trace trace-demo-fig8.jsonl --metrics trace-demo-fig8.prom
	python -m repro.experiments trace validate trace-demo-fig8.jsonl \
		--metrics trace-demo-fig8.prom

# Record a traced run into a scratch directory and assemble the
# RunReport artifact (report.json + report.md) from its trace alone.
report-demo:
	mkdir -p report-demo
	python -m repro.experiments run fig6a --scale smoke --no-cache \
		--trace report-demo/trace.jsonl
	python -m repro.experiments report report-demo
	@echo "see report-demo/report.md"
