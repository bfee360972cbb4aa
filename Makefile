PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test perfbench-tests import-check bench bench-smoke bench-regression bench-baseline bench-scaling bench-parallel bench-serving bench-columnar determinism ci

test:
	$(PYTHON) -m pytest -x -q

# The repository benchmark's own tests (toy workload sizes, ~15 s);
# tier-1's testpaths do not collect them.
perfbench-tests:
	$(PYTHON) -m pytest perfbench/tests -q

# Import every repro.* module on its own, each in a fresh interpreter,
# and fail at the first error: an import cycle only breaks when a module
# on it is imported first.  One interpreter per module (~30 s), so it is
# not part of tier-1.
import-check:
	$(PYTHON) -m tests.import_check

# The golden-digest determinism matrix alone (part of `test`): every
# seeded scenario, under every knob cell, reproduces committed sha256s.
determinism:
	$(PYTHON) -m pytest tests/integration/test_determinism.py -q

bench:
	$(PYTHON) -m pytest benchmarks -q --benchmark-only

# One untimed repetition of every bench suite plus a single pass over
# the tracked regression kernels; finishes in under a minute.  Its
# report goes to the untracked .bench_build/, not over BENCH_PR1.json.
bench-smoke:
	mkdir -p .bench_build
	$(PYTHON) -m benchmarks.regression --smoke --output .bench_build/BENCH_PR1.json

# Full perf gate: 3 reps per tracked op, compares against
# benchmarks/baseline.json, fails on >25% regression.
bench-regression:
	$(PYTHON) -m benchmarks.regression

bench-baseline:
	$(PYTHON) -m benchmarks.regression --update-baseline

# Serving latency/saturation sweep: open-loop arrival rates vs p50/p99
# and the saturation knee, all in simulated time; writes BENCH_PR6.json
# and asserts a seeded replay is byte-identical.  Full sweep:
#   python -m benchmarks.serving
bench-serving:
	$(PYTHON) -m benchmarks.serving --smoke

# Sharded-execution wall-clock tiers only: serial vs workers={2,4} at
# the 100k tier with equivalence asserted and >=2x speedup gated where
# >=4 usable cores exist (loudly recorded-but-skipped on smaller
# hosts), plus the shard-balance tier — the cost-weighted plan's
# whole-run imbalance gated <=1.25x at 100k.  Writes BENCH_PR9.json.
bench-parallel:
	$(PYTHON) -m benchmarks.scaling --parallel-only

# Columnar smoke gate: 10k-tier columnar-vs-object kernels with exact
# equivalence asserts (bitwise balances/nonces/spends) and the
# bytes/agent ceiling.  The report goes to the untracked .bench_build/.
# The full 1M tier lives in the scaling suite:
#   python -m benchmarks.scaling --smoke --million
bench-columnar:
	mkdir -p .bench_build
	$(PYTHON) -m benchmarks.scaling --columnar-only --report .bench_build/BENCH_columnar.json

# Population-scale gate (smoke: 1k/10k tiers, <90s): indexed mempool
# selection, warm reputation writes, vectorized cascade rounds, and
# batch abuse classification must beat the naive references >=3x at the
# 10k tier (the cascade/classifier kernels must also match the scalar
# engines byte-for-byte on the same seed); the quantile sketch must stay
# within its documented rank-error tolerance; each load tier — now
# including the moderation and privacy-budget phases — must replay
# byte-identically.  The report goes to the untracked .bench_build/,
# not over BENCH_PR9.json.  Full suite (adds the 100k tier):
#   python -m benchmarks.scaling
bench-scaling:
	mkdir -p .bench_build
	$(PYTHON) -m benchmarks.scaling --smoke --report .bench_build/BENCH_scaling.json

# Everything a merge must pass, in one target.  `test` runs the
# determinism matrix; bench-scaling's smoke mode includes the workers
# tier (10k agents, workers={2,4} equivalence asserts) and the
# shard-balance tier; bench-columnar pins the columnar/object kernel
# equivalence contract; perfbench-tests runs the repository benchmark's
# own tests; import-check imports every module alone.
ci: test perfbench-tests import-check bench-smoke bench-scaling bench-columnar
