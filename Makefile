PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test perfbench-tests bench bench-smoke bench-regression bench-baseline bench-scaling bench-parallel bench-serving bench-columnar bench-transport determinism ci

test:
	$(PYTHON) -m pytest -x -q

# The repository benchmark's own tests (toy workload sizes, ~15 s);
# tier-1's testpaths do not collect them.
perfbench-tests:
	$(PYTHON) -m pytest perfbench/tests -q

# The golden-digest determinism matrix alone (part of `test`): every
# seeded scenario, under every knob cell, reproduces committed sha256s.
determinism:
	$(PYTHON) -m pytest tests/integration/test_determinism.py -q

bench:
	$(PYTHON) -m pytest benchmarks -q --benchmark-only

# One untimed repetition of every bench suite plus a single pass over
# the tracked regression kernels; finishes in under a minute.
bench-smoke:
	$(PYTHON) -m benchmarks.regression --smoke

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
# hosts), plus the shard-balance tier — equal vs cost-weighted plans
# with the weighted whole-run imbalance gated <=1.25x at 100k and a
# steal-on/steal-off wall-clock pair.  Writes BENCH_PR9.json.
bench-parallel:
	$(PYTHON) -m benchmarks.scaling --parallel-only

# Columnar smoke gate: 10k-tier columnar-vs-object kernels with exact
# equivalence asserts (bitwise balances/nonces/spends), the columnar
# load run byte-identical to the object-backed run on metrics, and the
# bytes/agent ceiling.  The full 1M tier lives in the scaling suite:
#   python -m benchmarks.scaling --smoke --million
bench-columnar:
	$(PYTHON) -m benchmarks.scaling --columnar-only

# Transport tier only: per-epoch ship bytes and wall clock for pickle
# vs shm vs shm-full at the gate tier, with the >=10x ship-bytes
# reduction gate.  Writes BENCH_PR10.json.
bench-transport:
	$(PYTHON) -m benchmarks.scaling --transport-only

# Population-scale gate (smoke: 1k/10k tiers, <90s): indexed mempool
# selection, warm reputation writes, vectorized cascade rounds, and
# batch abuse classification must beat the naive references >=3x at the
# 10k tier (the cascade/classifier kernels must also match the scalar
# engines byte-for-byte on the same seed); the quantile sketch must stay
# within its documented rank-error tolerance; each load tier — now
# including the moderation and privacy-budget phases — must replay
# byte-identically.  Full suite (adds the 100k tier):
#   python -m benchmarks.scaling
bench-scaling:
	$(PYTHON) -m benchmarks.scaling --smoke

# Everything a merge must pass, in one target.  `test` runs the
# determinism matrix; bench-scaling's smoke mode includes the workers
# tier (10k agents, workers={2,4} equivalence asserts) and the
# shard-balance tier (equal vs weighted plans, steal on/off
# equivalence); bench-columnar pins the columnar/object
# byte-equivalence contract; perfbench-tests runs the repository
# benchmark's own tests.
ci: test perfbench-tests bench-smoke bench-scaling bench-columnar
