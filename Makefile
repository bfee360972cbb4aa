PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test perfbench-tests import-check bench bench-smoke bench-regression bench-baseline bench-scaling bench-parallel bench-serving determinism ci

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
# the 12 tracked kernels (the layers no perfbench workload or ratio gate
# runs; 3x smoke threshold) and the observability-overhead gate;
# finishes in under a minute.  Like every harness below, it writes its
# report into the untracked .bench_build/.
bench-smoke:
	$(PYTHON) -m benchmarks.regression --smoke

# Full kernel gate: 3 reps of each of the 12 tracked kernels, compared
# against benchmarks/baseline.json, fails on >25% regression; then the
# observability-overhead gate.
bench-regression:
	$(PYTHON) -m benchmarks.regression

bench-baseline:
	$(PYTHON) -m benchmarks.regression --update-baseline

# Serving latency/saturation sweep: open-loop arrival rates vs p50/p99
# and the saturation knee, all in simulated time, one run per rate
# point (the determinism matrix pins serving runs).  Full sweep:
#   python -m benchmarks.serving
bench-serving:
	$(PYTHON) -m benchmarks.serving --smoke

# Sharded-execution wall-clock tiers at 100k agents: serial vs
# workers={2,4} with byte-equal metrics asserted and >=2x speedup gated
# where >=4 usable cores exist (recorded but skipped on smaller hosts),
# plus the shard-balance tier — the cost-weighted plan's whole-run
# imbalance gated <=1.25x.
bench-parallel:
	$(PYTHON) -m benchmarks.scaling --parallel-only

# Ratio gates at 10k agents (smoke repetitions, ~20 s): indexed mempool
# selection, warm reputation writes, vectorized cascade rounds and
# batch abuse classification must beat their naive references >=3x,
# and the cascade and classifier kernels must match the scalar engines
# on the same seed.  Full suite (adds the workers and balance tiers):
#   python -m benchmarks.scaling
bench-scaling:
	$(PYTHON) -m benchmarks.scaling --smoke

# Everything a merge must pass, in one target.  `test` runs the
# determinism matrix; perfbench-tests runs the repository benchmark's
# own tests; import-check imports every module alone; bench-smoke runs
# the kernel table and the observability-overhead gate; bench-scaling
# runs the ratio gates.
ci: test perfbench-tests import-check bench-smoke bench-scaling
