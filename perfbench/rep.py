"""One repetition of one workload in this (fresh) interpreter.

Usage: python3 perfbench/rep.py <workload> <seed> <traced 0|1>

Prints the repetition's record (see :func:`spec.run_rep`) as one JSON line.
``run.py`` starts one of these per repetition, so no repetition runs in a
process that an earlier one has warmed: the program keeps process-wide
caches (the agent address table, shard graphs) that would otherwise skip
set-up work.
"""

import json
import os
import sys

from spec import WORKLOADS, run_rep


def main() -> None:
    name, seed, traced = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
    record = run_rep(WORKLOADS[name], seed, traced)
    sys.stdout.write(json.dumps(record) + "\n")
    sys.stdout.flush()
    # Skip interpreter teardown (freeing a million-agent society takes
    # seconds); the record is already written.
    os._exit(0)


if __name__ == "__main__":
    main()
