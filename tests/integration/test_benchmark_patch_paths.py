"""Every name the repository benchmark wraps is defined where it is
looked up.

``perfbench`` wraps layer entry points by path (``SPANS``, ``TALLIES``
and each workload's ``segment_marks``), and its ``Patches.replace``
reads the attribute from ``vars()`` of its owner, so a name that moved
to another module or to a base class fails the benchmark's traced runs.
"""

import os
import sys

import pytest

BENCH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "perfbench",
)
if BENCH not in sys.path:
    sys.path.insert(0, BENCH)
from layers import resolve  # noqa: E402
from spec import SPANS, TALLIES, WORKLOADS  # noqa: E402

PATHS = sorted(
    {path for path, _ in SPANS}
    | {path for path, _, _ in TALLIES}
    | {path for workload in WORKLOADS.values() for path in workload.segment_marks}
)


@pytest.mark.parametrize("path", PATHS)
def test_defined_on_its_owner(path):
    owner, attr = resolve(path)
    assert attr in vars(owner), f"{path}: {attr!r} is not defined on {owner!r}"
