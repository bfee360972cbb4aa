"""Import every ``repro.*`` module alone, each in a fresh interpreter.

An import cycle only breaks when a module on it is the first one
imported, so one import of the package shows nothing about the others.
Run from the repository root with ``make import-check`` (or
``PYTHONPATH=src python -m tests.import_check``).  It stops at the first
module that fails to import, prints the error and exits 1.  Each module
costs one interpreter start, so the sweep is too slow for tier-1.
"""

import os
import pkgutil
import subprocess
import sys
from pathlib import Path
from typing import List

import repro


def module_names() -> List[str]:
    """``repro`` and every module and package below it, sorted."""
    found = pkgutil.walk_packages(repro.__path__, prefix="repro.")
    return sorted(["repro", *(info.name for info in found)])


def main() -> int:
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    )
    names = module_names()
    for name in names:
        result = subprocess.run(
            [sys.executable, "-c", f"import {name}"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        if result.returncode != 0:
            print(f"import {name} failed:\n{result.stderr}", file=sys.stderr)
            return 1
    print(f"import-check: {len(names)} modules import on their own")
    return 0


if __name__ == "__main__":
    sys.exit(main())
