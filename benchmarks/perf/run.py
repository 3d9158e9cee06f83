#!/usr/bin/env python3
"""Entry point of the benchmark (see README.md in this directory).

Runs as ``python3 benchmarks/perf/run.py ...`` from the root of a checkout,
or as ``PYTHONPATH=src python -m benchmarks.perf.run ...``.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for entry in (ROOT, ROOT / "src"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

from benchmarks.perf.runner import main  # noqa: E402 - needs the path above

if __name__ == "__main__":
    sys.exit(main())
