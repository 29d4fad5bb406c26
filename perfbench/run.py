"""Benchmark of the rasch library: seeded workloads timed end to end, and a
traced run that splits the time by layer.

    python3 perfbench/run.py --workload mrp-sparse --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0`` and the per-layer metrics with ``--trace 1``.  The lines before
it repeat the figures for a reader.  See README.md in this directory for the
workloads, the metrics and what each layer metric should move.
"""

from __future__ import annotations

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

if __name__ == "__main__":
    if not (SRC / "rasch" / "__init__.py").is_file():
        sys.exit(f"perfbench: no library sources at {SRC / 'rasch'}")
    sys.path.insert(0, str(SRC))
    import bench

    sys.exit(bench.main())
