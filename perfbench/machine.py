"""Print the machine block that goes with the benchmark's figures.

    python3 perfbench/machine.py > perfbench/machine.json

It records the processor, core count, Python, numpy and BLAS versions, the
BLAS thread count, the L3 size, each workload's working set, the median of
`bench.speed_sample` and the line count of ``src/``.  The working set is
computed, not measured in the cache: it is the tracemalloc peak of bytes
allocated during one job on input 0 of seed 0, plus the arrays of that input
when set-up built them.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import statistics
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, or None."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line and "/" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def l3_bytes():
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        if (index / "level").read_text().strip() == "3":
            size = (index / "size").read_text().strip()
            scale = {"K": 1024, "M": 1024 ** 2}.get(size[-1], 1)
            return int(size.rstrip("KM")) * scale
    return None


def cpu_model():
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor()


def working_sets() -> dict:
    import jobs

    out = {}
    for name, workload in jobs.WORKLOADS.items():
        with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
            item = jobs.setup(workload, 0, Path(tmp), in_process=True).pool[0]
            tracemalloc.start()
            workload.run(item, in_process=True)
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
        if item.csv is None:  # the job reads a dataset built before it started
            peak += sum(v.nbytes for v in vars(item.data).values() if isinstance(v, np.ndarray))
        out[name] = peak
    return out


def main() -> int:
    sys.path.insert(0, str(SRC))
    import bench

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    block = {
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "l3_bytes": l3_bytes(),
        "working_set_bytes_computed": working_sets(),
        "working_set_note": "computed: tracemalloc peak of bytes allocated during one job "
                            "on input 0 of seed 0, plus the input's arrays built in set-up; "
                            "not a cache measurement",
        "speed_sample_median_s": statistics.median(bench.speed_sample() for _ in range(200)),
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
    }
    print(json.dumps(block, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
