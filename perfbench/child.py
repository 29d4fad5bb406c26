"""Child processes of the benchmark.

``child.py setup WORKLOAD SEED TMPDIR`` performs one workload set-up in a
fresh interpreter; the parent times it from launch to exit as a ``setup_s``
sample.  ``child.py cli ARGS...`` runs ``rasch ARGS...`` like the installed
console script does, and writes one line to stderr with the seconds spent in
the estimator and inference calls and the number of converged and
unconverged solves (see `jobs.probed_cli`).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _setup(name: str, seed: str, tmp: str) -> int:
    import jobs

    jobs.setup(jobs.WORKLOADS[name], int(seed), Path(tmp))
    return 0


def _cli(argv) -> int:
    import jobs

    code, probe = jobs.probed_cli(argv)
    sys.stdout.flush()
    print(jobs.CHILD_MARKER + json.dumps(probe), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    mode, *rest = sys.argv[1:]
    sys.exit(_setup(*rest) if mode == "setup" else _cli(rest))
