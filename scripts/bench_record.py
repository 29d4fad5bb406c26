"""Write a ``BENCH_<PR>.json``: the benchmark and tier-1 tests of a parent
checkout and a changed checkout, side by side.

    python3 scripts/bench_record.py PARENT_DIR CHANGE_DIR --out BENCH_<N>.json

Both directories are complete checkouts.  For every workload in the change's
``BENCHMARK.json`` it runs ``perfbench/run.py --trace 0`` in ``PAIRS`` pairs
with the fixed seeds 1..``PAIRS``, alternating which side runs first, and
keeps the final JSON line of each run, with the ``infer_s = ... s`` line it
prints as ``infer_s`` (null on a workload without an inference step).  Per
workload it records the median of every metric and of ``infer_s`` and, for
each end-to-end metric and ``infer_s`` (lower is better), how many of the
pairs each side won in the direction of that metric's ``better`` (ties count
for neither).  ``infer_s`` is not gated; it shows how a saving divides
between the fit and the inference of a job.  Under ``held_out`` it then runs
``HELD_OUT_PAIRS`` more alternating pairs on the seed ``HELD_OUT``, outside
1..``PAIRS``, and keeps their runs and medians.  It then counts the lines of
``src/rasch/*.py``, in total and by kind (code, docstring, comment and
blank lines), runs the tier-1 suite and the benchmark's own tests
(``perfbench/tests``) once on each side, and records the hash that the
change's ``scripts/fingerprint.py`` prints against each side's ``src/``:
equal hashes mean the same numbers.  Under
``acceptance`` it keeps the paper scorecard of each side's tier-1 run: the
``[criterion N] PASS|FAIL <detail>`` line each acceptance test prints, by
criterion.  Under ``blas_idle`` it keeps, per side, the CPU and wall time
(``cpu_s``, ``wall_s``) of ``BLAS_ROUNDS`` rounds of ``wp_mle``,
``plugin_covariance`` and ``pmle`` on one input (n = 1e4, m = 50, p = 0.1,
seed 1) in a fresh interpreter: the CPU time from just before the rounds to
0.3 s after them, the wall time of the rounds alone, after 0.3 s idle, and
the CPU time of the 0.3 s after the rounds alone (``idle_cpu_s``).  A
product that wakes OpenBLAS's worker thread leaves it spinning on a second
core after the call, which shows as ``idle_cpu_s`` above 0; ``cpu_s`` above
``wall_s`` shows it too, unless the rounds themselves use two threads,
as their indicator-block products do on this input.  No workload runs
``wp`` at m = 50, so the benchmark itself cannot show it.  Runs are
sequential, so the two sides never share the processor.
It also records how many CPUs the runs could use (``usable_cpus``): a fit
with enough work computes its splits on two threads when two are usable, so
its timings depend on that count.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import os
import re
import statistics
import subprocess
import sys
import time
import tokenize
from pathlib import Path

SIDES = ("parent", "change")
PAIRS = 10  # alternating pairs per workload, enough to read a comparison
HELD_OUT, HELD_OUT_PAIRS = 101, 3  # a seed no claim was tuned on
SCORECARD = re.compile(r"^\[criterion ([^\]]+)\] (PASS|FAIL) (.*)$", re.MULTILINE)
INFER = re.compile(r"^\s*infer_s = (\S+) s", re.MULTILINE)
BLAS_ROUNDS = 20
BLAS_IDLE = f"""
import json, resource, time
import rasch

def cpu_s():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime

data = rasch.sample_responses(rasch.sample_ground_truth(10_000, 50, "standard-normal", seed=1),
                              0.1, seed=1)
time.sleep(0.3)
cpu, start = cpu_s(), time.perf_counter()
for _ in range({BLAS_ROUNDS}):
    rasch.plugin_covariance(data, rasch.wp_mle(data))
    rasch.pmle(data)
wall = time.perf_counter() - start
busy = cpu_s()
time.sleep(0.3)
end = cpu_s()
print(json.dumps({{"cpu_s": round(end - cpu, 4), "wall_s": round(wall, 4),
                  "idle_cpu_s": round(end - busy, 4)}}))
"""


def run_workload(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} failed:\n{proc.stderr}")
    infer = INFER.search(proc.stdout)
    return json.loads(lines[-1]) | {"infer_s": float(infer.group(1)) if infer else None}


def pytest_run(checkout: Path, *paths: str) -> tuple[dict, str]:
    """Wall time and passed/failed counts of one pytest run in ``checkout``,
    and its output, which shows what passing tests printed too (``-rP``)."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    cmd = [sys.executable, "-m", "pytest", "-q", "-rP", "--continue-on-collection-errors",
           "-p", "no:cacheprovider", *paths]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    summary = proc.stdout.strip().splitlines()[-1]
    counts = {key: int(num) for num, key in re.findall(r"(\d+) (passed|failed|error)", summary)}
    return {"wall_s": round(wall, 1), "passed": counts.get("passed", 0),
            "failed": counts.get("failed", 0) + counts.get("error", 0),
            "summary": summary}, proc.stdout


def scorecard(output: str) -> dict:
    """``{criterion: {"status": "PASS"|"FAIL", "detail": ...}}`` from the
    ``[criterion N] PASS|FAIL <detail>`` lines of a pytest run's output."""
    return {name: {"status": status, "detail": detail}
            for name, status, detail in SCORECARD.findall(output)}


def fingerprint(script: Path, checkout: Path) -> str:
    """What ``script`` prints when ``rasch`` is imported from ``checkout/src``."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    proc = subprocess.run([sys.executable, str(script)], cwd=checkout, env=env,
                          capture_output=True, text=True, check=True)
    return proc.stdout.strip()


def blas_idle(checkout: Path) -> dict:
    """CPU and wall time of the ``BLAS_IDLE`` rounds, with ``rasch`` from ``checkout/src``."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    proc = subprocess.run([sys.executable, "-c", BLAS_IDLE], cwd=checkout, env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def src_lines(checkout: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in (checkout / "src" / "rasch").glob("*.py"))


def src_line_kinds(checkout: Path) -> dict:
    """Lines of ``src/rasch/*.py`` by kind; the four sum to `src_lines`.

    ``blank``: whitespace-only lines, inside strings too.  ``docstring``:
    the other lines of module, class and function docstrings (``ast``).
    ``code``: the other lines that hold a token other than a comment
    (``tokenize``), so a line of code with a trailing comment is code.
    ``comment``: lines that hold a comment and nothing else.
    """
    kinds = dict.fromkeys(("code", "docstring", "comment", "blank"), 0)
    layout = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
              tokenize.DEDENT, tokenize.ENDMARKER}
    for path in (checkout / "src" / "rasch").glob("*.py"):
        text = path.read_text()
        lines = text.splitlines()
        blank = {n for n, line in enumerate(lines, start=1) if not line.strip()}
        doc, code, comment = set(), set(), set()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                first = node.body[0] if node.body else None
                if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                        and isinstance(first.value.value, str)):
                    doc.update(range(first.lineno, first.end_lineno + 1))
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.type == tokenize.COMMENT:
                comment.add(tok.start[0])
            elif tok.type not in layout:
                code.update(range(tok.start[0], tok.end[0] + 1))
        doc -= blank
        code -= blank | doc
        comment -= code | doc
        for kind, found in (("code", code), ("docstring", doc), ("comment", comment), ("blank", blank)):
            kinds[kind] += len(found)
    return kinds


def value(run: dict, name: str) -> float | None:
    return run["infer_s"] if name == "infer_s" else run["metrics"][name]["value"]


def medians(runs: list[dict]) -> dict:
    """Median of every metric and of ``infer_s`` (None where a run lacks it)."""
    out = {}
    for name in [*runs[0]["metrics"], "infer_s"]:
        values = [value(r, name) for r in runs]
        out[name] = None if None in values else statistics.median(values)
    return out


def pair_wins(runs: dict, better: dict) -> dict:
    """Pairs won by each side, per metric of ``better`` (name -> "lower"/"higher")."""
    out = {}
    for name, direction in better.items():
        sign = 1 if direction == "lower" else -1
        won = dict.fromkeys(SIDES, 0)
        for parent, change in zip(runs["parent"], runs["change"]):
            diff = sign * (value(change, name) - value(parent, name))
            if diff:
                won["change" if diff < 0 else "parent"] += 1
        out[name] = won
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    dirs = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((dirs["change"] / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    better = {metric["name"]: metric["better"] for metric in spec["end_to_end"]}
    workloads = {}

    def alternating(w: str, seeds) -> dict:
        """Runs of ``w`` on each side, one pair per seed, alternating which runs first."""
        runs = {side: [] for side in SIDES}
        for n, seed in enumerate(seeds, start=1):
            order = SIDES if n % 2 else SIDES[::-1]
            for side in order:
                runs[side].append({"seed": seed, "first": side == order[0]}
                                  | run_workload(dirs[side], w, seed, seconds))
                print(w, seed, side, "done", file=sys.stderr, flush=True)
        return runs

    for w in (item["name"] for item in spec["workloads"]):
        runs = alternating(w, range(1, PAIRS + 1))
        timed = all(run["infer_s"] is not None for side in SIDES for run in runs[side])
        wins = pair_wins(runs, better | ({"infer_s": "lower"} if timed else {}))
        held = alternating(w, [HELD_OUT] * HELD_OUT_PAIRS)
        workloads[w] = runs | {"median": {side: medians(runs[side]) for side in SIDES},
                               "pair_wins": wins,
                               "held_out": held | {"median": {side: medians(held[side])
                                                              for side in SIDES}}}
    tier1 = {side: pytest_run(d) for side, d in dirs.items()}
    record = {
        "command": f"perfbench/run.py --workload W --seed S --seconds {seconds} --trace 0",
        "pairs": PAIRS,
        "usable_cpus": len(os.sched_getaffinity(0)),
        "workloads": workloads,
        "blas_idle": {side: blas_idle(d) for side, d in dirs.items()},
        "src_lines": {side: src_lines(d) for side, d in dirs.items()},
        "src_line_kinds": {side: src_line_kinds(d) for side, d in dirs.items()},
        "tier1": {side: counts for side, (counts, _) in tier1.items()},
        "acceptance": {side: scorecard(output) for side, (_, output) in tier1.items()},
        "perfbench_tests": {side: pytest_run(d, "perfbench/tests")[0] for side, d in dirs.items()},
        "fingerprint": {side: fingerprint(dirs["change"] / "scripts" / "fingerprint.py", d)
                        for side, d in dirs.items()},
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
