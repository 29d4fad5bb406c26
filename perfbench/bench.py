"""Measurement logic of the benchmark: timed phases, checks and metrics.

`run.py` is the entry point; it puts the library's ``src/`` on the import
path before importing this module.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

import jobs
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_SAMPLES = 3
SPEED_SAMPLES_PER_SETUP = 5
MIN_JOBS = 20  # enough for a tail percentile with ten samples beyond it
TAIL_BEYOND = 10

# Seconds `speed_sample` takes at the speed the timed figures are quoted at:
# its median in one sitting on the reference machine.  The host drifts, so
# machine.json holds a somewhat different later reading.
REFERENCE_SPEED_S = 0.025


def speed_sample() -> float:
    """Seconds for a fixed computation that uses no library code.

    The shared host's speed drifts by a third from one minute to the next,
    and the drift slows this computation and the jobs alike.  A run takes a
    sample before every job and before every set-up, and scales its timed
    figures by ``REFERENCE_SPEED_S / median(samples)``.  The figures then
    read as seconds at the reference speed, and runs made at different
    moments stay comparable.  A change to the library cannot move the samples.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(12345)
    keys = rng.random(50_000)
    for _ in range(3):
        np.bincount(np.argsort(keys, kind="stable")[:5000] % 50, minlength=50)
    a = rng.random((50, 50))
    a = a @ a.T + 50.0 * np.eye(50)
    b = rng.random(50)
    for _ in range(80):
        b = np.linalg.solve(a, b) * 50.0
    total = 0
    for i in range(15_000):
        total += i * i
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# Timed phase
# ---------------------------------------------------------------------------

def run_job(workload, item, in_process: bool = False):
    """Time one job; a job that raises is recorded as failed and the run goes on."""
    t0 = time.perf_counter()
    try:
        out = workload.run(item, in_process)
    except Exception as exc:
        out = jobs.Outcome(error=f"raised {type(exc).__name__}")
    return time.perf_counter() - t0, out


def loop(pool_size: int, step, seconds: float, min_steps: int) -> float:
    """Call ``step`` with pool indices in order, wrapping around, until
    ``seconds`` have passed and at least ``min_steps`` steps are done.
    Returns the wall seconds of the loop."""
    start = time.perf_counter()
    k = 0
    while k < min_steps or time.perf_counter() - start < seconds:
        step(k % pool_size)
        k += 1
    return time.perf_counter() - start


def check(state, done) -> tuple[list, list]:
    """Per-job failure reasons and broken invariants, for the jobs in ``done``.

    A replayed input must reproduce the first result for it byte for byte,
    and input 0 must reproduce the warm-up job of set-up.
    """
    reasons = [jobs.failure(state.pool[k], out) for k, _, out in done]
    broken = []
    first = {0: state.warmup.fingerprint}
    for k, _, out in done:
        if out.error is not None:
            continue
        if first.setdefault(k, out.fingerprint) != out.fingerprint:
            broken.append(f"replay of input {k} is not byte-identical")
            break
    return reasons, broken


def unconverged_note(done) -> str:
    """The printed count of jobs with an unconverged solve (see `jobs.failure`)."""
    n_jobs, n_solves = jobs.unconverged_jobs(done)
    return (f"unconverged: {n_jobs}/{len(done)} jobs had a converged=False solve "
            f"({n_solves} solves); not counted as failed")


def tail(times):
    """Highest percentile with at least TAIL_BEYOND samples above it: (value, percentile)."""
    ordered = sorted(times)
    n = len(ordered)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def rmse(state, done) -> float:
    """Pooled RMSE over every estimate of the first run of each pool input."""
    seen, sq = set(), []
    for k, _, out in done:
        if k in seen or out.error is not None:
            continue
        seen.add(k)
        sq += [(theta - state.pool[k].theta_star) ** 2 for theta in out.thetas]
    return float(sum(float(s.sum()) for s in sq) / sum(s.size for s in sq)) ** 0.5


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def setup_sample(name: str, seed: int, tmp: Path) -> tuple[float, str | None]:
    """Seconds from launching a fresh interpreter to the end of its set-up,
    and why that set-up failed, if it did."""
    tmp.mkdir(parents=True)
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), "setup", name, str(seed), str(tmp)],
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        return elapsed, f"set-up in a fresh process failed: {proc.stderr.strip()[-300:]}"
    return elapsed, None


def plain_run(name, workload, seed, seconds, tmp):
    """Set-up samples in fresh interpreters, then the timed phase: the end-to-end metrics."""
    setup_speed, setups, broken = [], [], []
    for i in range(SETUP_SAMPLES):
        setup_speed += [speed_sample() for _ in range(SPEED_SAMPLES_PER_SETUP)]
        elapsed, err = setup_sample(name, seed, tmp / f"setup{i}")
        setups.append(elapsed)
        if err is not None:
            broken.append(err)
    state = jobs.setup(workload, seed, tmp)
    done, speed = [], []

    def step(k):
        speed.append(speed_sample())
        done.append((k, *run_job(workload, state.pool[k])))

    wall = loop(len(state.pool), step, seconds, max(MIN_JOBS, len(state.pool))) - sum(speed)
    reasons, replay_broken = check(state, done)
    broken += replay_broken
    scale = REFERENCE_SPEED_S / statistics.median(speed)
    setup_scale = REFERENCE_SPEED_S / statistics.median(setup_speed)

    raw = [t for _, t, _ in done]
    times = [t * scale for t in raw]
    tail_s, tail_pct = tail(times)
    fit = statistics.median(out.fit_s for _, _, out in done) * scale
    if isinstance(workload, jobs.LsatCli):
        rss_kb = max(out.child_rss_kb for _, _, out in done)
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "job_s": (statistics.median(times), "s"),
        "job_s.tail": (tail_s, "s"),
        "jobs_per_s": (len(done) / wall / scale, "1/s"),
        "fit_s": (fit, "s"),
        "setup_s": (statistics.median(setups) * setup_scale, "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        "theta_rmse": (rmse(state, done), "logit"),
    }
    failed = sum(r is not None for r in reasons)
    notes = [f"job_s.tail is p{tail_pct:.1f}: {TAIL_BEYOND} of {len(done)} jobs beyond it",
             f"fail_rate = {failed}/{len(done)} = {failed / len(done):.4g}",
             unconverged_note(done),
             f"speed scale {scale:.4f} (jobs), {setup_scale:.4f} (set-up); unscaled wall figures: "
             f"job_s {statistics.median(raw):.4f}, job_s.tail {tail(raw)[0]:.4f}, "
             f"jobs_per_s {len(done) / wall:.4f}, "
             f"fit_s {fit / scale:.4f}, "
             f"setup_s {statistics.median(setups):.4f} (samples "
             + ", ".join(f"{s:.4f}" for s in setups) + ")"]
    if workload.has_inference:
        infer = statistics.median(out.infer_s for _, _, out in done) * scale
        notes.insert(1, f"infer_s = {infer:.6f} s (median per job, speed-scaled)")
    else:
        notes.insert(1, "infer_s: not measured, this workload has no inference step")
    return metrics, len(done), reasons, broken, state.violations, notes


def traced_run(name, workload, seed, seconds, tmp):
    """Each input runs twice in a row, untraced and then with every layer
    wrapped; the layer metrics come from the traced runs and the tracing
    overhead from the pairs.

    lsat-cli calls ``rasch.cli.main`` in-process in both runs of a pair, so
    that the overhead compares like with like.
    """
    in_process = isinstance(workload, jobs.LsatCli)
    state = jobs.setup(workload, seed, tmp, in_process)
    rec = spans.Recorder()
    uninstall = spans.install(rec)
    try:
        jobs.setup(workload, seed, tmp, in_process)
    finally:
        uninstall()
    setup_spans, _, _ = rec.take()

    done, per_job, overheads = [], [], []

    def pair(k):
        plain_s, plain_out = run_job(workload, state.pool[k], in_process)
        undo = spans.install(rec)
        try:
            traced_s, traced_out = run_job(workload, state.pool[k], in_process)
        finally:
            undo()
        per_job.append(rec.take())
        done.extend([(k, plain_s, plain_out), (k, traced_s, traced_out)])
        overheads.append(traced_s - plain_s)

    loop(len(state.pool), pair, seconds, 1)
    reasons, broken = check(state, done)
    metrics = layer_metrics(setup_spans, per_job, statistics.median(overheads))
    notes = [f"{len(per_job)} inputs run untraced and traced; "
             "per-job figures are means over the traced runs", unconverged_note(done)]
    return metrics, len(done), reasons, broken, state.violations, notes


def layer_metrics(setup_spans, per_job, overhead):
    """Per-layer metrics from the spans of one traced set-up and of each traced job."""
    n = len(per_job)
    calls, selfs, totals, counts = Counter(), Counter(), Counter(), Counter()
    halvings, iter_max = 0, 0
    for found, cnt, maxima in per_job:
        calls.update(spans.call_counts(found))
        selfs.update(spans.self_times(found))
        totals.update(spans.total_times(found))
        counts.update(cnt)
        # each Newton iteration evaluates nll once at the iterate and once per
        # trial step; every trial beyond the first is one halving
        halvings += (spans.calls_under(found, "solver.nll", "solver.solve_newton")
                     - 2 * cnt["iterations"])
        iter_max = max(iter_max, maxima.get("iterations", 0))
    setup_totals = spans.total_times(setup_spans)

    def per(table, key):
        return table.get(key, 0) / n

    def setup_plus_job(key):
        return setup_totals.get(key, 0.0) + per(totals, key)

    pairs = counts.get("pairs_formed", 0)
    out = {
        "pairing.random_split.calls": (per(calls, "pairing.random_split"), "count/job"),
        "pairing.random_split.self_s": (per(selfs, "pairing.random_split"), "s/job"),
        "pairing.compile_comparisons.self_s": (per(selfs, "pairing.compile_comparisons"), "s/job"),
        "pairing.pairs_formed": (per(counts, "pairs_formed"), "count/job"),
        "pairing.records_kept": (per(counts, "records_kept"), "count/job"),
        "pairing.keep_ratio": (counts.get("records_kept", 0) / pairs if pairs else 0.0, "ratio"),
        "pairing.enumerate_weighted_pairs.self_s":
            (per(selfs, "pairing.enumerate_weighted_pairs"), "s/job"),
        "pairing.weighted_records": (per(counts, "weighted_records"), "count/job"),
        "inference.plugin_covariance.self_s": (per(selfs, "inference.plugin_covariance"), "s/job"),
        "inference.confidence_intervals.self_s":
            (per(selfs, "inference.confidence_intervals"), "s/job"),
        "solver.solve_newton.calls": (per(calls, "solver.solve_newton"), "count/job"),
        "solver.solve_newton.self_s": (per(selfs, "solver.solve_newton"), "s/job"),
        "solver.iterations": (per(counts, "iterations"), "count/job"),
        "solver.iterations_max": (iter_max, "count"),
        "solver.unconverged": (per(counts, "unconverged"), "count/job"),
        "solver.nll.calls": (per(calls, "solver.nll"), "count/job"),
        "solver.nll.self_s": (per(selfs, "solver.nll"), "s/job"),
        "solver.ls_halvings": (halvings / n, "count/job"),
        "solver.gradient.self_s": (per(selfs, "solver.gradient"), "s/job"),
        "solver.hessian.self_s": (per(selfs, "solver.hessian"), "s/job"),
        "solver.objective_build.self_s": (per(selfs, "solver.objective_build"), "s/job"),
        "laplacian.connected_components.calls":
            (per(calls, "laplacian.connected_components"), "count/job"),
        "laplacian.connected_components.self_s":
            (per(selfs, "laplacian.connected_components"), "s/job"),
        "estimators.fit.self_s": (per(selfs, "estimators.fit"), "s/job"),
        "model.sample_responses.total_s": (setup_plus_job("model.sample_responses"), "s"),
        "model.from_csv.total_s": (setup_plus_job("model.from_csv"), "s"),
        "lsat.load_lsat.total_s": (setup_plus_job("lsat.load_lsat"), "s"),
        "cli.main.self_s": (per(selfs, "cli.main"), "s/job"),
        "trace.overhead_s": (overhead, "s"),
    }
    return out


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=sorted(jobs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = jobs.WORKLOADS[args.workload]
    tmp = ROOT / ".perfbench_tmp" / str(os.getpid())
    tmp.mkdir(parents=True)
    try:
        run = traced_run if args.trace else plain_run
        metrics, attempted, reasons, broken, violations, notes = run(
            args.workload, workload, args.seed, args.seconds, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            tmp.parent.rmdir()

    failures = Counter(r for r in reasons if r is not None)
    print(f"perfbench {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} jobs, {sum(failures.values())} failed {dict(failures) or ''}")
    for key, (value, unit) in metrics.items():
        print(f"  {key:40s} {value:.6g} {unit}")
    for line in notes + [f"INVARIANT VIOLATED: {v}" for v in violations] + [f"BROKEN: {b}" for b in broken]:
        print("  " + line)
    result = {
        "correct": not broken,
        "attempted": attempted,
        "failed": sum(failures.values()),
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0

