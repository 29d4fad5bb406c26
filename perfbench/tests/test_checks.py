"""Per-job checks: what counts as a failed job, and the run-level invariants."""

import numpy as np

import bench
import jobs
from rasch import ItemEstimate, SolveResult


def _item():
    return jobs.Item(seed=0, theta_star=np.array([0.5, -0.5]), predictor=1.0)


def _outcome(est: ItemEstimate) -> jobs.Outcome:
    return jobs.Outcome(thetas=[est.theta_hat], converged=[r.converged for r in est.solve_results],
                        fingerprint=est.theta_hat.tobytes())


def _estimate(converged: bool) -> ItemEstimate:
    ok = SolveResult(theta_hat=[0.4, -0.4], grad_inf_norm=1e-12, iterations=4, converged=True)
    last = SolveResult(theta_hat=[0.6, -0.6], grad_inf_norm=1e-12 if converged else 3e-7,
                       iterations=4 if converged else 100, converged=converged)
    return ItemEstimate(theta_hat=[0.5, -0.5], method="mrp", seed=0, n_split=2,
                        solve_results=(ok, last))


def test_unconverged_solve_is_counted_apart_from_failures():
    item = _item()
    good, flagged = _outcome(_estimate(converged=True)), _outcome(_estimate(converged=False))
    assert jobs.failure(item, good) is None
    assert jobs.failure(item, flagged) is None
    assert jobs.unconverged_jobs([(0, 0.1, good), (0, 0.1, flagged), (0, 0.1, flagged)]) == (2, 2)


def test_estimate_checks():
    item = _item()
    good = np.array([0.45, -0.45])
    cases = {
        "non-finite estimate": np.array([np.nan, 0.0]),
        "estimate not zero-mean": np.array([0.5, -0.4]),
        "l2 error above predictor bound": np.array([4.0, -4.0]),
    }
    assert jobs.failure(item, jobs.Outcome(thetas=[good])) is None
    for reason, theta in cases.items():
        assert jobs.failure(item, jobs.Outcome(thetas=[good, theta])) == reason
    flat = jobs.Outcome(thetas=[good], intervals=[(np.array([0.1, -1.0]), np.array([0.1, 0.0]))])
    assert jobs.failure(item, flat) == "interval lower >= upper"
    lsat_item = jobs.Item(seed=0, theta_star=np.array([0.5, -0.5]), max_dev=(0.08, 0.05))
    near, off = np.array([0.44, -0.44]), np.array([0.4, -0.4])
    assert jobs.failure(lsat_item, jobs.Outcome(thetas=[near, near])) \
        == "published LSAT theta missed"
    assert jobs.failure(lsat_item, jobs.Outcome(thetas=[near, good])) is None
    assert jobs.failure(lsat_item, jobs.Outcome(thetas=[off, good])) \
        == "published LSAT theta missed"
    assert jobs.failure(item, jobs.Outcome(error="exit code 3")) == "exit code 3"


class _Workload:
    """Stand-in workload: input 1 has an unconverged split, input 2 raises."""

    def run(self, item, in_process=False):
        if item.seed == 2:
            raise RuntimeError("boom")
        return _outcome(_estimate(converged=item.seed != 1))


def test_failed_jobs_are_counted_and_the_run_goes_on():
    workload = _Workload()
    pool = [jobs.Item(seed=k, theta_star=np.array([0.5, -0.5]), predictor=1.0) for k in range(3)]
    state = jobs.SetupState(pool=pool, warmup=workload.run(pool[0]))
    done = []
    bench.loop(len(pool), lambda k: done.append((k, *bench.run_job(workload, pool[k]))), 0.0, 6)
    reasons, broken = bench.check(state, done)
    assert [k for k, _, _ in done] == [0, 1, 2, 0, 1, 2]
    assert reasons == [None, None, "raised RuntimeError"] * 2
    assert jobs.unconverged_jobs(done) == (2, 2)
    assert broken == []


def test_replay_that_differs_breaks_the_run():
    pool = [_item()]
    first = _outcome(_estimate(converged=True))
    state = jobs.SetupState(pool=pool, warmup=first)
    other = jobs.Outcome(thetas=first.thetas, converged=first.converged, fingerprint=b"different")
    assert bench.check(state, [(0, 0.1, first)])[1] == []
    assert bench.check(state, [(0, 0.1, first), (0, 0.1, other)])[1] \
        == ["replay of input 0 is not byte-identical"]


def test_tail_has_ten_samples_beyond_it():
    times = [float(t) for t in range(1, 31)]
    value, percentile = bench.tail(times)
    assert value == 20.0
    assert sum(t > value for t in times) == 10
    assert percentile == 100.0 * 20 / 30
