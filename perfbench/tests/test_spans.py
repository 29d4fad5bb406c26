"""The benchmark's span arithmetic and wrapper installation."""

import numpy as np
import pytest

import rasch
import rasch.estimators
import rasch.inference
import rasch.pairing
import rasch.solver
import spans
from bench import layer_metrics
from rasch import EstimatorConfig, sample_ground_truth, sample_responses


@pytest.fixture(scope="module")
def data():
    gt = sample_ground_truth(300, 6, "standard-normal", seed=3)
    return sample_responses(gt, 0.8, seed=3)


def test_self_time_subtracts_direct_children_only():
    # a [0, 100] contains b [10, 40] (which contains c [20, 30]) and b [50, 70]
    found = [["a", 0, 100, -1], ["b", 10, 40, 0], ["c", 20, 30, 1], ["b", 50, 70, 0]]
    got = spans.self_times(found)
    assert got == pytest.approx({"a": 50e-9, "b": 40e-9, "c": 10e-9})
    assert spans.total_times(found) == pytest.approx({"a": 100e-9, "b": 50e-9, "c": 10e-9})
    assert spans.call_counts(found) == {"a": 1, "b": 2, "c": 1}
    assert spans.calls_under(found, "b", "a") == 2
    assert spans.calls_under(found, "c", "a") == 0


def test_recursive_span_counts_once_in_total():
    found = [["f", 0, 100, -1], ["f", 10, 60, 0], ["g", 70, 80, 0]]
    assert spans.total_times(found) == pytest.approx({"f": 100e-9, "g": 10e-9})
    assert spans.self_times(found) == pytest.approx({"f": 90e-9, "g": 10e-9})


def test_recorder_links_nested_calls_to_their_parent():
    rec = spans.Recorder()
    inner = rec.wrap("inner", lambda x: x + 1)
    outer = rec.wrap("outer", lambda x: inner(x) * inner(x))
    assert outer(1) == 4
    found, _, _ = rec.take()
    assert [s[0] for s in found] == ["outer", "inner", "inner"]
    assert [s[3] for s in found] == [-1, 0, 0]
    assert all(s[1] <= s[2] for s in found)
    assert rec.take()[0] == []


def test_install_reaches_every_rebinding_and_uninstall_restores(data):
    orig = rasch.pairing.random_split
    orig_build = rasch.solver.BtlObjective.__dict__["from_comparisons"]
    rec = spans.Recorder()
    uninstall = spans.install(rec)
    try:
        wrapped = rasch.pairing.random_split
        assert wrapped is not orig
        for module in (rasch, rasch.estimators, rasch.inference):
            assert module.random_split is wrapped
        rasch.estimators.mrp_mle(data, EstimatorConfig(method="mrp", seed=1, n_split=3))
        rasch.random_split(data, 1)
    finally:
        uninstall()
    found, counts, maxima = rec.take()
    calls = spans.call_counts(found)
    assert calls["pairing.random_split"] == 4
    assert calls["solver.objective_build"] == 3
    assert calls["solver.solve_newton"] == 3
    assert calls["estimators.fit"] == 1
    assert counts["pairs_formed"] > counts["records_kept"] > 0
    assert maxima["iterations"] >= 1
    for module in (rasch, rasch.pairing, rasch.estimators, rasch.inference):
        assert module.random_split is orig
    assert rasch.solver.BtlObjective.__dict__["from_comparisons"] is orig_build


def test_uncalled_or_missing_function_reads_zero(data):
    targets = spans.TARGETS + (("gone.layer", "rasch.solver", "no_such_function", None),
                               ("gone.method", "rasch.solver", "BtlObjective.no_such", None),
                               ("gone.module", "rasch.no_such_module", "f", None))
    rec = spans.Recorder()
    uninstall = spans.install(rec, targets)
    try:
        rasch.wp_mle(data)
    finally:
        uninstall()
    metrics = layer_metrics([], [rec.take()], overhead=0.0)
    assert metrics["pairing.random_split.calls"][0] == 0
    assert metrics["pairing.pairs_formed"][0] == 0
    assert metrics["pairing.keep_ratio"][0] == 0
    assert metrics["pairing.weighted_records"][0] > 0
    assert metrics["solver.solve_newton.calls"][0] == 1
    assert metrics["cli.main.self_s"][0] == 0


def _replayed_halvings(obj, start):
    """Independent count of line-search halvings: the Newton iteration of
    `solve_newton`, restated with an explicit counter."""
    m = obj.m
    theta = start - start.mean()
    J = np.full((m, m), 1.0 / m)
    halvings = iterations = 0
    g = rasch.solver.gradient(obj, theta)
    while np.abs(g).max() > 1e-10 and iterations < 100:
        step = np.linalg.solve(rasch.solver.hessian(obj, theta).matrix + J, -g)
        step -= step.mean()
        f0 = rasch.solver.nll(obj, theta)
        slope = float(g @ step)
        t = 1.0
        while t > 1e-12 and rasch.solver.nll(obj, theta + t * step) > f0 + 1e-4 * t * slope:
            t *= 0.5
            halvings += 1
        theta = theta + t * step
        theta -= theta.mean()
        iterations += 1
        g = rasch.solver.gradient(obj, theta)
    return halvings, iterations


def test_ls_halvings_formula_on_hand_built_objective():
    # three items started far from their optimum: the first Newton steps
    # overshoot and must be halved
    obj = rasch.solver.BtlObjective(m=3, item_i=[1, 2, 2], item_j=[0, 0, 1],
                                    weight=[10.0, 6.0, 8.0], wins_i=[5.0, 2.0, 5.0])
    start = np.array([-3.0, 3.0, 0.5])
    want_halvings, want_iterations = _replayed_halvings(obj, start)
    assert want_halvings > 0

    rec = spans.Recorder()
    uninstall = spans.install(rec)
    try:
        res = rasch.solver.solve_newton(obj, start=start)
    finally:
        uninstall()
    per_job = [rec.take()]
    assert res.iterations == want_iterations
    metrics = layer_metrics([], per_job, overhead=0.0)
    assert metrics["solver.ls_halvings"][0] == want_halvings
    assert metrics["solver.iterations"][0] == want_iterations
