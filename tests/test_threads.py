"""The two-thread paths of `split_wins` and `solve_newton_batch`, and the
chunked products of the score covariance, against one-thread oracles."""

import sys
import threading
from unittest import mock

import numpy as np
import pytest

from rasch import _rng, _threads, pairing, solver
from rasch.errors import ConvergenceError
from rasch.inference import _wp_score_covariance
from rasch.model import GroundTruth, sample_ground_truth, sample_responses, sigmoid
from rasch.pairing import USER_BLOCK, _indicator_blocks, split_wins
from rasch.solver import SolverOptions, solve_newton_batch


@pytest.fixture
def two_cpus():
    """Two usable CPUs whatever the host has, and a count of helper threads."""
    with mock.patch.object(_threads, "_usable_cpus", return_value=2), \
            mock.patch.object(_threads.threading, "Thread", wraps=threading.Thread) as spy:
        yield spy


def _sparse_data(n=10_000, m=50, p=0.1, seed=3, mode="bernoulli"):
    gt = sample_ground_truth(n, m, "standard-normal", seed=seed)
    return sample_responses(gt, p, seed=seed, mode=mode)


def _oracle_wins(data, seed, k):
    """Win matrix of split ``k``, counted pair by pair: each user's edges
    ordered by the stable argsort of ``2 * user + key``, keys drawn from the
    split's sub-stream, and taken consecutively in pairs."""
    keys = _rng.substream(seed, _rng.SPLIT, k).random(data.n_edges)
    order = np.argsort(data.user_ids * 2.0 + keys, kind="stable")
    slots = pairing._pair_slots(data)
    a, b = order[slots], order[slots + 1]
    x_a, x_b = data.responses[a], data.responses[b]
    differ = x_a != x_b
    win = np.where(x_a == 1, a, b)[differ]
    lose = np.where(x_a == 1, b, a)[differ]
    W = np.zeros((data.n_items, data.n_items))
    np.add.at(W, (data.item_ids[win], data.item_ids[lose]), 1.0)
    return W


@pytest.mark.parametrize("mode,p", [("bernoulli", 0.1), ("uniform-mp", 0.2)])
def test_split_wins_on_two_threads_match_each_split(two_cpus, mode, p):
    data = _sparse_data(n=8_000, p=p, mode=mode)
    assert data.n_edges >= pairing.SPLIT_THREAD_EDGES
    K = 5
    W = split_wins(data, 11, K)
    assert two_cpus.call_count == 1
    for k in range(K):
        assert W[k].tobytes() == _oracle_wins(data, 11, k).tobytes()


def test_newton_batch_on_two_threads_matches_each_split_alone(two_cpus):
    W = split_wins(_sparse_data(), 4, 30)
    assert 30 * 50**2 >= solver.NEWTON_THREAD_SIZE
    batch = solve_newton_batch(W)
    assert two_cpus.call_count == 2  # split_wins and the batch
    for k, res in enumerate(batch):
        alone, = solve_newton_batch(W[k:k + 1])
        assert res.theta_hat.tobytes() == alone.theta_hat.tobytes()
        assert (res.iterations, res.grad_inf_norm, res.converged) == \
            (alone.iterations, alone.grad_inf_norm, alone.converged)


def test_threads_switching_often_give_the_one_thread_results(two_cpus):
    data = _sparse_data()
    with mock.patch.object(_threads, "_usable_cpus", return_value=1):
        want = split_wins(data, 9, 30)
        want_theta = [r.theta_hat.tobytes() for r in solve_newton_batch(want)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            W = split_wins(data, 9, 30)
            assert W.tobytes() == want.tobytes()
            assert [r.theta_hat.tobytes() for r in solve_newton_batch(W)] == want_theta
    finally:
        sys.setswitchinterval(interval)
    assert two_cpus.call_count == 6


def _easy_and_hard(K, hard, m=50):
    """K win matrices, all balanced (converged at the start) except those
    at ``hard``, which need several Newton iterations."""
    W = np.tile(np.ones((m, m)) - np.eye(m), (K, 1, 1))
    rng = np.random.default_rng(6)
    for k in hard:
        W[k] = rng.integers(1, 20, (m, m)) * (1 - np.eye(m))
    return W


def test_unconverged_split_in_second_half_keeps_its_index(two_cpus):
    K = 30
    with pytest.raises(ConvergenceError) as err:
        solve_newton_batch(_easy_and_hard(K, [20]), SolverOptions(max_iter=1))
    assert two_cpus.call_count == 1
    assert err.value.split_index == 20


def test_unconverged_splits_in_both_halves_raise_the_first(two_cpus):
    with pytest.raises(ConvergenceError) as err:
        solve_newton_batch(_easy_and_hard(30, [3, 20]), SolverOptions(max_iter=1))
    assert two_cpus.call_count == 1
    assert err.value.split_index == 3


def test_helper_thread_error_reaches_the_caller(two_cpus):
    before = threading.active_count()
    done = []

    def work(lo, hi):
        if lo:
            raise KeyError(lo)
        done.append((lo, hi))

    with pytest.raises(KeyError) as err:
        _threads.in_halves(work, 10, True)
    assert err.value.args == (5,) and done == [(0, 5)]
    assert threading.active_count() == before


def test_first_half_error_wins_over_the_helpers(two_cpus):
    before = threading.active_count()

    def work(lo, hi):
        raise ValueError(lo)

    with pytest.raises(ValueError) as err:
        _threads.in_halves(work, 10, True)
    assert err.value.args == (0,)
    assert threading.active_count() == before


def test_error_in_a_threaded_split_reaches_the_caller(two_cpus):
    data = _sparse_data()
    before = threading.active_count()
    calls = []
    real = pairing._split_pairs

    def failing(plan, seed, splits):
        calls.append(splits)
        if splits.start:
            raise MemoryError("second half")
        return real(plan, seed, splits)

    with mock.patch.object(pairing, "_split_pairs", failing):
        with pytest.raises(MemoryError, match="second half"):
            split_wins(data, 0, 4)
    assert calls == [range(0, 2), range(2, 4)] or calls == [range(2, 4), range(0, 2)]
    assert threading.active_count() == before


def test_one_cpu_or_small_input_stays_on_the_caller():
    with mock.patch.object(_threads.threading, "Thread") as spy:
        with mock.patch.object(_threads, "_usable_cpus", return_value=1):
            assert _threads.in_halves(lambda lo, hi: (lo, hi), 10, True) == [(0, 10)]
        with mock.patch.object(_threads, "_usable_cpus", return_value=2):
            assert _threads.in_halves(lambda lo, hi: (lo, hi), 10, False) == [(0, 10)]
            assert _threads.in_halves(lambda lo, hi: (lo, hi), 1, True) == [(0, 1)]
            W = split_wins(_sparse_data(n=500, m=5, p=1.0), 0, 100)  # LSAT-sized
            solve_newton_batch(W)
    assert spy.call_count == 0


def test_score_covariance_chunks_equal_the_whole_block_products():
    m = 50
    # two blocks, of 1024 users and of 2 * 209 + 10: chunks of 209 users
    # with a tail of 10 would take another BLAS kernel for the tail
    n = USER_BLOCK + 2 * (2**19 // m**2) + 10
    gt = GroundTruth(np.linspace(-1.5, 1.5, m), np.random.default_rng(8).standard_normal(n))
    data = sample_responses(gt, 0.3, seed=8)
    theta = gt.theta_star - gt.theta_star.mean()
    S = sigmoid(theta[:, None] - theta[None, :])
    V = np.zeros((m, m))
    for _, X1, X0, w in _indicator_blocks(data, "wp"):
        G = w[:, None] * (X1 * (X0 @ (S - 1.0).T) + X0 * (X1 @ S.T))
        V += G.T @ G
    assert _wp_score_covariance(data, theta).tobytes() == (V / data.n_users).tobytes()
