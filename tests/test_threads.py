"""The two-thread paths of `split_wins`, `solve_newton_batch` and the
indicator-block products against one-thread oracles, and the blocks that
keep every product of the pseudo-likelihood and the score covariance on the
calling thread."""

import resource
import sys
import threading
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from rasch import _rng, _threads, pairing, solver
from rasch.errors import ConvergenceError
from rasch.estimators import pmle, wp_mle
from rasch.experiments import ExperimentConfig, run_experiment
from rasch.inference import _wp_score_covariance, plugin_covariance
from rasch.lsat import load_lsat
from rasch.model import ResponseData, sample_ground_truth, sample_responses, sigmoid
from rasch.pairing import _block_products, _pseudo_wins, split_wins
from rasch.solver import SolverOptions, solve_newton_batch
from test_properties import _in_block_order, _naive_indicator_blocks, _summed_in_halves


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
    threads = []

    def work(lo, hi):
        threads.append(threading.current_thread())
        return lo, hi

    with mock.patch.object(_threads.threading, "Thread") as spy:
        with mock.patch.object(_threads, "_usable_cpus", return_value=1):
            # the halves depend on the input alone: on one CPU both run here
            assert _threads.in_halves(work, 10, True) == [(0, 5), (5, 10)]
        with mock.patch.object(_threads, "_usable_cpus", return_value=2):
            assert _threads.in_halves(work, 10, False) == [(0, 10)]
            assert _threads.in_halves(work, 1, True) == [(0, 1)]
            W = split_wins(_sparse_data(n=500, m=5, p=1.0), 0, 100)  # LSAT-sized
            solve_newton_batch(W)
    assert spy.call_count == 0
    assert threads == [threading.current_thread()] * 4


@pytest.mark.parametrize("n", [2, 3, 7, 40])
def test_in_halves_on_two_cpus_runs_the_second_half_on_a_helper(two_cpus, n):
    caller, before = threading.current_thread(), threading.active_count()
    ran = {}

    def work(lo, hi):
        ran[lo, hi] = threading.current_thread()
        return lo, hi

    half = n // 2
    assert _threads.in_halves(work, n, True) == [(0, half), (half, n)]
    assert ran[0, half] is caller and ran[half, n] is not caller
    assert two_cpus.call_count == 1 and threading.active_count() == before


@pytest.mark.parametrize("failing", [0, 5])
def test_in_halves_on_one_cpu_raises_as_the_halves_run_in_order(failing):
    done = []

    def work(lo, hi):
        if lo == failing:
            raise ValueError(lo)
        done.append((lo, hi))

    with mock.patch.object(_threads.threading, "Thread") as spy, \
            mock.patch.object(_threads, "_usable_cpus", return_value=1):
        with pytest.raises(ValueError) as err:
            _threads.in_halves(work, 10, True)
    assert err.value.args == (failing,)
    # a failing first half stops before the second; a failing second ran after the first
    assert done == ([] if failing == 0 else [(0, 5)])
    assert spy.call_count == 0


@pytest.mark.parametrize("m", [1, 5, 20, 50, 64, 725])
def test_indicator_blocks_keep_every_product_under_two_to_the_19(m):
    block = max(1, (2**19 - 1) // m**2)
    n = 2 * block + 3
    rng = np.random.default_rng(m)
    users = rng.choice(n, min(n, 40), replace=False)  # most rows of a block are empty
    data = ResponseData(n, m, users, rng.integers(0, m, users.size), rng.integers(0, 2, users.size))
    chunks = []

    def product(X1, X0, w, got_block):
        assert got_block == block and X1.shape == X0.shape == (w.size, m)
        chunks.append(w.size)
        return X1, X0

    with mock.patch.object(np, "matmul", wraps=np.matmul) as gemm:
        _block_products(data, "wp", product)
    # the reader's own gemms, one a block: A[s]^T B[s] of each slice s
    sizes = [call.args[1].shape[0] for call in gemm.call_args_list]
    assert all(call.args[0].shape == (m, size) for call, size in zip(gemm.call_args_list, sizes))
    assert all(size % block == 0 for size in chunks[:-1])  # chunks hold whole blocks
    assert sizes[:-1] == [block] * (len(sizes) - 1) and 1 <= sizes[-1] <= block
    assert sum(chunks) == sum(sizes) == n
    if m <= 724:
        assert max(sizes) * m**2 < 2**19


def _above_the_block_gate():
    """m = 100: blocks of 52 users, chunks of 12 blocks (624 users); 1,560
    users make two whole chunks and a partial third."""
    data = sample_responses(sample_ground_truth(1560, 100, "standard-normal", seed=7), 0.1, seed=7)
    m, block = data.n_items, pairing._product_block(data.n_items)
    chunk = block * (pairing.CHUNK_ENTRIES // (block * m))
    assert data.n_users * m**2 >= pairing.BLOCK_THREAD_SIZE
    assert -(-data.n_users // chunk) == 3 and data.n_users % chunk
    return data


def _block_results(data, theta):
    return [_pseudo_wins(data, "wp"), _pseudo_wins(data, "pmle"), _wp_score_covariance(data, theta)]


def _per_user_block_results(data, theta, summed=_summed_in_halves):
    """`_block_results` from each block's matrix set entry by entry, summed
    by ``summed(data, grams)``: in the documented order by default."""
    block = pairing._product_block(data.n_items)
    S = sigmoid(theta[:, None] - theta[None, :])
    wins = {scheme: [] for scheme in ("wp", "pmle")}
    cov = []
    for scheme, grams in wins.items():
        for _, X1, X0, w, _ in _naive_indicator_blocks(data, scheme, block):
            grams.append((X1 * w[:, None]).T @ X0)
            if scheme == "wp":
                G = X1 * (X0 @ (S - 1.0).T) + X0 * (X1 @ S.T)
                G *= w[:, None]
                cov.append(G.T @ G.copy())
    return [summed(data, wins["wp"]), summed(data, wins["pmle"]), summed(data, cov) / data.n_users]


def test_block_products_on_two_threads_match_one_and_a_per_user_construction(two_cpus):
    data = _above_the_block_gate()
    m = data.n_items
    theta = np.random.default_rng(2).normal(0.0, 1.0, m)
    got = _block_results(data, theta)
    assert two_cpus.call_count == 3
    with mock.patch.object(_threads, "_usable_cpus", return_value=1):
        one = _block_results(data, theta)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in one]
    assert [a.tobytes() for a in got] == [a.tobytes() for a in _per_user_block_results(data, theta)]


def test_block_products_keep_their_bits_for_four_callers_at_a_short_switch_interval(two_cpus):
    data = _above_the_block_gate()
    theta = np.random.default_rng(2).normal(0.0, 1.0, data.n_items)
    want = [a.tobytes() for a in _block_results(data, theta)]
    runs = [[] for _ in range(4)]

    def caller(results):
        for _ in range(3):
            results.append([a.tobytes() for a in _block_results(data, theta)])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=caller, args=(run,), daemon=True) for run in runs]
        for thread in callers:
            thread.start()
        for thread in callers:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in callers)
    assert runs == [[want] * 3] * 4


def test_block_products_below_the_gate_stay_on_the_caller(two_cpus):
    dense = _sparse_data(m=20, p=0.5)  # wp-dense
    assert dense.n_users * 20**2 < pairing.BLOCK_THREAD_SIZE
    for data in (dense, load_lsat()):
        theta = np.random.default_rng(3).normal(0.0, 1.0, data.n_items)
        got = _block_results(data, theta)
        # below the gate every block is added to zeros in block order
        want = _per_user_block_results(data, theta, _in_block_order)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
    assert two_cpus.call_count == 0


def test_error_in_a_threaded_chunk_reaches_the_caller(two_cpus):
    data = _above_the_block_gate()
    caller, before = threading.current_thread(), threading.active_count()
    chunks = []

    def product(X1, X0, w, block):
        chunks.append(w.size)
        if threading.current_thread() is not caller:
            raise MemoryError("helper")
        return X1, X0

    with pytest.raises(MemoryError, match="helper"):
        _block_products(data, "wp", product)
    assert two_cpus.call_count == 1 and len(chunks) == 2
    assert threading.active_count() == before


def test_block_products_hold_a_few_chunks_whatever_the_users(two_cpus):
    # 20,000 users at m = 200 make 1,539 blocks of 13 users, 2.5 MB of
    # matrices a thousand; each half holds one running total and one chunk
    data = _sparse_data(n=20_000, m=200, p=0.1)
    theta = np.zeros(data.n_items)
    for call in (lambda: _wp_score_covariance(data, theta), lambda: _pseudo_wins(data, "wp")):
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 8 * 2**18
    assert two_cpus.call_count == 2


def _cpu_s():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


@pytest.mark.skipif(_threads._usable_cpus() < 2, reason="needs a second CPU to spin on")
@pytest.mark.parametrize("m", [40, 64])
def test_pseudo_fits_and_intervals_leave_no_blas_worker_spinning(m):
    # A product that reaches OpenBLAS's worker thread leaves it spinning on
    # the second core after the call, which shows as CPU time beyond the wall
    # time of the calls; a stall of the host adds wall time, not CPU time
    data = _sparse_data(m=m, seed=5)

    def rounds(count):
        for _ in range(count):
            plugin_covariance(data, wp_mle(data))
            pmle(data)

    # one round first: after a fork OpenBLAS starts its worker anew at a
    # later call (eigvalsh at m = 64), and a new worker spins once before it
    # sleeps
    rounds(1)
    time.sleep(0.3)  # a worker woken before now stops spinning
    with mock.patch.object(_threads, "_usable_cpus", return_value=1):
        cpu, start = _cpu_s(), time.perf_counter()
        rounds(10)
        wall = time.perf_counter() - start
        time.sleep(0.3)
        assert _cpu_s() - cpu < 1.3 * wall + 0.05
    # on two threads the rounds' block products pass their wall time in CPU
    # by themselves, so a worker left spinning shows in the idle after them
    rounds(10)
    busy = _cpu_s()
    time.sleep(0.3)
    assert _cpu_s() - busy < 0.05


@pytest.mark.skipif(_threads._usable_cpus() < 2, reason="needs a second CPU to spin on")
def test_worker_pool_leaves_no_blas_worker_spinning():
    # a forked pool made OpenBLAS start its worker thread anew in this
    # process at a later call, and the new worker spun on the second core
    run_experiment(ExperimentConfig(name="linf-vs-n", trials=2, seed=1, workers=2,
                                    params={"n_grid": [300], "m": 6, "p": 0.5}))
    A = np.random.default_rng(0).random((64, 64))
    cpu, start = _cpu_s(), time.perf_counter()
    np.linalg.eigvalsh(A + A.T)
    wall = time.perf_counter() - start
    time.sleep(0.3)
    assert _cpu_s() - cpu < 1.3 * wall + 0.05
