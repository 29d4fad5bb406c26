from unittest import mock

import numpy as np
import pytest

from rasch import solver
from rasch.errors import ConvergenceError, DisconnectedGraphError, DivergenceError
from rasch.laplacian import build_z_laplacian
from rasch.model import GroundTruth, sample_responses
from rasch.pairing import compile_comparisons, random_split
from rasch.solver import (
    BtlObjective,
    SolverOptions,
    gradient,
    hessian,
    nll,
    solve_newton,
    solve_newton_batch,
)

LOG3 = np.log(3.0)


def _two_item():
    return BtlObjective(m=2, item_i=[1], item_j=[0], weight=[4.0], wins_i=[3.0])


def _random_objective(rng, m, density=1.0):
    ii, jj = np.triu_indices(m, k=1)
    keep = rng.random(ii.size) < density
    ii, jj = ii[keep], jj[keep]
    w = rng.integers(1, 12, ii.size).astype(float)
    wins = np.round(rng.uniform(0.15, 0.85, ii.size) * w, 6)
    return BtlObjective(m=m, item_i=jj, item_j=ii, weight=w, wins_i=wins)


class TestObjective:
    def test_rejects_invalid_terms(self):
        with pytest.raises(ValueError):
            BtlObjective(m=2, item_i=[0], item_j=[1], weight=[1.0], wins_i=[0.5])
        with pytest.raises(ValueError):
            BtlObjective(m=2, item_i=[1], item_j=[0], weight=[1.0], wins_i=[1.5])
        with pytest.raises(ValueError):
            BtlObjective(m=2, item_i=[1], item_j=[0], weight=[0.0], wins_i=[0.0])

    def test_from_wins_rejects_what_newton_cannot_use(self):
        # a NaN or negative entry, a zero-count pair with wins, a non-zero diagonal
        for W, message in (([[np.nan, 1, 2], [1, 0, 1], [1, 1, 0]], "non-negative"),
                           ([[-3, 1, 2], [1, 0, 1], [1, 1, 0]], "non-negative"),
                           ([[0, 5, 1], [-5, 0, 1], [1, 1, 0]], "non-negative"),
                           ([[2, 1], [1, 0]], "diagonal")):
            with pytest.raises(ValueError, match=message):
                BtlObjective.from_wins(W)

    def test_nll_values(self):
        obj = _two_item()
        assert nll(obj, np.zeros(2)) == pytest.approx(4 * np.log(2.0), rel=1e-12)
        theta = np.array([-0.5 * LOG3, 0.5 * LOG3])
        want = 4 * (-(3 / 4) * LOG3 + np.log(4.0))
        assert nll(obj, theta) == pytest.approx(want, rel=1e-12)

    def test_nll_shift_invariant(self):
        rng = np.random.default_rng(0)
        obj = _random_objective(rng, 7)
        theta = rng.standard_normal(7)
        assert abs(nll(obj, theta) - nll(obj, theta + 7.0)) < 1e-10


class TestDerivatives:
    def test_gradient_zero_at_closed_form_optimum(self):
        theta = np.array([-0.5 * LOG3, 0.5 * LOG3])
        np.testing.assert_allclose(gradient(_two_item(), theta), 0.0, atol=1e-12)

    def test_gradient_sums_to_zero_exactly(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            obj = _random_objective(rng, int(rng.integers(3, 9)))
            g = gradient(obj, rng.standard_normal(obj.m))
            assert abs(g.sum()) <= 1e-12 * max(1.0, np.abs(g).max())

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(2)
        h = 1e-5
        for _ in range(30):
            m = int(rng.integers(3, 11))
            obj = _random_objective(rng, m)
            theta = rng.standard_normal(m)
            g = gradient(obj, theta)
            fd = np.empty(m)
            for k in range(m):
                e = np.zeros(m)
                e[k] = h
                fd[k] = (nll(obj, theta + e) - nll(obj, theta - e)) / (2 * h)
            assert np.abs(g - fd).max() <= 1e-6 * max(1.0, np.abs(fd).max())

    def test_hessian_matches_z_laplacian_on_comparisons(self):
        gt = GroundTruth(np.array([0.4, -0.1, -0.3]), np.zeros(300))
        data = sample_responses(gt, 1.0, seed=5)
        pc = compile_comparisons(data, random_split(data, 5))
        obj = BtlObjective.from_wins(pc.wins)
        theta = np.array([0.2, 0.0, -0.2])
        np.testing.assert_allclose(hessian(obj, theta).matrix,
                                   build_z_laplacian(pc, theta).matrix, atol=1e-12)

    def test_hessian_matches_gradient_differences(self):
        rng = np.random.default_rng(3)
        h = 1e-6
        for _ in range(20):
            m = int(rng.integers(3, 10))
            obj = _random_objective(rng, m)
            theta = rng.standard_normal(m)
            H = hessian(obj, theta).matrix
            v = rng.standard_normal(m)
            fd = (gradient(obj, theta + h * v) - gradient(obj, theta - h * v)) / (2 * h)
            assert np.abs(H @ v - fd).max() <= 1e-5 * max(1.0, np.abs(fd).max())

    def test_kernels_match_the_plain_formulas_bit_for_bit(self):
        # D = +0 and -0, and |D| > 745, where exp(-|D|) underflows to 0
        rng = np.random.default_rng(7)
        K, m = 5, 9
        theta = rng.normal(0.0, 3.0, (K, m))
        theta[:, :5] = [0.0, -0.0, 0.0, 400.0, -400.0]
        W = rng.integers(0, 7, (K, m, m)) * rng.choice([1.0, 0.25, 1e-3], (K, m, m))
        N = W + np.swapaxes(W, -1, -2)
        D = theta[..., :, None] - theta[..., None, :]
        t = np.exp(-np.abs(D))
        assert ((D == 0) & np.signbit(D)).any() and ((D == 0) & ~np.signbit(D)).any()
        assert (t == 0).any()
        r = 1.0 / (1.0 + t)
        loss = (W * (np.log1p(t) + np.maximum(-D, 0.0))).reshape(K, m * m).sum(axis=-1)
        grad = (N * np.where(D >= 0.0, r, t * r) - W).sum(axis=-1)
        Z = N * (t * r * r)
        for s in (slice(None), 0):  # a stack, and one matrix as `nll` passes it
            D_k, t_k = solver._pairwise(theta[s])
            assert D_k.tobytes() == D[s].tobytes() and t_k.tobytes() == t[s].tobytes()
            assert solver._loss_at(W[s], D[s], t[s]).tobytes() == loss[s].tobytes()
            g_k, Z_k = solver._derivatives_at(W[s], N[s], D[s], t[s])
            assert g_k.tobytes() == grad[s].tobytes() and Z_k.tobytes() == Z[s].tobytes()

    def test_hessian_psd(self):
        rng = np.random.default_rng(4)
        obj = _random_objective(rng, 8)
        H = hessian(obj, rng.standard_normal(8)).matrix
        assert np.linalg.eigvalsh(H)[0] >= -1e-10


def _grid_minimize_3(obj):
    """Brute-force minimizer over the zero-sum plane for m = 3."""
    center = np.zeros(2)
    width = 4.0
    for _ in range(8):
        a = np.linspace(center[0] - width, center[0] + width, 41)
        b = np.linspace(center[1] - width, center[1] + width, 41)
        best, arg = np.inf, None
        for x in a:
            for y in b:
                val = nll(obj, np.array([x, y, -x - y]))
                if val < best:
                    best, arg = val, (x, y)
        center = np.array(arg)
        width /= 8.0
    theta = np.array([center[0], center[1], -center.sum()])
    return theta - theta.mean()


class TestNewton:
    def test_two_item_closed_form(self):
        res = solve_newton(_two_item())
        np.testing.assert_allclose(res.theta_hat, [-0.5 * LOG3, 0.5 * LOG3], atol=1e-8)
        assert res.converged
        assert abs(res.theta_hat.mean()) <= 1e-12

    def test_symmetric_complete_graph_gives_zero(self):
        ii, jj = np.triu_indices(5, k=1)
        obj = BtlObjective(m=5, item_i=jj, item_j=ii,
                           weight=np.full(ii.size, 2.0), wins_i=np.full(ii.size, 1.0))
        res = solve_newton(obj)
        np.testing.assert_allclose(res.theta_hat, 0.0, atol=1e-10)

    def test_three_item_cycle_matches_grid_oracle(self):
        obj = BtlObjective(m=3, item_i=[1, 2, 2], item_j=[0, 0, 1],
                           weight=[5.0, 5.0, 5.0], wins_i=[3.0, 2.0, 4.0])
        res = solve_newton(obj)
        oracle = _grid_minimize_3(obj)
        np.testing.assert_allclose(res.theta_hat, oracle, atol=1e-6)

    def test_warm_start_shift_ignored(self):
        rng = np.random.default_rng(5)
        obj = _random_objective(rng, 6)
        start = rng.standard_normal(6)
        a = solve_newton(obj, start=start)
        b = solve_newton(obj, start=start + 3.25)
        np.testing.assert_allclose(a.theta_hat, b.theta_hat, atol=1e-10)

    def test_stationarity_of_converged_results(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            obj = _random_objective(rng, int(rng.integers(3, 12)))
            res = solve_newton(obj)
            assert res.converged
            assert np.abs(gradient(obj, res.theta_hat)).max() <= 1e-10

    def test_disconnected_graph_reported_with_components(self):
        obj = BtlObjective(m=4, item_i=[1, 3], item_j=[0, 2],
                           weight=[2.0, 2.0], wins_i=[1.0, 1.0])
        with pytest.raises(DisconnectedGraphError) as err:
            solve_newton(obj)
        assert err.value.components == [[0, 1], [2, 3]]

    def test_all_wins_item_diverges(self):
        obj = BtlObjective(m=3, item_i=[1, 2, 2], item_j=[0, 0, 1],
                           weight=[40.0, 40.0, 40.0], wins_i=[40.0, 20.0, 0.0])
        with pytest.raises(DivergenceError):
            solve_newton(obj)

    def test_default_start_is_centred_log_odds(self):
        # wins 5, 4, 6 and losses 5, 6, 4 over a three-item cycle
        obj = BtlObjective(m=3, item_i=[1, 2, 2], item_j=[0, 0, 1],
                           weight=[5.0, 5.0, 5.0], wins_i=[3.0, 2.0, 4.0])
        start = np.log(np.array([5.5, 4.5, 6.5]) / np.array([5.5, 6.5, 4.5]))
        res = solve_newton(obj, SolverOptions(max_iter=0))
        np.testing.assert_allclose(res.theta_hat, start - start.mean(), rtol=0, atol=1e-15)
        assert res.iterations == 0 and not res.converged

    @pytest.mark.parametrize("kwargs", [
        {"tol": float("nan")}, {"tol": -1e-10}, {"tol": float("inf")}, {"tol": True}, {"tol": "1e-8"},
        {"max_iter": -1}, {"max_iter": 2.5}, {"max_iter": 10.0}, {"max_iter": True},
    ])
    def test_options_reject_what_cannot_stop_newton(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            SolverOptions(**kwargs)

    def test_options_take_a_zero_tolerance_and_no_iterations(self):
        assert SolverOptions(tol=0.0, max_iter=0) == SolverOptions(tol=0, max_iter=np.int64(0))

    def test_all_wins_item_diverges_from_log_odds_start(self):
        # item 2 wins all 80 of its comparisons, so no MLE exists however
        # close the log-odds start puts it
        W = TestNewtonBatch.ALL_WINS
        with pytest.raises(DivergenceError) as err:
            solve_newton(BtlObjective.from_wins(W))
        assert err.value.items == [2] and err.value.split_index is None
        with pytest.raises(DivergenceError) as err:
            solve_newton_batch(W[None])
        assert err.value.split_index == 0


    # item 0 won every comparison, by tiny weights that keep the iterates
    # close together
    TINY_ALL_WINS = [[0, .001, .001], [0, 0, .3], [0, .2, 0]]

    def test_all_wins_item_by_tiny_weights_has_no_mle(self):
        with pytest.raises(DivergenceError) as err:
            solve_newton(BtlObjective.from_wins(self.TINY_ALL_WINS))
        assert err.value.items == [0]
        with pytest.raises(DivergenceError) as err:
            solve_newton_batch(np.array(self.TINY_ALL_WINS)[None])
        assert err.value.items == [0] and err.value.split_index == 0

    def test_strongly_connected_input_with_wide_spread_fits(self):
        # item 0 beat item 1 3e9 times to 1: the MLE puts them log(3e9) = 21.8 apart
        W = np.array([[0, 3e9, 0], [1, 0, 1], [0, 1, 0]])
        res = solve_newton(BtlObjective.from_wins(W))
        assert res.converged
        assert res.theta_hat[0] - res.theta_hat[1] == pytest.approx(np.log(3e9), rel=1e-9)
        assert solve_newton_batch(W[None])[0].theta_hat.tobytes() == res.theta_hat.tobytes()


def _wins(m, entries):
    """m x m win matrix from (winner, loser, count) triples."""
    W = np.zeros((m, m))
    for i, j, c in entries:
        W[i, j] += c
    return W


class TestNewtonBatch:
    FINE = _wins(3, [(0, 1, 3), (1, 0, 2), (1, 2, 4), (2, 1, 1), (0, 2, 2), (2, 0, 2)])
    DISCONNECTED = _wins(3, [(0, 1, 3), (1, 0, 2)])
    ALL_WINS = _wins(3, [(2, 0, 40), (2, 1, 40), (0, 1, 20), (1, 0, 20)])

    def test_matches_solve_newton_per_split(self):
        rng = np.random.default_rng(10)
        objs = [_random_objective(rng, 6) for _ in range(4)]
        batch = solve_newton_batch(np.stack([obj.wins for obj in objs]))
        for obj, res in zip(objs, batch):
            alone = solve_newton(obj)
            assert res.theta_hat.tobytes() == alone.theta_hat.tobytes()
            assert res.iterations == alone.iterations and res.converged

    def test_errors_count_every_split_without_mle(self):
        # splits 1 and 3 have no MLE; the error is split 1's, with a count of 2
        for bad, kind in ((self.DISCONNECTED, DisconnectedGraphError),
                          (self.ALL_WINS, DivergenceError)):
            other = self.ALL_WINS if bad is self.DISCONNECTED else self.DISCONNECTED
            with pytest.raises(kind) as err:
                solve_newton_batch(np.stack([self.FINE, bad, self.FINE, other]))
            assert err.value.split_index == 1 and err.value.splits_without_mle == 2
        with pytest.raises(DisconnectedGraphError) as err:
            solve_newton(BtlObjective.from_wins(self.DISCONNECTED))
        assert err.value.split_index is None and err.value.splits_without_mle is None

    def test_lowest_failing_split_wins_whatever_its_kind(self):
        stack = np.stack([self.FINE, self.DISCONNECTED, self.ALL_WINS])
        with pytest.raises(DisconnectedGraphError) as err:
            solve_newton_batch(stack)
        assert err.value.split_index == 1 and err.value.components == [[0, 1], [2]]
        with pytest.raises(DivergenceError) as err:
            solve_newton_batch(stack[[0, 2, 1]])
        assert err.value.split_index == 1
        with pytest.raises(ConvergenceError) as err:
            solve_newton_batch(stack[[0, 0, 2]], SolverOptions(max_iter=2))
        assert err.value.split_index == 0

    def test_splits_above_one_without_mle_never_enter_newton(self):
        stack = np.stack([self.FINE, self.ALL_WINS, self.FINE])
        with mock.patch.object(solver, "_newton", wraps=solver._newton) as spy:
            with pytest.raises(DivergenceError) as err:
                solve_newton_batch(stack)
        assert err.value.split_index == 1 and err.value.items == [2]
        assert spy.call_count == 1
        assert spy.call_args.args[0].tobytes() == stack[:1].tobytes()
