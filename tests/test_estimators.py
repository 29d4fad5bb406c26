import numpy as np
import pytest

from rasch.errors import ConvergenceError, DisconnectedGraphError, EstimationError
from rasch.estimators import (
    EstimatorConfig,
    ItemEstimate,
    estimate,
    mrp_mle,
    pmle,
    rp_mle,
    top_k,
    top_k_recovery_rate,
    wp_mle,
)
from rasch.model import GroundTruth, ResponseData, sample_ground_truth, sample_responses
from rasch.solver import SolverOptions

LOG3 = np.log(3.0)


def _pair_data(n, seed=0):
    """n users who all responded to the same two items with a log-3 gap."""
    gt = GroundTruth(np.array([0.5 * LOG3, -0.5 * LOG3]), np.zeros(n))
    return gt, sample_responses(gt, 1.0, seed=seed)


class TestRpMle:
    def test_two_item_gap_concentrates(self):
        _, data = _pair_data(1000, seed=3)
        est = rp_mle(data, EstimatorConfig(method="rp", seed=3))
        assert abs((est.theta_hat[0] - est.theta_hat[1]) - LOG3) <= 0.15

    def test_zero_mean(self):
        _, data = _pair_data(200, seed=1)
        est = rp_mle(data, EstimatorConfig(method="rp", seed=1))
        assert abs(est.theta_hat.sum()) <= 1e-10

    def test_single_response_users_have_no_pairs(self):
        data = ResponseData(3, 4, [0, 1, 2], [0, 1, 2], [1, 0, 1])
        with pytest.raises(DisconnectedGraphError):
            rp_mle(data, EstimatorConfig(method="rp", seed=0))

    def test_exchangeable_items_rank_uniformly(self):
        # fresh data per seed: the items are exchangeable in distribution
        gt = GroundTruth(np.zeros(4), np.zeros(4000))
        winners = np.zeros(4, int)
        max_abs = 0.0
        for s in range(100):
            data = sample_responses(gt, 1.0, seed=s)
            est = rp_mle(data, EstimatorConfig(method="rp", seed=s))
            winners[int(np.argmax(est.theta_hat))] += 1
            max_abs = max(max_abs, float(np.abs(est.theta_hat).max()))
        assert max_abs <= 0.2
        assert winners.min() >= 10  # ~25 each under exchangeability


def _six_item_data(seed):
    gt = sample_ground_truth(300, 6, "standard-normal", seed=seed)
    return sample_responses(gt, 0.6, seed=seed)


class TestMrpMle:
    def test_single_split_reproduces_rp(self):
        # six items: re-centring the one-split average used to move the last bit
        cases = [(_pair_data(300, seed=2)[1], 17)] + [(_six_item_data(s), s) for s in (0, 1, 5, 7)]
        for data, seed in cases:
            a = rp_mle(data, EstimatorConfig(method="rp", seed=seed))
            b = mrp_mle(data, EstimatorConfig(method="mrp", seed=seed, n_split=1))
            assert a.theta_hat.tobytes() == b.theta_hat.tobytes(), seed

    def test_average_of_split_estimates(self):
        gt = sample_ground_truth(400, 6, "standard-normal", seed=4)
        data = sample_responses(gt, 0.9, seed=4)
        est = mrp_mle(data, EstimatorConfig(method="mrp", seed=4, n_split=7))
        assert est.per_split_estimates.shape == (7, 6)
        want = est.per_split_estimates.mean(axis=0)
        np.testing.assert_allclose(est.theta_hat, want - want.mean(), atol=1e-14)
        assert abs(est.theta_hat.sum()) <= 1e-10

    def test_failing_split_reports_index(self):
        # every user answers item 2 incorrectly: item 2 wins every comparison
        users = np.repeat(np.arange(60), 3)
        items = np.tile([0, 1, 2], 60)
        resp = np.tile([0, 0, 1], 60)
        data = ResponseData(60, 3, users, items, resp)
        with pytest.raises(EstimationError) as err:
            mrp_mle(data, EstimatorConfig(method="mrp", seed=0, n_split=3))
        assert err.value.split_index == 0

    def test_unconverged_split_raises_with_index(self):
        data = _six_item_data(0)
        cfg = EstimatorConfig(method="mrp", seed=0, n_split=3, solver=SolverOptions(max_iter=1))
        with pytest.raises(ConvergenceError) as err:
            mrp_mle(data, cfg)
        assert err.value.split_index == 0
        assert err.value.iterations == 1 and err.value.grad_inf_norm > 1e-10
        with pytest.raises(ConvergenceError) as err:
            rp_mle(data, EstimatorConfig(method="rp", seed=0, solver=SolverOptions(max_iter=1)))
        assert err.value.split_index == 0

    def test_all_zeros_splits_converge_in_few_iterations(self):
        # criterion 5's setting: the optimum sits at zero, where the loss
        # differences of late Newton steps are below the loss's round-off;
        # a line search that trusts them stalls for up to max_iter iterations
        gt = GroundTruth(np.zeros(50), np.zeros(10_000))
        data = sample_responses(gt, 0.2, seed=0, mode="uniform-mp")
        est = mrp_mle(data, EstimatorConfig(method="mrp", seed=0, n_split=50))
        assert len(est.solve_results) == 50
        assert all(r.converged and r.iterations <= 4 for r in est.solve_results)

    def test_log_odds_start_saves_newton_iterations(self):
        # the paper's sparse setting; from a zero start the 50 splits take
        # about 300 iterations in all, from the log-odds start under 200
        gt = sample_ground_truth(10_000, 50, "standard-normal", seed=0)
        data = sample_responses(gt, 0.1, seed=0)
        est = mrp_mle(data, EstimatorConfig(method="mrp", seed=0, n_split=50))
        assert len(est.solve_results) == 50
        assert all(r.converged for r in est.solve_results)
        assert sum(r.iterations for r in est.solve_results) <= 220


class TestPseudoEstimators:
    def test_wp_equals_pmle_when_all_users_have_two_responses(self):
        _, data = _pair_data(500, seed=6)
        a = wp_mle(data)
        b = pmle(data)
        np.testing.assert_array_equal(a.theta_hat, b.theta_hat)

    def test_wp_equals_pmle_up_to_scaling_for_equal_mt(self):
        gt = sample_ground_truth(500, 5, "standard-normal", seed=7)
        data = sample_responses(gt, 0.8, seed=7, mode="uniform-mp")  # m_t = 4 for all
        np.testing.assert_allclose(wp_mle(data).theta_hat, pmle(data).theta_hat, atol=1e-8)

    def test_rp_equals_pmle_bitwise_for_forced_pairing(self):
        _, data = _pair_data(500, seed=8)
        a = rp_mle(data, EstimatorConfig(method="rp", seed=8))
        b = pmle(data)
        np.testing.assert_array_equal(a.theta_hat, b.theta_hat)

    def test_unconverged_pseudo_fit_raises(self):
        data = _six_item_data(1)
        for fit, method in ((wp_mle, "wp"), (pmle, "pmle")):
            with pytest.raises(ConvergenceError) as err:
                fit(data, EstimatorConfig(method=method, solver=SolverOptions(max_iter=1)))
            assert err.value.split_index is None

    def test_wp_deterministic(self):
        gt = sample_ground_truth(300, 6, "standard-normal", seed=9)
        data = sample_responses(gt, 0.5, seed=9)
        assert wp_mle(data).to_json() == wp_mle(data).to_json()

    def test_label_permutation_equivariance_of_wp(self):
        gt = sample_ground_truth(400, 6, "standard-normal", seed=10)
        data = sample_responses(gt, 0.7, seed=10)
        perm = np.array([3, 5, 0, 1, 4, 2])
        permuted = ResponseData(data.n_users, data.n_items, data.user_ids,
                                perm[data.item_ids], data.responses)
        a = wp_mle(data).theta_hat
        b = wp_mle(permuted).theta_hat
        assert np.abs(b[perm] - a).max() <= 1e-8

    def test_rp_permutation_equivariance_in_distribution(self):
        # split randomness is keyed to the data layout, so a fixed seed does
        # not commute with relabeling; the estimator distribution does
        gt = GroundTruth(np.array([0.6, -0.6, 0.0]), np.zeros(3000))
        data = sample_responses(gt, 1.0, seed=11)
        perm = np.array([2, 0, 1])
        permuted = ResponseData(data.n_users, data.n_items, data.user_ids,
                                perm[data.item_ids], data.responses)
        a = np.mean([rp_mle(data, EstimatorConfig(method="rp", seed=s)).theta_hat
                     for s in range(30)], axis=0)
        b = np.mean([rp_mle(permuted, EstimatorConfig(method="rp", seed=s)).theta_hat
                     for s in range(30)], axis=0)
        assert np.abs(b[perm] - a).max() <= 0.05

    def test_mrp_approaches_wp_as_splits_grow(self):
        gt = sample_ground_truth(2000, 8, "standard-normal", seed=12)
        data = sample_responses(gt, 0.5, seed=12)
        wp = wp_mle(data).theta_hat
        est = mrp_mle(data, EstimatorConfig(method="mrp", seed=12, n_split=100))
        running = np.cumsum(est.per_split_estimates, axis=0)
        running /= np.arange(1, 101)[:, None]
        gap10 = np.abs(running[9] - wp).max()
        gap100 = np.abs(running[99] - wp).max()
        assert gap100 <= 3.0 * gap10


class TestDispatchAndSerialization:
    def test_estimate_dispatch(self):
        _, data = _pair_data(100, seed=13)
        for method in ("rp", "mrp", "wp", "pmle"):
            est = estimate(data, EstimatorConfig(method=method, seed=13))
            assert est.method == method

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            EstimatorConfig(method="spectral")

    @pytest.mark.parametrize("kwargs", [
        {"n_split": 2.5}, {"n_split": 2.0}, {"n_split": True}, {"n_split": 0}, {"n_split": "3"},
        {"seed": -1}, {"seed": 1.0}, {"seed": False}, {"seed": None},
    ])
    def test_config_rejects_a_non_integer_split_count_or_seed(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            EstimatorConfig(method="mrp", **kwargs)

    def test_config_takes_numpy_integers(self):
        cfg = EstimatorConfig(method="mrp", seed=np.int64(3), n_split=np.int32(2))
        _, data = _pair_data(100, seed=3)
        want = mrp_mle(data, EstimatorConfig(method="mrp", seed=3, n_split=2))
        assert mrp_mle(data, cfg).theta_hat.tobytes() == want.theta_hat.tobytes()

    def test_json_round_trip(self):
        _, data = _pair_data(100, seed=14)
        est = mrp_mle(data, EstimatorConfig(method="mrp", seed=14, n_split=2))
        back = ItemEstimate.from_json(est.to_json())
        np.testing.assert_array_equal(back.theta_hat, est.theta_hat)
        assert (back.method, back.seed, back.n_split) == ("mrp", 14, 2)

    def test_report_summarizes_solves(self):
        _, data = _pair_data(100, seed=15)
        est = mrp_mle(data, EstimatorConfig(method="mrp", seed=15, n_split=3))
        report = est.report
        assert report["solves"] == 3 and report["converged"]
        assert report["max_grad_inf_norm"] <= 1e-10


class TestTopK:
    def _est(self, theta):
        return ItemEstimate(theta_hat=np.asarray(theta, float), method="wp",
                            seed=None, n_split=None)

    def test_basic_selection(self):
        assert top_k(self._est([0.3, -0.1, 0.5]), 2) == {2, 0}

    def test_all_items(self):
        assert top_k(self._est([0.3, -0.1, 0.5]), 3) == {0, 1, 2}

    def test_tie_broken_by_lowest_index(self):
        assert top_k(self._est([0.5, 0.5, 0.1]), 1) == {0}

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            top_k(self._est([0.0, 1.0]), 3)

    def test_recovery_extremes(self):
        est = self._est([3.0, 2.0, 1.0, 0.0])
        assert top_k_recovery_rate(est, {0, 1}) == 1.0
        assert top_k_recovery_rate(est, {2, 3}) == 0.0

    def test_planted_instance_exact_recovery(self):
        from rasch.experiments import planted_theta
        theta = planted_theta(m=20, K=4, delta=0.8)
        assert abs(theta.mean()) <= 1e-12
        gt = GroundTruth(theta, np.zeros(8000))
        data = sample_responses(gt, 0.5, seed=16)
        est = rp_mle(data, EstimatorConfig(method="rp", seed=16))
        assert top_k(est, 4) == {0, 1, 2, 3}
        assert top_k_recovery_rate(est, {0, 1, 2, 3}) == 1.0
