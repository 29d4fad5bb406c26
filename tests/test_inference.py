import numpy as np
import pytest

from rasch.errors import EstimationError
from rasch.estimators import EstimatorConfig, ItemEstimate, mrp_mle, pmle, rp_mle, wp_mle
from rasch.inference import (
    InferenceReport,
    beta_for_point_mass,
    confidence_intervals,
    empirical_coverage,
    normal_quantile,
    plugin_covariance,
    special_case_covariance,
)
from rasch.model import GroundTruth, sample_ground_truth, sample_responses
from rasch.pairing import PRODUCT_LIMIT, _pseudo_wins


class TestNormalQuantile:
    def test_anchors(self):
        assert normal_quantile(0.5) == 0.0
        assert normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-6)
        assert normal_quantile(0.025) == pytest.approx(-1.959964, abs=1e-6)

    def test_strictly_increasing(self):
        ps = np.linspace(0.001, 0.999, 199)
        qs = [normal_quantile(p) for p in ps]
        assert np.all(np.diff(qs) > 0)

    def test_against_scipy_oracle(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        for p in [1e-8, 1e-4, 0.01, 0.3, 0.5, 0.77, 0.99, 1 - 1e-6]:
            assert normal_quantile(p) == pytest.approx(scipy_stats.norm.ppf(p), abs=1e-9)

    def test_domain(self):
        with pytest.raises(ValueError):
            normal_quantile(0.0)
        with pytest.raises(ValueError):
            normal_quantile(1.0)


def _symmetric_two_item(n=2000, seed=0):
    gt = GroundTruth(np.zeros(2), np.zeros(n))
    return gt, sample_responses(gt, 1.0, seed=seed)


class TestPluginCovariance:
    def test_symmetric_items_have_equal_variance(self):
        _, data = _symmetric_two_item(seed=1)
        est = wp_mle(data)
        cov = plugin_covariance(data, est)
        d = np.diag(cov.Sigma_hat)
        # two exchangeable items: the sandwich treats them identically
        assert abs(d[0] - d[1]) <= 1e-10 * max(d)

    def test_null_space_structure(self):
        gt = sample_ground_truth(800, 6, "standard-normal", seed=2)
        data = sample_responses(gt, 0.8, seed=2)
        est = mrp_mle(data, EstimatorConfig(method="mrp", seed=2, n_split=5))
        cov = plugin_covariance(data, est)
        one = np.ones(6)
        assert np.abs(cov.H_hat @ one).max() <= 1e-12
        assert np.abs(cov.V_diff_hat @ one).max() <= 1e-12
        assert np.abs(cov.Sigma_hat @ one).max() <= 1e-12

    def test_regenerated_splits_match_retained_objectives(self):
        gt = sample_ground_truth(500, 5, "standard-normal", seed=3)
        data = sample_responses(gt, 0.9, seed=3)
        est = mrp_mle(data, EstimatorConfig(method="mrp", seed=3, n_split=4))
        stripped = type(est)(theta_hat=est.theta_hat, method="mrp", seed=3, n_split=4)
        a = plugin_covariance(data, est)
        b = plugin_covariance(data, stripped)
        np.testing.assert_allclose(a.H_hat, b.H_hat, atol=1e-15)
        np.testing.assert_allclose(a.Sigma_hat, b.Sigma_hat, atol=1e-15)

    def test_wp_covariance_reuses_the_fitted_win_matrix(self):
        n = (PRODUCT_LIMIT - 1) // 6**2 + 476  # two blocks of users
        gt = sample_ground_truth(n, 6, "standard-normal", seed=11)
        data = sample_responses(gt, 0.6, seed=11)
        est = wp_mle(data)
        assert est.split_wins.shape == (1, 6, 6)
        assert est.split_wins[0].tobytes() == _pseudo_wins(data, "wp").tobytes()
        assert pmle(data).split_wins[0].tobytes() == _pseudo_wins(data, "pmle").tobytes()
        # an estimate with no stored matrix, as loaded from JSON, rebuilds it
        bare = ItemEstimate(theta_hat=est.theta_hat, method="wp", seed=None, n_split=None)
        kept, rebuilt = plugin_covariance(data, est), plugin_covariance(data, bare)
        for name in ("H_hat", "V_diff_hat", "Sigma_hat"):
            assert getattr(kept, name).tobytes() == getattr(rebuilt, name).tobytes()

    def test_pmle_estimates_rejected(self):
        _, data = _symmetric_two_item(seed=4)
        from rasch.estimators import pmle
        with pytest.raises(ValueError):
            plugin_covariance(data, pmle(data))

    def test_diagonal_matches_monte_carlo_variance(self):
        # single-split estimates refit over fresh data draws; the finite-split
        # sandwich (V_same at n_split = 1) should match their spread
        n, m, p = 10_000, 20, 0.5
        gt = GroundTruth(np.zeros(m), np.zeros(n))
        estimates = []
        for s in range(1000):
            data = sample_responses(gt, p, seed=s)
            estimates.append(rp_mle(data, EstimatorConfig(method="rp", seed=s)).theta_hat)
        mc_var = np.var(np.asarray(estimates), axis=0, ddof=1)
        data = sample_responses(gt, p, seed=123_456)
        est = rp_mle(data, EstimatorConfig(method="rp", seed=123_456))
        cov = plugin_covariance(data, est, exact_split_mixture=True)
        ratio = np.diag(cov.Sigma_hat) / mc_var
        assert np.all(ratio >= 0.85) and np.all(ratio <= 1.15)

    def test_v_same_dominates_v_diff(self):
        gt = sample_ground_truth(3000, 8, "standard-normal", seed=5)
        data = sample_responses(gt, 0.6, seed=5)
        est = mrp_mle(data, EstimatorConfig(method="mrp", seed=5, n_split=10))
        cov = plugin_covariance(data, est, exact_split_mixture=True)
        gap = cov.V_same_hat - cov.V_diff_hat
        scale = np.linalg.norm(cov.V_same_hat, 2)
        assert np.linalg.eigvalsh(gap)[0] >= -1e-6 * scale


class TestSpecialCase:
    def test_beta_point_mass_values(self):
        assert beta_for_point_mass(0.0) == 0.25
        assert beta_for_point_mass(2.0) == pytest.approx(np.exp(2) / (1 + np.exp(2)) ** 2)
        assert beta_for_point_mass(-2.0) == beta_for_point_mass(2.0)

    def test_scalar_factor_and_split_limit(self):
        m, p = 50, 0.2
        one = special_case_covariance(m, p, beta=0.25, n_split=1)
        assert one[0, 0] == pytest.approx(2 * 49 / (0.25 * 10) * (1 - 1 / m))
        limit = special_case_covariance(m, p, beta=0.25, n_split=None)
        # infinite-split covariance shrinks by mp / (2 mp - 2)
        assert limit[0, 0] / one[0, 0] == pytest.approx(10 / 18)
        many = special_case_covariance(m, p, beta=0.25, n_split=10 ** 9)
        np.testing.assert_allclose(many, limit, rtol=1e-6)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            special_case_covariance(10, 0.25, beta=0.25)  # mp = 2.5 not integral
        with pytest.raises(ValueError):
            special_case_covariance(10, 0.3, beta=0.25)  # mp = 3 odd
        with pytest.raises(ValueError):
            special_case_covariance(10, 0.4, beta=0.3)  # beta > 1/4

    def test_wp_sandwich_converges_to_closed_form(self):
        # exchangeable special case: n * Sigma_hat averaged over trials matches
        # the infinite-split covariance entrywise within 15%
        n, m, p = 10_000, 20, 0.2
        gt = GroundTruth(np.zeros(m), np.zeros(n))
        acc = np.zeros((m, m))
        trials = 200
        for s in range(trials):
            data = sample_responses(gt, p, seed=s, mode="uniform-mp")
            est = wp_mle(data)
            acc += n * plugin_covariance(data, est).Sigma_hat
        acc /= trials
        want = special_case_covariance(m, p, beta=0.25, n_split=None)
        assert np.abs(acc - want).max() <= 0.15 * np.abs(want).max()
        # entrywise relative agreement on the two distinct entry values
        assert acc[0, 0] == pytest.approx(want[0, 0], rel=0.15)
        assert acc[0, 1] == pytest.approx(want[0, 1], rel=0.15)

    def test_single_split_sandwich_matches_closed_form(self):
        # rp: the within-split score covariance is the curvature, so n * Sigma_hat
        # is the inverse curvature, the n_split = 1 closed form, on every draw
        n, m, p = 10_000, 20, 0.5
        gt = GroundTruth(np.zeros(m), np.zeros(n))
        want = special_case_covariance(m, p, beta_for_point_mass(0.0), n_split=1)
        for s in range(5):
            data = sample_responses(gt, p, seed=s, mode="uniform-mp")
            est = rp_mle(data, EstimatorConfig(method="rp", seed=s))
            got = n * plugin_covariance(data, est).Sigma_hat
            assert np.linalg.norm(got - want) <= 0.05 * np.linalg.norm(want)

    def test_mrp_mixture_sandwich_matches_finite_split_formula(self):
        n, m, p, ns = 10_000, 20, 0.2, 10
        gt = GroundTruth(np.zeros(m), np.zeros(n))
        acc = np.zeros((m, m))
        trials = 40
        for s in range(trials):
            data = sample_responses(gt, p, seed=s, mode="uniform-mp")
            est = mrp_mle(data, EstimatorConfig(method="mrp", seed=s, n_split=ns))
            acc += n * plugin_covariance(data, est, exact_split_mixture=True).Sigma_hat
        acc /= trials
        want = special_case_covariance(m, p, beta=0.25, n_split=ns)
        assert acc[0, 0] == pytest.approx(want[0, 0], rel=0.15)
        assert acc[0, 1] == pytest.approx(want[0, 1], rel=0.15)


class TestConfidenceIntervals:
    def _unit_cov(self, m, n=1):
        from rasch.inference import PluginCovariance
        eye = np.eye(m) - np.full((m, m), 1.0 / m)
        return PluginCovariance(H_hat=eye, V_diff_hat=eye, Sigma_hat=np.eye(m), n=n)

    def test_unit_variance_quantile_width(self):
        est = _fake_estimate(np.zeros(3))
        rep = confidence_intervals(est, self._unit_cov(3), alpha=0.05)
        np.testing.assert_allclose(rep.ci_upper, 1.959964, atol=1e-6)
        np.testing.assert_allclose(rep.ci_lower, -1.959964, atol=1e-6)

    def test_bonferroni_widens(self):
        est = _fake_estimate(np.zeros(4))
        plain = confidence_intervals(est, self._unit_cov(4), alpha=0.05)
        bonf = confidence_intervals(est, self._unit_cov(4), alpha=0.05, bonferroni=True)
        assert np.all(bonf.ci_upper > plain.ci_upper)
        z = normal_quantile(1 - 0.05 / 4 / 2)
        np.testing.assert_allclose(bonf.ci_upper, z, atol=1e-12)

    def test_alpha_monotonicity(self):
        est = _fake_estimate(np.array([0.2, -0.2]))
        wide = confidence_intervals(est, self._unit_cov(2), alpha=0.01)
        narrow = confidence_intervals(est, self._unit_cov(2), alpha=0.5)
        assert np.all(narrow.ci_upper < wide.ci_upper)
        assert np.all(narrow.ci_lower > wide.ci_lower)

    def test_alpha_domain(self):
        est = _fake_estimate(np.zeros(2))
        with pytest.raises(ValueError):
            confidence_intervals(est, self._unit_cov(2), alpha=0.0)

    def test_width_shrinks_like_root_n(self):
        m, p = 10, 0.5
        gt = GroundTruth(np.zeros(m), np.zeros(16_000))
        widths = {}
        for n in (4000, 16_000):
            gt_n = GroundTruth(np.zeros(m), np.zeros(n))
            w = []
            for s in range(8):
                data = sample_responses(gt_n, p, seed=s)
                est = mrp_mle(data, EstimatorConfig(method="mrp", seed=s, n_split=5))
                rep = confidence_intervals(est, plugin_covariance(data, est), alpha=0.1)
                w.append(float(np.mean(rep.ci_upper - rep.ci_lower)))
            widths[n] = np.mean(w)
        assert widths[4000] / widths[16_000] == pytest.approx(2.0, rel=0.10)


    @pytest.mark.parametrize("n_split", [1, 5])
    def test_default_intervals_cover_at_every_n_split(self, n_split):
        # 60 draws x 20 items = 1,200 nominal 95% intervals per split count
        n, m, p = 10_000, 20, 0.5
        trials = []
        for s in range(1000, 1060):
            gt = sample_ground_truth(n, m, "standard-normal", seed=s)
            data = sample_responses(gt, p, seed=s)
            est = mrp_mle(data, EstimatorConfig(method="mrp", seed=s, n_split=n_split))
            trials.append((confidence_intervals(est, plugin_covariance(data, est), alpha=0.05), gt))
        assert 0.93 <= empirical_coverage(trials) <= 0.97

def _fake_estimate(theta):
    from rasch.estimators import ItemEstimate
    return ItemEstimate(theta_hat=theta, method="wp", seed=None, n_split=None)


class TestCoverage:
    def test_huge_intervals_cover(self):
        rep = InferenceReport(theta_hat=np.zeros(3), variance_diag=np.ones(3),
                              ci_lower=np.full(3, -1e9), ci_upper=np.full(3, 1e9),
                              alpha=0.05, bonferroni=False)
        gt = GroundTruth([0.5, -0.25, -0.25], [0.0])
        assert empirical_coverage([(rep, gt)]) == 1.0

    def test_tiny_intervals_off_target_miss(self):
        theta_hat = np.array([1.0, -1.0])
        rep = InferenceReport(theta_hat=theta_hat, variance_diag=np.full(2, 1e-24),
                              ci_lower=theta_hat - 1e-12, ci_upper=theta_hat + 1e-12,
                              alpha=0.05, bonferroni=False)
        gt = GroundTruth([0.5, -0.5], [0.0])
        assert empirical_coverage([(rep, gt)]) == 0.0

    def test_pools_items_across_trials(self):
        rep_hit = InferenceReport(theta_hat=np.zeros(2), variance_diag=np.ones(2),
                                  ci_lower=np.full(2, -1.0), ci_upper=np.full(2, 1.0),
                                  alpha=0.1, bonferroni=False)
        rep_half = InferenceReport(theta_hat=np.zeros(2), variance_diag=np.ones(2),
                                   ci_lower=np.array([-1.0, 2.0]),
                                   ci_upper=np.array([1.0, 3.0]),
                                   alpha=0.1, bonferroni=False)
        gt = GroundTruth([0.25, -0.25], [0.0])
        assert empirical_coverage([(rep_hit, gt), (rep_half, gt)]) == 0.75

    def test_report_serialization(self, tmp_path):
        rep = InferenceReport(theta_hat=np.array([0.5, -0.5]),
                              variance_diag=np.array([0.04, 0.04]),
                              ci_lower=np.array([0.1, -0.9]),
                              ci_upper=np.array([0.9, -0.1]),
                              alpha=0.05, bonferroni=False)
        import json
        payload = json.loads(rep.to_json())
        assert payload["alpha"] == 0.05 and len(payload["ci_lower"]) == 2
        path = tmp_path / "report.csv"
        rep.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "item,theta_hat,ci_lower,ci_upper"
        assert lines[1].startswith("0,0.5,")
