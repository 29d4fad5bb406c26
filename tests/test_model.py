import json

import numpy as np
import pytest

from rasch import _rng
from rasch.errors import DataFormatError
from rasch.estimators import EstimatorConfig, mrp_mle
from rasch.inference import plugin_covariance
from rasch.model import (
    GroundTruth,
    ResponseData,
    condition_numbers,
    rasch_response_prob,
    sample_ground_truth,
    sample_responses,
    sigmoid,
    sigmoid_deriv,
)


def _two_branch_sigmoid(x):
    """Reference logistic: ``1 / (1 + e^-x)`` for x >= 0, ``e^x / (1 + e^x)`` below."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


SPECIAL_X = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 800.0, -800.0,
                      5e-324, -5e-324, 1e-320, -1e-320, 1e-310, -1e-310, 2.2250738585072014e-308,
                      36.7, -36.7, 709.8, -709.8, 745.2, -745.2])


class TestLogistic:
    def test_bit_identical_to_the_two_branch_formula(self):
        rng = np.random.default_rng(0)
        for x in (SPECIAL_X, np.linspace(-50.0, 50.0, 2001),
                  rng.standard_normal((37, 29)) * 20.0):
            got = sigmoid(x)
            assert got.shape == x.shape and got.dtype == np.float64
            assert got.tobytes() == _two_branch_sigmoid(x).tobytes()

    def test_numerator_matches_the_where_form(self):
        # the numerator max(t, x >= 0) is 1 for x >= 0 and t = exp(-|x|)
        # below, NaN kept: the same bits as selecting it with np.where
        def where_form(x):
            t = np.exp(np.minimum(x, -x))
            return np.where(x >= 0, 1.0, t) / (1.0 + t)

        x = np.random.default_rng(1).normal(0.0, 3.0, 99_600)
        for values in (SPECIAL_X, x):
            assert sigmoid(values).tobytes() == where_form(values).tobytes()
            assert sigmoid(values).tobytes() == _two_branch_sigmoid(values).tobytes()

    def test_zero_d_input_returns_float(self):
        for v in SPECIAL_X:
            got = sigmoid(np.float64(v))
            assert type(got) is float
            assert np.float64(got).tobytes() == _two_branch_sigmoid(np.array([v])).tobytes()
        assert type(sigmoid(2)) is float

    def test_complement_identity_on_grid(self):
        x = np.linspace(-40.0, 40.0, 4001)
        np.testing.assert_allclose(sigmoid(x) + sigmoid(-x), 1.0, atol=1e-15, rtol=0)

    def test_open_unit_interval(self):
        x = np.linspace(-36.0, 36.0, 1001)
        s = sigmoid(x)
        assert np.all(s > 0) and np.all(s < 1)

    def test_deriv_matches_product_form(self):
        x = np.linspace(-30.0, 30.0, 601)
        np.testing.assert_allclose(sigmoid_deriv(x), sigmoid(x) * sigmoid(-x), rtol=1e-12)


class TestGroundTruth:
    def test_mean_shift_at_construction(self):
        gt = GroundTruth([1.0, 2.0, 3.0], [0.5])
        np.testing.assert_allclose(gt.theta_star, [-1.0, 0.0, 1.0])
        assert abs(gt.theta_star.mean()) <= 1e-12

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            GroundTruth([0.0, np.inf], [0.0])

    def test_json_round_trip(self):
        gt = GroundTruth([0.25, -0.25], [1.0, -1.0, 0.0])
        back = GroundTruth.from_json(gt.to_json())
        np.testing.assert_array_equal(back.theta_star, gt.theta_star)
        np.testing.assert_array_equal(back.zeta_star, gt.zeta_star)


class TestSampleGroundTruth:
    def test_all_zeros(self):
        gt = sample_ground_truth(3, 5, "all-zeros", seed=0)
        np.testing.assert_array_equal(gt.theta_star, np.zeros(5))
        np.testing.assert_array_equal(gt.zeta_star, np.zeros(3))

    def test_uniform_range_bound(self):
        # uniform on [0, 10] keeps every pairwise gap within 10
        gt = sample_ground_truth(200, 200, "uniform:10", seed=1)
        assert gt.theta_star.max() - gt.theta_star.min() <= 10.0
        assert condition_numbers(gt).kappa1 <= np.exp(10.0)

    def test_explicit_is_mean_shifted(self):
        gt = sample_ground_truth(2, 3, "explicit:1,2,3", seed=0, zeta_spec="all-zeros")
        np.testing.assert_allclose(gt.theta_star, [-1.0, 0.0, 1.0])

    def test_normal_specs_shift_both_vectors(self):
        gt = sample_ground_truth(50, 20, "standard-normal", seed=3)
        assert abs(gt.theta_star.mean()) <= 1e-12
        assert abs(gt.zeta_star.mean()) <= 1e-12

    def test_unknown_spec_rejected(self):
        with pytest.raises(ValueError):
            sample_ground_truth(2, 2, "cauchy", seed=0)


class TestResponseProb:
    def test_symmetric_point(self):
        assert rasch_response_prob(0.0, 0.0) == 0.5

    def test_log_three_gap(self):
        assert rasch_response_prob(np.log(3.0), 0.0) == pytest.approx(0.75, abs=1e-12)
        assert rasch_response_prob(-np.log(3.0), 0.0) == pytest.approx(0.25, abs=1e-12)


class TestSampleResponses:
    def test_full_sampling_edge_count(self):
        gt = sample_ground_truth(2, 3, "all-zeros", seed=0)
        data = sample_responses(gt, 1.0, seed=0)
        assert data.n_edges == 6

    def test_empty_at_p_zero(self):
        gt = sample_ground_truth(2, 3, "all-zeros", seed=0)
        assert sample_responses(gt, 0.0, seed=0).n_edges == 0

    def test_monte_carlo_mean_at_even_odds(self):
        gt = GroundTruth(np.zeros(2), np.zeros(100_000))
        data = sample_responses(gt, 1.0, seed=7)
        assert 0.497 <= data.responses.mean() <= 0.503

    def test_pure_function_of_seed(self):
        gt = sample_ground_truth(40, 10, "standard-normal", seed=5)
        a = sample_responses(gt, 0.3, seed=11)
        b = sample_responses(gt, 0.3, seed=11)
        assert np.array_equal(a.user_ids, b.user_ids)
        assert np.array_equal(a.item_ids, b.item_ids)
        assert np.array_equal(a.responses, b.responses)
        c = sample_responses(gt, 0.3, seed=12)
        assert not np.array_equal(a.responses, c.responses)

    @pytest.mark.parametrize("p", [0.0, 0.1, 0.5, 1.0])
    def test_bernoulli_matches_a_nonzero_oracle(self, p):
        gt = sample_ground_truth(300, 17, "standard-normal", seed=6)
        data = sample_responses(gt, p, seed=8)
        mask = _rng.substream(8, _rng.EDGES).random((300, 17)) < p
        users, items = np.nonzero(mask)
        probs = _two_branch_sigmoid(gt.theta_star[items] - gt.zeta_star[users])
        resp = (_rng.substream(8, _rng.RESPONSES).random(users.size) < probs).astype(np.int64)
        for got, want, dtype in ((data.user_ids, users, np.int32),
                                 (data.item_ids, items, np.int32),
                                 (data.responses, resp, np.int8)):
            assert got.dtype == dtype
            assert got.tobytes() == want.astype(dtype).tobytes()

    def test_uniform_mp_exact_degrees(self):
        gt = sample_ground_truth(500, 10, "standard-normal", seed=2)
        data = sample_responses(gt, 0.4, seed=2, mode="uniform-mp")
        np.testing.assert_array_equal(data.user_degrees(), np.full(500, 4))

    def test_uniform_mp_rejects_fractional(self):
        gt = sample_ground_truth(5, 10, "all-zeros", seed=0)
        with pytest.raises(ValueError):
            sample_responses(gt, 0.35, seed=0, mode="uniform-mp")

    def test_translation_invariance_bitwise(self):
        # the factory normalizes both vectors, so a joint shift of the raw
        # parameters is removed exactly (dyadic values keep the floats exact)
        def spec(v):
            return "explicit:" + ",".join(str(x) for x in v)

        theta = np.array([0.25, -0.75, 0.5])
        zeta = np.array([0.5, -0.5, 0.125, -0.125])
        base = sample_ground_truth(4, 3, spec(theta), seed=9, zeta_spec=spec(zeta))
        shifted = sample_ground_truth(4, 3, spec(theta + 2.0), seed=9,
                                      zeta_spec=spec(zeta + 2.0))
        np.testing.assert_array_equal(base.theta_star, shifted.theta_star)
        np.testing.assert_array_equal(base.zeta_star, shifted.zeta_star)
        a = sample_responses(base, 0.8, seed=9)
        b = sample_responses(shifted, 0.8, seed=9)
        assert np.array_equal(a.responses, b.responses)
        assert np.array_equal(a.item_ids, b.item_ids)


class TestConditionNumbers:
    def test_degenerate(self):
        gt = GroundTruth(np.zeros(4), np.zeros(3))
        cn = condition_numbers(gt)
        assert (cn.kappa1, cn.kappa2, cn.kappa) == (1.0, 1.0, 1.0)

    def test_direct_formula(self):
        cn = condition_numbers(GroundTruth([-1.0, 1.0], [0.0]))
        assert cn.kappa1 == pytest.approx(np.exp(2.0))
        assert cn.kappa2 == pytest.approx(np.exp(1.0))
        assert cn.kappa == pytest.approx(np.exp(2.0))

    def test_wide_case(self):
        cn = condition_numbers(GroundTruth([-5.0, 5.0], [-5.0, 5.0]))
        assert cn.kappa == pytest.approx(np.exp(10.0))


class TestResponseData:
    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            ResponseData(2, 2, [0, 0], [1, 1], [0, 1])

    @pytest.mark.parametrize("users, items", [
        ([0, 0, 1, 1], [0, 1, 1, 1]),  # sorted
        ([1, 0, 1, 0], [1, 0, 1, 1]),  # unsorted
    ])
    def test_rejects_duplicates_in_any_order(self, users, items):
        with pytest.raises(ValueError, match=r"^duplicate \(user, item\) pair$"):
            ResponseData(2, 2, users, items, [0, 1, 1, 0])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ResponseData(2, 2, [0, 2], [0, 1], [0, 1])

    @pytest.mark.parametrize("users, items, resp, message", [
        ([0, 2], [0, 1], [0, 1], "user_id out of range"),
        ([-1, 0], [0, 1], [0, 1], "user_id out of range"),
        ([0, 1], [0, 2], [0, 1], "item_id out of range"),
        ([1, 0], [-1, 1], [0, 1], "item_id out of range"),
        ([0, 1], [0, 1], [0, 2], "responses must be 0 or 1"),
        ([1, 0], [0, 1], [-1, 0], "responses must be 0 or 1"),
        ([0, 1], [0], [0, 1], "edge arrays must be 1-d and of equal length"),
        ([[0, 1]], [[0, 1]], [[0, 1]], "edge arrays must be 1-d and of equal length"),
    ])
    def test_error_messages(self, users, items, resp, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            ResponseData(2, 2, users, items, resp)

    @pytest.mark.parametrize("n_users, n_items", [(2, 0), (2, -2), (-1, 2)])
    def test_rejects_sizes_out_of_range(self, n_users, n_items):
        # before the size check these built (n_items <= 0) or failed inside
        # bincount (n_users = -1); an empty item set made rp_mle raise
        # IndexError and wp_mle ZeroDivisionError later
        with pytest.raises(ValueError, match=r"^n_users must be in \[0, 2\*\*31\) and n_items in "):
            ResponseData(n_users, n_items, [], [], [])

    @pytest.mark.parametrize("order", [[0, 1, 2], [2, 0, 1], []])
    def test_stores_read_only_copies(self, order):
        users = np.array([0, 1, 1], dtype=np.int64)[order]
        items = np.array([1, 0, 1], dtype=np.int64)[order]
        resp = np.array([1, 0, 1], dtype=np.int64)[order]
        given = [a.copy() for a in (users, items, resp)]
        data = ResponseData(2, 2, users, items, resp)
        before = [a.copy() for a in (data.user_ids, data.item_ids, data.responses)]
        # the caller's arrays, the int64 user ids taken without a copy
        # included, are read and never written
        for arr, kept in zip((users, items, resp), given):
            assert np.array_equal(arr, kept)
        # read-only input builds, and bool responses build the same arrays
        frozen = [a.copy() for a in (users, items, resp)]
        for arr in frozen:
            arr.setflags(write=False)
        for data_again in (ResponseData(2, 2, *frozen),
                           ResponseData(2, 2, users, items, resp.astype(bool))):
            for name in ("item_ids", "responses", "user_indptr"):
                got, want = getattr(data_again, name), getattr(data, name)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        for arr in (users, items, resp):
            assert arr.flags.writeable
            arr[...] = 0
        for stored, kept in zip((data.user_ids, data.item_ids, data.responses), before):
            assert not stored.flags.writeable
            assert np.array_equal(stored, kept)
            with pytest.raises(ValueError):
                stored[...] = 0

    def test_offsets_are_read_only(self):
        data = sample_responses(sample_ground_truth(200, 8, "standard-normal", seed=2), 0.4, seed=2)
        cfg = EstimatorConfig(method="mrp", seed=3, n_split=4)
        est = mrp_mle(data, cfg)
        cov = plugin_covariance(data, est).Sigma_hat
        assert data.user_indptr.dtype == np.int64 and not data.user_indptr.flags.writeable
        with pytest.raises(ValueError):
            data.user_indptr[1] = 0
        after = mrp_mle(data, cfg)
        assert after.theta_hat.tobytes() == est.theta_hat.tobytes()
        assert plugin_covariance(data, after).Sigma_hat.tobytes() == cov.tobytes()

    def test_equality_is_identity_and_repr_is_short(self):
        data = ResponseData(3, 4, [0, 0, 2], [1, 3, 0], [1, 0, 1])
        copy = ResponseData(3, 4, data.user_ids, data.item_ids, data.responses)
        assert (data == data) is True
        assert (data == copy) is False and (data != copy) is True
        assert len({data, copy, data}) == 2
        assert repr(data) == "ResponseData(n_users=3, n_items=4, n_edges=3)"

    def test_csv_round_trip(self, tmp_path):
        gt = sample_ground_truth(20, 6, "standard-normal", seed=4)
        data = sample_responses(gt, 0.5, seed=4)
        path = tmp_path / "resp.csv"
        data.to_csv(path)
        back = ResponseData.from_csv(path, n_users=20, n_items=6)
        assert np.array_equal(back.user_ids, data.user_ids)
        assert np.array_equal(back.item_ids, data.item_ids)
        assert np.array_equal(back.responses, data.responses)

    def test_csv_reports_line_numbers(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("user_id,item_id,response\n0,0,1\n0,1\n")
        with pytest.raises(DataFormatError, match="line 3"):
            ResponseData.from_csv(path)

    def test_csv_rejects_bad_response_value(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("user_id,item_id,response\n0,0,2\n")
        with pytest.raises(DataFormatError, match="line 2"):
            ResponseData.from_csv(path)

    def test_correct_column_is_inverted(self, tmp_path):
        path = tmp_path / "corr.csv"
        path.write_text("user_id,item_id,correct\n0,0,1\n0,1,0\n")
        data = ResponseData.from_csv(path)
        np.testing.assert_array_equal(data.responses, [0, 1])
