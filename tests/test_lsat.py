import numpy as np
import pytest

from rasch import lsat
from rasch.experiments import lsat_top1_recovery


class TestCorpus:
    def test_totals_and_shape(self):
        mat = lsat.lsat_correct_matrix()
        assert mat.shape == (1000, 5)
        assert tuple(mat.sum(axis=0).tolist()) == lsat.LSAT_TOTALS

    def test_checksum_guard(self, monkeypatch):
        lsat.lsat_correct_matrix()  # verified once under the real checksum
        monkeypatch.setattr(lsat, "_CHECKSUM", "0" * 64)
        with pytest.raises(RuntimeError, match="checksum"):
            lsat.lsat_correct_matrix()

    def test_each_call_returns_a_fresh_array(self):
        mat = lsat.lsat_correct_matrix()
        mat[:] = 0
        assert tuple(lsat.lsat_correct_matrix().sum(axis=0).tolist()) == lsat.LSAT_TOTALS

    def test_load_uses_negative_response_convention(self):
        data = lsat.load_lsat()
        assert data.n_edges == 5000
        # problem 3 (item 2) is hardest: most negative responses
        wrong = np.bincount(data.item_ids, weights=data.responses)
        assert int(np.argmax(wrong)) == 2
        np.testing.assert_array_equal(wrong, 1000 - np.asarray(lsat.LSAT_TOTALS))


class TestSubsample:
    def test_full_subsample_is_identity_up_to_user_order(self):
        data = lsat.subsample(1000, 5, seed=1)
        assert data.n_edges == 5000
        wrong = np.bincount(data.item_ids, weights=data.responses)
        np.testing.assert_array_equal(wrong, 1000 - np.asarray(lsat.LSAT_TOTALS))

    def test_deterministic_per_trial(self):
        a = lsat.subsample(150, 3, seed=2, trial=4)
        b = lsat.subsample(150, 3, seed=2, trial=4)
        assert np.array_equal(a.responses, b.responses)
        c = lsat.subsample(150, 3, seed=2, trial=5)
        assert not np.array_equal(a.responses, c.responses)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            lsat.subsample(1001, 5, seed=0)
        with pytest.raises(ValueError):
            lsat.subsample(10, 6, seed=0)

    def test_top1_recovery_mrp_close_to_pmle(self):
        header, rows = lsat_top1_recovery(200, 4, trials=1000, n_split=20, seed=7,
                                          methods=("mrp", "pmle"))
        rates = {row[0]: row[2] for row in rows}
        assert abs(rates["mrp"] - rates["pmle"]) <= 0.1
        assert rates["mrp"] >= 0.8  # the hardest problem is easy to spot at n=200
