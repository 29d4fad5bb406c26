from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

from rasch import pairing
from rasch.model import GroundTruth, ResponseData, sample_responses
from rasch.pairing import (
    SplitAssignment,
    _pseudo_wins,
    _sorted_payload,
    btl_win_prob,
    compile_comparisons,
    disagreement_prob,
    random_split,
    split_wins,
)


def _one_user_data(responses):
    m = len(responses)
    return ResponseData(1, m, np.zeros(m, int), np.arange(m), np.asarray(responses))


def _iid_users_data(n_users, responses):
    """Many users with identical responses: one split = n_users i.i.d. splits."""
    m = len(responses)
    users = np.repeat(np.arange(n_users), m)
    items = np.tile(np.arange(m), n_users)
    resp = np.tile(np.asarray(responses), n_users)
    return ResponseData(n_users, m, users, items, resp)


class TestRandomSplit:
    def test_pair_count_odd(self):
        split = random_split(_one_user_data([0, 1, 0, 1, 1]), seed=0)
        assert split.n_pairs == 2

    def test_single_response_no_pairs(self):
        assert random_split(_one_user_data([1]), seed=0).n_pairs == 0

    def test_disjointness(self):
        data = _iid_users_data(500, [0, 1, 0, 1, 1, 0, 1])
        split = random_split(data, seed=3)
        for t in range(500):
            items = np.concatenate([split.items_hi[split.users == t],
                                    split.items_lo[split.users == t]])
            assert len(items) == len(set(items.tolist()))

    def test_matching_frequencies_uniform(self):
        # 1e5 users with 4 identical responses = 1e5 i.i.d. matching draws
        data = _iid_users_data(100_000, [0, 0, 0, 0])
        split = random_split(data, seed=5)
        assert split.n_pairs == 200_000
        # classify each user's matching by the partner of item 0
        order = np.argsort(split.users, kind="stable")
        hi = split.items_hi[order].reshape(-1, 2)
        lo = split.items_lo[order].reshape(-1, 2)
        partner_of_0 = np.where(lo[:, 0] == 0, hi[:, 0], 0)
        partner_of_0 = np.where(lo[:, 1] == 0, hi[:, 1], partner_of_0)
        freqs = np.bincount(partner_of_0, minlength=4)[1:] / 100_000
        np.testing.assert_allclose(freqs, 1 / 3, atol=0.01)

    def test_matching_uniform_across_split_indices(self):
        data = _one_user_data([0, 0, 0, 0])
        counts = {1: 0, 2: 0, 3: 0}
        n = 3000
        for k in range(n):
            split = random_split(data, seed=7, split_index=k)
            pairs = set(zip(split.items_hi.tolist(), split.items_lo.tolist()))
            partner = next(hi for hi, lo in pairs if lo == 0)
            counts[partner] += 1
        for c in counts.values():
            assert abs(c / n - 1 / 3) < 0.03

    def test_deterministic_in_seed_and_index(self):
        data = _iid_users_data(50, [0, 1, 1, 0, 1])
        a = random_split(data, seed=1, split_index=4)
        b = random_split(data, seed=1, split_index=4)
        assert np.array_equal(a.items_hi, b.items_hi) and np.array_equal(a.items_lo, b.items_lo)
        c = random_split(data, seed=1, split_index=5)
        assert not (np.array_equal(a.items_hi, c.items_hi)
                    and np.array_equal(a.items_lo, c.items_lo))

    def test_large_user_ids_pair_like_small_ones(self):
        # the float key 2 * user + key resolves fewer bits of the key as the
        # ids grow, and a tie it reports is ordered by lexsort; relabelling
        # the users order-preservingly must not move a pair
        users = np.repeat(np.arange(6), 5)
        items = np.tile(np.arange(5), 6)
        resp = np.random.default_rng(0).integers(0, 2, 30)
        spread = np.array([0, 3, 2**20, 2**20 + 7, 2**21, 2**21 + 1])
        small = ResponseData(6, 5, users, items, resp)
        large = ResponseData(2**21 + 2, 5, spread[users], items, resp)
        for k in range(3):
            a = random_split(small, seed=9, split_index=k)
            b = random_split(large, seed=9, split_index=k)
            np.testing.assert_array_equal(spread[a.users], b.users)
            for name in ("items_hi", "items_lo", "_x_hi", "_x_lo"):
                np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
        np.testing.assert_array_equal(split_wins(small, 9, 3), split_wins(large, 9, 3))
        # one draw whose keys tie as float keys at both ids pairs alike at both
        tied = [0.1, 0.5 + 2**-52, 0.5]
        assert _mocked_split(5, tied)[1:] == _mocked_split(2**20 + 5, tied)[1:]

    def test_keys_that_tie_as_float_keys_past_2_20_users_pair_in_exact_order(self):
        # near user 2**20 the float key 2 * user + key resolves 2**-31, so the
        # keys 0.5 + 2**-33 and 0.5 tie in it, across the pair boundary; the
        # exact (user, key) order pairs the edges drawn 0.1 and 0.5
        user = 2**20 + 5
        keys = [0.1, 0.5 + 2**-33, 0.5]
        assert 2.0 * user + keys[1] == 2.0 * user + keys[2]
        assert _mocked_split(user, keys) == ([user], [2], [0], ZERO_BEAT_TWO)

    def test_keys_that_tie_as_float_keys_at_small_user_ids_pair_in_exact_order(self):
        # at user 5 the float key 2 * user + key resolves 2**-49, so the keys
        # 0.5 + 2**-52 and 0.5 tie in it; the exact (user, key) order pairs
        # the edges drawn 0.1 and 0.5, as it does at user 2**20 + 5
        keys = [0.1, 0.5 + 2**-52, 0.5]
        assert 2.0 * 5 + keys[1] == 2.0 * 5 + keys[2]
        assert _mocked_split(5, keys) == ([5], [2], [0], ZERO_BEAT_TWO)


# one comparison: item 0, answered X = 1, beat item 2
ZERO_BEAT_TWO = [[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]


def _mocked_split(user, keys):
    """Users, ``items_hi``, ``items_lo`` and win matrix of the split of one
    user ``user`` who answered items 0, 1, 2 with 1, 0, 0, when the split
    stream draws ``keys``; `random_split` and `split_wins` must agree."""
    data = ResponseData(user + 1, 3, np.full(3, user), np.arange(3), np.array([1, 0, 0]))
    stream = SimpleNamespace(random=lambda out: np.copyto(out, keys))
    with mock.patch.object(pairing._rng, "substream", lambda *args: stream):
        split = random_split(data, seed=0)
        W = split_wins(data, 0, 1)[0]
    assert W.tobytes() == compile_comparisons(data, split).wins.tobytes()
    return split.users.tolist(), split.items_hi.tolist(), split.items_lo.tolist(), W.tolist()


def _ulps_above(x, n):
    """The float ``n`` ulps above the non-negative float ``x``."""
    return (np.asarray(x, float).view(np.int64) + n).view(float)


def _engine_order(key, payload, bits, width, seams):
    """The order `_split_pairs` gives ``payload`` when one user's split
    stream draws the float keys ``key``, sorted in rows of ``width`` and
    windows ``seams``: the value sort, or `np.lexsort` of the keys drawn
    again on a tie.  Read through a plan whose one "pair" slot is the whole
    order."""
    plan = pairing._SplitPlan(payload=payload, bits=bits, width=width, seams=seams,
                              user_key=np.zeros(key.size), first=slice(None), second=slice(0, 0))
    stream = SimpleNamespace(random=lambda out: np.copyto(out, key))
    with mock.patch.object(pairing._rng, "substream", lambda *args: stream):
        (order, _), = pairing._split_pairs(plan, 0, (0,))
    return order.copy()


class TestSortedPayload:
    """The packed value sort against the stable argsort it stands in for."""

    @staticmethod
    def check(key, payload, bits, degrees=None, row_keys=pairing.ROW_KEYS):
        """``key`` holds the keys of users of ``degrees``, in user order
        (default: one user, so one row), sorted in the rows and windows of
        the plan under the row-key target ``row_keys``."""
        key = np.asarray(key, float)
        payload = np.asarray(payload, np.int64)
        indptr = np.concatenate(([0], np.cumsum([key.size] if degrees is None else degrees)))
        with mock.patch.object(pairing, "ROW_KEYS", row_keys):
            width, seams = pairing._row_layout(indptr)
        want = payload[np.argsort(key, kind="stable")]
        high = np.sort(key).view(np.int64) >> bits
        tied = bool((high[1:] == high[:-1]).any())
        got = _sorted_payload(key.copy(), payload, bits, width, seams)
        # None exactly when two keys share their bits above the payload's
        assert (got is None) == tied
        if got is not None:
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(_engine_order(key, payload, bits, width, seams), want)
        return seams

    def test_distinct_keys_of_several_users(self):
        rng = np.random.default_rng(0)
        degrees = rng.integers(0, 9, 200)
        users = np.repeat(np.arange(200), degrees)
        key, payload = users * 2.0 + rng.random(users.size), rng.integers(0, 8, users.size)
        self.check(key, payload, 3)
        for row_keys in (1, 9, 16, pairing.ROW_KEYS):
            assert self.check(key, payload, 3, degrees, row_keys).size  # rows cut users

    def test_exact_ties_keep_edge_order(self):
        self.check([4.5, 4.5, 2.25, 4.5, 2.25], [6, 1, 7, 3, 0], 3)

    def test_near_ties_below_the_payload_bits(self):
        x = 6.5  # low mantissa bits all zero, so x .. x + 7 ulps share their high bits
        self.check([_ulps_above(x, 5), _ulps_above(x, 1), x, _ulps_above(x, 7)], [0, 5, 7, 2], 3)
        # 8 ulps apart is a different bucket: sorted by key, not by payload
        self.check([_ulps_above(x, 8), x], [0, 7], 3)

    def test_tiny_keys_of_user_zero(self):
        tiny = [0.0, 5e-324, 1e-323, 2.2250738585072014e-308, 1e-300, 0.0, 0.5]
        self.check(tiny, [3, 2, 1, 0, 3, 2, 1], 2)
        self.check(tiny[::-1], [3, 2, 1, 0, 3, 2, 1], 2)
        # subnormal and distinct: sorted as float64 bit patterns, no fallback
        self.check([2e-323, 5e-324, 2.2250738585072014e-308, 0.25], [1, 0, 1, 0], 1)

    def test_row_width_sorts_like_one_row(self):
        # 30 users of 6 keys each, in user order: sorting each row of 18 or 42
        # keys (4 rows and a last one of 12) is the whole sort, with no
        # windows, for distinct, exactly tied and near-tied keys
        rng = np.random.default_rng(1)
        users = np.repeat(np.arange(30), 6)
        payload = rng.integers(0, 8, users.size)
        base = users * 2.0 + 0.5  # low mantissa bits zero: base .. base + 7 ulps tie
        for key in (users * 2.0 + rng.random(users.size), base,
                    _ulps_above(base, rng.integers(0, 8, users.size))):
            assert self.check(key, payload, 3, [6] * 30, row_keys=6).size == 0
            assert self.check(key, payload, 3, [6] * 30, row_keys=42).size == 0
            self.check(key, payload, 3)

    def test_windows_sort_the_users_that_rows_cut(self):
        # ragged users of degree 0 to 7, rows of 21 keys, a last row shorter
        # than 7: the windows around the cuts complete the sort for distinct,
        # exactly tied and near-tied keys
        rng = np.random.default_rng(2)
        degrees = np.concatenate((rng.integers(0, 8, 60), [7, 1, 0, 1]))
        users = np.repeat(np.arange(degrees.size), degrees)
        payload = rng.integers(0, 8, users.size)
        base = users * 2.0 + 0.5
        for key in (users * 2.0 + rng.random(users.size), base,
                    _ulps_above(base, rng.integers(0, 8, users.size))):
            seams = self.check(key, payload, 3, degrees, row_keys=4)
            assert seams.shape[1] == 12 and seams.shape[0] >= 5
        assert users.size % 21 < 7

    def test_empty_single_and_payload_free(self):
        self.check([], [], 3)
        self.check([0.75], [5], 3)
        self.check([2.5, 0.5, 0.5], [0, 0, 0], 0)


@pytest.mark.parametrize("m", [2, 7, 50])
def test_win_matrix_key_matches_the_where_key(m):
    # the branch-free key hi * m + lo + (y == 1) (lo - hi)(m - 1) against
    # the np.where key, with y all 0, all 1 and mixed
    rng = np.random.default_rng(m)
    a, b = rng.integers(0, m, (2, 5_000))
    hi, lo = np.maximum(a, b)[a != b], np.minimum(a, b)[a != b]
    for y in (np.zeros_like(hi), np.ones_like(hi), rng.integers(0, 2, hi.size)):
        key = np.where(y == 1, lo * m + hi, hi * m + lo)
        want = np.bincount(key, minlength=m * m).reshape(m, m)
        assert pairing._win_matrix(m, hi, lo, y).tobytes() == want.tobytes()


class TestCompile:
    def test_record_orientation(self):
        # X_t0 = 0, X_t1 = 1: the harder-looking item 1 "won" the comparison
        data = _one_user_data([0, 1])
        pc = compile_comparisons(data, random_split(data, seed=0))
        assert pc.n_records == 1
        assert pc.rec_i[0] == 1 and pc.rec_j[0] == 0
        assert pc.rec_y[0] == 0  # Y_ij = 1{X_ti < X_tj} with i=1, j=0
        assert pc.wins[1, 0] == 1.0 and pc.wins[0, 1] == 0.0  # item 1 won
        assert pc.counts[0, 1] == pc.counts[1, 0] == 1.0

    def test_tie_dropped(self):
        data = _one_user_data([1, 1])
        pc = compile_comparisons(data, random_split(data, seed=0))
        assert pc.n_records == 0 and pc.edge_i.size == 0
        assert not pc.wins.any() and not pc.counts.any()

    def test_record_fraction_half_at_zero_parameters(self):
        gt = GroundTruth(np.zeros(6), np.zeros(40_000))
        data = sample_responses(gt, 1.0, seed=2)
        split = random_split(data, seed=2)
        pc = compile_comparisons(data, split)
        frac = pc.n_records / split.n_pairs
        assert abs(frac - 0.5) <= 0.01

    def test_complement_convention(self):
        data = _iid_users_data(200, [0, 1])
        pc = compile_comparisons(data, random_split(data, seed=1))
        # every record on {0, 1} is won by exactly one of the two items
        assert pc.wins[1, 0] + pc.wins[0, 1] == pc.counts[1, 0] == pc.n_records == 200

    def test_foreign_split_rejected(self):
        # a split built by hand was drawn from no data, so it compiles against none
        split = SplitAssignment(users=[0], items_hi=[1], items_lo=[0])
        for data in (ResponseData(1, 10, [0, 0], [0, 1], [0, 1]),
                     ResponseData(1, 10, [], [], [])):  # data with no edges at all
            with pytest.raises(ValueError, match="drew it from"):
                compile_comparisons(data, split)

    def test_positions_drawn_from_other_data_are_not_trusted(self):
        # user 0 answered items 1, 2 in `drawn` but 0, 1, 2 in `other`, so the
        # positions recorded against `drawn` would name items 0, 1 in `other`
        drawn = ResponseData(1, 3, [0, 0], [1, 2], [1, 0])
        other = ResponseData(1, 3, [0, 0, 0], [0, 1, 2], [1, 0, 1])
        copy = ResponseData(1, 3, drawn.user_ids, drawn.item_ids, drawn.responses)
        split = random_split(drawn, seed=0)
        assert compile_comparisons(drawn, split).wins[1, 2] == 1.0
        for data in (other, copy):
            with pytest.raises(ValueError, match="drew it from"):
                compile_comparisons(data, split)

    def test_selection_rate_matches_overlap_weight(self):
        # with 5 responses each pair is selected with prob 4/(5*4) = 0.2;
        # 1e5 identical users give 1e5 i.i.d. splits of that user
        responses = [0, 1, 0, 1, 1]
        data = _iid_users_data(100_000, responses)
        pc = compile_comparisons(data, random_split(data, seed=11))
        resp = np.asarray(responses)
        for i in range(5):
            for j in range(i):
                expected = 0.2 if resp[i] != resp[j] else 0.0
                assert abs(pc.counts[i, j] / 100_000 - expected) <= 0.01

    def test_outcomes_conditionally_independent(self):
        # users whose split realizes the matching {(1,0), (3,2)} provide
        # independent outcome pairs; correlation across the two records ~ 0
        gt = GroundTruth(np.zeros(4), np.zeros(400_000))
        data = sample_responses(gt, 1.0, seed=13)
        pc = compile_comparisons(data, random_split(data, seed=13))
        y = {}
        for (i, j) in ((1, 0), (3, 2)):
            sel = (pc.rec_i == i) & (pc.rec_j == j)
            y[(i, j)] = dict(zip(pc.rec_t[sel].tolist(), pc.rec_y[sel].tolist()))
        common = sorted(set(y[(1, 0)]) & set(y[(3, 2)]))
        assert len(common) > 30_000
        a = np.asarray([y[(1, 0)][t] for t in common], float)
        b = np.asarray([y[(3, 2)][t] for t in common], float)
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) < 0.01

    def test_split_wins_match_compiled_records(self):
        gt = GroundTruth(np.array([0.9, 0.0, -0.4, 0.3, -0.8]), np.zeros(600))
        data = sample_responses(gt, 0.7, seed=17)
        W = split_wins(data, seed=4, n_split=3)
        assert W.shape == (3, 5, 5)
        for k in range(3):
            pc = compile_comparisons(data, random_split(data, seed=4, split_index=k))
            want = np.zeros((5, 5))
            np.add.at(want, (pc.rec_i, pc.rec_j), 1 - pc.rec_y)  # larger-indexed item won
            np.add.at(want, (pc.rec_j, pc.rec_i), pc.rec_y)
            np.testing.assert_array_equal(W[k], want)

    @pytest.mark.parametrize("m", [128, 300])
    def test_record_path_at_wide_m_matches_the_divmod_decoding(self, m):
        # from m = 128 a payload item + m * X no longer fits in int8; users of
        # degree 0, 1, odd and even, and every split field against the pairs
        # decoded with divmod
        data = _degree_data(np.tile([0, 1, 3, 2, 0, 5, 1, 7, 4, m - 1, m], 6), m=m, seed=m)
        seed, K = 9, 3
        W = split_wins(data, seed, K)
        plan = pairing._split_plan(data)
        for k in range(K):
            split = random_split(data, seed, k)
            (a, b), = pairing._split_pairs(plan, seed, (k,))
            x_a, items_a = np.divmod(a, m)
            x_b, items_b = np.divmod(b, m)
            a_is_hi = items_a >= items_b
            want = {
                "users": np.repeat(np.arange(data.n_users), data.user_degrees() // 2),
                "items_hi": np.where(a_is_hi, items_a, items_b),
                "items_lo": np.where(a_is_hi, items_b, items_a),
                "_x_hi": np.where(a_is_hi, x_a, x_b).astype(np.int8),
                "_x_lo": np.where(a_is_hi, x_b, x_a).astype(np.int8),
            }
            for name, arr in want.items():
                got = getattr(split, name)
                assert got.dtype == (np.int8 if name.startswith("_x") else np.int64)
                assert got.tobytes() == arr.tobytes()
                assert not got.flags.writeable
                with pytest.raises(ValueError):
                    got[...] = 0
            pc = compile_comparisons(data, split)
            keep = want["_x_hi"] != want["_x_lo"]
            assert pc.rec_i.tobytes() == want["items_hi"][keep].tobytes()
            assert pc.rec_j.tobytes() == want["items_lo"][keep].tobytes()
            assert pc.rec_t.tobytes() == want["users"][keep].tobytes()
            rec_y = (want["_x_hi"][keep] < want["_x_lo"][keep]).astype(np.int64)
            assert pc.rec_y.tobytes() == rec_y.tobytes()
            assert 0 < pc.n_records < split.n_pairs
            assert pc.wins.tobytes() == W[k].tobytes()


def _degree_data(degrees, m=7, seed=0):
    """Responses where user ``t`` answered ``degrees[t]`` distinct items."""
    rng = np.random.default_rng(seed)
    users = np.repeat(np.arange(len(degrees)), degrees)
    items = np.concatenate([np.sort(rng.permutation(m)[:d]) for d in degrees])
    return ResponseData(len(degrees), m, users, items, rng.integers(0, 2, users.size))


class TestSplitWinsBranches:
    """`split_wins` against `compile_comparisons` on each way a split is
    sorted (rows of whole users at a common degree, or rows and the windows
    around the users they cut) and paired (strided views when every degree
    is even, else gathers)."""

    @staticmethod
    def check(data, seed=5, K=4):
        W = split_wins(data, seed, K)
        for k in range(K):
            pc = compile_comparisons(data, random_split(data, seed, k))
            assert W[k].tobytes() == pc.wins.tobytes()
        return W

    def test_even_unequal_degrees(self):
        data = _degree_data(np.tile([2, 4, 6, 0, 4], 40))
        plan = pairing._split_plan(data)
        assert plan.width == 126 and plan.seams.shape == (3, 10)  # rows cut 3 users
        assert 2 * pairing._pair_slots(data).size == data.n_edges  # strided pairs
        self.check(data)

    def test_fixed_odd_degree(self):
        data = _degree_data(np.full(150, 5))
        plan = pairing._split_plan(data)
        assert plan.width == 125 and plan.seams.size == 0  # rows of 25 whole users
        assert 2 * pairing._pair_slots(data).size < data.n_edges  # gathered pairs
        self.check(data)

    def test_fixed_degree_with_a_short_last_row(self):
        data = _degree_data(np.full(151, 5))  # 6 rows of 25 users, then one user
        assert pairing._split_plan(data).width == 125
        assert data.n_edges % 125 == 5
        self.check(data)

    def test_fixed_degree_above_the_row_keys_is_three_users_per_row(self):
        d = pairing.ROW_KEYS + 3
        data = _degree_data([d, 0, d, d, d], m=d + 4)
        plan = pairing._split_plan(data)
        assert plan.width == 3 * d and plan.seams.size == 0
        self.check(data)

    def test_ragged_degrees(self):
        data = _degree_data(np.tile([1, 2, 3, 4, 5, 6, 7], 30))
        plan = pairing._split_plan(data)
        assert plan.width == 126 and plan.seams.shape == (3, 12)
        assert 2 * pairing._pair_slots(data).size < data.n_edges
        self.check(data)

    def test_tie_fallback_pairs_in_edge_order(self):
        # every key of a user is 0.5: the value sort finds a tie, and lexsort
        # of the keys drawn again, exact and stable, keeps edge order
        stream = SimpleNamespace(random=lambda out: out.fill(0.5))
        for degrees in ([2, 4, 6, 0, 4] * 10, [5] * 30, [1, 2, 3, 4, 5, 6, 7] * 5):
            data = _degree_data(degrees, seed=1)
            with mock.patch.object(pairing._rng, "substream", lambda *args: stream):
                W = self.check(data, K=2)
            want = np.zeros((data.n_items, data.n_items))
            for a in pairing._pair_slots(data):
                x, y = data.responses[a], data.responses[a + 1]
                if x != y:
                    win, lose = (a, a + 1) if x == 1 else (a + 1, a)
                    want[data.item_ids[win], data.item_ids[lose]] += 1
            assert W[0].tobytes() == W[1].tobytes() == want.tobytes()


class TestBtlWinProb:
    def test_equal_parameters(self):
        assert btl_win_prob(0.3, 0.3) == 0.5

    def test_log_three(self):
        assert btl_win_prob(0.0, np.log(3.0)) == pytest.approx(0.75, abs=1e-12)

    def test_complement_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            a, b = rng.uniform(-5, 5, 2)
            assert abs(btl_win_prob(a, b) + btl_win_prob(b, a) - 1.0) <= 1e-15

    def test_monte_carlo_conditional_law(self):
        # conditioned on disagreement the outcome follows the two-item
        # comparison law regardless of the user parameter
        theta_i, theta_j, zeta = 0.8, -0.4, 1.7
        rng = np.random.default_rng(21)
        n = 2_000_000  # enough conditioned samples > 1e5
        xi = rng.random(n) < 1 / (1 + np.exp(zeta - theta_i))
        xj = rng.random(n) < 1 / (1 + np.exp(zeta - theta_j))
        disagree = xi != xj
        assert disagree.sum() > 100_000
        emp = (xi[disagree] < xj[disagree]).mean()
        assert abs(emp - btl_win_prob(theta_i, theta_j)) <= 0.01


class TestDisagreementProb:
    def test_symmetric_zero(self):
        assert disagreement_prob(0.0, 0.0, 0.0) == 0.5

    def test_closed_form_value(self):
        # (e^-1 + e^1) / ((1 + e^1)(1 + e^-1))
        want = (np.exp(-1) + np.exp(1)) / ((1 + np.exp(1)) * (1 + np.exp(-1)))
        assert disagreement_prob(1.0, -1.0, 0.0) == pytest.approx(want, abs=1e-12)
        assert disagreement_prob(1.0, -1.0, 0.0) == pytest.approx(0.6067762, abs=1e-6)

    def test_matches_direct_probability(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            ti, tj, z = rng.uniform(-3, 3, 3)
            pi = 1 / (1 + np.exp(z - ti))
            pj = 1 / (1 + np.exp(z - tj))
            want = pi * (1 - pj) + (1 - pi) * pj
            assert disagreement_prob(ti, tj, z) == pytest.approx(want, rel=1e-12)

    def test_lower_bound_on_grid(self):
        log_k2 = 2.0
        bound = 2 * np.exp(log_k2) / (1 + np.exp(log_k2)) ** 2
        for a in np.linspace(-log_k2, log_k2, 21):
            for b in np.linspace(-log_k2, log_k2, 21):
                assert disagreement_prob(a, b, 0.0) >= bound - 1e-12


class TestWeightedPairs:
    """The weighted within-user pairs of the pseudo-likelihood, read from
    their win matrix: ``W[i, j]`` sums the weights of the users who answered
    item ``i`` with ``X = 1`` and item ``j`` with ``X = 0``."""

    def test_wp_weight_five_responses(self):
        # the 6 disagreeing pairs of (2 zeros, 3 ones) weigh 4 / (5 * 4) = 0.2 each
        want = np.zeros((5, 5))
        want[np.ix_([1, 3, 4], [0, 2])] = 0.2
        np.testing.assert_allclose(_pseudo_wins(_one_user_data([0, 1, 0, 1, 1]), "wp"), want)

    def test_wp_weight_two_responses(self):
        W = _pseudo_wins(_one_user_data([0, 1]), "wp")
        np.testing.assert_allclose(W, [[0.0, 0.0], [1.0, 0.0]])

    def test_pmle_unit_weights(self):
        W = _pseudo_wins(_one_user_data([0, 1, 1]), "pmle")
        np.testing.assert_array_equal(W, [[0, 0, 0], [1, 0, 0], [1, 0, 0]])

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            _pseudo_wins(_one_user_data([0, 1]), "mle")

    def test_agreeing_pairs_excluded(self):
        W = _pseudo_wins(_one_user_data([1, 1, 0]), "pmle")
        assert set(zip(*np.nonzero(W))) == {(0, 2), (1, 2)}
