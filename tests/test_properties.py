"""Property-based checks of the dense comparison objective and the checks
`BtlObjective.from_wins` makes, the dense Laplacian builders, the batched
Newton engine and its check that the MLE exists, random pairing, the
indicator-block pseudo-likelihood builders, the model's symmetries, edge
ingest and CSV input.  Examples are derandomized so that every run tests the
same inputs."""

import contextlib
import dataclasses
import io
import json
import math
import tempfile
from collections import Counter
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rasch import _rng, pairing, solver
from rasch.cli import main
from rasch.errors import DataFormatError, EstimationError
from rasch.estimators import EstimatorConfig, estimate, mrp_mle, rp_mle, wp_mle
from rasch.inference import _split_user_gradients, _wp_score_covariance, plugin_covariance
from rasch.laplacian import (
    _component_labels,
    _unentered_set,
    build_count_laplacian,
    build_z_laplacian,
)
from rasch.model import (
    ResponseData,
    sample_ground_truth,
    sample_responses,
    sigmoid,
    sigmoid_deriv,
)
from rasch.pairing import (
    PRODUCT_LIMIT,
    _pseudo_wins,
    compile_comparisons,
    random_split,
    split_wins,
)
from rasch.solver import (
    BtlObjective,
    gradient,
    hessian,
    nll,
    solve_newton,
    solve_newton_batch,
)

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
SEEDS = st.integers(0, 2**32 - 1)


@st.composite
def objectives(draw):
    """A random edge-list objective with fractional weights, the term arrays
    ``(item_i, item_j, weight, wins_i)`` it was built from, and a point."""
    m = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(SEEDS))
    lo, hi = np.triu_indices(m, k=1)
    keep = rng.random(lo.size) < 0.7
    weight = rng.uniform(0.5, 10.0, keep.sum())
    wins = rng.uniform(0.0, 1.0, keep.sum()) * weight
    terms = (hi[keep], lo[keep], weight, wins)
    obj = BtlObjective(m, *terms)
    return obj, terms, rng.normal(0.0, 2.0, m)


def _per_edge(m, terms, theta):
    """Loss, gradient and Hessian summed term by term over the edge list."""
    f, g, H = 0.0, np.zeros(m), np.zeros((m, m))
    for i, j, w, a in zip(*terms):
        d = theta[i] - theta[j]
        p = 1.0 / (1.0 + math.exp(-d))
        f += -a * d + w * math.log1p(math.exp(d))
        g[i] += w * p - a
        g[j] -= w * p - a
        z = w * p * (1.0 - p)
        H[i, i] += z
        H[j, j] += z
        H[i, j] -= z
        H[j, i] -= z
    return f, g, H


@st.composite
def rough_win_matrices(draw):
    """Square matrices of wins with what a win matrix may not hold mixed in:
    negative and NaN entries, a non-zero diagonal, wins a hair outside
    ``[0, count]`` and pairs of zero count with ``W[i, j] = -W[j, i]``."""
    m = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(SEEDS))
    W = rng.integers(0, 5, (m, m)) * draw(st.sampled_from([1.0, 0.5, 1e-3]))
    W[np.arange(m), np.arange(m)] = 0.0
    values = [-1.0, -1e-11, -1e-13, np.nan, 2.5]
    for _ in range(draw(st.integers(0, 2))):
        W[rng.integers(0, m), rng.integers(0, m)] = values[rng.integers(0, len(values))]
    if draw(st.booleans()):
        i, j = rng.integers(0, m, 2)
        W[i, j] = -W[j, i]
    return W


def _lower_terms(W):
    """``(item_i, item_j, weight, wins_i)`` of every pair ``i > j`` of non-zero count."""
    N = W + W.T
    i, j = np.nonzero(np.tril(N, -1))
    return i, j, N[i, j], W[i, j]


@PROPERTY
@given(rough_win_matrices())
def test_from_wins_accepts_what_its_lower_terms_pass(W):
    def outcome(build):
        try:
            return build()
        except ValueError as exc:
            return str(exc)

    terms = outcome(lambda: BtlObjective(W.shape[0], *_lower_terms(W)))
    obj = outcome(lambda: BtlObjective.from_wins(W))
    N = W + W.T
    unusable = (np.isnan(W).any() or (W < 0).any() or np.diagonal(W).any()
                or ((N == 0) & (W != 0)).any())
    if isinstance(terms, str):
        assert obj == terms
    elif unusable:  # passes as terms, yet Newton could not use it
        assert isinstance(obj, str) and obj.startswith("win matrix")
    else:
        assert obj.m == W.shape[0] and obj.wins.tobytes() == W.tobytes()
        assert not obj.wins.flags.writeable


def _win_stack(seed, K, m):
    """K random win matrices whose MLEs exist: a two-way ring through all
    items makes every item win and lose at least once."""
    rng = np.random.default_rng(seed)
    W = rng.integers(0, 6, (K, m, m)).astype(float)
    W[:, np.arange(m), np.arange(m)] = 0.0
    ring = np.arange(m)
    W[:, ring, (ring + 1) % m] += 1.0
    W[:, (ring + 1) % m, ring] += 1.0
    return W


@PROPERTY
@given(objectives())
def test_dense_derivatives_match_per_edge_sums(case):
    obj, terms, theta = case
    f, g, H = _per_edge(obj.m, terms, theta)
    scale = max(1.0, float(terms[2].sum()))
    assert abs(nll(obj, theta) - f) <= 1e-12 * max(scale, abs(f))
    np.testing.assert_allclose(gradient(obj, theta), g, rtol=0, atol=1e-12 * scale)
    np.testing.assert_allclose(hessian(obj, theta).matrix, H, rtol=0, atol=1e-12 * scale)


@PROPERTY
@given(objectives())
def test_gradient_sums_to_zero_and_hessian_kills_ones(case):
    obj, terms, theta = case
    scale = max(1.0, float(terms[2].sum()))
    assert abs(gradient(obj, theta).sum()) <= 1e-12 * scale
    assert np.abs(hessian(obj, theta).matrix @ np.ones(obj.m)).max() <= 1e-12 * scale


@PROPERTY
@given(objectives(), st.floats(-50.0, 50.0))
def test_estimate_ignores_a_common_shift_of_the_start(case, shift):
    obj, _, theta = case
    assume(not _component_labels(obj.wins + obj.wins.T > 0).any())  # connected
    start = 0.5 * theta
    a = solve_newton(obj, start=start)
    b = solve_newton(obj, start=start + shift)
    assert a.converged and b.converged
    np.testing.assert_allclose(a.theta_hat, b.theta_hat, rtol=0, atol=1e-8)


@PROPERTY
@given(SEEDS, st.integers(1, 4), st.integers(2, 8), st.floats(0.0, 6.0))
def test_log_odds_and_zero_starts_reach_the_same_estimate(seed, K, m, spread):
    # Bradley-Terry counts around strengths of the given spread, plus a
    # two-way ring so that every split's MLE exists
    rng = np.random.default_rng(seed)
    s = rng.uniform(-spread / 2, spread / 2, m)
    W = rng.poisson(8.0 / (1.0 + np.exp(s[None, :] - s[:, None])), (K, m, m)).astype(float)
    W[:, np.arange(m), np.arange(m)] = 0.0
    ring = np.arange(m)
    W[:, ring, (ring + 1) % m] += 1.0
    W[:, (ring + 1) % m, ring] += 1.0
    for k, res in enumerate(solve_newton_batch(W)):
        zero = solve_newton(BtlObjective.from_wins(W[k]), start=np.zeros(m))
        assert res.converged and zero.converged
        np.testing.assert_allclose(res.theta_hat, zero.theta_hat, rtol=0, atol=1e-9)


@PROPERTY
@given(SEEDS, st.integers(2, 6), st.integers(2, 7), st.data())
def test_split_result_does_not_depend_on_its_batch(seed, K, m, data):
    W = _win_stack(seed, K, m)
    k = data.draw(st.integers(0, K - 1), label="split")
    size = data.draw(st.integers(k + 1, K), label="batch size")
    alone = solve_newton_batch(W[k:k + 1])[0]
    batched = solve_newton_batch(W[:size])[k]
    assert batched.theta_hat.tobytes() == alone.theta_hat.tobytes()
    assert batched.iterations == alone.iterations
    assert batched.grad_inf_norm == alone.grad_inf_norm


def _beaten_both_ways_across_every_cut(W):
    """Brute force over every nonempty proper item set S: some item in S beat
    one outside S, and some item outside S beat one in S."""
    m = W.shape[0]
    for bits in range(1, 2**m - 1):
        S = (bits >> np.arange(m)) & 1 == 1
        if not (W[S][:, ~S] > 0).any() or not (W[~S][:, S] > 0).any():
            return False
    return True


@PROPERTY
@given(SEEDS, st.integers(1, 4), st.integers(1, 8), st.floats(0.0, 1.0))
def test_strong_connectivity_check_matches_a_cut_oracle(seed, K, m, density):
    # weighted, non-integer wins over twelve orders of magnitude
    rng = np.random.default_rng(seed)
    W = rng.uniform(0.0, 1.0, (K, m, m)) * 10.0 ** rng.uniform(-6.0, 6.0, (K, m, m))
    W *= rng.random((K, m, m)) < density
    W[:, np.arange(m), np.arange(m)] = 0.0
    unentered = _unentered_set(W > 0)
    for k in range(K):
        S = unentered[k]
        assert S.any() != _beaten_both_ways_across_every_cut(W[k])
        # the reported set is a cut that nobody outside it won across
        assert not S.all() and not (W[k][~S][:, S] > 0).any()
    failing = np.flatnonzero(unentered.any(axis=-1))
    assert solver._first_without_mle(W)[0] == (failing[0] if failing.size else K)


@PROPERTY
@given(SEEDS, st.integers(2, 8), st.integers(20, 300))
def test_rp_equals_one_split_mrp(seed, m, n):
    gt = sample_ground_truth(n, m, "standard-normal", seed=seed)
    data = sample_responses(gt, 0.7, seed=seed)
    mrp_cfg = EstimatorConfig(method="mrp", seed=seed, n_split=1)
    try:
        a = rp_mle(data, EstimatorConfig(method="rp", seed=seed))
    except EstimationError as exc:
        with pytest.raises(type(exc)):
            mrp_mle(data, mrp_cfg)
        return
    assert a.theta_hat.tobytes() == mrp_mle(data, mrp_cfg).theta_hat.tobytes()


@st.composite
def response_data(draw):
    """Small responses: each user answers a random subset of the items."""
    n = draw(st.integers(1, 12))
    m = draw(st.integers(2, 7))
    rng = np.random.default_rng(draw(SEEDS))
    users, items = np.nonzero(rng.random((n, m)) < draw(st.floats(0.1, 1.0)))
    return ResponseData(n, m, users, items, rng.integers(0, 2, users.size))


def _per_edge_laplacian(m, hi, lo, weights):
    """Laplacian of the edges ``(hi[e], lo[e])`` built one edge at a time."""
    L = np.zeros((m, m))
    for i, j, w in zip(hi, lo, weights):
        L[i, j] = L[j, i] = -w
        L[i, i] += w
        L[j, j] += w
    return L


@PROPERTY
@given(response_data(), SEEDS, st.integers(0, 3))
def test_dense_builders_match_per_record_aggregation(data, seed, k):
    m = data.n_items
    theta = np.random.default_rng(seed).normal(0.0, 2.0, m)
    pc = compile_comparisons(data, random_split(data, seed, k))
    per_edge = Counter(zip(pc.rec_i.tolist(), pc.rec_j.tolist()))
    hi = np.array([e[0] for e in per_edge], dtype=np.int64)
    lo = np.array([e[1] for e in per_edge], dtype=np.int64)
    c = np.array(list(per_edge.values()), dtype=np.int64)
    # one vectorized call, as a builder makes: numpy's scalar exp can differ
    # from its vector exp in the last bit
    z = sigmoid_deriv(theta[hi] - theta[lo])
    off = ~np.eye(m, dtype=bool)
    for lap, w in ((build_count_laplacian(pc), c.astype(float)),
                   (build_z_laplacian(pc, theta), c * z)):
        want = _per_edge_laplacian(m, hi, lo, w)
        np.testing.assert_array_equal(lap.matrix[off], want[off])
        np.testing.assert_allclose(np.diag(lap.matrix), np.diag(want), rtol=1e-12, atol=0)
    assert pc.wins.tobytes() == split_wins(data, seed, k + 1)[k].tobytes()


# ---------------------------------------------------------------------------
# Random pairing against a stable-argsort oracle
# ---------------------------------------------------------------------------

# the last two are the responses `random_split` keeps for `compile_comparisons`
SPLIT_FIELDS = ("users", "items_hi", "items_lo", "_x_hi", "_x_lo")


def _argsort_split(data, keys):
    """One split built pair by pair: each user's edges ordered by the stable
    argsort of ``2 * user + key`` and taken consecutively in pairs.  Returns
    the `SplitAssignment` fields, with the kept pair responses, and the
    split's win matrix."""
    order = np.argsort(data.user_ids * 2.0 + keys, kind="stable")
    user, item, x = data.user_ids, data.item_ids, data.responses
    rows, W = [], np.zeros((data.n_items, data.n_items))
    for t in range(data.n_users):
        block = order[data.user_indptr[t]:data.user_indptr[t + 1]]
        for a, b in zip(block[0:-1:2], block[1::2]):
            hi, lo = (a, b) if item[a] > item[b] else (b, a)
            rows.append((user[a], item[hi], item[lo], x[hi], x[lo]))
            if x[a] != x[b]:
                win, lose = (a, b) if x[a] == 1 else (b, a)
                W[item[win], item[lose]] += 1
    return dict(zip(SPLIT_FIELDS, np.array(rows, dtype=np.int64).reshape(-1, 5).T)), W


def _assert_split_matches(split, W_k, data, keys):
    fields, want_W = _argsort_split(data, keys)
    for name in SPLIT_FIELDS:
        np.testing.assert_array_equal(getattr(split, name), fields[name])
    assert split._source is data
    assert W_k.tobytes() == want_W.tobytes()


@PROPERTY
@given(response_data(), SEEDS, st.integers(1, 4))
def test_splits_match_a_stable_argsort_oracle(data, seed, K):
    W = split_wins(data, seed, K)
    for k in range(K):
        keys = _rng.substream(seed, _rng.SPLIT, k).random(data.n_edges)
        _assert_split_matches(random_split(data, seed, k), W[k], data, keys)


class _FixedKeys:
    """Stands in for `rasch._rng` inside `rasch.pairing`: every split draws ``keys``."""

    SPLIT = _rng.SPLIT

    def __init__(self, keys):
        self.keys = keys

    def substream(self, *key):
        return self

    def random(self, size=None, out=None):
        if out is None:
            assert size == self.keys.size
            return self.keys.copy()
        out[...] = self.keys
        return out


def _assert_split_matches_on_keys(data, keys):
    with mock.patch.object(pairing, "_rng", _FixedKeys(keys)):
        split, W = random_split(data, 0), split_wins(data, 0, 1)
    _assert_split_matches(split, W[0], data, keys)


@st.composite
def close_keys(draw, datas=response_data()):
    """Responses and per-edge keys whose float keys ``2 * user + key`` sit a
    few ulps above a common base per user: exact ties and near-ties, down to
    subnormal keys for user 0 when the base is ``2 * user``."""
    data = draw(datas)
    base = data.user_ids * 2.0 + draw(st.sampled_from([0.0, 0.5]))
    steps = draw(st.lists(st.integers(0, 40), min_size=data.n_edges, max_size=data.n_edges))
    full = (base.view(np.int64) + np.array(steps, dtype=np.int64)).view(float)
    return data, full - data.user_ids * 2.0  # exact: full and 2 * user are within a factor 2


@PROPERTY
@given(close_keys())
def test_splits_match_the_oracle_on_tied_and_near_tied_keys(case):
    _assert_split_matches_on_keys(*case)


# Row-key targets for `pairing.ROW_KEYS`: on the small inputs drawn here the
# smaller ones give several rows of whole users and a short last row
ROW_KEY_TARGETS = st.sampled_from([1, 4, 9, pairing.ROW_KEYS])


@st.composite
def rectangular_data(draw):
    """Responses where every responding user answered the same number ``d``
    of the items (``d`` = 1, 2, 3 or ``m``) and the other users none; with
    ``ragged``, one of two or more responding users answered ``d - 1``.
    Returns the data, a row-key target and the row width its splits are
    sorted in under that target, ``d * max(3, row_keys // d)`` either way."""
    n = draw(st.integers(1, 12))
    m = draw(st.integers(2, 8))
    d = draw(st.sampled_from(sorted({1, 2, min(3, m), m})))
    rng = np.random.default_rng(draw(SEEDS))
    responding = np.flatnonzero(rng.random(n) < draw(st.floats(0.2, 1.0)))
    if responding.size == 0:
        responding = np.array([rng.integers(n)])
    degree = np.full(responding.size, d)
    ragged = draw(st.booleans()) and d >= 2 and responding.size >= 2
    if ragged:
        degree[rng.integers(responding.size)] = d - 1
    users = np.repeat(responding, degree)
    items = np.concatenate([np.sort(rng.permutation(m)[:k]) for k in degree])
    data = ResponseData(n, m, users, items, rng.integers(0, 2, users.size))
    row_keys = draw(ROW_KEY_TARGETS)
    return data, row_keys, d * max(3, row_keys // d)


@PROPERTY
@given(rectangular_data(), SEEDS, st.integers(1, 3))
def test_rectangular_splits_match_a_stable_argsort_oracle(case, seed, K):
    data, row_keys, width = case
    with mock.patch.object(pairing, "ROW_KEYS", row_keys):
        assert pairing._split_plan(data).width == width
        W = split_wins(data, seed, K)
        splits = [random_split(data, seed, k) for k in range(K)]
    for k in range(K):
        keys = _rng.substream(seed, _rng.SPLIT, k).random(data.n_edges)
        _assert_split_matches(splits[k], W[k], data, keys)


@PROPERTY
@given(close_keys(rectangular_data().map(lambda case: case[0])), ROW_KEY_TARGETS)
def test_rectangular_splits_match_the_oracle_on_tied_and_near_tied_keys(case, row_keys):
    with mock.patch.object(pairing, "ROW_KEYS", row_keys):
        _assert_split_matches_on_keys(*case)


@PROPERTY
@given(st.integers(1, 2 * pairing.ROW_KEYS + 5), st.integers(1, 5), SEEDS)
def test_fixed_degree_rows_hold_whole_users_and_at_most_row_keys(d, n, seed):
    rng = np.random.default_rng(seed)
    m = d + int(rng.integers(0, 3))
    degrees = np.where(rng.random(n) < 0.7, d, 0)
    degrees[0] = d
    users = np.repeat(np.arange(n), degrees)
    items = np.concatenate([np.sort(rng.permutation(m)[:k]) for k in degrees])
    data = ResponseData(n, m, users, items, rng.integers(0, 2, users.size))
    plan = pairing._split_plan(data)
    # whole users, at least three a row: no boundary cuts one
    assert plan.width % d == 0 and plan.width <= max(pairing.ROW_KEYS, 3 * d)
    assert plan.seams.size == 0
    W = split_wins(data, seed, 1)
    assert W[0].tobytes() == compile_comparisons(data, random_split(data, seed, 0)).wins.tobytes()


@st.composite
def ragged_rows(draw):
    """Responses of users of ragged degrees up to ``d``, with users of
    degree 0 and 1, under a row-key target ``row_keys`` below ``3 d``, so
    that a row holds three users of degree ``d`` and its boundaries cut
    users; with ``short``, users of degree 1 and then one of degree ``d``
    appended so that the last row holds fewer than ``d`` keys and the last
    boundary cuts that user.  Returns the data and the target."""
    row_keys = draw(st.sampled_from([1, 2, 4, 9, 16]))
    d = draw(st.integers(max(2, row_keys // 3 + 1), row_keys // 3 + 8))
    m = d + draw(st.integers(0, 3))
    rng = np.random.default_rng(draw(SEEDS))
    degrees = rng.integers(0, d + 1, draw(st.integers(3, 40)))
    degrees[:3] = d, 0, 1
    degrees = rng.permutation(degrees)
    if draw(st.booleans()):  # short
        width = d * max(3, row_keys // d)
        ones = (draw(st.integers(1, d - 1)) - d - degrees.sum()) % width
        degrees = np.concatenate((degrees, np.ones(ones, int), [d]))
    degrees = np.concatenate((degrees, np.zeros(draw(st.integers(0, 2)), int)))
    users = np.repeat(np.arange(degrees.size), degrees)
    items = np.concatenate([np.sort(rng.permutation(m)[:k]) for k in degrees])
    return ResponseData(degrees.size, m, users, items, rng.integers(0, 2, users.size)), row_keys


@PROPERTY
@given(ragged_rows(), SEEDS, st.sampled_from([None, 0.0, 0.5]))
def test_ragged_rows_and_windows_sort_like_the_oracle(case, seed, near):
    # keys uniform, or a few ulps above 2 * user + near: exact and near ties
    data, row_keys = case
    rng = np.random.default_rng(seed)
    if near is None:
        keys = rng.random(data.n_edges)
    else:
        base = data.user_ids * 2.0 + near
        full = (base.view(np.int64) + rng.integers(0, 41, data.n_edges)).view(float)
        keys = full - data.user_ids * 2.0  # exact: full and 2 * user are within a factor 2
    with mock.patch.object(pairing, "ROW_KEYS", row_keys):
        plan = pairing._split_plan(data)
        d = int(data.user_degrees().max())
        assert plan.width == d * max(3, row_keys // d)
        assert plan.seams.shape[1] == 2 * (d - 1)
        assert np.unique(plan.seams).size == plan.seams.size  # disjoint windows
        # the value sort: None exactly when two keys share their bits above
        # the payload's, else the stable argsort order of the float keys
        key = plan.user_key + keys
        got = pairing._sorted_payload(key.copy(), plan.payload, plan.bits, plan.width, plan.seams)
        high = np.sort(key).view(np.int64) >> plan.bits
        assert (got is None) == bool((high[1:] == high[:-1]).any())
        if got is not None:
            np.testing.assert_array_equal(got, plan.payload[np.argsort(key, kind="stable")])
        # the engine: the exact (user, key) order, by lexsort on a tie
        whole = plan._replace(first=slice(None), second=slice(0, 0))
        with mock.patch.object(pairing, "_rng", _FixedKeys(keys)):
            (order, _), = pairing._split_pairs(whole, 0, (0,))
        np.testing.assert_array_equal(order, plan.payload[np.lexsort((keys, data.user_ids))])
        _assert_split_matches_on_keys(data, keys)


@st.composite
def spread_user_keys(draw):
    """Responses of a few users with ids spread past 2**20, up to 2**21 + 9,
    and per-edge split keys: uniform, or with about half of them among
    ``0.5 + j * 2**-40``, j < 4, which tie as float keys ``2 * user + key``
    past user 2**9 and tie exactly at equal j."""
    ids = draw(st.lists(st.integers(0, 2**21 + 9), min_size=1, max_size=8))
    ids = np.unique(ids + [draw(st.integers(2**20 + 1, 2**21 + 9))])
    m = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(SEEDS))
    degree = rng.integers(0, m + 1, ids.size)
    users = np.repeat(ids, degree)
    items = np.concatenate([np.sort(rng.permutation(m)[:k]) for k in degree])
    data = ResponseData(int(ids[-1]) + 1, m, users, items, rng.integers(0, 2, users.size))
    keys = rng.random(users.size)
    if draw(st.booleans()):
        near = 0.5 + rng.integers(0, 4, users.size) * 2.0**-40
        keys = np.where(rng.random(users.size) < 0.5, near, keys)
    return data, keys


@PROPERTY
@given(spread_user_keys())
def test_splits_past_2_20_users_follow_the_exact_user_key_order(case):
    data, keys = case
    plan = pairing._split_plan(data)
    whole = plan._replace(first=slice(None), second=slice(0, 0))  # one "pair": the order
    with mock.patch.object(pairing, "_rng", _FixedKeys(keys)):
        (order, _), = pairing._split_pairs(whole, 0, (0,))
    want = plan.payload[np.lexsort((keys, data.user_ids))]
    np.testing.assert_array_equal(order, want)


def test_tied_keys_with_empty_and_single_response_users():
    # user 0: one response with a subnormal key; user 1: none; user 2: four
    # exactly tied keys; user 3: float keys 0, 1 and 2 ulps above 2 * 3 + 0.25
    users = [0, 2, 2, 2, 2, 3, 3, 3, 4, 4]
    items = [1, 0, 1, 2, 3, 0, 2, 3, 1, 3]
    data = ResponseData(5, 4, users, items, [1, 0, 1, 1, 0, 1, 0, 1, 0, 1])
    near = (np.full(3, 6.25).view(np.int64) + [2, 0, 1]).view(float) - 6.0
    keys = np.concatenate(([5e-324, 0.5, 0.5, 0.5, 0.5], near, [0.75, 0.125]))
    _assert_split_matches_on_keys(data, keys)


# ---------------------------------------------------------------------------
# Pseudo-likelihood builders against a per-user loop
# ---------------------------------------------------------------------------

def _per_user_comparisons(data, scheme):
    """Every within-user comparison ``(user, winner, loser, weight)``, found by
    looping over each user's responses."""
    out = []
    for t in range(data.n_users):
        mine = data.user_ids == t
        items, x = data.item_ids[mine].tolist(), data.responses[mine].tolist()
        mt = len(items)
        w = (mt - mt % 2) / (mt * (mt - 1)) if scheme == "wp" and mt >= 2 else 1.0
        for i, xi in zip(items, x):
            for j, xj in zip(items, x):
                if xi == 1 and xj == 0:  # X = 1 wins
                    out.append((t, i, j, w))
    return out


def _per_user_score_covariance(data, theta):
    """``G^T G / n`` of the per-user ``"wp"`` score vectors, summed pair by pair."""
    G = np.zeros((data.n_users, data.n_items))
    for t, i, j, w in _per_user_comparisons(data, "wp"):
        p = 1.0 / (1.0 + math.exp(theta[j] - theta[i]))  # P[i beats j]
        G[t, i] += w * (p - 1.0)
        G[t, j] += w * (1.0 - p)
    return G.T @ G / data.n_users


@PROPERTY
@given(response_data())
def test_pseudo_wins_match_per_user_loop(data):
    m = data.n_items
    for scheme in ("wp", "pmle"):
        want = np.zeros((m, m))
        for _, i, j, w in _per_user_comparisons(data, scheme):
            want[i, j] += w
        got = _pseudo_wins(data, scheme)
        if scheme == "pmle":
            assert got.tobytes() == want.tobytes()
        else:
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


@PROPERTY
@given(response_data(), st.data())
def test_pseudo_wins_are_item_relabel_equivariant(data, pick):
    # Not checked per seed for mrp: a split draws its sort keys in
    # each user's item order, so a relabel changes the pairing itself;
    # test_rp_permutation_equivariance_in_distribution covers mrp in law.
    m = data.n_items
    perm = np.asarray(pick.draw(st.permutations(range(m))), dtype=np.int64)
    relabelled = ResponseData(data.n_users, m, data.user_ids, perm[data.item_ids],
                              data.responses)
    for scheme in ("wp", "pmle"):
        want = _pseudo_wins(data, scheme)
        got = _pseudo_wins(relabelled, scheme)[perm][:, perm]
        if scheme == "pmle":
            assert got.tobytes() == want.tobytes()
        else:
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

@PROPERTY
@given(response_data(), SEEDS, st.integers(0, 3))
def test_split_user_gradients_match_per_record_sums(data, seed, k):
    theta = np.random.default_rng(seed).normal(0.0, 2.0, data.n_items)
    pc = compile_comparisons(data, random_split(data, seed, k))
    want = np.zeros((data.n_users, data.n_items))
    for i, j, t, y in zip(pc.rec_i, pc.rec_j, pc.rec_t, pc.rec_y):
        p = 1.0 / (1.0 + math.exp(theta[j] - theta[i]))  # P[i beats j]
        won = 1.0 - y  # the larger-indexed item i won
        want[t, i] += p - won
        want[t, j] -= p - won
    got, = _split_user_gradients(data, theta, seed, (k,))
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@PROPERTY
@given(response_data(), st.integers(1, 3), SEEDS)
def test_indicator_builders_match_per_user_loops_over_many_blocks(data, block, seed):
    # Blocks of 1-3 users: most inputs span several, some with no responses.
    theta = np.random.default_rng(seed).normal(0.0, 2.0, data.n_items)
    with mock.patch.object(pairing, "PRODUCT_LIMIT", block * data.n_items**2 + 1):
        got = {scheme: _pseudo_wins(data, scheme) for scheme in ("wp", "pmle")}
        V = _wp_score_covariance(data, theta)
    for scheme, W in got.items():
        want = np.zeros_like(W)
        for _, i, j, w in _per_user_comparisons(data, scheme):
            want[i, j] += w
        if scheme == "pmle":
            assert W.tobytes() == want.tobytes()
        else:
            np.testing.assert_allclose(W, want, rtol=1e-12, atol=0)
    want = _per_user_score_covariance(data, theta)
    np.testing.assert_allclose(V, want, rtol=0, atol=1e-12 * max(1.0, np.abs(want).max()))


def test_wp_score_covariance_matches_per_user_loop_across_blocks():
    n = (PRODUCT_LIMIT - 1) // 6**2 + 476  # two blocks of users
    gt = sample_ground_truth(n, 6, "standard-normal", seed=11)
    data = sample_responses(gt, 0.6, seed=11)
    est = wp_mle(data)
    got = plugin_covariance(data, est).V_diff_hat
    want = _per_user_score_covariance(data, est.theta_hat)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())
    wins = np.zeros((6, 6))
    for _, i, j, w in _per_user_comparisons(data, "wp"):
        wins[i, j] += w
    np.testing.assert_allclose(_pseudo_wins(data, "wp"), wins, rtol=1e-12, atol=0)


@st.composite
def blocked_response_data(draw):
    """Ragged responses over small user blocks, and the block size: users
    answer 0 to m items, at least one user answers exactly one and one
    outside the empty block none, one full block answers nothing at all, and
    the last block is partial."""
    block, full = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    n, m = block * full + draw(st.integers(1, block - 1)), draw(st.integers(2, 7))
    rng = np.random.default_rng(draw(SEEDS))
    degrees = rng.integers(0, m + 1, n)
    empty = draw(st.integers(0, full - 1))
    degrees[empty * block:(empty + 1) * block] = 0
    one, none = rng.choice([t for t in range(n) if t // block != empty], 2, replace=False)
    degrees[one], degrees[none] = 1, 0
    users = np.repeat(np.arange(n), degrees)
    # each user's items in a random order, so that the data sorts them
    items = np.concatenate([rng.choice(m, d, replace=False) for d in degrees])
    return ResponseData(n, m, users, items, rng.integers(0, 2, users.size)), block


def _naive_indicator_blocks(data, scheme, block):
    """``(first, X1, X0, w, responded)`` per block of ``block`` users, set
    entry by entry from each user's responses."""
    m = data.n_items
    out = []
    for first in range(0, data.n_users, block):
        users = range(first, min(first + block, data.n_users))
        X1, X0, responded = (np.zeros((len(users), m)) for _ in range(3))
        w = np.zeros(len(users))
        for row, t in enumerate(users):
            mine = np.flatnonzero(data.user_ids == t).tolist()
            for e in mine:
                item = data.item_ids[e]
                (X1 if data.responses[e] == 1 else X0)[row, item] = 1.0
                responded[row, item] = 1.0
            mt = len(mine)
            if mt >= 2:
                w[row] = (mt - mt % 2) / (mt * (mt - 1)) if scheme == "wp" else 1.0
        out.append((first, X1, X0, w, responded))
    return out


def _in_block_order(data, grams):
    """The sum of the blocks' m x m matrices ``grams`` from zeros, in order."""
    total = np.zeros((data.n_items, data.n_items))
    for gram in grams:
        total += gram
    return total


def _summed_in_halves(data, grams):
    """The sum of the blocks' m x m matrices ``grams``, given in block order,
    in the order `pairing._block_products` documents: from zeros in block
    order; from ``n_users * m**2 >= BLOCK_THREAD_SIZE`` and two chunks, each
    half of the chunks (cut at ``n_chunks // 2``) from zeros in block order,
    then the first half's total + the second's."""
    m = data.n_items
    block = pairing._product_block(m)
    chunk = block * max(1, pairing.CHUNK_ENTRIES // (block * m))
    n_chunks = -(-data.n_users // chunk)
    if data.n_users * m**2 < pairing.BLOCK_THREAD_SIZE or n_chunks < 2:
        return _in_block_order(data, grams)
    cut = n_chunks // 2 * chunk // block
    return _in_block_order(data, grams[:cut]) + _in_block_order(data, grams[cut:])


def _reader_blocks(data, scheme):
    """``(first, X1, X0, w)`` of each block, cut from the chunks that
    `pairing._block_products` hands its product, in the order it hands them."""
    out = []

    def product(X1, X0, w, block):
        first = out[-1][0] + out[-1][3].size if out else 0
        for lo in range(0, w.size, block):
            rows = slice(lo, lo + block)
            out.append((first + lo, X1[rows], X0[rows], w[rows]))
        return X1, X0

    pairing._block_products(data, scheme, product)
    return out


@PROPERTY
@given(blocked_response_data(), SEEDS)
def test_indicator_blocks_match_a_per_user_construction_byte_for_byte(case, seed):
    data, block = case
    m = data.n_items
    theta = np.random.default_rng(seed).normal(0.0, 2.0, m)
    # chunks of two blocks: most inputs span several, the last one partial
    with mock.patch.object(pairing, "PRODUCT_LIMIT", block * m**2 + 1), \
            mock.patch.object(pairing, "CHUNK_ENTRIES", 2 * block * m):
        got = {scheme: _reader_blocks(data, scheme) for scheme in ("wp", "pmle")}
        W = {scheme: _pseudo_wins(data, scheme) for scheme in ("wp", "pmle")}
        V = _wp_score_covariance(data, theta)
    for scheme, blocks in got.items():
        want = _naive_indicator_blocks(data, scheme, block)
        assert [b[0] for b in blocks] == [b[0] for b in want]
        for (_, X1, X0, w), (_, X1_, X0_, w_, responded) in zip(blocks, want):
            for arr, ref in ((X1, X1_), (X0, X0_), (w, w_)):
                assert arr.dtype == np.float64 and arr.flags.c_contiguous
                assert arr.shape == ref.shape and arr.tobytes() == ref.tobytes()
            assert np.array_equal(X1 + X0, responded)
        # the consumers' sums, in block order over the oracle's blocks
        wins = np.zeros((m, m))
        for _, X1, X0, w, _ in want:
            wins += (X1 * w[:, None]).T @ X0
        assert W[scheme].tobytes() == wins.tobytes()
    S = sigmoid(theta[:, None] - theta[None, :])
    cov = np.zeros((m, m))
    for _, X1, X0, w, _ in _naive_indicator_blocks(data, "wp", block):
        G = X1 * (X0 @ (S - 1.0).T) + X0 * (X1 @ S.T)
        G *= w[:, None]
        cov += G.T @ G.copy()  # a gemm, as the library takes it
    assert V.tobytes() == (cov / data.n_users).tobytes()


# ---------------------------------------------------------------------------
# Symmetries of the Rasch model
# ---------------------------------------------------------------------------

@st.composite
def rasch_samples(draw):
    """Bernoulli responses with standard-normal parameters; past 512 users
    the duplicated copy spans two of the 1024-user indicator blocks that the
    duplication test sets."""
    seed, n, m = draw(SEEDS), draw(st.integers(50, 1200)), draw(st.integers(2, 10))
    data = sample_responses(sample_ground_truth(n, m, "standard-normal", seed=seed), 0.5, seed=seed)
    return seed, data


def _fits(data, seed):
    """Estimate of each method, or the class of the error it raised."""
    out = {}
    for method, n_split in (("rp", 1), ("mrp", 4), ("wp", 1), ("pmle", 1)):
        try:
            out[method] = estimate(data, EstimatorConfig(method=method, seed=seed, n_split=n_split))
        except EstimationError as exc:
            out[method] = type(exc)
    return out


def _close_sigma(got, want):
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())


@PROPERTY
@given(rasch_samples())
def test_flipping_every_response_negates_the_estimates(case):
    # (theta, zeta, X) -> (-theta, -zeta, 1 - X) leaves the model's law as it
    # is; the pairing keys do not read responses, so every win matrix is
    # transposed and every estimate negated
    seed, data = case
    flipped = ResponseData(data.n_users, data.n_items, data.user_ids, data.item_ids,
                           1 - data.responses)
    fits, flips = _fits(data, seed), _fits(flipped, seed)
    for method, est in fits.items():
        if isinstance(est, type):
            assert flips[method] is est
            continue
        np.testing.assert_allclose(flips[method].theta_hat, -est.theta_hat, rtol=0, atol=1e-12)
        if method != "pmle":
            _close_sigma(plugin_covariance(flipped, flips[method]).Sigma_hat,
                         plugin_covariance(data, est).Sigma_hat)


def _stopping_error(est):
    """First-order bound on the distance from ``est`` to the exact optimum of
    its win matrix: the gradient left at the stop through ``H^+``."""
    H = hessian(BtlObjective.from_wins(est.split_wins[0]), est.theta_hat).matrix
    grad = est.solve_results[0].grad_inf_norm
    return 2.0 * math.sqrt(est.m) * np.linalg.norm(np.linalg.pinv(H), 2) * grad


@PROPERTY
@given(rasch_samples())
def test_duplicating_every_user_keeps_the_pseudo_estimates_and_halves_the_wp_covariance(case):
    seed, data = case
    n = data.n_users
    twice = ResponseData(2 * n, data.n_items, np.concatenate((data.user_ids, data.user_ids + n)),
                         np.tile(data.item_ids, 2), np.tile(data.responses, 2))
    # blocks of 1024 users, so that past 512 the copy spans two
    with mock.patch.object(pairing, "PRODUCT_LIMIT", 1024 * data.n_items**2 + 1):
        for method in ("wp", "pmle"):
            cfg = EstimatorConfig(method=method, seed=seed)
            try:
                est = estimate(data, cfg)
            except EstimationError as exc:
                with pytest.raises(type(exc)):
                    estimate(twice, cfg)
                continue
            dup = estimate(twice, cfg)
            # the win matrix doubles, but the log-odds start does not scale with
            # it: the two solves stop at different points within their tolerance
            slack = _stopping_error(est) + _stopping_error(dup)
            assert np.abs(dup.theta_hat - est.theta_hat).max() <= 1e-12 + slack
            if method == "wp":
                at_est = dataclasses.replace(dup, theta_hat=est.theta_hat)
                _close_sigma(plugin_covariance(twice, at_est).Sigma_hat,
                             plugin_covariance(data, est).Sigma_hat / 2)


# ---------------------------------------------------------------------------
# Edge ingest against a lexsort oracle
# ---------------------------------------------------------------------------

@st.composite
def shuffled_edges(draw):
    """Unique (user, item) edges with responses, in a random order."""
    n = draw(st.integers(1, 12))
    m = draw(st.integers(1, 7))
    rng = np.random.default_rng(draw(SEEDS))
    users, items = np.nonzero(rng.random((n, m)) < draw(st.floats(0.0, 1.0)))
    perm = rng.permutation(users.size)
    return n, m, users[perm], items[perm], rng.integers(0, 2, users.size)


@PROPERTY
@given(shuffled_edges(), st.sampled_from([np.int64, np.int32, np.uint8]))
def test_edges_in_any_order_give_the_lexsorted_data(case, dtype):
    n, m, users, items, resp = case
    order = np.lexsort((items, users))
    edges = (users, items, resp)
    stored = (np.int32, np.int32, np.int8)
    expected = [a[order].astype(width) for a, width in zip(edges, stored)]
    shuffled = ResponseData(n, m, *(a.astype(dtype) for a in edges))
    in_order = ResponseData(n, m, *(a[order].astype(dtype) for a in edges))
    for data in (shuffled, in_order):
        for name, want in zip(("user_ids", "item_ids", "responses"), expected):
            got = getattr(data, name)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# Storage widths: int32 ids and int8 responses, arithmetic in int64
# ---------------------------------------------------------------------------

def _int64_edges(data):
    """The edge arrays of ``data`` as int64 copies, next to its sizes."""
    return SimpleNamespace(n_users=data.n_users, n_items=data.n_items,
                           user_ids=data.user_ids.astype(np.int64),
                           item_ids=data.item_ids.astype(np.int64),
                           responses=data.responses.astype(np.int64))


def _int64_split_wins(data, seed, K):
    """Win matrices of splits ``0 .. K-1``, counted pair by pair on int64
    copies: each user's edges ordered by the stable argsort of
    ``2 * user + key`` and taken consecutively in pairs."""
    wide, m = _int64_edges(data), data.n_items
    slots = _masked_pair_slots(data.user_indptr)
    W = np.zeros((K, m, m))
    for k in range(K):
        keys = _rng.substream(seed, _rng.SPLIT, k).random(data.n_edges)
        order = np.argsort(wide.user_ids * 2.0 + keys, kind="stable")
        a, b = order[slots], order[slots + 1]
        x_a, x_b = wide.responses[a], wide.responses[b]
        i_a, i_b = wide.item_ids[a], wide.item_ids[b]
        np.add.at(W[k], (i_a[x_a > x_b], i_b[x_a > x_b]), 1)  # X = 1 wins
        np.add.at(W[k], (i_b[x_b > x_a], i_a[x_b > x_a]), 1)
    return W


@pytest.mark.parametrize("mode, p", [("bernoulli", 0.1), ("uniform-mp", 0.045)])
def test_splits_past_127_items_match_an_int64_oracle(mode, p):
    # m * X overflows int8 responses from m = 128
    data = sample_responses(sample_ground_truth(300, 200, "standard-normal", seed=4), p,
                            seed=4, mode=mode)
    assert (data.user_ids.dtype, data.item_ids.dtype, data.responses.dtype) == (
        np.int32, np.int32, np.int8)
    assert np.array_equal(pairing._pair_slots(data), _masked_pair_slots(data.user_indptr))
    want = _int64_split_wins(data, 9, 3)
    assert split_wins(data, 9, 3).tobytes() == want.tobytes()
    for k in range(3):
        pc = compile_comparisons(data, random_split(data, 9, k))
        assert pc.wins.tobytes() == want[k].tobytes()
        assert all(getattr(pc, name).dtype == np.int64 for name in ("rec_i", "rec_j", "rec_t", "rec_y"))


def test_pseudo_wins_past_127_items_match_an_int64_oracle():
    data = sample_responses(sample_ground_truth(1500, 200, "standard-normal", seed=5), 0.05, seed=5)
    assert data.n_users * 200**2 >= pairing.BLOCK_THREAD_SIZE  # summed in two halves
    for scheme in ("wp", "pmle"):
        block = (PRODUCT_LIMIT - 1) // 200**2  # 13 users
        grams = [(X1 * w[:, None]).T @ X0
                 for _, X1, X0, w, _ in _naive_indicator_blocks(_int64_edges(data), scheme, block)]
        wins = _summed_in_halves(data, grams)
        assert _pseudo_wins(data, scheme).tobytes() == wins.tobytes()


@pytest.mark.parametrize("seed", range(5))
def test_sort_keys_past_int32_sort_and_dedupe_as_int64(seed):
    # user * n_items + item reaches 3 * (2**31 - 1) + 2**31 - 2
    n, m = 4, 2**31 - 1
    rng = np.random.default_rng(seed)
    items = np.concatenate([rng.choice([0, 1, 2**30, m - 2, m - 1], 3, replace=False)
                            for _ in range(n)])
    users = np.repeat(np.arange(n), 3)
    resp = rng.integers(0, 2, users.size)
    perm = rng.permutation(users.size)
    data = ResponseData(n, m, users[perm], items[perm], resp[perm])
    order = np.lexsort((items, users))
    assert data.user_ids.tobytes() == users[order].astype(np.int32).tobytes()
    assert data.item_ids.tobytes() == items[order].astype(np.int32).tobytes()
    assert data.responses.tobytes() == resp[order].astype(np.int8).tobytes()
    with pytest.raises(ValueError, match="duplicate"):
        ResponseData(n, m, np.r_[users[perm], users[0]], np.r_[items[perm], items[0]],
                     np.r_[resp[perm], 0])


@pytest.mark.parametrize("n_users, n_items, users, items", [
    (2**31, 2, [2**31 - 1], [0]),
    (2, 2**31, [0], [2**31 - 1]),
    (2**31 + 1, 2, [2**31], [0]),
    (2, 2, [2**31], [0]),
    (2, 2, [0], [2**31]),
])
def test_ids_from_2_to_the_31_are_rejected(n_users, n_items, users, items):
    with pytest.raises(ValueError):
        ResponseData(n_users, n_items, users, items, [0])


@pytest.mark.parametrize("row, sizes", [
    ("2147483648,0,1", {}),
    ("0,2147483648,1", {}),
    ("0,0,1", {"n_users": 2**31}),
    ("2147483648,0,1", {"n_users": 3, "n_items": 3}),
    ("9223372036854775808,0,1", {}),
    ("0,9223372036854775808,1", {"n_users": 3, "n_items": 3}),
])
def test_csv_ids_from_2_to_the_31_are_a_format_error(row, sizes):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        path.write_text(f"user_id,item_id,response\n{row}\n")
        with pytest.raises(DataFormatError):
            ResponseData.from_csv(path, **sizes)


# ---------------------------------------------------------------------------
# The 5-byte store: user ids and pair slots derived from the offsets
# ---------------------------------------------------------------------------

def _masked_pair_slots(indptr):
    """The pair slots the 9-byte store cached: even offsets within each
    user's block that have a successor in it, found by a mask over the edges."""
    counts = np.diff(indptr)
    local = np.arange(indptr[-1]) - np.repeat(indptr[:-1], counts)
    blocklen = np.repeat(counts, counts)
    return np.flatnonzero((local % 2 == 0) & (local + 1 < blocklen))


@st.composite
def offset_data(draw, shape):
    """Responses with ragged degrees, users with 0 or 1 responses among
    them, and trailing users with none; with the edge users it was built
    from.  ``shape`` picks how a split pairs and sorts: ``"strided"``
    (every degree even), ``"gathered"`` (an odd degree, one float64 row) or
    ``"rows"`` (two or more responding users of one degree, rows of whole
    users)."""
    m = draw(st.integers(2, 8))
    n = draw(st.integers(2, 15))
    rng = np.random.default_rng(draw(SEEDS))
    if shape == "rows":
        d = draw(st.integers(1, m))
        degrees = np.where(rng.random(n) < 0.7, d, 0)
        degrees[:2] = d
    else:
        degrees = rng.integers(0, m + 1, n)
        degrees[:2] = 1, 2
        if shape == "strided":
            degrees -= degrees % 2
    degrees = np.concatenate((rng.permutation(degrees), np.zeros(draw(st.integers(0, 3)), int)))
    users = np.repeat(np.arange(degrees.size), degrees)
    items = np.concatenate([np.sort(rng.permutation(m)[:d]) for d in degrees])
    return ResponseData(degrees.size, m, users, items, rng.integers(0, 2, users.size)), users


@PROPERTY
@pytest.mark.parametrize("shape", ["strided", "gathered", "rows"])
@given(draws=st.data(), seed=SEEDS)
def test_ids_and_slots_derived_from_the_offsets_match_the_stored_formulas(shape, draws, seed):
    data, users = draws.draw(offset_data(shape))
    ids = data.user_ids
    assert ids.dtype == np.int32 and not ids.flags.writeable
    assert ids.tobytes() == users.astype(np.int32).tobytes()
    indptr = np.concatenate(([0], np.cumsum(np.bincount(ids, minlength=data.n_users))))
    assert data.user_indptr.tobytes() == indptr.tobytes()
    slots = pairing._pair_slots(data)
    assert slots.tobytes() == _masked_pair_slots(indptr).tobytes()
    if shape == "rows":
        d = int(data.user_degrees().max())
        plan = pairing._split_plan(data)
        assert plan.width == d * max(3, pairing.ROW_KEYS // d) and plan.seams.size == 0
    else:
        assert (2 * slots.size == data.n_edges) == (shape == "strided")
    W = split_wins(data, seed, 3)
    for k in range(3):
        assert W[k].tobytes() == compile_comparisons(data, random_split(data, seed, k)).wins.tobytes()


def test_the_store_holds_5_bytes_per_edge_and_the_offsets():
    data = sample_responses(sample_ground_truth(300, 12, "standard-normal", seed=6), 0.3, seed=6)
    assert (data.user_degrees() % 2).any()  # pairs are gathered from derived slots
    random_split(data, 1, 0)
    split_wins(data, 1, 4)
    plugin_covariance(data, wp_mle(data))
    plugin_covariance(data, mrp_mle(data, EstimatorConfig(method="mrp", seed=1, n_split=4)))
    held = [v for v in vars(data).values() if isinstance(v, np.ndarray)]
    assert sum(a.nbytes for a in held) <= 5 * data.n_edges + 8 * (data.n_users + 1)
    assert all(not a.flags.writeable for a in held)
    assert set(vars(data)) == {"n_users", "n_items", "item_ids", "responses", "user_indptr"}
    ids = data.user_ids
    assert ids.dtype == np.int32 and not ids.flags.writeable


# ---------------------------------------------------------------------------
# CSV input
# ---------------------------------------------------------------------------

@PROPERTY
@given(response_data())
def test_csv_round_trip(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        data.to_csv(path)
        if not data.n_edges:  # a header with no response rows is rejected
            with pytest.raises(DataFormatError, match="no response rows"):
                ResponseData.from_csv(path, n_users=data.n_users, n_items=data.n_items)
            return
        back = ResponseData.from_csv(path, n_users=data.n_users, n_items=data.n_items)
        inferred = ResponseData.from_csv(path)
    for got in (back, inferred):
        for name in ("user_ids", "item_ids", "responses"):
            assert np.array_equal(getattr(got, name), getattr(data, name))
    assert (back.n_users, back.n_items) == (data.n_users, data.n_items)
    assert inferred.n_users == data.user_ids.max() + 1


@PROPERTY
@given(response_data())
def test_csv_text_is_each_edge_formatted_in_order(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        data.to_csv(path)
        text = path.read_bytes().decode()
    rows = [f"{int(t)},{int(i)},{int(x)}\n"
            for t, i, x in zip(data.user_ids, data.item_ids, data.responses)]
    assert text == ResponseData.CSV_HEADER + "\n" + "".join(rows)


MALFORMED = ("oops", "1,2", "1,2,3,4", "a,1,0", "0,0,2", "0,0,-1", "0,,1")


@PROPERTY
@given(response_data(), st.sampled_from(MALFORMED), st.data())
def test_malformed_line_anywhere_exits_3_naming_it(data, bad, pick):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        data.to_csv(path)
        lines = path.read_text().splitlines()
        at = pick.draw(st.integers(0, len(lines)), label="insert at")
        lines.insert(at, bad)
        path.write_text("\n".join(lines) + "\n")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["estimate", str(path), "--method", "pmle"])
    assert code == 3
    report = json.loads(err.getvalue())
    assert report["error"] == "DataFormatError"
    assert report["detail"].startswith(f"line {at + 1}:")
