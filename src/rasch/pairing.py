"""Compile user-item responses into item-item comparisons.

Two routes are implemented.  The random disjoint route shuffles each user's
responded items, pairs them consecutively (dropping one item when the count is
odd), and keeps a comparison record only when the two responses differ.  Each
response is used at most once per split, which is what makes the resulting
comparison outcomes conditionally independent.  The pairs of a split are
read in one way, `_split_pairs`, from a plan that the splits of one call
share.  It orders the edges with one value sort in one key buffer, reused
by every split of a call: each edge's float sort key, drawn into the buffer,
gets the response's payload ``item + m * X`` in the low bits of its bit
pattern and is sorted in place as float64: in rows of about ``ROW_KEYS``
keys that hold whole users when every responding user answered the same
number of items, and in one row otherwise.  Rounding the float key and
dropping its payload bits keep its order, so a sort that finds no two keys
sharing their remaining bits gives the exact (user, key) order at every
user id.  When two keys do, the split's keys are drawn again from its
sub-stream and ordered by `np.lexsort`, exact and stable.  Whatever the route,
the comparisons of one split are summarized by one m x m win matrix:
`split_wins` compiles the splits of a multi-split fit straight into these
matrices, which is all the estimators read; it counts each pair by a code
formed from the two payloads, one `bincount` per split, and computes the
second half of a large batch of splits on a helper thread with a key buffer
of its own.  `random_split` and `compile_comparisons` expose one split
record by record, next to its win and count matrices, for checks and for
`laplacian.build_z_laplacian` (the paper's l2 error predictor); a split
keeps the responses it paired, and compiles against the data object it was
drawn from only.  The overlapping route of the
pseudo-likelihood estimators takes every within-user item pair without
listing them: its win matrix is ``X1^T diag(w) X0``, from the users' 0/1
response indicators ``X1 = 1{X = 1}``, ``X0 = 1{X = 0}`` and weights ``w``,
block by block; a block is filled by one scatter of int8 codes ``X + 1``,
and ``X1`` and ``X0`` are its codes equal to 2 and to 1.  One rule sizes
the blocks, for this win matrix and for the score covariance of
`inference`: fewer than ``PRODUCT_LIMIT / m**2`` users, so that every
product over a block is a gemm that OpenBLAS runs on the calling thread.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import _rng, _threads
from .model import ResponseData, sigmoid

__all__ = [
    "SplitAssignment",
    "PairedComparisons",
    "random_split",
    "compile_comparisons",
    "split_wins",
    "btl_win_prob",
    "disagreement_prob",
]


# Multiply-adds below which every product over a block of indicators stays
# on the calling thread.  The products of `_pseudo_wins` and of
# `inference._wp_score_covariance` each take a block's (users, m) array with
# an m-wide one, so blocks of (PRODUCT_LIMIT - 1) // m**2 users keep them
# under 2**19, where OpenBLAS runs a gemm on one thread: a 128 x 64 @ 64 x 64
# gemm (2**19) woke its worker thread, which kept spinning on the second core
# after the call and slowed the next fit, and one of 127 rows did not (2-core
# x86-64, numpy 2.4.6, OpenBLAS 0.3.31).  A product of one array with its own
# transpose goes to syrk instead, which threads by a rule of its own, so the
# consumers keep the two operands distinct.  A block's float64 arrays stay
# under 2**19 / m entries too.  Above m = 64 blocks shrink, to 52 users at
# m = 100 and 13 at m = 200, where a score covariance at n=1e4, p=0.1 took
# 103 ms against 36 ms on two cores with 1024-user blocks.
PRODUCT_LIMIT = 2**19

# Edges from which `split_wins` computes the two halves of its splits on two
# threads.  Two threads against one, median times of `split_wins`: 22.1 vs
# 14.6 ms on 5,000 edges (m=5, K=100, as LSAT), 15.1 vs 15.9 ms on 15,697
# (m=20, K=50), 18.5 vs 24.9 ms on 24,803 (m=50, K=50), 21.1 vs 30.0 ms on
# 31,596 and 32.9 vs 53.3 ms on 49,763 (n=1e4, m=50, p=0.1, K=50); 2-core
# x86-64, numpy 2.4.
SPLIT_THREAD_EDGES = 2**15

# Keys in a row of a split's sort when every responding user has one degree
# d: rows of d * max(1, ROW_KEYS // d) keys hold whole users, so sorting each
# row is the whole sort, and numpy's AVX-512 sort keeps a row of up to about
# 2**7 keys in registers.  `_sorted_payload` on 1e5 keys, n=1e4 users of
# d = 10, medians of 300 interleaved: 0.58 ms in int64 rows of one user,
# 0.44 ms in float64 rows of 30 keys, 0.38 of 60, 0.37 of 120, 0.38 of 250
# and 0.84 ms in one row; on 5,000 keys of d = 5 (LSAT-sized), 0.044-0.066
# ms against 0.025-0.033 ms in rows of 125 (2-core x86-64, numpy 2.4).
ROW_KEYS = 2**7


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _win_matrix(m: int, hi, lo, y) -> np.ndarray:
    """m x m win matrix of comparisons ``(hi, lo, y)``, ``hi > lo``;
    ``y = 1`` iff ``lo`` won, counting on ``[lo, hi]``."""
    key = np.where(y == 1, lo * m + hi, hi * m + lo)
    return np.bincount(key, minlength=m * m).reshape(m, m)


@dataclass(frozen=True)
class SplitAssignment:
    """One disjoint random pairing: rows are (user, item_hi, item_lo), item_hi > item_lo.

    A split drawn by `random_split` also keeps, privately, the `ResponseData`
    it was drawn from (``_source``) and the int8 responses of each pair at
    ``item_hi`` and ``item_lo`` (``_x_hi``, ``_x_lo``), frozen;
    `compile_comparisons` compiles them against that same data object only.
    A split built by hand has no source, and compiles against no data.
    """

    users: np.ndarray
    items_hi: np.ndarray
    items_lo: np.ndarray
    _source: ResponseData | None = field(default=None, init=False, repr=False, compare=False)
    _x_hi: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _x_lo: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("users", "items_hi", "items_lo"):
            object.__setattr__(self, name, _frozen(np.asarray(getattr(self, name), dtype=np.int64)))
        if not np.all(self.items_hi > self.items_lo):
            raise ValueError("pairs must satisfy item_hi > item_lo")

    @property
    def n_pairs(self) -> int:
        return self.users.size


@dataclass(frozen=True)
class PairedComparisons:
    """Item-item comparison records and their m x m win and count matrices.

    A record ``(i, j, t, y)`` with ``i > j`` means user ``t`` had the pair
    selected and responded differently; ``y = 1`` iff ``X_ti < X_tj`` (item j
    "won", i.e. was the harder one).  ``wins[a, b]`` counts the records item
    ``a`` won against item ``b``, and ``counts = wins + wins^T``.  The edges
    ``(edge_i[e], edge_j[e])``, ``edge_i > edge_j`` in row-major order, are
    the item pairs with at least one record.
    """

    m: int
    rec_i: np.ndarray
    rec_j: np.ndarray
    rec_t: np.ndarray
    rec_y: np.ndarray
    wins: np.ndarray = field(init=False, repr=False)
    counts: np.ndarray = field(init=False, repr=False)
    edge_i: np.ndarray = field(init=False, repr=False)
    edge_j: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        for name in ("rec_i", "rec_j", "rec_t", "rec_y"):
            object.__setattr__(self, name, _frozen(np.asarray(getattr(self, name), dtype=np.int64)))
        wins = _win_matrix(self.m, self.rec_i, self.rec_j, self.rec_y).astype(float)
        counts = wins + wins.T
        object.__setattr__(self, "wins", _frozen(wins))
        object.__setattr__(self, "counts", _frozen(counts))
        for name, arr in zip(("edge_i", "edge_j"), np.nonzero(np.tril(counts, -1))):
            object.__setattr__(self, name, _frozen(arr))

    @property
    def n_records(self) -> int:
        return self.rec_i.size


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def _sorted_payload(key: np.ndarray, payload: np.ndarray, bits: int, width: int) -> np.ndarray | None:
    """``payload`` in the stable sorted order of ``key``, for keys ``>= 0``
    and payloads in ``[0, 2**bits)``, found by one value sort in ``key``'s
    own buffer; None when that sort cannot stand in for a stable one.

    A non-negative float64, subnormals included, sorts as its int64 bit
    pattern.  The low ``bits`` bits of each key are replaced in place by its
    payload and the keys are sorted as values; when no two of them share the
    bits above those, the sort orders the payloads exactly as a stable sort
    of the keys does, and they are returned as the int64 view of ``key``.
    An exact tie, or two keys less than ``2**bits`` ulps apart, returns
    None, with ``key`` overwritten.  The keys are sorted as float64 in rows
    of ``width``, the last row taking what is left: that is the whole sort
    if every key of a row is below every key of the next.
    """
    mask = (1 << bits) - 1
    packed = key.view(np.int64)
    packed &= ~mask
    packed |= payload
    full = key.size - key.size % width
    key[:full].reshape(-1, width).sort()
    key[full:].sort()
    high = packed >> bits
    if (high[1:] == high[:-1]).any():
        return None
    packed &= mask
    return packed


def _pair_slots(data: ResponseData) -> np.ndarray:
    """Edge positions where the pairs of a split start, in user order.

    User ``t``'s are ``user_indptr[t] + 2 j`` for ``j < m_t // 2``: pair
    ``j`` of a user is entries ``2 j`` and ``2 j + 1`` of the user's block
    in the order of a split, and the left-over entry of an odd block is
    its last.  Derived from the offsets on each call, one ``repeat`` and one
    ``arange``.  The 9-byte store cached them as int32 on the data object,
    4 bytes per pair of every input, formed by a mask over every edge: 0.77-
    1.51 ms against 0.20-0.30 ms this way on the seed-1 inputs of the three
    in-process benchmark workloads, 5e4-1e5 edges (medians of 200, 2-core
    x86-64, numpy 2.4).
    """
    indptr = data.user_indptr
    half = np.diff(indptr) // 2
    first_pair = np.cumsum(half) - half
    return np.repeat(indptr[:-1] - 2 * first_pair, half) + 2 * np.arange(half.sum())


def _pair_users(data: ResponseData) -> np.ndarray:
    """User of each pair of a split, in the order of `_pair_slots`."""
    return np.repeat(np.arange(data.n_users), data.user_degrees() // 2)


class _SplitPlan(NamedTuple):
    """What the splits of one call share, formed once by `_split_plan`.

    ``payload`` is each edge's ``item + m * X``, below ``2**bits``; a split
    sorts it by the float key ``user_key + key``, ``user_key`` being
    ``2 * user``, in rows of ``width`` edges that hold whole users, and by
    `np.lexsort` of ``(key, user_key)`` when that sort reports a tie.  Pair
    ``j`` of a split is entries ``first[j]`` and ``second[j]`` of that order.
    """

    payload: np.ndarray
    bits: int
    width: int
    user_key: np.ndarray
    first: np.ndarray | slice
    second: np.ndarray | slice


def _split_plan(data: ResponseData) -> _SplitPlan:
    m = data.n_items
    degrees = data.user_degrees()
    d = int(degrees.max(initial=1))
    if not (degrees % 2).any():
        # every degree is even: the pairs are the entries two by two, read as
        # strided views instead of gathers; on n=1e4 users of degree 10,
        # split_wins(n_split=50) was faster so in 55 of 60 interleaved pairs
        first, second = slice(0, None, 2), slice(1, None, 2)
    else:
        first = _pair_slots(data)
        second = first + 1
    # The payload is formed in int64: m * X overflows the int8 responses from
    # m = 128.  When the users with responses share a degree d, a row holds
    # max(1, ROW_KEYS // d) whole users; otherwise one row holds every key.
    # 2 * user is exact in float64, so it orders as the user ids do; the key
    # resolution of 2 * user + key falls as the ids grow (2**-31 near user
    # 2**20), which makes ties likelier but never reorders two keys.
    fixed = np.all(degrees[degrees > 0] == d)
    return _SplitPlan(data.item_ids + m * data.responses.astype(np.int64), (2 * m - 1).bit_length(),
                      d * max(1, ROW_KEYS // d) if fixed else data.n_edges,
                      np.repeat(np.arange(data.n_users) * 2.0, degrees), first, second)


def _split_pairs(plan: _SplitPlan, seed: int, splits):
    """Payloads ``(a, b)`` of the pairs of each split in ``splits``.

    Each user's edges are put in a uniformly random order, drawn from the
    split's own sub-stream, and taken consecutively in pairs: pair ``j``
    joins the responses of payloads ``a[j]`` and ``b[j]``, and the
    left-over edge of an odd degree is the user's last.  ``a`` and ``b``
    may be views of the key buffer, which the next split overwrites.
    """
    # Lexsort orders only a reported tie because it is slower.  On 5e4 edges
    # (n=1e4, m=50, p=0.1) lexsort takes 1.33 ms, a stable argsort of the
    # float key 1.27 ms, and the packed value sort of `_sorted_payload`
    # 0.35 ms as float64 against 0.40 ms as int64 (medians of 100, 2-core
    # x86-64 with AVX-512, numpy 2.4).  Rows of whole users made
    # split_wins(n_split=50) at n=1e4, m=50, d = 10 take 40.1 ms against
    # 47.9 ms in rows of one user, and at LSAT size (n=1000, d = 5,
    # n_split=100) 11.9 against 15.5 ms (medians of 40 interleaved).  It
    # fell back to lexsort in 0 of 2,000 splits: 1,000 of 20 inputs shaped as
    # n=1e4, m=50, p=0.1 and 1,000 of 20 fixed-length ones (all-zeros,
    # uniform-mp, m=50, p=0.2), n_split=50, seeds 0-19.
    keys = np.empty(plan.payload.size)
    for k in splits:
        _rng.substream(seed, _rng.SPLIT, k).random(out=keys)
        keys += plan.user_key
        order = _sorted_payload(keys, plan.payload, plan.bits, plan.width)
        if order is None:
            # the value sort overwrote the keys: draw them again
            _rng.substream(seed, _rng.SPLIT, k).random(out=keys)
            order = plan.payload[np.lexsort((keys, plan.user_key))]
        yield order[plan.first], order[plan.second]


def random_split(data: ResponseData, seed: int, split_index: int = 0) -> SplitAssignment:
    """Disjoint random pairing of each user's responded items.

    Shuffling a user's items and taking consecutive disjoint pairs yields a
    uniformly random perfect matching on a uniformly random even-sized subset
    (the left-over item of an odd count is uniform).  ``split_index`` selects
    an independent sub-stream, so repeated splits of the same data never share
    randomness.
    """
    (a, b), = _split_pairs(_split_plan(data), seed, (split_index,))
    x_a, items_a = np.divmod(a, data.n_items)
    x_b, items_b = np.divmod(b, data.n_items)
    a_is_hi = items_a >= items_b
    split = SplitAssignment(
        users=_pair_users(data),
        items_hi=np.where(a_is_hi, items_a, items_b),
        items_lo=np.where(a_is_hi, items_b, items_a),
    )
    object.__setattr__(split, "_source", data)
    object.__setattr__(split, "_x_hi", _frozen(np.where(a_is_hi, x_a, x_b).astype(np.int8)))
    object.__setattr__(split, "_x_lo", _frozen(np.where(a_is_hi, x_b, x_a).astype(np.int8)))
    return split


def split_wins(data: ResponseData, seed: int, n_split: int) -> np.ndarray:
    """Win matrices of splits ``0 .. n_split-1``, stacked as ``(n_split, m, m)``.

    ``W[k, i, j]`` counts the comparisons of split ``k`` that item ``i`` won
    against item ``j``: pairs whose responses differ, won by the item with
    ``X = 1``.  Split ``k`` pairs exactly as ``random_split(data, seed, k)``.
    With at least ``SPLIT_THREAD_EDGES`` edges, two splits or more and two
    usable CPUs, the second half of the splits is computed on a helper
    thread, each half with its own key buffer; every split is drawn from its
    own sub-stream, so the matrices are the same bits either way.
    """
    m = data.n_items
    plan = _split_plan(data)
    out = np.empty((n_split, m, m))

    def fill(lo: int, hi: int) -> None:
        splits = range(lo, hi)
        for k, (a, b) in zip(splits, _split_pairs(plan, seed, splits)):
            # A pair of payloads (a, b), each item + m * X in [0, 2m), counts
            # at a * 2m + b, so the bins are B[X_a, item_a, X_b, item_b]: the
            # pairs that differ are those at B[1, :, 0, :] (a won) and at
            # B[0, :, 1, :] (b won).
            pair = a * (2 * m)
            pair += b
            B = np.bincount(pair, minlength=4 * m * m).reshape(2, m, 2, m)
            np.add(B[1, :, 0, :], B[0, :, 1, :].T, out=out[k])

    _threads.in_halves(fill, n_split, data.n_edges >= SPLIT_THREAD_EDGES)
    return out


def compile_comparisons(data: ResponseData, split: SplitAssignment) -> PairedComparisons:
    """Turn a split into comparison records, dropping pairs with equal responses.

    The split carries the responses `random_split` paired, so it compiles
    only against the very ``data`` object it was drawn from; any other split,
    or other data (an equal copy included), raises `ValueError`.
    """
    if split._source is not data:
        raise ValueError("a split compiles only against the data object random_split drew it from")
    x_hi, x_lo = split._x_hi, split._x_lo
    keep = x_hi != x_lo
    return PairedComparisons(
        m=data.n_items, rec_i=split.items_hi[keep], rec_j=split.items_lo[keep],
        rec_t=split.users[keep],
        rec_y=(x_hi[keep] < x_lo[keep]).astype(np.int64),  # Y_ij = 1{X_ti < X_tj}
    )


def btl_win_prob(theta_i: float, theta_j: float):
    """``P[X_ti < X_tj | responses differ] = e^theta_j / (e^theta_i + e^theta_j)``.

    Conditioned on a disagreement, the comparison outcome follows the
    Bradley-Terry-Luce law in the item parameters alone; the user parameter
    cancels.
    """
    return sigmoid(np.asarray(theta_j, float) - np.asarray(theta_i, float))


def disagreement_prob(theta_i: float, theta_j: float, zeta_t: float):
    """``P[X_ti != X_tj]`` for one user responding to both items.

    Closed form ``(e^(a) + e^(b)) / ((1 + e^a)(1 + e^b))`` with
    ``a = theta_i - zeta_t`` and ``b = theta_j - zeta_t``, evaluated in
    logistic form.  Bounded below by ``2*kappa2/(1+kappa2)^2`` whenever both
    offsets are within ``log(kappa2)``.
    """
    a = np.asarray(theta_i, float) - np.asarray(zeta_t, float)
    b = np.asarray(theta_j, float) - np.asarray(zeta_t, float)
    out = sigmoid(a) * sigmoid(-b) + sigmoid(-a) * sigmoid(b)
    return out if np.ndim(out) else float(out)


def _indicator_blocks(data: ResponseData, scheme: str):
    """Dense 0/1 response indicators, ``max(1, (PRODUCT_LIMIT - 1) // m**2)``
    users at a time.

    Yields ``(first, X1, X0, w)``: row ``t`` of ``X1`` (``X0``) marks the items
    user ``first + t`` answered with ``X = 1`` (``X = 0``), and ``w[t]`` is the
    user's weight, ``mt_even / (m_t (m_t - 1))`` for ``"wp"`` and 1 for
    ``"pmle"``, 0 below two responses.  Item ``i`` beat item ``j`` for user
    ``t`` exactly where ``X1[t, i] X0[t, j] = 1``.  A product of a block's
    ``(users, m)`` array with an ``(m, m)`` one is then a gemm of fewer than
    ``PRODUCT_LIMIT`` multiply-adds, which OpenBLAS runs on the calling thread
    (up to m = 724; past that a block is one user).

    A block is filled by one scatter of int8 response codes, ``X + 1``, into
    a zeroed ``(users, m)`` code array, flat at ``(user - first) * m + item``;
    ``X1`` and ``X0`` are then its entries equal to 2 and to 1, as float64.
    The codes are the int8 responses plus one, one byte per edge and no
    cast.  The rows come from the offsets, one ``repeat`` per block.  Neither
    the index nor a code matrix is cached on the data.  On the 9-byte-per-edge
    store of the time, an int64 index per edge raised the benchmark's
    peak RSS by 31% on its wp-dense pool (102.4 to 134.3 MB) and by 19% on
    mrp-sparse (77.9 to 92.9 MB), and an int8 n x m code matrix raised it by
    24% on mrp-sparse (77.9 to 96.4 MB) and 4% on wp-dense (seeds 1-2).
    Scattering float64 0/1 values into ``X1`` and ``X0`` directly
    took 1.42 ms per pass at n=1e4, m=20, p=0.5 against 0.92 ms this way,
    and 1.18 against 0.95 ms at m=50, p=0.1 (``np.equal(code, k, out=X1)``:
    0.97 and 1.13 ms; medians of 200, 2-core x86-64, numpy 2.4).
    """
    if scheme not in ("wp", "pmle"):
        raise ValueError(f"unknown scheme {scheme!r}; expected 'wp' or 'pmle'")
    m = data.n_items
    indptr = data.user_indptr
    degrees = data.user_degrees()
    mt = degrees.astype(float)
    w = ((mt - mt % 2) / np.maximum(mt * (mt - 1.0), 1.0) if scheme == "wp"
         else (mt >= 2).astype(float))
    codes = data.responses + 1
    block = max(1, (PRODUCT_LIMIT - 1) // m**2)
    for first in range(0, data.n_users, block):
        last = min(first + block, data.n_users)
        edges = slice(indptr[first], indptr[last])
        code = np.zeros((last - first, m), np.int8)
        # in intp: past 2**31 entries a block's flat index leaves int32
        rows = np.repeat(np.arange(last - first), degrees[first:last])
        code.ravel()[rows * m + data.item_ids[edges]] = codes[edges]
        yield first, (code == 2).astype(float), (code == 1).astype(float), w[first:last]


def _pseudo_wins(data: ResponseData, scheme: str) -> np.ndarray:
    """Win matrix of every within-user comparison, ``sum_t w_t X1[t]^T X0[t]``."""
    W = np.zeros((data.n_items, data.n_items))
    for _, X1, X0, w in _indicator_blocks(data, scheme):
        W += (X1 * w[:, None]).T @ X0
    return W

