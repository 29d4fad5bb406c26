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
pattern and is sorted in place as float64, in rows of about ``ROW_KEYS``
keys, after which the few keys around each row boundary that cuts a user
are sorted again.  Rounding the float key and dropping its payload bits
keep its order, so a sort that finds no two keys sharing their remaining
bits gives the exact (user, key) order at every user id.  When two keys do, the split's keys are drawn again from its
sub-stream and ordered by `np.lexsort`, exact and stable.  Whatever the route,
the comparisons of one split are summarized by one m x m win matrix:
`split_wins` compiles the splits of a multi-split fit straight into these
matrices, which is all the estimators read; it counts each pair by a code
formed from the two payloads, one `bincount` per split, and computes the
second half of a large batch of splits on a helper thread with a key buffer
of its own.  `random_split` and `compile_comparisons` expose one split
record by record, next to its win and count matrices, for checks and for
`laplacian.build_z_laplacian` (the paper's l2 error predictor).  A split
decodes its payloads ``a`` in one place, `_decoded_pairs`, as ``X = a >= m``
and ``item = a - m X``, orients each pair by ``np.maximum``/``np.minimum`` and
keeps the bool responses it paired as int8 views; it compiles against the
data object it was drawn from only, into the pairs whose responses differ,
where ``Y = 1{X_hi < X_lo}`` is ``X_lo``.  The overlapping route of the
pseudo-likelihood estimators takes every within-user item pair without
listing them: its win matrix is ``X1^T diag(w) X0``, from the users' 0/1
response indicators ``X1 = 1{X = 1}``, ``X0 = 1{X = 0}`` and weights ``w``,
block by block.  One reader, `_block_products`, serves this win matrix and
the score covariance of `inference`.  It fills chunks of whole blocks, one
scatter of int8 codes ``X + 1`` per chunk, ``X1`` and ``X0`` being its codes
equal to 2 and to 1, and hands each chunk to the caller's product, which
returns two arrays ``A`` and ``B``; the reader sums ``A^T B`` block by
block.  A block is fewer than ``PRODUCT_LIMIT / m**2`` users, so that every
product over a block is a gemm that OpenBLAS runs on the calling thread.  A
large input sums each half of its chunks from zeros in block order and then
adds the two totals, the second half on a helper thread when two CPUs are
usable; the halves are fixed by the input alone, so the result is the same
bits on one CPU or two.
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
# on the calling thread.  The products of `_pseudo_wins`, of
# `inference._wp_score_covariance` and of its exact split mixture each take
# a block's (users, m) array with an m-wide one, so blocks of
# (PRODUCT_LIMIT - 1) // m**2 users keep them under 2**19, where OpenBLAS
# runs a gemm on one thread: a 128 x 64 @ 64 x 64 gemm (2**19) woke its
# worker thread, which kept spinning on the second core after the call and
# slowed the next fit, and one of 127 rows did not (2-core x86-64, numpy
# 2.4.6, OpenBLAS 0.3.31).  A product of one array with its own
# transpose goes to syrk instead, which threads by a rule of its own, so the
# consumers keep the two operands distinct.  A block's float64 arrays stay
# under 2**19 / m entries too.  Above m = 64 blocks shrink, to 52 users at
# m = 100 and 13 at m = 200; a large input still takes them on two cores,
# chunk by chunk (`BLOCK_THREAD_SIZE`).
PRODUCT_LIMIT = 2**19

# (users, m) entries in a chunk of `_block_products`.  The Python cost of a
# pass is paid per chunk, not per block, so that two threads overlap: a
# chunk holds as many whole blocks as fit, 6 blocks of 209 users at m = 50.
CHUNK_ENTRIES = 2**16

# n_users * m**2 from which `_block_products` sums the two halves of its
# chunks apart, the second on a helper thread.  Two threads against one,
# median times of `_wp_score_covariance` at n=1e4: 0.91 vs 0.94 ms at m=20,
# p=0.5 (4e6, where `_pseudo_wins` took 0.65 vs 0.53 ms), 0.96 vs 1.43 ms at
# m=30, p=0.1 (9e6), 1.63 vs 2.67 ms at m=50 and 5.2 vs 11.5 ms at m=100
# (2-core x86-64, numpy 2.4).
BLOCK_THREAD_SIZE = 2**23

# Edges from which `split_wins` computes the two halves of its splits on two
# threads.  Two threads against one, median times of `split_wins`: 22.1 vs
# 14.6 ms on 5,000 edges (m=5, K=100, as LSAT), 15.1 vs 15.9 ms on 15,697
# (m=20, K=50), 18.5 vs 24.9 ms on 24,803 (m=50, K=50), 21.1 vs 30.0 ms on
# 31,596 and 32.9 vs 53.3 ms on 49,763 (n=1e4, m=50, p=0.1, K=50); 2-core
# x86-64, numpy 2.4.
SPLIT_THREAD_EDGES = 2**15

# Keys in a row of a split's sort: numpy's AVX-512 sort keeps a row of up to
# about 2**7 keys in registers.  With d the largest degree, a row holds
# d * max(3, ROW_KEYS // d) keys, and a user cut by a row boundary is sorted
# again in a window of 2 (d - 1) keys around it (see `_row_layout`).
# `_sorted_payload` on the 49,763 keys of n=1e4, m=50, p=0.1 (d = 15): 0.22
# ms in rows of 126 keys with 316 windows against 0.34 ms in one row
# (medians of 300, 2-core x86-64, numpy 2.4).
ROW_KEYS = 2**7


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _win_matrix(m: int, hi, lo, y) -> np.ndarray:
    """m x m win matrix of comparisons ``(hi, lo, y)``, ``hi > lo``;
    ``y = 1`` iff ``lo`` won, counting on ``[lo, hi]``."""
    # hi * m + lo, moved to lo * m + hi where y = 1, without a branch: 0.056
    # ms against 0.136 ms for np.where on the 20,503 records of a split at
    # n=1e4, m=20, p=0.5 (medians of 300, 2-core x86-64, numpy 2.4)
    key = hi * m + lo + (y == 1) * ((lo - hi) * (m - 1))
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

def _sorted_payload(key: np.ndarray, payload: np.ndarray, bits: int, width: int,
                    seams: np.ndarray) -> np.ndarray | None:
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
    of ``width``, the last row taking what is left, and then each row of
    positions ``seams`` is sorted again: that is the whole sort if every key
    out of place after the rows lies in one such window, and the windows are
    disjoint.
    """
    mask = (1 << bits) - 1
    packed = key.view(np.int64)
    packed &= ~mask
    packed |= payload
    full = key.size - key.size % width
    key[:full].reshape(-1, width).sort()
    key[full:].sort()
    window = key[seams]
    window.sort()
    key[seams] = window
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
    ``arange`` (0.20-0.30 ms on 5e4-1e5 edges, 2-core x86-64, numpy 2.4), so
    nothing is kept per input.
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
    ``2 * user``, in rows of ``width`` edges and then in the windows
    ``seams`` around the row boundaries that cut a user, and by
    `np.lexsort` of ``(key, user_key)`` when that sort reports a tie.  Pair
    ``j`` of a split is entries ``first[j]`` and ``second[j]`` of that order.
    """

    payload: np.ndarray
    bits: int
    width: int
    seams: np.ndarray
    user_key: np.ndarray
    first: np.ndarray | slice
    second: np.ndarray | slice


def _row_layout(indptr: np.ndarray) -> tuple[int, np.ndarray]:
    """Row width and seam windows of the sort of a split over users with
    offsets ``indptr``.

    A row holds ``max(3, ROW_KEYS // d)`` times the largest degree ``d``.  A
    row boundary that falls inside a user's block gets a window of the
    ``2 (d - 1)`` positions around it, moved inside the array where it would
    leave it.  As the keys order by user first, sorting the rows puts every
    user in its own block and orders each user that no boundary cuts; a cut
    user lies within its boundary's window, and as a row holds at least
    three users of degree ``d``, no two windows overlap.  Every boundary
    falls between users when all degrees are equal, and there are no windows.
    """
    n = int(indptr[-1])
    d = int(np.diff(indptr).max(initial=1))
    width = d * max(3, ROW_KEYS // d)
    inside = np.ones(n + 1, bool)
    inside[indptr] = False
    cuts = np.arange(width, n, width)
    cuts = cuts[inside[cuts]]
    start = np.clip(cuts - (d - 1), 0, n - 2 * (d - 1))
    return width, start[:, None] + np.arange(2 * (d - 1))


def _split_plan(data: ResponseData) -> _SplitPlan:
    m = data.n_items
    degrees = data.user_degrees()
    if not (degrees % 2).any():
        # every degree is even: the pairs are the entries two by two, read as
        # strided views instead of gathers; on n=1e4 users of degree 10,
        # split_wins(n_split=50) was faster so in 55 of 60 interleaved pairs
        first, second = slice(0, None, 2), slice(1, None, 2)
    else:
        first = _pair_slots(data)
        second = first + 1
    # The payload is formed in int64: m * X overflows the int8 responses from
    # m = 128.  2 * user is exact in float64, so it orders as the user ids
    # do; the key resolution of 2 * user + key falls as the ids grow (2**-31
    # near user 2**20), which makes ties likelier but never reorders two keys.
    width, seams = _row_layout(data.user_indptr)
    return _SplitPlan(data.item_ids + m * data.responses.astype(np.int64), (2 * m - 1).bit_length(),
                      width, seams, np.repeat(np.arange(data.n_users) * 2.0, degrees), first, second)


def _split_pairs(plan: _SplitPlan, seed: int, splits):
    """Payloads ``(a, b)`` of the pairs of each split in ``splits``.

    Each user's edges are put in a uniformly random order, drawn from the
    split's own sub-stream, and taken consecutively in pairs: pair ``j``
    joins the responses of payloads ``a[j]`` and ``b[j]``, and the
    left-over edge of an odd degree is the user's last.  ``a`` and ``b``
    may be views of the key buffer, which the next split overwrites.
    """
    # Lexsort orders only a reported tie because it is slower.  On 49,763
    # edges (n=1e4, m=50, p=0.1) lexsort takes 9.0 ms, a stable argsort of
    # the float key 0.86 ms, and the packed value sort of `_sorted_payload`
    # 0.22 ms in rows and seam windows (medians of 100, 2-core x86-64 with
    # AVX-512, numpy 2.4).  It fell back to lexsort in 0 of 2,000 splits:
    # 1,000 of 20 inputs shaped as n=1e4, m=50, p=0.1 and 1,000 of 20
    # fixed-length ones (all-zeros, uniform-mp, m=50, p=0.2), n_split=50,
    # seeds 0-19.
    keys = np.empty(plan.payload.size)
    for k in splits:
        _rng.substream(seed, _rng.SPLIT, k).random(out=keys)
        keys += plan.user_key
        order = _sorted_payload(keys, plan.payload, plan.bits, plan.width, plan.seams)
        if order is None:
            # the value sort overwrote the keys: draw them again
            _rng.substream(seed, _rng.SPLIT, k).random(out=keys)
            order = plan.payload[np.lexsort((keys, plan.user_key))]
        yield order[plan.first], order[plan.second]


def _decoded_pairs(data: ResponseData, seed: int, splits):
    """``(items_a, x_a, items_b, x_b)`` of the pairs of each split in
    ``splits``, read from one plan: the int64 items and bool responses of
    the payloads ``a = item + m * X`` of `_split_pairs`, as ``X = a >= m``
    and ``item = a - m X``: 0.035 ms per 22,399 payloads (n=1e4, m=50,
    p=0.1) against 0.092 ms for an int64 ``divmod`` (medians of 400
    interleaved, 2-core x86-64, numpy 2.4)."""
    m = data.n_items
    for a, b in _split_pairs(_split_plan(data), seed, splits):
        x_a, x_b = a >= m, b >= m
        yield a - m * x_a, x_a, b - m * x_b, x_b


def random_split(data: ResponseData, seed: int, split_index: int = 0) -> SplitAssignment:
    """Disjoint random pairing of each user's responded items.

    Shuffling a user's items and taking consecutive disjoint pairs yields a
    uniformly random perfect matching on a uniformly random even-sized subset
    (the left-over item of an odd count is uniform).  ``split_index`` selects
    an independent sub-stream, so repeated splits of the same data never share
    randomness.
    """
    (items_a, x_a, items_b, x_b), = _decoded_pairs(data, seed, (split_index,))
    split = SplitAssignment(users=_pair_users(data), items_hi=np.maximum(items_a, items_b),
                            items_lo=np.minimum(items_a, items_b))
    # the responses at item_hi and item_lo, selected by bool operations: on
    # 47,307 pairs (n=1e4, m=20, p=0.5) 0.035 ms against 0.65 ms for two
    # np.where on the orientation
    differ = x_a ^ x_b
    x_hi = x_a ^ (differ & (items_a < items_b))
    object.__setattr__(split, "_source", data)
    object.__setattr__(split, "_x_hi", _frozen(x_hi).view(np.int8))
    object.__setattr__(split, "_x_lo", _frozen(x_hi ^ differ).view(np.int8))
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
    x_lo = split._x_lo
    keep = np.flatnonzero(split._x_hi != x_lo)
    return PairedComparisons(
        m=data.n_items, rec_i=split.items_hi.take(keep), rec_j=split.items_lo.take(keep),
        rec_t=split.users.take(keep),
        rec_y=x_lo.take(keep),  # Y_ij = 1{X_ti < X_tj}, which is X_tj where they differ
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


def _product_block(m: int) -> int:
    """Users in a block of the indicator products, ``max(1, (PRODUCT_LIMIT - 1) // m**2)``."""
    return max(1, (PRODUCT_LIMIT - 1) // m**2)


def _block_products(data: ResponseData, scheme: str, product) -> np.ndarray:
    """Sum of ``A[s]^T B[s]`` over the blocks ``s`` of `_product_block` users,
    added in an order fixed by the input (below), where ``A, B =
    product(X1, X0, w, block)`` are formed from the users' 0/1 response
    indicators.

    The users are read in chunks of a whole number of blocks, about
    ``CHUNK_ENTRIES`` ``(users, m)`` entries each, and ``product(X1, X0, w,
    block)`` is called once per chunk: row ``t`` of ``X1`` (``X0``) marks the
    items the chunk's user ``t`` answered with ``X = 1`` (``X = 0``), and
    ``w[t]`` is the user's weight, ``mt_even / (m_t (m_t - 1))`` for ``"wp"``
    and 1 for ``"pmle"``, 0 below two responses.  Item ``i`` beat item ``j``
    for user ``t`` exactly where ``X1[t, i] X0[t, j] = 1``.  ``product`` may
    overwrite its arrays, returns two distinct ``(users, m)`` arrays and
    takes each of its own gemms on one slice of ``block`` rows.  A product
    of a slice with an ``(m, m)`` array, and each ``A[s]^T B[s]``, is then a
    gemm of fewer than ``PRODUCT_LIMIT`` multiply-adds, which OpenBLAS runs
    on the calling thread (up to m = 724; past that a block is one user).

    A chunk is filled by one scatter of int8 response codes, ``X + 1``, into
    a zeroed ``(users, m)`` code array, flat at ``(user - first) * m + item``;
    ``X1`` and ``X0`` are then its entries equal to 2 and to 1, as float64:
    0.92 ms a pass at n=1e4, m=20, p=0.5 against 1.42 ms for a scatter of
    float64 0/1 values into both (medians of 200, 2-core x86-64, numpy 2.4).
    While ``n_users * m**2 < BLOCK_THREAD_SIZE`` the blocks' matrices are
    added to zeros in block order.  From there ``c >= 2`` chunks are cut into
    halves at ``c // 2``, each half's matrices are added to zeros in block
    order, and the result is the first half's total plus the second's
    (`_threads.in_halves`): the second half runs on a helper thread when two
    CPUs are usable and on the caller after the first otherwise.  Each
    block's matrix depends on its own users only, so the result is the same
    bits on one CPU or two.  A half holds one running total, one block's
    matrix and one chunk's arrays, whatever ``n_users``: a score covariance
    at n=2e4, m=200, p=0.1 peaks at 8.9 MiB under tracemalloc (2-core
    x86-64, numpy 2.4).
    """
    if scheme not in ("wp", "pmle"):
        raise ValueError(f"unknown scheme {scheme!r}; expected 'wp' or 'pmle'")
    m, n = data.n_items, data.n_users
    indptr = data.user_indptr
    degrees = data.user_degrees()
    mt = degrees.astype(float)
    w = ((mt - mt % 2) / np.maximum(mt * (mt - 1.0), 1.0) if scheme == "wp"
         else (mt >= 2).astype(float))
    codes = data.responses + 1
    block = _product_block(m)
    chunk = block * max(1, CHUNK_ENTRIES // (block * m))

    def read(lo: int, hi: int) -> np.ndarray:
        total, gram = np.zeros((m, m)), np.empty((m, m))
        for first in range(lo * chunk, min(hi * chunk, n), chunk):
            last = min(first + chunk, n)
            edges = slice(indptr[first], indptr[last])
            code = np.zeros((last - first, m), np.int8)
            # in intp: past 2**31 entries a chunk's flat index leaves int32
            rows = np.repeat(np.arange(last - first), degrees[first:last])
            code.ravel()[rows * m + data.item_ids[edges]] = codes[edges]
            A, B = product((code == 2).astype(float), (code == 1).astype(float),
                           w[first:last], block)
            for s in range(0, last - first, block):
                np.matmul(A[s:s + block].T, B[s:s + block], out=gram)
                total += gram
        return total

    halves = _threads.in_halves(read, -(-n // chunk), n * m * m >= BLOCK_THREAD_SIZE)
    return sum(halves[1:], halves[0])  # the first half's total + the second's


def _pseudo_wins(data: ResponseData, scheme: str) -> np.ndarray:
    """Win matrix of every within-user comparison, ``sum_t w_t X1[t]^T X0[t]``,
    summed over the blocks of `_block_products`."""

    def product(X1, X0, w, block):
        X1 *= w[:, None]
        return X1, X0

    return _block_products(data, scheme, product)
