"""Ground-truth parameters, Rasch response sampling, and condition numbers.

The generative model: user ``t`` responds to item ``i`` with a binary outcome
``X_ti`` where ``P[X_ti = 1] = sigma(theta_i - zeta_t)``.  ``X_ti = 1`` is the
negative response (the user "loses to" the item), so larger ``theta_i`` means
a harder item.  Item parameters are identified only up to a shift; the whole
package works with the zero-mean representative of ``theta``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import _rng
from .errors import DataFormatError

__all__ = [
    "GroundTruth",
    "ConditionNumbers",
    "ResponseData",
    "sigmoid",
    "sigmoid_deriv",
    "sample_ground_truth",
    "rasch_response_prob",
    "sample_responses",
    "condition_numbers",
]


# ---------------------------------------------------------------------------
# Stable logistic primitives (shared by the whole package)
# ---------------------------------------------------------------------------

def sigmoid(x):
    """Logistic function ``1 / (1 + exp(-x))``, branch-stable for |x| large."""
    x = np.asarray(x, dtype=float)
    # -|x|, except that np.minimum returns a NaN input as it is, sign and all
    t = np.exp(np.minimum(x, -x))
    out = np.where(x >= 0, 1.0, t) / (1.0 + t)
    return out if out.ndim else float(out)


def sigmoid_deriv(x):
    """Derivative of the logistic: ``exp(-|x|) / (1 + exp(-|x|))^2``.

    Equals ``e^a e^b / (e^a + e^b)^2`` for ``x = a - b``; maximum 1/4 at 0.
    """
    x = np.asarray(x, dtype=float)
    t = np.exp(-np.abs(x))
    out = t / (1.0 + t) ** 2
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GroundTruth:
    """True item parameters ``theta_star`` (zero mean) and user parameters
    ``zeta_star``.

    ``theta_star`` is mean-shifted at construction: every downstream identity
    (loss gradients, Laplacian null space, confidence intervals) assumes the
    zero-sum representative.  ``zeta_star`` is stored as given.
    """

    theta_star: np.ndarray
    zeta_star: np.ndarray

    def __post_init__(self):
        theta = np.asarray(self.theta_star, dtype=float)
        zeta = np.asarray(self.zeta_star, dtype=float)
        if theta.ndim != 1 or zeta.ndim != 1 or theta.size < 1 or zeta.size < 1:
            raise ValueError("theta_star and zeta_star must be non-empty 1-d vectors")
        if not (np.all(np.isfinite(theta)) and np.all(np.isfinite(zeta))):
            raise ValueError("parameters must be finite")
        theta = theta - theta.mean()
        theta.setflags(write=False)
        zeta = zeta.copy()
        zeta.setflags(write=False)
        object.__setattr__(self, "theta_star", theta)
        object.__setattr__(self, "zeta_star", zeta)

    @property
    def m(self) -> int:
        return self.theta_star.size

    @property
    def n(self) -> int:
        return self.zeta_star.size

    def to_json(self) -> str:
        return json.dumps({"theta": self.theta_star.tolist(), "zeta": self.zeta_star.tolist()})

    @classmethod
    def from_json(cls, text: str) -> "GroundTruth":
        obj = json.loads(text)
        return cls(np.asarray(obj["theta"], float), np.asarray(obj["zeta"], float))


@dataclass(frozen=True)
class ConditionNumbers:
    """Exponentials of the parameter ranges.

    ``kappa1 = exp(max_ij |theta_i - theta_j|)`` measures the item spread,
    ``kappa2 = exp(max_ti |zeta_t - theta_i|)`` the user-item spread, and
    ``kappa = max(kappa1, kappa2)``.  All are >= 1.
    """

    kappa1: float
    kappa2: float
    kappa: float


@dataclass(frozen=True, eq=False, init=False)
class ResponseData:
    """Sparse binary user-item responses.

    Edges are stored sorted by ``(user_id, item_id)`` with no duplicate
    pairs, 5 bytes per edge: int32 ``item_ids`` and int8 ``responses``, as
    parallel read-only arrays, next to the read-only int64 offsets
    ``user_indptr``, 8 bytes per user and one more: the edges of user ``t``
    are those in ``[user_indptr[t], user_indptr[t + 1])``.  ``user_ids``
    is derived from the offsets on each read.  ``responses`` holds
    ``X_ti`` in {0, 1} with the negative-response convention of the model.
    Every input is stored at these widths, so ``n_users``, ``n_items`` and
    the number of edges must be below ``2**31``, and ``n_items`` at least 1;
    sums and products that can leave them (the ``(user, item)`` sort key,
    split payloads, flat indices) are formed in int64.

    Edges may be given in any order.  The arrays are copied, so the caller's
    arrays stay writable and later changes to them do not reach the data.
    Input already sorted without duplicates, as every sampler, the LSAT
    loaders and `to_csv` produce it, is recognized in one linear pass; other
    input is sorted once.  Two objects are equal only when they are the same
    object: a split compiles against the data it was drawn from only, and
    not against an equal copy.
    """

    n_users: int
    n_items: int
    item_ids: np.ndarray
    responses: np.ndarray
    user_indptr: np.ndarray

    def __init__(self, n_users: int, n_items: int, user_ids, item_ids, responses):
        if not (0 <= n_users < 2**31 and 1 <= n_items < 2**31):
            raise ValueError("n_users must be in [0, 2**31) and n_items in [1, 2**31)")
        users = np.array(user_ids, dtype=np.int64)
        items = np.array(item_ids, dtype=np.int64)
        resp = np.array(responses, dtype=np.int64)
        if not (users.shape == items.shape == resp.shape) or users.ndim != 1:
            raise ValueError("edge arrays must be 1-d and of equal length")
        if users.size >= 2**31:
            raise ValueError("at most 2**31 - 1 edges")
        if users.size:
            if users.min() < 0 or users.max() >= n_users:
                raise ValueError("user_id out of range")
            if items.min() < 0 or items.max() >= n_items:
                raise ValueError("item_id out of range")
            if resp.min() < 0 or resp.max() > 1:
                raise ValueError("responses must be 0 or 1")
        # the key in int64, from the checked arrays before they are narrowed;
        # compared as shifted views: an np.diff temporary made the check on
        # sorted input several times slower
        key = users * n_items + items
        indptr = np.concatenate(([0], np.cumsum(np.bincount(users, minlength=n_users))))
        items, resp = items.astype(np.int32), resp.astype(np.int8)
        if not np.all(key[1:] > key[:-1]):
            # keys are unique after the check below, so this is the
            # (user, item) lexicographic order
            order = np.argsort(key, kind="stable")
            key = key[order]
            if np.any(key[1:] == key[:-1]):
                raise ValueError("duplicate (user, item) pair")
            items, resp = items[order], resp[order]
        object.__setattr__(self, "n_users", n_users)
        object.__setattr__(self, "n_items", n_items)
        for name, arr in (("item_ids", items), ("responses", resp), ("user_indptr", indptr)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __repr__(self) -> str:
        return f"ResponseData(n_users={self.n_users}, n_items={self.n_items}, n_edges={self.n_edges})"

    @property
    def n_edges(self) -> int:
        return self.item_ids.size

    @property
    def user_ids(self) -> np.ndarray:
        """User of each edge, a fresh read-only int32 array derived from
        `user_indptr` on every read."""
        ids = np.repeat(np.arange(self.n_users, dtype=np.int32), self.user_degrees())
        ids.setflags(write=False)
        return ids

    def user_degrees(self) -> np.ndarray:
        """Number of responses per user (``m_t``)."""
        return np.diff(self.user_indptr)

    # -- serialization ------------------------------------------------------

    CSV_HEADER = "user_id,item_id,response"

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.CSV_HEADER + "\n")
            # Python ints format several times faster than numpy scalars
            fh.writelines(f"{t},{i},{x}\n" for t, i, x in zip(
                self.user_ids.tolist(), self.item_ids.tolist(), self.responses.tolist()))

    @classmethod
    def from_csv(cls, path, n_users: int | None = None, n_items: int | None = None) -> "ResponseData":
        """Parse the ``user_id,item_id,response`` format written by `to_csv`.

        A ``correct`` third column is also accepted and inverted into the
        model's negative-response convention (``X = 1 - correct``).
        Dimensions default to ``max id + 1``.  A file with no response rows
        is rejected.
        """
        users, items, resp = [], [], []
        with open(path) as fh:
            header = fh.readline().strip()
            cols = header.split(",")
            if len(cols) != 3 or cols[:2] != ["user_id", "item_id"] or cols[2] not in ("response", "correct"):
                raise DataFormatError(f"unrecognized header {header!r}", line=1)
            invert = cols[2] == "correct"
            for lineno, line in enumerate(fh, start=2):
                line = line.strip()
                if not line:
                    continue
                parts = line.split(",")
                if len(parts) != 3:
                    raise DataFormatError(f"expected 3 fields, got {len(parts)}", line=lineno)
                try:
                    t, i, x = int(parts[0]), int(parts[1]), int(parts[2])
                except ValueError:
                    raise DataFormatError(f"non-integer field in {line!r}", line=lineno) from None
                if x not in (0, 1):
                    raise DataFormatError(f"response must be 0 or 1, got {x}", line=lineno)
                users.append(t)
                items.append(i)
                resp.append(1 - x if invert else x)
        if not users:
            raise DataFormatError("no response rows after the header")
        if n_users is None:
            n_users = max(users) + 1
        if n_items is None:
            n_items = max(items) + 1
        try:
            return cls(n_users, n_items,
                       np.asarray(users, np.int64), np.asarray(items, np.int64),
                       np.asarray(resp, np.int64))
        except (ValueError, OverflowError) as exc:  # OverflowError: an id past int64
            raise DataFormatError(str(exc)) from exc


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def _parse_spec(spec):
    """Normalize a distribution spec.

    Accepted forms: ``"standard-normal"``, ``"all-zeros"``, ``"uniform:HIGH"``
    (uniform on [0, HIGH], HIGH = log kappa), ``"explicit:v1,v2,..."``, or a
    sequence of floats (treated as explicit).
    """
    if isinstance(spec, str):
        if spec == "standard-normal":
            return ("normal",)
        if spec == "all-zeros":
            return ("zeros",)
        if spec.startswith("uniform:"):
            high = float(spec.split(":", 1)[1])
            if not (np.isfinite(high) and high >= 0):
                raise ValueError(f"uniform spec needs a finite upper bound >= 0, got {high}")
            return ("uniform", high)
        if spec.startswith("explicit:"):
            values = np.asarray([float(v) for v in spec.split(":", 1)[1].split(",")], float)
            return ("explicit", values)
        raise ValueError(f"unknown distribution spec {spec!r}")
    values = np.asarray(spec, dtype=float)
    if values.ndim != 1:
        raise ValueError("explicit spec must be a 1-d vector")
    return ("explicit", values)


def _draw(parsed, size, rng):
    kind = parsed[0]
    if kind == "normal":
        return rng.standard_normal(size)
    if kind == "zeros":
        return np.zeros(size)
    if kind == "uniform":
        return rng.uniform(0.0, parsed[1], size)
    values = parsed[1]
    if values.size != size:
        raise ValueError(f"explicit vector has length {values.size}, expected {size}")
    return values.copy()


def sample_ground_truth(n: int, m: int, spec, seed: int = 0, zeta_spec=None) -> GroundTruth:
    """Draw item and user parameters and shift both to zero mean.

    ``spec`` applies to both vectors unless ``zeta_spec`` overrides the user
    side.  Draw order (theta first, then zeta) is part of the seed contract.
    """
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 users and m >= 1 items")
    theta_parsed = _parse_spec(spec)
    zeta_parsed = theta_parsed if zeta_spec is None else _parse_spec(zeta_spec)
    rng = _rng.substream(seed, _rng.GROUND_TRUTH)
    theta = _draw(theta_parsed, m, rng)
    zeta = _draw(zeta_parsed, n, rng)
    return GroundTruth(theta, zeta - zeta.mean())


def rasch_response_prob(theta_i: float, zeta_t: float):
    """``P[X_ti = 1] = e^theta_i / (e^zeta_t + e^theta_i)``, i.e. ``sigma(theta_i - zeta_t)``."""
    return sigmoid(np.asarray(theta_i, float) - np.asarray(zeta_t, float))


def sample_responses(gt: GroundTruth, p: float, seed: int = 0, mode: str = "bernoulli") -> ResponseData:
    """Sample the bipartite response graph and the binary responses.

    ``mode="bernoulli"``: each (user, item) pair is observed independently
    with probability ``p``.  ``mode="uniform-mp"``: each user responds to
    exactly ``m*p`` items chosen uniformly at random (``m*p`` must be a
    positive integer).  Pure function of ``(gt, p, seed, mode)``.
    """
    n, m = gt.n, gt.m
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    edge_rng = _rng.substream(seed, _rng.EDGES)
    if mode == "bernoulli":
        users, items = np.divmod(np.flatnonzero(edge_rng.random((n, m)) < p), m)
    elif mode == "uniform-mp":
        mp = m * p
        mp_int = int(round(mp))
        if abs(mp - mp_int) > 1e-9 or not 1 <= mp_int <= m:
            raise ValueError(f"uniform-mp mode needs m*p a positive integer <= m, got {mp}")
        users, items = _rng.row_subsets(edge_rng, n, m, mp_int)
    else:
        raise ValueError(f"unknown sampling mode {mode!r}")
    resp_rng = _rng.substream(seed, _rng.RESPONSES)
    probs = sigmoid(gt.theta_star[items] - gt.zeta_star[users])
    responses = (resp_rng.random(users.size) < probs).astype(np.int64)
    return ResponseData(n, m, users, items, responses)


def condition_numbers(gt: GroundTruth) -> ConditionNumbers:
    """Compute ``kappa1``, ``kappa2``, and their maximum."""
    theta, zeta = gt.theta_star, gt.zeta_star
    k1 = float(np.exp(theta.max() - theta.min())) if theta.size > 1 else 1.0
    k2 = float(np.exp(max(zeta.max() - theta.min(), theta.max() - zeta.min(), 0.0)))
    return ConditionNumbers(kappa1=k1, kappa2=k2, kappa=max(k1, k2))
