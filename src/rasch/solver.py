"""Negative log-likelihood of pairwise comparisons and its minimizers.

A comparison objective is a dense win matrix ``W`` (m x m): ``W[i, j]`` is
the (possibly weighted) number of comparisons item ``i`` won against item
``j``, and ``N = W + W^T`` counts the comparisons on each pair.  The loss
``sum_ij W_ij log(1 + e^(theta_j - theta_i))`` depends on differences only,
so it is invariant to a common shift and its Hessian is the graph Laplacian
of ``N * sigma'(theta_i - theta_j)``.

The MLE of a win matrix exists, unique up to the shift, exactly when its
directed win graph (``i -> j`` wherever ``W[i, j] > 0``) is strongly
connected (Zermelo 1929; Hunter 2004, Assumption 1); both solvers check this
before any Newton step.

`solve_newton_batch` fits a stack of K win matrices, such as the splits of
one multi-split estimate, by damped Newton on all of them at once: one
batched linear solve ``(H + 11^T/m) d = -g`` per iteration (positive
definite whenever the comparison graph is connected) and a step size per
matrix; a large batch is fitted in two halves, the second on a helper
thread.  Every solve starts from the classical Rasch/Bradley-Terry value,
the centred log-odds ``log((sum_j W_ij + 1/2) / (sum_j W_ji + 1/2))`` of each
item's wins over its losses, one pass over the win matrix.  The Armijo line
search evaluates the loss at the centred trial point and keeps its
differences and their exponential, from which the accepted iterate's
gradient and Hessian weights are built: one exponential of the m x m
differences per iteration.  The kernels form ``t = exp(-|D|)`` in place,
take each loss term as ``log1p(t) - min(D, 0)`` and form ``t * r``, with
``r = 1 / (1 + t)``, once for both derivatives: the same results as the
plain formulas, bit for bit, with fewer temporaries.  The line search
compares losses, which near the optimum differ by less than their own
round-off; once the predicted decrease ``-g.d`` is below
``1e-13 max(1, |f|)`` the full Newton step is taken.
`BtlObjective` holds one win matrix and nothing else: its constructor sums
aggregated pair terms into it, and `BtlObjective.from_wins` checks and keeps
a matrix as it is (the pseudo-likelihood estimators build theirs from
response indicators), and rejects a NaN or negative entry or a non-zero
diagonal before any Newton step.  `nll`, `gradient`, `hessian` and
`solve_newton` evaluate and fit it with the same dense functions.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import InitVar, dataclass, field

import numpy as np

from . import _threads
from .errors import ConvergenceError, DisconnectedGraphError, DivergenceError
from .laplacian import (
    WeightedLaplacian,
    _component_labels,
    _laplacian_matrix,
    _partition,
    _unentered_set,
)

__all__ = [
    "BtlObjective",
    "SolverOptions",
    "SolveResult",
    "nll",
    "gradient",
    "hessian",
    "solve_newton",
    "solve_newton_batch",
]

# A float64 loss summed over m^2 terms carries a relative round-off far above
# 1e-16; a predicted decrease below this share of |f| cannot be resolved by
# comparing losses.
ROUNDOFF = 1e-13
ARMIJO = 1e-4
MIN_STEP = 1e-12
# Size K * m^2 of a batch of K win matrices from which `solve_newton_batch`
# fits the two halves of the batch on two threads.  Two threads against one,
# median times of the batch: 6.8 vs 2.6 ms at K m^2 = 2,500 (m=5, K=100, as
# LSAT), 8.0 vs 5.2 ms at 20,000, 9.5 vs 9.9 ms at 40,000, 9.6 vs 13.5 ms at
# 64,000 and 16.4 vs 26.7 ms at 125,000 (m=50, K=50); 2-core x86-64, numpy 2.4.
NEWTON_THREAD_SIZE = 2**16


@dataclass(frozen=True)
class BtlObjective:
    """A win matrix `wins`: ``wins[i, j]`` is the (possibly weighted) number
    of comparisons item ``i`` won against item ``j``.

    The constructor sums aggregated terms ``(item_i, item_j, weight, wins_i)``
    into `wins` and keeps none of them: one per item pair, ``item_i >
    item_j``, with ``weight > 0`` comparisons of which ``item_i`` won
    ``0 <= wins_i <= weight``.  `from_wins` takes the matrix itself.
    """

    m: int
    item_i: InitVar[np.ndarray]
    item_j: InitVar[np.ndarray]
    weight: InitVar[np.ndarray]
    wins_i: InitVar[np.ndarray]
    wins: np.ndarray = field(init=False, repr=False)

    def __post_init__(self, item_i, item_j, weight, wins_i):
        item_i = np.asarray(item_i, np.int64)
        item_j = np.asarray(item_j, np.int64)
        weight = np.asarray(weight, float)
        wins = np.asarray(wins_i, float)
        if not (item_i.shape == item_j.shape == weight.shape == wins.shape):
            raise ValueError("term arrays must have equal shapes")
        if item_i.size:
            if not np.all(item_i > item_j):
                raise ValueError("terms must satisfy item_i > item_j")
            if item_i.max() >= self.m or item_j.min() < 0:
                raise ValueError("item index out of range")
            _check_terms(weight, wins)
        m = self.m
        W = (np.bincount(item_i * m + item_j, wins, m * m)
             + np.bincount(item_j * m + item_i, weight - wins, m * m))
        W = W.reshape(m, m)
        W.setflags(write=False)
        object.__setattr__(self, "wins", W)

    @classmethod
    def from_wins(cls, W) -> "BtlObjective":
        """Objective of the m x m win matrix ``W``, kept as its `wins`.  Each
        pair ``i > j`` with a non-zero count ``N = W[i, j] + W[j, i]`` must
        pass the constructor's checks as the term ``(i, j, N, W[i, j])``;
        then every entry must be a number ``>= 0`` (so a pair of zero count
        has no wins) and the diagonal zero."""
        W = np.array(W, float)
        if W.ndim != 2 or W.shape[0] != W.shape[1]:
            raise ValueError(f"win matrix has shape {W.shape}, expected (m, m)")
        N = _counts(W)
        lower = np.tri(*W.shape, -1, dtype=bool) & (N != 0)
        _check_terms(N[lower], W[lower])
        if not np.all(W >= 0.0):
            raise ValueError("win matrix entries must be non-negative numbers")
        if np.diagonal(W).any():
            raise ValueError("win matrix diagonal must be zero")
        W.setflags(write=False)
        obj = object.__new__(cls)
        object.__setattr__(obj, "m", W.shape[0])
        object.__setattr__(obj, "wins", W)
        return obj


def _check_terms(weight: np.ndarray, wins: np.ndarray) -> None:
    if not np.all(weight > 0):
        raise ValueError("weights must be positive")
    if np.any(wins < -1e-12) or np.any(wins > weight + 1e-12):
        raise ValueError("wins_i must lie in [0, weight]")


@dataclass(frozen=True)
class SolverOptions:
    """Newton stopping rules: the gradient sup-norm ``tol``, a finite number
    ``>= 0``, and ``max_iter``, an integer ``>= 0``."""

    tol: float = 1e-10
    max_iter: int = 100

    def __post_init__(self):
        tol, max_iter = self.tol, self.max_iter
        if isinstance(tol, bool) or not isinstance(tol, numbers.Real) or not 0.0 <= tol < math.inf:
            raise ValueError(f"tol must be a finite number >= 0, got {tol!r}")
        if not _is_integer(max_iter) or max_iter < 0:
            raise ValueError(f"max_iter must be an integer >= 0, got {max_iter!r}")


def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class SolveResult:
    theta_hat: np.ndarray
    grad_inf_norm: float
    iterations: int
    converged: bool

    def __post_init__(self):
        theta = np.asarray(self.theta_hat, float)
        theta.setflags(write=False)
        object.__setattr__(self, "theta_hat", theta)


def nll(obj: BtlObjective, theta: np.ndarray) -> float:
    """``sum_ij wins[i, j] * log(1 + e^(theta_j - theta_i))``."""
    return float(_loss(obj.wins, _check_theta(obj, theta)))


def gradient(obj: BtlObjective, theta: np.ndarray) -> np.ndarray:
    """Analytic gradient; orthogonal to the all-ones vector up to round-off."""
    return _derivatives(obj.wins, _counts(obj.wins), _check_theta(obj, theta))[0]


def hessian(obj: BtlObjective, theta: np.ndarray) -> WeightedLaplacian:
    """Hessian as a weighted Laplacian with weights ``count * sigma'(diff)``."""
    Z = _derivatives(obj.wins, _counts(obj.wins), _check_theta(obj, theta))[1]
    return WeightedLaplacian(_laplacian_matrix(Z))


def _check_theta(obj: BtlObjective, theta) -> np.ndarray:
    theta = np.asarray(theta, float)
    if theta.shape != (obj.m,):
        raise ValueError(f"theta has shape {theta.shape}, expected ({obj.m},)")
    return theta


def _first_without_mle(W: np.ndarray):
    """``(k, error, detail, count)`` for the lowest-indexed win matrix ``k``
    of the stack ``W`` without an MLE: `DisconnectedGraphError` and its
    components, or `DivergenceError` and a set of items that won every
    comparison with the rest; ``count`` matrices of the stack have no MLE.
    ``(K, None, None, 0)`` when every MLE exists."""
    beat = W > 0
    won = _unentered_set(beat)
    failing = np.flatnonzero(won.any(axis=-1))
    if not failing.size:
        return W.shape[0], None, None, 0
    k = int(failing[0])
    labels = _component_labels(beat[k] | beat[k].T)
    if labels.any():
        return k, DisconnectedGraphError, _partition(labels), failing.size
    return k, DivergenceError, np.flatnonzero(won[k]).tolist(), failing.size


def _init(obj: BtlObjective, start) -> np.ndarray:
    theta = np.asarray(start, float)
    if theta.shape != (obj.m,):
        raise ValueError(f"start has shape {theta.shape}, expected ({obj.m},)")
    return theta - theta.mean()


# ---------------------------------------------------------------------------
# Dense objective: win matrices W of shape (..., m, m), parameters (..., m)
# ---------------------------------------------------------------------------

def _counts(W: np.ndarray) -> np.ndarray:
    """Comparison counts ``N = W + W^T`` of each win matrix in a stack."""
    return W + np.swapaxes(W, -1, -2)


def _pairwise(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Differences ``D[..., i, j] = theta_i - theta_j`` and ``exp(-|D|)``."""
    D = theta[..., :, None] - theta[..., None, :]
    t = np.abs(D)
    np.negative(t, out=t)
    return D, np.exp(t, out=t)


def _log_odds(W: np.ndarray) -> np.ndarray:
    """Centred ``log((wins + 1/2) / (losses + 1/2))`` of each item, for each
    win matrix of a stack: the Newton starting point."""
    theta = np.log((W.sum(axis=-1) + 0.5) / (W.sum(axis=-2) + 0.5))
    return theta - theta.mean(axis=-1, keepdims=True)


def _loss(W: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """``sum_ij W_ij log(1 + e^(-D_ij))`` for each win matrix of a stack."""
    return _loss_at(W, *_pairwise(theta))


def _loss_at(W: np.ndarray, D: np.ndarray, t: np.ndarray) -> np.ndarray:
    """`_loss` from the differences ``D`` and ``t = exp(-|D|)`` of `_pairwise`."""
    # log1p(t) - min(D, 0) is log1p(t) + max(-D, 0), bit for bit
    terms = np.log1p(t)
    terms -= np.minimum(D, 0.0)
    terms *= W
    return terms.reshape(*terms.shape[:-2], terms.shape[-1] ** 2).sum(axis=-1)


def _derivatives(W: np.ndarray, N: np.ndarray, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradient, the row sums of ``N * sigma(D) - W``, and the Hessian weights
    ``N * sigma'(D)``, both from one exponential of the differences."""
    return _derivatives_at(W, N, *_pairwise(theta))


def _derivatives_at(W: np.ndarray, N: np.ndarray, D: np.ndarray,
                    t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`_derivatives` from the differences ``D`` and ``t = exp(-|D|)``."""
    r = 1.0 + t
    np.divide(1.0, r, out=r)
    tr = t * r
    sig = np.where(D >= 0.0, r, tr)
    sig *= N
    sig -= W
    tr *= r
    tr *= N
    return sig.sum(axis=-1), tr


def _newton(W: np.ndarray, theta: np.ndarray, opts: SolverOptions):
    """Damped Newton from the centred ``theta`` (K, m) on every win matrix of
    ``W`` (K, m, m).

    A split leaves the batch once its gradient sup-norm is at most ``tol``, or
    after ``max_iter`` iterations.  The loss of a trial point is evaluated at
    the centred point, and the differences and exponential it was computed
    from give the derivatives once the point is accepted.  Returns the
    `SolveResult` of every split, in order.  Every operation acts on each
    split alone, so a split's result does not depend on the batch.
    """
    K, m, _ = W.shape
    N = _counts(W)
    J = np.full((m, m), 1.0 / m)
    rows = np.arange(K)  # split index of each row still in the batch
    results: list[SolveResult | None] = [None] * K
    D, t = _pairwise(theta)
    f0 = _loss_at(W, D, t)
    g, Z = _derivatives_at(W, N, D, t)
    del D, t
    iterations = 0
    while rows.size:
        gnorm = np.abs(g).max(axis=-1)
        done = (gnorm <= opts.tol) | (iterations >= opts.max_iter)
        for r in np.flatnonzero(done):
            results[rows[r]] = SolveResult(theta_hat=theta[r].copy(), grad_inf_norm=float(gnorm[r]),
                                           iterations=iterations, converged=bool(gnorm[r] <= opts.tol))
        if done.any():
            keep = ~done
            rows, W, N, theta, g, Z, f0 = (a[keep] for a in (rows, W, N, theta, g, Z, f0))
            if not rows.size:
                break
        step = np.linalg.solve(_laplacian_matrix(Z) + J, -g[..., None])[..., 0]
        step -= step.mean(axis=-1, keepdims=True)
        slope = (g * step).sum(axis=-1)
        size = np.ones(rows.size)
        trial = theta + step
        trial -= trial.mean(axis=-1, keepdims=True)
        D, t = _pairwise(trial)
        f = _loss_at(W, D, t)
        # where the predicted decrease is below the round-off of f0 the loss
        # comparison is noise, so the full Newton step is taken
        pending = (-slope > ROUNDOFF * np.maximum(1.0, np.abs(f0))) & (f > f0 + ARMIJO * slope)
        while pending.any():
            p = np.flatnonzero(pending)
            size[p] *= 0.5
            trial[p] = theta[p] + size[p, None] * step[p]
            trial[p] -= trial[p].mean(axis=-1, keepdims=True)
            D[p], t[p] = _pairwise(trial[p])
            f[p] = _loss_at(W[p], D[p], t[p])
            pending[p] = (size[p] > MIN_STEP) & (f[p] > f0[p] + ARMIJO * size[p] * slope[p])
        theta = trial
        f0 = f
        iterations += 1
        g, Z = _derivatives_at(W, N, D, t)
        del D, t
    return results


def solve_newton(obj: BtlObjective, opts: SolverOptions | None = None,
                 start: np.ndarray | None = None) -> SolveResult:
    """Damped Newton on the zero-sum subspace.

    Raises `DisconnectedGraphError` or `DivergenceError` before any step when
    the win graph is not strongly connected, so that no MLE exists.  Starts
    from ``start`` (centred) or, by default, from the centred log-odds
    ``log((sum_j W_ij + 1/2) / (sum_j W_ji + 1/2))`` of each item's wins over
    its losses.  Steps solve ``(H + 11^T/m) d = -g`` and are projected back
    to the zero-sum subspace, with an Armijo backtracking line search on the
    loss that takes the full step once the predicted decrease is below the
    loss's round-off; the loss evaluation at the accepted point also yields
    its derivatives, so each iteration takes one exponential of the pairwise
    differences.  Stops when the gradient sup-norm drops below ``opts.tol``;
    after ``max_iter`` iterations it returns ``converged=False``.
    """
    opts = opts or SolverOptions()
    W = obj.wins[None]
    _, error, detail, _ = _first_without_mle(W)
    if error is not None:
        raise error(detail)
    theta = _log_odds(W) if start is None else _init(obj, start)[None]
    return _newton(W, theta, opts)[0]


def solve_newton_batch(W, opts: SolverOptions | None = None) -> tuple[SolveResult, ...]:
    """Fit every win matrix of the stack ``W`` (K, m, m) at once, each from
    its own log-odds start.

    Split ``k`` gets the same `SolveResult`, bit for bit, as when solved
    alone.  Only the splits below the lowest-indexed one without an MLE
    (win graph not strongly connected) enter Newton.  When those are two or
    more, ``count * m^2 >= NEWTON_THREAD_SIZE`` and two CPUs are usable, the
    second half of them is fitted on a helper thread.  Raises the error that
    solving the splits one after another in index order would raise first:
    that of the lowest-indexed split whose comparison graph is disconnected
    (`DisconnectedGraphError`), whose win graph is connected but not strongly
    connected (`DivergenceError`) or which ends unconverged
    (`ConvergenceError`), with ``split_index`` set; the first two also carry
    ``splits_without_mle``, how many splits of the stack have no MLE.
    """
    opts = opts or SolverOptions()
    W = np.asarray(W, float)
    first, error, detail, without_mle = _first_without_mle(W)

    def fit(lo: int, hi: int) -> list[SolveResult]:
        return _newton(W[lo:hi], _log_odds(W[lo:hi]), opts)

    halves = _threads.in_halves(fit, first, first * W.shape[-1] ** 2 >= NEWTON_THREAD_SIZE)
    results = [res for half in halves for res in half]
    for k, res in enumerate(results):
        if not res.converged:
            raise ConvergenceError(res.grad_inf_norm, res.iterations, split_index=k)
    if error is not None:
        raise error(detail, split_index=first, splits_without_mle=without_mle)
    return tuple(results)
