"""Item-parameter estimators and top-K selection.

Four methods share one Newton solver.  ``mrp`` pairs each user's responses
at random ``n_split`` times with independent sub-streams, compiles each split
into an m x m win matrix, fits all splits as one batch and averages the
estimates; ``rp`` is the same code with a single split, so it equals ``mrp``
with ``n_split=1`` bit for bit.  ``wp`` and ``pmle`` skip the splitting and
use every within-user pair, with and without the per-user reweighting.
A split that cannot be fitted (disconnected comparison graph, a win graph
that is not strongly connected so that no MLE exists, or an unconverged
solve) raises instead of entering the average.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError
from .model import ResponseData
from .pairing import _pseudo_wins, split_wins
from .solver import BtlObjective, SolverOptions, _is_integer, solve_newton, solve_newton_batch

__all__ = [
    "EstimatorConfig",
    "ItemEstimate",
    "estimate",
    "rp_mle",
    "mrp_mle",
    "wp_mle",
    "pmle",
    "top_k",
    "top_k_recovery_rate",
]

METHODS = ("rp", "mrp", "wp", "pmle")


@dataclass(frozen=True)
class EstimatorConfig:
    """Method selection plus the knobs shared by all estimators.

    ``n_split`` only matters for ``mrp``.  ``seed`` must be an integer
    ``>= 0`` and ``n_split`` an integer ``>= 1``; a boolean is neither.
    """

    method: str = "mrp"
    seed: int = 0
    n_split: int = 1
    solver: SolverOptions = field(default_factory=SolverOptions)

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if not _is_integer(self.n_split) or self.n_split < 1:
            raise ValueError(f"n_split must be an integer >= 1, got {self.n_split!r}")
        if not _is_integer(self.seed) or self.seed < 0:
            raise ValueError(f"seed must be an integer >= 0, got {self.seed!r}")


@dataclass(frozen=True)
class ItemEstimate:
    """Zero-mean estimate with fit metadata.

    ``per_split_estimates`` (splits x m) is present for ``rp``/``mrp``.
    ``split_wins`` holds the win matrices the estimate was fitted on, one per
    split, and for ``wp``/``pmle`` their one matrix as a ``(1, m, m)`` stack:
    the inference module reuses their exact curvature instead of rebuilding it.
    ``solve_results`` holds one `SolveResult` per split (one for ``wp``/``pmle``).
    """

    theta_hat: np.ndarray
    method: str
    seed: int | None
    n_split: int | None
    per_split_estimates: np.ndarray | None = None
    split_wins: np.ndarray | None = field(default=None, repr=False)
    solve_results: tuple = field(default=(), repr=False)

    def __post_init__(self):
        theta = np.asarray(self.theta_hat, float)
        theta.setflags(write=False)
        object.__setattr__(self, "theta_hat", theta)

    @property
    def m(self) -> int:
        return self.theta_hat.size

    @property
    def report(self) -> dict:
        """Connectivity/convergence summary of the underlying solves."""
        return {
            "solves": len(self.solve_results),
            "converged": all(r.converged for r in self.solve_results),
            "max_grad_inf_norm": max((r.grad_inf_norm for r in self.solve_results), default=0.0),
            "total_iterations": sum(r.iterations for r in self.solve_results),
        }

    def to_json(self) -> str:
        return json.dumps({
            "method": self.method,
            "theta_hat": self.theta_hat.tolist(),
            "n_split": self.n_split,
            "seed": self.seed,
        })

    @classmethod
    def from_json(cls, text: str) -> "ItemEstimate":
        obj = json.loads(text)
        return cls(theta_hat=np.asarray(obj["theta_hat"], float), method=obj["method"],
                   seed=obj["seed"], n_split=obj["n_split"])


def _centred_mean(estimates: np.ndarray) -> np.ndarray:
    """Zero-mean average of per-split estimates (K x m).

    Every method ends here, ``wp``/``pmle`` with K = 1, so that methods fitting
    the same win matrix return the same bits.
    """
    theta = estimates.mean(axis=0)
    theta -= theta.mean()
    return theta


def _fit_splits(data: ResponseData, cfg: EstimatorConfig, method: str, n_split: int) -> ItemEstimate:
    W = split_wins(data, cfg.seed, n_split)
    W.setflags(write=False)
    results = solve_newton_batch(W, cfg.solver)
    estimates = np.stack([r.theta_hat for r in results])
    return ItemEstimate(
        theta_hat=_centred_mean(estimates), method=method, seed=cfg.seed, n_split=n_split,
        per_split_estimates=estimates, split_wins=W, solve_results=results,
    )


def rp_mle(data: ResponseData, cfg: EstimatorConfig | None = None) -> ItemEstimate:
    """Single random pairing followed by the comparison MLE: `mrp_mle` with one split."""
    return _fit_splits(data, cfg or EstimatorConfig(method="rp"), "rp", 1)


def mrp_mle(data: ResponseData, cfg: EstimatorConfig) -> ItemEstimate:
    """Average of ``n_split`` independent random-pairing estimates.

    All splits are fitted as one batch.  Any failure (disconnected comparison
    graph, no MLE, unconverged solve) aborts the whole estimate with the
    error of the lowest-indexed failing split, its index attached: silently
    skipping or keeping such a split would bias the average.
    """
    return _fit_splits(data, cfg, "mrp", cfg.n_split)


def _pseudo(data: ResponseData, cfg: EstimatorConfig, scheme: str) -> ItemEstimate:
    W = _pseudo_wins(data, scheme)
    W.setflags(write=False)
    res = solve_newton(BtlObjective.from_wins(W), cfg.solver)
    if not res.converged:
        raise ConvergenceError(res.grad_inf_norm, res.iterations)
    return ItemEstimate(theta_hat=_centred_mean(res.theta_hat[None]), method=scheme,
                        seed=cfg.seed, n_split=None, split_wins=W[None], solve_results=(res,))


def wp_mle(data: ResponseData, cfg: EstimatorConfig | None = None) -> ItemEstimate:
    """Weighted pseudo-likelihood over all within-user pairs; deterministic."""
    return _pseudo(data, cfg or EstimatorConfig(method="wp"), "wp")


def pmle(data: ResponseData, cfg: EstimatorConfig | None = None) -> ItemEstimate:
    """Unweighted pseudo-likelihood over all within-user pairs; deterministic."""
    return _pseudo(data, cfg or EstimatorConfig(method="pmle"), "pmle")


def estimate(data: ResponseData, cfg: EstimatorConfig) -> ItemEstimate:
    """Dispatch on ``cfg.method``."""
    if cfg.method == "rp":
        return rp_mle(data, cfg)
    if cfg.method == "mrp":
        return mrp_mle(data, cfg)
    if cfg.method == "wp":
        return wp_mle(data, cfg)
    return pmle(data, cfg)


def top_k(est: ItemEstimate, K: int) -> set[int]:
    """Indices (0-based) of the K largest entries; ties broken by lowest index."""
    m = est.m
    if not 1 <= K <= m:
        raise ValueError(f"K must be in [1, {m}], got {K}")
    order = np.lexsort((np.arange(m), -est.theta_hat))
    return set(order[:K].tolist())


def top_k_recovery_rate(est: ItemEstimate, true_top: set[int]) -> float:
    """Fraction of the true top set recovered by `top_k` (same tie rule)."""
    true_top = set(true_top)
    if not true_top:
        raise ValueError("true_top must be non-empty")
    selected = top_k(est, len(true_top))
    return len(true_top & selected) / len(true_top)
