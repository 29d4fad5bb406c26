"""Plug-in covariance, confidence intervals, and coverage evaluation.

The sampling variance of the split-averaged and weighted-pseudo estimators is
approximated by the sandwich ``H^+ V H^+ / n``: ``H`` averages the per-user
curvature at the estimate.  For ``wp``, ``V`` averages the outer products of
per-user weighted-pseudo gradients (``V_diff``); for ``rp``/``mrp`` with K
splits, ``V = H/K + (K-1)/K * V_diff``, because the score covariance within
one split equals its curvature.  The per-user gradients are formed as matrix
products of the users' response indicators, block by block, without listing
the within-user pairs; each is a gemm of fewer than ``pairing.PRODUCT_LIMIT``
multiply-adds, which OpenBLAS runs on the calling thread.  One product can
still wake its worker thread, which then spins on the second core:
``Gk^T Gk`` of the per-split scores, an n x m syrk taken only for the exact
finite-split mixture.  Intervals are two-sided normal intervals on the
diagonal, optionally Bonferroni-corrected across items.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import EstimationError
from .estimators import ItemEstimate
from .model import GroundTruth, ResponseData, sigmoid
from .laplacian import _laplacian_matrix, _rank_completion_inverse
from .pairing import _decoded_pairs, _indicator_blocks, _pair_users, _pseudo_wins, split_wins
from .solver import _counts, _derivatives

__all__ = [
    "PluginCovariance",
    "InferenceReport",
    "normal_quantile",
    "plugin_covariance",
    "confidence_intervals",
    "empirical_coverage",
    "special_case_covariance",
    "beta_for_point_mass",
]


# ---------------------------------------------------------------------------
# Standard normal quantile (no statistics library at runtime)
# ---------------------------------------------------------------------------

def _norm_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def normal_quantile(p: float) -> float:
    """Inverse standard-normal CDF.

    Initial guess from the Hastings rational approximation (Abramowitz &
    Stegun 26.2.22), polished by Newton steps on the erfc-based CDF; accurate
    to close to machine precision, far inside the 1e-9 requirement.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p}")
    if p == 0.5:
        return 0.0
    q = min(p, 1.0 - p)
    t = math.sqrt(-2.0 * math.log(q))
    x = t - (2.30753 + 0.27061 * t) / (1.0 + 0.99229 * t + 0.04481 * t * t)
    if p < 0.5:
        x = -x
    for _ in range(20):
        pdf = math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
        if pdf <= 0.0:
            break
        dx = (_norm_cdf(x) - p) / pdf
        x -= dx
        if abs(dx) < 1e-14 * max(1.0, abs(x)):
            break
    return x


# ---------------------------------------------------------------------------
# Plug-in covariance
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PluginCovariance:
    """Sandwich pieces: curvature ``H_hat``, cross-split score covariance
    ``V_diff_hat``, and the resulting ``Sigma_hat = H^+ V H^+ / n``.

    For split estimates ``V = V_same/ns + (ns-1)/ns * V_diff``, with ``V_same``
    the within-split score covariance: ``H_hat`` by default, ``V_same_hat``
    (filled only then) when the exact finite-split mixture was requested.
    """

    H_hat: np.ndarray
    V_diff_hat: np.ndarray
    Sigma_hat: np.ndarray
    n: int
    V_same_hat: np.ndarray | None = None

    def __post_init__(self):
        for name in ("H_hat", "V_diff_hat", "Sigma_hat"):
            arr = np.asarray(getattr(self, name), float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        m = self.H_hat.shape[0]
        scale = float(np.abs(self.H_hat).max()) or 1.0
        if np.abs(self.H_hat @ np.ones(m)).max() > 1e-8 * scale:
            raise ValueError("H_hat does not annihilate the all-ones vector")
        vscale = float(np.abs(self.V_diff_hat).max()) or 1.0
        if np.abs(self.V_diff_hat @ np.ones(m)).max() > 1e-8 * vscale:
            raise ValueError("V_diff_hat does not annihilate the all-ones vector")
        eig = np.linalg.eigvalsh(self.Sigma_hat)
        if eig[0] < -1e-10 * max(1.0, eig[-1]):
            raise ValueError(f"Sigma_hat is not PSD: min eigenvalue {eig[0]}")


def _wp_score_covariance(data: ResponseData, theta: np.ndarray) -> np.ndarray:
    """``G^T G / n`` of the per-user ``"wp"`` scores at ``theta``, block by block:
    ``G = w * [X1 * (X0 (S - 1)^T) + X0 * (X1 S^T)]``, ``S_ij = sigma(theta_i - theta_j)``.

    Each product is one gemm of a block of `pairing._indicator_blocks` with
    an ``(m, m)`` array, of fewer than ``pairing.PRODUCT_LIMIT``
    multiply-adds, so OpenBLAS takes it on the calling thread; ``G^T G`` is
    one too, as it is taken from two distinct arrays.
    """
    m = data.n_items
    S = sigmoid(theta[:, None] - theta[None, :])
    lose, win = (S - 1.0).T, S.T
    V = np.zeros((m, m))
    for _, X1, X0, w in _indicator_blocks(data, "wp"):
        G = X0 @ lose
        P = X1 @ win
        # in place, the same products and sum as w * (X1 * G + X0 * P)
        G *= X1
        P *= X0
        G += P
        G *= w[:, None]
        # G.T @ G on one buffer goes to syrk, which wakes OpenBLAS's worker
        # thread by a rule of its own (300 block products at m = 35-45 took
        # 7-11 times their wall time in CPU); on a copy it is a gemm
        np.copyto(P, G)
        V += G.T @ P
    return V / data.n_users


def _split_user_gradients(data: ResponseData, theta: np.ndarray, seed: int, splits):
    """Per-user score vectors of the comparison loss of each split in
    ``splits`` at ``theta``, the splits read from one plan.

    A response is in at most one pair of a split, so each entry is set once.
    """
    users = _pair_users(data)
    for items_a, x_a, items_b, x_b in _decoded_pairs(data, seed, splits):
        val = np.where(x_a != x_b, sigmoid(theta[items_a] - theta[items_b]) - x_a, 0.0)
        G = np.zeros((data.n_users, data.n_items))
        G[users, items_a] = val
        G[users, items_b] = -val
        yield G


def _split_wins(data: ResponseData, est: ItemEstimate) -> np.ndarray:
    if est.split_wins is not None:
        return est.split_wins
    if est.method == "wp":
        return _pseudo_wins(data, "wp")[None]
    if est.seed is None or est.n_split is None:
        raise ValueError("estimate lacks split structure and a seed to regenerate it")
    return split_wins(data, est.seed, est.n_split)


def plugin_covariance(data: ResponseData, est: ItemEstimate,
                      exact_split_mixture: bool = False) -> PluginCovariance:
    """Estimate the sampling covariance of ``est.theta_hat``.

    ``H_hat`` averages the Hessians, at the estimate, of the K win matrices
    the estimate was fitted on (the splits of ``rp``/``mrp``, the one weighted
    pseudo-likelihood objective of ``wp``): the Laplacian of
    ``(sum_k N_k) * sigma'(theta_i - theta_j)`` over ``n * K``, with ``N_k``
    the comparison counts of matrix ``k``.  ``V_diff_hat`` comes from per-user
    weighted-pseudo gradients: the score covariance across splits, and all of
    ``V`` for ``wp``.  For ``rp``/``mrp``, ``V = V_same/K + (K-1)/K * V_diff``,
    with the within-split score covariance ``V_same`` taken as ``H_hat``:
    within one split a user's pairs are disjoint and conditionally
    independent, so the information identity of the comparison likelihood
    makes their score covariance equal the curvature.  Set
    ``exact_split_mixture`` to use the empirical per-split score covariance
    ``V_same_hat`` instead (split methods only).
    """
    theta = est.theta_hat
    n = data.n_users
    if est.method not in ("rp", "mrp", "wp"):
        raise ValueError(f"covariance is defined for rp/mrp/wp estimates, not {est.method!r}")
    W = _split_wins(data, est)
    total = W.sum(axis=0)
    H = _laplacian_matrix(_derivatives(total, _counts(total), theta)[1]) / (n * W.shape[0])
    V_diff = _wp_score_covariance(data, theta)

    V_same = None
    V = V_diff
    if exact_split_mixture:
        if est.method not in ("rp", "mrp") or est.seed is None:
            raise ValueError("exact split mixture needs a split-based estimate with a seed")
        V_same = np.zeros((data.n_items, data.n_items))
        for Gk in _split_user_gradients(data, theta, est.seed, range(est.n_split)):
            V_same += Gk.T @ Gk
        V_same /= n * est.n_split
    if est.method != "wp":
        ns = W.shape[0]
        V = (H if V_same is None else V_same) / ns + (ns - 1) / ns * V_diff

    Hpinv = _rank_completion_inverse(H)
    Sigma = Hpinv @ V @ Hpinv / n
    Sigma = (Sigma + Sigma.T) / 2.0
    return PluginCovariance(H_hat=H, V_diff_hat=V_diff, Sigma_hat=Sigma, n=n, V_same_hat=V_same)


# ---------------------------------------------------------------------------
# Confidence intervals and coverage
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InferenceReport:
    """Point estimates with two-sided normal confidence intervals."""

    theta_hat: np.ndarray
    variance_diag: np.ndarray
    ci_lower: np.ndarray
    ci_upper: np.ndarray
    alpha: float
    bonferroni: bool

    def __post_init__(self):
        for name in ("theta_hat", "variance_diag", "ci_lower", "ci_upper"):
            arr = np.asarray(getattr(self, name), float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if not np.all(self.ci_lower < self.ci_upper):
            raise ValueError("intervals must have positive width")

    @property
    def m(self) -> int:
        return self.theta_hat.size

    def to_json(self) -> str:
        return json.dumps({
            "theta_hat": self.theta_hat.tolist(),
            "variance_diag": self.variance_diag.tolist(),
            "ci_lower": self.ci_lower.tolist(),
            "ci_upper": self.ci_upper.tolist(),
            "alpha": self.alpha,
            "bonferroni": self.bonferroni,
        })

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("item,theta_hat,ci_lower,ci_upper\n")
            for i in range(self.m):
                fh.write(f"{i},{float(self.theta_hat[i])!r},"
                         f"{float(self.ci_lower[i])!r},{float(self.ci_upper[i])!r}\n")


def confidence_intervals(est: ItemEstimate, cov: PluginCovariance, alpha: float,
                         bonferroni: bool = False) -> InferenceReport:
    """Two-sided level ``1 - alpha`` intervals from the plug-in covariance.

    With ``bonferroni`` the per-item level is ``alpha / m`` so the family of
    ``m`` intervals holds jointly at level ``1 - alpha``.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    var = np.diag(cov.Sigma_hat).copy()
    if np.any(var <= 0):
        raise EstimationError(f"nonpositive variance entries: {np.flatnonzero(var <= 0).tolist()}")
    alpha_eff = alpha / est.m if bonferroni else alpha
    z = normal_quantile(1.0 - alpha_eff / 2.0)
    half = z * np.sqrt(var)
    return InferenceReport(
        theta_hat=est.theta_hat, variance_diag=var,
        ci_lower=est.theta_hat - half, ci_upper=est.theta_hat + half,
        alpha=alpha, bonferroni=bonferroni,
    )


def empirical_coverage(trials) -> float:
    """Fraction of items whose true parameter fell inside its interval.

    ``trials`` is an iterable of ``(InferenceReport, GroundTruth)`` pairs;
    items are pooled across trials.
    """
    hits = 0
    total = 0
    for report, gt in trials:
        theta = gt.theta_star if isinstance(gt, GroundTruth) else np.asarray(gt, float)
        if theta.size != report.m:
            raise ValueError("report and ground truth dimensions differ")
        hits += int(np.sum((report.ci_lower <= theta) & (theta <= report.ci_upper)))
        total += report.m
    if total == 0:
        raise ValueError("no trials given")
    return hits / total


# ---------------------------------------------------------------------------
# Closed-form special case
# ---------------------------------------------------------------------------

def beta_for_point_mass(zeta: float) -> float:
    """``e^zeta / (e^zeta + 1)^2`` for user parameters all equal to ``zeta``."""
    t = math.exp(-abs(zeta))
    return t / (1.0 + t) ** 2


def special_case_covariance(m: int, p: float, beta: float,
                            n_split: int | None = 1) -> np.ndarray:
    """Asymptotic covariance of ``sqrt(n) (theta_hat - theta_star)`` in the
    exchangeable special case.

    Assumes all item parameters zero, user parameters i.i.d. with
    ``beta = E[e^zeta / (e^zeta + 1)^2]``, and every user responding to exactly
    ``m*p`` items (an even integer) uniformly at random.  The covariance is
    ``2(m-1)/(beta m p) * (1/ns + (ns-1)/ns * mp/(2(mp-1)))`` times the
    centering projector: the curvature of the per-user loss is
    ``beta*mp/(2(m-1))`` on the centered subspace and the score covariance
    mixes the within-split and cross-split terms.  ``n_split=None`` gives the
    infinite-split limit, which is also the weighted pseudo-MLE covariance.
    """
    mp = m * p
    mp_int = int(round(mp))
    if abs(mp - mp_int) > 1e-9 or mp_int < 2 or mp_int % 2 != 0:
        raise ValueError(f"special case needs m*p an even integer >= 2, got {mp}")
    if not 0.0 < beta <= 0.25:
        raise ValueError(f"beta must be in (0, 1/4], got {beta}")
    if n_split is None:
        mix = mp_int / (2.0 * (mp_int - 1.0))
    else:
        if n_split < 1:
            raise ValueError("n_split must be >= 1")
        mix = 1.0 / n_split + (n_split - 1.0) / n_split * mp_int / (2.0 * (mp_int - 1.0))
    factor = 2.0 * (m - 1.0) / (beta * m * p) * mix
    return factor * (np.eye(m) - np.full((m, m), 1.0 / m))
