"""Seeded simulation studies at desk scale.

Each named experiment draws fresh ground truth and responses per trial,
estimates, and aggregates per-trial statistics into a tidy table (mean and
standard error per column).  Trials are independently seeded from the
experiment seed, so results are identical whether run sequentially or on a
worker pool, and any single trial can be replayed in isolation.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import _rng, lsat
from .errors import EstimationError
from .estimators import (
    EstimatorConfig,
    estimate,
    mrp_mle,
    rp_mle,
    top_k,
    top_k_recovery_rate,
)
from .inference import confidence_intervals, plugin_covariance
from .laplacian import _z_laplacian, pseudo_inverse_trace
from .model import GroundTruth, sample_ground_truth, sample_responses

__all__ = [
    "ExperimentConfig",
    "EXPERIMENT_NAMES",
    "run_experiment",
    "write_csv",
    "planted_theta",
    "lsat_top1_recovery",
]

EXPERIMENT_NAMES = (
    "linf-vs-n",
    "linf-vs-p",
    "multirun",
    "kappa-sweep",
    "topk",
    "refined-l2",
    "coverage",
)

_DEFAULT_PARAMS: dict[str, dict] = {
    "linf-vs-n": {"m": 50, "p": 0.1, "n_grid": [2500, 10000]},
    "linf-vs-p": {"m": 50, "n": 10000, "p_grid": [1 / 9, 0.25, 0.5, 1.0]},
    "multirun": {"m": 50, "p": 0.2, "n": 10000, "n_split_grid": [1, 2, 5, 10, 20, 50]},
    "kappa-sweep": {"m": 50, "p": 0.1, "n": 10000, "n_split": 20,
                    "log_kappa_grid": [0.0, 2.5, 5.0, 7.5, 10.0]},
    "topk": {"m": 50, "K": 5, "p": 0.1, "n": 10000, "n_split": 20,
             "delta_grid": [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7]},
    "refined-l2": {"p": 0.1, "users_per_item": 500, "n_grid": [10000]},
    "coverage": {"m": 20, "p": 0.5, "n": 10000, "n_split": 50,
                 "levels": [0.8, 0.9, 0.95]},
}


@dataclass(frozen=True)
class ExperimentConfig:
    """A named experiment with trial count, base seed, and parameter overrides."""

    name: str
    trials: int = 100
    seed: int = 0
    output: str | None = None
    workers: int = 1
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.name not in EXPERIMENT_NAMES:
            raise ValueError(
                f"unknown experiment {self.name!r}; expected one of {EXPERIMENT_NAMES}"
            )
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        merged = dict(_DEFAULT_PARAMS[self.name])
        unknown = set(self.params) - set(merged)
        if unknown:
            raise ValueError(f"unknown parameters for {self.name}: {sorted(unknown)}")
        merged.update(self.params)
        object.__setattr__(self, "params", merged)

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            obj = json.load(fh)
        return cls(
            name=obj["name"],
            trials=int(obj.get("trials", 100)),
            seed=int(obj.get("seed", 0)),
            output=obj.get("output"),
            workers=int(obj.get("workers", 1)),
            params=obj.get("params", {}),
        )


def planted_theta(m: int, K: int, delta: float) -> np.ndarray:
    """Two-level item vector with gap ``delta`` between ranks K and K+1."""
    theta = np.full(m, -(K / m) * delta)
    theta[:K] = (1.0 - K / m) * delta
    return theta


# ---------------------------------------------------------------------------
# Per-trial workers (module level so process pools can pickle them)
# ---------------------------------------------------------------------------

def _trial_linf(args):
    n, m, p, seed = args
    gt = sample_ground_truth(n, m, "standard-normal", seed=seed)
    data = sample_responses(gt, p, seed=seed)
    try:
        est = rp_mle(data, EstimatorConfig(method="rp", seed=seed))
    except EstimationError:
        # nonexistent MLE (all-wins item) has no error to average; count it
        return {"failed": 1.0}
    return {"linf": float(np.abs(est.theta_hat - gt.theta_star).max())}


def _trial_multirun(args):
    n, m, p, grid, seed = args
    gt = GroundTruth(np.zeros(m), np.zeros(n))
    data = sample_responses(gt, p, seed=seed, mode="uniform-mp")
    cfg = EstimatorConfig(method="mrp", seed=seed, n_split=max(grid))
    est = mrp_mle(data, cfg)
    running = np.cumsum(est.per_split_estimates, axis=0)
    running /= np.arange(1, cfg.n_split + 1)[:, None]
    out = {}
    for k in grid:
        err = running[k - 1] - gt.theta_star
        out[f"sq_l2@{k}"] = float(err @ err)
    return out


def _trial_kappa(args):
    n, m, p, log_kappa, n_split, seed = args
    spec = f"uniform:{log_kappa}"
    gt = sample_ground_truth(n, m, spec, seed=seed)
    data = sample_responses(gt, p, seed=seed)
    out = {}
    try:
        est_rp = rp_mle(data, EstimatorConfig(method="rp", seed=seed))
        est_mrp = mrp_mle(data, EstimatorConfig(method="mrp", seed=seed, n_split=n_split))
    except EstimationError:
        return {"failed": 1.0}
    out["linf_rp"] = float(np.abs(est_rp.theta_hat - gt.theta_star).max())
    out["linf_mrp"] = float(np.abs(est_mrp.theta_hat - gt.theta_star).max())
    return out


def _trial_topk(args):
    n, m, K, p, delta, n_split, seed = args
    rng = _rng.substream(seed, _rng.GROUND_TRUTH)
    zeta = rng.standard_normal(n)
    gt = GroundTruth(planted_theta(m, K, delta), zeta - zeta.mean())
    data = sample_responses(gt, p, seed=seed)
    true_top = set(range(K))
    est_rp = rp_mle(data, EstimatorConfig(method="rp", seed=seed))
    est_mrp = mrp_mle(data, EstimatorConfig(method="mrp", seed=seed, n_split=n_split))
    return {
        "recovery_rp": top_k_recovery_rate(est_rp, true_top),
        "recovery_mrp": top_k_recovery_rate(est_mrp, true_top),
    }


def _trial_refined_l2(args):
    n, m, p, seed = args
    gt = sample_ground_truth(n, m, "standard-normal", seed=seed)
    data = sample_responses(gt, p, seed=seed)
    try:
        est = rp_mle(data, EstimatorConfig(method="rp", seed=seed))
    except EstimationError:
        return {"failed": 1.0}
    W = est.split_wins[0]
    l2 = float(np.linalg.norm(est.theta_hat - gt.theta_star))
    out = {}
    for tag, theta in (("zhat", est.theta_hat), ("z", gt.theta_star)):
        root_trace = float(np.sqrt(pseudo_inverse_trace(_z_laplacian(W + W.T, theta))))
        out[f"reldev_{tag}"] = abs(l2 - root_trace) / root_trace
    return out


def _trial_coverage(args):
    n, m, p, n_split, levels, seed = args
    gt = sample_ground_truth(n, m, "standard-normal", seed=seed)
    data = sample_responses(gt, p, seed=seed)
    est = mrp_mle(data, EstimatorConfig(method="mrp", seed=seed, n_split=n_split))
    cov = plugin_covariance(data, est)
    out = {}
    for level in levels:
        rep = confidence_intervals(est, cov, alpha=1.0 - level)
        inside = (rep.ci_lower <= gt.theta_star) & (gt.theta_star <= rep.ci_upper)
        out[f"covered@{level}"] = float(inside.mean())
        out[f"halfwidth@{level}"] = float((rep.ci_upper - rep.ci_lower).mean() / 2.0)
    return out


def _trial_lsat_top1(args):
    n_users, m_items, n_split, methods, seed, trial = args
    data = lsat.subsample(n_users, m_items, seed, trial=trial)
    est_seed = _rng.subseed(seed, _rng.TRIAL, 0, trial)
    out = {}
    hardest = {2}  # problem 3
    for method in methods:
        cfg = EstimatorConfig(method=method, seed=est_seed, n_split=n_split)
        try:
            est = estimate(data, cfg)
        except EstimationError:
            out[f"failed_{method}"] = 1.0
            continue
        out[f"recovery_{method}"] = float(top_k(est, 1) == hardest)
    return out


# ---------------------------------------------------------------------------
# Harness
# ---------------------------------------------------------------------------

def _map_trials(fn, arglist, workers: int):
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, arglist))
    return [fn(a) for a in arglist]


def _aggregate(results: list[dict]) -> dict:
    """Mean and stderr for each key present in the trial dicts."""
    keys = sorted({k for r in results for k in r})
    out = {"n_trials": len(results), "n_failed": sum("failed" in r for r in results)}
    for key in keys:
        if key == "failed":
            continue
        vals = np.asarray([r[key] for r in results if key in r], float)
        out[f"{key}_mean"] = float(vals.mean())
        out[f"{key}_stderr"] = float(vals.std(ddof=1) / np.sqrt(vals.size)) if vals.size > 1 else 0.0
    return out


def _trial_seeds(cfg: ExperimentConfig, grid_index: int) -> list[int]:
    return [_rng.subseed(cfg.seed, _rng.TRIAL, grid_index, t) for t in range(cfg.trials)]


def run_experiment(cfg: ExperimentConfig) -> tuple[list[str], list[list]]:
    """Run all grid points; returns (header, rows) ready for `write_csv`."""
    P = cfg.params
    rows_of_dicts: list[dict] = []
    if cfg.name == "linf-vs-n":
        for gi, n in enumerate(P["n_grid"]):
            args = [(int(n), P["m"], P["p"], s) for s in _trial_seeds(cfg, gi)]
            rows_of_dicts.append({"n": int(n)} | _aggregate(_map_trials(_trial_linf, args, cfg.workers)))
    elif cfg.name == "linf-vs-p":
        for gi, p in enumerate(P["p_grid"]):
            args = [(P["n"], P["m"], float(p), s) for s in _trial_seeds(cfg, gi)]
            rows_of_dicts.append({"p": float(p)} | _aggregate(_map_trials(_trial_linf, args, cfg.workers)))
    elif cfg.name == "multirun":
        grid = [int(k) for k in P["n_split_grid"]]
        args = [(P["n"], P["m"], P["p"], grid, s) for s in _trial_seeds(cfg, 0)]
        agg = _aggregate(_map_trials(_trial_multirun, args, cfg.workers))
        for k in grid:
            rows_of_dicts.append({
                "n_split": k,
                "n_trials": agg["n_trials"],
                "sq_l2_mean": agg[f"sq_l2@{k}_mean"],
                "sq_l2_stderr": agg[f"sq_l2@{k}_stderr"],
            })
    elif cfg.name == "kappa-sweep":
        for gi, lk in enumerate(P["log_kappa_grid"]):
            args = [(P["n"], P["m"], P["p"], float(lk), P["n_split"], s)
                    for s in _trial_seeds(cfg, gi)]
            agg = _aggregate(_map_trials(_trial_kappa, args, cfg.workers))
            rows_of_dicts.append({"log_kappa": float(lk)} | agg)
    elif cfg.name == "topk":
        for gi, delta in enumerate(P["delta_grid"]):
            args = [(P["n"], P["m"], P["K"], P["p"], float(delta), P["n_split"], s)
                    for s in _trial_seeds(cfg, gi)]
            rows_of_dicts.append({"delta": float(delta)}
                                 | _aggregate(_map_trials(_trial_topk, args, cfg.workers)))
    elif cfg.name == "refined-l2":
        for gi, n in enumerate(P["n_grid"]):
            m = int(n) // int(P["users_per_item"])
            args = [(int(n), m, P["p"], s) for s in _trial_seeds(cfg, gi)]
            rows_of_dicts.append({"n": int(n), "m": m}
                                 | _aggregate(_map_trials(_trial_refined_l2, args, cfg.workers)))
    elif cfg.name == "coverage":
        levels = [float(v) for v in P["levels"]]
        args = [(P["n"], P["m"], P["p"], P["n_split"], levels, s) for s in _trial_seeds(cfg, 0)]
        agg = _aggregate(_map_trials(_trial_coverage, args, cfg.workers))
        for level in levels:
            rows_of_dicts.append({
                "level": level,
                "n_trials": agg["n_trials"],
                "n_evals": agg["n_trials"] * int(P["m"]),
                "coverage": agg[f"covered@{level}_mean"],
                "coverage_stderr": agg[f"covered@{level}_stderr"],
                "halfwidth_mean": agg[f"halfwidth@{level}_mean"],
            })
    header = sorted({k for r in rows_of_dicts for k in r})
    first_cols = [c for c in ("n", "p", "m", "n_split", "delta", "log_kappa", "level") if c in header]
    header = first_cols + [c for c in header if c not in first_cols]
    rows = [[row.get(col, "") for col in header] for row in rows_of_dicts]
    return header, rows


def lsat_top1_recovery(n_users: int, m_items: int, trials: int = 100, n_split: int = 20,
                       seed: int = 0, methods=("mrp", "pmle"), workers: int = 1,
                       ) -> tuple[list[str], list[list]]:
    """Top-1 recovery of the hardest problem on random LSAT sub-corpora.

    Every method sees the identical subsample in each trial, so rates are
    directly comparable.
    """
    args = [(n_users, m_items, n_split, tuple(methods), seed, t) for t in range(trials)]
    agg = _aggregate(_map_trials(_trial_lsat_top1, args, workers))
    header = ["method", "n_trials", "recovery", "stderr"]
    rows = []
    for method in methods:
        rows.append([method, trials,
                     agg.get(f"recovery_{method}_mean", ""),
                     agg.get(f"recovery_{method}_stderr", "")])
    return header, rows


def _cell(v) -> str:
    if isinstance(v, float):
        return repr(float(v))
    return str(v)


def write_csv(path, header: list[str], rows: list[list]) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_cell(v) for v in row) + "\n")
