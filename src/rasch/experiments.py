"""Seeded simulation studies at desk scale.

Each named experiment is one entry of a table: a trial function, the
parameter it sweeps (``params["<col>_grid"]``, or none), a row shaper and its
default parameters.  One harness runs them all: for each grid point it fills
the value into the parameters, draws fresh ground truth and responses per
trial, estimates, and aggregates per-trial statistics into a tidy table (mean
and standard error per column).  A trial whose fit raises `EstimationError`
is counted in ``n_failed`` and left out of the means; every other error
stops the run.  Trials are independently seeded from the experiment seed, so
results are identical whether run sequentially or on a worker pool, and any
single trial can be replayed in isolation.
"""

from __future__ import annotations

import contextlib
import json
import sys
from dataclasses import dataclass, field, fields
from functools import partial
from typing import Callable, NamedTuple

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
        if self.output is not None and not isinstance(self.output, str):
            raise ValueError(f"output must be a string or null, got {self.output!r}")
        if not isinstance(self.params, dict):
            raise ValueError(f"params must be a JSON object, got {self.params!r}")
        merged = dict(_DEFAULT_PARAMS[self.name])
        unknown = set(self.params) - set(merged)
        if unknown:
            raise ValueError(f"unknown parameters for {self.name}: {sorted(unknown)}")
        for key, value in self.params.items():
            listed = isinstance(merged[key], list)
            if listed != isinstance(value, list):
                raise ValueError(f"{key} must be {'a list' if listed else 'a number'}, got {value!r}")
            if listed and not value:
                raise ValueError(f"{key} must not be empty")
            # an integer default (or a list of them) takes integral numbers only
            whole = all(type(v) is int for v in (merged[key] if listed else [merged[key]]))
            values = [_integer(key, v) if whole else _number(key, v)
                      for v in (value if listed else [value])]
            merged[key] = values if listed else values[0]
        if any(k < 1 for k in merged.get("n_split_grid", ())):
            raise ValueError("n_split_grid entries must be >= 1")
        object.__setattr__(self, "params", merged)

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            obj = json.load(fh)
        if not isinstance(obj, dict):
            raise ValueError(f"config must be a JSON object, got {type(obj).__name__}")
        if "name" not in obj:
            raise ValueError("config has no 'name' key")
        unknown = set(obj) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(
            name=obj["name"],
            trials=_integer("trials", obj.get("trials", 100)),
            seed=_integer("seed", obj.get("seed", 0)),
            output=obj.get("output"),
            workers=_integer("workers", obj.get("workers", 1)),
            params=obj.get("params", {}),
        )


def _number(key: str, value) -> int | float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{key} must be a number, got {value!r}")
    return value


def _integer(key: str, value) -> int:
    """``value`` of ``key`` as an int; a JSON number with a fractional part, a
    string or a boolean is rejected rather than truncated or coerced."""
    integral = isinstance(value, int) or isinstance(value, float) and value.is_integer()
    if isinstance(value, bool) or not integral:
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return int(value)


def planted_theta(m: int, K: int, delta: float) -> np.ndarray:
    """Two-level item vector with gap ``delta`` between ranks K and K+1."""
    theta = np.full(m, -(K / m) * delta)
    theta[:K] = (1.0 - K / m) * delta
    return theta


# ---------------------------------------------------------------------------
# Per-trial workers: ``trial(params, seed) -> {column: value}``, module level
# so process pools can pickle them
# ---------------------------------------------------------------------------

def _trial_linf(P, seed):
    gt = sample_ground_truth(P["n"], P["m"], "standard-normal", seed=seed)
    data = sample_responses(gt, P["p"], seed=seed)
    est = rp_mle(data, EstimatorConfig(method="rp", seed=seed))
    return {"linf": float(np.abs(est.theta_hat - gt.theta_star).max())}


def _trial_multirun(P, seed):
    grid = P["n_split_grid"]
    gt = GroundTruth(np.zeros(P["m"]), np.zeros(P["n"]))
    data = sample_responses(gt, P["p"], seed=seed, mode="uniform-mp")
    cfg = EstimatorConfig(method="mrp", seed=seed, n_split=max(grid))
    est = mrp_mle(data, cfg)
    running = np.cumsum(est.per_split_estimates, axis=0)
    running /= np.arange(1, cfg.n_split + 1)[:, None]
    out = {}
    for k in grid:
        err = running[k - 1] - gt.theta_star
        out[f"sq_l2@{k}"] = float(err @ err)
    return out


def _trial_kappa(P, seed):
    gt = sample_ground_truth(P["n"], P["m"], f"uniform:{P['log_kappa']}", seed=seed)
    data = sample_responses(gt, P["p"], seed=seed)
    est_rp = rp_mle(data, EstimatorConfig(method="rp", seed=seed))
    est_mrp = mrp_mle(data, EstimatorConfig(method="mrp", seed=seed, n_split=P["n_split"]))
    return {
        "linf_rp": float(np.abs(est_rp.theta_hat - gt.theta_star).max()),
        "linf_mrp": float(np.abs(est_mrp.theta_hat - gt.theta_star).max()),
    }


def _trial_topk(P, seed):
    rng = _rng.substream(seed, _rng.GROUND_TRUTH)
    zeta = rng.standard_normal(P["n"])
    gt = GroundTruth(planted_theta(P["m"], P["K"], P["delta"]), zeta - zeta.mean())
    data = sample_responses(gt, P["p"], seed=seed)
    true_top = set(range(P["K"]))
    est_rp = rp_mle(data, EstimatorConfig(method="rp", seed=seed))
    est_mrp = mrp_mle(data, EstimatorConfig(method="mrp", seed=seed, n_split=P["n_split"]))
    return {
        "recovery_rp": top_k_recovery_rate(est_rp, true_top),
        "recovery_mrp": top_k_recovery_rate(est_mrp, true_top),
    }


def _trial_refined_l2(P, seed):
    gt = sample_ground_truth(P["n"], P["m"], "standard-normal", seed=seed)
    data = sample_responses(gt, P["p"], seed=seed)
    est = rp_mle(data, EstimatorConfig(method="rp", seed=seed))
    W = est.split_wins[0]
    l2 = float(np.linalg.norm(est.theta_hat - gt.theta_star))
    out = {}
    for tag, theta in (("zhat", est.theta_hat), ("z", gt.theta_star)):
        root_trace = float(np.sqrt(pseudo_inverse_trace(_z_laplacian(W + W.T, theta))))
        out[f"reldev_{tag}"] = abs(l2 - root_trace) / root_trace
    return out


def _trial_coverage(P, seed):
    gt = sample_ground_truth(P["n"], P["m"], "standard-normal", seed=seed)
    data = sample_responses(gt, P["p"], seed=seed)
    est = mrp_mle(data, EstimatorConfig(method="mrp", seed=seed, n_split=P["n_split"]))
    cov = plugin_covariance(data, est)
    out = {}
    for level in map(float, P["levels"]):
        rep = confidence_intervals(est, cov, alpha=1.0 - level)
        inside = (rep.ci_lower <= gt.theta_star) & (gt.theta_star <= rep.ci_upper)
        out[f"covered@{level}"] = float(inside.mean())
        out[f"halfwidth@{level}"] = float((rep.ci_upper - rep.ci_lower).mean() / 2.0)
    return out


def _trial_lsat_top1(P, trial):
    """Top-1 hit of ``P["method"]`` on sub-corpus ``trial`` of ``P["seed"]``."""
    data = lsat.subsample(P["n_users"], P["m_items"], P["seed"], trial=trial)
    est_seed = _rng.subseed(P["seed"], _rng.TRIAL, 0, trial)
    est = estimate(data, EstimatorConfig(method=P["method"], seed=est_seed, n_split=P["n_split"]))
    return {"recovery": float(top_k(est, 1) == {2})}  # problem 3 is the hardest


# ---------------------------------------------------------------------------
# The experiment table; row shapers are ``rows(point, params, agg) -> [row]``
# ---------------------------------------------------------------------------

def _point_row(point, P, agg):
    return [point | agg]


def _picked(agg, **columns):
    """Trial counts plus aggregate entries renamed; blank where no trial was fitted."""
    return {"n_trials": agg["n_trials"], "n_failed": agg["n_failed"]} | {
        col: agg.get(key, "") for col, key in columns.items()}


def _multirun_rows(point, P, agg):
    return [{"n_split": k} | _picked(agg, sq_l2_mean=f"sq_l2@{k}_mean",
                                     sq_l2_stderr=f"sq_l2@{k}_stderr")
            for k in P["n_split_grid"]]


def _coverage_rows(point, P, agg):
    n_evals = (agg["n_trials"] - agg["n_failed"]) * int(P["m"])
    return [{"level": level, "n_evals": n_evals}
            | _picked(agg, coverage=f"covered@{level}_mean",
                      coverage_stderr=f"covered@{level}_stderr",
                      halfwidth_mean=f"halfwidth@{level}_mean")
            for level in map(float, P["levels"])]

class _Study(NamedTuple):
    trial: Callable
    grid: str | None  # column swept through params[f"{grid}_grid"]
    rows: Callable
    defaults: dict


_STUDIES: dict[str, _Study] = {
    "linf-vs-n": _Study(_trial_linf, "n", _point_row,
                        {"m": 50, "p": 0.1, "n_grid": [2500, 10000]}),
    "linf-vs-p": _Study(_trial_linf, "p", _point_row,
                        {"m": 50, "n": 10000, "p_grid": [1 / 9, 0.25, 0.5, 1.0]}),
    "multirun": _Study(_trial_multirun, None, _multirun_rows,
                       {"m": 50, "p": 0.2, "n": 10000, "n_split_grid": [1, 2, 5, 10, 20, 50]}),
    "kappa-sweep": _Study(_trial_kappa, "log_kappa", _point_row,
                          {"m": 50, "p": 0.1, "n": 10000, "n_split": 20,
                           "log_kappa_grid": [0.0, 2.5, 5.0, 7.5, 10.0]}),
    "topk": _Study(_trial_topk, "delta", _point_row,
                   {"m": 50, "K": 5, "p": 0.1, "n": 10000, "n_split": 20,
                    "delta_grid": [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7]}),
    "refined-l2": _Study(_trial_refined_l2, "n", _point_row,
                         {"p": 0.1, "users_per_item": 500, "n_grid": [10000]}),
    "coverage": _Study(_trial_coverage, None, _coverage_rows,
                       {"m": 20, "p": 0.5, "n": 10000, "n_split": 50,
                        "levels": [0.8, 0.9, 0.95]}),
}

EXPERIMENT_NAMES = tuple(_STUDIES)
_DEFAULT_PARAMS = {name: study.defaults for name, study in _STUDIES.items()}


# ---------------------------------------------------------------------------
# Harness
# ---------------------------------------------------------------------------

def _guarded(trial, P, seed) -> dict:
    """Run one trial; a fit that cannot be made is counted, not raised."""
    try:
        return trial(P, seed)
    except EstimationError:
        return {"failed": 1.0}


def _trial_pool(workers: int) -> contextlib.AbstractContextManager:
    """``workers`` worker processes, shared by every grid point of a run, or
    no pool (a null context) for one worker."""
    if workers < 2:
        return contextlib.nullcontext()
    # imported here: only a pooled run pays for them
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # spawned, not forked: after a fork OpenBLAS starts its worker thread
    # anew in this process, and the new worker spins on the second core (an
    # eigvalsh at m = 64 took 134.8 ms of CPU in 0.5 ms after a forked pool,
    # 0.5 ms after a spawned one; 2-core x86-64, numpy 2.4).  A spawned
    # worker starts a fresh interpreter, so the run starts its pool once.
    return ProcessPoolExecutor(max_workers=workers, mp_context=multiprocessing.get_context("spawn"))


def _map_trials(trial, P: dict, seeds, pool) -> list[dict]:
    fn = partial(_guarded, trial, P)
    return list(map(fn, seeds) if pool is None else pool.map(fn, seeds))


def _aggregate(results: list[dict]) -> dict:
    """Mean and stderr for each key present in the trial dicts."""
    keys = sorted({k for r in results for k in r} - {"failed"})
    out = {"n_trials": len(results), "n_failed": sum("failed" in r for r in results)}
    for key in keys:
        vals = np.asarray([r[key] for r in results if key in r], float)
        out[f"{key}_mean"] = float(vals.mean())
        out[f"{key}_stderr"] = float(vals.std(ddof=1) / np.sqrt(vals.size)) if vals.size > 1 else 0.0
    return out


def _trial_seeds(cfg: ExperimentConfig, grid_index: int) -> list[int]:
    return [_rng.subseed(cfg.seed, _rng.TRIAL, grid_index, t) for t in range(cfg.trials)]


def run_experiment(cfg: ExperimentConfig) -> tuple[list[str], list[list]]:
    """Run all grid points; returns (header, rows) ready for `write_csv`."""
    study = _STUDIES[cfg.name]
    P = cfg.params
    values = [None] if study.grid is None else P[f"{study.grid}_grid"]
    rows_of_dicts: list[dict] = []
    with _trial_pool(cfg.workers) as pool:
        for gi, value in enumerate(values):
            point = {}
            if study.grid is not None:
                point[study.grid] = int(value) if study.grid == "n" else float(value)
            if "users_per_item" in P:  # refined-l2 sizes the item set by n
                point["m"] = point["n"] // int(P["users_per_item"])
            params = P | point
            agg = _aggregate(_map_trials(study.trial, params, _trial_seeds(cfg, gi), pool))
            rows_of_dicts += study.rows(point, params, agg)
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
    directly comparable.  ``recovery`` and ``stderr`` are over the fitted
    trials; ``n_failed`` counts the trials whose fit raised (blank rates when
    every fit failed).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    header = ["method", "n_trials", "recovery", "stderr", "n_failed"]
    rows = []
    with _trial_pool(workers) as pool:
        for method in methods:
            P = {"n_users": n_users, "m_items": m_items, "n_split": n_split,
                 "method": method, "seed": seed}
            agg = _aggregate(_map_trials(_trial_lsat_top1, P, range(trials), pool))
            rows.append([method, trials, agg.get("recovery_mean", ""),
                         agg.get("recovery_stderr", ""), agg["n_failed"]])
    return header, rows


def _cell(v) -> str:
    if isinstance(v, float):
        return repr(float(v))
    return str(v)


def write_csv(path, header: list[str], rows: list[list]) -> None:
    """Write the table to ``path``, or to stdout when ``path`` is None."""
    text = "".join(",".join(map(_cell, row)) + "\n" for row in [header, *rows])
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)
