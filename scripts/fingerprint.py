"""Print one SHA-256 over the numbers the library produces on fixed inputs.

    PYTHONPATH=src python3 scripts/fingerprint.py

Two checkouts whose hashes agree give the same estimates, covariances, CLI
output and compiled splits bit for bit.  The hash covers, at seeds 0-2, the
Bernoulli samples with standard-normal parameters at (n, m, p) = (1e4, 20,
0.5), (1e4, 50, 0.1), (300, 6, 0.6), the fixed-length ``uniform-mp`` sample
with all-zeros parameters at (1e4, 50, 0.2), where every user answers 10
items and the splits sort in rows of whole users, the (1e4, 50, 0.1)
Bernoulli sample without the last response of each user of odd degree, where the
degrees are even but unequal and the splits pair by strided views, and the
(300, 6, 0.6) samples with user ``t`` relabelled ``7919 t``, ids up to 2.4e6,
where the float split keys resolve fewer bits of the key, and the Bernoulli
samples at (2000, 100, 0.6), where a row of a split's sort holds three users
of the largest degree and the windows around the users it cuts are long:

- theta_hat of ``rp``, ``mrp`` (n_split=20), ``wp`` and ``pmle`` (only ``rp``
  and ``mrp`` at the ``uniform-mp``, even-degree, spread-user and m = 100
  points);
- ``H_hat``, ``V_diff_hat`` and ``Sigma_hat`` of the ``wp`` and ``mrp``
  plug-in covariances, except at the spread-user points;
- the ``item_ids``, ``responses`` and ``user_indptr`` arrays of each sample;
- for k = 0-2, every field of ``split = random_split(data, seed, k)`` with
  its dtype (``users``, ``items_hi``, ``items_lo`` and the private ``_x_hi``
  and ``_x_lo``), and the ``rec_*``, ``wins``, ``counts``, ``edge_i`` and
  ``edge_j`` arrays of ``compile_comparisons(data, split)``;

and the stdout of ``rasch infer lsat --method mrp --n-split 100 --seed 3``
and of ``rasch infer <lsat.csv> --method wp``.  A fit that raises
contributes its error class and message instead of numbers.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

import numpy as np

import rasch
from rasch.cli import main as cli_main
from rasch.estimators import EstimatorConfig

SEEDS = (0, 1, 2)
ALL_METHODS = ("rp", "mrp", "wp", "pmle")
# (n, m, p, parameters, sampling mode, "even-degrees" or "spread-users", methods)
POINTS = ((10_000, 20, 0.5, "standard-normal", "bernoulli", ALL_METHODS),
          (10_000, 50, 0.1, "standard-normal", "bernoulli", ALL_METHODS),
          (300, 6, 0.6, "standard-normal", "bernoulli", ALL_METHODS),
          (10_000, 50, 0.2, "all-zeros", "uniform-mp", ("rp", "mrp")),
          (10_000, 50, 0.1, "standard-normal", "even-degrees", ("rp", "mrp")),
          (300, 6, 0.6, "standard-normal", "spread-users", ("rp", "mrp")),
          (2_000, 100, 0.6, "standard-normal", "bernoulli", ("rp", "mrp")))
SPREAD = 7919  # user-id factor of the "spread-users" points
COV_FIELDS = ("H_hat", "V_diff_hat", "Sigma_hat")
DATA_FIELDS = ("item_ids", "responses", "user_indptr")
SPLIT_FIELDS = ("users", "items_hi", "items_lo", "_x_hi", "_x_lo")
PC_FIELDS = ("rec_i", "rec_j", "rec_t", "rec_y", "wins", "counts", "edge_i", "edge_j")


def _fit(data, method: str, seed: int, covariances: bool) -> list[tuple[str, np.ndarray]]:
    """theta_hat of one method, then, with ``covariances``, the covariance
    pieces for ``mrp``/``wp``."""
    cfg = EstimatorConfig(method=method, seed=seed, n_split=20 if method == "mrp" else 1)
    est = rasch.estimate(data, cfg)
    out = [("theta_hat", est.theta_hat)]
    if covariances and method in ("mrp", "wp"):
        cov = rasch.plugin_covariance(data, est)
        out += [(name, getattr(cov, name)) for name in COV_FIELDS]
    return out


def _even_degrees(data):
    """``data`` without the last response of each user of odd degree."""
    odd_last = data.user_indptr[1:][data.user_degrees() % 2 == 1] - 1
    keep = np.ones(data.n_edges, bool)
    keep[odd_last] = False
    return rasch.ResponseData(data.n_users, data.n_items, data.user_ids[keep],
                              data.item_ids[keep], data.responses[keep])


def _spread_users(data):
    """``data`` with user ``t`` relabelled ``SPREAD * t``."""
    users = data.user_ids.astype(np.int64) * SPREAD
    return rasch.ResponseData(SPREAD * (data.n_users - 1) + 1, data.n_items, users,
                              data.item_ids, data.responses)


def _cli_stdout(argv: list[str]) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(argv)
    return f"exit {code}\n{out.getvalue()}".encode()


def fingerprint() -> str:
    h = hashlib.sha256()

    def feed(label: str, payload: bytes) -> None:
        h.update(f"{label}:{len(payload)}:".encode())
        h.update(payload)

    for n, m, p, spec, mode, methods in POINTS:
        for seed in SEEDS:
            gt = rasch.sample_ground_truth(n, m, spec, seed=seed)
            if mode == "even-degrees":
                data = _even_degrees(rasch.sample_responses(gt, p, seed=seed))
            elif mode == "spread-users":
                data = _spread_users(rasch.sample_responses(gt, p, seed=seed))
            else:
                data = rasch.sample_responses(gt, p, seed=seed, mode=mode)
            where = f"n={n} m={m} p={p} seed={seed}"
            if mode != "bernoulli":
                where += f" {spec} {mode}"
            for name in DATA_FIELDS:
                arr = getattr(data, name)
                feed(f"{where} data {name} {arr.dtype}", arr.tobytes())
            for method in methods:
                try:
                    arrays = _fit(data, method, seed, covariances=mode != "spread-users")
                except rasch.EstimationError as exc:
                    feed(f"{where} {method} error", f"{type(exc).__name__}: {exc}".encode())
                    continue
                for name, arr in arrays:
                    feed(f"{where} {method} {name}", np.ascontiguousarray(arr, float).tobytes())
            for k in range(3):
                split = rasch.random_split(data, seed, k)
                for name in SPLIT_FIELDS:
                    arr = getattr(split, name)
                    feed(f"{where} split {k} {name} {arr.dtype}", arr.tobytes())
                pc = rasch.compile_comparisons(data, split)
                for name in PC_FIELDS:
                    feed(f"{where} split {k} {name}", getattr(pc, name).tobytes())
    feed("infer lsat mrp", _cli_stdout(["infer", "lsat", "--method", "mrp",
                                        "--n-split", "100", "--seed", "3"]))
    with tempfile.TemporaryDirectory() as tmp:
        csv = str(Path(tmp) / "lsat.csv")
        cli_main(["lsat", "export", "--out", csv])
        feed("infer lsat.csv wp", _cli_stdout(["infer", csv, "--method", "wp"]))
    return h.hexdigest()


if __name__ == "__main__":
    print(fingerprint())
    sys.exit(0)
