"""Acceptance suite: every release gate runs here at its stated tolerance.

Each criterion prints one PASS/FAIL line (visible with ``pytest -s``) before
asserting, so a red run still reports every measured value.

Known red: criterion 6a pins the mean relative deviation of the l2 error from
the root-trace predictor at <= 0.1 for m = 20.  That statistic has an
n-independent noise floor of about 0.13 at m = 20 (the chi-type fluctuation of
a norm with m - 1 effective degrees of freedom), which an ideal estimator
drawn exactly from the predicted law cannot beat either; see
tests/test_acceptance.py::test_criterion_6a and the companion ideal-model
check below it.
"""

import json
import time

import numpy as np
import pytest

from rasch import _rng
from rasch.cli import main
from rasch.errors import EstimationError
from rasch.estimators import EstimatorConfig, mrp_mle, rp_mle, wp_mle
from rasch.experiments import ExperimentConfig, run_experiment
from rasch.inference import confidence_intervals, plugin_covariance
from rasch.laplacian import (
    BtlWeights,
    build_count_laplacian,
    build_z_laplacian,
    pseudo_inverse,
    pseudo_inverse_trace,
)
from rasch.model import (
    GroundTruth,
    ResponseData,
    condition_numbers,
    sample_ground_truth,
    sample_responses,
)
from rasch.pairing import compile_comparisons, random_split
from rasch.solver import BtlObjective, gradient, hessian, nll, solve_newton

LOG3 = np.log(3.0)


def _report(criterion, ok, detail, elapsed=None):
    status = "PASS" if ok else "FAIL"
    timing = "" if elapsed is None else f" [{elapsed:.1f}s]"
    print(f"[criterion {criterion}] {status} {detail}{timing}")
    return ok


# ---------------------------------------------------------------------------
# 1. closed-form MLE
# ---------------------------------------------------------------------------

def _grid_minimize_3(obj):
    center = np.zeros(2)
    width = 4.0
    for _ in range(8):
        a = np.linspace(center[0] - width, center[0] + width, 41)
        b = np.linspace(center[1] - width, center[1] + width, 41)
        best, arg = np.inf, None
        for x in a:
            for y in b:
                val = nll(obj, np.array([x, y, -x - y]))
                if val < best:
                    best, arg = val, (x, y)
        center = np.array(arg)
        width /= 8.0
    theta = np.array([center[0], center[1], -center.sum()])
    return theta - theta.mean()


def test_criterion_1_closed_form_mle():
    t0 = time.time()
    two = BtlObjective(m=2, item_i=[1], item_j=[0], weight=[4.0], wins_i=[3.0])
    res = solve_newton(two)
    err2 = float(np.abs(res.theta_hat - np.array([-0.5 * LOG3, 0.5 * LOG3])).max())

    rng = np.random.default_rng(0)
    err3 = 0.0
    for _ in range(3):
        w = rng.integers(3, 9, 3).astype(float)
        wins = np.round(rng.uniform(0.25, 0.75, 3) * w, 3)
        obj = BtlObjective(m=3, item_i=[1, 2, 2], item_j=[0, 0, 1], weight=w, wins_i=wins)
        got = solve_newton(obj).theta_hat
        err3 = max(err3, float(np.abs(got - _grid_minimize_3(obj)).max()))
    elapsed = time.time() - t0
    ok = err2 <= 1e-8 and err3 <= 1e-6 and elapsed < 1.0
    assert _report(1, ok, f"two-item err {err2:.2e} (<=1e-8), "
                          f"grid-oracle err {err3:.2e} (<=1e-6)", elapsed)


# ---------------------------------------------------------------------------
# 2. derivative correctness
# ---------------------------------------------------------------------------

def test_criterion_2_derivatives_vs_finite_differences():
    t0 = time.time()
    rng = np.random.default_rng(1)
    worst_g, worst_h = 0.0, 0.0
    for _ in range(100):
        m = int(rng.integers(3, 11))
        ii, jj = np.triu_indices(m, k=1)
        keep = rng.random(ii.size) < 0.8
        ii, jj = ii[keep], jj[keep]
        if ii.size == 0:
            continue
        w = rng.integers(1, 10, ii.size).astype(float)
        wins = rng.uniform(0.1, 0.9, ii.size) * w
        obj = BtlObjective(m=m, item_i=jj, item_j=ii, weight=w, wins_i=wins)
        theta = rng.standard_normal(m)
        h = 1e-5
        g = gradient(obj, theta)
        fd = np.empty(m)
        for k in range(m):
            e = np.zeros(m)
            e[k] = h
            fd[k] = (nll(obj, theta + e) - nll(obj, theta - e)) / (2 * h)
        worst_g = max(worst_g, np.abs(g - fd).max() / max(1.0, np.abs(fd).max()))
        v = rng.standard_normal(m)
        hv = hessian(obj, theta).matrix @ v
        fd_h = (gradient(obj, theta + 1e-6 * v) - gradient(obj, theta - 1e-6 * v)) / 2e-6
        worst_h = max(worst_h, np.abs(hv - fd_h).max() / max(1.0, np.abs(fd_h).max()))
    elapsed = time.time() - t0
    ok = worst_g <= 1e-6 and worst_h <= 1e-5 and elapsed < 5.0
    assert _report(2, ok, f"gradient rel err {worst_g:.2e} (<=1e-6), "
                          f"hessian rel err {worst_h:.2e} (<=1e-5)", elapsed)


# ---------------------------------------------------------------------------
# 3. LSAT reproduction
# ---------------------------------------------------------------------------

PUBLISHED_THETA = np.array([-1.2824, 0.4511, 1.2800, 0.1926, -0.6413])
PUBLISHED_LOWER = np.array([-1.5579, 0.2696, 1.0958, 0.0017, -0.8711])
PUBLISHED_UPPER = np.array([-1.0069, 0.6327, 1.4641, 0.3834, -0.4116])
EXPECTED_ORDER = [0, 4, 3, 1, 2]  # easiest to hardest: problems 1 < 5 < 4 < 2 < 3


def test_criterion_3_lsat_reproduction():
    from rasch.lsat import load_lsat

    t0 = time.time()
    data = load_lsat()
    wp = wp_mle(data)
    mrp = mrp_mle(data, EstimatorConfig(method="mrp", seed=0, n_split=100))
    theta_dev = max(np.abs(wp.theta_hat - PUBLISHED_THETA).max(),
                    np.abs(mrp.theta_hat - PUBLISHED_THETA).max())
    order_ok = (np.argsort(wp.theta_hat).tolist() == EXPECTED_ORDER
                and np.argsort(mrp.theta_hat).tolist() == EXPECTED_ORDER)

    ci_dev = 0.0
    reports = {}
    for name, est in (("mrp", mrp), ("wp", wp)):
        cov = plugin_covariance(data, est)
        rep = confidence_intervals(est, cov, alpha=0.01)
        reports[name] = rep
        ci_dev = max(ci_dev, np.abs(rep.ci_lower - PUBLISHED_LOWER).max(),
                     np.abs(rep.ci_upper - PUBLISHED_UPPER).max())

    # family-wise 95% claim: per-item level 1% via Bonferroni over 5 items
    bonf = confidence_intervals(mrp, plugin_covariance(data, mrp),
                                alpha=0.05, bonferroni=True)
    others = [i for i in range(5) if i != 2]
    dominant = bonf.ci_lower[2] > max(bonf.ci_upper[i] for i in others)

    elapsed = time.time() - t0
    ok = theta_dev <= 0.05 and order_ok and ci_dev <= 0.05 and dominant and elapsed < 30
    assert _report(3, ok, f"theta dev {theta_dev:.4f} (<=0.05), ordering {order_ok}, "
                          f"CI dev {ci_dev:.4f} (<=0.05), hardest-problem dominance "
                          f"{dominant}", elapsed)


# ---------------------------------------------------------------------------
# 4. sup-norm error scaling in n
# ---------------------------------------------------------------------------

def test_criterion_4_linf_scaling():
    t0 = time.time()
    cfg = ExperimentConfig(name="linf-vs-n", trials=100, seed=5,
                           params={"n_grid": [2500, 10000], "m": 50, "p": 0.1})
    header, rows = run_experiment(cfg)
    table = {row[header.index("n")]: row for row in rows}
    mean_small = table[2500][header.index("linf_mean")]
    mean_big = table[10000][header.index("linf_mean")]
    failed = sum(row[header.index("n_failed")] for row in rows)
    ratio = mean_small / mean_big
    elapsed = time.time() - t0
    ok = 1.5 <= ratio <= 2.5 and elapsed < 300
    assert _report(4, ok, f"mean linf {mean_small:.3f} @ n=2500 vs {mean_big:.3f} "
                          f"@ n=10000, ratio {ratio:.2f} (in [1.5, 2.5]; theory 2); "
                          f"{failed} nonexistent-MLE trials excluded", elapsed)


# ---------------------------------------------------------------------------
# 5. multi-split variance reduction
# ---------------------------------------------------------------------------

def test_criterion_5_multisplit_variance_reduction():
    t0 = time.time()
    cfg = ExperimentConfig(name="multirun", trials=200, seed=11)
    header, rows = run_experiment(cfg)
    k_col = header.index("n_split")
    mse_col = header.index("sq_l2_mean")
    mse = {row[k_col]: row[mse_col] for row in rows}
    ratio = mse[50] / mse[1]

    # squared error is affine in 1 / n_split
    inv_k = np.array([1.0 / k for k in sorted(mse)])
    y = np.array([mse[k] for k in sorted(mse)])
    slope, intercept = np.polyfit(inv_k, y, 1)
    resid = y - (slope * inv_k + intercept)
    r2 = 1.0 - resid @ resid / ((y - y.mean()) @ (y - y.mean()))

    elapsed = time.time() - t0
    ok = 0.45 <= ratio <= 0.70 and r2 >= 0.9 and elapsed < 600
    assert _report(5, ok, f"MSE(50)/MSE(1) = {ratio:.3f} (in [0.45, 0.70]; theory "
                          f"5/9 = 0.556), linear fit R^2 = {r2:.3f} (>=0.9)", elapsed)


# ---------------------------------------------------------------------------
# 6. refined l2 characterization
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def refined_l2_rows():
    cfg = ExperimentConfig(name="refined-l2", trials=100, seed=5,
                           params={"n_grid": [10000], "p": 0.1, "users_per_item": 500})
    header, rows = run_experiment(cfg)
    row = {name: rows[0][header.index(name)] for name in header}
    # a failed fit would leave the means over fewer trials unnoticed
    assert row["n_failed"] == 0
    return row


def test_criterion_6a_refined_l2_mean_deviation(refined_l2_rows):
    dev_zhat = refined_l2_rows["reldev_zhat_mean"]
    # the <= 0.1 bound is below the chi-type noise floor of the statistic at
    # m = 20 (~0.13, see test_criterion_6_ideal_model_floor); kept as stated
    ok = dev_zhat <= 0.1
    assert _report("6a", ok, f"mean relative l2 deviation {dev_zhat:.4f} (<=0.1)")


def test_criterion_6b_plugin_weights_match_oracle_weights(refined_l2_rows):
    dev_zhat = refined_l2_rows["reldev_zhat_mean"]
    dev_z = refined_l2_rows["reldev_z_mean"]
    gap = abs(dev_zhat - dev_z)
    ok = gap <= 0.02
    assert _report("6b", ok, f"plug-in vs oracle curvature deviation gap "
                             f"{gap:.4f} (<=0.02)")


def test_criterion_6_ideal_model_floor(refined_l2_rows):
    # companion evidence: an estimator drawn exactly from the predicted
    # Gaussian law produces the same mean deviation, so the estimator is at
    # the information floor rather than inflating the statistic
    rng = np.random.default_rng(17)
    devs = []
    for seed in range(10):
        gt = sample_ground_truth(10000, 20, "standard-normal", seed=seed)
        data = sample_responses(gt, 0.1, seed=seed)
        pc = compile_comparisons(data, random_split(data, seed))
        lap = build_z_laplacian(pc, gt.theta_star)
        T = pseudo_inverse_trace(lap)
        lam, U = np.linalg.eigh(pseudo_inverse(lap).astype(float))
        A = U * np.sqrt(np.clip(lam, 0.0, None))
        for _ in range(300):
            x = A @ rng.standard_normal(20)
            devs.append(abs(np.linalg.norm(x) - np.sqrt(T)) / np.sqrt(T))
    floor = float(np.mean(devs))
    measured = refined_l2_rows["reldev_zhat_mean"]
    ok = measured <= floor * 1.15
    assert _report("6-floor", ok, f"measured {measured:.4f} vs ideal-model floor "
                                  f"{floor:.4f} (within 15%)")


# ---------------------------------------------------------------------------
# 7. interval coverage
# ---------------------------------------------------------------------------

def test_criterion_7_coverage():
    t0 = time.time()
    cfg = ExperimentConfig(name="coverage", trials=60, seed=5)
    header, rows = run_experiment(cfg)
    level_col = header.index("level")
    cov_col = header.index("coverage")
    evals_col = header.index("n_evals")
    worst = 0.0
    details = []
    total_evals = 0
    for row in rows:
        dev = abs(row[cov_col] - row[level_col])
        worst = max(worst, dev)
        total_evals = row[evals_col]
        details.append(f"{row[level_col]:g}:{row[cov_col]:.3f}")
    elapsed = time.time() - t0
    ok = worst <= 0.03 and total_evals >= 1000 and elapsed < 600
    assert _report(7, ok, f"coverage {{{', '.join(details)}}} over {total_evals} "
                          f"evaluations, worst |dev| {worst:.3f} (<=0.03)", elapsed)


# ---------------------------------------------------------------------------
# 8. property suites
# ---------------------------------------------------------------------------

def test_criterion_8_property_suite(tmp_path):
    t0 = time.time()
    checks = {}

    # Laplacian identities on simulated comparison graphs
    gt = sample_ground_truth(4000, 15, "standard-normal", seed=21)
    data = sample_responses(gt, 0.4, seed=21)
    pc = compile_comparisons(data, random_split(data, 21))
    lap_count = build_count_laplacian(pc)
    lap_z = build_z_laplacian(pc, gt.theta_star)
    P = pseudo_inverse(lap_z)
    checks["null_space"] = bool(np.abs(P @ np.ones(15)).max() <= 1e-8)
    tr_a = float(np.trace(P))
    tr_b = pseudo_inverse_trace(lap_z)
    checks["pinv_paths"] = bool(abs(tr_a - tr_b) <= 1e-8 * abs(tr_b))

    # z-range within [1/(4 kappa1), 1/4]
    kappa1 = condition_numbers(gt).kappa1
    zvals = np.asarray(list(BtlWeights.from_theta(
        gt.theta_star, zip(pc.edge_i, pc.edge_j)).z.values()))
    checks["z_range"] = bool(np.all(zvals >= 1 / (4 * kappa1) - 1e-15)
                             and np.all(zvals <= 0.25 + 1e-15))

    # spectral bound on every constructed Laplacian
    checks["max_eigen"] = True
    for lap in (lap_count, lap_z):
        deg = lap.weighted_degrees()
        checks["max_eigen"] &= bool(lap.spectrum[0] <= 2 * deg.max() + 1e-9)

    # within-split score covariance dominates the cross-split one
    est = mrp_mle(data, EstimatorConfig(method="mrp", seed=21, n_split=8))
    cov = plugin_covariance(data, est, exact_split_mixture=True)
    gap = np.linalg.eigvalsh(cov.V_same_hat - cov.V_diff_hat)[0]
    checks["v_same_dominates"] = bool(gap >= -1e-6 * np.linalg.norm(cov.V_same_hat, 2))

    # split disjointness and uniform matching frequencies: 1e5 i.i.d. draws
    n_draws = 100_000
    users = np.repeat(np.arange(n_draws), 4)
    items = np.tile(np.arange(4), n_draws)
    four = ResponseData(n_draws, 4, users, items, np.zeros(4 * n_draws, int))
    split = random_split(four, seed=23)
    order = np.argsort(split.users, kind="stable")
    hi = split.items_hi[order].reshape(-1, 2)
    lo = split.items_lo[order].reshape(-1, 2)
    checks["disjoint"] = bool(
        split.n_pairs == 2 * n_draws
        and np.all(np.sort(np.concatenate([hi, lo], axis=1), axis=1)
                   == np.arange(4)[None, :]))
    partner = np.where(lo[:, 0] == 0, hi[:, 0], 0)
    partner = np.where(lo[:, 1] == 0, hi[:, 1], partner)
    freqs = np.bincount(partner, minlength=4)[1:] / n_draws
    checks["matching_uniform"] = bool(np.abs(freqs - 1 / 3).max() <= 0.01)

    # determinism by seed across every CLI command
    def run_twice(make_args, made_files):
        blobs = []
        for tag in ("x", "y"):
            out = str(tmp_path / tag)
            assert main(make_args(out)) == 0
            blobs.append(b"".join((tmp_path / (tag + suffix)).read_bytes()
                                  for suffix in made_files))
        return blobs[0] == blobs[1]

    fixture = tmp_path / "fix.csv"
    main(["simulate", "--n", "40", "--m", "5", "--p", "1", "--seed", "3",
          "--out", str(fixture)])
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"name": "linf-vs-n", "trials": 2, "seed": 1,
                                   "params": {"n_grid": [300], "m": 6, "p": 0.5}}))
    det = run_twice(lambda o: ["simulate", "--n", "25", "--m", "4", "--p", "0.6",
                               "--seed", "8", "--out", o + ".csv"],
                    [".csv", ".gt.json"])
    for method in ("rp", "mrp", "wp", "pmle"):
        det &= run_twice(lambda o, m=method: ["estimate", str(fixture), "--method", m,
                                              "--n-split", "3", "--seed", "6",
                                              "--out", o + m + ".json"],
                         [method + ".json"])
    det &= run_twice(lambda o: ["infer", str(fixture), "--method", "mrp",
                                "--n-split", "5", "--alpha", "0.1", "--seed", "6",
                                "--out", o + "rep"],
                     ["rep.json", "rep.csv"])
    det &= run_twice(lambda o: ["experiment", str(cfgfile), "--out", o + "exp.csv"],
                     ["exp.csv"])
    det &= run_twice(lambda o: ["lsat", "export", "--out", o + "lsat.csv"],
                     ["lsat.csv"])
    det &= run_twice(lambda o: ["lsat", "subsample", "--n-users", "80",
                                "--m-items", "3", "--trials", "5", "--seed", "2",
                                "--out", o + "rec.csv"],
                     ["rec.csv"])
    checks["determinism"] = det

    elapsed = time.time() - t0
    ok = all(checks.values()) and elapsed < 120
    failing = [k for k, v in checks.items() if not v]
    assert _report(8, ok, f"{len(checks)} property groups"
                          + (f"; failing: {failing}" if failing else " all hold"),
                   elapsed)
