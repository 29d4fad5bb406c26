import concurrent.futures
import functools
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import rasch
from rasch import cli, estimators, experiments
from rasch.cli import main
from rasch.estimators import EstimatorConfig
from rasch.experiments import ExperimentConfig, run_experiment
from rasch.solver import SolverOptions

LOG3 = np.log(3.0)


def _write_two_item_fixture(path):
    # four paired responses, three of them showing item 1 as the harder one
    rows = ["user_id,item_id,response"]
    for t, (x0, x1) in enumerate([(0, 1), (0, 1), (0, 1), (1, 0)]):
        rows.append(f"{t},0,{x0}")
        rows.append(f"{t},1,{x1}")
    path.write_text("\n".join(rows) + "\n")


class TestSimulate:
    def test_writes_csv_and_sidecar(self, tmp_path):
        out = tmp_path / "data.csv"
        rc = main(["simulate", "--n", "10", "--m", "5", "--p", "1", "--seed", "1",
                   "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "user_id,item_id,response"
        assert len(lines) == 51
        sidecar = json.loads((tmp_path / "data.gt.json").read_text())
        assert len(sidecar["theta"]) == 5 and len(sidecar["zeta"]) == 10
        assert sidecar["seed"] == 1

    def test_p_zero_header_only(self, tmp_path):
        out = tmp_path / "empty.csv"
        assert main(["simulate", "--n", "3", "--m", "2", "--p", "0", "--out", str(out)]) == 0
        assert out.read_text() == "user_id,item_id,response\n"

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["simulate", "--n", "30", "--m", "4", "--p", "0.5", "--seed", "9"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_uniform_mode_flag(self, tmp_path):
        out = tmp_path / "u.csv"
        rc = main(["simulate", "--n", "6", "--m", "4", "--p", "0.5",
                   "--mode", "uniform-mp", "--out", str(out)])
        assert rc == 0
        assert len(out.read_text().splitlines()) == 13


class TestEstimate:
    def test_two_item_fixture_closed_form(self, tmp_path):
        src = tmp_path / "two.csv"
        _write_two_item_fixture(src)
        out = tmp_path / "est.json"
        rc = main(["estimate", str(src), "--method", "rp", "--seed", "2",
                   "--out", str(out)])
        assert rc == 0
        theta = json.loads(out.read_text())["theta_hat"]
        np.testing.assert_allclose(theta, [-0.549306, 0.549306], atol=1e-5)

    def test_lsat_wp_ordering(self, tmp_path, capsys):
        assert main(["estimate", "lsat", "--method", "wp"]) == 0
        theta = json.loads(capsys.readouterr().out)["theta_hat"]
        order = np.argsort(theta)
        # problems ordered easiest to hardest: 1 < 5 < 4 < 2 < 3 (1-based)
        assert order.tolist() == [0, 4, 3, 1, 2]

    def test_mrp_single_split_equals_rp(self, tmp_path, capsys):
        src = tmp_path / "d.csv"
        main(["simulate", "--n", "50", "--m", "4", "--p", "1", "--seed", "4",
              "--out", str(src)])
        assert main(["estimate", str(src), "--method", "mrp", "--n-split", "1",
                     "--seed", "7"]) == 0
        mrp_out = json.loads(capsys.readouterr().out)
        assert main(["estimate", str(src), "--method", "rp", "--seed", "7"]) == 0
        rp_out = json.loads(capsys.readouterr().out)
        assert mrp_out["theta_hat"] == rp_out["theta_hat"]

    def test_unknown_method_exit_2(self, capsys):
        assert main(["estimate", "lsat", "--method", "bogus"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "usage"

    def test_malformed_csv_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("user_id,item_id,response\n0,0,1\noops\n")
        assert main(["estimate", str(bad), "--method", "wp"]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "DataFormatError"
        assert "line 3" in err["detail"]

    @pytest.mark.parametrize("command, method", [
        ("estimate", "rp"), ("estimate", "mrp"), ("estimate", "wp"), ("estimate", "pmle"),
        ("infer", "mrp"), ("infer", "wp"),
    ])
    def test_header_only_csv_exit_3(self, tmp_path, capsys, command, method):
        empty = tmp_path / "e.csv"
        empty.write_text("user_id,item_id,response\n")
        assert main([command, str(empty), "--method", method]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "DataFormatError"
        assert "no response rows" in err["detail"]

    def test_disconnected_data_exit_3_with_components(self, tmp_path, capsys):
        iso = tmp_path / "iso.csv"
        rows = ["user_id,item_id,response"]
        for t in range(20):
            rows += [f"{t},0,{t % 2}", f"{t},1,{(t + 1) % 2}"]
        for t in range(20, 40):
            rows += [f"{t},2,{t % 2}", f"{t},3,{(t + 1) % 2}"]
        iso.write_text("\n".join(rows) + "\n")
        assert main(["estimate", str(iso), "--method", "rp"]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "DisconnectedGraphError"
        assert err["components"] == [[0, 1], [2, 3]]

    def test_split_without_mle_exit_3_with_count(self, tmp_path, capsys, monkeypatch):
        # a 4-split stack whose splits 1 (disconnected) and 3 (item 2 won
        # every comparison) have no MLE
        fine = [[0, 3, 2], [2, 0, 4], [2, 1, 0]]
        disconnected = [[0, 3, 0], [2, 0, 0], [0, 0, 0]]
        all_wins = [[0, 20, 0], [20, 0, 0], [40, 40, 0]]
        stack = np.array([fine, disconnected, fine, all_wins], dtype=float)
        monkeypatch.setattr(estimators, "split_wins", lambda data, seed, n_split: stack.copy())
        src = tmp_path / "d.csv"
        _write_two_item_fixture(src)
        assert main(["estimate", str(src), "--method", "mrp", "--n-split", "4"]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "DisconnectedGraphError"
        assert err["split_index"] == 1 and err["splits_without_mle"] == 2

    def test_unconverged_split_exit_3_with_split_index(self, tmp_path, capsys, monkeypatch):
        src = tmp_path / "d.csv"
        main(["simulate", "--n", "200", "--m", "5", "--p", "0.8", "--seed", "2",
              "--out", str(src)])
        monkeypatch.setattr(cli, "EstimatorConfig",
                            functools.partial(EstimatorConfig, solver=SolverOptions(max_iter=1)))
        assert main(["estimate", str(src), "--method", "mrp", "--n-split", "3"]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConvergenceError"
        assert err["split_index"] == 0


class TestInfer:
    def test_writes_csv_and_json(self, tmp_path):
        prefix = tmp_path / "rep"
        rc = main(["infer", "lsat", "--method", "mrp", "--n-split", "20",
                   "--alpha", "0.01", "--seed", "0", "--out", str(prefix)])
        assert rc == 0
        payload = json.loads((tmp_path / "rep.json").read_text())
        assert len(payload["ci_lower"]) == 5
        lines = (tmp_path / "rep.csv").read_text().splitlines()
        assert lines[0] == "item,theta_hat,ci_lower,ci_upper"
        assert len(lines) == 6

    def test_alpha_monotonicity(self, capsys):
        out = {}
        for alpha in ("0.5", "0.01"):
            assert main(["infer", "lsat", "--method", "wp", "--alpha", alpha]) == 0
            out[alpha] = json.loads(capsys.readouterr().out)
        w_small = np.subtract(out["0.5"]["ci_upper"], out["0.5"]["ci_lower"])
        w_big = np.subtract(out["0.01"]["ci_upper"], out["0.01"]["ci_lower"])
        assert np.all(w_small < w_big)

    def test_bonferroni_flag(self, capsys):
        assert main(["infer", "lsat", "--method", "wp", "--alpha", "0.05",
                     "--bonferroni"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["bonferroni"] is True


class TestExperiment:
    def test_config_run_and_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "name": "linf-vs-n", "trials": 3, "seed": 2,
            "params": {"n_grid": [400], "m": 8, "p": 0.5},
        }))
        out = tmp_path / "res.csv"
        assert main(["experiment", str(cfg), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("n,")
        assert len(lines) == 2
        out2 = tmp_path / "res2.csv"
        assert main(["experiment", str(cfg), "--out", str(out2)]) == 0
        assert out.read_bytes() == out2.read_bytes()

    def test_refined_l2_counts_failed_fits(self):
        # two users per item at p = 0.1 leave every split disconnected
        cfg = ExperimentConfig(name="refined-l2", trials=2, seed=0,
                               params={"n_grid": [40], "users_per_item": 2})
        header, rows = run_experiment(cfg)
        assert rows[0][header.index("n_failed")] == 2

    @pytest.mark.parametrize("name, params", [
        ("topk", {"n": 40, "m": 10, "K": 2, "p": 0.1, "n_split": 2, "delta_grid": [0.5]}),
        ("multirun", {"n": 30, "m": 10, "p": 0.2, "n_split_grid": [1, 2]}),
        ("coverage", {"n": 40, "m": 10, "p": 0.2, "n_split": 2, "levels": [0.9]}),
    ])
    def test_failed_fits_are_counted_not_raised(self, name, params):
        # every trial has a disconnected comparison graph or no MLE at these sizes
        header, rows = run_experiment(ExperimentConfig(name=name, trials=3, seed=0,
                                                       params=params))
        assert [row[header.index("n_failed")] for row in rows] == [3] * len(rows)

    def test_worker_pool_gives_the_same_rows(self):
        params = {"n_grid": [300, 600], "m": 6, "p": 0.5}
        serial = run_experiment(ExperimentConfig(name="linf-vs-n", trials=4, seed=1,
                                                 params=params))
        pooled = run_experiment(ExperimentConfig(name="linf-vs-n", trials=4, seed=1,
                                                 workers=2, params=params))
        assert pooled == serial

    def test_a_pooled_run_spawns_one_pool_for_all_its_grid_points(self):
        with mock.patch.object(concurrent.futures, "ProcessPoolExecutor",
                               wraps=concurrent.futures.ProcessPoolExecutor) as spy:
            run_experiment(ExperimentConfig(name="linf-vs-n", trials=2, seed=1, workers=2,
                                            params={"n_grid": [100, 200], "m": 6, "p": 0.5}))
        assert spy.call_count == 1
        assert spy.call_args.kwargs["mp_context"].get_start_method() == "spawn"

    def test_unknown_name_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"name": "warp-drive"}))
        assert main(["experiment", str(cfg)]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "usage"

    def test_config_without_name_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trials": 2}))
        assert main(["experiment", str(cfg)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "usage"
        assert "name" in err["detail"]

    def test_config_not_an_object_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[]")
        assert main(["experiment", str(cfg)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "usage"
        assert "object" in err["detail"]

    def test_unknown_config_key_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"name": "linf-vs-n", "trails": 2,
                                   "params": {"n_grid": [400], "m": 8, "p": 0.5}}))
        assert main(["experiment", str(cfg)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "usage"
        assert "trails" in err["detail"]

    @pytest.mark.parametrize("key, value", [("trials", 2.7), ("workers", "2"),
                                            ("seed", True)])
    def test_non_integer_config_value_exit_2(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"name": "linf-vs-n", key: value,
                                   "params": {"n_grid": [400], "m": 8, "p": 0.5}}))
        assert main(["experiment", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "usage"
        assert key in err["detail"]

    def test_integral_float_config_values_are_accepted(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"name": "linf-vs-n", "trials": 2.0, "seed": 3.0,
                                   "workers": 1.0,
                                   "params": {"m": 4.0, "n_grid": [300.0, 400], "p": 1}}))
        loaded = ExperimentConfig.from_json(cfg)
        assert (loaded.trials, loaded.seed, loaded.workers) == (2, 3, 1)
        assert all(type(v) is int for v in (loaded.trials, loaded.seed, loaded.workers))
        # an integer parameter is stored as int too; a float one keeps its value
        assert loaded.params["m"] == 4 and loaded.params["n_grid"] == [300, 400]
        assert all(type(v) is int for v in [loaded.params["m"], *loaded.params["n_grid"]])
        assert loaded.params["p"] == 1

    def _assert_usage_exit(self, tmp_path, capsys, config, word):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert main(["experiment", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "usage"
        assert word in err["detail"]

    def test_params_not_an_object_exit_2(self, tmp_path, capsys):
        self._assert_usage_exit(tmp_path, capsys, {"name": "linf-vs-n", "params": None},
                                "params")

    def test_grid_not_a_list_exit_2(self, tmp_path, capsys):
        self._assert_usage_exit(tmp_path, capsys,
                                {"name": "linf-vs-n", "params": {"n_grid": 5}}, "n_grid")

    @pytest.mark.parametrize("name, params, key", [
        ("coverage", {"levels": 0.9}, "levels"),
        ("linf-vs-n", {"m": "4"}, "m"),
        ("linf-vs-n", {"n_grid": [400, "800"]}, "n_grid"),
        ("linf-vs-p", {"n": True}, "n"),
        # an integer default takes integral numbers only
        ("linf-vs-n", {"n_grid": [40], "m": 4.5, "p": 0.5}, "m"),
        ("linf-vs-n", {"n_grid": [300.9]}, "n_grid"),
        ("multirun", {"n_split_grid": [0, 2, 2.7]}, "n_split_grid"),
        ("multirun", {"n_split_grid": [0, 2]}, "n_split_grid"),
    ])
    def test_param_not_of_its_default_type_exit_2(self, tmp_path, capsys, name, params, key):
        self._assert_usage_exit(tmp_path, capsys, {"name": name, "params": params}, key)

    @pytest.mark.parametrize("name, key", [("multirun", "n_split_grid"), ("coverage", "levels"),
                                           ("linf-vs-n", "n_grid")])
    def test_empty_list_param_exit_2(self, tmp_path, capsys, monkeypatch, name, key):
        # rejected with the config, before any trial samples data
        sampled = []
        monkeypatch.setattr(experiments, "sample_responses",
                            lambda *args, **kwargs: sampled.append(args))
        self._assert_usage_exit(tmp_path, capsys,
                                {"name": name, "trials": 1, "params": {key: []}}, key)
        assert sampled == []

    def test_output_not_a_string_exit_2(self, tmp_path, capsys, monkeypatch):
        # an integer output would be opened as a file descriptor; never write
        written = []
        monkeypatch.setattr(experiments, "write_csv", lambda *args: written.append(args))
        self._assert_usage_exit(tmp_path, capsys,
                                {"name": "linf-vs-n", "output": 7, "trials": 1,
                                 "params": {"n_grid": [40], "m": 4, "p": 0.5}}, "output")
        assert written == []


class TestLsat:
    def test_export_totals(self, tmp_path):
        out = tmp_path / "lsat.csv"
        assert main(["lsat", "export", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "user_id,item_id,correct"
        assert len(lines) == 5001
        totals = np.zeros(5, int)
        for line in lines[1:]:
            _, item, correct = line.split(",")
            totals[int(item)] += int(correct)
        assert totals.tolist() == [924, 709, 553, 763, 870]

    def test_subsample_recovery_table(self, tmp_path):
        out = tmp_path / "rec.csv"
        rc = main(["lsat", "subsample", "--n-users", "150", "--m-items", "4",
                   "--trials", "15", "--seed", "3", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "method,n_trials,recovery,stderr,n_failed"
        assert lines[1].startswith("mrp,15,") and lines[2].startswith("pmle,15,")

    def test_subsample_counts_failed_fits_per_method(self, capsys):
        assert main(["lsat", "subsample", "--n-users", "20", "--m-items", "5",
                     "--trials", "30", "--methods", "rp,mrp,wp,pmle", "--seed", "4",
                     "--n-split", "3"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "method,n_trials,recovery,stderr,n_failed",
            "rp,30,0.75,0.25,26",
            "mrp,30,,,30",
            "wp,30,0.8571428571428571,0.07824607964359515,9",
            "pmle,30,0.8571428571428571,0.07824607964359515,9",
        ]

    def test_subsample_worker_pool_gives_the_same_table(self, capsys):
        args = ["lsat", "subsample", "--n-users", "60", "--m-items", "4", "--trials", "6",
                "--methods", "rp,mrp,wp", "--n-split", "3", "--seed", "2"]
        assert main(args) == 0
        serial = capsys.readouterr().out
        assert main(args + ["--workers", "2"]) == 0
        assert capsys.readouterr().out == serial

    def test_subsample_unknown_method_exit_2(self, capsys):
        assert main(["lsat", "subsample", "--n-users", "100", "--m-items", "3",
                     "--trials", "2", "--methods", "pmle,bogus"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "usage"
        assert "bogus" in err["detail"]

    def test_subsample_range_validation(self, capsys):
        assert main(["lsat", "subsample", "--n-users", "5000", "--m-items", "4"]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "usage"

    def test_subsample_zero_trials_exit_2(self, capsys):
        assert main(["lsat", "subsample", "--n-users", "50", "--m-items", "3",
                     "--trials", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "usage"

    def test_subsample_zero_workers_exit_2(self, capsys):
        assert main(["lsat", "subsample", "--n-users", "50", "--m-items", "3",
                     "--trials", "2", "--workers", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "usage"

    def test_subsample_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["lsat", "subsample", "--n-users", "100", "--m-items", "3",
                "--trials", "10", "--seed", "5"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


def test_import_leaves_experiments_unloaded():
    # `experiments` (and `lsat`) are imported only by the commands that use them
    env = dict(os.environ, PYTHONPATH=str(Path(rasch.__file__).parents[1]))
    code = "import sys, rasch.cli; print('rasch.experiments' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"


def test_import_leaves_the_process_pool_unloaded():
    # the pool is imported only when a command asks for workers
    env = dict(os.environ, PYTHONPATH=str(Path(rasch.__file__).parents[1]))
    code = "import sys, rasch.cli; print('concurrent.futures.process' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"
