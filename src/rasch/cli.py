"""Command-line harness: simulate, estimate, infer, experiment, lsat.

Every command is deterministic given its ``--seed``.  Exit codes: 0 on
success, 2 on usage errors, 3 on data errors (malformed input, disconnected
comparison graph, nonexistent MLE, unconverged solve); failures emit one line of
JSON on stderr, with ``split_index`` when a split of a multi-split fit failed
and ``splits_without_mle``, how many of its splits have no MLE, when that
split had none.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from .errors import EstimationError
from .estimators import EstimatorConfig, estimate
from .inference import confidence_intervals, plugin_covariance
from .model import ResponseData, sample_ground_truth, sample_responses

# `experiments` and `lsat` are imported in the commands that use them, so
# that the other commands do not pay for them at start-up

USAGE_EXIT = 2
DATA_EXIT = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _emit_error(kind: str, detail: str, **extra) -> None:
    payload = {"error": kind, "detail": detail}
    payload.update(extra)
    print(json.dumps(payload), file=sys.stderr)


def _load_input(path: str) -> ResponseData:
    if path == "lsat":
        from . import lsat

        return lsat.load_lsat()
    return ResponseData.from_csv(path)


def _write_or_print(text: str, out: str | None) -> None:
    if out is None:
        print(text)
    else:
        with open(out, "w") as fh:
            fh.write(text + "\n")


# ---------------------------------------------------------------------------
# Sub-commands
# ---------------------------------------------------------------------------

def _cmd_simulate(args) -> int:
    gt = sample_ground_truth(args.n, args.m, args.theta_spec, seed=args.seed,
                             zeta_spec=args.zeta_spec)
    data = sample_responses(gt, args.p, seed=args.seed, mode=args.mode)
    data.to_csv(args.out)
    sidecar = os.path.splitext(args.out)[0] + ".gt.json"
    with open(sidecar, "w") as fh:
        payload = json.loads(gt.to_json())
        payload["seed"] = args.seed
        fh.write(json.dumps(payload) + "\n")
    return 0


def _cmd_estimate(args) -> int:
    data = _load_input(args.input)
    cfg = EstimatorConfig(method=args.method, seed=args.seed, n_split=args.n_split)
    est = estimate(data, cfg)
    _write_or_print(est.to_json(), args.out)
    return 0


def _cmd_infer(args) -> int:
    data = _load_input(args.input)
    cfg = EstimatorConfig(method=args.method, seed=args.seed, n_split=args.n_split)
    est = estimate(data, cfg)
    cov = plugin_covariance(data, est)
    report = confidence_intervals(est, cov, alpha=args.alpha, bonferroni=args.bonferroni)
    if args.out is None:
        print(report.to_json())
    else:
        with open(args.out + ".json", "w") as fh:
            fh.write(report.to_json() + "\n")
        report.to_csv(args.out + ".csv")
    return 0


def _cmd_experiment(args) -> int:
    from . import experiments

    cfg = experiments.ExperimentConfig.from_json(args.config)
    if args.workers is not None:
        cfg = dataclasses.replace(cfg, workers=args.workers)
    experiments.write_csv(args.out or cfg.output, *experiments.run_experiment(cfg))
    return 0


def _cmd_lsat(args) -> int:
    from . import experiments, lsat

    if args.lsat_cmd == "export":
        lsat.export_csv(args.out)
        return 0
    table = experiments.lsat_top1_recovery(
        args.n_users, args.m_items, trials=args.trials, n_split=args.n_split,
        seed=args.seed, methods=tuple(args.methods.split(",")), workers=args.workers)
    experiments.write_csv(args.out, *table)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _build_parser() -> _Parser:
    parser = _Parser(prog="rasch", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="sample responses and write CSV + ground-truth JSON")
    p.add_argument("--n", type=int, required=True, help="number of users")
    p.add_argument("--m", type=int, required=True, help="number of items")
    p.add_argument("--p", type=float, required=True, help="sampling rate")
    p.add_argument("--theta-spec", default="standard-normal",
                   help="item spec: standard-normal | all-zeros | uniform:HIGH | explicit:v1,v2,...")
    p.add_argument("--zeta-spec", default=None, help="user spec (defaults to --theta-spec)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=["bernoulli", "uniform-mp"], default="bernoulli")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("estimate", help="estimate item parameters from a response CSV")
    p.add_argument("input", help="response CSV path, or 'lsat' for the bundled corpus")
    p.add_argument("--method", choices=["rp", "mrp", "wp", "pmle"], required=True)
    p.add_argument("--n-split", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="output JSON path (default: stdout)")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("infer", help="estimate plus two-sided confidence intervals")
    p.add_argument("input", help="response CSV path, or 'lsat' for the bundled corpus")
    p.add_argument("--method", choices=["mrp", "wp"], required=True)
    p.add_argument("--n-split", type=int, default=50)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--bonferroni", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None,
                   help="output prefix for .json and .csv (default: JSON to stdout)")
    p.set_defaults(func=_cmd_infer)

    p = sub.add_parser("experiment", help="run a named experiment from a JSON config")
    p.add_argument("config", help="JSON config with name/trials/seed/params")
    p.add_argument("--workers", type=int, default=None, help="override worker count")
    p.add_argument("--out", default=None, help="override output CSV path")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("lsat", help="bundled-corpus operations")
    lsub = p.add_subparsers(dest="lsat_cmd", required=True)
    pe = lsub.add_parser("export", help="write the corpus as user_id,item_id,correct")
    pe.add_argument("--out", required=True)
    pe.set_defaults(func=_cmd_lsat)
    ps = lsub.add_parser("subsample", help="top-1 recovery on random sub-corpora")
    ps.add_argument("--n-users", type=int, required=True)
    ps.add_argument("--m-items", type=int, required=True)
    ps.add_argument("--trials", type=int, default=100)
    ps.add_argument("--n-split", type=int, default=20)
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--methods", default="mrp,pmle", help="comma list of rp,mrp,wp,pmle")
    ps.add_argument("--workers", type=int, default=1)
    ps.add_argument("--out", default=None)
    ps.set_defaults(func=_cmd_lsat)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        _emit_error("usage", str(exc))
        return USAGE_EXIT
    try:
        return args.func(args)
    except EstimationError as exc:
        extra = {}
        if getattr(exc, "components", None) is not None:
            extra["components"] = exc.components
        for name in ("split_index", "splits_without_mle"):
            if getattr(exc, name, None) is not None:
                extra[name] = getattr(exc, name)
        _emit_error(type(exc).__name__, str(exc), **extra)
        return DATA_EXIT
    except ValueError as exc:
        _emit_error("usage", str(exc))
        return USAGE_EXIT
    except OSError as exc:
        _emit_error("io", str(exc))
        return DATA_EXIT


if __name__ == "__main__":
    sys.exit(main())
