"""Command line harness: ``crowd-al run`` and ``crowd-al fit``."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from .errors import CrowdError
from .harness import (FORMATS, STRATEGIES, ExperimentConfig, emit_records,
                      full_fit, run_experiment, summarize)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="crowd-al",
        description="Active learning for regression from a noisy crowd",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the active-learning protocol")
    run.add_argument("--config", help="JSON config file")
    run.add_argument("--data", help="CSV data file (last column is the target)")
    run.add_argument("--strategy", choices=STRATEGIES)
    run.add_argument("--budget", type=int)
    run.add_argument("--seed", type=int)
    run.add_argument("--reps", type=int)
    run.add_argument("--out", help="record file path")
    run.add_argument("--format", choices=FORMATS)

    fit = sub.add_parser("fit", help="fit on the full pool and report RMSE")
    fit.add_argument("--data", help="CSV data file (last column is the target)")
    fit.add_argument("--config", help="JSON config file")
    fit.add_argument("--seed", type=int)
    fit.add_argument("--reps", type=int)
    return parser


def _config_from_args(args) -> ExperimentConfig:
    config = (ExperimentConfig.from_file(args.config)
              if args.config else ExperimentConfig())
    overrides = {}
    if args.data is not None:
        overrides["data_path"] = args.data
    if getattr(args, "strategy", None) is not None:
        overrides["strategy"] = args.strategy
    if getattr(args, "budget", None) is not None:
        overrides["budget"] = args.budget
    if args.seed is not None:
        overrides["base_seed"] = args.seed
    if args.reps is not None:
        overrides["repetitions"] = args.reps
    if getattr(args, "out", None) is not None:
        overrides["output_path"] = args.out
    if getattr(args, "format", None) is not None:
        overrides["output_format"] = args.format
    return replace(config, **overrides) if overrides else config


def _run(args) -> int:
    config = _config_from_args(args)
    if config.data_path is None:
        print("no data file given; using the built-in synthetic dataset")
    records = run_experiment(config)
    out_path = config.output_path or f"records.{config.output_format}"
    emit_records(records, out_path, config.output_format)
    for rep, final_rmse, regret, discarded, paid in summarize(records):
        print(f"rep={rep} final_rmse={final_rmse:.9g} "
              f"final_regret={regret:.9g} discarded={discarded} "
              f"paid={paid:.9g}")
    print(f"wrote {len(records)} records to {out_path}")
    return 0


def _fit(args) -> int:
    config = _config_from_args(args)
    if config.data_path is None:
        print("no data file given; using the built-in synthetic dataset")
    scores = full_fit(config)
    for rep, score in enumerate(scores):
        print(f"rep={rep} rmse={score:.9g}")
    print(f"mean_rmse={float(np.mean(scores)):.9g}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _run(args)
        return _fit(args)
    except (CrowdError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
