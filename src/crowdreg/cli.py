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
    # the flags both subcommands take
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", help="JSON config file")
    shared.add_argument("--data",
                        help="CSV data file (last column is the target)")
    shared.add_argument("--seed", type=int)
    shared.add_argument("--reps", type=int)

    run = sub.add_parser("run", parents=[shared],
                         help="run the active-learning protocol")
    run.add_argument("--strategy", choices=STRATEGIES)
    run.add_argument("--budget", type=int)
    run.add_argument("--out", help="record file path")
    run.add_argument("--format", choices=FORMATS)
    sub.add_parser("fit", parents=[shared],
                   help="fit on the full pool and report RMSE")
    return parser


# CLI flag -> the ExperimentConfig field it overrides
_OVERRIDES = {"data": "data_path", "strategy": "strategy", "budget": "budget",
              "seed": "base_seed", "reps": "repetitions", "out": "output_path",
              "format": "output_format"}


def _config_from_args(args) -> ExperimentConfig:
    config = (ExperimentConfig.from_file(args.config)
              if args.config else ExperimentConfig())
    # a flag the subcommand lacks reads as None, like one left unset
    overrides = {key: getattr(args, flag) for flag, key in _OVERRIDES.items()
                 if getattr(args, flag, None) is not None}
    return replace(config, **overrides) if overrides else config


def _run(config: ExperimentConfig) -> int:
    records = run_experiment(config)
    out_path = config.output_path or f"records.{config.output_format}"
    emit_records(records, out_path, config.output_format)
    for rep, final_rmse, regret, discarded, paid in summarize(records):
        print(f"rep={rep} final_rmse={final_rmse:.9g} "
              f"final_regret={regret:.9g} discarded={discarded} "
              f"paid={paid:.9g}")
    print(f"wrote {len(records)} records to {out_path}")
    return 0


def _fit(config: ExperimentConfig) -> int:
    scores = full_fit(config)
    for rep, score in enumerate(scores):
        print(f"rep={rep} rmse={score:.9g}")
    print(f"mean_rmse={float(np.mean(scores)):.9g}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _config_from_args(args)
        if config.data_path is None:
            print("no data file given; using the built-in synthetic dataset")
        return (_run if args.command == "run" else _fit)(config)
    except (CrowdError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
