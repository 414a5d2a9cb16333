"""Command-line front end.

Verbs mirror the pipeline stages: `generate` writes datasets, `train` fits
stage 0, `refute` runs stages 1-2 on top of saved stage-0 checkpoints,
`evaluate` re-scores saved per-seed artifacts, `run` does everything, and
`grid` performs hyperparameter tuning and writes the resolved config.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .runner import (ExperimentConfig, config_from_dict, config_to_dict,
                     emit_results, evaluate_seed, load_dataset, refute_seed,
                     run_experiment, train_seed, tune_config)


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    if args.config is not None:
        with open(args.config) as fh:
            config = config_from_dict(json.load(fh))
    else:
        config = ExperimentConfig()
    if args.seed is not None:
        config = replace(config, seeds=(args.seed,))
    if args.out is not None:
        config = replace(config, out_dir=args.out)
    return config


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON experiment config file")
    sub.add_argument("--seed", type=int,
                     help="run only this seed (overrides the config's list)")
    sub.add_argument("--out", help="output directory override")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="catebounds",
        description="Refutation pipeline for representation-learning CATE "
                    "estimators: sensitivity analysis, interval bounds, and "
                    "deferral policies.")
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, text in (
            ("generate", "write the configured dataset splits as CSV"),
            ("train", "fit stage 0 and save its checkpoint per seed"),
            ("refute", "fit stages 1-2 from saved stage-0 checkpoints"),
            ("evaluate", "re-score saved per-seed artifacts"),
            ("run", "full pipeline: train, refute, evaluate, aggregate"),
            ("grid", "tune hyperparameters; write the resolved config")):
        _add_common(sub.add_parser(verb, help=text))
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    config = _load_config(args)
    out = Path(config.out_dir)

    if args.verb == "generate":
        train, test = load_dataset(config.dataset)
        out.mkdir(parents=True, exist_ok=True)
        train.to_csv(out / "train.csv")
        test.to_csv(out / "test.csv")
        print(f"wrote {out / 'train.csv'} ({train.n} rows) and "
              f"{out / 'test.csv'} ({test.n} rows)")
        return 0

    if args.verb == "grid":
        train, _ = load_dataset(config.dataset)
        resolved = tune_config(replace(config, tuning="grid"), train)
        out.mkdir(parents=True, exist_ok=True)
        path = out / "tuned_config.json"
        with path.open("w") as fh:
            json.dump(config_to_dict(resolved), fh, sort_keys=True, indent=2)
            fh.write("\n")
        print(f"wrote {path}")
        return 0

    if args.verb == "run":
        records = run_experiment(config)
        print(f"config {records[0].config_hash[:12]}: {len(records)} seed(s) "
              f"-> {out / 'aggregate.csv'}")
        return 0

    train, test = load_dataset(config.dataset)
    if args.verb == "train":
        for seed in config.seeds:
            train_seed(config, train, seed)
            print(f"seed {seed}: stage-0 checkpoint saved under {out}")
        return 0
    if args.verb == "refute":
        for seed in config.seeds:
            refute_seed(config, train, test, seed)
            print(f"seed {seed}: bounds written under {out}")
        return 0
    if args.verb == "evaluate":
        records = [evaluate_seed(config, train, test, seed)
                   for seed in config.seeds]
        emit_results(config, records)
        print(f"re-scored {len(records)} seed(s) -> {out / 'aggregate.csv'}")
        return 0
    raise AssertionError(f"unhandled verb {args.verb}")


if __name__ == "__main__":
    sys.exit(main())
