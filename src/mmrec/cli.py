"""Command-line front end: preprocess, train, grid and eval subcommands.

A flag that names a config key is converted as that key is in a config
file, with the same message for a bad value. Exit codes: 0 on success, 2
for configuration problems (bad config file, bad flag values), 1 for any
other failure (missing files, data errors).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .data import load_dataset, preprocess, read_interactions, save_dataset
from .errors import ConfigError, MmrecError, MissingFeatures, TypeMismatch
from .evaluation import (DEFAULT_CUTOFFS, evaluate, format_metric_report, parse_metric_spec,
                         write_metric_report)
from .experiment import (
    _KEY_SPECS,
    _convert,
    _data_params,
    _prepare_inputs,
    load_modality_tables,
    model_inputs,
    parse_config,
    run_experiment,
    run_single,
)
# fuse and build_adjacency are unused here but stay bound: mmbench/layers.py wraps them by name
from .modality import fuse
from .models import FEATURE_KINDS, build_adjacency, load_checkpoint


def _comma_list(text: str) -> list[str]:
    return text.split(",")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mmrec", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="filter, remap and split an interactions file")
    p.add_argument("--config", type=Path, help="config file supplying defaults")
    p.add_argument("--interactions", type=Path, help="raw TSV interactions file")
    p.add_argument("--k", help="k-core threshold")
    p.add_argument("--split", help="per_user_random | temporal_leave_last")
    p.add_argument("--ratios", type=_comma_list, help="train,valid,test e.g. 0.8,0.1,0.1")
    p.add_argument("--seed", help="split seed")
    p.add_argument("--out", type=Path, required=True, help="dataset output directory")

    t = sub.add_parser("train", help="train and evaluate one configuration")
    t.add_argument("--config", type=Path, required=True)
    t.add_argument("--out", type=Path, required=True, help="artifact directory")

    g = sub.add_parser("grid", help="run every hyperparameter combination")
    g.add_argument("--config", type=Path, required=True)
    g.add_argument("--out", type=Path, required=True, help="summary and artifact directory")
    g.add_argument(
        "--jobs", type=int, default=1,
        help="ignored; combinations run one after another and any value gives identical output",
    )

    e = sub.add_parser("eval", help="evaluate a saved checkpoint on a saved dataset")
    e.add_argument("--checkpoint", type=Path, required=True)
    e.add_argument("--data", type=Path, required=True, help="dataset directory")
    e.add_argument("--split", choices=("valid", "test"), default="test")
    e.add_argument("--topk", type=_comma_list, default=",".join(map(str, DEFAULT_CUTOFFS)),
                   help="comma-separated cutoffs")
    e.add_argument("--config", type=Path, help="config file (needed for feature paths)")
    e.add_argument("--out", type=Path, help="directory for report.tsv")
    return parser


def _cmd_preprocess(args) -> int:
    values = parse_config(args.config).values if args.config else {k: d for k, (_, d) in _KEY_SPECS.items()}
    # a flag wins over the config, and the config over the default
    flags = {key: getattr(args, key) for key in ("interactions", "k", "split", "ratios", "seed")}
    values = {**values, **{key: _convert(key, flag) for key, flag in flags.items() if flag is not None}}
    if values["interactions"] is None:
        raise TypeMismatch("interactions", "give --interactions or a config with one")
    filter_params, spec = _data_params(values)
    dataset = preprocess(read_interactions(values["interactions"]), filter_params, spec)
    save_dataset(dataset, spec, args.out)
    print(
        f"wrote {args.out}: {dataset.n_users} users, {dataset.n_items} items, "
        f"{dataset.train.nnz}/{dataset.valid.nnz}/{dataset.test.nnz} train/valid/test"
    )
    return 0


def _cmd_train(args) -> int:
    config = parse_config(args.config)
    if config.grid:
        raise TypeMismatch(
            ",".join(sorted(config.grid)), "train needs a scalar config; use grid for axes"
        )
    dataset, tables, spec = _prepare_inputs(config)
    state, log, valid_report, test_report = run_single(config, dataset, tables, str(args.out))
    save_dataset(dataset, spec, args.out / "dataset")
    print(f"trained {state.kind} for {len(log.epoch_losses)} epochs ({log.stop_reason})")
    for name, report in (("valid", valid_report), ("test", test_report)):
        if report is not None:
            print(f"{name}: see {args.out}/{name}_report.tsv (stop metric {config['stop_metric']})")
    return 0


def _cmd_grid(args) -> int:
    config = parse_config(args.config)
    report = run_experiment(config, out_dir=args.out)
    failed = sum(1 for r in report.results if r.error is not None)
    print(f"ran {len(report.results)} combinations, {failed} failed; summary at {args.out}/summary.tsv")
    if report.best_index >= 0:
        best = report.results[report.best_index]
        metric = config["stop_metric"]
        name, k = parse_metric_spec(metric)
        print(f"best row {report.best_index}: {best.combo} ({metric} = {best.valid_report.get(name, k):.6f})")
        return 0
    print("no combination finished successfully", file=sys.stderr)
    return 1


def _cmd_eval(args) -> int:
    cutoffs = _convert("topk", args.topk)
    state = load_checkpoint(args.checkpoint)
    dataset = load_dataset(args.data)

    tables, fusion = [], None
    if state.kind in FEATURE_KINDS:
        if args.config is None:
            raise MissingFeatures(f"{state.kind} needs --config with features.<modality> entries")
        config = parse_config(args.config)
        tables, fusion = load_modality_tables(config, dataset.item_map), config["fusion"]

    report = evaluate(state, dataset, args.split, cutoffs, model_inputs(state.kind, dataset, tables, fusion))
    sys.stdout.write(format_metric_report(report))
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        write_metric_report(report, args.out / "report.tsv")
    return 0


_COMMANDS = {
    "preprocess": _cmd_preprocess,
    "train": _cmd_train,
    "grid": _cmd_grid,
    "eval": _cmd_eval,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (MmrecError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
