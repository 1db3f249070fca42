"""Command-line interface.

Subcommands: run (experiment trials to CSV/JSONL; with --axis and
--values, a one-axis sweep whose records go to the same writer, plus a
per-point summary; --labels-out gets every labeling and trial shard),
metric (score two label CSVs), verify (dataset counts against expected
values). Each ExperimentConfig field is set by one flag of run, or
keeps its default; the FEDSPECTRAL_DATA_DIR environment variable
supplies the default dataset directory. Output paths are checked before
the dataset is read: --labels-out must be new or empty, and an --output
or --summary file must lie in an existing directory. Errors and warnings
print as one 'error:' or 'warning:' line.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys
import warnings

import numpy as np

from .errors import ConfigError, ContractError, ConvergenceError, ParseError, RankError
from .experiment import (
    ALGORITHMS,
    SWEEP_AXES,
    ExperimentConfig,
    parse_config_value,
    run_experiment,
    sweep,
    verify_dataset,
    write_records_csv,
    write_records_jsonl,
    write_sweep_summary_csv,
)
from .metrics import cluster_similarity, read_labels_csv

_USER_ERRORS = (ConfigError, ContractError, ParseError, RankError, ConvergenceError, OSError)


def _build_config(args: argparse.Namespace) -> ExperimentConfig:
    if not args.dataset_path:
        raise ConfigError("no dataset given (use --dataset)")
    values = {f.name: getattr(args, f.name) for f in dataclasses.fields(ExperimentConfig)}
    return ExperimentConfig(**{name: v for name, v in values.items() if v is not None})


def _require_empty_dir(path, flag: str) -> None:
    """Refuse an output directory that already holds files, so a run's
    files never sit beside an earlier run's."""
    if path is not None and os.path.exists(path) and os.listdir(path):
        raise ConfigError(f"{flag} {path} is not empty; name a new or empty directory")


def _cmd_run(args) -> int:
    if (args.axis is None) != (args.values is None):
        raise ConfigError("--axis and --values go together")
    if args.summary and args.axis is None:
        raise ConfigError("--summary needs --axis")
    if args.labels_out and args.axis is not None:
        raise ConfigError("--labels-out does not take --axis")
    _require_empty_dir(args.labels_out, "--labels-out")
    cfg = _build_config(args)
    default_summary = args.output and f"{args.output}.summary.csv"
    summary_path = args.axis and (args.summary or default_summary)
    # checked, not opened, so that a bad path fails before any trial
    for flag, path in (("--output", args.output), ("--summary", summary_path)):
        if path and (os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or ".")):
            raise ConfigError(f"{flag} {path} must name a file in an existing directory")
    progress = functools.partial(print, file=sys.stderr)
    if args.axis is None:
        records = run_experiment(cfg, labels_dir=args.labels_out, progress=progress)
    else:
        # parsed as sweep() consumes them, after it has checked the axis
        values = (parse_config_value(args.axis, v) for v in args.values.split(",") if v.strip())
        points = sweep(cfg, args.axis, values, progress=progress)
        records = [r for _, point_records in points for r in point_records]
    writer = write_records_jsonl if args.json else write_records_csv
    writer(records, args.output or sys.stdout)
    if args.axis is None:
        sims = np.array([r.similarity for r in records])
        progress(f"{cfg.algo}: median similarity {np.median(sims):.4f} over {len(sims)} trials")
    elif summary_path:
        write_sweep_summary_csv(points, args.axis, summary_path)
        progress(f"wrote {' and '.join(filter(None, (args.output, summary_path)))}")
    return 0


def _cmd_metric(args) -> int:
    ref_ids, ref_labels = read_labels_csv(args.global_labels)
    agg_ids, agg_labels = read_labels_csv(args.aggregated_labels)
    if not np.array_equal(ref_ids, agg_ids):
        raise ConfigError("label files cover different node id sets")
    score = cluster_similarity(ref_labels, agg_labels)
    print(f"cluster_similarity = {score:.6f}")
    return 0


def _cmd_verify(args) -> int:
    report = verify_dataset(
        args.dataset, args.expect_nodes, args.expect_edges, directed=args.directed
    )
    kind = "arcs" if report.directed else "edges"
    print(
        f"{report.path}: nodes={report.num_nodes} (expected {report.expected_nodes}), "
        f"{kind}={report.num_edges} (expected {report.expected_edges}), "
        f"undirected_edges={report.undirected_edges}"
    )
    print("PASS" if report.ok else "FAIL")
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedspectral",
        description="Federated spectral clustering simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment, or one per --values of --axis")
    run_p.add_argument("--dataset", dest="dataset_path", metavar="DATASET",
                       help="edge-list path (resolved against $FEDSPECTRAL_DATA_DIR)")
    run_p.add_argument("--algo", choices=ALGORITHMS)
    run_p.add_argument("--clients", type=int, dest="num_clients")
    run_p.add_argument("--clusters", type=int, dest="num_clusters")
    run_p.add_argument("--iters", type=int)
    run_p.add_argument("--rounds", type=int, dest="global_rounds")
    run_p.add_argument("--overlap", type=float)
    run_p.add_argument("--seed", type=int, dest="master_seed")
    run_p.add_argument("--trials", type=int, dest="num_trials")
    run_p.add_argument("--output",
                       help="file for the CSV records, or for the JSON lines of --json "
                            "(stdout when omitted)")
    run_p.add_argument("--json", action="store_true", help="emit JSON lines instead of CSV")
    run_p.add_argument("--labels-out", metavar="DIR",
                       help="new or empty directory for the label CSVs, keyed by the "
                            "dataset's node ids (the reference, each trial's and each "
                            "baseline client's), and each trial's client shard files")
    run_p.add_argument("--axis", help=f"sweep this config field, one of {SWEEP_AXES}")
    run_p.add_argument("--values", help="comma-separated values of --axis, one run each")
    run_p.add_argument("--summary",
                       help="per-point summary CSV of --axis (default <output>.summary.csv)")
    run_p.set_defaults(func=_cmd_run)

    metric_p = sub.add_parser("metric", help="score two label CSVs")
    metric_p.add_argument("global_labels")
    metric_p.add_argument("aggregated_labels")
    metric_p.set_defaults(func=_cmd_metric)

    verify_p = sub.add_parser("verify", help="check dataset counts")
    verify_p.add_argument("--dataset", required=True)
    verify_p.add_argument("--directed", action="store_true")
    verify_p.add_argument("--expect-nodes", type=int, required=True)
    verify_p.add_argument("--expect-edges", type=int, required=True)
    verify_p.set_defaults(func=_cmd_verify)

    for command in sub.choices.values():
        flags = {a.dest: a.option_strings[0] for a in command._actions if a.option_strings}
        command.set_defaults(flags=flags)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    def show_warning(message, *_):
        # one 'warning:' line; a leading config field name becomes its flag
        field, sep, rest = str(message).partition(" ")
        print(f"warning: {args.flags.get(field, field)}{sep}{rest}", file=sys.stderr)

    with warnings.catch_warnings():
        warnings.showwarning = show_warning
        try:
            return args.func(args)
        except _USER_ERRORS as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
