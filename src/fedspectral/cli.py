"""Command-line interface.

Subcommands: run (experiment trials to CSV/JSONL), sweep (one axis, long
CSV plus a summary), metric (score two label CSVs), verify (dataset counts
against expected values), partition-dump (write per-client shard files).
Flag values override config-file values, which override defaults; the
FEDSPECTRAL_DATA_DIR environment variable supplies the default dataset
directory. Errors and warnings print as one 'error:' or 'warning:' line.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import warnings

import numpy as np

from .errors import ConfigError, ContractError, ConvergenceError, ParseError, RankError
from .experiment import (
    ALGORITHMS,
    SWEEP_AXES,
    ExperimentConfig,
    parse_config_file,
    parse_config_value,
    resolve_dataset_path,
    run_experiment,
    sweep,
    verify_dataset,
    write_records_csv,
    write_records_jsonl,
    write_sweep_csv,
    write_sweep_summary_csv,
)
from .graph import load_edge_list
from .metrics import cluster_similarity, read_labels_csv
from .partition import distribute_edges, write_shard
from .seeding import partition_seed

_USER_ERRORS = (ConfigError, ContractError, ParseError, RankError, ConvergenceError, OSError)


def _add_experiment_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key = value config file")
    parser.add_argument("--dataset", dest="dataset_path", metavar="DATASET",
                        help="edge-list path (resolved against $FEDSPECTRAL_DATA_DIR)")
    parser.add_argument("--algo", choices=ALGORITHMS)
    parser.add_argument("--clients", type=int, dest="num_clients")
    parser.add_argument("--clusters", type=int, dest="num_clusters")
    parser.add_argument("--iters", type=int)
    parser.add_argument("--rounds", type=int, dest="global_rounds")
    parser.add_argument("--overlap", type=float)
    parser.add_argument("--seed", type=int, dest="master_seed")
    parser.add_argument("--trials", type=int, dest="num_trials")
    parser.add_argument("--normalize-rows", action="store_true", default=None,
                        dest="normalize_rows")
    parser.add_argument("--output", dest="output_path",
                        help="file for the CSV records, or for the JSON lines "
                             "of run --json (stdout when omitted)")


def _build_config(args: argparse.Namespace) -> ExperimentConfig:
    cfg = ExperimentConfig(dataset_path="")
    if args.config:
        cfg = dataclasses.replace(cfg, **parse_config_file(args.config))
    overrides = {}
    for field in dataclasses.fields(ExperimentConfig):
        value = getattr(args, field.name)
        if value is not None:
            overrides[field.name] = value
    cfg = dataclasses.replace(cfg, **overrides)
    if not cfg.dataset_path:
        raise ConfigError("no dataset given (use --dataset or a config file)")
    return cfg


def _emit_records(records, cfg, as_json: bool) -> None:
    writer = write_records_jsonl if as_json else write_records_csv
    if cfg.output_path:
        writer(records, cfg.output_path)
    else:
        writer(records, sys.stdout)


def _cmd_run(args) -> int:
    cfg = _build_config(args)
    records = run_experiment(
        cfg,
        labels_dir=args.labels_out,
        client_labels_dir=args.client_labels_dir,
        progress=lambda msg: print(msg, file=sys.stderr),
    )
    _emit_records(records, cfg, args.json)
    sims = np.array([r.similarity for r in records])
    print(
        f"{cfg.algo}: median similarity {np.median(sims):.4f} over {len(sims)} trials",
        file=sys.stderr,
    )
    return 0


def _cmd_sweep(args) -> int:
    cfg = _build_config(args)
    if args.axis not in SWEEP_AXES:
        raise ConfigError(f"unknown sweep axis {args.axis!r}; must be one of {SWEEP_AXES}")
    values = [parse_config_value(args.axis, v) for v in args.values.split(",") if v.strip()]
    points = sweep(
        cfg, args.axis, values, progress=lambda msg: print(msg, file=sys.stderr)
    )
    write_sweep_csv(points, args.axis, cfg.output_path or sys.stdout)
    summary_path = args.summary or (cfg.output_path and f"{cfg.output_path}.summary.csv")
    if summary_path:
        write_sweep_summary_csv(points, args.axis, summary_path)
        written = " and ".join(filter(None, (cfg.output_path, summary_path)))
        print(f"wrote {written}", file=sys.stderr)
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


def _cmd_partition_dump(args) -> int:
    import os

    graph = load_edge_list(resolve_dataset_path(args.dataset))
    shards = distribute_edges(graph, args.clients, args.overlap, partition_seed(args.seed))
    os.makedirs(args.outdir, exist_ok=True)
    for shard in shards:
        path = os.path.join(args.outdir, f"client_{shard.client_id}.txt")
        write_shard(shard, path, seed=args.seed)
        print(f"{path}: {shard.num_edges} edges", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedspectral",
        description="Federated spectral clustering simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment, one CSV row per trial")
    _add_experiment_flags(run_p)
    run_p.add_argument("--json", action="store_true", help="emit JSON lines instead of CSV")
    run_p.add_argument("--labels-out", help="directory for reference/trial label CSVs")
    run_p.add_argument("--dump-client-labels", dest="client_labels_dir",
                       help="directory for per-client baseline label CSVs, keyed "
                       "by original node ids (debugging)")
    run_p.set_defaults(func=_cmd_run)

    sweep_p = sub.add_parser("sweep", help="run a one-axis parameter sweep")
    _add_experiment_flags(sweep_p)
    sweep_p.add_argument("--axis", required=True, help=f"one of {SWEEP_AXES}")
    sweep_p.add_argument("--values", required=True, help="comma-separated axis values")
    sweep_p.add_argument("--summary", help="summary CSV path (default <output>.summary.csv)")
    sweep_p.set_defaults(func=_cmd_sweep)

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

    defaults = ExperimentConfig(dataset_path="")
    dump_p = sub.add_parser("partition-dump", help="write per-client shard files")
    dump_p.add_argument("--dataset", required=True)
    dump_p.add_argument("--clients", type=int, default=defaults.num_clients)
    dump_p.add_argument("--overlap", type=float, default=defaults.overlap)
    dump_p.add_argument("--seed", type=int, default=defaults.master_seed)
    dump_p.add_argument("--outdir", required=True)
    dump_p.set_defaults(func=_cmd_partition_dump)

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
