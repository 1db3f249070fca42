"""Experiment configuration, execution, sweeps, and dataset verification.

A run parses the dataset, computes the fixed global reference labeling
(seeded per dataset by a documented rule), then scores one federated run
per trial against it. ``run_single_trial`` computes one trial, its
labels and ``ResultRecord``, and writes nothing; the run's trial loop
writes the label files and the shard files, both in the dataset's node
ids. Records serialize to long-format CSV (or JSON lines) whose bytes
are reproducible for a fixed config and master seed, modulo the
wallclock column. A sweep runs the config once per value of one axis;
every axis is a record column, so a sweep's records serialize like a
run's, and only its per-point summary (``write_sweep_summary_csv``)
names the axis.

The two dataclasses are the schema. Each ``ExperimentConfig`` field is
set by one flag of ``fedspectral run``, and a sweep value is parsed by
its field's type (``parse_config_value``). Record columns (CSV, in
declaration order) and keys (JSON lines) are the ``ResultRecord`` field
names; a None value (``converged`` of an algorithm without rounds) is an
empty CSV cell and a JSON null.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import json
import os
import time
import typing
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .baseline import fedspectral_server
from .errors import ConfigError, check_cluster_count, check_counts
from .fedplus import run_fedspectral_plus, settled
from .graph import Graph, load_edge_list, read_arcs
from .linalg import global_spectral_clustering
from .metrics import cluster_similarity, write_labels_csv
from .partition import ClientShard, distribute_edges, replication_count, write_shard
from .seeding import derive_seed, partition_seed, trial_seed

__all__ = [
    "ALGORITHMS",
    "DATASET_ENV_VAR",
    "ExperimentConfig",
    "ResultRecord",
    "VerifyReport",
    "validate_config",
    "resolve_dataset_path",
    "reference_seed",
    "compute_reference",
    "run_single_trial",
    "run_experiment",
    "sweep",
    "SWEEP_AXES",
    "verify_dataset",
    "parse_config_value",
    "write_records_csv",
    "write_records_jsonl",
    "write_sweep_summary_csv",
]

ALGORITHMS = ("global", "fedspectral", "fedspectral_plus")
SWEEP_AXES = ("iters", "global_rounds", "num_clusters", "overlap", "num_clients", "algo")
DATASET_ENV_VAR = "FEDSPECTRAL_DATA_DIR"

# Documented rule fixing the reference k-means seed per dataset: the
# reference labeling must not drift across runs or configs.
REFERENCE_SEED_BASE = 2023


@dataclass
class ExperimentConfig:
    """One experiment: dataset, algorithm, shape and seeds."""

    dataset_path: str
    algo: str = "fedspectral_plus"
    num_clients: int = 5
    num_clusters: int = 10
    iters: int = 1
    global_rounds: int = 1
    overlap: float = 0.4
    master_seed: int = 0
    num_trials: int = 5


_DEFAULTS = ExperimentConfig(dataset_path="")
_CONFIG_TYPES = typing.get_type_hints(ExperimentConfig)

# Fields an algorithm never reads; setting them anyway only earns a warning.
_IRRELEVANT_FIELDS = {
    "global": ("num_clients", "iters", "global_rounds", "overlap"),
    "fedspectral": ("iters", "global_rounds"),
    "fedspectral_plus": (),
}


def _unknown_algo(algo: str) -> ConfigError:
    return ConfigError(f"algo must be one of {ALGORITHMS}, got {algo!r}")


def validate_config(cfg: ExperimentConfig) -> None:
    """Raise ConfigError on invalid fields; warn on algo-irrelevant ones."""
    if cfg.algo not in ALGORITHMS:
        raise _unknown_algo(cfg.algo)
    replication_count(cfg.overlap, cfg.num_clients)
    check_counts(num_clusters=cfg.num_clusters, iters=cfg.iters,
                 global_rounds=cfg.global_rounds, num_trials=cfg.num_trials)
    for name in _IRRELEVANT_FIELDS[cfg.algo]:
        if getattr(cfg, name) != getattr(_DEFAULTS, name):
            warnings.warn(
                f"{name} is ignored by algo={cfg.algo}", UserWarning, stacklevel=2
            )


def resolve_dataset_path(path_str: str) -> Path:
    """Resolve a dataset path, falling back to $FEDSPECTRAL_DATA_DIR."""
    path = Path(path_str)
    if path.exists():
        return path
    env_dir = os.environ.get(DATASET_ENV_VAR)
    if env_dir and not path.is_absolute():
        candidate = Path(env_dir) / path
        if candidate.exists():
            return candidate
    raise ConfigError(f"dataset not found: {path_str}")


def reference_seed(dataset_path) -> int:
    """The fixed, documented reference k-means seed for a dataset."""
    return derive_seed(REFERENCE_SEED_BASE, "reference", Path(dataset_path).stem)


def load_dataset(cfg: ExperimentConfig) -> Graph:
    return load_edge_list(resolve_dataset_path(cfg.dataset_path))


def compute_reference(graph: Graph, cfg: ExperimentConfig) -> np.ndarray:
    """The global (non-federated) labeling all trials are scored against;
    every run and sweep computes it before its first trial, so a
    num_clusters above the node count is a ConfigError here."""
    check_cluster_count(cfg.num_clusters, graph.num_nodes)
    return global_spectral_clustering(graph, cfg.num_clusters, reference_seed(cfg.dataset_path))


@dataclass
class ResultRecord:
    """One trial's outcome plus everything needed to reproduce it."""

    dataset: str
    algo: str
    num_clients: int
    num_clusters: int
    iters: int
    global_rounds: int
    overlap: float
    master_seed: int
    trial: int
    trial_seed: int
    similarity: float
    flags: tuple[str, ...]
    round_drift: tuple[float, ...]
    converged: bool | None
    wallclock_ms: float


def _trial_shards(
    graph: Graph, cfg: ExperimentConfig, seed: int
) -> tuple[typing.Iterator[ClientShard], np.ndarray]:
    """An iterator over the client shards of the trial with trial seed
    ``seed``, each built as the iterator reaches it, and each client's edge
    count. Only the iterator holds the partition, so it dies as the last
    shard is handed over."""
    shards = distribute_edges(graph, cfg.num_clients, cfg.overlap, partition_seed(seed))
    return iter(shards), shards.edge_counts


# ResultRecord fields copied from the config of the same name; ``dataset``
# is the config's ``dataset_path``.
_RECORD_CONFIG_FIELDS = tuple(
    f.name for f in dataclasses.fields(ResultRecord) if f.name in _CONFIG_TYPES
)


def run_single_trial(
    graph: Graph,
    reference: np.ndarray,
    cfg: ExperimentConfig,
    seed: int,
    *,
    trial: int = 0,
) -> tuple[float, np.ndarray, ResultRecord, list[np.ndarray]]:
    """Run one federated (or global) trial from an explicit trial seed.

    Returns (similarity, labels, record, client_labelings) and writes no
    files. ``record`` is the trial's ResultRecord, numbered ``trial``, and
    carries the similarity and wallclock too; ``client_labelings`` are the
    baseline's, in client-id order, and empty for the other algorithms.
    The similarity depends only on (graph, cfg shape, seed), so replaying
    a record's trial_seed and trial returns that record apart from its
    wallclock_ms. A trial of either federated protocol notes each
    edgeless client shard, in client-id order, in ``record.flags``; the
    flags come from the partition's edge counts, not from built shards.
    A FedSpectral+ trial records each round's subspace drift, which the
    protocol's round observer receives, in ``record.round_drift``, and
    sets ``record.converged`` to whether the last round settled
    (fedplus.settled: its drift is at most STOP_DRIFT) rather than merely
    reached the ``global_rounds`` cap; it is None for the other
    algorithms. The trial hands either protocol the iterator of
    distribute_edges' ShardSequence and keeps no name for the sequence,
    so the shards live as partition.per_client describes.
    An algo outside ALGORITHMS raises validate_config's ConfigError.
    """
    flags, round_drift, client_labelings = [], [], []
    converged = None
    start = time.perf_counter()
    if cfg.algo == "global":
        labels = reference
    elif cfg.algo not in ALGORITHMS:
        raise _unknown_algo(cfg.algo)
    else:
        shards, edge_counts = _trial_shards(graph, cfg, seed)
        flags = [f"degenerate shard {c}: no edges" for c in np.flatnonzero(edge_counts == 0)]
    if cfg.algo == "fedspectral":
        labels, client_labelings = fedspectral_server(shards, cfg.num_clusters, seed)
    elif cfg.algo == "fedspectral_plus":
        labels, _ = run_fedspectral_plus(
            shards,
            cfg.num_clusters,
            seed,
            iters=cfg.iters,
            global_rounds=cfg.global_rounds,
            on_round=lambda _t, _previous, _basis, drift: round_drift.append(drift),
        )
        converged = settled(round_drift[-1])
    wallclock_ms = (time.perf_counter() - start) * 1000.0
    similarity = cluster_similarity(reference, labels)
    record = ResultRecord(
        dataset=cfg.dataset_path,
        **{name: getattr(cfg, name) for name in _RECORD_CONFIG_FIELDS},
        trial=trial,
        trial_seed=seed,
        similarity=similarity,
        flags=tuple(flags),
        round_drift=tuple(round_drift),
        converged=converged,
        wallclock_ms=wallclock_ms,
    )
    return similarity, labels, record, client_labelings


def run_experiment(
    cfg: ExperimentConfig,
    *,
    graph: Graph | None = None,
    reference: np.ndarray | None = None,
    labels_dir=None,
    progress=None,
) -> list[ResultRecord]:
    """Run ``cfg.num_trials`` trials and return one record per trial.

    ``graph``/``reference`` may be passed in to reuse a parsed dataset or a
    computed reference; ``labels_dir`` receives every labeling and client
    shard of the run (see _run_trials).
    """
    validate_config(cfg)
    if graph is None:
        graph = load_dataset(cfg)
    if reference is None:
        reference = compute_reference(graph, cfg)
    return _run_trials(cfg, graph, reference, labels_dir=labels_dir, progress=progress)


def _run_trials(
    cfg: ExperimentConfig,
    graph: Graph,
    reference: np.ndarray,
    *,
    labels_dir=None,
    progress=None,
) -> list[ResultRecord]:
    """The trial loop of an already validated config; the run's one writer.

    ``labels_dir`` receives ``reference_labels.csv``, ``trial_<n>_labels.csv``
    and, for the baseline, ``trial_<n>/client_<id>_labels.csv``: (node_id,
    label) CSVs keyed by ``graph.node_ids``, and, unless the algorithm is
    global, each trial's ``trial_<n>/client_<id>.txt`` shard files (seed
    header ``cfg.master_seed``, edges in ``graph.node_ids`` too), written
    and dropped before the trial runs, so a graph with weights other than
    1 raises ContractError (``write_shard``) before the first trial.
    Missing directories are created.
    """

    def path(name):
        full = os.path.join(labels_dir, name)
        os.makedirs(os.path.dirname(full), exist_ok=True)
        return full

    def write(name, labels):
        write_labels_csv(path(name), labels, node_ids=graph.node_ids)

    if labels_dir is not None:
        write("reference_labels.csv", reference)
    records = []
    for trial in range(cfg.num_trials):
        seed = trial_seed(cfg.master_seed, trial)
        if labels_dir is not None and cfg.algo != "global":
            shards, _ = _trial_shards(graph, cfg, seed)
            for shard in shards:
                name = os.path.join(f"trial_{trial}", f"client_{shard.client_id}.txt")
                write_shard(
                    shard, path(name), seed=cfg.master_seed, node_ids=graph.node_ids
                )
            del shard  # no shard is alive while the trial runs
        similarity, labels, record, client_labelings = run_single_trial(
            graph, reference, cfg, seed, trial=trial
        )
        records.append(record)
        if progress is not None:
            progress(
                f"{cfg.algo} trial {trial}: similarity={similarity:.4f} "
                f"({record.wallclock_ms:.0f} ms)"
            )
        if labels_dir is not None:
            write(f"trial_{trial}_labels.csv", labels)
            # distribute_edges numbers the clients 0..C-1
            for c, lab in enumerate(client_labelings):
                write(os.path.join(f"trial_{trial}", f"client_{c}_labels.csv"), lab)
    return records


def sweep(
    base_cfg: ExperimentConfig,
    axis: str,
    values,
    *,
    graph: Graph | None = None,
    progress=None,
) -> list[tuple[object, list[ResultRecord]]]:
    """Run the base experiment once per axis value, sharing the dataset.

    Every point is validated, and each distinct reference labeling (one
    per num_clusters) computed, before any runs, so a bad value fails
    fast. Returns [(value, records), ...] in the given order.
    """
    if axis not in SWEEP_AXES:
        raise ConfigError(f"unknown sweep axis {axis!r}; must be one of {SWEEP_AXES}")
    values = list(values)
    if not values:
        raise ConfigError("sweep needs at least one value")
    cfgs = [dataclasses.replace(base_cfg, **{axis: value}) for value in values]
    for cfg in cfgs:
        validate_config(cfg)
    if graph is None:
        graph = load_dataset(base_cfg)

    references: dict[int, np.ndarray] = {}
    for cfg in cfgs:
        if cfg.num_clusters not in references:
            references[cfg.num_clusters] = compute_reference(graph, cfg)
    points = []
    for value, cfg in zip(values, cfgs):
        if progress is not None:
            progress(f"sweep {axis}={value}")
        records = _run_trials(
            cfg, graph, references[cfg.num_clusters], progress=progress
        )
        points.append((value, records))
    return points


@dataclass
class VerifyReport:
    """Observed vs expected dataset counts."""

    path: str
    directed: bool
    num_nodes: int
    num_edges: int
    undirected_edges: int
    expected_nodes: int
    expected_edges: int

    @property
    def ok(self) -> bool:
        return (
            self.num_nodes == self.expected_nodes
            and self.num_edges == self.expected_edges
        )


def verify_dataset(
    path, expected_nodes: int, expected_edges: int, directed: bool = False
) -> VerifyReport:
    """Parse a dataset and compare its counts against published values.

    For directed sources the edge count is the number of distinct arcs
    (self-loops included), matching how such datasets are published; for
    undirected sources it is the parsed undirected edge count. The
    undirected count after symmetrization is always reported.
    """
    resolved = resolve_dataset_path(str(path))
    arcs = read_arcs(resolved)
    g = Graph.from_arcs(arcs)
    return VerifyReport(
        path=str(resolved),
        directed=directed,
        num_nodes=g.num_nodes,
        num_edges=len(np.unique(arcs, axis=0)) if directed else g.num_edges,
        undirected_edges=g.num_edges,
        expected_nodes=expected_nodes,
        expected_edges=expected_edges,
    )


_TYPE_NAMES = {int: "an integer", float: "a float"}


def parse_config_value(name: str, raw: str):
    """Parse the text ``raw`` as a value of the ExperimentConfig field ``name``.

    The field's type (``int``, ``float`` or ``str``) is called on ``raw``
    with its surrounding spaces removed.
    """
    try:
        kind = _CONFIG_TYPES[name]
    except KeyError:
        raise ConfigError(f"unknown config key {name!r}") from None
    raw = raw.strip()
    try:
        return kind(raw)
    except ValueError:
        raise ConfigError(f"{name} must be {_TYPE_NAMES[kind]}, got {raw!r}") from None


# ---------------------------------------------------------------------------
# Output writers: every cell is formatted deterministically (repr for
# floats, an empty cell for None), so re-running a config byte-reproduces
# the file apart from the trailing wallclock column.
# ---------------------------------------------------------------------------

RECORD_COLUMNS = [f.name for f in dataclasses.fields(ResultRecord)]


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ";".join(_cell(item) for item in value)
    return str(value)


def _record_cells(record: ResultRecord) -> list[str]:
    cells = [_cell(getattr(record, name)) for name in RECORD_COLUMNS]
    cells[RECORD_COLUMNS.index("wallclock_ms")] = f"{record.wallclock_ms:.3f}"
    return cells


@contextlib.contextmanager
def _text_output(file_or_path):
    """Yield a writable text stream; a path is opened here and closed after."""
    if hasattr(file_or_path, "write"):
        yield file_or_path
    else:
        with open(file_or_path, "w", encoding="utf-8", newline="") as fh:
            yield fh


def _write_csv(file_or_path, header: list[str], rows) -> None:
    with _text_output(file_or_path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_records_csv(records, file_or_path) -> None:
    _write_csv(file_or_path, RECORD_COLUMNS, map(_record_cells, records))


def write_records_jsonl(records, file_or_path) -> None:
    with _text_output(file_or_path) as fh:
        for record in records:
            fh.write(json.dumps(dataclasses.asdict(record), sort_keys=True) + "\n")


def write_sweep_summary_csv(points, axis: str, file_or_path) -> None:
    header = ["axis", "axis_value", "num_trials", "median", "q1", "q3", "min", "max"]
    rows = []
    for value, records in points:
        sims = np.array([r.similarity for r in records], dtype=np.float64)
        stats = (np.median(sims), *np.percentile(sims, [25, 75]), sims.min(), sims.max())
        rows.append([axis, str(value), str(len(sims))] + [repr(float(x)) for x in stats])
    _write_csv(file_or_path, header, rows)
