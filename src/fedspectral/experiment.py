"""Experiment configuration, execution, sweeps, and dataset verification.

A run parses the dataset, computes the fixed global reference labeling
(seeded per dataset by a documented rule), then scores one federated run
per trial against it. Records serialize to long-format CSV (or JSON lines)
whose bytes are reproducible for a fixed config and master seed, modulo
the wallclock column.

The two dataclasses are the schema. Config-file keys are the
``ExperimentConfig`` field names, and each value is parsed by its field's
type (``parse_config_value``): booleans accept true/false/yes/no/1/0, and
``none`` or an empty value clears an optional field. Record columns (CSV,
in declaration order) and keys (JSON lines) are the ``ResultRecord`` field
names.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import os
import time
import typing
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .baseline import fedspectral_server
from .diagnostics import Diagnostics
from .errors import ConfigError
from .fedplus import FedPlusConfig, run_fedspectral_plus
from .graph import Graph, load_edge_list, parse_arcs
from .linalg import global_spectral_clustering
from .metrics import cluster_similarity, write_labels_csv
from .partition import distribute_edges
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
    "parse_config_file",
    "write_records_csv",
    "write_records_jsonl",
    "write_sweep_csv",
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
    """One experiment: dataset, algorithm, shape, seeds, output."""

    dataset_path: str
    algo: str = "fedspectral_plus"
    num_clients: int = 5
    num_clusters: int = 10
    iters: int = 1
    global_rounds: int = 1
    overlap: float = 0.4
    replication: int | None = None
    master_seed: int = 0
    num_trials: int = 5
    normalize_rows: bool = False
    output_path: str | None = None


_DEFAULTS = ExperimentConfig(dataset_path="")
_CONFIG_TYPES = typing.get_type_hints(ExperimentConfig)

# Fields an algorithm never reads; setting them anyway only earns a warning.
_IRRELEVANT_FIELDS = {
    "global": ("num_clients", "iters", "global_rounds", "overlap", "replication"),
    "fedspectral": ("iters", "global_rounds"),
    "fedspectral_plus": (),
}


def validate_config(cfg: ExperimentConfig) -> None:
    """Raise ConfigError on invalid fields; warn on algo-irrelevant ones."""
    if cfg.algo not in ALGORITHMS:
        raise ConfigError(f"algo must be one of {ALGORITHMS}, got {cfg.algo!r}")
    for name in ("num_clients", "num_clusters", "iters", "global_rounds", "num_trials"):
        if getattr(cfg, name) < 1:
            raise ConfigError(f"{name} must be >= 1, got {getattr(cfg, name)}")
    if not 0.0 < cfg.overlap <= 1.0:
        raise ConfigError(f"overlap must be in (0, 1], got {cfg.overlap}")
    if cfg.replication is not None and not 1 <= cfg.replication <= cfg.num_clients:
        raise ConfigError(
            f"replication must be in 1..{cfg.num_clients}, got {cfg.replication}"
        )
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
    """The global (non-federated) labeling all trials are scored against."""
    return global_spectral_clustering(
        graph,
        cfg.num_clusters,
        reference_seed(cfg.dataset_path),
        normalize_rows=cfg.normalize_rows,
    )


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
    replication: int | None
    normalize_rows: bool
    master_seed: int
    trial: int
    trial_seed: int
    similarity: float
    flags: tuple[str, ...]
    round_drift: tuple[float, ...]
    wallclock_ms: float


def run_single_trial(
    graph: Graph,
    reference: np.ndarray,
    cfg: ExperimentConfig,
    seed: int,
    *,
    client_labels_dir=None,
) -> tuple[float, np.ndarray, Diagnostics, float]:
    """Run one federated (or global) trial from an explicit trial seed.

    Returns (similarity, labels, diagnostics, wallclock_ms); the similarity
    depends only on (graph, cfg shape, seed), which is what makes records
    reproducible from their recorded trial_seed alone.
    """
    diag = Diagnostics()
    start = time.perf_counter()
    if cfg.algo == "global":
        labels = reference
    else:
        shards = distribute_edges(
            graph,
            cfg.num_clients,
            cfg.overlap,
            partition_seed(seed),
            replication=cfg.replication,
        )
        if cfg.algo == "fedspectral":
            labels = fedspectral_server(
                shards,
                cfg.num_clusters,
                seed,
                normalize_rows=cfg.normalize_rows,
                diag=diag,
                dump_dir=client_labels_dir,
            )
        else:
            labels, _ = run_fedspectral_plus(
                shards,
                FedPlusConfig(
                    num_clusters=cfg.num_clusters,
                    iters=cfg.iters,
                    global_rounds=cfg.global_rounds,
                    seed=seed,
                ),
                normalize_rows=cfg.normalize_rows,
                diag=diag,
            )
    wallclock_ms = (time.perf_counter() - start) * 1000.0
    similarity = cluster_similarity(reference, labels)
    return similarity, labels, diag, wallclock_ms


# ResultRecord fields copied from the config of the same name; ``dataset``
# is the config's ``dataset_path``.
_RECORD_CONFIG_FIELDS = tuple(
    f.name for f in dataclasses.fields(ResultRecord) if f.name in _CONFIG_TYPES
)


def run_experiment(
    cfg: ExperimentConfig,
    *,
    graph: Graph | None = None,
    reference: np.ndarray | None = None,
    labels_dir=None,
    client_labels_dir=None,
    progress=None,
) -> list[ResultRecord]:
    """Run ``cfg.num_trials`` trials and return one record per trial.

    ``graph``/``reference`` may be passed in to share work across calls
    (sweeps, tests); ``labels_dir`` writes the reference and per-trial
    labelings as (node_id, label) CSVs keyed by original node ids, and
    ``client_labels_dir`` additionally dumps each baseline client's local
    labeling under a per-trial subdirectory.
    """
    validate_config(cfg)
    if graph is None:
        graph = load_dataset(cfg)
    if reference is None:
        reference = compute_reference(graph, cfg)
    if labels_dir is not None:
        os.makedirs(labels_dir, exist_ok=True)
        write_labels_csv(
            os.path.join(labels_dir, "reference_labels.csv"),
            reference,
            node_ids=graph.node_ids,
        )
    return _run_trials(
        cfg,
        graph,
        reference,
        labels_dir=labels_dir,
        client_labels_dir=client_labels_dir,
        progress=progress,
    )


def _run_trials(
    cfg: ExperimentConfig,
    graph: Graph,
    reference: np.ndarray,
    *,
    labels_dir=None,
    client_labels_dir=None,
    progress=None,
) -> list[ResultRecord]:
    """The trial loop of an already validated config."""
    records = []
    for trial in range(cfg.num_trials):
        seed = trial_seed(cfg.master_seed, trial)
        trial_dump = (
            os.path.join(client_labels_dir, f"trial_{trial}")
            if client_labels_dir is not None
            else None
        )
        similarity, labels, diag, wallclock_ms = run_single_trial(
            graph, reference, cfg, seed, client_labels_dir=trial_dump
        )
        if labels_dir is not None:
            write_labels_csv(
                os.path.join(labels_dir, f"trial_{trial}_labels.csv"),
                labels,
                node_ids=graph.node_ids,
            )
        records.append(
            ResultRecord(
                dataset=cfg.dataset_path,
                **{name: getattr(cfg, name) for name in _RECORD_CONFIG_FIELDS},
                trial=trial,
                trial_seed=seed,
                similarity=similarity,
                flags=tuple(diag.flags),
                round_drift=tuple(diag.round_drift),
                wallclock_ms=wallclock_ms,
            )
        )
        if progress is not None:
            progress(
                f"{cfg.algo} trial {trial}: similarity={similarity:.4f} "
                f"({wallclock_ms:.0f} ms)"
            )
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

    Every point is validated before any runs, so a bad value fails fast.
    The reference labeling is recomputed only when the axis changes it
    (num_clusters). Returns [(value, records), ...] in the given order.
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
    points = []
    for value, cfg in zip(values, cfgs):
        if cfg.num_clusters not in references:
            references[cfg.num_clusters] = compute_reference(graph, cfg)
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
    with open(resolved, "r", encoding="utf-8") as fh:
        arcs = parse_arcs(fh)
    g = Graph.from_arcs(arcs)
    # distinct arcs counted by the scalar key u * N + v of remapped ids
    arc_keys = np.searchsorted(g.node_ids, arcs) @ np.array([g.num_nodes, 1])
    return VerifyReport(
        path=str(resolved),
        directed=directed,
        num_nodes=g.num_nodes,
        num_edges=len(np.unique(arc_keys)) if directed else g.num_edges,
        undirected_edges=g.num_edges,
        expected_nodes=expected_nodes,
        expected_edges=expected_edges,
    )


# ---------------------------------------------------------------------------
# Config files: simple "key = value" lines, '#' comments, CLI overrides win.
# ---------------------------------------------------------------------------

_BOOL_VALUES = {
    "true": True,
    "yes": True,
    "1": True,
    "false": False,
    "no": False,
    "0": False,
}
_TYPE_NAMES = {bool: "a boolean", int: "an integer", float: "a float"}


def parse_config_value(name: str, raw: str):
    """Parse the text ``raw`` as a value of the ExperimentConfig field ``name``.

    The field's type decides: ``bool`` takes true/false/yes/no/1/0 (any
    case); ``int``, ``float`` and ``str`` call the type; ``X | None`` also
    takes ``none`` or an empty value as None. Surrounding spaces are ignored.
    """
    try:
        kind = _CONFIG_TYPES[name]
    except KeyError:
        raise ConfigError(f"unknown config key {name!r}") from None
    raw = raw.strip()
    members = typing.get_args(kind)
    if type(None) in members:
        if raw.lower() in ("", "none"):
            return None
        (kind,) = (m for m in members if m is not type(None))
    parse = (lambda text: _BOOL_VALUES[text.lower()]) if kind is bool else kind
    try:
        return parse(raw)
    except (KeyError, ValueError):
        raise ConfigError(f"{name} must be {_TYPE_NAMES[kind]}, got {raw!r}") from None


def parse_config_file(path) -> dict:
    """Parse a key = value config file into typed ExperimentConfig values."""
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            values[key.strip()] = parse_config_value(key.strip(), value)
    return values


# ---------------------------------------------------------------------------
# Output writers: every cell is formatted deterministically (repr for
# floats), so re-running a config byte-reproduces the file apart from the
# trailing wallclock column.
# ---------------------------------------------------------------------------

RECORD_COLUMNS = [f.name for f in dataclasses.fields(ResultRecord)]


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
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


def write_records_csv(records, file_or_path) -> None:
    with _text_output(file_or_path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(RECORD_COLUMNS)
        for record in records:
            writer.writerow(_record_cells(record))


def write_records_jsonl(records, file_or_path) -> None:
    with _text_output(file_or_path) as fh:
        for record in records:
            fh.write(json.dumps(dataclasses.asdict(record), sort_keys=True) + "\n")


def write_sweep_csv(points, axis: str, file_or_path) -> None:
    with _text_output(file_or_path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["axis", "axis_value"] + RECORD_COLUMNS)
        for value, records in points:
            for record in records:
                writer.writerow([axis, str(value)] + _record_cells(record))


def write_sweep_summary_csv(points, axis: str, file_or_path) -> None:
    with _text_output(file_or_path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["axis", "axis_value", "num_trials", "median", "q1", "q3", "min", "max"]
        )
        for value, records in points:
            sims = np.array([r.similarity for r in records], dtype=np.float64)
            writer.writerow(
                [
                    axis,
                    str(value),
                    str(len(sims)),
                    repr(float(np.median(sims))),
                    repr(float(np.percentile(sims, 25))),
                    repr(float(np.percentile(sims, 75))),
                    repr(float(sims.min())),
                    repr(float(sims.max())),
                ]
            )


def records_to_csv_text(records) -> str:
    buf = io.StringIO()
    write_records_csv(records, buf)
    return buf.getvalue()
