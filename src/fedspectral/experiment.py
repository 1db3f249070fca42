"""Experiment configuration, execution, sweeps, and dataset verification.

A run parses the dataset, computes the fixed global reference labeling
(seeded per dataset by a documented rule), then scores one federated run
per trial against it. ``run_single_trial`` turns one trial into all of
its outputs: its ``ResultRecord`` and, when asked, its label files keyed
by the dataset's node ids. Records serialize to long-format CSV (or JSON
lines) whose bytes are reproducible for a fixed config and master seed,
modulo the wallclock column.

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
import json
import os
import time
import typing
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .baseline import fedspectral_server
from .errors import ConfigError, _read_text
from .fedplus import run_fedspectral_plus
from .graph import Graph, load_edge_list, read_arcs
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
    master_seed: int = 0
    num_trials: int = 5
    normalize_rows: bool = False
    output_path: str | None = None


_DEFAULTS = ExperimentConfig(dataset_path="")
_CONFIG_TYPES = typing.get_type_hints(ExperimentConfig)

# Fields an algorithm never reads; setting them anyway only earns a warning.
_IRRELEVANT_FIELDS = {
    "global": ("num_clients", "iters", "global_rounds", "overlap"),
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
    normalize_rows: bool
    master_seed: int
    trial: int
    trial_seed: int
    similarity: float
    flags: tuple[str, ...]
    round_drift: tuple[float, ...]
    wallclock_ms: float


def _subspace_drift(previous: np.ndarray, basis: np.ndarray) -> float:
    """Spectral norm of the part of ``basis`` outside span(``previous``).

    One N x K residual R = Q - B (B^T Q), then K x K work: the largest
    singular value of R is the square root of the largest eigenvalue of
    its Gram matrix R^T R.
    """
    residual = basis - previous @ (previous.T @ basis)
    top = np.linalg.eigvalsh(residual.T @ residual)[-1]
    return float(np.sqrt(max(top, 0.0)))


def _hand_over(shards: list):
    """Yield the items of ``shards``, dropping the list's reference to each
    as it goes, so each shard lives only as long as its consumer holds it."""
    for index in range(len(shards)):
        shard, shards[index] = shards[index], None
        yield shard


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
    labels_dir=None,
    client_labels_dir=None,
) -> tuple[float, np.ndarray, ResultRecord, float]:
    """Run one federated (or global) trial from an explicit trial seed.

    Returns (similarity, labels, record, wallclock_ms); ``record`` is the
    trial's ResultRecord, numbered ``trial``, and carries the similarity
    and wallclock too. The similarity depends only on (graph, cfg shape,
    seed), so replaying a record's trial_seed and trial returns that
    record apart from its wallclock_ms. A baseline trial notes each
    edgeless client shard in ``record.flags``; a FedSpectral+ trial records
    each round's subspace drift (_subspace_drift of the broadcast and the
    aggregated basis) in ``record.round_drift`` through the protocol's
    round observer, and hands the protocol its shards one at a time, so
    each dies once its client is built.

    ``labels_dir`` receives ``trial_<trial>_labels.csv``, and, for the
    baseline, ``client_labels_dir`` receives each client's labeling as
    ``trial_<trial>/client_<id>_labels.csv``; every file is a (node_id,
    label) CSV keyed by ``graph.node_ids``. Missing directories are
    created. The wallclock covers the protocol, not the files.
    """
    flags, round_drift, client_labelings = [], [], []
    start = time.perf_counter()
    if cfg.algo == "global":
        labels = reference
    else:
        shards = distribute_edges(graph, cfg.num_clients, cfg.overlap, partition_seed(seed))
        if cfg.algo == "fedspectral":
            flags = [
                f"degenerate shard {sh.client_id}: no edges"
                for sh in shards
                if sh.num_edges == 0
            ]
            labels, client_labelings = fedspectral_server(
                shards, cfg.num_clusters, seed, normalize_rows=cfg.normalize_rows
            )
        else:
            labels, _ = run_fedspectral_plus(
                _hand_over(shards),
                cfg.num_clusters,
                seed,
                iters=cfg.iters,
                global_rounds=cfg.global_rounds,
                normalize_rows=cfg.normalize_rows,
                on_round=lambda _, previous, basis: round_drift.append(
                    _subspace_drift(previous, basis)
                ),
            )
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
        wallclock_ms=wallclock_ms,
    )
    files = []
    if labels_dir is not None:
        files.append((os.path.join(labels_dir, f"trial_{trial}_labels.csv"), labels))
    if client_labels_dir is not None:
        # distribute_edges numbers the clients 0..C-1
        client_dir = os.path.join(client_labels_dir, f"trial_{trial}")
        files += [
            (os.path.join(client_dir, f"client_{c}_labels.csv"), lab)
            for c, lab in enumerate(client_labelings)
        ]
    for path, lab in files:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        write_labels_csv(path, lab, node_ids=graph.node_ids)
    return similarity, labels, record, wallclock_ms


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
    labeling, keyed the same way, under a per-trial subdirectory; other
    algorithms have no client labelings, so they warn and write none.
    """
    validate_config(cfg)
    if client_labels_dir is not None and cfg.algo != "fedspectral":
        warnings.warn(
            f"client_labels_dir is ignored by algo={cfg.algo}", UserWarning, stacklevel=2
        )
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
    cfg: ExperimentConfig, graph: Graph, reference: np.ndarray, *, progress=None, **dirs
) -> list[ResultRecord]:
    """The trial loop of an already validated config; ``dirs`` go to each trial."""
    records = []
    for trial in range(cfg.num_trials):
        seed = trial_seed(cfg.master_seed, trial)
        similarity, _, record, wallclock_ms = run_single_trial(
            graph, reference, cfg, seed, trial=trial, **dirs
        )
        records.append(record)
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
# Config files: one "key = value" line per key, '#' comments, CLI overrides win.
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
    """Parse a key = value config file into typed ExperimentConfig values.

    A byte that is not UTF-8 raises ParseError naming the file and line.
    """
    values = {}
    first_line = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(_read_text(fh).split("\n"), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = (part.strip() for part in line.partition("="))
            if key in first_line:
                where = f"{path}:{lineno}: key {key!r}"
                raise ConfigError(f"{where} repeated (first on line {first_line[key]})")
            first_line[key] = lineno
            values[key] = parse_config_value(key, value)
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


def write_sweep_csv(points, axis: str, file_or_path) -> None:
    rows = ([axis, str(v)] + _record_cells(r) for v, records in points for r in records)
    _write_csv(file_or_path, ["axis", "axis_value"] + RECORD_COLUMNS, rows)


def write_sweep_summary_csv(points, axis: str, file_or_path) -> None:
    header = ["axis", "axis_value", "num_trials", "median", "q1", "q3", "min", "max"]
    rows = []
    for value, records in points:
        sims = np.array([r.similarity for r in records], dtype=np.float64)
        stats = (np.median(sims), *np.percentile(sims, [25, 75]), sims.min(), sims.max())
        rows.append([axis, str(value), str(len(sims))] + [repr(float(x)) for x in stats])
    _write_csv(file_or_path, header, rows)
