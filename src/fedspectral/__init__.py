"""Federated spectral clustering simulator.

Graph ingestion, overlap-controlled edge sharding across simulated
clients, two server aggregation protocols (label fusion and coordinated
power iteration), a pair-counting cluster-similarity metric, and an
experiment runner with reproducible seeds.
"""

from .baseline import build_similarity_graph, fedspectral_server
from .errors import (
    ConfigError,
    ContractError,
    ConvergenceError,
    ParseError,
    RankError,
)
from .experiment import (
    ExperimentConfig,
    ResultRecord,
    run_experiment,
    sweep,
    verify_dataset,
)
from .fedplus import aggregate_round, run_fedspectral_plus
from .graph import (
    Graph,
    load_edge_list,
    normalized_laplacian,
    parse_edge_list,
    serialize_edge_list,
)
from .linalg import (
    bottom_k_eigenvectors,
    global_spectral_clustering,
    kmeans,
    reduced_qr,
    symmetric_eig_reference,
)
from .metrics import cluster_similarity
from .partition import ClientShard, distribute_edges, replication_count
from .seeding import derive_seed

__all__ = [
    "Graph",
    "parse_edge_list",
    "load_edge_list",
    "serialize_edge_list",
    "normalized_laplacian",
    "reduced_qr",
    "symmetric_eig_reference",
    "bottom_k_eigenvectors",
    "kmeans",
    "global_spectral_clustering",
    "ClientShard",
    "distribute_edges",
    "replication_count",
    "build_similarity_graph",
    "fedspectral_server",
    "aggregate_round",
    "run_fedspectral_plus",
    "cluster_similarity",
    "ExperimentConfig",
    "ResultRecord",
    "run_experiment",
    "sweep",
    "verify_dataset",
    "derive_seed",
    "ParseError",
    "ConfigError",
    "ContractError",
    "RankError",
    "ConvergenceError",
]

__version__ = "0.1.0"
