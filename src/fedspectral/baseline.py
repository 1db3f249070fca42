"""Label-aggregation protocol (the baseline).

Every client spectrally clusters its private shard and ships only the
length-N label vector; the server fuses the labelings into a co-membership
similarity graph and spectrally re-clusters that.
"""

from __future__ import annotations

import os

import numpy as np

from .diagnostics import Diagnostics
from .errors import ContractError
from .graph import normalized_laplacian_from_adjacency
from .linalg import global_spectral_clustering, spectral_cluster
from .metrics import write_labels_csv
from .partition import ClientShard, shard_universe
from .seeding import client_seed, derive_seed

__all__ = ["get_client_labels", "build_similarity_graph", "fedspectral_server"]


def get_client_labels(
    shard: ClientShard,
    num_clusters: int,
    seed: int,
    *,
    normalize_rows: bool = False,
    diag: Diagnostics | None = None,
) -> np.ndarray:
    """Spectral clustering of one client's local shard.

    The shard is a graph, so this is linalg.global_spectral_clustering of
    it: normalized Laplacian, bottom-K embedding, k-means on the node rows;
    deterministic for the client's derived seed. A shard with no edges
    yields an all-zero Laplacian and a degenerate (identical-rows)
    embedding; the labeling is still deterministic and the event is flagged.
    """
    if shard.num_edges == 0 and diag is not None:
        diag.flag(f"degenerate shard {shard.client_id}: no edges")
    return global_spectral_clustering(
        shard, num_clusters, seed, normalize_rows=normalize_rows, diag=diag
    )


def build_similarity_graph(labelings, num_clients: int) -> np.ndarray:
    """Co-membership similarity graph from per-client labelings.

    Entry (i, j) is the fraction of clients whose labeling puts i and j in
    the same cluster, so values live on the grid {0, 1/C, ..., 1} and the
    diagonal is exactly 1.
    """
    labelings = [np.asarray(lab).reshape(-1) for lab in labelings]
    if len(labelings) != num_clients:
        raise ContractError(
            f"expected {num_clients} labelings, got {len(labelings)}"
        )
    if num_clients == 0:
        raise ContractError("need at least one client labeling")
    n = labelings[0].shape[0]
    if any(lab.shape[0] != n for lab in labelings):
        raise ContractError("labelings have mismatched lengths")
    if any(lab.min() < 0 for lab in labelings):
        raise ContractError("cluster ids must be non-negative")

    counts = np.zeros((n, n), dtype=np.float64)
    for lab in labelings:
        onehot = np.zeros((n, int(lab.max()) + 1), dtype=np.float64)
        onehot[np.arange(n), lab] = 1.0
        counts += onehot @ onehot.T
    counts /= num_clients
    return counts


def fedspectral_server(
    shards: list[ClientShard],
    num_clusters: int,
    seed: int,
    *,
    normalize_rows: bool = False,
    diag: Diagnostics | None = None,
    dump_dir=None,
) -> np.ndarray:
    """Aggregate per-client labelings into a global clustering.

    Collects every client's labels (each client seeded by
    hash(master_seed, client_id)), builds the similarity graph, zeroes its
    diagonal, and spectrally clusters it as a weighted graph (with the same
    size rule for the eigensolver as the clients). The result is
    independent of shard ordering and deterministic for fixed shards and
    seed. ``dump_dir`` optionally writes each client labeling as CSV.
    """
    shard_universe(shards)
    by_id = sorted(shards, key=lambda sh: sh.client_id)
    labelings = [
        get_client_labels(
            sh,
            num_clusters,
            client_seed(seed, sh.client_id),
            normalize_rows=normalize_rows,
            diag=diag,
        )
        for sh in by_id
    ]
    if dump_dir is not None:
        os.makedirs(dump_dir, exist_ok=True)
        for sh, lab in zip(by_id, labelings):
            write_labels_csv(
                os.path.join(dump_dir, f"client_{sh.client_id}_labels.csv"), lab
            )

    similarity = build_similarity_graph(labelings, len(shards))
    np.fill_diagonal(similarity, 0.0)
    lap = normalized_laplacian_from_adjacency(similarity)
    return spectral_cluster(
        lap,
        num_clusters,
        derive_seed(seed, "server"),
        normalize_rows=normalize_rows,
        diag=diag,
    )
