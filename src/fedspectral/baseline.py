"""Label-aggregation protocol (the baseline).

Every client spectrally clusters its private shard and ships only the
length-N label vector; the server fuses the labelings into a co-membership
similarity Graph and spectrally re-clusters that. Clients and server run
the one pipeline, linalg.global_spectral_clustering, on their graphs.
"""

from __future__ import annotations

import os

import numpy as np
from scipy import sparse

from .errors import ContractError
from .graph import Graph
# no caller: kept as bench target baseline:normalized_laplacian_from_adjacency (item C)
from .graph import normalized_laplacian_from_adjacency  # noqa: F401
from .linalg import global_spectral_clustering
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
) -> np.ndarray:
    """Spectral clustering of one client's local shard.

    The shard is a graph, so this is linalg.global_spectral_clustering of
    it: sparse normalized Laplacian, bottom-K embedding, k-means on the
    node rows; deterministic for the client's derived seed. A shard with no
    edges yields an all-zero Laplacian, whose every node is its own
    component; the labeling is still deterministic.
    """
    return global_spectral_clustering(
        shard, num_clusters, seed, normalize_rows=normalize_rows
    )


def build_similarity_graph(labelings, num_clients: int) -> Graph:
    """Co-membership Graph of per-client labelings.

    Nodes i < j share an edge when some client puts them in one cluster,
    weighted by the fraction of clients that do: the entries above the
    diagonal of H H^T / C, where the sparse N x sum(k_c) matrix H stacks
    the clients' one-hot labelings side by side. Labelings must be 1-D
    arrays of non-negative integers, all of one non-zero length.
    """
    labelings = [np.asarray(lab) for lab in labelings]
    if num_clients < 1 or len(labelings) != num_clients:
        raise ContractError(f"expected {num_clients} >= 1 labelings, got {len(labelings)}")
    n = labelings[0].size
    if n == 0 or not all(
        lab.shape == (n,) and lab.dtype.kind in "iu" and lab.min() >= 0 for lab in labelings
    ):
        raise ContractError("need 1-D non-negative integer labelings of one non-zero length")

    offsets = np.cumsum([0] + [int(lab.max()) + 1 for lab in labelings])
    cols = np.concatenate(labelings).astype(np.int64) + np.repeat(offsets[:-1], n)
    rows = np.tile(np.arange(n), num_clients)
    onehot = sparse.csr_array((np.ones(len(cols)), (rows, cols)), shape=(n, offsets[-1]))
    counts = onehot @ onehot.T
    counts.sort_indices()
    rows = np.repeat(np.arange(n), np.diff(counts.indptr))
    upper = counts.indices > rows
    edges = np.stack([rows[upper], counts.indices[upper]], axis=1)
    # count * (1/C) is what scipy's sparse H H^T / C computes: 3 * (1/5) != 3 / 5
    return Graph(n, edges, counts.data[upper] * (1 / num_clients))


def fedspectral_server(
    shards: list[ClientShard],
    num_clusters: int,
    seed: int,
    *,
    normalize_rows: bool = False,
    dump_dir=None,
) -> np.ndarray:
    """Aggregate per-client labelings into a global clustering.

    Collects every client's labels (each client seeded by
    hash(master_seed, client_id)), builds the co-membership Graph
    (build_similarity_graph) and clusters it with
    global_spectral_clustering, the pipeline of the clients and of the
    reference, seeded by hash(master_seed, "server"). The result is
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
        )
        for sh in by_id
    ]
    if dump_dir is not None:
        os.makedirs(dump_dir, exist_ok=True)
        for sh, lab in zip(by_id, labelings):
            write_labels_csv(
                os.path.join(dump_dir, f"client_{sh.client_id}_labels.csv"), lab
            )

    graph = build_similarity_graph(labelings, len(shards))
    return global_spectral_clustering(
        graph, num_clusters, derive_seed(seed, "server"), normalize_rows=normalize_rows
    )
