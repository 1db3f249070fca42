"""Label-aggregation protocol (the baseline).

Every client spectrally clusters its private shard with
linalg.global_spectral_clustering and ships only the length-N label
vector. The server's similarity graph weights each node pair by the
fraction of clients that co-label it, so it sees a node only through its
label signature: nodes with one signature are twins. The server solves
that graph's normalized Laplacian exactly on the m twin classes (an m x m
quotient plus closed-form within-class eigenpairs), lifts the bottom-K
embedding to the N nodes and runs the pipeline's k-means on its rows.
Nothing on the server is N x N.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

import numpy as np
from scipy import sparse

from . import linalg
from .errors import ContractError, check_cluster_count, check_counts
from .graph import index_dtype
# no caller: kept as bench target baseline:normalized_laplacian_from_adjacency (item P)
from .graph import normalized_laplacian_from_adjacency  # noqa: F401
from .linalg import global_spectral_clustering, one_blas_thread
from .partition import ClientShard, per_client
from .seeding import client_seed, derive_seed, embedding_seed, kmeans_seed

__all__ = ["TwinQuotient", "build_similarity_graph", "fedspectral_server"]


# a client's labels: its shard is a graph; bench/layers.py traces this name
get_client_labels = global_spectral_clustering


class TwinQuotient(NamedTuple):
    """Co-membership similarity of per-client labelings, on twin classes.

    Nodes whose labels agree on every client (one label signature) are
    twins. ``classes[i]`` is the class of node i, numbered by first
    appearance, so a lower class holds a lower node; ``sizes[a]`` is the
    class size n_a; ``agreement`` is the canonical m x m CSR S, S_ab the
    fraction of clients on which the signatures of a and b agree. The
    co-membership weight of distinct nodes i and j is
    S[classes[i], classes[j]].
    """

    classes: np.ndarray
    sizes: np.ndarray
    agreement: sparse.csr_array


def build_similarity_graph(labelings) -> TwinQuotient:
    """Twin-class quotient of the co-membership similarity of labelings.

    S is the one-hot of the m class signatures times its transpose,
    multiplied by 1/C for C labelings. There must be at least one, each a
    1-D array of non-negative integers, all of one non-zero length.
    """
    labelings = [np.asarray(lab) for lab in labelings]
    if not labelings:
        raise ContractError("need at least one labeling")
    n = labelings[0].size
    if n == 0 or not all(
        lab.shape == (n,) and lab.dtype.kind in "iu" and lab.min() >= 0 for lab in labelings
    ):
        raise ContractError("need 1-D non-negative integer labelings of one non-zero length")

    key = np.zeros(n, dtype=np.int64)
    dense, widths = [], [0]
    for lab in labelings:
        values, codes = np.unique(lab, return_inverse=True)
        dense.append(codes)
        widths.append(len(values))
        # key and codes are below n, so the mixed-radix key fits in int64
        _, first, key = np.unique(
            key * len(values) + codes, return_index=True, return_inverse=True
        )
    lowest = np.sort(first)  # each class's lowest node, in order of first appearance
    classes = np.searchsorted(lowest, first[key])

    m = len(lowest)
    offsets = np.cumsum(widths)
    cols = np.concatenate([codes[lowest] for codes in dense]) + np.repeat(offsets[:-1], m)
    # S and the quotient Laplacian keep this width where their entries fit
    width = index_dtype(max(m, offsets[-1], len(cols)))
    rows = np.tile(np.arange(m, dtype=width), len(labelings))
    onehot = sparse.csr_array(
        (np.ones(len(cols)), (rows, cols.astype(width))), shape=(m, offsets[-1])
    )
    agreement = onehot @ onehot.T
    agreement.sort_indices()
    # count * (1/C), not count / C, the bits of the tests' N-node oracle: 3 * (1/5) != 3 / 5
    agreement.data *= 1 / len(labelings)
    return TwinQuotient(classes, np.bincount(classes), agreement)


def _twin_embedding(q: TwinQuotient, k: int, seed: int) -> np.ndarray:
    """Bottom-k eigenvectors of the co-membership graph's normalized Laplacian.

    With self weight s_a = S_aa and degree d_a = sum_b n_b S_ab - s_a, the
    Laplacian splits exactly over the twin classes, an equitable partition:
    - class-constant vectors x_i = z_a / sqrt(n_a), where z is an
      eigenvector of the m x m quotient
      delta_ab - (sqrt(n_a n_b) S_ab - delta_ab s_a) / sqrt(d_a d_b),
      whose rows and columns are zero for an isolated singleton (d_a = 0);
    - zero-sum vectors within class a, eigenvalue 1 + s_a / d_a with
      multiplicity n_a - 1, given in the Helmert basis of the class's
      nodes in ascending order.
    The quotient's bottom min(k, m) pairs come from bottom_k_eigenvectors;
    a within-class pair joins only below the k-th of them, or when m < k,
    ties going to the quotient and then to the lower class.
    """
    s = q.agreement
    m = s.shape[0]
    rows = np.repeat(np.arange(m), np.diff(s.indptr))
    diag = rows == s.indices
    self_weight = s.diagonal()
    degree = s @ q.sizes - self_weight
    inv_sqrt = np.zeros(m)
    linked = degree > 0
    inv_sqrt[linked] = 1.0 / np.sqrt(degree[linked])
    root = np.sqrt(q.sizes)
    vals = s.data * (root[rows] * root[s.indices])
    vals[diag] -= self_weight  # every class agrees with itself: one diagonal entry a row
    vals *= -(inv_sqrt[rows] * inv_sqrt[s.indices])
    vals[diag & linked[rows]] += 1.0
    lap = sparse.csr_array((vals, s.indices, s.indptr), shape=(m, m))

    # through the module, where the solver's tracers and spies look it up
    z = linalg.bottom_k_eigenvectors(lap, min(k, m), seed)
    lifted = z[q.classes]
    lifted /= root[q.classes, None]
    # bottom_k_eigenvectors orders its columns; Rayleigh quotients can undo
    # that by an ulp, so the sort keys keep the order
    quotient_vals = np.maximum.accumulate(np.einsum("ij,ij->j", z, lap @ z))
    twins = np.flatnonzero(q.sizes > 1)
    within = 1.0 + self_weight[twins] / degree[twins]
    if m >= k:
        below = within < quotient_vals[-1]
        twins, within = twins[below], within[below]

    # the first min(n_a - 1, k) Helmert vectors of each class, as (eigenvalue, class, t)
    pairs = sorted(
        (value, a, t)
        for a, value in zip(twins, within)
        for t in range(1, min(q.sizes[a] - 1, k) + 1)
    )
    keys = np.concatenate([quotient_vals, [value for value, _, _ in pairs]])
    basis = np.zeros((len(q.classes), k))
    for col, pick in enumerate(np.argsort(keys, kind="stable")[:k]):
        if pick < z.shape[1]:
            basis[:, col] = lifted[:, pick]
            continue
        _, a, t = pairs[pick - z.shape[1]]
        members = np.flatnonzero(q.classes == a)[: t + 1]
        basis[members, col] = 1.0 / np.sqrt(t * (t + 1.0))
        basis[members[t], col] = -t / np.sqrt(t * (t + 1.0))
    return basis


def fedspectral_server(
    shards: Iterable[ClientShard], num_clusters: int, seed: int
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Aggregate per-client labelings into a global clustering.

    Collects every client's labels (each client seeded by
    hash(master_seed, client_id)) in client-id order, then builds their
    twin-class quotient (build_similarity_graph), takes the bottom-K
    eigenvectors of the similarity graph's normalized Laplacian from it
    (_twin_embedding) and clusters their N rows with k-means, with the
    seeds that global_spectral_clustering derives from
    hash(master_seed, "server").
    The server reads only the labelings. The result is independent of
    shard ordering and deterministic for fixed shards and seed.

    ``shards`` is any iterable, which partition.per_client turns into the
    labelings, each client's as its shard arrives, with per_client's
    errors and shard lifetimes; a client's shard goes on to
    global_spectral_clustering with no other reference here, so a shard
    its producer lets go dies once its Laplacian exists, before the
    client's eigensolve. A num_clusters below 1 raises ConfigError
    before any shard is read, as in run_fedspectral_plus, and so does one
    above the node count (errors.check_cluster_count) before the first
    labeling.

    Everything runs under linalg.one_blas_thread, as run_fedspectral_plus
    does: the clients' and the server's BLAS calls are too small for a
    second OpenBLAS thread, which would spin a core for the whole run.

    Returns (labels, client labelings in ascending client-id order), the
    shape of run_fedspectral_plus's (labels, embedding).
    """
    def label(shard):
        check_cluster_count(num_clusters, shard.num_nodes)
        own_seed = client_seed(seed, shard.client_id)
        held = [shard]
        del shard  # the pipeline gets the shard as a temporary and drops it
        return get_client_labels(held.pop(), num_clusters, own_seed)

    check_counts(num_clusters=num_clusters)
    with one_blas_thread():
        labelings = per_client(shards, label)
        quotient = build_similarity_graph(labelings)
        server = derive_seed(seed, "server")
        embedding = _twin_embedding(quotient, num_clusters, embedding_seed(server))
        # through the module, where the k-means tracers and spies look it up
        labels = linalg.kmeans(embedding, num_clusters, kmeans_seed(server))
    return labels, labelings
