"""Shared fixtures and generators for the test suite."""

from __future__ import annotations

import io
import os
import re
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse import csgraph

from fedspectral import linalg
from fedspectral.errors import ParseError
from fedspectral.experiment import write_records_csv
from fedspectral.graph import Graph, load_edge_list
from fedspectral.partition import replication_count

REPO_ROOT = Path(__file__).resolve().parent.parent

# Real datasets are local files, never downloaded: tests that need them
# skip with instructions when they are absent. See README for URLs.
DATASETS = {
    "ego-facebook": "facebook_combined.txt",
    "email-eu-core": "email-Eu-core.txt",
}


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "dataset: needs a real SNAP dataset file on disk"
    )


def dataset_path(name: str) -> Path | None:
    file_name = DATASETS[name]
    candidates = []
    env_dir = os.environ.get("FEDSPECTRAL_DATA_DIR")
    if env_dir:
        candidates.append(Path(env_dir) / file_name)
    candidates.append(REPO_ROOT / "datasets" / file_name)
    for candidate in candidates:
        if candidate.exists():
            return candidate
    return None


def require_dataset(name: str) -> Path:
    path = dataset_path(name)
    if path is None:
        pytest.skip(
            f"dataset {DATASETS[name]} not found; place it under "
            f"./datasets or $FEDSPECTRAL_DATA_DIR (see README for the SNAP URL)"
        )
    return path


@pytest.fixture(scope="session")
def facebook_graph():
    path = require_dataset("ego-facebook")
    return load_edge_list(path)


@pytest.fixture(scope="session")
def email_graph():
    path = require_dataset("email-eu-core")
    return load_edge_list(path)


# ---------------------------------------------------------------------------
# Random graph generators
# ---------------------------------------------------------------------------


def gnp_graph(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi graph; may be disconnected."""
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.random((n, n)) < p, k=1)
    us, vs = np.nonzero(upper)
    return Graph.from_edges(n, np.stack([us, vs], axis=1))


def planted_graph(sizes, p_in: float, p_out: float, seed: int) -> Graph:
    """Planted-partition graph, resampled until connected."""
    n = int(sum(sizes))
    block = np.repeat(np.arange(len(sizes)), sizes)
    same = block[:, None] == block[None, :]
    probs = np.where(same, p_in, p_out)
    for attempt in range(50):
        rng = np.random.default_rng(seed + 1000 * attempt)
        upper = np.triu(rng.random((n, n)) < probs, k=1)
        us, vs = np.nonzero(upper)
        g = Graph.from_edges(n, np.stack([us, vs], axis=1))
        if is_connected(g):
            return g
    raise AssertionError("could not sample a connected planted graph")


def planted_blocks(sizes) -> np.ndarray:
    return np.repeat(np.arange(len(sizes)), sizes)


def is_connected(g: Graph) -> bool:
    if g.num_nodes == 1:
        return True
    adj: list[list[int]] = [[] for _ in range(g.num_nodes)]
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = np.zeros(g.num_nodes, dtype=bool)
    stack = [0]
    seen[0] = True
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if not seen[v]:
                seen[v] = True
                stack.append(v)
    return bool(seen.all())


def connected_components(g: Graph) -> list[np.ndarray]:
    adj: list[list[int]] = [[] for _ in range(g.num_nodes)]
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = np.zeros(g.num_nodes, dtype=bool)
    components = []
    for start in range(g.num_nodes):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        members = [start]
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    stack.append(v)
                    members.append(v)
        components.append(np.asarray(sorted(members)))
    return components


# ---------------------------------------------------------------------------
# Numeric helpers
# ---------------------------------------------------------------------------


def principal_angles(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Principal angles (radians) between the column spans of a and b."""
    qa, _ = np.linalg.qr(a)
    qb, _ = np.linalg.qr(b)
    sigma = np.linalg.svd(qa.T @ qb, compute_uv=False)
    return np.arccos(np.clip(sigma, -1.0, 1.0))


def dense_adjacency(g: Graph) -> np.ndarray:
    """Dense symmetric adjacency matrix of a Graph (test oracle)."""
    a = np.zeros((g.num_nodes, g.num_nodes), dtype=np.float64)
    a[g.edges[:, 0], g.edges[:, 1]] = g.weights
    a[g.edges[:, 1], g.edges[:, 0]] = g.weights
    return a


def comembership_graph(labelings, num_clients: int) -> Graph:
    """Co-membership similarity graph of per-client labelings on all N nodes
    (test oracle of baseline.build_similarity_graph's twin-class quotient).

    Nodes i < j share an edge when some client puts them in one cluster,
    weighted by the fraction of clients that do: the entries above the
    diagonal of H H^T / C, where the sparse N x sum(k_c) matrix H stacks
    the clients' one-hot labelings side by side. The input is not checked.
    """
    labelings = [np.asarray(lab) for lab in labelings]
    n = labelings[0].size
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


def dense_normalized_laplacian(a: np.ndarray) -> np.ndarray:
    """Dense symmetric normalized Laplacian of a dense adjacency (test oracle).

    L[i,j] = -w(i,j)/sqrt(d_i d_j) off the diagonal and L[i,i] = 1 for
    nodes with positive degree; degree-0 rows and columns are all zeros.
    The input is not checked.
    """
    d = a.sum(axis=1)
    inv_sqrt = np.zeros(len(d))
    positive = d > 0
    inv_sqrt[positive] = 1.0 / np.sqrt(d[positive])
    lap = -a * np.multiply.outer(inv_sqrt, inv_sqrt)
    np.fill_diagonal(lap, np.where(positive, 1.0, 0.0))
    return lap


def scaled_adjacency_sorted_by_scipy(g: Graph, *, laplacian: bool) -> sparse.csr_array:
    """Oracle for graph._scaled_adjacency: L (``laplacian``) or I - L from
    the entries listed as (u, v) pairs, then (v, u) pairs, then the
    diagonal, which leaves scipy's COO to CSR step to sort each row."""
    d = g.degrees()
    inv_sqrt = np.zeros(g.num_nodes, dtype=np.float64)
    positive = d > 0
    inv_sqrt[positive] = 1.0 / np.sqrt(d[positive])
    u, v = g.edges[:, 0], g.edges[:, 1]
    vals = g.weights * (inv_sqrt[u] * inv_sqrt[v])
    if laplacian:
        np.negative(vals, out=vals)
    unit = np.flatnonzero(positive == laplacian)
    rows = np.concatenate([u, v, unit])
    cols = np.concatenate([v, u, unit])
    vals = np.concatenate([vals, vals, np.ones(len(unit))])
    n = g.num_nodes
    return sparse.csr_array((vals, (rows, cols)), shape=(n, n))


def kmeans_loop(points, k: int, seed: int, objective_history=None) -> np.ndarray:
    """Lloyd's k-means with k-means++ seeding, each centre the axis-0 mean
    of its cluster's rows by a mask per cluster (test oracle for
    linalg.kmeans, which takes the same steps with one bincount of sums)."""
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    rng = np.random.default_rng(seed)
    centers = np.empty((k, points.shape[1]), dtype=np.float64)
    centers[0] = points[rng.integers(n)]
    dist_sq = ((points - centers[0]) ** 2).sum(axis=1)
    for c in range(1, k):
        total = float(dist_sq.sum())
        if total <= 0.0:
            idx = int(rng.integers(n))
        else:
            threshold = rng.random() * total
            idx = min(int(np.searchsorted(np.cumsum(dist_sq), threshold)), n - 1)
        centers[c] = points[idx]
        dist_sq = np.minimum(dist_sq, ((points - centers[c]) ** 2).sum(axis=1))

    labels = None
    for _ in range(300):
        sq = (
            (points * points).sum(axis=1)[:, None]
            + (centers * centers).sum(axis=1)[None, :]
            - 2.0 * (points @ centers.T)
        )
        np.maximum(sq, 0.0, out=sq)
        new_labels = np.argmin(sq, axis=1)
        assigned = sq[np.arange(n), new_labels].copy()

        counts = np.bincount(new_labels, minlength=k)
        while (counts == 0).any():
            empty = int(np.argmax(counts == 0))
            movable = counts[new_labels] >= 2
            candidates = np.where(movable, assigned, -np.inf)
            mover = int(np.argmax(candidates))
            counts[new_labels[mover]] -= 1
            new_labels[mover] = empty
            counts[empty] += 1
            assigned[mover] = 0.0

        if objective_history is not None:
            objective_history.append(float(assigned.sum()))
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for c in range(k):
            centers[c] = points[labels == c].mean(axis=0)
    return labels


def fix_column_signs_loop(vectors: np.ndarray) -> None:
    """Column by column: flip each column whose first component above
    1e-12 times its largest magnitude is negative (test oracle)."""
    for j in range(vectors.shape[1]):
        col = vectors[:, j]
        mags = np.abs(col)
        top = mags.max()
        if top == 0.0:
            continue
        first = int(np.argmax(mags > 1e-12 * top))
        if col[first] < 0:
            col *= -1.0


def bottom_k_every_component(lap, k: int, seed: int) -> np.ndarray:
    """linalg.bottom_k_eigenvectors as it was when it solved every connected
    component, not only the K with the lowest nodes (test oracle)."""
    lap = sparse.csr_array(lap, dtype=np.float64)
    count, component = csgraph.connected_components(lap, directed=False)
    rng = np.random.default_rng(seed)
    pairs = []
    for label in range(count):
        nodes = np.flatnonzero(component == label)
        block = lap if count == 1 else lap[nodes][:, nodes]
        vals, vecs = linalg._bottom_of_component(block, min(k, len(nodes)), rng)
        vals[np.argmin(vals)] = 0.0
        pairs += [(val, nodes[0], nodes, vec) for val, vec in zip(vals[:k], vecs.T)]
    pairs.sort(key=lambda pair: pair[:2])
    basis = np.zeros((lap.shape[0], k), dtype=np.float64)
    for col, (_, _, nodes, vec) in enumerate(pairs[:k]):
        basis[nodes, col] = vec
    fix_column_signs_loop(basis)
    return basis


def parse_arcs_loop(text: str) -> np.ndarray:
    r"""Per-line SNAP edge-list parser with Python ``int`` (test oracle).

    Breaks the text into lines at '\n', '\r\n' and '\r', skips blank and
    '#' lines and raises ParseError naming the line of a malformed one.
    Python ``int`` also accepts '1_0' and non-ASCII digits, which
    graph.parse_arcs rejects.
    """
    arcs = []
    for lineno, raw in enumerate(re.split(r"\r\n?|\n", text), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected two integer tokens, got {len(parts)}")
        try:
            arcs.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer token in {line!r}") from None
    if not arcs:
        raise ParseError("empty edge list: no data lines")
    return np.asarray(arcs, dtype=np.int64)


def distribute_edges_mask(g: Graph, num_clients: int, overlap: float, seed: int) -> list:
    """Shard (edges, weights) pairs of partition.distribute_edges, built
    the way it built them before it gathered by index: an edge-major E x C
    membership mask, one strided boolean mask per client (test oracle)."""
    r = replication_count(overlap, num_clients)
    rng = np.random.default_rng(seed)
    num_edges = g.num_edges
    member = np.zeros((num_edges, num_clients), dtype=bool)
    if num_edges:
        if r == num_clients:
            member[:] = True
        else:
            keys = rng.random((num_edges, num_clients))
            order = np.argsort(keys, axis=1, kind="stable")
            member[np.arange(num_edges)[:, None], order[:, :r]] = True
    return [(g.edges[member[:, c]], g.weights[member[:, c]]) for c in range(num_clients)]


def mismatch_pairs_loop(global_labels, aggregated_labels) -> int:
    """Literal ordered double loop over node pairs (test oracle)."""
    n = len(global_labels)
    mismatch = 0
    for i in range(n):
        for j in range(n):
            if global_labels[i] == global_labels[j]:
                if aggregated_labels[i] != aggregated_labels[j]:
                    mismatch += 1
    return mismatch


def mismatch_pairs_matrix(global_labels, aggregated_labels) -> int:
    """Direct N x N pair enumeration via boolean matrices (test oracle)."""
    g = np.asarray(global_labels)
    a = np.asarray(aggregated_labels)
    same_global = g[:, None] == g[None, :]
    differ_agg = a[:, None] != a[None, :]
    return int((same_global & differ_agg).sum())


def records_to_csv_text(records) -> str:
    """The record CSV that experiment.write_records_csv writes, as a string."""
    buf = io.StringIO()
    write_records_csv(records, buf)
    return buf.getvalue()


def median_similarity(records) -> float:
    return float(np.median([r.similarity for r in records]))
