"""Shared fixtures and generators for the test suite."""

from __future__ import annotations

import io
import os
from pathlib import Path

import numpy as np
import pytest

from fedspectral.errors import ParseError
from fedspectral.experiment import write_records_csv
from fedspectral.graph import Graph, load_edge_list

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


def parse_arcs_loop(text) -> np.ndarray:
    """Per-line SNAP edge-list parser with Python ``int`` (test oracle).

    Takes str or an iterable of lines, skips blank and '#' lines and raises
    ParseError naming the line of a malformed one. Python ``int`` also
    accepts '1_0' and non-ASCII digits, which graph.parse_arcs rejects.
    """
    arcs = []
    for lineno, raw in enumerate(text.splitlines() if isinstance(text, str) else text, 1):
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
