"""Undirected graphs over a fixed node universe.

Covers SNAP-style edge-list ingestion, canonical in-memory representation,
and symmetric normalized Laplacians, both as dense float64 N x N matrices
and as the sparse multiplier I - L (EdgeOperator, O(edges) memory). Node
ids are contiguous 0..num_nodes-1 after remapping, with the original ids
retained so results can be written back in source-file terms. A client
shard (partition.ClientShard) is a Graph with a client id, so it has the
same edge invariants, degrees and Laplacians.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union

import numpy as np

from .errors import ContractError, ParseError

__all__ = [
    "Graph",
    "EdgeOperator",
    "parse_arcs",
    "parse_edge_list",
    "load_edge_list",
    "serialize_edge_list",
    "normalized_laplacian",
    "normalized_laplacian_from_adjacency",
    "laplacian_multiplier",
]

TextSource = Union[str, bytes, Iterable[str]]


@dataclass(frozen=True)
class Graph:
    """Undirected weighted graph on nodes 0..num_nodes-1.

    Each edge is stored exactly once as (u, v) with u < v, rows sorted
    lexicographically. ``node_ids[i]`` is the original id of node ``i`` when
    the graph came from a file; ``None`` for programmatically built graphs.
    Construction coerces edges to int64 (E, 2) and weights to float64 (E,)
    and raises ContractError unless the edges are in this canonical form,
    with endpoints in 0..num_nodes-1 and positive weights.
    """

    num_nodes: int
    edges: np.ndarray
    weights: np.ndarray
    node_ids: np.ndarray | None = None

    def __post_init__(self):
        edges = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        weights = np.asarray(self.weights, dtype=np.float64).reshape(-1)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "weights", weights)
        if self.num_nodes <= 0:
            raise ContractError("node universe must have at least one node")
        if len(edges) != len(weights):
            raise ContractError("edges and weights length mismatch")
        if len(edges) == 0:
            return
        if edges.min() < 0 or edges.max() >= self.num_nodes:
            raise ContractError("edge endpoint outside 0..num_nodes-1")
        if not (edges[:, 0] < edges[:, 1]).all():
            raise ContractError("edges must be stored as (u, v) with u < v")
        order = np.lexsort((edges[:, 1], edges[:, 0]))
        if not np.array_equal(order, np.arange(len(edges))):
            raise ContractError("edges must be lexicographically sorted")
        if len(edges) > 1 and (np.diff(edges, axis=0) == 0).all(axis=1).any():
            raise ContractError("duplicate edge")
        if (weights <= 0).any():
            raise ContractError("edge weights must be positive")

    @classmethod
    def from_edges(cls, num_nodes, pairs, weights=None, node_ids=None) -> "Graph":
        """Build a graph from unordered (u, v) pairs.

        Orientation is canonicalized to u < v and rows are sorted; self-loops
        and duplicates are rejected (use parse_edge_list for raw input that
        may contain them).
        """
        arr = np.asarray(list(pairs), dtype=np.int64).reshape(-1, 2)
        w = (
            np.ones(len(arr), dtype=np.float64)
            if weights is None
            else np.asarray(weights, dtype=np.float64).reshape(-1)
        )
        if len(arr):
            if (arr[:, 0] == arr[:, 1]).any():
                raise ContractError("self-loop in edge list")
            lo = np.minimum(arr[:, 0], arr[:, 1])
            hi = np.maximum(arr[:, 0], arr[:, 1])
            arr = np.stack([lo, hi], axis=1)
            order = np.lexsort((arr[:, 1], arr[:, 0]))
            arr = arr[order]
            w = w[order]
        return cls(num_nodes=num_nodes, edges=arr, weights=w, node_ids=node_ids)

    @classmethod
    def from_arcs(cls, arcs: np.ndarray) -> "Graph":
        """Undirected graph of raw (u, v) id arcs, as parse_edge_list builds it."""
        ids = np.unique(arcs)
        remapped = np.searchsorted(ids, arcs)
        lo = np.minimum(remapped[:, 0], remapped[:, 1])
        hi = np.maximum(remapped[:, 0], remapped[:, 1])
        keep = lo < hi
        pairs = np.unique(np.stack([lo[keep], hi[keep]], axis=1), axis=0)
        return cls(
            num_nodes=len(ids),
            edges=pairs,
            weights=np.ones(len(pairs), dtype=np.float64),
            node_ids=ids,
        )

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def degrees(self) -> np.ndarray:
        """Weighted degree of every node (length num_nodes)."""
        d = np.zeros(self.num_nodes, dtype=np.float64)
        if self.num_edges:
            np.add.at(d, self.edges[:, 0], self.weights)
            np.add.at(d, self.edges[:, 1], self.weights)
        return d

    def adjacency(self) -> np.ndarray:
        """Dense symmetric adjacency matrix."""
        a = np.zeros((self.num_nodes, self.num_nodes), dtype=np.float64)
        if self.num_edges:
            a[self.edges[:, 0], self.edges[:, 1]] = self.weights
            a[self.edges[:, 1], self.edges[:, 0]] = self.weights
        return a

    def normalized_laplacian(self) -> np.ndarray:
        """Symmetric normalized Laplacian (dense N x N)."""
        return normalized_laplacian_from_adjacency(self.adjacency())


def _iter_lines(text: TextSource) -> Iterable[str]:
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    if isinstance(text, str):
        return text.splitlines()
    return text


def parse_arcs(text: TextSource) -> np.ndarray:
    """Raw (u, v) id pairs of SNAP edge-list text as an int64 (E, 2) array.

    '#' lines and blank lines are skipped; nothing is deduplicated or
    remapped. Raises ParseError, with the line number, on a malformed line
    and on input without data lines.
    """
    arcs = []
    for lineno, raw in enumerate(_iter_lines(text), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(
                f"line {lineno}: expected two integer tokens, got {len(parts)}"
            )
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer token in {line!r}") from None
        arcs.append((u, v))
    if not arcs:
        raise ParseError("empty edge list: no data lines")
    return np.asarray(arcs, dtype=np.int64)


def parse_edge_list(text: TextSource) -> Graph:
    """Parse whitespace-separated SNAP edge-list text into a Graph.

    Lines starting with '#' are comments. Node ids are remapped to a
    contiguous 0..N-1 range preserving sorted original-id order; the node
    universe includes every id that appears as an endpoint, even if only in
    self-loops. Self-loops and duplicate edges are dropped, and reciprocal
    arcs of a directed file merge into one undirected edge of weight 1, so
    directed and undirected sources parse alike. ``text`` is a str, bytes
    or an iterable of lines.
    """
    return Graph.from_arcs(parse_arcs(text))


def load_edge_list(path) -> Graph:
    """parse_edge_list over the contents of a file path."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh)


def serialize_edge_list(g: Graph, comments: Iterable[str] = ()) -> str:
    """Render a graph back to SNAP text (contiguous ids, one edge per line).

    Isolated nodes have no representation in the format; callers that must
    preserve the universe (shard files) add a '# nodes:' header and use a
    reader that honors it.
    """
    lines = [f"# {c}" for c in comments]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def normalized_laplacian_from_adjacency(a: np.ndarray) -> np.ndarray:
    """Symmetric normalized Laplacian of a dense weighted adjacency matrix.

    L[i,j] = -w(i,j)/sqrt(d_i d_j) off the diagonal and L[i,i] = 1 for
    nodes with positive degree. Rows and columns of degree-0 nodes are all
    zeros, so downstream multipliers act as the identity there.

    The input must be square, symmetric, non-negative, and zero on the
    diagonal. The output is exactly symmetric by construction.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ContractError("adjacency must be square")
    n = a.shape[0]
    diag = np.diagonal(a)
    if len(diag) and np.abs(diag).max() != 0.0:
        raise ContractError("adjacency diagonal must be zero (no self-loops)")
    if a.size and a.min() < 0:
        raise ContractError("adjacency entries must be non-negative")
    d = a.sum(axis=1)
    inv_sqrt = np.zeros(n, dtype=np.float64)
    positive = d > 0
    inv_sqrt[positive] = 1.0 / np.sqrt(d[positive])
    # outer(inv, inv) is exactly symmetric, hence so is the product with a
    lap = a * np.multiply.outer(inv_sqrt, inv_sqrt)
    np.negative(lap, out=lap)
    idx = np.arange(n)
    lap[idx, idx] = np.where(positive, 1.0, 0.0)
    return lap


normalized_laplacian = Graph.normalized_laplacian


@dataclass(frozen=True)
class EdgeOperator:
    """Sparse symmetric N x N matrix: a diagonal plus off-diagonal entries.

    Entry (rows[i], cols[i]) holds vals[i]; both orientations of every edge
    are stored, sorted by (row, col). Memory is O(N + edges).
    """

    diag: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    @property
    def num_nodes(self) -> int:
        return len(self.diag)

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        return self.power(v, 1)

    def power(self, v: np.ndarray, times: int) -> np.ndarray:
        """self^times @ v for an N x K block, one bincount per column and step.

        Each output entry is its diagonal term plus its row's off-diagonal
        terms summed in stored order, so the result is bitwise deterministic
        and power(v, a + b) equals power(power(v, a), b). The steps run on the
        transposed K x N block, so each column of v is contiguous in memory.
        """
        v = np.asarray(v, dtype=np.float64)
        if v.ndim != 2 or v.shape[0] != self.num_nodes:
            raise ContractError(
                f"operand must be {self.num_nodes} x K, got {v.shape}"
            )
        vt = np.ascontiguousarray(v.T)
        for _ in range(times):
            out = self.diag * vt
            for j, col in enumerate(vt):
                out[j] += np.bincount(
                    self.rows,
                    weights=self.vals * col.take(self.cols),
                    minlength=self.num_nodes,
                )
            vt = out
        return np.ascontiguousarray(vt.T)


def laplacian_multiplier(g: Graph) -> EdgeOperator:
    """I - L of a graph, as a sparse EdgeOperator.

    Off-diagonal entries are w(u,v) / sqrt(d_u d_v). The diagonal is 0 on
    nodes with positive degree and 1 on isolated nodes, whose Laplacian
    rows are zero, so the operator passes them through unchanged.
    """
    d = g.degrees()
    inv_sqrt = np.zeros(g.num_nodes, dtype=np.float64)
    positive = d > 0
    inv_sqrt[positive] = 1.0 / np.sqrt(d[positive])
    u, v = g.edges[:, 0], g.edges[:, 1]
    vals = g.weights * (inv_sqrt[u] * inv_sqrt[v])
    rows = np.concatenate([u, v])
    cols = np.concatenate([v, u])
    order = np.lexsort((cols, rows))
    return EdgeOperator(
        diag=np.where(positive, 0.0, 1.0),
        rows=rows[order],
        cols=cols[order],
        vals=np.concatenate([vals, vals])[order],
    )
