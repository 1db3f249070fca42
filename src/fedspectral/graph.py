"""Undirected graphs over a fixed node universe.

Covers SNAP-style edge-list ingestion, canonical in-memory representation,
and the symmetric normalized Laplacian L and the multiplier I - L, both as
scipy CSR matrices of O(edges) memory built from one body. Every runtime
graph is a Graph (a client shard, partition.ClientShard, is a Graph with a
client id; the baseline server builds no graph, only the twin-class
quotient of its similarity graph), so the Laplacian of an adjacency
matrix is only a test oracle. Node ids are
contiguous 0..num_nodes-1 after remapping, with the original ids retained
so results can be written back in source-file terms.
"""

from __future__ import annotations

import io
import warnings
from dataclasses import dataclass
from typing import Iterable

import numpy as np
from scipy import sparse

from .errors import ContractError, ParseError, _read_text

__all__ = [
    "Graph",
    "parse_arcs",
    "read_arcs",
    "parse_edge_list",
    "load_edge_list",
    "serialize_edge_list",
    "normalized_laplacian",
    "normalized_laplacian_from_adjacency",
    "laplacian_multiplier",
]


@dataclass(frozen=True)
class Graph:
    """Undirected weighted graph on nodes 0..num_nodes-1.

    Each edge is stored exactly once as (u, v) with u < v, rows sorted
    lexicographically. ``node_ids[i]`` is the original id of node ``i`` when
    the graph came from a file; ``None`` for programmatically built graphs.
    Construction coerces edges to int64 (E, 2) and weights to float64 (E,)
    and raises ContractError unless the edges are in this canonical form,
    with endpoints in 0..num_nodes-1 and positive, finite weights.
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
        # u * N + v orders edges as (u, v) does; in place to spare a temporary
        key = edges[:, 0] * self.num_nodes
        key += edges[:, 1]
        step = np.diff(key).min(initial=1)
        if step < 0:
            raise ContractError("edges must be lexicographically sorted")
        if step == 0:
            raise ContractError("duplicate edge")
        if not (np.isfinite(weights) & (weights > 0)).all():
            raise ContractError("edge weights must be positive and finite")

    @classmethod
    def from_edges(cls, num_nodes, pairs, weights=None, node_ids=None) -> "Graph":
        """Build a graph from unordered (u, v) pairs.

        Orientation is canonicalized to u < v and rows are sorted; self-loops
        and duplicates are rejected (use parse_edge_list for raw input that
        may contain them).
        """
        if not isinstance(pairs, np.ndarray):
            pairs = list(pairs)
        arr = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        w = np.ones(len(arr)) if weights is None else np.ravel(weights)
        if len(w) != len(arr):
            raise ContractError("edges and weights length mismatch")
        if (arr[:, 0] == arr[:, 1]).any():
            raise ContractError("self-loop in edge list")
        arr = np.sort(arr, axis=1)
        order = np.lexsort((arr[:, 1], arr[:, 0]))
        return cls(num_nodes, arr[order], w[order], node_ids=node_ids)

    @classmethod
    def from_arcs(cls, arcs: np.ndarray) -> "Graph":
        """Undirected graph of raw (u, v) id arcs, as parse_edge_list builds it."""
        ids, inverse = np.unique(arcs, return_inverse=True)
        u, v = inverse.reshape(arcs.shape).T
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        n = len(ids)
        # dedupe scalar keys by sort and diff; np.unique hashes them, far slower
        keys = np.sort((lo * n + hi)[lo < hi])
        keys = keys[np.diff(keys, prepend=-1) != 0]
        return cls(n, np.stack(np.divmod(keys, n), axis=1), np.ones(len(keys)), ids)

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

    def normalized_laplacian(self) -> sparse.csr_array:
        """Symmetric normalized Laplacian I - laplacian_multiplier(self), CSR.

        Off-diagonal entries are -w(u,v) / sqrt(d_u d_v) and the diagonal
        is 1, except that rows of isolated nodes are all zero, so an
        edgeless graph gives a matrix with no stored entries. The matrix is
        canonical: sorted column indices, no duplicates, no stored zeros.
        """
        return _scaled_adjacency(self, laplacian=True)


def _int_pairs(lines: list[str], delimiter: str | None = None) -> np.ndarray | None:
    """Lines as an int64 (E, 2) array, or None unless each is two int64
    cells, split at ``delimiter`` (whitespace when None)."""
    try:
        arr = np.loadtxt(lines, dtype=np.int64, delimiter=delimiter, comments=None, ndmin=2)
    except ValueError:
        return None
    return arr if arr.shape[1] == 2 else None


def _parse_int_pairs(
    data: list[str], numbers: list[int], delimiter: str | None = None
) -> np.ndarray:
    """_int_pairs of the data lines ``data``, whose line numbers are
    ``numbers``; the first line that is not two int64 cells raises the
    ParseError that names it."""
    pairs = _int_pairs(data, delimiter)
    if pairs is None:
        # a run of lines parses exactly when each of its lines does, so halve
        # the failing run [lo, hi) down to its first bad line; every line
        # before lo is good
        lo, hi = 0, len(data)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if _int_pairs(data[lo:mid], delimiter) is None:
                hi = mid
            else:
                lo = mid
        msg = f"expected two integers in the int64 range, got {data[lo]!r}"
        raise ParseError(f"line {numbers[lo]}: {msg}")
    return pairs


def parse_arcs(text: str) -> np.ndarray:
    r"""Raw (u, v) id pairs of SNAP edge-list text as an int64 (E, 2) array.

    A line ends at '\n', '\r\n' or '\r', as in a file read with universal
    newlines; any other character str.splitlines breaks at ('\x0c',
    '\u2028', ...) is whitespace inside its line. '#' lines and blank
    lines are skipped; nothing is deduplicated or remapped. A data line is
    two whitespace-separated integers in the int64 range, ASCII digits
    with an optional sign. Anything else (a third token, an inline
    '# note', '1_0', '1.0', an id outside int64) raises ParseError naming
    its 1-based line, as does text without data lines.
    """
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    arcs = _whole_text_arcs(text)
    return _parse_lines(text.split("\n")) if arcs is None else arcs


def read_arcs(path) -> np.ndarray:
    """parse_arcs over the contents of a file path; each ParseError names
    the file once, as ``<path>: line N: ...``."""
    with open(path, "r", encoding="utf-8") as fh:
        text = _read_text(fh)  # names the file on a byte that is not UTF-8
    try:
        return parse_arcs(text)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from None


def _whole_text_arcs(text: str) -> np.ndarray | None:
    r"""The arcs of '\n'-broken text in one loadtxt pass, or None when the
    per-line rule must decide: an inline '#', a malformed line, no data."""
    # loadtxt would cut '0 1 # note' to a valid row; the rule rejects it
    pos = text.find("#")
    while pos >= 0:
        start = text.rfind("\n", 0, pos) + 1
        if text[start:pos].strip():
            return None
        end = text.find("\n", pos)
        pos = -1 if end < 0 else text.find("#", end)
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            arcs = np.loadtxt(io.StringIO(text), dtype=np.int64, comments="#", ndmin=2)
    except ValueError:
        return None
    return arcs if len(arcs) and arcs.shape[1] == 2 else None


def _parse_lines(lines: list[str]) -> np.ndarray:
    """parse_arcs over one line per element, skipping blank and '#' lines
    in Python; raises the ParseError that names a malformed line."""
    data, numbers = [], []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            data.append(line)
            numbers.append(lineno)
    if not data:
        raise ParseError("empty edge list: no data lines")
    return _parse_int_pairs(data, numbers)


def parse_edge_list(text: str) -> Graph:
    """Parse whitespace-separated SNAP edge-list text into a Graph.

    Lines starting with '#' are comments. Node ids are remapped to a
    contiguous 0..N-1 range preserving sorted original-id order; the node
    universe includes every id that appears as an endpoint, even if only in
    self-loops. Self-loops and duplicate edges are dropped, and reciprocal
    arcs of a directed file merge into one undirected edge of weight 1, so
    directed and undirected sources parse alike. ``text`` breaks into
    lines as in parse_arcs.
    """
    return Graph.from_arcs(parse_arcs(text))


def load_edge_list(path) -> Graph:
    """parse_edge_list over the contents of a file path; a ParseError names
    the file."""
    return Graph.from_arcs(read_arcs(path))


def serialize_edge_list(g: Graph, comments: Iterable[str] = (), node_ids=None) -> str:
    """Render a graph back to SNAP text, one edge per line.

    Node ``i`` is written as ``node_ids[i]``, or as ``i`` without
    ``node_ids``. Isolated nodes have no representation in the format;
    callers that must record the universe (shard files) add a '# nodes:'
    header, which parse_edge_list skips as a comment.
    """
    header = "".join(f"# {c}\n" for c in comments)
    edges = g.edges if node_ids is None else np.asarray(node_ids)[g.edges]
    # one %-format over Python ints, 10x faster than a line per numpy row; "" is "\n"
    return header + ("%d %d\n" * g.num_edges) % tuple(edges.ravel().tolist()) or "\n"


def normalized_laplacian_from_adjacency(a) -> sparse.csr_array:
    """Symmetric normalized Laplacian of a weighted adjacency matrix, CSR.

    A test oracle with no runtime caller (bench/layers.py still traces it).
    ``a`` is dense or sparse, square, symmetric and zero on the diagonal.
    The result is Graph.normalized_laplacian of the graph whose edges are
    the nonzero entries above the diagonal, so the Graph contract rejects
    negative and non-finite weights; rows and columns of degree-0 nodes
    are all zeros.
    """
    a = sparse.csr_array(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ContractError("adjacency must be square")
    if a.diagonal().any():
        raise ContractError("adjacency diagonal must be zero (no self-loops)")
    if (a != a.T).nnz:
        raise ContractError("adjacency must be symmetric")
    upper = sparse.triu(a, k=1, format="csr").tocoo()
    keep = upper.data != 0
    edges = np.stack([upper.row, upper.col], axis=1)[keep]
    return Graph(a.shape[0], edges, upper.data[keep]).normalized_laplacian()


normalized_laplacian = Graph.normalized_laplacian


def laplacian_multiplier(g: Graph) -> sparse.csr_array:
    """I - L of a graph, as a canonical scipy CSR matrix.

    Off-diagonal entries are w(u,v) / sqrt(d_u d_v). Isolated nodes, whose
    Laplacian rows are zero, store a 1 on the diagonal, so the multiplier
    passes them through unchanged; no other diagonal entry is stored.
    Column indices are sorted within each row, so ``M @ v`` sums every
    row's terms in ascending column order.
    """
    return _scaled_adjacency(g, laplacian=False)


# Largest index or entry count that an int32 CSR index array can hold.
INT32_INDEX_MAX = np.iinfo(np.int32).max


def index_dtype(maxval: int) -> type:
    """Index width of a sparse matrix whose dimensions and stored entries
    are at most ``maxval``: int32 when that fits in int32, else int64.
    Every CSR the package builds takes its indices and indptr in this
    width, the rule scipy's own constructors follow."""
    return np.int32 if maxval <= INT32_INDEX_MAX else np.int64


def _scaled_adjacency(g: Graph, *, laplacian: bool) -> sparse.csr_array:
    """L (``laplacian``) or I - L, whose off-diagonal entries are negations;
    the diagonal 1s go to nodes with edges in L, to isolated nodes in I - L.

    The entries are listed so that each row's come in ascending column
    order: the (v, u) entries of the sorted edges, then the diagonal, then
    the (u, v) entries. The COO to CSR step keeps the listed order within
    a row, so the matrix comes out canonical and scipy skips its index
    sort. The coordinates are made in index_dtype's width, which scipy
    keeps for the CSR arrays: int32 halves the indices, and int32 CSR
    products are as fast as int64 ones, with the same bits.
    """
    d = g.degrees()
    inv_sqrt = np.zeros(g.num_nodes, dtype=np.float64)
    positive = d > 0
    inv_sqrt[positive] = 1.0 / np.sqrt(d[positive])
    u, v = g.edges[:, 0], g.edges[:, 1]
    vals = g.weights * (inv_sqrt[u] * inv_sqrt[v])
    if laplacian:
        np.negative(vals, out=vals)
    unit = np.flatnonzero(positive == laplacian)
    n = g.num_nodes
    width = index_dtype(max(n, 2 * g.num_edges + len(unit)))
    rows = np.concatenate([v, unit, u], dtype=width)
    cols = np.concatenate([u, unit, v], dtype=width)
    vals = np.concatenate([vals, np.ones(len(unit)), vals])
    return sparse.csr_array((vals, (rows, cols)), shape=(n, n))

