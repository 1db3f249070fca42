"""Edge distribution across simulated clients with controlled overlap.

Every shard spans the full node universe (nodes with no local edges are
simply isolated there); each global edge is replicated onto r distinct
clients chosen uniformly at random, r = max(1, round(overlap * C)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError, ParseError
from .graph import (
    Graph,
    adjacency_from_edges,
    check_canonical_edges,
    normalized_laplacian_from_adjacency,
)

__all__ = [
    "ClientShard",
    "replication_count",
    "distribute_edges",
    "write_shard",
    "read_shard",
]


@dataclass(frozen=True)
class ClientShard:
    """One client's private edge subset over the full node universe.

    Edges are canonical as in Graph: stored once as (u, v) with u < v,
    sorted lexicographically, with positive weights.
    """

    client_id: int
    num_nodes: int
    edges: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        check_canonical_edges(self)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def normalized_laplacian(self) -> np.ndarray:
        adjacency = adjacency_from_edges(self.num_nodes, self.edges, self.weights)
        return normalized_laplacian_from_adjacency(adjacency)


def replication_count(overlap: float, num_clients: int) -> int:
    """Map an overlap fraction to a per-edge replication count.

    r = max(1, round(overlap * C)) with ties rounding up; always within
    1..C for overlap in (0, 1].
    """
    if not 0.0 < overlap <= 1.0:
        raise ConfigError(f"overlap must be in (0, 1], got {overlap}")
    return max(1, int(math.floor(overlap * num_clients + 0.5)))


def distribute_edges(
    g: Graph,
    num_clients: int,
    overlap: float,
    seed: int,
    *,
    replication: int | None = None,
) -> list[ClientShard]:
    """Assign every edge to exactly r distinct clients chosen uniformly.

    The per-edge client subsets are sampled independently (no balancing);
    the union of all shards is the global edge set, and the output is
    deterministic for a fixed seed. ``replication`` overrides the rounding
    of overlap * C when given.
    """
    if num_clients < 1:
        raise ConfigError(f"num_clients must be >= 1, got {num_clients}")
    r = replication_count(overlap, num_clients)  # validates overlap in every case
    if replication is not None:
        r = replication
    if not 1 <= r <= num_clients:
        raise ConfigError(f"replication must be in 1..{num_clients}, got {r}")

    rng = np.random.default_rng(seed)
    num_edges = g.num_edges
    member = np.zeros((num_edges, num_clients), dtype=bool)
    if num_edges:
        if r == num_clients:
            member[:] = True
        else:
            # the r smallest of C iid uniform keys form a uniform r-subset;
            # stable argsort keeps the draw reproducible across versions
            keys = rng.random((num_edges, num_clients))
            chosen = np.argsort(keys, axis=1, kind="stable")[:, :r]
            member[np.arange(num_edges)[:, None], chosen] = True

    return [
        ClientShard(
            client_id=c,
            num_nodes=g.num_nodes,
            edges=g.edges[member[:, c]],
            weights=g.weights[member[:, c]],
        )
        for c in range(num_clients)
    ]


def write_shard(shard: ClientShard, path, seed: int | None = None) -> None:
    """Write a shard as SNAP edge-list text with a provenance header.

    The '# nodes:' header preserves the full node universe, which the bare
    edge list cannot represent for isolated nodes. The format has no weight
    column, so a shard with any weight other than 1 raises ContractError
    rather than being written lossily.
    """
    if (shard.weights != 1.0).any():
        raise ContractError("shard files store unit weights only")
    lines = [f"# client_id: {shard.client_id}"]
    if seed is not None:
        lines.append(f"# seed: {seed}")
    lines.append(f"# nodes: {shard.num_nodes}")
    lines.extend(f"{u} {v}" for u, v in shard.edges)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_shard(path) -> ClientShard:
    """Read a shard file written by write_shard.

    Edge orientation and order are made canonical; a missing or non-integer
    '# client_id:'/'# nodes:' header, self-loops, duplicate edges (in either
    orientation) and endpoints outside the '# nodes:' universe raise
    ParseError.
    """
    header = {}
    pairs = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, _, value = line[1:].strip().partition(":")
                if key in ("client_id", "nodes"):
                    try:
                        header[key] = int(value)
                    except ValueError:
                        raise ParseError(
                            f"line {lineno}: non-integer {key} header"
                        ) from None
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ParseError(f"line {lineno}: expected two integer tokens")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise ParseError(f"line {lineno}: non-integer token") from None
            if u == v:
                raise ParseError(f"line {lineno}: self-loop {u} {v}")
            pairs.append((u, v))
    if len(header) != 2:
        raise ParseError("shard file is missing its client_id/nodes header")
    try:
        g = Graph.from_edges(header["nodes"], pairs)
    except ContractError as exc:
        raise ParseError(f"{path}: {exc}") from None
    return ClientShard(header["client_id"], g.num_nodes, g.edges, g.weights)
