"""Edge distribution across simulated clients with controlled overlap.

A shard is a Graph over the full node universe plus its client id (nodes
with no local edges are simply isolated there); each global edge is
replicated onto r distinct clients chosen uniformly at random,
r = max(1, round(overlap * C)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError, ParseError
from .graph import Graph, scan_edge_text, serialize_edge_list

__all__ = [
    "ClientShard",
    "shard_universe",
    "replication_count",
    "distribute_edges",
    "write_shard",
    "read_shard",
]


@dataclass(frozen=True, kw_only=True)
class ClientShard(Graph):
    """One client's private edge subset: a Graph over the full node universe."""

    client_id: int


def shard_universe(shards) -> int:
    """Node count shared by every shard; ContractError if none or they differ."""
    if not shards:
        raise ContractError("need at least one shard")
    n = shards[0].num_nodes
    if any(sh.num_nodes != n for sh in shards):
        raise ContractError("shards disagree on the node universe")
    return n


def replication_count(overlap: float, num_clients: int) -> int:
    """Map an overlap fraction to a per-edge replication count.

    r = max(1, round(overlap * C)) with ties rounding up; always within
    1..C for overlap in (0, 1].
    """
    if not 0.0 < overlap <= 1.0:
        raise ConfigError(f"overlap must be in (0, 1], got {overlap}")
    return max(1, int(math.floor(overlap * num_clients + 0.5)))


def distribute_edges(
    g: Graph, num_clients: int, overlap: float, seed: int
) -> list[ClientShard]:
    """Assign every edge to exactly r distinct clients chosen uniformly.

    r = replication_count(overlap, C); overlap r / C gives any r in 1..C.
    The per-edge client subsets are sampled independently (no balancing);
    the union of all shards is the global edge set, and the output is
    deterministic for a fixed seed.
    """
    if num_clients < 1:
        raise ConfigError(f"num_clients must be >= 1, got {num_clients}")
    r = replication_count(overlap, num_clients)

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
            num_nodes=g.num_nodes,
            edges=g.edges[member[:, c]],
            weights=g.weights[member[:, c]],
            client_id=c,
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
    comments = [f"client_id: {shard.client_id}"]
    if seed is not None:
        comments.append(f"seed: {seed}")
    comments.append(f"nodes: {shard.num_nodes}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_edge_list(shard, comments))


def read_shard(path) -> ClientShard:
    """Read a shard file written by write_shard.

    Edge orientation and order are made canonical; malformed data lines, a
    missing or non-integer '# client_id:'/'# nodes:' header, self-loops,
    duplicate edges (in either orientation) and endpoints outside the
    '# nodes:' universe raise ParseError, whose message starts with the path.
    """
    try:
        return _parse_shard(path)
    except (ParseError, ContractError) as exc:
        raise ParseError(f"{path}: {exc}") from None


def _parse_shard(path) -> ClientShard:
    """read_shard without the path in its error messages."""
    with open(path, "r", encoding="utf-8") as fh:
        arcs, numbers, comments = scan_edge_text(fh)
    header = {}
    for lineno, line in comments:
        key, _, value = line[1:].strip().partition(":")
        if key in ("client_id", "nodes"):
            try:
                header[key] = int(value)
            except ValueError:
                raise ParseError(f"line {lineno}: non-integer {key} header") from None
    loops = np.flatnonzero(arcs[:, 0] == arcs[:, 1])
    if len(loops):
        u, v = arcs[loops[0]]
        raise ParseError(f"line {numbers[loops[0]]}: self-loop {u} {v}")
    if len(header) != 2:
        raise ParseError("shard file is missing its client_id/nodes header")
    g = Graph.from_edges(header["nodes"], arcs)
    return ClientShard(
        g.num_nodes, g.edges, g.weights, client_id=header["client_id"]
    )
