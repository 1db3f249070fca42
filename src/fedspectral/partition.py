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

from .errors import ConfigError, ContractError
from .graph import Graph, serialize_edge_list

__all__ = [
    "ClientShard",
    "same_universe",
    "replication_count",
    "distribute_edges",
    "write_shard",
]


@dataclass(frozen=True, kw_only=True)
class ClientShard(Graph):
    """One client's private edge subset: a Graph over the full node universe."""

    client_id: int


def same_universe(shards):
    """Yield the shards of any iterable as they come, checking them on the
    way: ContractError once a shard disagrees with the first on the node
    universe, or at the end if there was none."""
    n = None
    for shard in shards:
        if n is None:
            n = shard.num_nodes
        elif shard.num_nodes != n:
            raise ContractError("shards disagree on the node universe")
        yield shard
    if n is None:
        raise ContractError("need at least one shard")


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
    # client-major, so each client's row of the mask is contiguous
    member = np.zeros((num_clients, num_edges), dtype=bool)
    if num_edges:
        if r == num_clients:
            member[:] = True
        else:
            # the r smallest of C iid uniform keys form a uniform r-subset;
            # stable argsort keeps the draw reproducible across versions
            # and breaks a tie between keys towards the lower client
            keys = rng.random((num_edges, num_clients))
            order = np.argsort(keys, axis=1, kind="stable")
            # the E x C keys and order are freed before the shards are built
            del keys
            # edge e's j-th client c is flat entry c * E + e of the mask;
            # one scatter per rank is cheaper than one 2-d fancy index
            flat, edge = member.reshape(-1), np.arange(num_edges)
            for j in range(r):
                flat[order[:, j] * num_edges + edge] = True
            del order

    # each shard's edges by index, in global order: np.take gathers the
    # rows several times faster than a boolean mask or ``g.edges[picked]``
    return [
        ClientShard(
            num_nodes=g.num_nodes,
            edges=np.take(g.edges, picked, axis=0),
            weights=np.take(g.weights, picked),
            client_id=c,
        )
        for c, picked in enumerate(map(np.flatnonzero, member))
    ]


def write_shard(shard: ClientShard, path, seed: int | None = None, node_ids=None) -> None:
    """Write a shard as SNAP edge-list text with a provenance header.

    ``node_ids`` maps the shard's contiguous ids back to the dataset's
    (``Graph.node_ids``); without it the contiguous ids are written.
    The '# nodes:' header records the full node universe, which the bare
    edge list cannot represent for isolated nodes. The format is
    write-only (nothing in the package reads shard files back) and has no
    weight column, so a shard with any weight other than 1 raises
    ContractError rather than being written lossily.
    """
    if (shard.weights != 1.0).any():
        raise ContractError("shard files store unit weights only")
    comments = [f"client_id: {shard.client_id}"]
    if seed is not None:
        comments.append(f"seed: {seed}")
    comments.append(f"nodes: {shard.num_nodes}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_edge_list(shard, comments, node_ids))
