"""Edge distribution across simulated clients with controlled overlap.

A shard is a Graph over the full node universe plus its client id (nodes
with no local edges are simply isolated there); each global edge is
replicated onto r distinct clients chosen uniformly at random,
r = max(1, round(overlap * C)). distribute_edges draws the clients and
returns a ShardSequence, which builds each shard only when it is asked for;
per_client is the one way both protocols take their shards in.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError, check_counts
from .graph import Graph, serialize_edge_list

__all__ = [
    "ClientShard",
    "per_client",
    "replication_count",
    "distribute_edges",
    "ShardSequence",
    "write_shard",
]

# Keys per block of distribute_edges' row sort: about 2**14 / C edges at a
# time, so the block's order array stays near 128 KiB at any client count.
SORT_BLOCK = 2**14


@dataclass(frozen=True, kw_only=True)
class ClientShard(Graph):
    """One client's private edge subset: a Graph over the full node universe."""

    client_id: int


def per_client(shards, build) -> list:
    """``[build(shard)]`` for the shards of any iterable, in client-id order.

    Both protocols take their shards in here. Each shard goes to ``build``
    as it arrives, once its node universe agrees with the first shard's;
    ContractError if one disagrees, or if there was none. No name here
    holds a shard while ``build`` runs, so a shard its producer lets go
    dies as soon as ``build`` drops it, and at the latest when ``build``
    returns: given a ShardSequence, which builds its items per access, or
    its iterator, at most one shard exists at any moment, and a sequence
    that only its iterator holds dies, with its drawn partition, before
    ``build`` runs on the last shard.
    """
    ids, built, held = [], [], []
    for shard in shards:
        if not ids:
            n = shard.num_nodes
        elif shard.num_nodes != n:
            raise ContractError("shards disagree on the node universe")
        ids.append(shard.client_id)
        held.append(shard)
        del shard  # build gets the shard as a temporary, its one reference here
        built.append(build(held.pop()))
    if not ids:
        raise ContractError("need at least one shard")
    return [built[i] for i in sorted(range(len(ids)), key=ids.__getitem__)]


def replication_count(overlap: float, num_clients: int) -> int:
    """Map an overlap fraction to a per-edge replication count.

    r = max(1, round(overlap * C)) with ties rounding up; always within
    1..C for overlap in (0, 1] and C >= 1.
    """
    check_counts(num_clients=num_clients)
    if not 0.0 < overlap <= 1.0:
        raise ConfigError(f"overlap must be in (0, 1], got {overlap}")
    return max(1, int(math.floor(overlap * num_clients + 0.5)))


def distribute_edges(
    g: Graph, num_clients: int, overlap: float, seed: int
) -> ShardSequence:
    """Assign every edge to exactly r distinct clients chosen uniformly.

    r = replication_count(overlap, C); overlap r / C gives any r in 1..C.
    The per-edge client subsets are sampled independently (no balancing);
    the union of all shards is the global edge set, and the output is
    deterministic for a fixed seed.

    The clients are drawn at the call, where a bad overlap or client
    count raises ConfigError, and kept as each edge's r client ids, in
    the narrowest unsigned type that holds C - 1; the returned
    ShardSequence builds shard c from them each time item c is asked
    for, so ``shards[0] is shards[0]`` is False.
    """
    r = replication_count(overlap, num_clients)

    rng = np.random.default_rng(seed)
    num_edges = g.num_edges
    # edge e's j-th client is ids[j, e]
    ids = np.empty((r, num_edges), dtype=np.min_scalar_type(num_clients - 1))
    edge_counts = np.zeros(num_clients, dtype=np.int64)
    # the r smallest of C iid uniform keys form a uniform r-subset;
    # stable argsort keeps the draw reproducible across versions
    # and breaks a tie between keys towards the lower client.
    # Drawn and sorted in row blocks, one stream of keys in edge-major
    # order, so no E x C key or order array ever exists
    step = max(1, SORT_BLOCK // num_clients)
    for lo in range(0, num_edges, step):
        keys = rng.random((min(step, num_edges - lo), num_clients))
        order = np.argsort(keys, axis=1, kind="stable")
        ids[:, lo : lo + len(order)] = order[:, :r].T
        edge_counts += np.bincount(order[:, :r].reshape(-1), minlength=num_clients)
    return ShardSequence(g, ids, edge_counts)


class ShardSequence(Sequence):
    """The C client shards of one distribute_edges draw, built on demand.

    It keeps the graph and each edge's r client ids, rank-major (r x E, 1
    byte an edge-copy below 257 clients), never a shard: item c gathers
    client c's edges, in global order, each time it is asked for, with one
    pass over the r x E ids (negative indices count from the end;
    IndexError past either end). Iteration builds one shard per step and
    keeps none, so a consumer that lets each go holds one shard at a time,
    and the iterator lets go of the sequence before it hands over the last
    shard: a sequence that only its iterator holds dies, with its client
    ids, while the last shard is in use. ``edge_counts`` is each client's
    edge count, known without building a shard.
    """

    def __init__(self, g: Graph, ids: np.ndarray, edge_counts: np.ndarray):
        self._graph = g
        self._ids = ids
        self.edge_counts = edge_counts
        ids.flags.writeable = edge_counts.flags.writeable = False

    def __len__(self) -> int:
        return len(self.edge_counts)

    def __getitem__(self, c) -> ClientShard:
        c = operator.index(c)
        if not -len(self) <= c < len(self):
            raise IndexError(f"client {c} out of range for {len(self)} clients")
        c %= len(self)
        # an edge's r clients are distinct, so an edge is client c's
        # when any rank names c; ascending edge order is the global order
        mine = self._ids[0] == c
        for rank in self._ids[1:]:
            mine |= rank == c
        picked = np.flatnonzero(mine)
        # np.take gathers the rows several times faster than ``g.edges[picked]``
        g = self._graph
        return ClientShard(
            num_nodes=g.num_nodes,
            edges=np.take(g.edges, picked, axis=0),
            weights=np.take(g.weights, picked),
            client_id=c,
        )

    def __iter__(self):
        # No local name holds a shard while the next one is built, and the
        # last shard is built from the sequence popped off a list, so no
        # name holds the sequence while the consumer uses that shard.
        last = len(self) - 1
        held = [self]
        del self
        for c in range(last):
            yield held[0][c]
        if last >= 0:
            yield held.pop()[last]


def write_shard(shard: ClientShard, path, seed: int, node_ids=None) -> None:
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
    comments = [f"client_id: {shard.client_id}", f"seed: {seed}", f"nodes: {shard.num_nodes}"]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_edge_list(shard, comments, node_ids))
