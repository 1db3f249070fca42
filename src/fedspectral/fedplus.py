"""Server-coordinated power iteration protocol.

Each round the server broadcasts the current N x K embedding, every client
applies ``iters`` local multiplications by its shard multiplier M = I - L
(identity on shard-isolated nodes), and the server averages the replies in
ascending client-id order and re-orthonormalizes with a reduced QR. The
only payloads crossing the client boundary are embeddings.

M is a scipy CSR matrix built once per client from the shard's edge
arrays: O(N + shard edges) memory, and O(shard edges * K) work per local
step, where a dense N x N multiplier would cost O(N^2) of both.

Wire format (for substituting a network transport for the in-process one):
a frame is three little-endian int64 header words followed by the payload,

    tag     int64   round_index (server to client) or client_id (reply)
    rows    int64   N
    cols    int64   K
    payload rows*cols little-endian float64, row-major

as encode_frame below writes it; a receiver reads the header with
struct "<qqq" and the payload with np.frombuffer(frame, "<f8", offset=24).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .diagnostics import Diagnostics
from .errors import ConfigError, ContractError, ConvergenceError, RankError
from .graph import laplacian_multiplier
from .linalg import cluster_embedding_rows, reduced_qr
from .partition import ClientShard, shard_universe
from .seeding import embedding_seed, kmeans_seed

__all__ = [
    "BroadcastMessage",
    "ClientReply",
    "encode_frame",
    "shard_multiplier",
    "PowerIterationClient",
    "aggregate_round",
    "server_round_loop",
    "run_fedspectral_plus",
]

@dataclass(frozen=True)
class BroadcastMessage:
    """Server-to-client payload for one round."""

    round_index: int
    embedding: np.ndarray


@dataclass(frozen=True)
class ClientReply:
    """Client-to-server payload: the locally iterated embedding."""

    client_id: int
    embedding: np.ndarray


def encode_frame(tag: int, embedding: np.ndarray) -> bytes:
    """Serialize (tag, N x K float64 embedding) to the documented wire format."""
    emb = np.ascontiguousarray(embedding, dtype="<f8")
    if emb.ndim != 2:
        raise ContractError("embedding frame must be 2-d")
    return struct.pack("<qqq", tag, *emb.shape) + emb.tobytes(order="C")


def shard_multiplier(shard: ClientShard) -> sparse.csr_array:
    """Sparse client multiplier M = I - L.

    The zero Laplacian rows of shard-isolated nodes make M act as the
    identity there, passing the server's aggregated value through.
    """
    return laplacian_multiplier(shard)


class PowerIterationClient:
    """In-process client endpoint.

    Holds the private shard data internally and exposes only the round API:
    receive a broadcast embedding, return M^iters @ embedding with no
    internal normalization (safe: the spectral radius of M is at most 1).
    The multiplier is built once at construction.
    """

    def __init__(self, shard: ClientShard, iters: int):
        if iters < 1:
            raise ContractError(f"iters must be >= 1, got {iters}")
        self._client_id = shard.client_id
        self._iters = iters
        self._multiplier = shard_multiplier(shard)

    @property
    def client_id(self) -> int:
        return self._client_id

    def run_round(self, message: BroadcastMessage) -> ClientReply:
        v = np.asarray(message.embedding, dtype=np.float64)
        n = self._multiplier.shape[0]
        if v.ndim != 2 or v.shape[0] != n:
            raise ContractError(f"embedding must be {n} x K, got {v.shape}")
        for _ in range(self._iters):
            v = self._multiplier @ v
        return ClientReply(self._client_id, v)


def aggregate_round(client_outputs, *, round_index: int | None = None) -> np.ndarray:
    """Average client embeddings and re-orthonormalize.

    The mean is accumulated in ascending client-id order, anchored at the
    first output (v0 + sum(vi - v0)/C): a fixed reduction order that is
    bitwise exact when all clients agree, so full replication reduces the
    protocol exactly to single-client execution. Returns the Q factor of
    the reduced QR (non-negative diagonal convention).

    Raises RankError, tagged with the round index when given, if the
    average is rank deficient (e.g. sign-flipped client outputs cancel).
    """
    outputs = [np.asarray(o, dtype=np.float64) for o in client_outputs]
    if not outputs:
        raise ContractError("no client outputs to aggregate")
    shape = outputs[0].shape
    if any(o.shape != shape for o in outputs):
        raise ContractError("client outputs have mismatched shapes")

    anchor = outputs[0]
    acc = np.zeros_like(anchor)
    for out in outputs[1:]:
        acc += out - anchor
    mean = anchor + acc / len(outputs)
    try:
        q, _ = reduced_qr(mean)
    except RankError as exc:
        where = "" if round_index is None else f"round {round_index}: "
        raise RankError(f"{where}aggregated embedding is rank deficient ({exc})") from exc
    return q


def server_round_loop(
    transports,
    initial_basis: np.ndarray,
    global_rounds: int,
    *,
    diag: Diagnostics | None = None,
    on_round=None,
) -> np.ndarray:
    """Run the broadcast/iterate/aggregate rounds over client transports.

    The transports are anything with a ``run_round(BroadcastMessage) ->
    ClientReply`` method; this loop never touches shard data. Replies are
    aggregated in ascending client-id order, so the result is independent
    of transport order. ``on_round(round_index, basis)`` observes each
    post-aggregation basis.
    """
    basis = np.asarray(initial_basis, dtype=np.float64)
    for round_index in range(global_rounds):
        message = BroadcastMessage(round_index, basis)
        replies = [t.run_round(message) for t in transports]
        replies.sort(key=lambda reply: reply.client_id)
        candidate = aggregate_round(
            [reply.embedding for reply in replies], round_index=round_index
        )
        if not np.isfinite(candidate).all():
            raise ConvergenceError(f"round {round_index}: non-finite embedding")
        if diag is not None:
            residual = candidate - basis @ (basis.T @ candidate)
            # largest singular value: the spectral norm, without norm's moveaxis
            diag.round_drift.append(float(np.linalg.svd(residual, compute_uv=False)[0]))
        basis = candidate
        if on_round is not None:
            on_round(round_index, basis)
    return basis


def run_fedspectral_plus(
    shards: list[ClientShard],
    num_clusters: int,
    seed: int,
    *,
    iters: int = 1,
    global_rounds: int = 1,
    normalize_rows: bool = False,
    diag: Diagnostics | None = None,
    on_round=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Full protocol: random orthonormal start, rounds, final k-means.

    The initial embedding is iid standard normal from ``seed``,
    orthonormalized once before round 1 so the first round is conditioned
    like every later one. Returns (labeling, final embedding); fully
    deterministic for fixed shards and arguments.
    """
    for name, value in (
        ("num_clusters", num_clusters),
        ("iters", iters),
        ("global_rounds", global_rounds),
    ):
        if value < 1:
            raise ConfigError(f"{name} must be >= 1, got {value}")
    n = shard_universe(shards)
    if num_clusters > n:
        raise ContractError(f"num_clusters {num_clusters} exceeds node count {n}")

    transports = [PowerIterationClient(sh, iters) for sh in shards]
    rng = np.random.default_rng(embedding_seed(seed))
    basis, _ = reduced_qr(rng.standard_normal((n, num_clusters)))
    basis = server_round_loop(
        transports, basis, global_rounds, diag=diag, on_round=on_round
    )
    labels = cluster_embedding_rows(
        basis, num_clusters, kmeans_seed(seed), normalize_rows=normalize_rows
    )
    return labels, basis
