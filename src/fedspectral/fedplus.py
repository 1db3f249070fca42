"""Server-coordinated power iteration protocol.

Each round the server broadcasts the current N x K embedding, every client
applies ``iters`` local multiplications by its shard multiplier M = I - L
(identity on shard-isolated nodes), and the server averages the replies in
ascending client-id order and re-orthonormalizes with a reduced QR. The
only payloads crossing the client boundary are embeddings.

M is a sparse EdgeOperator built once per client from the shard's edge
arrays: O(N + shard edges) memory, and O(shard edges * K) work per local
step, where a dense N x N multiplier would cost O(N^2) of both.

Wire format (for substituting a network transport for the in-process one):
a frame is three little-endian int64 header words followed by the payload,

    tag     int64   round_index (server to client) or client_id (reply)
    rows    int64   N
    cols    int64   K
    payload rows*cols little-endian float64, row-major

encoded/decoded by encode_frame/decode_frame below.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .diagnostics import Diagnostics
from .errors import ConfigError, ContractError, ConvergenceError, RankError
from .graph import EdgeOperator, laplacian_multiplier
from .linalg import cluster_embedding_rows, reduced_qr
from .partition import ClientShard, shard_universe
from .seeding import embedding_seed, kmeans_seed

__all__ = [
    "FedPlusConfig",
    "BroadcastMessage",
    "ClientReply",
    "encode_frame",
    "decode_frame",
    "shard_multiplier",
    "PowerIterationClient",
    "aggregate_round",
    "server_round_loop",
    "run_fedspectral_plus",
]

_HEADER = struct.Struct("<qqq")


@dataclass(frozen=True)
class FedPlusConfig:
    """Protocol parameters: embedding width, local iterations, rounds, seed."""

    num_clusters: int
    iters: int = 1
    global_rounds: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.num_clusters < 1:
            raise ConfigError(f"num_clusters must be >= 1, got {self.num_clusters}")
        if self.iters < 1:
            raise ConfigError(f"iters must be >= 1, got {self.iters}")
        if self.global_rounds < 1:
            raise ConfigError(
                f"global_rounds must be >= 1, got {self.global_rounds}"
            )


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
    return _HEADER.pack(tag, emb.shape[0], emb.shape[1]) + emb.tobytes(order="C")


def decode_frame(data: bytes) -> tuple[int, np.ndarray]:
    """Inverse of encode_frame."""
    tag, rows, cols = _HEADER.unpack_from(data)
    payload = np.frombuffer(data, dtype="<f8", offset=_HEADER.size)
    if payload.size != rows * cols:
        raise ContractError("frame payload size disagrees with header")
    return tag, payload.reshape(rows, cols).astype(np.float64)


def shard_multiplier(shard: ClientShard) -> EdgeOperator:
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
        v = self._multiplier.power(message.embedding, self._iters)
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
    map_fn=map,
) -> np.ndarray:
    """Run the broadcast/iterate/aggregate rounds over client transports.

    The transports are anything with a ``run_round(BroadcastMessage) ->
    ClientReply`` method; this loop never touches shard data. Replies are
    aggregated in ascending client-id order, so the result is independent
    of completion order, and ``map_fn`` may be a thread pool's ``map``.
    ``on_round(round_index, basis)`` observes each post-aggregation basis.
    """
    basis = np.asarray(initial_basis, dtype=np.float64)
    for round_index in range(global_rounds):
        message = BroadcastMessage(round_index, basis)
        replies = list(map_fn(lambda t: t.run_round(message), transports))
        replies.sort(key=lambda reply: reply.client_id)
        candidate = aggregate_round(
            [reply.embedding for reply in replies], round_index=round_index
        )
        if not np.isfinite(candidate).all():
            raise ConvergenceError(f"round {round_index}: non-finite embedding")
        if diag is not None:
            residual = candidate - basis @ (basis.T @ candidate)
            diag.round_drift.append(float(np.linalg.norm(residual, ord=2)))
        basis = candidate
        if on_round is not None:
            on_round(round_index, basis)
    return basis


def run_fedspectral_plus(
    shards: list[ClientShard],
    cfg: FedPlusConfig,
    *,
    normalize_rows: bool = False,
    diag: Diagnostics | None = None,
    on_round=None,
    map_fn=map,
) -> tuple[np.ndarray, np.ndarray]:
    """Full protocol: random orthonormal start, rounds, final k-means.

    The initial embedding is iid standard normal from the config seed,
    orthonormalized once before round 1 so the first round is conditioned
    like every later one. Returns (labeling, final embedding); fully
    deterministic for fixed (shards, cfg).
    """
    n = shard_universe(shards)
    if cfg.num_clusters > n:
        raise ContractError(
            f"num_clusters {cfg.num_clusters} exceeds node count {n}"
        )

    transports = [PowerIterationClient(sh, cfg.iters) for sh in shards]
    rng = np.random.default_rng(embedding_seed(cfg.seed))
    basis, _ = reduced_qr(rng.standard_normal((n, cfg.num_clusters)))
    basis = server_round_loop(
        transports,
        basis,
        cfg.global_rounds,
        diag=diag,
        on_round=on_round,
        map_fn=map_fn,
    )
    labels = cluster_embedding_rows(
        basis, cfg.num_clusters, kmeans_seed(cfg.seed), normalize_rows=normalize_rows
    )
    return labels, basis
