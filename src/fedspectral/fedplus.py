"""Server-coordinated power iteration protocol.

Each round the server broadcasts the current N x K embedding, every client
applies ``iters`` local multiplications by its shard multiplier M = I - L
(identity on shard-isolated nodes), and the server folds the replies into
their mean in ascending client-id order and re-orthonormalizes it with a
reduced QR. The only payloads crossing the client boundary are embeddings.

``global_rounds`` is a cap. After each round the server, which holds the
broadcast and the aggregated basis, computes their subspace drift (the
spectral norm of the part of the new basis outside the old one's span,
subspace_drift), and stops after the first round whose drift is at most
STOP_DRIFT: the standard orthogonal-iteration stopping rule. Once the
subspace has settled, a further round only rotates the basis inside it,
which k-means on the rows does not see. The paper runs a fixed number
of rounds, so the stop is an extension. Per-round telemetry is the
caller's: one observer, ``on_round``, sees each round's broadcast and
aggregated bases and their drift.

The clients of a round run one after another, or, when each client's
round is large enough to pay for a thread hand-off (POOL_MIN_WORK), on a
pool of one thread per usable core: scipy's CSR product releases the
interpreter lock. The pool always has the next client queued, so a thread
that finishes one client starts the next while the calling thread folds.
Either way the replies are folded in client-id order, in their own
buffers, so the schedule never changes a bit of the result. The whole
protocol runs with the bundled OpenBLAS pools held at one thread
(linalg.one_blas_thread), whose spin-waiting would otherwise take the
core a concurrent client needs.

M is a scipy CSR matrix built once per client from the shard's edge
arrays: O(N + shard edges) memory, and O(shard edges * K) work per local
step, where a dense N x N multiplier would cost O(N^2) of both.

Every large buffer dies at its last use, so a trial holds, phase by phase:
while the clients are built, the multipliers so far and what
partition.per_client holds; in a serial round, the multipliers and four
N x K arrays (the broadcast, the anchor, the running sum and one reply);
in a pooled round, up to ``workers + 1`` more replies in flight; in the
final k-means, the final basis only.

Wire format (for substituting a network transport for the in-process one):
a frame is three little-endian int64 header words followed by the payload,

    tag     int64   round_index (server to client) or client_id (reply)
    rows    int64   N
    cols    int64   K
    payload rows*cols little-endian float64, row-major

as encode_frame below writes it; a receiver reads the header with
struct "<qqq" and the payload with np.frombuffer(frame, "<f8", offset=24).
The server folds each reply in its own buffer, so a network transport
should decode replies into writable buffers (np.frombuffer of a bytes
frame is read-only, and aggregate_round copies such a reply first).
"""

from __future__ import annotations

import os
import struct
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import islice
from typing import Iterable

import numpy as np

from . import linalg
from .errors import ContractError, ConvergenceError, RankError, check_cluster_count, check_counts
from .graph import laplacian_multiplier
from .linalg import one_blas_thread, reduced_qr
from .partition import ClientShard, per_client
from .seeding import embedding_seed, kmeans_seed

__all__ = [
    "BroadcastMessage",
    "ClientReply",
    "encode_frame",
    "PowerIterationClient",
    "aggregate_round",
    "STOP_DRIFT",
    "subspace_drift",
    "settled",
    "server_round_loop",
    "run_fedspectral_plus",
]

# Smallest client round (multiplier entries x K x iters, of the smallest
# client) that runs the clients on a thread pool. On a 2-vCPU Xeon, with one
# BLAS thread, the pooled round loop took 1.6x the serial one at 1.3e5 (the
# email shape at iters=1), 1.08x at 5.1e5, 0.91x at 9.5e5, 0.81x at 1.4e6
# and 0.70x at 4.2e6 (the facebook shape at iters=6).
POOL_MIN_WORK = 1_000_000

# The round loop stops after the first round whose subspace drift is at
# most this: three decades above the 1e-15 at which the drift of a
# settled basis sits on the benchmark graphs.
STOP_DRIFT = 1e-12


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


# a client's multiplier M = I - L; bench/layers.py traces this name
shard_multiplier = laplacian_multiplier


class PowerIterationClient:
    """In-process client endpoint.

    Holds the private shard data internally and exposes only the round API:
    receive a broadcast embedding, return M^iters @ embedding with no
    internal normalization (safe: the spectral radius of M is at most 1).
    The multiplier is built once at construction.
    """

    def __init__(self, shard: ClientShard, iters: int):
        check_counts(iters=iters)
        self._client_id = shard.client_id
        self._iters = iters
        self._multiplier = shard_multiplier(shard)

    @property
    def client_id(self) -> int:
        return self._client_id

    @property
    def num_nodes(self) -> int:
        return self._multiplier.shape[0]

    @property
    def stored_entries(self) -> int:
        """Entries of the multiplier: one local step costs this times K."""
        return self._multiplier.nnz

    def run_round(self, message: BroadcastMessage) -> ClientReply:
        v = np.asarray(message.embedding, dtype=np.float64)
        n = self.num_nodes
        if v.ndim != 2 or v.shape[0] != n:
            raise ContractError(f"embedding must be {n} x K, got {v.shape}")
        for _ in range(self._iters):
            v = self._multiplier @ v
        return ClientReply(self._client_id, v)


def aggregate_round(client_outputs, *, round_index: int | None = None) -> np.ndarray:
    """Average client embeddings and re-orthonormalize.

    ``client_outputs`` is any iterable, consumed once and in order, which
    the caller makes ascending client-id order. The mean is anchored at the
    first output (v0 + sum(vi - v0)/C): a fixed reduction order that is
    bitwise exact when all clients agree, so full replication reduces the
    protocol exactly to single-client execution. Returns the Q factor of
    the reduced QR (non-negative diagonal convention).

    Every output after the first is handed over and consumed: it is
    overwritten with its difference from the anchor, the second output's
    buffer becomes the running sum, and each later one is added to it and
    dropped. So the fold allocates no buffer of its own and holds only the
    anchor, the running sum and the current output: with the round's
    broadcast, four N x K arrays. The anchor is dropped once it has been
    added back, so it is not held through the QR. The anchor is never
    written: an output that is read-only, not float64, or shares memory
    with the anchor is copied first. A caller that still needs a later
    output, or passes one array twice after the anchor, must pass copies.

    Raises RankError, tagged with the round index when given, if the
    average is rank deficient (e.g. sign-flipped client outputs cancel).
    """
    outputs = iter(client_outputs)
    try:
        anchor = np.asarray(next(outputs), dtype=np.float64)
    except StopIteration:
        raise ContractError("no client outputs to aggregate") from None

    # anchor + (sum of (out - anchor)) / C operation for operation. The sum
    # starts at the first difference rather than at 0.0, which can change
    # only the sign of an all-zero sum, and adding the anchor erases that.
    total = None
    count = 1
    for out in outputs:
        out = np.asarray(out)
        if out.shape != anchor.shape:
            raise ContractError("client outputs have mismatched shapes")
        if (
            out.dtype != np.float64
            or not out.flags.writeable
            or np.may_share_memory(out, anchor)
        ):
            out = np.array(out, dtype=np.float64)
        out -= anchor
        if total is None:
            total = out
        else:
            total += out
        count += 1
        del out  # not held while the next output is computed
    if total is None:  # one output: 0.0 / 1 + anchor, which turns -0.0 into 0.0
        total = np.zeros_like(anchor)
    total /= count
    total += anchor
    del anchor  # not held through the QR
    try:
        q, _ = reduced_qr(total)
    except RankError as exc:
        where = "" if round_index is None else f"round {round_index}: "
        raise RankError(f"{where}aggregated embedding is rank deficient ({exc})") from exc
    return q


def subspace_drift(previous: np.ndarray, basis: np.ndarray) -> float:
    """Spectral norm of the part of ``basis`` outside span(``previous``).

    One N x K residual R = Q - B (B^T Q), then K x K work: the largest
    singular value of R is the square root of the largest eigenvalue of
    its Gram matrix R^T R. The residual is local, so it is freed before
    the next round's clients run.
    """
    residual = basis - previous @ (previous.T @ basis)
    top = np.linalg.eigvalsh(residual.T @ residual)[-1]
    return float(np.sqrt(max(top, 0.0)))


def settled(drift: float) -> bool:
    """Whether a round whose subspace drift is ``drift`` ends the rounds."""
    return drift <= STOP_DRIFT


def _reply_embedding(transport, message: BroadcastMessage) -> np.ndarray:
    """The embedding ``transport`` returns for ``message``; ContractError
    when the reply names another client than the transport."""
    reply = transport.run_round(message)
    if reply.client_id != transport.client_id:
        raise ContractError(
            f"round {message.round_index}: client {transport.client_id} "
            f"replied as client {reply.client_id}"
        )
    return reply.embedding


def _pooled_replies(pool, workers: int, transports, message: BroadcastMessage):
    """The transports' reply embeddings in their order, computed on
    ``pool`` with ``workers + 1`` requests submitted: while the workers
    run, the next client waits in the pool's queue, so a worker that
    finishes a client starts the next at once instead of waiting for the
    calling thread to fold a reply. A request is added only when the reply
    before has been folded and dropped, so when a client is asked at most
    ``workers + 1`` replies are alive beside the anchor, the running sum
    among them."""
    ahead = iter(transports)
    pending = deque(
        pool.submit(_reply_embedding, t, message) for t in islice(ahead, workers + 1)
    )
    while pending:
        reply = pending.popleft().result()
        yield reply
        del reply
        for t in islice(ahead, 1):
            pending.append(pool.submit(_reply_embedding, t, message))


def server_round_loop(
    transports,
    initial_basis: np.ndarray,
    global_rounds: int,
    *,
    on_round=None,
    workers: int = 1,
) -> np.ndarray:
    """Run at most ``global_rounds`` broadcast/iterate/aggregate rounds
    over client transports, stopping after the first round whose
    subspace_drift is at most STOP_DRIFT.

    The transports are anything with a ``client_id`` and a
    ``run_round(BroadcastMessage) -> ClientReply`` method; this loop never
    touches shard data. The transports are sorted by client id once, and
    each round folds their replies into the mean in that order, each as it
    arrives, so the result is independent of transport order; a reply
    naming another client than its transport is a ContractError. A
    transport hands its reply array over: aggregate_round overwrites every
    reply but the first of a round, so a transport that keeps its array,
    or replies with the broadcast embedding itself, must return a copy.

    With ``workers`` above 1 (and more than one transport), each round's
    transports run on a pool of min(workers, transports) threads with one
    request more than that submitted, so the next client is always queued
    when a thread comes free; the pool is shut down, its threads
    joined, when the loop returns or raises. A transport's exception
    reaches the caller unchanged. The fold, the finite check, the QR, the
    drift and the observer always run on the calling thread, and the
    replies are folded in the same order, so the result, and the round
    the loop stops at, are bitwise those of ``workers=1``. A run capped
    at r rounds is a prefix of the same run capped at R > r.

    The loop keeps no reference to ``initial_basis`` once round 0 has
    replaced it, so a start the caller passes as a temporary dies there.

    ``on_round(round_index, previous, basis, drift)`` observes each
    round: ``previous`` is the basis the round broadcast (the initial
    basis at round 0), ``basis`` the aggregated one and ``drift`` their
    subspace_drift. The observer must not modify either basis. The last
    round observed is the one the loop stopped after: its drift is at
    most STOP_DRIFT, or it is round ``global_rounds - 1``.
    """
    transports = sorted(transports, key=lambda t: t.client_id)
    workers = min(workers, len(transports))
    basis = np.asarray(initial_basis, dtype=np.float64)
    # once round 0 has replaced it, the start dies unless the caller holds it
    del initial_basis
    pool = (
        ThreadPoolExecutor(workers, thread_name_prefix="fedplus-client")
        if workers > 1
        else None
    )
    try:
        for round_index in range(global_rounds):
            message = BroadcastMessage(round_index, basis)
            if pool is None:
                replies = (_reply_embedding(t, message) for t in transports)
            else:
                replies = _pooled_replies(pool, workers, transports, message)
            candidate = aggregate_round(replies, round_index=round_index)
            if not np.isfinite(candidate).all():
                raise ConvergenceError(f"round {round_index}: non-finite embedding")
            drift = subspace_drift(basis, candidate)
            if on_round is not None:
                on_round(round_index, basis, candidate, drift)
            basis = candidate
            if settled(drift):
                break
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    return basis


def _usable_cores() -> int:
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def run_fedspectral_plus(
    shards: Iterable[ClientShard],
    num_clusters: int,
    seed: int,
    *,
    iters: int,
    global_rounds: int,
    on_round=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Full protocol: random orthonormal start, rounds, final k-means.

    ``global_rounds`` caps the rounds; server_round_loop stops earlier
    once the subspace drift reaches STOP_DRIFT.

    The initial embedding is iid standard normal from ``seed``,
    orthonormalized once before round 1 so the first round is conditioned
    like every later one, and handed to server_round_loop as a temporary,
    so it dies after round 0. ``on_round`` is server_round_loop's observer;
    its first call sees that orthonormalized start as ``previous``. The
    clients, and with them their multipliers, die before the final k-means.
    Returns (labeling, final embedding); fully deterministic for fixed
    shards and arguments.

    Everything from the start to the k-means runs under
    linalg.one_blas_thread, which restores the OpenBLAS thread counts on
    return or error. The clients run concurrently, one thread per usable
    core (server_round_loop's ``workers``), when the smallest client's
    round, its multiplier entries x K x iters, reaches POOL_MIN_WORK;
    otherwise one after another. Labels and embedding are the same bits
    either way.

    ``shards`` is any iterable, which partition.per_client turns into the
    clients, each shard into its client as it arrives, with per_client's
    errors and shard lifetimes. A count below 1 raises ConfigError before
    any shard is read, and so does a num_clusters above the node count
    (errors.check_cluster_count) before the first multiplier is built.
    """
    def build(shard):
        check_cluster_count(num_clusters, shard.num_nodes)
        return PowerIterationClient(shard, iters)

    check_counts(num_clusters=num_clusters, iters=iters, global_rounds=global_rounds)
    transports = per_client(shards, build)
    n = transports[0].num_nodes
    work = min(t.stored_entries for t in transports) * num_clusters * iters
    workers = _usable_cores() if work >= POOL_MIN_WORK else 1

    with one_blas_thread():
        rng = np.random.default_rng(embedding_seed(seed))
        # the start is a temporary, which the loop owns and drops after round 0
        basis = server_round_loop(
            transports,
            reduced_qr(rng.standard_normal((n, num_clusters)))[0],
            global_rounds,
            on_round=on_round,
            workers=workers,
        )
        del transports  # the multipliers die before the k-means
        # through the module, where the k-means tracers and spies look it up
        labels = linalg.kmeans(basis, num_clusters, kmeans_seed(seed))
    return labels, basis
