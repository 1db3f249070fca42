import struct
from dataclasses import dataclass

import numpy as np
import pytest

from fedspectral.diagnostics import Diagnostics
from fedspectral.errors import ConfigError, ContractError, RankError
from fedspectral.fedplus import (
    BroadcastMessage,
    ClientReply,
    PowerIterationClient,
    aggregate_round,
    encode_frame,
    run_fedspectral_plus,
    server_round_loop,
    shard_multiplier,
)
from fedspectral.graph import Graph, normalized_laplacian
from fedspectral.linalg import bottom_k_eigenvectors, global_spectral_clustering, reduced_qr
from fedspectral.partition import ClientShard, distribute_edges

from conftest import dense_adjacency, planted_graph, principal_angles


def shard_from_graph(g, client_id=0):
    return ClientShard(g.num_nodes, g.edges, g.weights, client_id=client_id)


def path_shard(client_id=0):
    return shard_from_graph(Graph.from_edges(2, [(0, 1)]), client_id)


def dense_multiplier(shard):
    """Dense oracle for shard_multiplier: I - L."""
    return np.eye(shard.num_nodes) - shard.normalized_laplacian()


def ordered_row_sums(shard, v):
    """Plain-Python oracle for shard_multiplier(shard) @ v.

    Each row sums its terms w(u,v) * (1/sqrt(d_u) * 1/sqrt(d_v)) * v[col]
    in ascending column order starting from 0.0; isolated rows return v.
    """
    d = shard.degrees()
    inv_sqrt = [1.0 / np.sqrt(x) if x > 0 else 0.0 for x in d]
    neighbours = [[] for _ in range(shard.num_nodes)]
    for (a, b), w in zip(shard.edges.tolist(), shard.weights.tolist()):
        entry = w * (inv_sqrt[a] * inv_sqrt[b])
        neighbours[a].append((b, entry))
        neighbours[b].append((a, entry))
    out = np.empty_like(v)
    for i, row in enumerate(neighbours):
        if not row:
            out[i] = v[i]
            continue
        for k in range(v.shape[1]):
            acc = 0.0
            for j, entry in sorted(row):
                acc += entry * v[j, k]
            out[i, k] = acc
    return out


def client_step(shard, iters, embedding):
    client = PowerIterationClient(shard, iters)
    return client.run_round(BroadcastMessage(0, embedding)).embedding


def random_weighted_shard(n, num_edges, isolated, seed):
    """Random weighted shard whose nodes 0..isolated-1 have no edges."""
    rng = np.random.default_rng(seed)
    pairs = set()
    while len(pairs) < num_edges:
        u, v = rng.integers(isolated, n, size=2)
        if u != v:
            pairs.add((min(u, v), max(u, v)))
    g = Graph.from_edges(n, sorted(pairs), rng.uniform(0.1, 3.0, len(pairs)))
    return shard_from_graph(g)


class TestShardMultiplier:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_dense_oracle(self, seed):
        shard = random_weighted_shard(40, 120, isolated=5, seed=seed)
        v = np.random.default_rng(seed + 100).standard_normal((40, 4))
        mult = shard_multiplier(shard)
        expected = dense_multiplier(shard)
        assert np.abs(mult @ np.eye(40) - expected).max() <= 1e-14
        assert np.abs(mult @ v - expected @ v).max() <= 1e-14

    def test_isolated_nodes_pass_through(self):
        shard = random_weighted_shard(30, 60, isolated=4, seed=3)
        v = np.random.default_rng(4).standard_normal((30, 3))
        out = shard_multiplier(shard) @ v
        assert np.array_equal(out[:4], v[:4])

    def test_edgeless_shard_is_identity(self):
        shard = ClientShard(
            5, np.empty((0, 2), dtype=np.int64), np.empty(0), client_id=0
        )
        v = np.random.default_rng(5).standard_normal((5, 2))
        assert np.array_equal(shard_multiplier(shard) @ v, v)

    def test_summation_order(self):
        shard = random_weighted_shard(30, 80, isolated=4, seed=6)
        v = np.random.default_rng(7).standard_normal((30, 3))
        mult = shard_multiplier(shard)
        assert mult.has_canonical_format
        assert np.array_equal(mult @ v, ordered_row_sums(shard, v))

    def test_shape_contract(self):
        mult = shard_multiplier(path_shard())
        assert mult.shape == (2, 2)
        assert mult.dtype == np.float64
        with pytest.raises(ValueError):
            mult @ np.ones((3, 1))
        # the N x K operand contract is enforced where the multiplier is applied
        with pytest.raises(ContractError):
            client_step(path_shard(), 1, np.ones((3, 1)))
        with pytest.raises(ContractError):
            client_step(path_shard(), 1, np.ones(2))


class TestClientPowerIteration:
    def test_path_graph_swap(self):
        out = client_step(path_shard(), 1, np.array([[1.0], [0.0]]))
        assert np.array_equal(out, [[0.0], [1.0]])

    def test_isolated_node_passthrough(self):
        g = Graph.from_edges(3, [(0, 1)])
        rng = np.random.default_rng(0)
        v = rng.standard_normal((3, 2))
        for iters in (1, 3, 7):
            out = client_step(shard_from_graph(g), iters, v)
            assert np.array_equal(out[2], v[2])

    def test_triangle_constant_column_fixed(self):
        # multiplier is A/2 on a triangle; the all-ones direction has value 1
        g = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
        v = np.ones((3, 1))
        mult = shard_multiplier(shard_from_graph(g))
        assert np.abs(mult @ np.eye(3) - dense_adjacency(g) / 2.0).max() < 1e-12
        out = client_step(shard_from_graph(g), 5, v)
        assert np.abs(out - v).max() < 1e-12

    def test_iters_compose(self):
        g = planted_graph([8, 8], 0.8, 0.1, seed=1)
        v = np.random.default_rng(1).standard_normal((16, 2))
        once = client_step(shard_from_graph(g), 1, v)
        twice = client_step(shard_from_graph(g), 1, once)
        assert np.array_equal(client_step(shard_from_graph(g), 2, v), twice)

    def test_contracts(self):
        with pytest.raises(ContractError):
            PowerIterationClient(path_shard(), 0)
        with pytest.raises(ContractError):
            client_step(path_shard(), 1, np.ones((3, 1)))
        with pytest.raises(ContractError):
            client_step(path_shard(), 1, np.ones(2))


class TestAggregateRound:
    def test_identical_outputs(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((8, 3))
        q, _ = reduced_qr(x)
        assert np.array_equal(aggregate_round([x, x, x]), q)

    def test_cancellation_raises_rank_error_with_round(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((6, 2))
        with pytest.raises(RankError, match="round 7"):
            aggregate_round([x, -x], round_index=7)

    def test_single_client(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((5, 2))
        q, _ = reduced_qr(x)
        assert np.array_equal(aggregate_round([x]), q)

    def test_contracts(self):
        with pytest.raises(ContractError):
            aggregate_round([])
        with pytest.raises(ContractError):
            aggregate_round([np.ones((2, 2)), np.ones((3, 2))])


class TestWireFormat:
    def test_roundtrip(self):
        rng = np.random.default_rng(5)
        emb = rng.standard_normal((7, 3))
        frame = encode_frame(12, emb)
        assert struct.unpack_from("<qqq", frame) == (12, 7, 3)
        assert len(frame) == 24 + 7 * 3 * 8
        back = np.frombuffer(frame, "<f8", offset=24).reshape(7, 3)
        assert np.array_equal(back, emb)


class FakeTransport:
    """Stands in for a client without holding any graph data at all."""

    def __init__(self, client_id, reply_embedding):
        self.client_id = client_id
        self._reply = reply_embedding
        self.received = []

    def run_round(self, message):
        self.received.append(message)
        return ClientReply(self.client_id, self._reply)


class TestServerLoop:
    def test_runs_on_transports_without_shard_data(self):
        rng = np.random.default_rng(6)
        reply = rng.standard_normal((6, 2))
        transports = [FakeTransport(0, reply), FakeTransport(1, reply)]
        v0, _ = reduced_qr(rng.standard_normal((6, 2)))
        out = server_round_loop(transports, v0, 3)
        q, _ = reduced_qr(reply)
        assert np.array_equal(out, q)
        for t in transports:
            assert all(isinstance(m, BroadcastMessage) for m in t.received)

    def test_boundary_payloads_are_embeddings_only(self):
        g = planted_graph([10, 10], 0.8, 0.08, seed=7)
        shards = distribute_edges(g, 3, 0.5, seed=8)
        seen = []

        class Spy:
            def __init__(self, inner):
                self._inner = inner
                self.client_id = inner.client_id

            def run_round(self, message):
                seen.append(message.embedding)
                reply = self._inner.run_round(message)
                seen.append(reply.embedding)
                return reply

        transports = [Spy(PowerIterationClient(sh, 2)) for sh in shards]
        v0, _ = reduced_qr(np.random.default_rng(8).standard_normal((20, 2)))
        server_round_loop(transports, v0, 4)
        assert len(seen) == 4 * 3 * 2
        for payload in seen:
            assert isinstance(payload, np.ndarray)
            assert payload.shape == (20, 2)
            assert payload.dtype == np.float64

    def test_client_surface_hides_shard(self):
        client = PowerIterationClient(path_shard(), 1)
        public = [name for name in vars(client) if not name.startswith("_")]
        assert public == []

    def test_orthonormal_after_every_round(self):
        g = planted_graph([12, 12], 0.7, 0.06, seed=9)
        shards = distribute_edges(g, 4, 0.5, seed=10)
        checked = []

        def on_round(_, basis):
            checked.append(np.abs(basis.T @ basis - np.eye(2)).max())

        run_fedspectral_plus(
            shards, 2, seed=11, iters=3, global_rounds=6, on_round=on_round
        )
        assert len(checked) == 6
        assert max(checked) <= 1e-10

    def test_entry_magnitudes_bounded(self):
        g = planted_graph([15, 15], 0.7, 0.05, seed=12)
        shards = distribute_edges(g, 3, 0.5, seed=13)
        peaks = []

        class Spy:
            def __init__(self, inner):
                self._inner = inner
                self.client_id = inner.client_id

            def run_round(self, message):
                reply = self._inner.run_round(message)
                peaks.append(np.abs(reply.embedding).max())
                return reply

        transports = [Spy(PowerIterationClient(sh, 4)) for sh in shards]
        v0, _ = reduced_qr(np.random.default_rng(13).standard_normal((30, 3)))
        out = server_round_loop(transports, v0, 5)
        assert np.isfinite(out).all()
        assert max(peaks) <= 1.0 + 1e-9

    def test_rank_error_carries_round_index(self):
        rng = np.random.default_rng(17)
        x = rng.standard_normal((6, 2))
        transports = [FakeTransport(0, x), FakeTransport(1, -x)]
        v0, _ = reduced_qr(rng.standard_normal((6, 2)))
        with pytest.raises(RankError, match="round 0"):
            server_round_loop(transports, v0, 2)


class TestProtocol:
    def test_config_validation(self):
        shards = [path_shard()]
        with pytest.raises(ConfigError):
            run_fedspectral_plus(shards, num_clusters=0, seed=0)
        with pytest.raises(ConfigError):
            run_fedspectral_plus(shards, num_clusters=2, seed=0, iters=0)
        with pytest.raises(ConfigError):
            run_fedspectral_plus(shards, num_clusters=2, seed=0, global_rounds=0)

    def test_deterministic(self):
        g = planted_graph([10, 10], 0.8, 0.08, seed=18)
        shards = distribute_edges(g, 3, 0.5, seed=19)
        la, va = run_fedspectral_plus(shards, 2, 20, iters=2, global_rounds=4)
        lb, vb = run_fedspectral_plus(shards, 2, 20, iters=2, global_rounds=4)
        assert np.array_equal(la, lb)
        assert np.array_equal(va, vb)

    def test_round_drift_recorded(self):
        g = planted_graph([10, 10], 0.8, 0.08, seed=21)
        shards = distribute_edges(g, 2, 0.5, seed=22)
        diag = Diagnostics()
        run_fedspectral_plus(
            shards, 2, 23, iters=1, global_rounds=7, diag=diag
        )
        assert len(diag.round_drift) == 7
        assert all(np.isfinite(d) for d in diag.round_drift)
        # the iteration settles: late drift is smaller than early drift
        assert diag.round_drift[-1] < diag.round_drift[0]

    def test_single_client_converges_to_reference_subspace(self):
        g = planted_graph([12, 12, 12], 0.85, 0.04, seed=24)
        shards = distribute_edges(g, 1, 1.0, seed=25)
        labels, basis = run_fedspectral_plus(shards, 3, 26, iters=10, global_rounds=200)
        lap = normalized_laplacian(g)
        reference = bottom_k_eigenvectors(lap, 3, seed=1)
        assert principal_angles(basis, reference).max() < 1e-6
        assert np.array_equal(labels, global_spectral_clustering(g, 3, seed=26))

    def test_full_overlap_matches_raw_orthogonal_iteration(self):
        # every client holds the whole graph: one round of the protocol is
        # exactly one QR'd block power step on the global multiplier
        g = planted_graph([10, 10], 0.8, 0.08, seed=27)
        shards = distribute_edges(g, 3, 1.0, seed=28)
        _, basis = run_fedspectral_plus(shards, 2, 29, iters=1, global_rounds=30)
        mult = shard_multiplier(shards[0])
        dense = dense_multiplier(shards[0])
        from fedspectral.seeding import embedding_seed

        rng = np.random.default_rng(embedding_seed(29))
        manual, _ = reduced_qr(rng.standard_normal((20, 2)))
        oracle = manual
        for _ in range(30):
            manual, _ = reduced_qr(mult @ manual)
            oracle, _ = reduced_qr(dense @ oracle)
        assert np.array_equal(basis, manual)
        assert np.allclose(basis, oracle, rtol=0.0, atol=1e-10)

    def test_universe_mismatch(self):
        none = np.empty((0, 2), dtype=np.int64)
        a = ClientShard(4, none, np.empty(0), client_id=0)
        b = ClientShard(5, none, np.empty(0), client_id=1)
        with pytest.raises(ContractError):
            run_fedspectral_plus([a, b], 2, 0)
