import struct
import sys
import threading
import time
import weakref
from dataclasses import dataclass

import numpy as np
import pytest

from fedspectral.baseline import fedspectral_server, get_client_labels
from fedspectral.errors import ConfigError, ContractError, ConvergenceError, RankError
from fedspectral import fedplus, linalg
from fedspectral.experiment import ExperimentConfig, compute_reference, run_single_trial
from fedspectral.fedplus import (
    STOP_DRIFT,
    BroadcastMessage,
    ClientReply,
    PowerIterationClient,
    aggregate_round,
    encode_frame,
    run_fedspectral_plus,
    server_round_loop,
    shard_multiplier,
    subspace_drift,
)
from fedspectral.graph import Graph, normalized_laplacian
from fedspectral.linalg import bottom_k_eigenvectors, global_spectral_clustering, reduced_qr
from fedspectral.partition import ClientShard, distribute_edges, per_client
from fedspectral.seeding import embedding_seed

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


def cliques(count, size):
    """``count`` disjoint complete graphs on ``size`` nodes each."""
    pairs = [
        (c * size + i, c * size + j)
        for c in range(count)
        for i in range(size)
        for j in range(i + 1, size)
    ]
    return Graph.from_edges(count * size, pairs)


def cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def observed_rounds(shards, k, seed, iters, cap):
    """(labels, final basis, [(aggregated basis, drift) of each round])."""
    rounds = []
    labels, basis = run_fedspectral_plus(
        shards, k, seed, iters=iters, global_rounds=cap,
        on_round=lambda _t, _previous, b, drift: rounds.append((b.copy(), drift)),
    )
    return labels, basis, rounds


def force_schedule(monkeypatch, schedule, cores=2):
    """Make run_fedspectral_plus run its clients on a pool of ``cores``
    threads ("pooled") or one after another ("serial"), whatever the work."""
    work = 0 if schedule == "pooled" else float("inf")
    monkeypatch.setattr(fedplus, "POOL_MIN_WORK", work)
    monkeypatch.setattr(fedplus, "_usable_cores", lambda: cores)


@pytest.fixture(params=["serial", "pooled"])
def schedule(request, monkeypatch):
    force_schedule(monkeypatch, request.param)
    return request.param


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


def anchored_mean(outputs):
    """The mean aggregate_round hands to its QR, computed as it was before
    the fold used buffers: a zero-started sum of differences from the anchor."""
    anchor = outputs[0]
    acc = np.zeros_like(anchor)
    for out in outputs[1:]:
        acc += out - anchor
    return anchor + acc / len(outputs)


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
        with pytest.raises(ConfigError, match=r"^iters must be >= 1, got 0$"):
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

    def test_mean_is_bitwise_the_anchored_expression(self, monkeypatch):
        means = []

        def spy_on_qr(a):
            means.append(a.copy())
            return reduced_qr(a)

        monkeypatch.setattr(fedplus, "reduced_qr", spy_on_qr)
        rng = np.random.default_rng(31)
        for clients in (1, 2, 3, 5, 8):
            for _ in range(4):
                shape = (int(rng.integers(10, 200)), int(rng.integers(1, 10)))
                outputs = [
                    rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9)
                    for _ in range(clients)
                ]
                # the fold consumes every output after the first: hand over copies
                q = aggregate_round([out.copy() for out in outputs])
                # a generator is folded as it arrives, to the same bits
                assert np.array_equal(aggregate_round(out.copy() for out in outputs), q)
                # the expression the mean was computed with before it used buffers
                oracle = anchored_mean(outputs)
                assert np.array_equal(means[-1], oracle)
                assert np.array_equal(q, reduced_qr(oracle)[0])

    def test_anchor_is_never_written_and_later_outputs_are_consumed(self):
        rng = np.random.default_rng(60)
        outputs = [rng.standard_normal((9, 3)) for _ in range(4)]
        handed = [out.copy() for out in outputs]
        aggregate_round(handed)
        assert np.array_equal(handed[0], outputs[0])
        # the second output's buffer held the running sum and ends as the
        # mean; each later one holds its difference from the anchor
        assert np.array_equal(handed[1], anchored_mean(outputs))
        for out, original in zip(handed[2:], outputs[2:]):
            assert np.array_equal(out, original - outputs[0])

    @pytest.mark.parametrize("count", [1, 3])
    def test_anchor_is_dead_when_the_qr_runs(self, count, monkeypatch):
        rng = np.random.default_rng(61)
        refs, alive = [], []

        def fresh(_):
            out = rng.standard_normal((9, 3))
            refs.append(weakref.ref(out))
            return out

        def spy(a):
            alive.append([ref() is not None for ref in refs])
            return reduced_qr(a)

        monkeypatch.setattr(fedplus, "reduced_qr", spy)
        aggregate_round(map(fresh, range(count)))
        # the second output's buffer is the mean the QR factors
        assert alive == [[False] + [True] * min(count - 1, 1) + [False] * (count - 2)]

    @pytest.mark.parametrize("case", ["thrice", "anchor_again", "anchor_view", "read_only", "float32"])
    def test_outputs_it_must_not_consume_are_copied(self, case, monkeypatch):
        means = []

        def spy_on_qr(a):
            means.append(a.copy())
            return reduced_qr(a)

        monkeypatch.setattr(fedplus, "reduced_qr", spy_on_qr)
        rng = np.random.default_rng(61)
        x, y = rng.standard_normal((2, 11, 3))
        frame = encode_frame(1, y)
        handed = y.copy()  # the one output here that the fold may consume
        outputs = {
            "thrice": [x, x, x],
            "anchor_again": [x, handed, x],
            "anchor_view": [x, x[:, :], handed],
            "read_only": [x, np.frombuffer(frame, "<f8", offset=24).reshape(11, 3)],
            "float32": [x, y.astype(np.float32)],
        }[case]
        values = [np.array(out, dtype=np.float64) for out in outputs]
        kept = [out.copy() for out in outputs]
        q = aggregate_round(outputs)
        assert anchored_mean(values).tobytes() == means[-1].tobytes()
        assert np.array_equal(q, reduced_qr(anchored_mean(values))[0])
        for out, before in zip(outputs, kept):
            assert out is handed or np.array_equal(out, before)

    def test_signed_zeros_equal_to_the_anchor_keep_the_bits(self, monkeypatch):
        # a zero-started sum and a sum started at the first difference part
        # only in the sign of an all-zero sum; adding the anchor erases it
        means = []

        def spy_on_qr(a):
            means.append(a.copy())
            return reduced_qr(a)

        monkeypatch.setattr(fedplus, "reduced_qr", spy_on_qr)
        rng = np.random.default_rng(62)
        for clients in (1, 2, 3, 5):
            for _ in range(20):
                anchor = rng.standard_normal((16, 3))
                anchor[rng.random(anchor.shape) < 0.5] = 0.0
                anchor[rng.random(anchor.shape) < 0.3] *= -1.0
                outputs = [anchor]
                for _ in range(clients - 1):
                    out = anchor.copy()
                    zero = anchor == 0.0
                    flip = zero & (rng.random(anchor.shape) < 0.5)
                    out[flip] = -out[flip]
                    moved = ~zero & (rng.random(anchor.shape) < 0.2)
                    out[moved] += rng.standard_normal(moved.sum())
                    outputs.append(out)
                oracle = anchored_mean(outputs)
                aggregate_round([out.copy() for out in outputs])
                assert means[-1].tobytes() == oracle.tobytes()

    def test_contracts(self):
        for outputs in ([], [np.ones((2, 2)), np.ones((3, 2))]):
            with pytest.raises(ContractError) as from_list:
                aggregate_round(outputs)
            with pytest.raises(ContractError) as from_generator:
                aggregate_round(out for out in outputs)
            assert str(from_generator.value) == str(from_list.value)


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
        # the reply array is handed over to the fold, so a stored one is copied
        return ClientReply(self.client_id, self._reply.copy())


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

        def on_round(_, previous, basis, drift):
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

    def test_holds_only_the_anchor_the_sum_and_the_current_reply(self):
        # each reply is a fresh array; when a client is asked, the replies
        # asked for before it are dead, apart from this round's anchor and
        # the second reply, whose buffer holds the running sum
        rng = np.random.default_rng(33)
        issued, seen = [], []

        class Fresh:
            def __init__(self, client_id):
                self.client_id = client_id

            def run_round(self, message):
                alive = [(t, c) for t, c, ref in issued if ref() is not None]
                seen.append((message.round_index, self.client_id, alive))
                reply = rng.standard_normal((12, 3))
                issued.append((message.round_index, self.client_id, weakref.ref(reply)))
                return ClientReply(self.client_id, reply)

        transports = [Fresh(c) for c in (3, 0, 4, 1, 2)]
        v0, _ = reduced_qr(rng.standard_normal((12, 3)))
        server_round_loop(transports, v0, 3)
        assert [(t, c) for t, c, _ in seen] == [(t, c) for t in range(3) for c in range(5)]
        for t, c, alive in seen:
            assert alive == [(t, held) for held in range(min(c, 2))]
        assert all(ref() is None for _, _, ref in issued)

    def test_start_basis_given_as_a_temporary_dies_after_round_0(self):
        rng = np.random.default_rng(34)

        class Fresh:
            def __init__(self, client_id):
                self.client_id = client_id

            def run_round(self, message):
                return ClientReply(self.client_id, rng.standard_normal((12, 3)))

        start, alive = [], []

        def on_round(round_index, previous, _basis, _drift):
            if round_index == 0:
                start.append(weakref.ref(previous))
            alive.append(start[0]() is not None)

        server_round_loop(
            [Fresh(c) for c in range(3)],
            reduced_qr(rng.standard_normal((12, 3)))[0],
            3,
            on_round=on_round,
        )
        assert alive == [True, False, False]

    def test_reply_from_another_client_is_a_contract_error(self):
        rng = np.random.default_rng(34)
        x = rng.standard_normal((6, 2))

        class Impostor(FakeTransport):
            def run_round(self, message):
                return ClientReply(self.client_id + 1, self._reply.copy())

        transports = [FakeTransport(0, x), Impostor(1, x)]
        v0, _ = reduced_qr(rng.standard_normal((6, 2)))
        with pytest.raises(ContractError, match="round 0: client 1 replied as client 2"):
            server_round_loop(transports, v0, 2)

    def test_non_finite_reply_is_a_convergence_error_naming_the_round(self):
        rng = np.random.default_rng(35)
        x = rng.standard_normal((6, 2))
        rounds = []

        class GoesNaN(FakeTransport):
            def run_round(self, message):
                reply = super().run_round(message)
                if message.round_index == 1:
                    reply.embedding[3, 1] = np.nan
                return reply

        # the replies span one plane, so without the NaN round 1 would settle
        transports = [FakeTransport(0, x), GoesNaN(1, 2 * x)]
        v0, _ = reduced_qr(rng.standard_normal((6, 2)))
        with pytest.raises(ConvergenceError, match=r"^round 1: non-finite embedding$"):
            server_round_loop(transports, v0, 5, on_round=lambda t, *_: rounds.append(t))
        # the round that went non-finite reaches no observer
        assert rounds == [0]

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
            run_fedspectral_plus(shards, num_clusters=0, seed=0, iters=1, global_rounds=1)
        with pytest.raises(ConfigError):
            run_fedspectral_plus(shards, num_clusters=2, seed=0, iters=0, global_rounds=1)
        with pytest.raises(ConfigError):
            run_fedspectral_plus(shards, num_clusters=2, seed=0, iters=1, global_rounds=0)

    def test_more_clusters_than_nodes_rejected(self):
        shards = distribute_edges(planted_graph([4, 4], 0.9, 0.2, seed=36), 2, 0.5, seed=37)
        assert run_fedspectral_plus(shards, 8, 38, iters=1, global_rounds=1)[1].shape == (8, 8)
        message = "^num_clusters must be <= the node count 8, got 9$"
        with pytest.raises(ConfigError, match=message):
            run_fedspectral_plus(shards, 9, 38, iters=1, global_rounds=1)

    def test_deterministic(self, schedule):
        g = planted_graph([10, 10], 0.8, 0.08, seed=18)
        shards = distribute_edges(g, 3, 0.5, seed=19)
        la, va = run_fedspectral_plus(shards, 2, 20, iters=2, global_rounds=4)
        lb, vb = run_fedspectral_plus(shards, 2, 20, iters=2, global_rounds=4)
        assert np.array_equal(la, lb)
        assert np.array_equal(va, vb)

    def test_round_drift_recorded(self):
        g = planted_graph([10, 10], 0.8, 0.08, seed=21)
        shards = distribute_edges(g, 2, 0.5, seed=22)
        drift, seen = [], []

        def on_round(t, previous, basis, handed):
            seen.append((t, previous, basis))
            drift.append(np.linalg.norm(basis - previous @ (previous.T @ basis), 2))
            # the loop hands over subspace_drift of the two bases, bit for bit
            assert handed == subspace_drift(previous, basis)
            assert handed == pytest.approx(drift[-1], rel=1e-9, abs=1e-15)

        _, final = run_fedspectral_plus(
            shards, 2, 23, iters=1, global_rounds=7, on_round=on_round
        )
        assert [t for t, _, _ in seen] == list(range(7))
        # round 0 sees the orthonormalized start; each later round sees the
        # basis the round before produced
        assert np.abs(seen[0][1].T @ seen[0][1] - np.eye(2)).max() < 1e-12
        assert all(np.array_equal(b, p) for (_, _, b), (_, p, _) in zip(seen, seen[1:]))
        assert np.array_equal(seen[-1][2], final)
        assert all(np.isfinite(d) for d in drift)
        # the iteration settles: late drift is smaller than early drift
        assert drift[-1] < drift[0]

    def test_single_client_converges_to_reference_subspace(self, schedule):
        g = planted_graph([12, 12, 12], 0.85, 0.04, seed=24)
        shards = distribute_edges(g, 1, 1.0, seed=25)
        labels, basis, rounds = observed_rounds(shards, 3, 26, 10, 200)
        # the loop stops at its fixed point, long before the cap
        assert len(rounds) < 200 and rounds[-1][1] <= STOP_DRIFT
        lap = normalized_laplacian(g)
        reference = bottom_k_eigenvectors(lap, 3, seed=1)
        assert principal_angles(basis, reference).max() < 1e-6
        assert np.array_equal(labels, global_spectral_clustering(g, 3, seed=26))

    def test_full_overlap_matches_raw_orthogonal_iteration(self, schedule):
        # every client holds the whole graph: one round of the protocol is
        # exactly one QR'd block power step on the global multiplier, and
        # the loop stops where the raw iteration's drift first reaches
        # STOP_DRIFT: at the cap of 30, or before the cap of 200
        g = planted_graph([10, 10], 0.8, 0.08, seed=27)
        shards = distribute_edges(g, 3, 1.0, seed=28)
        mult = shard_multiplier(shards[0])
        dense = dense_multiplier(shards[0])
        for cap in (30, 200):
            _, basis, rounds = observed_rounds(shards, 2, 29, 1, cap)
            drift = [d for _, d in rounds]
            rng = np.random.default_rng(embedding_seed(29))
            manual, _ = reduced_qr(rng.standard_normal((20, 2)))
            oracle, manual_drift = manual, []
            while len(manual_drift) < cap:
                previous = manual
                manual, _ = reduced_qr(mult @ manual)
                manual_drift.append(subspace_drift(previous, manual))
                oracle, _ = reduced_qr(dense @ oracle)
                if manual_drift[-1] <= STOP_DRIFT:
                    break
            assert drift == manual_drift
            assert np.array_equal(basis, manual)
            assert np.allclose(basis, oracle, rtol=0.0, atol=1e-10)
            assert (len(drift) == cap) if cap == 30 else (len(drift) < cap)

    def test_universe_mismatch(self):
        none = np.empty((0, 2), dtype=np.int64)
        a = ClientShard(4, none, np.empty(0), client_id=0)
        b = ClientShard(5, none, np.empty(0), client_id=1)
        with pytest.raises(ContractError):
            run_fedspectral_plus([a, b], 2, 0, iters=1, global_rounds=1)

    def test_shard_iterators_raise_shard_universe_errors(self):
        none = np.empty((0, 2), dtype=np.int64)
        a = ClientShard(4, none, np.empty(0), client_id=0)
        b = ClientShard(4, none, np.empty(0), client_id=1)
        c = ClientShard(5, none, np.empty(0), client_id=2)
        for shards in ([], [a, c], [a, b, c], [c, a]):
            with pytest.raises(ContractError) as expected:
                per_client(shards, lambda sh: sh)
            with pytest.raises(ContractError) as plus:
                run_fedspectral_plus(iter(shards), 2, 0, iters=1, global_rounds=1)
            with pytest.raises(ContractError) as baseline:
                fedspectral_server(shards, 2, 0)
            assert str(plus.value) == str(baseline.value) == str(expected.value)
        # K = 0 is one ConfigError, raised before any shard is read
        for shards in ([a, b], [a, c]):
            with pytest.raises(ConfigError) as plus:
                run_fedspectral_plus(iter(shards), 0, 0, iters=1, global_rounds=1)
            with pytest.raises(ConfigError) as baseline:
                fedspectral_server(iter(shards), 0, 0)
            assert str(plus.value) == str(baseline.value) == "num_clusters must be >= 1, got 0"

    def test_more_clusters_than_nodes_is_one_error_before_any_client(self, monkeypatch):
        # compute_reference and both protocols raise the same ConfigError,
        # and neither protocol builds a client or computes a labeling first
        g = Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)])
        cfg = ExperimentConfig(dataset_path="six.txt", num_clusters=9)
        with pytest.raises(ConfigError) as reference:
            compute_reference(g, cfg)
        assert str(reference.value) == "num_clusters must be <= the node count 6, got 9"
        built = []

        def spy(real):
            return lambda *args, **kwargs: built.append(args) or real(*args, **kwargs)

        monkeypatch.setattr(fedplus, "PowerIterationClient", spy(PowerIterationClient))
        monkeypatch.setattr("fedspectral.baseline.get_client_labels", spy(get_client_labels))
        for make in (list, iter):
            with pytest.raises(ConfigError) as plus:
                run_fedspectral_plus(
                    make(distribute_edges(g, 5, 0.4, 1)), 9, 0, iters=1, global_rounds=1
                )
            with pytest.raises(ConfigError) as server:
                fedspectral_server(make(distribute_edges(g, 5, 0.4, 1)), 9, 0)
            assert str(plus.value) == str(server.value) == str(reference.value)
        assert built == []

    def test_shard_iterator_matches_list_and_keeps_no_shard(self, monkeypatch):
        g = planted_graph([10, 10], 0.8, 0.08, seed=35)
        args = (g, 3, 0.5, 36)
        la, va = run_fedspectral_plus(distribute_edges(*args), 2, 37, iters=2, global_rounds=4)
        refs = []

        def fresh_shards():
            for shard in distribute_edges(*args):
                refs.append(weakref.ref(shard))
                yield shard

        real = fedplus.server_round_loop

        def check_dead(*loop_args, **kwargs):
            assert len(refs) == 3 and all(ref() is None for ref in refs)
            return real(*loop_args, **kwargs)

        monkeypatch.setattr(fedplus, "server_round_loop", check_dead)
        lb, vb = run_fedspectral_plus(fresh_shards(), 2, 37, iters=2, global_rounds=4)
        assert np.array_equal(la, lb)
        assert np.array_equal(va, vb)


    def test_start_basis_dies_after_round_0(self):
        g = planted_graph([10, 10], 0.8, 0.08, seed=41)
        start, alive = [], []

        def on_round(round_index, previous, _basis, _drift):
            if round_index == 0:
                start.append(weakref.ref(previous))
            alive.append(start[0]() is not None)

        run_fedspectral_plus(
            distribute_edges(g, 3, 0.5, 42), 2, 43, iters=1, global_rounds=3, on_round=on_round
        )
        assert alive == [True, False, False]

    def test_multipliers_are_dead_when_the_kmeans_runs(self, monkeypatch):
        g = planted_graph([10, 10], 0.8, 0.08, seed=38)
        refs, alive = [], []
        build, kmeans = fedplus.shard_multiplier, linalg.kmeans

        def built(shard):
            multiplier = build(shard)
            refs.append(weakref.ref(multiplier.data))
            return multiplier

        def spy(*args, **kwargs):
            alive.append([ref() is not None for ref in refs])
            return kmeans(*args, **kwargs)

        monkeypatch.setattr(fedplus, "shard_multiplier", built)
        monkeypatch.setattr(linalg, "kmeans", spy)
        run_fedspectral_plus(distribute_edges(g, 3, 0.5, 39), 2, 40, iters=2, global_rounds=4)
        assert alive == [[False] * 3]


class TestStoppingRule:
    """``global_rounds`` is a cap: the loop stops after the first round whose
    subspace drift is at most STOP_DRIFT."""

    @pytest.mark.parametrize("count, size, iters, seed", [(3, 4, 1, 5), (3, 4, 2, 8), (4, 3, 1, 9)])
    def test_stops_where_the_spectral_gap_predicts(self, count, size, iters, seed):
        # On disjoint cliques M has eigenvalue 1 on each clique's constant
        # vector and -1/(size - 1) on everything else, so each round scales
        # the tangent T of the basis against the top-K subspace by
        # s = (mu_{K+1} / mu_K)^iters, and the drift of round r is
        # |1 - s| |s|^r ||T_0||.
        g = cliques(count, size)
        shard = shard_from_graph(g)
        mu = np.linalg.eigvalsh(dense_multiplier(shard))
        mu = mu[np.argsort(-np.abs(mu))]
        assert np.allclose(mu[:count], 1.0) and np.allclose(mu[count:], -1.0 / (size - 1))
        s = (mu[count] / mu[count - 1]) ** iters

        v0, _ = reduced_qr(
            np.random.default_rng(embedding_seed(seed)).standard_normal((g.num_nodes, count))
        )
        top = np.kron(np.eye(count), np.full((size, 1), size**-0.5))
        tangent = np.linalg.norm((v0 - top @ (top.T @ v0)) @ np.linalg.inv(top.T @ v0), 2)
        predicted = next(
            r + 1 for r in range(200) if abs(1 - s) * abs(s) ** r * tangent <= STOP_DRIFT
        )
        _, _, rounds = observed_rounds([shard], count, seed, iters, 200)
        assert abs(len(rounds) - predicted) <= 1
        drift = [d for _, d in rounds]
        assert drift[-1] <= STOP_DRIFT and all(d > STOP_DRIFT for d in drift[:-1])

    def test_slowly_converging_graph_runs_to_the_cap(self):
        # on a 61-node cycle the 2nd and 3rd largest magnitudes of M's
        # spectrum, cos(pi/61) and cos(2 pi/61), differ by 0.4%, so K=2
        # is still moving after thousands of rounds
        shards = [shard_from_graph(cycle(61))]
        _, _, rounds = observed_rounds(shards, 2, 3, 1, 50)
        assert len(rounds) == 50
        assert min(d for _, d in rounds) > 1e-3

    def test_a_lower_cap_is_a_bitwise_prefix(self, schedule):
        # the seed, the partition and the start do not depend on the cap,
        # so a run capped at r repeats the first r rounds of a longer run
        g = planted_graph([12, 12, 12], 0.7, 0.05, seed=42)
        shards = distribute_edges(g, 4, 0.5, seed=43)
        _, full_basis, full = observed_rounds(shards, 3, 44, 3, 100)
        stop = len(full)
        assert stop < 100
        for cap in (1, 10, stop - 1, stop, stop + 1):
            _, basis, rounds = observed_rounds(shards, 3, 44, 3, cap)
            assert len(rounds) == min(cap, stop)
            assert [d for _, d in rounds] == [d for _, d in full[: len(rounds)]]
            for (got, _), (want, _) in zip(rounds, full):
                assert np.array_equal(got, want)
            assert np.array_equal(basis, full[len(rounds) - 1][0])
        assert np.array_equal(full_basis, full[-1][0])

    def test_loop_stops_once_the_replies_repeat(self):
        # transports that always reply alike give the same basis from round
        # 0 on, so round 1 has no drift and the loop stops there
        rng = np.random.default_rng(65)
        x = rng.standard_normal((8, 2))
        transports = [FakeTransport(0, x), FakeTransport(1, 2 * x)]
        v0, _ = reduced_qr(rng.standard_normal((8, 2)))
        drift = []
        basis = server_round_loop(
            transports, v0, 10, on_round=lambda *round_: drift.append(round_[3])
        )
        assert len(drift) == 2 and drift[0] > STOP_DRIFT >= drift[1]
        assert [len(t.received) for t in transports] == [2, 2]
        assert np.array_equal(basis, reduced_qr(1.5 * x)[0])


def run_threads(monkeypatch):
    """Record the thread each PowerIterationClient round runs on."""
    idents = []
    real = PowerIterationClient.run_round

    def recorded(client, message):
        idents.append(threading.get_ident())
        return real(client, message)

    monkeypatch.setattr(PowerIterationClient, "run_round", recorded)
    return idents


class TestPooledRounds:
    """The clients of a round on a thread pool: same bits, same errors, and
    nothing left running."""

    def trial(self, monkeypatch, schedule, cores=2, clients=3, rounds=8):
        force_schedule(monkeypatch, schedule, cores)
        g = planted_graph([12, 12, 12], 0.7, 0.05, seed=40)
        cfg = ExperimentConfig(
            dataset_path="planted", num_clients=clients, num_clusters=3,
            iters=3, global_rounds=rounds, overlap=0.5,
        )
        _, labels, record, _ = run_single_trial(g, compute_reference(g, cfg), cfg, 41)
        return labels, record.round_drift

    def test_pooled_trial_is_bitwise_the_serial_trial(self, monkeypatch):
        # a cap of 8 is reached; a cap of 100 is not: both schedules stop
        # at the same round
        g = planted_graph([12, 12, 12], 0.7, 0.05, seed=42)
        shards = distribute_edges(g, 4, 0.5, seed=43)
        for cap in (8, 100):
            runs = {}
            for schedule in ("serial", "pooled"):
                force_schedule(monkeypatch, schedule)
                runs[schedule] = observed_rounds(shards, 3, 44, 3, cap)
            (ls, bs, rs), (lp, bp, rp) = runs["serial"], runs["pooled"]
            assert np.array_equal(ls, lp)
            assert np.array_equal(bs, bp)
            assert [d for _, d in rs] == [d for _, d in rp]
            serial = self.trial(monkeypatch, "serial", rounds=cap)
            pooled = self.trial(monkeypatch, "pooled", rounds=cap)
            assert np.array_equal(serial[0], pooled[0])
            assert serial[1] == pooled[1]
            ran = {len(rp), len(pooled[1])}
            assert ran == {8} if cap == 8 else max(ran) < cap

    def test_serial_with_one_core_or_one_client(self, monkeypatch):
        main = threading.get_ident()
        for cores, clients, on_pool in ((2, 3, True), (1, 3, False), (2, 1, False)):
            idents = run_threads(monkeypatch)
            self.trial(monkeypatch, "pooled", cores=cores, clients=clients)
            assert idents and all((i != main) == on_pool for i in idents)
            monkeypatch.undo()

    def test_pool_follows_the_smallest_client_round(self, monkeypatch):
        g = planted_graph([10, 10], 0.8, 0.08, seed=45)
        shards = distribute_edges(g, 3, 0.5, seed=46)
        smallest = min(fedplus.shard_multiplier(sh).nnz for sh in shards)
        main = threading.get_ident()
        for threshold, on_pool in ((smallest * 2 * 3, True), (smallest * 2 * 3 + 1, False)):
            monkeypatch.setattr(fedplus, "_usable_cores", lambda: 2)
            monkeypatch.setattr(fedplus, "POOL_MIN_WORK", threshold)
            idents = run_threads(monkeypatch)
            run_fedspectral_plus(shards, 2, 47, iters=3, global_rounds=2)
            assert idents and all((i != main) == on_pool for i in idents)
            monkeypatch.undo()

    def test_observer_runs_on_the_calling_thread(self, monkeypatch):
        force_schedule(monkeypatch, "pooled")
        idents = run_threads(monkeypatch)
        observed = []
        g = planted_graph([10, 10], 0.8, 0.08, seed=48)
        shards = distribute_edges(g, 3, 0.5, seed=49)
        run_fedspectral_plus(
            shards, 2, 50, iters=2, global_rounds=3,
            on_round=lambda *_: observed.append(threading.get_ident()),
        )
        assert observed == [threading.get_ident()] * 3
        assert len(idents) == 9 and threading.get_ident() not in idents

    def test_worker_contract_error_reaches_the_caller(self):
        rng = np.random.default_rng(51)
        x = rng.standard_normal((6, 2))

        class Impostor(FakeTransport):
            def run_round(self, message):
                return ClientReply(self.client_id + 1, self._reply.copy())

        transports = [FakeTransport(0, x), Impostor(1, x), FakeTransport(2, x)]
        v0, _ = reduced_qr(rng.standard_normal((6, 2)))
        threads = threading.active_count()
        with pytest.raises(ContractError, match="^round 0: client 1 replied as client 2$"):
            server_round_loop(transports, v0, 2, workers=2)
        assert threading.active_count() == threads

    def test_rank_error_carries_round_index(self):
        rng = np.random.default_rng(52)
        x = rng.standard_normal((6, 2))
        transports = [FakeTransport(0, x), FakeTransport(1, -x)]
        v0, _ = reduced_qr(rng.standard_normal((6, 2)))
        threads = threading.active_count()
        with pytest.raises(RankError, match="round 0"):
            server_round_loop(transports, v0, 2, workers=2)
        assert threading.active_count() == threads

    def test_threads_end_with_the_call(self, monkeypatch):
        force_schedule(monkeypatch, "pooled")
        g = planted_graph([10, 10], 0.8, 0.08, seed=53)
        shards = distribute_edges(g, 3, 0.5, seed=54)
        threads = threading.active_count()
        run_fedspectral_plus(shards, 2, 55, iters=2, global_rounds=3)
        assert threading.active_count() == threads

        def fail(*_):
            raise RuntimeError("observer failed")

        with pytest.raises(RuntimeError, match="observer failed"):
            run_fedspectral_plus(shards, 2, 55, iters=2, global_rounds=3, on_round=fail)
        assert threading.active_count() == threads

    def test_holds_at_most_the_anchor_and_one_reply_more_than_workers(self):
        # the twin of TestServerLoop's serial test: when a client is asked,
        # at most ``workers + 1`` replies besides the anchor are alive, the
        # running sum among them. Client 0 is slow, so replies would pile
        # up behind it if the pool were handed more requests.
        workers = 2
        lock = threading.Lock()
        issued, seen = [], []

        class Fresh:
            def __init__(self, client_id):
                self.client_id = client_id

            def run_round(self, message):
                reply = np.random.default_rng(
                    [message.round_index, self.client_id]
                ).standard_normal((12, 3))
                with lock:
                    alive = [(t, c) for t, c, ref in issued if ref() is not None]
                    seen.append((message.round_index, self.client_id, alive))
                    issued.append((message.round_index, self.client_id, weakref.ref(reply)))
                if self.client_id == 0:
                    time.sleep(0.02)
                return ClientReply(self.client_id, reply)

        transports = [Fresh(c) for c in (3, 0, 6, 4, 1, 5, 2)]
        v0, _ = reduced_qr(np.random.default_rng(56).standard_normal((12, 3)))
        server_round_loop(transports, v0, 3, workers=workers)
        assert sorted((t, c) for t, c, _ in seen) == [(t, c) for t in range(3) for c in range(7)]
        for t, c, alive in seen:
            assert len([a for a in alive if a != (t, 0)]) <= workers + 1
        assert all(ref() is None for _, _, ref in issued)

    def test_next_client_is_queued_while_the_workers_run(self):
        # with two workers and three clients, client 2 must start while
        # client 0 is still running: a freed worker takes the queued request
        # without waiting for the calling thread to fold a reply
        rng = np.random.default_rng(63)
        replies = rng.standard_normal((3, 6, 2))
        third_started = threading.Event()
        waited = []

        class Gated:
            def __init__(self, client_id):
                self.client_id = client_id

            def run_round(self, message):
                if self.client_id == 2:
                    third_started.set()
                if self.client_id == 0 and message.round_index == 0:
                    waited.append(third_started.wait(timeout=10.0))
                return ClientReply(self.client_id, replies[self.client_id].copy())

        v0, _ = reduced_qr(rng.standard_normal((6, 2)))
        pooled = server_round_loop([Gated(c) for c in range(3)], v0, 2, workers=2)
        assert waited == [True]
        serial = server_round_loop([Gated(c) for c in range(3)], v0, 2)
        assert np.array_equal(pooled, serial)

    def test_more_workers_than_cores_under_fast_switching(self, monkeypatch):
        g = planted_graph([10, 10, 10], 0.8, 0.06, seed=57)
        shards = distribute_edges(g, 6, 0.5, seed=58)
        force_schedule(monkeypatch, "serial")
        expected = run_fedspectral_plus(shards, 3, 59, iters=2, global_rounds=10)
        force_schedule(monkeypatch, "pooled", cores=4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                got = run_fedspectral_plus(shards, 3, 59, iters=2, global_rounds=10)
                assert np.array_equal(got[0], expected[0])
                assert np.array_equal(got[1], expected[1])
        finally:
            sys.setswitchinterval(interval)


class FakeBlas:
    """Thread-count functions of a stand-in BLAS."""

    def __init__(self, count):
        self.count = count

    def get(self):
        return self.count

    def set(self, count):
        self.count = count


class TestBlasPolicy:
    def shards(self):
        g = planted_graph([10, 10], 0.8, 0.08, seed=60)
        return distribute_edges(g, 3, 0.5, seed=61)

    def test_counts_are_one_during_the_protocol_and_restored_after(self, monkeypatch):
        blas = [FakeBlas(2), FakeBlas(3)]
        monkeypatch.setattr(
            linalg, "_openblas_thread_controls", lambda: [(b.get, b.set) for b in blas]
        )
        during = []

        def on_round(*_):
            during.append([b.count for b in blas])

        run_fedspectral_plus(self.shards(), 2, 62, iters=2, global_rounds=2, on_round=on_round)
        assert during == [[1, 1], [1, 1]]
        assert [b.count for b in blas] == [2, 3]

        def fail(*_):
            raise RankError("observer failed")

        with pytest.raises(RankError):
            run_fedspectral_plus(self.shards(), 2, 62, iters=2, global_rounds=2, on_round=fail)
        assert [b.count for b in blas] == [2, 3]

    def test_bundled_openblas_counts_are_restored(self):
        controls = linalg._openblas_thread_controls()
        if not controls:
            pytest.skip("no bundled OpenBLAS exports its thread-count functions here")
        before = [get() for get, _ in controls]
        during = []

        def on_round(*_):
            during.append([get() for get, _ in controls])

        run_fedspectral_plus(self.shards(), 2, 63, iters=2, global_rounds=2, on_round=on_round)
        assert during == [[1] * len(controls)] * 2
        assert [get() for get, _ in controls] == before

        def fail(*_):
            raise RankError("observer failed")

        with pytest.raises(RankError):
            run_fedspectral_plus(self.shards(), 2, 63, iters=2, global_rounds=2, on_round=fail)
        assert [get() for get, _ in controls] == before

    def test_protocol_runs_without_thread_controls(self, monkeypatch):
        expected = run_fedspectral_plus(self.shards(), 2, 64, iters=2, global_rounds=4)
        monkeypatch.setattr(linalg, "_openblas_thread_controls", lambda: ())
        got = run_fedspectral_plus(self.shards(), 2, 64, iters=2, global_rounds=4)
        assert np.array_equal(got[0], expected[0])
        assert np.array_equal(got[1], expected[1])

    def test_lookup_finds_nothing_without_the_symbols(self, monkeypatch):
        monkeypatch.setattr(linalg, "_BUNDLED_OPENBLAS", ((np, "no_such_get", "no_such_set"),))
        assert linalg._openblas_thread_controls.__wrapped__() == ()
