import numpy as np
import pytest

from fedspectral.baseline import (
    build_similarity_graph,
    fedspectral_server,
    get_client_labels,
)
from fedspectral.diagnostics import Diagnostics
from fedspectral.errors import ContractError
from fedspectral.graph import Graph
from fedspectral.linalg import global_spectral_clustering
from fedspectral.metrics import cluster_similarity
from fedspectral.partition import ClientShard, distribute_edges

from conftest import planted_graph


def shard_from_graph(g, client_id=0):
    return ClientShard(g.num_nodes, g.edges, g.weights, client_id=client_id)


def empty_shard(n=6, client_id=0):
    return ClientShard(
        n, np.empty((0, 2), dtype=np.int64), np.empty(0), client_id=client_id
    )


class TestClientLabels:
    def test_component_separation(self):
        g = Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
        labels = get_client_labels(shard_from_graph(g), 2, seed=0)
        assert labels[0] == labels[1] == labels[2]
        assert labels[3] == labels[4] == labels[5]
        assert labels[0] != labels[3]

    def test_full_shard_equals_global_pipeline(self):
        g = planted_graph([12, 12, 12], 0.8, 0.05, seed=20)
        labels = get_client_labels(shard_from_graph(g), 3, seed=42)
        assert np.array_equal(labels, global_spectral_clustering(g, 3, seed=42))

    def test_empty_shard_deterministic_and_flagged(self):
        diag = Diagnostics()
        a = get_client_labels(empty_shard(), 2, seed=9, diag=diag)
        b = get_client_labels(empty_shard(), 2, seed=9)
        assert np.array_equal(a, b)
        assert set(a.tolist()) <= {0, 1}
        assert any("degenerate shard" in f for f in diag.flags)

    def test_cluster_count_contract(self):
        with pytest.raises(ContractError):
            get_client_labels(empty_shard(n=3), 4, seed=0)


class TestSimilarityGraph:
    def test_two_client_entries(self):
        both = build_similarity_graph([[0, 0, 1], [1, 1, 0]], 2)
        assert both[0, 1] == 1.0
        one = build_similarity_graph([[0, 0, 1], [0, 1, 1]], 2)
        assert one[0, 1] == 0.5

    def test_unanimous_clients_give_comembership_blocks(self):
        labels = np.array([0, 0, 1, 1, 2])
        sim = build_similarity_graph([labels, labels, labels], 3)
        expected = (labels[:, None] == labels[None, :]).astype(float)
        assert np.array_equal(sim, expected)

    def test_diagonal_is_exactly_one_and_grid_valued(self):
        rng = np.random.default_rng(5)
        labelings = [rng.integers(0, 3, 12) for _ in range(4)]
        sim = build_similarity_graph(labelings, 4)
        assert np.array_equal(np.diagonal(sim), np.ones(12))
        assert np.array_equal(sim, sim.T)
        scaled = sim * 4
        assert np.abs(scaled - np.round(scaled)).max() < 1e-12

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(6)
        num_clients, n = 5, 40
        labelings = [rng.integers(0, 4, n) for _ in range(num_clients)]
        sim = build_similarity_graph(labelings, num_clients)
        brute = np.zeros((n, n))
        for lab in labelings:
            for i in range(n):
                for j in range(n):
                    if lab[i] == lab[j]:
                        brute[i, j] += 1 / num_clients
        assert np.abs(sim - brute).max() < 1e-12

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(7)
        labelings = [rng.integers(0, 4, 15) for _ in range(3)]
        base = build_similarity_graph(labelings, 3)
        perm = rng.permutation(4)
        relabeled = [perm[lab] for lab in labelings]
        assert np.array_equal(base, build_similarity_graph(relabeled, 3))

    def test_contracts(self):
        with pytest.raises(ContractError):
            build_similarity_graph([[0, 1]], 2)
        with pytest.raises(ContractError):
            build_similarity_graph([[0, 1], [0, 1, 2]], 2)


class TestServer:
    def test_single_client_reproduces_local_clustering(self):
        g = planted_graph([15, 15, 15], 0.8, 0.04, seed=21)
        shard = shard_from_graph(g)
        server_labels = fedspectral_server([shard], 3, seed=33)
        from fedspectral.seeding import client_seed

        client_labels = get_client_labels(shard, 3, client_seed(33, 0))
        assert cluster_similarity(client_labels, server_labels) >= 0.99

    def test_deterministic_and_order_independent(self):
        g = planted_graph([12, 12], 0.75, 0.06, seed=22)
        shards = distribute_edges(g, 3, 0.5, seed=23)
        a = fedspectral_server(shards, 2, seed=44)
        b = fedspectral_server(list(reversed(shards)), 2, seed=44)
        assert np.array_equal(a, b)

    def test_universe_mismatch_rejected(self):
        with pytest.raises(ContractError):
            fedspectral_server([empty_shard(4, 0), empty_shard(5, 1)], 2, seed=0)

    def test_client_label_dump(self, tmp_path):
        g = planted_graph([10, 10], 0.8, 0.05, seed=24)
        shards = distribute_edges(g, 2, 0.5, seed=25)
        fedspectral_server(shards, 2, seed=55, dump_dir=tmp_path)
        assert (tmp_path / "client_0_labels.csv").exists()
        assert (tmp_path / "client_1_labels.csv").exists()
