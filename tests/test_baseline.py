import numpy as np
import pytest
from scipy import sparse

from fedspectral import baseline
from fedspectral.baseline import (
    build_similarity_graph,
    fedspectral_server,
    get_client_labels,
)
from fedspectral.errors import ContractError
from fedspectral.graph import (
    Graph,
    normalized_laplacian,
    normalized_laplacian_from_adjacency,
)
from fedspectral.linalg import (
    bottom_k_eigenvectors,
    cluster_embedding_rows,
    global_spectral_clustering,
)
from fedspectral.metrics import cluster_similarity
from fedspectral.partition import ClientShard, distribute_edges
from fedspectral.seeding import derive_seed, embedding_seed, kmeans_seed

from conftest import dense_adjacency, planted_graph


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
        # the flag itself is a record field; see test_experiment's
        # test_records_flag_empty_shards_in_client_order
        a = get_client_labels(empty_shard(), 2, seed=9)
        b = get_client_labels(empty_shard(), 2, seed=9)
        assert np.array_equal(a, b)
        assert set(a.tolist()) <= {0, 1}

    def test_cluster_count_contract(self):
        with pytest.raises(ContractError):
            get_client_labels(empty_shard(n=3), 4, seed=0)


class TestSimilarityGraph:
    def test_two_client_entries(self):
        both = build_similarity_graph([[0, 0, 1], [1, 1, 0]], 2)
        assert dense_adjacency(both)[0, 1] == 1.0
        one = build_similarity_graph([[0, 0, 1], [0, 1, 1]], 2)
        assert dense_adjacency(one)[0, 1] == 0.5

    def test_unanimous_clients_give_comembership_blocks(self):
        labels = np.array([0, 0, 1, 1, 2])
        sim = build_similarity_graph([labels, labels, labels], 3)
        expected = (labels[:, None] == labels[None, :]).astype(float)
        assert np.array_equal(dense_adjacency(sim) + np.eye(5), expected)

    def test_diagonal_is_exactly_one_and_grid_valued(self):
        # the co-membership diagonal is one by definition; the Graph stores
        # no self-loops, by design, so its adjacency diagonal is zero
        rng = np.random.default_rng(5)
        labelings = [rng.integers(0, 3, 12) for _ in range(4)]
        sim = build_similarity_graph(labelings, 4)
        assert isinstance(sim, Graph) and sim.num_nodes == 12
        assert (sim.edges[:, 0] < sim.edges[:, 1]).all()
        assert not np.diagonal(dense_adjacency(sim)).any()
        assert ((sim.weights > 0) & (sim.weights <= 1)).all()
        scaled = sim.weights * 4
        assert np.abs(scaled - np.round(scaled)).max() < 1e-12

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(6)
        num_clients, n = 5, 40
        random = [rng.integers(0, 4, n) for _ in range(num_clients)]
        # unequal per-client k moves every later client's column block in H
        unequal = [rng.integers(0, k, n) for k in (1, 7, 2, 12, 3)]
        unanimous = [random[0]] * num_clients
        for labelings in (random, unequal, unanimous):
            sim = build_similarity_graph(labelings, num_clients)
            assert isinstance(sim, Graph)
            brute = np.zeros((n, n))
            for lab in labelings:
                for i in range(n):
                    for j in range(n):
                        if lab[i] == lab[j]:
                            brute[i, j] += 1 / num_clients
            assert np.abs(dense_adjacency(sim) + np.eye(n) - brute).max() < 1e-12

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(7)
        labelings = [rng.integers(0, 4, 15) for _ in range(3)]
        base = build_similarity_graph(labelings, 3)
        perm = rng.permutation(4)
        relabeled = build_similarity_graph([perm[lab] for lab in labelings], 3)
        assert np.array_equal(base.edges, relabeled.edges)
        assert np.array_equal(base.weights, relabeled.weights)

    def test_contracts(self):
        with pytest.raises(ContractError):
            build_similarity_graph([[0, 1]], 2)
        with pytest.raises(ContractError):
            build_similarity_graph([[0, 1], [0, 1, 2]], 2)
        # float labels would be truncated into columns, merging nodes 0 and 1
        with pytest.raises(ContractError, match="integer"):
            build_similarity_graph([[0.2, 0.7, 1.0]], 1)
        with pytest.raises(ContractError, match="non-zero length"):
            build_similarity_graph([[], []], 2)
        with pytest.raises(ContractError, match="1-D"):
            build_similarity_graph([[[0, 1], [1, 0]]], 1)
        with pytest.raises(ContractError, match="non-negative"):
            build_similarity_graph([[0, -1]], 1)


def comembership_counts(labelings):
    """Integer N x N count of the clients that co-label each pair."""
    return sum((lab[:, None] == lab[None, :]).astype(np.int64) for lab in labelings)


def oracle_labelings(case, rng, n, num_clients):
    if case == "random":
        return [rng.integers(0, rng.integers(1, 8), n) for _ in range(num_clients)]
    if case == "unequal":
        return [rng.integers(0, k, n) for k in (1, 9, 2, 5, 3, 12, 4)[:num_clients]]
    if case == "unanimous":
        return [rng.integers(0, 4, n)] * num_clients
    # near-singleton: k close to N leaves most nodes alone or in pairs
    return [rng.integers(0, n - 2, n) for _ in range(num_clients)]


class TestServerOracle:
    """The server equals the pipeline it replaced, which clustered the
    Laplacian of the adjacency H H^T / C - I with the server's seeds."""

    @pytest.mark.parametrize("case", ["random", "unequal", "unanimous", "singletons"])
    def test_laplacian_and_labels_match_adjacency_pipeline(self, monkeypatch, case):
        rng = np.random.default_rng(len(case))
        for trial in range(8):
            # 1 / C is inexact for C = 3, 5, 6, 7, where the rounding shows
            n, num_clients = int(rng.integers(8, 40)), int(rng.integers(2, 8))
            labelings = oracle_labelings(case, rng, n, num_clients)
            # scipy divides a sparse matrix by C as count * (1/C), whose bits
            # differ from count / C (3 * (1/5) != 3 / 5), so divide the CSR
            counts = sparse.csr_array(comembership_counts(labelings))
            identity = sparse.eye_array(n, format="csr")
            old_lap = normalized_laplacian_from_adjacency(counts / num_clients - identity)
            lap = normalized_laplacian(build_similarity_graph(labelings, num_clients))
            assert lap.shape == old_lap.shape
            assert np.array_equal(lap.indptr, old_lap.indptr)
            assert np.array_equal(lap.indices, old_lap.indices)
            assert np.array_equal(lap.data, old_lap.data)

            monkeypatch.setattr(
                baseline, "get_client_labels", lambda sh, *a, **kw: labelings[sh.client_id]
            )
            shards = [empty_shard(n, c) for c in range(num_clients)]
            k, seed, rows = int(rng.integers(1, min(n, 8) + 1)), 100 + trial, trial % 2 == 1
            server = derive_seed(seed, "server")
            embedding = bottom_k_eigenvectors(old_lap, k, embedding_seed(server))
            expected = cluster_embedding_rows(
                embedding, k, kmeans_seed(server), normalize_rows=rows
            )
            labels = fedspectral_server(shards, k, seed, normalize_rows=rows)
            assert np.array_equal(labels, expected)


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
