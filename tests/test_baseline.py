import weakref

import numpy as np
import pytest
from scipy.linalg import subspace_angles

from fedspectral import baseline, linalg, partition
from fedspectral.baseline import (
    TwinQuotient,
    build_similarity_graph,
    fedspectral_server,
    get_client_labels,
)
from fedspectral.errors import ContractError
from fedspectral.graph import Graph, normalized_laplacian
from fedspectral.linalg import (
    bottom_k_eigenvectors,
    global_spectral_clustering,
    kmeans,
    symmetric_eig_reference,
)
from fedspectral.metrics import cluster_similarity
from fedspectral.partition import ClientShard, distribute_edges
from fedspectral.seeding import derive_seed, embedding_seed, kmeans_seed

from conftest import comembership_graph, dense_adjacency, planted_graph


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


def comembership_matrix(q):
    """Dense N x N co-membership H H^T / C of a twin quotient, diagonal included."""
    return q.agreement.toarray()[np.ix_(q.classes, q.classes)]


class TestSimilarityGraph:
    def test_two_client_entries(self):
        both = build_similarity_graph([[0, 0, 1], [1, 1, 0]])
        assert comembership_matrix(both)[0, 1] == 1.0
        one = build_similarity_graph([[0, 0, 1], [0, 1, 1]])
        assert comembership_matrix(one)[0, 1] == 0.5

    def test_unanimous_clients_give_comembership_blocks(self):
        labels = np.array([0, 0, 1, 1, 2])
        sim = build_similarity_graph([labels, labels, labels])
        expected = (labels[:, None] == labels[None, :]).astype(float)
        assert np.array_equal(comembership_matrix(sim), expected)
        assert np.array_equal(sim.classes, labels)
        assert np.array_equal(sim.sizes, [2, 2, 1])

    def test_diagonal_is_exactly_one_and_grid_valued(self):
        # every class agrees with itself on every client, so S stores its
        # diagonal, C * (1/C), which is exactly one for C = 4
        rng = np.random.default_rng(5)
        labelings = [rng.integers(0, 3, 12) for _ in range(4)]
        sim = build_similarity_graph(labelings)
        m = len(sim.sizes)
        assert isinstance(sim, TwinQuotient) and sim.classes.shape == (12,)
        assert np.array_equal(sim.sizes, np.bincount(sim.classes, minlength=m))
        assert sim.agreement.shape == (m, m) and sim.agreement.has_canonical_format
        assert np.array_equal(sim.agreement.diagonal(), np.ones(m))
        assert ((sim.agreement.data > 0) & (sim.agreement.data <= 1)).all()
        scaled = sim.agreement.data * 4
        assert np.abs(scaled - np.round(scaled)).max() < 1e-12

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(6)
        num_clients, n = 5, 40
        random = [rng.integers(0, 4, n) for _ in range(num_clients)]
        # unequal per-client k moves every later client's column block in H
        unequal = [rng.integers(0, k, n) for k in (1, 7, 2, 12, 3)]
        unanimous = [random[0]] * num_clients
        for labelings in (random, unequal, unanimous):
            sim = build_similarity_graph(labelings)
            brute = np.zeros((n, n))
            for lab in labelings:
                for i in range(n):
                    for j in range(n):
                        if lab[i] == lab[j]:
                            brute[i, j] += 1 / num_clients
            assert np.abs(comembership_matrix(sim) - brute).max() < 1e-12
            oracle = comembership_graph(labelings, num_clients)
            assert np.abs(dense_adjacency(oracle) + np.eye(n) - brute).max() < 1e-12
            signature = np.stack(labelings, axis=1)
            twins = (signature[:, None] == signature[None, :]).all(axis=2)
            assert np.array_equal(sim.classes[:, None] == sim.classes[None, :], twins)

    def test_classes_numbered_by_first_appearance(self):
        # signatures (2, 1), (0, 1), (2, 1), (1, 0), (0, 1)
        sim = build_similarity_graph([[2, 0, 2, 1, 0], [1, 1, 1, 0, 1]])
        assert np.array_equal(sim.classes, [0, 1, 0, 2, 1])
        assert np.array_equal(sim.sizes, [2, 2, 1])
        assert np.array_equal(sim.agreement.toarray(), [[1, 0.5, 0], [0.5, 1, 0], [0, 0, 1]])

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(7)
        labelings = [rng.integers(0, 4, 15) for _ in range(3)]
        base = build_similarity_graph(labelings)
        perm = rng.permutation(4)
        relabeled = build_similarity_graph([perm[lab] for lab in labelings])
        assert np.array_equal(base.classes, relabeled.classes)
        assert np.array_equal(base.sizes, relabeled.sizes)
        for field in ("indptr", "indices", "data"):
            assert np.array_equal(
                getattr(base.agreement, field), getattr(relabeled.agreement, field)
            )

    def test_contracts(self):
        with pytest.raises(ContractError, match="at least one"):
            build_similarity_graph([])
        with pytest.raises(ContractError):
            build_similarity_graph([[0, 1], [0, 1, 2]])
        # float labels would be truncated into columns, merging nodes 0 and 1
        with pytest.raises(ContractError, match="integer"):
            build_similarity_graph([[0.2, 0.7, 1.0]])
        with pytest.raises(ContractError, match="non-zero length"):
            build_similarity_graph([[], []])
        with pytest.raises(ContractError, match="1-D"):
            build_similarity_graph([[[0, 1], [1, 0]]])
        with pytest.raises(ContractError, match="non-negative"):
            build_similarity_graph([[0, -1]])


def oracle_labelings(case, rng, n, num_clients):
    if case == "random":
        return [rng.integers(0, rng.integers(1, 8), n) for _ in range(num_clients)]
    if case == "unequal":
        return [rng.integers(0, k, n) for k in (1, 9, 2, 5, 3, 12, 4)[:num_clients]]
    if case == "unanimous":
        return [rng.integers(0, 4, n)] * num_clients
    if case == "isolated":
        # the last node is alone on every client: a class with d_a = 0
        return [np.append(rng.integers(0, 3, n - 1), 3) for _ in range(num_clients)]
    if case == "k_above_m":
        # at most four classes, fewer than the N >= 8 nodes
        return [rng.integers(0, 2, n) for _ in range(2)]
    # near-singleton: k close to N leaves most nodes alone or in pairs
    return [rng.integers(0, n - 2, n) for _ in range(num_clients)]


def spy_on(monkeypatch, module, name, calls):
    """Wrap module.name so each call's first argument is appended to calls."""
    real = getattr(module, name)

    def spy(first, *args, **kwargs):
        calls.append(first)
        return real(first, *args, **kwargs)

    monkeypatch.setattr(module, name, spy)


def serve(monkeypatch, labelings, k, seed):
    """fedspectral_server over clients that return the given labelings."""
    monkeypatch.setattr(
        baseline, "get_client_labels", lambda sh, *a, **kw: labelings[sh.client_id]
    )
    n = len(labelings[0])
    shards = [empty_shard(n, c) for c in range(len(labelings))]
    labels, _ = fedspectral_server(shards, k, seed)
    return labels


class TestServerOracle:
    """The server equals the N-node pipeline it replaced: the normalized
    Laplacian of conftest.comembership_graph, solved by bottom_k_eigenvectors
    and clustered with the server's seeds."""

    @pytest.mark.parametrize(
        "case", ["random", "unequal", "unanimous", "singletons", "isolated", "k_above_m"]
    )
    def test_laplacian_and_labels_match_adjacency_pipeline(self, monkeypatch, case):
        rng = np.random.default_rng(len(case))
        embeddings = []
        spy_on(monkeypatch, linalg, "kmeans", embeddings)
        for trial in range(8):
            # 1 / C is inexact for C = 3, 5, 6, 7, where the rounding shows
            n, num_clients = int(rng.integers(8, 40)), int(rng.integers(2, 8))
            labelings = oracle_labelings(case, rng, n, num_clients)
            sizes = build_similarity_graph(labelings).sizes
            m = len(sizes)
            lap = normalized_laplacian(comembership_graph(labelings, len(labelings)))
            vals, vecs = symmetric_eig_reference(lap.toarray())
            if case == "k_above_m" and trial % 2:
                k = int(rng.integers(m + 1, min(n, m + 4) + 1))
            elif case == "k_above_m":
                # the first gap above the quotient's m eigenvalues
                k = m + 1 + int(np.argmax(np.diff(vals[m:]) > 1e-6))
            elif case == "unanimous":
                # every zero (one a class), then also the lowest within-class
                # eigenspace, that of the largest class: both gapped unless
                # two classes tie for largest
                k = m + (int(sizes.max()) - 1) * (trial % 2)
            else:
                k = int(rng.integers(1, min(n, 8) + 1))
            seed = 100 + trial
            labels = serve(monkeypatch, labelings, k, seed)
            embedding = embeddings.pop()
            rayleigh = np.einsum("ij,ij->j", embedding, lap @ embedding)
            assert np.abs(embedding.T @ embedding - np.eye(k)).max() < 1e-12
            assert np.abs(np.sort(rayleigh) - vals[:k]).max() < 1e-12
            assert np.abs(lap @ embedding - embedding * rayleigh).max() < 1e-10
            if k == n or vals[k] - vals[k - 1] <= 1e-6:
                continue
            assert np.sin(subspace_angles(embedding, vecs[:, :k]).max()) <= 1e-9
            server = derive_seed(seed, "server")
            oracle = bottom_k_eigenvectors(lap, k, embedding_seed(server))
            assert np.array_equal(labels, kmeans(oracle, k, kmeans_seed(server)))

    def test_within_class_pairs_in_helmert_basis(self, monkeypatch):
        # unanimous clients, m = 2 < K = 4: the quotient gives two zero
        # eigenvalues, class 0 (n = 3, d = 2) two at 1.5, class 1 two at 2
        embeddings = []
        spy_on(monkeypatch, linalg, "kmeans", embeddings)
        labels = np.array([0, 0, 0, 1, 1])
        serve(monkeypatch, [labels, labels], 4, seed=3)
        (embedding,) = embeddings
        helmert = np.array([[1, -1, 0, 0, 0], [1, 1, -2, 0, 0]]) / np.sqrt([[2], [6]])
        assert np.abs(embedding[:, 2:].T - helmert).max() < 1e-15
        # the two zero eigenvalues give the class indicators, the class with
        # the lower node first
        indicators = np.eye(2)[labels] / np.sqrt([3, 2])
        assert np.abs(embedding[:, :2] - indicators).max() < 1e-15

    def test_within_class_pair_below_a_quotient_eigenvalue(self, monkeypatch):
        # classes {0..9}, {10}, {11} (m = K = 3): the quotient's eigenvalues
        # are 0, 0 and 2 (nodes 10 and 11 agree on one client of two), so
        # the first within-class pair of class 0, at 1 + 1/9, takes the third
        # column
        embeddings = []
        spy_on(monkeypatch, linalg, "kmeans", embeddings)
        labelings = [np.array([0] * 10 + [1, 1]), np.array([0] * 10 + [1, 2])]
        serve(monkeypatch, labelings, 3, seed=4)
        (embedding,) = embeddings
        assert np.abs(embedding[:, 2] - np.r_[1, -1, [0] * 10] / np.sqrt(2)).max() < 1e-15
        lap = normalized_laplacian(comembership_graph(labelings, 2))
        vals, _ = symmetric_eig_reference(lap.toarray())
        rayleigh = np.einsum("ij,ij->j", embedding, lap @ embedding)
        assert np.abs(rayleigh - vals[:3]).max() < 1e-12
        assert abs(vals[2] - (1 + 1 / 9)) < 1e-12

    def test_solves_only_the_twin_quotient(self, monkeypatch):
        rng = np.random.default_rng(11)
        n = 60
        labelings = [rng.integers(0, 3, n) for _ in range(4)]
        m = len(np.unique(np.stack(labelings, axis=1), axis=0))
        assert m < n
        shapes = []
        real = linalg.bottom_k_eigenvectors

        def spy(lap, k, seed):
            shapes.append(lap.shape)
            return real(lap, k, seed)

        # where both the server and the N-node pipeline look the solver up
        monkeypatch.setattr(linalg, "bottom_k_eigenvectors", spy)
        labels = serve(monkeypatch, labelings, 3, seed=5)
        assert labels.shape == (n,)
        assert shapes == [(m, m)]


class TestServer:
    def test_single_client_reproduces_local_clustering(self):
        g = planted_graph([15, 15, 15], 0.8, 0.04, seed=21)
        shard = shard_from_graph(g)
        server_labels, (client_labels,) = fedspectral_server([shard], 3, seed=33)
        from fedspectral.seeding import client_seed

        assert np.array_equal(client_labels, get_client_labels(shard, 3, client_seed(33, 0)))
        assert cluster_similarity(client_labels, server_labels) >= 0.99

    def test_deterministic_and_order_independent(self):
        g = planted_graph([12, 12], 0.75, 0.06, seed=22)
        shards = distribute_edges(g, 3, 0.5, seed=23)
        a, a_clients = fedspectral_server(shards, 2, seed=44)
        b, b_clients = fedspectral_server(list(reversed(shards)), 2, seed=44)
        assert np.array_equal(a, b)
        # the client labelings come back in client-id order either way
        assert np.array_equal(a_clients, b_clients)

    def test_one_shot_generator_in_reverse_order_matches_the_list(self):
        g = planted_graph([12, 12], 0.75, 0.06, seed=24)
        shards = distribute_edges(g, 3, 0.5, seed=25)
        labels, clients = fedspectral_server(shards, 2, seed=45)
        got, got_clients = fedspectral_server((sh for sh in reversed(shards)), 2, seed=45)
        assert np.array_equal(got, labels)
        assert len(got_clients) == len(clients)
        assert all(np.array_equal(a, b) for a, b in zip(got_clients, clients))

    def test_each_shard_is_dead_when_its_client_solve_starts(self, monkeypatch):
        g = planted_graph([10, 10], 0.8, 0.08, seed=68)
        expected, _ = fedspectral_server(distribute_edges(g, 3, 0.5, 69), 2, seed=70)
        refs, alive = [], []
        build, solve = partition.ShardSequence.__getitem__, linalg.bottom_k_eigenvectors

        def built(self, c):
            shard = build(self, c)
            refs.append(weakref.ref(shard))
            return shard

        def spy(*args, **kwargs):
            alive.append([ref() is not None for ref in refs])
            return solve(*args, **kwargs)

        monkeypatch.setattr(partition.ShardSequence, "__getitem__", built)
        monkeypatch.setattr(linalg, "bottom_k_eigenvectors", spy)
        labels, _ = fedspectral_server(iter(distribute_edges(g, 3, 0.5, 69)), 2, seed=70)
        # each client's solve starts once its Laplacian exists and its
        # shard is gone; the server's solve comes after all three
        assert alive == [[False], [False] * 2, [False] * 3, [False] * 3]
        assert np.array_equal(labels, expected)

    def test_universe_mismatch_rejected(self):
        with pytest.raises(ContractError):
            fedspectral_server([empty_shard(4, 0), empty_shard(5, 1)], 2, seed=0)

    def test_blas_counts_are_one_during_the_run_and_restored_after(self, monkeypatch):
        counts = [2, 3]

        def control(i):
            def set_(count):
                counts[i] = count

            return (lambda: counts[i]), set_

        monkeypatch.setattr(linalg, "_openblas_thread_controls", lambda: [control(0), control(1)])
        during = []
        real_labels, real_kmeans = baseline.get_client_labels, linalg.kmeans

        def client_labels(*args):
            during.append(list(counts))
            return real_labels(*args)

        def kmeans(*args):
            during.append(list(counts))
            return real_kmeans(*args)

        monkeypatch.setattr(baseline, "get_client_labels", client_labels)
        monkeypatch.setattr(linalg, "kmeans", kmeans)
        shards = distribute_edges(planted_graph([10, 10], 0.8, 0.08, seed=65), 3, 0.5, seed=66)
        expected, _ = fedspectral_server(shards, 2, seed=67)
        # three clients and their k-means runs, then the server's k-means
        assert during == [[1, 1]] * 7
        assert counts == [2, 3]

        def fail(*_):
            raise ContractError("k-means failed")

        monkeypatch.setattr(linalg, "kmeans", fail)
        with pytest.raises(ContractError, match="k-means failed"):
            fedspectral_server(shards, 2, seed=67)
        assert counts == [2, 3]
        monkeypatch.undo()
        assert np.array_equal(fedspectral_server(shards, 2, seed=67)[0], expected)
