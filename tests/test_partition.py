import numpy as np
import pytest
from scipy import sparse

from fedspectral.errors import ConfigError, ContractError
from fedspectral.graph import (
    Graph,
    laplacian_multiplier,
    normalized_laplacian,
    parse_arcs,
)
from fedspectral.partition import (
    ClientShard,
    distribute_edges,
    replication_count,
    shard_universe,
    write_shard,
)

from conftest import gnp_graph


class TestReplicationCount:
    def test_paper_setting(self):
        assert replication_count(0.4, 5) == 2

    def test_floor_one(self):
        assert replication_count(0.1, 5) == 1

    def test_half_rounds_up(self):
        assert replication_count(0.3, 5) == 2  # 1.5 -> 2
        assert replication_count(0.75, 2) == 2  # 1.5 -> 2

    def test_nearest(self):
        assert replication_count(0.3, 4) == 1  # 1.2 -> 1
        assert replication_count(0.9, 4) == 4  # 3.6 -> 4

    def test_full(self):
        assert replication_count(1.0, 7) == 7

    def test_every_count_reachable_from_its_fraction(self):
        # overlap r / C selects r, so overlap alone sets every replication
        misses = [
            (r, c)
            for c in range(1, 201)
            for r in range(1, c + 1)
            if replication_count(r / c, c) != r
        ]
        assert misses == []

    def test_invalid_overlap(self):
        with pytest.raises(ConfigError):
            replication_count(0.0, 5)
        with pytest.raises(ConfigError):
            replication_count(1.2, 5)
        with pytest.raises(ConfigError):
            replication_count(-0.4, 5)


def edge_multiplicity(g, shards):
    counts = {tuple(e): 0 for e in g.edges.tolist()}
    for shard in shards:
        for e in shard.edges.tolist():
            counts[tuple(e)] += 1
    return counts


class TestDistributeEdges:
    def test_exact_replication(self):
        g = gnp_graph(40, 0.2, 0)
        shards = distribute_edges(g, 5, 0.4, seed=1)
        assert len(shards) == 5
        assert all(c == 2 for c in edge_multiplicity(g, shards).values())

    def test_single_client_identity(self):
        g = gnp_graph(20, 0.3, 1)
        (shard,) = distribute_edges(g, 1, 0.5, seed=2)
        assert shard.num_nodes == g.num_nodes
        assert np.array_equal(shard.edges, g.edges)

    def test_full_overlap_replicates_everything(self):
        g = gnp_graph(20, 0.3, 2)
        shards = distribute_edges(g, 3, 1.0, seed=3)
        for shard in shards:
            assert np.array_equal(shard.edges, g.edges)

    def test_union_conservation(self):
        g = gnp_graph(30, 0.2, 3)
        shards = distribute_edges(g, 4, 0.5, seed=4)
        union = {tuple(e) for sh in shards for e in sh.edges.tolist()}
        assert union == {tuple(e) for e in g.edges.tolist()}

    def test_deterministic(self):
        g = gnp_graph(30, 0.2, 4)
        a = distribute_edges(g, 5, 0.4, seed=5)
        b = distribute_edges(g, 5, 0.4, seed=5)
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.edges, sb.edges)

    def test_shards_span_universe_and_subset(self):
        g = gnp_graph(25, 0.15, 5)
        global_set = {tuple(e) for e in g.edges.tolist()}
        for shard in distribute_edges(g, 6, 0.3, seed=6):
            assert shard.num_nodes == g.num_nodes
            assert {tuple(e) for e in shard.edges.tolist()} <= global_set

    def test_uniformity_three_sigma(self):
        g = gnp_graph(120, 0.3, 6)
        num_edges = g.num_edges
        assert num_edges > 1500
        shards = distribute_edges(g, 5, 0.4, seed=7)
        p = 2 / 5
        sigma = np.sqrt(num_edges * p * (1 - p))
        for shard in shards:
            assert abs(shard.num_edges - num_edges * p) <= 3 * sigma

    def test_invalid_clients(self):
        g = gnp_graph(10, 0.3, 8)
        with pytest.raises(ConfigError):
            distribute_edges(g, 0, 0.5, seed=9)


class TestShardIO:
    def test_roundtrip(self, tmp_path):
        g = gnp_graph(15, 0.3, 9)
        shard = distribute_edges(g, 3, 0.4, seed=10)[1]
        path = tmp_path / "client_1.txt"
        write_shard(shard, path, seed=10)
        text = path.read_text()
        header = [line for line in text.splitlines() if line.startswith("#")]
        assert header == ["# client_id: 1", "# seed: 10", f"# nodes: {g.num_nodes}"]
        assert np.array_equal(parse_arcs(text), shard.edges)

    def test_rejects_non_unit_weights(self, tmp_path):
        shard = ClientShard(
            3, np.array([[0, 1], [1, 2]]), np.array([2.5, 0.5]), client_id=0
        )
        path = tmp_path / "shard.txt"
        with pytest.raises(ContractError, match="unit weights"):
            write_shard(shard, path)
        assert not path.exists()

    def test_exact_bytes(self, tmp_path):
        shard = ClientShard(3, np.array([[0, 1], [1, 2]]), np.ones(2), client_id=4)
        path = tmp_path / "client_4.txt"
        write_shard(shard, path, seed=9)
        assert path.read_bytes() == (
            b"# client_id: 4\n# seed: 9\n# nodes: 3\n0 1\n1 2\n"
        )

    def test_header_records_provenance(self, tmp_path):
        g = gnp_graph(10, 0.4, 10)
        shard = distribute_edges(g, 2, 0.5, seed=11)[0]
        path = tmp_path / "shard.txt"
        write_shard(shard, path, seed=11)
        head = path.read_text().splitlines()[:3]
        assert head[0] == "# client_id: 0"
        assert head[1] == "# seed: 11"
        assert head[2] == f"# nodes: {g.num_nodes}"


class TestClientShardInvariants:
    @pytest.mark.parametrize(
        "edges, weights",
        [
            ([(1, 0)], [1.0]),
            ([(1, 2), (0, 1)], [1.0, 1.0]),
            ([(0, 1), (0, 1)], [1.0, 1.0]),
            ([(0, 1)], [0.0]),
            ([(0, 1)], [-1.0]),
            ([(0, 3)], [1.0]),
            ([(1, 1)], [1.0]),
        ],
    )
    def test_rejects_non_canonical_edges(self, edges, weights):
        with pytest.raises(ContractError):
            ClientShard(3, np.array(edges), np.array(weights), client_id=0)

    def test_shard_is_a_graph(self):
        g = gnp_graph(20, 0.3, 12)
        shard = distribute_edges(g, 3, 0.4, seed=13)[2]
        assert isinstance(shard, Graph)
        assert shard.client_id == 2
        assert isinstance(laplacian_multiplier(shard), sparse.csr_array)
        plain = Graph(shard.num_nodes, shard.edges, shard.weights)
        lap = normalized_laplacian(shard)
        assert lap.shape == (20, 20)
        assert np.array_equal(lap.toarray(), normalized_laplacian(plain).toarray())

    def test_client_id_is_keyword_only(self):
        with pytest.raises(TypeError, match="client_id"):
            ClientShard(0, 3, np.empty((0, 2)), np.empty(0))

    def test_shard_universe(self):
        shards = distribute_edges(gnp_graph(12, 0.4, 14), 3, 0.5, seed=15)
        assert shard_universe(shards) == 12
        with pytest.raises(ContractError, match="at least one shard"):
            shard_universe([])
