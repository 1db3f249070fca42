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
    same_universe,
    write_shard,
)

from conftest import distribute_edges_mask, gnp_graph


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


def assert_shards_equal_the_mask_oracle(g, num_clients, overlap, seed):
    shards = distribute_edges(g, num_clients, overlap, seed)
    assert isinstance(shards, list)
    expected = distribute_edges_mask(g, num_clients, overlap, seed)
    assert len(shards) == len(expected) == num_clients
    for c, (shard, (edges, weights)) in enumerate(zip(shards, expected)):
        assert shard.client_id == c and shard.num_nodes == g.num_nodes
        assert shard.edges.dtype == edges.dtype and shard.weights.dtype == weights.dtype
        assert shard.edges.shape == edges.shape
        assert shard.edges.tobytes() == edges.tobytes()
        assert shard.weights.tobytes() == weights.tobytes()


class TestDistributeAgainstMaskOracle:
    """distribute_edges gathers each shard by index; its shards are the
    bits of the boolean-mask code it replaced."""

    @pytest.mark.parametrize("num_clients", [1, 2, 3, 5, 8, 20, 50])
    def test_every_replication_count(self, num_clients):
        rng = np.random.default_rng(num_clients)
        base = gnp_graph(60, 0.15, num_clients)
        weighted = Graph(base.num_nodes, base.edges, rng.uniform(0.5, 2.0, base.num_edges))
        for r in range(1, num_clients + 1):
            for seed in (0, 1, 2 + r):
                # overlap r / C maps back to r
                assert replication_count(r / num_clients, num_clients) == r
                assert_shards_equal_the_mask_oracle(weighted, num_clients, r / num_clients, seed)

    @pytest.mark.parametrize("num_clients", [1, 3, 5])
    def test_edgeless_graph(self, num_clients):
        g = Graph(7, np.empty((0, 2), dtype=np.int64), np.empty(0))
        for overlap in (0.2, 0.5, 1.0):
            assert_shards_equal_the_mask_oracle(g, num_clients, overlap, 3)
            assert all(sh.num_edges == 0 for sh in distribute_edges(g, num_clients, overlap, 3))

    def test_tied_keys_go_to_the_lower_client(self, monkeypatch):
        real = np.random.default_rng

        class TiedKeys:
            """A generator whose keys take few values, so rows have ties."""

            def __init__(self, seed, levels):
                self._rng = real(seed)
                self._levels = levels

            def random(self, shape):
                return self._rng.integers(0, self._levels, size=shape) / self._levels

        g = gnp_graph(40, 0.2, 11)
        for levels in (1, 2, 3):
            monkeypatch.setattr(np.random, "default_rng", lambda seed: TiedKeys(seed, levels))
            for num_clients, overlap in ((3, 0.4), (5, 0.4), (8, 0.3)):
                for seed in range(4):
                    assert_shards_equal_the_mask_oracle(g, num_clients, overlap, seed)
            # equal keys everywhere: every edge goes to the r lowest clients
            if levels == 1:
                shards = distribute_edges(g, 5, 0.4, 0)
                r = replication_count(0.4, 5)
                for shard in shards:
                    expected = g.edges if shard.client_id < r else g.edges[:0]
                    assert np.array_equal(shard.edges, expected)
            monkeypatch.undo()


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

    def test_exact_bytes_through_node_ids(self, tmp_path):
        shard = ClientShard(3, np.array([[0, 1], [1, 2]]), np.ones(2), client_id=4)
        path = tmp_path / "client_4.txt"
        write_shard(shard, path, seed=9, node_ids=np.array([10, 12, 15]))
        assert path.read_bytes() == (
            b"# client_id: 4\n# seed: 9\n# nodes: 3\n10 12\n12 15\n"
        )
        # ids that are already 0..N-1 write the same bytes as no ids
        write_shard(shard, path, seed=9, node_ids=np.arange(3))
        assert path.read_bytes() == b"# client_id: 4\n# seed: 9\n# nodes: 3\n0 1\n1 2\n"

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
        # same_universe passes the shards through as it checks them
        shards = distribute_edges(gnp_graph(12, 0.4, 14), 3, 0.5, seed=15)
        checked = same_universe(iter(shards))
        assert all(got is sh for got, sh in zip(checked, shards, strict=True))
        with pytest.raises(ContractError, match="at least one shard"):
            list(same_universe([]))
        other = ClientShard(13, np.empty((0, 2)), np.empty(0), client_id=3)
        with pytest.raises(ContractError, match="disagree on the node universe"):
            list(same_universe([other, *shards]))
        # a mismatch on a later shard is found when that shard comes
        checked = same_universe([*shards, other])
        assert all(next(checked) is sh for sh in shards)
        with pytest.raises(ContractError, match="disagree on the node universe"):
            next(checked)
