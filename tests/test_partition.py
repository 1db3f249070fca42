import gc
import tracemalloc
import weakref
from collections.abc import Sequence

import numpy as np
import pytest
from scipy import sparse

from fedspectral import partition
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
    per_client,
    replication_count,
    write_shard,
)

from conftest import distribute_edges_mask, gnp_graph, shaped_graph


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

    def test_invalid_client_count(self):
        with pytest.raises(ConfigError, match=r"^num_clients must be >= 1, got 0$"):
            replication_count(0.5, 0)


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

    def test_no_edge_by_client_key_matrix(self):
        # the keys are drawn one row block at a time, so the peak, returned
        # shards included, stays below the 8 * E * C bytes of one E x C draw
        g = gnp_graph(400, 0.25, 31)
        assert 19_000 < g.num_edges < 21_000
        gc.collect()
        tracemalloc.start()
        try:
            shards = distribute_edges(g, 5, 0.2, seed=32)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(shard.num_edges for shard in shards) == g.num_edges
        assert peak < 8 * g.num_edges * 5


def assert_shards_equal_the_mask_oracle(g, num_clients, overlap, seed):
    shards = distribute_edges(g, num_clients, overlap, seed)
    assert isinstance(shards, Sequence)
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

    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_edges_span_several_row_blocks(self, monkeypatch, block):
        # SORT_BLOCK // C edges (at least one) are sorted at a time, so these
        # graphs span many blocks, the last of them partial
        monkeypatch.setattr(partition, "SORT_BLOCK", block)
        rng = np.random.default_rng(70 + block)
        base = gnp_graph(50, 0.2, block)
        g = Graph(base.num_nodes, base.edges, rng.uniform(0.5, 2.0, base.num_edges))
        cases = ((2, 0.5), (3, 0.4), (5, 0.4), (8, 0.3), (20, 0.5))
        steps = [max(1, block // num_clients) for num_clients, _ in cases]
        assert g.num_edges > 3 * max(steps)
        assert block == 1 or any(g.num_edges % step for step in steps)
        for num_clients, overlap in cases:
            for seed in range(3):
                assert_shards_equal_the_mask_oracle(g, num_clients, overlap, seed)
        for levels in (1, 2):
            with monkeypatch.context() as tied:
                tied.setattr(np.random, "default_rng", lambda seed: TiedKeys(seed, levels))
                for num_clients, overlap in cases:
                    assert_shards_equal_the_mask_oracle(g, num_clients, overlap, 4)


def shard_bytes(shard):
    return shard.client_id, shard.num_nodes, shard.edges.tobytes(), shard.weights.tobytes()


class TestShardSequence:
    """distribute_edges draws the clients at the call and returns a
    read-only sequence that builds each shard when it is asked for."""

    def weighted(self):
        base = gnp_graph(40, 0.25, 21)
        rng = np.random.default_rng(22)
        return Graph(base.num_nodes, base.edges, rng.uniform(0.5, 2.0, base.num_edges))

    def test_items_are_the_oracle_shards(self):
        g = self.weighted()
        shards = distribute_edges(g, 5, 0.4, seed=23)
        expected = distribute_edges_mask(g, 5, 0.4, 23)
        assert len(shards) == 5
        for c in (0, 3, 4, -1, -5):
            shard = shards[c]
            edges, weights = expected[c]
            assert shard.client_id == c % 5 and shard.num_nodes == g.num_nodes
            assert shard.edges.tobytes() == edges.tobytes()
            assert shard.weights.tobytes() == weights.tobytes()
        assert shards.edge_counts.tolist() == [len(edges) for edges, _ in expected]

    def test_out_of_range_index(self):
        shards = distribute_edges(self.weighted(), 5, 0.4, seed=24)
        for c in (5, 6, -6):
            with pytest.raises(IndexError):
                shards[c]
        with pytest.raises(TypeError):
            shards[1.0]

    def test_each_access_builds_a_fresh_shard(self):
        shards = distribute_edges(self.weighted(), 5, 0.4, seed=25)
        assert shards[0] is not shards[0]
        assert shard_bytes(shards[0]) == shard_bytes(shards[0])

    def test_two_passes_give_the_same_bytes(self):
        shards = distribute_edges(self.weighted(), 5, 0.4, seed=26)
        first = [shard_bytes(shard) for shard in shards]
        assert [shard_bytes(shard) for shard in shards] == first
        assert [shard_bytes(shard) for shard in reversed(shards)] == first[::-1]

    def test_access_order_changes_no_bits(self):
        g = self.weighted()
        in_order = [shard_bytes(shard) for shard in distribute_edges(g, 5, 0.4, seed=27)]
        shards = distribute_edges(g, 5, 0.4, seed=27)
        assert shard_bytes(shards[3]) == in_order[3]
        assert shard_bytes(shards[0]) == in_order[0]
        assert [shard_bytes(shard) for shard in shards] == in_order

    def test_read_only(self):
        shards = distribute_edges(self.weighted(), 5, 0.4, seed=28)
        with pytest.raises(TypeError):
            shards[0] = shards[1]
        with pytest.raises(ValueError):
            shards.edge_counts[0] = 0

    def test_holds_one_byte_per_edge_copy(self):
        # at 50 clients and overlap 0.02 (r = 1) all shards hold 16 * E
        # bytes and a C x E mask 50 * E; the sequence keeps r * E client
        # ids of one byte each
        g = shaped_graph(4039, 88234, 10, 29)
        assert g.edges.dtype == np.int32
        num_clients, overlap = 50, 0.02
        r = replication_count(overlap, num_clients)
        assert r == 1
        gc.collect()
        tracemalloc.start()
        try:
            shards = distribute_edges(g, num_clients, overlap, seed=30)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        # 16 KiB more for the small buffers numpy caches after the draw frees them
        assert shards._ids.itemsize == 1
        assert held <= r * g.num_edges * shards._ids.itemsize + 64 * num_clients + 16384
        assert sum(shards.edge_counts) == r * g.num_edges

    def test_draw_peaks_at_its_ids_plus_one_row_block(self):
        # at 50 clients and overlap 1.0 (r = 50) the ids are r * E bytes;
        # the draw adds a row block's keys and order, SORT_BLOCK float64
        # and int64 each, and no r * E array of another width
        g = shaped_graph(4039, 88234, 10, 32)
        num_clients, overlap = 50, 1.0
        r = replication_count(overlap, num_clients)
        assert r == num_clients
        gc.collect()
        tracemalloc.start()
        try:
            shards = distribute_edges(g, num_clients, overlap, seed=33)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        ids = r * g.num_edges * shards._ids.itemsize
        assert shards._ids.nbytes == ids
        # 256 KiB more for the previous block's order, still bound while
        # the next block is sorted, and numpy's small buffers
        assert peak <= ids + 2 * partition.SORT_BLOCK * 8 + 2**18

    def test_iterator_lets_the_sequence_go_before_the_last_shard(self):
        shards = distribute_edges(self.weighted(), 5, 0.4, seed=31)
        sequence, ids = weakref.ref(shards), weakref.ref(shards._ids)
        oracle = [shard_bytes(shard) for shard in shards]
        it = iter(shards)
        del shards
        alive, built = [], []
        for shard in it:
            alive.append((sequence() is not None, ids() is not None))
            built.append(shard_bytes(shard))
        # held through shard C - 2, gone, client ids too, at the last
        assert alive == [(True, True)] * 4 + [(False, False)]
        assert built == oracle


class TiedKeys:
    """A generator whose keys take few values, so rows have ties."""

    def __init__(self, seed, levels):
        self._rng = REAL_DEFAULT_RNG(seed)
        self._levels = levels

    def random(self, shape):
        return self._rng.integers(0, self._levels, size=shape) / self._levels


REAL_DEFAULT_RNG = np.random.default_rng


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
            write_shard(shard, path, seed=0)
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
        # per_client builds each shard as it comes, after checking it
        shards = list(distribute_edges(gnp_graph(12, 0.4, 14), 3, 0.5, seed=15))
        checked = per_client(iter(shards), lambda sh: sh)
        assert all(got is sh for got, sh in zip(checked, shards, strict=True))
        with pytest.raises(ContractError, match="at least one shard"):
            per_client([], lambda sh: sh)
        other = ClientShard(13, np.empty((0, 2)), np.empty(0), client_id=3)
        built = []
        with pytest.raises(ContractError, match="disagree on the node universe"):
            per_client([other, *shards], built.append)
        assert built == [other]
        # a mismatch on a later shard is found when that shard comes
        built = []
        with pytest.raises(ContractError, match="disagree on the node universe"):
            per_client([*shards, other], built.append)
        assert built == shards

    def test_per_client_returns_client_id_order(self):
        shards = list(distribute_edges(gnp_graph(12, 0.4, 16), 4, 0.5, seed=17))
        order = []

        def build(shard):
            order.append(shard.client_id)
            return shard.client_id, shard.num_edges

        got = per_client(reversed(shards), build)
        assert order == [3, 2, 1, 0]
        assert got == [(sh.client_id, sh.num_edges) for sh in shards]

    def test_per_client_keeps_no_earlier_shard(self):
        shards = distribute_edges(gnp_graph(12, 0.4, 18), 4, 0.5, seed=19)
        refs = []

        def fresh():
            for c in range(len(shards)):
                # the shard before is dead while this one is built
                assert all(ref() is None for ref in refs)
                shard = shards[c]
                refs.append(weakref.ref(shard))
                yield shard
                del shard

        def build(shard):
            assert all(ref() is None for ref in refs[:-1])
            return shard.num_edges

        assert per_client(fresh(), build) == list(shards.edge_counts)
        assert len(refs) == 4 and refs[-1]() is None

    def test_per_client_lets_the_sequence_go_before_the_last_build(self):
        shards = distribute_edges(gnp_graph(12, 0.4, 20), 4, 0.5, seed=21)
        sequence = weakref.ref(shards)
        it = iter(shards)
        del shards
        alive = per_client(it, lambda sh: sequence() is not None)
        assert alive == [True, True, True, False]
