import numpy as np
import pytest

from fedspectral.errors import ContractError, ParseError
from fedspectral.graph import (
    Graph,
    normalized_laplacian,
    normalized_laplacian_from_adjacency,
    parse_arcs,
    parse_edge_list,
    serialize_edge_list,
)
from fedspectral.linalg import symmetric_eig_reference

from conftest import connected_components, gnp_graph


def triangle():
    return Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])


class TestParse:
    def test_dedup_and_self_loop(self):
        g = parse_edge_list("0 1\n1 0\n1 1\n")
        assert g.num_nodes == 2
        assert g.edges.tolist() == [[0, 1]]
        assert g.weights.tolist() == [1.0]

    def test_comments_and_blank_lines(self):
        g = parse_edge_list("# header\n\n0 1\n# mid\n1 2\n")
        assert g.num_nodes == 3
        assert g.num_edges == 2

    def test_remap_preserves_sorted_original_order(self):
        g = parse_edge_list("10 3\n7 10\n")
        assert g.node_ids.tolist() == [3, 7, 10]
        # (10,3) -> (2,0) -> (0,2); (7,10) -> (1,2)
        assert g.edges.tolist() == [[0, 2], [1, 2]]

    def test_self_loop_only_id_stays_in_universe(self):
        g = parse_edge_list("5 5\n0 1\n")
        assert g.num_nodes == 3
        assert g.num_edges == 1

    def test_malformed_line_reports_number(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_edge_list("0 1\n0 x\n")
        with pytest.raises(ParseError, match="line 1"):
            parse_edge_list("0 1 2\n")

    def test_empty_input(self):
        with pytest.raises(ParseError, match="empty"):
            parse_edge_list("# only comments\n")

    def test_serialize_roundtrip_idempotent(self):
        # every node touches an edge: the text format cannot express
        # isolated nodes, which is why shard files carry a header instead
        for seed in range(5):
            g = gnp_graph(25, 0.3, seed)
            covered = np.zeros(g.num_nodes, dtype=bool)
            covered[g.edges.reshape(-1)] = True
            if not covered.all():
                continue
            again = parse_edge_list(serialize_edge_list(g))
            assert again.num_nodes == g.num_nodes
            assert np.array_equal(again.edges, g.edges)

    def test_scan_counts(self):
        # the raw view verify_dataset counts for directed sources: nothing
        # deduplicated, self-loops kept
        arcs = parse_arcs("# c\n0 1\n1 0\n1 1\n1 1\n")
        assert arcs.tolist() == [[0, 1], [1, 0], [1, 1], [1, 1]]
        assert len(np.unique(arcs)) == 2
        assert len(np.unique(arcs, axis=0)) == 3  # (0,1), (1,0), (1,1)
        assert len(arcs) == 4


class TestGraphInvariants:
    def test_rejects_self_loop(self):
        with pytest.raises(ContractError):
            Graph.from_edges(3, [(1, 1)])

    def test_rejects_duplicate(self):
        with pytest.raises(ContractError):
            Graph.from_edges(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ContractError):
            Graph.from_edges(2, [(0, 5)])

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ContractError):
            Graph.from_edges(2, [(0, 1)], weights=[0.0])

    def test_canonicalizes_orientation(self):
        g = Graph.from_edges(4, [(3, 1), (2, 0)])
        assert g.edges.tolist() == [[0, 2], [1, 3]]


class TestLaplacian:
    def test_triangle(self):
        lap = normalized_laplacian(triangle())
        expected = np.eye(3) - 0.5 * triangle().adjacency()
        assert np.abs(lap - expected).max() < 1e-12
        assert abs(lap[0, 1] + 0.5) < 1e-12

    def test_single_edge(self):
        g = Graph.from_edges(2, [(0, 1)])
        assert np.abs(normalized_laplacian(g) - [[1, -1], [-1, 1]]).max() < 1e-12

    def test_isolated_nodes_zero_rows(self):
        g = Graph.from_edges(2, [])
        assert np.array_equal(normalized_laplacian(g), np.zeros((2, 2)))
        g2 = Graph.from_edges(4, [(0, 1)])
        lap = normalized_laplacian(g2)
        assert np.array_equal(lap[2], np.zeros(4))
        assert np.array_equal(lap[:, 3], np.zeros(4))

    def test_exactly_symmetric(self):
        for seed in range(4):
            g = gnp_graph(40, 0.15, seed)
            lap = normalized_laplacian(g)
            assert np.array_equal(lap, lap.T)

    def test_spectrum_bounds(self):
        # PSD and largest eigenvalue <= 2 via the reference solver
        for seed, n in [(0, 30), (1, 60), (2, 120)]:
            g = gnp_graph(n, 0.1, seed)
            vals, _ = symmetric_eig_reference(normalized_laplacian(g))
            assert vals.min() >= -1e-10
            assert vals.max() <= 2.0 + 1e-10

    def test_scaled_constant_in_kernel_per_component(self):
        g = gnp_graph(50, 0.08, 3)
        lap = normalized_laplacian(g)
        degrees = g.degrees()
        for comp in connected_components(g):
            if degrees[comp].min() <= 0:
                continue
            x = np.zeros(g.num_nodes)
            x[comp] = np.sqrt(degrees[comp])
            assert np.abs(lap @ x).max() < 1e-10

    def test_weighted_entries(self):
        g = Graph.from_edges(2, [(0, 1)], weights=[4.0])
        lap = normalized_laplacian(g)
        assert abs(lap[0, 1] + 1.0) < 1e-12  # -4/sqrt(4*4)

    def test_dense_adjacency_contracts(self):
        with pytest.raises(ContractError):
            normalized_laplacian_from_adjacency(np.ones((2, 3)))
        with pytest.raises(ContractError):
            normalized_laplacian_from_adjacency(np.eye(2))
        with pytest.raises(ContractError):
            normalized_laplacian_from_adjacency(np.array([[0.0, -1.0], [-1.0, 0.0]]))
