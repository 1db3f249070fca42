import numpy as np
import pytest

from fedspectral.graph import parse_edge_list
from sbm import INTRA_FRACTION, planted_partition


def test_parsed_graph_hits_target_counts():
    generated = planted_partition(200, 1500, 4, seed=7)
    graph = parse_edge_list(generated.text)
    assert (graph.num_nodes, graph.num_edges) == (200, 1500)
    assert generated.planted.shape == (200,)
    assert np.bincount(generated.planted).tolist() == [50, 50, 50, 50]


def test_planted_labels_follow_parsed_node_order():
    generated = planted_partition(200, 1500, 4, seed=7)
    graph = parse_edge_list(generated.text)
    labels = generated.planted
    intra = int((labels[graph.edges[:, 0]] == labels[graph.edges[:, 1]]).sum())
    assert intra == round(INTRA_FRACTION * 1500)


def test_ids_are_shuffled_and_sparse():
    generated = planted_partition(200, 1500, 4, seed=7)
    graph = parse_edge_list(generated.text)
    assert not np.array_equal(graph.node_ids, np.arange(200))
    sources = [int(line.split()[0]) for line in generated.text.splitlines()[1:]]
    assert sources != sorted(sources)


def test_same_seed_same_graph_other_seed_other_graph():
    a = planted_partition(300, 2000, 10, seed=3)
    b = planted_partition(300, 2000, 10, seed=3)
    c = planted_partition(300, 2000, 10, seed=4)
    assert a.text == b.text
    assert np.array_equal(a.planted, b.planted)
    assert a.text != c.text


@pytest.mark.parametrize(
    "args", [(10, 100, 6), (100, 50, 4), (20, 190, 1)]
)
def test_rejects_impossible_shapes(args):
    with pytest.raises(ValueError):
        planted_partition(*args, seed=0)
