import re
import tracemalloc

import numpy as np
import pytest
from scipy import sparse

from fedspectral import graph
from fedspectral.errors import ContractError, ParseError
from fedspectral.graph import (
    Graph,
    _scaled_adjacency,
    index_dtype,
    load_edge_list,
    normalized_laplacian,
    normalized_laplacian_from_adjacency,
    parse_arcs,
    parse_edge_list,
    read_arcs,
    serialize_edge_list,
)
from fedspectral.experiment import verify_dataset
from fedspectral.linalg import symmetric_eig_reference

from conftest import (
    connected_components,
    dense_adjacency,
    dense_normalized_laplacian,
    gnp_graph,
    parse_arcs_loop,
    scaled_adjacency_sorted_by_scipy,
)


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

    def test_scan_counts(self, tmp_path):
        # the raw view verify_dataset counts for directed sources: nothing
        # deduplicated, self-loops kept
        text = "# c\n0 1\n1 0\n1 1\n1 1\n"
        arcs = parse_arcs(text)
        assert arcs.tolist() == [[0, 1], [1, 0], [1, 1], [1, 1]]
        assert len(np.unique(arcs)) == 2
        assert len(np.unique(arcs, axis=0)) == 3  # (0,1), (1,0), (1,1)
        assert len(arcs) == 4
        path = tmp_path / "arcs.txt"
        path.write_text(text)
        directed = verify_dataset(path, 2, 3, directed=True)
        assert (directed.num_nodes, directed.num_edges, directed.undirected_edges) == (2, 3, 1)
        undirected = verify_dataset(path, 2, 1)
        assert (undirected.num_nodes, undirected.num_edges) == (2, 1)
        # ids near the int64 limits: raw u * N + v would overflow, remapped cannot
        big = 2**62
        path.write_text(f"{-big} {big}\n{big} {-big}\n{big} {big}\n{-big} {big}\n")
        report = verify_dataset(path, 2, 3, directed=True)
        assert (report.num_nodes, report.num_edges, report.undirected_edges) == (2, 3, 1)


# every line break of str.splitlines; a line ends at the first three only,
# and the other eight are whitespace inside it
_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
# Unicode blanks that str.strip and str.split take as whitespace
_PADS = ["", " ", "\t", "  ", "\u00a0", "\u3000", " \u3000"]


def _random_snap_text(rng, malformed: bool) -> str:
    """SNAP text mixing comments, blanks, Unicode whitespace, every
    str.splitlines line break and arc kinds."""
    spaces = [" ", "\t", "  ", " \t ", "\u00a0", "\u3000", "\t\u00a0"]
    lines, arcs = [], []
    for _ in range(rng.integers(1, 30)):
        kind = rng.integers(6)
        pad = str(rng.choice(_PADS))
        if kind == 0:
            lines.append(pad + "# comment 1 2")
        elif kind == 1:
            lines.append(pad)
        else:
            if kind == 2 and arcs:  # reciprocal of an earlier arc
                u, v = arcs[rng.integers(len(arcs))][::-1]
            elif kind == 3:  # self-loop
                u = v = int(rng.integers(-5, 40))
            else:
                u, v = (int(x) for x in rng.integers(-5, 40, size=2))
            arcs.append((u, v))
            tail = str(rng.choice(_PADS))
            lines.append(f"{pad}{u}{rng.choice(spaces)}{v}{tail}")
    if not arcs:
        lines.append(f"{rng.integers(40)} {rng.integers(40)}")
    if malformed:
        bad = str(rng.choice(["0 1 2", "7", "0 x", "0 1 # note", "1.5 2", "-", "3 4 5 6"]))
        lines.insert(int(rng.integers(len(lines) + 1)), bad)
    # half the texts use one line break throughout, half mix all of them
    if rng.random() < 0.5:
        breaks = [str(rng.choice(_BREAKS[:3]))]
    else:
        breaks = _BREAKS
    ends = [str(rng.choice(breaks)) for _ in lines]
    if rng.random() < 0.5:
        ends[-1] = ""  # no final line break
    return "".join(line + end for line, end in zip(lines, ends))


def _outcome(parse):
    """What ``parse()`` returns as a list, or the start of its ParseError:
    'line N:' or 'empty edge list'."""
    try:
        arcs = parse()
    except ParseError as exc:
        return re.match(r"line \d+:|empty edge list", str(exc)).group(0)
    assert arcs.dtype == np.int64 and arcs.ndim == 2 and arcs.shape[1] == 2
    return arcs.tolist()


def _unprefixed(read, path):
    """``read(path)``, whose ParseError must start with '<path>: ', raised
    again without that prefix."""
    try:
        return read(path)
    except ParseError as exc:
        prefix = f"{path}: "
        assert str(exc).startswith(prefix)
        raise ParseError(str(exc)[len(prefix):]) from None


class TestParseAgainstOracle:
    """graph.parse_arcs and graph.read_arcs against the per-line parser in
    conftest."""

    @staticmethod
    def _sources(text, tmp_path):
        """parse_arcs of the str and read_arcs of it written to a file, as
        calls without arguments; the file's error loses its prefix."""
        path = tmp_path / "edges.txt"
        path.write_bytes(text.encode("utf-8"))
        return [lambda: parse_arcs(text), lambda: _unprefixed(read_arcs, path)]

    @pytest.mark.parametrize("seed", range(50))
    def test_matches_oracle(self, seed, tmp_path):
        rng = np.random.default_rng(seed)
        text = _random_snap_text(rng, malformed=False)
        expected = _outcome(lambda: parse_arcs_loop(text))
        # only a break outside the rule can join two arcs into a bad line
        if not any(b in text for b in _BREAKS[3:]):
            assert isinstance(expected, list)
        for parse in self._sources(text, tmp_path):
            assert _outcome(parse) == expected

    @pytest.mark.parametrize("seed", range(20))
    def test_malformed_line_number_matches_oracle(self, seed, tmp_path):
        text = _random_snap_text(np.random.default_rng(1000 + seed), malformed=True)
        expected = _outcome(lambda: parse_arcs_loop(text))
        assert expected.startswith("line ")
        for parse in self._sources(text, tmp_path):
            assert _outcome(parse) == expected

    @pytest.mark.parametrize(
        "text, arcs",
        [
            # loadtxt reads '\r', '\x0c' and '\u2028' as blanks; of these
            # only '\r' ends a line. ``arcs`` is what _outcome gives.
            ("# c\r1 2\n", [[1, 2]]),
            ("1 2\x0c3 4\n", "line 1:"),
            ("\u3000# c\u2028\u00a01\u30002\u00a0\n", "empty edge list"),  # one comment line
        ],
    )
    def test_line_breaks_loadtxt_does_not_honour(self, text, arcs, tmp_path):
        assert _outcome(lambda: parse_arcs_loop(text)) == arcs
        for parse in self._sources(text, tmp_path):
            assert _outcome(parse) == arcs

    def test_large_input(self, tmp_path):
        # SNAP-scale text: a '#' header, tab-separated arcs, ids up to 10^6
        rng = np.random.default_rng(18)
        arcs = rng.integers(0, 10**6, size=(90_000, 2))
        header = "# Directed graph: large.txt\n# Nodes: ? Edges: 90000\n# FromNodeId\tToNodeId\n"
        text = header + "".join(f"{u}\t{v}\n" for u, v in arcs.tolist())
        path = tmp_path / "large.txt"
        path.write_text(text, encoding="utf-8")
        expected = parse_arcs_loop(text)
        assert np.array_equal(expected, arcs)
        assert np.array_equal(parse_arcs(text), expected)
        assert np.array_equal(read_arcs(path), expected)
        loaded, parsed = load_edge_list(path), parse_edge_list(text)
        assert loaded.num_nodes == parsed.num_nodes
        assert np.array_equal(loaded.edges, parsed.edges)
        assert np.array_equal(loaded.weights, parsed.weights)
        assert np.array_equal(loaded.node_ids, parsed.node_ids)

    @pytest.mark.parametrize(
        "bad",
        [
            {0: "1 2 3"},  # the first data line
            {45_000: "1 2 3"},  # the middle one
            {89_999: "1 2 3"},  # the last one
            {30_000: "7", 30_001: "0 x", 60_000: "1 2 3", 89_999: "5 6 7"},
            {70_000: "9223372036854775808 1"},  # outside int64
            {20_000: "3 4 # note"},  # inline comment
        ],
    )
    def test_large_input_names_the_first_bad_line(self, bad, tmp_path):
        # 90,000 tab-separated arcs under a 3-line '#' header, data lines
        # replaced by ``bad``; the error names the first of them exactly
        rng = np.random.default_rng(19)
        header = ["# Directed graph: large.txt", "# Nodes: ? Edges: 90000", "# FromNodeId\tToNodeId"]
        lines = [f"{u}\t{v}" for u, v in rng.integers(0, 10**6, size=(90_000, 2)).tolist()]
        for index, line in bad.items():
            lines[index] = line
        text = "\n".join(header + lines) + "\n"
        first = min(bad)
        expected = (
            f"line {len(header) + first + 1}: "
            f"expected two integers in the int64 range, got {bad[first]!r}"
        )
        path = tmp_path / "large.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError) as from_str:
            parse_arcs(text)
        with pytest.raises(ParseError) as from_file:
            read_arcs(path)
        assert str(from_str.value) == expected
        assert str(from_file.value) == f"{path}: {expected}"

    @pytest.mark.parametrize(
        "text, line",
        [
            ("0 1\n# c\n2 3\n0 1 2\n", 4),  # a third token after valid lines
            ("0 1\n\n5\n", 3),  # one token
            ("5\n0 1\n2 3\n", 1),  # one token before two-token lines
            ("0 1\n0 1 # note\n", 2),  # inline comments are not comments
            ("0 1\n99999999999999999999 1\n", 2),  # outside int64
            ("0 1\n2 -9223372036854775809\n", 2),
        ],
    )
    def test_malformed_line_number(self, text, line):
        with pytest.raises(ParseError, match=f"^line {line}: "):
            parse_arcs(text)

    def test_only_comments(self):
        with pytest.raises(ParseError, match="empty edge list"):
            parse_arcs("# one\n\n  # two\n")

    def test_int64_limits_accepted(self):
        arcs = parse_arcs("9223372036854775807 -9223372036854775808\n+3 007\n")
        assert arcs.tolist() == [[2**63 - 1, -(2**63)], [3, 7]]

    @pytest.mark.parametrize("token", ["1_0", "\u0663"])
    def test_stricter_than_python_int(self, token):
        # Python int accepts digit-group underscores and non-ASCII digits;
        # the parser takes ASCII digits with an optional sign only
        assert parse_arcs_loop(f"{token} 2\n").shape == (1, 2)
        with pytest.raises(ParseError, match="^line 2: "):
            parse_arcs(f"0 1\n{token} 2\n")


def _graph_outcome(load):
    """The graph ``load()`` returns as plain lists, or its ParseError message."""
    try:
        g = load()
    except ParseError as exc:
        return str(exc)
    return g.num_nodes, g.edges.tolist(), g.weights.tolist(), g.node_ids.tolist()


class TestStrAndFileAgree:
    """parse_edge_list of a str and load_edge_list of the same text in a
    file follow one line-break rule, so they give one outcome."""

    @staticmethod
    def _both(text, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_bytes(text.encode("utf-8"))
        return (
            _graph_outcome(lambda: parse_edge_list(text)),
            _graph_outcome(lambda: _unprefixed(load_edge_list, path)),
        )

    @pytest.mark.parametrize("brk", _BREAKS[3:])
    def test_other_breaks_are_whitespace_inside_a_line(self, brk, tmp_path):
        # between the two ids of an arc it separates them like a blank
        from_str, from_file = self._both(f"0{brk}1\n1 2{brk}\n", tmp_path)
        assert from_str == from_file == (3, [[0, 1], [1, 2]], [1.0, 1.0], [0, 1, 2])
        # between two arcs it makes one line of four tokens
        from_str, from_file = self._both(f"# c\n0 1{brk}1 2\n2 3\n", tmp_path)
        assert from_str == from_file
        assert from_str.startswith("line 2: expected two integers")

    @pytest.mark.parametrize("end", ["\r", "\r\n"])
    def test_line_ends(self, end, tmp_path):
        text = end.join(["# c", "0 1", "", "1 2", ""])
        from_str, from_file = self._both(text, tmp_path)
        assert from_str == from_file == (3, [[0, 1], [1, 2]], [1.0, 1.0], [0, 1, 2])
        from_str, from_file = self._both(end.join(["# c", "0 1", "1 2 3", ""]), tmp_path)
        assert from_str == from_file
        assert from_str.startswith("line 3: expected two integers")


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
    def test_rejects_non_finite_or_nonpositive_weight(self, bad):
        with pytest.raises(ContractError, match="positive and finite"):
            Graph(3, [[0, 1], [1, 2]], [bad, 1.0])

    def test_canonicalizes_orientation(self):
        g = Graph.from_edges(4, [(3, 1), (2, 0)])
        assert g.edges.tolist() == [[0, 2], [1, 3]]

    def test_unsorted_and_duplicate_are_distinct_errors(self):
        with pytest.raises(ContractError, match="lexicographically sorted"):
            Graph(4, [[0, 2], [0, 1]], [1.0, 1.0])
        with pytest.raises(ContractError, match="lexicographically sorted"):
            Graph(4, [[1, 2], [0, 3], [0, 3]], [1.0, 1.0, 1.0])
        with pytest.raises(ContractError, match="duplicate edge"):
            Graph(4, [[0, 1], [1, 2], [1, 2]], [1.0, 1.0, 1.0])

    def test_from_edges_array_and_iterable_agree(self):
        pairs = np.array([[3, 1], [2, 0], [0, 1]])
        a = Graph.from_edges(4, pairs, weights=[1.0, 2.0, 3.0])
        b = Graph.from_edges(4, (tuple(p) for p in pairs.tolist()), weights=[1.0, 2.0, 3.0])
        assert a.edges.tolist() == b.edges.tolist() == [[0, 1], [0, 2], [1, 3]]
        assert a.weights.tolist() == b.weights.tolist() == [3.0, 2.0, 1.0]

    def test_from_edges_weight_count_must_match(self):
        with pytest.raises(ContractError, match="length mismatch"):
            Graph.from_edges(3, [(0, 1)], weights=[1.0, 2.0])
        with pytest.raises(ContractError, match="length mismatch"):
            Graph.from_edges(3, [], weights=[1.0])

    @pytest.mark.parametrize(
        "edges", [np.array([[0.5, 1.7]]), np.array([[0.0, 1.0]]), np.array([[False, True]])]
    )
    def test_rejects_non_integer_endpoints(self, edges):
        # a cast to integers would build the edge (0, 1) from each of these
        for build in (
            lambda: Graph(3, edges, [1.0]),
            lambda: Graph.from_edges(3, edges),
            lambda: Graph.from_edges(3, edges.tolist()),
        ):
            with pytest.raises(ContractError, match="endpoints must be integers"):
                build()
        # an empty array holds no endpoint to truncate, whatever its dtype
        assert Graph(3, np.empty((0, 2)), []).num_edges == 0

    @pytest.mark.parametrize(
        "far", [np.int64(2**31), np.int64(2**32 + 1), np.int64(-(2**32) + 1), np.uint64(2**32 + 1)]
    )
    def test_rejects_ids_that_would_wrap_into_the_universe(self, far):
        # int32 wraps 2**32 + 1 and -2**32 + 1 to 1, so the bounds are checked
        # before the endpoints are narrowed
        assert far.astype(np.int32) in (1, -(2**31))
        with pytest.raises(ContractError, match="outside 0..num_nodes-1"):
            Graph(3, np.array([[0, far]], dtype=far.dtype), [1.0])
        with pytest.raises(ContractError, match="outside 0..num_nodes-1"):
            Graph.from_edges(3, np.array([[far, 0]], dtype=far.dtype))


class TestEndpointWidth:
    """Edges are stored in index_dtype(num_nodes), the width of every CSR
    index the package builds: int32 wherever it fits."""

    def test_small_universe_holds_int32_endpoints(self):
        for g in (
            Graph(100, [[0, 1], [5, 99]], [1.0, 1.0]),
            Graph(100, np.empty((0, 2), dtype=np.int64), []),
            Graph.from_edges(100, np.array([[99, 5]], dtype=np.uint64)),
            parse_edge_list("10 11\n11 12\n"),
        ):
            assert g.edges.dtype == np.int32

    def test_universe_past_int32_holds_int64_endpoints(self):
        n = graph.INT32_INDEX_MAX + 2
        tracemalloc.start()
        try:
            g = Graph(n, [[0, n - 1]], [1.0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.edges.dtype == np.int64
        assert g.edges.tolist() == [[0, n - 1]]
        # nothing of size N: a byte a node would be 2 GiB
        assert peak < 2**16

    def test_sortedness_key_does_not_overflow_int32(self):
        # 30_000 * N + 30_001 passes int32 at N = 100_000; an int32 key would
        # read the first pair of rows as unsorted and the second as sorted
        n = 100_000
        g = Graph(n, [[0, 1], [30_000, 30_001]], [1.0, 1.0])
        assert g.edges.dtype == np.int32
        with pytest.raises(ContractError, match="lexicographically sorted"):
            Graph(n, [[30_000, 30_001], [0, 1]], [1.0, 1.0])

    def test_degrees_bits_on_a_weighted_graph(self):
        # every u endpoint's weight is added in edge order, then every v
        # endpoint's: the bits of a plain sequential sum
        base = gnp_graph(60, 0.2, 40)
        rng = np.random.default_rng(41)
        g = Graph(base.num_nodes, base.edges, rng.uniform(0.1, 3.0, base.num_edges))
        assert g.edges.dtype == np.int32
        expected = [0.0] * g.num_nodes
        for column in (0, 1):
            for node, weight in zip(g.edges[:, column].tolist(), g.weights.tolist()):
                expected[node] += weight
        got = g.degrees()
        assert got.dtype == np.float64
        assert got.tobytes() == np.array(expected).tobytes()


class TestLaplacian:
    def test_triangle(self):
        lap = normalized_laplacian(triangle())
        expected = np.eye(3) - 0.5 * dense_adjacency(triangle())
        assert np.abs(lap - expected).max() < 1e-12
        assert abs(lap[0, 1] + 0.5) < 1e-12

    def test_single_edge(self):
        g = Graph.from_edges(2, [(0, 1)])
        assert np.abs(normalized_laplacian(g).toarray() - [[1, -1], [-1, 1]]).max() < 1e-12

    def test_isolated_nodes_zero_rows(self):
        g = Graph.from_edges(2, [])
        assert np.array_equal(normalized_laplacian(g).toarray(), np.zeros((2, 2)))
        g2 = Graph.from_edges(4, [(0, 1)])
        lap = normalized_laplacian(g2).toarray()
        assert np.array_equal(lap[2], np.zeros(4))
        assert np.array_equal(lap[:, 3], np.zeros(4))

    def test_exactly_symmetric(self):
        for seed in range(4):
            g = gnp_graph(40, 0.15, seed)
            lap = normalized_laplacian(g).toarray()
            assert np.array_equal(lap, lap.T)

    def test_spectrum_bounds(self):
        # PSD and largest eigenvalue <= 2 via the reference solver
        for seed, n in [(0, 30), (1, 60), (2, 120)]:
            g = gnp_graph(n, 0.1, seed)
            vals, _ = symmetric_eig_reference(normalized_laplacian(g).toarray())
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
        with pytest.raises(ContractError, match="symmetric"):
            normalized_laplacian_from_adjacency(np.array([[0.0, 1.0], [0.0, 0.0]]))
        lap = normalized_laplacian_from_adjacency(
            sparse.csr_array(dense_adjacency(triangle()))
        )
        assert np.array_equal(lap.toarray(), normalized_laplacian(triangle()).toarray())

    def test_row_ordered_entries_match_scipy_sorted_oracle(self):
        # the entries are listed in row order, so scipy's index sort is
        # skipped; L and I - L keep every bit, dtype and index of the matrices
        # that scipy sorted
        rng = np.random.default_rng(20)
        for trial in range(300):
            # the last 0-4 nodes, and any node gnp leaves alone, are isolated
            n = int(rng.integers(1, 60))
            base = gnp_graph(n - int(rng.integers(0, min(n, 5))), rng.uniform(0.0, 0.5), trial)
            g = Graph(n, base.edges, rng.uniform(0.1, 5.0, base.num_edges))
            for laplacian in (True, False):
                got = _scaled_adjacency(g, laplacian=laplacian)
                want = scaled_adjacency_sorted_by_scipy(g, laplacian=laplacian)
                assert isinstance(got, sparse.csr_array) and got.shape == want.shape
                assert got.has_canonical_format and want.has_canonical_format
                for a, b in ((got.data, want.data), (got.indices, want.indices),
                             (got.indptr, want.indptr)):
                    assert a.dtype == b.dtype and np.array_equal(a, b)
                assert got.indices.dtype == got.indptr.dtype == np.int32

    def test_indices_widen_to_int64_past_the_int32_limit(self, monkeypatch):
        # the limit is lowered rather than a 2**31-entry graph built: a graph
        # whose node count or stored entries pass it gets int64 indices, with
        # the bits of the int32 matrix
        rng = np.random.default_rng(21)
        base = gnp_graph(30, 0.3, 21)
        g = Graph(32, base.edges, rng.uniform(0.1, 5.0, base.num_edges))
        narrow = {lap: _scaled_adjacency(g, laplacian=lap) for lap in (True, False)}
        # I - L stores a 1 for each isolated node, L one for every other node
        isolated = int((g.degrees() == 0).sum())
        assert 0 < isolated < g.num_nodes - isolated
        entries = 2 * g.num_edges
        for limit, wide in ((entries + isolated - 1, (True, False)),
                            (entries + isolated, (True,)),
                            (entries + g.num_nodes - isolated, ())):
            monkeypatch.setattr(graph, "INT32_INDEX_MAX", limit)
            for laplacian in (True, False):
                got = _scaled_adjacency(g, laplacian=laplacian)
                width = np.int64 if laplacian in wide else np.int32
                want = scaled_adjacency_sorted_by_scipy(g, laplacian=laplacian, width=width)
                assert got.indices.dtype == got.indptr.dtype == width
                for a, b in ((got.data, want.data), (got.indices, want.indices),
                             (got.indptr, want.indptr)):
                    assert a.dtype == b.dtype and np.array_equal(a, b)
                assert np.array_equal(got.indices, narrow[laplacian].indices)
                assert np.array_equal(got.data, narrow[laplacian].data)
        monkeypatch.setattr(graph, "INT32_INDEX_MAX", 5)
        # a node count past the limit widens an edgeless graph too
        empty = _scaled_adjacency(Graph(6, np.empty((0, 2)), np.empty(0)), laplacian=True)
        assert empty.indices.dtype == empty.indptr.dtype == np.int64
        assert empty.nnz == 0

    def test_index_dtype_at_the_int32_limit(self):
        assert index_dtype(0) is np.int32
        assert index_dtype(2**31 - 1) is np.int32
        assert index_dtype(2**31) is np.int64

    def test_adjacency_laplacian_matches_dense_oracle(self):
        rng = np.random.default_rng(8)
        for trial in range(30):
            # the last 1-4 nodes, and any node gnp leaves alone, are isolated
            n = int(rng.integers(6, 50))
            base = gnp_graph(n - int(rng.integers(1, 5)), 0.2, trial)
            g = Graph(n, base.edges, rng.uniform(0.1, 3.0, base.num_edges))
            a = dense_adjacency(g)
            expected = dense_normalized_laplacian(a)
            for given in (a, sparse.csr_array(a)):
                lap = normalized_laplacian_from_adjacency(given)
                assert isinstance(lap, sparse.csr_array) and lap.has_canonical_format
                assert np.abs(lap.toarray() - expected).max() <= 1e-15
