import re

import numpy as np
import pytest

from fedspectral.errors import ContractError, ParseError
from fedspectral.metrics import cluster_similarity, read_labels_csv, write_labels_csv

from conftest import mismatch_pairs_loop, mismatch_pairs_matrix


class TestClusterSimilarity:
    def test_identity_is_one(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            labels = rng.integers(0, 6, 40)
            assert cluster_similarity(labels, labels) == 1.0

    def test_merge_vs_split_example(self):
        # reference lumps everything, aggregation splits everything:
        # 12 mismatched ordered pairs out of 16
        assert cluster_similarity([1, 1, 1, 1], [0, 1, 2, 3]) == 0.25

    def test_all_distinct_reference_never_penalized(self):
        rng = np.random.default_rng(1)
        agg = rng.integers(0, 3, 7)
        assert cluster_similarity(np.arange(7), agg) == 1.0

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(2, 60))
            a = rng.integers(0, 5, n)
            b = rng.integers(0, 5, n)
            expected = 1.0 - mismatch_pairs_loop(a, b) / n**2
            assert abs(cluster_similarity(a, b) - expected) < 1e-15

    def test_matches_matrix_oracle_larger(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(50, 300))
            a = rng.integers(0, 12, n)
            b = rng.integers(0, 12, n)
            expected = 1.0 - mismatch_pairs_matrix(a, b) / n**2
            assert abs(cluster_similarity(a, b) - expected) < 1e-15

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(4)
        a = rng.integers(0, 5, 50)
        b = rng.integers(0, 4, 50)
        base = cluster_similarity(a, b)
        perm_a = rng.permutation(5)
        perm_b = rng.permutation(4)
        assert cluster_similarity(perm_a[a], b) == base
        assert cluster_similarity(a, perm_b[b]) == base
        # arbitrary ids, not just 0..K-1
        assert cluster_similarity(a * 17 + 3, b) == base

    def test_asymmetry_regression(self):
        ref = [0, 0, 0, 1]
        agg = [0, 1, 2, 3]
        forward = cluster_similarity(ref, agg)
        backward = cluster_similarity(agg, ref)
        assert forward == 1.0 - 6 / 16
        assert backward == 1.0
        assert forward != backward

    def test_score_lower_bound(self):
        # worst case is 1/N: reference all-same, aggregation all-distinct
        n = 10
        score = cluster_similarity(np.zeros(n, dtype=int), np.arange(n))
        assert score == pytest.approx(1.0 / n)

    def test_length_mismatch(self):
        with pytest.raises(ContractError):
            cluster_similarity([0, 1], [0, 1, 2])


class TestLabelsCSV:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "labels.csv"
        labels = np.array([2, 0, 1])
        write_labels_csv(path, labels, node_ids=[30, 10, 20])
        ids, back = read_labels_csv(path)
        assert ids.tolist() == [10, 20, 30]
        assert back.tolist() == [0, 1, 2]

    def test_default_ids(self, tmp_path):
        path = tmp_path / "labels.csv"
        write_labels_csv(path, [5, 6])
        ids, back = read_labels_csv(path)
        assert ids.tolist() == [0, 1]
        assert back.tolist() == [5, 6]

    def test_malformed(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("node_id,label\n1,x\n")
        with pytest.raises(ParseError):
            read_labels_csv(path)
        path.write_text("node_id,label\n0,1\n0,2\n1,1\n")
        with pytest.raises(ParseError, match="line 3: node id 0 repeated"):
            read_labels_csv(path)
        # the first line that repeats any id is named, with that id's first line
        path.write_text("node_id,label\n5,1\n3,1\n3,2\n5,2\n5,3\n")
        with pytest.raises(ParseError, match=r"line 4: node id 3 repeated \(first on line 3\)$"):
            read_labels_csv(path)

    def test_exact_bytes(self, tmp_path):
        path = tmp_path / "labels.csv"
        write_labels_csv(path, np.array([1, 0, 1]), node_ids=np.array([10, 11, 12]))
        assert path.read_bytes() == b"node_id,label\n10,1\n11,0\n12,1\n"
        write_labels_csv(path, [5, -6])
        assert path.read_bytes() == b"node_id,label\n0,5\n1,-6\n"
        write_labels_csv(path, [])
        assert path.read_bytes() == b"node_id,label\n"

    @pytest.mark.parametrize(
        "line",
        ["1_0,1", "1,1_0", "\u0661,1", "1,\u0661", "99999999999999999999,1",
         "1,-99999999999999999999"],
        ids=["id-underscore", "label-underscore", "id-arabic-digit", "label-arabic-digit",
             "id-above-int64", "label-below-int64"],
    )
    def test_cell_outside_the_edge_list_integer_rule(self, tmp_path, line):
        # int() takes '1_0' as 10 and non-ASCII digits; the edge list's
        # reader and this one do not
        path = tmp_path / "bad.csv"
        path.write_text(f"node_id,label\n0,1\n\n{line}\n", encoding="utf-8")
        expected = f"bad.csv: line 4: expected two integers in the int64 range, got {line!r}"
        with pytest.raises(ParseError, match=re.escape(expected) + "$"):
            read_labels_csv(path)

    def test_line_without_a_comma(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("node_id,label\n0,1\n1 2\n")
        with pytest.raises(ParseError, match=r"bad\.csv: line 3: expected node_id,label$"):
            read_labels_csv(path)

    def test_header_only_file(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("node_id,label\n\n")
        with pytest.raises(ParseError, match=r"header\.csv: empty labels file$"):
            read_labels_csv(path)
