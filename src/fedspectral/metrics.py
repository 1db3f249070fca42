"""Cluster-similarity scoring of a federated labeling against the reference.

The score counts ordered node pairs (including i = j and both orders) that
the reference co-labels but the aggregated clustering separates, and
returns 1 - count / N^2. It is deliberately asymmetric: merging reference
clusters is not penalized.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, ParseError

__all__ = ["cluster_similarity", "write_labels_csv", "read_labels_csv"]


def cluster_similarity(global_labels, aggregated_labels) -> float:
    """Similarity in (0, 1] of an aggregated labeling to the reference.

    Computed from the partition-intersection contingency table in
    O(N + clusters^2), which is exactly equivalent to the literal ordered
    double loop over node pairs.
    """
    ref = np.asarray(global_labels).reshape(-1)
    agg = np.asarray(aggregated_labels).reshape(-1)
    if ref.shape != agg.shape:
        raise ContractError(
            f"labeling lengths differ: {ref.shape[0]} vs {agg.shape[0]}"
        )
    n = ref.shape[0]
    if n == 0:
        raise ContractError("empty labelings")

    _, ref_codes = np.unique(ref, return_inverse=True)
    agg_ids, agg_codes = np.unique(agg, return_inverse=True)
    joint = np.bincount(
        ref_codes.astype(np.int64) * len(agg_ids) + agg_codes,
        minlength=(ref_codes.max() + 1) * len(agg_ids),
    )
    ref_sizes = np.bincount(ref_codes)
    mismatch = int((ref_sizes.astype(np.int64) ** 2).sum()) - int(
        (joint.astype(np.int64) ** 2).sum()
    )
    return 1.0 - mismatch / float(n * n)


def write_labels_csv(path, labels, node_ids=None) -> None:
    """Write a labeling as (node_id, label) CSV rows.

    ``node_ids`` maps row positions back to original dataset ids; without
    it the contiguous ids are used.
    """
    labels = np.asarray(labels).reshape(-1)
    ids = (
        np.arange(len(labels))
        if node_ids is None
        else np.asarray(node_ids).reshape(-1)
    )
    if len(ids) != len(labels):
        raise ContractError("node_ids and labels length mismatch")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("node_id,label\n")
        for i, lab in zip(ids, labels):
            fh.write(f"{int(i)},{int(lab)}\n")


def read_labels_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a (node_id, label) CSV; returns (node_ids, labels) sorted by id.

    Raises ParseError, naming the file and the line, on a malformed line
    and on a node id listed twice.
    """
    first_line = {}
    labels = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or (lineno == 1 and line.lower().startswith("node_id")):
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise ParseError(f"{path}: line {lineno}: expected node_id,label")
            try:
                node, label = int(parts[0]), int(parts[1])
            except ValueError:
                raise ParseError(f"{path}: line {lineno}: non-integer field") from None
            if node in first_line:
                raise ParseError(
                    f"{path}: line {lineno}: node id {node} repeated "
                    f"(first on line {first_line[node]})"
                )
            first_line[node] = lineno
            labels.append(label)
    if not labels:
        raise ParseError(f"{path}: empty labels file")
    ids_arr = np.fromiter(first_line, dtype=np.int64, count=len(first_line))
    labels_arr = np.asarray(labels, dtype=np.int64)
    order = np.argsort(ids_arr, kind="stable")
    return ids_arr[order], labels_arr[order]
