"""Cluster-similarity scoring of a federated labeling against the reference.

The score counts ordered node pairs (including i = j and both orders) that
the reference co-labels but the aggregated clustering separates, and
returns 1 - count / N^2. It is deliberately asymmetric: merging reference
clusters is not penalized.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, ParseError, _read_text
from .graph import _parse_int_pairs

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
    cells = [None] * (2 * len(labels))
    cells[0::2], cells[1::2] = ids.tolist(), labels.tolist()
    with open(path, "w", encoding="utf-8") as fh:
        # one %-format over Python numbers, as serialize_edge_list writes
        fh.write("node_id,label\n" + ("%d,%d\n" * len(labels)) % tuple(cells))


def read_labels_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a (node_id, label) CSV; returns (node_ids, labels) sorted by id.

    A first line starting with ``node_id`` is a header, and blank lines
    are skipped. Every other line is two integers split at one comma, by
    the edge list's rule: ASCII digits with an optional sign, in the int64
    range. Raises ParseError, naming the file and the line, on any other
    line, on a node id listed twice and on a byte that is not UTF-8.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = _read_text(fh).split("\n")
    data, numbers = [], []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or (lineno == 1 and line.lower().startswith("node_id")):
            continue
        if line.count(",") != 1:
            raise ParseError(f"{path}: line {lineno}: expected node_id,label")
        data.append(line)
        numbers.append(lineno)
    if not data:
        raise ParseError(f"{path}: empty labels file")
    try:
        pairs = _parse_int_pairs(data, numbers, delimiter=",")
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from None
    order = np.argsort(pairs[:, 0], kind="stable")
    ids, labels = pairs[order, 0], pairs[order, 1]
    repeats = np.flatnonzero(ids[1:] == ids[:-1])
    if repeats.size:
        # the stable sort keeps an id's lines in file order, so the first
        # line to repeat an id follows that id's first line in ``order``
        r = repeats[np.argmin(order[repeats + 1])]
        raise ParseError(
            f"{path}: line {numbers[order[r + 1]]}: node id {ids[r]} repeated "
            f"(first on line {numbers[order[r]]})"
        )
    return ids, labels
