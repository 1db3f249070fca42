"""Sparse, seeded planted-partition graphs rendered as SNAP edge-list text.

Edges are sampled directly as node pairs, so memory stays O(edges) and the
facebook-scale shape (N=4039, ~88k edges) is cheap to build; no N x N matrix
is ever formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Share of edges that fall inside a community. Fixed once for every workload;
# it sets how hard the planted partition is to recover and is not tuned to
# make any recovery score read 1.0.
INTRA_FRACTION = 0.75


@dataclass(frozen=True)
class PlantedGraph:
    """A generated graph: SNAP text plus the planted labels.

    ``planted[i]`` is the community of node ``i`` in the order the package's
    parser assigns contiguous ids (sorted original id).
    """

    text: str
    planted: np.ndarray
    num_nodes: int
    num_edges: int


def _sample_pairs(rng, num_nodes, count, draw, existing):
    """Append ``count`` new distinct undirected pairs from ``draw`` to ``existing``.

    Pairs are encoded as ``lo * num_nodes + hi``; batches are drawn until
    enough unseen pairs exist, and the first-drawn ones are kept so the
    result depends only on the generator state.
    """
    keys = np.empty(0, dtype=np.int64)
    while len(keys) < count:
        u, v = draw(rng, 2 * (count - len(keys)) + 64)
        keep = u != v
        lo = np.minimum(u[keep], v[keep])
        hi = np.maximum(u[keep], v[keep])
        batch = np.concatenate([keys, lo * num_nodes + hi])
        _, first = np.unique(batch, return_index=True)
        batch = batch[np.sort(first)]
        keys = batch[~np.isin(batch, existing)]
    return np.concatenate([existing, keys[:count]])


def planted_partition(
    num_nodes: int, num_edges: int, num_communities: int, seed: int
) -> PlantedGraph:
    """Sample a planted-partition graph with exactly ``num_edges`` edges.

    Communities are equal-sized (sizes differ by at most one). A fixed
    ``INTRA_FRACTION`` of the edges join two nodes of one community and the
    rest join two different communities, each chosen uniformly. Original
    node ids are a random sparse subset of ``0..10N`` and lines come in a
    random order and orientation, so parsing has real remapping to do.
    """
    if num_communities < 1 or num_nodes < 2 * num_communities:
        raise ValueError("need at least two nodes per community")
    if num_edges < num_nodes:
        raise ValueError("need at least as many edges as nodes")
    community = np.arange(num_nodes) % num_communities
    members = [np.flatnonzero(community == c) for c in range(num_communities)]
    sizes = np.array([len(m) for m in members])
    intra = int(round(INTRA_FRACTION * num_edges))
    intra_pairs = int((sizes * (sizes - 1) // 2).sum())
    if intra > intra_pairs or num_edges - intra > num_nodes * (num_nodes - 1) // 2 - intra_pairs:
        raise ValueError("more edges requested than the communities can hold")
    rng = np.random.default_rng(seed)
    offsets = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    by_community = np.concatenate(members)

    def draw_intra(rng, size):
        c = rng.integers(num_communities, size=size)
        i = rng.integers(sizes[c])
        j = rng.integers(sizes[c])
        return by_community[offsets[c] + i], by_community[offsets[c] + j]

    def draw_inter(rng, size):
        u = rng.integers(num_nodes, size=size)
        v = rng.integers(num_nodes, size=size)
        cross = community[u] != community[v]
        return u[cross], v[cross]

    keys = _sample_pairs(rng, num_nodes, intra, draw_intra, np.empty(0, np.int64))
    keys = _sample_pairs(rng, num_nodes, num_edges - intra, draw_inter, keys)
    lo, hi = np.divmod(keys, num_nodes)
    if np.bincount(np.concatenate([lo, hi]), minlength=num_nodes).min() == 0:
        raise ValueError("sampled graph has an isolated node; raise num_edges")

    ids = rng.choice(10 * num_nodes, size=num_nodes, replace=False)
    order = rng.permutation(num_edges)
    flip = rng.random(num_edges) < 0.5
    src = np.where(flip, hi, lo)[order]
    dst = np.where(flip, lo, hi)[order]
    lines = [f"# planted partition: {num_nodes} nodes, {num_edges} edges"]
    lines.extend(f"{a}\t{b}" for a, b in zip(ids[src].tolist(), ids[dst].tolist()))
    planted = community[np.argsort(ids, kind="stable")]
    return PlantedGraph("\n".join(lines) + "\n", planted, num_nodes, num_edges)
