"""Deterministic seed derivation.

All randomness in the package flows from a master seed through sha256-based
derivation (never Python's ``hash``, which is salted per process). The role
labels below are the single source of truth for how the partitioner, the
clients, and the experiment runner split one master seed into independent
streams.
"""

from __future__ import annotations

import hashlib


def derive_seed(master_seed: int, *parts) -> int:
    """Derive a 64-bit child seed from a master seed and a role label.

    Stable across processes and platforms: the seed is the first 8 bytes of
    sha256 over the colon-joined decimal/string parts.
    """
    text = ":".join([str(int(master_seed)), *[str(p) for p in parts]])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


# Role labels. Keeping these in one place guarantees, for example, that a
# single client holding the whole graph reproduces the global clustering
# bit for bit (same embedding-init and k-means streams).

def embedding_seed(master_seed: int) -> int:
    """Seed for the random initial embedding of an eigensolver run."""
    return derive_seed(master_seed, "init-v")


def kmeans_seed(master_seed: int) -> int:
    """Seed for the final k-means over embedding rows."""
    return derive_seed(master_seed, "kmeans")


def client_seed(master_seed: int, client_id: int) -> int:
    """Per-client seed, independent of every other client."""
    return derive_seed(master_seed, "client", client_id)


def partition_seed(master_seed: int) -> int:
    """Seed driving the edge-to-client assignment."""
    return derive_seed(master_seed, "partition")


def trial_seed(master_seed: int, trial_index: int) -> int:
    """Seed for one experiment trial."""
    return derive_seed(master_seed, "trial", trial_index)
