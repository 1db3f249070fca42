"""Which package functions the traced run wraps, and the per-layer metrics.

Each target is patched where its caller looks the name up, so calls made
inside the package are seen too (``fedspectral.fedplus.reduced_qr`` as well as
``fedspectral.linalg.reduced_qr``). A layer's time is the self time of its
spans: span time minus the time covered by child spans.
"""

from __future__ import annotations

import inspect
from collections import defaultdict

from tracing import self_times

TARGETS = (
    ("fedspectral.graph:parse_edge_list", "graph.parse"),
    ("fedspectral.linalg:normalized_laplacian", "graph.laplacian"),
    ("fedspectral.partition:ClientShard.normalized_laplacian", "graph.laplacian"),
    ("fedspectral.baseline:normalized_laplacian_from_adjacency", "graph.laplacian"),
    ("fedspectral.experiment:compute_reference", "experiment.reference"),
    ("fedspectral.experiment:run_single_trial", "experiment.trial"),
    ("fedspectral.experiment:distribute_edges", "partition.distribute"),
    ("fedspectral.experiment:run_fedspectral_plus", "fedplus.server"),
    ("fedspectral.fedplus:server_round_loop", "fedplus.server"),
    ("fedspectral.fedplus:shard_multiplier", "fedplus.client_build"),
    ("fedspectral.fedplus:PowerIterationClient.run_round", "fedplus.client_round"),
    ("fedspectral.fedplus:aggregate_round", "fedplus.aggregate"),
    ("fedspectral.fedplus:reduced_qr", "linalg.qr"),
    ("fedspectral.linalg:reduced_qr", "linalg.qr"),
    ("fedspectral.linalg:bottom_k_eigenvectors", "linalg.eig"),
    ("fedspectral.linalg:symmetric_eig_reference", "linalg.eig_dense"),
    ("fedspectral.linalg:kmeans", "linalg.kmeans"),
    ("fedspectral.experiment:fedspectral_server", "baseline.server"),
    ("fedspectral.baseline:get_client_labels", "baseline.client_labels"),
    ("fedspectral.baseline:build_similarity_graph", "baseline.similarity_graph"),
    ("fedspectral.experiment:cluster_similarity", "metrics.score"),
)

# Per-layer metric -> span names whose self times it sums.
SELF_TIME_METRICS = {
    "graph.parse_s": ("graph.parse",),
    "graph.laplacian_s": ("graph.laplacian",),
    "experiment.self_s": ("experiment.reference", "experiment.trial"),
    "partition.distribute_s": ("partition.distribute",),
    "fedplus.client_build_s": ("fedplus.client_build",),
    "fedplus.client_round_s": ("fedplus.client_round",),
    "fedplus.aggregate_s": ("fedplus.aggregate",),
    "fedplus.server_s": ("fedplus.server",),
    "linalg.eig_s": ("linalg.eig", "linalg.eig_dense"),
    "linalg.qr_s": ("linalg.qr",),
    "linalg.kmeans_s": ("linalg.kmeans",),
    "baseline.client_labels_s": ("baseline.client_labels",),
    "baseline.similarity_graph_s": ("baseline.similarity_graph",),
    "baseline.server_s": ("baseline.server",),
    "metrics.score_s": ("metrics.score",),
}


def _default_max_sweeps(fn) -> int | None:
    try:
        default = inspect.signature(fn).parameters["max_sweeps"].default
    except (KeyError, TypeError, ValueError):
        return None
    return default if isinstance(default, int) else None


def traced_patches(fedspectral, recorder):
    """A Patches object wrapping every target in a span recorder."""
    from tracing import Patches

    default_sweeps = _default_max_sweeps(
        getattr(fedspectral.linalg, "bottom_k_eigenvectors", None)
    )
    frame_bytes = {}

    def frame_size(tag, embedding):
        encode = getattr(fedspectral.fedplus, "encode_frame", None)
        if encode is None:
            return 0
        if embedding.shape not in frame_bytes:
            frame_bytes[embedding.shape] = len(encode(tag, embedding))
        return frame_bytes[embedding.shape]

    def on_round(span, args, kwargs, reply):
        message = args[1] if len(args) > 1 else kwargs["message"]
        span.info["round"] = message.round_index
        span.info["bytes"] = frame_size(message.round_index, message.embedding) + frame_size(
            reply.client_id, reply.embedding
        )

    def on_distribute(span, args, kwargs, shards):
        span.info["shard_edges_max"] = max(shard.num_edges for shard in shards)

    def on_eig(span, args, kwargs, result):
        span.info["max_sweeps"] = kwargs.get("max_sweeps", default_sweeps)

    hooks = {
        "fedplus.client_round": on_round,
        "partition.distribute": on_distribute,
        "linalg.eig": on_eig,
    }
    patches = Patches()
    for target, name in TARGETS:
        patches.add(
            target,
            lambda fn, name=name: recorder.wrap(name, fn, hooks.get(name)),
        )
    return patches


def layer_metrics(spans, cfg) -> dict:
    """Per-layer metrics as {name: (value, unit)} from one traced run."""
    self_time = self_times(spans)
    by_name = defaultdict(list)
    children = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
        if span.parent is not None:
            children[span.parent].append(span)

    metrics = {}
    for metric, names in SELF_TIME_METRICS.items():
        total = sum(self_time[s.index] for name in names for s in by_name[name])
        metrics[metric] = (total, "s")
    metrics["experiment.reference_s"] = (
        sum(s.duration for s in by_name["experiment.reference"]),
        "s",
    )
    distribute = by_name["partition.distribute"]
    metrics["partition.shard_edges_max"] = (
        max((s.info["shard_edges_max"] for s in distribute), default=0),
        "count",
    )

    rounds = by_name["fedplus.aggregate"]
    client_rounds = by_name["fedplus.client_round"]
    slowest = defaultdict(float)
    for s in client_rounds:
        key = (s.trial, s.parent, s.info["round"])
        slowest[key] = max(slowest[key], s.duration)
    metrics["fedplus.round_critical_s"] = (sum(slowest.values()), "s")
    metrics["fedplus.rounds"] = (len(rounds), "count")
    metrics["fedplus.client_steps"] = (len(client_rounds) * cfg.iters, "count")
    metrics["fedplus.bytes_per_round"] = (
        sum(s.info["bytes"] for s in client_rounds) / max(1, len(rounds)),
        "B",
    )

    eig_calls = capped = sweeps = 0
    for s in by_name["linalg.eig"]:
        qr_children = sum(1 for c in children[s.index] if c.name == "linalg.qr")
        solve_sweeps = max(0, qr_children - 1)
        eig_calls += 1
        sweeps += solve_sweeps
        cap = s.info["max_sweeps"]
        capped += cap is not None and solve_sweeps >= cap
    nested = {s.index for s in by_name["linalg.eig"]}
    eig_calls += sum(1 for s in by_name["linalg.eig_dense"] if s.parent not in nested)
    metrics["linalg.eig_calls"] = (eig_calls, "count")
    metrics["linalg.eig_capped"] = (capped, "count")
    metrics["linalg.eig_sweeps"] = (sweeps, "count")
    metrics["linalg.eig_converged_ratio"] = (
        (eig_calls - capped) / eig_calls if eig_calls else 0.0,
        "1",
    )
    metrics["linalg.qr_calls"] = (len(by_name["linalg.qr"]), "count")
    metrics["linalg.kmeans_calls"] = (len(by_name["linalg.kmeans"]), "count")
    return metrics
