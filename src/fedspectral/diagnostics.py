"""Lightweight run diagnostics collected across the pipeline."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Diagnostics:
    """Mutable per-trial collector; fedplus fills it through ``diag=``.

    flags        free-form event notes (degenerate client shards of the
                 label-aggregation baseline, noted by run_single_trial).
    round_drift  per-round subspace drift of the federated power iteration.
    """

    flags: list[str] = field(default_factory=list)
    round_drift: list[float] = field(default_factory=list)
