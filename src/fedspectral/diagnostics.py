"""Lightweight run diagnostics collected across the pipeline."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Diagnostics:
    """Mutable per-trial collector, filled by experiment.run_single_trial.

    flags        free-form event notes (degenerate client shards of the
                 label-aggregation baseline).
    round_drift  per-round subspace drift of the federated power iteration,
                 recorded by the trial's round observer (``on_round`` of
                 fedplus.run_fedspectral_plus).
    """

    flags: list[str] = field(default_factory=list)
    round_drift: list[float] = field(default_factory=list)
