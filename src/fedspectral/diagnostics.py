"""Lightweight run diagnostics collected across the pipeline."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Diagnostics:
    """Mutable collector threaded through optional ``diag=`` parameters.

    flags        free-form event notes (degenerate client shards).
    round_drift  per-round subspace drift of the federated power iteration.
    """

    flags: list[str] = field(default_factory=list)
    round_drift: list[float] = field(default_factory=list)

    def flag(self, message: str) -> None:
        self.flags.append(message)
