"""Exception types shared across the package, the one check of a count
that must be at least 1, the one check of a cluster count against the
node count, and the text-file reader that turns undecodable bytes into a
ParseError."""

import re


class ParseError(ValueError):
    """Malformed edge-list input; the message carries the offending line number."""


class ConfigError(ValueError):
    """Invalid experiment, partition, or protocol configuration."""


class ContractError(ValueError):
    """A caller violated an operation precondition (shape, symmetry, length)."""


class RankError(ArithmeticError):
    """Rank-deficient matrix where full column rank is required."""


class ConvergenceError(RuntimeError):
    """An iterative kernel failed to converge within its iteration cap."""


def check_counts(**counts: int) -> None:
    """Raise ConfigError "{name} must be >= 1, got {value}" for the first
    of ``counts``, in argument order, that is below 1."""
    for name, value in counts.items():
        if value < 1:
            raise ConfigError(f"{name} must be >= 1, got {value}")


def check_cluster_count(num_clusters: int, num_nodes: int) -> None:
    """Raise ConfigError "num_clusters must be <= the node count {num_nodes},
    got {num_clusters}" when the clusters outnumber the nodes. Every entry
    point that knows the node count calls it before any client work."""
    if num_clusters <= num_nodes:
        return
    raise ConfigError(f"num_clusters must be <= the node count {num_nodes}, got {num_clusters}")


def _read_text(fh) -> str:
    """All the text of a file opened for UTF-8 reading.

    A byte that does not decode raises ParseError naming the file and the
    line it is on, counted in universal newlines, rather than the
    UnicodeDecodeError that would end a CLI run in a traceback.
    """
    try:
        return fh.read()
    except UnicodeDecodeError as exc:
        line = len(re.split(rb"\r\n?|\n", exc.object[: exc.start]))
        byte = exc.object[exc.start]
        raise ParseError(f"{fh.name}: line {line}: not UTF-8 text (byte {byte:#04x})") from None
