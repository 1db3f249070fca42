"""In-memory span recorder and the patches that feed it.

Spans are recorded from outside the package: each traced public function is
replaced, at the name its caller looks up, by a wrapper that records one
span per call. A span holds its name, start, end, parent span and trial id.
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import importlib
import json
import time
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    index: int
    name: str
    start: float
    end: float
    parent: int | None
    trial: int
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans for one thread of calls; nesting follows the call stack."""

    def __init__(self):
        self.spans: list[Span] = []
        self.trial = -1
        self._stack: list[int] = []

    def wrap(self, name, fn, on_exit=None):
        """Return ``fn`` wrapped so every call records a span called ``name``.

        ``on_exit(span, args, kwargs, result)`` may add fields to
        ``span.info`` once the call has returned.
        """
        recorder = self

        def traced(*args, **kwargs):
            span = Span(
                len(recorder.spans),
                name,
                time.perf_counter(),
                0.0,
                recorder._stack[-1] if recorder._stack else None,
                recorder.trial,
            )
            recorder.spans.append(span)
            recorder._stack.append(span.index)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder._stack.pop()
                span.end = time.perf_counter()
            if on_exit is not None:
                on_exit(span, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the part of it its child spans cover.

    Children of one parent run one after another on a single thread, so the
    covered part is the sum of their durations, clipped to the parent.
    """
    covered = {span.index: 0.0 for span in spans}
    by_index = {span.index: span for span in spans}
    for span in spans:
        if span.parent is not None and span.parent in by_index:
            parent = by_index[span.parent]
            start = max(span.start, parent.start)
            end = min(span.end, parent.end)
            covered[span.parent] += max(0.0, end - start)
    return {span.index: span.duration - covered[span.index] for span in spans}


def resolve(target: str):
    """Find ``module:attr`` or ``module:Class.attr``; None when it is absent."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if not hasattr(owner, attr):
        return None
    return owner, attr


class Patches:
    """Replace attributes for the life of a ``with`` block, then restore them.

    Targets that no longer exist are listed in ``absent`` instead of failing,
    so a renamed or removed function shows up as a missing span.
    """

    def __init__(self):
        self._planned = []
        self.absent: list[str] = []

    def add(self, target: str, make_wrapper) -> None:
        found = resolve(target)
        if found is None:
            self.absent.append(target)
        else:
            self._planned.append((found, make_wrapper))

    def __enter__(self):
        self._saved = []
        for (owner, attr), make_wrapper in self._planned:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, make_wrapper(original))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        return False
