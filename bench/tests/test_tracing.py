import math
import types

import pytest

from layers import layer_metrics
from tracing import Patches, Recorder, Span, self_times


def span(index, name, start, end, parent=None, trial=0, **info):
    return Span(index, name, start, end, parent, trial, dict(info))


def test_self_time_subtracts_children_on_a_span_tree():
    spans = [
        span(0, "root", 0.0, 10.0),
        span(1, "a", 1.0, 4.0, parent=0),
        span(2, "b", 5.0, 9.0, parent=0),
        span(3, "c", 6.0, 7.0, parent=2),
    ]
    got = self_times(spans)
    assert got == pytest.approx({0: 3.0, 1: 3.0, 2: 3.0, 3: 1.0})
    assert math.isclose(sum(got.values()), spans[0].duration)


def test_self_time_clips_children_to_their_parent():
    spans = [span(0, "root", 0.0, 2.0), span(1, "child", 1.0, 5.0, parent=0)]
    assert self_times(spans) == pytest.approx({0: 1.0, 1: 4.0})


def test_recorder_nests_spans_and_closes_them_on_error():
    recorder = Recorder()
    recorder.trial = 4

    def boom():
        raise RuntimeError("x")

    inner = recorder.wrap("inner", boom)
    outer = recorder.wrap("outer", lambda: inner())
    with pytest.raises(RuntimeError):
        outer()
    first, second = recorder.spans
    assert (first.name, first.parent, first.trial) == ("outer", None, 4)
    assert (second.name, second.parent) == ("inner", 0)
    assert first.start <= second.start <= second.end <= first.end


def test_patches_restore_originals_and_list_absent_targets():
    import fedspectral.metrics as metrics

    original = metrics.cluster_similarity
    patches = Patches()
    patches.add("fedspectral.metrics:cluster_similarity", lambda fn: "patched")
    patches.add("fedspectral.metrics:no_such_function", lambda fn: fn)
    patches.add("fedspectral.no_such_module:anything", lambda fn: fn)
    with patches:
        assert metrics.cluster_similarity == "patched"
    assert metrics.cluster_similarity is original
    assert patches.absent == [
        "fedspectral.metrics:no_such_function",
        "fedspectral.no_such_module:anything",
    ]


def test_eigensolve_counts_capped_and_converged_from_child_qr_spans():
    spans = [span(0, "linalg.eig", 0.0, 10.0, max_sweeps=3)]
    spans += [span(1 + i, "linalg.qr", i, i + 0.5, parent=0) for i in range(4)]
    spans.append(span(5, "linalg.eig", 20.0, 30.0, max_sweeps=3))
    spans += [span(6 + i, "linalg.qr", 20 + i, 20.5 + i, parent=5) for i in range(2)]
    spans.append(span(8, "linalg.eig_dense", 29.0, 29.5, parent=5))
    metrics = layer_metrics(spans, types.SimpleNamespace(iters=1))
    assert metrics["linalg.eig_calls"][0] == 2
    assert metrics["linalg.eig_capped"][0] == 1
    assert metrics["linalg.eig_sweeps"][0] == 4
    assert metrics["linalg.eig_converged_ratio"][0] == 0.5
    assert metrics["linalg.qr_calls"][0] == 6
    assert metrics["linalg.qr_s"][0] == pytest.approx(3.0)
    assert metrics["linalg.eig_s"][0] == pytest.approx(10.0 - 2.0 + 10.0 - 1.0)
