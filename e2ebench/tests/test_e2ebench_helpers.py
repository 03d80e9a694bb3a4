"""The benchmark's own checks: percentile rule, tracer self time, wrappers."""

from __future__ import annotations

import os
import pickle
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from common import TooFewSamples, records_digest, tail_percentile  # noqa: E402
from tracing import Patcher, Tracer  # noqa: E402


def test_percentile_needs_ten_samples_beyond_it():
    with pytest.raises(TooFewSamples):
        tail_percentile(list(range(999)), 99.0)
    with pytest.raises(TooFewSamples):
        tail_percentile(list(range(19)), 50.0)
    with pytest.raises(TooFewSamples):
        tail_percentile([], 50.0)
    samples = list(np.random.default_rng(0).exponential(size=1000))
    assert tail_percentile(samples, 99.0) == pytest.approx(
        np.percentile(samples, 99.0))
    assert tail_percentile(list(range(20)), 50.0) == pytest.approx(9.5)


class _Clock:
    """A clock the test advances by hand."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_subtracts_nested_and_sibling_children():
    clock = _Clock()
    tracer = Tracer(clock=clock)
    root = tracer.start("root")            # 0 .. 10
    clock.now = 1.0
    first = tracer.start("child")          # 1 .. 4
    clock.now = 2.0
    leaf = tracer.start("leaf")            # 2 .. 3
    clock.now = 3.0
    tracer.finish("leaf", leaf)
    clock.now = 4.0
    tracer.finish("child", first)
    clock.now = 6.0
    second = tracer.start("child")         # 6 .. 7
    clock.now = 7.0
    tracer.finish("child", second)
    clock.now = 10.0
    tracer.finish("root", root)

    totals = tracer.totals()
    assert totals["root"]["total_s"] == pytest.approx(10.0)
    assert totals["root"]["self_s"] == pytest.approx(10.0 - 3.0 - 1.0)
    assert totals["child"]["calls"] == 2
    assert totals["child"]["self_s"] == pytest.approx(3.0 - 1.0 + 1.0)
    assert totals["leaf"]["self_s"] == pytest.approx(1.0)
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["leaf"].trace == by_name["root"].trace == by_name["root"].span_id
    assert by_name["root"].parent is None


def test_overlapping_children_are_not_subtracted_twice():
    clock = _Clock()
    tracer = Tracer(clock=clock)
    from tracing import Span

    tracer.spans = [Span(1, "p", 0.0, 10.0, None, 1),
                    Span(2, "c", 1.0, 5.0, 1, 1),
                    Span(3, "c", 3.0, 6.0, 1, 1)]
    assert tracer.self_times()[1] == pytest.approx(5.0)


def test_wrappers_restore_originals_on_close():
    import repro.bnn.layers as layers_mod
    import repro.bnn.xnor_ops as xnor_ops
    import repro.eval.shard as shard
    from repro.bnn.model import InferenceEngine

    fused = xnor_ops.fused_matmul_sign
    forward = InferenceEngine.__dict__["forward_batch"]
    evaluate = shard.evaluate_identified_point
    tracer = Tracer()
    with Patcher(tracer) as patcher:
        patcher.function("repro.bnn.xnor_ops", "fused_matmul_sign", "mm")
        patcher.method(InferenceEngine, "forward_batch", "fb")
        patcher.function("repro.eval.shard", "evaluate_identified_point", "ev")
        # patched where defined and where a repro module imported it by name
        assert xnor_ops.fused_matmul_sign is not fused
        assert layers_mod.fused_matmul_sign is xnor_ops.fused_matmul_sign
        assert InferenceEngine.__dict__["forward_batch"] is not forward
        # queue tasks pickle the callable by name; the wrapper must survive it
        assert pickle.loads(pickle.dumps(shard.evaluate_identified_point)) \
            is shard.evaluate_identified_point
    assert xnor_ops.fused_matmul_sign is fused
    assert layers_mod.fused_matmul_sign is fused
    assert InferenceEngine.__dict__["forward_batch"] is forward
    assert shard.evaluate_identified_point is evaluate


def test_wrapped_calls_record_spans():
    from repro.bnn import InferenceEngine, build_network

    # an explicit kernel keeps the autotune cache (and its file) untouched
    engine = InferenceEngine(build_network("MLP-S"), kernel="blas")
    x = np.random.default_rng(0).standard_normal((4, 784))
    want = engine.forward_batch(x)
    tracer = Tracer()
    with Patcher(tracer) as patcher:
        patcher.method(InferenceEngine, "forward_batch", "fb")
        patcher.function("repro.bnn.xnor_ops", "fused_matmul_sign", "mm")
        got = engine.forward_batch(x)
    np.testing.assert_array_equal(got, want)
    totals = tracer.totals()
    assert totals["fb"]["calls"] == 1
    assert totals["mm"]["calls"] >= 1
    assert totals["fb"]["self_s"] < totals["fb"]["total_s"]
    assert all(s.trace == tracer.spans[-1].span_id for s in tracer.spans)


def test_records_digest_ignores_order():
    rows = [{"a": 1, "b": 0.1}, {"a": 2, "b": None}]
    assert records_digest(rows) == records_digest(rows[::-1])
    assert records_digest(rows) != records_digest(rows[:1])
