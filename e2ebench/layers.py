"""Which public calls the traced run wraps, and the per-layer metrics.

Layers are named after the program's modules.  Every workload installs
every wrapper and reports every metric, so a layer a workload bypasses
reads zero, which is the "no change" prediction for it.  Counts the
program already exposes (serving stats, schedule-cache stats, autotune
params, pipeline verdicts) come from those public calls, not from here.
"""

from __future__ import annotations

from typing import Dict, Tuple

from common import TooFewSamples, tail_percentile
from tracing import Patcher, Tracer


def _rows(tracer: Tracer, args, kwargs, result) -> None:
    tracer.add("bnn.model.rows", args[1].shape[0])


def _kernel_bytes(x, weights, out) -> int:
    moved = x.data.nbytes + weights.packed.nbytes
    return moved + (out.data.nbytes if hasattr(out, "data") else out.nbytes)


def _matmul(tracer: Tracer, args, kwargs, result) -> None:
    x, weights = args[0], args[1]
    tracer.add("bnn.xnor_ops.fused_matmul_sign.macs",
               x.shape[0] * weights.num_outputs * weights.bit_length)
    tracer.add("bnn.xnor_ops.bytes_moved", _kernel_bytes(x, weights, result))


def _conv(tracer: Tracer, args, kwargs, result) -> None:
    x, weights = args[0], args[1]
    batch, out_c, out_h, out_w = result.shape
    tracer.add("bnn.xnor_ops.fused_conv2d_sign.macs",
               batch * out_c * out_h * out_w * weights.bit_length)
    tracer.add("bnn.xnor_ops.bytes_moved", _kernel_bytes(x, weights, result))


def _pool(tracer: Tracer, args, kwargs, result) -> None:
    tracer.add("bnn.xnor_ops.bytes_moved",
               args[0].data.nbytes + result.data.nbytes)


def _occupancy(tracer: Tracer, args, kwargs, result) -> None:
    for stage in result[1]:
        tracer.sample("bnn.pipeline.occupancy", stage.occupancy)


def _queue_wait(tracer: Tracer, args, kwargs, result) -> None:
    for stamp in args[1]:
        tracer.sample("serving.batcher.queue_wait_ms", stamp.queue_wait_s * 1e3)


def _flush_busy(tracer: Tracer, args, kwargs, result) -> None:
    stamps = args[1]
    if stamps:
        tracer.add("serving.batcher.flush_busy_s",
                   stamps[0].complete - stamps[0].flush)


def _tasks(tracer: Tracer, args, kwargs, result) -> None:
    tracer.add("runtime.queue.tasks_run", result)


def _appended(tracer: Tracer, args, kwargs, result) -> None:
    tracer.add("eval.columnar.bytes_written", args[1].nbytes)


def install(patcher: Patcher) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    from repro.arch.energy import EnergyModel
    from repro.arch.hierarchy import EinsteinBarrierSystem
    from repro.arch.timing import LatencyModel
    from repro.bnn.layers import BatchNorm, Conv2d, Linear
    from repro.bnn.model import InferenceEngine
    from repro.bnn.pipeline import StreamingPipeline
    from repro.eval.columnar import ColumnarStore
    from repro.runtime.store import DirStore, QueueStore
    from repro.serving.metrics import ServingMetrics
    from repro.serving.service import InferenceService

    method = patcher.method
    function = patcher.function
    method(InferenceService, "submit", "serving.admission.submit")
    method(ServingMetrics, "record_flush", "serving.metrics.record_flush",
           _queue_wait)
    method(ServingMetrics, "record_batch_done",
           "serving.metrics.record_batch_done", _flush_busy)
    method(InferenceEngine, "forward_batch", "bnn.model.forward_batch", _rows)
    for cls in (Linear, Conv2d, BatchNorm):
        method(cls, "forward", "bnn.layers.dense")
    xnor = "repro.bnn.xnor_ops"
    function(xnor, "fused_matmul_sign", "bnn.xnor_ops.fused_matmul_sign", _matmul)
    function(xnor, "fused_conv2d_sign", "bnn.xnor_ops.fused_conv2d_sign", _conv)
    function(xnor, "packed_maxpool2d", "bnn.xnor_ops.packed_maxpool2d", _pool)
    function(xnor, "inject_bit_flips", "bnn.xnor_ops.inject_bit_flips")
    method(StreamingPipeline, "run", "bnn.pipeline.run", _occupancy)
    function("repro.core.schedule", "build_layer_schedule", "core.schedule")
    function("repro.core.schedule", "build_network_schedule", "core.schedule")
    function("repro.arch.compiler", "compile_network", "arch.compiler")
    method(LatencyModel, "estimate", "arch.timing")
    method(EnergyModel, "estimate", "arch.energy")
    method(EinsteinBarrierSystem, "allocate", "arch.hierarchy")
    function("repro.eval.sweep", "evaluate_point", "eval.sweep.evaluate_point")
    function("repro.eval.robustness", "popcount_error_rate",
             "eval.robustness.popcount_error_rate")
    function("repro.utils.validation", "check_binary",
             "utils.validation.check_binary")
    function("repro.runtime.queue", "serve", "runtime.queue.serve", _tasks)
    function("repro.runtime.queue", "collect_results",
             "runtime.queue.collect_results")
    function("repro.runtime.queue", "record_attempt", "runtime.queue.retry")
    for cls in (QueueStore, DirStore):
        for name, value in list(vars(cls).items()):
            if callable(value) and not name.startswith("_") \
                    and not isinstance(value, (staticmethod, classmethod)):
                method(cls, name, "runtime.store")
    method(ColumnarStore, "append", "eval.columnar.append", _appended)
    method(ColumnarStore, "iter_segments", "eval.columnar.read")
    function("repro.eval.shard", "prepare_sweep", "eval.shard.prepare")
    function("repro.eval.shard", "aggregate_sweep", "eval.shard.aggregate")


def _p(samples, q: float) -> float:
    try:
        return tail_percentile(samples, q)
    except TooFewSamples:
        return 0.0   # the workload does not reach this layer


#: per-layer metric -> unit, in the order they are reported
UNITS: Dict[str, str] = {
    "serving.admission.rejected": "count",
    "serving.admission.submit_s": "s",
    "serving.batcher.flushes": "count",
    "serving.batcher.mean_batch": "count",
    "serving.batcher.deadline_share": "ratio",
    "serving.batcher.queue_wait_ms.p50": "ms",
    "serving.batcher.queue_wait_ms.p99": "ms",
    "serving.batcher.flush_busy_s": "s",
    "bnn.model.forward_calls": "count",
    "bnn.model.rows": "count",
    "bnn.model.busy_s": "s",
    "bnn.layers.dense_s": "s",
    "bnn.xnor_ops.fused_matmul_sign.self_s": "s",
    "bnn.xnor_ops.fused_matmul_sign.macs": "count",
    "bnn.xnor_ops.fused_conv2d_sign.self_s": "s",
    "bnn.xnor_ops.fused_conv2d_sign.macs": "count",
    "bnn.xnor_ops.packed_maxpool2d.self_s": "s",
    "bnn.xnor_ops.bytes_moved": "bytes",
    "bnn.xnor_ops.inject_bit_flips.self_s": "s",
    "bnn.pipeline.verdict": "count",
    "bnn.pipeline.probe_speedup": "ratio",
    "bnn.pipeline.occupancy_max": "ratio",
    "bnn.autotune.measure_s": "s",
    "bnn.autotune.conv_block_bytes": "bytes",
    "bnn.autotune.dispatch_macs": "count",
    "core.schedule.builds": "count",
    "core.schedule.cache_hit_ratio": "ratio",
    "core.schedule.self_s": "s",
    "arch.compiler.self_s": "s",
    "arch.timing.self_s": "s",
    "arch.energy.self_s": "s",
    "arch.hierarchy.self_s": "s",
    "eval.sweep.points": "count",
    "eval.robustness.popcount_error_rate.calls": "count",
    "eval.robustness.popcount_error_rate.self_s": "s",
    "utils.validation.check_binary.self_s": "s",
    "runtime.queue.tasks_run": "count",
    "runtime.queue.serve_s": "s",
    "runtime.queue.wait_s": "s",
    "runtime.queue.retries": "count",
    "runtime.store.ops": "count",
    "runtime.store.self_s": "s",
    "eval.columnar.append_s": "s",
    "eval.columnar.bytes_written": "bytes",
    "eval.columnar.read_s": "s",
    "eval.shard.prepare_s": "s",
    "eval.shard.aggregate_s": "s",
    "eval.shard.recomputed": "count",
    "tracing.overhead_ratio": "ratio",
    "tracing.spans": "count",
}


def metrics(tracer: Tracer, public: Dict[str, float], workload,
            overhead_ratio: float) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric with its unit.

    ``public`` holds the traced rounds' share of the counters the program
    exposes (see ``Workload.public_counters``).
    """
    totals = tracer.totals()
    counters = tracer.counters

    def span(name: str, key: str) -> float:
        return float(totals.get(name, {}).get(key, 0.0))

    batches = public.get("batches", 0.0)
    lookups = public.get("schedule_hits", 0.0) + public.get("schedule_misses", 0.0)
    waits = tracer.samples.get("serving.batcher.queue_wait_ms", [])
    verdicts = list(workload.pipeline_verdicts().values())
    occupancy = tracer.samples.get("bnn.pipeline.occupancy", [])
    values = {
        "serving.admission.rejected": public.get("rejected", 0.0),
        "serving.admission.submit_s": span("serving.admission.submit", "self_s"),
        "serving.batcher.flushes": batches,
        "serving.batcher.mean_batch":
            public.get("completed", 0.0) / batches if batches else 0.0,
        "serving.batcher.deadline_share":
            public.get("deadline_flushes", 0.0) / batches if batches else 0.0,
        "serving.batcher.queue_wait_ms.p50": _p(waits, 50.0),
        "serving.batcher.queue_wait_ms.p99": _p(waits, 99.0),
        "serving.batcher.flush_busy_s":
            counters.get("serving.batcher.flush_busy_s", 0.0),
        "bnn.model.forward_calls": span("bnn.model.forward_batch", "calls"),
        "bnn.model.rows": counters.get("bnn.model.rows", 0.0),
        "bnn.model.busy_s": span("bnn.model.forward_batch", "total_s"),
        "bnn.layers.dense_s": span("bnn.layers.dense", "self_s"),
        "bnn.xnor_ops.fused_matmul_sign.self_s":
            span("bnn.xnor_ops.fused_matmul_sign", "self_s"),
        "bnn.xnor_ops.fused_matmul_sign.macs":
            counters.get("bnn.xnor_ops.fused_matmul_sign.macs", 0.0),
        "bnn.xnor_ops.fused_conv2d_sign.self_s":
            span("bnn.xnor_ops.fused_conv2d_sign", "self_s"),
        "bnn.xnor_ops.fused_conv2d_sign.macs":
            counters.get("bnn.xnor_ops.fused_conv2d_sign.macs", 0.0),
        "bnn.xnor_ops.packed_maxpool2d.self_s":
            span("bnn.xnor_ops.packed_maxpool2d", "self_s"),
        "bnn.xnor_ops.bytes_moved": counters.get("bnn.xnor_ops.bytes_moved", 0.0),
        "bnn.xnor_ops.inject_bit_flips.self_s":
            span("bnn.xnor_ops.inject_bit_flips", "self_s"),
        "bnn.pipeline.verdict":
            float(sum(1 for v in verdicts if v.get("profitable"))),
        "bnn.pipeline.probe_speedup":
            max((float(v.get("speedup", 0.0)) for v in verdicts), default=0.0),
        "bnn.pipeline.occupancy_max": max(occupancy) if occupancy else 0.0,
        "bnn.autotune.measure_s": workload.autotune_s,
        "bnn.autotune.conv_block_bytes": float(workload.params.conv_block_bytes),
        "bnn.autotune.dispatch_macs": float(workload.params.dispatch_macs),
        "core.schedule.builds": public.get("schedule_misses", 0.0),
        "core.schedule.cache_hit_ratio":
            public.get("schedule_hits", 0.0) / lookups if lookups else 0.0,
        "core.schedule.self_s": span("core.schedule", "self_s"),
        "arch.compiler.self_s": span("arch.compiler", "self_s"),
        "arch.timing.self_s": span("arch.timing", "self_s"),
        "arch.energy.self_s": span("arch.energy", "self_s"),
        "arch.hierarchy.self_s": span("arch.hierarchy", "self_s"),
        "eval.sweep.points": span("eval.sweep.evaluate_point", "calls"),
        "eval.robustness.popcount_error_rate.calls":
            span("eval.robustness.popcount_error_rate", "calls"),
        "eval.robustness.popcount_error_rate.self_s":
            span("eval.robustness.popcount_error_rate", "self_s"),
        "utils.validation.check_binary.self_s":
            span("utils.validation.check_binary", "self_s"),
        "runtime.queue.tasks_run": counters.get("runtime.queue.tasks_run", 0.0),
        "runtime.queue.serve_s": span("runtime.queue.serve", "total_s"),
        "runtime.queue.wait_s": max(
            0.0, span("runtime.queue.collect_results", "total_s")
            - span("runtime.queue.serve", "total_s")),
        "runtime.queue.retries": span("runtime.queue.retry", "calls"),
        "runtime.store.ops": span("runtime.store", "calls"),
        "runtime.store.self_s": span("runtime.store", "self_s"),
        "eval.columnar.append_s": span("eval.columnar.append", "total_s"),
        "eval.columnar.bytes_written":
            counters.get("eval.columnar.bytes_written", 0.0),
        "eval.columnar.read_s": span("eval.columnar.read", "total_s"),
        "eval.shard.prepare_s": span("eval.shard.prepare", "total_s"),
        "eval.shard.aggregate_s": span("eval.shard.aggregate", "total_s"),
        "eval.shard.recomputed": public.get("recomputed", 0.0),
        "tracing.overhead_ratio": overhead_ratio,
        "tracing.spans": float(len(tracer.spans)),
    }
    return {name: (float(values[name]), unit) for name, unit in UNITS.items()}
