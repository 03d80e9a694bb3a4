"""Batched packed inference engine: end-to-end throughput + noise curves.

Four measurements, recorded into ``BENCH_inference.json`` at the repo root
(CI uploads the smoke sibling per PR):

* end-to-end images/sec of the dense layer-by-layer forward pass vs the
  batched packed :class:`repro.bnn.model.InferenceEngine` on MLP and CNN
  workloads, with a bit-exactness check between the two paths — the packed
  engine must clear the committed speedup floors;
* the persistent kernel-autotune cache: cold (measure + persist) vs warm
  (cache-file hit) parameter resolution against a fresh cache directory;
* the streaming packed pipeline (PR 10): serial chunk loop vs
  stage-pipelined execution (:mod:`repro.bnn.pipeline`) at the same
  chunking, bit-exactness checked, with per-stage occupancy so the
  bottleneck stage is visible in the artifact, plus a persistence check
  of the ``auto``-mode profitability decision;
* accuracy-vs-read-noise curves produced *through* the packed engine
  (:func:`repro.eval.sweep.run_accuracy_sweep`), i.e. the functional
  scenario the analytical sweeps cannot provide.

All repeated timings run through :func:`repro.runtime.measure.measure_pair`
— the same runtime layer the sweeps execute on.

Run with ``pytest benchmarks/bench_inference.py -s`` (add ``--smoke`` for
the CI-sized configuration).
"""

from __future__ import annotations

import os
import tempfile
import time

import numpy as np

from repro.bnn import autotune
from repro.bnn.model import InferenceEngine
from repro.bnn.networks import build_network
from repro.bnn.pipeline import StreamingPipeline, plan_signature
from repro.eval.reporting import host_info, write_json_report
from repro.eval.sweep import AccuracySweepGrid, run_accuracy_sweep
from repro.runtime import measure_pair
from repro.utils.rng import make_rng

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: the checked-in full-run artifact; smoke runs write a sibling file so the
#: CI smoke job never clobbers the committed full-scale measurements
ARTIFACT_PATH = os.path.join(REPO_ROOT, "BENCH_inference.json")
SMOKE_ARTIFACT_PATH = os.path.join(REPO_ROOT, "BENCH_inference.smoke.json")

#: packed-vs-dense end-to-end speedup floors asserted per network.  The
#: CIFAR-scale CNN must clear 5x in the committed full run; the smoke floors
#: absorb the noisy single-core CI runners.
FULL_SPEEDUP_FLOORS = {"CNN-M": 5.0, "CNN-L": 3.0, "MLP-L": 3.0}
SMOKE_SPEEDUP_FLOORS = {"CNN-M": 2.0, "MLP-S": 1.5}


def _time_network(name: str, batch: int, reps: int) -> dict:
    """Median-of-reps dense vs packed timings, bit-exactness checked."""
    model = build_network(name)
    model.eval()
    rng = make_rng(0xBEEF)
    images = rng.uniform(-1.0, 1.0, size=(batch, *model.input_shape))
    engine = InferenceEngine(model)
    # warm both paths (pack caches, BLAS thread pools, page faults)
    model.forward(images[:2])
    engine.forward_batch(images[:2], batch_size=2)
    dense_logits = model.forward(images)
    packed_logits = engine.forward_batch(images, batch_size=batch)
    bit_exact = bool(np.array_equal(dense_logits, packed_logits))

    packed_m, dense_m, speedup = measure_pair(
        lambda: engine.forward_batch(images, batch_size=batch),
        lambda: model.forward(images),
        reps=reps, label=name,
    )
    return {
        "batch": batch,
        "reps": reps,
        "bit_exact": bit_exact,
        "dense_seconds": dense_m.median,
        "packed_seconds": packed_m.median,
        "dense_images_per_s": dense_m.throughput(batch),
        "packed_images_per_s": packed_m.throughput(batch),
        "speedup_vs_dense": speedup,
        "_engine": engine,
        "_images": images,
    }


def _time_streaming_pipeline(name: str, total: int, chunk: int,
                             reps: int) -> dict:
    """Serial chunk loop vs the stage-pipelined path at the same chunking.

    Both arms run identical ``total / chunk`` chunk boundaries, so the
    outputs must be byte-identical; the pipelined arm additionally
    reports per-stage occupancy (busy seconds / wall) from a final
    instrumented run, which is how a reader of the artifact finds the
    bottleneck stage.
    """
    model = build_network(name)
    model.eval()
    rng = make_rng(0xFACE)
    images = rng.uniform(-1.0, 1.0, size=(total, *model.input_shape))
    engine = InferenceEngine(model)
    pipe = StreamingPipeline(engine)
    # warm both paths (pack caches, BLAS pools, thread start-up costs)
    engine.forward_batch(images, batch_size=chunk, pipeline="off")
    serial_ref = engine.forward_batch(images, batch_size=chunk,
                                      pipeline="off")
    piped, _ = pipe.run(images, chunk)
    bit_exact = bool(serial_ref.tobytes() == piped.tobytes())
    piped_m, serial_m, speedup = measure_pair(
        lambda: pipe.run(images, chunk),
        lambda: engine.forward_batch(images, batch_size=chunk,
                                     pipeline="off"),
        reps=reps, label=f"pipeline-{name}",
    )
    _, stats = pipe.run(images, chunk)
    return {
        "total_images": total,
        "chunk_size": chunk,
        "num_chunks": -(-total // chunk),
        "reps": reps,
        "bit_exact": bit_exact,
        "serial_images_per_s": serial_m.throughput(total),
        "pipelined_images_per_s": piped_m.throughput(total),
        "speedup_vs_serial": speedup,
        "stages": [stage.as_dict() for stage in stats],
        "signature": plan_signature(engine, chunk),
    }


def _pipeline_autotune_hit(signature: str, speedup: float) -> float:
    """Does a recorded pipeline decision survive a process restart?

    Records the measured verdict into a fresh cache directory, drops the
    in-process memo (the simulated restart) and reads it back — 1.0 when
    the read-back came from the cache file.  Environment and singletons
    are restored afterwards.
    """
    previous = os.environ.get(autotune.CACHE_ENV)
    with tempfile.TemporaryDirectory(prefix="repro-bench-pipeline-") as cache:
        os.environ[autotune.CACHE_ENV] = cache
        try:
            autotune.record_pipeline_decision(signature, speedup)
            autotune.reset_cached_params()
            decision = autotune.pipeline_decision(signature)
        finally:
            if previous is None:
                os.environ.pop(autotune.CACHE_ENV, None)
            else:
                os.environ[autotune.CACHE_ENV] = previous
            autotune.reset_cached_params()
    return 1.0 if decision is not None and decision["source"] == "cache" \
        else 0.0


def _autotune_stats() -> dict:
    """Cold (measure + persist) vs warm (file hit) autotune resolution.

    Points the cache at a fresh directory so the cold path genuinely
    measures; the warm re-resolve must then come back from the cache
    file.  The process-wide singleton and the environment are restored
    afterwards, so the rest of the benchmark keeps its normal params.
    """
    previous = os.environ.get(autotune.CACHE_ENV)
    with tempfile.TemporaryDirectory(prefix="repro-bench-autotune-") as cache:
        os.environ[autotune.CACHE_ENV] = cache
        try:
            start = time.perf_counter()
            measured = autotune.get_params(refresh=True)
            cold_seconds = time.perf_counter() - start
            start = time.perf_counter()
            warm = autotune.get_params(refresh=True)
            warm_seconds = time.perf_counter() - start
        finally:
            if previous is None:
                os.environ.pop(autotune.CACHE_ENV, None)
            else:
                os.environ[autotune.CACHE_ENV] = previous
            autotune.reset_cached_params()
    assert measured.source == "measured", measured
    assert warm == autotune.AutotuneParams(
        measured.dispatch_macs, measured.conv_block_bytes, "cache")
    return {
        "cache_hit": 1.0 if warm.source == "cache" else 0.0,
        "dispatch_macs": measured.dispatch_macs,
        "conv_block_bytes": measured.conv_block_bytes,
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "speedup_cached_vs_measured":
            cold_seconds / warm_seconds if warm_seconds > 0 else float("inf"),
    }


def test_inference_engine(benchmark, smoke):
    """Benchmark the packed engine and record throughput + noise curves."""
    if smoke:
        configs = [("MLP-S", 64, 3), ("CNN-M", 8, 3)]
        floors = SMOKE_SPEEDUP_FLOORS
        accuracy_grid = AccuracySweepGrid(
            networks=("MLP-S",),
            read_noise_sigmas=(0.0, 0.005, 0.02),
            num_images=64,
            batch_size=32,
        )
    else:
        configs = [("MLP-L", 128, 5), ("CNN-M", 32, 5), ("CNN-L", 16, 5)]
        floors = FULL_SPEEDUP_FLOORS
        accuracy_grid = AccuracySweepGrid(
            networks=("MLP-S", "CNN-S"),
            technologies=("epcm", "opcm"),
            num_images=256,
            batch_size=128,
        )

    networks = {}
    bench_target = None
    for name, batch, reps in configs:
        result = _time_network(name, batch, reps)
        engine, images = result.pop("_engine"), result.pop("_images")
        if bench_target is None:
            bench_target = (engine, images, batch)
        networks[name] = result
        print(
            f"\n{name}: dense {result['dense_images_per_s']:.1f} img/s, "
            f"packed {result['packed_images_per_s']:.1f} img/s "
            f"({result['speedup_vs_dense']:.2f}x, bit-exact "
            f"{result['bit_exact']})"
        )
        assert result["bit_exact"], name
    for name, floor in floors.items():
        assert networks[name]["speedup_vs_dense"] >= floor, (
            f"{name} packed speedup {networks[name]['speedup_vs_dense']:.2f}x "
            f"below the {floor:.1f}x floor"
        )

    # pytest-benchmark stats over the packed path of the first workload
    engine, images, batch = bench_target
    benchmark(lambda: engine.predict_batch(images, batch_size=batch))

    # the streaming packed pipeline: stage-overlapped vs serial chunk loop
    if smoke:
        streaming_configs = [("MLP-S", 64, 16, 3), ("CNN-M", 8, 2, 3)]
    else:
        streaming_configs = [("MLP-L", 128, 32, 5), ("CNN-M", 32, 8, 5),
                             ("CNN-L", 16, 4, 5)]
    streaming_networks = {}
    for name, total, chunk, reps in streaming_configs:
        result = _time_streaming_pipeline(name, total, chunk, reps)
        streaming_networks[name] = result
        occupancy = ", ".join(
            f"{stage['name']} {stage['occupancy']:.2f}"
            for stage in result["stages"]
        )
        print(
            f"streaming {name}: serial "
            f"{result['serial_images_per_s']:.1f} img/s, pipelined "
            f"{result['pipelined_images_per_s']:.1f} img/s "
            f"({result['speedup_vs_serial']:.2f}x, bit-exact "
            f"{result['bit_exact']}; occupancy {occupancy})"
        )
        assert result["bit_exact"], name
    best_name = max(streaming_networks,
                    key=lambda n: streaming_networks[n]["speedup_vs_serial"])
    best = streaming_networks[best_name]
    autotune_hit = _pipeline_autotune_hit(
        best["signature"], best["speedup_vs_serial"])
    print(
        f"streaming best: {best_name} "
        f"{best['speedup_vs_serial']:.2f}x (autotune cache hit "
        f"{autotune_hit:.0f})"
    )
    assert autotune_hit == 1.0
    streaming = {
        "networks": streaming_networks,
        "best_network": best_name,
        "speedup_vs_serial": best["speedup_vs_serial"],
        "autotune_hit": autotune_hit,
    }

    tune = _autotune_stats()
    print(
        f"autotune: dispatch {tune['dispatch_macs']} MACs, conv block "
        f"{tune['conv_block_bytes'] // (1 << 20)} MiB; cold "
        f"{tune['cold_seconds'] * 1e3:.1f} ms, warm "
        f"{tune['warm_seconds'] * 1e3:.1f} ms "
        f"(cache hit {tune['cache_hit']:.0f})"
    )
    assert tune["cache_hit"] == 1.0

    accuracy = run_accuracy_sweep(accuracy_grid)
    print("\n=== accuracy vs read noise (packed engine) ===")
    for record in accuracy.records:
        print(
            f"  {record.network:6s} {record.technology:4s} "
            f"sigma={record.read_noise_sigma:6.3f} "
            f"acc={record.accuracy:.3f} flip={record.mean_flip_rate:.4f}"
        )
    for network in accuracy_grid.networks:
        for technology in accuracy_grid.technologies:
            curve = accuracy.curve(network, technology)
            accuracies = [acc for _, acc in curve]
            assert all(0.0 <= acc <= 1.0 for acc in accuracies)
            # noise must not *improve* accuracy beyond sampling slack
            assert accuracies[-1] <= accuracies[0] + 0.05, (network, technology)

    artifact_path = SMOKE_ARTIFACT_PATH if smoke else ARTIFACT_PATH
    write_json_report(artifact_path, {
        "smoke": smoke,
        "host": host_info(),
        "networks": networks,
        "streaming_pipeline": streaming,
        "autotune": tune,
        "accuracy_sweep": accuracy.to_payload(),
    })
    print(f"wrote {artifact_path}")
