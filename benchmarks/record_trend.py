#!/usr/bin/env python
"""Cross-PR benchmark trend recorder.

Extracts the key metrics of the committed benchmark artifacts — conv-kernel
speedups and the dir/object queue-store protocol overheads from
``BENCH_sweep.json``, end-to-end packed img/s and speedups plus the
streaming-pipeline and autotune figures from ``BENCH_inference.json``, the serving
layer's per-flush-policy req/s + latency percentiles from
``BENCH_serving.json``, and the fleet's goodput-under-faults ratio and
recovery times from ``BENCH_chaos.json`` — and
appends them as one labelled entry to ``BENCH_trend.json``.  The trend file
is committed, so the performance trajectory of the repository is diffable
PR-over-PR, and ``benchmarks/check_perf_regression.py`` prints the delta of
the two newest entries after its gate checks.

Run after regenerating the full benchmarks::

    PYTHONPATH=src python benchmarks/record_trend.py --label pr-3

CI runs it against the smoke artifacts into a separate (uncommitted)
``BENCH_trend.smoke.json`` so the committed full-run trend is never
polluted with single-core smoke numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Dict, List, Mapping, Optional

from repro.eval.perf_gate import resolve_metric
from repro.eval.reporting import write_json_report

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_TREND_PATH = os.path.join(REPO_ROOT, "BENCH_trend.json")
SMOKE_TREND_PATH = os.path.join(REPO_ROOT, "BENCH_trend.smoke.json")

#: metric name -> (artifact key, dotted path inside the artifact payload).
#: Every metric is optional per entry — artifacts evolve across PRs, and the
#: delta printer only compares metrics both entries carry.
TREND_METRICS = {
    "conv_blas_speedup_vs_loop": (
        "sweep", "conv_kernel_bench.kernels.blas.speedup_vs_loop_reference"),
    "conv_packed_speedup_vs_loop": (
        "sweep", "conv_kernel_bench.kernels.packed.speedup_vs_loop_reference"),
    "sweep_warm_seconds": ("sweep", "sweep_warm_seconds"),
    "queue_overhead_ms_per_task_dir": (
        "sweep",
        "queue_fleet_bench.stores.dir.protocol_overhead_ms_per_task"),
    "queue_overhead_ms_per_task_object": (
        "sweep",
        "queue_fleet_bench.stores.object.protocol_overhead_ms_per_task"),
    "queue_overhead_ms_per_task_batched_dir": (
        "sweep",
        "queue_fleet_bench.stores.dir.tasks_per_claim.16"
        ".protocol_overhead_ms_per_task"),
    "queue_overhead_ms_per_task_batched_object": (
        "sweep",
        "queue_fleet_bench.stores.object.tasks_per_claim.16"
        ".protocol_overhead_ms_per_task"),
    "autotune_cache_hit": ("inference", "autotune.cache_hit"),
    "streaming_pipeline_speedup": (
        "inference", "streaming_pipeline.speedup_vs_serial"),
    "pipeline_autotune_hit": ("inference", "streaming_pipeline.autotune_hit"),
    "serving_best_rps": ("serving", "best.requests_per_s"),
    "serving_best_p50_ms": ("serving", "best.p50_ms"),
    "serving_best_p99_ms": ("serving", "best.p99_ms"),
    "chaos_goodput_ratio": ("chaos", "chaos.goodput_ratio"),
    "chaos_mean_recovery_s": ("chaos", "chaos.mean_recovery_s"),
    "chaos_max_recovery_s": ("chaos", "chaos.max_recovery_s"),
    "chaos_restarts": ("chaos", "chaos.restarts"),
    "sharded_cold_ms_per_record": (
        "sweep", "sharded_resume.cold_ms_per_record"),
    "sharded_resume_ms_per_record": (
        "sweep", "sharded_resume.resume_ms_per_record"),
    "sharded_resume_recomputed": ("sweep", "sharded_resume.recomputed"),
}

#: per-network end-to-end metrics pulled from the inference artifact
NETWORK_METRICS = ("packed_images_per_s", "speedup_vs_dense")

#: per-flush-policy metrics pulled from the serving artifact
SERVING_POLICY_METRICS = ("requests_per_s", "p50_ms", "p99_ms")


def _git_label() -> str:
    """Short commit hash of HEAD, or ``"local"`` outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=REPO_ROOT,
            capture_output=True, text=True, check=True, timeout=10,
        )
        return out.stdout.strip() or "local"
    except (OSError, subprocess.SubprocessError):
        return "local"


def _load_artifact(path: str) -> Optional[Mapping[str, object]]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError):
        return None
    return payload if isinstance(payload, dict) else None


def extract_metrics(sweep: Optional[Mapping[str, object]],
                    inference: Optional[Mapping[str, object]],
                    serving: Optional[Mapping[str, object]] = None,
                    chaos: Optional[Mapping[str, object]] = None,
                    ) -> Dict[str, float]:
    """Flatten the tracked metrics out of the benchmark artifacts."""
    artifacts = {"sweep": sweep, "inference": inference, "serving": serving,
                 "chaos": chaos}
    metrics: Dict[str, float] = {}
    for name, (artifact_key, dotted) in TREND_METRICS.items():
        payload = artifacts[artifact_key]
        if payload is None:
            continue
        value = resolve_metric(payload, dotted)
        if value is not None:
            metrics[name] = value
    networks = (inference or {}).get("networks")
    if isinstance(networks, Mapping):
        for network in sorted(networks):
            for metric in NETWORK_METRICS:
                value = resolve_metric(networks, f"{network}.{metric}")
                if value is not None:
                    metrics[f"{network}.{metric}"] = value
    policies = (serving or {}).get("policies")
    if isinstance(policies, Mapping):
        for policy in sorted(policies):
            for metric in SERVING_POLICY_METRICS:
                value = resolve_metric(policies, f"{policy}.{metric}")
                if value is not None:
                    metrics[f"serving.{policy}.{metric}"] = value
    return metrics


def columnar_metrics(root: str) -> Dict[str, float]:
    """Stream a sweep's columnar store into trend metrics.

    Consumes the streaming reader (one segment in memory at a time) via
    :func:`repro.eval.reporting.summarise_sweep_stream`, so recording a
    trend entry for a 10^7-row sweep never materialises the record set.
    """
    from repro.eval.columnar import ColumnarStore, iter_sweep_rows
    from repro.eval.reporting import summarise_sweep_stream

    store = ColumnarStore(root)
    summary = summarise_sweep_stream(
        record.to_dict() for _, record in iter_sweep_rows(store)
    )
    metrics = {"columnar.records": float(summary["records"])}
    for name in ("best_speedup_vs_baseline", "mean_speedup_vs_baseline",
                 "mean_latency_s"):
        value = summary.get(name)
        if isinstance(value, (int, float)):
            metrics[f"columnar.{name}"] = float(value)
    return metrics


def load_trend(path: str) -> List[Dict[str, object]]:
    """Load the entry list of a trend file (empty when absent/corrupt)."""
    payload = _load_artifact(path)
    if payload is None:
        return []
    entries = payload.get("entries")
    if not isinstance(entries, list):
        return []
    return [entry for entry in entries if isinstance(entry, dict)]


def append_entry(path: str, entry: Dict[str, object]) -> List[Dict[str, object]]:
    """Append (or replace the same-label tail entry of) the trend file."""
    entries = load_trend(path)
    if entries and entries[-1].get("label") == entry["label"]:
        # re-running the recorder on the same commit refreshes that entry
        # instead of stuttering the trend
        entries[-1] = entry
    else:
        entries.append(entry)
    write_json_report(path, {"entries": entries})
    return entries


def format_delta(entries: List[Mapping[str, object]]) -> List[str]:
    """Human-readable delta of the two newest trend entries."""
    if not entries:
        return ["trend: no entries recorded yet"]
    current = entries[-1]
    lines = [f"trend: {len(entries)} entries, newest {current.get('label')!r}"]
    metrics = current.get("metrics")
    if not isinstance(metrics, Mapping):
        return lines
    previous: Mapping[str, object] = {}
    if len(entries) >= 2:
        maybe = entries[-2].get("metrics")
        if isinstance(maybe, Mapping):
            previous = maybe
        lines.append(
            f"delta vs previous entry {entries[-2].get('label')!r}:"
        )
    for name in sorted(metrics):
        value = metrics[name]
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            continue
        prior = previous.get(name)
        if isinstance(prior, (int, float)) and not isinstance(prior, bool) \
                and prior != 0:
            change = 100.0 * (float(value) - float(prior)) / float(prior)
            lines.append(f"  {name}: {value:.3f} ({change:+.1f}% vs {prior:.3f})")
        else:
            lines.append(f"  {name}: {value:.3f} (new metric)")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--sweep", default=os.path.join(REPO_ROOT, "BENCH_sweep.json"),
        help="sweep benchmark artifact to read",
    )
    parser.add_argument(
        "--inference", default=os.path.join(REPO_ROOT, "BENCH_inference.json"),
        help="inference benchmark artifact to read",
    )
    parser.add_argument(
        "--serving", default=os.path.join(REPO_ROOT, "BENCH_serving.json"),
        help="serving benchmark artifact to read",
    )
    parser.add_argument(
        "--chaos", default=os.path.join(REPO_ROOT, "BENCH_chaos.json"),
        help="chaos-recovery benchmark artifact to read",
    )
    parser.add_argument(
        "--trend", default=None,
        help="trend file to append to (default: the committed "
             "BENCH_trend.json, or BENCH_trend.smoke.json under --smoke "
             "so smoke metrics can never pollute the committed trend)",
    )
    parser.add_argument(
        "--label", default=None,
        help="entry label (default: the short git commit hash)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="read the *.smoke.json artifact siblings instead",
    )
    parser.add_argument(
        "--columnar", default=None, metavar="ROOT",
        help="also stream a sharded sweep's columnar store (the "
             "<sweep-root>/columnar directory) into columnar.* metrics",
    )
    args = parser.parse_args(argv)

    trend_path = args.trend
    if trend_path is None:
        trend_path = SMOKE_TREND_PATH if args.smoke else DEFAULT_TREND_PATH
    sweep_path, inference_path = args.sweep, args.inference
    serving_path, chaos_path = args.serving, args.chaos
    if args.smoke:
        sweep_path = sweep_path.replace(".json", ".smoke.json")
        inference_path = inference_path.replace(".json", ".smoke.json")
        serving_path = serving_path.replace(".json", ".smoke.json")
        chaos_path = chaos_path.replace(".json", ".smoke.json")
    sweep = _load_artifact(sweep_path)
    inference = _load_artifact(inference_path)
    serving = _load_artifact(serving_path)
    chaos = _load_artifact(chaos_path)
    if sweep is None and inference is None and serving is None \
            and chaos is None:
        print(f"no artifacts found at {sweep_path} / {inference_path} / "
              f"{serving_path} / {chaos_path}")
        return 1
    metrics = extract_metrics(sweep, inference, serving, chaos)
    if args.columnar:
        metrics.update(columnar_metrics(args.columnar))
    if not metrics:
        print("artifacts carried none of the tracked metrics")
        return 1
    entry: Dict[str, object] = {
        "label": args.label or _git_label(),
        "smoke": bool(args.smoke or (sweep or {}).get("smoke")
                      or (inference or {}).get("smoke")
                      or (serving or {}).get("smoke")
                      or (chaos or {}).get("smoke")),
        "metrics": metrics,
    }
    entries = append_entry(trend_path, entry)
    for line in format_delta(entries):
        print(line)
    print(f"wrote {trend_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
