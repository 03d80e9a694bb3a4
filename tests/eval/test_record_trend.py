"""Tests for the cross-PR benchmark trend recorder CLI."""

from __future__ import annotations

import importlib.util
import json
import os

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


@pytest.fixture(scope="module")
def cli():
    path = os.path.join(REPO_ROOT, "benchmarks", "record_trend.py")
    spec = importlib.util.spec_from_file_location("record_trend", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write_artifacts(root, *, smoke=False, img_per_s=100.0, serving_rps=900.0):
    suffix = ".smoke.json" if smoke else ".json"
    sweep = {
        "smoke": smoke,
        "conv_kernel_bench": {"kernels": {
            "blas": {"speedup_vs_loop_reference": 800.0},
            "packed": {"speedup_vs_loop_reference": 200.0},
        }},
        "sweep_warm_seconds": 0.5,
    }
    inference = {
        "smoke": smoke,
        "networks": {"CNN-M": {"packed_images_per_s": img_per_s,
                               "speedup_vs_dense": 5.0}},
        "streaming_pipeline": {"speedup_vs_serial": 1.5},
    }
    serving = {
        "smoke": smoke,
        "policies": {
            "b8_d2000us": {"requests_per_s": serving_rps, "p50_ms": 1.1,
                           "p99_ms": 4.2},
            "b1_d500us": {"requests_per_s": serving_rps / 3.0,
                          "p50_ms": 2.0, "p99_ms": 6.0},
        },
        "best": {"policy": "b8_d2000us", "requests_per_s": serving_rps,
                 "p50_ms": 1.1, "p99_ms": 4.2},
    }
    sweep_path = os.path.join(root, f"BENCH_sweep{suffix}")
    inference_path = os.path.join(root, f"BENCH_inference{suffix}")
    serving_path = os.path.join(root, f"BENCH_serving{suffix}")
    with open(sweep_path, "w", encoding="utf-8") as handle:
        json.dump(sweep, handle)
    with open(inference_path, "w", encoding="utf-8") as handle:
        json.dump(inference, handle)
    with open(serving_path, "w", encoding="utf-8") as handle:
        json.dump(serving, handle)
    return (os.path.join(root, "BENCH_sweep.json"),
            os.path.join(root, "BENCH_inference.json"),
            os.path.join(root, "BENCH_serving.json"))


def _write_chaos_artifact(root, *, smoke=False, goodput_ratio=0.4):
    suffix = ".smoke.json" if smoke else ".json"
    chaos = {
        "smoke": smoke,
        "benchmark": "chaos_recovery",
        "chaos": {"goodput_ratio": goodput_ratio, "mean_recovery_s": 0.3,
                  "max_recovery_s": 0.5, "kills": 5, "restarts": 6},
        "baseline": {"goodput_tasks_per_s": 25.0},
    }
    path = os.path.join(root, f"BENCH_chaos{suffix}")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(chaos, handle)
    return os.path.join(root, "BENCH_chaos.json")


class TestExtractMetrics:
    def test_flattens_tracked_and_network_metrics(self, cli, tmp_path):
        _write_artifacts(str(tmp_path))
        sweep = json.load(open(tmp_path / "BENCH_sweep.json"))
        inference = json.load(open(tmp_path / "BENCH_inference.json"))
        metrics = cli.extract_metrics(sweep, inference)
        assert metrics["conv_blas_speedup_vs_loop"] == 800.0
        assert metrics["CNN-M.packed_images_per_s"] == 100.0
        assert metrics["streaming_pipeline_speedup"] == 1.5

    def test_missing_artifacts_yield_partial_metrics(self, cli, tmp_path):
        _write_artifacts(str(tmp_path))
        inference = json.load(open(tmp_path / "BENCH_inference.json"))
        metrics = cli.extract_metrics(None, inference)
        assert "conv_blas_speedup_vs_loop" not in metrics
        assert "serving_best_rps" not in metrics
        assert metrics["CNN-M.speedup_vs_dense"] == 5.0

    def test_serving_policies_flatten_per_policy(self, cli, tmp_path):
        _write_artifacts(str(tmp_path), serving_rps=1200.0)
        serving = json.load(open(tmp_path / "BENCH_serving.json"))
        metrics = cli.extract_metrics(None, None, serving)
        assert metrics["serving_best_rps"] == 1200.0
        assert metrics["serving_best_p99_ms"] == 4.2
        assert metrics["serving.b8_d2000us.requests_per_s"] == 1200.0
        assert metrics["serving.b1_d500us.p50_ms"] == 2.0

    def test_chaos_metrics_flatten_from_the_chaos_artifact(self, cli,
                                                           tmp_path):
        _write_chaos_artifact(str(tmp_path), goodput_ratio=0.37)
        chaos = json.load(open(tmp_path / "BENCH_chaos.json"))
        metrics = cli.extract_metrics(None, None, None, chaos)
        assert metrics["chaos_goodput_ratio"] == 0.37
        assert metrics["chaos_mean_recovery_s"] == 0.3
        assert metrics["chaos_max_recovery_s"] == 0.5
        assert metrics["chaos_restarts"] == 6
        # no other artifact contributed anything
        assert "serving_best_rps" not in metrics
        assert "conv_blas_speedup_vs_loop" not in metrics


class TestAppendEntry:
    def test_appends_and_replaces_same_label_tail(self, cli, tmp_path):
        trend = str(tmp_path / "trend.json")
        cli.append_entry(trend, {"label": "a", "metrics": {"m": 1.0}})
        cli.append_entry(trend, {"label": "b", "metrics": {"m": 2.0}})
        entries = cli.append_entry(trend, {"label": "b",
                                           "metrics": {"m": 3.0}})
        assert [e["label"] for e in entries] == ["a", "b"]
        assert entries[-1]["metrics"]["m"] == 3.0

    def test_corrupt_trend_file_starts_fresh(self, cli, tmp_path):
        trend = tmp_path / "trend.json"
        trend.write_text("{not json")
        entries = cli.append_entry(str(trend), {"label": "x", "metrics": {}})
        assert len(entries) == 1


class TestCliMain:
    def test_end_to_end_with_delta(self, cli, tmp_path, capsys):
        sweep, inference, serving = _write_artifacts(str(tmp_path))
        trend = str(tmp_path / "trend.json")
        assert cli.main(["--sweep", sweep, "--inference", inference,
                         "--serving", serving,
                         "--trend", trend, "--label", "one"]) == 0
        _write_artifacts(str(tmp_path), img_per_s=120.0)
        assert cli.main(["--sweep", sweep, "--inference", inference,
                         "--serving", serving,
                         "--trend", trend, "--label", "two"]) == 0
        out = capsys.readouterr().out
        assert "delta vs previous entry 'one'" in out
        assert "+20.0%" in out
        assert "serving_best_rps" in out

    def test_serving_round_trips_through_the_trend_file(self, cli, tmp_path):
        """BENCH_serving.json keys survive record -> load -> delta."""
        sweep, inference, serving = _write_artifacts(str(tmp_path),
                                                     serving_rps=800.0)
        trend = str(tmp_path / "trend.json")
        assert cli.main(["--sweep", sweep, "--inference", inference,
                         "--serving", serving,
                         "--trend", trend, "--label", "one"]) == 0
        entries = cli.load_trend(trend)
        assert entries[-1]["metrics"]["serving_best_rps"] == 800.0
        assert entries[-1]["metrics"]["serving.b8_d2000us.p99_ms"] == 4.2
        # and the delta printer compares the serving metrics entry-to-entry
        _write_artifacts(str(tmp_path), serving_rps=1000.0)
        assert cli.main(["--sweep", sweep, "--inference", inference,
                         "--serving", serving,
                         "--trend", trend, "--label", "two"]) == 0
        lines = "\n".join(cli.format_delta(cli.load_trend(trend)))
        assert "serving_best_rps: 1000.000 (+25.0% vs 800.000)" in lines

    def test_smoke_defaults_to_smoke_trend_path(self, cli, tmp_path,
                                                monkeypatch, capsys):
        """Regression: --smoke without --trend must never touch the
        committed BENCH_trend.json."""
        _write_artifacts(str(tmp_path), smoke=True)
        committed = tmp_path / "BENCH_trend.json"
        smoke_trend = tmp_path / "BENCH_trend.smoke.json"
        monkeypatch.setattr(cli, "DEFAULT_TREND_PATH", str(committed))
        monkeypatch.setattr(cli, "SMOKE_TREND_PATH", str(smoke_trend))
        sweep = str(tmp_path / "BENCH_sweep.json")
        inference = str(tmp_path / "BENCH_inference.json")
        serving = str(tmp_path / "BENCH_serving.json")
        assert cli.main(["--sweep", sweep, "--inference", inference,
                         "--serving", serving,
                         "--smoke", "--label", "ci"]) == 0
        assert not committed.exists()
        entries = json.load(open(smoke_trend))["entries"]
        assert entries[0]["label"] == "ci" and entries[0]["smoke"] is True
        assert "serving_best_rps" in entries[0]["metrics"]

    def test_chaos_round_trips_through_the_trend_file(self, cli, tmp_path,
                                                      capsys):
        """A chaos-only run records an entry and deltas PR-over-PR."""
        chaos = _write_chaos_artifact(str(tmp_path), goodput_ratio=0.4)
        trend = str(tmp_path / "trend.json")
        absent = str(tmp_path / "nope.json")
        base = ["--sweep", absent, "--inference", absent, "--serving",
                absent, "--chaos", chaos, "--trend", trend]
        assert cli.main(base + ["--label", "one"]) == 0
        entries = cli.load_trend(trend)
        assert entries[-1]["metrics"]["chaos_goodput_ratio"] == 0.4
        _write_chaos_artifact(str(tmp_path), goodput_ratio=0.5)
        assert cli.main(base + ["--label", "two"]) == 0
        lines = "\n".join(cli.format_delta(cli.load_trend(trend)))
        assert "chaos_goodput_ratio: 0.500 (+25.0% vs 0.400)" in lines

    def test_smoke_swaps_the_chaos_artifact_suffix(self, cli, tmp_path):
        """--smoke reads BENCH_chaos.smoke.json, never the full artifact."""
        _write_chaos_artifact(str(tmp_path), smoke=True, goodput_ratio=0.2)
        chaos = str(tmp_path / "BENCH_chaos.json")
        absent = str(tmp_path / "nope.json")
        trend = str(tmp_path / "trend.json")
        assert cli.main(["--sweep", absent, "--inference", absent,
                         "--serving", absent, "--chaos", chaos,
                         "--smoke", "--trend", trend,
                         "--label", "ci"]) == 0
        entries = cli.load_trend(trend)
        assert entries[0]["smoke"] is True
        assert entries[0]["metrics"]["chaos_goodput_ratio"] == 0.2

    def test_missing_artifacts_fail_cleanly(self, cli, tmp_path, capsys):
        assert cli.main(["--sweep", str(tmp_path / "nope.json"),
                         "--inference", str(tmp_path / "nope2.json"),
                         "--serving", str(tmp_path / "nope3.json"),
                         "--chaos", str(tmp_path / "nope4.json"),
                         "--trend", str(tmp_path / "trend.json")]) == 1
        assert "no artifacts found" in capsys.readouterr().out
