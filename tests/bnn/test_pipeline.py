"""Tests for the streaming packed pipeline.

The contract under test: the stage-pipelined execution path is
*byte-identical* to the serial chunk loop at the same chunking — on all
evaluation networks, with seeded flip noise, at odd tail chunks and
``batch_size=1`` — because chunk boundaries and the per-``(offset,
step_index)`` flip-noise seed derivation are unchanged.  Around that:
stage planning (prefix/body/tail splits, degenerate single-stage plans),
mode resolution (argument beats env beats the ``auto`` default), the
autotune-backed ``auto`` decision, and crash behaviour (a stage
exception propagates to the caller and leaves no live pipeline
threads).
"""

from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bnn import autotune
from repro.bnn.layers import (
    BatchNorm,
    BinaryConv2d,
    BinaryLinear,
    Flatten,
    Linear,
    MaxPool2d,
    SignActivation,
)
from repro.bnn.model import BNNModel, InferenceEngine
from repro.bnn.networks import build_network, list_networks
from repro.bnn.pipeline import (
    PIPELINE_ENV,
    StreamingPipeline,
    maybe_stream,
    pipeline_mode,
    plan_signature,
    plan_stages,
)
from repro.utils.rng import make_rng


def _small_mlp(rng) -> BNNModel:
    layers = [
        Linear(12, 10, rng=rng),
        BatchNorm(10),
        SignActivation(),
        BinaryLinear(10, 9, rng=rng),
        BatchNorm(9),
        SignActivation(),
        BinaryLinear(9, 8, rng=rng),
        BatchNorm(8),
        SignActivation(),
        Linear(8, 4, rng=rng),
    ]
    return BNNModel(layers, name="tiny-mlp", input_shape=(12,))


def _small_cnn(rng) -> BNNModel:
    layers = [
        BinaryConv2d(3, 8, 3, padding=1, rng=rng),
        BatchNorm(8),
        SignActivation(),
        MaxPool2d(2),
        BinaryConv2d(8, 6, 3, rng=rng),
        BatchNorm(6),
        SignActivation(),
        Flatten(),
        BinaryLinear(6 * 2 * 2, 5, rng=rng),
        BatchNorm(5),
        SignActivation(),
        Linear(5, 3, rng=rng),
    ]
    return BNNModel(layers, name="tiny-cnn", input_shape=(3, 8, 8))


def _dense_only(rng) -> BNNModel:
    layers = [Linear(6, 5, rng=rng), Linear(5, 3, rng=rng)]
    return BNNModel(layers, name="dense-only", input_shape=(6,))


def _assert_pipeline_exact(engine: InferenceEngine, x: np.ndarray,
                           batch_size: int) -> None:
    serial = engine.forward_batch(x, batch_size=batch_size, pipeline="off")
    piped = engine.forward_batch(x, batch_size=batch_size, pipeline="on")
    assert serial.tobytes() == piped.tobytes()


def _pipeline_threads():
    return [t for t in threading.enumerate()
            if t.name.startswith("repro-pipeline-")]


class TestStagePlanning:
    def test_mlp_prefix_body_tail(self):
        engine = InferenceEngine(_small_mlp(make_rng(0)))
        stages = plan_stages(engine._steps)
        names = [stage.name for stage in stages]
        assert names[0] == "dense_prefix"
        assert names[-1] == "dense_tail"
        assert any(n.startswith("packed_body") for n in names)
        # contiguous, exhaustive cover of the plan
        assert stages[0].start == 0
        assert stages[-1].stop == len(engine._steps)
        for left, right in zip(stages, stages[1:]):
            assert left.stop == right.start

    def test_body_split_at_heaviest_fused_step(self):
        engine = InferenceEngine(build_network("CNN-M"))
        stages = plan_stages(engine._steps)
        names = [stage.name for stage in stages]
        assert "packed_body" in names and "packed_body_2" in names
        unsplit = plan_stages(engine._steps, split_body=False)
        assert [s.name for s in unsplit].count("packed_body") == 1
        assert "packed_body_2" not in [s.name for s in unsplit]

    def test_single_fused_step_body_not_split(self):
        # one fused step: nothing to split, even with split_body on
        rng = make_rng(1)
        model = BNNModel(
            [Linear(8, 6, rng=rng), BatchNorm(6), SignActivation(),
             BinaryLinear(6, 5, rng=rng), BatchNorm(5), SignActivation(),
             Linear(5, 3, rng=rng)],
            name="one-fused", input_shape=(8,))
        engine = InferenceEngine(model)
        names = [s.name for s in plan_stages(engine._steps)]
        assert "packed_body_2" not in names

    def test_dense_only_plan_is_single_stage(self):
        engine = InferenceEngine(_dense_only(make_rng(2)))
        stages = plan_stages(engine._steps)
        assert len(stages) == 1
        assert StreamingPipeline(engine).num_stages == 1

    def test_plan_signature_distinguishes_batch_size(self):
        engine = InferenceEngine(_small_mlp(make_rng(3)))
        assert plan_signature(engine, 4) != plan_signature(engine, 8)
        assert engine.model.name in plan_signature(engine, 4)


class TestModeResolution:
    def test_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv(PIPELINE_ENV, "on")
        assert pipeline_mode("off") == "off"
        assert pipeline_mode(None) == "on"

    def test_env_unset_or_invalid_is_auto(self, monkeypatch):
        monkeypatch.delenv(PIPELINE_ENV, raising=False)
        assert pipeline_mode(None) == "auto"
        monkeypatch.setenv(PIPELINE_ENV, "bogus")
        assert pipeline_mode(None) == "auto"

    def test_invalid_argument_raises(self):
        with pytest.raises(ValueError, match="pipeline"):
            pipeline_mode("bogus")


class TestBitExactness:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**16), batch=st.integers(2, 11),
           chunk=st.integers(1, 5))
    def test_mlp_property(self, seed, batch, chunk):
        rng = np.random.default_rng(seed)
        model = _small_mlp(rng)
        model.eval()
        engine = InferenceEngine(model)
        x = rng.uniform(-2, 2, size=(batch, 12))
        _assert_pipeline_exact(engine, x, chunk)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**16), flip_ppm=st.integers(1, 200_000),
           chunk=st.integers(1, 4))
    def test_seeded_flip_noise_property(self, seed, flip_ppm, chunk):
        rng = np.random.default_rng(seed)
        model = _small_cnn(rng)
        model.eval()
        engine = InferenceEngine(model, flip_rate=flip_ppm / 1e6, seed=seed)
        x = rng.uniform(-2, 2, size=(9, 3, 8, 8))
        _assert_pipeline_exact(engine, x, chunk)

    @pytest.mark.parametrize("name", list_networks())
    def test_evaluation_networks(self, name):
        model = build_network(name)
        model.eval()
        rng = make_rng(11)
        x = rng.uniform(-1, 1, size=(7, *model.input_shape))
        engine = InferenceEngine(model, flip_rate=0.01, seed=2)
        # 7 rows / 3-row chunks: an odd tail chunk by construction
        _assert_pipeline_exact(engine, x, 3)

    def test_batch_size_one(self):
        rng = make_rng(12)
        model = _small_mlp(rng)
        model.eval()
        engine = InferenceEngine(model, flip_rate=0.05, seed=9)
        x = rng.uniform(-1, 1, size=(6, 12))
        _assert_pipeline_exact(engine, x, 1)

    def test_single_stage_degenerate_plan_falls_back(self):
        rng = make_rng(13)
        model = _dense_only(rng)
        model.eval()
        engine = InferenceEngine(model)
        x = rng.uniform(-1, 1, size=(6, 6))
        assert maybe_stream(engine, x, 2, "on") is None
        _assert_pipeline_exact(engine, x, 2)  # "on" degrades to serial

    def test_single_chunk_falls_back(self):
        rng = make_rng(14)
        engine = InferenceEngine(_small_mlp(rng))
        x = rng.uniform(-1, 1, size=(4, 12))
        assert maybe_stream(engine, x, 8, "on") is None

    def test_direct_run_reports_stage_stats(self):
        rng = make_rng(15)
        engine = InferenceEngine(_small_cnn(rng))
        x = rng.uniform(-1, 1, size=(8, 3, 8, 8))
        pipe = StreamingPipeline(engine)
        out, stats = pipe.run(x, 2)
        assert out.tobytes() == engine.forward_batch(
            x, batch_size=2, pipeline="off").tobytes()
        assert [s.name for s in stats] == [s.name for s in pipe.stages]
        assert all(s.chunks == 4 for s in stats)
        assert all(0.0 <= s.occupancy <= 1.0 for s in stats)


class TestCrash:
    def test_stage_exception_propagates_and_joins_threads(self):
        rng = make_rng(16)
        engine = InferenceEngine(_small_cnn(rng))
        x = rng.uniform(-1, 1, size=(10, 3, 8, 8))
        boom = RuntimeError("stage kaboom")
        original = engine._run_steps

        def exploding(state, offset, start, stop):
            if offset == 4 and start > 0:
                raise boom
            return original(state, offset, start, stop)

        engine._run_steps = exploding
        before = _pipeline_threads()
        with pytest.raises(RuntimeError, match="stage kaboom"):
            StreamingPipeline(engine).run(x, 2)
        assert _pipeline_threads() == before

    def test_crash_in_first_stage_does_not_deadlock(self):
        rng = make_rng(17)
        engine = InferenceEngine(_small_mlp(rng))
        x = rng.uniform(-1, 1, size=(12, 12))

        def exploding(state, offset, start, stop):
            raise ValueError("no stage survives")

        engine._run_steps = exploding
        with pytest.raises(ValueError, match="no stage survives"):
            StreamingPipeline(engine).run(x, 2)
        assert not _pipeline_threads()

    def test_forward_batch_surfaces_the_stage_error(self):
        rng = make_rng(18)
        engine = InferenceEngine(_small_mlp(rng))
        x = rng.uniform(-1, 1, size=(8, 12))
        original = engine._run_steps

        def exploding(state, offset, start, stop):
            if offset == 2:
                raise RuntimeError("mid-stream")
            return original(state, offset, start, stop)

        engine._run_steps = exploding
        with pytest.raises(RuntimeError, match="mid-stream"):
            engine.forward_batch(x, batch_size=2, pipeline="on")


class TestAutoDecision:
    @pytest.fixture(autouse=True)
    def _fresh(self, monkeypatch, tmp_path):
        monkeypatch.setenv(autotune.CACHE_ENV, str(tmp_path / "cache"))
        autotune.reset_cached_params()
        yield
        autotune.reset_cached_params()

    def test_auto_measures_once_then_reuses(self, monkeypatch):
        rng = make_rng(19)
        engine = InferenceEngine(_small_mlp(rng))
        x = rng.uniform(-1, 1, size=(64, 12))
        measured = []

        def fake_measure(eng, data, batch_size, **kwargs):
            measured.append(batch_size)
            return 2.0  # profitable

        from repro.bnn import pipeline as pipeline_mod
        monkeypatch.setattr(pipeline_mod, "measure_speedup", fake_measure)
        out_auto = engine.forward_batch(x, batch_size=16, pipeline="auto")
        assert measured == [16]
        engine.forward_batch(x, batch_size=16, pipeline="auto")
        assert measured == [16]  # decision memoised
        assert out_auto.tobytes() == engine.forward_batch(
            x, batch_size=16, pipeline="off").tobytes()
        decision = autotune.pipeline_decision(plan_signature(engine, 16))
        assert decision is not None and decision["profitable"]

    def test_unprofitable_verdict_keeps_serial_path(self, monkeypatch):
        rng = make_rng(20)
        engine = InferenceEngine(_small_mlp(rng))
        x = rng.uniform(-1, 1, size=(64, 12))
        autotune.record_pipeline_decision(plan_signature(engine, 16), 0.8)
        ran = []

        class NeverRun(StreamingPipeline):
            def run(self, *args, **kwargs):  # pragma: no cover - guard
                ran.append(True)
                return super().run(*args, **kwargs)

        from repro.bnn import pipeline as pipeline_mod
        monkeypatch.setattr(pipeline_mod, "StreamingPipeline", NeverRun)
        engine.forward_batch(x, batch_size=16, pipeline="auto")
        assert not ran

    def test_auto_skips_tiny_batches_without_measuring(self, monkeypatch):
        rng = make_rng(21)
        engine = InferenceEngine(_small_mlp(rng))
        x = rng.uniform(-1, 1, size=(8, 12))

        def exploding_measure(*args, **kwargs):  # pragma: no cover - guard
            raise AssertionError("tiny batches must not be probed")

        from repro.bnn import pipeline as pipeline_mod
        monkeypatch.setattr(pipeline_mod, "measure_speedup",
                            exploding_measure)
        assert maybe_stream(engine, x, 2, "auto") is None
