"""Tests for the runtime work-list abstraction and executor backends."""

from __future__ import annotations

import pytest

from repro.runtime.executors import (
    BACKEND_ENV,
    BACKENDS,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    backend_from_env,
    make_executor,
    resolve_executor,
)
from repro.runtime.queue import QueueExecutor
from repro.runtime.tasks import Task, WorkList, gather, run_serially


def square(x):
    """Module-level task fn (picklable for the process/queue backends)."""
    return x * x


def explode(x):
    """Task fn that always raises (error-propagation checks)."""
    raise RuntimeError(f"boom on {x}")


ALL_EXECUTORS = [
    SerialExecutor,
    lambda: ThreadExecutor(3),
    lambda: ProcessExecutor(2),
    QueueExecutor,
]


class TestWorkList:
    def test_from_items_preserves_order(self):
        worklist = WorkList.from_items(square, [3, 1, 2])
        assert [t.arg for t in worklist] == [3, 1, 2]
        assert [t.index for t in worklist] == [0, 1, 2]
        assert len(worklist) == 3 and bool(worklist)

    def test_non_contiguous_indices_rejected(self):
        with pytest.raises(ValueError):
            WorkList([Task(index=1, fn=square, arg=0)])

    def test_run_serially_matches_plain_map(self):
        worklist = WorkList.from_items(square, range(10))
        assert run_serially(worklist) == [x * x for x in range(10)]

    def test_empty_worklist(self):
        assert run_serially(WorkList([])) == []


class TestGather:
    def test_reorders_completion_order(self):
        pairs = [(2, "c"), (0, "a"), (1, "b")]
        assert gather(pairs, 3) == ["a", "b", "c"]

    def test_none_results_are_preserved(self):
        assert gather([(0, None), (1, 5)], 2) == [None, 5]

    @pytest.mark.parametrize("pairs,expected", [
        ([(0, "a")], 2),                 # missing
        ([(0, "a"), (0, "b")], 2),       # duplicate
        ([(5, "a")], 2),                 # out of range
    ])
    def test_protocol_violations_raise(self, pairs, expected):
        with pytest.raises(ValueError):
            gather(pairs, expected)


class TestBackends:
    @pytest.mark.parametrize("factory", ALL_EXECUTORS)
    def test_map_is_ordered_and_correct(self, factory):
        with factory() as executor:
            assert executor.map(square, range(17)) == [x * x for x in range(17)]

    @pytest.mark.parametrize("factory", ALL_EXECUTORS)
    def test_errors_propagate(self, factory):
        with factory() as executor:
            with pytest.raises(RuntimeError):
                executor.map(explode, [1, 2])

    @pytest.mark.parametrize("factory", ALL_EXECUTORS)
    def test_empty_and_single_item(self, factory):
        with factory() as executor:
            assert executor.map(square, []) == []
            assert executor.map(square, [7]) == [49]

    def test_thread_executor_reuses_pool_across_maps(self):
        with ThreadExecutor(2) as executor:
            first = executor.map(square, range(8))
            second = executor.map(square, range(8))
        assert first == second

    @pytest.mark.parametrize("cls", [ThreadExecutor, ProcessExecutor])
    def test_invalid_worker_counts_rejected(self, cls):
        with pytest.raises(ValueError):
            cls(0)


class TestRegistry:
    def test_registry_covers_all_backends(self):
        assert BACKENDS == ("process", "queue", "serial", "thread")

    @pytest.mark.parametrize("name,cls", [
        ("serial", SerialExecutor),
        ("thread", ThreadExecutor),
        ("process", ProcessExecutor),
        ("queue", QueueExecutor),
    ])
    def test_make_executor(self, name, cls):
        assert isinstance(make_executor(name), cls)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            make_executor("gpu")

    def test_queue_backend_accepts_fleet_options(self):
        executor = make_executor("queue", options={
            "lease_s": 4.5, "max_retries": 7, "compact_threshold": 32,
        })
        assert executor.lease_s == 4.5
        assert executor.max_retries == 7
        assert executor.compact_threshold == 32

    @pytest.mark.parametrize("name", ["serial", "thread", "process"])
    def test_optionless_backends_reject_options(self, name):
        with pytest.raises(ValueError, match="takes no options"):
            make_executor(name, options={"lease_s": 1.0})


class TestResolveExecutor:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        assert isinstance(resolve_executor(), SerialExecutor)

    @pytest.mark.parametrize("workers", [None, 0, 1])
    def test_small_worker_counts_stay_serial(self, workers, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        assert isinstance(resolve_executor(workers=workers), SerialExecutor)

    def test_legacy_workers_select_process_backend(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        executor = resolve_executor(workers=4)
        assert isinstance(executor, ProcessExecutor)
        assert executor.workers == 4

    def test_explicit_backend_wins_over_workers(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        executor = resolve_executor(backend="thread", workers=3)
        assert isinstance(executor, ThreadExecutor)
        assert executor.workers == 3

    def test_env_toggle_applies_when_no_backend_given(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "process")
        assert isinstance(resolve_executor(), ProcessExecutor)
        assert backend_from_env() == "process"

    def test_explicit_backend_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "process")
        assert isinstance(resolve_executor(backend="serial"), SerialExecutor)

    def test_env_opt_out(self, monkeypatch):
        # there is no env=False switch: an explicit backend is the only
        # way past the toggle (test_explicit_backend_wins_over_env)
        monkeypatch.setenv(BACKEND_ENV, "process")
        with pytest.raises(TypeError):
            resolve_executor(env=False)

    def test_invalid_env_value_raises(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "gpu")
        with pytest.raises(ValueError):
            resolve_executor()

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError):
            resolve_executor(workers=-1)

    def test_options_flow_to_env_selected_backend(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "queue")
        executor = resolve_executor(options={"lease_s": 2.0})
        assert isinstance(executor, QueueExecutor)
        assert executor.lease_s == 2.0

    def test_options_without_backend_are_rejected(self, monkeypatch):
        # the legacy workers= path would silently drop them otherwise
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        with pytest.raises(ValueError, match="no backend was resolved"):
            resolve_executor(workers=4, options={"lease_s": 2.0})


def negate(x):
    """Second module-level fn for heterogeneous-worklist coverage."""
    return -x


class PickleCountingIdentity:
    """Identity callable that counts its own pickling round trips.

    Module-level so child processes can rebuild it by import path.
    """

    def __init__(self):
        self.pickles = 0

    def __getstate__(self):
        self.pickles += 1
        return {"pickles": self.pickles}

    def __setstate__(self, state):
        self.pickles = state["pickles"]

    def __call__(self, x):
        return x


class TestProcessExecutorFnSharing:
    """The shared-fn fast path and the mixed-fn fallback."""

    def test_heterogeneous_fns_fall_back_to_pairs(self):
        worklist = WorkList([
            Task(index=0, fn=square, arg=3),
            Task(index=1, fn=negate, arg=3),
            Task(index=2, fn=square, arg=4),
        ])
        with ProcessExecutor(2) as executor:
            assert executor.execute(worklist) == [9, -3, 16]

    def test_shared_fn_path_matches_serial(self):
        worklist = WorkList.from_items(square, range(12))
        with ProcessExecutor(2) as executor:
            assert executor.execute(worklist) == run_serially(worklist)

    def test_heavy_shared_callable_pickles_per_batch_not_per_task(self):
        # with the shared-fn path the parent-side pickle count stays well
        # below one per task (pool.map pickles the fn per dispatch batch)
        fn = PickleCountingIdentity()
        with ProcessExecutor(2) as executor:
            assert executor.map(fn, range(32)) == list(range(32))
        assert 0 < fn.pickles < 32
