"""Pluggable executor backends over the shared work-list abstraction.

One substrate, four backends:

* :class:`SerialExecutor` — in-process, in-order; the semantic oracle.
* :class:`ThreadExecutor` — a thread pool; NumPy's BLAS and bit-twiddling
  kernels release the GIL, so threads genuinely overlap the packed
  inference chunks while still sharing the per-process memoisation caches.
* :class:`ProcessExecutor` — a :mod:`multiprocessing` pool (this absorbs the
  pool handling previously inlined in ``repro.eval.sweep``).  Task functions
  and arguments must be picklable; each worker process owns private
  memoisation caches, which is correct because every task argument is
  self-contained and seeded.
* :class:`~repro.runtime.queue.QueueExecutor` — the file/dir work-queue seam
  for multi-host execution (registered here, implemented in
  :mod:`repro.runtime.queue`).

All backends return results in submission order, so any call site that is
deterministic under :class:`SerialExecutor` stays bit-identical under every
other backend — the contract the sweep and inference-engine tests enforce.

Backend selection honours the ``REPRO_RUNTIME_BACKEND`` environment
variable (used by CI to force the whole sweep path through the process
backend) via :func:`resolve_executor`.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, Iterable, List, Optional

from repro.runtime.tasks import WorkList, run_serially

#: environment variable forcing a default backend (e.g. CI sets
#: ``REPRO_RUNTIME_BACKEND=process`` to shake out executor regressions)
BACKEND_ENV = "REPRO_RUNTIME_BACKEND"

#: default worker count of the pooled backends when none is requested
_DEFAULT_POOL_WORKERS = 2


class Executor:
    """Base class of every runtime backend.

    An executor runs a :class:`~repro.runtime.tasks.WorkList` and returns
    the results in submission order.  Executors are context managers;
    :meth:`close` releases pooled resources and is idempotent.
    """

    #: registry key of this backend (``"serial"``, ``"thread"``, ...)
    name: str = "abstract"

    def execute(self, worklist: WorkList) -> List[object]:  # pragma: no cover - interface
        """Run every task and return results in submission order."""
        raise NotImplementedError

    def map(self, fn: Callable[[object], object],
            items: Iterable[object]) -> List[object]:
        """Apply ``fn`` to every item (ordered), like built-in ``map``."""
        return self.execute(WorkList.from_items(fn, items))

    def close(self) -> None:
        """Release backend resources (idempotent; serial backends no-op)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class SerialExecutor(Executor):
    """In-process, in-order execution — the oracle backend."""

    name = "serial"

    def execute(self, worklist: WorkList) -> List[object]:
        return run_serially(worklist)


class ThreadExecutor(Executor):
    """Thread-pool execution sharing the caller's memoisation caches.

    Suited to tasks dominated by GIL-releasing NumPy kernels (BLAS
    matmuls, the packed XNOR/popcount kernels of accuracy-sweep points).
    Tasks must not mutate shared state in ways that change *values*;
    benign races on memoisation caches (two threads computing the same
    deterministic entry) are fine.
    """

    name = "thread"

    def __init__(self, workers: int = _DEFAULT_POOL_WORKERS) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = int(workers)
        self._pool: Optional[ThreadPoolExecutor] = None

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(max_workers=self.workers)
        return self._pool

    def execute(self, worklist: WorkList) -> List[object]:
        if len(worklist) <= 1 or self.workers == 1:
            return run_serially(worklist)
        pool = self._ensure_pool()
        # Executor.map yields results in submission order regardless of
        # completion order, preserving the bit-identical contract
        return list(pool.map(lambda task: task.run(), worklist.tasks))

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ThreadExecutor(workers={self.workers})"


def _run_task_pair(pair):
    """Module-level trampoline (picklable) running one (fn, arg) pair."""
    fn, arg = pair
    return fn(arg)


class ProcessExecutor(Executor):
    """Process-pool execution for CPU-bound, picklable task functions.

    This is the backend the design-space sweeps used inline before the
    runtime layer existed: ``multiprocessing.Pool.map`` fans the tasks out
    and returns results in submission order.  Determinism across worker
    counts holds because every task argument carries its own derived seed
    and workers share nothing — each process rebuilds its memoisation
    caches on first use.
    """

    name = "process"

    def __init__(self, workers: int = _DEFAULT_POOL_WORKERS) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = int(workers)

    def execute(self, worklist: WorkList) -> List[object]:
        if len(worklist) <= 1 or self.workers == 1:
            return run_serially(worklist)
        # a fresh pool per work list keeps the executor stateless and
        # re-entrant (nested sweeps, pytest-xdist style reuse); pool spawn
        # cost is negligible against the analytical/functional task bodies
        with multiprocessing.Pool(processes=self.workers) as pool:
            fns = {id(task.fn) for task in worklist}
            if len(fns) == 1:
                # the common map() shape: one shared fn.  Passing it as the
                # pool.map callable pickles it once per dispatch batch, not
                # once per task — a heavyweight callable (e.g. a bound
                # method of an object holding large numpy arrays) must not
                # cross the IPC boundary once per item
                return pool.map(worklist.tasks[0].fn,
                                [task.arg for task in worklist])
            pairs = [(task.fn, task.arg) for task in worklist]
            return pool.map(_run_task_pair, pairs)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ProcessExecutor(workers={self.workers})"


def _reject_options(backend: str, options: Dict[str, object]) -> None:
    if options:
        raise ValueError(
            f"the {backend!r} backend takes no options, got "
            f"{sorted(options)} (backend options like lease_s/max_retries/"
            f"compact_threshold/store apply to the 'queue' backend)"
        )


def _serial_factory(workers: int, options: Dict[str, object]) -> Executor:
    _reject_options("serial", options)
    return SerialExecutor()


def _thread_factory(workers: int, options: Dict[str, object]) -> Executor:
    _reject_options("thread", options)
    return ThreadExecutor(workers)


def _process_factory(workers: int, options: Dict[str, object]) -> Executor:
    _reject_options("process", options)
    return ProcessExecutor(workers)


def _queue_factory(workers: int, options: Dict[str, object]) -> Executor:
    # local import: repro.runtime.queue imports from this module
    from repro.runtime.queue import QUEUE_DIR_ENV, QueueExecutor

    # REPRO_RUNTIME_QUEUE_DIR makes the multi-host mode reachable through
    # the registry: the executor enqueues into the shared directory and
    # cooperates with any `python -m repro.runtime.queue <dir>` workers
    # pointed at it; unset, the backend is self-contained on a temp dir.
    # The fleet-hardening knobs (lease_s, max_retries, compact_threshold)
    # and the storage backend (store="dir"/"object", autoscale_hook)
    # arrive either as explicit options or via their REPRO_RUNTIME_* env
    # toggles, which QueueExecutor resolves itself.
    shared_root = os.environ.get(QUEUE_DIR_ENV, "").strip() or None
    return QueueExecutor(shared_root, workers=workers, **options)


_BACKEND_FACTORIES: Dict[str, Callable[[int, Dict[str, object]], Executor]] = {
    "serial": _serial_factory,
    "thread": _thread_factory,
    "process": _process_factory,
    "queue": _queue_factory,
}

#: valid values of ``backend=`` kwargs and :data:`BACKEND_ENV`
BACKENDS = tuple(sorted(_BACKEND_FACTORIES))


def make_executor(backend: str, *, workers: Optional[int] = None,
                  options: Optional[Dict[str, object]] = None) -> Executor:
    """Instantiate a backend by registry name.

    ``options`` holds backend-specific constructor keywords — today the
    queue backend's fleet-hardening knobs (``lease_s``, ``max_retries``,
    ``compact_threshold``, ``timeout_s``, ...) plus its storage selection
    (``store="dir"``/``"object"`` or a ``QueueStore`` instance) and
    ``autoscale_hook``; backends without knobs reject a non-empty dict so
    misdirected options fail loudly.
    """
    factory = _BACKEND_FACTORIES.get(backend)
    if factory is None:
        raise ValueError(
            f"unknown runtime backend {backend!r}; choose from {BACKENDS}"
        )
    if workers is not None and workers < 1:
        raise ValueError("workers must be >= 1")
    return factory(workers if workers is not None else _DEFAULT_POOL_WORKERS,
                   dict(options or {}))


def backend_from_env() -> Optional[str]:
    """Backend name requested via :data:`BACKEND_ENV` (``None`` if unset)."""
    value = os.environ.get(BACKEND_ENV, "").strip().lower()
    if not value:
        return None
    if value not in _BACKEND_FACTORIES:
        raise ValueError(
            f"{BACKEND_ENV}={value!r} is not a runtime backend; "
            f"choose from {BACKENDS}"
        )
    return value


def resolve_executor(*, backend: Optional[str] = None,
                     workers: Optional[int] = None,
                     options: Optional[Dict[str, object]] = None) -> Executor:
    """Resolve the executor for a ``(backend=, workers=)`` call-site pair.

    Precedence: an explicit ``backend`` wins; otherwise :data:`BACKEND_ENV`;
    otherwise the historical ``workers`` semantics — ``None``/``0``/``1``
    run serially, larger counts select the process backend (exactly what
    ``run_sweep(workers=...)`` did before the runtime layer existed, so
    existing callers keep their behaviour bit-for-bit).

    ``options`` (backend-specific constructor keywords, e.g. the queue
    backend's ``lease_s``/``max_retries``/``compact_threshold``) requires
    a backend to be resolved explicitly or via the environment — silently
    dropping options on the legacy ``workers`` path would hide misconfig.
    """
    if workers is not None and workers < 0:
        raise ValueError("workers must be non-negative")
    effective_workers = workers if workers else None
    if backend is None:
        backend = backend_from_env()
    if backend is not None:
        return make_executor(backend, workers=effective_workers,
                             options=options)
    if options:
        raise ValueError(
            "backend options were given but no backend was resolved "
            f"(explicit backend= or {BACKEND_ENV}); the legacy workers= "
            "path would silently drop them"
        )
    if effective_workers is not None and effective_workers > 1:
        return ProcessExecutor(workers=effective_workers)
    return SerialExecutor()
