"""Unified runtime executor layer: one pluggable parallel substrate.

Everything in the repository that fans independent work out — design-space
and accuracy sweep points (:mod:`repro.eval.sweep`), repeated benchmark
measurements (``benchmarks/``) — executes through this package:

* :mod:`repro.runtime.tasks` — the ordered work-list abstraction.
* :mod:`repro.runtime.executors` — pluggable backends (serial / thread /
  process) plus backend resolution (``backend=`` kwargs, ``workers=``
  backward compatibility, the ``REPRO_RUNTIME_BACKEND`` env toggle and
  per-backend ``options=``).
* :mod:`repro.runtime.queue` — the work-queue protocol, the seam for
  multi-host execution.  Claims are heartbeat-renewed leases whose
  records carry absolute deadlines, so a crashed worker's tasks are
  recovered automatically; ``python -m repro.runtime.queue <root>
  serve|status|autoscale|compact|reap`` is the fleet CLI (see
  ``docs/multihost-runbook.md``).
* :mod:`repro.runtime.store` — pluggable queue storage behind the
  :class:`~repro.runtime.store.QueueStore` interface: ``DirStore`` (the
  POSIX directory layout) and ``ObjectStore`` (S3-style conditional
  puts over :class:`~repro.runtime.store.LocalObjectStore`), selected
  per call (``store=``), per executor, or fleet-wide via
  ``REPRO_RUNTIME_STORE``.
* :mod:`repro.runtime.janitor` — fleet maintenance over that protocol:
  the orphan reaper, poisoned-task quarantine, the result compactor,
  machine-readable queue status and the autoscaling advisory
  (:func:`~repro.runtime.janitor.autoscale_advisory`).
* :mod:`repro.runtime.supervisor` — the daemon that *acts* on those
  advisories (``python -m repro.runtime.queue <root> supervise``):
  spawns/retires real worker subprocesses with cooldown + hysteresis,
  restarts crashes under jittered backoff, benches crash-loopers, and
  emits a JSON event stream.
* :mod:`repro.runtime.resilience` — the centralised retry / backoff /
  outage-classification policy (transient vs deterministic failures,
  decorrelated jitter, crash-loop budgets) adopted by the store,
  queue, supervisor and serving layers.
* :mod:`repro.runtime.faults` — seeded, schedule-driven fault
  injection (:class:`~repro.runtime.faults.FaultPlan`, the
  ``REPRO_RUNTIME_FAULTS`` fleet-wide toggle) behind the chaos soak
  and ``benchmarks/bench_chaos.py``.
* :mod:`repro.runtime.measure` — the repeated-measurement harness the
  benchmarks drive their timing loops through.

Every backend returns results in submission order and every task argument
is self-contained and seeded, so all call sites are bit-identical across
backends — the contract the runtime test suite enforces (including under
simulated worker crashes; see ``tests/runtime/test_queue_recovery.py``).
"""

from repro.runtime.executors import (
    BACKEND_ENV,
    BACKENDS,
    Executor,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    backend_from_env,
    make_executor,
    resolve_executor,
)
from repro.runtime.measure import (
    Measurement,
    measure,
    measure_pair,
    percentile,
    percentiles,
)
from repro.runtime.faults import FAULTS_ENV, FaultInjected, FaultPlan
from repro.runtime.queue import PART_PREFIX, QueueExecutor, partition_namespace
from repro.runtime.resilience import (
    BackoffPolicy,
    DETERMINISTIC,
    RestartBudget,
    TRANSIENT,
    classify_outage,
    decorrelated_jitter,
    retry_backoff,
    retry_call,
)
from repro.runtime.store import (
    STORE_ENV,
    STORES,
    DirStore,
    FaultInjectingStore,
    LocalObjectStore,
    ObjectStore,
    QueueStore,
    make_store,
    resolve_store,
    store_from_env,
)
from repro.runtime.supervisor import Supervisor
from repro.runtime.tasks import Task, WorkList, gather, run_serially

__all__ = [
    "BACKEND_ENV",
    "BACKENDS",
    "BackoffPolicy",
    "DETERMINISTIC",
    "DirStore",
    "Executor",
    "FAULTS_ENV",
    "FaultInjected",
    "FaultInjectingStore",
    "FaultPlan",
    "LocalObjectStore",
    "Measurement",
    "ObjectStore",
    "PART_PREFIX",
    "ProcessExecutor",
    "QueueExecutor",
    "QueueStore",
    "RestartBudget",
    "STORE_ENV",
    "STORES",
    "SerialExecutor",
    "Supervisor",
    "TRANSIENT",
    "Task",
    "ThreadExecutor",
    "WorkList",
    "backend_from_env",
    "classify_outage",
    "decorrelated_jitter",
    "gather",
    "make_executor",
    "make_store",
    "measure",
    "measure_pair",
    "partition_namespace",
    "percentile",
    "percentiles",
    "resolve_executor",
    "resolve_store",
    "retry_backoff",
    "retry_call",
    "run_serially",
    "store_from_env",
]
