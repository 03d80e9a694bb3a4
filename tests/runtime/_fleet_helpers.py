"""Task callables for the queue crash/recovery tests.

These live in their own importable module (not the test file) because the
queue protocol ships callables to worker subprocesses by pickle, i.e. *by
import path* — the workers are launched with this directory on their
``PYTHONPATH`` so the pickles resolve.

They simulate the fleet failure modes the reaper must recover from:
workers SIGKILLed mid-task, tasks that poison every worker that touches
them, and slow-but-healthy tasks whose heartbeats must keep their lease
alive past its nominal length.
"""

from __future__ import annotations

import os
import signal
import time


def double(x):
    return 2 * x


def slow_double(arg):
    """``(x, delay_s)`` -> ``2 * x`` after sleeping — a long task."""
    x, delay_s = arg
    time.sleep(delay_s)
    return 2 * x


def die_once_then_double(arg):
    """SIGKILL the hosting worker on the first attempt, succeed after.

    ``arg`` is ``(x, marker_path)``.  The marker file records that the
    fatal first attempt happened, so the re-queued execution (on any
    worker) completes normally — the deterministic "worker crashed
    mid-task, fleet recovered" scenario.
    """
    x, marker_path = arg
    if not os.path.exists(marker_path):
        with open(marker_path, "w", encoding="utf-8") as handle:
            handle.write("first attempt\n")
        os.kill(os.getpid(), signal.SIGKILL)
    return 2 * x


def always_kill_worker(arg):
    """A poison pill: SIGKILL whichever worker claims it, every time."""
    marker_path = arg
    with open(marker_path, "a", encoding="utf-8") as handle:
        handle.write("attempt\n")
    os.kill(os.getpid(), signal.SIGKILL)


def record_and_slow_double(arg):
    """``(x, delay_s, marker_path)`` -> ``2 * x``, logging each execution.

    The marker file gains one line per execution, so a test can prove a
    task ran exactly once even while reapers probed its (heartbeat-kept)
    lease for the whole duration.
    """
    x, delay_s, marker_path = arg
    with open(marker_path, "a", encoding="utf-8") as handle:
        handle.write("execution\n")
    time.sleep(delay_s)
    return 2 * x


def slow_evaluate_point(spec):
    """A sweep grid point slowed enough to SIGKILL a worker mid-task.

    Returns exactly ``evaluate_point(spec)`` — the slowdown changes the
    timeline, never the record, so recovered runs stay byte-identical to
    the serial oracle.
    """
    from repro.eval.sweep import evaluate_point

    time.sleep(0.3)
    return evaluate_point(spec)
