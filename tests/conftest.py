"""Shared pytest fixtures for the reproduction test suite.

Besides the data fixtures, two autouse guards keep the suite hang-proof:

* **fork guard** — an ``os.register_at_fork`` hook records every fork made
  while another :mod:`threading` thread is alive (the classic deadlock:
  the child inherits locks, e.g. BLAS or malloc, held by a thread that
  does not exist in the child), and the test during which it happened
  fails;
* **hang guard** — each test runs under
  ``faulthandler.dump_traceback_later``, so a test that blocks for
  :data:`HANG_TIMEOUT_S` ends the run with a stack dump of every thread
  instead of stalling it.
"""

from __future__ import annotations

import faulthandler
import os
import sys
import threading
from typing import List

import numpy as np
import pytest

from repro.bnn.datasets import synthetic_cifar10, synthetic_mnist

#: per-test wall-clock bound before the hang guard dumps and exits
#: (the slowest tier-1 test takes a few seconds)
HANG_TIMEOUT_S = 120.0

#: one entry per fork made while other threads were alive: their names
_FORKS_WITH_LIVE_THREADS: List[List[str]] = []


def _record_fork_with_live_threads() -> None:
    current = threading.current_thread()
    others = [thread.name for thread in threading.enumerate()
              if thread is not current]
    if others:
        _FORKS_WITH_LIVE_THREADS.append(others)


os.register_at_fork(before=_record_fork_with_live_threads)


def _dump_file(config: pytest.Config):
    """The terminal's stderr, not the per-test capture file.

    pytest's faulthandler plugin keeps a duplicate of the real stderr
    descriptor; a dump into the capture file would vanish with the
    process on ``exit=True``.
    """
    plugin = config.pluginmanager.getplugin("faulthandler")
    key = getattr(plugin, "fault_handler_stderr_fd_key", None)
    if key is not None and key in config.stash:
        return config.stash[key]
    return sys.stderr


@pytest.fixture(autouse=True)
def _fork_and_hang_guards(request):
    faulthandler.dump_traceback_later(HANG_TIMEOUT_S, exit=True,
                                      file=_dump_file(request.config))
    seen = len(_FORKS_WITH_LIVE_THREADS)
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()
    forks = _FORKS_WITH_LIVE_THREADS[seen:]
    if forks:
        pytest.fail(
            f"forked {len(forks)} time(s) while other threads were alive "
            f"(fork-safety deadlock risk): {forks}",
            pytrace=False,
        )


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    """Session-wide deterministic random generator."""
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def small_mnist():
    """A small synthetic MNIST split shared across tests (cheap to build)."""
    return synthetic_mnist(train_size=256, test_size=128, seed=3)


@pytest.fixture(scope="session")
def small_cifar():
    """A small synthetic CIFAR-10 split shared across tests."""
    return synthetic_cifar10(train_size=128, test_size=64, seed=5)
