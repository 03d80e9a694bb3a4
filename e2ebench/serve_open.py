"""``serve-open``: seeded Poisson arrivals against one MLP-L service.

Independent online users arrive whether or not earlier requests are done,
so this is an open loop: a single generator thread submits each request
at its due time and latency runs from that due time, which charges a
stall to every request it delays.  The three rates are absolute numbers
fixed in ``config.json`` (about 8/25/50% of the saturated capacity this
workload measures; see README.md for why not higher); they are never
derived at run time, so a capacity gain shows as lower latency instead of
moving the goalposts.

Each open-loop phase runs in slices of exactly :data:`REQUESTS_PER_SLICE`
arrivals, so every slice's own p99 has ten samples beyond it.
``latency_ms`` is the median of the open-loop slices' p50s: one stall of
the shared host then moves one slice, not the run.  Per rate p50 and p99
are in the notes.

Every round also runs a ``saturated`` phase: a closed loop keeps
:data:`WINDOW` requests in flight (every flush full) until
:data:`SATURATED_REQUESTS` have been served.  Its completion rate over
the whole run is ``work_per_s``, the service's capacity, which can rise
above every open-loop rate.

MLP-L has no conv layers and 32-row flushes fall under the streaming
pipeline's 64-row ``auto`` minimum, so this workload bypasses both.
"""

from __future__ import annotations

import gc
import statistics
import threading
import time
from typing import Dict, List, Tuple

import numpy as np

from common import tail_percentile
from workload import Workload

#: arrivals per slice: a slice's p99 has ten samples beyond it
REQUESTS_PER_SLICE = 1000
#: requests kept in flight in the ``saturated`` phase: eight full flushes
WINDOW = 256
#: requests the ``saturated`` phase serves per round
SATURATED_REQUESTS = 6144
#: distinct request images, drawn from the seed
IMAGE_POOL = 256
#: the service's request queue: 1 s at the high rate, so a host stall
#: delays requests instead of refusing them
QUEUE_CAPACITY = 2048


def build_service():
    """One MLP-L ``InferenceService`` at its default flush policy."""
    from repro.bnn import InferenceEngine, build_network
    from repro.serving import InferenceService

    engine = InferenceEngine(build_network("MLP-L"))
    return engine, InferenceService(engine, queue_capacity=QUEUE_CAPACITY)


def make_images(seed: int, pool: int) -> np.ndarray:
    """The seeded MNIST-shaped request images, one flattened row each."""
    from repro.bnn.datasets import synthetic_mnist

    data = synthetic_mnist(train_size=0, test_size=pool, seed=seed)
    return data.test_images.reshape(pool, -1)


class ServeOpen(Workload):
    name = "serve-open"

    def build(self) -> None:
        self.rates: Dict[str, float] = dict(
            self.config["serve-open"]["rates_per_s"])
        self.phases = list(self.rates)
        self.images = make_images(self.seed, IMAGE_POOL)
        self.autotune()
        self.engine, self.service = build_service()
        # warm: every flush size the run will see, deadline and size flushes
        for burst in (1, 7, 32, 64, 5):
            futures = [self.service.submit(self.images[i % IMAGE_POOL])
                       for i in range(burst)]
            for future in futures:
                future.result(timeout=30)
        self.rng = np.random.default_rng(self.seed)
        self.slices = {m: {p: [] for p in self.phases} for m in self.MODES}
        # (requests served, seconds) of every saturated phase, per mode
        self.saturated = {m: [] for m in self.MODES}
        self.lateness_ms = 0.0
        self.served: List[np.ndarray] = []   # (image index, arg-max) rows
        self.rejected = 0
        # full collections pause every thread of the served process; count
        # them so a slow slice can be told apart from a slow host
        self.gen2_pauses_ms: List[float] = []
        self._gc_started = 0.0
        gc.callbacks.append(self._on_gc)

    def _on_gc(self, phase: str, info: Dict[str, int]) -> None:
        if info["generation"] != 2:
            return
        if phase == "start":
            self._gc_started = time.perf_counter()
        else:
            self.gen2_pauses_ms.append(
                (time.perf_counter() - self._gc_started) * 1e3)

    def close(self) -> None:
        gc.callbacks.remove(self._on_gc)
        self.service.close()

    def _slice(self, phase: str) -> None:
        from repro.serving import RejectedError

        rate = self.rates[phase]
        due = np.cumsum(self.rng.exponential(1.0 / rate, REQUESTS_PER_SLICE))
        picks = self.rng.integers(0, self.images.shape[0], size=due.size)
        done = np.full(due.size, np.nan)
        served = np.full(due.size, -1, dtype=np.int64)
        clock = time.perf_counter

        def finished(future, i: int) -> None:
            stamp = clock() - origin
            if future.exception() is None:
                served[i] = int(np.argmax(future.result()))
            done[i] = stamp   # last: the waiter below reads served after it

        # futures are not kept: the harness should add as little garbage
        # (and garbage-collector work) to the served process as it can
        submit = self.service.submit
        admitted = np.zeros(due.size, dtype=bool)
        origin = clock()
        late = 0.0
        for i in range(due.size):
            wait = due[i] - (clock() - origin)
            if wait > 0:
                time.sleep(wait)
            else:
                late = max(late, -wait)
            try:
                future = submit(self.images[picks[i]])
            except RejectedError:
                self.rejected += 1
                done[i] = np.inf   # a refusal misses every latency limit
                continue
            admitted[i] = True
            future.add_done_callback(lambda f, i=i: finished(f, i))
        outstanding = int(np.count_nonzero(np.isnan(done[admitted])))
        give_up = clock() + 60.0
        while np.isnan(done[admitted]).any():
            if clock() > give_up:
                raise RuntimeError(f"{phase}: requests still pending after 60 s")
            time.sleep(0.001)
        self.attempted += due.size
        self.lateness_ms = max(self.lateness_ms, late * 1e3)
        self.slices[self.mode][phase].append({
            "latencies": ((done - due) * 1e3).tolist(),
            "backlog": outstanding,
        })
        self.served.append(np.stack([picks[admitted], served[admitted]], axis=1))

    def _saturated(self) -> None:
        """Serve :data:`SATURATED_REQUESTS` with :data:`WINDOW` in flight."""
        count = SATURATED_REQUESTS
        picks = self.rng.integers(0, self.images.shape[0], size=count)
        served = np.full(count, -1, dtype=np.int64)
        slots = threading.Semaphore(WINDOW)

        def finished(future, i: int) -> None:
            if future.exception() is None:
                served[i] = int(np.argmax(future.result()))
            slots.release()

        submit = self.service.submit
        start = time.perf_counter()
        for i in range(count):
            slots.acquire()
            submit(self.images[picks[i]]).add_done_callback(
                lambda f, i=i: finished(f, i))
        for _ in range(WINDOW):   # wait for what is still in flight
            if not slots.acquire(timeout=60.0):
                raise RuntimeError("saturated: requests pending after 60 s")
        elapsed = time.perf_counter() - start
        self.attempted += count
        self.saturated[self.mode].append((count, elapsed))
        self.served.append(np.stack([picks, served], axis=1))

    def round(self) -> None:
        for phase in self.phases:
            self._slice(phase)
        self._saturated()

    # ------------------------------------------------------------------ #
    def check(self) -> int:
        """Failed requests: refused, or an arg-max unlike a direct call."""
        expected = np.array([
            int(np.argmax(self.engine.forward_batch(self.images[i:i + 1])))
            for i in range(self.images.shape[0])])
        served = np.concatenate(self.served) if self.served else \
            np.zeros((0, 2), dtype=np.int64)
        self.wrong = int(np.count_nonzero(expected[served[:, 0]] != served[:, 1]))
        return self.rejected + self.wrong

    def _percentile(self, slices, q: float) -> float:
        value = statistics.median([tail_percentile(s["latencies"], q)
                                   for s in slices])
        if not np.isfinite(value):
            raise RuntimeError(f"over {100 - q:g}% of the requests of most "
                               f"slices were refused")
        return value

    def metrics(self) -> Dict[str, Tuple[float, str]]:
        slices = [s for phase in self.phases for s in self.slices["plain"][phase]]
        return {"work_per_s": (self.work_rate("plain"), "1/s"),
                "latency_ms": (self._percentile(slices, 50.0), "ms")}

    def work_rate(self, mode: str) -> float:
        """Requests per second of the saturated phases, over the run."""
        runs = self.saturated[mode]
        return sum(n for n, _ in runs) / sum(t for _, t in runs)

    def public_counters(self) -> Dict[str, float]:
        stats = self.service.stats()
        return {"rejected": stats["requests"]["rejected_total"],
                "completed": stats["requests"]["completed"],
                "batches": stats["batches"]["count"],
                "deadline_flushes":
                    stats["batches"]["flush_triggers"].get("deadline", 0)}

    def notes(self) -> Dict[str, object]:
        plain = self.slices["plain"]
        return {
            "rates_per_s": self.rates,
            "p50_ms": {p: self._percentile(plain[p], 50.0) for p in self.phases},
            "p99_ms": {p: self._percentile(plain[p], 99.0) for p in self.phases},
            "slices": {p: len(plain[p]) for p in self.phases},
            "slice_p99_ms": {p: [round(tail_percentile(s["latencies"], 99.0), 2)
                                 for s in plain[p]] for p in self.phases},
            "backlog_at_slice_end": {p: [s["backlog"] for s in plain[p]]
                                     for p in self.phases},
            "saturated_per_s": [round(n / t, 1)
                                for n, t in self.saturated["plain"]],
            "generator_max_late_ms": self.lateness_ms,
            "gen2_collections_ms": [round(v, 1) for v in self.gen2_pauses_ms],
            "rejected": self.rejected,
            "wrong_argmax": getattr(self, "wrong", None),
        }
