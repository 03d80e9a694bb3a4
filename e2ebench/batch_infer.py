"""``batch-infer``: one closed-loop caller scoring CIFAR-shaped sets on CNN-M.

Offline scoring and accuracy sweeps are throughput users: each call waits
for the previous one.  CNN-M keeps the conv kernels on the hot path;
CNN-L is left out because one 256-image call takes seconds here, which
leaves too few calls per run.  Two phases interleave call by call:

* ``clean``: one engine chunk per call;
* ``noisy``: the same sets through an engine with seeded per-popcount
  flip noise at an oPCM read-noise level.

A third phase, several chunks per call so that the ``pipeline="auto"``
verdict runs, is left out: the verdict sits on its threshold and flips
between runs, and a pipelined run grows the process by ~190 MB (each
call's stage threads get fresh malloc arenas), which made ``peak_rss_mb``
bimodal.  See README.md.

A round is one ``clean`` and one ``noisy`` call on the same set.
``work_per_s`` is images per second of host time over both phases and
the whole run; ``latency_ms`` is the mean time of one ``clean`` call (the
mean, because the host's fast and slow spells make call times bimodal and
a median jumps between the two modes).  Sets are small, so a run has
hundreds of rounds.
"""

from __future__ import annotations

import hashlib
import statistics
import time
from typing import Dict, List, Tuple

import numpy as np

from workload import Workload

PHASES = ("clean", "noisy")
#: seeded image sets, scored in turn, and the images in each (one chunk)
SETS = 4
SET_SIZE = 32
#: oPCM read-noise level of the ``noisy`` phase
READ_NOISE_SIGMA = 0.01


def _digest(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def make_sets(seed: int, count: int, size: int) -> List[np.ndarray]:
    """``count`` seeded CIFAR-shaped image sets of ``size`` images."""
    from repro.bnn.datasets import synthetic_cifar10

    images = synthetic_cifar10(train_size=0, test_size=count * size,
                               seed=seed).test_images
    return [images[k * size:(k + 1) * size] for k in range(count)]


class BatchInfer(Workload):
    name = "batch-infer"

    def build(self) -> None:
        from repro.bnn import InferenceEngine, build_network
        from repro.eval import popcount_flip_rate_fn

        self.sets = make_sets(self.seed, SETS, SET_SIZE)
        self.model = build_network("CNN-M")
        self.autotune()
        self.clean = InferenceEngine(self.model)
        flips = popcount_flip_rate_fn(
            read_noise_sigma=READ_NOISE_SIGMA, technology="opcm")
        self.noisy = InferenceEngine(self.model, flip_rate=flips, seed=1)
        self.calls = 0
        self.seconds = {m: {p: 0.0 for p in PHASES} for m in self.MODES}
        self.images = {m: {p: 0 for p in PHASES} for m in self.MODES}
        self.digests: Dict[str, List[str]] = {}
        self.call_ms: Dict[str, List[float]] = {p: [] for p in PHASES}
        for phase in PHASES:   # warm
            self._call(phase, 0, record=False)

    def _call(self, phase: str, index: int, *, record: bool = True) -> None:
        x = self.sets[index % len(self.sets)]
        engine = self.clean if phase == "clean" else self.noisy
        start = time.perf_counter()
        logits = engine.forward_batch(x)
        elapsed = time.perf_counter() - start
        if not record:
            return
        key = f"{phase}/{index % len(self.sets)}"
        self.digests.setdefault(key, []).append(_digest(logits))
        self.seconds[self.mode][phase] += elapsed
        self.images[self.mode][phase] += x.shape[0]
        if self.mode == "plain":
            self.call_ms[phase].append(elapsed * 1e3)
        self.attempted += 1

    def round(self) -> None:
        for phase in PHASES:
            self._call(phase, self.calls)
        self.calls += 1

    # ------------------------------------------------------------------ #
    def check(self) -> int:
        """Failed calls: clean logits unlike ``model.forward`` on the same
        set, or a noisy set whose digest changed on repeat."""
        failed = 0
        for key, seen in self.digests.items():
            phase, _, index = key.partition("/")
            if phase == "clean":
                want = _digest(self.model.forward(self.sets[int(index)]))
            else:
                want = seen[0]
            failed += sum(1 for got in seen if got != want)
        return failed

    def metrics(self) -> Dict[str, Tuple[float, str]]:
        return {"work_per_s": (self.work_rate("plain"), "1/s"),
                "latency_ms": (statistics.fmean(self.call_ms["clean"]), "ms")}

    def work_rate(self, mode: str) -> float:
        """Images per second over the whole run."""
        return (sum(self.images[mode].values())
                / sum(self.seconds[mode].values()))

    def notes(self) -> Dict[str, object]:
        return {"calls_per_phase": self.calls,
                "work_per_s": {p: self.images["plain"][p]
                               / self.seconds["plain"][p] for p in PHASES},
                "call_ms": {p: [round(v, 2) for v in ms]
                            for p, ms in self.call_ms.items()},
                "flip_rates": self.noisy.noise_flip_rates}
