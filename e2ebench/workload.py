"""The shape every workload shares: set up once, run rounds, check, report.

A round runs every phase of the workload once, so phases interleave in
short slices and a slow spell of the shared host lands on all of them.
``mode`` is ``"plain"`` or ``"traced"``; the worker flips it between
rounds of a traced run and each workload keeps its tallies per mode.
"""

from __future__ import annotations

import time
from typing import Dict, Tuple


class Workload:
    name = ""
    MODES = ("plain", "traced")

    def __init__(self, seed: int, workdir: str, config: Dict[str, object]
                 ) -> None:
        self.seed = int(seed)
        self.workdir = workdir
        self.config = config
        self.mode = "plain"
        self.attempted = 0
        self.autotune_s = 0.0
        self.build()

    @staticmethod
    def pipeline_verdicts() -> Dict[str, object]:
        """Every streaming-pipeline verdict this process recorded.

        Each process has a fresh autotune cache, so its ``pipeline``
        section holds exactly the verdicts measured here, with their
        probe speedups.
        """
        import json
        import os

        from repro.bnn import autotune

        path = autotune.cache_path()
        if path is None or not os.path.exists(path):
            return {}
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle).get("pipeline", {})

    def autotune(self) -> None:
        """Resolve the kernel autotune parameters (measured: fresh cache)."""
        from repro.bnn import autotune

        start = time.perf_counter()
        self.params = autotune.get_params()
        self.autotune_s = time.perf_counter() - start

    # the workloads override these
    def build(self) -> None:
        raise NotImplementedError

    def round(self) -> None:
        raise NotImplementedError

    def check(self) -> int:
        """Run the output checks; returns the number of failed operations."""
        raise NotImplementedError

    def metrics(self) -> Dict[str, Tuple[float, str]]:
        """End-to-end metrics of the untraced rounds: name -> (value, unit)."""
        raise NotImplementedError

    def work_rate(self, mode: str) -> float:
        """Work per second in ``mode`` (the tracing-overhead numerator)."""
        raise NotImplementedError

    def public_counters(self) -> Dict[str, float]:
        """Cumulative counters read through the program's public calls."""
        return {}

    def notes(self) -> Dict[str, object]:
        return {}

    def close(self) -> None:
        pass
