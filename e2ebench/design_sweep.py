"""``design-sweep``: the paper's own use, design-space exploration.

The serial backend in one process.  Every round starts with cleared model
and schedule caches and runs four phases, so the simulator, the
functional noise model and the persistence path each get a phase, with
writes beside reads:

* ``analytic``: ``run_sweep`` over 6 networks x 3 designs x crossbar
  sizes x WDM capacities, no noise axis (``core.schedule`` and ``arch``);
* ``noisy``: ``run_sweep`` of a small grid with a read-noise sigma
  (``eval.robustness``, about 9 ms a point);
* ``store-write``: ``run_sharded_sweep`` of the store grid into a fresh
  root on the default directory store, then the grid extended by one WDM
  capacity, so only the new points run (``runtime.queue``/``store``,
  ``eval.columnar``);
* ``store-read``: the extended grid submitted again, which recomputes
  nothing.

The grids are in ``config.json``.  The noisy and store grids are small, so
a round is short, its phases take comparable time and a run has a hundred
rounds or more.  ``work_per_s`` is design points per second of host time
over all four phases and the whole run; ``latency_ms`` is the mean time of
one cold ``analytic`` sweep, the wait for a 144-point answer (the mean, as
in ``batch_infer.py``).

The seed permutes network order: task order and partition membership
change, no simulated value does, so the pinned digests hold for any seed.
"""

from __future__ import annotations

import os
import shutil
import statistics
import time
from typing import Dict, List, Tuple

import numpy as np

from common import records_digest
from workload import Workload

PHASES = ("analytic", "noisy", "store-write", "store-read")
#: the grid whose records each phase returns
GRID_OF = {"analytic": "analytic", "noisy": "noisy",
           "store-write": "extended", "store-read": "extended"}


def _digest(records) -> str:
    return records_digest(record.to_dict() for record in records)


def make_grids(seed: int, cfg: Dict[str, object]) -> Dict[str, object]:
    """The analytic, noisy, store and extended grids; the seed orders
    networks."""
    from repro.bnn import list_networks
    from repro.eval import SweepGrid

    order = tuple(str(n) for n in
                  np.random.default_rng(seed).permutation(list_networks()))

    def grid(name: str, **extra) -> object:
        axes = {key: tuple(value) for key, value in cfg[name].items()
                if key != "extra_wdm_capacity"}
        axes.update(extra)
        return SweepGrid(networks=order, **axes)

    store = cfg["store"]
    return {"analytic": grid("analytic"),
            "noisy": grid("noisy"),
            "store": grid("store"),
            "extended": grid("store", wdm_capacities=tuple(
                store["wdm_capacities"]) + (int(store["extra_wdm_capacity"]),))}


def records_of(grid) -> str:
    """Digest of a serial in-memory ``run_sweep`` of ``grid``."""
    from repro.eval import run_sweep

    return _digest(run_sweep(grid, backend="serial").records)


class DesignSweep(Workload):
    name = "design-sweep"

    def build(self) -> None:
        cfg = self.config["design-sweep"]
        self.grids = make_grids(self.seed, cfg)
        self.pins: Dict[str, str] = dict(cfg["pinned_digests"])
        self.points = {name: len(grid.points())
                       for name, grid in self.grids.items()}
        self.round_points = sum(self.points[GRID_OF[p]] for p in PHASES)
        self.rounds = 0
        self.seconds = {m: {p: 0.0 for p in PHASES} for m in self.MODES}
        self.done = {m: {p: 0 for p in PHASES} for m in self.MODES}
        self.digests: Dict[str, List[str]] = {p: [] for p in PHASES}
        self.recomputed = 0
        self.phase_ms: Dict[str, List[float]] = {p: [] for p in PHASES}
        self.schedule = {"hits": 0, "misses": 0}
        self.autotune()
        self._warm()

    def _warm(self) -> None:
        """One call down each path the phases take, on one design point per
        network: imports, per-network workload extraction, the noise model
        and the sharded store's write and read.  Nothing is repeated."""
        from repro.eval import SweepGrid, run_sweep
        from repro.eval.shard import run_sharded_sweep

        analytic = self.grids["analytic"]
        small = SweepGrid(networks=analytic.networks,
                          crossbar_sizes=analytic.crossbar_sizes[:1],
                          wdm_capacities=analytic.wdm_capacities[:1])
        run_sweep(small, backend="serial")
        noisy = self.grids["noisy"]
        run_sweep(SweepGrid(networks=noisy.networks[:1],
                            designs=noisy.designs,
                            crossbar_sizes=noisy.crossbar_sizes,
                            wdm_capacities=noisy.wdm_capacities,
                            noise_sigmas=noisy.noise_sigmas),
                  backend="serial")
        root = os.path.join(self.workdir, "warm")
        run_sharded_sweep(small, root)
        run_sharded_sweep(small, root)
        shutil.rmtree(root)

    def round(self) -> None:
        from repro.core.schedule import clear_schedule_cache, schedule_cache_stats
        from repro.eval import run_sweep
        from repro.eval.shard import columnar_store, run_sharded_sweep
        from repro.eval.sweep import clear_sweep_caches

        root = os.path.join(self.workdir, f"sweep-{self.rounds}")
        # flush the previous round's file writes first, so their writeback
        # does not land inside this round's timed phases
        os.sync()
        clear_sweep_caches()
        clear_schedule_cache()
        clock = time.perf_counter
        timings = {phase: 0.0 for phase in PHASES}
        seen: List[tuple] = []

        def timed(phase: str, fn, *args, **kwargs):
            start = clock()
            result = fn(*args, **kwargs)
            timings[phase] += clock() - start
            return result

        result = timed("analytic", run_sweep, self.grids["analytic"],
                       backend="serial")
        seen.append(("analytic", _digest(result.records)))
        stats = schedule_cache_stats()
        result = timed("noisy", run_sweep, self.grids["noisy"], backend="serial")
        seen.append(("noisy", _digest(result.records)))
        timed("store-write", run_sharded_sweep, self.grids["store"], root)
        result = timed("store-write", run_sharded_sweep,
                       self.grids["extended"], root)
        seen.append(("store-write", _digest(result.records)))
        segments = len(columnar_store(root).segments())
        result = timed("store-read", run_sharded_sweep,
                       self.grids["extended"], root)
        seen.append(("store-read", _digest(result.records)))
        recomputed = len(columnar_store(root).segments()) - segments
        shutil.rmtree(root)

        self.rounds += 1
        for phase in PHASES:
            self.seconds[self.mode][phase] += timings[phase]
            self.done[self.mode][phase] += self.points[GRID_OF[phase]]
        if self.mode == "plain":
            for phase in PHASES:
                self.phase_ms[phase].append(timings[phase] * 1e3)
        for phase, digest in seen:
            self.digests[phase].append(digest)
        self.recomputed += recomputed
        self.schedule["hits"] += stats["hits"]
        self.schedule["misses"] += stats["misses"]
        self.attempted += self.round_points

    # ------------------------------------------------------------------ #
    def check(self) -> int:
        """Failed points: a phase whose records differ from a serial
        ``run_sweep`` of its grid, or a grid whose digest is not the pinned
        one.  A store-read that wrote a segment recomputed a point."""
        from repro.core.schedule import clear_schedule_cache
        from repro.eval.sweep import clear_sweep_caches

        clear_sweep_caches()
        clear_schedule_cache()
        reference = {name: records_of(self.grids[name])
                     for name in set(GRID_OF.values())}
        self.reference = reference
        failed = 0
        for phase, seen in self.digests.items():
            grid = GRID_OF[phase]
            want = reference[grid]
            if want != self.pins.get(grid):
                want = None
            failed += self.points[grid] * sum(1 for got in seen if got != want)
        return failed + self.recomputed * self.points["extended"]

    def metrics(self) -> Dict[str, Tuple[float, str]]:
        return {"work_per_s": (self.work_rate("plain"), "1/s"),
                "latency_ms": (statistics.fmean(self.phase_ms["analytic"]),
                               "ms")}

    def work_rate(self, mode: str) -> float:
        """Design points per second over the whole run."""
        return sum(self.done[mode].values()) / sum(self.seconds[mode].values())

    def public_counters(self) -> Dict[str, float]:
        return {"schedule_hits": self.schedule["hits"],
                "schedule_misses": self.schedule["misses"],
                "recomputed": self.recomputed}

    def notes(self) -> Dict[str, object]:
        from repro.eval.experiments import headline_numbers

        headline = headline_numbers()
        paper = {"tacitmap_max": 154.0, "einsteinbarrier_max": 3113.0}
        return {
            "rounds": self.rounds,
            "points": self.points,
            "work_per_s": {p: self.done["plain"][p] / self.seconds["plain"][p]
                           for p in PHASES},
            "median_phase_ms": {p: statistics.median(v)
                                for p, v in self.phase_ms.items()},
            "reference_digests": getattr(self, "reference", None),
            "headline_vs_paper": {
                key: {"simulated": headline[key], "paper": value,
                      "relative_error": headline[key] / value - 1.0}
                for key, value in paper.items()},
        }
