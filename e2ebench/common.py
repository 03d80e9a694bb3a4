"""Helpers shared by the workloads: percentiles, digests, the run stamp.

Nothing here imports ``repro``; the workloads import the program, this
module only describes and checks what they measured.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import statistics
from typing import Dict, Iterable, List, Optional, Sequence

#: a percentile is named only when at least this many samples lie beyond it
MIN_BEYOND = 10

class TooFewSamples(ValueError):
    """Raised when a sample set cannot support the percentile asked for."""


def tail_percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (linear interpolation, NumPy's default rule).

    Refuses with :class:`TooFewSamples` unless at least :data:`MIN_BEYOND`
    samples lie beyond it: a p99 needs 1000 samples, a p50 needs 20.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q!r}")
    beyond = int(math.floor(len(samples) * (100.0 - q) / 100.0 + 1e-9))
    if beyond < MIN_BEYOND:
        raise TooFewSamples(
            f"p{q:g} of {len(samples)} samples has {beyond} beyond it; "
            f"at least {MIN_BEYOND} are needed")
    ordered = sorted(samples)
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    fraction = rank - low
    return float(ordered[low] * (1.0 - fraction) + ordered[high] * fraction)


def records_digest(rows: Iterable[Dict[str, object]]) -> str:
    """Order-independent digest of record dictionaries.

    Rows are serialised as canonical JSON (floats by ``repr``, which
    round-trips exactly) and sorted, so a permuted task order that leaves
    every simulated value alone keeps the digest.
    """
    lines = sorted(json.dumps(row, sort_keys=True) for row in rows)
    return hashlib.sha256("".join(line + "\n" for line in lines).encode()
                          ).hexdigest()


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MB (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _blas_threads() -> Optional[int]:
    """Thread count of the OpenBLAS NumPy loaded, when it can be asked."""
    try:
        with open("/proc/self/maps", "r", encoding="utf-8") as handle:
            paths = {line.split()[-1] for line in handle
                     if "openblas" in line.lower() and "/" in line}
    except OSError:
        return None
    names = ("openblas_get_num_threads", "openblas_get_num_threads64_",
             "scipy_openblas_get_num_threads64_",
             "scipy_openblas_get_num_threads")
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in names:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def run_stamp() -> Dict[str, object]:
    """Host facts that explain an outlier run (the program adds its own)."""
    import numpy as np

    blas: Dict[str, object] = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (KeyError, TypeError, ValueError):
        pass
    blas["threads"] = _blas_threads()
    blas["OPENBLAS_NUM_THREADS"] = os.environ.get("OPENBLAS_NUM_THREADS")
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "loadavg_at_start": list(os.getloadavg()),
    }


def summarise(values: List[float]) -> Dict[str, float]:
    """Median, quartiles and max/min ratio of repeated readings."""
    ordered = sorted(values)
    if len(ordered) >= 2:
        q1, q2, q3 = statistics.quantiles(ordered, n=4)
    else:
        q1 = q2 = q3 = ordered[0]
    spread = (q3 - q1) / q2 if q2 else float("nan")
    ratio = ordered[-1] / ordered[0] if ordered[0] else float("inf")
    return {"median": q2, "q1": q1, "q3": q3, "iqr_share": spread,
            "max_over_min": ratio, "n": len(ordered)}
