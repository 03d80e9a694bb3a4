"""Run workloads repeatedly over alternating seeds and report the spread.

Usage (from the root of a checkout)::

    python3 e2ebench/steadiness.py --runs 10 --seconds 30 [--workload design-sweep ...]

Runs are interleaved across workloads (run 1 of each, then run 2 of
each, ...) with seeds 1, 2, 3, ... so a slow spell of the host spreads
over all of them.  Per end-to-end metric it prints the median, the
quartiles (``statistics.quantiles(n=4)``), the interquartile range as a
share of the median, and the max/min ratio; ``BENCHMARK.json``'s bounds
are set from this output (``steadiness.txt`` beside this file).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from common import summarise  # noqa: E402
from run import WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--raw", help="also append every run's output lines, "
                        "as JSON, to this file")
    args = parser.parse_args(argv)
    workloads = args.workload or list(WORKLOADS)
    bounds = {}
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.exists(spec_path):
        with open(spec_path, "r", encoding="utf-8") as fh:
            bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}

    values: Dict[str, Dict[str, List[float]]] = {w: {} for w in workloads}
    for run in range(args.runs):
        seed = args.first_seed + run
        for workload in workloads:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=False)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n"
                      f"{proc.stderr[-2000:]}", file=sys.stderr)
                return 1
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            if args.raw:
                with open(args.raw, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps({"workload": workload, "seed": seed,
                                         "lines": lines}) + "\n")
            stamp = json.loads(next(l for l in lines
                                    if l.startswith("stamp: "))[len("stamp: "):])
            tune = stamp["autotune"]
            verdicts = {k: v["speedup"] for k, v in stamp["pipeline_verdicts"].items()}
            print(f"# {workload} seed {seed}: correct={result['correct']} "
                  f"conv_block_bytes={tune['conv_block_bytes']} "
                  f"dispatch_macs={tune['dispatch_macs']} "
                  f"pipeline_verdicts={verdicts} "
                  f"loadavg={stamp['loadavg_at_start'][0]:.2f}", flush=True)
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])

    print(f"\n{'workload':<13} {'metric':<22} {'median':>11} {'q1':>11} "
          f"{'q3':>11} {'iqr/med':>8} {'max/min':>8} {'bound/3':>8}")
    for workload in workloads:
        for name, series in values[workload].items():
            s = summarise(series)
            third = bounds.get(name)
            print(f"{workload:<13} {name:<22} {s['median']:>11.4f} "
                  f"{s['q1']:>11.4f} {s['q3']:>11.4f} {s['iqr_share']:>8.4f} "
                  f"{s['max_over_min']:>8.4f} "
                  f"{(third / 3 if third else float('nan')):>8.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
