"""End-to-end benchmark of the photonic-BNN reproduction.

Usage (from the root of a checkout)::

    python3 e2ebench/run.py --workload serve-open --seed 1 --seconds 20 --trace 0

Workloads: ``serve-open`` (open-loop serving), ``batch-infer`` (closed-loop
batch scoring) and ``design-sweep`` (design-space exploration); see
``e2ebench/README.md``.  The program runs from ``src/`` in fresh
processes started here with ``REPRO_*`` toggles cleared, a private
autotune cache and a private temp dir, all inside the checkout.

``--trace 0`` prints every end-to-end metric, ``--trace 1`` every
per-layer metric.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
are the run stamp (host facts and every timing-dependent decision the
program made in set-up) and the workload's notes.
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

WORKLOADS = ("serve-open", "batch-infer", "design-sweep")

#: a run must end within 180 s; leave room to kill and report
RUN_DEADLINE_S = 170.0

#: fresh-process set-ups per untraced run; ``setup_s`` is their median
SETUP_REPEATS = 5


class ChildFailed(RuntimeError):
    pass


def _run_child(cmd, env, deadline: float):
    """Start one worker; return (seconds to READY, RESULT payload or None)."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)
    lines: "queue.Queue[str | None]" = queue.Queue()

    def pump() -> None:
        for line in proc.stdout:
            lines.put(line)
        lines.put(None)

    reader = threading.Thread(target=pump, daemon=True)
    reader.start()
    ready = None
    result = None
    try:
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ChildFailed(f"{cmd[2:4]} overran the run deadline")
            try:
                line = lines.get(timeout=remaining)
            except queue.Empty:
                continue
            if line is None:
                break
            if line.startswith("READY") and ready is None:
                ready = time.perf_counter() - start
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
            else:
                sys.stdout.write(line)
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        reader.join(timeout=5)
    if code != 0 or ready is None:
        raise ChildFailed(f"worker exited with code {code}")
    return ready, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "bnn", "__init__.py")):
        print("e2ebench: no program under src/repro; run from a full checkout",
              file=sys.stderr)
        return 2
    # set-up time is an end-to-end metric, not a layer one
    repeats = 1 if args.trace else SETUP_REPEATS

    work = os.path.join(ROOT, ".e2ebench-run", f"{args.workload}-{os.getpid()}")
    out_dir = os.path.join(ROOT, ".e2ebench-out")
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    # string hashing salts dict layouts per process; fix it so two runs
    # of the same code differ only by the host
    env["PYTHONHASHSEED"] = "0"
    setups = []
    result = None
    try:
        for index in range(repeats):
            child_dir = os.path.join(work, f"p{index}")
            tmp = os.path.join(child_dir, "tmp")
            os.makedirs(tmp)
            child_env = dict(env, TMPDIR=tmp,
                             REPRO_AUTOTUNE_CACHE=os.path.join(child_dir, "autotune"))
            cmd = [sys.executable, os.path.join(HERE, "worker.py"),
                   "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--workdir", os.path.join(child_dir, "work")]
            if index < repeats - 1:
                cmd.append("--setup-only")
            elif args.trace:
                os.makedirs(out_dir, exist_ok=True)
                cmd += ["--spans-out", os.path.join(
                    out_dir, f"{args.workload}-seed{args.seed}.spans.jsonl")]
            ready, payload = _run_child(cmd, child_env, deadline)
            setups.append(ready)
            if payload is not None:
                result = payload
    except ChildFailed as exc:
        print(f"e2ebench: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass
    if result is None:
        print("e2ebench: the measuring worker printed no result", file=sys.stderr)
        return 3

    print("stamp: " + json.dumps(result["stamp"], sort_keys=True))
    print("notes: " + json.dumps(result["notes"], sort_keys=True))
    attempted = int(result["attempted"])
    failed = int(result["failed"])
    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in result["layers"].items()}
    else:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in result["metrics"].items()}
        metrics["setup_s"] = {"value": statistics.median(setups),
                              "unit": "s"}
        metrics["peak_rss_mb"] = {"value": result["peak_rss_mb"], "unit": "MB"}
        metrics["success_ratio"] = {
            "value": (attempted - failed) / attempted if attempted else 0.0,
            "unit": "ratio"}
    # every workload prints exactly the manifest's metrics, in its units
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        manifest = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in manifest}
    got = {name: m["unit"] for name, m in metrics.items()}
    if got != want:
        print(f"e2ebench: {args.workload} measured {sorted(got.items())}, "
              f"BENCHMARK.json lists {sorted(want.items())}", file=sys.stderr)
        return 3
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
