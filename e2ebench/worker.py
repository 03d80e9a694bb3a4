"""One benchmark process: set up a workload, then measure it.

``run.py`` starts this several times per run.  Each process prints
``READY`` once its workload is built, compiled, autotuned and warm (the
parent times process start to that line as ``setup_s``); a
``--setup-only`` process exits there, the last one goes on to measure
for ``--seconds`` and prints ``RESULT <json>``.

With ``--trace 1`` rounds alternate between untraced and traced: the
span wrappers are installed for a traced round and removed after it, so
both halves see the same slow spells of the host and their work rates
give the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from common import peak_rss_mb, run_stamp  # noqa: E402


def _workload_class(name: str):
    if name == "serve-open":
        from serve_open import ServeOpen
        return ServeOpen
    if name == "batch-infer":
        from batch_infer import BatchInfer
        return BatchInfer
    if name == "design-sweep":
        from design_sweep import DesignSweep
        return DesignSweep
    raise SystemExit(f"unknown workload {name!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans-out", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    stamp = run_stamp()
    with open(os.path.join(HERE, "config.json"), "r", encoding="utf-8") as fh:
        config = json.load(fh)
    os.makedirs(args.workdir, exist_ok=True)
    workload = _workload_class(args.workload)(args.seed, args.workdir, config)
    print("READY", flush=True)
    if args.setup_only:
        workload.close()
        return 0

    tracer = public = None
    if args.trace:
        from tracing import Patcher, Tracer
        import layers

        tracer = Tracer()
        public = {}
    deadline = time.perf_counter() + args.seconds
    rounds = 0
    while True:
        traced = bool(args.trace) and rounds % 2 == 1
        if traced:
            before = workload.public_counters()
            workload.mode = "traced"
            with Patcher(tracer) as patcher:
                layers.install(patcher)
                workload.round()
            workload.mode = "plain"
            for key, value in workload.public_counters().items():
                public[key] = public.get(key, 0.0) + value - before.get(key, 0.0)
        else:
            workload.round()
        rounds += 1
        if time.perf_counter() >= deadline and rounds >= 1 + args.trace:
            break

    rss = peak_rss_mb()   # before the checks, which build their own references
    failed = workload.check()
    workload.close()
    params = workload.params
    stamp["autotune"] = {"dispatch_macs": params.dispatch_macs,
                         "conv_block_bytes": params.conv_block_bytes,
                         "source": params.source,
                         "measure_s": workload.autotune_s}
    stamp["pipeline_verdicts"] = workload.pipeline_verdicts()
    result = {"attempted": workload.attempted, "failed": failed,
              "peak_rss_mb": rss, "rounds": rounds,
              "stamp": stamp, "notes": workload.notes()}
    if args.trace:
        overhead = workload.work_rate("plain") / workload.work_rate("traced")
        result["layers"] = layers.metrics(tracer, public, workload, overhead)
        if args.spans_out:
            tracer.write(args.spans_out)
    else:
        result["metrics"] = workload.metrics()
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
