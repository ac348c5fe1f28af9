"""One workload in its own process; started by run.py.

Prints one JSON line: the time its set-up took since it was spawned, and,
unless --setup-only, the operations it attempted and their metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def parse(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--spawned-at", type=float, required=True,
                   help="time.monotonic() of the parent just before the spawn")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spans-out", default=None)
    return p.parse_args(argv)


class Run:
    """Operations of one run and their outcomes."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = self.failed = 0
        self.correct = True
        self.times: list[float] = []
        self.ratios: list[float] = []
        self.infos: list[dict] = []

    def attempt(self, inp, tracer=None):
        """Time one operation (traced if a tracer is given) and check it.
        Returns its wall time, or None if it raised or failed a check."""
        self.attempted += 1
        try:
            if tracer is None:
                t0 = time.perf_counter()
                out = self.workload.run(inp)
                seconds = time.perf_counter() - t0
            else:
                with tracer:
                    t0 = time.perf_counter()
                    out = self.workload.run(inp)
                    seconds = time.perf_counter() - t0
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        try:
            outcome = self.workload.check(inp, out)
        except Exception:
            traceback.print_exc()
            outcome = None
        if outcome is None or not outcome.ok:
            print(f"check failed: {outcome}", file=sys.stderr)
            self.failed += 1
            self.correct = False
            return None
        self.times.append(seconds)
        self.ratios.append(outcome.residual_ratio)
        self.infos.append(outcome.info)
        return seconds


def main(argv=None) -> int:
    args = parse(argv)
    workdir = os.path.join(HERE, "out", f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        inp = workload.inputs(0)
        setup_s = time.monotonic() - args.spawned_at
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        result = measure(workload, inp, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["setup_s"] = setup_s
    print(json.dumps(result))
    return 0


def measure(workload, inp, args) -> dict:
    """Run whole operations until --seconds have passed (at least one)."""
    run = Run(workload)
    tracer = tracing.Tracer() if args.trace else None
    per_op: list[dict] = []
    deadline = time.perf_counter() + args.seconds
    op = 0
    while True:
        if op:
            inp = workload.inputs(op)
        if tracer is None:
            run.attempt(inp)
        else:
            # The same inputs untraced, then traced: the difference is the
            # tracing overhead.
            plain = run.attempt(inp)
            tracer.op = op
            traced = run.attempt(inp, tracer)
            if plain is not None and traced is not None:
                metrics = tracing.layer_metrics(
                    [s for s in tracer.spans if s.op == op])
                metrics["cli.trace_bytes"] = run.infos[-1].get("trace_bytes", 0)
                metrics["trace.overhead_s"] = traced - plain
                per_op.append(metrics)
        op += 1
        if time.perf_counter() >= deadline:
            break
    result = {"correct": run.correct, "attempted": run.attempted,
              "failed": run.failed, "ops": run.infos, "op_seconds": run.times}
    if not run.times:
        return result
    if tracer is None:
        result["metrics"] = {
            "pipeline_s": {"value": statistics.median(run.times), "unit": "s"},
            "residual_ratio": {"value": statistics.median(run.ratios),
                               "unit": "ratio"},
            "peak_rss_mb": {"value": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        }
    elif per_op:
        result["metrics"] = {
            name: {"value": statistics.median(m[name] for m in per_op), "unit": unit}
            for name, unit in tracing.PER_LAYER}
        if args.spans_out:
            with open(args.spans_out, "w") as fh:
                json.dump({"spans": [vars(s) for s in tracer.spans],
                           "per_op": per_op}, fh)
    return result


if __name__ == "__main__":
    sys.exit(main())
