"""Benchmark command: time to an accurate reconstruction with mrgap.

    python3 perfbench/run.py --workload torus --seed 1 --seconds 10 --trace 0

Runs from the root of a source checkout and builds nothing: the workload
imports mrgap from src/.  The workload runs in a child process (worker.py);
set-up is timed in that process and in SETUP_PROBES more that stop after
set-up, and the median is reported.  The last line of output is the result
as JSON; a copy is written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
# The keys of workloads.WORKLOADS, repeated so that this process imports
# neither NumPy nor mrgap.
WORKLOADS = ("torus", "spectra", "ellipsoid-dim")
SETUP_PROBES = 2
DEADLINE_S = 170.0


def parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def spawn(args, deadline, *extra) -> dict:
    """Run worker.py to its end and return its last output line as JSON."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spawned-at", repr(time.monotonic()), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    args = parse(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "mrgap", "__init__.py")):
        print(f"error: no mrgap sources under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        setups = [] if args.trace else [
            spawn(args, deadline, "--setup-only")["setup_s"]
            for _ in range(SETUP_PROBES)]
        spans = ["--spans-out", os.path.join(OUT, f"spans-{tag}.json")]
        result = spawn(args, deadline, *(spans if args.trace else []))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if "metrics" not in result:
        print("error: no operation completed", file=sys.stderr)
        return 1
    setups.append(result["setup_s"])
    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    summary = {key: result[key] for key in ("correct", "attempted", "failed")}
    summary["metrics"] = metrics
    with open(os.path.join(OUT, f"result-{tag}.json"), "w") as fh:
        json.dump({"summary": summary, "setups_s": setups, **result}, fh, indent=1)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
