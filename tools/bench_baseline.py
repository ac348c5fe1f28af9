"""Record the benchmark's end-to-end baseline: one BENCH_<workload>.json per
workload, from perfbench/run.py over several seeds.

    python3 tools/bench_baseline.py          # every workload, seeds 1-5
    python3 tools/bench_baseline.py --workload torus --seeds 1,2,3,4,5

Runs from anywhere; it finds the checkout from its own path and runs
`python3 perfbench/run.py --workload W --seed S --seconds T --trace 0` once
per workload and seed, one after another.  Each file holds every
end-to-end metric per seed with its median, whether every run was correct
and how many operations failed, the versions of Python, NumPy, SciPy and
the BLAS, the usable CPUs, and the commit measured (with "dirty": true
if the checkout differs from it).  Standard library only: the versions
come from a child interpreter.  Exits 1 if a run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("torus", "spectra", "ellipsoid-dim")

# Printed as JSON by a child interpreter, so that this one imports nothing
# of the stack it measures.
_VERSIONS = """
import json, numpy, scipy
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = f"{blas.get('name')} {blas.get('version')}"
except Exception:
    blas = "unknown"
print(json.dumps({"numpy": numpy.__version__, "scipy": scipy.__version__,
                  "blas": blas}))
"""


def _seeds(text: str) -> list[int]:
    seeds = [int(s) for s in text.split(",")]
    if not seeds or min(seeds) < 0 or len(set(seeds)) < len(seeds):
        raise ValueError(f"seeds must be distinct and >= 0: {text}")
    return seeds


def parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append", choices=WORKLOADS,
                   help="repeatable; default: every workload")
    p.add_argument("--seeds", type=_seeds, default=[1, 2, 3, 4, 5],
                   help="comma-separated (default 1,2,3,4,5)")
    p.add_argument("--seconds", type=float, default=10.0,
                   help="--seconds of each run (default 10)")
    p.add_argument("--out-dir", default=ROOT,
                   help="where the files go (default: the checkout's root)")
    return p.parse_args(argv)


def _git(*args) -> str | None:
    try:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def environment() -> dict:
    versions = json.loads(subprocess.run(
        [sys.executable, "-c", _VERSIONS], capture_output=True, text=True,
        check=True).stdout)
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count())
    return {"python": platform.python_version(), **versions,
            "usable_cpus": cpus, "machine": platform.machine()}


def run_once(workload: str, seed: int, seconds: float) -> dict:
    """The summary that perfbench/run.py prints as its last line."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", repr(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited with code "
                           f"{proc.returncode}: {proc.stderr.strip()}")
    return json.loads(lines[-1])


def baseline(workload: str, seeds: list[int], seconds: float,
             env: dict) -> dict:
    runs = [run_once(workload, seed, seconds) for seed in seeds]
    metrics = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        metrics[name] = {"unit": runs[0]["metrics"][name]["unit"],
                         "median": statistics.median(values),
                         "per_seed": values}
    status = _git("status", "--porcelain")
    return {
        "workload": workload,
        "command": f"python3 perfbench/run.py --workload {workload} "
                   f"--seed SEED --seconds {seconds!r} --trace 0",
        "seeds": seeds,
        "commit": _git("rev-parse", "HEAD"),
        "dirty": None if status is None else bool(status),
        "environment": env,
        "correct": all(r["correct"] is True for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "per_seed": [{"seed": s, "correct": r["correct"],
                      "attempted": r["attempted"], "failed": r["failed"]}
                     for s, r in zip(seeds, runs)],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = parse(argv)
    env = environment()
    for workload in args.workload or WORKLOADS:
        try:
            doc = baseline(workload, args.seeds, args.seconds, env)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        path = os.path.join(args.out_dir, f"BENCH_{workload}.json")
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
