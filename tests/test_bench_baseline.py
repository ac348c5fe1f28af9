"""tools/bench_baseline.py writes one BENCH_<workload>.json that holds the
benchmark's end-to-end metrics per seed, their medians and the run's
environment."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
END_TO_END = {m["name"] for m in
              json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}


def test_one_seed_of_ellipsoid_dim(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bench_baseline.py"),
         "--workload", "ellipsoid-dim", "--seeds", "3", "--seconds", "0.2",
         "--out-dir", str(tmp_path)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    path = tmp_path / "BENCH_ellipsoid-dim.json"
    assert proc.stdout.split() == [str(path)]
    assert [p.name for p in tmp_path.iterdir()] == [path.name]
    doc = json.loads(path.read_text())
    assert doc["workload"] == "ellipsoid-dim" and doc["seeds"] == [3]
    assert doc["correct"] is True and doc["failed"] == 0
    assert doc["attempted"] >= 1
    assert doc["per_seed"] == [{"seed": 3, "correct": True,
                                "attempted": doc["attempted"], "failed": 0}]
    assert set(doc["metrics"]) == END_TO_END
    for metric in doc["metrics"].values():
        assert set(metric) == {"unit", "median", "per_seed"}
        assert len(metric["per_seed"]) == 1
        assert metric["median"] == metric["per_seed"][0] > 0
    env = doc["environment"]
    assert {"python", "numpy", "scipy", "blas", "usable_cpus"} <= set(env)
    assert env["usable_cpus"] >= 1
    assert len(doc["commit"] or "0" * 40) == 40
    assert doc["dirty"] in (True, False, None)


def test_refuses_a_repeated_seed(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bench_baseline.py"),
         "--seeds", "1,1", "--out-dir", str(tmp_path)],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and "--seeds" in proc.stderr
    assert not list(tmp_path.iterdir())
