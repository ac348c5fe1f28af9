"""What `import mrgap` loads: scipy.optimize only once a process fits.

The check runs in a fresh interpreter, since this test process has
already imported scipy.optimize (tests/oracles.py uses it).
"""

import os
import subprocess
import sys
from pathlib import Path

import mrgap

SCRIPT = """
import sys
import numpy as np
import mrgap, mrgap.cli
from mrgap import gp
from mrgap.local_geometry import build_charts

def optimize_loaded():
    return "scipy.optimize" in sys.modules

assert not optimize_loaded(), "after import mrgap, mrgap.cli"
noisy = mrgap.add_gaussian_noise(mrgap.gen_cassini(102, seed=0),
                                 mrgap.NoiseSpec(0.04, 1))
assert mrgap.estimate_dimension(noisy, 0.5).estimated_dim == 1
mrgap.grmse(noisy, mrgap.gen_cassini(1000, seed=99))
mrgap.save_csv(noisy, sys.argv[1])
assert np.array_equal(mrgap.load_csv(sys.argv[1]).points, noisy.points)
assert not optimize_loaded(), "after estimate, grmse and a CSV round trip"
gp.fit_hyperparams(build_charts(noisy, 0.3, 0.6, 1))
assert optimize_loaded(), "after a fit"
res = gp.minimize(lambda x: float(x @ x), np.ones(2), method="L-BFGS-B")
assert res.nfev > 0, res
"""


def test_only_the_fit_imports_scipy_optimize(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(mrgap.__file__).parents[1]))
    run = subprocess.run(
        [sys.executable, "-W", "error", "-c", SCRIPT, str(tmp_path / "c.csv")],
        env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
