import json
import sys

import numpy as np
import pytest
from scipy.sparse.linalg import ArpackNoConvergence

from mrgap import spectral_dim
from mrgap.cli import main
from mrgap.point_cloud import load_csv


def run(args):
    return main([str(a) for a in args])


class TestGenerate:
    def test_clean_cassini(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        assert run(["generate", "--shape", "cassini", "--n", 50,
                    "--out", out]) == 0
        cloud = load_csv(str(out))
        assert (cloud.n, cloud.ambient_dim) == (50, 3)
        assert str(out) in capsys.readouterr().out

    def test_noisy_writes_both_files(self, tmp_path):
        out = tmp_path / "c.csv"
        assert run(["generate", "--shape", "cassini", "--n", 40,
                    "--sigma", 0.04, "--seed", 3, "--out", out]) == 0
        noisy = load_csv(str(out))
        clean = load_csv(str(tmp_path / "c_clean.csv"))
        assert noisy.n == clean.n == 40
        assert not np.array_equal(noisy.points, clean.points)

    def test_ellipsoid_ambient_dim(self, tmp_path):
        out = tmp_path / "e.csv"
        assert run(["generate", "--shape", "ellipsoid", "--n", 30,
                    "--ambient-dim", 30, "--out", out]) == 0
        assert load_csv(str(out)).ambient_dim == 30

    def test_unknown_shape(self, tmp_path):
        assert run(["generate", "--shape", "mobius", "--n", 10,
                    "--out", tmp_path / "x.csv"]) == 2


@pytest.fixture(scope="module")
def noisy_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "noisy.csv"
    run(["generate", "--shape", "cassini", "--n", 102,
         "--sigma", 0.04, "--seed", 7, "--out", path])
    return path


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipe")
    noisy = root / "noisy.csv"
    den = root / "den.csv"
    trace = root / "trace.json"
    run(["generate", "--shape", "cassini", "--n", 102,
         "--sigma", 0.04, "--seed", 7, "--out", noisy])
    run(["denoise", "--in", noisy, "--epsilon", 0.3, "--delta", 0.6,
         "--d", 1, "--max-iter", 2, "--tol", 0.0,
         "--out", den, "--trace-out", trace])
    return root, noisy, den, trace


class TestDenoise:
    def test_writes_output_and_trace(self, tmp_path, noisy_csv):
        out = tmp_path / "den.csv"
        trace = tmp_path / "trace.json"
        code = run(["denoise", "--in", noisy_csv, "--epsilon", 0.3,
                    "--delta", 0.6, "--d", 1, "--max-iter", 2,
                    "--tol", 0.0, "--out", out, "--trace-out", trace])
        assert code == 0
        cloud = load_csv(str(out))
        assert (cloud.n, cloud.ambient_dim) == (102, 3)
        doc = json.loads(trace.read_text())
        assert doc["schema"] == 1
        assert doc["rounds"] == 2
        assert len(doc["sigma_history"]) == 2
        assert len(doc["clouds"]) == 3
        np.testing.assert_allclose(np.asarray(doc["clouds"][-1]),
                                   cloud.points, atol=1e-12)

    def test_missing_input(self, tmp_path):
        assert run(["denoise", "--in", tmp_path / "nope.csv",
                    "--epsilon", 0.3, "--delta", 0.6, "--d", 1,
                    "--out", tmp_path / "o.csv"]) == 2

    def test_sparse_cloud_is_numerical_error(self, tmp_path):
        path = tmp_path / "sparse.csv"
        np.savetxt(path, np.diag([10.0, 20.0, 30.0]), delimiter=",")
        assert run(["denoise", "--in", path, "--epsilon", 0.3,
                    "--delta", 0.6, "--d", 1,
                    "--out", tmp_path / "o.csv"]) == 3


class TestInterpolateAndEvaluate:
    def test_interpolate_row_count(self, tmp_path, pipeline):
        _, _, _, trace = pipeline
        out = tmp_path / "interp.csv"
        assert run(["interpolate", "--trace", trace, "--k", 20,
                    "--seed", 0, "--out", out]) == 0
        assert load_csv(str(out)).n == 102 * 20

    def test_interpolate_deterministic(self, tmp_path, pipeline):
        _, _, _, trace = pipeline
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run(["interpolate", "--trace", trace, "--k", 5, "--seed", 4,
             "--out", a])
        run(["interpolate", "--trace", trace, "--k", 5, "--seed", 4,
             "--out", b])
        assert a.read_bytes() == b.read_bytes()

    def test_chart_index_output(self, tmp_path, pipeline):
        _, _, _, trace = pipeline
        out = tmp_path / "interp.csv"
        idx = tmp_path / "idx.json"
        run(["interpolate", "--trace", trace, "--k", 3, "--out", out,
             "--chart-index-out", idx])
        doc = json.loads(idx.read_text())
        assert len(doc["chart_index"]) == 102 * 3

    def test_evaluate_identical_is_zero(self, pipeline, capsys):
        _, noisy, _, _ = pipeline
        assert run(["evaluate", "--in", noisy, "--ref", noisy]) == 0
        assert float(capsys.readouterr().out.strip()) == 0.0

    def test_evaluate_dimension_mismatch(self, tmp_path, pipeline):
        _, noisy, _, _ = pipeline
        other = tmp_path / "d2.csv"
        np.savetxt(other, np.zeros((4, 2)), delimiter=",")
        assert run(["evaluate", "--in", noisy, "--ref", other]) == 2

    def test_evaluate_missing_file(self, tmp_path, pipeline):
        _, noisy, _, _ = pipeline
        assert run(["evaluate", "--in", noisy,
                    "--ref", tmp_path / "absent.csv"]) == 2

    def test_bad_trace_schema(self, tmp_path):
        trace = tmp_path / "bad.json"
        trace.write_text(json.dumps({"schema": 99}))
        assert run(["interpolate", "--trace", trace, "--k", 2,
                    "--out", tmp_path / "o.csv"]) == 2


class TestEstimateDim:
    def test_circle_dimension(self, tmp_path, capsys):
        theta = np.random.default_rng(0).uniform(0, 2 * np.pi, 300)
        path = tmp_path / "ring.csv"
        np.savetxt(path, np.column_stack([np.cos(theta), np.sin(theta)]),
                   delimiter=",")
        assert run(["estimate-dim", "--in", path, "--eps-dm", 0.5]) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_profile_output(self, tmp_path, capsys):
        theta = np.random.default_rng(1).uniform(0, 2 * np.pi, 200)
        path = tmp_path / "ring.csv"
        np.savetxt(path, np.column_stack([np.cos(theta), np.sin(theta)]),
                   delimiter=",")
        prof = tmp_path / "prof.csv"
        assert run(["estimate-dim", "--in", path, "--eps-dm", 0.5,
                    "--embed-dims", "3,4", "--profile-out", prof]) == 0
        rows = np.loadtxt(prof, delimiter=",")
        assert rows.shape[0] == 2


    def test_no_vote_is_numerical_error(self, tmp_path, capsys):
        # 7 points: no epsilon-ball of a 5- or 6-dimensional embedding
        # holds a second point, so no spectrum votes
        path = tmp_path / "seven.csv"
        np.savetxt(path, np.random.default_rng(0).normal(size=(7, 3)),
                   delimiter=",")
        assert run(["estimate-dim", "--in", path, "--eps-dm", 1.0,
                    "--embed-dims", "5,6"]) == 3
        assert "error:" in capsys.readouterr().err

    def test_eigensolver_failure_is_numerical_error(self, tmp_path,
                                                    monkeypatch):
        def no_convergence(*args, **kwargs):
            raise ArpackNoConvergence("no convergence", np.empty(0),
                                      np.empty((0, 0)))

        monkeypatch.setattr(spectral_dim, "eigsh", no_convergence)
        theta = np.random.default_rng(0).uniform(0, 2 * np.pi, 100)
        path = tmp_path / "ring.csv"
        np.savetxt(path, np.column_stack([np.cos(theta), np.sin(theta)]),
                   delimiter=",")
        assert run(["estimate-dim", "--in", path, "--eps-dm", 0.5]) == 3


class TestUsage:
    def test_no_command(self):
        assert run([]) == 2

    def test_unknown_flag(self):
        assert run(["evaluate", "--bogus"]) == 2

    def test_unavailable_thread_cap_warns(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("MRGAP_THREADS", "1")
        # A None entry makes the import raise ImportError.
        monkeypatch.setitem(sys.modules, "threadpoolctl", None)
        assert run(["generate", "--shape", "cassini", "--n", 10,
                    "--out", tmp_path / "c.csv"]) == 0
        assert "warning: thread cap unavailable" in capsys.readouterr().err
