import base64
import json

import numpy as np
import pytest
from scipy.sparse.linalg import ArpackNoConvergence

from mrgap import cli, spectral_dim
from mrgap.cli import main
from mrgap.denoiser import DenoiseConfig, DenoiseTrace, denoise
from mrgap.gp import GpHyperParams
from mrgap.interpolator import interpolate
from mrgap.point_cloud import PointCloud, gen_ellipsoid_embedded, load_csv


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

    def test_low_ellipsoid_ambient_dim_names_the_option(self, tmp_path,
                                                        capsys):
        assert run(["generate", "--shape", "ellipsoid", "--n", 10,
                    "--ambient-dim", 10, "--out", tmp_path / "e.csv"]) == 2
        assert "ambient_dim must be >= 16" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("flag, kwargs", [
        ([], {}), (["--ambient-dim", 20], {"ambient_dim": 20})])
    def test_ellipsoid_ambient_dim_passed_on_only_when_given(self, tmp_path,
                                                             flag, kwargs):
        out = tmp_path / "e.csv"
        assert run(["generate", "--shape", "ellipsoid", "--n", 30,
                    "--seed", 2, *flag, "--out", out]) == 0
        np.testing.assert_array_equal(
            load_csv(str(out)).points,
            gen_ellipsoid_embedded(30, seed=2, **kwargs).points)

    @pytest.mark.parametrize("shape", ["cassini", "torus"])
    def test_ambient_dim_of_other_shapes_is_input_error(self, tmp_path,
                                                        capsys, shape):
        assert run(["generate", "--shape", shape, "--n", 10,
                    "--ambient-dim", 7, "--out", tmp_path / "x.csv"]) == 2
        assert "--ambient-dim" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("sigma", ["-0.1", "nan", "inf"])
    def test_bad_sigma_writes_nothing(self, tmp_path, sigma):
        assert run(["generate", "--shape", "cassini", "--n", 10,
                    "--sigma", sigma, "--out", tmp_path / "c.csv"]) == 2
        assert not any(tmp_path.iterdir())


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
        assert doc["schema"] == 2
        assert doc["rounds"] == 2
        assert len(doc["sigma_history"]) == 2
        assert len(doc["clouds"]) == 2
        last = doc["clouds"][-1]
        assert last["shape"] == [102, 3] and last["dtype"] == "<f8"
        decoded = np.frombuffer(base64.b64decode(last["data"]), dtype="<f8")
        np.testing.assert_array_equal(decoded.reshape(102, 3), cloud.points)

    def test_trace_bytes_are_json_dumps(self, tmp_path, noisy_csv,
                                        monkeypatch):
        runs = []

        def recording_denoise(cloud, config):
            trace = denoise(cloud, config)
            runs.append((trace, config))
            return trace

        monkeypatch.setattr(cli, "denoise", recording_denoise)
        trace = tmp_path / "trace.json"
        assert run(["denoise", "--in", noisy_csv, "--epsilon", 0.3,
                    "--delta", 0.6, "--d", 1, "--max-iter", 2,
                    "--out", tmp_path / "den.csv", "--trace-out", trace]) == 0
        (result, config), = runs
        assert trace.read_bytes() == json.dumps(
            cli.trace_to_json(result, config)).encode()

    def test_wide_trace_size(self, tmp_path, monkeypatch):
        # Four rounds of an 86-point cloud in R^701: only the last two
        # clouds are written, as base64 (4/3 of their 8-byte floats).
        n, D = 86, 701
        rng = np.random.default_rng(0)
        clouds = [PointCloud(rng.normal(size=(n, D))) for _ in range(5)]
        hypers = [GpHyperParams(A=1e-3, rho=0.4, sigma=5e-3 + i * 1e-4)
                  for i in range(4)]
        synthetic = DenoiseTrace(clouds, hypers, list(rng.uniform(size=n)))
        monkeypatch.setattr(cli, "denoise", lambda cloud, config: synthetic)
        path = tmp_path / "wide.csv"
        np.savetxt(path, clouds[0].points, delimiter=",", fmt="%.17g")
        trace = tmp_path / "trace.json"
        assert run(["denoise", "--in", path, "--epsilon", 0.7, "--delta", 0.9,
                    "--d", 1, "--out", tmp_path / "den.csv",
                    "--trace-out", trace]) == 0
        assert trace.stat().st_size <= 8 * n * D * 2 * 4 / 3 + 64 * 1024
        back, _ = cli.trace_from_json(json.loads(trace.read_text()))
        assert len(back.clouds) == 2
        for got, want in zip(back.clouds, clouds[-2:]):
            np.testing.assert_array_equal(got.points, want.points)
        assert back.hypers == hypers
        assert back.sigma_history == synthetic.sigma_history
        assert back.predictive_variances == synthetic.predictive_variances

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

    def test_d_points_is_numerical_error(self, tmp_path):
        # n = d: no epsilon-ball can hold more than d points.
        path = tmp_path / "two.csv"
        np.savetxt(path, np.random.default_rng(0).normal(size=(2, 3)),
                   delimiter=",")
        assert run(["denoise", "--in", path, "--epsilon", 10.0,
                    "--delta", 20.0, "--d", 2,
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

    def test_evaluate_dimension_mismatch(self, tmp_path, pipeline, capsys):
        _, noisy, _, _ = pipeline
        other = tmp_path / "d2.csv"
        np.savetxt(other, np.zeros((4, 2)), delimiter=",")
        assert run(["evaluate", "--in", noisy, "--ref", other]) == 2
        assert "ambient dimensions differ: 3 vs 2" in capsys.readouterr().err

    def test_evaluate_missing_file(self, tmp_path, pipeline):
        _, noisy, _, _ = pipeline
        assert run(["evaluate", "--in", noisy,
                    "--ref", tmp_path / "absent.csv"]) == 2

    def test_bad_trace_schema(self, tmp_path):
        trace = tmp_path / "bad.json"
        trace.write_text(json.dumps({"schema": 99}))
        assert run(["interpolate", "--trace", trace, "--k", 2,
                    "--out", tmp_path / "o.csv"]) == 2

    def test_cli_matches_library(self, tmp_path, pipeline):
        # Through the trace file, the CLI interpolates the same points,
        # bitwise, as the library from its in-memory trace.
        _, noisy, den, trace = pipeline
        config = DenoiseConfig(epsilon=0.3, delta=0.6, intrinsic_dim=1,
                               sigma_tol=0.0, max_iter=2)
        lib_trace = denoise(load_csv(str(noisy)), config)
        np.testing.assert_array_equal(load_csv(str(den)).points,
                                      lib_trace.clouds[-1].points)
        lib_points, lib_idx = interpolate(lib_trace, config, 5, 4,
                                          return_chart_index=True)
        out = tmp_path / "interp.csv"
        idx = tmp_path / "idx.json"
        assert run(["interpolate", "--trace", trace, "--k", 5, "--seed", 4,
                    "--out", out, "--chart-index-out", idx]) == 0
        np.testing.assert_array_equal(load_csv(str(out)).points,
                                      lib_points.points)
        np.testing.assert_array_equal(
            json.loads(idx.read_text())["chart_index"], lib_idx)

    def test_schema_1_trace_asks_for_rerun(self, tmp_path, capsys):
        trace = tmp_path / "v1.json"
        trace.write_text(json.dumps({
            "schema": 1,
            "config": {"epsilon": 0.3, "delta": 0.6, "intrinsic_dim": 1,
                       "max_iter": 2},
            "rounds": 1,
            "hypers": [{"A": 1.0, "rho": 0.5, "sigma": 0.1}],
            "sigma_history": [0.1],
            "predictive_variances": [0.0, 0.0],
            "clouds": [[[0.0, 0.0], [1.0, 1.0]], [[0.0, 0.0], [1.0, 1.0]]],
        }))
        assert run(["interpolate", "--trace", trace, "--k", 2,
                    "--out", tmp_path / "o.csv"]) == 2
        assert "re-run `mrgap denoise --trace-out`" in capsys.readouterr().err

    @pytest.mark.parametrize("field, corrupt", [
        ("config", lambda doc: doc.pop("config")),
        ("config.epsilon", lambda doc: doc["config"].pop("epsilon")),
        ("config.epsilon",
         lambda doc: doc["config"].update(epsilon="0.3")),
        ("config.intrinsic_dim",
         lambda doc: doc["config"].update(intrinsic_dim=1.5)),
        ("config", lambda doc: doc["config"].update(delta=0.1)),
        ("hypers", lambda doc: doc.update(hypers=[])),
        ("hypers[1].rho", lambda doc: doc["hypers"][1].pop("rho")),
        ("hypers[0]", lambda doc: doc["hypers"][0].update(A=-1.0)),
        ("predictive_variances[3]",
         lambda doc: doc["predictive_variances"].__setitem__(3, "x")),
        ("predictive_variances",
         lambda doc: doc.update(predictive_variances=[0.5])),
        ("clouds", lambda doc: doc["clouds"].pop()),
        ("clouds[0].shape", lambda doc: doc["clouds"][0].update(shape=[306])),
        ("clouds[0].shape",
         lambda doc: doc["clouds"][0].update(shape=[102, "3"])),
        ("clouds[1].dtype", lambda doc: doc["clouds"][1].update(dtype="<f4")),
        ("clouds[1].data", lambda doc: doc["clouds"][1].pop("data")),
        ("clouds[1].data",
         lambda doc: doc["clouds"][1].update(data="not base64!")),
        ("clouds[0].data", lambda doc: doc["clouds"][0].update(
            data=doc["clouds"][0]["data"][:-8])),
        ("clouds", lambda doc: doc["clouds"][1].update(
            shape=[51, 6])),
    ])
    def test_malformed_trace_is_input_error(self, tmp_path, pipeline, capsys,
                                            field, corrupt):
        _, _, _, trace = pipeline
        doc = json.loads(trace.read_text())
        corrupt(doc)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run(["interpolate", "--trace", bad, "--k", 2,
                    "--out", tmp_path / "o.csv"]) == 2
        assert f"'{field}'" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", [
        lambda doc: doc.update(sigma_history=None),
        lambda doc: doc.update(sigma_history=[-1.0, 0.5, 2.0]),
    ])
    def test_sigma_history_is_not_read(self, tmp_path, pipeline, edit):
        # sigma_history is derived from hypers, so the file's copy is
        # written for readers only and never trusted.
        _, _, _, trace = pipeline
        doc = json.loads(trace.read_text())
        edit(doc)
        back, _ = cli.trace_from_json(doc)
        assert back.sigma_history == [h.sigma for h in back.hypers]
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(doc))
        outs = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path, out in zip((trace, edited), outs):
            assert run(["interpolate", "--trace", path, "--k", 3,
                        "--seed", 1, "--out", out]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    @pytest.mark.parametrize("doc", [[], {"schema": 2}])
    def test_trace_without_fields_is_input_error(self, tmp_path, capsys, doc):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run(["interpolate", "--trace", bad, "--k", 2,
                    "--out", tmp_path / "o.csv"]) == 2
        assert "error: trace:" in capsys.readouterr().err


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

    def test_too_few_distinct_points_is_numerical_error(self, tmp_path,
                                                        capsys):
        # 10 copies of one point cannot give the 7 diffusion eigenpairs
        # that embedding dimensions up to 6 need
        path = tmp_path / "same.csv"
        np.savetxt(path, np.ones((10, 3)), delimiter=",")
        assert run(["estimate-dim", "--in", path, "--eps-dm", 1.0]) == 3
        assert "1 distinct points, fewer than the 7" in capsys.readouterr().err

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


@pytest.fixture(scope="module")
def small_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("small") / "noisy60.csv"
    run(["generate", "--shape", "cassini", "--n", 60,
         "--sigma", 0.04, "--seed", 7, "--out", path])
    return path


_DENOISE = ["denoise", "--in", "NOISY", "--d", 1, "--out", "OUT"]


class TestBadInput:
    """Every unreadable file and every non-finite or out-of-range number
    exits 2 with one error line and writes nothing."""

    @pytest.mark.parametrize("argv", [
        ["estimate-dim", "--in", "SMALL", "--eps-dm", "nan"],
        ["estimate-dim", "--in", "SMALL", "--eps-dm", "inf"],
        ["estimate-dim", "--in", "SMALL", "--eps-dm", "1e-200"],
        ["estimate-dim", "--in", "SMALL", "--eps-dm", "1e200"],
        ["estimate-dim", "--in", "SMALL", "--eps-dm", 0.5,
         "--eps-grid", "nan"],
        ["estimate-dim", "--in", "SMALL", "--eps-dm", 0.5,
         "--eps-grid", "inf"],
        ["estimate-dim", "--in", "SMALL", "--eps-dm", 0.5,
         "--embed-dims", 0],
        _DENOISE + ["--epsilon", "nan", "--delta", 0.6],
        _DENOISE + ["--epsilon", 0.3, "--delta", "nan"],
        _DENOISE + ["--epsilon", 0.3, "--delta", "inf"],
        _DENOISE + ["--epsilon", 0.3, "--delta", 0.6, "--tol", "nan"],
        ["estimate-dim", "--in", "MISSING", "--eps-dm", 0.5],
        ["interpolate", "--trace", "MISSING", "--k", 2, "--out", "OUT"],
        ["generate", "--shape", "blob", "--n", 10, "--out", "OUT"],
    ], ids=["eps-dm-nan", "eps-dm-inf", "eps-dm-1e-200", "eps-dm-1e200",
            "eps-grid-nan", "eps-grid-inf",
            "embed-dims-0", "epsilon-nan", "delta-nan", "delta-inf",
            "tol-nan", "missing-in", "missing-trace", "shape-blob"])
    def test_exits_2(self, tmp_path, small_csv, noisy_csv, capsys, argv):
        out = tmp_path / "o.csv"
        paths = {"SMALL": small_csv, "NOISY": noisy_csv, "OUT": out,
                 "MISSING": tmp_path / "absent"}
        assert run([paths.get(a, a) for a in argv]) == 2
        err = capsys.readouterr().err
        assert len([line for line in err.splitlines()
                    if "error:" in line]) == 1
        assert "Traceback" not in err
        assert not out.exists()


class TestUsage:
    def test_no_command(self):
        assert run([]) == 2

    def test_unknown_flag(self):
        assert run(["evaluate", "--bogus"]) == 2

    def test_no_thread_cap(self, tmp_path, monkeypatch):
        # Neither the option nor the variable exists any more.
        assert run(["--threads", 2, "generate", "--shape", "cassini",
                    "--n", 10, "--out", tmp_path / "c.csv"]) == 2
        monkeypatch.setenv("MRGAP_THREADS", "abc")
        assert run(["generate", "--shape", "cassini", "--n", 10,
                    "--out", tmp_path / "c.csv"]) == 0


class TestNumericalExitCode:
    @pytest.mark.parametrize("exc, code",
                             [(e, 3) for e in cli._NUMERICAL] + [(ValueError, 2)])
    @pytest.mark.parametrize("name", ["denoise", "interpolate",
                                      "estimate_dimension"])
    def test_failure_exit_code(self, tmp_path, pipeline, monkeypatch, capsys,
                               exc, code, name):
        _, noisy, _, trace = pipeline
        out = tmp_path / "o.csv"
        argv = {
            "denoise": ["denoise", "--in", noisy, "--epsilon", 0.3,
                        "--delta", 0.6, "--d", 1, "--out", out],
            "interpolate": ["interpolate", "--trace", trace, "--k", 2,
                            "--out", out],
            "estimate_dimension": ["estimate-dim", "--in", noisy,
                                   "--eps-dm", 0.5],
        }[name]

        def fail(*args, **kwargs):
            raise exc("breakdown")

        monkeypatch.setattr(cli, name, fail)
        assert run(argv) == code
        assert "error: breakdown" in capsys.readouterr().err
        assert not out.exists()

    def test_isolated_point_in_trace_is_numerical_error(
            self, tmp_path, pipeline, capsys):
        _, _, _, trace = pipeline
        doc = json.loads(trace.read_text())
        first = doc["clouds"][0]
        pts = np.frombuffer(base64.b64decode(first["data"]),
                            dtype="<f8").reshape(first["shape"]).copy()
        pts[0] += 100.0
        first["data"] = base64.b64encode(pts.tobytes()).decode("ascii")
        bad = tmp_path / "isolated.json"
        bad.write_text(json.dumps(doc))
        assert run(["interpolate", "--trace", bad, "--k", 2,
                    "--out", tmp_path / "o.csv"]) == 3
        assert "epsilon-ball" in capsys.readouterr().err
