import base64
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse.linalg import ArpackNoConvergence

from mrgap import cli, gp, point_cloud, spectral_dim
from mrgap.cli import main
from mrgap.denoiser import DenoiseConfig, DenoiseTrace, denoise
from mrgap.gp import GpHyperParams
from mrgap.interpolator import interpolate
from mrgap.point_cloud import PointCloud, gen_ellipsoid_embedded, load_csv


def run(args):
    return main([str(a) for a in args])


def trace_clouds(doc):
    """The [2, n, D] array of a trace document's clouds."""
    block = doc["clouds"]
    return np.frombuffer(base64.b64decode(block["data"]),
                         dtype="<f8").reshape(block["shape"])


def edit_clouds(doc, edit):
    """Apply edit in place to the [2, n, D] array of a trace's clouds."""
    pair = trace_clouds(doc).copy()
    edit(pair)
    doc["clouds"]["data"] = base64.b64encode(pair.tobytes()).decode("ascii")


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
        assert list(doc) == ["schema", "config", "hypers",
                             "predictive_variances", "clouds"]
        assert doc["schema"] == 3
        assert len(doc["hypers"]) == 2
        assert len(doc["predictive_variances"]) == 102
        assert list(doc["clouds"]) == ["shape", "data"]
        assert doc["clouds"]["shape"] == [2, 102, 3]
        np.testing.assert_array_equal(trace_clouds(doc)[1], cloud.points)

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
        assert back.predictive_variances == synthetic.predictive_variances

    def test_every_trace_round_trips(self):
        # DenoiseTrace rejects every trace the reader would reject for its
        # clouds, fits or variances, so the reader accepts every trace the
        # writer can be given.
        rng = np.random.default_rng(1)
        clouds = [PointCloud(rng.normal(size=(5, 3))) for _ in range(3)]
        hypers = [GpHyperParams(1.0, 0.5, 0.1), GpHyperParams(1.0, 0.4, 0.1)]
        variances = [0.1] * 5
        with pytest.raises(TypeError):
            DenoiseTrace(clouds, hypers)
        for bad in ([], [0.1] * 4, [0.1] * 4 + [-1e-300], [0.1] * 4 + [np.nan],
                    [0.1] * 4 + [np.inf]):
            with pytest.raises(ValueError, match="'predictive_variances'"):
                DenoiseTrace(clouds, hypers, bad)
        for bad in (clouds[:1],
                    clouds[:2] + [PointCloud(rng.normal(size=(5, 4)))],
                    [PointCloud(rng.normal(size=(4, 3)))] + clouds[1:]):
            with pytest.raises(ValueError, match="'clouds'"):
                DenoiseTrace(bad, hypers, variances)
        with pytest.raises(ValueError, match="'hypers'"):
            DenoiseTrace(clouds, [], variances)
        trace = DenoiseTrace(clouds, hypers, list(rng.uniform(size=5)))
        config = DenoiseConfig(epsilon=0.3, delta=0.6, intrinsic_dim=1)
        back, back_config = cli.trace_from_json(
            json.loads(json.dumps(cli.trace_to_json(trace, config))))
        for got, want in zip(back.clouds, clouds[-2:]):
            np.testing.assert_array_equal(got.points, want.points)
        assert back.hypers == hypers
        assert back.predictive_variances == trace.predictive_variances
        assert back_config == config

    def test_numpy_scalars_round_trip(self):
        # The library takes NumPy ints and floats; the trace is written
        # with the Python int or float of each field's kind.
        rng = np.random.default_rng(2)
        clouds = [PointCloud(rng.normal(size=(3, 2))) for _ in range(2)]
        f32, i64 = np.float32, np.int64
        config = DenoiseConfig(epsilon=f32(0.25), delta=f32(0.5),
                               intrinsic_dim=i64(1), max_iter=i64(2))
        trace = DenoiseTrace(clouds, [GpHyperParams(f32(1.5), f32(0.5),
                                                    f32(0.125))],
                             [f32(0.75), f32(0.5), f32(0.0)])
        back, back_config = cli.trace_from_json(
            json.loads(json.dumps(cli.trace_to_json(trace, config))))
        assert back_config == DenoiseConfig(0.25, 0.5, 1, max_iter=2)
        assert back.hypers == [GpHyperParams(1.5, 0.5, 0.125)]
        assert back.predictive_variances == [0.75, 0.5, 0.0]

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

    def test_schema_2_trace_asks_for_rerun(self, tmp_path, pipeline, capsys):
        # The schema-2 layout of the same trace: the round count, the sigma
        # history, and each cloud as its own shape, dtype and data.
        _, _, _, trace = pipeline
        doc = json.loads(trace.read_text())
        doc.update(
            schema=2, rounds=len(doc["hypers"]),
            sigma_history=[h["sigma"] for h in doc["hypers"]],
            clouds=[{"shape": list(c.shape), "dtype": "<f8",
                     "data": base64.b64encode(c.tobytes()).decode("ascii")}
                    for c in trace_clouds(doc)])
        old = tmp_path / "v2.json"
        old.write_text(json.dumps(doc))
        assert run(["interpolate", "--trace", old, "--k", 2,
                    "--out", tmp_path / "o.csv"]) == 2
        err = capsys.readouterr().err
        assert "field 'schema' is 2" in err
        assert "re-run `mrgap denoise --trace-out`" in err

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
        ("hypers[1]", lambda doc: doc["hypers"][1].update(sigma=1e160)),
        ("predictive_variances[3]",
         lambda doc: doc["predictive_variances"].__setitem__(3, "x")),
        ("predictive_variances",
         lambda doc: doc.update(predictive_variances=[0.5])),
        ("clouds", lambda doc: doc.pop("clouds")),
        ("clouds", lambda doc: doc.update(clouds=[doc["clouds"]] * 2)),
        pytest.param("clouds.shape",
                     lambda doc: doc["clouds"].update(shape=[612]),
                     id="clouds.shape-rank"),
        pytest.param("clouds.shape",
                     lambda doc: doc["clouds"].update(shape=[2, 102, "3"]),
                     id="clouds.shape-type"),
        pytest.param("clouds.shape",
                     lambda doc: doc["clouds"].update(shape=[3, 102, 3]),
                     id="clouds.shape-count"),
        pytest.param("clouds.shape",
                     lambda doc: doc["clouds"].update(shape=[2, 0, 3]),
                     id="clouds.shape-empty"),
        ("clouds.data", lambda doc: doc["clouds"].pop("data")),
        ("clouds.data", lambda doc: doc["clouds"].update(data="not base64!")),
        ("clouds.data", lambda doc: doc["clouds"].update(
            data=doc["clouds"]["data"][:-8])),
        ("clouds.data",
         lambda doc: edit_clouds(doc, lambda p: p.__setitem__(0, np.nan))),
        ("predictive_variances",
         lambda doc: doc["predictive_variances"].__setitem__(3, -0.5)),
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
        err = capsys.readouterr().err
        assert f"'{field}'" in err
        assert err.count("trace:") == 1, err

    @pytest.mark.parametrize("edit", [
        lambda doc: doc.update(sigma_history=None),
        lambda doc: doc.update(sigma_history=[-1.0, 0.5, 2.0]),
    ])
    def test_sigma_history_is_not_read(self, tmp_path, pipeline, edit):
        # hypers holds every round's sigma, so the trace holds no sigma
        # history, and a field of that name is ignored.
        _, _, _, trace = pipeline
        doc = json.loads(trace.read_text())
        edit(doc)
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(doc))
        outs = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path, out in zip((trace, edited), outs):
            assert run(["interpolate", "--trace", path, "--k", 3,
                        "--seed", 1, "--out", out]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    @pytest.mark.parametrize("doc", [[], {"schema": 2}, {"schema": 3}])
    def test_trace_without_fields_is_input_error(self, tmp_path, capsys, doc):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run(["interpolate", "--trace", bad, "--k", 2,
                    "--out", tmp_path / "o.csv"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: trace:") and err.count("trace:") == 1


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

    def test_embedding_dimension_not_below_n_is_input_error(self, tmp_path,
                                                             capsys):
        # the default embedding dimensions 3-6 need at least 7 points
        path = tmp_path / "six.csv"
        np.savetxt(path, np.random.default_rng(0).normal(size=(6, 3)),
                   delimiter=",")
        assert run(["estimate-dim", "--in", path, "--eps-dm", 2]) == 2
        assert ("embed_dims entry must be < n = 6 points, got 6"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("option, value, message", [
        ("--embed-dims", "1", "embed_dims entry must be >= 2"),
        ("--embed-dims", "1,3", "embed_dims entry must be >= 2"),
        ("--embed-dims", "", "embed_dims is empty"),
        ("--eps-grid", "", "eps_grid is empty"),
    ], ids=["embed-dims-1", "embed-dims-1,3", "embed-dims-empty",
            "eps-grid-empty"])
    def test_bad_list_is_input_error(self, small_csv, capsys, option, value,
                                     message):
        assert run(["estimate-dim", "--in", small_csv, "--eps-dm", 0.5,
                    option, value]) == 2
        assert message in capsys.readouterr().err

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
        ["generate", "--shape", "cassini", "--n", 10, "--out", ""],
    ], ids=["eps-dm-nan", "eps-dm-inf", "eps-dm-1e-200", "eps-dm-1e200",
            "eps-grid-nan", "eps-grid-inf",
            "embed-dims-0", "epsilon-nan", "delta-nan", "delta-inf",
            "tol-nan", "missing-in", "missing-trace", "shape-blob",
            "out-empty"])
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

    @pytest.mark.parametrize("name, text, command, named", [
        ("deep.json", "[" * 200000 + "]" * 200000, "interpolate", ""),
        ("huge.csv", "1,2,3\n" + "9" * 200000 + ",1,1\n", "evaluate",
         ": row 2: field larger than field limit"),
        ("huge.csv", "1,2,3\n" + "x" * 200000 + ",1,1\n", "evaluate",
         ": row 2: field larger than field limit"),
        ("latin.csv", b"1,2,3\n4,5,\xe96\n", "evaluate", ": line 2: "),
        ("latin.csv", b"\xef\xbb\xbfx,\xe9,z\n\n1,2,3\n", "evaluate",
         ": line 1: "),
        ("header.csv", "x,y,z\n\n", "evaluate", ": header only"),
    ], ids=["deep-trace", "huge-number", "huge-text", "latin-1",
            "latin-1-header", "header-only"])
    def test_unreadable_file_is_named(self, tmp_path, capsys, name, text,
                                      command, named):
        path = tmp_path / name
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text)
        out = tmp_path / "o.csv"
        argv = {"interpolate": ["interpolate", "--trace", path, "--k", 2,
                                "--out", out],
                "evaluate": ["evaluate", "--in", path, "--ref", path]}
        assert run(argv[command]) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "Traceback" not in err
        assert f"{path}{named}" in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["denoise", "--in", "NOISY", "--epsilon", 0.3, "--delta", 0.6,
         "--d", 1, "--max-iter", 2, "--out", "OUT", "--trace-out", "BAD"],
        ["interpolate", "--trace", "TRACE", "--k", 2, "--out", "OUT",
         "--chart-index-out", "BAD"],
        ["evaluate", "--in", "NOISY", "--ref", "NOISY",
         "--distances-out", "BAD"],
        ["estimate-dim", "--in", "NOISY", "--eps-dm", 2.0,
         "--profile-out", "BAD"],
    ], ids=["denoise", "interpolate", "evaluate", "estimate-dim"])
    def test_unopenable_output_writes_nothing(self, tmp_path, pipeline,
                                              capsys, argv):
        # Every output is opened before any is written, and the result is
        # printed last: a path in a missing directory leaves no file and
        # no output behind.
        paths = {"NOISY": pipeline[1], "TRACE": pipeline[3],
                 "OUT": tmp_path / "o.csv", "BAD": tmp_path / "nodir" / "x"}
        assert run([paths.get(a, a) for a in argv]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("error:") == 1
        assert "nodir" in err
        assert not any(tmp_path.iterdir())

    def test_unopenable_output_keeps_existing_files(self, tmp_path,
                                                    pipeline):
        out = tmp_path / "o.csv"
        out.write_text("old\n")
        assert run(["interpolate", "--trace", pipeline[3], "--k", 2,
                    "--out", out, "--chart-index-out",
                    tmp_path / "nodir" / "x"]) == 2
        assert out.read_text() == "old\n"
        assert list(tmp_path.iterdir()) == [out]

    def test_one_file_named_twice_is_input_error(self, tmp_path, pipeline,
                                                 capsys):
        out = tmp_path / "o.csv"
        assert run(["interpolate", "--trace", pipeline[3], "--k", 2,
                    "--out", out, "--chart-index-out", out]) == 2
        assert "two output paths name one file" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("option, value", [("--eps-grid", "0.3,"),
                                               ("--embed-dims", "3,x")])
    def test_bad_list_entry_names_the_option(self, small_csv, capsys, option,
                                             value):
        assert run(["estimate-dim", "--in", small_csv, "--eps-dm", 0.5,
                    option, value]) == 2
        assert f"argument {option}: invalid" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["generate", "--shape", "torus", "--n", 5, "--seed", -3,
         "--out", "OUT"],
        ["interpolate", "--trace", "TRACE", "--k", 2, "--seed", -1,
         "--out", "OUT"],
    ], ids=["generate", "interpolate"])
    def test_negative_seed_is_named(self, tmp_path, pipeline, capsys, argv):
        out = tmp_path / "o.csv"
        paths = {"TRACE": pipeline[3], "OUT": out}
        assert run([paths.get(a, a) for a in argv]) == 2
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())


# One output of each command, at the path OUT.
_ONE_OUTPUT = {
    "generate": ["generate", "--shape", "cassini", "--n", 20, "--out", "OUT"],
    "denoise": ["denoise", "--in", "NOISY", "--epsilon", 0.3, "--delta", 0.6,
                "--d", 1, "--max-iter", 2, "--out", "OUT"],
    "denoise-trace": ["denoise", "--in", "NOISY", "--epsilon", 0.3,
                      "--delta", 0.6, "--d", 1, "--max-iter", 2,
                      "--out", "SIDE", "--trace-out", "OUT"],
    "interpolate": ["interpolate", "--trace", "TRACE", "--k", 2,
                    "--out", "OUT"],
    "interpolate-chart-index": ["interpolate", "--trace", "TRACE", "--k", 2,
                                "--out", "SIDE", "--chart-index-out", "OUT"],
    "evaluate": ["evaluate", "--in", "NOISY", "--ref", "DENOISED",
                 "--distances-out", "OUT"],
    "estimate-dim": ["estimate-dim", "--in", "NOISY", "--eps-dm", 0.5,
                     "--profile-out", "OUT"],
}


class TestDevicesAndPipes:
    """Only regular files are emptied and checked for two names, so every
    output can be a device or a pipe, written as a regular file is."""

    @staticmethod
    def run_to(name, out, tmp_path, pipeline, capsys):
        """Exit code and stdout of command name writing its output to out."""
        paths = {"NOISY": pipeline[1], "DENOISED": pipeline[2],
                 "TRACE": pipeline[3], "SIDE": tmp_path / "side", "OUT": out}
        code = run([paths.get(a, a) for a in _ONE_OUTPUT[name]])
        return code, capsys.readouterr().out

    @pytest.mark.parametrize("name", list(_ONE_OUTPUT))
    def test_dev_null(self, tmp_path, pipeline, capsys, name):
        reg = tmp_path / "reg"
        code, want = self.run_to(name, reg, tmp_path, pipeline, capsys)
        assert code == 0
        assert self.run_to(name, "/dev/null", tmp_path, pipeline, capsys) == (
            0, want.replace(str(reg), "/dev/null"))

    def test_dev_null_named_twice(self, pipeline, capsys):
        assert run(["denoise", "--in", pipeline[1], "--epsilon", 0.3,
                    "--delta", 0.6, "--d", 1, "--max-iter", 2,
                    "--out", "/dev/null", "--trace-out", "/dev/null"]) == 0
        assert capsys.readouterr().out == "/dev/null\n"

    @pytest.mark.parametrize("name", list(_ONE_OUTPUT))
    def test_fifo(self, tmp_path, pipeline, capsys, name):
        # The reader stops at the writer's first close, as `cat` does.  Both
        # ends run in threads, so an end that blocks fails the test.
        reg = tmp_path / "reg"
        _, want = self.run_to(name, reg, tmp_path, pipeline, capsys)
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        got, result = [], []
        ends = [threading.Thread(target=lambda: got.append(fifo.read_bytes()),
                                 daemon=True),
                threading.Thread(target=lambda: result.append(self.run_to(
                    name, fifo, tmp_path, pipeline, capsys)), daemon=True)]
        for end in ends:
            end.start()
        for end in ends:
            end.join(timeout=30)
        assert result == [(0, want.replace(str(reg), str(fifo)))]
        assert got == [reg.read_bytes()]

    def test_stdout_pipe(self, tmp_path):
        # The rows reach the pipe first, then the printed path.
        argv = ["generate", "--shape", "cassini", "--n", "5", "--out"]
        reg = tmp_path / "c.csv"
        assert run(argv + [reg]) == 0
        src = str(Path(cli.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "mrgap.cli", *argv, "/dev/stdout"],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src})
        assert proc.stdout == reg.read_text() + "/dev/stdout\n"

    @pytest.mark.parametrize("name", ["evaluate", "estimate-dim"])
    def test_failed_write_leaves_no_file(self, tmp_path, pipeline, capsys,
                                         monkeypatch, name):
        savetxt = np.savetxt

        def first_row_then_fail(fh, rows, **kwargs):
            savetxt(fh, rows[:1], **kwargs)
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(np, "savetxt", first_row_then_fail)
        code, out = self.run_to(name, tmp_path / "o.csv", tmp_path, pipeline,
                                capsys)
        assert (code, out) == (2, "")
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("name", ["evaluate", "estimate-dim"])
    def test_failed_write_reaps_children(self, tmp_path, pipeline, capsys,
                                         monkeypatch, split_writes, name):
        # The same failure after the output was split: every child the
        # write started has ended once _write has raised.
        self.test_failed_write_leaves_no_file(tmp_path, pipeline, capsys,
                                              monkeypatch, name)
        assert split_writes
        assert all(child.returncode is not None for child in split_writes)

    def test_failed_child_leaves_no_file(self, tmp_path, pipeline, capsys,
                                         monkeypatch, split_writes):
        # A child that writes half a row and exits 1 fails the command
        # with one error line, and the output it created is removed.
        monkeypatch.setattr(point_cloud, "_FORMAT_ROWS", "import sys\n"
                            "sys.stdout.write('1.5,')\n"
                            "sys.exit(1)\n")
        out = tmp_path / "new.csv"
        assert run(["interpolate", "--trace", pipeline[3], "--k", 2,
                    "--out", out]) == 2
        assert capsys.readouterr() == (
            "", "error: a CSV writer process exited with status 1: "
                "no message\n")
        assert not out.exists()
        assert split_writes
        assert all(child.returncode is not None for child in split_writes)


class TestPipedInputs:
    """An input file is opened once and read to its end, so a FIFO or a
    pipe on /dev/stdin reads as a regular file does, errors included."""

    LATIN = b"1,2,3\n4,5,\xe96\n"

    @staticmethod
    def evaluate_fifo(tmp_path, data, ref, capsys):
        """Exit codes, stdout and stderr of `evaluate --in` a FIFO whose
        writer sends data.  Both ends run in threads, so an end that
        blocks fails the test."""
        fifo = tmp_path / "in.fifo"
        os.mkfifo(fifo)
        codes = []
        ends = [threading.Thread(target=fifo.write_bytes, args=(data,),
                                 daemon=True),
                threading.Thread(target=lambda: codes.append(run(
                    ["evaluate", "--in", fifo, "--ref", ref])), daemon=True)]
        for end in ends:
            end.start()
        for end in ends:
            end.join(timeout=30)
        assert not any(end.is_alive() for end in ends)
        out, err = capsys.readouterr()
        return codes, out, err

    def test_fifo_bad_byte_names_line(self, tmp_path, pipeline, capsys):
        codes, out, err = self.evaluate_fifo(tmp_path, self.LATIN,
                                             pipeline[1], capsys)
        assert codes == [2] and out == ""
        assert f"{tmp_path / 'in.fifo'}: line 2: " in err

    def test_stdin_pipe_bad_byte_names_line(self, pipeline):
        src = str(Path(cli.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "mrgap.cli", "evaluate", "--in",
             "/dev/stdin", "--ref", str(pipeline[1])],
            input=self.LATIN, capture_output=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 2 and proc.stdout == b""
        assert b"/dev/stdin: line 2: " in proc.stderr

    def test_fifo_reads_as_regular_file(self, tmp_path, pipeline, capsys):
        _, noisy, den, _ = pipeline
        assert run(["evaluate", "--in", noisy, "--ref", den]) == 0
        want = capsys.readouterr().out
        assert self.evaluate_fifo(tmp_path, noisy.read_bytes(), den,
                                  capsys) == ([0], want, "")


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

    def test_unfactorable_fit_is_numerical_error(self, tmp_path, pipeline,
                                                 monkeypatch, capsys):
        def failing(self, rho, s):
            raise gp.FactorizationError("not positive definite")

        monkeypatch.setattr(gp._ChartStack, "stats", failing)
        out = tmp_path / "o.csv"
        assert run(["denoise", "--in", pipeline[1], "--epsilon", 0.3,
                    "--delta", 0.6, "--d", 1, "--out", out]) == 3
        assert "error: no point the fit evaluated" in capsys.readouterr().err
        assert not out.exists()

    def test_failed_chart_is_named(self, tmp_path, pipeline, monkeypatch,
                                   capsys):
        predictive, calls = gp.predictive, []

        def failing_on_chart_3(*args):
            calls.append(args)
            if len(calls) == 4:
                raise gp.FactorizationError("Cholesky failed")
            return predictive(*args)

        monkeypatch.setattr(gp, "predictive", failing_on_chart_3)
        out = tmp_path / "o.csv"
        assert run(["interpolate", "--trace", pipeline[3], "--k", 2,
                    "--out", out]) == 3
        assert "error: chart 3: Cholesky failed" in capsys.readouterr().err
        assert not out.exists()

    def test_every_chart_degenerate_is_numerical_error(self, tmp_path,
                                                       capsys):
        # Isolated pairs of one point: each chart's predictors coincide.
        cloud = PointCloud(np.repeat(np.eye(3) * 10.0, 2, axis=0))
        config = DenoiseConfig(epsilon=0.3, delta=0.6, intrinsic_dim=1)
        trace = DenoiseTrace([cloud, cloud], [GpHyperParams(1.0, 1.0, 0.1)],
                             [0.0] * cloud.n)
        path, out = tmp_path / "trace.json", tmp_path / "o.csv"
        path.write_text(json.dumps(cli.trace_to_json(trace, config)))
        with pytest.warns(UserWarning, match="degenerate domain"):
            assert run(["interpolate", "--trace", path, "--k", 2,
                        "--out", out]) == 3
        assert ("error: every chart's domain is degenerate"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_isolated_point_in_trace_is_numerical_error(
            self, tmp_path, pipeline, capsys):
        _, _, _, trace = pipeline
        doc = json.loads(trace.read_text())

        def isolate(pair):
            pair[0, 0] += 100.0

        edit_clouds(doc, isolate)
        bad = tmp_path / "isolated.json"
        bad.write_text(json.dumps(doc))
        assert run(["interpolate", "--trace", bad, "--k", 2,
                    "--out", tmp_path / "o.csv"]) == 3
        assert "epsilon-ball" in capsys.readouterr().err
