import os
import signal
import sys
import threading

import numpy as np
import pytest

from mrgap import point_cloud
from mrgap.point_cloud import (
    CsvFormatError,
    NoiseSpec,
    PointCloud,
    add_gaussian_noise,
    gen_cassini,
    gen_ellipsoid_embedded,
    gen_torus,
    load_csv,
    random_rotation,
    save_csv,
)
from mrgap.denoiser import DenoiseConfig, DenoiseTrace
from mrgap.evaluation import grmse
from mrgap.gp import GpHyperParams
from mrgap.interpolator import interpolate
from mrgap.local_geometry import build_charts
from mrgap.spectral_dim import estimate_dimension


@pytest.mark.parametrize("shape", [(3,), (2, 3, 1), (0, 3), (3, 0)],
                         ids=["1-d", "3-d", "empty", "no-coordinates"])
def test_cloud_is_a_nonempty_2d_array(shape):
    with pytest.raises(ValueError, match=r"\(n, D\), n >= 1, D >= 1"):
        PointCloud(np.zeros(shape))


def test_cloud_rejects_nonfinite():
    with pytest.raises(ValueError):
        PointCloud(np.array([[1.0, np.nan]]))
    with pytest.raises(ValueError):
        PointCloud(np.array([[np.inf, 0.0]]))


_CLOUD = PointCloud(np.arange(12.0).reshape(6, 2))
_TRACE = DenoiseTrace([_CLOUD, _CLOUD], [GpHyperParams(1.0, 1.0, 0.1)],
                      [0.0] * _CLOUD.n)
_CONFIG = dict(epsilon=0.3, delta=0.6, intrinsic_dim=1)


@pytest.mark.parametrize("name, call", [
    ("max_iter", lambda: DenoiseConfig(**_CONFIG, max_iter=np.nan)),
    ("max_iter", lambda: DenoiseConfig(**_CONFIG, max_iter=np.inf)),
    ("max_iter", lambda: DenoiseConfig(**_CONFIG, max_iter=2.5)),
    ("max_iter", lambda: DenoiseConfig(**_CONFIG, max_iter=True)),
    ("intrinsic_dim",
     lambda: DenoiseConfig(epsilon=0.3, delta=0.6, intrinsic_dim=1.5)),
    ("K", lambda: interpolate(_TRACE, DenoiseConfig(**_CONFIG), K=2.5)),
    ("embed_dims entry",
     lambda: estimate_dimension(_CLOUD, 2.0, embed_dims=[3.5])),
    ("n", lambda: gen_torus(2.5)),
    ("n", lambda: gen_cassini(np.float64(3.0))),
    ("n", lambda: gen_ellipsoid_embedded(2.5)),
    ("ambient_dim", lambda: gen_ellipsoid_embedded(10, ambient_dim=16.5)),
], ids=["max_iter-nan", "max_iter-inf", "max_iter-2.5", "max_iter-True",
        "intrinsic_dim-1.5", "K-2.5", "embed_dims-3.5", "torus-n-2.5",
        "cassini-n-float64", "ellipsoid-n-2.5", "ambient_dim-16.5"])
def test_counts_must_be_integers(name, call):
    with pytest.raises(ValueError, match=f"{name} must be >= .* integer"):
        call()


@pytest.mark.parametrize("seed", [-1, 1.5, True],
                         ids=["negative", "float", "bool"])
@pytest.mark.parametrize("call", [
    lambda seed: gen_cassini(5, seed=seed),
    lambda seed: gen_torus(5, seed=seed),
    lambda seed: gen_ellipsoid_embedded(5, seed=seed),
    lambda seed: NoiseSpec(0.1, seed),
    lambda seed: interpolate(_TRACE, DenoiseConfig(**_CONFIG), K=2,
                             seed=seed),
], ids=["cassini", "torus", "ellipsoid", "noise", "interpolate"])
def test_seed_is_a_nonnegative_integer(call, seed):
    with pytest.raises(ValueError, match="seed must be >= 0 and an integer"):
        call(seed)


@pytest.mark.parametrize("value", [True, np.True_, "0.3"],
                         ids=["bool", "numpy-bool", "str"])
@pytest.mark.parametrize("name, call", [
    ("sigma", lambda v: NoiseSpec(sigma=v)),
    ("epsilon", lambda v: DenoiseConfig(epsilon=v, delta=0.6,
                                        intrinsic_dim=1)),
    ("delta", lambda v: DenoiseConfig(epsilon=0.3, delta=v, intrinsic_dim=1)),
    ("sigma_tol", lambda v: DenoiseConfig(**_CONFIG, sigma_tol=v)),
    ("A", lambda v: GpHyperParams(A=v, rho=1.0, sigma=0.1)),
    ("rho", lambda v: GpHyperParams(A=1.0, rho=v, sigma=0.1)),
    ("sigma", lambda v: GpHyperParams(A=1.0, rho=1.0, sigma=v)),
    ("epsilon", lambda v: build_charts(_CLOUD, v, 2.0, 1)),
    ("delta", lambda v: build_charts(_CLOUD, 0.5, v, 1)),
    ("eps_dm", lambda v: estimate_dimension(_CLOUD, v, embed_dims=[3])),
    ("epsilon", lambda v: estimate_dimension(_CLOUD, 2.0, embed_dims=[3],
                                             eps_grid=[v])),
], ids=["noise-sigma", "config-epsilon", "config-delta", "config-sigma_tol",
        "hyper-A", "hyper-rho", "hyper-sigma", "charts-epsilon",
        "charts-delta", "eps_dm", "eps_grid-entry"])
def test_reals_must_be_numbers(name, call, value):
    # float() takes a bool or a numeric string; the rule for real
    # parameters takes neither, as _check_count takes no bool as a count.
    with pytest.raises(ValueError, match=f"^{name} must be finite and"):
        call(value)


def test_cloud_is_immutable():
    cloud = PointCloud(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        cloud.points[0, 0] = 1.0


def test_noise_spec_rejects_negative_sigma():
    with pytest.raises(ValueError):
        NoiseSpec(sigma=-0.1)


class TestCsv:
    def test_basic_parse(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("1,2,3\n4,5,6\n")
        cloud = load_csv(p)
        assert cloud.n == 2 and cloud.ambient_dim == 3
        np.testing.assert_allclose(cloud.points, [[1, 2, 3], [4, 5, 6]])

    def test_header_autodetect(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("x,y\n1,2\n3,4\n")
        assert load_csv(p).n == 2

    def test_empty_file(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("")
        with pytest.raises(CsvFormatError):
            load_csv(p)

    def test_ragged_row_named(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("1,2\n3,4,5\n")
        with pytest.raises(CsvFormatError, match="row 2"):
            load_csv(p)

    def test_non_numeric_named(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("1,2\n3,oops\n")
        with pytest.raises(CsvFormatError, match="row 2, column 2"):
            load_csv(p)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_named(self, tmp_path, cell):
        p = tmp_path / "c.csv"
        p.write_text(f"x,y\n1,2\n\n3,{cell}\n")
        with pytest.raises(CsvFormatError) as err:
            load_csv(p)
        assert str(err.value) == f"{p}: row 3, column 2: not finite: '{cell}'"

    @pytest.mark.parametrize("blank", ["   \n", "\t\n", " \t \r\n"],
                             ids=["spaces", "tab", "mixed"])
    def test_whitespace_rows_are_blank(self, tmp_path, blank):
        plain, spaced = tmp_path / "plain.csv", tmp_path / "spaced.csv"
        plain.write_text("1,2,3\n4,5,6\n")
        spaced.write_text(f"{blank}1,2,3\n{blank}{blank}4,5,6\n{blank}")
        np.testing.assert_array_equal(load_csv(spaced).points,
                                      load_csv(plain).points)
        # A later error names the row it would name without them.
        for bad, message in (("7,8", "row 3 has 2 fields"),
                             ("7,x,9", "row 3, column 2: not numeric")):
            plain.write_text(f"1,2,3\n4,5,6\n{bad}\n")
            spaced.write_text(f"1,2,3\n{blank}4,5,6\n{blank}{bad}\n")
            for path in (plain, spaced):
                with pytest.raises(CsvFormatError, match=message):
                    load_csv(path)

    def test_byte_order_mark_skipped(self, tmp_path):
        plain = tmp_path / "plain.csv"
        plain.write_bytes(b"1,2,3\n4,5,6\n")
        for text in (b"1,2,3\n4,5,6\n", b"x,y,z\n1,2,3\n4,5,6\n"):
            bom = tmp_path / "bom.csv"
            bom.write_bytes(b"\xef\xbb\xbf" + text)
            np.testing.assert_array_equal(load_csv(bom).points,
                                          load_csv(plain).points)

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        cloud = PointCloud(rng.normal(size=(10, 3)))
        p = tmp_path / "c.csv"
        save_csv(cloud, p)
        # 17 significant digits are lossless.
        np.testing.assert_array_equal(load_csv(p).points, cloud.points)

    def test_gz_suffix_is_plain_text(self, tmp_path):
        # The path is opened as it is named; no suffix picks a compressor.
        cloud = PointCloud(np.random.default_rng(1).normal(size=(10, 3)))
        plain, gz = tmp_path / "c.csv", tmp_path / "c.csv.gz"
        save_csv(cloud, plain)
        save_csv(cloud, gz)
        assert gz.read_bytes() == plain.read_bytes()
        np.testing.assert_array_equal(load_csv(gz).points, cloud.points)

    def test_array_to_open_file(self, tmp_path):
        # An array writes as the cloud does; a 1-d one, a value per line.
        cloud = gen_cassini(5, seed=0)
        p = tmp_path / "c.csv"
        save_csv(cloud, p)
        with open(tmp_path / "a.csv", "w") as fh:
            save_csv(cloud.points, fh)
            save_csv(cloud.points[:, 0], fh)
        col = "".join(f"{x:.17g}\n" for x in cloud.points[:, 0])
        assert (tmp_path / "a.csv").read_text() == p.read_text() + col

    def test_fifo_path(self, tmp_path):
        # The path is opened once, so a reader that stops at the first end
        # of file, as `cat` does, gets every row.  Both ends run in
        # threads, so an end that blocks fails the test.
        cloud = gen_cassini(20, seed=2)
        p = tmp_path / "c.csv"
        save_csv(cloud, p)
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        for _ in range(10):
            got = []
            ends = [threading.Thread(target=lambda: got.append(
                        fifo.read_bytes()), daemon=True),
                    threading.Thread(target=save_csv, args=(cloud, fifo),
                                     daemon=True)]
            for end in ends:
                end.start()
            for end in ends:
                end.join(timeout=30)
            assert not any(end.is_alive() for end in ends)
            assert got == [p.read_bytes()]

    def test_empty_cloud_round_trip_fails_on_reload(self, tmp_path):
        # PointCloud refuses an empty cloud, and save_csv an empty array,
        # before it creates the file that load_csv would refuse.
        with pytest.raises(ValueError, match="n >= 1"):
            PointCloud(np.empty((0, 3)))
        p = tmp_path / "c.csv"
        for empty in (np.empty((0, 3)), np.empty(0)):
            with pytest.raises(ValueError, match=r"empty array, shape \(0,"):
                save_csv(empty, p)
        assert not p.exists()

    def test_cassini_round_trip_grmse_zero(self, tmp_path):
        cloud = gen_cassini(50, seed=1)
        p = tmp_path / "c.csv"
        save_csv(cloud, p)
        back = load_csv(p)
        assert grmse(cloud, back).value == 0.0


# Rows that save_csv splits under the split_writes fixture, by name: the
# count of blocks each is cut into is the count of children plus one.
_SPLIT = {
    "2-d": (np.random.default_rng(3).normal(size=(40, 7)), 3),
    "1-d": (np.random.default_rng(4).normal(size=50), 3),
    "fewer-rows-than-parts": (np.random.default_rng(5).normal(size=(2, 30)),
                              2),
    # The last two rows, which hold the special values, go to children.
    "special-values": (np.array([[1.0, -2.5, 1e-300],
                                 [0.1, 1 / 3, 2 ** 0.5],
                                 [np.nan, np.inf, -np.inf],
                                 [-0.0, 5e-324, 1.7976931348623157e308]]), 3),
}


class TestSplitCsv:
    """A large array is cut into row blocks, one formatted in process and
    each other one by a child interpreter, and the file holds
    np.savetxt's bytes.  split_writes forces the split."""

    @staticmethod
    def savetxt_bytes(rows, tmp_path):
        ref = tmp_path / "savetxt.csv"
        np.savetxt(ref, rows, delimiter=",", fmt="%.17g")
        return ref.read_bytes()

    @pytest.mark.parametrize("name", list(_SPLIT))
    def test_regular_file_gets_savetxt_bytes(self, tmp_path, split_writes,
                                            name):
        rows, blocks = _SPLIT[name]
        p = tmp_path / "c.csv"
        save_csv(rows, p)
        assert p.read_bytes() == self.savetxt_bytes(rows, tmp_path)
        assert [child.returncode for child in split_writes] == [0] * (
            blocks - 1)

    def test_fifo_and_dev_null(self, tmp_path, split_writes):
        # Both ends of the FIFO run in threads, so an end that blocks
        # fails the test.
        rows, _ = _SPLIT["2-d"]
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        got = []
        ends = [threading.Thread(target=lambda: got.append(fifo.read_bytes()),
                                 daemon=True),
                threading.Thread(target=save_csv, args=(rows, fifo),
                                 daemon=True)]
        for end in ends:
            end.start()
        for end in ends:
            end.join(timeout=30)
        assert not any(end.is_alive() for end in ends)
        assert got == [self.savetxt_bytes(rows, tmp_path)]
        save_csv(rows, "/dev/null")
        assert [child.returncode for child in split_writes] == [0] * 4

    def test_without_an_interpreter_path_writes_in_process(
            self, tmp_path, split_writes, monkeypatch):
        rows, _ = _SPLIT["2-d"]
        monkeypatch.setattr(sys, "executable", "")
        p = tmp_path / "c.csv"
        save_csv(rows, p)
        assert p.read_bytes() == self.savetxt_bytes(rows, tmp_path)
        assert split_writes == []

    # An array of fewer than two parts, a single row, or a single usable
    # CPU makes one block, which this process formats.
    @pytest.mark.parametrize("shape, cpus", [((7,), 3), ((1, 40), 3),
                                             ((40, 7), 1)],
                             ids=["fewer-than-two-parts", "one-row",
                                  "one-cpu"])
    def test_one_block_starts_no_child(self, tmp_path, split_writes,
                                       monkeypatch, shape, cpus):
        monkeypatch.setattr(point_cloud, "_usable_cpus", lambda: cpus)
        rows = np.random.default_rng(6).normal(size=shape)
        p = tmp_path / "c.csv"
        save_csv(rows, p)
        assert p.read_bytes() == self.savetxt_bytes(rows, tmp_path)
        assert split_writes == []

    @pytest.mark.parametrize("rows", [np.float64(3.0), np.zeros((4, 3, 2))],
                             ids=["0-d", "3-d"])
    def test_wrong_rank_leaves_the_file_and_starts_no_child(
            self, tmp_path, split_writes, rows):
        p = tmp_path / "c.csv"
        p.write_bytes(b"1,2\n3,4\n")
        with pytest.raises(ValueError, match=(
                f"^Expected 1D or 2D array, got {rows.ndim}D array "
                "instead$")):
            save_csv(rows, p)
        assert p.read_bytes() == b"1,2\n3,4\n"
        assert split_writes == []

    def test_unopenable_path_starts_no_child(self, tmp_path, split_writes):
        # The path is opened before any child starts.
        with pytest.raises(FileNotFoundError):
            save_csv(_SPLIT["2-d"][0], tmp_path / "missing" / "c.csv")
        assert split_writes == []

    def test_failed_child_raises_and_is_reaped(self, tmp_path, split_writes,
                                               monkeypatch):
        # A child that writes half a row and exits 1 raises OSError with
        # the last line of its stderr, and no child is left running.
        monkeypatch.setattr(point_cloud, "_FORMAT_ROWS", "import sys\n"
                            "sys.stdout.write('1.5,')\n"
                            "sys.exit('half a row')\n")
        with pytest.raises(OSError, match="status 1: half a row$"):
            save_csv(_SPLIT["2-d"][0], tmp_path / "c.csv")
        assert split_writes
        assert all(child.returncode is not None for child in split_writes)

    def test_interrupt_while_waiting_reaps_every_child(
            self, tmp_path, split_writes, monkeypatch):
        # SIGINT arrives while this process waits for a child that has
        # closed its stderr but not ended: the interrupt propagates once
        # every child has been killed and reaped.
        monkeypatch.setattr(point_cloud, "_FORMAT_ROWS", "import os, time\n"
                            "os.close(2)\n"
                            "time.sleep(60)\n")
        timer = threading.Timer(0.5, os.kill, (os.getpid(), signal.SIGINT))
        timer.start()
        try:
            with pytest.raises(KeyboardInterrupt):
                save_csv(_SPLIT["2-d"][0], tmp_path / "c.csv")
        finally:
            timer.cancel()
        assert [child.returncode for child in split_writes] == [
            -signal.SIGKILL] * 2


class TestCassini:
    def test_theta_zero(self):
        # X(0) = sqrt(1 + sqrt(1.2)), Y = Z = 0
        from mrgap.point_cloud import _cassini_xyz

        pt = _cassini_xyz(np.array([0.0]))[0]
        np.testing.assert_allclose(
            pt, [np.sqrt(1 + np.sqrt(1.2)), 0.0, 0.0], atol=1e-15
        )

    def test_theta_half_pi(self):
        from mrgap.point_cloud import _cassini_xyz

        pt = _cassini_xyz(np.array([np.pi / 2]))[0]
        assert abs(pt[0]) < 1e-15
        np.testing.assert_allclose(pt[2], -0.3, atol=1e-15)

    def test_paper_scale(self):
        cloud = gen_cassini(102, seed=3)
        assert cloud.n == 102 and cloud.ambient_dim == 3

    def test_n_zero_rejected(self):
        with pytest.raises(ValueError):
            gen_cassini(0)


class TestTorus:
    def test_implicit_equation(self):
        cloud = gen_torus(500, seed=2)
        x, y, z = cloud.points.T
        lhs = (np.sqrt(x ** 2 + y ** 2) - 2.0) ** 2 + z ** 2
        np.testing.assert_allclose(lhs, 0.64, atol=1e-12)

    def test_paper_scale(self):
        assert gen_torus(558, seed=1).n == 558

    def test_n_zero_rejected(self):
        with pytest.raises(ValueError):
            gen_torus(0)


class TestEllipsoid:
    def test_implicit_equation_after_rotation(self):
        cloud = gen_ellipsoid_embedded(200, ambient_dim=30, seed=5)
        resid = _ellipsoid_residual(cloud)
        np.testing.assert_allclose(resid, 1.0, atol=1e-10)

    def test_fitted_form_has_ellipsoid_axes(self):
        # rotation-invariant check: the recovered quadratic form must have
        # eigenvalues 1/4, 1/2.25, 1
        cloud = gen_ellipsoid_embedded(400, ambient_dim=20, seed=11)
        Q = _ellipsoid_form(cloud)
        np.testing.assert_allclose(
            np.sort(np.linalg.eigvalsh(Q)), [0.25, 1 / 2.25, 1.0], atol=1e-8
        )

    def test_zero_padding(self):
        cloud = gen_ellipsoid_embedded(50, ambient_dim=30, seed=5)
        outside = np.delete(cloud.points, [13, 14, 15], axis=1)
        assert np.all(outside == 0.0)

    def test_paper_scale(self):
        cloud = gen_ellipsoid_embedded(800, ambient_dim=30, seed=0)
        assert cloud.n == 800 and cloud.ambient_dim == 30

    def test_rotation_is_orthogonal(self):
        R = random_rotation(np.random.default_rng(7))
        np.testing.assert_allclose(R.T @ R, np.eye(3), atol=1e-12)

    def test_low_ambient_dim_rejected(self):
        with pytest.raises(ValueError):
            gen_ellipsoid_embedded(10, ambient_dim=2, seed=0)


def _ellipsoid_form(cloud):
    # Recover the rotated quadratic form x^T Q x = 1 from the point set
    # itself by least squares (rotation-free implicit-equation oracle).
    block = cloud.points[:, 13:16]
    rows = []
    for x in block:
        outer = np.outer(x, x)
        rows.append(
            [outer[0, 0], outer[1, 1], outer[2, 2],
             2 * outer[0, 1], 2 * outer[0, 2], 2 * outer[1, 2]]
        )
    coef, *_ = np.linalg.lstsq(np.asarray(rows), np.ones(len(rows)), rcond=None)
    return np.array(
        [[coef[0], coef[3], coef[4]],
         [coef[3], coef[1], coef[5]],
         [coef[4], coef[5], coef[2]]]
    )


def _ellipsoid_residual(cloud):
    block = cloud.points[:, 13:16]
    Q = _ellipsoid_form(cloud)
    return np.einsum("ij,jk,ik->i", block, Q, block)


class TestNoise:
    def test_zero_sigma_identity(self):
        cloud = gen_cassini(20, seed=0)
        out = add_gaussian_noise(cloud, NoiseSpec(0.0, 42))
        assert out is cloud

    def test_seed_determinism(self):
        cloud = gen_cassini(20, seed=0)
        a = add_gaussian_noise(cloud, NoiseSpec(0.1, 42))
        b = add_gaussian_noise(cloud, NoiseSpec(0.1, 42))
        np.testing.assert_array_equal(a.points, b.points)

    def test_sample_variance(self):
        cloud = PointCloud(np.zeros((10_000, 3)))
        noisy = add_gaussian_noise(cloud, NoiseSpec(0.04, 9))
        var = noisy.points.var(axis=0)
        np.testing.assert_allclose(var, 0.0016, rtol=0.05)
