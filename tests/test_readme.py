"""The README's examples run as written, its list of public names is
mrgap's, and the noise box it states is the fit's."""

import importlib
import pkgutil
import re
import shlex
from pathlib import Path

import numpy as np

import mrgap
from mrgap import (NoiseSpec, add_gaussian_noise, cli, estimate_dimension,
                   gen_cassini, gp)

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()

PUBLIC = [
    "PointCloud", "NoiseSpec", "load_csv", "save_csv", "gen_cassini",
    "gen_torus", "gen_ellipsoid_embedded", "add_gaussian_noise",
    "GpHyperParams", "DenoiseConfig", "DenoiseTrace", "denoise",
    "interpolate", "grmse", "estimate_dimension",
]


def blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```$", README, re.M | re.S)


def command_line_example():
    (example,) = [b for b in blocks("sh") if b.startswith("mrgap ")]
    return example.replace("\\\n", " ")


def test_command_line_example(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for line in command_line_example().splitlines():
        argv = shlex.split(line)
        assert argv[0] == "mrgap"
        assert cli.main(argv[1:]) == 0, line
    assert (tmp_path / "dense.csv").exists()


def test_dimension_example_finds_a_curve():
    # The example's --eps-dm on its own 102-point noisy Cassini, 12 seeds.
    eps_dm = float(re.search(r"--eps-dm (\S+)", command_line_example())[1])
    for seed in range(12):
        noisy = add_gaussian_noise(gen_cassini(102, seed=seed),
                                   NoiseSpec(0.04, seed + 1))
        assert estimate_dimension(noisy, eps_dm).estimated_dim == 1, seed


def test_library_example(capsys):
    (example,) = blocks("python")
    exec(compile(example, "README.md", "exec"), {})
    assert capsys.readouterr().out


def test_noise_box_is_the_fits():
    (box,) = re.findall(r"\[`gp\.S_FLOOR`, 1 / `gp\.S_FLOOR`\] = "
                        r"\[(\S+), (\S+)\]", README)
    assert [float(b) for b in box] == [gp.S_FLOOR, 1.0 / gp.S_FLOOR]
    (sigma,) = re.findall(r"sigma >= (\S+) sqrt\(A\)", README)
    assert np.isclose(float(sigma) ** 2, gp.S_FLOOR, rtol=1e-12, atol=0.0)


def test_public_names():
    assert sorted(mrgap.__all__) == sorted(PUBLIC)
    for name in PUBLIC:
        assert hasattr(mrgap, name)
        assert f"`{name}`" in README


def test_only_the_package_lists_exports():
    # mrgap.__all__ is the one export list; a submodule's would be a
    # second copy to keep in step by hand.
    for info in pkgutil.iter_modules(mrgap.__path__):
        module = importlib.import_module(f"mrgap.{info.name}")
        assert not hasattr(module, "__all__"), info.name
