import numpy as np
import pytest

import g4vspec
from g4vspec import kernels


def reference_lorentzian(centers, weights, fwhm, grid):
    hw = fwhm / 2.0
    return (
        np.asarray(weights)[:, None] * (hw / np.pi)
        / ((grid[None, :] - np.asarray(centers)[:, None]) ** 2 + hw * hw)
    ).sum(axis=0)


def reference_gaussian(centers, weights, sigma, grid):
    d = grid[None, :] - np.asarray(centers)[:, None]
    return (
        np.asarray(weights)[:, None] / (sigma * np.sqrt(2.0 * np.pi))
        * np.exp(-d * d / (2.0 * sigma * sigma))
    ).sum(axis=0)


def test_backend_is_reported():
    assert g4vspec.KERNEL_BACKEND == "python"
    assert kernels.BACKEND == "python"


def test_lorentzian_matches_direct_formula(rng):
    centers = rng.uniform(-100, 100, 37)
    weights = rng.uniform(0.1, 2.0, 37)
    grid = np.linspace(-200, 200, 1001)
    out = kernels.lorentzian_sum(centers, weights, 13.0, grid)
    assert np.allclose(out, reference_lorentzian(centers, weights, 13.0, grid), rtol=1e-13)


@pytest.mark.parametrize(
    "kernel, reference, width",
    [
        (kernels.lorentzian_sum, reference_lorentzian, 7.5),
        (kernels.gaussian_sum, reference_gaussian, 2.5),
    ],
    ids=["lorentzian", "gaussian"],
)
def test_matches_direct_formula_across_chunks(rng, kernel, reference, width):
    # 200 lines span two of the kernel's 128-line chunks.
    assert 200 > kernels._CHUNK
    centers = rng.uniform(-50, 50, 200)
    weights = rng.uniform(0.0, 1.0, 200)
    grid = np.linspace(-100, 100, 2048)
    out = kernel(centers, weights, width, grid)
    assert np.allclose(out, reference(centers, weights, width, grid), rtol=1e-13, atol=0.0)


def test_lorentzian_unit_area():
    grid = np.linspace(-4000, 4000, 200001)
    out = kernels.lorentzian_sum([0.0], [1.0], 20.0, grid)
    area = np.trapezoid(out, grid)
    assert area == pytest.approx(1.0, abs=4e-3)  # finite-window tails


def test_gaussian_unit_area_and_peak():
    grid = np.linspace(-50, 50, 20001)
    sigma = 3.0
    out = kernels.gaussian_sum([0.0], [1.0], sigma, grid)
    assert np.trapezoid(out, grid) == pytest.approx(1.0, abs=1e-6)
    assert out.max() == pytest.approx(1.0 / (sigma * np.sqrt(2 * np.pi)), rel=1e-4)


def test_validation():
    grid = np.linspace(0, 1, 5)
    with pytest.raises(ValueError, match="positive"):
        kernels.lorentzian_sum([0.0], [1.0], 0.0, grid)
    with pytest.raises(ValueError, match="positive"):
        kernels.gaussian_sum([0.0], [1.0], -1.0, grid)
    with pytest.raises(ValueError, match="length"):
        kernels.lorentzian_sum([0.0, 1.0], [1.0], 1.0, grid)
    with pytest.raises(ValueError, match="^expected a 1-D array$"):
        kernels.lorentzian_sum([[0.0], [1.0]], [1.0, 1.0], 1.0, grid)
