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
    with pytest.raises(ValueError, match="positive"):
        kernels.lorentzian_sums([0.0], 0.0, grid, [([1.0], None, None)])
    with pytest.raises(ValueError, match="length"):
        kernels.lorentzian_sums([0.0, 1.0], 1.0, grid, [(None, [1.0], None)])
    assert kernels.lorentzian_sums([0.0], 1.0, grid, []).shape == (0, 5)


def _two_chunk_comb(rng):
    """200 lines (two 128-line chunks), a few far off the grid, with
    negative, zero and positive weights."""
    assert 200 > kernels._CHUNK
    centers = rng.uniform(-60.0, 60.0, 200)
    centers[[3, 150, 199]] = (-1e6, 2e5, 1e9)
    weights = rng.uniform(-1.0, 2.0, 200)
    weights[[0, 77, 140]] = 0.0
    return centers, weights, np.linspace(-100.0, 100.0, 801)


@pytest.mark.parametrize("sigma", [1e-170, 1e-320, 5e-324])
def test_a_sigma_whose_square_underflows_is_refused_by_name(sigma):
    """Its profile divided by 2 sigma^2 = 0: a ZeroDivisionError before."""
    with pytest.raises(ValueError) as info:
        kernels.gaussian_sum([0.0], [1.0], sigma, np.linspace(-1.0, 1.0, 5))
    assert str(info.value) == f"sigma {sigma} is too small: 2 sigma^2 underflows to 0"


@pytest.mark.parametrize("fwhm", [1.4e-154, 1e-155, 1e-163, 1e-320, 5e-324])
def test_a_fwhm_whose_peak_overflows_is_refused_by_name(fwhm):
    """A line on a grid point peaks at 1/(fwhm/2)^2 times fwhm/(2 pi): an inf,
    or a nan where (fwhm/2)^2 underflows, before."""
    grid = np.linspace(-1.0, 1.0, 5)
    for call in (lambda: kernels.lorentzian_sum([0.0], [1.0], fwhm, grid),
                 lambda: kernels.lorentzian_sums([0.0], fwhm, grid, [([1.0], [1.0], [1.0])])):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == f"fwhm {fwhm} is too small: 1/(fwhm/2)^2 overflows"
    peak = kernels.lorentzian_sum([0.0], [1.0], 1.5e-154, grid)[2]
    assert peak == pytest.approx(2.0 / (np.pi * 1.5e-154), rel=1e-15)


def test_lorentzian_sums_peak_rows_are_lorentzian_sum_bit_for_bit(rng):
    centers, weights, grid = _two_chunk_comb(rng)
    other = rng.uniform(0.0, 1.0, 200)
    terms = [(weights, None, None), (None, other, other), (other, None, None)]
    out = kernels.lorentzian_sums(centers, 9.0, grid, terms)
    assert out.shape == (3, grid.size)
    assert out[0].tobytes() == kernels.lorentzian_sum(centers, weights, 9.0, grid).tobytes()
    assert out[2].tobytes() == kernels.lorentzian_sum(centers, other, 9.0, grid).tobytes()
    assert np.allclose(out[0], reference_lorentzian(centers, weights, 9.0, grid),
                       rtol=1e-13, atol=1e-13 * np.abs(out[0]).max())


def test_lorentzian_sums_derivatives_match_central_differences(rng):
    centers, weights, grid = _two_chunk_comb(rng)
    fwhm, h = 9.0, 1e-4
    d_center, d_fwhm = kernels.lorentzian_sums(
        centers, fwhm, grid, [(None, weights, None), (None, None, weights)])
    # Moving every centre by h moves the sum as the centre derivatives add.
    want_center = (kernels.lorentzian_sum(centers + h, weights, fwhm, grid)
                   - kernels.lorentzian_sum(centers - h, weights, fwhm, grid)) / (2.0 * h)
    want_fwhm = (kernels.lorentzian_sum(centers, weights, fwhm + h, grid)
                 - kernels.lorentzian_sum(centers, weights, fwhm - h, grid)) / (2.0 * h)
    for got, want in ((d_center, want_center), (d_fwhm, want_fwhm)):
        scale = np.abs(want).max()
        assert scale > 1e-3
        assert np.abs(got - want).max() <= 1e-8 * scale


@pytest.mark.parametrize("far", [1e300, -1e300, 1e200])
def test_a_line_whose_squared_detuning_overflows_adds_exactly_zero(far):
    # pytest turns RuntimeWarning into an error, so this also pins that the
    # overflow is silent.
    grid = np.linspace(-10.0, 10.0, 21)
    near = kernels.lorentzian_sum([1.0], [2.0], 3.0, grid)
    assert kernels.lorentzian_sum([1.0, far], [2.0, 5.0], 3.0, grid).tobytes() == near.tobytes()
    assert not kernels.lorentzian_sum([far], [1.0], 3.0, grid).any()
    assert not kernels.gaussian_sum([far], [1.0], 3.0, grid).any()
    out = kernels.lorentzian_sums([far], 3.0, grid, [([1.0], [1.0], [1.0])])
    assert not out.any()
