"""Line-profile kernels: a comb of weighted lines broadened onto a grid.

This is the one synthesis kernel of the package, in NumPy.  Lines are
processed in chunks of `_CHUNK` so the broadcast temporary stays small.
`BACKEND` names it for run metadata and is always "python".
"""
import numpy as np

BACKEND = "python"

_CHUNK = 128


def _as_vec(x):
    a = np.ascontiguousarray(x, dtype=np.float64)
    if a.ndim != 1:
        raise ValueError("expected a 1-D array")
    return a


def _checked(centers, weights, grid, out):
    centers = _as_vec(centers)
    weights = _as_vec(weights)
    grid = _as_vec(grid)
    if centers.shape != weights.shape:
        raise ValueError("centers and weights must have the same length")
    if out is None:
        out = np.zeros_like(grid)
    return centers, weights, grid, out


def lorentzian_sum(centers, weights, fwhm: float, grid, out=None):
    """Sum of unit-area Lorentzians, weight[i] at centers[i], FWHM fwhm.

    Accumulates into `out` when given and returns it.
    """
    if not 0 < fwhm < np.inf:
        raise ValueError(f"fwhm must be positive and finite, got {fwhm}")
    centers, weights, grid, out = _checked(centers, weights, grid, out)
    hw = 0.5 * float(fwhm)
    pref = hw / np.pi
    for k in range(0, len(centers), _CHUNK):
        c = centers[k : k + _CHUNK, None]
        w = weights[k : k + _CHUNK, None]
        out += (w * pref / ((grid[None, :] - c) ** 2 + hw * hw)).sum(axis=0)
    return out


def gaussian_sum(centers, weights, sigma: float, grid, out=None):
    """Sum of unit-area Gaussians, weight[i] at centers[i], std dev sigma.

    Accumulates into `out` when given and returns it.
    """
    if not 0 < sigma < np.inf:
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    centers, weights, grid, out = _checked(centers, weights, grid, out)
    sigma = float(sigma)
    pref = 1.0 / (sigma * np.sqrt(2.0 * np.pi))
    inv2s2 = 1.0 / (2.0 * sigma * sigma)
    for k in range(0, len(centers), _CHUNK):
        c = centers[k : k + _CHUNK, None]
        w = weights[k : k + _CHUNK, None]
        out += (w * pref * np.exp(-((grid[None, :] - c) ** 2) * inv2s2)).sum(axis=0)
    return out
