"""Line-profile kernels: a comb of weighted lines broadened onto a grid.

This is the one synthesis kernel of the package, in NumPy.  `_line_sum`
holds the one chunk loop: lines are processed in chunks of `_CHUNK` so the
broadcast temporary stays small, and each profile passes only its chunk
expression.  Every call returns a fresh array.  `BACKEND` names the kernel
for run metadata and is always "python".
"""
import numpy as np

BACKEND = "python"

_CHUNK = 128


def _as_vec(x):
    a = np.ascontiguousarray(x, dtype=np.float64)
    if a.ndim != 1:
        raise ValueError("expected a 1-D array")
    return a


def _line_sum(centers, weights, grid, lines):
    """Sum over all lines of lines(c, w, g), with c and w (k, 1) columns of
    one chunk of lines and g the (1, m) grid."""
    centers = _as_vec(centers)
    weights = _as_vec(weights)
    grid = _as_vec(grid)
    if centers.shape != weights.shape:
        raise ValueError("centers and weights must have the same length")
    out = np.zeros_like(grid)
    g = grid[None, :]
    for k in range(0, len(centers), _CHUNK):
        out += lines(centers[k : k + _CHUNK, None], weights[k : k + _CHUNK, None], g).sum(axis=0)
    return out


def lorentzian_sum(centers, weights, fwhm: float, grid):
    """Sum of unit-area Lorentzians, weight[i] at centers[i], FWHM fwhm."""
    if not 0 < fwhm < np.inf:
        raise ValueError(f"fwhm must be positive and finite, got {fwhm}")
    hw = 0.5 * float(fwhm)
    pref = hw / np.pi
    return _line_sum(centers, weights, grid, lambda c, w, g: w * pref / ((g - c) ** 2 + hw * hw))


def gaussian_sum(centers, weights, sigma: float, grid):
    """Sum of unit-area Gaussians, weight[i] at centers[i], std dev sigma."""
    if not 0 < sigma < np.inf:
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    sigma = float(sigma)
    pref = 1.0 / (sigma * np.sqrt(2.0 * np.pi))
    inv2s2 = 1.0 / (2.0 * sigma * sigma)
    return _line_sum(centers, weights, grid,
                     lambda c, w, g: w * pref * np.exp(-((g - c) ** 2) * inv2s2))
