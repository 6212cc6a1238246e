"""Line-profile kernels: a comb of weighted lines broadened onto a grid.

The one synthesis kernel, in NumPy.  `_line_sum` holds the one chunk loop:
per chunk of `_CHUNK` lines it builds the unweighted profiles in place and
contracts them with their weights by `@`.  `lorentzian_sums` adds the
Lorentzian's derivatives along centre and FWHM from the same reciprocal
denominator.  `_lorentzian` is the package's one Lorentzian profile: it
also gives the closed-form peak models of `analysis` their peaks.  A line
whose squared detuning overflows adds exactly 0.
`BACKEND` names the kernel for run metadata and is always "python".
"""
import numpy as np

BACKEND = "python"

_CHUNK = 128


def _as_vec(x):
    a = np.ascontiguousarray(x, dtype=np.float64)
    if a.ndim != 1:
        raise ValueError("expected a 1-D array")
    return a


def _line_sum(centers, terms, grid, profiles):
    """Row i sums over all lines terms[i][j] @ profiles(c, g)[j], a None
    weight adding nothing; c is the (k, 1) column of one chunk of centers,
    g the (1, m) grid, and profiles returns the chunk's unweighted (k, m)
    profiles."""
    centers, grid = _as_vec(centers), _as_vec(grid)
    terms = [[w if w is None else _as_vec(w) for w in t] for t in terms]
    if any(w is not None and w.shape != centers.shape for t in terms for w in t):
        raise ValueError("centers and weights must have the same length")
    out = np.zeros((len(terms), grid.size))
    g = grid[None, :]
    with np.errstate(over="ignore"):  # an overflowing detuning gives the limit, 0
        for k in range(0, len(centers), _CHUNK):
            lines = slice(k, k + _CHUNK)
            chunk = profiles(centers[lines, None], g)
            for row, weights in zip(out, terms):
                for w, profile in zip(weights, chunk):
                    if w is not None:
                        row += w[lines] @ profile
    return out


def _lorentzian(c, g, hw, slopes):
    """(L,), or with slopes (L, dL/dcenter, dL/dfwhm), for L the unit-area
    Lorentzian of half width hw, all from one inverse denominator.  c, g and
    hw broadcast: the (k, 1) centres and (1, m) grid of `_line_sum`, or a
    peak fit's (3, k, 1) centres, (k, m) grids and (k, 1) half widths."""
    u = np.subtract(g, c)
    inv = np.square(u, out=None if slopes else u)
    inv += hw * hw
    np.reciprocal(inv, out=inv)
    if slopes:
        # dL/dfwhm = inv (1 - 2 hw^2 inv) / 2pi and dL/dcenter = (2 hw/pi) u inv^2
        width = np.multiply(inv, -hw * hw / np.pi)
        width += 0.5 / np.pi
        width *= inv
        u *= inv
        u *= inv
        u *= 2.0 * hw / np.pi
    inv *= hw / np.pi
    return (inv, u, width) if slopes else (inv,)


def lorentzian_sum(centers, weights, fwhm: float, grid):
    """Sum of unit-area Lorentzians, weight[i] at centers[i], FWHM fwhm."""
    return lorentzian_sums(centers, fwhm, grid, [(weights,)])[0]


def lorentzian_sums(centers, fwhm: float, grid, terms):
    """Row i is peak_i @ L + center_i @ dL/dcenter + width_i @ dL/dfwhm,
    for the (peak, center, width) weight vectors of terms[i] (None or left
    off: no term) and L the Lorentzian of `lorentzian_sum`, whose rows of
    peak weights alone it returns bit for bit, derivatives or not."""
    if not 0 < fwhm < np.inf:
        raise ValueError(f"fwhm must be positive and finite, got {fwhm}")
    hw = 0.5 * float(fwhm)
    if hw * hw == 0.0 or 1.0 / (hw * hw) == np.inf:  # the profile's peak is 1/hw^2 times hw/pi
        raise ValueError(f"fwhm {fwhm} is too small: 1/(fwhm/2)^2 overflows")
    slopes = any(len(t) > 1 for t in terms)
    return _line_sum(centers, terms, grid, lambda c, g: _lorentzian(c, g, hw, slopes))


def gaussian_sum(centers, weights, sigma: float, grid):
    """Sum of unit-area Gaussians, weight[i] at centers[i], std dev sigma."""
    if not 0 < sigma < np.inf:
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    sigma = float(sigma)
    if 2.0 * sigma * sigma == 0.0:  # the profile's exponent divides by it
        raise ValueError(f"sigma {sigma} is too small: 2 sigma^2 underflows to 0")

    def profile(c, g):
        u = np.subtract(g, c)
        np.square(u, out=u)
        u *= -1.0 / (2.0 * sigma * sigma)
        np.exp(u, out=u)
        u *= 1.0 / (sigma * np.sqrt(2.0 * np.pi))
        return (u,)

    return _line_sum(centers, [(weights,)], grid, profile)[0]
