"""Inverse problems and statistics: Lorentzian/Gaussian peak fitting, full
Hamiltonian-model fits of spectra and field maps, kernel density
estimation, the sqrt(mass) isotope-shift model, and contingency testing.

All fitters share one damped least-squares core (Levenberg-Marquardt
style), and `_fit` is the one place that calls it and reports: it names
the parameters and their errors and gives the parameters that a model sees
only through |.| their reported sign.  The closed-form peak models (single
Lorentzian, 2:1:1 triplet, Gaussian) sit in one table with their Jacobians,
are seeded by one peak search and fitted by one `_fit_peaks`; the
full-model fit has no closed-form Jacobian and gets a forward-difference
one with 1e-6 relative steps.
Damping is multiplied by 10 on a rejected step and divided by 10 on
acceptance.  A fit stops when the relative cost change falls below 1e-10,
when an accepted step is shorter than machine epsilon times |p| (without
that, a noise-free trace can keep shrinking a residual of 1e-150 until the
cap), or after 200 iterations.  Only improving steps are ever accepted, a
start whose residual is not finite is refused, and everything is
deterministic for identical inputs.  A full-model fit solves all rows of a
field map as one stack per manifold and reuses row tables and reference
lines within the fit.

Standard errors are 1-sigma values from the diagonal of (J^T J)^-1 scaled
by the residual variance at the optimum.
"""
import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import kernels
from .hamiltonian import EmitterModel, a_ple
from .spectrum import SpectrumTrace, _reference_line, _solve_transitions

__all__ = [
    "FitResult",
    "EnsembleStats",
    "fit_lorentzians",
    "fit_gaussian",
    "fit_full_model",
    "kde",
    "isotope_shift_ratio",
    "chi2_independence",
    "ensemble_stats",
    "gammq",
]

MAX_ITERATIONS = 200
COST_TOL = 1e-10
STEP_TOL = float(np.finfo(float).eps)
JACOBIAN_STEP = 1e-6
KDE_GRID_POINTS = 512
# Reported sign of each parameter that the models use only through |.|.
_REPORTED_SIGNS = {"fwhm": +1, "sigma": +1, "delta": +1, "a_ple": -1}

_trapezoid = getattr(np, "trapezoid", None) or np.trapz


@dataclass(frozen=True)
class FitResult:
    """Named parameter estimates with 1-sigma errors and fit diagnostics."""

    model: str
    params: dict
    std_errs: dict
    residual_rms: float
    converged: bool
    n_iterations: int
    seed: int | None = None

    def as_report(self) -> dict:
        return {
            "schema_version": "1",
            "model": self.model,
            "params": {k: float(v) for k, v in self.params.items()},
            "std_errs": {k: float(v) for k, v in self.std_errs.items()},
            "residual_rms": float(self.residual_rms),
            "converged": bool(self.converged),
            "n_iterations": int(self.n_iterations),
            "seed": self.seed,
        }


@dataclass(frozen=True)
class EnsembleStats:
    """Sample mean with its standard error and a zero-anchored histogram."""

    n: int
    mean: float
    std_err_of_mean: float
    bin_edges: np.ndarray
    counts: np.ndarray


# ---------------------------------------------------------------------------
# damped least squares

def _solve_damped(jtj, diag, g, mu):
    a = jtj + mu * np.diag(diag)
    try:
        return np.linalg.solve(a, -g)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(a, -g, rcond=None)[0]


def _levenberg_marquardt(residual_fn, p0, max_iter=MAX_ITERATIONS, jac=None):
    """Minimize sum(residual_fn(p)^2).  Returns (p, cov, rms, converged, iters).

    jac(p), when given, returns the (m, n) Jacobian of the residual and is
    used for every Jacobian, the covariance's included; without it each
    Jacobian takes one forward-difference residual call per parameter.
    """
    p = np.asarray(p0, dtype=float).copy()
    n_par = p.size
    with np.errstate(all="ignore"):  # a non-finite start is refused just below
        r = residual_fn(p)
    if not np.isfinite(r).all():
        raise ValueError("the fit cannot start: its residual at the initial parameters "
                         "is not finite")
    m = r.size
    cost = float(r @ r)
    mu = 1e-3
    converged = False
    it = 0

    def jacobian(p, r):
        if jac is not None:
            return jac(p)
        j = np.empty((m, n_par))
        for k in range(n_par):
            step = JACOBIAN_STEP * max(abs(p[k]), 1.0)
            q = p.copy()
            q[k] += step
            j[:, k] = (residual_fn(q) - r) / step
        return j

    j = jacobian(p, r)
    for it in range(1, max_iter + 1):
        g = j.T @ r
        jtj = j.T @ j
        diag = np.clip(np.diag(jtj), 1e-300, None)
        accepted = False
        while mu <= 1e12:
            delta = _solve_damped(jtj, diag, g, mu)
            trial = p + delta
            r_trial = residual_fn(trial)
            cost_trial = float(r_trial @ r_trial)
            if cost_trial < cost:
                rel_drop = (cost - cost_trial) / max(cost, 1e-300)
                tiny_step = np.linalg.norm(delta) <= STEP_TOL * np.linalg.norm(p)
                p, r, cost = trial, r_trial, cost_trial
                mu = max(mu / 10.0, 1e-14)
                accepted = True
                if rel_drop < COST_TOL or tiny_step:
                    converged = True
                break
            mu *= 10.0
        if not accepted:
            # Damping exhausted without an improving step: gradient-limited
            # optimum, treat as converged.
            converged = True
            break
        if converged:
            break
        j = jacobian(p, r)
    else:
        it = max_iter

    j = jacobian(p, r)
    jtj = j.T @ j
    dof = max(m - n_par, 1)
    variance = cost / dof
    try:
        cov = np.linalg.inv(jtj) * variance
    except np.linalg.LinAlgError:
        cov = np.linalg.pinv(jtj) * variance
    rms = math.sqrt(cost / m)
    return p, cov, rms, converged, it


def _fit(model, names, residual, p0, seed, jac=None) -> FitResult:
    """Minimize residual from p0 and report the named parameters, their
    1-sigma errors and the reported sign of each |.| parameter."""
    p, cov, rms, converged, iters = _levenberg_marquardt(residual, p0, jac=jac)
    params = dict(zip(names, p))
    for name, sign in _REPORTED_SIGNS.items():
        if name in params:
            params[name] = sign * abs(params[name])
    std = dict(zip(names, np.sqrt(np.clip(np.diag(cov), 0.0, None))))
    return FitResult(model=model, params=params, std_errs=std, residual_rms=rms,
                     converged=converged, n_iterations=iters, seed=seed)


# ---------------------------------------------------------------------------
# peak models

def _lorentz_peak(f, center, fwhm):
    hw2 = (0.5 * fwhm) ** 2
    return hw2 / ((f - center) ** 2 + hw2)


def _lorentz_terms(f, center, fwhm):
    """_lorentz_peak L with dL/dcenter and dL/dfwhm, from one denominator."""
    hw2 = (0.5 * fwhm) ** 2
    u = f - center
    inv = 1.0 / (u * u + hw2)
    peak = hw2 * inv
    return peak, 2.0 * u * peak * inv, 0.5 * fwhm * (1.0 - peak) * inv


def _sign(v):
    # d|v|/dv, taken as +1 at 0 like the forward-difference step
    return 1.0 if v >= 0 else -1.0


def _model_single(p, f):
    f0, fwhm, amplitude, baseline = p
    return baseline + amplitude * _lorentz_peak(f, f0, abs(fwhm))


def _jac_single(p, f):
    f0, fwhm, amplitude, baseline = p
    peak, d_center, d_fwhm = _lorentz_terms(f, f0, abs(fwhm))
    return np.column_stack((amplitude * d_center, amplitude * _sign(fwhm) * d_fwhm, peak,
                            np.ones_like(f)))


def _triplet_centers(f_ch1, aple, delta):
    # Heights locked 2:1:1; the two weak peaks straddle |a_ple| above the
    # strong one, split by |delta|.
    return (f_ch1, f_ch1 + abs(aple) - 0.5 * abs(delta), f_ch1 + abs(aple) + 0.5 * abs(delta))


def _model_triplet(p, f):
    f_ch1, aple, delta, fwhm, amplitude, baseline = p
    c0, c1, c2 = _triplet_centers(f_ch1, aple, delta)
    w = abs(fwhm)
    return baseline + amplitude * (
        _lorentz_peak(f, c0, w)
        + 0.5 * _lorentz_peak(f, c1, w)
        + 0.5 * _lorentz_peak(f, c2, w)
    )


def _jac_triplet(p, f):
    f_ch1, aple, delta, fwhm, amplitude, baseline = p
    w = abs(fwhm)
    (l0, dc0, dw0), (l1, dc1, dw1), (l2, dc2, dw2) = (
        _lorentz_terms(f, c, w) for c in _triplet_centers(f_ch1, aple, delta))
    return np.column_stack((
        amplitude * (dc0 + 0.5 * (dc1 + dc2)),
        amplitude * _sign(aple) * 0.5 * (dc1 + dc2),
        amplitude * _sign(delta) * 0.25 * (dc2 - dc1),
        amplitude * _sign(fwhm) * (dw0 + 0.5 * (dw1 + dw2)),
        l0 + 0.5 * (l1 + l2),
        np.ones_like(f),
    ))


def _model_gaussian(p, f):
    center, sigma, amplitude, baseline = p
    return baseline + amplitude * np.exp(-((f - center) ** 2) / (2.0 * sigma**2))


def _jac_gaussian(p, f):
    center, sigma, amplitude, baseline = p
    u = f - center
    g = np.exp(-(u**2) / (2.0 * sigma**2))
    d_center = amplitude * g * u / sigma**2
    return np.column_stack((d_center, d_center * u / sigma, g, np.ones_like(f)))


def _check_init(init, names, complete):
    """ValueError unless init is None or a dict of finite numbers keyed by
    names, with a value for every name when complete."""
    if init is None:
        return
    if not isinstance(init, dict):
        raise ValueError(f"init must be a dict of initial values, got {type(init).__name__}")
    unknown = [k for k in init if k not in names]
    if unknown:
        raise ValueError(f"unknown init parameter(s) {', '.join(map(repr, unknown))}; "
                         f"choose from {', '.join(names)}")
    missing = [n for n in names if n not in init] if complete else []
    if missing:
        raise ValueError(f"init needs a value for every parameter; missing {', '.join(missing)}")
    for name, value in init.items():
        if not (isinstance(value, numbers.Real) and math.isfinite(value)):
            raise ValueError(f"init {name!r} must be a finite number, got {value!r}")


def _get_xy(trace):
    x = np.asarray(trace.freq_mhz, dtype=float)
    y = np.asarray(trace.signal, dtype=float)
    if np.ptp(y) == 0.0:
        raise ValueError("trace is degenerate (constant signal), nothing to fit")
    return x, y


def _find_peaks(x, y):
    """Local maxima above baseline + 3x the MAD noise estimate, tallest
    first; ties broken toward lower frequency.  ValueError if there is none.

    The trace is lightly smoothed before peak seeking and candidates too
    close to an already-accepted taller peak are dropped, so single noise
    spikes on a peak flank do not seed spurious components.
    """
    baseline = float(np.median(y))
    noise = 1.4826 * float(np.median(np.abs(y - baseline)))
    threshold = baseline + 3.0 * noise
    width = max(3, min(9, len(y) // 50) | 1)
    kernel = np.full(width, 1.0 / width)
    smooth = np.convolve(y, kernel, mode="same")
    inner = np.arange(1, len(y) - 1)
    is_max = ((smooth[inner] > smooth[inner - 1]) & (smooth[inner] >= smooth[inner + 1])
              & (y[inner] > threshold))
    idx = (np.flatnonzero(is_max) + 1).tolist()
    idx.sort(key=lambda k: (-smooth[k], x[k]))
    if not idx:
        raise ValueError("no peak found above the noise floor to seed the fit")
    min_sep = 0.5 * _width_at_half(x, smooth, idx[0], baseline)
    accepted = []
    for k in idx:
        if all(abs(x[k] - x[j]) >= min_sep for j in accepted):
            accepted.append(k)
    return accepted, baseline


def _width_at_half(x, y, k, baseline):
    half = baseline + 0.5 * (y[k] - baseline)
    lo = k
    while lo > 0 and y[lo] > half:
        lo -= 1
    hi = k
    while hi < len(y) - 1 and y[hi] > half:
        hi += 1
    width = x[hi] - x[lo]
    return width if width > 0 else (x[1] - x[0]) * 2.0


# Parameter names, model function and Jacobian of each closed-form peak model.
_PEAK_MODELS = {
    "single": (("f0", "fwhm", "amplitude", "baseline"), _model_single, _jac_single),
    "triplet211": (("f_ch1", "a_ple", "delta", "fwhm", "amplitude", "baseline"), _model_triplet,
                   _jac_triplet),
    "gaussian": (("center", "sigma", "amplitude", "baseline"), _model_gaussian, _jac_gaussian),
}


def _fit_peaks(trace, model, init, seed) -> FitResult:
    """Fit a _PEAK_MODELS model, seeded by peak seeking unless init is given."""
    x, y = _get_xy(trace)
    names, fn, jac = _PEAK_MODELS[model]
    _check_init(init, names, complete=True)
    if init is None:
        peaks, baseline = _find_peaks(x, y)
        k = peaks[0]
        fwhm0 = _width_at_half(x, y, k, baseline)
        if len(peaks) >= 3:
            side = sorted(x[j] for j in peaks[1:3])
            aple0, delta0 = 0.5 * (side[0] + side[1]) - x[k], side[1] - side[0]
        elif len(peaks) == 2:
            aple0, delta0 = x[peaks[1]] - x[k], fwhm0
        else:
            aple0, delta0 = 3.0 * fwhm0, fwhm0
        # f0 and center seed a single peak, f_ch1 the strong peak of the triplet.
        init = {"f0": x[k], "f_ch1": x[k], "center": x[k], "a_ple": abs(aple0),
                "delta": abs(delta0), "fwhm": fwhm0, "sigma": fwhm0 / 2.3548,
                "amplitude": y[k] - baseline, "baseline": baseline}
    p0 = np.array([init[n] for n in names], dtype=float)
    return _fit(model, names, lambda p: fn(p, x) - y, p0, seed, jac=lambda p: jac(p, x))


def fit_lorentzians(trace, model: str = "single", init: dict | None = None,
                    seed: int | None = None) -> FitResult:
    """Fit one Lorentzian peak, or three with heights locked 2:1:1.

    The triplet parameterization is {f_ch1, a_ple, delta, fwhm, amplitude,
    baseline} with peak centers f_ch1, f_ch1 + |a_ple| -/+ |delta|/2.  The
    reported a_ple is negative by convention and delta non-negative.
    Initial guesses are found by peak seeking unless given.
    """
    if model not in ("single", "triplet211"):
        raise ValueError(f"model must be 'single' or 'triplet211', got {model!r}")
    return _fit_peaks(trace, model, init, seed)


def fit_gaussian(trace, init: dict | None = None, seed: int | None = None) -> FitResult:
    """Gaussian peak fit {center, sigma, amplitude, baseline}; sigma is
    reported non-negative."""
    return _fit_peaks(trace, "gaussian", init, seed)


# ---------------------------------------------------------------------------
# full-model fits

FULL_MODEL_FREE = ("a_ple_scale", "strain_alpha", "fwhm", "amplitude", "freq_offset")


def fit_full_model(data, free, emitter: EmitterModel, init: dict | None = None,
                   seed: int | None = None) -> FitResult:
    """Least-squares fit of the Hamiltonian-model spectrum to data.

    data is one trace or a list of traces forming a field map; each trace
    needs freq_mhz, signal and (for maps) meta['b_tesla'] or
    meta['b_mag_tesla'] + meta['b_direction'].  Free parameters are a
    subset of {a_ple_scale, strain_alpha, fwhm, amplitude, freq_offset};
    a_ple_scale multiplies the hyperfine couplings of both manifolds by a
    single factor (a spectrum near the C line constrains only that
    combination).  The derived a_ple_mhz is included in the report.

    A fit keeps two dicts while it runs: the row tables of each
    (a_ple_scale, strain_alpha), all rows solved as one stack per manifold,
    and the coupling-free reference lines of each strain_alpha, the only
    fitted parameter they depend on.
    """
    traces = list(data) if isinstance(data, (list, tuple)) else [data]
    if not traces:
        raise ValueError("fit_full_model needs at least one trace")
    free = tuple(free)
    for name in free:
        if name not in FULL_MODEL_FREE:
            raise ValueError(f"unknown free parameter {name!r}; choose from {FULL_MODEL_FREE}")
    if not free:
        raise ValueError("at least one free parameter is required")
    _check_init(init, FULL_MODEL_FREE, complete=False)

    fields = []
    for t in traces:
        meta = getattr(t, "meta", {}) or {}
        if "b_tesla" in meta and "b_mag_tesla" not in meta:
            fields.append(tuple(meta["b_tesla"]))
        elif "b_mag_tesla" in meta:
            d = np.asarray(meta.get("b_direction", (0.0, 0.0, 1.0)), dtype=float)
            fields.append(tuple(meta["b_mag_tesla"] * d))
        else:
            fields.append((0.0, 0.0, 0.0))

    defaults = {
        "a_ple_scale": 1.0,
        "strain_alpha": emitter.strain_alpha_ghz,
        "fwhm": 50.0,
        "amplitude": 1.0,
        "freq_offset": 0.0,
    }
    if init:
        defaults.update(init)

    y_all = np.concatenate([np.asarray(t.signal, dtype=float) for t in traces])

    # Only a_ple_scale and strain_alpha change the line tables; the other
    # parameters (and the Jacobian columns that step them) reuse them.
    row_tables = {}
    ref_lines = {}

    def tables_at(scale, alpha):
        key = (float(scale), float(alpha))
        if key not in row_tables:
            if key[1] not in ref_lines:
                ref_lines[key[1]] = _reference_line(emitter, fields, alpha, None)
            solved = _solve_transitions(emitter.scaled_hyperfine(scale), fields, alpha, None,
                                        ref_lines[key[1]])
            row_tables[key] = [table for table, _, _ in solved]
        return row_tables[key]

    def model_signal(values):
        p = dict(defaults)
        p.update(zip(free, values))
        out = []
        for t, table in zip(traces, tables_at(p["a_ple_scale"], p["strain_alpha"])):
            grid = np.asarray(t.freq_mhz, dtype=float)
            sig = kernels.lorentzian_sum(
                table.freq_mhz + p["freq_offset"], table.intensity, abs(p["fwhm"]), grid
            )
            out.append(p["amplitude"] * sig)
        return np.concatenate(out)

    if "amplitude" in free and (init is None or "amplitude" not in init):
        # Deterministic scale seed: match the peak of the unit model.
        probe = model_signal([defaults[n] for n in free])
        top = float(probe.max())
        if top > 0:
            defaults["amplitude"] = float(y_all.max()) / top

    p0 = np.array([defaults[n] for n in free], dtype=float)
    res = _fit("full", free, lambda v: model_signal(v) - y_all, p0, seed)
    scale = res.params.get("a_ple_scale", defaults["a_ple_scale"])
    res.params["a_ple_mhz"] = scale * a_ple(emitter)
    if "a_ple_scale" in res.std_errs:
        res.std_errs["a_ple_mhz"] = res.std_errs["a_ple_scale"] * abs(a_ple(emitter))
    return res


# ---------------------------------------------------------------------------
# density estimation and ensemble statistics

def kde(values, bandwidth: float) -> SpectrumTrace:
    """Gaussian kernel density estimate on an automatic grid.

    The grid of KDE_GRID_POINTS points spans the data plus three bandwidths
    on each side and the density is normalized to unit area on that grid.
    """
    values = np.asarray(values, dtype=float).reshape(-1)
    if values.size == 0:
        raise ValueError("kde needs at least one value")
    if not 0 < bandwidth < math.inf:
        raise ValueError(f"bandwidth must be positive and finite, got {bandwidth}")
    with np.errstate(all="ignore"):  # overflow near the float range is refused below
        lo = values.min() - 3.0 * bandwidth
        hi = values.max() + 3.0 * bandwidth
        grid = np.linspace(lo, hi, KDE_GRID_POINTS)
        weights = np.full(values.size, 1.0 / values.size)
        density = kernels.gaussian_sum(values, weights, float(bandwidth), grid)
        density = density / _trapezoid(density, grid)
    if not np.isfinite(density).all():
        raise ValueError(f"kde density is not finite with bandwidth {bandwidth}; the values "
                         "and bandwidth must stay well inside the float range")
    return SpectrumTrace(freq_mhz=grid, signal=density,
                         meta={"bandwidth": float(bandwidth), "n": int(values.size)})


def isotope_shift_ratio(m_a, m_b, m_c, m_d) -> float:
    """Zero-point-energy model ratio of line shifts between isotope pairs.

    Under the sqrt(mass) vibrational model the shift of pair (a, b)
    relative to pair (c, d) is (1/sqrt(m_a) - 1/sqrt(m_b)) /
    (1/sqrt(m_c) - 1/sqrt(m_d)).
    """
    for m in (m_a, m_b, m_c, m_d):
        if m <= 0:
            raise ValueError(f"atomic masses must be positive, got {m}")
    denom = 1.0 / math.sqrt(m_c) - 1.0 / math.sqrt(m_d)
    if denom == 0.0:
        raise ValueError("reference isotope pair has zero mass difference")
    return (1.0 / math.sqrt(m_a) - 1.0 / math.sqrt(m_b)) / denom


def _gamma_series(a, x):
    ap = a
    total = 1.0 / a
    term = total
    for _ in range(10000):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * 1e-16:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _gamma_cf(a, x):
    # Modified Lentz continued fraction for the upper incomplete gamma.
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for n in range(1, 10000):
        an = -n * (n - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return h * math.exp(-x + a * math.log(x) - math.lgamma(a))


def gammq(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x); chi-squared survival
    function is Q(k/2, x/2)."""
    if a <= 0 or x < 0:
        raise ValueError("gammq requires a > 0 and x >= 0")
    if x == 0.0:
        return 1.0
    if x < a + 1.0:
        return 1.0 - _gamma_series(a, x)
    return _gamma_cf(a, x)


def chi2_independence(table) -> dict:
    """Pearson chi-squared independence test of a 2x2 contingency table.

    table is ((with_a, without_a), (with_b, without_b)).  No continuity
    correction; one degree of freedom; the p-value comes from the
    implemented survival function.
    """
    counts = np.asarray(table, dtype=float)
    if counts.shape != (2, 2):
        raise ValueError(f"expected a 2x2 table, got shape {counts.shape}")
    if (counts < 0).any():
        raise ValueError("contingency counts must be non-negative")
    rows = counts.sum(axis=1)
    cols = counts.sum(axis=0)
    total = counts.sum()
    if (rows == 0).any() or (cols == 0).any():
        raise ValueError("contingency table has a zero marginal")
    expected = np.outer(rows, cols) / total
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    return {"chi2": chi2, "p_value": gammq(0.5, chi2 / 2.0), "dof": 1}


def ensemble_stats(values, bin_width: float) -> EnsembleStats:
    """Mean, standard error of the mean, and a zero-anchored histogram."""
    values = np.asarray(values, dtype=float).reshape(-1)
    if values.size == 0:
        raise ValueError("ensemble_stats needs at least one value")
    if not 0 < bin_width < math.inf:
        raise ValueError(f"bin_width must be positive and finite, got {bin_width}")
    n = values.size
    mean = float(values.mean())
    sem = 0.0 if n == 1 else float(values.std(ddof=1) / math.sqrt(n))
    lo = math.floor(values.min() / bin_width) * bin_width
    hi = math.ceil(values.max() / bin_width) * bin_width
    if hi <= lo:
        hi = lo + bin_width
    edges = np.arange(lo, hi + 0.5 * bin_width, bin_width)
    counts, edges = np.histogram(values, bins=edges)
    return EnsembleStats(n=n, mean=mean, std_err_of_mean=sem,
                         bin_edges=edges, counts=counts)
