"""Inverse problems and statistics: Lorentzian/Gaussian peak fitting, full
Hamiltonian-model fits of spectra and field maps, kernel density
estimation, the sqrt(mass) isotope-shift model, and contingency testing.

All fitters share one damped least-squares core (Levenberg-Marquardt style)
that solves one problem or a stack of k independent ones at once: each
problem keeps its own damping, acceptance, convergence and iteration count,
and every product, solve and inverse is taken per slice, so a problem gives
the same bits alone or in any stack.  `_fit` is the one place that calls
the core and reports: it names the parameters and their errors and gives
the parameters that a model sees only through |.| their reported sign.  The
closed-form peak models (single Lorentzian, 2:1:1 triplet, Gaussian) sit in
one table with their Jacobians and broadcast over a stack of traces, with
no separate path for one trace; the Lorentzian ones take their peaks from
`kernels._lorentzian`, the triplet's three from one call.  They are seeded
by one peak search per trace and fitted by one `_fit_peaks`, which fits the
traces of a list that share a grid length as one stack.  The full-model fit
is one problem with an analytic Jacobian, taken from the eigensystems its
residual has already solved (see `spectrum._line_slopes`).  Damping is
multiplied by 10 on a rejected step and divided by 10 on acceptance; after
a round in which any pending problem moved, J^T r, J^T J and the damping
diagonal are taken again for every pending problem.  A fit stops when the
relative cost change falls below 1e-10, when an accepted step is shorter
than machine epsilon times |p| (without that, a noise-free trace can keep
shrinking a residual of 1e-150 until the cap), or after MAX_ITERATIONS
(200) iterations.  Only improving steps are ever accepted, a start whose
residual is not finite is refused, and everything is deterministic for
identical inputs.  A fit needs more data points than free parameters,
counted before anything is solved.  One builder, `_map_model`, holds the
full model of a field map, its signal and analytic Jacobian: it solves all
rows as one stack per manifold, in the real frame, and reuses row tables
and reference lines within the fit.  `fit_full_model` is its input checks,
that builder and `_fit`.

Standard errors are 1-sigma values from the diagonal of (J^T J)^-1 scaled
by the residual variance at the optimum.
"""
import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from . import kernels
from .hamiltonian import EmitterModel, _no_overflow, a_ple, term_hyperfine, term_strain
from .spectrum import (SpectrumTrace, _line_slopes, _real_frame, _reference_line,
                       _solve_transitions, _unit_direction)

__all__ = [
    "FitResult",
    "TraceError",
    "EnsembleStats",
    "fit_lorentzians",
    "fit_gaussian",
    "fit_full_model",
    "kde",
    "isotope_shift_ratio",
    "chi2_independence",
    "ensemble_stats",
]

MAX_ITERATIONS = 200
COST_TOL = 1e-10
STEP_TOL = float(np.finfo(float).eps)
STACK_POINTS = 1 << 14  # grid points of the traces in one stacked peak fit, at most
KDE_GRID_POINTS = 512
_MAX_BINS = 10**7  # bins of an ensemble histogram, at most (as dataio.MAX_GRID_POINTS)
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
    # cond(J^T J) of the Jacobian at the optimum, where a fitter reports it
    # (full-model fits); not part of the report.
    cond_jtj: float | None = None

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

class TraceError(ValueError):
    """A fit error that belongs to one trace, or one problem of a stacked
    fit; index is its position in the list or stack."""

    def __init__(self, index, message):
        super().__init__(message)
        self.index = index


def _rowdot(a, b):
    # One BLAS dot per row of two (k, m) stacks: the bits of the 1-D a @ b.
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _per_slice(op, fallback, *stacks):
    """op over stacks of matrices at once; if a slice is singular, op slice
    by slice, with fallback for each singular one."""
    try:
        return op(*stacks)
    except np.linalg.LinAlgError:
        out = []
        for args in zip(*stacks):
            try:
                out.append(op(*args))
            except np.linalg.LinAlgError:
                out.append(fallback(*args))
        return np.array(out)


def _lstsq(a, b):
    return np.linalg.lstsq(a, b, rcond=None)[0]


def _solve_damped(jtj, diag, g, mu):
    """Steps solving (jtj + mu diag(diag)) step = -g for a stack of k
    problems, jtj (k, n, n) and diag, g (k, n); a singular slice takes least
    squares."""
    a = jtj.copy()
    n = a.shape[-1]
    a.reshape(len(a), n * n)[:, :: n + 1] += mu[:, None] * diag
    return _per_slice(np.linalg.solve, _lstsq, a, -g[..., None])[..., 0]


def _levenberg_marquardt(residual_fn, p0, *, jac):
    """Minimize sum(residual^2) of one problem or of k independent ones.

    With p0 of shape (n,), residual_fn(p) returns the (m,) residual and
    jac(p) its (m, n) Jacobian; the result is (p, cov, rms,
    converged, iters).  With p0 of shape (k, n), residual_fn(P, rows) and
    jac(P, rows) get the parameters of the problems at positions rows
    (anything that indexes a first axis) and return (k', m) and (k', m, n);
    they are called only for problems still pending, and the five results
    come back stacked.  Each problem keeps its own damping, acceptance,
    convergence and iteration count, and every product is taken per slice,
    so a problem's result does not depend on the stack it is solved in.
    After a round in which any pending problem moved, the Jacobian is taken
    for every pending problem: one that did not move gets the bits it had.
    The cap is the module's MAX_ITERATIONS, read at call time.  A start
    whose residual or Jacobian is not finite is refused with a TraceError
    naming the first such problem.
    """
    p = np.array(p0, dtype=float)
    single = p.ndim == 1
    if single:  # one problem is a stack of one
        p, fn, fn_jac = p[None], residual_fn, jac
        residual_fn = lambda q, rows: fn(q[0])[None]
        jac = lambda q, rows: fn_jac(q[0])[None]
    k, n_par = p.shape

    def normal_equations(p, r, rows):
        # J^T r and J^T J at p; the Jacobian itself is not kept.
        j = jac(p, rows)
        jt = j.transpose(0, 2, 1)
        return (jt @ r[:, :, None])[..., 0], jt @ j

    def refuse_non_finite(finite, what):
        if not finite.all():
            raise TraceError(int(np.argmin(finite)), f"the fit cannot start: its {what} at the "
                                                     "initial parameters is not finite")

    everything = slice(None)
    with np.errstate(all="ignore"):  # a non-finite start is refused just below
        r = residual_fn(p, everything)
        refuse_non_finite(np.isfinite(r).all(axis=1), "residual")
        g, jtj = normal_equations(p, r, everything)
    refuse_non_finite(np.isfinite(g).all(axis=1) & np.isfinite(jtj).all(axis=(1, 2)), "Jacobian")
    m = r.shape[1]

    # The loop works on the pending problems, at positions rows, and writes
    # each one's final state back here when it finishes.
    cost = _rowdot(r, r)
    p_out, r_out, cost_out = p.copy(), r.copy(), cost.copy()
    converged_out = np.zeros(k, dtype=bool)
    iters_out = np.zeros(k, dtype=int)
    rows = np.arange(k)
    sel = everything  # a view until one finishes; rows always, no accept fork: fits 9% slower
    mu = np.full(k, 1e-3)
    iters = np.ones(k, dtype=int)
    n_moved = 0  # pending problems whose p moved since the last refresh: none, at the start
    while rows.size:
        if n_moved:  # every pending problem; one that did not move gets the same bits
            g, jtj = normal_equations(p, r, sel)
        diag = np.maximum(jtj.reshape(-1, n_par * n_par)[:, :: n_par + 1], 1e-300)
        step = _solve_damped(jtj, diag, g, mu)
        trial = p + step
        r_trial = residual_fn(trial, sel)
        cost_trial = _rowdot(r_trial, r_trial)
        moved = cost_trial < cost
        mu = np.where(moved, np.maximum(mu / 10.0, 1e-14), mu * 10.0)
        # An improving step is taken, and converges on a small relative drop
        # or a rounding-size step.  Damping exhausted without an improving
        # step (mu only reaches 1e13 that way) is a gradient-limited optimum,
        # treated as converged too.
        converged = moved & (
            ((cost - cost_trial) / np.maximum(cost, 1e-300) < COST_TOL)
            | (np.sqrt(_rowdot(step, step)) <= STEP_TOL * np.sqrt(_rowdot(p, p)))
        ) | (mu > 1e12)
        n_moved = np.count_nonzero(moved)
        if n_moved == rows.size:  # accept fork; np.where always: stacked fits 4% slower
            p, r, cost = trial, r_trial, cost_trial
        elif n_moved:
            p = np.where(moved[:, None], trial, p)
            r = np.where(moved[:, None], r_trial, r)
            cost = np.where(moved, cost_trial, cost)
        done = converged | moved & (iters == MAX_ITERATIONS)
        n_done = np.count_nonzero(done)
        if n_done:
            at = rows[done]
            p_out[at], r_out[at], cost_out[at] = p[done], r[done], cost[done]
            converged_out[at], iters_out[at] = converged[done], iters[done]
            if n_done == rows.size:
                break
            keep = ~done
            rows, p, r, cost, mu, iters, moved, g, jtj = (
                a[keep] for a in (rows, p, r, cost, mu, iters, moved, g, jtj))
            n_moved = np.count_nonzero(moved)
            sel = rows
        iters += moved

    _, jtj = normal_equations(p_out, r_out, everything)
    variance = cost_out / max(m - n_par, 1)
    cov = _per_slice(np.linalg.inv, np.linalg.pinv, jtj) * variance[:, None, None]
    rms = np.sqrt(cost_out / m)
    if single:
        return p_out[0], cov[0], float(rms[0]), bool(converged_out[0]), int(iters_out[0])
    return p_out, cov, rms, converged_out, iters_out


def _report(model, names, seed, p, cov, rms, converged, iters) -> FitResult:
    params = dict(zip(names, p))
    for name, sign in _REPORTED_SIGNS.items():
        if name in params:
            params[name] = sign * abs(params[name])
    std = dict(zip(names, np.sqrt(np.clip(np.diag(cov), 0.0, None))))
    return FitResult(model=model, params=params, std_errs=std, residual_rms=float(rms),
                     converged=bool(converged), n_iterations=int(iters), seed=seed)


def _check_points(points, names):
    """A TraceError naming the first problem unless points data points
    outnumber the free parameters names."""
    if points <= len(names):
        raise TraceError(0, f"{points} data points cannot determine {len(names)} free "
                            "parameters; a fit needs more data points than free parameters")


def _fit(model, names, residual, p0, seed, jac):
    """Minimize residual from p0, one problem (n,) or a stack (k, n), and
    report the named parameters, their 1-sigma errors and the reported sign
    of each |.| parameter: one FitResult, or a list of k.  The callers check
    each problem's point count (`_check_points`)."""
    out = _levenberg_marquardt(residual, p0, jac=jac)
    if np.ndim(p0) == 1:
        return _report(model, names, seed, *out)
    p, cov, rms, converged, iters = out
    return [_report(model, names, seed, *row)
            for row in zip(p, cov, rms.tolist(), converged.tolist(), iters.tolist())]


# ---------------------------------------------------------------------------
# peak models

def _columns(p):
    """Each parameter of one problem (n,) or a stack (k, n) as a column that
    broadcasts over its grid (m,) or the stack's grids (k, m)."""
    return p.T[..., None]


def _sign(v):
    # d|v|/dv, taken as +1 at 0, the side a forward step from 0 sees
    return np.where(v >= 0, 1.0, -1.0)


def _peaks(centers, fwhm, f, slopes):
    """pi hw and kernels._lorentzian's unit-area profiles at centers, of half
    width hw = |fwhm|/2: the unit-height peak is pi hw L, its d/dcenter
    pi hw dL/dcenter and its d/dfwhm pi hw dL/dfwhm + (pi/2) L."""
    hw = 0.5 * abs(fwhm)
    return np.pi * hw, kernels._lorentzian(centers, f, hw, slopes)


def _model_single(p, f):
    f0, fwhm, amplitude, baseline = _columns(p)
    height, [peak] = _peaks(f0, fwhm, f, False)
    return baseline + amplitude * height * peak


def _jac_single(p, f):
    f0, fwhm, amplitude, baseline = _columns(p)
    height, (peak, d_center, d_fwhm) = _peaks(f0, fwhm, f, True)
    j = np.empty(peak.shape + (4,))  # each column written as soon as it is formed
    j[..., 0] = amplitude * height * d_center
    j[..., 1] = amplitude * _sign(fwhm) * (height * d_fwhm + 0.5 * np.pi * peak)
    j[..., 2] = height * peak
    j[..., 3] = 1.0
    return j


def _triplet_centers(f_ch1, aple, delta):
    # Heights locked 2:1:1; the two weak peaks straddle |a_ple| above the
    # strong one, split by |delta|.  One (3, ...) array: one kernel call.
    return np.stack((f_ch1, f_ch1 + abs(aple) - 0.5 * abs(delta),
                     f_ch1 + abs(aple) + 0.5 * abs(delta)))


def _model_triplet(p, f):
    f_ch1, aple, delta, fwhm, amplitude, baseline = _columns(p)
    height, [(l0, l1, l2)] = _peaks(_triplet_centers(f_ch1, aple, delta), fwhm, f, False)
    return baseline + amplitude * height * (l0 + 0.5 * l1 + 0.5 * l2)


def _jac_triplet(p, f):
    f_ch1, aple, delta, fwhm, amplitude, baseline = _columns(p)
    _, s_aple, s_delta, s_fwhm, _, _ = _columns(_sign(p))
    height, ((l0, l1, l2), (dc0, dc1, dc2), (dw0, dw1, dw2)) = _peaks(
        _triplet_centers(f_ch1, aple, delta), fwhm, f, True)
    peaks = l0 + 0.5 * (l1 + l2)
    j = np.empty(l0.shape + (6,))
    j[..., 0] = amplitude * height * (dc0 + 0.5 * (dc1 + dc2))
    j[..., 1] = amplitude * height * s_aple * 0.5 * (dc1 + dc2)
    j[..., 2] = amplitude * height * s_delta * 0.25 * (dc2 - dc1)
    j[..., 3] = amplitude * s_fwhm * (height * (dw0 + 0.5 * (dw1 + dw2)) + 0.5 * np.pi * peaks)
    j[..., 4] = height * peaks
    j[..., 5] = 1.0
    return j


def _model_gaussian(p, f):
    center, sigma, amplitude, baseline = _columns(p)
    return baseline + amplitude * np.exp(-((f - center) ** 2) / (2.0 * (sigma * sigma)))


def _jac_gaussian(p, f):
    center, sigma, amplitude, baseline = _columns(p)
    u = f - center
    s2 = sigma * sigma
    g = np.exp(-(u**2) / (2.0 * s2))
    d_center = amplitude * g * u / s2
    j = np.empty(g.shape + (4,))
    j[..., 0] = d_center
    j[..., 1] = d_center * u / sigma
    j[..., 2] = g
    j[..., 3] = 1.0
    return j


def _check_init(init, names, complete):
    """ValueError unless init is None or a dict of finite numbers (not bools)
    keyed by names, with a value for every name when complete."""
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
        if type(value) is bool or not (isinstance(value, numbers.Real)
                                       and _no_overflow(f"init {name!r}", math.isfinite, value)):
            raise ValueError(f"init {name!r} must be a finite number, got {value!r}")


def _xy(trace, index):
    """A trace's grid and signal as float arrays; a TraceError naming the
    trace's position unless it has them, real, 1-D and of one length."""
    try:
        x, y = np.asarray(trace.freq_mhz), np.asarray(trace.signal)
    except AttributeError:  # not a trace
        raise TraceError(index, f"trace {index}: expected a trace with freq_mhz and signal, got "
                                f"{type(trace).__name__}") from None
    try:
        if x.dtype.kind in "cSU" or y.dtype.kind in "cSU":  # complex or text
            raise TypeError
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    except (TypeError, ValueError):  # or an object array holding either
        raise TraceError(index, f"trace {index}: freq_mhz and signal must be real numbers, got "
                                f"{x.dtype} and {y.dtype}") from None
    if x.ndim != 1 or y.ndim != 1:
        raise TraceError(index, f"trace {index}: freq_mhz and signal must be 1-D, got shapes "
                                f"{x.shape} and {y.shape}")
    if x.shape != y.shape:
        raise TraceError(index, f"trace {index}: freq_mhz has {x.size} values but signal has "
                                f"{y.size}")
    return x, y


def _median(v):
    """np.median of a 1-D array, bit for bit, from one partition: NaN if v
    holds one, else the middle value, or the mean of the two middle values
    for even n, each summed onto +0.0 as np.mean sums."""
    n = v.size
    k = n // 2
    part = np.partition(v, (k - 1, k, -1) if n % 2 == 0 else (k, -1))
    if np.isnan(part[-1]):
        return math.nan
    return float(0.0 + part[k] if n % 2 else (0.0 + part[k - 1] + part[k]) / 2.0)


def _find_peaks(x, y):
    """Local maxima above baseline + 3x the MAD noise estimate, tallest
    first; ties broken toward lower frequency.  ValueError if there is none.

    The trace is lightly smoothed before peak seeking and candidates too
    close to an already-accepted taller peak are dropped, so single noise
    spikes on a peak flank do not seed spurious components.
    """
    baseline = _median(y)
    noise = 1.4826 * _median(np.abs(y - baseline))
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


def _seed_peaks(x, y) -> dict:
    """Starting values for every peak model's parameters, by peak seeking."""
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
    return {"f0": x[k], "f_ch1": x[k], "center": x[k], "a_ple": abs(aple0),
            "delta": abs(delta0), "fwhm": fwhm0, "sigma": fwhm0 / 2.3548,
            "amplitude": y[k] - baseline, "baseline": baseline}


def _fit_peaks(data, model, init, seed):
    """Fit a _PEAK_MODELS model to one trace, or to each trace of a list or
    tuple, seeded by peak seeking unless init is given.

    The traces of a list that share a grid length are fitted together, in
    stacks of at most STACK_POINTS grid points (and at least one trace).  An
    error of one trace is a TraceError naming its position in the list.
    """
    single = not isinstance(data, (list, tuple))
    traces = [data] if single else data
    names, fn, jac = _PEAK_MODELS[model]
    _check_init(init, names, complete=True)
    by_length = {}  # grid length: (position, grid, signal, start) of each such trace
    for i, trace in enumerate(traces):
        try:
            x, y = _xy(trace, i)
            _check_points(x.size, names)
            if np.ptp(y) == 0.0:
                raise ValueError("trace is degenerate (constant signal), nothing to fit")
            start = _seed_peaks(x, y) if init is None else init
        except ValueError as exc:
            raise TraceError(i, str(exc)) from None
        by_length.setdefault(x.size, []).append((i, x, y, [start[n] for n in names]))
    fits = [None] * len(traces)
    for size, same in by_length.items():
        per_stack = max(1, STACK_POINTS // size)
        for first in range(0, len(same), per_stack):
            at, xs, ys, starts = zip(*same[first:first + per_stack])
            x, y, p0 = np.array(xs), np.array(ys), np.array(starts, dtype=float)
            try:
                stack = _fit(model, names, lambda p, rows: fn(p, x[rows]) - y[rows], p0, seed,
                             jac=lambda p, rows: jac(p, x[rows]))
            except TraceError as exc:
                raise TraceError(at[exc.index], str(exc)) from None
            for i, res in zip(at, stack):
                fits[i] = res
    return fits[0] if single else fits


def fit_lorentzians(trace, model: str = "single", init: dict | None = None,
                    seed: int | None = None):
    """Fit one Lorentzian peak, or three with heights locked 2:1:1.

    trace is one trace, giving one FitResult, or a list of traces, giving a
    list of FitResults in the same order; each is the result the trace
    gives alone.  The triplet parameterization is {f_ch1, a_ple, delta,
    fwhm, amplitude, baseline} with peak centers f_ch1, f_ch1 + |a_ple| -/+
    |delta|/2.  The reported a_ple is negative by convention and delta
    non-negative.  Initial guesses are found by peak seeking unless given.
    """
    if model not in ("single", "triplet211"):
        raise ValueError(f"model must be 'single' or 'triplet211', got {model!r}")
    return _fit_peaks(trace, model, init, seed)


def fit_gaussian(trace, init: dict | None = None, seed: int | None = None):
    """Gaussian peak fit {center, sigma, amplitude, baseline} of one trace or
    of each trace of a list, as fit_lorentzians; sigma is reported
    non-negative."""
    return _fit_peaks(trace, "gaussian", init, seed)


# ---------------------------------------------------------------------------
# full-model fits

# The fit parameters that change the line tables: each one's value on the
# base emitter, the emitter set to a value, and what one unit of it adds to
# an emitter's (gnd, exc) Hamiltonians.
_TABLE_PARAMS = {
    "a_ple_scale": (lambda e: 1.0, EmitterModel.scaled_hyperfine,
                    lambda e: (term_hyperfine(e.gnd, e.nuclear_spin),
                               term_hyperfine(e.exc, e.nuclear_spin))),
    "strain_alpha": (lambda e: e.strain_alpha_ghz, lambda e, v: replace(e, strain_alpha_ghz=v),
                     lambda e: (term_strain(1.0, 0.0, e.nuclear_spin),) * 2),
}
FULL_MODEL_FREE = (*_TABLE_PARAMS, "fwhm", "amplitude", "freq_offset")


def _trace_field(meta, index):
    """The field of one map trace as 3 finite numbers (tesla): its meta's
    b_mag_tesla along b_direction (default z), else its b_tesla, else zero.
    Anything else is a TraceError naming the trace's position."""

    def finite(key, shape, what):
        value = meta[key]
        try:
            x = np.asarray(value, dtype=float)
        except (TypeError, ValueError, OverflowError):  # ragged, not numbers, too large
            x = None
        if x is None or x.shape != shape or not np.isfinite(x).all():
            raise TraceError(index, f"trace {index}: {key} must be {what}, got {value!r}")
        return x

    if "b_mag_tesla" in meta:
        try:
            d = _unit_direction(meta.get("b_direction", (0.0, 0.0, 1.0)))
        except ValueError as err:
            raise TraceError(index, f"trace {index}: b_direction {err}") from None
        return tuple(finite("b_mag_tesla", (), "a finite number") * d)
    if "b_tesla" in meta:
        return tuple(finite("b_tesla", (3,), "3 finite numbers").tolist())
    return (0.0, 0.0, 0.0)


def _map_model(emitter, fields, grids, free, fixed):
    """(signal, jacobian, last) of a map's rows at the real-frame fields, on
    the grids: the rows' model signal, concatenated, and its Jacobian at the
    values of free (fixed holds the others), and the last Jacobian taken."""
    # What one unit of each free table parameter adds to the Hamiltonians.
    moved = {name: _TABLE_PARAMS[name][2](emitter) for name in free if name in _TABLE_PARAMS}
    # The rows solved at each tuple of table values, tables with their
    # eigensystems and the reference slopes along moved, stay only while a
    # Jacobian may still be taken there: at the key of the last Jacobian and
    # at the last key a residual solved, which the core may accept next.
    # Reference lines and their slopes stay for each coupling-free emitter.
    solved = {}
    ref_lines = {}
    jac_key = jac_last = None

    def params(values):
        p = dict(fixed)
        p.update(zip(free, values))
        return p

    def rows_at(p):
        key = tuple(float(p[name]) for name in _TABLE_PARAMS)
        if key not in solved:
            at = emitter
            for v, (_, set_to, _) in zip(key, _TABLE_PARAMS.values()):
                at = set_to(at, v)
            bare = at.without_couplings()
            if bare not in ref_lines:
                ref_lines[bare] = _reference_line(bare, fields, None, None,
                                                  [_TABLE_PARAMS[n][2] for n in moved])
            for old in [k for k in solved if k != jac_key]:
                del solved[old]
            line, ref_slopes = ref_lines[bare]
            solved[key] = (_solve_transitions(at, fields, None, None, line), ref_slopes)
        return key, solved[key]

    def signal(values):
        p = params(values)
        _, ((tables, _), _) = rows_at(p)
        fwhm, offset = abs(p["fwhm"]), p["freq_offset"]
        unit = [kernels.lorentzian_sum(table.freq_mhz + offset, table.intensity, fwhm, grid)
                for grid, table in zip(grids, tables)]
        return np.concatenate([p["amplitude"] * sig for sig in unit])

    def jacobian(values):
        # Every column from the rows the residual at these values solved.
        nonlocal jac_key, jac_last
        p = params(values)
        jac_key, (rows, ref_slopes) = rows_at(p)
        perturbations = [moved[n] + (d_ref,) for n, d_ref in zip(moved, ref_slopes)]
        slopes = dict(zip(moved, _line_slopes(*rows, perturbations))) if moved else {}
        j = np.empty((sum(grid.size for grid in grids), len(free)))
        start = 0
        for k, (grid, table) in enumerate(zip(grids, rows[0])):
            # Each column's (peak, center, width) profile weights, per unit amplitude.
            terms = {"amplitude": (table.intensity,), "freq_offset": (None, table.intensity),
                     "fwhm": (None, None, _sign(p["fwhm"]) * table.intensity),
                     **{name: slopes[name][k] for name in slopes}}
            j[start:start + grid.size] = kernels.lorentzian_sums(
                table.freq_mhz + p["freq_offset"], abs(p["fwhm"]), grid,
                [terms[name] for name in free]).T
            start += grid.size
        j[:, [name != "amplitude" for name in free]] *= p["amplitude"]
        jac_last = j
        return j

    return signal, jacobian, lambda: jac_last


def fit_full_model(data, free, emitter: EmitterModel, init: dict | None = None,
                   seed: int | None = None) -> FitResult:
    """Least-squares fit of the Hamiltonian-model spectrum to data.

    data is one trace or a list of traces forming a field map; each trace
    needs freq_mhz, signal and (for maps) meta['b_tesla'] or
    meta['b_mag_tesla'] + meta['b_direction'].  Free parameters are a
    subset of {a_ple_scale, strain_alpha, fwhm, amplitude, freq_offset};
    a_ple_scale multiplies the hyperfine couplings of both manifolds by a
    single factor (a spectrum near the C line constrains only that
    combination).  The derived a_ple_mhz is included in the report.  The
    map's points are counted before anything is solved.

    The model is `_map_model`'s.  a_ple_scale and strain_alpha change the
    line tables; `_TABLE_PARAMS` says how.  It keeps two dicts: the rows
    solved at each tuple of their values, as one stack per manifold in the
    real frame (`spectrum._real_frame`, as `sweep_field` solves its rows),
    and the reference lines of each coupling-free emitter those values give.

    The Jacobian is analytic and solves nothing.  Each row takes all its
    columns from one `kernels.lorentzian_sums` pass, so the amplitude column
    is, bit for bit, the unit-amplitude model of a residual at the same
    values.  The a_ple_scale and strain_alpha columns take the eigensystems
    that residual solved: line shifts by Hellmann-Feynman, intensity
    changes by first-order eigenvector derivatives, and the reference
    line's slopes from its spin-neutral solve.  Degenerate levels (the
    J^2-pinned clusters of every B = 0 row) take degenerate perturbation
    theory: each cluster counts as if rotated into the eigenbasis of the
    perturbation projected onto it.  The result's cond_jtj is cond(J^T J)
    at the optimum; the report leaves it out.
    """
    traces = list(data) if isinstance(data, (list, tuple)) else [data]
    if not traces:
        raise ValueError("fit_full_model needs at least one trace")
    free = tuple(free)
    for k, name in enumerate(free):
        if name not in FULL_MODEL_FREE:
            raise ValueError(f"unknown free parameter {name!r}; choose from {FULL_MODEL_FREE}")
        if name in free[:k]:
            raise ValueError(f"free parameter {name!r} is given twice")
    if not free:
        raise ValueError("at least one free parameter is required")
    _check_init(init, FULL_MODEL_FREE, complete=False)

    fields, grids, signals = [], [], []
    for i, t in enumerate(traces):
        grid, y = _xy(t, i)
        grids.append(grid)
        signals.append(y)
        fields.append(_trace_field(getattr(t, "meta", {}) or {}, i))
    y_all = np.concatenate(signals)
    _check_points(y_all.size, free)

    defaults = {name: value(emitter) for name, (value, _, _) in _TABLE_PARAMS.items()}
    defaults.update(fwhm=50.0, amplitude=1.0, freq_offset=0.0)
    if init:
        defaults.update(init)
    fixed = {name: value for name, value in defaults.items() if name not in free}
    signal, jacobian, last = _map_model(emitter, _real_frame(fields), grids, free, fixed)
    p0 = np.array([defaults[n] for n in free], dtype=float)
    if "amplitude" in free and (init is None or "amplitude" not in init):
        # Deterministic scale seed: match the peak of the unit model.
        top = float(signal(p0).max())
        if top > 0:
            p0[free.index("amplitude")] = float(y_all.max()) / top
    res = _fit("full", free, lambda v: signal(v) - y_all, p0, seed, jac=jacobian)
    # The core takes its last Jacobian at the optimum, for the covariance.
    res = replace(res, cond_jtj=float(np.linalg.cond(last().T @ last())))
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
    values = _no_overflow("a kde value", np.asarray, values, float).reshape(-1)
    if values.size == 0:
        raise ValueError("kde needs at least one value")
    if not (_no_overflow("bandwidth", math.isfinite, bandwidth) and bandwidth > 0):
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
        if not (_no_overflow("atomic mass", math.isfinite, m) and m > 0):
            raise ValueError(f"atomic masses must be positive and finite, got {m}")
    denom = 1.0 / math.sqrt(m_c) - 1.0 / math.sqrt(m_d)
    if denom == 0.0:
        raise ValueError("reference isotope pair has zero mass difference")
    return (1.0 / math.sqrt(m_a) - 1.0 / math.sqrt(m_b)) / denom


def chi2_independence(table) -> dict:
    """Pearson chi-squared independence test of a 2x2 contingency table.

    table is ((with_a, without_a), (with_b, without_b)).  No continuity
    correction; one degree of freedom, so p = Q(1/2, chi2/2) = erfc(sqrt(chi2/2))
    (Abramowitz & Stegun 26.4).  Non-finite counts or chi2 are refused.
    """
    try:
        counts = np.asarray(table, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"contingency table {table!r} does not convert to floats") from None
    if counts.shape != (2, 2):
        raise ValueError(f"expected a 2x2 table, got shape {counts.shape}")
    if (counts < 0).any():
        raise ValueError("contingency counts must be non-negative")
    with np.errstate(all="ignore"):
        rows = counts.sum(axis=1)
        cols = counts.sum(axis=0)
        total = counts.sum()
        if (rows == 0).any() or (cols == 0).any():
            raise ValueError("contingency table has a zero marginal")
        expected = np.outer(rows, cols) / total
        chi2 = float(((counts - expected) ** 2 / expected).sum())
    if not math.isfinite(chi2):
        raise ValueError(f"contingency table {table!r} has no finite chi-squared")
    return {"chi2": chi2, "p_value": math.erfc(math.sqrt(chi2 / 2.0)), "dof": 1}


def _mean_sem(values):
    """n, mean and standard error of the mean of a non-empty 1-D array;
    ValueError if the mean or the error is not finite."""
    n = values.size
    with np.errstate(all="ignore"):  # overflow near the float range is refused below
        mean = float(values.mean())
        sem = 0.0 if n == 1 else float(values.std(ddof=1) / math.sqrt(n))
    for name, v in (("mean", mean), ("standard error of the mean", sem)):
        if not math.isfinite(v):
            raise ValueError(f"the {name} of the values is not finite ({v}); the values must "
                             "stay well inside the float range")
    return n, mean, sem


def ensemble_stats(values, bin_width: float) -> EnsembleStats:
    """Mean, standard error of the mean, and a zero-anchored histogram of
    at most 10**7 bins."""
    values = _no_overflow("an ensemble value", np.asarray, values, float).reshape(-1)
    if values.size == 0:
        raise ValueError("ensemble_stats needs at least one value")
    if not (_no_overflow("bin_width", math.isfinite, bin_width) and bin_width > 0):
        raise ValueError(f"bin_width must be positive and finite, got {bin_width}")
    n, mean, sem = _mean_sem(values)
    with np.errstate(all="ignore"):  # a count that is not finite is refused just below
        bins = np.ceil(values.max() / bin_width) - np.floor(values.min() / bin_width)
    if not bins <= _MAX_BINS:
        raise ValueError(f"bin_width {bin_width} gives more than the {_MAX_BINS} histogram "
                         "bins allowed over the values")
    lo = math.floor(values.min() / bin_width) * bin_width
    hi = math.ceil(values.max() / bin_width) * bin_width
    if hi <= lo:
        hi = lo + bin_width
    edges = np.arange(lo, hi + 0.5 * bin_width, bin_width)
    counts, edges = np.histogram(values, bins=edges)
    return EnsembleStats(n=n, mean=mean, std_err_of_mean=sem,
                         bin_edges=edges, counts=counts)
