import dataclasses
import math
import types
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from g4vspec import analysis, kernels, spectrum
from g4vspec.analysis import (
    _levenberg_marquardt,
    chi2_independence,
    ensemble_stats,
    fit_full_model,
    fit_gaussian,
    fit_lorentzians,
    isotope_shift_ratio,
    kde,
)
from g4vspec.hamiltonian import a_ple, build_hamiltonian, registry_lookup
from g4vspec.spectrum import SpectrumTrace, _reference_line, sweep_field

from conftest import _bits, central_difference, lorentz_peak, solve_inputs


def make_triplet(grid, f_ch1, aple, delta, fwhm, amplitude, baseline=0.0):
    return baseline + amplitude * (
        lorentz_peak(grid, f_ch1, fwhm)
        + 0.5 * lorentz_peak(grid, f_ch1 + abs(aple) - delta / 2, fwhm)
        + 0.5 * lorentz_peak(grid, f_ch1 + abs(aple) + delta / 2, fwhm)
    )


# --- single Lorentzian ---

def test_single_lorentzian_exact_recovery():
    grid = np.arange(-300.0, 300.5, 0.5)
    truth = dict(f0=12.0, fwhm=40.0, amplitude=3.0, baseline=0.2)
    signal = truth["baseline"] + truth["amplitude"] * lorentz_peak(grid, truth["f0"], truth["fwhm"])
    res = fit_lorentzians(SpectrumTrace(grid, signal), model="single")
    assert res.converged
    for k, v in truth.items():
        assert res.params[k] == pytest.approx(v, rel=1e-6, abs=1e-6)
    assert res.residual_rms < 1e-8


def test_degenerate_trace_rejected():
    grid = np.linspace(0, 1, 10)
    with pytest.raises(ValueError, match="degenerate"):
        fit_lorentzians(SpectrumTrace(grid, np.ones(10)), model="single")


def test_unknown_model_rejected():
    grid = np.linspace(0, 1, 10)
    with pytest.raises(ValueError, match="model"):
        fit_lorentzians(SpectrumTrace(grid, np.sin(grid)), model="doublet")


def test_lorentzian_fitter_refuses_the_gaussian_model():
    grid = np.linspace(-10, 10, 41)
    with pytest.raises(ValueError, match="model must be 'single' or 'triplet211', got 'gaussian'"):
        fit_lorentzians(SpectrumTrace(grid, np.exp(-grid**2)), model="gaussian")


# --- 2:1:1 triplet ---

def test_triplet_noisy_round_trip():
    grid = np.arange(-400.0, 900.0, 2.0)
    clean = make_triplet(grid, f_ch1=-150.0, aple=-445.0, delta=150.0, fwhm=35.0, amplitude=1.0)
    rng = np.random.Generator(np.random.PCG64(42))
    noisy = clean + rng.normal(0.0, 0.05 * clean.max(), clean.size)
    res = fit_lorentzians(SpectrumTrace(grid, noisy), model="triplet211", seed=42)
    assert res.converged
    assert abs(res.params["a_ple"]) == pytest.approx(445.0, rel=0.02)
    assert res.params["delta"] == pytest.approx(150.0, rel=0.05)
    assert res.params["a_ple"] < 0       # sign convention
    assert res.params["delta"] >= 0
    assert res.seed == 42


def test_a_trace_with_two_peaks_seeds_the_triplet_from_both():
    """A triplet whose side pair (delta = 10 MHz) merges into one peak shows
    two peaks above the noise floor: a_ple is seeded with their offset and
    delta with the seeded width, and the triplet fit from that seed
    converges on the triplet."""
    grid = np.arange(-150.0, 250.0, 1.0)
    rng = np.random.Generator(np.random.PCG64(3))
    signal = make_triplet(grid, 0.0, -100.0, 10.0, 30.0, 1.0, baseline=0.05)
    signal += rng.normal(0.0, 0.01, grid.size)
    peaks, _ = analysis._find_peaks(grid, signal)
    assert grid[peaks].tolist() == [0.0, 100.0]
    seed = analysis._seed_peaks(grid, signal)
    assert seed["a_ple"] == 100.0
    assert seed["delta"] == seed["fwhm"] == pytest.approx(30.0, abs=2.0)
    res = fit_lorentzians(SpectrumTrace(grid, signal), model="triplet211")
    assert res.converged
    assert res.params["a_ple"] == pytest.approx(-100.0, abs=1.0)
    assert res.params["delta"] == pytest.approx(10.0, abs=2.0)
    assert res.params["fwhm"] == pytest.approx(30.0, abs=1.0)


def test_triplet_residual_not_above_initial():
    grid = np.arange(-300.0, 700.0, 2.0)
    clean = make_triplet(grid, -100.0, -345.0, 120.0, 35.0, 1.0)
    init = dict(f_ch1=-80.0, a_ple=300.0, delta=100.0, fwhm=50.0, amplitude=0.8, baseline=0.05)
    start_model = make_triplet(grid, -80.0, -300.0, 100.0, 50.0, 0.8, 0.05)
    start_rms = math.sqrt(np.mean((start_model - clean) ** 2))
    res = fit_lorentzians(SpectrumTrace(grid, clean), model="triplet211", init=init)
    assert res.residual_rms <= start_rms


def test_fit_determinism_bitwise():
    grid = np.arange(-400.0, 900.0, 2.0)
    rng = np.random.Generator(np.random.PCG64(7))
    sig = make_triplet(grid, -150.0, -445.0, 150.0, 35.0, 1.0)
    sig += rng.normal(0.0, 0.03, sig.size)
    a = fit_lorentzians(SpectrumTrace(grid, sig), model="triplet211")
    b = fit_lorentzians(SpectrumTrace(grid, sig), model="triplet211")
    assert a.params == b.params
    assert a.std_errs == b.std_errs
    assert a.residual_rms == b.residual_rms


def test_ensemble_mean_aple_recovered_from_batch():
    # ~100 spin-1/2 emitters with |a_ple| jitter, fitted one by one
    rng = np.random.Generator(np.random.PCG64(11))
    grid = np.arange(-500.0, 1100.0, 4.0)
    truth_mean, jitter_sd, n = 484.0, 40.0, 100
    fitted = []
    truths = []
    for _ in range(n):
        aple_k = truth_mean + rng.normal(0.0, jitter_sd)
        truths.append(aple_k)
        sig = make_triplet(grid, -160.0, -aple_k, 190.0, 35.0, 1.0)
        sig = sig + rng.normal(0.0, 0.05 * sig.max(), sig.size)
        res = fit_lorentzians(SpectrumTrace(grid, sig), model="triplet211")
        fitted.append(abs(res.params["a_ple"]))
    stats = ensemble_stats(np.asarray(fitted), bin_width=10.0)
    assert stats.std_err_of_mean < 6.0
    assert abs(stats.mean - np.mean(truths)) < stats.std_err_of_mean


# --- Gaussian fits ---

def test_gaussian_exact_recovery():
    grid = np.linspace(-40.0, 60.0, 401)
    truth = dict(center=7.5, sigma=6.0, amplitude=2.0, baseline=0.1)
    sig = truth["baseline"] + truth["amplitude"] * np.exp(
        -((grid - truth["center"]) ** 2) / (2 * truth["sigma"] ** 2)
    )
    res = fit_gaussian(SpectrumTrace(grid, sig))
    for k, v in truth.items():
        assert res.params[k] == pytest.approx(v, rel=1e-6, abs=1e-6)


def test_gaussian_ensembles_isotope_shift_83ghz():
    # centers in GHz; each trace fitted, ensemble means differenced
    rng = np.random.Generator(np.random.PCG64(2))
    grid = np.linspace(-120.0, 220.0, 341)

    def centers_of(mu, n):
        out = []
        for _ in range(n):
            c = mu + rng.normal(0.0, 20.0)
            sig = 1.3 * np.exp(-((grid - c) ** 2) / (2 * 4.0**2))
            out.append(fit_gaussian(SpectrumTrace(grid, sig)).params["center"])
        return np.asarray(out)

    a = ensemble_stats(centers_of(0.0, 40), bin_width=10.0)
    b = ensemble_stats(centers_of(83.0, 40), bin_width=10.0)
    combined = math.hypot(a.std_err_of_mean, b.std_err_of_mean)
    assert abs((b.mean - a.mean) - 83.0) < combined


def test_value_ensembles_small_shift_wide_spread():
    rng = np.random.Generator(np.random.PCG64(2))
    a = ensemble_stats(rng.normal(0.0, 30.0, 37), bin_width=10.0)
    b = ensemble_stats(rng.normal(13.0, 30.0, 37), bin_width=10.0)
    combined = math.hypot(a.std_err_of_mean, b.std_err_of_mean)
    assert combined == pytest.approx(7.0, abs=1.5)
    assert abs((b.mean - a.mean) - 13.0) < combined


# --- full-model fits ---

def test_full_model_noise_free_self_recovery():
    base = registry_lookup("117Sn", strain_alpha_ghz=55.0)
    direction = (0.0, 0.0, 1.0)
    grid = np.arange(-700.0, 700.0, 4.0)
    fields = [0.0, 0.01, 0.02, 0.03]
    truth_scale, truth_fwhm, truth_amp = 1.33, 120.0, 2.0
    gen = base.scaled_hyperfine(truth_scale)
    traces = sweep_field(gen, direction, fields, truth_fwhm, grid)
    data = [SpectrumTrace(t.freq_mhz, truth_amp * t.signal, t.meta) for t in traces]
    res = fit_full_model(
        data, ("a_ple_scale", "fwhm", "amplitude"), base,
        init={"a_ple_scale": 1.0, "fwhm": 90.0},
    )
    assert res.converged
    assert res.params["a_ple_scale"] == pytest.approx(truth_scale, rel=1e-4)
    assert res.params["fwhm"] == pytest.approx(truth_fwhm, rel=1e-4)
    assert res.params["amplitude"] == pytest.approx(truth_amp, rel=1e-4)
    assert res.params["a_ple_mhz"] == pytest.approx(truth_scale * a_ple(base), rel=1e-4)


def test_triplet_noise_free_round_trip_tight():
    grid = np.arange(-400.0, 900.0, 2.0)
    clean = make_triplet(grid, f_ch1=-150.0, aple=-445.0, delta=150.0, fwhm=35.0,
                         amplitude=1.0, baseline=0.02)
    res = fit_lorentzians(SpectrumTrace(grid, clean), model="triplet211")
    assert res.converged
    assert res.params["a_ple"] == pytest.approx(-445.0, rel=1e-4)
    assert res.params["delta"] == pytest.approx(150.0, rel=1e-4)
    assert res.params["fwhm"] == pytest.approx(35.0, rel=1e-4)
    assert res.params["f_ch1"] == pytest.approx(-150.0, rel=1e-4, abs=1e-4)


def test_full_model_rejects_unknown_free_name():
    base = registry_lookup("117Sn")
    grid = np.linspace(-10, 10, 5)
    trace = SpectrumTrace(grid, np.ones(5))
    with pytest.raises(ValueError, match="free"):
        fit_full_model(trace, ("nonsense",), base)
    with pytest.raises(ValueError, match="^at least one free parameter is required$"):
        fit_full_model(trace, (), base)


# --- kernel density estimate ---

def test_kde_single_value_unit_bump():
    d = kde([4.0], bandwidth=0.5)
    assert np.trapezoid(d.signal, d.freq_mhz) == pytest.approx(1.0, abs=1e-3)
    assert d.freq_mhz[np.argmax(d.signal)] == pytest.approx(4.0, abs=0.01)


def test_kde_standard_normal_density_at_zero():
    rng = np.random.Generator(np.random.PCG64(17))
    sample = rng.normal(0.0, 1.0, 4000)
    d = kde(sample, bandwidth=0.3)
    at0 = d.signal[np.argmin(np.abs(d.freq_mhz))]
    assert at0 == pytest.approx(1.0 / math.sqrt(2 * math.pi), rel=0.10)


def test_kde_bimodal_two_maxima():
    vals = np.concatenate([np.full(50, -5.0), np.full(50, 5.0)])
    d = kde(vals, bandwidth=1.0)
    sig = d.signal
    n_max = sum(
        1 for k in range(1, len(sig) - 1) if sig[k] > sig[k - 1] and sig[k] >= sig[k + 1]
    )
    assert n_max == 2


def test_kde_area_random_inputs(rng):
    for _ in range(5):
        vals = rng.normal(rng.uniform(-10, 10), rng.uniform(0.5, 5.0), int(rng.integers(1, 200)))
        bw = float(rng.uniform(0.1, 3.0))
        d = kde(vals, bandwidth=bw)
        assert np.trapezoid(d.signal, d.freq_mhz) == pytest.approx(1.0, abs=1e-3)


def test_kde_validation():
    with pytest.raises(ValueError):
        kde([], bandwidth=1.0)
    with pytest.raises(ValueError):
        kde([1.0], bandwidth=0.0)


@pytest.mark.parametrize("bandwidth", [1e-170, 1e-320, 5e-324])
def test_kde_refuses_a_bandwidth_whose_square_underflows_by_name(bandwidth):
    """The Gaussian profile divided by 2 bandwidth^2 = 0: a ZeroDivisionError
    before."""
    with pytest.raises(ValueError) as info:
        kde([1.0, 2.0, 3.5], bandwidth=bandwidth)
    assert str(info.value) == f"bandwidth {bandwidth} is too small: 2 bandwidth^2 underflows to 0"


# --- isotope shift ---

def test_isotope_shift_identity():
    assert isotope_shift_ratio(117, 118, 117, 118) == pytest.approx(1.0)


def test_isotope_shift_tin_neighbor_ratio():
    r = isotope_shift_ratio(117, 118, 117, 119)
    assert r == pytest.approx(0.502, abs=2e-3)


def test_isotope_shift_errors():
    with pytest.raises(ValueError, match="zero mass"):
        isotope_shift_ratio(117, 118, 119, 119)
    with pytest.raises(ValueError, match="positive"):
        isotope_shift_ratio(-1, 118, 117, 119)


@pytest.mark.parametrize("masses", [(math.nan, 1, 2, 3), (117, math.inf, 117, 119),
                                    (117, 118, -math.inf, 119), (117, 118, 117, math.nan)])
def test_isotope_shift_refuses_non_finite_masses(masses):
    bad = next(m for m in masses if not math.isfinite(m))
    with pytest.raises(ValueError, match=f"^atomic masses must be positive and finite, "
                                         f"got {bad}$"):
        isotope_shift_ratio(*masses)


# --- chi-squared ---

def test_chi2_independent_table_is_zero():
    res = chi2_independence(((40, 60), (20, 30)))
    assert res["chi2"] == pytest.approx(0.0, abs=1e-12)
    assert res["p_value"] == pytest.approx(1.0)


def test_chi2_spin_active_contingency():
    # with/without multi-peak feature, spin-1/2 group vs spin-0 group
    res = chi2_independence(((119 + 92, 17 + 17), (19 + 6, 100 + 87)))
    assert res["chi2"] > 200.0
    assert res["p_value"] < 1e-5
    assert res["dof"] == 1


def test_chi2_doubling_counts_doubles_statistic():
    t = ((30, 10), (12, 28))
    res1 = chi2_independence(t)
    res2 = chi2_independence(tuple(tuple(2 * v for v in row) for row in t))
    assert res2["chi2"] == pytest.approx(2.0 * res1["chi2"], rel=1e-12)


def test_chi2_swap_invariance():
    t = ((30, 10), (12, 28))
    swapped = ((28, 12), (10, 30))  # rows and columns swapped together
    assert chi2_independence(t)["chi2"] == pytest.approx(
        chi2_independence(swapped)["chi2"], rel=1e-12
    )


def test_chi2_zero_marginal_rejected():
    with pytest.raises(ValueError, match="marginal"):
        chi2_independence(((0, 0), (5, 5)))


@pytest.mark.parametrize("table, message", [
    (((1, 2, 3), (4, 5, 6)), r"^expected a 2x2 table, got shape \(2, 3\)$"),
    ((1, 2, 3, 4), r"^expected a 2x2 table, got shape \(4,\)$"),
    (((1, -2), (4, 5)), "^contingency counts must be non-negative$"),
])
def test_chi2_refuses_a_table_that_is_not_2x2_counts(table, message):
    with pytest.raises(ValueError, match=message):
        chi2_independence(table)


def _upper_gamma_half(mpmath, chi2):
    """mpmath's regularized upper incomplete gamma Q(1/2, chi2/2), 60 digits."""
    with mpmath.workdps(60):
        return float(mpmath.gammainc(mpmath.mpf(0.5), mpmath.mpf(chi2) / 2, mpmath.inf,
                                     regularized=True))


def test_chi2_p_value_against_mpmath_oracle():
    mpmath = pytest.importorskip("mpmath")
    for x in (1e-3, 0.1, 1.0, 3.84, 10.0, 50.0, 251.4, 700.0, 1300.0):
        # every cell expects x and is off by x/2: chi2 = 4 (x/2)^2 / x = x
        res = chi2_independence(((1.5 * x, 0.5 * x), (0.5 * x, 1.5 * x)))
        assert res["chi2"] == pytest.approx(x, rel=1e-12)
        assert res["p_value"] == pytest.approx(_upper_gamma_half(mpmath, res["chi2"]),
                                               rel=1e-10)


def test_chi2_zero_statistic_gives_p_exactly_one():
    res = chi2_independence(((40, 60), (20, 30)))
    assert res["chi2"] == 0.0 and res["p_value"] == 1.0


def test_chi2_p_value_underflows_to_zero_without_warning():
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = chi2_independence(((1000, 0), (0, 1000)))
    assert res["chi2"] == pytest.approx(2000.0, rel=1e-12)
    assert res["p_value"] == 0.0


@settings(max_examples=200, deadline=None)
@given(cells=st.lists(st.integers(0, 10**6), min_size=4, max_size=4))
def test_chi2_p_value_is_a_probability_and_matches_mpmath(cells):
    mpmath = pytest.importorskip("mpmath")
    a, b, c, d = cells
    assume(min(a + b, c + d, a + c, b + d) > 0)
    res = chi2_independence(((a, b), (c, d)))
    assert 0.0 <= res["p_value"] <= 1.0
    if res["p_value"] > 1e-290:
        assert res["p_value"] == pytest.approx(_upper_gamma_half(mpmath, res["chi2"]),
                                               rel=1e-10)


@pytest.mark.parametrize("table", [
    ((math.nan, 1), (1, 1)),
    ((math.inf, 1), (1, 1)),
    ((1e200, 1), (1, 1)),
    ((1e200, 1e200), (1e200, 1e200)),
    ((3e199, 2e199), (1e199, 4e199)),
    ((10**400, 1), (1, 1)),
    (("x", 1), (1, 1)),
])
def test_chi2_refuses_a_table_without_a_finite_statistic(table):
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as info:
            chi2_independence(table)
    assert str(info.value).startswith(f"contingency table {table!r} ")


def test_chi2_p_value_against_direct_integration():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 60
    res = chi2_independence(((211, 34), (25, 187)))
    chi2 = res["chi2"]

    def pdf(t):
        return mpmath.exp(-t / 2) / mpmath.sqrt(2 * mpmath.pi * t)

    ref = float(mpmath.quad(pdf, [chi2, mpmath.inf]))
    assert res["p_value"] == pytest.approx(ref, rel=1e-8)


# --- ensemble stats ---

def test_ensemble_single_value():
    s = ensemble_stats([5.0], bin_width=1.0)
    assert s.n == 1
    assert s.mean == 5.0
    assert s.std_err_of_mean == 0.0
    assert s.counts.sum() == 1


def test_ensemble_linewidth_round_trip():
    rng = np.random.Generator(np.random.PCG64(2))
    sample = rng.normal(262.0, 70.0, 100)  # s.e. of mean targets 7
    s = ensemble_stats(sample, bin_width=25.0)
    assert s.std_err_of_mean == pytest.approx(7.0, abs=1.5)
    assert abs(s.mean - 262.0) < s.std_err_of_mean
    assert s.counts.sum() == 100
    assert s.bin_edges[0] == pytest.approx(
        math.floor(sample.min() / 25.0) * 25.0
    )


def test_ensemble_ratio_of_tin_spacings():
    rng = np.random.Generator(np.random.PCG64(31))
    base_119 = abs(a_ple(registry_lookup("119Sn")))
    base_117 = abs(a_ple(registry_lookup("117Sn")))
    s119 = ensemble_stats(rng.normal(base_119, 1.5, 900), bin_width=5.0)
    s117 = ensemble_stats(rng.normal(base_117, 1.5, 900), bin_width=5.0)
    assert s119.mean / s117.mean == pytest.approx(1.046, abs=1e-3)


def test_ensemble_validation():
    with pytest.raises(ValueError):
        ensemble_stats([], bin_width=1.0)
    with pytest.raises(ValueError):
        ensemble_stats([1.0], bin_width=0.0)


@pytest.mark.parametrize("values, bin_width", [([10.0, 20.0, 35.0], 1e-12),
                                               ([10.0, 20.0, 35.0], 1e-300),
                                               ([1.0, 2.0], 5e-324)])
def test_ensemble_refuses_too_many_bins_before_allocating(values, bin_width):
    with pytest.raises(ValueError) as info:
        ensemble_stats(values, bin_width=bin_width)
    assert str(info.value) == (f"bin_width {bin_width} gives more than the 10000000 "
                               "histogram bins allowed over the values")


def test_ensemble_bin_limit_is_inclusive(monkeypatch):
    monkeypatch.setattr(analysis, "_MAX_BINS", 3)
    assert ensemble_stats([0.5, 2.5], bin_width=1.0).counts.tolist() == [1, 0, 1]
    with pytest.raises(ValueError, match="gives more than the 3 histogram bins"):
        ensemble_stats([0.5, 3.5], bin_width=1.0)


@pytest.mark.parametrize("values, name", [([1e308, 1e308], "mean"),
                                          ([0.0, 1e300], "standard error of the mean"),
                                          ([-1e300, 1e300], "standard error of the mean")])
def test_ensemble_refuses_non_finite_statistics(values, name):
    with pytest.raises(ValueError, match=f"^the {name} of the values is not finite "):
        ensemble_stats(values, bin_width=1e299)


# --- optimizer corner cases ---

def _valley(p):
    # Rosenbrock's narrow curved valley, minimum at (1, 1)
    return np.array([10.0 * (p[1] - p[0] ** 2), 1.0 - p[0]])


def _valley_jac(p):
    return np.array([[-20.0 * p[0], 10.0], [-1.0, 0.0]])


def test_lm_flags_non_convergence_at_iteration_cap():
    # one iteration is never enough from here
    with mock.patch.object(analysis, "MAX_ITERATIONS", 1):
        p, cov, rms, converged, iters, jtj = _levenberg_marquardt(
            _valley, np.array([-1.2, 1.0]), jac=_valley_jac
        )
    assert converged.tolist() == [False]
    assert iters.tolist() == [1]
    # best-so-far is still an improvement over the start
    start = _valley(np.array([-1.2, 1.0]))
    assert rms.shape == (1,) and rms[0] <= math.sqrt(float(start @ start) / start.size)


def test_lm_solves_curved_valley():
    """One problem (n,) comes back as a stack of one, J^T J with it."""
    p, cov, rms, converged, iters, jtj = _levenberg_marquardt(_valley, np.array([-1.2, 1.0]),
                                                              jac=_valley_jac)
    assert converged.tolist() == [True]
    assert p.shape == (1, 2) and cov.shape == jtj.shape == (1, 2, 2)
    assert np.allclose(p[0], [1.0, 1.0], atol=1e-6)
    j = _valley_jac(p[0])
    assert np.array_equal(jtj[0], j.T @ j)


# --- stacked row solves and reference lines inside full-model fits ---

def _small_sn_map():
    base = registry_lookup("117Sn", strain_alpha_ghz=55.0)
    grid = np.arange(-700.0, 700.0, 10.0)
    traces = sweep_field(base.scaled_hyperfine(1.2), (0.0, 0.0, 1.0), [0.0, 0.02],
                         150.0, grid)
    return base, traces


def _solves(recorded):
    """Recorded solve_manifold calls as (is_bare, manifold, fields,
    effective strain alpha, beta, matrix size)."""
    return [(e == e.without_couplings(), manifold, fields, alpha, beta, e.dim)
            for e, manifold, fields, alpha, beta in map(solve_inputs, recorded)]


def _full_model_problem(calls, data, base, init):
    """The residual, analytic Jacobian and start that fit_full_model, with
    every parameter of FULL_MODEL_FREE free, hands the LM core."""
    cores = calls(analysis, "_levenberg_marquardt")
    fit_full_model(data, analysis.FULL_MODEL_FREE, base, init=init)
    assert cores[-1]["jac"] is not None
    return cores[-1]


@pytest.mark.parametrize("free, init", [
    (analysis.FULL_MODEL_FREE, {"a_ple_scale": 1.0, "strain_alpha": 20.0, "fwhm": 50.0,
                                "freq_offset": 3.0}),
    (("a_ple_scale", "fwhm", "amplitude"), {"strain_alpha": 20.0, "freq_offset": 3.0}),
], ids=["all-free", "some-fixed"])
def test_the_map_model_built_afresh_is_what_the_fit_hands_its_core(calls, free, init):
    """_map_model's signal and Jacobian, built again from the arguments the
    fit built it with and called at the fit's start, give the residual and
    Jacobian the fit hands the LM core there, bit for bit; the fit keeps
    J^T J of that Jacobian at its reported optimum, bit for bit."""
    base, traces, _ = _ge_map_with_zero_field_row()
    built = calls(analysis, "_map_model")
    cores = calls(analysis, "_levenberg_marquardt")
    res = fit_full_model(traces, free, base, init=init)
    assert len(built) == len(cores) == 1
    p, residual, jac = cores[0]["p0"], cores[0]["residual_fn"], cores[0]["jac"]
    signal, jacobian = analysis._map_model(**built[0])
    y = np.concatenate([t.signal for t in traces])
    assert _bits(signal(p) - y) == _bits(residual(p))
    assert _bits(jacobian(p)) == _bits(jac(p))
    j = jacobian(np.array([res.params[name] for name in free]))
    assert _bits(j.T @ j) == _bits(res._jtj)


def test_a_map_with_no_more_points_than_free_parameters_is_refused_before_any_solve(calls):
    """Its points are counted over the whole map; the fit solved the map
    four times, for the amplitude seed and the core's start, before
    refusing it."""
    grid = np.arange(3.0)
    signal = 1.0 + lorentz_peak(grid, 1.0, 2.0)
    traces = [SpectrumTrace(grid[:1], signal[:1], {"b_tesla": (0.0, 0.0, 0.0)}),
              SpectrumTrace(grid[1:], signal[1:], {"b_tesla": (0.0, 0.0, 0.02)})]
    solves = calls(spectrum, "solve_manifold")
    with pytest.raises(analysis.TraceError, match="^3 data points cannot determine 3 free "):
        fit_full_model(traces, ("a_ple_scale", "fwhm", "amplitude"), registry_lookup("117Sn"))
    assert solves == []


def _ge_map_with_zero_field_row():
    base = registry_lookup("73Ge")
    gen = dataclasses.replace(base.scaled_hyperfine(1.2), strain_alpha_ghz=30.0)
    theta = math.radians(33.0)
    traces = sweep_field(gen, (math.sin(theta), 0.0, math.cos(theta)), [0.0, 0.05, 0.1], 40.0,
                         np.arange(-200.0, 200.0, 4.0))
    return base, traces, {"a_ple_scale": 1.0, "strain_alpha": 20.0, "fwhm": 50.0,
                          "freq_offset": 3.0}


def _sn_map_with_strain():
    base, traces = _small_sn_map()
    return base, traces, {"a_ple_scale": 1.1, "strain_alpha": 45.0, "fwhm": 120.0,
                          "freq_offset": -5.0}


def _ge_map_off_the_xz_plane():
    # B_y != 0 on every row but the B = 0 one, as given; the fit solves the
    # rows in the real frame.
    base, _, init = _ge_map_with_zero_field_row()
    gen = dataclasses.replace(base.scaled_hyperfine(1.2), strain_alpha_ghz=30.0)
    theta, phi = math.radians(33.0), math.radians(30.0)
    direction = (math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi),
                 math.cos(theta))
    traces = sweep_field(gen, direction, [0.0, 0.05, 0.1], 40.0, np.arange(-200.0, 200.0, 4.0))
    return base, traces, init


def _sn_map_with_beta_strain():
    # beta != 0 makes every point complex, the B = 0 one included.
    base = registry_lookup("117Sn", strain_alpha_ghz=55.0, strain_beta_ghz=20.0)
    traces = sweep_field(base.scaled_hyperfine(1.2), (0.0, 0.0, 1.0), [0.0, 0.02], 150.0,
                         np.arange(-700.0, 700.0, 10.0))
    return base, traces, {"a_ple_scale": 1.1, "strain_alpha": 45.0, "fwhm": 120.0,
                          "freq_offset": -5.0}


@pytest.mark.parametrize("make_map", [_ge_map_with_zero_field_row, _sn_map_with_strain,
                                      _ge_map_off_the_xz_plane, _sn_map_with_beta_strain],
                         ids=["73Ge-33deg", "117Sn-strain", "73Ge-off-xz", "117Sn-beta"])
def test_full_model_jacobian_matches_central_differences(calls, make_map):
    """Each analytic column, on each map row, against central differences
    with steps of 1e-4 relative; the B = 0 row, whose levels form degenerate
    clusters, included.  The maps hold fields in the x-z plane, fields off
    it (solved in the real frame), and complex points only (beta != 0)."""
    base, traces, init = make_map()
    problem = _full_model_problem(calls, traces, base, init)
    p, residual = problem["p0"], problem["residual_fn"]
    j = problem["jac"](p)
    rows = np.cumsum([0] + [t.freq_mhz.size for t in traces])
    for col, name in enumerate(analysis.FULL_MODEL_FREE):
        central = central_difference(residual, p, col)
        for a, b in zip(rows[:-1], rows[1:]):
            scale = np.abs(central[a:b]).max()
            assert scale > 0.0, name
            assert np.abs(j[a:b, col] - central[a:b]).max() <= 1e-6 * scale, (name, a)


@pytest.mark.parametrize("label", ["73Ge", "117Sn"])
def test_table_params_match_central_differences(label):
    """For every _TABLE_PARAMS entry, on a stack of real and complex points
    (B = 0 included): its dH against the central difference of
    build_hamiltonian between the emitter set to v +- h, for both
    manifolds, and the reference slope `_reference_line` gives along it
    against the central difference of the reference line."""
    base = dataclasses.replace(registry_lookup(label), strain_alpha_ghz=30.0,
                               strain_beta_ghz=0.0)
    fields = np.array([(0.0, 0.0, 0.0), (0.05, 0.0, 0.08), (0.03, 0.04, 0.1)])
    for name, (value, set_to, dh) in analysis._TABLE_PARAMS.items():
        v = value(base)
        h = 1e-4 * max(abs(v), 1.0)
        up, down = set_to(base, v + h), set_to(base, v - h)
        for manifold, d in zip(("gnd", "exc"), dh(base)):
            central = (build_hamiltonian(up, manifold, fields)
                       - build_hamiltonian(down, manifold, fields)) / (2.0 * h)
            scale = np.abs(d).max()
            assert scale > 0.0, (name, manifold)
            assert np.abs(central - d).max() <= 1e-6 * scale, (name, manifold)
        _, (slope,) = _reference_line(set_to(base, v), fields, None, None, [dh])
        central = (_reference_line(up, fields, None, None)[0]
                   - _reference_line(down, fields, None, None)[0]) / (2.0 * h)
        assert np.abs(slope - central).max() <= 1e-6 * max(np.abs(central).max(), 1.0), name


def test_full_model_jacobian_takes_the_amplitude_column_from_the_last_residual(
        calls, monkeypatch):
    """The amplitude column is the unit-amplitude model of a residual at the
    same values, bit for bit: right after that residual, and after a
    residual at another fwhm and amplitude.  Chunks of 16 split each row's
    20 to 88 lines, so the chunked sums must agree too."""
    lorentzian_sum = kernels.lorentzian_sum
    base, traces, init = _ge_map_with_zero_field_row()
    names = analysis.FULL_MODEL_FREE
    for chunk in (kernels._CHUNK, 16):
        monkeypatch.setattr(kernels, "_CHUNK", chunk)
        problem = _full_model_problem(calls, traces, base, init)
        p, residual, jac = problem["p0"], problem["residual_fn"], problem["jac"]
        sums = calls(analysis.kernels, "lorentzian_sum")
        residual(p)
        assert len(sums) == len(traces)
        unit = np.concatenate([lorentzian_sum(**c) for c in sums])
        amplitude = np.ascontiguousarray(jac(p)[:, names.index("amplitude")])
        assert _bits(amplitude) == _bits(unit)
        assert len(sums) == len(traces)  # the Jacobian sums no Lorentzian of its own
        elsewhere = p.copy()
        elsewhere[names.index("fwhm")] *= 1.5
        elsewhere[names.index("amplitude")] *= 2.0
        residual(elsewhere)
        amplitude = np.ascontiguousarray(jac(p)[:, names.index("amplitude")])
        assert _bits(amplitude) == _bits(unit)
        monkeypatch.undo()


def test_full_model_fit_solves_each_reference_once_per_manifold(calls):
    base, traces = _small_sn_map()
    rows = ((0.0, 0.0, 0.0), (0.0, 0.0, 0.02))
    solves = calls(spectrum, "solve_manifold")
    res = fit_full_model(traces, ("a_ple_scale", "strain_alpha", "fwhm"), base,
                         init={"fwhm": 120.0})
    assert res.converged
    solved = _solves(solves)
    bare = [c[1:] for c in solved if c[0]]
    tables = [c[1:] for c in solved if not c[0]]
    alphas = {c[2] for c in tables}
    assert len(alphas) > 1
    # one stacked bare solve per manifold and distinct strain_alpha, covering
    # all rows, each of the spin-neutral 4x4 emitter
    assert sorted(bare) == sorted((m, rows, a, None, 4) for a in alphas for m in ("gnd", "exc"))
    assert all(c[1] == rows and c[4] == 8 for c in tables)  # one stack of all rows, 8x8

    # With strain_alpha fixed, every a_ple_scale the fit visits shares one
    # reference pair; it must visit at least two, its start (1.0) and more,
    # because the map was made at 1.2.
    solves.clear()
    res = fit_full_model(traces, ("a_ple_scale", "fwhm"), base, init={"fwhm": 120.0})
    assert res.converged and res.params["a_ple_scale"] == pytest.approx(1.2, rel=1e-3)
    again = _solves(solves)
    assert [c[1:] for c in again if c[0]] == [(m, rows, 55.0, None, 4) for m in ("gnd", "exc")]
    assert sum(not c[0] for c in again) >= 2 * 2  # two manifolds at two a_ple_scale or more


def test_full_model_fits_in_a_row_share_no_memo(calls):
    base, traces = _small_sn_map()
    solves = calls(spectrum, "solve_manifold")
    fit_full_model(traces, ("a_ple_scale", "fwhm"), base, init={"fwhm": 120.0})
    first = _solves(solves)
    solves.clear()
    fit_full_model(traces, ("a_ple_scale", "fwhm"), base, init={"fwhm": 120.0})
    second = _solves(solves)
    assert second == first
    assert sum(c[0] for c in second) == 2  # one strain, two manifolds, solved again


def test_full_model_fit_that_raises_drops_its_memo():
    from g4vspec.hamiltonian import EmitterModel, ManifoldParams

    p = ManifoldParams(lambda_soc_ghz=0.001, a_fc_mhz=500.0)
    bad = EmitterModel(isotope="bad", nuclear_spin=0.5, g_nuclear=-1.0, gnd=p, exc=p)
    grid = np.linspace(-100.0, 100.0, 21)
    with pytest.raises(ValueError, match="branch"):
        fit_full_model(SpectrumTrace(grid, np.ones_like(grid)), ("fwhm",), bad)


@pytest.mark.parametrize("fit, init, message", [
    (lambda t, init: fit_lorentzians(t, "single", init), [1],
     "init must be a dict of initial values, got list"),
    (lambda t, init: fit_lorentzians(t, "single", init), {"f0": 1.0},
     "init needs a value for every parameter; missing fwhm, amplitude, baseline"),
    (lambda t, init: fit_lorentzians(t, "triplet211", init),
     {"f_ch1": 0.0, "a_ple": 1.0, "delta": 1.0, "fwhm": 1.0, "amplitude": 1.0,
      "baseline": 0.0, "f0": 2.0},
     "unknown init parameter(s) 'f0'; choose from f_ch1, a_ple, delta, fwhm, amplitude, "
     "baseline"),
    (lambda t, init: fit_gaussian(t, init),
     {"center": 0.0, "sigma": None, "amplitude": 1.0, "baseline": 0.0},
     "init 'sigma' must be a finite number, got None"),
    (lambda t, init: fit_gaussian(t, init),
     {"center": 0.0, "sigma": float("nan"), "amplitude": 1.0, "baseline": 0.0},
     "init 'sigma' must be a finite number, got nan"),
    (lambda t, init: fit_full_model(t, ("fwhm",), registry_lookup("117Sn"), init), [1],
     "init must be a dict of initial values, got list"),
    (lambda t, init: fit_full_model(t, ("fwhm",), registry_lookup("117Sn"), init),
     {"bogus": 1},
     "unknown init parameter(s) 'bogus'; choose from a_ple_scale, strain_alpha, fwhm, "
     "amplitude, freq_offset"),
    (lambda t, init: fit_full_model(t, ("fwhm",), registry_lookup("117Sn"), init),
     {"fwhm": "wide"}, "init 'fwhm' must be a finite number, got 'wide'"),
    (lambda t, init: fit_lorentzians(t, "single", init),
     {"f0": True, "fwhm": 40.0, "amplitude": 1.0, "baseline": False},
     "init 'f0' must be a finite number, got True"),
    (lambda t, init: fit_lorentzians(t, "single", init),
     {"f0": 10**400, "fwhm": 40.0, "amplitude": 1.0, "baseline": 0.0},
     "init 'f0' is an integer too large for a float"),
])
def test_fitters_share_one_init_check(fit, init, message):
    grid = np.arange(-100.0, 100.0, 2.0)
    trace = SpectrumTrace(grid, lorentz_peak(grid, 0.0, 20.0))
    with pytest.raises(ValueError) as info:
        fit(trace, init)
    assert str(info.value) == message


def test_init_accepts_numpy_numbers():
    grid = np.arange(-100.0, 100.0, 2.0)
    trace = SpectrumTrace(grid, lorentz_peak(grid, 0.0, 20.0))
    init = {"f0": np.float32(1.0), "fwhm": np.int64(15), "amplitude": 1, "baseline": 0.0}
    assert fit_lorentzians(trace, "single", init).params["fwhm"] == pytest.approx(20.0)


_TRIPLET_INIT = {"f_ch1": 0.0, "a_ple": 1.0, "delta": 1.0, "fwhm": 1.0, "amplitude": 1.0,
                 "baseline": 0.0}


@pytest.mark.parametrize("fit, points, n_free", [
    (lambda t: fit_lorentzians(t, "triplet211", init=_TRIPLET_INIT), 3, 6),
    (lambda t: fit_lorentzians(t, "single", init={"f0": 0.0, "fwhm": 1.0, "amplitude": 1.0,
                                                  "baseline": 0.0}), 4, 4),
    (lambda t: fit_gaussian(t, init={"center": 0.0, "sigma": 1.0, "amplitude": 1.0,
                                     "baseline": 0.0}), 2, 4),
    (lambda t: fit_full_model(t, ("a_ple_scale", "fwhm", "amplitude"),
                              registry_lookup("117Sn")), 2, 3),
    (lambda t: fit_full_model(t, ("a_ple_scale", "fwhm", "amplitude"),
                              registry_lookup("117Sn")), 0, 3),
    (lambda t: fit_full_model(t, ("a_ple_scale", "fwhm"), registry_lookup("117Sn")), 0, 2),
    (lambda t: fit_lorentzians(t, "single"), 0, 4),
    (lambda t: fit_lorentzians(t, "triplet211"), 0, 6),
    (lambda t: fit_gaussian(t), 0, 4),
], ids=["triplet-3", "single-4", "gaussian-2", "full-2", "full-empty", "full-empty-no-amplitude",
        "single-empty", "triplet-empty", "gaussian-empty"])
def test_a_fit_with_no_more_data_points_than_free_parameters_is_refused(fit, points, n_free):
    """Such fits reported converged, with standard errors of 0.0, or (an
    empty trace) a NaN rms with a RuntimeWarning or NumPy's zero-size error;
    a peak fit of an empty trace without init met that error in peak
    seeding."""
    grid = np.arange(float(points))
    with pytest.raises(analysis.TraceError) as info:
        fit(SpectrumTrace(grid, 1.0 + lorentz_peak(grid, 1.0, 2.0)))
    assert str(info.value) == (f"{points} data points cannot determine {n_free} free parameters; "
                               "a fit needs more data points than free parameters")


def test_a_short_trace_in_a_list_is_named_by_its_position():
    grid = np.arange(-100.0, 100.0, 2.0)
    good = SpectrumTrace(grid, lorentz_peak(grid, 0.0, 20.0))
    short = SpectrumTrace(grid[:3], lorentz_peak(grid[:3], -98.0, 20.0))
    with pytest.raises(analysis.TraceError) as info:
        fit_lorentzians([good, short, good], "triplet211", init=_TRIPLET_INIT)
    assert info.value.index == 1


def test_full_model_refuses_a_free_name_given_twice():
    grid = np.arange(-100.0, 100.0, 2.0)
    with pytest.raises(ValueError, match="^free parameter 'fwhm' is given twice$"):
        fit_full_model(SpectrumTrace(grid, lorentz_peak(grid, 0.0, 20.0)),
                       ("fwhm", "amplitude", "fwhm"), registry_lookup("117Sn"))


@pytest.mark.parametrize("direction", [(0.0, 0.0, 2.0), (0.0, 0.0, 0.0), (0.0, 1.0),
                                       (0.0, 0.6, 0.8 + 2e-6), (math.nan, 0, 1),
                                       (math.inf, 0, 0), "z", (0, 1)])
def test_full_model_refuses_a_field_direction_that_is_not_a_unit_vector(direction):
    """A trace made at 0.05 T along z, given b_direction (0, 0, 2), fitted
    a_ple_scale 1.112 instead of 1; given (0, 0, 0), it fitted at zero field.
    A NaN or infinite component, or a string, failed without naming the
    trace."""
    base = registry_lookup("117Sn", strain_alpha_ghz=55.0)
    grid = np.arange(-700.0, 700.0, 10.0)
    good, trace = sweep_field(base, (0.0, 0.0, 1.0), [0.0, 0.05], 30.0, grid)
    trace.meta["b_direction"] = direction
    with pytest.raises(ValueError, match=r"^trace 1: b_direction must be a unit vector of 3 "
                                         r"components, got \("):
        fit_full_model([good, trace], ("a_ple_scale", "fwhm"), base)


@pytest.mark.parametrize("metas, message", [
    # 2 and 3 components: NumPy's "inhomogeneous shape" error before
    ([{"b_tesla": (0.0, 0.0, 0.1)}, {"b_tesla": (0.0, 0.0)}],
     r"trace 1: b_tesla must be 3 finite numbers, got \(0\.0, 0\.0\)"),
    # a lone 2-component field: "needs 3 components per point, got shape (1, 2)"
    ([{"b_tesla": (0.0, 0.05)}], r"trace 0: b_tesla must be 3 finite numbers, got \(0\.0, 0\.05\)"),
    # NaN: "magnetic field component must be finite"
    ([{"b_tesla": (0.0, 0.0, 0.1)}, {"b_tesla": (0.0, math.nan, 0.1)}],
     r"trace 1: b_tesla must be 3 finite numbers, got \(0\.0, nan, 0\.1\)"),
    ([{"b_tesla": (0.0, 0.0, 0.1)}, {"b_tesla": ("0.1", 0.0, None)}],
     r"trace 1: b_tesla must be 3 finite numbers, got \('0\.1', 0\.0, None\)"),
    ([{"b_mag_tesla": 0.1}, {"b_mag_tesla": math.inf}],
     r"trace 1: b_mag_tesla must be a finite number, got inf"),
    ([{"b_mag_tesla": 10**400, "b_direction": (1.0, 0.0, 0.0)}],
     r"trace 0: b_mag_tesla must be a finite number, got 1000"),
], ids=["2-and-3-components", "2-components", "nan", "not-numbers", "inf-magnitude",
        "huge-magnitude"])
def test_full_model_names_a_trace_whose_field_is_not_three_finite_numbers(metas, message):
    base = registry_lookup("117Sn", strain_alpha_ghz=55.0)
    grid = np.arange(-700.0, 700.0, 10.0)
    signal = sweep_field(base, (0.0, 0.0, 1.0), [0.05], 30.0, grid)[0].signal
    traces = [SpectrumTrace(grid, signal, meta) for meta in metas]
    with pytest.raises(analysis.TraceError, match="^" + message) as info:
        fit_full_model(traces, ("a_ple_scale", "fwhm"), base)
    assert info.value.index == len(metas) - 1


def _mismatched(grid):
    return SpectrumTrace(grid, lorentz_peak(grid, 0.0, 20.0)[:-1])


@pytest.mark.parametrize("fit", [
    lambda traces: fit_lorentzians(traces, "single"),
    lambda traces: fit_lorentzians(traces, "triplet211"),
    fit_gaussian,
    lambda traces: fit_full_model(traces, ("fwhm",), registry_lookup("117Sn")),
], ids=["single", "triplet", "gaussian", "full"])
def test_fits_name_a_trace_whose_grid_and_signal_lengths_differ(fit):
    grid = np.arange(-100.0, 100.0, 2.0)
    good = SpectrumTrace(grid, lorentz_peak(grid, 0.0, 20.0))
    with pytest.raises(analysis.TraceError) as info:
        fit([good, _mismatched(grid)])
    assert info.value.index == 1
    assert str(info.value) == "trace 1: freq_mhz has 100 values but signal has 99"
    with pytest.raises(ValueError, match="^trace 0: freq_mhz has 100 values but signal has 99$"):
        fit(_mismatched(grid))


@pytest.mark.parametrize("fit", [
    lambda traces: fit_lorentzians(traces, "single"),
    lambda traces: fit_lorentzians(traces, "triplet211"),
    fit_gaussian,
    lambda traces: fit_full_model(traces, ("fwhm",), registry_lookup("117Sn")),
], ids=["single", "triplet", "gaussian", "full"])
def test_fits_name_a_trace_that_is_not_a_1d_trace(fit):
    """A dict, a number or a path raised AttributeError; a 2-D trace met
    NumPy's "kth out of bounds" in a peak fit, "expected a 1-D array" in
    the full model; a ragged one NumPy's "inhomogeneous shape"."""
    grid = np.arange(-100.0, 100.0, 2.0)
    good = SpectrumTrace(grid, lorentz_peak(grid, 0.0, 20.0))
    square = SpectrumTrace(np.tile(grid, (100, 1)), np.tile(good.signal, (100, 1)))
    for bad, message in [
            ({"freq_mhz": grid, "signal": good.signal}, "expected a trace with freq_mhz and "
                                                        "signal, got dict"),
            (2, "expected a trace with freq_mhz and signal, got int"),
            (square, "freq_mhz and signal must be 1-D, got shapes (100, 100) and (100, 100)"),
            (SpectrumTrace(grid[:2], [[1.0, 2.0], [3.0]]), "freq_mhz and signal must be 1-D, "
                                                           "got a ragged sequence")]:
        with pytest.raises(analysis.TraceError) as info:
            fit([good, bad])
        assert info.value.index == 1
        assert str(info.value) == f"trace 1: {message}"
    with pytest.raises(analysis.TraceError, match="^trace 0: expected a trace with freq_mhz and "
                                                  "signal, got str$"):
        fit("trace.csv")


@pytest.mark.parametrize("fit", [
    lambda traces: fit_lorentzians(traces, "single"),
    lambda traces: fit_lorentzians(traces, "triplet211"),
    fit_gaussian,
    lambda traces: fit_full_model(traces, ("fwhm",), registry_lookup("117Sn")),
], ids=["single", "triplet", "gaussian", "full"])
def test_fits_name_a_trace_that_is_not_real(fit):
    """Text ended in NumPy's "could not convert string to float", bare from
    the full model; a complex signal was fitted on its real part, with only a
    ComplexWarning (an error in this suite), and an object array of complex
    numbers raised float()'s TypeError."""
    grid = np.arange(-100.0, 100.0, 2.0)
    good = SpectrumTrace(grid, lorentz_peak(grid, 0.0, 20.0))
    for bad, dtypes in [(SpectrumTrace(grid, ["a"] * grid.size), "float64 and <U1"),
                        (SpectrumTrace(grid.astype(str), good.signal), "<U32 and float64"),
                        (SpectrumTrace(grid, good.signal * (1 + 1j)), "float64 and complex128"),
                        (SpectrumTrace(grid, np.array(["a"] * grid.size, dtype=object)),
                         "float64 and object"),
                        (SpectrumTrace(grid, (good.signal * 1j).astype(object)),
                         "float64 and object")]:
        with pytest.raises(analysis.TraceError) as info:
            fit([good, bad])
        assert info.value.index == 1
        assert str(info.value) == f"trace 1: freq_mhz and signal must be real numbers, got {dtypes}"
    with pytest.raises(analysis.TraceError, match="^trace 0: freq_mhz and signal must be real "
                                                  "numbers, got float64 and <U1$"):
        fit(SpectrumTrace(grid, ["a"] * grid.size))


@pytest.mark.parametrize("data", [[], ()])
def test_full_model_fit_of_no_traces_is_refused(data):
    with pytest.raises(ValueError, match="^fit_full_model needs at least one trace$"):
        fit_full_model(data, ("fwhm",), registry_lookup("117Sn"))


def test_a_fit_from_a_non_finite_start_is_refused():
    grid = np.arange(-50.0, 51.0, 1.0)
    trace = SpectrumTrace(grid, 1.0 / (1.0 + grid**2))
    start = {"f0": 0.0, "fwhm": 0.0, "amplitude": 1.0, "baseline": 0.0}
    with pytest.raises(ValueError, match="cannot start: its residual at the initial "
                                         "parameters is not finite"):
        fit_lorentzians(trace, "single", init=start)
    # the same start one grid step off the peak is finite and fits
    assert fit_lorentzians(trace, "single", init=dict(start, f0=0.5, fwhm=1.0)).converged


@pytest.mark.parametrize("fit", [
    lambda t: fit_lorentzians(t, "single", init={"f0": 0.0, "fwhm": 1e200, "amplitude": 1.0,
                                                 "baseline": 0.0}),
    lambda t: fit_lorentzians(t, "triplet211", init=dict(_TRIPLET_INIT, fwhm=1e200)),
    lambda t: fit_gaussian(t, init={"center": 0.5, "sigma": 0.0, "amplitude": 1.0,
                                    "baseline": 0.0}),
    lambda t: fit_full_model(t, ("fwhm", "amplitude"), registry_lookup("117Sn"),
                             init={"fwhm": 1e200}),
], ids=["single", "triplet", "gaussian", "full"])
def test_a_fit_whose_start_has_a_non_finite_jacobian_is_refused(fit):
    """Above |fwhm| ~ 2.7e154 MHz hw^2 overflows: the residual at the start
    is finite, but d/dfwhm is 0 * -inf; a zero-width Gaussian off the grid
    has d/dcenter 0/0.  Such starts ended in NumPy warnings and "SVD did not
    converge", or in a NaN width."""
    grid = np.arange(-50.0, 51.0, 1.0)
    with pytest.raises(analysis.TraceError, match="^the fit cannot start: its Jacobian at the "
                                                  "initial parameters is not finite$"):
        fit(SpectrumTrace(grid, 1.0 / (1.0 + grid**2)))


# --- closed-form Jacobians of the peak models ---

JAC_GRID = np.arange(-300.0, 700.0, 2.0)
CLOSED_FORM = {
    "single": (analysis._model_single, analysis._jac_single),
    "triplet211": (analysis._model_triplet, analysis._jac_triplet),
    "gaussian": (analysis._model_gaussian, analysis._jac_gaussian),
}


def signed(lo, hi):
    """Floats of magnitude in [lo, hi] with either sign."""
    return st.tuples(st.sampled_from((1.0, -1.0)), st.floats(lo, hi)).map(lambda t: t[0] * t[1])


@st.composite
def peak_params(draw):
    """A closed-form model and its parameters, widths and the |.| parameters of
    either sign (delta also exactly 0); magnitudes stay a forward step away
    from the kinks of |.|."""
    model = draw(st.sampled_from(sorted(CLOSED_FORM)))
    center = draw(st.floats(-100.0, 100.0))
    width = draw(signed(5.0, 60.0))
    amplitude = draw(signed(0.1, 3.0))
    baseline = draw(st.floats(-1.0, 1.0))
    if model == "triplet211":
        aple = draw(signed(1.0, 300.0))
        delta = draw(st.one_of(st.sampled_from((0.0, -0.0)), signed(1.0, 100.0)))
        p = (center, aple, delta, width, amplitude, baseline)
    else:
        p = (center, width, amplitude, baseline)
    return model, np.array(p)


# Relative step of the forward differences the closed forms are checked against.
DIFFERENCE_STEP = 1e-6


def forward_difference(fn, p, f):
    """Forward-difference Jacobian of fn at p, one step per parameter."""
    r = fn(p, f)
    j = np.empty((f.size, p.size))
    for k in range(p.size):
        step = DIFFERENCE_STEP * max(abs(p[k]), 1.0)
        q = p.copy()
        q[k] += step
        j[:, k] = (fn(q, f) - r) / step
    return j


@settings(max_examples=300, deadline=None)
@given(case=peak_params())
def test_peak_jacobians_match_forward_differences(case):
    model, p = case
    fn, jac = CLOSED_FORM[model]
    width, amplitude, baseline = abs(p[-3]), abs(p[-2]), abs(p[-1])
    analytic = jac(p, JAC_GRID)
    numeric = forward_difference(fn, p, JAC_GRID)
    assert analytic.shape == numeric.shape
    step = DIFFERENCE_STEP * np.maximum(np.abs(p), 1.0)
    # Forward-difference error: truncation h/2 |f''| with |f''| <= 16 |A| / w^2
    # (8/w^2 per unit Lorentzian, total weight 2 in the 2:1:1 sum), rounding
    # of the model (|f| <= 2|A| + |B|) over h, and the rounding of the step.
    tol = (8.0 * step * amplitude / width**2
           + 10.0 * np.finfo(float).eps * (2.0 * amplitude + baseline) / step
           + 1e-9 * np.abs(analytic).max(axis=0))
    assert (np.abs(analytic - numeric).max(axis=0) <= tol).all()
    # A stack of problems runs the arithmetic of each one alone.
    stack, grids = np.stack([p, 2.0 * p]), np.stack([JAC_GRID, JAC_GRID])
    for row, q in zip(zip(fn(stack, grids), jac(stack, grids)), stack):
        assert [_bits(a) for a in row] == [_bits(fn(q, JAC_GRID)), _bits(jac(q, JAC_GRID))]


@pytest.mark.parametrize("model", ["single", "triplet211", "gaussian"])
def test_closed_form_fit_calls_its_model_once_per_trial(calls, monkeypatch, model):
    trials = calls(analysis, "_solve_damped")
    grid = np.arange(-400.0, 900.0, 2.0)
    names, fn, jac = analysis._PEAK_MODELS[model]
    entry = types.SimpleNamespace(fn=fn)
    model_calls = calls(entry, "fn")
    monkeypatch.setitem(analysis._PEAK_MODELS, model, (names, entry.fn, jac))
    if model == "gaussian":
        res = fit_gaussian(SpectrumTrace(grid, 0.1 + 2.0 * np.exp(-((grid - 20.0) / 30.0) ** 2)))
    else:
        sig = make_triplet(grid, -150.0, -445.0, 150.0, 35.0, 1.0, 0.02)
        res = fit_lorentzians(SpectrumTrace(grid, sig), model=model)
    assert res.converged and len(trials) >= res.n_iterations
    # the start, then one call per damped trial step: no difference columns
    assert len(model_calls) == 1 + len(trials)


# --- LM recovers the truth on noise-free peak traces ---

@st.composite
def noise_free_case(draw):
    """A closed-form model, its truth with peaks at least 3 widths apart on
    the grid, and a seeded start near it (positions within 0.1 width, the
    rest within 10%), |.| parameters of either sign."""
    model = draw(st.sampled_from(sorted(CLOSED_FORM)))
    width = draw(st.floats(10.0, 40.0))
    amplitude = draw(st.floats(0.2, 3.0))
    baseline = draw(st.floats(-0.5, 0.5))
    if model == "triplet211":
        center = draw(st.floats(-200.0, 0.0))
        delta = draw(st.floats(3.0 * width, 6.0 * width))
        aple = draw(st.floats(0.5 * delta + 3.0 * width, 600.0))
        truth = {"f_ch1": center, "a_ple": aple, "delta": delta, "fwhm": width,
                 "amplitude": amplitude, "baseline": baseline}
    elif model == "single":
        truth = {"f0": draw(st.floats(-100.0, 100.0)), "fwhm": width,
                 "amplitude": amplitude, "baseline": baseline}
    else:
        truth = {"center": draw(st.floats(-100.0, 100.0)), "sigma": width,
                 "amplitude": amplitude, "baseline": baseline}
    rng = np.random.Generator(np.random.PCG64(draw(st.integers(0, 2**32 - 1))))
    init = {}
    for name, value in truth.items():
        if name in ("f0", "center", "f_ch1", "a_ple", "delta"):
            init[name] = value + rng.uniform(-0.1, 0.1) * width
        elif name == "baseline":
            init[name] = value + rng.uniform(-0.1, 0.1) * amplitude
        else:
            init[name] = value * rng.uniform(0.9, 1.1)
        if name in ("fwhm", "sigma", "a_ple", "delta") and draw(st.booleans()):
            init[name] = -init[name]
    return model, truth, init


@settings(max_examples=60, deadline=None)
@given(case=noise_free_case())
def test_lm_recovers_noise_free_peak_traces(case):
    model, truth, init = case
    grid = np.arange(-600.0, 1400.0, 2.0)
    p = np.array(list(truth.values()))
    fn, _ = CLOSED_FORM[model]
    trace = SpectrumTrace(grid, fn(p, grid))
    if model == "gaussian":
        res = fit_gaussian(trace, init=init)
    else:
        res = fit_lorentzians(trace, model=model, init=init)
    assert res.converged
    want = dict(truth, a_ple=-truth["a_ple"]) if model == "triplet211" else truth
    for name, value in want.items():
        assert res.params[name] == pytest.approx(value, rel=1e-6, abs=1e-6), name


def test_an_exactly_fittable_trace_stops_at_a_rounding_size_step():
    # With an exact model and a zero baseline the residual shrinks towards
    # 1e-150 by a constant factor per step, so the relative cost test alone
    # never fires and the fit used to run to the iteration cap.
    grid = np.arange(-600.0, 1400.0, 2.0)
    trace = SpectrumTrace(grid, np.exp(-(grid**2) / (2.0 * 13.0**2)))
    init = {"center": 0.356, "sigma": 12.4, "amplitude": 0.908, "baseline": -0.0967}
    res = fit_gaussian(trace, init=init)
    assert res.converged and res.n_iterations < 20
    assert res.params["sigma"] == pytest.approx(13.0, rel=1e-12)


# --- peak seeding ---

def find_peaks_loop(x, y):
    """_find_peaks with the per-index candidate loop it had before the scan
    became one NumPy mask; the reference for the vectorized scan."""
    baseline = float(np.median(y))
    noise = 1.4826 * float(np.median(np.abs(y - baseline)))
    threshold = baseline + 3.0 * noise
    width = max(3, min(9, len(y) // 50) | 1)
    smooth = np.convolve(y, np.full(width, 1.0 / width), mode="same")
    idx = [
        k
        for k in range(1, len(y) - 1)
        if smooth[k] > smooth[k - 1] and smooth[k] >= smooth[k + 1] and y[k] > threshold
    ]
    idx.sort(key=lambda k: (-smooth[k], x[k]))
    if not idx:
        raise ValueError("no peak found above the noise floor to seed the fit")
    min_sep = 0.5 * analysis._width_at_half(x, smooth, idx[0], baseline)
    accepted = []
    for k in idx:
        if all(abs(x[k] - x[j]) >= min_sep for j in accepted):
            accepted.append(k)
    return accepted, baseline


def _peaks_or_error(find, x, y):
    try:
        return find(x, y)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(levels=st.lists(st.integers(0, 4), min_size=1, max_size=160),
       shape=st.sampled_from(("steps", "random", "bumps")), seed=st.integers(0, 2**32 - 1))
def test_peak_scan_matches_the_loop(levels, shape, seed):
    """Same peaks and order as the loop on small-integer traces, whose equal
    neighbours make plateaus and tied maxima, on random traces, and on
    Lorentzian bumps over noise."""
    rng = np.random.Generator(np.random.PCG64(seed))
    y = np.repeat(np.asarray(levels, dtype=float), 3)
    x = np.arange(y.size, dtype=float)
    if shape == "random":
        y = rng.normal(size=y.size)
    elif shape == "bumps":
        y = 0.1 * rng.normal(size=y.size)
        for c in rng.uniform(0, y.size, 3):
            y += lorentz_peak(x, c, 4.0)
    assert _peaks_or_error(analysis._find_peaks, x, y) == _peaks_or_error(find_peaks_loop, x, y)


@settings(max_examples=300, deadline=None)
@given(values=st.lists(st.one_of(st.floats(-1e300, 1e300), st.sampled_from((0.0, -0.0, math.nan))),
                       min_size=1, max_size=40))
def test_median_is_np_median_bit_for_bit(values):
    v = np.array(values)
    got, want = analysis._median(v.copy()), np.median(v)
    assert (math.isnan(got) and math.isnan(want)) or np.float64(got).tobytes() == want.tobytes()


# --- one core over a stack of independent fits ---

def _outcome(fit):
    try:
        return fit().as_report()
    except ValueError as exc:
        return str(exc)


@st.composite
def peak_trace_lists(draw):
    """A peak model and 1-5 noisy traces of it on grids of two lengths, with
    a stack size that splits the longer runs of one length."""
    model = draw(st.sampled_from(("single", "triplet211", "gaussian")))
    grids = (np.arange(-400.0, 900.0, 4.0), np.arange(-300.0, 700.0, 5.0))
    traces = []
    for _ in range(draw(st.integers(1, 5))):
        grid = grids[draw(st.integers(0, 1))]
        center = draw(st.floats(-150.0, 150.0))
        width = draw(st.floats(15.0, 60.0))
        amplitude = draw(st.floats(0.5, 3.0))
        if model == "triplet211":
            signal = make_triplet(grid, center, -draw(st.floats(200.0, 500.0)),
                                  draw(st.floats(60.0, 150.0)), width, amplitude)
        elif model == "single":
            signal = amplitude * lorentz_peak(grid, center, width)
        else:
            signal = amplitude * np.exp(-((grid - center) ** 2) / (2.0 * width**2))
        rng = np.random.Generator(np.random.PCG64(draw(st.integers(0, 2**32 - 1))))
        noise = draw(st.sampled_from((0.0, 0.01, 0.05)))
        traces.append(SpectrumTrace(grid, signal + rng.normal(0.0, noise * amplitude, grid.size)))
    stack_points = draw(st.sampled_from((analysis.STACK_POINTS, 2 * grids[0].size)))
    return model, traces, stack_points


@settings(max_examples=40, deadline=None)
@given(case=peak_trace_lists())
def test_a_list_fits_each_trace_as_it_fits_alone(case):
    model, traces, stack_points = case
    if model == "gaussian":
        fit = fit_gaussian
    else:
        def fit(data):
            return fit_lorentzians(data, model)
    alone = [_outcome(lambda: fit(t)) for t in traces]
    with mock.patch.object(analysis, "STACK_POINTS", stack_points):
        if all(isinstance(a, dict) for a in alone):
            assert [r.as_report() for r in fit(traces)] == alone
        else:
            with pytest.raises(analysis.TraceError) as info:
                fit(traces)
            assert str(info.value) == alone[info.value.index]


def test_a_stacked_triplet_fit_keeps_the_normal_matrix_its_trace_gives_alone():
    """Each fit of a stack keeps its own J^T J at the optimum: its cond_jtj
    is, bit for bit, that of the trace fitted alone, and matches cond of a
    central-difference J^T J there, as the field-map fit's does."""
    names, model, _ = analysis._PEAK_MODELS["triplet211"]
    grid = np.arange(-400.0, 900.0, 4.0)
    rng = np.random.Generator(np.random.PCG64(36))
    traces = [SpectrumTrace(grid, make_triplet(grid, center, -350.0, 100.0, 35.0, 1.0)
                            + rng.normal(0.0, 0.02, grid.size)) for center in (-40.0, 0.0, 55.0)]
    stack = fit_lorentzians(traces, "triplet211")
    for trace, res in zip(traces, stack):
        alone = fit_lorentzians(trace, "triplet211")
        assert np.float64(res.cond_jtj).tobytes() == np.float64(alone.cond_jtj).tobytes()
        assert res.converged and res.cond_jtj > 1.0
        # The reported signs flip Jacobian columns, which leaves cond unchanged.
        p = np.array([res.params[name] for name in names])
        j = np.column_stack([central_difference(lambda q: model(q, grid) - trace.signal, p, col)
                             for col in range(p.size)])
        assert res.cond_jtj == pytest.approx(np.linalg.cond(j.T @ j), rel=1e-6)


def test_the_kept_normal_matrix_stays_out_of_equality_repr_and_report():
    grid = np.arange(-100.0, 100.0, 2.0)
    res = fit_lorentzians(SpectrumTrace(grid, lorentz_peak(grid, 3.0, 20.0)))
    other = dataclasses.replace(res, _jtj=res._jtj + np.eye(4))
    assert other.cond_jtj != res.cond_jtj
    assert other == res and repr(other) == repr(res) and other.as_report() == res.as_report()
    assert "jtj" not in repr(res)
    assert dataclasses.replace(res, _jtj=None).cond_jtj is None


# (residual, Jacobian) of toy problems
PROBLEMS = (
    (lambda p: np.array([p[0] - 3.0, 2.0 * (p[1] + 1.0)]),  # linear: converges under the cap
     lambda p: np.array([[1.0, 0.0], [0.0, 2.0]])),
    (_valley, _valley_jac),
)


def _stacked(problems, calls):
    """The residual and Jacobian of a stack of problems; each call is
    recorded in calls as ("residual" or "jac", positions)."""
    def stacked(kind, k):
        def fn(p, rows):
            at = np.arange(len(problems))[rows].tolist()
            calls.append((kind, at))
            return np.array([problems[i][k](q) for i, q in zip(at, p)])
        return fn
    return stacked("residual", 0), stacked("jac", 1)


def _assert_rows_equal(stacked, alone):
    """Each problem's row of every stacked result, J^T J too, is the one
    row of that result when the problem is solved alone."""
    for s, one in enumerate(alone):
        assert len(one) == len(stacked) == 6
        for got, want in zip(stacked, one):
            assert len(want) == 1 and np.array_equal(got[s], want[0])


def test_each_problem_of_a_stack_keeps_its_own_iteration_count():
    calls = []
    starts = np.array([[0.0, 0.0], [-1.2, 1.0]])
    residual, jac = _stacked(PROBLEMS, calls)
    with mock.patch.object(analysis, "MAX_ITERATIONS", 6):
        out = _levenberg_marquardt(residual, starts, jac=jac)
        alone = [_levenberg_marquardt(fn, p0, jac=fn_jac)
                 for (fn, fn_jac), p0 in zip(PROBLEMS, starts)]
    assert out[4].tolist() == [alone[0][4][0], 6] and alone[0][4][0] < 6
    assert out[3].tolist() == [True, False]
    _assert_rows_equal(out, alone)
    # The valley stops at the cap while the linear problem is still refusing
    # steps; from then on only the linear problem is evaluated, until the
    # covariance's Jacobian of both.
    assert calls[-1] == ("jac", [0, 1])
    last_with_valley = max(i for i, (_, at) in enumerate(calls[:-1]) if 1 in at)
    assert len(calls) - 1 - last_with_valley > 2
    # A refresh takes the Jacobian of every pending problem, moved or not:
    # each one is followed by the trial residual of the same problems.
    for i, (kind, at) in enumerate(calls[:-1]):
        if kind == "jac":
            assert calls[i + 1] == ("residual", at)


def test_a_singular_slice_falls_back_on_its_own():
    jtj = np.array([[[2.0, 0.5], [0.5, 1.0]], [[1.0, 1.0], [1.0, 1.0]], [[4.0, 1.0], [1.0, 3.0]]])
    diag = np.ones((3, 2))
    g = np.array([[1.0, -2.0], [0.5, 0.5], [-3.0, 0.25]])
    mu = np.array([1e-3, 0.0, 1e-2])
    steps = analysis._solve_damped(jtj, diag, g, mu)
    for s in (0, 2):
        assert np.array_equal(steps[s], np.linalg.solve(jtj[s] + mu[s] * np.eye(2), -g[s]))
    assert np.array_equal(steps[1], np.linalg.lstsq(jtj[1], -g[1], rcond=None)[0])


def test_a_singular_covariance_slice_takes_the_pseudo_inverse_alone():
    # the first problem never sees its second parameter, so its J^T J is singular
    problems = ((lambda p: np.array([p[0] - 1.0, p[0] + 1.0, 0.5 * p[0]]),
                 lambda p: np.array([[1.0, 0.0], [1.0, 0.0], [0.5, 0.0]])),
                (lambda p: np.array([p[0] - 2.0, p[1] + 1.0, p[0] * p[1]]),
                 lambda p: np.array([[1.0, 0.0], [0.0, 1.0], [p[1], p[0]]])))
    starts = np.array([[0.3, 5.0], [0.5, 0.5]])
    residual, jac = _stacked(problems, [])
    out = _levenberg_marquardt(residual, starts, jac=jac)
    alone = [_levenberg_marquardt(fn, p0, jac=fn_jac) for (fn, fn_jac), p0 in zip(problems, starts)]
    _assert_rows_equal(out, alone)
    assert out[1][0][1, 1] == 0.0 and out[1][0][0, 0] > 0.0
    assert out[0][0][1] == 5.0  # the unseen parameter never moves


def test_a_stack_with_a_non_finite_start_is_refused_naming_the_problem():
    with pytest.raises(analysis.TraceError, match="cannot start") as info:
        _levenberg_marquardt(lambda p, rows: np.array([[1.0, 2.0], [np.nan, 0.0], [np.inf, 1.0]]),
                             np.zeros((3, 2)), jac=lambda p, rows: np.eye(2)[None].repeat(3, 0))
    assert info.value.index == 1
    jacobians = np.eye(2)[None].repeat(3, 0)
    jacobians[2, 0, 1] = np.inf
    with pytest.raises(analysis.TraceError, match="its Jacobian at the initial") as info:
        _levenberg_marquardt(lambda p, rows: np.ones((3, 2)), np.zeros((3, 2)),
                             jac=lambda p, rows: jacobians[rows])
    assert info.value.index == 2
    # a start whose peak sits on a grid point of the second trace only
    zero_width = {"f0": 0.0, "fwhm": 0.0, "amplitude": 1.0, "baseline": 0.0}
    off_grid = np.arange(-50.5, 50.0, 1.0)
    on_grid = np.arange(-50.0, 51.0, 1.0)
    traces = [SpectrumTrace(g, 1.0 / (1.0 + g**2)) for g in (off_grid, on_grid)]
    with pytest.raises(analysis.TraceError, match="cannot start") as info:
        fit_lorentzians(traces, "single", init=zero_width)
    assert info.value.index == 1


def test_a_list_names_the_trace_that_cannot_be_seeded():
    grid = np.arange(-100.0, 100.0, 2.0)
    good = SpectrumTrace(grid, lorentz_peak(grid, 0.0, 20.0))
    with pytest.raises(analysis.TraceError, match="degenerate") as info:
        fit_gaussian([good, good, SpectrumTrace(grid, np.ones(grid.size))])
    assert info.value.index == 2
    assert fit_lorentzians([], "single") == []
