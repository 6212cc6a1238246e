import math

import numpy as np
import pytest

from g4vspec.analysis import (
    _levenberg_marquardt,
    chi2_independence,
    ensemble_stats,
    fit_full_model,
    fit_gaussian,
    fit_lorentzians,
    gammq,
    isotope_shift_ratio,
    kde,
)
from g4vspec.hamiltonian import a_ple, registry_lookup
from g4vspec.spectrum import SpectrumTrace, sweep_field


def lorentz_peak(f, center, fwhm):
    hw2 = (0.5 * fwhm) ** 2
    return hw2 / ((f - center) ** 2 + hw2)


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


def test_gammq_against_mpmath_oracle():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 60
    for x in (1e-3, 0.1, 1.0, 3.84, 10.0, 50.0, 251.4, 700.0, 1300.0):
        ours = gammq(0.5, x / 2.0)
        ref = float(mpmath.gammainc(mpmath.mpf(0.5), mpmath.mpf(x) / 2, mpmath.inf,
                                    regularized=True))
        assert ours == pytest.approx(ref, rel=1e-10)


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


# --- optimizer corner cases ---

def test_lm_flags_non_convergence_at_iteration_cap():
    def residual(p):
        # narrow curved valley; one iteration is never enough from here
        return np.array([10.0 * (p[1] - p[0] ** 2), 1.0 - p[0]])

    p, cov, rms, converged, iters = _levenberg_marquardt(
        residual, np.array([-1.2, 1.0]), max_iter=1
    )
    assert not converged
    assert iters == 1
    # best-so-far is still an improvement over the start
    start = residual(np.array([-1.2, 1.0]))
    assert rms <= math.sqrt(float(start @ start) / start.size)


def test_lm_solves_curved_valley():
    def residual(p):
        return np.array([10.0 * (p[1] - p[0] ** 2), 1.0 - p[0]])

    p, cov, rms, converged, iters = _levenberg_marquardt(residual, np.array([-1.2, 1.0]))
    assert converged
    assert np.allclose(p, [1.0, 1.0], atol=1e-6)


# --- reference-line memo inside full-model fits ---

def _small_sn_map():
    base = registry_lookup("117Sn", strain_alpha_ghz=55.0)
    grid = np.arange(-700.0, 700.0, 10.0)
    traces = sweep_field(base.scaled_hyperfine(1.2), (0.0, 0.0, 1.0), [0.0, 0.02],
                         150.0, grid)
    return base, traces


def _record_solves(monkeypatch):
    """Every solve_manifold call as (is_bare, manifold, b, alpha, beta, active memo)."""
    import g4vspec.spectrum as spectrum_mod

    calls = []
    real = spectrum_mod.solve_manifold

    def counting(emitter, manifold, b=(0.0, 0.0, 0.0), alpha_ghz=None, beta_ghz=None):
        calls.append((emitter == emitter.without_couplings(), manifold, tuple(b),
                      alpha_ghz, beta_ghz, spectrum_mod._REFERENCE_MEMO.get()))
        return real(emitter, manifold, b, alpha_ghz, beta_ghz)

    monkeypatch.setattr(spectrum_mod, "solve_manifold", counting)
    return calls


def test_full_model_fit_solves_each_reference_once_per_manifold(monkeypatch):
    from g4vspec.spectrum import _REFERENCE_MEMO

    base, traces = _small_sn_map()
    calls = _record_solves(monkeypatch)
    res = fit_full_model(traces, ("a_ple_scale", "strain_alpha", "fwhm"), base,
                         init={"fwhm": 120.0})
    assert res.converged
    bare = [c[1:5] for c in calls if c[0]]
    points = {c[2:5] for c in calls if not c[0]}
    # each distinct (b, alpha, beta) reference is solved once per manifold
    assert sorted(bare) == sorted((m,) + p for p in points for m in ("gnd", "exc"))
    assert len(calls) - len(bare) > len(bare)  # more tables than references
    assert len({id(c[5]) for c in calls}) == 1 and calls[0][5] is not None
    assert _REFERENCE_MEMO.get() is None


def test_full_model_fits_in_a_row_share_no_memo(monkeypatch):
    base, traces = _small_sn_map()
    calls = _record_solves(monkeypatch)
    fit_full_model(traces, ("a_ple_scale", "fwhm"), base, init={"fwhm": 120.0})
    first = list(calls)
    calls.clear()
    fit_full_model(traces, ("a_ple_scale", "fwhm"), base, init={"fwhm": 120.0})
    assert [c[:5] for c in calls] == [c[:5] for c in first]
    assert sum(c[0] for c in calls) == 4  # two rows, two manifolds, solved again
    assert first[0][5] is not calls[0][5]


def test_full_model_fit_that_raises_drops_its_memo():
    from g4vspec.hamiltonian import EmitterModel, ManifoldParams
    from g4vspec.spectrum import _REFERENCE_MEMO

    p = ManifoldParams(lambda_soc_ghz=0.001, a_fc_mhz=500.0)
    bad = EmitterModel(isotope="bad", nuclear_spin=0.5, g_nuclear=-1.0, gnd=p, exc=p)
    grid = np.linspace(-100.0, 100.0, 21)
    with pytest.raises(ValueError, match="branch"):
        fit_full_model(SpectrumTrace(grid, np.ones_like(grid)), ("fwhm",), bad)
    assert _REFERENCE_MEMO.get() is None


def test_full_model_fit_in_a_copied_context_leaves_the_caller_alone():
    import contextvars

    from g4vspec.spectrum import _REFERENCE_MEMO, reference_memo

    base, traces = _small_sn_map()
    with reference_memo():
        outer = _REFERENCE_MEMO.get()
        ctx = contextvars.copy_context()
        res = ctx.run(fit_full_model, traces, ("a_ple_scale", "fwhm"), base,
                      init={"fwhm": 120.0})
        assert res.converged
        assert ctx[_REFERENCE_MEMO] is outer
        assert _REFERENCE_MEMO.get() is outer and outer == {}
    assert _REFERENCE_MEMO.get() is None


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


@pytest.mark.parametrize("data", [[], ()])
def test_full_model_fit_of_no_traces_is_refused(data):
    with pytest.raises(ValueError, match="^fit_full_model needs at least one trace$"):
        fit_full_model(data, ("fwhm",), registry_lookup("117Sn"))
