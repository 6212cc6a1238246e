import math

import numpy as np
import pytest

from g4vspec.analysis import _TABLE_PARAMS
from g4vspec.hamiltonian import (
    EmitterModel,
    ManifoldParams,
    a_ple,
    build_hamiltonian,
    registry_labels,
    registry_lookup,
    term_strain,
)
from g4vspec.spectrum import (
    TransitionTable,
    _reference_line,
    dipole_operator,
    lower_branch_size,
    merge_lines,
    solve_manifold,
    sweep_field,
    sweep_strain,
    synth_spectrum,
    transition_diagram,
    transition_intensity_matrix,
    transitions,
)

from conftest import local_maxima, random_emitter

DIRECTION_33 = (np.sin(np.deg2rad(33.0)), 0.0, np.cos(np.deg2rad(33.0)))


# --- dipole operator ---

def test_dipole_identity_for_spinless():
    d = dipole_operator(0.0)
    assert d.shape == (4, 4)
    assert np.allclose(d, np.eye(4))


@pytest.mark.parametrize("i,expected", [(0.5, 8.0), (4.5, 40.0)])
def test_dipole_trace_sum_rule(i, expected):
    d = dipole_operator(i)
    assert np.trace(d.conj().T @ d).real == pytest.approx(expected)


def test_dipole_operator_takes_the_spin_rule_of_spin_matrices():
    """0.3 gave an 8x8 identity and -1 NumPy's "negative dimensions"."""
    assert np.array_equal(dipole_operator(4.5), np.eye(40))
    for i in (0.3, -1):
        with pytest.raises(ValueError, match="must be a non-negative half-integer"):
            dipole_operator(i)


def test_dipole_commutes_with_spin_nuclear_operators(rng):
    i = 1.5
    d = dipole_operator(i)
    dim_sn = 2 * (int(2 * i) + 1)
    m = rng.normal(size=(dim_sn, dim_sn)) + 1j * rng.normal(size=(dim_sn, dim_sn))
    full = np.kron(np.eye(2), m)
    assert np.abs(d @ full - full @ d).max() < 1e-12


# --- zero-strain 117Sn doublet ---

def test_117sn_zero_strain_two_degenerate_pairs():
    e = registry_lookup("117Sn")
    table = transitions(e)
    assert len(table) == 4
    freqs, intens = merge_lines(table)
    assert len(freqs) == 2
    sep = freqs[1] - freqs[0]
    assert sep == pytest.approx(abs(a_ple(e)), rel=0.02)
    assert intens[0] == pytest.approx(intens[1], rel=1e-5)


def test_117sn_strained_triplet_structure():
    e = registry_lookup("117Sn")
    alpha = 0.15 * e.gnd.lambda_soc_ghz
    table = transitions(e, alpha_ghz=alpha)
    freqs, intens = merge_lines(table)
    assert len(freqs) == 3
    # strongest line is the low-frequency one and carries two degenerate
    # transitions; the weak pair together matches it to first order
    assert np.argmax(intens) == 0
    assert intens[0] == pytest.approx(intens[1] + intens[2], rel=2e-6)
    assert intens[0] / intens[1] == pytest.approx(2.0, rel=1e-3)
    assert intens[0] / intens[2] == pytest.approx(2.0, rel=1e-3)
    # the known residual asymmetry of the weak pair is ~3e-4, not smaller
    assert abs(intens[1] / intens[2] - 1.0) < 2e-3


def test_73ge_comb_ten_pairs():
    e = registry_lookup("73Ge")
    table = transitions(e)
    assert len(table) == 20
    freqs, intens = merge_lines(table)
    assert len(freqs) == 10
    spacings = np.diff(freqs)
    assert np.allclose(spacings, abs(a_ple(e)), atol=0.3)
    span = freqs[-1] - freqs[0]
    assert span == pytest.approx(9 * abs(a_ple(e)), abs=1.0)
    assert span == pytest.approx(124.0, abs=3.0)
    assert np.allclose(intens, intens[0], rtol=1e-6)


# --- synthesis ---

def test_synth_empty_table_zero_trace():
    table = TransitionTable(
        freq_mhz=np.empty(0), intensity=np.empty(0),
        gnd_index=np.empty(0, int), exc_index=np.empty(0, int),
        jsq_gnd=np.empty(0), jsq_exc=np.empty(0),
    )
    trace = synth_spectrum(table, 10.0, np.linspace(-5, 5, 11))
    assert np.allclose(trace.signal, 0.0)
    freqs, intens = merge_lines(table)
    assert freqs.shape == intens.shape == (0,)


def test_synth_single_line_peak_value():
    table = TransitionTable(
        freq_mhz=np.array([3.0]), intensity=np.array([2.5]),
        gnd_index=np.array([0]), exc_index=np.array([0]),
        jsq_gnd=np.array([0.0]), jsq_exc=np.array([0.0]),
    )
    fwhm = 8.0
    trace = synth_spectrum(table, fwhm, np.arange(-50.0, 50.5, 0.5))
    k = np.argmin(np.abs(trace.freq_mhz - 3.0))
    assert trace.signal[k] == pytest.approx(2.5 * 2.0 / (np.pi * fwhm), rel=1e-9)


def test_synth_validates_inputs():
    table = transitions(registry_lookup("117Sn"))
    with pytest.raises(ValueError, match="positive"):
        synth_spectrum(table, 0.0, np.linspace(-1, 1, 5))
    with pytest.raises(ValueError, match="increasing"):
        synth_spectrum(table, 1.0, np.array([0.0, 0.0, 1.0]))
    with pytest.raises(ValueError, match="^frequency grid is empty$"):
        synth_spectrum(table, 1.0, np.array([]))


def test_73ge_flat_top_width():
    e = registry_lookup("73Ge")
    table = transitions(e)
    grid = np.arange(-200.0, 200.25, 0.25)
    trace = synth_spectrum(table, 26.0, grid)
    top = trace.signal.max()
    above_half = grid[trace.signal >= 0.5 * top]
    fwhm_profile = above_half.max() - above_half.min()
    comb_span = 9 * abs(a_ple(e))
    assert fwhm_profile == pytest.approx(comb_span + 26.0, rel=0.15)
    # visibly non-Lorentzian: a single Lorentzian of the same FWHM falls to
    # ~0.58 of peak at half of its half-width; the comb stays nearly flat
    k_quarter = np.argmin(np.abs(grid - fwhm_profile / 4.0))
    assert trace.signal[k_quarter] > 0.9 * top


# --- strain sweeps ---

def test_sweep_strain_zero_alpha_117sn():
    e = registry_lookup("117Sn")
    sweep = sweep_strain(e, "gnd", [0.0])
    levels = sweep.levels[0]
    assert levels.shape == (4,)
    distinct = np.unique(np.round(levels, 3))
    assert distinct.size == 2
    assert distinct[1] - distinct[0] == pytest.approx(681.22, abs=1.0)


def test_sweep_strain_large_alpha_spin_half_asymptotics():
    e = registry_lookup("117Sn")
    alpha = 10.0 * e.gnd.lambda_soc_ghz
    sweep = sweep_strain(e, "gnd", [alpha])
    levels, jsq = sweep.levels[0], sweep.jsq[0]
    j1 = levels[jsq > 1.0]
    j0 = levels[jsq <= 1.0]
    assert j0.size == 1 and j1.size == 3
    separation = j1.mean() - j0.mean()
    assert separation == pytest.approx(e.gnd.a_fc_mhz, rel=0.02)
    j1_distinct = np.unique(np.round(np.sort(j1), 3))
    assert j1_distinct.size == 2
    internal = j1_distinct[1] - j1_distinct[0]
    assert internal == pytest.approx(1.5 * abs(e.gnd.a_dd_mhz), rel=0.05)


def test_sweep_strain_large_alpha_73ge_j_labels():
    e = registry_lookup("73Ge")
    alpha = 10.0 * e.gnd.lambda_soc_ghz
    sweep = sweep_strain(e, "gnd", [alpha])
    jsq = np.sort(sweep.jsq[0])
    assert np.abs(jsq[:9] - 20.0).max() < 0.5   # J = 4 manifold
    assert np.abs(jsq[9:] - 30.0).max() < 0.5   # J = 5 manifold


def test_sweep_strain_monotone_axis_required():
    e = registry_lookup("117Sn")
    with pytest.raises(ValueError, match="monotone"):
        sweep_strain(e, "gnd", [0.0, 2.0, 1.0])
    # a NaN among them was refused as not monotone, not as non-finite
    with pytest.raises(ValueError, match="^strain alpha_ghz must be finite, got nan$"):
        sweep_strain(e, "gnd", [0.0, math.nan])


@pytest.mark.parametrize("alphas", [5.0, [[0.0, 5.0], [10.0, 15.0]]], ids=["scalar", "2-d"])
def test_sweep_strain_reads_any_shape_of_strains_as_a_flat_axis(alphas):
    """A scalar strain raised IndexError and a 2-D array NumPy's broadcast
    error; strains are read flat, as sweep_field reads its magnitudes."""
    e = registry_lookup("117Sn")
    sweep = sweep_strain(e, "gnd", alphas)
    flat = np.reshape(alphas, -1)
    assert sweep.axis.tolist() == flat.tolist()
    assert sweep.levels.tolist() == sweep_strain(e, "gnd", flat.tolist()).levels.tolist()


@pytest.mark.parametrize("grid", [[math.nan], [0.0, math.inf], [math.nan, 1.0],
                                  [-math.inf, 0.0, 1.0]])
def test_synth_refuses_a_grid_point_that_is_not_finite(grid):
    """[nan] gave a NaN signal and [0, inf] a 0 at inf, without a word;
    [nan, 1] was refused as not strictly increasing."""
    with pytest.raises(ValueError, match="^frequency grid must be finite$"):
        synth_spectrum(transitions(registry_lookup("117Sn")), 10.0, grid)


def test_delta_grows_monotonically_with_strain():
    e = registry_lookup("117Sn")
    lam = e.gnd.lambda_soc_ghz
    deltas = []
    for alpha in np.linspace(0.02, 0.3, 8) * lam:
        freqs, _ = merge_lines(transitions(e, alpha_ghz=alpha))
        assert len(freqs) == 3
        deltas.append(freqs[2] - freqs[1])
    assert np.all(np.diff(deltas) > 0)


# --- field sweeps ---

def test_sweep_field_zero_row_matches_direct_synthesis():
    e = registry_lookup("117Sn")
    grid = np.arange(-600.0, 600.0, 2.0)
    traces = sweep_field(e, (0.0, 0.0, 1.0), [0.0, 0.05], 35.0, grid)
    direct = synth_spectrum(transitions(e), 35.0, grid)
    assert np.array_equal(traces[0].signal, direct.signal)
    assert traces[0].meta["b_mag_tesla"] == 0.0


def test_sweep_field_requires_unit_direction():
    e = registry_lookup("117Sn")
    with pytest.raises(ValueError, match="unit"):
        sweep_field(e, (0.0, 0.0, 2.0), [0.0], 35.0, np.linspace(-1, 1, 5))
    # NaN passed the norm test; "z" and (0, 1) failed inside NumPy
    for direction in ((math.nan, 0, 1), (math.inf, 0, 0), "z", (0, 1)):
        with pytest.raises(ValueError, match="^field direction must be a unit vector of 3 "
                                             "components, got \\("):
            sweep_field(e, direction, [0.0], 35.0, np.linspace(-1, 1, 5))


def test_73ge_map_hump_and_shoulders_at_0p1T():
    """At 0.1 T the two spin groups still overlap near zero detuning: a
    central hump on top of two broad single-group shoulders, which then
    separate into two humps at higher field."""
    e = registry_lookup("73Ge")
    grid = np.arange(-300.0, 300.5, 0.5)
    trace = sweep_field(e, DIRECTION_33, [0.1], 26.0, grid)[0]
    sig = trace.signal
    top = sig.max()

    def at(f):
        return sig[np.argmin(np.abs(grid - f))]

    # central hump: global maximum at zero detuning
    assert abs(grid[np.argmax(sig)]) < 10.0
    # broad shoulders: wide elevated plateaus on both sides, clearly below
    # the hump but far above the wings
    for side in (-1.0, 1.0):
        shoulder = np.array([at(side * f) for f in (55.0, 70.0, 85.0)])
        assert np.all(shoulder > 0.55 * top)
        assert np.all(shoulder < 0.85 * top)
        assert at(side * 160.0) < 0.35 * top
    # shoulder flatness: variation across the shoulder stays small
    left = np.array([at(-f) for f in np.arange(55.0, 90.0, 5.0)])
    assert np.ptp(left) < 0.1 * top


def test_73ge_axial_map_same_morphology():
    # the axial component sets the group separation, so the tilted-field
    # shape at 0.1 T appears on the axis near 0.1*cos(33 deg) ~ 0.084 T
    e = registry_lookup("73Ge")
    grid = np.arange(-300.0, 300.5, 0.5)
    trace = sweep_field(e, (0.0, 0.0, 1.0), [0.084], 26.0, grid)[0]
    sig = trace.signal
    top = sig.max()
    assert abs(grid[np.argmax(sig)]) < 10.0
    for side in (-1.0, 1.0):
        k = np.argmin(np.abs(grid - side * 80.0))
        assert 0.5 * top < sig[k] < 0.85 * top


def test_73ge_map_groups_fully_separate_at_high_field():
    e = registry_lookup("73Ge")
    grid = np.arange(-400.0, 400.5, 0.5)
    trace = sweep_field(e, DIRECTION_33, [0.25], 26.0, grid)[0]
    peaks = [grid[k] for k in local_maxima(trace.signal, prominence_frac=0.05)]
    assert len(peaks) == 2
    assert peaks[0] < -50 and peaks[1] > 50


def test_strained_117sn_axial_map_h1_linear_and_h0_anticrossing():
    e = registry_lookup("117Sn", strain_alpha_ghz=55.0)
    f_h1_zero = merge_lines(transitions(e))[0][0]
    h1_gaps = {}
    h0_gaps = []
    b_values = np.arange(-0.03, 0.0301, 0.005)
    for bz in b_values:
        table = transitions(e, (0.0, 0.0, bz))
        freqs, intens = merge_lines(table)
        near_h1 = np.abs(freqs - f_h1_zero) < 100.0
        if abs(bz) <= 1e-12:
            assert freqs.size == 3  # degenerate strong pair plus split weak pair
            h0_gaps.append(freqs[2] - freqs[1])
            continue
        h1_pick = np.argsort(np.where(near_h1, intens, -1.0))[-2:]
        h1 = np.sort(freqs[h1_pick])
        rest = np.setdiff1d(np.arange(freqs.size), h1_pick)
        bright = rest[np.argsort(intens[rest])[-2:]]
        h0_gaps.append(abs(np.diff(np.sort(freqs[bright]))[0]))
        assert intens[h1_pick].min() > 0.2  # the strong degenerate pair
        h1_gaps[round(abs(bz), 6)] = h1[1] - h1[0]
    # linear splitting of the strong pair with |B|
    assert h1_gaps[0.03] == pytest.approx(3.0 * h1_gaps[0.01], rel=0.02)
    assert h1_gaps[0.02] == pytest.approx(2.0 * h1_gaps[0.01], rel=0.02)
    # weak-pair avoided crossing: gap never closes, and it is widest at B=0
    h0_gaps = np.array(h0_gaps)
    assert h0_gaps.min() > 20.0
    k0 = np.argmin(np.abs(b_values))
    assert h0_gaps[k0] == pytest.approx(h0_gaps.max(), rel=1e-6)


def test_clock_transition_flat_at_zero_field():
    e = registry_lookup("117Sn", strain_alpha_ghz=55.0)

    def mj0_gap(bz):
        es = solve_manifold(e, "gnd", (0.0, 0.0, bz))
        return es.values[1] - es.values[0]

    slope = (mj0_gap(0.001) - mj0_gap(-0.001)) / 0.002
    assert abs(slope) < 0.5  # MHz per Tesla
    assert mj0_gap(0.0) > 100.0  # the anticrossing gap itself is wide open


# --- invariants ---

def test_dipole_sum_rule_random_conditions(rng):
    for _ in range(5):
        e = random_emitter(rng)
        b = tuple(rng.uniform(-0.2, 0.2, size=3))
        es_g = solve_manifold(e, "gnd", b)
        es_e = solve_manifold(e, "exc", b)
        total = transition_intensity_matrix(es_g, es_e).sum()
        assert total == pytest.approx(e.dim, rel=1e-8)


def test_spin_projection_selection_rule_axial():
    from g4vspec.spinops import SIGMA_Z, kron

    e = registry_lookup("73Ge", strain_alpha_ghz=0.0)
    b = (0.0, 0.0, 0.15)
    es_g = solve_manifold(e, "gnd", b)
    es_e = solve_manifold(e, "exc", b)
    nd = e.nuclear_dim
    iz = np.diag(e.nuclear_spin - np.arange(nd)).astype(complex)
    jz = kron(np.eye(2), 0.5 * SIGMA_Z, np.eye(nd)) + kron(np.eye(2), np.eye(2), iz)
    table = transitions(e, b)
    n_low = e.dim // 2
    for rec in table.records():
        vg = es_g.vectors[:, rec["gnd_index"]]
        ve = es_e.vectors[:, rec["exc_index"]]
        mg = np.real(vg.conj() @ jz @ vg)
        me = np.real(ve.conj() @ jz @ ve)
        assert abs(mg - me) < 1e-6


def test_zero_field_parity(rng):
    e = registry_lookup("117Sn", strain_alpha_ghz=20.0)
    for _ in range(3):
        b = tuple(rng.uniform(-0.15, 0.15, size=3))
        minus = tuple(-c for c in b)
        f1 = np.sort(transitions(e, b).freq_mhz)
        f2 = np.sort(transitions(e, minus).freq_mhz)
        assert np.abs(f1 - f2).max() < 1e-6


@pytest.mark.parametrize("label", registry_labels())
def test_rotating_the_field_about_z_at_zero_strain_leaves_the_lines_unchanged(label):
    e = registry_lookup(label)
    for b_perp, b_z in ((0.02, 0.05), (0.3, 0.1)):
        f0, x0 = merge_lines(transitions(e, (b_perp, 0.0, b_z)))
        for phi in (0.7, 2.0, 4.4):
            b = (b_perp * np.cos(phi), b_perp * np.sin(phi), b_z)
            f, x = merge_lines(transitions(e, b))
            assert f.shape == f0.shape
            assert np.abs(f - f0).max() < 1e-7
            assert np.abs(x - x0).max() < 1e-9 * x0.max()


@pytest.mark.parametrize("label", registry_labels())
def test_zero_hyperfine_puts_every_line_on_the_bare_c_line(label):
    table = transitions(registry_lookup(label).scaled_hyperfine(0.0))
    assert len(table) > 0 and np.all(table.freq_mhz == 0.0)


@pytest.mark.parametrize("label", registry_labels())
def test_spin_neutral_reference_line_equals_the_full_coupling_free_branch_mean(label):
    """The C line and its strain slope from the I = 0 (4x4) emitter against
    the lower-branch means of the coupling-free emitter at its own I (up to
    40x40), at seeded random fields (0-0.3 T, any direction) and strains.
    The bound is the rounding of both eigensolves: dim eps |H| per level,
    and per slope dim eps |dH/dalpha| (1 + |H| / branch gap)."""
    rng = np.random.Generator(np.random.PCG64(sum(map(ord, label))))
    emitter = registry_lookup(label)
    n = 32
    direction = rng.normal(size=(n, 3))
    b = direction / np.linalg.norm(direction, axis=1)[:, None] * rng.uniform(0.0, 0.3, (n, 1))
    alpha, beta = rng.uniform(0.0, 100.0, n), rng.uniform(0.0, 20.0, n)
    line, (slope,) = _reference_line(emitter, b, alpha, beta,
                                     [_TABLE_PARAMS["strain_alpha"][2]])

    bare = emitter.without_couplings()
    n_low = lower_branch_size(emitter)
    d_strain = term_strain(1.0, 0.0, emitter.nuclear_spin)
    eps = np.finfo(float).eps
    want_line = want_slope = line_bound = slope_bound = 0.0
    for sign, manifold in ((-1.0, "gnd"), (1.0, "exc")):
        es = solve_manifold(bare, manifold, b, alpha, beta)
        v = es.vectors[..., :n_low]
        want_line = want_line + sign * es.values[:, :n_low].mean(axis=1)
        want_slope = want_slope + sign * np.einsum(
            "kij,kij->k", v.conj(), d_strain @ v).real / n_low
        norm = np.linalg.norm(build_hamiltonian(bare, manifold, b, alpha, beta), 2, axis=(1, 2))
        gap = es.values[:, n_low] - es.values[:, n_low - 1]
        dims = emitter.dim + 4  # the full solve and the spin-neutral one
        line_bound = line_bound + dims * eps * norm
        slope_bound = slope_bound + dims * eps * np.linalg.norm(d_strain, 2) * (1.0 + norm / gap)
    assert np.all(np.abs(line - want_line) <= line_bound)
    assert np.all(np.abs(slope - want_slope) <= slope_bound)
    if emitter.nuclear_spin == 0.0:  # the same 4x4 system, solved the same way
        assert line.tobytes() == want_line.tobytes()
        assert slope.tobytes() == want_slope.tobytes()


def test_a_ple_consistency_at_zero_field():
    sn = registry_lookup("117Sn")
    freqs, _ = merge_lines(transitions(sn))
    assert freqs[1] - freqs[0] == pytest.approx(abs(a_ple(sn)), rel=0.02)
    ge = registry_lookup("73Ge")
    gf, _ = merge_lines(transitions(ge))
    assert np.mean(np.diff(gf)) == pytest.approx(abs(a_ple(ge)), rel=0.02)


def test_branch_gap_guard_fires_for_unphysical_emitter():
    p = ManifoldParams(lambda_soc_ghz=0.001, a_fc_mhz=500.0)
    e = EmitterModel(isotope="bad", nuclear_spin=0.5, g_nuclear=-1.0, gnd=p, exc=p)
    with pytest.raises(ValueError, match="branch"):
        transitions(e)


@pytest.mark.parametrize("lambda_gnd, lambda_exc, fields, message", [
    (0.5, None, [(0.0, 0.0, 0.0)], "gnd: spin-orbit branch separation 332 MHz"),
    # 1.0 T passes; the gap closes to 3.05e+03 MHz at 0.3 T
    (12.0, None, [(0.0, 0.0, 1.0), (0.0, 0.0, 0.3)],
     "gnd: spin-orbit branch separation 3.05e.03 MHz"),
    # both manifolds fail at 0.3 T: the ground one is named
    (12.0, 2.0, [(0.0, 0.0, 1.0), (0.0, 0.0, 0.3)],
     "gnd: spin-orbit branch separation 3.05e.03 MHz"),
    (None, 2.0, [(0.0, 0.0, 1.0), (0.0, 0.0, 0.3)], "exc: spin-orbit branch separation 6.07e.03"),
], ids=["one-point", "field-stack", "gnd-before-exc", "exc"])
def test_branch_gap_guard_names_the_first_failing_point(lambda_gnd, lambda_exc, fields, message):
    e = registry_lookup("117Sn", lambda_gnd_ghz=lambda_gnd, lambda_exc_ghz=lambda_exc)
    grid = np.linspace(-100.0, 100.0, 11)
    with pytest.raises(ValueError, match=message):
        if len(fields) == 1:
            transitions(e, fields[0])
        else:
            sweep_field(e, (0.0, 0.0, 1.0), [f[2] for f in fields], 30.0, grid)


# --- diagram export ---

def test_diagram_spinless_single_unit_line():
    d = transition_diagram(registry_lookup("118Sn"))
    freqs = {round(l["freq_mhz"], 6) for l in d["lines"]}
    assert len(freqs) == 1
    assert sum(l["intensity"] for l in d["lines"]) == pytest.approx(1.0, abs=1e-9)


def test_diagram_117sn_and_73ge_counts():
    d = transition_diagram(registry_lookup("117Sn"))
    assert len(d["lines"]) == 4
    assert len({round(l["freq_mhz"], 2) for l in d["lines"]}) == 2
    assert len(d["gnd_levels_mhz"]) == 4 and len(d["exc_levels_mhz"]) == 4

    d = transition_diagram(registry_lookup("73Ge"))
    assert len(d["lines"]) == 20
    assert len({round(l["freq_mhz"], 2) for l in d["lines"]}) == 10


def test_diagram_jsq_labels_match_between_views():
    e = registry_lookup("117Sn", strain_alpha_ghz=8500.0)
    d = transition_diagram(e)
    for line in d["lines"]:
        assert 0.0 <= line["jsq_gnd"] < 2.5
        assert 0.0 <= line["jsq_exc"] < 2.5
    # strongly strained ground manifold resolves into singlet/triplet labels
    labels = sorted({round(l["jsq_gnd"], 1) for l in d["lines"]})
    assert labels[0] < 0.5 and labels[-1] > 1.5


def test_jsq_labels_match_the_explicit_expectation():
    from g4vspec.hamiltonian import jsq_operator
    from g4vspec.spectrum import _jsq_labels

    e = registry_lookup("73Ge")
    es = solve_manifold(e, "gnd", (0.02, 0.0, 0.1))
    jop = jsq_operator(e.nuclear_spin)
    want = np.array([np.real(v.conj() @ jop @ v) for v in es.vectors.T])
    assert np.abs(_jsq_labels(es, jop) - want).max() <= 1e-12


def test_diagram_levels_come_from_the_table_solves(calls):
    import g4vspec.spectrum as spectrum_mod

    e = registry_lookup("117Sn", strain_alpha_ghz=20.0)
    solves = calls(spectrum_mod, "solve_manifold")
    d = transition_diagram(e, (0.0, 0.0, 0.05))
    assert len(solves) == 4
    es_g = solve_manifold(e, "gnd", (0.0, 0.0, 0.05))
    low = es_g.values[:e.dim // 2]
    assert d["gnd_levels_mhz"] == [float(v) for v in low - low.mean()]
    assert d["lines"] == list(transitions(e, (0.0, 0.0, 0.05)).records())


# --- solve counts ---

def test_transitions_outside_a_memo_solve_four_manifolds_each(calls):
    import g4vspec.spectrum as spectrum_mod

    e = registry_lookup("117Sn", strain_alpha_ghz=20.0)
    solves = calls(spectrum_mod, "solve_manifold")
    transitions(e, (0.0, 0.0, 0.05))
    transitions(e, (0.0, 0.0, 0.05))
    assert len(solves) == 8
