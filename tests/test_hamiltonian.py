import dataclasses

import numpy as np
import pytest

from g4vspec.hamiltonian import (
    MU_B_MHZ_PER_T,
    MU_N_MHZ_PER_T,
    EmitterModel,
    ManifoldParams,
    a_parallel,
    a_perp,
    a_ple,
    build_hamiltonian,
    jsq_operator,
    jt_shifted_params,
    registry_labels,
    registry_lookup,
    term_hyperfine,
    term_ioc,
    term_quadrupole,
    term_soc,
    term_strain,
    term_zeeman,
)
from g4vspec import analysis
from g4vspec.spectrum import (solve_manifold, sweep_field, sweep_strain, synth_spectrum,
                              transitions)
from g4vspec.spinops import is_hermitian

from conftest import random_emitter


def flat_emitter(i=0.5, g_i=-2.0, g_e=2.0023, q=0.0, **kw):
    """Emitter with unit-scale manifolds for isolated term tests."""
    p = ManifoldParams(lambda_soc_ghz=100.0, q_orb=q)
    return EmitterModel(isotope="test", nuclear_spin=i, g_nuclear=g_i,
                        gnd=p, exc=p, g_electron=g_e, **kw)


# --- spin-orbit ---

def test_soc_zero_coupling():
    p = ManifoldParams(lambda_soc_ghz=0.0)
    assert np.allclose(term_soc(p, 0.5), 0.0)


def test_soc_spinless_diagonal():
    p = ManifoldParams(lambda_soc_ghz=850.0)
    h = term_soc(p, 0.0)
    assert np.allclose(np.diag(h).real, [425e3, -425e3, -425e3, 425e3])
    assert np.allclose(h, np.diag(np.diag(h)))


def test_soc_spin_half_explicit_kron():
    p = ManifoldParams(lambda_soc_ghz=850.0)
    h = term_soc(p, 0.5)
    # orbital-spin pattern duplicated over both m_I values
    pattern = [425e3, 425e3, -425e3, -425e3, -425e3, -425e3, 425e3, 425e3]
    assert h.shape == (8, 8)
    assert np.allclose(np.diag(h).real, pattern)


# --- strain ---

def test_strain_zero():
    assert np.allclose(term_strain(0.0, 0.0, 0.5), 0.0)


def test_strain_alpha_55ghz_orbital_doublet():
    vals = np.linalg.eigvalsh(term_strain(55.0, 0.0, 0.0))
    assert np.allclose(sorted(set(np.round(vals, 6))), [-55e3, 55e3])


def test_strain_pythagoras():
    vals = np.linalg.eigvalsh(term_strain(3.0, 4.0, 0.0))
    assert np.allclose(np.abs(vals), 5e3)


# --- Zeeman ---

def test_zeeman_zero_field():
    e = flat_emitter()
    assert np.allclose(term_zeeman(e, "gnd", (0.0, 0.0, 0.0)), 0.0)


def test_zeeman_nuclear_part_hand_value():
    # isolate the nuclear term: g_e = 0, q = 0, g_I = -2, Bz = 1 T
    e = flat_emitter(i=0.5, g_i=-2.0, g_e=0.0, q=0.0)
    h = term_zeeman(e, "gnd", (0.0, 0.0, 1.0))
    expected = -2.0 * MU_N_MHZ_PER_T * 0.5
    block = np.diag(h).real[:2]
    assert block[0] == pytest.approx(expected)      # m_I = +1/2
    assert block[1] == pytest.approx(-expected)     # m_I = -1/2
    assert abs(expected) == pytest.approx(7.622593 / 2.0 * 2.0)


def test_zeeman_electron_splitting_hand_value():
    e = flat_emitter(i=0.0, g_i=0.0, g_e=2.0023, q=0.0)
    h = term_zeeman(e, "gnd", (0.0, 0.0, 0.1))
    vals = np.linalg.eigvalsh(h)
    splitting = vals.max() - vals.min()
    assert splitting == pytest.approx(2.0023 * MU_B_MHZ_PER_T * 0.1, rel=1e-12)
    assert splitting == pytest.approx(2802.5, abs=0.1)


def test_zeeman_orbital_term_uses_manifold_q():
    p_g = ManifoldParams(lambda_soc_ghz=100.0, q_orb=0.1)
    p_e = ManifoldParams(lambda_soc_ghz=300.0, q_orb=0.25)
    e = EmitterModel(isotope="t", nuclear_spin=0.0, g_nuclear=0.0, gnd=p_g, exc=p_e,
                     g_electron=0.0)
    hg = term_zeeman(e, "gnd", (0.0, 0.0, 1.0))
    he = term_zeeman(e, "exc", (0.0, 0.0, 1.0))
    assert np.diag(hg).real[0] == pytest.approx(0.1 * MU_B_MHZ_PER_T)
    assert np.diag(he).real[0] == pytest.approx(0.25 * MU_B_MHZ_PER_T)


# --- hyperfine ---

def test_hyperfine_zero_coupling():
    p = ManifoldParams(lambda_soc_ghz=100.0)
    assert np.allclose(term_hyperfine(p, 0.5), 0.0)


def test_hyperfine_scalars_from_table():
    sn = registry_lookup("117Sn")
    assert a_parallel(sn.gnd) == pytest.approx(1362.44)
    assert a_perp(sn.gnd) == pytest.approx(1442.39)
    si = registry_lookup("29Si")
    assert a_parallel(si.gnd) == pytest.approx(61.86)
    assert a_perp(si.gnd) == pytest.approx(68.88)
    sn119 = registry_lookup("119Sn")
    assert a_parallel(sn119.exc) == pytest.approx(703.45)


def test_hyperfine_block_matches_explicit_four_level_matrix():
    p = ManifoldParams(lambda_soc_ghz=100.0, a_fc_mhz=1389.09, a_dd_mhz=-26.65)
    apar = 1389.09 - 26.65
    aperp = 1389.09 + 2 * 26.65
    # basis (m_S, m_I) = (+,+), (+,-), (-,+), (-,-)
    explicit = np.array(
        [
            [apar / 4, 0, 0, 0],
            [0, -apar / 4, aperp / 2, 0],
            [0, aperp / 2, -apar / 4, 0],
            [0, 0, 0, apar / 4],
        ]
    )
    h = term_hyperfine(p, 0.5)
    assert np.allclose(h[:4, :4], explicit)
    assert np.allclose(h[4:, 4:], explicit)
    vals = np.sort(np.linalg.eigvalsh(explicit))
    expected = np.sort([apar / 4, apar / 4, -apar / 4 + aperp / 2, -apar / 4 - aperp / 2])
    assert np.allclose(vals, expected)


# --- quadrupole ---

def test_quadrupole_vanishes_for_spin_half():
    p = ManifoldParams(lambda_soc_ghz=100.0, quad_q_mhz=4.3)
    assert np.allclose(term_quadrupole(p, 0.5), 0.0)


def test_quadrupole_m_squared_pattern():
    p = ManifoldParams(lambda_soc_ghz=100.0, quad_q_mhz=4.3)
    h = term_quadrupole(p, 4.5)
    diag = np.diag(h).real[:10]
    ms = 4.5 - np.arange(10)
    assert np.allclose(diag, 4.3 * (ms**2 - 24.75 / 3.0))
    # |m| = 9/2 vs |m| = 7/2 gap
    gap = diag[0] - diag[1]
    assert gap == pytest.approx(4.3 * (20.25 - 12.25))
    assert gap == pytest.approx(34.4)
    assert abs(np.trace(h)) < 1e-10


# --- nuclear spin-orbit ---

def test_ioc_pattern_and_sign():
    p = ManifoldParams(lambda_soc_ghz=100.0, ioc_upsilon_mhz=10.0)
    h = term_ioc(p, 0.5)
    # orbital sign times m_I: +2.5, -2.5 repeated over spin, then flipped
    assert np.allclose(np.diag(h).real, [2.5, -2.5, 2.5, -2.5, -2.5, 2.5, -2.5, 2.5])
    p_neg = ManifoldParams(lambda_soc_ghz=100.0, ioc_upsilon_mhz=-10.0)
    assert np.allclose(term_ioc(p_neg, 0.5), -h)
    p_zero = ManifoldParams(lambda_soc_ghz=100.0)
    assert np.allclose(term_ioc(p_zero, 0.5), 0.0)


# --- full Hamiltonian ---

def test_build_spinless_pure_soc():
    e = registry_lookup("118Sn")
    h = build_hamiltonian(e, "gnd")
    vals = np.sort(np.linalg.eigvalsh(h))
    lam_half = e.gnd.lambda_soc_ghz * 1e3 / 2.0
    assert np.allclose(vals, [-lam_half, -lam_half, lam_half, lam_half])


def test_build_117sn_lower_branch_splitting():
    e = registry_lookup("117Sn")
    vals = np.sort(np.linalg.eigvalsh(build_hamiltonian(e, "gnd")))
    lower = vals[:4]
    gaps = np.diff(lower)
    # two doubly degenerate levels split by half the axial coupling
    assert gaps[0] < 1e-6 or gaps[2] < 1e-6
    split = lower[2] - lower[1] if gaps[1] > 1.0 else None
    distinct = np.unique(np.round(lower, 3))
    assert distinct.size == 2
    assert distinct[1] - distinct[0] == pytest.approx(681.22, abs=1.0)


def test_build_73ge_comb_spacing():
    e = registry_lookup("73Ge")
    vals = np.sort(np.linalg.eigvalsh(build_hamiltonian(e, "gnd")))
    lower = vals[:20]
    levels = lower.reshape(10, 2).mean(axis=1)  # doubly degenerate pairs
    assert np.abs(lower.reshape(10, 2)[:, 1] - lower.reshape(10, 2)[:, 0]).max() < 1e-6
    spacings = np.diff(levels)
    assert np.allclose(spacings, 23.44, atol=0.2)


def test_build_i0_reduces_to_electronic_times_trivial_nucleus():
    e = registry_lookup("120Sn")
    h = build_hamiltonian(e, "exc", (0.01, 0.02, 0.31))
    assert h.shape == (4, 4)
    e_half = dataclasses.replace(e, isotope="x", nuclear_spin=0.5)
    h2 = build_hamiltonian(e_half, "exc", (0.01, 0.02, 0.31))
    # nuclear Zeeman is zero here (g_I = 0), so the embedding is exact
    assert np.allclose(h2[::2, ::2], h)


@pytest.mark.parametrize("label", ["29Si", "73Ge", "117Sn"])
def test_terms_hermitian_and_traceless(label):
    e = registry_lookup(label)
    i = e.nuclear_spin
    p = dataclasses.replace(e.gnd, quad_q_mhz=4.3 if i > 0.5 else 0.0, ioc_upsilon_mhz=3.0)
    terms = [
        term_soc(p, i),
        term_strain(12.0, 7.0, i),
        term_hyperfine(p, i),
        term_quadrupole(p, i),
        term_ioc(p, i),
        term_zeeman(e, "gnd", (0.05, -0.02, 0.2)),
    ]
    total = sum(terms)
    for t in terms + [total]:
        assert is_hermitian(t, tol=1e-12)
        assert abs(np.trace(t)) < 1e-10 * max(1.0, np.abs(t).max())


def test_total_mj_conserved_for_axial_field():
    e = registry_lookup("73Ge")
    h = build_hamiltonian(e, "gnd", (0.0, 0.0, 0.25), alpha_ghz=0.0, beta_ghz=0.0)
    nuc_dim = e.nuclear_dim
    half = jsq_operator(e.nuclear_spin)  # reuse basis layout via J^2? need Jz
    from g4vspec.spinops import SIGMA_Z, kron

    iz = np.diag(e.nuclear_spin - np.arange(nuc_dim)).astype(complex)
    jz = kron(np.eye(2), 0.5 * SIGMA_Z, np.eye(nuc_dim)) + kron(np.eye(2), np.eye(2), iz)
    comm = h @ jz - jz @ h
    assert np.abs(comm).max() < 1e-9


def test_zeeman_linear_in_field(rng):
    e = registry_lookup("117Sn")
    b1 = (0.03, -0.07, 0.11)
    b2 = (-0.02, 0.05, 0.21)
    b12 = tuple(a + b for a, b in zip(b1, b2))
    h = (build_hamiltonian(e, "gnd", b12) - build_hamiltonian(e, "gnd", b1)
         - build_hamiltonian(e, "gnd", b2) + build_hamiltonian(e, "gnd"))
    assert np.abs(h).max() < 1e-9


# --- derived scalars and registry ---

def test_a_ple_reproduces_table():
    expected = {
        "29Si": -29.98,
        "73Ge": -13.78,
        "115Sn": -316.70,
        "117Sn": -345.02,
        "119Sn": -360.96,
    }
    for label, val in expected.items():
        assert a_ple(registry_lookup(label)) == pytest.approx(val, abs=0.02)


def test_a_ple_spinless_zero():
    assert a_ple(registry_lookup("118Sn")) == 0.0


def test_registry_contents():
    ge = registry_lookup("73Ge")
    assert ge.nuclear_spin == 4.5
    assert ge.g_nuclear == pytest.approx(-0.195)
    assert ge.gnd.a_fc_mhz == pytest.approx(48.23)
    sn = registry_lookup("119Sn")
    assert sn.g_nuclear == pytest.approx(-2.092)
    assert sn.gnd.a_fc_mhz == pytest.approx(1453.27)
    spin0 = registry_lookup("118Sn")
    assert spin0.nuclear_spin == 0.0
    assert spin0.gnd.a_fc_mhz == 0.0


def test_registry_unknown_label_lists_known():
    with pytest.raises(ValueError, match="117Sn"):
        registry_lookup("116Sn")


def test_registry_configuration_defaults_and_overrides():
    sn = registry_lookup("117Sn")
    assert (sn.gnd.lambda_soc_ghz, sn.exc.lambda_soc_ghz) == (850.0, 3000.0)
    assert (sn.gnd.q_orb, sn.exc.q_orb) == (0.10, 0.15)
    si = registry_lookup("29Si")
    assert (si.gnd.lambda_soc_ghz, si.exc.lambda_soc_ghz) == (46.0, 250.0)
    custom = registry_lookup("117Sn", lambda_gnd_ghz=830.0, q_exc=0.2, g_electron=2.0)
    assert custom.gnd.lambda_soc_ghz == 830.0
    assert custom.exc.q_orb == 0.2
    assert custom.g_electron == 2.0


def test_jt_shift():
    si = registry_lookup("29Si")
    same = jt_shifted_params(si.gnd, 0.0, 0.0)
    assert same == si.gnd
    # 216-atom supercell comparison values
    shifted = jt_shifted_params(dataclasses.replace(si.gnd, a_fc_mhz=54.4), -4.8, 5.5)
    assert shifted.a_fc_mhz == pytest.approx(49.6)
    assert shifted.a_dd_mhz == pytest.approx(-2.34 + 5.5)


def test_jt_shift_moves_a_ple_by_half_difference():
    e = registry_lookup("117Sn")
    d_g = (3.0, -1.0)
    d_e = (7.0, 2.0)
    shifted = dataclasses.replace(
        e,
        gnd=jt_shifted_params(e.gnd, *d_g),
        exc=jt_shifted_params(e.exc, *d_e),
    )
    change = a_ple(shifted) - a_ple(e)
    assert change == pytest.approx(0.5 * ((d_e[0] + d_e[1]) - (d_g[0] + d_g[1])))


def test_emitter_validation():
    p = ManifoldParams(lambda_soc_ghz=100.0)
    with pytest.raises(ValueError, match="half-integer"):
        EmitterModel(isotope="x", nuclear_spin=0.7, g_nuclear=0.0, gnd=p, exc=p)
    with pytest.raises(ValueError, match="positive"):
        EmitterModel(isotope="x", nuclear_spin=0.5, g_nuclear=0.0,
                     gnd=ManifoldParams(lambda_soc_ghz=0.0), exc=p)
    with pytest.raises(ValueError, match="quadrupole"):
        EmitterModel(isotope="x", nuclear_spin=0.5, g_nuclear=0.0,
                     gnd=ManifoldParams(lambda_soc_ghz=100.0, quad_q_mhz=4.3), exc=p)
    with pytest.raises(ValueError):
        ManifoldParams(lambda_soc_ghz=-1.0)
    e = EmitterModel(isotope="x", nuclear_spin=0.5, g_nuclear=0.0, gnd=p, exc=p)
    with pytest.raises(ValueError, match="^manifold must be one of \\('gnd', 'exc'\\), got 'mid'$"):
        e.manifold("mid")


def test_random_emitters_build_hermitian(rng):
    for _ in range(10):
        e = random_emitter(rng)
        b = tuple(rng.uniform(-0.3, 0.3, size=3))
        for manifold in ("gnd", "exc"):
            assert is_hermitian(build_hamiltonian(e, manifold, b), tol=1e-12)


# --- matrix-element oracle ---

def matrix_element_hamiltonian(emitter, manifold, b, alpha_ghz, beta_ghz):
    """The Hamiltonian written out element by element over the product basis
    |o, m_S, m_I> (o = +1 for e+, then -1; m = +j ... -j), from the
    eigenvalues of sz_orb and sz_spin, the ladder elements
    <m'|J+-|m> = sqrt(j(j+1) - m m') and <o'|sy_orb|o> = -i o' for o' != o;
    no operator matrix or Kronecker product is used."""
    p = emitter.manifold(manifold)
    i = emitter.nuclear_spin
    bx, by, bz = b
    mu_e = emitter.g_electron * MU_B_MHZ_PER_T
    mu_n = emitter.g_nuclear * MU_N_MHZ_PER_T
    a_par, a_prp = a_parallel(p), a_perp(p)
    m_i = [i - k for k in range(emitter.nuclear_dim)]
    basis = [(o, s, m) for o in (1, -1) for s in (0.5, -0.5) for m in m_i]

    def ladder(j, m, m2):
        return np.sqrt(j * (j + 1.0) - m * m2)

    h = np.zeros((len(basis), len(basis)), dtype=complex)
    for row, (o2, s2, m2) in enumerate(basis):
        for col, (o, s, m) in enumerate(basis):
            flips = (o2 != o, s2 != s, m2 != m)
            v = 0.0
            if flips == (False, False, False):
                v += 0.5 * p.lambda_soc_ghz * 1000.0 * o * 2.0 * s
                v += mu_e * bz * s + p.q_orb * MU_B_MHZ_PER_T * bz * o + mu_n * bz * m
                v += a_par * s * m
                v += p.quad_q_mhz * (m * m - i * (i + 1.0) / 3.0)
                v += 0.5 * p.ioc_upsilon_mhz * o * m
            elif flips == (True, False, False):  # -alpha sx_orb - beta sy_orb
                v = -alpha_ghz * 1000.0 - beta_ghz * 1000.0 * (-1j * o2)
            elif flips == (False, True, False):  # (g mu_B / 2)(Bx sx + By sy), S+- = 1
                v = mu_e * 0.5 * (bx - 1j * by) if s2 > s else mu_e * 0.5 * (bx + 1j * by)
            elif flips == (False, False, True) and abs(m2 - m) == 1.0:
                # g_I mu_N (Bx Ix + By Iy) = g_I mu_N (B- I+ + B+ I-) / 2
                plus = m2 > m
                v = mu_n * 0.5 * (bx - 1j * by if plus else bx + 1j * by) * ladder(i, m, m2)
            elif flips == (False, True, True) and s2 - s == m - m2:
                # A_perp (Sx Ix + Sy Iy) = A_perp (S+ I- + S- I+) / 2
                v = 0.5 * a_prp * ladder(i, m, m2)
            h[row, col] = v
    return h


def _assert_matches_oracle(emitter, manifold, b, alpha, beta):
    got = build_hamiltonian(emitter, manifold, b, alpha, beta)
    want = matrix_element_hamiltonian(emitter, manifold, b, alpha, beta)
    # The same sums in another order: a few roundings of the largest element.
    tol = 8.0 * np.finfo(float).eps * np.abs(want).max()
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= tol, (emitter.isotope, manifold)


ORACLE_POINTS = (((0.0, 0.0, 0.0), 0.0, 0.0), ((0.03, -0.12, 0.21), 40.0, 7.0),
                 ((0.3, 0.1, -0.05), 0.0, 15.0))


@pytest.mark.parametrize("spin_neutral", [False, True], ids=["own-I", "I=0"])
@pytest.mark.parametrize("label", registry_labels())
def test_registry_hamiltonians_match_the_matrix_element_oracle(label, spin_neutral):
    emitter = registry_lookup(label)
    if spin_neutral:  # the copy the coupling-free C line is taken from
        emitter = dataclasses.replace(emitter.without_couplings(), nuclear_spin=0.0)
    for manifold in ("gnd", "exc"):
        for b, alpha, beta in ORACLE_POINTS:
            _assert_matches_oracle(emitter, manifold, b, alpha, beta)


def test_random_hamiltonians_match_the_matrix_element_oracle():
    rng = np.random.Generator(np.random.PCG64(2024))
    for spin in (0.0, 0.5, 1.0, 1.5, 2.5, 3.5, 4.5):
        for _ in range(4):
            def params():
                return ManifoldParams(
                    lambda_soc_ghz=float(rng.uniform(10.0, 3000.0)),
                    q_orb=float(rng.uniform(-0.5, 0.5)),
                    a_fc_mhz=float(rng.uniform(-1500.0, 1500.0)),
                    a_dd_mhz=float(rng.uniform(-300.0, 300.0)),
                    quad_q_mhz=float(rng.uniform(-20.0, 20.0)) if spin > 0.5 else 0.0,
                    ioc_upsilon_mhz=float(rng.uniform(-50.0, 50.0)))

            emitter = EmitterModel(isotope="rand", nuclear_spin=spin,
                                   g_nuclear=float(rng.uniform(-2.5, 2.5)),
                                   gnd=params(), exc=params(),
                                   g_electron=float(rng.uniform(1.9, 2.1)))
            b = tuple(float(c) for c in rng.uniform(-0.5, 0.5, 3))
            alpha, beta = (float(x) for x in rng.uniform(-100.0, 100.0, 2))
            for manifold in ("gnd", "exc"):
                _assert_matches_oracle(emitter, manifold, b, alpha, beta)


# --- operator cache ---

def test_jsq_operator_is_cached_and_read_only():
    jop = jsq_operator(4.5)
    with pytest.raises(ValueError):
        jop[0, 0] = 1.0
    assert jsq_operator(4.5) is jop


RESULTS = {
    "soc": lambda e: term_soc(e.gnd, e.nuclear_spin),
    "strain": lambda e: term_strain(12.0, 7.0, e.nuclear_spin),
    "zeeman": lambda e: term_zeeman(e, "gnd", (0.05, -0.02, 0.2)),
    "hyperfine": lambda e: term_hyperfine(e.gnd, e.nuclear_spin),
    "quadrupole": lambda e: term_quadrupole(e.gnd, e.nuclear_spin),
    "ioc": lambda e: term_ioc(e.gnd, e.nuclear_spin),
    "build_hamiltonian": lambda e: build_hamiltonian(e, "gnd", (0.01, 0.02, 0.1),
                                                     alpha_ghz=5.0, beta_ghz=2.0),
}


@pytest.mark.parametrize("name", sorted(RESULTS))
@pytest.mark.parametrize("label", ["28Si", "117Sn", "73Ge"])
def test_mutating_a_result_leaves_the_next_call_unchanged(label, name):
    e = registry_lookup(label)
    quad = 4.3 if e.nuclear_spin > 0.5 else 0.0
    e = dataclasses.replace(e, gnd=dataclasses.replace(e.gnd, quad_q_mhz=quad,
                                                       ioc_upsilon_mhz=3.0))
    first = RESULTS[name](e)
    want = first.copy()
    first += 7.0 + 1.0j
    first[0, 0] = -3.0
    assert np.array_equal(RESULTS[name](e), want)


def test_cached_operators_need_no_kronecker_products(calls):
    import g4vspec.hamiltonian as ham

    e = registry_lookup("73Ge")
    want = build_hamiltonian(e, "exc", (0.02, 0.0, 0.1))
    jop = jsq_operator(e.nuclear_spin).copy()
    krons = calls(ham, "kron")
    assert np.array_equal(build_hamiltonian(e, "exc", (0.02, 0.0, 0.1)), want)
    assert np.array_equal(jsq_operator(e.nuclear_spin), jop)
    assert krons == []


def test_terms_reject_non_half_integer_spin():
    p = ManifoldParams(lambda_soc_ghz=100.0)
    for fn in (term_soc, term_hyperfine, term_quadrupole, term_ioc):
        with pytest.raises(ValueError, match="half-integer"):
            fn(p, 0.3)
    with pytest.raises(ValueError, match="half-integer"):
        jsq_operator(-0.5)


@pytest.mark.parametrize("build, name", [
    (lambda: ManifoldParams(lambda_soc_ghz=1.0, a_fc_mhz=10**400), "a_fc_mhz"),
    (lambda: registry_lookup("119Sn", strain_alpha_ghz=10**400), "strain_alpha_ghz"),
    (lambda: registry_lookup("119Sn", q_gnd=10**400), "q_gnd"),
    (lambda: transitions(registry_lookup("119Sn"), alpha_ghz=10**400), "strain alpha_ghz"),
    (lambda: transitions(registry_lookup("119Sn"), (0, 0, 10**400)), "magnetic field"),
    (lambda: solve_manifold(registry_lookup("119Sn"), "gnd", (0, 0, 10**400)), "magnetic field"),
    (lambda: build_hamiltonian(registry_lookup("119Sn"), "gnd", (0, 0, 10**400)),
     "magnetic field"),
    (lambda: sweep_field(registry_lookup("119Sn"), (0, 0, 1), [10**400], 30.0, [0.0, 1.0]),
     "field magnitude"),
    (lambda: analysis.kde([1.0, 2.0, 10**400], 1.0), "a kde value"),
    (lambda: analysis.kde([1.0, 2.0], 10**400), "bandwidth"),
    (lambda: analysis.ensemble_stats([1.0, 2.0, 10**400], 1.0), "an ensemble value"),
    (lambda: analysis.ensemble_stats([1.0, 2.0], 10**400), "bin_width"),
    (lambda: analysis.isotope_shift_ratio(10**400, 119, 117, 118), "atomic mass"),
    (lambda: synth_spectrum(transitions(registry_lookup("119Sn")), 10**400, [0.0, 1.0]),
     "fwhm_mhz"),
    (lambda: jt_shifted_params(ManifoldParams(lambda_soc_ghz=1.0), 10**400, 0), "delta_fc_mhz"),
    (lambda: jt_shifted_params(ManifoldParams(lambda_soc_ghz=1.0), 0, 10**400), "delta_dd_mhz"),
    (lambda: registry_lookup("119Sn").scaled_hyperfine(10**400), "hyperfine scale"),
    (lambda: flat_emitter(i=10**400), "nuclear_spin"),
    (lambda: sweep_strain(registry_lookup("119Sn"), "gnd", [10**400]), "strain alpha_ghz"),
    (lambda: solve_manifold(registry_lookup("119Sn"), "gnd", (0, 0, 0), None, 10**400),
     "strain beta_ghz"),
], ids=["manifold-field", "registry-strain", "registry-q", "transitions-alpha",
        "transitions-field", "solve-manifold-field", "build-field", "sweep-magnitude",
        "kde-value", "kde-bandwidth", "stats-value", "stats-bin-width", "isotope-mass",
        "synth-fwhm", "jt-shift-fc", "jt-shift-dd", "scaled-hyperfine", "nuclear-spin",
    "sweep-strain-alpha", "solve-manifold-beta"])
def test_an_integer_beyond_the_float_range_is_refused_by_name(build, name):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == f"{name} is an integer too large for a float"


@pytest.mark.parametrize("build, name, value", [
    (lambda: ManifoldParams(lambda_soc_ghz=None), "lambda_soc_ghz", None),
    (lambda: registry_lookup("117Sn", strain_alpha_ghz="x"), "strain_alpha_ghz", "x"),
    (lambda: registry_lookup("117Sn", q_gnd="x"), "q_gnd", "x"),
    (lambda: flat_emitter(i=None), "nuclear_spin", None),
    (lambda: transitions(registry_lookup("117Sn"), alpha_ghz=[1.0, 2.0]), "strain alpha_ghz",
     [1.0, 2.0]),
    (lambda: analysis.isotope_shift_ratio(None, 1, 2, 3), "atomic mass", None),
    (lambda: analysis.kde([1, 2], None), "bandwidth", None),
    (lambda: analysis.ensemble_stats([1, 2], None), "bin_width", None),
    (lambda: synth_spectrum(transitions(registry_lookup("117Sn")), None, [0.0, 1.0]),
     "fwhm_mhz", None),
    (lambda: jt_shifted_params(ManifoldParams(lambda_soc_ghz=1.0), None, 0), "delta_fc_mhz",
     None),
    (lambda: registry_lookup("117Sn").scaled_hyperfine(None), "hyperfine scale", None),
], ids=["manifold-none", "registry-strain-text", "registry-q-text", "nuclear-spin-none",
        "transitions-alpha-list", "isotope-mass-none", "kde-bandwidth-none",
        "stats-bin-width-none", "synth-fwhm-none", "jt-shift-none", "scaled-hyperfine-none"])
def test_a_value_that_is_not_a_real_number_is_refused_by_name(build, name, value):
    """Each raised a TypeError from float() or math.isfinite, or (q_gnd)
    NumPy's "could not convert string to float"."""
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == f"{name} must be a real number, got {value!r}"
