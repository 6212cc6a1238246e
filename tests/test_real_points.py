"""Real points: with B_y = 0 and beta = 0 every term of the Hamiltonian is
real, and such points are built, solved and turned into tables in
float64.  The complex128 path is the oracle for them.  Every other point
keeps that path bit for bit: test_golden_tables pins their tables.  A
field sweep turns its direction into the x-z plane, so with beta = 0 its
rows are real points whatever the direction."""
import dataclasses
import math

import numpy as np
import pytest

from g4vspec import analysis, spectrum
from g4vspec.hamiltonian import (_IMAGINARY, _build_real, _operators, _real_operators,
                                 build_hamiltonian, jsq_operator, registry_labels,
                                 registry_lookup)
from g4vspec.spectrum import (INTENSITY_FLOOR, TransitionTable, _jsq_labels, _solve_transitions,
                              merge_lines, solve_manifold, sweep_field, synth_spectrum,
                              transitions)
from g4vspec.spinops import CLUSTER_TOL, eigh

from conftest import _bits

EPS = np.finfo(float).eps
THETA = math.radians(33.0)
# Real points: zero field (degenerate clusters for the J^2 pinning), an
# axial field, the ge_map_fit direction and a field in the x-z plane's
# other quadrant.
REAL_FIELDS = np.array([
    (0.0, 0.0, 0.0),
    (0.0, 0.0, 0.1),
    (0.15 * math.sin(THETA), 0.0, 0.15 * math.cos(THETA)),
    (-0.02, 0.0, 0.05),
])
SPINS = (0.0, 0.5, 1.0, 1.5, 4.5)


@pytest.mark.parametrize("i", SPINS)
def test_only_sy_orb_s_y_and_i_y_are_imaginary(i):
    ops = _operators(i)
    for name, m in vars(ops).items():
        if name in _IMAGINARY:
            assert not m.real.any(), name
        else:
            assert not m.imag.any(), name
    assert set(_IMAGINARY) == {"strain_y", "s_y", "i_y"}


@pytest.mark.parametrize("i", SPINS)
def test_real_operators_are_read_only_float64_copies_of_the_real_ones(i):
    real, ops = _real_operators(i), _operators(i)
    assert _real_operators(i) is real
    for name, m in vars(real).items():
        if name in _IMAGINARY:
            assert m is None
        else:
            assert m.dtype == np.float64 and m.flags.c_contiguous and not m.flags.writeable
            assert np.array_equal(m, getattr(ops, name).real)


@pytest.mark.parametrize("label", registry_labels())
def test_real_build_is_the_real_part_of_the_complex_build_bit_for_bit(label):
    e = registry_lookup(label, strain_alpha_ghz=12.5)
    for manifold in ("gnd", "exc"):
        for alpha in (None, 40.0, np.linspace(0.0, 60.0, len(REAL_FIELDS))):
            h = build_hamiltonian(e, manifold, REAL_FIELDS, alpha, 0.0)
            real = _build_real(e, manifold, REAL_FIELDS, alpha)
            assert real.dtype == np.float64 and not h.imag.any()
            assert _bits(real) == _bits(np.ascontiguousarray(h.real))


def _eigenvalue_bound(h):
    """What two backward-stable symmetric eigensolvers may disagree by on
    each matrix of the stack h: 2 d eps ||H||_2 (Wilkinson)."""
    return 2.0 * h.shape[-1] * EPS * np.linalg.norm(h, 2, axis=(-2, -1))


def _vector_bound(h, values):
    """Bound on the change of an eigenvector, or of the projector of a
    degenerate cluster, between two such solvers: the eigenvalue bound
    over the smallest gap between different clusters (Davis-Kahan)."""
    gaps = np.diff(values, axis=-1)
    gap = np.where(gaps > CLUSTER_TOL, gaps, np.inf).min(axis=-1)
    return _eigenvalue_bound(h) / gap


def _oracle_lines(e, b, alpha):
    """Merged lines, lower-branch J^2 labels and error bounds of the table
    at (b, alpha, beta = 0), from complex128 solves: `spinops.eigh` of
    `build_hamiltonian` for the couplings, `np.linalg.eigh` for the
    spin-neutral reference line."""
    n_low = e.dim // 2
    jop = jsq_operator(e.nuclear_spin)
    solves, freq_bound, vec_bound = [], 0.0, 0.0
    for manifold in ("gnd", "exc"):
        h = build_hamiltonian(e, manifold, b, alpha, 0.0)
        assert h.dtype == np.complex128
        es = eigh(h, jop)
        solves.append(es)
        freq_bound += _eigenvalue_bound(h)
        vec_bound = max(vec_bound, _vector_bound(h, es.values))
    neutral = dataclasses.replace(e.without_couplings(), nuclear_spin=0.0)
    ref = 0.0
    for sign, manifold in ((-1.0, "gnd"), (1.0, "exc")):
        h = build_hamiltonian(neutral, manifold, b, alpha, 0.0)
        ref += sign * np.linalg.eigh(h)[0][:2].mean()
        freq_bound += _eigenvalue_bound(h)
    g, x = solves
    inten = np.abs(x.vectors[:, :n_low].conj().T @ g.vectors[:, :n_low]) ** 2 / n_low
    freq = x.values[:n_low, None] - g.values[None, :n_low] - ref
    keep = inten > INTENSITY_FLOOR * inten.max()
    none = np.zeros(int(keep.sum()), dtype=int)
    table = TransitionTable(freq[keep], inten[keep], none, none, none, none)
    labels = [_jsq_labels(es, jop)[:n_low] for es in solves]
    return merge_lines(table), labels, freq_bound, vec_bound


@pytest.mark.parametrize("label", registry_labels())
def test_real_solves_match_the_complex_oracle(label):
    e = registry_lookup(label)
    for alpha in (0.0, 35.0):
        for manifold in ("gnd", "exc"):
            h = build_hamiltonian(e, manifold, REAL_FIELDS, alpha, 0.0)
            es = solve_manifold(e, manifold, REAL_FIELDS, alpha, 0.0)
            assert es.values.dtype == es.vectors.dtype == np.float64
            want = np.linalg.eigh(h)[0]
            assert (np.abs(es.values - want).max(axis=-1) <= _eigenvalue_bound(h)).all()
            ortho = np.swapaxes(es.vectors, -1, -2) @ es.vectors - np.eye(e.dim)
            assert np.abs(ortho).max() <= 2.0 * e.dim * EPS


@pytest.mark.parametrize("label", registry_labels())
def test_real_tables_match_the_complex_oracle(label):
    e = registry_lookup(label)
    n_low = e.dim // 2
    jsq_scale = np.linalg.norm(jsq_operator(e.nuclear_spin), 2)
    jop = _real_operators(e.nuclear_spin).jsq
    for alpha in (0.0, 35.0):
        tables, (es_g, es_e) = _solve_transitions(e, REAL_FIELDS, alpha, 0.0)
        assert es_g.vectors.dtype == es_e.vectors.dtype == np.float64
        got_g, got_e = _jsq_labels(es_g, jop)[:, :n_low], _jsq_labels(es_e, jop)[:, :n_low]
        for k, (b, table) in enumerate(zip(REAL_FIELDS, tables)):
            for name in ("freq_mhz", "intensity", "jsq_gnd", "jsq_exc"):
                assert getattr(table, name).dtype == np.float64
            (freq, inten), labels, freq_bound, vec_bound = _oracle_lines(e, b, alpha)
            got_freq, got_inten = merge_lines(table)
            assert got_freq.shape == freq.shape
            assert np.abs(got_freq - freq).max() <= freq_bound
            # |O|^2 of unit vectors moves by at most twice each side's change
            assert np.abs(got_inten - inten).max() <= 4.0 * vec_bound / n_low
            for got, want, index, on_lines in (
                    (got_g[k], labels[0], table.gnd_index, table.jsq_gnd),
                    (got_e[k], labels[1], table.exc_index, table.jsq_exc)):
                assert np.abs(got - want).max() <= 2.0 * jsq_scale * vec_bound
                assert _bits(on_lines) == _bits(got[index])


@pytest.mark.parametrize("label", ["73Ge", "117Sn", "29Si", "120Sn"])
def test_a_mixed_stack_gives_each_row_its_one_point_table(label):
    e = registry_lookup(label, strain_alpha_ghz=20.0)
    fields = [(0.0, 0.0, 0.0), (0.02, 0.01, 0.05), (0.05, 0.0, 0.08), (0.0, -0.03, 0.0),
              (0.0, 0.0, 0.1), (0.01, 0.0, 0.0)]
    tables, (es_g, es_e) = _solve_transitions(e, fields, None, 0.0)
    for b, table in zip(fields, tables):
        one = transitions(e, b, beta_ghz=0.0)
        for name in ("freq_mhz", "intensity", "gnd_index", "exc_index", "jsq_gnd", "jsq_exc"):
            assert _bits(getattr(table, name)) == _bits(getattr(one, name))
        assert table.meta == one.meta
    for k, b in enumerate(fields):
        for manifold, es in (("gnd", es_g), ("exc", es_e)):
            alone = solve_manifold(e, manifold, b, None, 0.0)
            assert _bits(es.values[k]) == _bits(alone.values)
            assert np.array_equal(es.vectors[k], alone.vectors)
    stacked = solve_manifold(e, "exc", fields, None, 0.0)
    assert stacked.vectors.dtype == np.complex128
    for k, b in enumerate(fields):
        alone = solve_manifold(e, "exc", b, None, 0.0)
        assert _bits(stacked.values[k]) == _bits(alone.values)
        assert _bits(stacked.vectors[k]) == _bits(alone.vectors.astype(complex))


@pytest.mark.parametrize("label", ["73Ge", "117Sn", "29Si"])
def test_solve_manifold_returns_the_dtype_of_its_stack(label):
    """float64 for a stack of real points, complex128 for a stack of
    complex ones and for one that mixes both kinds, by field or by beta; in
    a mixed stack each real slice is the exact complex cast of its one-point
    float64 solve."""
    e = registry_lookup(label, strain_alpha_ghz=20.0)
    real = [(0.0, 0.0, 0.0), (0.05, 0.0, 0.08), (0.01, 0.0, 0.0)]
    off_plane = [(0.02, 0.01, 0.05), (0.0, -0.03, 0.0)]
    mixed = [real[0], off_plane[0], real[1], off_plane[1], real[2]]
    for manifold in ("gnd", "exc"):
        for b, beta, dtype in ((real, 0.0, np.float64), (real[1], 0.0, np.float64),
                               (off_plane, 0.0, np.complex128), (real, 1.5, np.complex128),
                               (mixed, 0.0, np.complex128)):
            es = solve_manifold(e, manifold, b, None, beta)
            assert es.values.dtype == np.float64 and es.vectors.dtype == dtype
        betas = [0.0, 1.5, 0.0]
        stacks = ((solve_manifold(e, manifold, mixed, None, 0.0), [(b, 0.0) for b in mixed]),
                  (solve_manifold(e, manifold, real[1], None, betas),
                   [(real[1], beta) for beta in betas]))
        for es, points in stacks:
            for k, (b, beta) in enumerate(points):
                one = solve_manifold(e, manifold, b, None, beta)
                is_real = b[1] == 0.0 and beta == 0.0
                assert one.vectors.dtype == (np.float64 if is_real else np.complex128)
                assert _bits(es.values[k]) == _bits(one.values)
                assert _bits(es.vectors[k]) == _bits(one.vectors.astype(complex))


def test_a_mixed_stack_checks_its_branch_gaps_in_stack_order():
    e = registry_lookup("117Sn", lambda_gnd_ghz=12.0)
    # both rows fail the check, with different gaps; the complex row comes
    # first in stack order, though the real kind is solved first
    fields = [(0.0, 0.2, 0.0), (0.3, 0.0, 0.0)]
    with pytest.raises(ValueError) as mixed:
        _solve_transitions(e, fields, None, 0.0)
    with pytest.raises(ValueError) as alone:
        transitions(e, fields[0], beta_ghz=0.0)
    assert str(mixed.value) == str(alone.value)


@pytest.mark.parametrize("phi", [0.0, math.radians(30.0)], ids=["x-z-plane", "off-plane"])
def test_a_map_fit_at_33_degrees_solves_only_float64_stacks(calls, phi):
    """The ge_map_fit shape with no beta strain, its fields in the x-z plane
    or off it (B_y != 0, as the mixed_fit golden), never falls back to
    complex arithmetic: the rows are solved in the real frame, and every
    eigh and every Jacobian stack is float64."""
    base = registry_lookup("73Ge")
    direction = (math.sin(THETA) * math.cos(phi), math.sin(THETA) * math.sin(phi),
                 math.cos(THETA))
    grid = np.arange(-300.0, 300.0, 6.0)
    data = sweep_field(base.scaled_hyperfine(1.3), direction, [0.0, 0.05, 0.1], 72.0, grid)
    eighs, slopes = calls(spectrum, "eigh"), calls(analysis, "_line_slopes")
    res = analysis.fit_full_model(data, ("a_ple_scale", "fwhm", "amplitude"), base,
                                  init={"a_ple_scale": 1.0, "fwhm": 55.0})
    assert res.converged
    dtypes = [(np.asarray(c["h"]).dtype, np.asarray(c["degeneracy_operator"]).dtype)
              for c in eighs]
    slope_dtypes = [es.vectors.dtype for c in slopes for es in c["eigensystems"]]
    assert dtypes and set(dtypes) == {(np.dtype(float), np.dtype(float))}
    assert slope_dtypes and set(slope_dtypes) == {np.dtype(float)}


def _lorentzian_bounds(fwhm):
    """The largest value and slope of a unit-area Lorentzian of width fwhm."""
    hw = 0.5 * fwhm
    return 1.0 / (math.pi * hw), 3.0 * math.sqrt(3.0) / (8.0 * math.pi * hw**2)


@pytest.mark.parametrize("label", registry_labels())
def test_a_sweep_off_the_x_z_plane_equals_synthesis_at_the_given_fields(label):
    """Each row of a sweep along a seeded random direction with B_y != 0
    (solved in the real frame, in float64) against `synth_spectrum` of the
    complex128 `transitions` table at the field as given.  The bound is the
    rounding of both sides' eigensolves, as for the spin-neutral reference
    line: what two solvers may disagree by per level (`_eigenvalue_bound`)
    in each of the four solves moves a line by at most their sum dF, and
    over the smallest gap between clusters (`_vector_bound`, dV) a line's
    intensity by at most 4 dV / n_low.  With sum_l I_l <= 1 and n_low^2
    lines, a row moves by at most 4 n_low dV max L + dF max |L'|."""
    rng = np.random.Generator(np.random.PCG64(sum(map(ord, label)) + 1))
    e = registry_lookup(label)
    neutral = dataclasses.replace(e.without_couplings(), nuclear_spin=0.0)
    n_low, fwhm = e.dim // 2, 30.0
    grid = np.arange(-400.0, 400.0, 2.0)
    peak, slope = _lorentzian_bounds(fwhm)
    worst = 0.0
    for _ in range(4):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        fields = rng.uniform(0.0, 0.3, 5)
        for b_mag, trace in zip(fields, sweep_field(e, direction, fields, fwhm, grid)):
            b = b_mag * direction
            assert b[1] != 0.0
            want = synth_spectrum(transitions(e, b), fwhm, grid).signal
            d_freq, d_vec = 0.0, 0.0
            for manifold in ("gnd", "exc"):
                h = build_hamiltonian(e, manifold, b)
                d_freq += _eigenvalue_bound(h) + _eigenvalue_bound(
                    build_hamiltonian(neutral, manifold, b))
                d_vec = max(d_vec, _vector_bound(h, np.linalg.eigvalsh(h)))
            bound = 4.0 * n_low * d_vec * peak + d_freq * slope
            worst = max(worst, np.abs(trace.signal - want).max() / bound)
    assert worst <= 1.0


def test_a_sweep_off_the_x_z_plane_solves_only_float64_stacks_unless_beta(calls):
    """With beta = 0 every row of a sweep whose direction has B_y != 0 is a
    real point in the real frame; with beta != 0 every row stays complex."""
    direction = (0.48, 0.6, 0.64)
    grid = np.arange(-300.0, 300.0, 6.0)
    eighs = calls(spectrum, "eigh")
    for beta, dtype in ((0.0, np.float64), (5.0, np.complex128)):
        e = registry_lookup("73Ge", strain_alpha_ghz=20.0, strain_beta_ghz=beta)
        eighs.clear()
        sweep_field(e, direction, [0.0, 0.05, 0.1], 30.0, grid)
        dtypes = {(np.asarray(c["h"]).dtype, np.asarray(c["degeneracy_operator"]).dtype)
                  for c in eighs}
        assert dtypes == {(np.dtype(dtype), np.dtype(dtype))}
        # gnd, exc and both reference solves, each one stack of all rows
        assert [np.shape(c["h"])[0] for c in eighs] == [3] * 4


def test_a_sweep_keeps_the_field_as_given_in_its_meta():
    e = registry_lookup("117Sn")
    direction = (-0.48, -0.6, 0.64)
    grid = np.arange(-300.0, 300.0, 6.0)
    for b_mag, trace in zip((0.0, 0.05), sweep_field(e, direction, [0.0, 0.05], 30.0, grid)):
        assert trace.meta["b_direction"] == direction
        assert trace.meta["b_mag_tesla"] == b_mag
        assert trace.meta["b_tesla"] == tuple((b_mag * np.array(direction)).tolist())
