"""Stacked solves: a stack of n fields and/or strains gives, slice by slice,
the bit-identical numbers of n one-point calls."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g4vspec.hamiltonian import build_hamiltonian, jsq_operator, registry_labels, registry_lookup
from g4vspec.spectrum import (
    _jsq_labels,
    _reference_line,
    _solve_transitions,
    solve_manifold,
    sweep_field,
    sweep_strain,
    transition_intensity_matrix,
    transitions,
)
from g4vspec.spinops import EigenSystem, eigh

from conftest import _bits

# Zero field and zero strain leave degenerate clusters for the J^2 pinning.
component = st.one_of(st.just(0.0), st.floats(-1.0, 1.0, allow_subnormal=False))
strain = st.one_of(st.just(0.0), st.floats(-100.0, 100.0, allow_subnormal=False))
field = st.tuples(component, component, component)


@st.composite
def stacks(draw):
    """(label, manifold, b, alpha, beta, points): b, alpha or beta is either
    one point, shared, or a stack; points lists each slice's one-point inputs."""
    n = draw(st.integers(1, 5))
    label = draw(st.sampled_from(registry_labels()))
    manifold = draw(st.sampled_from(("gnd", "exc")))
    varies = draw(st.sampled_from(("field", "strain", "both")))
    fields = draw(st.lists(field, min_size=n, max_size=n))
    alphas = draw(st.lists(strain, min_size=n, max_size=n))
    beta = draw(strain)
    if varies == "field":
        b, alpha, points = fields, alphas[0], [(f, alphas[0]) for f in fields]
    elif varies == "strain":
        b, alpha, points = fields[0], alphas, [(fields[0], a) for a in alphas]
    else:
        b, alpha, points = fields, alphas, list(zip(fields, alphas))
    return label, manifold, b, alpha, beta, points


@settings(max_examples=60, deadline=None)
@given(case=stacks())
def test_each_stack_slice_equals_its_one_point_solve_bit_for_bit(case):
    label, manifold, b, alpha, beta, points = case
    e = registry_lookup(label)
    jop = jsq_operator(e.nuclear_spin)
    h = build_hamiltonian(e, manifold, b, alpha, beta)
    es = solve_manifold(e, manifold, b, alpha, beta)
    labels = _jsq_labels(es, jop)
    assert h.shape == (len(points), e.dim, e.dim) and es.dim == e.dim
    for k, (b1, a1) in enumerate(points):
        one = solve_manifold(e, manifold, b1, a1, beta)
        assert _bits(h[k]) == _bits(build_hamiltonian(e, manifold, b1, a1, beta))
        assert _bits(es.values[k]) == _bits(one.values)
        assert _bits(es.vectors[k]) == _bits(one.vectors.astype(es.vectors.dtype))
        assert _bits(labels[k]) == _bits(_jsq_labels(one, jop))


@pytest.mark.parametrize("manifold", ["gnd", "exc"])
@pytest.mark.parametrize("label", registry_labels())
def test_zero_field_strain_stacks_equal_their_one_point_solves(label, manifold):
    strains = np.arange(-45.0, 35.0, 5.0)  # 16 strains, 0 among them
    e = registry_lookup(label)
    for emitter in (e, e.without_couplings()):
        es = solve_manifold(emitter, manifold, alpha_ghz=strains)
        for k, alpha in enumerate(strains):
            one = solve_manifold(emitter, manifold, alpha_ghz=alpha)
            assert _bits(es.values[k]) == _bits(one.values)
            assert _bits(es.vectors[k]) == _bits(one.vectors)


def test_one_point_still_gives_one_matrix():
    e = registry_lookup("73Ge")
    assert build_hamiltonian(e, "gnd", (0.0, 0.0, 0.1), 5.0).shape == (40, 40)
    es = solve_manifold(e, "exc")
    assert es.values.shape == (40,) and es.vectors.shape == (40, 40) and es.dim == 40


@pytest.mark.parametrize("label", ["73Ge", "117Sn", "28Si"])
def test_stacked_tables_equal_one_point_tables(label):
    e = registry_lookup(label, strain_alpha_ghz=25.0)
    fields = [(0.0, 0.0, 0.0), (0.02, 0.0, 0.05), (0.3, 0.1, 0.9)]
    tables, (es_g, es_e) = _solve_transitions(e, fields, 40.0, 2.0)
    again, _ = _solve_transitions(e, fields, 40.0, 2.0, _reference_line(e, fields, 40.0, 2.0)[0])
    for k, b in enumerate(fields):
        one = transitions(e, b, alpha_ghz=40.0, beta_ghz=2.0)
        for t in (tables[k], again[k]):
            for name in ("freq_mhz", "intensity", "gnd_index", "exc_index", "jsq_gnd", "jsq_exc"):
                assert _bits(getattr(t, name)) == _bits(getattr(one, name))
            assert t.meta == one.meta
        assert _bits(es_g.values[k]) == _bits(solve_manifold(e, "gnd", b, 40.0, 2.0).values)
        assert _bits(es_e.vectors[k]) == _bits(solve_manifold(e, "exc", b, 40.0, 2.0).vectors)


def test_stacked_intensity_matrix_equals_its_one_point_results():
    e = registry_lookup("73Ge")
    direction = np.array([np.sin(np.radians(33.0)), 0.0, np.cos(np.radians(33.0))])
    fields = np.linspace(0.0, 0.14, 15)[:, None] * direction
    es_g = solve_manifold(e, "gnd", fields)
    es_e = solve_manifold(e, "exc", fields)
    stacked = transition_intensity_matrix(es_g, es_e)
    assert stacked.shape == (15, e.dim, e.dim)
    for k in range(15):
        one = transition_intensity_matrix(EigenSystem(es_g.values[k], es_g.vectors[k]),
                                          EigenSystem(es_e.values[k], es_e.vectors[k]))
        assert _bits(stacked[k]) == _bits(one)
        assert stacked[k].sum() == pytest.approx(e.dim, rel=1e-12)  # dipole sum rule


def test_empty_sweeps_keep_their_empty_results():
    e = registry_lookup("117Sn")
    sweep = sweep_strain(e, "gnd", [])
    assert sweep.levels.shape == (0, 4) and sweep.jsq.shape == (0, 4)
    assert sweep.axis.shape == (0,)
    assert sweep_field(e, (0.0, 0.0, 1.0), [], 30.0, np.linspace(-100.0, 100.0, 11)) == []


def test_a_stack_checks_each_matrix_against_its_own_scale(rng):
    good = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    good = 1e6 * (good + good.conj().T)
    bad = np.eye(8, dtype=complex)
    bad[0, 1] = 1e-6  # relative asymmetry 1e-6 of its own scale, 1e-12 of the stack's
    eigh(good)
    eigh(bad + bad.conj().T)
    with pytest.raises(ValueError, match=r"not Hermitian: max asymmetry 1\.000e-06 "
                                         r"\(1\.000e-06 relative\)"):
        eigh(np.stack([good, bad]))
    with pytest.raises(ValueError, match="not Hermitian"):
        eigh(np.stack([bad, good]))


def test_stacked_eigh_pins_each_slice_like_a_single_call(rng):
    a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    degenerate = np.diag([1.0, 1.0, 2.0, 2.0, 2.0, 3.0])
    stack = np.stack([np.eye(6, dtype=complex), a + a.conj().T, degenerate])
    op = np.diag(np.arange(6.0)).astype(complex)
    es = eigh(stack, degeneracy_operator=op)
    for k in range(3):
        one = eigh(stack[k], degeneracy_operator=op)
        assert _bits(es.values[k]) == _bits(one.values)
        assert _bits(es.vectors[k]) == _bits(one.vectors)
    assert np.allclose(es.reconstruct(), stack)


def test_a_field_needs_three_components():
    e = registry_lookup("117Sn")
    with pytest.raises(ValueError, match="magnetic field needs 3 components"):
        transitions(e, (0.0, 1.0))
    with pytest.raises(ValueError, match="magnetic field needs 3 components"):
        build_hamiltonian(e, "gnd", [(0.0, 0.0, 1.0, 0.0)])


@pytest.mark.parametrize("solve", [
    lambda e, b: solve_manifold(e, "gnd", b),
    lambda e, b: transitions(e, b),
    lambda e, b: build_hamiltonian(e, "gnd", b),
], ids=["solve_manifold", "transitions", "build_hamiltonian"])
def test_a_ragged_field_stack_is_refused_by_name(solve):
    """NumPy's own "inhomogeneous shape" error came out before."""
    with pytest.raises(ValueError) as info:
        solve(registry_lookup("117Sn"), [[0, 0, 1], [0, 0]])
    assert str(info.value) == ("magnetic field needs 3 components per point, got ragged or "
                               "non-numeric points")


@pytest.mark.parametrize("b, alpha, beta, message", [
    ((0.0, float("nan"), 0.0), None, None, "magnetic field component must be finite, got nan"),
    ([(0.0, 0.0, 0.1), (0.0, 0.0, float("-inf"))], None, None,
     "magnetic field component must be finite, got -inf"),
    ((0.0, 0.0, 0.0), float("nan"), None, "strain alpha_ghz must be finite, got nan"),
    ((0.0, 0.0, 0.0), [1.0, float("inf")], None, "strain alpha_ghz must be finite, got inf"),
    ((0.0, 0.0, 0.0), None, float("inf"), "strain beta_ghz must be finite, got inf"),
])
def test_non_finite_field_and_strain_are_refused_by_name(b, alpha, beta, message):
    e = registry_lookup("117Sn")
    with pytest.raises(ValueError) as info:
        build_hamiltonian(e, "gnd", b, alpha, beta)
    assert str(info.value) == message
