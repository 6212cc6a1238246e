import numpy as np
import pytest

from g4vspec.spinops import (
    CLUSTER_TOL,
    HERMITIAN_TOL,
    IDENTITY_2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    eigh,
    expectation,
    hermiticity_defect,
    is_hermitian,
    kron,
    require_hermitian,
    spin_matrices,
)

from conftest import _bits, random_hermitian

SPINS = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5]


def test_spin_half_matches_pauli():
    ops = spin_matrices(0.5)
    assert np.allclose(ops.z, np.diag([0.5, -0.5]))
    assert np.allclose(ops.x, 0.5 * SIGMA_X)
    assert np.allclose(ops.y, 0.5 * SIGMA_Y)


def test_spin_zero_is_one_by_one_zero():
    ops = spin_matrices(0.0)
    for m in (ops.x, ops.y, ops.z, ops.sq):
        assert m.shape == (1, 1)
        assert np.allclose(m, 0.0)


def test_spin_nine_half_casimir_diagonal():
    ops = spin_matrices(4.5)
    assert ops.dim == 10
    # product computed explicitly, not taken from the .sq field
    explicit = ops.x @ ops.x + ops.y @ ops.y + ops.z @ ops.z
    assert np.allclose(np.diag(explicit), 24.75)
    assert np.allclose(explicit, ops.sq)


def test_spin_rejects_non_half_integer():
    with pytest.raises(ValueError):
        spin_matrices(0.3)
    with pytest.raises(ValueError):
        spin_matrices(-0.5)


@pytest.mark.parametrize("i", SPINS)
def test_commutators_and_casimir(i):
    ops = spin_matrices(i)
    for a, b, c in ((ops.x, ops.y, ops.z), (ops.y, ops.z, ops.x), (ops.z, ops.x, ops.y)):
        assert np.abs(a @ b - b @ a - 1j * c).max() < 1e-12
    assert np.abs(ops.sq - i * (i + 1.0) * np.eye(ops.dim)).max() < 1e-12


def test_kron_identities():
    assert np.allclose(kron(IDENTITY_2, IDENTITY_2), np.eye(4))
    assert np.allclose(kron(SIGMA_Z, SIGMA_Z), np.diag([1, -1, -1, 1]))


def test_kron_sign_rule_spin_nine_half():
    # diag of (sz x sz) x Iz enumerated by the sign rule s1*s2*m
    iz = spin_matrices(4.5).z
    got = np.diag(kron(SIGMA_Z, SIGMA_Z, iz)).real
    ms = 4.5 - np.arange(10)
    expected = [s1 * s2 * m for s1 in (1, -1) for s2 in (1, -1) for m in ms]
    assert np.allclose(got, expected)
    assert set(np.round(np.abs(got), 6)) == set(np.round(np.abs(ms), 6))


def test_kron_associativity(rng):
    a = random_hermitian(rng, 2)
    b = random_hermitian(rng, 3)
    c = random_hermitian(rng, 4)
    left = kron(kron(a, b), c)
    right = kron(a, kron(b, c))
    assert np.abs(left - right).max() < 1e-14 * max(1.0, np.abs(left).max())


def test_eigh_already_diagonal():
    es = eigh(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(es.values, [1.0, 2.0, 3.0])


def test_eigh_pauli_x():
    es = eigh(SIGMA_X)
    assert np.allclose(es.values, [-1.0, 1.0])
    minus, plus = es.vectors[:, 0], es.vectors[:, 1]
    ref_minus = np.array([1.0, -1.0]) / np.sqrt(2.0)
    ref_plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    assert abs(abs(ref_minus @ minus) - 1.0) < 1e-12
    assert abs(abs(ref_plus @ plus) - 1.0) < 1e-12


def test_eigh_reconstruction_random_40(rng):
    h = 1e3 * random_hermitian(rng, 40)
    es = eigh(h)
    assert np.abs(es.reconstruct() - h).max() < 1e-8 * np.abs(h).max()
    gram = es.vectors.conj().T @ es.vectors
    assert np.abs(gram - np.eye(40)).max() < 1e-10


def test_eigh_values_invariant_under_unitary_conjugation(rng):
    h = random_hermitian(rng, 12)
    q, _ = np.linalg.qr(random_hermitian(rng, 12) + 1j * random_hermitian(rng, 12))
    es1 = eigh(h)
    es2 = eigh(q @ h @ q.conj().T)
    scale = max(1.0, np.abs(es1.values).max())
    assert np.abs(es1.values - es2.values).max() < 1e-8 * scale


def test_eigh_rejects_non_hermitian(rng):
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="asymmetry"):
        eigh(m)
    assert not is_hermitian(m) and hermiticity_defect(m) == 1.0
    # stacks are checked matrix by matrix, each against its own scale
    sym = rng.normal(size=(8, 8, 8))
    sym = sym + np.swapaxes(sym, -1, -2)
    assert is_hermitian(sym) and hermiticity_defect(sym) == 0.0
    stack = np.stack([random_hermitian(rng, 8) for _ in range(3)])
    assert is_hermitian(stack) and hermiticity_defect(stack) == 0.0
    stack[1, 0, 1] += 1e-3
    assert not is_hermitian(stack) and hermiticity_defect(stack) == pytest.approx(1e-3)
    with pytest.raises(ValueError, match="asymmetry"):
        eigh(stack)


def _required_hermitian(m, tol):
    try:
        require_hermitian(m, tol)
    except ValueError:
        return False
    return True


def test_is_and_require_hermitian_agree_and_refuse_non_finite_matrices(rng):
    """[[1, nan], [nan, 2]] passed require_hermitian, and eigh returned NaN
    eigenvalues; an inf element raised a RuntimeWarning."""
    h = random_hermitian(rng, 6)
    with_nan, with_inf = h.copy(), h.copy()
    with_nan[0, 1] = with_nan[1, 0] = np.nan
    with_inf[2, 2] = np.inf
    non_finite = [with_nan, with_inf, np.array([[1.0, np.nan], [np.nan, 2.0]]),
                  np.array([[1.0, np.inf], [np.inf, 2.0]]), np.stack([h, with_nan])]
    for m in [h, rng.normal(size=(6, 6)), *non_finite]:
        for tol in (1e-12, HERMITIAN_TOL):
            assert is_hermitian(m, tol) == _required_hermitian(m, tol)
    for m in non_finite:
        assert not is_hermitian(m)
        with pytest.raises(ValueError, match="^matrix is not finite: it has a NaN or infinite "
                                             "element$"):
            eigh(m)


@pytest.mark.parametrize("call, message", [
    (lambda: kron(SIGMA_X), "^kron needs at least two factors$"),
    (lambda: kron(SIGMA_X, np.ones((2, 3))), "^kron factors must be square matrices$"),
    (lambda: eigh(np.ones((2, 3))), "^eigh expects a square matrix or a stack of them$"),
    (lambda: eigh(np.ones(3)), "^eigh expects a square matrix or a stack of them$"),
    # <v|O|v> = i for the anti-Hermitian O = [[0, 1], [-1, 0]]
    (lambda: expectation(np.array([[0.0, 1.0], [-1.0, 0.0]]), np.array([1.0, 1.0j]) / 2**0.5),
     "^expectation value has imaginary residue 1.000e\\+00$"),
], ids=["kron-one-factor", "kron-non-square", "eigh-non-square", "eigh-vector",
        "expectation-imaginary"])
def test_malformed_operators_are_refused(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_eigh_degenerate_rotation_labels():
    # twofold degeneracy resolved into eigenstates of the label operator
    h = np.diag([1.0, 1.0, 5.0]).astype(complex)
    label_op = np.zeros((3, 3), dtype=complex)
    label_op[0, 1] = label_op[1, 0] = 1.0
    es = eigh(h, degeneracy_operator=label_op)
    lab = [np.real(es.vectors[:, k].conj() @ label_op @ es.vectors[:, k]) for k in range(3)]
    assert np.allclose(lab[:2], [-1.0, 1.0])
    assert np.abs(es.reconstruct() - h).max() < 1e-12


def test_eigh_keeps_real_input_in_float64(rng):
    a = rng.normal(size=(3, 6, 6))
    h = a + np.swapaxes(a, -1, -2)
    h[0] = np.diag([1.0, 1.0, 2.0, 2.0, 2.0, 3.0])  # clusters for the pinning
    label_op = np.diag(np.arange(5.0, -1.0, -1.0))
    for dop in (None, label_op):
        es = eigh(h, degeneracy_operator=dop)
        assert es.values.dtype == es.vectors.dtype == np.float64
        assert np.abs(es.reconstruct() - h).max() < 1e-12
        cast = eigh(h.astype(complex), degeneracy_operator=dop)
        assert cast.vectors.dtype == np.complex128
        assert np.abs(cast.values - es.values).max() < 1e-12
    # a complex degeneracy operator makes the solve complex
    assert eigh(h, degeneracy_operator=label_op.astype(complex)).vectors.dtype == np.complex128
    pinned = eigh(h[0], degeneracy_operator=label_op)
    labels = np.diag(pinned.vectors.T @ label_op @ pinned.vectors)
    assert np.allclose(labels, [4.0, 5.0, 1.0, 2.0, 3.0, 0.0])


def test_eigh_deterministic():
    rng = np.random.Generator(np.random.PCG64(7))
    h = random_hermitian(rng, 16)
    a = eigh(h)
    b = eigh(h)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.vectors, b.vectors)


def test_expectation_identity_and_sigma_z():
    v = np.array([1.0, 0.0])
    assert expectation(np.eye(2), v) == pytest.approx(1.0)
    assert expectation(SIGMA_Z, v) == pytest.approx(1.0)


def test_expectation_singlet_total_spin_zero():
    # two spin-1/2: J^2 of the singlet state is exactly zero
    half = spin_matrices(0.5)
    ops = [kron(m, np.eye(2)) + kron(np.eye(2), m) for m in (half.x, half.y, half.z)]
    jsq = sum(o @ o for o in ops)
    singlet = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
    assert abs(expectation(jsq, singlet)) < 1e-12


def test_expectation_rejects_unnormalized():
    with pytest.raises(ValueError, match="normalized"):
        expectation(np.eye(2), np.array([1.0, 1.0]))


def _pinned_by_loop(h, dop):
    """Reference oracle for `eigh` with a degeneracy operator: one matrix at a
    time, one cluster at a time."""
    values, vectors = np.linalg.eigh(h)
    vectors = vectors.copy()
    for k in np.ndindex(values.shape[:-1]):
        vecs = vectors[k]  # a view: the rotations below write into vectors
        edges = [0, *(np.flatnonzero(np.diff(values[k]) > CLUSTER_TOL) + 1).tolist(),
                 values.shape[-1]]
        for a, b in zip(edges[:-1], edges[1:]):
            if b - a > 1:
                block = vecs[:, a:b]
                proj = block.conj().T @ dop @ block
                proj = 0.5 * (proj + proj.conj().T)
                _, rot = np.linalg.eigh(proj)
                vecs[:, a:b] = block @ rot
    return values, vectors


def test_eigh_pins_gaps_below_tol_and_leaves_wider_gaps_alone(rng):
    # clusters at the first and at the last index; 1 and 1 + 2 tol stay apart
    values = np.array([0.0, 1e-7, 1.0, 1.0 + 2 * CLUSTER_TOL, 2.0, 2.0 + 1e-7, 2.0 + 2e-7])
    label_op = random_hermitian(rng, 7)
    h = np.diag(values).astype(complex)
    # the second matrix starts within tol of the first one's last value
    stack = np.stack([h, h + 2.0 * np.eye(7)])
    plain = eigh(stack)
    es = eigh(stack, degeneracy_operator=label_op)
    for k in range(2):
        v = es.vectors[k]
        for sl in (slice(0, 2), slice(4, 7)):
            labels = v[:, sl].conj().T @ label_op @ v[:, sl]
            assert np.abs(labels - np.diag(np.linalg.eigvalsh(label_op[sl, sl]))).max() < 1e-12
        assert _bits(v[:, 2:4]) == _bits(plain.vectors[k][:, 2:4])
        assert _bits(v) == _bits(eigh(stack[k], degeneracy_operator=label_op).vectors)


def _clustered_hermitian(rng, sizes):
    """Random Hermitian matrix whose eigenvalues come in clusters of the given
    sizes: 1e-8 wide, at least 0.1 apart."""
    d = sum(sizes)
    centres = np.cumsum(rng.uniform(0.1, 1.0, len(sizes)))
    values = np.repeat(centres, sizes) + rng.uniform(0.0, 1e-8, d)
    q, _ = np.linalg.qr(random_hermitian(rng, d) + 1j * random_hermitian(rng, d))
    h = (q * values) @ q.conj().T
    return 0.5 * (h + h.conj().T)


@pytest.mark.parametrize("seed", range(5))
def test_eigh_pinning_equals_the_per_matrix_loop_bit_for_bit(seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    d = 8
    sizes = [[1] * d, [4, 3, 1], [2, 2, 2, 2]]  # no cluster, then sizes 1-4
    while len(sizes) < 12:
        sizes.append([])
        while sum(sizes[-1]) < d:
            sizes[-1].append(int(min(rng.integers(1, 5), d - sum(sizes[-1]))))
    stack = np.stack([_clustered_hermitian(rng, s) for s in sizes])
    dop = random_hermitian(rng, d)
    for h in (stack, stack.reshape(3, 4, d, d), stack[1]):
        es = eigh(h, degeneracy_operator=dop)
        values, vectors = _pinned_by_loop(h, dop)
        assert _bits(es.values) == _bits(values)
        assert _bits(es.vectors) == _bits(vectors)
