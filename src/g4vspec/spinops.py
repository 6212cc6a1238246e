"""Finite-dimensional angular-momentum operators and a dense Hermitian
eigensolver with deterministic handling of degenerate subspaces.

Conventions used throughout the package: hbar = 1 (operators are
dimensionless), energies are frequencies in MHz, and angular-momentum
bases are ordered m = +j ... -j.
"""
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SpinOperators",
    "EigenSystem",
    "spin_matrices",
    "kron",
    "eigh",
    "expectation",
    "is_hermitian",
    "require_hermitian",
    "hermiticity_defect",
]

# Pauli matrices on a two-level degree of freedom (orbital or spin-1/2).
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)

# Eigenvalues closer than this (MHz) form a degenerate cluster in `eigh`.
CLUSTER_TOL = 1e-6
# Largest asymmetry, relative to a matrix's largest element, that `eigh`
# accepts as Hermitian.
HERMITIAN_TOL = 1e-9


@dataclass(frozen=True)
class SpinOperators:
    """x/y/z angular-momentum matrices and their Casimir I^2 = Ix^2+Iy^2+Iz^2."""

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    sq: np.ndarray

    @property
    def dim(self) -> int:
        return self.z.shape[0]


@dataclass(frozen=True)
class EigenSystem:
    """Eigenvalues (ascending, MHz) and orthonormal eigenvector columns,
    of one matrix ((d,) and (d, d)) or of a stack ((n, d) and (n, d, d))."""

    values: np.ndarray
    vectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.vectors.shape[-1]

    def reconstruct(self) -> np.ndarray:
        v = self.vectors
        return (v * self.values[..., None, :]) @ np.swapaxes(v.conj(), -1, -2)


def _asymmetry(m):
    """Largest element of |m - m^H| and of |m| (1 for a zero matrix), one
    of each per matrix of m (..., d, d), flattened over the stack.  A
    matrix with a NaN or infinite element has a scale that is not finite."""
    m = np.asarray(m)
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf; the scale tells
        defects = np.abs(m - np.swapaxes(m.conj(), -1, -2)).max(axis=(-2, -1), initial=0.0)
    scales = np.abs(m).max(axis=(-2, -1), initial=0.0)
    return defects.ravel(), np.where(scales == 0.0, 1.0, scales).ravel()


def _not_hermitian(m, tol):
    """The asymmetries and scales of m's matrices (see `_asymmetry`) and the
    positions of those that are not finite, or not Hermitian to tol
    relative to their own largest element."""
    defects, scales = _asymmetry(m)
    return defects, scales, np.flatnonzero(~((defects <= tol * scales) & np.isfinite(scales)))


def hermiticity_defect(m) -> float:
    """Largest element of |m - m^H| over a matrix or a stack (..., d, d)."""
    return float(_asymmetry(m)[0].max(initial=0.0))


def is_hermitian(m, tol: float = 1e-12) -> bool:
    """Whether each matrix of m (..., d, d) is Hermitian to tol relative to
    its own largest element; a matrix with a NaN or infinite element is
    not."""
    return _not_hermitian(m, tol)[2].size == 0


def require_hermitian(m, tol: float = HERMITIAN_TOL) -> None:
    """ValueError unless each matrix of m (..., d, d) is Hermitian to tol
    relative to its own largest element; the first failing matrix is named
    by its asymmetry, or as not finite."""
    defects, scales, bad = _not_hermitian(m, tol)
    if bad.size:
        defect, scale = defects[bad[0]], scales[bad[0]]
        if not np.isfinite(scale):
            raise ValueError("matrix is not finite: it has a NaN or infinite element")
        raise ValueError(
            f"matrix is not Hermitian: max asymmetry {defect:.3e} "
            f"({defect / scale:.3e} relative)"
        )


def spin_matrices(i) -> SpinOperators:
    """Standard spin matrices for a half-integer spin quantum number.

    Basis ordering is m = +i ... -i; for i = 0 all operators are the 1x1
    zero matrix.
    """
    i = float(i)
    two_i = 2.0 * i
    if i < 0 or abs(two_i - round(two_i)) > 1e-9:
        raise ValueError(f"spin quantum number must be a non-negative half-integer, got {i}")
    dim = int(round(two_i)) + 1
    m = i - np.arange(dim)
    iz = np.diag(m.astype(complex))
    plus = np.zeros((dim, dim), dtype=complex)
    for row in range(1, dim):
        # <m+1| I+ |m> = sqrt(i(i+1) - m(m+1))
        plus[row - 1, row] = np.sqrt(i * (i + 1.0) - m[row] * (m[row] + 1.0))
    ix = 0.5 * (plus + plus.conj().T)
    iy = -0.5j * (plus - plus.conj().T)
    isq = ix @ ix + iy @ iy + iz @ iz
    return SpinOperators(x=ix, y=iy, z=iz, sq=isq)


def kron(*ops) -> np.ndarray:
    """Kronecker product of square matrices, left to right.

    The package-wide ordering is orbital (x) electron-spin (x) nuclear-spin.
    """
    if len(ops) < 2:
        raise ValueError("kron needs at least two factors")
    out = np.asarray(ops[0], dtype=complex)
    for op in ops[1:]:
        op = np.asarray(op, dtype=complex)
        if op.ndim != 2 or op.shape[0] != op.shape[1] or out.shape[0] != out.shape[1]:
            raise ValueError("kron factors must be square matrices")
        out = np.kron(out, op)
    return out


def eigh(h, degeneracy_operator=None) -> EigenSystem:
    """Diagonalize a Hermitian matrix, or a stack (..., d, d) of them in
    one LAPACK call; ascending eigenvalues.

    When `degeneracy_operator` is given, each eigenvalue cluster (gap below
    `CLUSTER_TOL`) is post-rotated into the eigenbasis of that operator
    projected onto the cluster, and ordered by its ascending eigenvalue.
    This pins an otherwise arbitrary degenerate-subspace basis, so labels
    such as <J^2> are reproducible.  A stack is pinned by one batched solve
    per cluster size, and every slice equals its one-matrix result.

    Real input, with a real degeneracy operator or none, is solved in
    float64 (real symmetric) and gives float64 vectors; anything else is
    solved in complex128.
    """
    real = not (np.iscomplexobj(h) or np.iscomplexobj(degeneracy_operator))
    h = np.asarray(h, dtype=float if real else complex)
    if h.ndim < 2 or h.shape[-1] != h.shape[-2]:
        raise ValueError("eigh expects a square matrix or a stack of them")
    require_hermitian(h)
    values, vectors = np.linalg.eigh(h)
    if degeneracy_operator is not None and values.size:
        dop = np.asarray(degeneracy_operator, dtype=h.dtype)
        d = values.shape[-1]
        vectors = vectors.copy()
        flat = vectors.reshape(-1, d, d)  # a view: the rotations below write into vectors
        # A cluster starts at each matrix's first value and after each gap above tol.
        starts = np.ones(values.shape, dtype=bool)
        starts[..., 1:] = np.diff(values, axis=-1) > CLUSTER_TOL
        first = np.flatnonzero(starts)
        sizes = np.diff(first, append=values.size)
        # np.unique would import numpy.ma; the groups write disjoint columns.
        for s in set(sizes[sizes > 1].tolist()):
            point, col = np.divmod(first[sizes == s], d)
            idx = (point[:, None, None], np.arange(d)[:, None], col[:, None, None] + np.arange(s))
            block = flat[idx]  # (m, d, s)
            proj = block.conj().swapaxes(-1, -2) @ dop @ block
            proj = 0.5 * (proj + proj.conj().swapaxes(-1, -2))
            flat[idx] = block @ np.linalg.eigh(proj)[1]
    return EigenSystem(values=values, vectors=vectors)


def expectation(op, vec) -> float:
    """Real expectation value <v|O|v> of a Hermitian operator.

    The state must be normalized to 1e-10; any imaginary residue beyond
    1e-10 (relative) indicates a non-Hermitian operator and raises.
    """
    op = np.asarray(op, dtype=complex)
    vec = np.asarray(vec, dtype=complex).reshape(-1)
    norm = float(np.linalg.norm(vec))
    if abs(norm - 1.0) > 1e-10:
        raise ValueError(f"state vector is not normalized: |v| = {norm!r}")
    val = complex(vec.conj() @ (op @ vec))
    if abs(val.imag) > 1e-10 * (1.0 + abs(val.real)):
        raise ValueError(f"expectation value has imaginary residue {val.imag:.3e}")
    return val.real
