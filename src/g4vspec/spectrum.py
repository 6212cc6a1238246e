"""Optical C-line spectra from eigen-solutions of the two manifolds.

The dipole operator acts on the orbital degree of freedom only and
preserves orbital character; in the canonical product bases of ground and
excited space it is the identity map, so the intensity of a line is the
squared overlap of the two eigenvectors.  Only transitions between the
lower spin-orbit branches (the C line and its hyperfine structure) are
kept, with equal populations over the lower-branch ground states.
Frequencies are detunings from the unperturbed C line, defined as the
same lower-branch transition computed with all hyperfine, quadrupole and
nuclear-SOC couplings zeroed.  It is taken from the spin-neutral (I = 0,
4x4) copy of that system, which has exactly the same C line.

`solve_manifold` is the one solver: it takes one point or a stack of n
fields and/or strains.  Tables along a field axis (`sweep_field`, the rows
of a field-map fit) solve each manifold and the coupling-free reference
once for the stack; a caller that already holds the reference lines (a
fit, which keeps them per coupling-free emitter) passes them in.  Every
number of a stack of one kind is bit-identical to a one-point solve.
`_solve_transitions` returns a stack's tables, one per point, and both
manifolds' eigensystems as the stack they were solved as; `_line_slopes`
takes that pair as it is and gives the first-order change of the lines
along a change of the Hamiltonian without solving again.

Dtype rule.  A point with B_y = 0 and beta = 0 is real: every term of its
Hamiltonian is real in the product basis (see `hamiltonian`).
`solve_manifold` solves a stack in the dtype `hamiltonian._build` builds
it in: float64 when every point is real, complex128 otherwise.  A stack
that mixes both kinds (only a caller's own) is complex128 throughout, so
its real points keep their one-point tables only to eigensolver rounding,
not bit for bit.  J^2 and each dH are float64 operators of the one set,
`hamiltonian._operators`, which `eigh` and `@` promote for a complex
stack, so the tables, J^2 labels, reference lines and line slopes of a
stack keep its dtype.
`sweep_field` and the rows of a field-map fit are solved in the real frame
(`_real_frame`), which changes no spectrum, so each stack they solve is of
one kind, float64 exactly when beta = 0.  One-point `transitions` solves at
the field as given.
"""
from dataclasses import dataclass, field, replace

import numpy as np

from . import kernels
from .hamiltonian import (EmitterModel, _build, _fields, _no_overflow, _operators, _per_point,
                          a_parallel, a_perp)
from .spinops import CLUSTER_TOL, EigenSystem, eigh, spin_matrices

__all__ = [
    "TransitionTable",
    "SpectrumTrace",
    "LevelSweep",
    "dipole_operator",
    "transition_intensity_matrix",
    "transitions",
    "merge_lines",
    "synth_spectrum",
    "sweep_strain",
    "sweep_field",
    "transition_diagram",
    "solve_manifold",
    "lower_branch_size",
]

# Lines below this fraction of the strongest one are numerical noise.
INTENSITY_FLOOR = 1e-9
# Degenerate lines are merged at presentation time within this spacing (MHz).
MERGE_TOL_MHZ = 0.01


@dataclass(frozen=True)
class TransitionTable:
    """Optical lines at one (B, strain) point: parallel arrays of detuning
    (MHz), population-weighted intensity, state indices within the lower
    branches, and <J^2> labels of both states."""

    freq_mhz: np.ndarray
    intensity: np.ndarray
    gnd_index: np.ndarray
    exc_index: np.ndarray
    jsq_gnd: np.ndarray
    jsq_exc: np.ndarray
    meta: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.freq_mhz)

    def records(self):
        for k in range(len(self.freq_mhz)):
            yield {
                "freq_mhz": float(self.freq_mhz[k]),
                "intensity": float(self.intensity[k]),
                "gnd_index": int(self.gnd_index[k]),
                "exc_index": int(self.exc_index[k]),
                "jsq_gnd": float(self.jsq_gnd[k]),
                "jsq_exc": float(self.jsq_exc[k]),
            }


@dataclass(frozen=True)
class SpectrumTrace:
    """Synthesized (or measured) spectrum on an ascending frequency grid."""

    freq_mhz: np.ndarray
    signal: np.ndarray
    meta: dict = field(default_factory=dict)


@dataclass(frozen=True)
class LevelSweep:
    """Lower-branch level energies (relative to their mean, MHz) and <J^2>
    labels along a strain or field axis."""

    axis: np.ndarray
    levels: np.ndarray  # (n_axis, n_levels)
    jsq: np.ndarray     # (n_axis, n_levels)
    meta: dict = field(default_factory=dict)


def lower_branch_size(emitter: EmitterModel) -> int:
    """Number of states in the lower spin-orbit branch, 2(2I+1)."""
    return emitter.dim // 2


def dipole_operator(i) -> np.ndarray:
    """Ground-to-excited dipole map in the canonical product bases.

    Orbital character is preserved and spin/nucleus untouched, so the
    matrix is the identity of dimension 4(2I+1); D+D = 1 on the ground
    space and Tr(D+D) = 4(2I+1).
    """
    return np.eye(4 * spin_matrices(i).dim, dtype=complex)


def solve_manifold(emitter: EmitterModel, manifold: str, b=(0.0, 0.0, 0.0),
                   alpha_ghz=None, beta_ghz=None) -> EigenSystem:
    """Diagonalize one manifold with the degenerate-subspace basis pinned
    by the total angular momentum J^2 (reproducible <J^2> labels).

    An (n, 3) field and/or n strains are solved as one stack, in one `eigh`,
    in the dtype `hamiltonian._build` gives it: float64 when every point is
    real (B_y = 0 and beta = 0), else complex128.  J^2 is float64 for
    either."""
    return eigh(_build(emitter, manifold, b, alpha_ghz, beta_ghz),
                degeneracy_operator=_operators(emitter.nuclear_spin).jsq)


def _reference_line(emitter: EmitterModel, b, alpha_ghz, beta_ghz, perturbations=()):
    """Unperturbed C line at each of the n fields b, and a list of its
    slopes, one along each of perturbations: functions that give what one
    unit of a parameter adds to an emitter's (gnd, exc) Hamiltonians.

    The line is the difference of the mean energies of the lowest two
    levels of the spin-neutral (I = 0, 4x4) copy of the coupling-free
    emitter.  It equals the lower-branch mean of the coupling-free system
    of any I: that spectrum is each electronic level plus m_I g_I mu_N |B|,
    and the m_I shifts sum to zero over a branch.  A slope is the mean of
    diag(V^H dH V) over the same two levels (Hellmann-Feynman), a trace and
    so the same in any basis of a degenerate pair, with dH evaluated on
    that copy.  Each manifold is solved as one stack, in its dtype."""
    neutral = replace(emitter.without_couplings(), nuclear_spin=0.0)
    dhs = [f(neutral) for f in perturbations]

    def mean_and_slopes(manifold, m):
        es = solve_manifold(neutral, manifold, b, alpha_ghz, beta_ghz)
        v = es.vectors[..., :2]
        return es.values[:, :2].mean(axis=1), [
            0.5 * np.einsum("kij,kij->k", v.conj(), dh[m] @ v).real for dh in dhs]

    (e_gnd, s_gnd), (e_exc, s_exc) = mean_and_slopes("gnd", 0), mean_and_slopes("exc", 1)
    return e_exc - e_gnd, [e - g for g, e in zip(s_gnd, s_exc)]


def _hyperfine_scale(emitter: EmitterModel, manifold: str) -> float:
    p = emitter.manifold(manifold)
    i = emitter.nuclear_spin
    return max(abs(a_parallel(p)), abs(a_perp(p)), abs(p.quad_q_mhz) * (i + 1.0) ** 2,
               abs(p.ioc_upsilon_mhz) * (i + 1.0), 1e-12)


def _check_branch_gaps(emitter: EmitterModel, values_g, values_e) -> None:
    """ValueError unless, at every point of the two (n, d) stacks of
    eigenvalues, each manifold's spin-orbit branch gap is at least 10x its
    hyperfine scale.  The first failing point is named, its gnd manifold
    before its exc."""
    n_low = lower_branch_size(emitter)
    manifolds = ("gnd", "exc")
    gaps = np.stack([v[:, n_low] - v[:, n_low - 1] for v in (values_g, values_e)], axis=-1)
    scales = np.array([_hyperfine_scale(emitter, m) for m in manifolds])
    bad = np.argwhere(gaps < 10.0 * scales)
    if bad.size:
        k, j = bad[0]
        raise ValueError(
            f"{manifolds[j]}: spin-orbit branch separation {gaps[k, j]:.3g} MHz is not large "
            f"against the hyperfine scale {scales[j]:.3g} MHz; lowest-2(2I+1) branch "
            "identification is unreliable here"
        )


def _jsq_labels(es: EigenSystem, jop: np.ndarray) -> np.ndarray:
    v = es.vectors
    return np.real(np.einsum("...ij,...ij->...j", v.conj(), jop @ v))


def transition_intensity_matrix(es_gnd: EigenSystem, es_exc: EigenSystem) -> np.ndarray:
    """|<exc| D |gnd>|^2 for every state pair, shape (n_exc, n_gnd), or
    (n, n_exc, n_gnd) for eigen-solutions of a stack of n points.

    D is the identity in the canonical bases, so this is the squared
    eigenvector overlap matrix; its total sum is the dimension 4(2I+1)
    (dipole sum rule) at any field and strain.
    """
    return np.abs(np.swapaxes(es_exc.vectors.conj(), -1, -2) @ es_gnd.vectors) ** 2


def transitions(emitter: EmitterModel, b=(0.0, 0.0, 0.0), *, alpha_ghz=None,
                beta_ghz=None) -> TransitionTable:
    """C-line hyperfine transition table at one field / strain point.

    Both manifolds are diagonalized; every lower-branch pair gets
    intensity |<e|D|g>|^2 weighted by equal populations 1/(2(2I+1)) over
    the lower-branch ground states.  Lines weaker than 1e-9 of the
    strongest are dropped.
    """
    return _solve_transitions(emitter, [b], alpha_ghz, beta_ghz)[0][0]


def _solve_transitions(emitter: EmitterModel, b_stack, alpha_ghz, beta_ghz, e_ref=None):
    """(tables, (es_gnd, es_exc)) of the fields of the (n, 3) stack b_stack:
    one table per field, in stack order, and both manifolds' eigensystems of
    the stack, in its dtype (see the dtype rule).

    Each manifold is solved once, and so is the coupling-free reference
    unless its (n,) lines are given as e_ref.  The branch gaps, J^2 labels,
    intensity matrices and detunings are taken once for the stack.
    """
    b_stack = _fields(b_stack)
    n_low = lower_branch_size(emitter)
    alpha = _no_overflow("strain alpha_ghz", float,
                         emitter.strain_alpha_ghz if alpha_ghz is None else alpha_ghz)
    beta = _no_overflow("strain beta_ghz", float,
                        emitter.strain_beta_ghz if beta_ghz is None else beta_ghz)
    es_g = solve_manifold(emitter, "gnd", b_stack, alpha_ghz, beta_ghz)
    es_e = solve_manifold(emitter, "exc", b_stack, alpha_ghz, beta_ghz)
    _check_branch_gaps(emitter, es_g.values, es_e.values)
    ref = _reference_line(emitter, b_stack, alpha_ghz, beta_ghz)[0] if e_ref is None else e_ref

    jop = _operators(emitter.nuclear_spin).jsq
    jsq_g = _jsq_labels(es_g, jop)[:, :n_low]
    jsq_e = _jsq_labels(es_e, jop)[:, :n_low]
    intens = transition_intensity_matrix(es_g, es_e)[:, :n_low, :n_low] * (1.0 / n_low)
    freqs = es_e.values[:, :n_low, None] - es_g.values[:, None, :n_low] - ref[:, None, None]
    tables = []
    for b, inten, freq, j_g, j_e in zip(b_stack.tolist(), intens, freqs, jsq_g, jsq_e):
        keep = inten > INTENSITY_FLOOR * inten.max()
        e_idx, g_idx = np.nonzero(keep)
        order = np.lexsort((g_idx, e_idx, freq[e_idx, g_idx]))
        e_idx, g_idx = e_idx[order], g_idx[order]
        tables.append(TransitionTable(
            freq_mhz=freq[e_idx, g_idx],
            intensity=inten[e_idx, g_idx],
            gnd_index=g_idx,
            exc_index=e_idx,
            jsq_gnd=j_g[g_idx],
            jsq_exc=j_e[e_idx],
            meta={"emitter": emitter.isotope, "b_tesla": tuple(b), "alpha_ghz": alpha,
                  "beta_ghz": beta},
        ))
    return tables, (es_g, es_e)


def _line_slopes(tables, eigensystems, perturbations):
    """First-order change of the lines of a `_solve_transitions` result,
    its tables and eigensystems, along each perturbation (dh_gnd, dh_exc,
    d_ref): the manifolds' Hamiltonians change by dh_gnd and dh_exc (d, d),
    and the n reference lines by d_ref, an (n,) array or a number.

    For each perturbation, one (d_intensity, shift_weight) pair per table,
    aligned with its lines: a spectrum sum_l I_l L(f_l) changes by
    sum_l d_intensity_l L(f_l) + shift_weight_l L'(f_l), where the shift
    weight is I_l df_l.  Line shifts follow Hellmann-Feynman, dE =
    diag(V^H dh V); intensities |O|^2, O = V_exc^H V_gnd, follow the
    first-order eigenvector derivatives dV = V C with C_mn = (V^H dh V)_mn /
    (E_n - E_m) between states of different degenerate clusters, so that
    dO = C_exc^H O + O C_gnd and dI = 2 Re(conj(O) dO) (Nelson 1976).
    Degenerate clusters (the J^2-pinned ones at B = 0) take degenerate
    perturbation theory without a rotation: the cluster's block of
    V^H dh V stands in for diag(dE), which gives the cluster's lines the
    summed shift weight and intensity change they would have in the
    eigenbasis of the projected dh.  Only a table's kept lines get
    weights, so a line sum over them costs what the table's own does.

    Each dh is used as given: `analysis._TABLE_PARAMS` gives float64 ones
    (hyperfine and strain alpha are real), which `@` promotes for a
    complex stack.
    """
    es_g, es_e = eigensystems
    n_low = es_g.values.shape[-1] // 2

    def manifold(es):
        # A manifold's values (n, d) and vectors (n, d, d), and whether
        # state m and lower-branch state n share a cluster (n, d, n_low); a
        # cluster starts after each gap above tol, as in `eigh`.
        cluster = np.cumsum(np.diff(es.values, axis=-1, prepend=-np.inf) > CLUSTER_TOL, axis=-1)
        return es.values, es.vectors, cluster[:, :, None] == cluster[:, None, :n_low]

    def mixing(values, vectors, same, dh):
        # (V^H dh V)[m, n] for every m and each lower-branch n: C off the
        # clusters, the in-cluster block on them.
        a = np.swapaxes(vectors.conj(), -1, -2) @ (dh @ vectors[:, :, :n_low])
        gap = values[:, None, :n_low] - values[:, :, None]
        c = np.where(same, 0.0, a / np.where(same, 1.0, gap))
        return c, np.where(same[:, :n_low], a[:, :n_low], 0.0)

    gnd, exc = manifold(es_g), manifold(es_e)
    overlap = np.swapaxes(exc[1].conj(), -1, -2) @ gnd[1]  # O[k, exc, gnd]
    low = overlap[:, :n_low, :n_low]
    out = []
    for dh_gnd, dh_exc, d_ref in perturbations:
        c_g, block_g = mixing(*gnd, dh_gnd)
        c_e, block_e = mixing(*exc, dh_exc)
        d_low = (np.swapaxes(c_e.conj(), -1, -2) @ overlap[:, :, :n_low]
                 + overlap[:, :n_low, :] @ c_g)
        d_inten = (2.0 / n_low) * (low.conj() * d_low).real
        shift = (1.0 / n_low) * (low.conj() * (block_e @ low - low @ block_g)).real
        d_ref = np.broadcast_to(d_ref, len(tables))
        out.append([(d_inten[k, t.exc_index, t.gnd_index],
                     shift[k, t.exc_index, t.gnd_index] - t.intensity * d_ref[k])
                    for k, t in enumerate(tables)])
    return out


def merge_lines(table: TransitionTable, tol: float = MERGE_TOL_MHZ):
    """Coincident lines merged within tol: (frequencies, summed intensities).

    Presentation-level helper; the table itself keeps degenerate lines
    separate.
    """
    if len(table) == 0:
        return np.empty(0), np.empty(0)
    order = np.argsort(table.freq_mhz, kind="stable")
    fs = table.freq_mhz[order]
    xs = table.intensity[order]
    freqs = [fs[0]]
    intens = [xs[0]]
    for f, x in zip(fs[1:], xs[1:]):
        if f - freqs[-1] <= tol:
            freqs[-1] = (freqs[-1] * intens[-1] + f * x) / (intens[-1] + x)
            intens[-1] += x
        else:
            freqs.append(f)
            intens.append(x)
    return np.asarray(freqs), np.asarray(intens)


def synth_spectrum(table: TransitionTable, fwhm_mhz: float, grid) -> SpectrumTrace:
    """Sum of unit-area Lorentzians of width fwhm_mhz over the line table."""
    grid = np.ascontiguousarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("frequency grid is empty")
    if not np.isfinite(grid).all():
        raise ValueError("frequency grid must be finite")
    if grid.size > 1 and not np.all(np.diff(grid) > 0):
        raise ValueError("frequency grid must be strictly increasing")
    fwhm_mhz = _no_overflow("fwhm_mhz", float, fwhm_mhz)
    signal = kernels.lorentzian_sum(table.freq_mhz, table.intensity, fwhm_mhz, grid)
    meta = dict(table.meta)
    meta["fwhm_mhz"] = fwhm_mhz
    return SpectrumTrace(freq_mhz=grid, signal=signal, meta=meta)


def sweep_strain(emitter: EmitterModel, manifold: str, alpha_values_ghz) -> LevelSweep:
    """Lower-branch levels (relative to their mean) vs strain alpha at B = 0."""
    alphas = _no_overflow("strain alpha_ghz", np.asarray, alpha_values_ghz, float).reshape(-1)
    _per_point("strain alpha_ghz", alphas)  # a non-finite strain is refused as one strain is
    if alphas.size > 1 and not (np.all(np.diff(alphas) > 0) or np.all(np.diff(alphas) < 0)):
        raise ValueError("alpha_values_ghz must be monotone")
    n_low = lower_branch_size(emitter)
    es = solve_manifold(emitter, manifold, (0.0, 0.0, 0.0), alphas, None)
    low = es.values[:, :n_low]
    return LevelSweep(axis=alphas, levels=low - low.mean(axis=1, keepdims=True),
                      jsq=_jsq_labels(es, _operators(emitter.nuclear_spin).jsq)[:, :n_low],
                      meta={"emitter": emitter.isotope, "manifold": manifold, "axis": "alpha_ghz"})


def _unit_direction(d) -> np.ndarray:
    """d as a float64 unit vector: 3 finite numbers of norm 1 to 1e-6.
    Anything else is a ValueError, "must be a unit vector of 3 components,
    got (...)", that the caller prefixes with the direction's name."""
    try:
        v = np.asarray(d, dtype=float)
    except (TypeError, ValueError, OverflowError):  # ragged, not numbers, too large
        v = None
    if (v is None or v.shape != (3,) or not np.isfinite(v).all()
            or abs(float(np.linalg.norm(v)) - 1.0) > 1e-6):
        shown = np.asarray(d, dtype=object)
        shown = tuple(shown.tolist()) if shown.ndim else (d,)
        raise ValueError(f"must be a unit vector of 3 components, got {shown}")
    return v


def _real_frame(b) -> np.ndarray:
    """Fields or directions b (..., 3) turned about the symmetry axis into
    the x-z plane: (hypot(bx, by), 0, bz).  Turning S and I together about
    that axis leaves every field-independent term, the dipole map D = 1 and
    J^2 unchanged, so the spectra are the same; with beta = 0 every point
    is then real."""
    b = np.asarray(b, dtype=float)
    return np.stack([np.hypot(b[..., 0], b[..., 1]), np.zeros(b.shape[:-1]), b[..., 2]], axis=-1)


def sweep_field(emitter: EmitterModel, direction, b_magnitudes, fwhm_mhz: float,
                grid) -> list:
    """One synthesized trace per field magnitude along a fixed direction.

    All rows are solved as one stack; output order follows b_magnitudes.
    The direction must be a unit vector (see `_unit_direction`).  The rows
    are solved in the real frame (`_real_frame` of the direction), and the
    traces' meta keep the field as given (b_tesla, b_mag_tesla,
    b_direction).
    """
    try:
        direction = _unit_direction(direction)
    except ValueError as err:
        raise ValueError(f"field direction {err}") from None
    b_mags = _no_overflow("field magnitude", np.asarray, b_magnitudes, float).reshape(-1)
    tables, _ = _solve_transitions(emitter, b_mags[:, None] * _real_frame(direction), None, None)
    traces = [synth_spectrum(table, fwhm_mhz, grid) for table in tables]
    for bmag, trace in zip(b_mags, traces):
        trace.meta.update(b_tesla=tuple((bmag * direction).tolist()), b_mag_tesla=float(bmag),
                          b_direction=tuple(direction))
    return traces


def transition_diagram(emitter: EmitterModel, b=(0.0, 0.0, 0.0), *, alpha_ghz=None,
                       beta_ghz=None) -> dict:
    """Level-and-line bundle for transition diagrams.

    Lower-branch level energies of both manifolds (relative to each
    branch mean) plus the transition line list; gnd_index/exc_index of
    each line refer to positions in the level arrays.
    """
    return _diagram(_solve_transitions(emitter, [b], alpha_ghz, beta_ghz))


def _diagram(solved) -> dict:
    """The diagram bundle of a one-point `_solve_transitions` result."""
    [table], (es_g, es_e) = solved
    n_low = es_g.values.shape[-1] // 2
    gnd, exc = es_g.values[0, :n_low], es_e.values[0, :n_low]
    gnd_levels, exc_levels = gnd - gnd.mean(), exc - exc.mean()
    return {
        "gnd_levels_mhz": [float(v) for v in gnd_levels],
        "exc_levels_mhz": [float(v) for v in exc_levels],
        "lines": list(table.records()),
    }
