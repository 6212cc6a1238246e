"""Optical C-line spectra from eigen-solutions of the two manifolds.

The dipole operator acts on the orbital degree of freedom only and
preserves orbital character; in the canonical product bases of ground and
excited space it is the identity map, so the intensity of a line is the
squared overlap of the two eigenvectors.  Only transitions between the
lower spin-orbit branches (the C line and its hyperfine structure) are
kept, with equal populations over the lower-branch ground states.
Frequencies are detunings from the unperturbed C line, defined as the
same lower-branch transition computed with all hyperfine, quadrupole and
nuclear-SOC couplings zeroed.

That reference line depends only on the coupling-free emitter, the field
and the strain.  Inside ``with reference_memo():`` it is solved once per
distinct (coupling-free emitter, b, alpha, beta) and reused; a fit enters
the memo for its whole duration, so its row tables, steps and Jacobian
columns share the reference solves.  Outside it every table solves its
reference afresh.  Both ways give bit-identical numbers.
"""
import contextlib
import contextvars
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .hamiltonian import EmitterModel, a_parallel, a_perp, build_hamiltonian, jsq_operator
from .spinops import EigenSystem, eigh

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
    "reference_memo",
]

# Lines below this fraction of the strongest one are numerical noise.
INTENSITY_FLOOR = 1e-9
# Degenerate lines are merged at presentation time within this spacing (MHz).
MERGE_TOL_MHZ = 0.01

# The active reference-line memo, or None outside any `reference_memo()`.
_REFERENCE_MEMO = contextvars.ContextVar("g4vspec_reference_memo", default=None)


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
    dim_n = int(round(2.0 * float(i))) + 1
    return np.eye(4 * dim_n, dtype=complex)


def solve_manifold(emitter: EmitterModel, manifold: str, b=(0.0, 0.0, 0.0),
                   alpha_ghz=None, beta_ghz=None) -> EigenSystem:
    """Diagonalize one manifold with the degenerate-subspace basis pinned
    by the total angular momentum J^2 (reproducible <J^2> labels)."""
    h = build_hamiltonian(emitter, manifold, b, alpha_ghz=alpha_ghz, beta_ghz=beta_ghz)
    return eigh(h, degeneracy_operator=jsq_operator(emitter.nuclear_spin))


@contextlib.contextmanager
def reference_memo():
    """Solve each unperturbed C line once for the duration of the block.

    A fresh memo is entered on every use (nested blocks do not share) and
    the previous state is restored on exit, also when the block raises.
    The memo lives in a context variable, so threads and copied contexts
    see only their own.
    """
    token = _REFERENCE_MEMO.set({})
    try:
        yield
    finally:
        _REFERENCE_MEMO.reset(token)


def _reference_line(emitter: EmitterModel, b, alpha_ghz, beta_ghz) -> float:
    """Unperturbed C line: mean lower-branch energies of the stripped system."""
    bare = emitter.without_couplings()
    memo = _REFERENCE_MEMO.get()
    if memo is not None:
        key = (bare, tuple(float(c) for c in b), alpha_ghz, beta_ghz)
        if key in memo:
            return memo[key]
    bare_g = solve_manifold(bare, "gnd", b, alpha_ghz, beta_ghz)
    bare_e = solve_manifold(bare, "exc", b, alpha_ghz, beta_ghz)
    n_low = lower_branch_size(emitter)
    e_ref = bare_e.values[:n_low].mean() - bare_g.values[:n_low].mean()
    if memo is not None:
        memo[key] = e_ref
    return e_ref


def _check_branch_gap(emitter: EmitterModel, manifold: str, values: np.ndarray) -> None:
    n_low = len(values) // 2
    gap = values[n_low] - values[n_low - 1]
    p = emitter.manifold(manifold)
    i = emitter.nuclear_spin
    hf_scale = max(abs(a_parallel(p)), abs(a_perp(p)),
                   abs(p.quad_q_mhz) * (i + 1.0) ** 2,
                   abs(p.ioc_upsilon_mhz) * (i + 1.0), 1e-12)
    if gap < 10.0 * hf_scale:
        raise ValueError(
            f"{manifold}: spin-orbit branch separation {gap:.3g} MHz is not large "
            f"against the hyperfine scale {hf_scale:.3g} MHz; lowest-2(2I+1) branch "
            "identification is unreliable here"
        )


def _jsq_labels(es: EigenSystem, jop: np.ndarray) -> np.ndarray:
    v = es.vectors
    return np.real(np.einsum("ij,ij->j", v.conj(), jop @ v))


def transition_intensity_matrix(es_gnd: EigenSystem, es_exc: EigenSystem) -> np.ndarray:
    """|<exc| D |gnd>|^2 for every state pair, shape (n_exc, n_gnd).

    D is the identity in the canonical bases, so this is the squared
    eigenvector overlap matrix; its total sum is the dimension 4(2I+1)
    (dipole sum rule) at any field and strain.
    """
    return np.abs(es_exc.vectors.conj().T @ es_gnd.vectors) ** 2


def transitions(emitter: EmitterModel, b=(0.0, 0.0, 0.0), *, alpha_ghz=None,
                beta_ghz=None) -> TransitionTable:
    """C-line hyperfine transition table at one field / strain point.

    Both manifolds are diagonalized; every lower-branch pair gets
    intensity |<e|D|g>|^2 weighted by equal populations 1/(2(2I+1)) over
    the lower-branch ground states.  Lines weaker than 1e-9 of the
    strongest are dropped.
    """
    return _solve_transitions(emitter, b, alpha_ghz, beta_ghz)[0]


def _solve_transitions(emitter: EmitterModel, b, alpha_ghz, beta_ghz):
    """The transition table and the two eigen-solutions it was built from."""
    es_g = solve_manifold(emitter, "gnd", b, alpha_ghz, beta_ghz)
    es_e = solve_manifold(emitter, "exc", b, alpha_ghz, beta_ghz)
    _check_branch_gap(emitter, "gnd", es_g.values)
    _check_branch_gap(emitter, "exc", es_e.values)

    e_ref = _reference_line(emitter, b, alpha_ghz, beta_ghz)

    n_low = lower_branch_size(emitter)

    jop = jsq_operator(emitter.nuclear_spin)
    jsq_g = _jsq_labels(es_g, jop)[:n_low]
    jsq_e = _jsq_labels(es_e, jop)[:n_low]

    amp = transition_intensity_matrix(es_g, es_e)[:n_low, :n_low]
    weight = 1.0 / n_low
    freq = es_e.values[:n_low, None] - es_g.values[None, :n_low] - e_ref
    inten = amp * weight

    keep = inten > INTENSITY_FLOOR * inten.max()
    e_idx, g_idx = np.nonzero(keep)
    order = np.lexsort((g_idx, e_idx, freq[e_idx, g_idx]))
    e_idx, g_idx = e_idx[order], g_idx[order]
    meta = {
        "emitter": emitter.isotope,
        "b_tesla": tuple(float(c) for c in b),
        "alpha_ghz": float(emitter.strain_alpha_ghz if alpha_ghz is None else alpha_ghz),
        "beta_ghz": float(emitter.strain_beta_ghz if beta_ghz is None else beta_ghz),
    }
    table = TransitionTable(
        freq_mhz=freq[e_idx, g_idx],
        intensity=inten[e_idx, g_idx],
        gnd_index=g_idx,
        exc_index=e_idx,
        jsq_gnd=jsq_g[g_idx],
        jsq_exc=jsq_e[e_idx],
        meta=meta,
    )
    return table, es_g, es_e


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
    if grid.size > 1 and not np.all(np.diff(grid) > 0):
        raise ValueError("frequency grid must be strictly increasing")
    if fwhm_mhz <= 0:
        raise ValueError(f"fwhm_mhz must be positive, got {fwhm_mhz}")
    signal = kernels.lorentzian_sum(table.freq_mhz, table.intensity, float(fwhm_mhz), grid)
    meta = dict(table.meta)
    meta["fwhm_mhz"] = float(fwhm_mhz)
    return SpectrumTrace(freq_mhz=grid, signal=signal, meta=meta)


def sweep_strain(emitter: EmitterModel, manifold: str, alpha_values_ghz) -> LevelSweep:
    """Lower-branch levels (relative to their mean) vs strain alpha at B = 0."""
    alphas = np.asarray(alpha_values_ghz, dtype=float)
    if alphas.size > 1 and not (np.all(np.diff(alphas) > 0) or np.all(np.diff(alphas) < 0)):
        raise ValueError("alpha_values_ghz must be monotone")
    n_low = lower_branch_size(emitter)
    jop = jsq_operator(emitter.nuclear_spin)
    levels = np.empty((alphas.size, n_low))
    labels = np.empty((alphas.size, n_low))
    for k, alpha in enumerate(alphas):
        es = solve_manifold(emitter, manifold, alpha_ghz=alpha)
        low = es.values[:n_low]
        levels[k] = low - low.mean()
        labels[k] = _jsq_labels(es, jop)[:n_low]
    return LevelSweep(axis=alphas, levels=levels, jsq=labels,
                      meta={"emitter": emitter.isotope, "manifold": manifold, "axis": "alpha_ghz"})


def sweep_field(emitter: EmitterModel, direction, b_magnitudes, fwhm_mhz: float,
                grid) -> list:
    """One synthesized trace per field magnitude along a fixed direction.

    Rows are independent; output order follows b_magnitudes.  The
    direction must be a unit vector to 1e-6.
    """
    direction = np.asarray(direction, dtype=float).reshape(3)
    norm = float(np.linalg.norm(direction))
    if abs(norm - 1.0) > 1e-6:
        raise ValueError(f"field direction must be a unit vector, |d| = {norm!r}")
    traces = []
    for bmag in np.asarray(b_magnitudes, dtype=float):
        table = transitions(emitter, tuple(bmag * direction))
        trace = synth_spectrum(table, fwhm_mhz, grid)
        trace.meta["b_mag_tesla"] = float(bmag)
        trace.meta["b_direction"] = tuple(direction)
        traces.append(trace)
    return traces


def transition_diagram(emitter: EmitterModel, b=(0.0, 0.0, 0.0), *, alpha_ghz=None,
                       beta_ghz=None) -> dict:
    """Level-and-line bundle for transition diagrams.

    Lower-branch level energies of both manifolds (relative to each
    branch mean) plus the transition line list; gnd_index/exc_index of
    each line refer to positions in the level arrays.
    """
    return _diagram(*_solve_transitions(emitter, b, alpha_ghz, beta_ghz))


def _diagram(table: TransitionTable, es_g: EigenSystem, es_e: EigenSystem) -> dict:
    """The diagram bundle of a table and the two solves it came from."""
    n_low = es_g.values.size // 2
    gnd_levels = es_g.values[:n_low] - es_g.values[:n_low].mean()
    exc_levels = es_e.values[:n_low] - es_e.values[:n_low].mean()
    return {
        "gnd_levels_mhz": [float(v) for v in gnd_levels],
        "exc_levels_mhz": [float(v) for v in exc_levels],
        "lines": list(table.records()),
    }
