"""Electro-nuclear Hamiltonian of a group-IV color center.

A single hole with orbital doublet {|e+>, |e->} and spin-1/2 couples to
the intrinsic dopant nucleus (spin I).  The full basis is
orbital (x) electron-spin (x) nuclear-spin with dimension 4(2I+1), the
quantization axis is the defect symmetry axis, and every term is returned
in MHz (E/h).  GHz-scale inputs (spin-orbit splitting, strain) are
converted at the term boundary.

Terms:
    spin-orbit      (lambda/2) sz_orb sz_spin
    strain          -alpha sx_orb - beta sy_orb
    Zeeman          g mu_B B.S  +  q mu_B Bz sz_orb  +  g_I mu_N B.I
    hyperfine       A_perp (Sx Ix + Sy Iy) + A_par Sz Iz,
                    A_par = A_FC + A_DD,  A_perp = A_FC - 2 A_DD
    quadobs         Q (Iz^2 - I(I+1)/3)          (I > 1/2 only, traceless)
    nuclear SOC     (upsilon/2) sz_orb Iz

Each term is a scalar times a fixed full-basis operator.  Those operators
(and J^2, see jsq_operator) are built once per nuclear spin, cached and
marked read-only; every term_* call and build_hamiltonian return a fresh
array, so callers may modify their results freely.
An (n, 3) field and/or n strains give an (n, d, d) stack whose slices
equal their one-point builds bit for bit: each term is the same
elementwise expression, broadcast over a leading axis.

Dtype rule: in the product basis every operator is real except sy_orb,
S_y and I_y, which enter only through beta and B_y.  The one operator set
keeps those three in complex128 and every other one as its float64 real
part, and a point with B_y = 0 and beta = 0 is a real symmetric matrix.
`_build`, the one builder, applies this rule: when every point of a stack
is real it leaves the beta and B_y parts out and builds in float64, the
real part of the complex arithmetic bit for bit; otherwise the imaginary
operators make the stack complex128.  The public builders cast their
result to complex128.
"""
import dataclasses
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .spinops import IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z, kron, spin_matrices

__all__ = [
    "MU_B_MHZ_PER_T",
    "MU_N_MHZ_PER_T",
    "DEFAULT_G_ELECTRON",
    "ManifoldParams",
    "EmitterModel",
    "term_soc",
    "term_strain",
    "term_zeeman",
    "term_hyperfine",
    "term_quadrupole",
    "term_ioc",
    "build_hamiltonian",
    "a_parallel",
    "a_perp",
    "a_ple",
    "jsq_operator",
    "jt_shifted_params",
    "registry_labels",
    "registry_lookup",
]

# CODATA magnetons as frequencies, MHz/T.
MU_B_MHZ_PER_T = 13996.2449
MU_N_MHZ_PER_T = 7.622593
DEFAULT_G_ELECTRON = 2.0023

GHZ = 1000.0  # exact GHz -> MHz

MANIFOLDS = ("gnd", "exc")


def _no_overflow(name, fn, *args):
    """fn(*args), a conversion of the value args[0]; an integer beyond the
    float range, or a value that is not a real number, is a ValueError
    naming it."""
    try:
        return fn(*args)
    except OverflowError:
        raise ValueError(f"{name} is an integer too large for a float") from None
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a real number, got {args[0]!r}") from None


def _finite(name, value):
    if not _no_overflow(name, math.isfinite, value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return float(value)


def _per_point(name, x):
    """One finite value as a float, a 1-D stack of n as an (n, 1, 1) array."""
    x = _no_overflow(name, np.asarray, x, float)
    if x.ndim > 1:
        raise ValueError(f"{name} must be one value or a 1-D stack, got shape {x.shape}")
    if not np.isfinite(x).all():
        _finite(name, float(x[~np.isfinite(x)][0]))
    return float(x) if x.ndim == 0 else x[:, None, None]


def _one_length(*named):
    """ValueError unless the stacks among the (name, value) pairs, each
    value as `_per_point` gives it, have one length; a stack of one point
    goes with any."""
    stacks = [(name, len(x)) for name, x in named if np.ndim(x) and len(x) != 1]
    for name, n in stacks[1:]:
        if n != stacks[0][1]:
            raise ValueError(f"{stacks[0][0]} has {stacks[0][1]} points but {name} has {n}: "
                             "stacks must have one length, or one point")


@dataclass(frozen=True)
class ManifoldParams:
    """Per-manifold constants: spin-orbit splitting, orbital Zeeman response,
    and the hyperfine/quadrupole/nuclear-SOC couplings."""

    lambda_soc_ghz: float
    q_orb: float = 0.1
    a_fc_mhz: float = 0.0
    a_dd_mhz: float = 0.0
    quad_q_mhz: float = 0.0
    ioc_upsilon_mhz: float = 0.0

    def __post_init__(self):
        for f in dataclasses.fields(self):
            object.__setattr__(self, f.name, _finite(f.name, getattr(self, f.name)))
        if self.lambda_soc_ghz < 0:
            raise ValueError(f"lambda_soc_ghz must be >= 0, got {self.lambda_soc_ghz}")


@dataclass(frozen=True)
class EmitterModel:
    """Complete emitter description: nucleus, g-factors, shared strain, and
    ground/excited manifold parameters."""

    isotope: str
    nuclear_spin: float
    g_nuclear: float
    gnd: ManifoldParams
    exc: ManifoldParams
    g_electron: float = DEFAULT_G_ELECTRON
    strain_alpha_ghz: float = 0.0
    strain_beta_ghz: float = 0.0

    def __post_init__(self):
        two_i = 2.0 * _no_overflow("nuclear_spin", float, self.nuclear_spin)
        if self.nuclear_spin < 0 or abs(two_i - round(two_i)) > 1e-9:
            raise ValueError(
                f"nuclear_spin must be a non-negative half-integer, got {self.nuclear_spin}"
            )
        for name in ("g_nuclear", "g_electron", "strain_alpha_ghz", "strain_beta_ghz"):
            _finite(name, getattr(self, name))
        for name in MANIFOLDS:
            p = getattr(self, name)
            if p.lambda_soc_ghz <= 0:
                raise ValueError(f"{name}: emitter spin-orbit splitting must be positive")
            if p.quad_q_mhz != 0.0 and self.nuclear_spin <= 0.5:
                raise ValueError(
                    f"{name}: quadrupole coupling requires nuclear spin > 1/2 "
                    f"(I = {self.nuclear_spin})"
                )

    @property
    def nuclear_dim(self) -> int:
        return int(round(2.0 * self.nuclear_spin)) + 1

    @property
    def dim(self) -> int:
        return 4 * self.nuclear_dim

    def manifold(self, which: str) -> ManifoldParams:
        if which not in MANIFOLDS:
            raise ValueError(f"manifold must be one of {MANIFOLDS}, got {which!r}")
        return getattr(self, which)

    def without_couplings(self) -> "EmitterModel":
        """Copy with hyperfine, quadrupole and nuclear-SOC couplings zeroed.

        Strain, spin-orbit and Zeeman responses are kept; this is the
        reference system that defines the unperturbed C line.
        """
        strip = dict(a_fc_mhz=0.0, a_dd_mhz=0.0, quad_q_mhz=0.0, ioc_upsilon_mhz=0.0)
        return dataclasses.replace(
            self,
            gnd=dataclasses.replace(self.gnd, **strip),
            exc=dataclasses.replace(self.exc, **strip),
        )

    def scaled_hyperfine(self, scale: float) -> "EmitterModel":
        """Copy with A_FC and A_DD of both manifolds multiplied by one factor."""
        scale = _no_overflow("hyperfine scale", float, scale)
        return dataclasses.replace(
            self,
            gnd=dataclasses.replace(
                self.gnd, a_fc_mhz=scale * self.gnd.a_fc_mhz, a_dd_mhz=scale * self.gnd.a_dd_mhz
            ),
            exc=dataclasses.replace(
                self.exc, a_fc_mhz=scale * self.exc.a_fc_mhz, a_dd_mhz=scale * self.exc.a_dd_mhz
            ),
        )


@dataclass(frozen=True)
class _Operators:
    """The fixed full-basis operators of one nuclear spin, each read-only:
    complex128 where an element is imaginary, float64 otherwise."""

    soc: np.ndarray        # sz_orb sz_spin
    strain_x: np.ndarray   # sx_orb
    strain_y: np.ndarray   # sy_orb
    s_x: np.ndarray        # Pauli sx_spin
    s_y: np.ndarray
    s_z: np.ndarray
    l_z: np.ndarray        # sz_orb
    i_x: np.ndarray
    i_y: np.ndarray
    i_z: np.ndarray
    hf_perp: np.ndarray    # Sx Ix + Sy Iy
    hf_par: np.ndarray     # Sz Iz
    quad: np.ndarray       # Iz^2 - I(I+1)/3, zero for I <= 1/2
    ioc: np.ndarray        # sz_orb Iz
    jsq: np.ndarray        # J^2, J = S + I


@lru_cache(maxsize=None)
def _operators(i) -> _Operators:
    nuc = spin_matrices(i)  # rejects a spin that is not a non-negative half-integer
    i = float(i)
    one_n = np.eye(nuc.dim, dtype=complex)
    # Exactly zero for I <= 1/2, where Iz^2 = I(I+1)/3.
    quad = nuc.z @ nuc.z - i * (i + 1.0) / 3.0 * one_n
    j = [kron(IDENTITY_2, 0.5 * s, one_n) + kron(IDENTITY_2, IDENTITY_2, n)
         for s, n in ((SIGMA_X, nuc.x), (SIGMA_Y, nuc.y), (SIGMA_Z, nuc.z))]
    ops = dict(
        soc=kron(SIGMA_Z, SIGMA_Z, one_n),
        strain_x=kron(SIGMA_X, IDENTITY_2, one_n),
        strain_y=kron(SIGMA_Y, IDENTITY_2, one_n),
        s_x=kron(IDENTITY_2, SIGMA_X, one_n),
        s_y=kron(IDENTITY_2, SIGMA_Y, one_n),
        s_z=kron(IDENTITY_2, SIGMA_Z, one_n),
        l_z=kron(SIGMA_Z, IDENTITY_2, one_n),
        i_x=kron(IDENTITY_2, IDENTITY_2, nuc.x),
        i_y=kron(IDENTITY_2, IDENTITY_2, nuc.y),
        i_z=kron(IDENTITY_2, IDENTITY_2, nuc.z),
        hf_perp=kron(IDENTITY_2, 0.5 * SIGMA_X, nuc.x) + kron(IDENTITY_2, 0.5 * SIGMA_Y, nuc.y),
        hf_par=kron(IDENTITY_2, 0.5 * SIGMA_Z, nuc.z),
        quad=kron(IDENTITY_2, IDENTITY_2, quad),
        ioc=kron(SIGMA_Z, IDENTITY_2, nuc.z),
        jsq=j[0] @ j[0] + j[1] @ j[1] + j[2] @ j[2],
    )
    for name, m in ops.items():
        # An operator with no imaginary element is kept as its float64 real part.
        ops[name] = m if m.imag.any() else np.ascontiguousarray(m.real)
        ops[name].flags.writeable = False
    return _Operators(**ops)


# Each term from the operators of one spin.  With real=True, which the
# builder passes when B_y = 0 and beta = 0 at every point, the beta and B_y
# parts drop out and every term is float64.

def _soc(params, ops):
    return 0.5 * params.lambda_soc_ghz * GHZ * ops.soc


def _strain(alpha_ghz, beta_ghz, ops, real=False):
    """From alpha and beta as `_per_point` gives them."""
    if real:  # beta is 0 at every point; a stack of them sets the shape
        return -alpha_ghz * GHZ * ops.strain_x - 0.0 * beta_ghz
    return -alpha_ghz * GHZ * ops.strain_x - beta_ghz * GHZ * ops.strain_y


def _fields(b) -> np.ndarray:
    """One field (3,) or a stack of n (n, 3) as float64, tesla; anything
    else, a ragged stack too, is a ValueError naming the magnetic field."""
    try:
        fields = np.asarray(b, dtype=float)
    except OverflowError:
        raise ValueError("magnetic field is an integer too large for a float") from None
    except (TypeError, ValueError):  # ragged, or not numbers
        fields = None
    if fields is None or fields.ndim not in (1, 2) or fields.shape[-1] != 3:
        got = "ragged or non-numeric points" if fields is None else f"shape {fields.shape}"
        raise ValueError(f"magnetic field needs 3 components per point, got {got}")
    return fields


def _components(b):
    """bx, by and bz of the field or fields b, each as `_per_point` gives it."""
    return tuple(_per_point("magnetic field component", c) for c in _fields(b).T)


def _zeeman(emitter, manifold, components, ops, real=False):
    bx, by, bz = components
    params = emitter.manifold(manifold)

    ge_mub = emitter.g_electron * MU_B_MHZ_PER_T
    if real:
        h = 0.5 * ge_mub * (bx * ops.s_x + bz * ops.s_z)
    else:
        h = 0.5 * ge_mub * (bx * ops.s_x + by * ops.s_y + bz * ops.s_z)
    h += params.q_orb * MU_B_MHZ_PER_T * bz * ops.l_z
    gi_mun = emitter.g_nuclear * MU_N_MHZ_PER_T
    if real:
        h += gi_mun * (bx * ops.i_x + bz * ops.i_z)
    else:
        h += gi_mun * (bx * ops.i_x + by * ops.i_y + bz * ops.i_z)
    return h


def _hyperfine(params, ops):
    h = a_perp(params) * ops.hf_perp
    h += a_parallel(params) * ops.hf_par
    return h


def _quadrupole(params, ops):
    return params.quad_q_mhz * ops.quad


def _ioc(params, ops):
    return 0.5 * params.ioc_upsilon_mhz * ops.ioc


def term_soc(params: ManifoldParams, i) -> np.ndarray:
    """Spin-orbit term (lambda/2) sz_orb sz_spin, MHz."""
    return _soc(params, _operators(i)).astype(complex)


def term_strain(alpha_ghz, beta_ghz, i) -> np.ndarray:
    """Transverse-strain term -alpha sx_orb - beta sy_orb, inputs GHz.

    Each of alpha and beta is one value or a stack of n."""
    alpha = _per_point("strain alpha_ghz", alpha_ghz)
    beta = _per_point("strain beta_ghz", beta_ghz)
    _one_length(("strain alpha_ghz", alpha), ("strain beta_ghz", beta))
    return _strain(alpha, beta, _operators(i))


def term_zeeman(emitter: EmitterModel, manifold: str, b) -> np.ndarray:
    """Electron-spin, orbital (axial, factor q) and nuclear Zeeman terms, MHz.

    b is the magnetic field vector in Tesla, or an (n, 3) stack of them.
    """
    return _zeeman(emitter, manifold, _components(b), _operators(emitter.nuclear_spin))


def term_hyperfine(params: ManifoldParams, i) -> np.ndarray:
    """A_perp (Sx Ix + Sy Iy) + A_par Sz Iz on spin (x) nucleus, MHz."""
    return _hyperfine(params, _operators(i)).astype(complex)


def term_quadrupole(params: ManifoldParams, i) -> np.ndarray:
    """Axial quadrupole term Q (Iz^2 - I(I+1)/3), traceless, zero for I <= 1/2."""
    return _quadrupole(params, _operators(i)).astype(complex)


def term_ioc(params: ManifoldParams, i) -> np.ndarray:
    """Nuclear spin-orbit term (upsilon/2) sz_orb Iz, MHz."""
    return _ioc(params, _operators(i)).astype(complex)


def _build(emitter, manifold, b, alpha_ghz, beta_ghz):
    """The Hamiltonian of build_hamiltonian in float64 when every point is
    real (B_y = 0 and beta = 0), else in complex128."""
    alpha = emitter.strain_alpha_ghz if alpha_ghz is None else alpha_ghz
    beta = emitter.strain_beta_ghz if beta_ghz is None else beta_ghz
    # The field and beta's conversion are refused before the manifold and alpha.
    fields = _fields(b)
    betas = _no_overflow("strain beta_ghz", np.asarray, beta, float)
    params = emitter.manifold(manifold)
    alphas, betas = _per_point("strain alpha_ghz", alpha), _per_point("strain beta_ghz", betas)
    components = _components(fields)
    _one_length(("magnetic field", components[1]), ("strain alpha_ghz", alphas),
                ("strain beta_ghz", betas))
    real = np.all((components[1] == 0.0) & (betas == 0.0))
    ops = _operators(emitter.nuclear_spin)
    # A term beyond the float range is refused by name just below.
    with np.errstate(over="ignore", invalid="ignore"):
        h = _soc(params, ops)
        h = h + _strain(alphas, betas, ops, real)
        h = h + _zeeman(emitter, manifold, components, ops, real)
        h = h + _hyperfine(params, ops)
        h = h + _quadrupole(params, ops)
        h = h + _ioc(params, ops)
    if not np.isfinite(h).all():
        k = int(np.argmin(np.isfinite(h).all(axis=(-2, -1))))  # the first such point
        b, alpha, beta = (x[k] if x.ndim > nd else x for x, nd in (
            (fields, 1), (np.asarray(alpha, float), 0), (np.asarray(beta, float), 0)))
        where = f"point {k} of the stack, " if h.ndim == 3 and len(h) > 1 else ""
        raise ValueError(f"{manifold}: the Hamiltonian is not finite at {where}B = "
                         f"{tuple(b.tolist())} T, alpha = {alpha} GHz, beta = {beta} GHz: a term "
                         "overflows the float range")
    return h


def build_hamiltonian(emitter: EmitterModel, manifold: str, b=(0.0, 0.0, 0.0),
                      alpha_ghz: float | None = None,
                      beta_ghz: float | None = None) -> np.ndarray:
    """Full Hermitian Hamiltonian of one manifold at field b (Tesla), MHz.

    Strain defaults to the emitter's shared alpha/beta and can be
    overridden per call.  An (n, 3) field and/or n strains give (n, d, d).
    The result is complex128.  A term that overflows the float range is a
    ValueError naming the manifold and the first such point.
    """
    return _build(emitter, manifold, b, alpha_ghz, beta_ghz).astype(complex, copy=False)


def a_parallel(params: ManifoldParams) -> float:
    """Axial hyperfine shift A_FC + A_DD, MHz."""
    return params.a_fc_mhz + params.a_dd_mhz


def a_perp(params: ManifoldParams) -> float:
    """Transverse hyperfine mixing A_FC - 2 A_DD, MHz."""
    return params.a_fc_mhz - 2.0 * params.a_dd_mhz


def a_ple(emitter: EmitterModel) -> float:
    """Optical hyperfine spacing between hyperfine-split C lines, MHz.

    Half the difference of the axial couplings of the two manifolds,
    (A_par_exc - A_par_gnd)/2; negative for every tabulated isotope.
    """
    return 0.5 * (a_parallel(emitter.exc) - a_parallel(emitter.gnd))


@lru_cache(maxsize=None)
def jsq_operator(i) -> np.ndarray:
    """Total electro-nuclear angular momentum squared, J = S + I, full basis,
    complex128.  Cached per spin and read-only."""
    jsq = _operators(i).jsq.astype(complex)
    jsq.flags.writeable = False
    return jsq


def jt_shifted_params(params: ManifoldParams, delta_fc_mhz: float,
                      delta_dd_mhz: float) -> ManifoldParams:
    """Copy of params with the hyperfine couplings shifted by the given
    deltas (symmetry-lowering sensitivity studies)."""
    return dataclasses.replace(
        params,
        a_fc_mhz=params.a_fc_mhz + _no_overflow("delta_fc_mhz", float, delta_fc_mhz),
        a_dd_mhz=params.a_dd_mhz + _no_overflow("delta_dd_mhz", float, delta_dd_mhz),
    )


# Built-in registry: nuclear spin, nuclear g-factor, and first-principles
# hyperfine couplings (A_FC, A_DD) for ground and excited manifolds, MHz.
# Spin-0 reference isotopes carry zero couplings.
_HYPERFINE_TABLE = {
    "29Si": (0.5, -1.110, (64.20, -2.34), (-30.68, 32.57)),
    "73Ge": (4.5, -0.195, (48.23, -1.35), (5.03, 14.30)),
    "115Sn": (0.5, -1.836, (1275.04, -24.47), (386.74, 230.43)),
    "117Sn": (0.5, -2.000, (1389.09, -26.65), (421.34, 251.05)),
    "119Sn": (0.5, -2.092, (1453.27, -27.89), (440.80, 262.65)),
    "28Si": (0.0, 0.0, (0.0, 0.0), (0.0, 0.0)),
    "74Ge": (0.0, 0.0, (0.0, 0.0), (0.0, 0.0)),
    "118Sn": (0.0, 0.0, (0.0, 0.0), (0.0, 0.0)),
    "120Sn": (0.0, 0.0, (0.0, 0.0), (0.0, 0.0)),
}

# Spin-orbit splittings are not part of the hyperfine table; these are
# literature-typical (gnd, exc) defaults in GHz, overridable per lookup.
_LAMBDA_GHZ = {"Si": (46.0, 250.0), "Ge": (170.0, 980.0), "Sn": (850.0, 3000.0)}

# Orbital Zeeman response q per manifold.  The ground-state value ~0.1 is
# the usual quenched orbital g-factor; the excited manifold must differ
# from the ground one for the C-line to move with axial field at all
# (equal q cancels exactly in spin-conserving transitions), so a distinct
# default is used.  Both are plain configuration inputs.
_Q_ORB_DEFAULT = (0.10, 0.15)


def registry_labels() -> tuple:
    return tuple(_HYPERFINE_TABLE)


def _element_of(label: str) -> str:
    return "".join(ch for ch in label if ch.isalpha())


def registry_lookup(label: str, *, lambda_gnd_ghz: float | None = None,
                    lambda_exc_ghz: float | None = None,
                    q_gnd: float | None = None, q_exc: float | None = None,
                    g_electron: float | None = None,
                    strain_alpha_ghz: float = 0.0,
                    strain_beta_ghz: float = 0.0) -> EmitterModel:
    """Emitter prefilled from the built-in isotope table.

    The hyperfine couplings, nuclear spin and nuclear g-factor come from
    the table; spin-orbit splittings and orbital Zeeman responses are
    configuration inputs with documented defaults.
    """
    if label not in _HYPERFINE_TABLE:
        known = ", ".join(sorted(_HYPERFINE_TABLE))
        raise ValueError(f"unknown isotope label {label!r}; known labels: {known}")
    spin, g_i, (afc_g, add_g), (afc_e, add_e) = _HYPERFINE_TABLE[label]
    lam_g, lam_e = _LAMBDA_GHZ[_element_of(label)]
    qg, qe = _Q_ORB_DEFAULT

    def given(name, value, default):  # an override as a float, or the default
        return default if value is None else _no_overflow(name, float, value)
    gnd = ManifoldParams(
        lambda_soc_ghz=given("lambda_gnd_ghz", lambda_gnd_ghz, lam_g),
        q_orb=given("q_gnd", q_gnd, qg),
        a_fc_mhz=afc_g,
        a_dd_mhz=add_g,
    )
    exc = ManifoldParams(
        lambda_soc_ghz=given("lambda_exc_ghz", lambda_exc_ghz, lam_e),
        q_orb=given("q_exc", q_exc, qe),
        a_fc_mhz=afc_e,
        a_dd_mhz=add_e,
    )
    return EmitterModel(
        isotope=label,
        nuclear_spin=spin,
        g_nuclear=g_i,
        gnd=gnd,
        exc=exc,
        g_electron=given("g_electron", g_electron, DEFAULT_G_ELECTRON),
        strain_alpha_ghz=strain_alpha_ghz,
        strain_beta_ghz=strain_beta_ghz,
    )
