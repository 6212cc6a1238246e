import inspect

import numpy as np
import pytest

from g4vspec import ManifoldParams, EmitterModel


def pytest_configure(config):
    # A cast that drops an imaginary part fails the suite, as a RuntimeWarning
    # does (pyproject.toml).  NumPy 1.25 moved the class to numpy.exceptions
    # and NumPy 2 dropped the old name, so the filter names it as it is found.
    warning = getattr(np, "exceptions", np).ComplexWarning
    config.addinivalue_line("filterwarnings", f"error::{warning.__module__}.{warning.__name__}")


@pytest.fixture
def rng():
    return np.random.Generator(np.random.PCG64(12345))


@pytest.fixture
def calls(monkeypatch):
    """calls(owner, name) replaces owner.name by a pass-through wrapper and
    returns the list of its calls: each call's arguments bound by name to
    the real function's parameters, defaults applied."""

    def record(owner, name):
        real = getattr(owner, name)
        signature = inspect.signature(real)
        seen = []

        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            seen.append(bound.arguments)
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)
        return seen

    return record


def solve_inputs(c):
    """The emitter, manifold, fields (3-tuples) and effective strain alpha
    and beta of a recorded spectrum.solve_manifold call."""
    e = c["emitter"]
    fields = tuple(map(tuple, np.asarray(c["b"], dtype=float).reshape(-1, 3).tolist()))
    alpha = e.strain_alpha_ghz if c["alpha_ghz"] is None else c["alpha_ghz"]
    return e, c["manifold"], fields, float(alpha), c["beta_ghz"]


def _bits(a):
    """What two arrays share when they are equal bit for bit."""
    return a.dtype, a.shape, a.tobytes()


def lorentz_peak(f, center, fwhm):
    """Unit-height Lorentzian."""
    hw2 = (0.5 * fwhm) ** 2
    return hw2 / ((f - center) ** 2 + hw2)


def central_difference(fn, p, col):
    """d fn / d p[col] by central differences, step 1e-4 relative."""
    h = 1e-4 * max(abs(p[col]), 1.0)
    up, down = p.copy(), p.copy()
    up[col] += h
    down[col] -= h
    return (fn(up) - fn(down)) / (2.0 * h)


def random_hermitian(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (m + m.conj().T)


def random_emitter(rng, spin=None):
    """Physically shaped emitter with randomized couplings."""
    if spin is None:
        spin = float(rng.choice([0.0, 0.5, 1.0, 1.5, 4.5]))
    lam_g = float(rng.uniform(40.0, 900.0))
    lam_e = lam_g * float(rng.uniform(2.0, 5.0))
    afc_g = float(rng.uniform(10.0, 1500.0))
    add_g = afc_g * float(rng.uniform(-0.05, 0.05))
    afc_e = afc_g * float(rng.uniform(-0.5, 0.5))
    add_e = afc_g * float(rng.uniform(-0.3, 0.3))
    return EmitterModel(
        isotope=f"rand{spin}",
        nuclear_spin=spin,
        g_nuclear=float(rng.uniform(-2.5, 2.5)),
        gnd=ManifoldParams(lambda_soc_ghz=lam_g, q_orb=0.1, a_fc_mhz=afc_g, a_dd_mhz=add_g),
        exc=ManifoldParams(lambda_soc_ghz=lam_e, q_orb=0.15, a_fc_mhz=afc_e, a_dd_mhz=add_e),
        strain_alpha_ghz=float(rng.uniform(0.0, 60.0)),
        strain_beta_ghz=float(rng.uniform(0.0, 20.0)),
    )


def local_maxima(signal, prominence_frac=0.01):
    """Indices of local maxima with prominence above a fraction of the max."""
    signal = np.asarray(signal)
    top = signal.max()
    out = []
    for k in range(1, len(signal) - 1):
        if signal[k] > signal[k - 1] and signal[k] >= signal[k + 1]:
            lo_l = signal[k]
            j = k - 1
            while j >= 0 and signal[j] <= signal[k]:
                lo_l = min(lo_l, signal[j])
                j -= 1
            lo_r = signal[k]
            j = k + 1
            while j < len(signal) and signal[j] <= signal[k]:
                lo_r = min(lo_r, signal[j])
                j += 1
            if signal[k] - max(lo_l, lo_r) >= prominence_frac * top:
                out.append(k)
    return out
