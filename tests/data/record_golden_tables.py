"""Record tests/data/golden_tables.json from the current source tree.

    PYTHONPATH=src python tests/data/record_golden_tables.py

The file holds, for every registry isotope at four fixed (B, alpha, beta)
points, the ``merge_lines`` output of ``transitions``, plus the result of
one small full-model field-map fit (its inputs are stored with it).
``tests/test_golden_tables.py`` recomputes both and compares.  Re-record
only on purpose: the file pins the numbers that refactors must keep.
"""
import dataclasses
import json
import math
from pathlib import Path

import numpy as np

import g4vspec
from g4vspec import analysis, spectrum

OUT = Path(__file__).resolve().parent / "golden_tables.json"

# (B in tesla, alpha GHz, beta GHz): zero field, axial field, an oblique
# field with mixed strain, and a strong-strain tilted field.
POINTS = (
    ((0.0, 0.0, 0.0), 0.0, 0.0),
    ((0.0, 0.0, 0.1), 0.0, 0.0),
    ((0.03, 0.01, 0.08), 20.0, 5.0),
    ((0.1 * math.sin(math.radians(33.0)), 0.0, 0.1 * math.cos(math.radians(33.0))), 55.0, 0.0),
)

# A 73Ge field map with a_ple_scale and strain_alpha both free, so the fit
# visits many distinct (a_ple_scale, strain_alpha) table keys.
FIT = {
    "isotope": "73Ge",
    "truth_a_ple_scale": 1.2,
    "truth_strain_alpha": 30.0,
    "truth_fwhm": 40.0,
    "direction": [math.sin(math.radians(33.0)), 0.0, math.cos(math.radians(33.0))],
    "fields_tesla": [0.0, 0.05, 0.1],
    "grid": [-200.0, 200.0, 4.0],
    "noise": 0.02,
    "noise_seed": 7,
    "free": ["a_ple_scale", "strain_alpha", "fwhm", "amplitude"],
    "init": {"a_ple_scale": 1.0, "strain_alpha": 20.0, "fwhm": 50.0},
}


def fit_data(spec):
    """The noisy field map the golden fit is run on."""
    base = g4vspec.registry_lookup(spec["isotope"])
    gen = dataclasses.replace(base.scaled_hyperfine(spec["truth_a_ple_scale"]),
                              strain_alpha_ghz=spec["truth_strain_alpha"])
    grid = np.arange(*spec["grid"])
    clean = spectrum.sweep_field(gen, spec["direction"], spec["fields_tesla"],
                                 spec["truth_fwhm"], grid)
    rng = np.random.Generator(np.random.PCG64(spec["noise_seed"]))
    data = [spectrum.SpectrumTrace(t.freq_mhz,
                                   t.signal + rng.normal(0.0, spec["noise"] * t.signal.max(),
                                                         t.signal.size), dict(t.meta))
            for t in clean]
    return base, data


def run_fit(spec):
    base, data = fit_data(spec)
    return analysis.fit_full_model(data, tuple(spec["free"]), base, init=dict(spec["init"]))


def tables():
    out = []
    for label in g4vspec.registry_labels():
        emitter = g4vspec.registry_lookup(label)
        for b, alpha, beta in POINTS:
            freq, inten = spectrum.merge_lines(
                spectrum.transitions(emitter, b, alpha_ghz=alpha, beta_ghz=beta))
            out.append({"isotope": label, "b_tesla": list(b), "alpha_ghz": alpha,
                        "beta_ghz": beta, "freq_mhz": freq.tolist(),
                        "intensity": inten.tolist()})
    return out


def main():
    res = run_fit(FIT)
    doc = {
        "tables": tables(),
        "fit": dict(FIT, params={k: float(v) for k, v in res.params.items()},
                    n_iterations=int(res.n_iterations), converged=bool(res.converged)),
    }
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"wrote {OUT}: {len(doc['tables'])} tables, fit {doc['fit']['params']} "
          f"in {res.n_iterations} iterations")


if __name__ == "__main__":
    main()
