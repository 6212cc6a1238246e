"""Record tests/data/golden_tables.json from the current source tree.

    PYTHONPATH=src python tests/data/record_golden_tables.py [--check]

The file holds, for every registry isotope at four fixed (B, alpha, beta)
points, the ``merge_lines`` output of ``transitions``, plus the result of
one small full-model field-map fit in the x-z plane (its inputs are
stored with it) and, under ``mixed_fit``, one off that plane (B_y != 0),
and,
under ``peak_fits``, the full reports of ``single`` and ``triplet211`` fits
of seeded noisy 119Sn traces, of Gaussian fits of seeded noisy Gaussian
traces, and the field-map fit's standard errors.
``tests/test_golden_tables.py`` recomputes them and compares.  Re-record
only on purpose: the file pins the numbers that refactors must keep.
Before it writes, the script prints, for each section, the largest
absolute and relative change against the file it replaces.  With
``--check`` it prints the same lines, writes nothing, and exits 1 if the
file would change (0 if every leaf is the same), so a change that claims
bit identity can show it without a scratch copy.
"""
import argparse
import dataclasses
import json
import math
from pathlib import Path

import numpy as np

import g4vspec
from g4vspec import analysis, spectrum
from g4vspec.hamiltonian import a_ple

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

# The same kind of map with the field off the x-z plane (B_y != 0).  As
# given, its B = 0 row is a real point and the others are complex; the fit
# solves every row in the real frame, so its stacks are float64.
MIXED_FIT = dict(
    FIT,
    direction=[math.sin(math.radians(33.0)) * math.cos(math.radians(30.0)),
               math.sin(math.radians(33.0)) * math.sin(math.radians(30.0)),
               math.cos(math.radians(33.0))],
    noise_seed=8,
)


# Seeded noisy traces for the closed-form peak fits: 119Sn at 55 GHz strain
# with jittered |a_ple| (as in the sn_ensemble_cli benchmark), each fitted
# as one Lorentzian and as a 2:1:1 triplet, and Gaussian peaks.
PEAK_FITS = {
    "isotope": "119Sn",
    "strain_alpha": 55.0,
    "a_ple_scale": 1.3409,
    "jitter_aple_mhz": 40.0,
    "fwhm": 35.0,
    "grid": [-500.0, 1100.0, 4.0],
    "noise": 0.05,
    "noise_seed": 11,
    "n_traces": 8,
    "gaussian_grid": [-300.0, 300.0, 2.0],
    "gaussian_noise": 0.05,
    "gaussian_seed": 13,
    "n_gaussian_traces": 8,
}


def peak_traces(spec):
    """(model, trace) for every peak fit of spec: both Lorentzian models of
    each 119Sn trace, then one Gaussian fit per Gaussian trace."""
    base = dataclasses.replace(g4vspec.registry_lookup(spec["isotope"]),
                               strain_alpha_ghz=spec["strain_alpha"])
    grid = np.arange(*spec["grid"])
    rng = np.random.Generator(np.random.PCG64(spec["noise_seed"]))
    out = []
    for _ in range(spec["n_traces"]):
        scale = spec["a_ple_scale"] + rng.normal(0.0, spec["jitter_aple_mhz"]) / abs(a_ple(base))
        clean = spectrum.synth_spectrum(spectrum.transitions(base.scaled_hyperfine(scale)),
                                        spec["fwhm"], grid)
        trace = spectrum.SpectrumTrace(
            grid, clean.signal + rng.normal(0.0, spec["noise"] * clean.signal.max(), grid.size))
        out += [("single", trace), ("triplet211", trace)]
    grid = np.arange(*spec["gaussian_grid"])
    rng = np.random.Generator(np.random.PCG64(spec["gaussian_seed"]))
    for _ in range(spec["n_gaussian_traces"]):
        center, sigma = rng.uniform(-50.0, 50.0), rng.uniform(15.0, 40.0)
        amplitude, baseline = rng.uniform(0.5, 2.0), rng.uniform(0.0, 0.2)
        signal = (baseline + amplitude * np.exp(-((grid - center) ** 2) / (2.0 * sigma**2))
                  + rng.normal(0.0, spec["gaussian_noise"] * amplitude, grid.size))
        out.append(("gaussian", spectrum.SpectrumTrace(grid, signal)))
    return out


def peak_fit_reports(spec):
    return [(analysis.fit_gaussian(trace) if model == "gaussian"
             else analysis.fit_lorentzians(trace, model)).as_report()
            for model, trace in peak_traces(spec)]


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


_MISSING = object()


def _leaves(doc, path=()):
    """(path, value) for every number, string, bool and None in doc."""
    if isinstance(doc, (dict, list)):
        for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield from _leaves(value, path + (str(key),))
    else:
        yield path, doc


def _section(path):
    # Each top-level entry is a section, except that the peak-fit reports
    # and the field-map fit's report are two sections of their own.
    if path[0] == "peak_fits" and len(path) > 2 and path[1] in ("fits", "field_map_fit"):
        return ".".join(path[:2])
    return path[0]


def _is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def changes(old, new):
    """One line per section: the largest absolute and relative change of a
    number from old to new, where each is, and how many other leaves (not
    numbers, or in one document only) changed."""
    old_leaves, new_leaves = dict(_leaves(old)), dict(_leaves(new))
    sections = {}
    for path in list(new_leaves) + [p for p in old_leaves if p not in new_leaves]:
        sections.setdefault(_section(path), []).append(path)
    lines = []
    for name, paths in sections.items():
        largest = {"|change|": (0.0, None), "relative": (0.0, None)}
        other = []
        for path in paths:
            a, b = old_leaves.get(path, _MISSING), new_leaves.get(path, _MISSING)
            if _is_number(a) and _is_number(b):
                diff = abs(b - a)
                rel = diff / abs(a) if a else (math.inf if diff else 0.0)
                for kind, value in (("|change|", diff), ("relative", rel)):
                    if value > largest[kind][0]:
                        largest[kind] = (value, ".".join(path))
            elif a != b:
                other.append(".".join(path))
        parts = [f"max {kind} {value:.3g}" + (f" at {where}" if where else "")
                 for kind, (value, where) in largest.items()]
        if other:
            parts.append(f"{len(other)} other leaves changed, the first at {other[0]}")
        lines.append(f"{name}: " + "; ".join(parts))
    return lines


def fit_record(spec, res):
    return dict(spec, params={k: float(v) for k, v in res.params.items()},
                n_iterations=int(res.n_iterations), converged=bool(res.converged))


def main(argv=None):
    parser = argparse.ArgumentParser(description="Record tests/data/golden_tables.json.")
    parser.add_argument("--check", action="store_true",
                        help="print the changes, write nothing, exit 1 if any leaf moved")
    check = parser.parse_args(argv).check
    res = run_fit(FIT)
    mixed = run_fit(MIXED_FIT)
    doc = {
        "tables": tables(),
        "fit": fit_record(FIT, res),
        "peak_fits": dict(PEAK_FITS, fits=peak_fit_reports(PEAK_FITS),
                          field_map_fit=res.as_report()),
        "mixed_fit": dict(fit_record(MIXED_FIT, mixed), report=mixed.as_report()),
    }
    text = json.dumps(doc, indent=1) + "\n"
    old = OUT.read_text(encoding="utf-8") if OUT.exists() else None
    if old is not None:
        print(f"changes against the {OUT.name} this {'checks' if check else 'replaces'}:")
        for line in changes(json.loads(old), doc):
            print("  " + line)
    if check:
        print(f"{OUT.name} is {'unchanged' if text == old else 'changed'}")
        return int(text != old)
    OUT.write_text(text, encoding="utf-8")
    print(f"wrote {OUT}: {len(doc['tables'])} tables, fit {doc['fit']['params']} "
          f"in {res.n_iterations} iterations, off-plane fit {doc['mixed_fit']['params']} in "
          f"{mixed.n_iterations} iterations, {len(doc['peak_fits']['fits'])} peak fits")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
