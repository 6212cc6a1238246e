"""Emitter files, fit-report validation, CSV ingestion/emission, and the
seeded synthetic-data generator.

All numeric output uses 9 significant digits with '.' decimal separator
and LF line endings, so repeated runs diff clean.  File writes are
whole-file atomic (temp file + rename).  Emitter files and fit reports
are checked against the packaged JSON schemas; each schema's validator
is compiled once per process, on first use, so importing this module
does not import jsonschema.
"""
import contextlib
import dataclasses
import functools
import json
import math
import os
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .hamiltonian import EmitterModel, ManifoldParams, a_ple, registry_labels, registry_lookup
from .spectrum import SpectrumTrace, synth_spectrum, transitions

__all__ = [
    "MeasuredTrace",
    "fmt",
    "parse_grid",
    "parse_field",
    "load_emitter",
    "emitter_from_dict",
    "emitter_to_dict",
    "ingest_csv",
    "write_spectrum_csv",
    "write_map_csv",
    "write_levels_csv",
    "write_json",
    "write_text",
    "validate_fit_report",
    "synth_dataset",
]


@dataclass(frozen=True)
class MeasuredTrace:
    """A 1-D spectrum read from disk, with provenance."""

    freq_mhz: np.ndarray
    signal: np.ndarray
    source: str
    emitter_id: str | None = None
    meta: dict = field(default_factory=dict)


def fmt(x) -> str:
    """9 significant digits, locale-independent."""
    return f"{float(x):.9g}"


def write_text(path, text: str) -> None:
    """Atomic whole-file write: temp file in the same directory, then rename."""
    path = os.fspath(path)
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def write_json(path, payload) -> None:
    write_text(path, json.dumps(payload, indent=2, sort_keys=False) + "\n")


def parse_grid(spec: str) -> np.ndarray:
    """Grid from 'min:max:step' (MHz), endpoints inclusive within step/2."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid spec must be 'min:max:step', got {spec!r}")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError as exc:
        raise ValueError(f"grid spec {spec!r} has a non-numeric field") from exc
    if step <= 0:
        raise ValueError(f"grid step must be positive, got {step}")
    if hi < lo:
        raise ValueError(f"grid max {hi} is below min {lo}")
    n = int(round((hi - lo) / step))
    if abs(lo + n * step - hi) > 0.5 * step + 1e-12 * max(abs(hi), 1.0):
        n = int(math.floor((hi - lo) / step + 1e-12))
    return lo + step * np.arange(n + 1)


def parse_field(spec: str):
    """Field vector in Tesla from 'bz' or 'bx,by,bz'."""
    parts = [p for p in spec.split(",") if p != ""]
    try:
        vals = [float(p) for p in parts]
    except ValueError as exc:
        raise ValueError(f"field spec {spec!r} has a non-numeric component") from exc
    if len(vals) == 1:
        return (0.0, 0.0, vals[0])
    if len(vals) == 3:
        return tuple(vals)
    raise ValueError(f"field spec must have 1 or 3 components, got {spec!r}")


# ---------------------------------------------------------------------------
# schemas

@functools.cache
def _validator(name: str):
    """Compiled validator for a packaged schema, built on first use.

    jsonschema is imported here, not at module level, and the schema is
    checked against its metaschema once per process.
    """
    import jsonschema

    with resources.files("g4vspec.schemas").joinpath(name).open("r", encoding="utf-8") as fh:
        schema = json.load(fh)
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def _validate(doc, name: str, what: str) -> None:
    """Raise ValueError naming the error jsonschema.validate would raise."""
    from jsonschema.exceptions import best_match

    err = best_match(_validator(name).iter_errors(doc))
    if err is not None:
        where = "/".join(str(p) for p in err.absolute_path) or "(top level)"
        raise ValueError(f"invalid {what}: at {where}: {err.message}") from err


# ---------------------------------------------------------------------------
# emitter files

def emitter_from_dict(doc: dict) -> EmitterModel:
    """EmitterModel from a validated document; registry defaults fill any
    field the document does not override."""
    _validate(doc, "emitter.schema.json", "emitter file")
    label = doc["isotope"]
    if label in registry_labels():
        base = registry_lookup(label)
    else:
        required = ("nuclear_spin", "g_nuclear", "gnd", "exc")
        missing = [k for k in required if k not in doc]
        if missing:
            raise ValueError(
                f"isotope {label!r} is not in the registry; emitter file must "
                f"define {', '.join(missing)}"
            )
        base = None

    def manifold(which: str, fallback: ManifoldParams | None) -> ManifoldParams:
        sub = doc.get(which, {})
        if fallback is None and "lambda_ghz" not in sub:
            raise ValueError(f"emitter file: {which}.lambda_ghz is required for {label!r}")
        kw = {
            "lambda_soc_ghz": sub.get("lambda_ghz",
                                      fallback.lambda_soc_ghz if fallback else None),
            "q_orb": sub.get("q", fallback.q_orb if fallback else 0.1),
            "a_fc_mhz": sub.get("a_fc_mhz", fallback.a_fc_mhz if fallback else 0.0),
            "a_dd_mhz": sub.get("a_dd_mhz", fallback.a_dd_mhz if fallback else 0.0),
            "quad_q_mhz": sub.get("quad_q_mhz", fallback.quad_q_mhz if fallback else 0.0),
            "ioc_upsilon_mhz": sub.get("ioc_upsilon_mhz",
                                       fallback.ioc_upsilon_mhz if fallback else 0.0),
        }
        return ManifoldParams(**kw)

    return EmitterModel(
        isotope=label,
        nuclear_spin=doc.get("nuclear_spin", base.nuclear_spin if base else None),
        g_nuclear=doc.get("g_nuclear", base.g_nuclear if base else None),
        gnd=manifold("gnd", base.gnd if base else None),
        exc=manifold("exc", base.exc if base else None),
        g_electron=doc.get("g_electron", base.g_electron if base else 2.0023),
        strain_alpha_ghz=doc.get("strain_alpha_ghz", base.strain_alpha_ghz if base else 0.0),
        strain_beta_ghz=doc.get("strain_beta_ghz", base.strain_beta_ghz if base else 0.0),
    )


def emitter_to_dict(emitter: EmitterModel) -> dict:
    def manifold(p: ManifoldParams) -> dict:
        return {
            "lambda_ghz": p.lambda_soc_ghz,
            "q": p.q_orb,
            "a_fc_mhz": p.a_fc_mhz,
            "a_dd_mhz": p.a_dd_mhz,
            "quad_q_mhz": p.quad_q_mhz,
            "ioc_upsilon_mhz": p.ioc_upsilon_mhz,
        }

    return {
        "schema_version": "1",
        "isotope": emitter.isotope,
        "nuclear_spin": emitter.nuclear_spin,
        "g_nuclear": emitter.g_nuclear,
        "g_electron": emitter.g_electron,
        "strain_alpha_ghz": emitter.strain_alpha_ghz,
        "strain_beta_ghz": emitter.strain_beta_ghz,
        "gnd": manifold(emitter.gnd),
        "exc": manifold(emitter.exc),
    }


def _reject_constant(name: str):
    raise ValueError(f"non-finite literal {name} is not allowed")


def load_emitter(label_or_path: str) -> EmitterModel:
    """Emitter from a registry label or a JSON parameter file.

    Every error about a file names it, as 'emitter file <path>: ...'.
    The NaN and Infinity literals that `json` accepts are refused.
    """
    if label_or_path in registry_labels():
        return registry_lookup(label_or_path)
    if os.path.exists(label_or_path):
        with open(label_or_path, "r", encoding="utf-8") as fh:
            try:
                doc = json.load(fh, parse_constant=_reject_constant)
            except ValueError as exc:  # JSONDecodeError, a refused literal, bad UTF-8
                raise ValueError(f"emitter file {label_or_path}: invalid JSON: {exc}") from exc
        try:
            return emitter_from_dict(doc)
        except ValueError as exc:
            raise ValueError(f"emitter file {label_or_path}: {exc}") from exc
    known = ", ".join(sorted(registry_labels()))
    raise ValueError(
        f"{label_or_path!r} is neither a registry label ({known}) nor an existing file"
    )


def validate_fit_report(doc: dict) -> dict:
    _validate(doc, "fit_report.schema.json", "fit report")
    return doc


# ---------------------------------------------------------------------------
# CSV formats

def _increasing_grid(path, freqs, linenos) -> np.ndarray:
    """freqs as an array; raises at the first file line whose frequency
    does not exceed the one before it."""
    freqs = np.asarray(freqs)
    bad = np.nonzero(np.diff(freqs) <= 0)[0]
    if bad.size:
        raise ValueError(
            f"{path}: line {linenos[int(bad[0]) + 1]}: frequency grid is not strictly increasing"
        )
    return freqs


def ingest_csv(path) -> MeasuredTrace:
    """Spectrum CSV with header 'freq_mhz,intensity', at least 3 rows,
    strictly increasing finite frequencies."""
    path = os.fspath(path)
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0].strip() != "freq_mhz,intensity":
        raise ValueError(f"{path}: expected header 'freq_mhz,intensity'")
    freqs, signal, linenos = [], [], []
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        cells = raw.split(",")
        if len(cells) != 2:
            raise ValueError(f"{path}: line {lineno}: expected 2 fields, got {len(cells)}")
        try:
            f, s = float(cells[0]), float(cells[1])
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: non-numeric value in {raw!r}") from None
        if not (math.isfinite(f) and math.isfinite(s)):
            raise ValueError(f"{path}: line {lineno}: non-finite value")
        freqs.append(f)
        signal.append(s)
        linenos.append(lineno)
    if len(freqs) < 3:
        raise ValueError(f"{path}: need at least 3 data rows, got {len(freqs)}")
    freqs = _increasing_grid(path, freqs, linenos)
    signal = np.asarray(signal)
    stem = os.path.splitext(os.path.basename(path))[0]
    return MeasuredTrace(freq_mhz=freqs, signal=signal, source=path, emitter_id=stem)


def write_spectrum_csv(path, trace) -> None:
    rows = ["freq_mhz,intensity"]
    rows += [f"{fmt(f)},{fmt(s)}" for f, s in zip(trace.freq_mhz, trace.signal)]
    write_text(path, "\n".join(rows) + "\n")


def write_map_csv(path, traces) -> None:
    """Field map rows in field-outer order: b_tesla,freq_mhz,intensity."""
    rows = ["b_tesla,freq_mhz,intensity"]
    for trace in traces:
        b = trace.meta.get("b_mag_tesla", 0.0)
        rows += [f"{fmt(b)},{fmt(f)},{fmt(s)}" for f, s in zip(trace.freq_mhz, trace.signal)]
    write_text(path, "\n".join(rows) + "\n")


def read_map_csv(path) -> list:
    """Inverse of write_map_csv: list of MeasuredTrace, one per field value.

    Each field value must form one contiguous block of at least 3 rows
    whose frequencies strictly increase (the spectrum rules of ingest_csv).
    """
    path = os.fspath(path)
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0].strip() != "b_tesla,freq_mhz,intensity":
        raise ValueError(f"{path}: expected header 'b_tesla,freq_mhz,intensity'")
    rows = []
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        cells = raw.split(",")
        if len(cells) != 3:
            raise ValueError(f"{path}: line {lineno}: expected 3 fields, got {len(cells)}")
        try:
            row = tuple(float(c) for c in cells)
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: non-numeric value in {raw!r}") from None
        if not all(map(math.isfinite, row)):
            raise ValueError(f"{path}: line {lineno}: non-finite value")
        rows.append((lineno,) + row)
    traces = []
    block_end = {}  # field value -> last line of its block
    k = 0
    while k < len(rows):
        first, b = rows[k][:2]
        if b in block_end:
            raise ValueError(
                f"{path}: line {first}: field {fmt(b)} T already has a block ending at "
                f"line {block_end[b]}; each field's rows must be contiguous"
            )
        j = k
        while j < len(rows) and rows[j][1] == b:
            j += 1
        chunk = rows[k:j]
        block_end[b] = chunk[-1][0]
        if len(chunk) < 3:
            raise ValueError(
                f"{path}: line {first}: field {fmt(b)} T has {len(chunk)} data row(s), "
                "need at least 3"
            )
        traces.append(
            MeasuredTrace(
                freq_mhz=_increasing_grid(path, [r[2] for r in chunk], [r[0] for r in chunk]),
                signal=np.array([r[3] for r in chunk]),
                source=path,
                meta={"b_mag_tesla": b},
            )
        )
        k = j
    return traces


def write_levels_csv(path, sweep) -> None:
    """Strain sweep rows: alpha_ghz,level_index,energy_mhz,jsq."""
    rows = ["alpha_ghz,level_index,energy_mhz,jsq"]
    for k, alpha in enumerate(sweep.axis):
        for idx in range(sweep.levels.shape[1]):
            rows.append(
                f"{fmt(alpha)},{idx},{fmt(sweep.levels[k, idx])},{fmt(sweep.jsq[k, idx])}"
            )
    write_text(path, "\n".join(rows) + "\n")


def write_values_csv(path, values, column: str = "value") -> None:
    rows = [column] + [fmt(v) for v in values]
    write_text(path, "\n".join(rows) + "\n")


def read_values_csv(path, column: str | None = None) -> np.ndarray:
    """Single column of finite numbers from a CSV; picks `column` by header
    name when given, else the only column.  Blank lines are skipped."""
    path = os.fspath(path)
    with open(path, "r", encoding="utf-8") as fh:
        lines = [(n, ln) for n, ln in enumerate(fh.read().splitlines(), start=1) if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty file")
    header = lines[0][1].split(",")
    if column is None:
        if len(header) != 1:
            raise ValueError(f"{path}: multiple columns, pass a column name")
        col = 0
    else:
        if column not in header:
            raise ValueError(f"{path}: no column {column!r} in header {header}")
        col = header.index(column)
    out = []
    for lineno, raw in lines[1:]:
        cells = raw.split(",")
        try:
            value = float(cells[col])
        except (IndexError, ValueError):
            raise ValueError(f"{path}: line {lineno}: bad value in {raw!r}") from None
        if not math.isfinite(value):
            raise ValueError(f"{path}: line {lineno}: non-finite value")
        out.append(value)
    return np.asarray(out)


# ---------------------------------------------------------------------------
# synthetic datasets

def synth_dataset(emitter: EmitterModel, out_dir, *, n_emitters: int, seed: int,
                  noise_sigma: float, fwhm_mhz: float, grid, truth_path,
                  b=(0.0, 0.0, 0.0), a_ple_scale: float = 1.0,
                  jitter_aple_mhz: float = 0.0, jitter_alpha_ghz: float = 0.0,
                  jitter_offset_mhz: float = 0.0) -> dict:
    """Seeded per-emitter spectra with Gaussian parameter jitter.

    Each synthetic emitter scales the base hyperfine couplings so its
    |a_ple| is the base value plus Gaussian jitter, optionally jitters the
    strain and a global frequency offset, and receives additive Gaussian
    noise of noise_sigma times the trace maximum.  Writes one CSV per
    emitter plus a truth table JSON; returns the truth table.
    """
    if noise_sigma < 0:
        raise ValueError("noise_sigma must be >= 0")
    os.makedirs(out_dir, exist_ok=True)
    grid = np.asarray(grid, dtype=float)
    rng = np.random.Generator(np.random.PCG64(seed))
    base_aple = a_ple(emitter) * a_ple_scale
    entries = []
    for k in range(n_emitters):
        aple_k = base_aple
        if jitter_aple_mhz > 0:
            aple_k = math.copysign(abs(base_aple) + rng.normal(0.0, jitter_aple_mhz),
                                   base_aple)
        scale_k = aple_k / a_ple(emitter) if a_ple(emitter) != 0 else 1.0
        alpha_k = emitter.strain_alpha_ghz
        if jitter_alpha_ghz > 0:
            alpha_k += rng.normal(0.0, jitter_alpha_ghz)
        offset_k = rng.normal(0.0, jitter_offset_mhz) if jitter_offset_mhz > 0 else 0.0

        model_k = dataclasses.replace(emitter.scaled_hyperfine(scale_k),
                                      strain_alpha_ghz=alpha_k)
        table = transitions(model_k, b)
        trace = synth_spectrum(table, fwhm_mhz, grid - offset_k)
        signal = trace.signal
        if noise_sigma > 0:
            signal = signal + rng.normal(0.0, noise_sigma * signal.max(), signal.size)
        name = f"emitter_{k:04d}.csv"
        write_spectrum_csv(os.path.join(out_dir, name),
                           SpectrumTrace(freq_mhz=grid, signal=signal, meta={}))
        entries.append({
            "file": name,
            "a_ple_mhz": float(aple_k),
            "a_ple_scale": float(scale_k),
            "alpha_ghz": float(alpha_k),
            "offset_mhz": float(offset_k),
        })
    truth = {
        "schema_version": "1",
        "emitter": emitter.isotope,
        "seed": int(seed),
        "noise_sigma": float(noise_sigma),
        "fwhm_mhz": float(fwhm_mhz),
        "b_tesla": [float(c) for c in b],
        "entries": entries,
    }
    write_json(truth_path, truth)
    return truth
