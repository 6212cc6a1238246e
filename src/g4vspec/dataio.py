"""Emitter files, fit-report validation, CSV ingestion/emission, and the
seeded synthetic-data generator.

Each format is defined once.  `_read_rows` reads the spectrum and map
CSVs (header, blank lines, field count, finite numbers) in one NumPy C
parse, or line by line if that parse refuses the file; `read_values_csv`
picks one column of a ragged CSV.  Both name a file that is not UTF-8.
A trace read from disk is a `spectrum.SpectrumTrace`, as a synthesized
one is, with its provenance in meta: the path as 'source', and the file
name's stem as 'emitter_id' for a spectrum.
Every CSV is written at 9 significant digits with '.' decimal separator
and LF line endings, so repeated runs diff clean, and each file is
formatted by one `%` call over one template.  `_write_csv` writes one block
of plain columns: the spectrum (freq_mhz,intensity), the strain levels
(alpha_ghz,level_index,energy_mhz,jsq), a values file (one named column),
and the CLI's batch summary and KDE.  `write_map_csv` builds the field
map's own template (b_tesla,freq_mhz,intensity), with each trace's field
and grid as template text.  `_MANIFOLD_KEYS` and
`_TOP_KEYS` map emitter-file keys to `EmitterModel` fields both ways.
File writes are whole-file atomic (temp file + rename).  Emitter files
are checked against their packaged JSON schema when read; fit reports
are built to match theirs, and `validate_fit_report` checks reports from
elsewhere.  Each validator is compiled once, on first use, so importing
this module does not import jsonschema.
"""
import contextlib
import dataclasses
import functools
import itertools
import json
import math
import numbers
import os
from importlib import resources

import numpy as np

from .hamiltonian import (EmitterModel, ManifoldParams, _no_overflow, a_ple, registry_labels,
                          registry_lookup)
from .spectrum import SpectrumTrace, synth_spectrum, transitions

__all__ = [
    "fmt",
    "parse_grid",
    "parse_field",
    "parse_direction",
    "load_emitter",
    "emitter_from_dict",
    "emitter_to_dict",
    "ingest_csv",
    "read_map_csv",
    "read_values_csv",
    "write_spectrum_csv",
    "write_map_csv",
    "write_levels_csv",
    "write_values_csv",
    "write_json",
    "write_text",
    "validate_fit_report",
    "synth_dataset",
]

MAX_GRID_POINTS = 10**7  # points of a parsed grid, at most (80 MB of float64)


def fmt(x) -> str:
    """9 significant digits, locale-independent."""
    return f"{float(x):.9g}"


def write_text(path, text: str) -> None:
    """Atomic whole-file write: temp file in the same directory, then rename.
    An OSError that names the temp file is raised again naming path."""
    path = os.fspath(path)
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        if isinstance(exc, OSError) and exc.filename == tmp:
            raise type(exc)(exc.errno, exc.strerror, path) from None
        raise


def write_json(path, payload) -> None:
    write_text(path, json.dumps(payload, indent=2, sort_keys=False) + "\n")


def parse_grid(spec: str) -> np.ndarray:
    """Grid from 'min:max:step' (MHz), endpoints inclusive within step/2, of
    at most MAX_GRID_POINTS points; a larger grid is refused before anything
    is allocated."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid spec must be 'min:max:step', got {spec!r}")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError as exc:
        raise ValueError(f"grid spec {spec!r} has a non-numeric field") from exc
    for name, value in (("min", lo), ("max", hi), ("step", step)):
        if not math.isfinite(value):
            raise ValueError(f"grid {name} must be finite, got {value}")
    if step <= 0:
        raise ValueError(f"grid step must be positive, got {step}")
    if hi < lo:
        raise ValueError(f"grid max {hi} is below min {lo}")
    if not math.isfinite((hi - lo) / step):
        raise ValueError(f"grid spec {spec!r} spans too many steps")
    n = int(round((hi - lo) / step))
    if abs(lo + n * step - hi) > 0.5 * step + 1e-12 * max(abs(hi), 1.0):
        n = int(math.floor((hi - lo) / step + 1e-12))
    if n + 1 > MAX_GRID_POINTS:
        raise ValueError(f"grid spec {spec!r} gives {n + 1:.10g} points, more than the "
                         f"{MAX_GRID_POINTS} allowed")
    return lo + step * np.arange(n + 1)


def parse_field(spec: str):
    """Field vector in Tesla from 'bz' or 'bx,by,bz'."""
    parts = spec.split(",")
    if not all(p.strip() for p in parts):
        raise ValueError(f"field spec {spec!r} has an empty component")
    try:
        vals = [float(p) for p in parts]
    except ValueError as exc:
        raise ValueError(f"field spec {spec!r} has a non-numeric component") from exc
    if len(vals) == 1:
        return (0.0, 0.0, vals[0])
    if len(vals) == 3:
        return tuple(vals)
    raise ValueError(f"field spec must have 1 or 3 components, got {spec!r}")


def parse_direction(spec: str) -> np.ndarray:
    """Unit field direction from 'x,y,z': three finite numbers, not all zero."""
    try:
        direction = np.asarray([float(p) for p in spec.split(",")])
    except ValueError as exc:
        raise ValueError(f"field direction {spec!r} has a non-numeric component") from exc
    with np.errstate(over="ignore"):  # NaN and inf fail the test below
        norm = np.linalg.norm(direction)
        biggest = np.abs(direction).max(initial=0.0)
        if norm in (0.0, math.inf) and 0.0 < biggest < math.inf:
            # the squares underflow or overflow: normalise the rescaled vector
            direction = direction / biggest
            norm = np.linalg.norm(direction)
    if direction.size != 3 or not 0.0 < norm < math.inf:
        raise ValueError(f"field direction must be 3 finite numbers, not all 0, got {spec!r}")
    return direction / norm


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

# emitter-file key -> ManifoldParams field, in file order
_MANIFOLD_KEYS = {"lambda_ghz": "lambda_soc_ghz", "q": "q_orb", "a_fc_mhz": "a_fc_mhz",
                  "a_dd_mhz": "a_dd_mhz", "quad_q_mhz": "quad_q_mhz",
                  "ioc_upsilon_mhz": "ioc_upsilon_mhz"}
# top-level keys that are EmitterModel fields of the same name, in file order
_TOP_KEYS = ("nuclear_spin", "g_nuclear", "g_electron", "strain_alpha_ghz", "strain_beta_ghz")


def emitter_from_dict(doc: dict) -> EmitterModel:
    """EmitterModel from a validated document; registry defaults fill any
    field the document does not override."""
    _validate(doc, "emitter.schema.json", "emitter file")
    numbers = [(k, doc[k]) for k in _TOP_KEYS if k in doc]
    numbers += [(f"{m}.{k}", v) for m in ("gnd", "exc") for k, v in doc.get(m, {}).items()]
    for name, value in numbers:
        _no_overflow(name, float, value)
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

    def manifold(which: str) -> ManifoldParams:
        kw = {_MANIFOLD_KEYS[k]: v for k, v in doc.get(which, {}).items()}
        if base is not None:
            return dataclasses.replace(getattr(base, which), **kw)
        if "lambda_soc_ghz" not in kw:
            raise ValueError(f"{which}.lambda_ghz is required for {label!r}")
        return ManifoldParams(**kw)

    gnd, exc = manifold("gnd"), manifold("exc")
    top = {k: doc[k] for k in _TOP_KEYS if k in doc}
    if base is not None:
        return dataclasses.replace(base, gnd=gnd, exc=exc, **top)
    return EmitterModel(isotope=label, gnd=gnd, exc=exc, **top)


def emitter_to_dict(emitter: EmitterModel) -> dict:
    def manifold(p: ManifoldParams) -> dict:
        return {key: getattr(p, name) for key, name in _MANIFOLD_KEYS.items()}

    return {
        "schema_version": "1",
        "isotope": emitter.isotope,
        **{key: getattr(emitter, key) for key in _TOP_KEYS},
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
    """freqs, an array; raises at the first file line whose frequency does
    not exceed the one before it."""
    bad = np.nonzero(np.diff(freqs) <= 0)[0]
    if bad.size:
        raise ValueError(
            f"{path}: line {linenos[int(bad[0]) + 1]}: frequency grid is not strictly increasing"
        )
    return freqs


def _read_text(path) -> str:
    """A CSV file's text; a ValueError naming the file unless it is UTF-8."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _read_rows(path, header):
    """Data rows of a CSV whose line 1 is `header`, as (file line numbers,
    one float64 array per column).  Blank lines are skipped; every other
    line must hold one finite number per header column."""
    text = _read_text(path)
    lines = text.splitlines()
    if not lines or lines[0].strip() != header:
        raise ValueError(f"{path}: expected header '{header}'")
    ncols, body = header.count(",") + 1, lines[1:]
    # One C parse.  It rounds as `float` does; blank lines, '_' and non-ASCII digits
    # fail it or the shape check, but it strips \x1f, which `float` refuses.
    if body and body[-1] and "\x1f" not in text:
        with contextlib.suppress(ValueError):
            table = np.loadtxt(body, delimiter=",", comments=None, ndmin=2)
            if table.shape == (len(body), ncols) and np.isfinite(table).all():
                return range(2, len(lines) + 1), table.T.copy()
    # Any other file: parse line by line, naming the first bad line by its
    # field count, then its numbers, then their finiteness.
    linenos, rows = [], []
    for lineno, raw in enumerate(body, start=2):
        if not raw.strip():
            continue
        cells = raw.split(",")
        if len(cells) != ncols:
            raise ValueError(f"{path}: line {lineno}: expected {ncols} fields, got {len(cells)}")
        try:
            rows.append([float(c) for c in cells])
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: non-numeric value in {raw!r}") from None
        if not all(map(math.isfinite, rows[-1])):
            raise ValueError(f"{path}: line {lineno}: non-finite value")
        linenos.append(lineno)
    return linenos, np.array(rows, dtype=float).reshape(-1, ncols).T.copy()


def _cells(column) -> list:
    """A column's values as a list, NumPy scalars as Python numbers."""
    return column.tolist() if isinstance(column, np.ndarray) else list(column)


def _write_csv(path, columns, block, formats=None) -> None:
    """One `write_text` of the header `columns` and the rows of `block`, one
    sequence per column, cut to the shortest.  Cells are at 9 significant
    digits unless `formats` maps the column name to another format.  One
    `%` call formats the file; the header is escaped for it."""
    specs = ",".join((formats or {}).get(name, "%.9g") for name in columns) + "\n"
    rows = list(zip(*map(_cells, block)))
    template = ",".join(columns).replace("%", "%%") + "\n" + specs * len(rows)
    write_text(path, template % tuple(itertools.chain.from_iterable(rows)))


def ingest_csv(path) -> SpectrumTrace:
    """Spectrum CSV with header 'freq_mhz,intensity', at least 3 rows,
    strictly increasing finite frequencies.  meta holds the path as
    'source' and the file name's stem as 'emitter_id'."""
    path = os.fspath(path)
    linenos, (freqs, signal) = _read_rows(path, "freq_mhz,intensity")
    if len(freqs) < 3:
        raise ValueError(f"{path}: need at least 3 data rows, got {len(freqs)}")
    stem = os.path.splitext(os.path.basename(path))[0]
    return SpectrumTrace(freq_mhz=_increasing_grid(path, freqs, linenos), signal=signal,
                         meta={"source": path, "emitter_id": stem})


def write_spectrum_csv(path, trace) -> None:
    _write_csv(path, ("freq_mhz", "intensity"), (trace.freq_mhz, trace.signal))


def write_map_csv(path, traces) -> None:
    """Field map rows in field-outer order: b_tesla,freq_mhz,intensity.

    Each trace's rows are cut to the shorter of its grid and signal.  One
    `%` call formats the file: a trace's field and grid are template text,
    its intensities the arguments.  A grid is formatted once for a run of
    traces that share its array, as the rows of a sweep do."""
    template, args, grid, cells = ["b_tesla,freq_mhz,intensity\n"], [], None, []
    for t in traces:
        if t.freq_mhz is not grid:
            grid, cells = t.freq_mhz, ["%.9g" % f for f in _cells(t.freq_mhz)]
        signal = _cells(t.signal)[:len(cells)]
        head = "%.9g," % t.meta.get("b_mag_tesla", 0.0)
        if signal:
            template.append(head + (",%.9g\n" + head).join(cells[:len(signal)]) + ",%.9g\n")
        args += signal
    write_text(path, "".join(template) % tuple(args))


def read_map_csv(path) -> list:
    """Inverse of write_map_csv: a list of SpectrumTrace, one per field
    value, each with the path as meta 'source' and its field as
    'b_mag_tesla'.

    Each field value must form one contiguous block of at least 3 rows
    whose frequencies strictly increase (the spectrum rules of ingest_csv).
    """
    path = os.fspath(path)
    linenos, (fields, freqs, signal) = _read_rows(path, "b_tesla,freq_mhz,intensity")
    if not fields.size:
        raise ValueError(f"{path}: no data rows")
    traces = []
    block_end = {}  # field value -> last line of its block
    j = 0
    for b, block in itertools.groupby(fields.tolist()):
        k, j = j, j + len(list(block))
        if b in block_end:
            raise ValueError(
                f"{path}: line {linenos[k]}: field {fmt(b)} T already has a block ending at "
                f"line {block_end[b]}; each field's rows must be contiguous"
            )
        block_end[b] = linenos[j - 1]
        if j - k < 3:
            raise ValueError(
                f"{path}: line {linenos[k]}: field {fmt(b)} T has {j - k} data row(s), "
                "need at least 3"
            )
        traces.append(SpectrumTrace(freq_mhz=_increasing_grid(path, freqs[k:j], linenos[k:j]),
                                    signal=np.array(signal[k:j]),
                                    meta={"source": path, "b_mag_tesla": b}))
    return traces


def write_levels_csv(path, sweep) -> None:
    """Strain sweep rows: alpha_ghz,level_index,energy_mhz,jsq."""
    n_points, n_levels = sweep.levels.shape
    _write_csv(path, ("alpha_ghz", "level_index", "energy_mhz", "jsq"),
               (np.repeat(sweep.axis, n_levels), np.tile(np.arange(n_levels), n_points),
                sweep.levels.ravel(), sweep.jsq.ravel()),
               {"level_index": "%d"})


def write_values_csv(path, values, column: str = "value") -> None:
    _write_csv(path, (column,), (values,))


def read_values_csv(path, column: str | None = None) -> np.ndarray:
    """Single column of finite numbers from a CSV under a header line of
    column names, refused if it holds only numbers; picks `column` by header
    name when given, else the only column.  Blank lines are skipped."""
    path = os.fspath(path)
    lines = _read_text(path).splitlines()
    lines = [(n, ln) for n, ln in enumerate(lines, start=1) if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty file")
    lineno, raw = lines[0]
    header = raw.split(",")
    try:
        list(map(float, header))
    except ValueError:
        pass
    else:
        raise ValueError(f"{path}: line {lineno}: expected a header line of column names, "
                         f"got {raw!r}")
    if column is None and len(header) != 1:
        raise ValueError(f"{path}: multiple columns, pass a column name")
    if column is not None and column not in header:
        raise ValueError(f"{path}: no column {column!r} in header {header}")
    col = 0 if column is None else header.index(column)
    out = []
    for lineno, raw in lines[1:]:
        cells = raw.split(",")
        if len(cells) != len(header):
            raise ValueError(f"{path}: line {lineno}: expected {len(header)} fields, "
                             f"got {len(cells)}")
        try:
            value = float(cells[col])
        except ValueError:
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
    for name, value in (("noise_sigma", noise_sigma), ("jitter_aple_mhz", jitter_aple_mhz),
                        ("jitter_alpha_ghz", jitter_alpha_ghz),
                        ("jitter_offset_mhz", jitter_offset_mhz)):
        if not 0 <= value < math.inf:
            raise ValueError(f"{name} must be >= 0 and finite, got {value}")
    if type(n_emitters) is bool or not isinstance(n_emitters, numbers.Integral) or n_emitters < 1:
        raise ValueError(f"n_emitters must be an integer >= 1, got {n_emitters!r}")
    if type(seed) is bool or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
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
        # Made at the first write, so input refused by the synthesis leaves no directory.
        os.makedirs(out_dir, exist_ok=True)
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
