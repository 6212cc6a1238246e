import contextlib
import dataclasses
import itertools
import json
import math
import re
import warnings
from importlib import resources

import jsonschema
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from g4vspec import dataio
from g4vspec.hamiltonian import registry_lookup
from g4vspec.spectrum import synth_spectrum, transitions

from conftest import _bits


# --- formatting and grids ---

def test_fmt_nine_significant_digits():
    assert dataio.fmt(345.0249999999) == "345.025"
    assert dataio.fmt(-2.0 / 3.0) == "-0.666666667"
    assert dataio.fmt(1e-12) == "1e-12"


def test_parse_grid_inclusive_endpoints():
    g = dataio.parse_grid("-200:200:0.5")
    assert g[0] == -200.0 and g[-1] == 200.0
    assert len(g) == 801
    # endpoint within step/2 tolerance is honored
    g = dataio.parse_grid("0:1:0.3")
    assert np.allclose(g, [0.0, 0.3, 0.6, 0.9])


def test_parse_grid_errors():
    for bad in ("1:2", "a:b:c", "0:10:0", "5:1:1"):
        with pytest.raises(ValueError):
            dataio.parse_grid(bad)
    for bad, message in (("0:inf:1", "grid max must be finite, got inf"),
                         ("nan:1:1", "grid min must be finite, got nan"),
                         ("-inf:0:1", "grid min must be finite, got -inf"),
                         ("0:1:nan", "grid step must be finite, got nan"),
                         ("0:1:inf", "grid step must be finite, got inf"),
                         ("-1e308:1e308:1", "grid spec '-1e308:1e308:1' spans too many steps")):
        with pytest.raises(ValueError) as info:
            dataio.parse_grid(bad)
        assert str(info.value) == message


def test_parse_grid_refuses_more_points_than_the_cap_before_allocating(monkeypatch):
    sizes = []
    # every grid comes from one np.arange; recording its size allocates nothing
    monkeypatch.setattr(np, "arange", lambda n: sizes.append(n) or np.zeros(1))
    cap = dataio.MAX_GRID_POINTS
    for spec, count in (("0:1e12:1", "1e+12"), (f"0:{cap}:1", str(cap + 1)),
                        ("-5e299:5e299:1", "1e+300")):
        with pytest.raises(ValueError) as info:
            dataio.parse_grid(spec)
        assert str(info.value) == (f"grid spec {spec!r} gives {count} points, more than the "
                                   f"{cap} allowed")
    assert sizes == []
    dataio.parse_grid(f"0:{cap - 1}:1")
    assert sizes == [cap]


@settings(max_examples=200, deadline=None)
@given(lo=st.floats(-1e4, 1e4), step=st.floats(1e-3, 1e3), steps=st.floats(0.0, 1e4))
def test_parse_grid_starts_at_min_spaces_by_step_and_ends_within_half_a_step(lo, step, steps):
    hi = lo + steps * step  # at most 1e4 steps, so no example allocates a huge grid
    grid = dataio.parse_grid(f"{lo!r}:{hi!r}:{step!r}")
    scale = max(abs(lo), abs(hi), 1.0)
    assert grid[0] == lo
    assert np.abs(np.diff(grid) - step).max(initial=0.0) <= 1e-12 * scale
    assert abs(grid[-1] - hi) <= 0.5 * step + 1e-12 * scale


def test_parse_field():
    assert dataio.parse_field("0.3") == (0.0, 0.0, 0.3)
    assert dataio.parse_field("0.1,0,0.2") == (0.1, 0.0, 0.2)
    with pytest.raises(ValueError):
        dataio.parse_field("1,2")
    with pytest.raises(ValueError):
        dataio.parse_field("x")


@pytest.mark.parametrize("spec", ["0.1,,0.2,0.3", ",0.1", "0.1,", "0.1,0, ", "", ",,"])
def test_parse_field_refuses_an_empty_component(spec):
    with pytest.raises(ValueError, match=re.escape(f"field spec {spec!r} has an empty component")):
        dataio.parse_field(spec)


def test_parse_direction_returns_the_unit_vector():
    assert np.array_equal(dataio.parse_direction("0,0,2"), [0.0, 0.0, 1.0])
    d = dataio.parse_direction("1,-2,0.5")
    assert np.array_equal(d, np.asarray([1.0, -2.0, 0.5]) / np.linalg.norm([1.0, -2.0, 0.5]))


@pytest.mark.parametrize("spec", ["0,0,1", "0.3,0.1,0.9", "1,-2,0.5", "-1e-150,0,2e-150"])
def test_parse_direction_of_an_ordinary_vector_is_its_plain_normalisation(spec):
    v = np.asarray([float(p) for p in spec.split(",")])
    assert dataio.parse_direction(spec).tobytes() == (v / np.linalg.norm(v)).tobytes()


@pytest.mark.parametrize("spec, unscaled", [
    pytest.param("1e-200,0,0", (1.0, 0.0, 0.0), id="1e-200,0,0"),
    pytest.param("0,-3e-300,4e-300", (0.0, -3.0, 4.0), id="0,-3e-300,4e-300"),
    pytest.param("1e200,1e200,0", (1.0, 1.0, 0.0), id="1e200,1e200,0"),
    pytest.param("1e300,1e300,0", (1.0, 1.0, 0.0), id="1e300,1e300,0"),
    pytest.param("-1.5e308,0,1.5e308", (-1.0, 0.0, 1.0), id="-1.5e308,0,1.5e308"),
])
def test_parse_direction_rescales_when_its_length_underflows_or_overflows(spec, unscaled):
    # the squared length leaves the float range, the direction does not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d = dataio.parse_direction(spec)
    v = np.asarray(unscaled)
    assert np.allclose(d, v / np.linalg.norm(v), rtol=1e-15, atol=0.0)
    assert abs(np.linalg.norm(d) - 1.0) <= 1e-15


@pytest.mark.parametrize("spec, message", [
    ("0,0,0", "field direction must be 3 finite numbers, not all 0, got '0,0,0'"),
    ("0,1", "field direction must be 3 finite numbers, not all 0, got '0,1'"),
    ("0,0,1,", "field direction '0,0,1,' has a non-numeric component"),
    ("a,b,c", "field direction 'a,b,c' has a non-numeric component"),
    ("1,nan,0", "field direction must be 3 finite numbers, not all 0, got '1,nan,0'"),
    ("inf,0,0", "field direction must be 3 finite numbers, not all 0, got 'inf,0,0'"),
])
def test_parse_direction_errors(spec, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as info:
            dataio.parse_direction(spec)
    assert str(info.value) == message


# --- emitter files ---

def test_load_emitter_registry_label():
    e = dataio.load_emitter("117Sn")
    assert e.gnd.a_fc_mhz == pytest.approx(1389.09)


def test_load_emitter_unknown_label():
    with pytest.raises(ValueError, match="registry label"):
        dataio.load_emitter("not-a-thing")


def test_emitter_file_overrides_strain(tmp_path):
    path = tmp_path / "e.json"
    path.write_text(json.dumps({"isotope": "117Sn", "strain_alpha_ghz": 55.0}))
    e = dataio.load_emitter(str(path))
    assert e.strain_alpha_ghz == 55.0
    assert e.gnd.a_fc_mhz == pytest.approx(1389.09)  # registry default kept


def test_emitter_file_partial_manifold_override(tmp_path):
    path = tmp_path / "e.json"
    path.write_text(json.dumps({"isotope": "73Ge", "gnd": {"quad_q_mhz": 4.3}}))
    e = dataio.load_emitter(str(path))
    assert e.gnd.quad_q_mhz == 4.3
    assert e.gnd.a_fc_mhz == pytest.approx(48.23)
    assert e.exc.quad_q_mhz == 0.0


def test_emitter_file_unknown_key_rejected(tmp_path):
    path = tmp_path / "e.json"
    path.write_text(json.dumps({"isotope": "117Sn", "foo": 1.0}))
    with pytest.raises(ValueError, match="foo"):
        dataio.load_emitter(str(path))


def test_emitter_file_unknown_manifold_key_rejected(tmp_path):
    path = tmp_path / "e.json"
    path.write_text(json.dumps({"isotope": "117Sn", "gnd": {"lambda_mhz": 1.0}}))
    with pytest.raises(ValueError, match="lambda_mhz"):
        dataio.load_emitter(str(path))


def test_emitter_file_custom_isotope_requires_full_definition(tmp_path):
    path = tmp_path / "e.json"
    path.write_text(json.dumps({"isotope": "13C-like"}))
    with pytest.raises(ValueError, match="nuclear_spin"):
        dataio.load_emitter(str(path))
    doc = {
        "isotope": "13C-like",
        "nuclear_spin": 0.5,
        "g_nuclear": 1.4,
        "gnd": {"lambda_ghz": 50.0, "a_fc_mhz": 100.0},
        "exc": {"lambda_ghz": 250.0, "a_fc_mhz": 30.0},
    }
    path.write_text(json.dumps(doc))
    e = dataio.load_emitter(str(path))
    assert e.nuclear_spin == 0.5
    assert e.gnd.lambda_soc_ghz == 50.0
    path.write_text(json.dumps({**doc, "gnd": {"a_fc_mhz": 100.0}}))
    with pytest.raises(ValueError) as info:
        dataio.load_emitter(str(path))
    assert str(info.value) == (f"emitter file {path}: gnd.lambda_ghz is required for "
                               f"'13C-like'")


def test_emitter_round_trip_through_dict():
    e = registry_lookup("73Ge", strain_alpha_ghz=12.0)
    doc = dataio.emitter_to_dict(e)
    again = dataio.emitter_from_dict(doc)
    assert again == e


def test_emitter_bad_schema_version(tmp_path):
    path = tmp_path / "e.json"
    path.write_text(json.dumps({"isotope": "117Sn", "schema_version": "2"}))
    with pytest.raises(ValueError, match="schema_version"):
        dataio.load_emitter(str(path))


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_emitter_file_non_finite_literal_rejected(tmp_path, literal):
    path = tmp_path / "e.json"
    path.write_text(f'{{"isotope": "117Sn", "gnd": {{"a_fc_mhz": {literal}}}}}')
    with pytest.raises(ValueError) as info:
        dataio.load_emitter(str(path))
    assert str(info.value) == (
        f"emitter file {path}: invalid JSON: non-finite literal {literal} is not allowed"
    )


def test_emitter_file_errors_name_the_file(tmp_path):
    path = tmp_path / "e.json"
    doc = {"isotope": "117Sn", "gnd": {"q": "big"}}
    path.write_text(json.dumps(doc))
    want = _reference_message(doc, "emitter.schema.json", "emitter file")
    with pytest.raises(ValueError) as info:
        dataio.load_emitter(str(path))
    assert str(info.value) == f"emitter file {path}: {want}"
    # 1e400 parses to inf, passes the schema and is stopped by EmitterModel.
    path.write_text('{"isotope": "117Sn", "strain_alpha_ghz": 1e400}')
    with pytest.raises(ValueError) as info:
        dataio.load_emitter(str(path))
    assert str(info.value) == f"emitter file {path}: strain_alpha_ghz must be finite, got inf"


@pytest.mark.parametrize("doc, field", [
    ({"strain_alpha_ghz": 10**400}, "strain_alpha_ghz"),
    ({"nuclear_spin": 10**400}, "nuclear_spin"),
    ({"g_nuclear": -10**400}, "g_nuclear"),
    ({"gnd": {"lambda_ghz": 10**400}}, "gnd.lambda_ghz"),
])
def test_emitter_file_integer_beyond_the_float_range_names_file_and_field(tmp_path, doc, field):
    """A 400-digit integer literal escaped as OverflowError."""
    path = tmp_path / "e.json"
    path.write_text(json.dumps({"isotope": "117Sn", **doc}))
    with pytest.raises(ValueError) as info:
        dataio.load_emitter(str(path))
    assert str(info.value) == f"emitter file {path}: {field} is an integer too large for a float"


# --- CSV ingestion ---

def write_csv(tmp_path, text, name="t.csv"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_ingest_minimal(tmp_path):
    p = write_csv(tmp_path, "freq_mhz,intensity\n0,1.0\n1,2.0\n2,1.5\n")
    t = dataio.ingest_csv(p)
    assert len(t.freq_mhz) == 3
    assert t.source == p


def test_ingest_bad_header(tmp_path):
    p = write_csv(tmp_path, "f,i\n0,1\n1,2\n2,3\n")
    with pytest.raises(ValueError, match="header"):
        dataio.ingest_csv(p)


def test_ingest_parse_error_reports_line(tmp_path):
    p = write_csv(tmp_path, "freq_mhz,intensity\n0,1.0\nabc,1.0\n2,1.5\n")
    with pytest.raises(ValueError, match="line 3"):
        dataio.ingest_csv(p)


def test_ingest_duplicate_frequency_rejected(tmp_path):
    p = write_csv(tmp_path, "freq_mhz,intensity\n0,1.0\n1,2.0\n1,1.5\n2,1.0\n")
    with pytest.raises(ValueError, match="increasing"):
        dataio.ingest_csv(p)


@pytest.mark.parametrize("text, line", [
    ("freq_mhz,intensity\n\n1,1\n2,1\n3,1\n3,1\n", 6),
    ("freq_mhz,intensity\n1,1\n\n\n2,1\n1.5,1\n", 6),
    ("freq_mhz,intensity\n1,1\n1,1\n\n2,1\n", 3),
])
def test_ingest_non_increasing_line_counts_blank_lines(tmp_path, text, line):
    p = write_csv(tmp_path, text)
    with pytest.raises(ValueError) as info:
        dataio.ingest_csv(p)
    assert str(info.value) == f"{p}: line {line}: frequency grid is not strictly increasing"


def test_ingest_too_short(tmp_path):
    p = write_csv(tmp_path, "freq_mhz,intensity\n0,1.0\n1,2.0\n")
    with pytest.raises(ValueError, match="3 data rows"):
        dataio.ingest_csv(p)


def test_ingest_non_finite_rejected(tmp_path):
    p = write_csv(tmp_path, "freq_mhz,intensity\n0,1.0\n1,nan\n2,1.0\n")
    with pytest.raises(ValueError, match="finite"):
        dataio.ingest_csv(p)


def test_spectrum_csv_round_trip(tmp_path):
    e = registry_lookup("117Sn")
    trace = synth_spectrum(transitions(e), 35.0, np.arange(-600.0, 600.0, 1.5))
    path = tmp_path / "spec.csv"
    dataio.write_spectrum_csv(path, trace)
    back = dataio.ingest_csv(path)
    # lossless within 9 printed significant digits
    assert np.allclose(back.freq_mhz, trace.freq_mhz, rtol=1e-8, atol=1e-12)
    assert np.allclose(back.signal, trace.signal, rtol=1e-8, atol=1e-12)
    text = path.read_text()
    assert "\r" not in text
    assert text.startswith("freq_mhz,intensity\n")


def test_map_csv_round_trip(tmp_path):
    from g4vspec.spectrum import sweep_field

    e = registry_lookup("117Sn", strain_alpha_ghz=55.0)
    traces = sweep_field(e, (0, 0, 1), [0.0, 0.01], 100.0, np.arange(-500.0, 500.0, 5.0))
    path = tmp_path / "map.csv"
    dataio.write_map_csv(path, traces)
    back = dataio.read_map_csv(path)
    assert len(back) == 2
    assert back[0].meta["b_mag_tesla"] == 0.0
    assert np.allclose(back[1].signal, traces[1].signal, rtol=1e-8)
    header = path.read_text().splitlines()[0]
    assert header == "b_tesla,freq_mhz,intensity"


@pytest.mark.parametrize("row", ["0.01,10,nan", "inf,10,1.0", "0.01,-inf,1.0"])
def test_map_csv_non_finite_rejected(tmp_path, row):
    p = write_csv(tmp_path, f"b_tesla,freq_mhz,intensity\n0.01,0,1.0\n{row}\n0.01,20,1.0\n",
                  name="map.csv")
    with pytest.raises(ValueError) as info:
        dataio.read_map_csv(p)
    assert str(info.value) == f"{p}: line 3: non-finite value"


def _joined_read_rows(path, header):
    """The spectrum and map row reader before the C parse, as an oracle: one
    join, split and map(float) over the body, and a per-line pass that names
    the first bad line."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0].strip() != header:
        raise ValueError(f"{path}: expected header '{header}'")
    ncols = header.count(",") + 1
    linenos, body = range(2, len(lines) + 1), lines[1:]
    if not all(map(str.strip, body)):
        kept = [(n, raw) for n, raw in zip(linenos, body) if raw.strip()]
        linenos, body = [n for n, _ in kept], [raw for _, raw in kept]
    if not body:
        return linenos, [[] for _ in range(ncols)]
    if set(map(str.count, body, itertools.repeat(","))) == {ncols - 1}:
        with contextlib.suppress(ValueError):
            values = list(map(float, ",".join(body).split(",")))
            if all(map(math.isfinite, values)):
                return linenos, [values[k::ncols] for k in range(ncols)]
    for lineno, raw in zip(linenos, body):
        cells = raw.split(",")
        if len(cells) != ncols:
            raise ValueError(f"{path}: line {lineno}: expected {ncols} fields, got {len(cells)}")
        try:
            row = [float(c) for c in cells]
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: non-numeric value in {raw!r}") from None
        if not all(map(math.isfinite, row)):
            raise ValueError(f"{path}: line {lineno}: non-finite value")


def _read_outcome(read, path, header):
    """(line numbers, (dtype, shape, bytes) of each column as float64), or
    the message of the ValueError raised."""
    try:
        linenos, columns = read(path, header)
    except ValueError as exc:
        return str(exc)
    return list(linenos), [_bits(np.asarray(c, dtype=np.float64)) for c in columns]


# Cells and lines that either reader may refuse, or that only `float` accepts.
_ODD_CELLS = st.sampled_from(["1_000", "\u0661\u0662", "nan", "-inf", "inf", "1e400", "", "abc",
                              "0x10", "+.5", "-0", "1e-400", "1d0", "1,5"])
_PADS = st.sampled_from(["", "", " ", "\t", "  ", "\x1f", "\xa0", "\u3000"])
_ODD_LINES = st.sampled_from(["", " ", "\t", "\x1f", "\xa0 ", ","])
_BREAKS = st.sampled_from(["\n", "\r\n", "\r", "\x0c"])


@st.composite
def _csv_files(draw):
    """(header, text) of a spectrum or map CSV.  Half the files are plain:
    finite numbers written by repr, %.9g or %.17e, LF line breaks.  The
    others mix in padded or odd cells, blank and whitespace-only lines,
    wrong field counts, trailing commas, and CRLF, CR and \\x0c breaks."""
    header = draw(st.sampled_from(["freq_mhz,intensity", "b_tesla,freq_mhz,intensity"]))
    ncols = header.count(",") + 1
    odd = draw(st.booleans())

    def cell():
        if odd and draw(st.integers(0, 3)) == 0:
            text = draw(_ODD_CELLS)
        else:
            x = draw(st.floats(allow_nan=False, allow_infinity=False))
            text = draw(st.sampled_from([repr, "%.9g".__mod__, "%.17e".__mod__]))(x)
        return draw(_PADS) + text + draw(_PADS) if odd else text

    lines = [header]
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.integers(0, 12)) if odd else 12
        if kind == 0:
            lines.append(draw(_ODD_LINES))
        else:
            n = ncols + (draw(st.sampled_from([-1, 1])) if kind == 1 else 0)
            lines.append(",".join(cell() for _ in range(n)) + ("," if kind == 2 else ""))
    breaks = [draw(_BREAKS) if odd else "\n" for _ in lines]
    if odd and draw(st.booleans()):
        breaks[-1] = ""
    return header, "".join(map(str.__add__, lines, breaks))


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(csv=_csv_files())
def test_read_rows_gives_the_joined_parse_bit_for_bit(tmp_path, csv):
    header, text = csv
    path = tmp_path / "t.csv"
    path.write_bytes(text.encode("utf-8"))
    want = _read_outcome(_joined_read_rows, str(path), header)
    got = _read_outcome(dataio._read_rows, str(path), header)
    assert got == want
    if not isinstance(got, str):
        assert len(got[1]) == header.count(",") + 1


def test_a_plain_spectrum_or_map_file_is_parsed_without_the_per_line_loop(tmp_path,
                                                                           monkeypatch):
    """A workload's spectrum file and a written map file take the C parse
    alone.  Only the per-line loop calls `float`, which is shadowed here to
    fail, so a C parse that always fell back would fail this test even
    though it passes the oracle test above."""
    emitter = dataclasses.replace(registry_lookup("119Sn"), strain_alpha_ghz=55.0)
    grid = dataio.parse_grid("-500:1100:4")
    dataio.synth_dataset(emitter, tmp_path / "d", n_emitters=1, seed=1, noise_sigma=0.05,
                         fwhm_mhz=35.0, grid=grid, truth_path=tmp_path / "truth.json",
                         a_ple_scale=1.3409, jitter_aple_mhz=40.0)
    spectrum = tmp_path / "d" / "emitter_0000.csv"
    map_path = tmp_path / "map.csv"
    dataio.write_map_csv(map_path, [
        dataio.MeasuredTrace(grid, synth_spectrum(transitions(emitter, (0.0, 0.0, b)), 35.0,
                                                  grid).signal, "", meta={"b_mag_tesla": b})
        for b in (0.0, 0.05, 0.1)])
    files = [(str(spectrum), "freq_mhz,intensity"), (str(map_path), "b_tesla,freq_mhz,intensity")]
    want = [_read_outcome(_joined_read_rows, path, header) for path, header in files]

    def no_loop(cell):
        raise AssertionError(f"the per-line loop parsed {cell!r}")

    monkeypatch.setattr(dataio, "float", no_loop, raising=False)
    assert [_read_outcome(dataio._read_rows, path, header) for path, header in files] == want
    trace = dataio.ingest_csv(spectrum)
    assert _bits(trace.signal) == want[0][1][1]
    fields = [t.meta["b_mag_tesla"] for t in dataio.read_map_csv(map_path)]
    assert fields == [0.0, 0.05, 0.1] and {type(b) for b in fields} == {float}
    with spectrum.open("a") as fh:  # a trailing blank line sends the file to the loop
        fh.write("\n")
    with pytest.raises(AssertionError, match="^the per-line loop parsed"):
        dataio.ingest_csv(spectrum)


def test_values_csv_round_trip(tmp_path):
    path = tmp_path / "v.csv"
    dataio.write_values_csv(path, [1.5, 2.5, -3.25], column="aple")
    vals = dataio.read_values_csv(path, column="aple")
    assert np.allclose(vals, [1.5, 2.5, -3.25])
    with pytest.raises(ValueError, match="no column"):
        dataio.read_values_csv(path, column="missing")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN"])
def test_values_csv_non_finite_rejected(tmp_path, value):
    p = write_csv(tmp_path, f"a,b\n1,2\n\n3,{value}\n5,6\n", name="v.csv")
    with pytest.raises(ValueError) as info:
        dataio.read_values_csv(p, column="b")
    assert str(info.value) == f"{p}: line 4: non-finite value"
    assert np.array_equal(dataio.read_values_csv(p, column="a"), [1.0, 3.0, 5.0])


@pytest.mark.parametrize("text, column, message", [
    ("", None, "empty file"),
    ("\n \n", None, "empty file"),
    ("a,b\n1,2\n", None, "multiple columns, pass a column name"),
    ("a\n1\nx\n", None, "line 3: bad value in 'x'"),
    ("a,b\n1,2\n3\n", "b", "line 3: expected 2 fields, got 1"),
    ("a,b\n1,2,3\n", "b", "line 2: expected 2 fields, got 3"),
    ("a\n1,2\n", None, "line 2: expected 1 fields, got 2"),
    ("1.5\n2.5\n3.5\n", None, "line 1: expected a header line of column names, got '1.5'"),
])
def test_values_csv_refusals_name_the_file(tmp_path, text, column, message):
    p = write_csv(tmp_path, text, name="v.csv")
    with pytest.raises(ValueError) as info:
        dataio.read_values_csv(p, column=column)
    assert str(info.value) == f"{p}: {message}"


_GOOD_REPORT = {
    "schema_version": "1",
    "model": "single",
    "params": {"f0": 1.0},
    "std_errs": {"f0": 0.1},
    "residual_rms": 0.01,
    "converged": True,
    "n_iterations": 7,
    "seed": 0,
}


def test_fit_report_schema_validation():
    assert dataio.validate_fit_report(_GOOD_REPORT) is _GOOD_REPORT
    with pytest.raises(ValueError, match="extra"):
        dataio.validate_fit_report({**_GOOD_REPORT, "extra": 1})


_BAD_REPORTS = [
    {**_GOOD_REPORT, "extra": 1},
    {k: v for k, v in _GOOD_REPORT.items() if k != "model"},
    {**_GOOD_REPORT, "schema_version": "2"},
    {**_GOOD_REPORT, "residual_rms": -0.5},
    {**_GOOD_REPORT, "converged": "yes"},
    {**_GOOD_REPORT, "n_iterations": 1.5},
    {**_GOOD_REPORT, "n_iterations": -1},
    {**_GOOD_REPORT, "seed": "0"},
    {**_GOOD_REPORT, "params": {"f0": "x"}},
    {**_GOOD_REPORT, "std_errs": [0.1]},
    {**_GOOD_REPORT, "extra": 1, "residual_rms": -0.5, "params": {"f0": None}},
    # the first error found is nested, the one reported is at top level
    {k: v for k, v in _GOOD_REPORT.items() if k != "model"} | {"params": {"f0": "x"}},
    {},
    [],
]

_BAD_EMITTERS = [
    {},
    {"isotope": ""},
    {"isotope": 117},
    {"isotope": "117Sn", "foo": 1.0},
    {"isotope": "117Sn", "gnd": {"lambda_mhz": 1.0}},
    {"isotope": "117Sn", "gnd": {"lambda_ghz": 0.0}},
    {"isotope": "117Sn", "nuclear_spin": -0.5},
    {"isotope": "117Sn", "schema_version": "2"},
    {"isotope": "117Sn", "exc": 3},
    {"isotope": "117Sn", "strain_alpha_ghz": "55", "exc": {"q": "x"}},
    {"gnd": {"lambda_ghz": -1.0}},
]


def _packaged_schema(name):
    return json.loads(resources.files("g4vspec.schemas").joinpath(name)
                      .read_text(encoding="utf-8"))


def _reference_message(doc, schema_name, what):
    """The message of the original code path: jsonschema.validate against
    the packaged schema, formatted as 'invalid <what>: at <path>: <msg>'."""
    with pytest.raises(jsonschema.ValidationError) as info:
        jsonschema.validate(doc, _packaged_schema(schema_name))
    exc = info.value
    where = "/".join(str(p) for p in exc.absolute_path) or "(top level)"
    return f"invalid {what}: at {where}: {exc.message}"


@pytest.mark.parametrize("doc", _BAD_REPORTS)
def test_fit_report_error_matches_jsonschema_validate(doc):
    want = _reference_message(doc, "fit_report.schema.json", "fit report")
    with pytest.raises(ValueError) as info:
        dataio.validate_fit_report(doc)
    assert str(info.value) == want


@pytest.mark.parametrize("doc", _BAD_EMITTERS)
def test_emitter_error_matches_jsonschema_validate(doc):
    want = _reference_message(doc, "emitter.schema.json", "emitter file")
    with pytest.raises(ValueError) as info:
        dataio.emitter_from_dict(doc)
    assert str(info.value) == want


def test_packaged_schemas_pass_their_metaschema():
    names = sorted(f.name for f in resources.files("g4vspec.schemas").iterdir()
                   if f.name.endswith(".schema.json"))
    assert names == ["emitter.schema.json", "fit_report.schema.json"]
    for name in names:
        schema = _packaged_schema(name)
        jsonschema.validators.validator_for(schema).check_schema(schema)


def test_metaschema_checked_once_for_many_reports(monkeypatch):
    cls = jsonschema.validators.validator_for(
        {"$schema": "https://json-schema.org/draft/2020-12/schema"})
    original = cls.check_schema
    calls = []

    def counting(schema, *args, **kwargs):
        calls.append(schema.get("title"))
        return original(schema, *args, **kwargs)

    monkeypatch.setattr(cls, "check_schema", staticmethod(counting))
    dataio._validator.cache_clear()
    try:
        for k in range(50):
            dataio.validate_fit_report({**_GOOD_REPORT, "n_iterations": k})
        with pytest.raises(ValueError):
            dataio.validate_fit_report({**_GOOD_REPORT, "extra": 1})
    finally:
        dataio._validator.cache_clear()
    assert calls == ["Fit report"]


def _run_fresh_python(code):
    """stdout of code run in a fresh interpreter that imports this g4vspec."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import g4vspec

    src = str(Path(g4vspec.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_importing_the_cli_does_not_import_jsonschema():
    code = "import sys, g4vspec, g4vspec.cli; print('jsonschema' in sys.modules)"
    assert _run_fresh_python(code).strip() == "False"


def test_fits_do_not_import_jsonschema_but_an_emitter_file_does(tmp_path):
    """Fit reports are written as built; only input (emitter files) is validated."""
    grid = np.arange(-400.0, 900.0, 4.0)
    for k in range(2):
        sig = 0.05 + sum(w / (1.0 + ((grid - c) / 17.5) ** 2)
                         for w, c in ((1.0, 10.0 * k), (0.5, 420.0), (0.5, 500.0)))
        dataio.write_spectrum_csv(tmp_path / f"t{k}.csv", dataio.MeasuredTrace(grid, sig, ""))
    emitter = tmp_path / "e.json"
    emitter.write_text('{"isotope": "117Sn", "strain_alpha_ghz": 55.0}')
    runs = [
        ["fit", "--trace", str(tmp_path / "t0.csv"), "--model", "triplet",
         "--out", str(tmp_path / "fit.json")],
        ["fit", "--batch", str(tmp_path / "t*.csv"), "--model", "triplet",
         "--out", str(tmp_path / "batch.json")],
        ["simulate", str(emitter), "--fwhm", "30", "--grid", "-100:100:1",
         "--out", str(tmp_path / "sim.csv")],
    ]
    code = (
        "import sys\n"
        "from g4vspec.cli import run_cli\n"
        "seen = []\n"
        f"for argv in {runs!r}:\n"
        "    assert run_cli(argv) == 0, argv\n"
        "    seen.append('jsonschema' in sys.modules)\n"
        "print(*seen)\n"
    )
    assert _run_fresh_python(code).splitlines()[-1] == "False False True"


# --- synthetic datasets ---

def test_synth_dataset_noiseless_single_matches_model(tmp_path):
    e = registry_lookup("117Sn", strain_alpha_ghz=55.0)
    grid = np.arange(-700.0, 700.0, 2.0)
    truth = dataio.synth_dataset(
        e, tmp_path / "d", n_emitters=1, seed=0, noise_sigma=0.0,
        fwhm_mhz=35.0, grid=grid, truth_path=tmp_path / "truth.json",
    )
    assert len(truth["entries"]) == 1
    trace = dataio.ingest_csv(tmp_path / "d" / "emitter_0000.csv")
    direct = synth_spectrum(transitions(e), 35.0, grid)
    assert np.allclose(trace.signal, direct.signal, rtol=1e-8)


def test_synth_dataset_deterministic(tmp_path):
    e = registry_lookup("119Sn", strain_alpha_ghz=55.0)
    grid = np.arange(-800.0, 800.0, 4.0)
    kw = dict(n_emitters=3, seed=99, noise_sigma=0.05, fwhm_mhz=35.0, grid=grid,
              jitter_aple_mhz=40.0)
    dataio.synth_dataset(e, tmp_path / "a", truth_path=tmp_path / "ta.json", **kw)
    dataio.synth_dataset(e, tmp_path / "b", truth_path=tmp_path / "tb.json", **kw)
    for k in range(3):
        fa = (tmp_path / "a" / f"emitter_{k:04d}.csv").read_bytes()
        fb = (tmp_path / "b" / f"emitter_{k:04d}.csv").read_bytes()
        assert fa == fb
    ta = json.loads((tmp_path / "ta.json").read_text())
    tb = json.loads((tmp_path / "tb.json").read_text())
    assert ta == tb
    assert ta["seed"] == 99


def test_synth_dataset_jitter_spread(tmp_path):
    e = registry_lookup("119Sn", strain_alpha_ghz=55.0)
    grid = np.arange(-800.0, 800.0, 8.0)
    truth = dataio.synth_dataset(
        e, tmp_path / "d", n_emitters=25, seed=1, noise_sigma=0.0, fwhm_mhz=35.0,
        grid=grid, truth_path=tmp_path / "t.json", jitter_aple_mhz=40.0,
    )
    aples = np.array([entry["a_ple_mhz"] for entry in truth["entries"]])
    assert np.std(aples) > 10.0
    assert np.all(aples < 0.0)


@pytest.mark.parametrize("value", [float("nan"), -5.0, float("inf")])
@pytest.mark.parametrize("name", ["jitter_aple_mhz", "jitter_alpha_ghz", "jitter_offset_mhz"])
def test_synth_dataset_refuses_a_bad_jitter_before_writing(tmp_path, name, value):
    with pytest.raises(ValueError) as info:
        dataio.synth_dataset(
            registry_lookup("117Sn"), tmp_path / "d", n_emitters=2, seed=0, noise_sigma=0.0,
            fwhm_mhz=30.0, grid=np.arange(-600.0, 600.0, 2.0), truth_path=tmp_path / "t.json",
            **{name: value},
        )
    assert str(info.value) == f"{name} must be >= 0 and finite, got {value}"
    assert not (tmp_path / "d").exists() and not (tmp_path / "t.json").exists()


@pytest.mark.parametrize("n", [0, -3, True, 2.0, "2"])
def test_synth_dataset_refuses_a_count_below_one_before_writing(tmp_path, n):
    with pytest.raises(ValueError) as info:
        dataio.synth_dataset(
            registry_lookup("117Sn"), tmp_path / "d", n_emitters=n, seed=0, noise_sigma=0.0,
            fwhm_mhz=30.0, grid=np.arange(-600.0, 600.0, 2.0), truth_path=tmp_path / "t.json",
        )
    assert str(info.value) == f"n_emitters must be an integer >= 1, got {n!r}"
    assert not (tmp_path / "d").exists() and not (tmp_path / "t.json").exists()


def test_write_text_failure_leaves_no_temp_file(tmp_path):
    target = tmp_path / "out.txt"
    with pytest.raises(UnicodeEncodeError):
        dataio.write_text(target, "ok \ud800")
    assert not target.exists()
    assert list(tmp_path.glob("*.tmp.*")) == []
    dataio.write_text(target, "ok\n")
    assert target.read_text(encoding="utf-8") == "ok\n"
