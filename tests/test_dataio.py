import json
import warnings
from importlib import resources

import jsonschema
import numpy as np
import pytest

from g4vspec import dataio
from g4vspec.hamiltonian import registry_lookup
from g4vspec.spectrum import synth_spectrum, transitions


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


def test_parse_field():
    assert dataio.parse_field("0.3") == (0.0, 0.0, 0.3)
    assert dataio.parse_field("0.1,0,0.2") == (0.1, 0.0, 0.2)
    with pytest.raises(ValueError):
        dataio.parse_field("1,2")
    with pytest.raises(ValueError):
        dataio.parse_field("x")


def test_parse_direction_returns_the_unit_vector():
    assert np.array_equal(dataio.parse_direction("0,0,2"), [0.0, 0.0, 1.0])
    d = dataio.parse_direction("1,-2,0.5")
    assert np.array_equal(d, np.asarray([1.0, -2.0, 0.5]) / np.linalg.norm([1.0, -2.0, 0.5]))


@pytest.mark.parametrize("spec, message", [
    ("0,0,0", "field direction must be 3 finite numbers, not all 0, got '0,0,0'"),
    ("1e300,1e300,0",
     "field direction must be 3 finite numbers, not all 0, got '1e300,1e300,0'"),
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


def test_importing_the_cli_does_not_import_jsonschema():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import g4vspec

    src = str(Path(g4vspec.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    code = "import sys, g4vspec, g4vspec.cli; print('jsonschema' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


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


def test_write_text_failure_leaves_no_temp_file(tmp_path):
    target = tmp_path / "out.txt"
    with pytest.raises(UnicodeEncodeError):
        dataio.write_text(target, "ok \ud800")
    assert not target.exists()
    assert list(tmp_path.glob("*.tmp.*")) == []
    dataio.write_text(target, "ok\n")
    assert target.read_text(encoding="utf-8") == "ok\n"
