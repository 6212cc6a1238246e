import json

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


def test_values_csv_round_trip(tmp_path):
    path = tmp_path / "v.csv"
    dataio.write_values_csv(path, [1.5, 2.5, -3.25], column="aple")
    vals = dataio.read_values_csv(path, column="aple")
    assert np.allclose(vals, [1.5, 2.5, -3.25])
    with pytest.raises(ValueError, match="no column"):
        dataio.read_values_csv(path, column="missing")


def test_fit_report_schema_validation():
    good = {
        "schema_version": "1",
        "model": "single",
        "params": {"f0": 1.0},
        "std_errs": {"f0": 0.1},
        "residual_rms": 0.01,
        "converged": True,
        "n_iterations": 7,
        "seed": 0,
    }
    dataio.validate_fit_report(good)
    bad = dict(good)
    bad["extra"] = 1
    with pytest.raises(ValueError, match="extra"):
        dataio.validate_fit_report(bad)


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
