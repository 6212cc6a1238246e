"""The file formats, pinned byte for byte: every CSV writer against a
per-row reference built with `fmt`, the exact reader messages on a corpus
of bad files, write-then-read round trips, and the emitter key map."""
import dataclasses
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from g4vspec import analysis, dataio
from g4vspec.analysis import FitResult
from g4vspec.cli import run_cli
from g4vspec.hamiltonian import registry_labels, registry_lookup
from g4vspec.spectrum import SpectrumTrace

fmt = dataio.fmt

ODD = [-0.0, 5e-324, 1e300, 123456789.123, 1.0 / 3.0, -2.5e-7, 7.0]
# An integer-dtype grid: fmt prints 1e9 as '1e+09', a '%d' chosen by dtype would not.
INT_FREQS = np.array([1, 2, 10**9, 4, 5, 6, 7], dtype=np.int64)


def reference_csv(header, rows):
    return "".join(line + "\n" for line in [header] + [",".join(r) for r in rows])


# --- writer bytes ---

def test_spectrum_writer_bytes(tmp_path):
    path = tmp_path / "s.csv"
    for freqs in (np.array(ODD), INT_FREQS):
        dataio.write_spectrum_csv(path, SpectrumTrace(freqs, np.array(ODD[::-1]), {}))
        want = reference_csv("freq_mhz,intensity",
                             [(fmt(f), fmt(s)) for f, s in zip(freqs, ODD[::-1])])
        assert path.read_text() == want
    assert "1e+09" in path.read_text()


def test_map_writer_bytes(tmp_path):
    traces = [
        SpectrumTrace(np.array(ODD), np.array(ODD[::-1]), {"b_mag_tesla": -0.0}),
        SpectrumTrace(INT_FREQS, np.array(ODD), {}),
        SpectrumTrace(np.arange(3.0), np.arange(3), {"b_mag_tesla": 1e300}),
    ]
    path = tmp_path / "m.csv"
    dataio.write_map_csv(path, traces)
    rows = [(fmt(t.meta.get("b_mag_tesla", 0.0)), fmt(f), fmt(s))
            for t in traces for f, s in zip(t.freq_mhz, t.signal)]
    assert path.read_text() == reference_csv("b_tesla,freq_mhz,intensity", rows)


def test_map_writer_bytes_with_shared_grids(tmp_path):
    """Rows that share one grid array (formatted once per run of traces
    sharing it), rows whose equal grids are distinct arrays, a grid that
    differs from the shared one only by the sign of a zero, the shared grid
    again after them, a signal shorter than its grid (its rows cut to the
    signal) and an empty trace between two full ones."""
    grid = np.array(ODD)
    unsigned = np.where(grid == 0.0, 0.0, grid)
    grids = [grid, grid, grid.copy(), unsigned, grid, INT_FREQS, INT_FREQS, grid, grid, grid]
    signals = [np.array(ODD) * (k - 2) for k in range(len(grids))]
    signals[7], signals[8] = np.array(ODD[:3]), np.array([])
    traces = [SpectrumTrace(g, y, {"b_mag_tesla": 0.005 * k})
              for k, (g, y) in enumerate(zip(grids, signals))]
    path = tmp_path / "m.csv"
    dataio.write_map_csv(path, traces)
    rows = [(fmt(t.meta["b_mag_tesla"]), fmt(f), fmt(s))
            for t in traces for f, s in zip(t.freq_mhz, t.signal)]
    assert path.read_text() == reference_csv("b_tesla,freq_mhz,intensity", rows)
    assert "\n0.005,-0,0\n" in path.read_text() and "\n0.015,0,-0\n" in path.read_text()
    fields = [line.split(",")[0] for line in path.read_text().splitlines()[1:]]
    assert [fields.count(b) for b in ("0.035", "0.04", "0.045")] == [3, 0, len(ODD)]


def test_levels_writer_bytes(tmp_path):
    class Sweep:
        axis = np.array(ODD)
        levels = np.outer(ODD, [1.0, -1.0, 0.5])
        jsq = np.full((len(ODD), 3), 1.0 / 3.0)

    path = tmp_path / "l.csv"
    dataio.write_levels_csv(path, Sweep)
    rows = [(fmt(a), str(i), fmt(Sweep.levels[k, i]), fmt(Sweep.jsq[k, i]))
            for k, a in enumerate(Sweep.axis) for i in range(3)]
    assert path.read_text() == reference_csv("alpha_ghz,level_index,energy_mhz,jsq", rows)


@pytest.mark.parametrize("values", [ODD, np.array(ODD), INT_FREQS, []])
def test_values_writer_bytes(tmp_path, values):
    path = tmp_path / "v.csv"
    dataio.write_values_csv(path, values, column="aple")
    assert path.read_text() == reference_csv("aple", [(fmt(v),) for v in values])


def test_kde_writer_bytes(tmp_path, monkeypatch):
    density = SpectrumTrace(INT_FREQS, np.array(ODD), {})
    monkeypatch.setattr(analysis, "kde", lambda values, bandwidth: density)
    values = tmp_path / "v.csv"
    dataio.write_values_csv(values, [1.0, 2.0])
    out = tmp_path / "kde.csv"
    assert run_cli(["fit-pl", "--values", str(values), "--bandwidth", "1",
                    "--kde-out", str(out)]) == 0
    want = reference_csv("value,density", [(fmt(v), fmt(d)) for v, d in zip(INT_FREQS, ODD)])
    assert out.read_text() == want


def test_batch_summary_writer_bytes(tmp_path, monkeypatch):
    odd = iter(ODD)

    def fake_fit(traces, model="single", init=None, seed=None):
        fits = []
        for _ in traces:
            params = {"f_ch1": 0.0, "a_ple": next(odd), "delta": next(odd), "fwhm": next(odd),
                      "amplitude": 1.0, "baseline": 0.0}
            if model == "single":
                params = {"f0": 0.0, "fwhm": params["fwhm"], "amplitude": 1.0, "baseline": 0.0}
            fits.append(FitResult(model=model, params=params, std_errs={k: 0.0 for k in params},
                                  residual_rms=1.0 / 3.0, converged=True, n_iterations=1,
                                  seed=seed))
        return fits

    monkeypatch.setattr(analysis, "fit_lorentzians", fake_fit)
    for name in ("a", "b"):
        dataio.write_spectrum_csv(tmp_path / f"{name}.csv",
                                  SpectrumTrace(np.arange(3.0), np.arange(3.0), {}))
    header = "label,model,a_ple_mhz,delta_mhz,fwhm_mhz,residual_rms"
    summary = tmp_path / "summary.csv"
    assert run_cli(["fit", "--batch", str(tmp_path / "?.csv"), "--model", "triplet",
                    "--summary-out", str(summary), "--out", str(tmp_path / "r.json")]) == 0
    assert summary.read_text() == reference_csv(header, [
        ("a", "triplet", fmt(abs(ODD[0])), fmt(ODD[1]), fmt(ODD[2]), fmt(1.0 / 3.0)),
        ("b", "triplet", fmt(abs(ODD[3])), fmt(ODD[4]), fmt(ODD[5]), fmt(1.0 / 3.0)),
    ])
    odd = iter(ODD)
    assert run_cli(["fit", "--batch", str(tmp_path / "a.csv"), "--model", "single",
                    "--summary-out", str(summary), "--out", str(tmp_path / "r.json")]) == 0
    assert summary.read_text() == reference_csv(
        header, [("a", "single", "nan", "nan", fmt(ODD[2]), fmt(1.0 / 3.0))])


# The per-row reference of each cell format `_write_csv` is given, and the
# values a column of that format holds.
CELL = {"%.9g": fmt, "%d": lambda v: str(int(v)), "%s": str}
INT64 = st.integers(-(2**63), 2**63 - 1)
VALUES = {"%.9g": st.floats() | INT64, "%d": INT64, "%s": st.text(alphabet="ab%sd.9", max_size=4)}


def _sequence(spec):
    """A column: a list, or a float or int array; str columns a tuple."""
    values = st.lists(VALUES[spec], max_size=6)
    return values.map(tuple) if spec == "%s" else values | values.map(np.array)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(specs=st.lists(st.sampled_from(sorted(CELL)), min_size=1, max_size=4), data=st.data())
def test_write_csv_bytes_equal_the_per_row_reference(tmp_path, specs, data):
    """One block of fresh float, int and str columns (lists, arrays and
    tuples), empty or of unequal lengths cut to the shortest, under column
    names and values holding '%': the one-template writer gives the bytes
    of formatting each row on its own."""
    names = data.draw(st.lists(st.text(alphabet="ab%s_", min_size=1, max_size=4),
                               min_size=len(specs), max_size=len(specs), unique=True))
    block = tuple(data.draw(_sequence(spec)) for spec in specs)
    path = tmp_path / "w.csv"
    dataio._write_csv(path, names, block, dict(zip(names, specs)))
    want = reference_csv(",".join(names),
                         [[CELL[s](v) for s, v in zip(specs, row)] for row in zip(*block)])
    assert path.read_bytes() == want.encode()


def test_batch_summary_labels_holding_a_percent_sign_come_out_verbatim(tmp_path):
    """File names are arguments of the summary's one `%` call, never part
    of its template."""
    grid = np.arange(-100.0, 100.5, 2.0)
    signal = 1.0 / (1.0 + (grid / 15.0) ** 2)
    for name in ("a%b", "c%s"):
        dataio.write_spectrum_csv(tmp_path / f"{name}.csv", SpectrumTrace(grid, signal, {}))
    summary = tmp_path / "summary.csv"
    assert run_cli(["fit", "--batch", str(tmp_path / "*.csv"), "--model", "single",
                    "--summary-out", str(summary), "--out", str(tmp_path / "r.json")]) == 0
    reports = json.loads((tmp_path / "r.json").read_text())
    assert summary.read_text() == reference_csv(
        "label,model,a_ple_mhz,delta_mhz,fwhm_mhz,residual_rms",
        [(r["label"], "single", "nan", "nan", fmt(r["report"]["params"]["fwhm"]),
          fmt(r["report"]["residual_rms"])) for r in reports])
    assert [r["label"] for r in reports] == ["a%b", "c%s"]


# --- reader messages ---

S = "freq_mhz,intensity\n"
M = "b_tesla,freq_mhz,intensity\n"
SPECTRUM_ERRORS = [
    ("", "expected header 'freq_mhz,intensity'"),
    ("f,i\n1,2\n", "expected header 'freq_mhz,intensity'"),
    (S, "need at least 3 data rows, got 0"),
    (S + "\n  \n\n", "need at least 3 data rows, got 0"),
    (S + "0,1\n1,2\n", "need at least 3 data rows, got 2"),
    (S + "0,1\n1,2,3\n2,3\n", "line 3: expected 2 fields, got 3"),
    (S + "0,1\n1\n2,3\n", "line 3: expected 2 fields, got 1"),
    (S + "0,1,\n1,1\n2,1\n", "line 2: expected 2 fields, got 3"),
    (S + "0,1\nabc,1\n2,3\n", "line 3: non-numeric value in 'abc,1'"),
    (S + "0,1\n1,\n2,3\n", "line 3: non-numeric value in '1,'"),
    (S + "\n\n\nq,1\n", "line 5: non-numeric value in 'q,1'"),
    (S + "0,1\n1,nan\n2,3\n", "line 3: non-finite value"),
    (S + "0,1\ninf,1\n2,3\n", "line 3: non-finite value"),
    (S + "0,1\n1,1e400\n2,3\n", "line 3: non-finite value"),
    # two errors in one file: the first bad line wins ...
    (S + "0,1\n1,2,3\nx,1\n", "line 3: expected 2 fields, got 3"),
    (S + "0,1\nx,1\n1,2,3\n", "line 3: non-numeric value in 'x,1'"),
    (S + "0,nan\n1,x\n", "line 2: non-finite value"),
    # ... and on one line the field count, then the numbers, then finiteness
    (S + "nan,1,x\n", "line 2: expected 2 fields, got 3"),
    (S + "nan,x\n", "line 2: non-numeric value in 'nan,x'"),
    (S + "0,1\n1,1\n1,1\n2,1\n", "line 4: frequency grid is not strictly increasing"),
    (S + "\n1,1\n2,1\n\n1.5,1\n", "line 6: frequency grid is not strictly increasing"),
]
MAP_ERRORS = [
    ("", "expected header 'b_tesla,freq_mhz,intensity'"),
    (S + "0,1\n", "expected header 'b_tesla,freq_mhz,intensity'"),
    (M, "no data rows"),
    (M + "\n \n", "no data rows"),
    (M + "0,1\n0,2,1\n", "line 2: expected 3 fields, got 2"),
    (M + "0,1,nan\n", "line 2: non-finite value"),
    (M + "0,1,1\n0,a,1\n", "line 3: non-numeric value in '0,a,1'"),
    (M + "0,1,1\n0,2,1,1\n0,x,1\n", "line 3: expected 3 fields, got 4"),
    (M + "0,inf,1\n0,2\n", "line 2: non-finite value"),
    (M + "0,1,1\n0,2,1\n0.1,1,1\n0.1,2,1\n0.1,3,1\n",
     "line 2: field 0 T has 2 data row(s), need at least 3"),
    (M + "0,1,1\n0,2,1\n0,3,1\n1,1,1\n1,2,1\n1,3,1\n0,4,1\n0,5,1\n0,6,1\n",
     "line 8: field 0 T already has a block ending at line 4; "
     "each field's rows must be contiguous"),
    (M + "0,1,1\n0,1,1\n0,2,1\n", "line 3: frequency grid is not strictly increasing"),
]


def _message(tmp_path, reader, text):
    path = tmp_path / "bad.csv"
    path.write_bytes(text.encode())
    with pytest.raises(ValueError) as info:
        reader(path)
    return str(info.value).removeprefix(f"{path}: ")


@pytest.mark.parametrize("text, message", SPECTRUM_ERRORS)
def test_spectrum_reader_messages(tmp_path, text, message):
    assert _message(tmp_path, dataio.ingest_csv, text) == message


@pytest.mark.parametrize("text, message", MAP_ERRORS)
def test_map_reader_messages(tmp_path, text, message):
    assert _message(tmp_path, dataio.read_map_csv, text) == message


def test_readers_accept_blank_lines_spaces_and_crlf(tmp_path):
    path = tmp_path / "s.csv"
    for text in (" freq_mhz,intensity \n\n0,1\n\n1, 2\n 2 ,3\n\n",
                 "freq_mhz,intensity\r\n0,1\r\n1,2\r\n2,3\r\n"):
        path.write_bytes(text.encode())
        trace = dataio.ingest_csv(path)
        assert trace.freq_mhz.tolist() == [0.0, 1.0, 2.0]
        assert trace.signal.tolist() == [1.0, 2.0, 3.0]
    path.write_text(M + "\n0,1,1\n\n-0,2,2\n0,3,3\n")
    (trace,) = dataio.read_map_csv(path)  # -0 and 0 are one field value
    assert trace.meta == {"source": str(path), "b_mag_tesla": 0.0}
    assert trace.signal.tolist() == [1.0, 2.0, 3.0]


# --- round trips ---

finite = st.floats(allow_nan=False, allow_infinity=False)
ROUND_TRIP = settings(max_examples=40, deadline=None,
                      suppress_health_check=[HealthCheck.function_scoped_fixture])


def _printed(values):
    return [float(fmt(v)) for v in values]


def _grid(values):
    """Strictly increasing after printing at 9 significant digits."""
    return sorted(set(_printed(values)))


@ROUND_TRIP
@given(freqs=st.lists(finite, min_size=3, max_size=30).map(_grid).filter(lambda g: len(g) >= 3),
       data=st.data())
def test_spectrum_round_trip(tmp_path, freqs, data):
    signal = data.draw(st.lists(finite, min_size=len(freqs), max_size=len(freqs)))
    path = tmp_path / "s.csv"
    dataio.write_spectrum_csv(path, SpectrumTrace(np.array(freqs), np.array(signal), {}))
    back = dataio.ingest_csv(path)
    assert back.freq_mhz.tolist() == freqs
    assert back.signal.tolist() == _printed(signal)


@ROUND_TRIP
@given(fields=st.lists(finite, min_size=1, max_size=4).map(lambda v: list(dict.fromkeys(
           _printed(v)))),
       data=st.data())
def test_map_round_trip(tmp_path, fields, data):
    traces = []
    for b in fields:
        freqs = data.draw(st.lists(finite, min_size=3, max_size=8).map(_grid)
                          .filter(lambda g: len(g) >= 3))
        signal = data.draw(st.lists(finite, min_size=len(freqs), max_size=len(freqs)))
        traces.append(SpectrumTrace(np.array(freqs), np.array(signal), {"b_mag_tesla": b}))
    path = tmp_path / "m.csv"
    dataio.write_map_csv(path, traces)
    back = dataio.read_map_csv(path)
    assert [t.meta["b_mag_tesla"] for t in back] == fields
    for got, sent in zip(back, traces):
        assert got.freq_mhz.tolist() == _printed(sent.freq_mhz)
        assert got.signal.tolist() == _printed(sent.signal)


@ROUND_TRIP
@given(values=st.lists(finite, max_size=30))
def test_values_round_trip(tmp_path, values):
    path = tmp_path / "v.csv"
    dataio.write_values_csv(path, values, column="x")
    assert dataio.read_values_csv(path, column="x").tolist() == _printed(values)


# --- the emitter key map ---

@pytest.mark.parametrize("label", sorted(registry_labels()))
def test_emitter_dict_round_trip_for_every_registry_isotope(label):
    emitter = registry_lookup(label)
    doc = dataio.emitter_to_dict(emitter)
    assert list(doc) == ["schema_version", "isotope", "nuclear_spin", "g_nuclear", "g_electron",
                         "strain_alpha_ghz", "strain_beta_ghz", "gnd", "exc"]
    assert list(doc["gnd"]) == ["lambda_ghz", "q", "a_fc_mhz", "a_dd_mhz", "quad_q_mhz",
                                "ioc_upsilon_mhz"]
    assert doc["gnd"]["lambda_ghz"] == emitter.gnd.lambda_soc_ghz
    assert doc["exc"]["q"] == emitter.exc.q_orb
    assert dataio.emitter_from_dict(json.loads(json.dumps(doc))) == emitter


@pytest.mark.parametrize("label", sorted(registry_labels()))
def test_emitter_partial_override_is_replace_of_the_registry_entry(label):
    base = registry_lookup(label)
    doc = {"isotope": label, "strain_alpha_ghz": 12.5, "g_electron": 2.1,
           "gnd": {"q": 0.2, "lambda_ghz": 800.0}, "exc": {"a_fc_mhz": 3.0}}
    want = dataclasses.replace(
        base, strain_alpha_ghz=12.5, g_electron=2.1,
        gnd=dataclasses.replace(base.gnd, q_orb=0.2, lambda_soc_ghz=800.0),
        exc=dataclasses.replace(base.exc, a_fc_mhz=3.0),
    )
    assert dataio.emitter_from_dict(doc) == want
