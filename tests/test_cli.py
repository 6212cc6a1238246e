import json

import numpy as np
import pytest

from g4vspec import dataio
from g4vspec.cli import run_cli


def test_aple_prints_value_and_manifold_scalars(capsys):
    assert run_cli(["aple", "117Sn"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert float(out[0]) == pytest.approx(-345.02, abs=0.02)
    assert out[1].startswith("gnd:") and out[2].startswith("exc:")
    assert "1362.44" in out[1]


def test_aple_spinless_prints_zero(capsys):
    assert run_cli(["aple", "118Sn"]) == 0
    assert float(capsys.readouterr().out.splitlines()[0]) == 0.0


def test_unknown_flag_prints_usage_exit_1(capsys):
    assert run_cli(["aple", "117Sn", "--frobnicate"]) == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_emitter_exit_1(capsys):
    assert run_cli(["aple", "999Xx"]) == 1
    assert "error:" in capsys.readouterr().err


def test_simulate_ge_flat_top(tmp_path, capsys):
    out = tmp_path / "ge.csv"
    code = run_cli([
        "simulate", "73Ge", "--b", "0", "--fwhm", "26",
        "--grid", "-200:200:0.5", "--out", str(out),
    ])
    assert code == 0
    trace = dataio.ingest_csv(out)
    top = trace.signal.max()
    above = trace.freq_mhz[trace.signal >= 0.5 * top]
    width = above.max() - above.min()
    # profile FWHM minus the line FWHM recovers the comb span ~124 MHz
    assert width - 26.0 == pytest.approx(124.0, rel=0.15)


def test_simulate_with_diagram(tmp_path):
    out = tmp_path / "sn.csv"
    diagram = tmp_path / "sn.json"
    code = run_cli([
        "simulate", "117Sn", "--b", "0", "--fwhm", "35",
        "--grid", "-600:600:2", "--out", str(out), "--diagram-out", str(diagram),
    ])
    assert code == 0
    d = json.loads(diagram.read_text())
    assert len(d["lines"]) == 4
    assert len(d["gnd_levels_mhz"]) == 4


def test_simulate_with_diagram_solves_each_manifold_once(tmp_path, monkeypatch):
    from g4vspec import spectrum

    solved = []
    original = spectrum.solve_manifold

    def counting(emitter, manifold, *args, **kwargs):
        solved.append(manifold)
        return original(emitter, manifold, *args, **kwargs)

    monkeypatch.setattr(spectrum, "solve_manifold", counting)
    out, diagram = tmp_path / "ge.csv", tmp_path / "ge.json"
    b, alpha, beta = (0.01, 0.02, 0.05), 3.0, 1.5
    code = run_cli([
        "simulate", "73Ge", "--b", ",".join(map(str, b)), "--alpha", str(alpha),
        "--beta", str(beta), "--fwhm", "26", "--grid", "-200:200:0.5",
        "--out", str(out), "--diagram-out", str(diagram),
    ])
    assert code == 0
    # the emitter and its coupling-free copy, both manifolds: 4 solves in all
    assert sorted(solved) == ["exc", "exc", "gnd", "gnd"]
    monkeypatch.undo()

    emitter = dataio.load_emitter("73Ge")
    table = spectrum.transitions(emitter, b, alpha_ghz=alpha, beta_ghz=beta)
    dataio.write_spectrum_csv(tmp_path / "ref.csv", spectrum.synth_spectrum(
        table, 26.0, dataio.parse_grid("-200:200:0.5")))
    dataio.write_json(tmp_path / "ref.json", spectrum.transition_diagram(
        emitter, b, alpha_ghz=alpha, beta_ghz=beta))
    assert out.read_bytes() == (tmp_path / "ref.csv").read_bytes()
    assert diagram.read_bytes() == (tmp_path / "ref.json").read_bytes()


def test_sweep_strain_csv(tmp_path):
    out = tmp_path / "levels.csv"
    code = run_cli([
        "sweep-strain", "117Sn", "--manifold", "gnd",
        "--alphas", "0:100:25", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "alpha_ghz,level_index,energy_mhz,jsq"
    assert len(lines) == 1 + 5 * 4  # five strain points, four levels


def test_sweep_field_csv_row_major(tmp_path):
    out = tmp_path / "map.csv"
    code = run_cli([
        "sweep-field", "117Sn", "--direction", "0,0,1", "--b-range", "0:0.02:0.01",
        "--fwhm", "50", "--grid", "-500:500:10", "--out", str(out),
    ])
    assert code == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "b_tesla,freq_mhz,intensity"
    b_col = [float(r.split(",")[0]) for r in rows[1:]]
    assert b_col == sorted(b_col)  # field-outer ordering
    assert len(set(b_col)) == 3


def test_fit_single_from_csv(tmp_path):
    grid = np.arange(-300.0, 300.0, 1.0)
    hw2 = 20.0**2
    sig = 0.1 + 2.0 * hw2 / ((grid - 10.0) ** 2 + hw2)
    src = tmp_path / "trace.csv"
    dataio.write_spectrum_csv(src, type("T", (), {"freq_mhz": grid, "signal": sig})())
    report = tmp_path / "fit.json"
    code = run_cli(["fit", "--trace", str(src), "--model", "single", "--out", str(report)])
    assert code == 0
    doc = dataio.validate_fit_report(json.loads(report.read_text()))
    assert doc["params"]["f0"] == pytest.approx(10.0, abs=1e-3)
    assert doc["params"]["fwhm"] == pytest.approx(40.0, rel=1e-4)
    assert doc["converged"] is True


def test_fit_triplet_missing_trace_is_usage_error(tmp_path):
    code = run_cli(["fit", "--model", "triplet", "--out", str(tmp_path / "x.json")])
    assert code == 1


def test_synth_then_batch_shapes(tmp_path):
    code = run_cli([
        "synth", "119Sn", "--n", "2", "--seed", "3", "--noise", "0.02", "--fwhm", "35",
        "--grid", "-800:800:4", "--aple-scale", "1.34", "--jitter-aple", "40",
        "--out-dir", str(tmp_path / "data"), "--truth", str(tmp_path / "truth.json"),
    ])
    assert code == 0
    truth = json.loads((tmp_path / "truth.json").read_text())
    assert len(truth["entries"]) == 2
    assert (tmp_path / "data" / "emitter_0001.csv").exists()


def test_synth_determinism_bytes(tmp_path):
    args = lambda sub: [
        "synth", "117Sn", "--n", "2", "--seed", "5", "--noise", "0.05", "--fwhm", "35",
        "--grid", "-600:600:4", "--out-dir", str(tmp_path / sub),
        "--truth", str(tmp_path / f"{sub}.json"),
    ]
    assert run_cli(args("a")) == 0
    assert run_cli(args("b")) == 0
    fa = (tmp_path / "a" / "emitter_0000.csv").read_bytes()
    fb = (tmp_path / "b" / "emitter_0000.csv").read_bytes()
    assert fa == fb


def test_simulate_deterministic_bytes(tmp_path):
    args = lambda name: [
        "simulate", "117Sn", "--b", "0.01", "--fwhm", "35",
        "--grid", "-600:600:2", "--out", str(tmp_path / name),
    ]
    assert run_cli(args("a.csv")) == 0
    assert run_cli(args("b.csv")) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_ingest_sets_provenance(tmp_path):
    grid = np.arange(-10.0, 10.0, 1.0)
    src = tmp_path / "emitter_0042.csv"
    dataio.write_spectrum_csv(src, type("T", (), {"freq_mhz": grid, "signal": grid**2})())
    trace = dataio.ingest_csv(src)
    assert trace.emitter_id == "emitter_0042"
    assert trace.source == str(src)


def test_stats_counts_and_comparison(tmp_path, capsys):
    out = tmp_path / "stats.json"
    code = run_cli([
        "stats", "--counts", "211,34,25,187",
        "--aple-exp", "73Ge=-12.5", "--aple-exp", "117Sn=-445", "--aple-exp", "119Sn=-484",
        "--out", str(out),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["chi2"]["p_value"] < 1e-5
    assert doc["chi2"]["correction"] == "none"
    rows = {r["isotope"]: r["discrepancy_pct"] for r in doc["aple_comparison"]}
    assert rows["73Ge"] == pytest.approx(9.29, abs=0.05)
    assert rows["117Sn"] == pytest.approx(22.47, abs=0.05)
    assert rows["119Sn"] == pytest.approx(25.42, abs=0.05)


def test_stats_values_column(tmp_path):
    src = tmp_path / "values.csv"
    dataio.write_values_csv(src, [250.0, 270.0, 266.0], column="fwhm_mhz")
    out = tmp_path / "stats.json"
    code = run_cli([
        "stats", "--values", str(src), "--column", "fwhm_mhz",
        "--bin-width", "20", "--out", str(out),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["ensemble"]["n"] == 3
    assert doc["ensemble"]["mean"] == pytest.approx(262.0)


def test_stats_requires_some_input(tmp_path):
    assert run_cli(["stats", "--out", str(tmp_path / "s.json")]) == 1


def test_fit_pl_values_to_kde(tmp_path):
    src = tmp_path / "centers.csv"
    dataio.write_values_csv(src, [0.0, 1.0, 82.0, 84.0], column="value")
    kde_out = tmp_path / "kde.csv"
    report = tmp_path / "pl.json"
    code = run_cli([
        "fit-pl", "--values", str(src), "--bandwidth", "5",
        "--kde-out", str(kde_out), "--out", str(report),
    ])
    assert code == 0
    rows = kde_out.read_text().splitlines()
    assert rows[0] == "value,density"
    doc = json.loads(report.read_text())
    assert doc["n"] == 4


def test_fit_pl_traces_mode(tmp_path):
    grid = np.linspace(-50.0, 50.0, 201)
    paths = []
    for k, c in enumerate((-7.0, 6.0)):
        sig = np.exp(-((grid - c) ** 2) / (2 * 4.0**2))
        p = tmp_path / f"t{k}.csv"
        dataio.write_spectrum_csv(p, type("T", (), {"freq_mhz": grid, "signal": sig})())
        paths.append(str(p))
    code = run_cli([
        "fit-pl", "--traces", *paths, "--bandwidth", "3",
        "--kde-out", str(tmp_path / "kde.csv"), "--out", str(tmp_path / "r.json"),
    ])
    assert code == 0
    doc = json.loads((tmp_path / "r.json").read_text())
    centers = sorted(f["params"]["center"] for f in doc["fits"])
    assert centers[0] == pytest.approx(-7.0, abs=1e-3)
    assert centers[1] == pytest.approx(6.0, abs=1e-3)


def test_synth_batch_stats_pipeline(tmp_path):
    """End-to-end: seeded dataset -> batch triplet fits -> ensemble stats."""
    # strained emitter so the weak pair is split and the triplet model applies
    emitter_file = tmp_path / "e.json"
    emitter_file.write_text(json.dumps({"isotope": "119Sn", "strain_alpha_ghz": 55.0}))
    code = run_cli([
        "synth", str(emitter_file), "--n", "24", "--seed", "13", "--noise", "0.05",
        "--fwhm", "35", "--grid", "-500:1100:4", "--aple-scale", "1.3409",
        "--jitter-aple", "40", "--b", "0",
        "--out-dir", str(tmp_path / "data"), "--truth", str(tmp_path / "truth.json"),
    ])
    assert code == 0
    report = tmp_path / "batch.json"
    summary = tmp_path / "summary.csv"
    code = run_cli([
        "fit", "--batch", str(tmp_path / "data" / "*.csv"), "--model", "triplet",
        "--out", str(report), "--summary-out", str(summary),
    ])
    assert code == 0
    docs = json.loads(report.read_text())
    assert len(docs) == 24
    assert docs[0]["label"] == "emitter_0000"
    header = summary.read_text().splitlines()[0]
    assert header == "label,model,a_ple_mhz,delta_mhz,fwhm_mhz,residual_rms"

    truth = json.loads((tmp_path / "truth.json").read_text())
    truth_mean = np.mean([abs(t["a_ple_mhz"]) for t in truth["entries"]])
    stats_out = tmp_path / "stats.json"
    code = run_cli([
        "stats", "--values", str(summary), "--column", "a_ple_mhz",
        "--bin-width", "25", "--out", str(stats_out),
    ])
    assert code == 0
    st = json.loads(stats_out.read_text())["ensemble"]
    assert abs(st["mean"] - truth_mean) < max(st["std_err_of_mean"], 3.0)


def test_fit_exit_code_2_on_non_convergence(tmp_path, monkeypatch):
    from g4vspec import analysis as analysis_mod
    from g4vspec.analysis import FitResult

    def fake_fit(trace, model="single", init=None, seed=None):
        return FitResult(model=model, params={"f0": 0.0, "fwhm": 1.0},
                         std_errs={"f0": 0.0, "fwhm": 0.0}, residual_rms=1.0,
                         converged=False, n_iterations=200, seed=seed)

    monkeypatch.setattr(analysis_mod, "fit_lorentzians", fake_fit)
    grid = np.arange(-10.0, 10.0, 1.0)
    src = tmp_path / "t.csv"
    dataio.write_spectrum_csv(src, type("T", (), {"freq_mhz": grid, "signal": grid**2})())
    code = run_cli(["fit", "--trace", str(src), "--model", "single",
                    "--out", str(tmp_path / "r.json")])
    assert code == 2


def test_fit_full_model_on_map(tmp_path):
    from g4vspec.hamiltonian import registry_lookup
    from g4vspec.spectrum import sweep_field

    base = registry_lookup("117Sn", strain_alpha_ghz=55.0)
    gen = base.scaled_hyperfine(1.2)
    grid = np.arange(-700.0, 700.0, 5.0)
    traces = sweep_field(gen, (0, 0, 1), [0.0, 0.02], 150.0, grid)
    map_path = tmp_path / "map.csv"
    dataio.write_map_csv(map_path, traces)
    report = tmp_path / "full.json"
    code = run_cli([
        "fit", "--map", str(map_path), "--model", "full", "--emitter", "117Sn",
        "--direction", "0,0,1", "--free", "a_ple_scale,fwhm,amplitude",
        "--init", json.dumps({"strain_alpha": 55.0, "fwhm": 120.0}),
        "--out", str(report),
    ])
    assert code == 0
    doc = json.loads(report.read_text())
    assert doc["params"]["a_ple_scale"] == pytest.approx(1.2, rel=1e-3)
    assert doc["params"]["fwhm"] == pytest.approx(150.0, rel=1e-3)


def test_fit_map_with_non_finite_value_names_file_and_line(tmp_path, capsys):
    map_path = tmp_path / "map.csv"
    map_path.write_text("b_tesla,freq_mhz,intensity\n0,-10,1.0\n0,0,nan\n0,10,1.0\n")
    code = run_cli([
        "fit", "--map", str(map_path), "--model", "full", "--emitter", "117Sn",
        "--out", str(tmp_path / "full.json"),
    ])
    assert code == 1
    assert capsys.readouterr().err == f"error: {map_path}: line 3: non-finite value\n"
    assert not (tmp_path / "full.json").exists()


@pytest.mark.parametrize("body, message", [
    ("0,1,1\n0,1,1\n0,2,1\n", "line 3: frequency grid is not strictly increasing"),
    ("0,1,1\n0,3,1\n\n0,2,1\n", "line 5: frequency grid is not strictly increasing"),
    ("0,1,1\n0,2,1\n0,3,1\n0.1,1,1\n",
     "line 5: field 0.1 T has 1 data row(s), need at least 3"),
    ("0,1,1\n0,2,1\n\n0.1,1,1\n0.1,2,1\n0.1,3,1\n",
     "line 2: field 0 T has 2 data row(s), need at least 3"),
    ("0,1,1\n0,2,1\n0,3,1\n0.1,1,1\n0.1,2,1\n0.1,3,1\n0,4,1\n0,5,1\n0,6,1\n",
     "line 8: field 0 T already has a block ending at line 4; "
     "each field's rows must be contiguous"),
])
def test_fit_map_breaking_the_spectrum_rules_names_file_and_line(tmp_path, capsys, body,
                                                                  message):
    map_path = tmp_path / "map.csv"
    map_path.write_text("b_tesla,freq_mhz,intensity\n" + body)
    code = run_cli([
        "fit", "--map", str(map_path), "--model", "full", "--emitter", "117Sn",
        "--out", str(tmp_path / "full.json"),
    ])
    assert code == 1
    assert capsys.readouterr().err == f"error: {map_path}: {message}\n"
    assert not (tmp_path / "full.json").exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_values_with_non_finite_entry_name_file_and_line(tmp_path, capsys, value):
    src = tmp_path / "v.csv"
    src.write_text(f"value\n1.0\n{value}\n3.0\n")
    kde_out = tmp_path / "kde.csv"
    stats_out = tmp_path / "stats.json"
    want = f"error: {src}: line 3: non-finite value\n"
    assert run_cli(["fit-pl", "--values", str(src), "--bandwidth", "5",
                    "--kde-out", str(kde_out)]) == 1
    assert capsys.readouterr().err == want
    assert run_cli(["stats", "--values", str(src), "--out", str(stats_out)]) == 1
    assert capsys.readouterr().err == want
    assert not kde_out.exists()
    assert not stats_out.exists()


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_emitter_file_with_non_finite_literal_names_file(tmp_path, capsys, literal):
    em = tmp_path / "em.json"
    em.write_text(f'{{"isotope": "117Sn", "strain_alpha_ghz": {literal}}}')
    out = tmp_path / "s.csv"
    code = run_cli(["simulate", str(em), "--fwhm", "30", "--grid", "-500:500:5",
                    "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: emitter file {em}: invalid JSON: non-finite literal {literal} is not allowed\n"
    )
    assert not out.exists()


def test_consecutive_commands_share_no_state(tmp_path, capsys):
    from g4vspec import cli

    first, second = tmp_path / "first.json", tmp_path / "second.json"
    values = tmp_path / "values.csv"
    dataio.write_values_csv(values, [250.0, 270.0, 266.0])
    assert run_cli(["stats", "--aple-exp", "117Sn=-484", "--out", str(first)]) == 0
    assert run_cli(["stats", "--values", str(values), "--out", str(second)]) == 0
    assert "aple_comparison" in json.loads(first.read_text())
    doc = json.loads(second.read_text())
    assert "aple_comparison" not in doc and doc["ensemble"]["n"] == 3

    capsys.readouterr()
    assert run_cli(["aple", "117Sn", "--frobnicate"]) == 1
    assert "usage" in capsys.readouterr().err
    assert run_cli(["aple", "117Sn"]) == 0
    assert capsys.readouterr().err == ""
    # the commands above did run on one parser
    assert cli._build_parser() is cli._build_parser()


@pytest.mark.parametrize("argv", [["-m", "g4vspec.cli", "stats", "-h"],
                                  ["-m", "g4vspec", "--help"]])
def test_module_entry_points_run_the_cli(argv):
    import os
    import subprocess
    import sys
    from pathlib import Path

    import g4vspec

    src = str(Path(g4vspec.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "usage" in proc.stdout


def _small_map(tmp_path):
    from g4vspec.hamiltonian import registry_lookup
    from g4vspec.spectrum import sweep_field

    traces = sweep_field(registry_lookup("117Sn"), (0, 0, 1), [0.0, 0.01], 100.0,
                         np.arange(-500.0, 500.0, 5.0))
    path = tmp_path / "map.csv"
    dataio.write_map_csv(path, traces)
    return path


@pytest.mark.parametrize("spec, message", [
    ("0,0,0", "field direction must be 3 finite numbers, not all 0, got '0,0,0'"),
    ("0,1", "field direction must be 3 finite numbers, not all 0, got '0,1'"),
    ("a,b,c", "field direction 'a,b,c' has a non-numeric component"),
])
@pytest.mark.parametrize("command", ["sweep-field", "fit --map"])
def test_bad_direction_is_refused_by_both_commands(tmp_path, capsys, spec, message, command):
    import warnings

    out = tmp_path / "out"
    if command == "sweep-field":
        argv = ["sweep-field", "117Sn", "--b-range", "0:0.01:0.01", "--fwhm", "30",
                "--grid", "-10:10:1"]
    else:
        argv = ["fit", "--map", str(_small_map(tmp_path)), "--model", "full",
                "--emitter", "117Sn"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_cli(argv + ["--direction", spec, "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


_BAD_INITS = [
    ("single", "[1]", "init must be a dict of initial values, got list"),
    ("single", '{"f0": 1}',
     "init needs a value for every parameter; missing fwhm, amplitude, baseline"),
    ("triplet", "{", "--init is not valid JSON: Expecting property name enclosed in double "
                     "quotes: line 1 column 2 (char 1)"),
    ("full", "[1]", "init must be a dict of initial values, got list"),
    ("full", '{"bogus": 1}', "unknown init parameter(s) 'bogus'; choose from a_ple_scale, "
                             "strain_alpha, fwhm, amplitude, freq_offset"),
]


@pytest.mark.parametrize("model, init, message, batch",
                         [case + (False,) for case in _BAD_INITS]
                         + [case + (True,) for case in _BAD_INITS if case[0] != "full"])
def test_bad_init_is_an_error_line_not_a_traceback(tmp_path, capsys, model, init, message,
                                                   batch):
    grid = np.arange(-100.0, 100.0, 2.0)
    trace = tmp_path / "t.csv"
    dataio.write_spectrum_csv(trace, type("T", (), {"freq_mhz": grid,
                                                    "signal": 1.0 / (1.0 + grid**2)})())
    source = ["--batch", str(trace)] if batch else ["--trace", str(trace)]
    out = tmp_path / "r.json"
    assert run_cli(["fit", *source, "--model", model, "--emitter", "117Sn", "--init", init,
                    "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("body", ["", "\n \n"])
def test_fit_of_an_empty_map_names_the_file(tmp_path, capsys, body):
    map_path = tmp_path / "map.csv"
    map_path.write_text("b_tesla,freq_mhz,intensity\n" + body)
    out = tmp_path / "full.json"
    assert run_cli(["fit", "--map", str(map_path), "--model", "full", "--emitter", "117Sn",
                    "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {map_path}: no data rows\n"
    assert not out.exists()
