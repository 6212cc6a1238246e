import json

import numpy as np
import pytest

from g4vspec import dataio
from g4vspec.cli import run_cli
from g4vspec.spectrum import SpectrumTrace

from conftest import lorentz_peak


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


def test_simulate_at_an_overflowing_field_writes_the_zero_limit_without_a_warning(tmp_path):
    # Every line's squared detuning overflows; pytest makes a RuntimeWarning an error.
    out = tmp_path / "far.csv"
    assert run_cli(["simulate", "73Ge", "--b", "0,0,1e300", "--fwhm", "30",
                    "--grid", "-10:10:1", "--out", str(out)]) == 0
    trace = dataio.ingest_csv(out)
    assert trace.freq_mhz.size == 21 and not trace.signal.any()


@pytest.mark.parametrize("where", ["missing directory", "directory at the path"])
def test_an_output_that_cannot_be_written_is_named_as_given(tmp_path, capsys, where):
    """The error named the temp file, '<out>.tmp.<pid>', not the output."""
    out = tmp_path / "missing" / "x.csv" if where == "missing directory" else tmp_path / "x.csv"
    if where == "directory at the path":
        out.mkdir()
    code = run_cli(["simulate", "117Sn", "--fwhm", "30", "--grid", "-10:10:1",
                    "--out", str(out)])
    err = capsys.readouterr().err.splitlines()
    assert code == 1
    assert len(err) == 1 and err[0].startswith("error: [Errno ")
    assert err[0].endswith(f": {str(out)!r}") and ".tmp." not in err[0]
    assert [p.name for p in tmp_path.rglob("*")] == ([] if where == "missing directory"
                                                      else ["x.csv"])


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


def test_simulate_with_diagram_solves_each_manifold_once(tmp_path, calls, monkeypatch):
    from g4vspec import spectrum

    solved = calls(spectrum, "solve_manifold")
    out, diagram = tmp_path / "ge.csv", tmp_path / "ge.json"
    b, alpha, beta = (0.01, 0.02, 0.05), 3.0, 1.5
    code = run_cli([
        "simulate", "73Ge", "--b", ",".join(map(str, b)), "--alpha", str(alpha),
        "--beta", str(beta), "--fwhm", "26", "--grid", "-200:200:0.5",
        "--out", str(out), "--diagram-out", str(diagram),
    ])
    assert code == 0
    # the emitter and its coupling-free copy, both manifolds: 4 solves in all
    assert sorted(c["manifold"] for c in solved) == ["exc", "exc", "gnd", "gnd"]
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
    assert trace.meta == {"source": str(src), "emitter_id": "emitter_0042"}


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


@pytest.mark.parametrize("first, second", [
    ("--trace", "--map"), ("--trace", "--batch"), ("--map", "--batch"), ("--values", "--traces"),
])
def test_two_input_sources_are_a_usage_error(tmp_path, capsys, first, second):
    grid = np.arange(-300.0, 300.0, 4.0)
    trace = tmp_path / "t.csv"
    dataio.write_spectrum_csv(trace, type(
        "T", (), {"freq_mhz": grid, "signal": lorentz_peak(grid, 10.0, 40.0)})())
    values = tmp_path / "v.csv"
    dataio.write_values_csv(values, [1.0, 2.0, 3.0], column="value")
    source = {"--trace": trace, "--map": _small_map(tmp_path), "--batch": trace,
              "--values": values, "--traces": trace}
    out = tmp_path / "out.json"
    if first == "--values":
        argv = ["fit-pl", "--bandwidth", "3", "--kde-out", str(tmp_path / "kde.csv")]
    else:
        argv = ["fit", "--model", "full" if second == "--map" else "single", "--emitter", "117Sn"]
    argv += [first, str(source[first]), second, str(source[second]), "--out", str(out)]
    assert run_cli(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"g4vspec {argv[0]}: argument {second}: not allowed with argument "
                          f"{first}\nusage: ")
    assert not out.exists() and not (tmp_path / "kde.csv").exists()


def test_batch_fits_mixed_grid_lengths_as_each_file_alone(tmp_path):
    paths = []
    for k, step in enumerate((2.0, 2.5, 2.0, 4.0, 2.5)):
        grid = np.arange(-300.0, 900.0, step)
        sig = 0.05 + 1.5 * lorentz_peak(grid, -20.0 + 7.0 * k, 30.0 + 3.0 * k)
        paths.append(tmp_path / f"e{k}.csv")
        dataio.write_spectrum_csv(paths[-1], type("T", (), {"freq_mhz": grid, "signal": sig})())
    assert run_cli(["fit", "--batch", str(tmp_path / "e*.csv"), "--model", "single",
                    "--out", str(tmp_path / "batch.json")]) == 0
    batch = json.loads((tmp_path / "batch.json").read_text())
    assert [entry["label"] for entry in batch] == [p.stem for p in paths]
    for path, entry in zip(paths, batch):
        alone = tmp_path / f"{path.stem}.json"
        assert run_cli(["fit", "--trace", str(path), "--model", "single",
                        "--out", str(alone)]) == 0
        assert entry["report"] == json.loads(alone.read_text())


@pytest.mark.parametrize("command", ["fit --batch", "fit-pl --traces"])
def test_a_trace_fit_error_in_a_batch_names_its_file(tmp_path, capsys, command):
    grid = np.arange(-100.0, 100.0, 2.0)
    paths = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
    for path, sig in zip(paths, (lorentz_peak(grid, 0.0, 20.0), np.ones(grid.size),
                                 lorentz_peak(grid, 5.0, 20.0))):
        dataio.write_spectrum_csv(path, type("T", (), {"freq_mhz": grid, "signal": sig})())
    out = tmp_path / "r.json"
    if command == "fit --batch":
        argv = ["fit", "--batch", str(tmp_path / "*.csv"), "--model", "triplet", "--out", str(out)]
    else:
        argv = ["fit-pl", "--traces", *map(str, paths), "--bandwidth", "3",
                "--kde-out", str(out)]
    assert run_cli(argv) == 1
    assert capsys.readouterr().err == (
        f"error: {paths[1]}: trace is degenerate (constant signal), nothing to fit\n")
    assert not out.exists()


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


def test_fit_pl_exit_code_2_when_a_gaussian_fit_does_not_converge(tmp_path, monkeypatch):
    from g4vspec import analysis as analysis_mod
    from g4vspec.analysis import FitResult

    def fake_fit(traces):
        return [FitResult(model="gaussian", params={"center": float(k)},
                          std_errs={"center": 0.0}, residual_rms=1.0,
                          converged=k == 0, n_iterations=200 * k, seed=None)
                for k in range(len(traces))]

    monkeypatch.setattr(analysis_mod, "fit_gaussian", fake_fit)
    grid = np.arange(-10.0, 10.0, 1.0)
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in paths:
        dataio.write_spectrum_csv(path, SpectrumTrace(grid, np.exp(-grid**2)))
    kde_out, out = tmp_path / "kde.csv", tmp_path / "pl.json"
    assert run_cli(["fit-pl", "--traces", *map(str, paths), "--bandwidth", "1",
                    "--kde-out", str(kde_out), "--out", str(out)]) == 2
    assert kde_out.read_text().startswith("value,density\n")
    assert [f["converged"] for f in json.loads(out.read_text())["fits"]] == [True, False]


def _reports_written_by(tmp_path, command):
    """The exit code of one CLI command and every fit report it writes."""
    grid = np.arange(-400.0, 900.0, 4.0)
    trace = tmp_path / "trace.csv"
    out = tmp_path / "out.json"
    if command == "fit --trace full":
        from g4vspec import spectrum
        from g4vspec.hamiltonian import registry_lookup

        table = spectrum.transitions(registry_lookup("117Sn").scaled_hyperfine(1.1))
        dataio.write_spectrum_csv(trace, spectrum.synth_spectrum(table, 80.0, grid))
    elif command == "fit-pl --traces":
        for k in range(2):
            sig = np.exp(-((grid - 30.0 * k) ** 2) / (2 * 20.0**2))
            dataio.write_spectrum_csv(tmp_path / f"t{k}.csv", SpectrumTrace(grid, sig))
    else:
        for k in range(2):
            sig = 0.05 + sum(w * lorentz_peak(grid, 8.0 * k + f, 35.0)
                             for w, f in ((1.0, 0.0), (0.5, 410.0), (0.5, 490.0)))
            dataio.write_spectrum_csv(tmp_path / f"t{k}.csv", SpectrumTrace(grid, sig))
        trace = tmp_path / "t0.csv"
    argv = {
        "fit --trace single": ["fit", "--trace", str(trace), "--model", "single"],
        "fit --trace triplet": ["fit", "--trace", str(trace), "--model", "triplet"],
        "fit --trace full": ["fit", "--trace", str(trace), "--model", "full",
                             "--emitter", "117Sn"],
        "fit --map full": ["fit", "--map", str(_small_map(tmp_path)), "--model", "full",
                           "--emitter", "117Sn"],
        "fit --batch": ["fit", "--batch", str(tmp_path / "t*.csv"), "--model", "triplet"],
        "fit-pl --traces": ["fit-pl", "--traces", str(tmp_path / "t0.csv"),
                            str(tmp_path / "t1.csv"), "--bandwidth", "3",
                            "--kde-out", str(tmp_path / "kde.csv")],
    }[command]
    code = run_cli(argv + ["--out", str(out)])
    doc = json.loads(out.read_text())
    if command == "fit --batch":
        return code, [entry["report"] for entry in doc]
    if command == "fit-pl --traces":
        return code, doc["fits"]
    return code, [doc]


@pytest.mark.parametrize("command", ["fit --trace single", "fit --trace triplet",
                                     "fit --trace full", "fit --map full", "fit --batch",
                                     "fit-pl --traces"])
def test_every_fit_report_the_cli_writes_matches_the_schema(tmp_path, command):
    code, reports = _reports_written_by(tmp_path, command)
    assert code == 0 and reports
    for report in reports:
        assert dataio.validate_fit_report(report) is report


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


def test_fit_full_model_refuses_a_free_name_given_twice(tmp_path, capsys):
    out = tmp_path / "full.json"
    assert run_cli(["fit", "--map", str(_small_map(tmp_path)), "--model", "full",
                    "--emitter", "117Sn", "--free", "fwhm,fwhm,amplitude",
                    "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: free parameter 'fwhm' is given twice\n"
    assert not out.exists()


def test_fit_pl_report_takes_no_histogram_at_any_bandwidth(tmp_path):
    """n, mean and standard error of the mean of the values; a bandwidth of
    1e-9 would ask a histogram of that bin width for 2.5e10 bins."""
    values = tmp_path / "v.csv"
    dataio.write_values_csv(values, [10.0, 20.0, 35.0])
    report = tmp_path / "r.json"
    assert run_cli(["fit-pl", "--values", str(values), "--bandwidth", "1e-9",
                    "--kde-out", str(tmp_path / "k.csv"), "--out", str(report)]) == 0
    doc = json.loads(report.read_text())
    sample = np.array([10.0, 20.0, 35.0])
    assert (doc["n"], doc["mean"], doc["std_err_of_mean"]) == (
        3, float(sample.mean()), float(sample.std(ddof=1) / np.sqrt(3)))
    assert doc["fits"] == []


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


def _add_a_byte_that_is_not_utf8(path):
    """Puts a 0xff byte at the start of the file's second line; returns the
    UTF-8 decoder's message for the result."""
    head, rest = path.read_bytes().split(b"\n", 1)
    data = head + b"\n\xff" + rest
    path.write_bytes(data)
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        return str(exc)


@pytest.mark.parametrize("command", ["fit --batch", "fit --map", "stats --values"])
def test_a_csv_file_that_is_not_utf8_is_named(tmp_path, capsys, command):
    out = tmp_path / "out.json"
    if command == "fit --batch":
        grid = np.arange(-100.0, 100.0, 2.0)
        paths = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
        for path in paths:
            dataio.write_spectrum_csv(path, SpectrumTrace(grid, lorentz_peak(grid, 0.0, 20.0)))
        bad = paths[1]
        argv = ["fit", "--batch", str(tmp_path / "*.csv"), "--model", "triplet"]
    elif command == "fit --map":
        bad = _small_map(tmp_path)
        argv = ["fit", "--map", str(bad), "--model", "full", "--emitter", "117Sn"]
    else:
        bad = tmp_path / "v.csv"
        dataio.write_values_csv(bad, [1.0, 2.0, 3.0])
        argv = ["stats", "--values", str(bad)]
    message = _add_a_byte_that_is_not_utf8(bad)
    assert run_cli(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {bad}: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("text, column, want", [
    ("a,b\n1,2,3\n", "b", "line 2: expected 2 fields, got 3"),
    ("a,b\n1,2\n3\n", "b", "line 3: expected 2 fields, got 1"),
    ("value\n1,2\n", None, "line 2: expected 1 fields, got 2"),
], ids=["long row", "short row", "one column"])
def test_stats_refuses_a_values_row_whose_field_count_is_not_the_headers(
        tmp_path, capsys, text, column, want):
    src = tmp_path / "v.csv"
    src.write_text(text)
    out = tmp_path / "stats.json"
    argv = ["stats", "--values", str(src), "--out", str(out)]
    assert run_cli(argv + (["--column", column] if column else [])) == 1
    assert capsys.readouterr().err == f"error: {src}: {want}\n"
    assert not out.exists()


@pytest.mark.parametrize("stem", ["x,1e9", "a\nb"], ids=["comma", "line break"])
def test_batch_summary_refuses_a_file_name_that_would_shift_its_row(
        tmp_path, capsys, calls, stem):
    from g4vspec import analysis as analysis_mod

    grid = np.arange(-300.0, 300.0, 4.0)
    for name in ("good", stem):
        dataio.write_spectrum_csv(tmp_path / f"{name}.csv", type(
            "T", (), {"freq_mhz": grid, "signal": lorentz_peak(grid, 10.0, 40.0)})())
    fits = calls(analysis_mod, "fit_lorentzians")
    report, summary = tmp_path / "batch.json", tmp_path / "summary.csv"
    batch = ["fit", "--batch", str(tmp_path / "*.csv"), "--model", "single", "--out", str(report)]
    assert run_cli(batch + ["--summary-out", str(summary)]) == 1
    assert capsys.readouterr().err == (
        f"error: {tmp_path / (stem + '.csv')}: --summary-out cannot label a row by a file "
        "name holding a comma or a line break\n")
    assert fits == []
    assert not report.exists() and not summary.exists()
    # Without a summary the label is only a JSON string, which holds anything.
    assert run_cli(batch) == 0
    assert [d["label"] for d in json.loads(report.read_text())] == sorted(["good", stem])


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


def test_emitter_file_with_an_integer_beyond_the_float_range_names_file(tmp_path, capsys):
    em = tmp_path / "em.json"
    em.write_text('{"isotope": "117Sn", "strain_alpha_ghz": 1' + "0" * 400 + "}")
    assert run_cli(["aple", str(em)]) == 1
    assert capsys.readouterr().err == (
        f"error: emitter file {em}: strain_alpha_ghz is an integer too large for a float\n")


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


def _run_python(argv):
    """python argv in a subprocess that imports this checkout's g4vspec."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import g4vspec

    src = str(Path(g4vspec.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env,
                          timeout=60)


@pytest.mark.parametrize("argv", [["-m", "g4vspec.cli", "stats", "-h"],
                                  ["-m", "g4vspec", "--help"]])
def test_module_entry_points_run_the_cli(argv):
    proc = _run_python(argv)
    assert proc.returncode == 0, proc.stderr
    assert "usage" in proc.stdout


def test_python_dash_m_g4vspec_runs_a_command_as_run_cli_does(capsys):
    assert run_cli(["aple", "117Sn"]) == 0
    proc = _run_python(["-m", "g4vspec", "aple", "117Sn"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == capsys.readouterr().out
    proc = _run_python(["-m", "g4vspec", "frobnicate"])
    assert proc.returncode == 1 and "invalid choice: 'frobnicate'" in proc.stderr


def test_synth_jitter_alpha_is_seeded_and_scatters_about_the_base_strain(tmp_path):
    from g4vspec.hamiltonian import registry_lookup

    def truth(name):
        path = tmp_path / f"{name}.json"
        assert run_cli(["synth", "117Sn", "--n", "20", "--seed", "7", "--fwhm", "30",
                        "--grid", "-600:600:4", "--jitter-alpha", "5",
                        "--out-dir", str(tmp_path / name), "--truth", str(path)]) == 0
        return json.loads(path.read_text())

    first = truth("a")
    assert truth("b") == first
    alphas = np.array([entry["alpha_ghz"] for entry in first["entries"]])
    base = registry_lookup("117Sn").strain_alpha_ghz
    assert 2.5 < alphas.std() < 10.0
    assert abs(alphas.mean() - base) < 3.0 * 5.0 / np.sqrt(alphas.size)


def _small_map(tmp_path):
    from g4vspec.hamiltonian import registry_lookup
    from g4vspec.spectrum import sweep_field

    traces = sweep_field(registry_lookup("117Sn"), (0, 0, 1), [0.0, 0.01], 100.0,
                         np.arange(-500.0, 500.0, 5.0))
    path = tmp_path / "map.csv"
    dataio.write_map_csv(path, traces)
    return path


def _map_fit_from(tmp_path, capsys, a_ple_scale):
    """Exit code, stderr lines and report path of a full fit of the small
    map started at a_ple_scale, with warnings as errors."""
    import warnings

    out = tmp_path / "r.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_cli(["fit", "--map", str(_small_map(tmp_path)), "--model", "full",
                        "--emitter", "117Sn", "--init", json.dumps({"a_ple_scale": a_ple_scale}),
                        "--out", str(out)])
    return code, capsys.readouterr().err.splitlines(), out


def test_a_map_fit_rejects_a_trial_whose_table_cannot_be_solved(tmp_path, capsys):
    """From a_ple_scale 0.001 the fit tries a point near 5.6e5, whose ground
    manifold fails the branch-gap check; that trial is a rejected step, and
    the fit goes on to write its report."""
    code, err, out = _map_fit_from(tmp_path, capsys, 0.001)
    assert code in (0, 2), err
    assert json.loads(out.read_text())["model"] == "full"


def test_a_map_fit_whose_start_cannot_be_solved_is_refused_by_its_own_error(tmp_path, capsys):
    code, err, out = _map_fit_from(tmp_path, capsys, 1e300)
    assert code == 1
    assert len(err) == 1 and err[0].startswith("error: gnd: spin-orbit branch separation ")
    assert not out.exists()


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
    ("single", '{"f0": true, "fwhm": 40.0, "amplitude": 1.0, "baseline": false}',
     "init 'f0' must be a finite number, got True"),
    ("full", "[1]", "init must be a dict of initial values, got list"),
    ("full", '{"bogus": 1}', "unknown init parameter(s) 'bogus'; choose from a_ple_scale, "
                             "strain_alpha, fwhm, amplitude, freq_offset"),
    ("single", '{"f0": 1' + "0" * 400 + ', "fwhm": 40.0, "amplitude": 1.0, "baseline": 0.0}',
     "init 'f0' is an integer too large for a float"),
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


@pytest.mark.parametrize("source", ["trace", "batch", "full", "map"])
def test_a_fit_with_fewer_points_than_parameters_is_an_error_line(tmp_path, capsys, source):
    """A 3-row trace fitted as a triplet with a full --init reported
    converged: true, with std_errs 0.0 on a_ple, delta, amplitude and
    baseline.  The error names the file, whichever way it is read."""
    trace = tmp_path / "t.csv"
    trace.write_text("freq_mhz,intensity\n0,1\n1,2\n2,1\n")
    map_path = tmp_path / "map.csv"
    map_path.write_text("b_tesla,freq_mhz,intensity\n0,0,1\n0,1,2\n0,2,1\n")
    triplet = ["--model", "triplet", "--init", '{"f_ch1": 0, "a_ple": 1, "delta": 1, '
                                                '"fwhm": 1, "amplitude": 1, "baseline": 0}']
    full = ["--model", "full", "--emitter", "117Sn", "--free", "a_ple_scale,fwhm,amplitude"]
    argv, named, free = {"trace": (["--trace", str(trace), *triplet], trace, 6),
                         "batch": (["--batch", str(trace), *triplet], trace, 6),
                         "full": (["--trace", str(trace), *full], trace, 3),
                         "map": (["--map", str(map_path), *full], map_path, 3)}[source]
    out = tmp_path / "r.json"
    assert run_cli(["fit", *argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (f"error: {named}: 3 data points cannot determine {free} "
                                       "free parameters; a fit needs more data points than free "
                                       "parameters\n")
    assert not out.exists()


@pytest.mark.parametrize("source", ["trace", "batch", "full"])
def test_a_start_with_a_non_finite_jacobian_is_an_error_line(tmp_path, capsys, source):
    """A start of fwhm 1e200 printed NumPy RuntimeWarnings, then "error: SVD
    did not converge" (single) or "fwhm must be positive and finite, got
    nan" (full)."""
    import warnings

    trace = tmp_path / "t.csv"
    grid = np.arange(-50.0, 51.0, 1.0)
    dataio.write_spectrum_csv(trace, SpectrumTrace(grid, 1.0 / (1.0 + grid**2)))
    out = tmp_path / "r.json"
    single = ["--model", "single", "--init",
              '{"f0": 0, "fwhm": 1e200, "amplitude": 1, "baseline": 0}']
    argv = {"trace": ["--trace", str(trace), *single],
            "batch": ["--batch", str(trace), *single],
            "full": ["--trace", str(trace), "--model", "full", "--emitter", "117Sn", "--free",
                     "fwhm", "--init", '{"fwhm": 1e200}']}[source]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(["fit", *argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (f"error: {trace}: the fit cannot start: its Jacobian at "
                                       "the initial parameters is not finite\n")
    assert not out.exists()


@pytest.mark.parametrize("digits, reason", [(200, "has no finite chi-squared"),
                                             (400, "does not convert to floats")])
def test_stats_counts_without_a_finite_chi2_are_refused(tmp_path, capsys, digits, reason):
    import warnings

    big = "9" * digits
    out = tmp_path / "stats.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_cli(["stats", "--counts", f"{big},1,1,1", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: contingency table (({big}, 1), (1, 1)) {reason}"]
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


# --- non-finite or malformed widths, strains, bandwidths, bin widths, noise, jitters,
# grids, stats inputs and fit starts ---

def _non_finite_case(tmp_path, case):
    """argv and the files it must not write, for one refused command."""
    out = tmp_path / "out"
    values = tmp_path / "v.csv"
    dataio.write_values_csv(values, [1.0, 2.0, 4.0])
    huge = tmp_path / "huge.csv"
    dataio.write_values_csv(huge, [-1e300, 1e300])
    wide = tmp_path / "wide.csv"
    dataio.write_values_csv(wide, [-1e154, 1e154])
    trace = tmp_path / "t.csv"
    grid = np.arange(-50.0, 51.0, 1.0)
    dataio.write_spectrum_csv(trace, SpectrumTrace(grid, 1.0 / (1.0 + grid**2)))
    simulate = ["simulate", "117Sn", "--grid", "-100:100:1", "--out", str(out)]
    fit_pl = ["fit-pl", "--kde-out", str(out), "--values"]
    on_line = ["simulate", "120Sn", "--grid", "-10:10:1", "--out", str(out), "--fwhm"]
    stats = ["stats", "--values", str(values), "--out", str(out), "--bin-width"]
    synth = ["synth", "117Sn", "--n", "2", "--grid", "-100:100:1",
             "--out-dir", str(tmp_path / "traces"), "--truth", str(out)]
    zero_width = '{"f0": 0, "fwhm": 0, "amplitude": 1, "baseline": 0}'
    argv = {
        "simulate fwhm nan": simulate + ["--fwhm", "nan"],
        "simulate fwhm inf": simulate + ["--fwhm", "inf"],
        "sweep-field fwhm nan": ["sweep-field", "117Sn", "--b-range", "0:0.01:0.01", "--fwhm",
                                 "nan", "--grid", "-10:10:1", "--out", str(out)],
        "simulate fwhm 1e-155 on a line": on_line + ["1e-155"],
        "simulate fwhm 1e-320 on a line": on_line + ["1e-320"],
        "simulate fwhm 5e-324 on a line": on_line + ["5e-324"],
        "fit-pl bandwidth nan": fit_pl + [str(values), "--bandwidth", "nan"],
        "fit-pl bandwidth inf": fit_pl + [str(values), "--bandwidth", "inf"],
        "fit-pl bandwidth 1e-170": fit_pl + [str(values), "--bandwidth", "1e-170"],
        "fit-pl bandwidth 1e-320": fit_pl + [str(values), "--bandwidth", "1e-320"],
        "fit-pl bandwidth 5e-324": fit_pl + [str(values), "--bandwidth", "5e-324"],
        "fit-pl density overflow": fit_pl + [str(huge), "--bandwidth", "1e299"],
        "fit-pl sem overflow": fit_pl + [str(wide), "--bandwidth", "1e140", "--out",
                                         str(tmp_path / "pl.json")],
        "simulate alpha nan": simulate + ["--fwhm", "30", "--alpha", "nan"],
        "simulate beta inf": simulate + ["--fwhm", "30", "--beta", "inf"],
        "simulate b overflow": simulate + ["--fwhm", "30", "--b", "0,0,1e308"],
        "simulate alpha overflow": simulate + ["--fwhm", "30", "--alpha", "1e306"],
        "stats bin-width nan": stats + ["nan"],
        "stats bin-width inf": stats + ["inf"],
        "stats bin-width 1e-12": stats + ["1e-12"],
        "stats bin-width 1e-300": stats + ["1e-300"],
        "stats sem overflow": ["stats", "--values", str(huge), "--out", str(out),
                               "--bin-width", "1e299"],
        "synth noise nan": synth + ["--fwhm", "30", "--noise", "nan"],
        "synth fwhm nan": synth + ["--fwhm", "nan"],
        "synth jitter-aple nan": synth + ["--fwhm", "30", "--jitter-aple", "nan"],
        "synth jitter-aple negative": synth + ["--fwhm", "30", "--jitter-aple", "-5"],
        "synth jitter-alpha inf": synth + ["--fwhm", "30", "--jitter-alpha", "inf"],
        "synth jitter-offset nan": synth + ["--fwhm", "30", "--jitter-offset", "nan"],
        "synth n negative": synth + ["--fwhm", "30", "--n", "-3"],
        "synth n zero": synth + ["--fwhm", "30", "--n", "0"],
        "synth seed negative": synth + ["--fwhm", "30", "--seed", "-1"],
        "simulate grid max inf": ["simulate", "117Sn", "--fwhm", "30", "--grid", "0:inf:1",
                                  "--out", str(out)],
        "simulate grid step nan": ["simulate", "117Sn", "--fwhm", "30", "--grid", "0:1:nan",
                                   "--out", str(out)],
        "simulate grid too many points": ["simulate", "117Sn", "--fwhm", "30", "--grid",
                                          "0:1e12:1", "--out", str(out)],
        "stats aple-exp nan": ["stats", "--aple-exp", "73Ge=nan", "--out", str(out)],
        "stats aple-exp inf": ["stats", "--aple-exp", "73Ge=inf", "--out", str(out)],
        "stats aple-exp text": ["stats", "--aple-exp", "73Ge=abc", "--out", str(out)],
        "stats counts text": ["stats", "--counts", "1,2,3,x", "--out", str(out)],
        "fit zero-width start": ["fit", "--trace", str(trace), "--model", "single",
                                 "--init", zero_width, "--out", str(out)],
        "fit batch full model": ["fit", "--batch", str(trace), "--model", "full",
                                 "--out", str(out)],
        "fit batch no match": ["fit", "--batch", str(tmp_path / "none*.csv"), "--model",
                               "single", "--out", str(out)],
        "fit full no emitter": ["fit", "--trace", str(trace), "--model", "full",
                                "--out", str(out)],
        "fit full no data": ["fit", "--emitter", "117Sn", "--model", "full", "--out", str(out)],
        "fit-pl no input": ["fit-pl", "--bandwidth", "1", "--kde-out", str(out)],
    }[case]
    return argv, [out, tmp_path / "traces", tmp_path / "pl.json"]


@pytest.mark.parametrize("case, message", [
    ("simulate fwhm nan", "fwhm must be positive and finite, got nan"),
    ("simulate fwhm inf", "fwhm must be positive and finite, got inf"),
    ("sweep-field fwhm nan", "fwhm must be positive and finite, got nan"),
    ("simulate fwhm 1e-155 on a line", "fwhm 1e-155 is too small: 1/(fwhm/2)^2 overflows"),
    ("simulate fwhm 1e-320 on a line", "fwhm 1e-320 is too small: 1/(fwhm/2)^2 overflows"),
    ("simulate fwhm 5e-324 on a line", "fwhm 5e-324 is too small: 1/(fwhm/2)^2 overflows"),
    ("fit-pl bandwidth nan", "bandwidth must be positive and finite, got nan"),
    ("fit-pl bandwidth inf", "bandwidth must be positive and finite, got inf"),
    ("fit-pl bandwidth 1e-170", "bandwidth 1e-170 is too small: 2 bandwidth^2 underflows to 0"),
    ("fit-pl bandwidth 1e-320", "bandwidth 1e-320 is too small: 2 bandwidth^2 underflows to 0"),
    ("fit-pl bandwidth 5e-324", "bandwidth 5e-324 is too small: 2 bandwidth^2 underflows to 0"),
    ("fit-pl density overflow", "kde density is not finite with bandwidth 1e+299"),
    ("fit-pl sem overflow", "the standard error of the mean of the values is not finite (inf)"),
    ("simulate alpha nan", "strain alpha_ghz must be finite, got nan"),
    ("simulate beta inf", "strain beta_ghz must be finite, got inf"),
    ("simulate b overflow", "gnd: the Hamiltonian is not finite at B = (0.0, 0.0, 1e+308) T, "
                            "alpha = 0.0 GHz, beta = 0.0 GHz: a term overflows the float range"),
    ("simulate alpha overflow", "gnd: the Hamiltonian is not finite at B = (0.0, 0.0, 0.0) T, "
                                "alpha = 1e+306 GHz, beta = 0.0 GHz: a term overflows the float "
                                "range"),
    ("stats bin-width nan", "bin_width must be positive and finite, got nan"),
    ("stats bin-width inf", "bin_width must be positive and finite, got inf"),
    ("stats bin-width 1e-12", "bin_width 1e-12 gives more than the 10000000 histogram bins "
                              "allowed over the values"),
    ("stats bin-width 1e-300", "bin_width 1e-300 gives more than the 10000000 histogram "
                               "bins allowed over the values"),
    ("stats sem overflow", "the standard error of the mean of the values is not finite (inf)"),
    ("synth noise nan", "noise_sigma must be >= 0 and finite, got nan"),
    ("synth fwhm nan", "fwhm must be positive and finite, got nan"),
    ("synth jitter-aple nan", "jitter_aple_mhz must be >= 0 and finite, got nan"),
    ("synth jitter-aple negative", "jitter_aple_mhz must be >= 0 and finite, got -5.0"),
    ("synth jitter-alpha inf", "jitter_alpha_ghz must be >= 0 and finite, got inf"),
    ("synth jitter-offset nan", "jitter_offset_mhz must be >= 0 and finite, got nan"),
    ("synth n negative", "n_emitters must be an integer >= 1, got -3"),
    ("synth n zero", "n_emitters must be an integer >= 1, got 0"),
    ("synth seed negative", "seed must be a non-negative integer, got -1"),
    ("simulate grid max inf", "grid max must be finite, got inf"),
    ("simulate grid step nan", "grid step must be finite, got nan"),
    ("simulate grid too many points", "grid spec '0:1e12:1' gives 1e+12 points, more than the "
                                      "10000000 allowed"),
    ("stats aple-exp nan", "--aple-exp needs LABEL=MHZ with a finite MHZ, got '73Ge=nan'"),
    ("stats aple-exp inf", "--aple-exp needs LABEL=MHZ with a finite MHZ, got '73Ge=inf'"),
    ("stats aple-exp text", "--aple-exp needs LABEL=MHZ with a finite MHZ, got '73Ge=abc'"),
    ("stats counts text", "--counts needs four integers 'a,b,c,d'"),
    ("fit zero-width start", "<tmp>/t.csv: the fit cannot start: its residual at the initial "
                             "parameters is not finite"),
    ("fit batch full model", "--batch supports --model single or triplet"),
    ("fit batch no match", "--batch matched no files: "),
    ("fit full no emitter", "--model full needs --emitter"),
    ("fit full no data", "--model full needs --trace or --map"),
    ("fit-pl no input", "fit-pl needs --values or --traces"),
])
def test_non_finite_inputs_are_refused_with_one_error_line(tmp_path, capsys, case, message):
    import warnings

    argv, outputs = _non_finite_case(tmp_path, case)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_cli(argv)
    err = capsys.readouterr().err.splitlines()
    assert code == 1
    assert len(err) == 1 and err[0].startswith(f"error: {message}".replace("<tmp>", str(tmp_path)))
    assert not any(p.exists() for p in outputs)


def test_the_narrowest_width_whose_peak_is_finite_still_writes_it(tmp_path):
    """120Sn has a line at 0 MHz, on a grid point: its peak is 2/(pi fwhm)."""
    out = tmp_path / "s.csv"
    assert run_cli(["simulate", "120Sn", "--fwhm", "1e-150", "--grid", "-10:10:1",
                    "--out", str(out)]) == 0
    assert "\n0,6.36619772e+149\n" in out.read_text()


# --- extreme values of every numeric flag ---

_EXTREMES = ["1e-320", "1e-170", "1e-160", "-0.0", "0", "1e300", "1e308", "-1e308", "nan",
             "inf", "-1", "5e-324"]
_SIMULATE = ["simulate", "117Sn", "--out", "{out}"]
_SWEEP_FIELD = ["sweep-field", "117Sn", "--b-range", "0:0.01:0.01", "--grid", "-10:10:1",
                "--out", "{out}"]
_SYNTH = ["synth", "117Sn", "--n", "2", "--grid", "-100:100:1", "--out-dir", "{out}",
          "--truth", "{out}.json"]
_TRIPLET = {"f_ch1": 0.0, "a_ple": -100.0, "delta": 30.0, "amplitude": 1.0, "baseline": 0.0}
# Each numeric flag as an argv whose "{v}" takes the value, "{out}" an output
# path, "{trace}", "{map}" and "{values}" the inputs of `_extreme_inputs`.
_FLAGS = {
    "simulate --fwhm": _SIMULATE + ["--grid", "-100:100:1", "--fwhm", "{v}"],
    "simulate --alpha": _SIMULATE + ["--grid", "-100:100:1", "--fwhm", "30", "--alpha", "{v}"],
    "simulate --beta": _SIMULATE + ["--grid", "-100:100:1", "--fwhm", "30", "--beta", "{v}"],
    "simulate --b": _SIMULATE + ["--grid", "-100:100:1", "--fwhm", "30", "--b", "0.01,0,{v}"],
    "simulate grid step": _SIMULATE + ["--grid", "-100:100:{v}", "--fwhm", "30"],
    "sweep-strain --alphas end": ["sweep-strain", "117Sn", "--alphas", "0:{v}:10",
                                  "--out", "{out}"],
    "sweep-field --fwhm": _SWEEP_FIELD + ["--fwhm", "{v}"],
    "sweep-field --direction": _SWEEP_FIELD + ["--fwhm", "30", "--direction", "{v},0,1"],
    "fit triplet init fwhm": ["fit", "--trace", "{trace}", "--model", "triplet",
                              "--init", {**_TRIPLET, "fwhm": "{v}"}, "--out", "{out}"],
    "fit full init fwhm": ["fit", "--trace", "{trace}", "--model", "full", "--emitter", "117Sn",
                           "--init", {"fwhm": "{v}"}, "--out", "{out}"],
    "fit map init a_ple_scale": ["fit", "--map", "{map}", "--model", "full", "--emitter",
                                 "117Sn", "--init", {"a_ple_scale": "{v}"}, "--out", "{out}"],
    "fit-pl --bandwidth": ["fit-pl", "--values", "{values}", "--kde-out", "{out}",
                           "--bandwidth", "{v}"],
    "stats --bin-width": ["stats", "--values", "{values}", "--out", "{out}", "--bin-width",
                          "{v}"],
    "stats --aple-exp": ["stats", "--aple-exp", "73Ge={v}", "--out", "{out}"],
    "synth --fwhm": _SYNTH + ["--fwhm", "{v}"],
    "synth --noise": _SYNTH + ["--fwhm", "30", "--noise", "{v}"],
    "synth --aple-scale": _SYNTH + ["--fwhm", "30", "--aple-scale", "{v}"],
    "synth --jitter-alpha": _SYNTH + ["--fwhm", "30", "--jitter-alpha", "{v}"],
}


@pytest.fixture(scope="module")
def _extreme_inputs(tmp_path_factory):
    """A ¹¹⁷Sn trace, a two-row ¹¹⁷Sn field map and a values file."""
    from g4vspec.hamiltonian import registry_lookup
    from g4vspec.spectrum import synth_spectrum, transitions

    where = tmp_path_factory.mktemp("extreme_inputs")
    grid = np.arange(-300.0, 300.0, 6.0)
    trace = synth_spectrum(transitions(registry_lookup("117Sn")), 40.0, grid)
    dataio.write_spectrum_csv(where / "t.csv", SpectrumTrace(grid, trace.signal))
    dataio.write_values_csv(where / "v.csv", [1.0, 2.0, 4.0])
    return {"trace": where / "t.csv", "map": _small_map(where), "values": where / "v.csv"}


@pytest.mark.parametrize("value", _EXTREMES)
@pytest.mark.parametrize("flag", list(_FLAGS))
def test_every_numeric_flag_takes_an_extreme_value_without_a_traceback(
        tmp_path, capsys, _extreme_inputs, flag, value):
    """Exit 0, 1 or 2, with no exception and no warning; an exit 1 prints
    one error line, or the usage."""
    import warnings

    names = {key: str(path) for key, path in _extreme_inputs.items()}
    names.update(v=value, out=str(tmp_path / "out"))
    argv = [json.dumps({k: float(v.format(**names)) if isinstance(v, str) else v
                        for k, v in a.items()}) if isinstance(a, dict) else a.format(**names)
            for a in _FLAGS[flag]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_cli(argv)
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    if code == 1:
        lines = err.splitlines()
        assert (len(lines) == 1 and lines[0].startswith("error: ")) or "usage: g4vspec" in err, err
