"""Golden regression: line tables and one field-map fit recorded before the
operator-caching refactor, and the peak-fit reports recorded before the
fitters shared one scaffold (tests/data/record_golden_tables.py), must come
out the same from the current code.  The field-map fit was re-recorded when
its Jacobian became analytic, and the tables and that fit when the
coupling-free C line came to be taken from the spin-neutral (4x4) emitter,
and again when real points (B_y = 0, beta = 0) came to be solved in
float64; the tables of complex points were left unchanged by that one.  The
mixed-kind fit (a field off the x-z plane and a B = 0 row) was added, its
existing sections unchanged, before a stack of each kind of point came to
be kept whole from the solve to the line slopes.  It alone was re-recorded
when field sweeps, which make its data, came to be solved in the real
frame, and again when the fit came to solve its rows in that frame, so
that its stacks hold real points only."""
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from g4vspec import registry_labels, registry_lookup
from g4vspec.spectrum import merge_lines, transitions

from conftest import central_difference, solve_inputs

DATA = Path(__file__).resolve().parent / "data"
FREQ_TOL_MHZ = 1e-9
INTENSITY_TOL = 1e-12


def _recorder():
    spec = importlib.util.spec_from_file_location("record_golden_tables",
                                                  DATA / "record_golden_tables.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


GOLDEN = json.loads((DATA / "golden_tables.json").read_text(encoding="utf-8"))


def test_golden_covers_every_registry_isotope():
    assert {t["isotope"] for t in GOLDEN["tables"]} == set(registry_labels())
    assert len(GOLDEN["tables"]) == 4 * len(registry_labels())


@pytest.mark.parametrize("case", GOLDEN["tables"],
                         ids=[f"{c['isotope']}-point{k % 4}" for k, c in enumerate(GOLDEN["tables"])])
def test_merged_table_matches_golden(case):
    table = transitions(registry_lookup(case["isotope"]), tuple(case["b_tesla"]),
                        alpha_ghz=case["alpha_ghz"], beta_ghz=case["beta_ghz"])
    freq, inten = merge_lines(table)
    assert freq.shape == (len(case["freq_mhz"]),)
    assert np.abs(freq - case["freq_mhz"]).max() <= FREQ_TOL_MHZ
    assert np.abs(inten - case["intensity"]).max() <= INTENSITY_TOL
    if case["b_tesla"][1] != 0.0 or case["beta_ghz"] != 0.0:
        # A complex point (B_y or beta not 0) has kept, bit for bit, the
        # complex128 arithmetic of the code that recorded its table.
        assert freq.tolist() == case["freq_mhz"] and inten.tolist() == case["intensity"]


def test_field_map_fit_matches_golden():
    """Both fits, the one in the x-z plane and the one off it, whose rows
    are solved in the real frame, bit for bit."""
    for want, report in ((GOLDEN["fit"], GOLDEN["peak_fits"]["field_map_fit"]),
                         (GOLDEN["mixed_fit"], GOLDEN["mixed_fit"]["report"])):
        res = _recorder().run_fit(want)
        assert res.converged == want["converged"]
        assert res.n_iterations == want["n_iterations"]
        assert {k: float(v) for k, v in res.params.items()} == want["params"]
        assert res.as_report() == report  # std_errs and rms too


def test_field_map_fit_computes_each_table_once(calls, monkeypatch):
    from g4vspec import analysis, spectrum

    want = GOLDEN["fit"]
    base, data = _recorder().fit_data(want)
    solves = calls(spectrum, "solve_manifold")
    jacobian_solves = []
    real_core = analysis._levenberg_marquardt

    def core(*args, **kwargs):
        jac = kwargs["jac"]
        assert jac is not None  # the full model's Jacobian is analytic

        def flagged(*a):
            before = len(solves)
            try:
                return jac(*a)
            finally:
                jacobian_solves.append(len(solves) - before)

        return real_core(*args, **dict(kwargs, jac=flagged))

    monkeypatch.setattr(analysis, "_levenberg_marquardt", core)
    res = analysis.fit_full_model(data, tuple(want["free"]), base, init=dict(want["init"]))
    seen = [solve_inputs(c)[:4] for c in solves]
    assert seen and len(set(seen)) == len(seen)
    assert len({c[2] for c in seen}) == 1  # every solve is the stack of all map rows
    assert jacobian_solves and not any(jacobian_solves)  # no Jacobian solves anything
    assert res.n_iterations == want["n_iterations"]
    assert {k: float(v) for k, v in res.params.items()} == want["params"]


def test_field_map_fit_reports_the_condition_of_its_normal_matrix(calls):
    """cond(J^T J) at the optimum matches a central-difference Jacobian
    there, and stays out of the report."""
    from g4vspec import analysis

    want = GOLDEN["fit"]
    base, data = _recorder().fit_data(want)
    cores = calls(analysis, "_levenberg_marquardt")
    res = analysis.fit_full_model(data, tuple(want["free"]), base, init=dict(want["init"]))
    p = np.array([res.params[name] for name in want["free"]])
    j = np.column_stack([central_difference(cores[-1]["residual_fn"], p, col)
                         for col in range(p.size)])
    assert res.cond_jtj == pytest.approx(np.linalg.cond(j.T @ j), rel=1e-6)
    assert res.cond_jtj > 1.0
    assert "cond_jtj" not in json.dumps(res.as_report())
    assert res.as_report() == GOLDEN["peak_fits"]["field_map_fit"]


def test_recorder_reports_the_largest_change_of_each_section():
    changes = _recorder().changes
    assert changes(GOLDEN, GOLDEN) == [
        f"{name}: max |change| 0; max relative 0"
        for name in ("tables", "fit", "peak_fits", "peak_fits.fits", "peak_fits.field_map_fit",
                     "mixed_fit")]
    moved = json.loads(json.dumps(GOLDEN))
    moved["tables"][3]["freq_mhz"][1] += 0.5
    moved["fit"]["n_iterations"] += 1
    moved["peak_fits"]["fits"][0]["converged"] = not moved["peak_fits"]["fits"][0]["converged"]
    del moved["peak_fits"]["field_map_fit"]["seed"]
    old = GOLDEN["tables"][3]["freq_mhz"][1]
    lines = changes(GOLDEN, moved)
    assert lines[0] == (f"tables: max |change| 0.5 at tables.3.freq_mhz.1; "
                        f"max relative {0.5 / abs(old):.3g} at tables.3.freq_mhz.1")
    assert lines[1].startswith("fit: max |change| 1 at fit.n_iterations;")
    assert lines[3].endswith("; 1 other leaves changed, the first at peak_fits.fits.0.converged")
    assert lines[4].endswith(
        "; 1 other leaves changed, the first at peak_fits.field_map_fit.seed")


def test_recorder_check_writes_nothing_and_exits_1_when_a_leaf_moved(tmp_path, monkeypatch,
                                                                      capsys):
    """`--check` against the recorded file, and against one whose fit
    iteration count differs: the same change lines, exit 0 and 1, and the
    file untouched."""
    recorder = _recorder()
    moved = json.loads(json.dumps(GOLDEN))
    moved["fit"]["n_iterations"] += 1
    out = tmp_path / "golden_tables.json"
    monkeypatch.setattr(recorder, "OUT", out)
    for doc, code, verdict in ((GOLDEN, 0, "unchanged"), (moved, 1, "changed")):
        out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        written = out.read_bytes()
        assert recorder.main(["--check"]) == code
        assert out.read_bytes() == written
        lines = capsys.readouterr().out.splitlines()
        assert lines[1:-1] == ["  " + line for line in recorder.changes(doc, GOLDEN)]
        assert lines[-1] == f"golden_tables.json is {verdict}"


def test_peak_fits_match_golden():
    want = GOLDEN["peak_fits"]
    got = _recorder().peak_fit_reports(want)
    assert len(got) == len(want["fits"])
    for k, (g, w) in enumerate(zip(got, want["fits"])):
        assert g == w, f"peak fit {k} ({w['model']})"
