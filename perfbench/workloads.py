"""The three benchmark workloads: input generators, the timed operation,
and the correctness gates applied to every operation's output.

Each workload is built from a seed and a scratch directory.
``prepare(i)`` makes the inputs of operation ``i`` (untimed);
``op(i, data, timed)`` runs it, passing each part the benchmark times on
its own -- one fit or one CLI command -- through ``timed``;
``check(i, out)`` returns ``(attempted, failed, messages)`` for that
operation.  Goldens recorded at the commit that
introduced the benchmark are checked only for ``DEFAULT_SEED``; the
truth gates run for every seed.
"""
import dataclasses
import json
import math
from pathlib import Path

import numpy as np

import g4vspec
from g4vspec import analysis, cli, dataio, spectrum

DEFAULT_SEED = 0
GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"

# Frequency tolerance (MHz) and intensity tolerance for tables compared
# after merge_lines; CSV values carry 9 significant digits on top.
FREQ_TOL_MHZ = 1e-9
INTENSITY_TOL = 1e-12
CSV_REL_TOL = 1e-8
GOLDEN_REL_TOL = 1e-6


def _close(got, want, abs_tol, rel_tol=0.0):
    return abs(got - want) <= abs_tol + rel_tol * abs(want)


def untimed(key, fn, *args, **kwargs):
    """The ``timed`` argument of ``op`` when nothing is measured."""
    return fn(*args, **kwargs)


def load_golden(name):
    path = GOLDEN_DIR / f"{name}.json"
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


class GeMapFit:
    """Python-API full-Hamiltonian fit of a 73Ge field map shaped like C8b.

    7 rows from 0 to 0.15 T along a direction 33 degrees off the axis,
    a 200-point grid, free parameters a_ple_scale, fwhm and amplitude.
    Operation i fits a fresh noise draw, so the table inputs of one fit
    are never reused by the next.  Noise is 5% of the row maximum: at
    C8b's 10% one draw in 60 put fwhm 12% from the truth, outside the
    10% gate, which is estimator spread rather than a program fault.
    """

    name = "ge_map_fit"
    isotopes = ("73Ge",)
    free = ("a_ple_scale", "fwhm", "amplitude")
    truth_aple_mhz = 12.5
    truth_fwhm = 72.0
    noise = 0.05
    tolerance = 0.10  # C8b

    def __init__(self, seed, work_dir=None, use_goldens=True):
        self.seed = int(seed)
        self.base = g4vspec.registry_lookup("73Ge")
        gen = self.base.scaled_hyperfine(self.truth_aple_mhz / abs(g4vspec.a_ple(self.base)))
        theta = math.radians(33.0)
        direction = (math.sin(theta), 0.0, math.cos(theta))
        fields = np.arange(0.0, 0.151, 0.025)
        grid = np.arange(-300.0, 300.0, 3.0)
        self.clean = g4vspec.sweep_field(gen, direction, fields, self.truth_fwhm, grid)
        use_goldens = use_goldens and self.seed == DEFAULT_SEED
        self.golden = load_golden(self.name)["fits"] if use_goldens else []

    def dataset(self, i):
        rng = np.random.Generator(np.random.PCG64([self.seed, i]))
        return [
            g4vspec.SpectrumTrace(
                freq_mhz=t.freq_mhz,
                signal=t.signal + rng.normal(0.0, self.noise * t.signal.max(), t.signal.size),
                meta=dict(t.meta),
            )
            for t in self.clean
        ]

    def prepare(self, i):
        return self.dataset(i)

    def op(self, i, data, timed=untimed):
        return timed("fit", analysis.fit_full_model, data, self.free, self.base,
                     init={"a_ple_scale": 1.0, "fwhm": 55.0}, seed=i)

    def check(self, i, res):
        msgs = []
        err_aple = abs(abs(res.params["a_ple_mhz"]) / self.truth_aple_mhz - 1.0)
        err_fwhm = abs(res.params["fwhm"] / self.truth_fwhm - 1.0)
        if not res.converged:
            msgs.append(f"fit {i}: not converged")
        if err_aple > self.tolerance or err_fwhm > self.tolerance:
            msgs.append(f"fit {i}: |a_ple| error {err_aple:.3f}, fwhm error {err_fwhm:.3f}")
        if i < len(self.golden):
            want = self.golden[i]
            for key in ("a_ple_scale", "fwhm", "amplitude", "a_ple_mhz"):
                if not _close(res.params[key], want[key], 0.0, GOLDEN_REL_TOL):
                    msgs.append(f"fit {i}: {key} {res.params[key]!r} != golden {want[key]!r}")
        return 1, int(bool(msgs)), msgs

    def record(self, res):
        out = {k: float(res.params[k]) for k in ("a_ple_scale", "fwhm", "amplitude", "a_ple_mhz")}
        out["n_iterations"] = int(res.n_iterations)
        return out


class SnEnsembleCli:
    """``g4vspec fit --batch`` over a seeded 119Sn ensemble, then ``stats``.

    200 traces of 401 points with 5% noise, +-40 MHz jitter on |a_ple| and
    55 GHz strain so the 2:1:1 triplet is resolved.  The ensemble is fitted
    as 20 batches of 10 traces (``emitter_000?.csv``, ``emitter_001?.csv``,
    ...), each batch one timed part, so that no part is long compared with
    the machine's slow phases; ``stats`` then runs on the joined batch
    summaries.  Each trace's fitted |a_ple| must lie within C8a's 2% of the
    truth table.
    """

    name = "sn_ensemble_cli"
    isotopes = ("119Sn",)
    n_traces = 200
    tolerance = 0.02  # C8a

    def __init__(self, seed, work_dir, n_traces=None):
        self.seed = int(seed)
        if n_traces is not None:
            self.n_traces = int(n_traces)
        self.dir = Path(work_dir)
        emitter = dataclasses.replace(g4vspec.registry_lookup("119Sn"), strain_alpha_ghz=55.0)
        self.truth = dataio.synth_dataset(
            emitter, self.dir / "data", n_emitters=self.n_traces, seed=self.seed,
            noise_sigma=0.05, fwhm_mhz=35.0, grid=dataio.parse_grid("-500:1100:4"),
            truth_path=self.dir / "truth.json", a_ple_scale=1.3409, jitter_aple_mhz=40.0,
        )
        # Files are numbered emitter_0000.csv, ...: all but the last digit
        # name a batch of ten.
        prefixes = sorted({entry["file"][:-5] for entry in self.truth["entries"]})
        self.batches = [(str(self.dir / "data" / f"{pre}?.csv"), self.dir / f"batch_{pre}.json",
                         self.dir / f"summary_{pre}.csv") for pre in prefixes]
        self.summary = self.dir / "summary.csv"
        self.stats = self.dir / "stats.json"

    def prepare(self, i):
        return None

    def _join_summaries(self):
        lines = []
        for _, _, summary in self.batches:
            with open(summary, "r", encoding="utf-8") as fh:
                rows = fh.read().splitlines()
            lines += rows if not lines else rows[1:]
        with open(self.summary, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")

    def op(self, i, _, timed=untimed):
        codes = [timed(f"fit {pattern}", cli.run_cli,
                       ["fit", "--batch", pattern, "--model", "triplet", "--out", str(report),
                        "--summary-out", str(summary)])
                 for pattern, report, summary in self.batches]
        self._join_summaries()
        codes.append(timed("stats", cli.run_cli,
                           ["stats", "--values", str(self.summary), "--column", "a_ple_mhz",
                            "--bin-width", "25", "--out", str(self.stats)]))
        return codes

    def check(self, i, codes):
        n_commands = len(codes)
        names = [f"fit {pattern}" for pattern, _, _ in self.batches] + ["stats"]
        msgs = [f"{name} exited {c}" for name, c in zip(names, codes) if c != 0]
        failed = len(msgs)
        try:
            docs = {}
            for _, report, _ in self.batches:
                with open(report, "r", encoding="utf-8") as fh:
                    docs.update((d["label"], d["report"]) for d in json.load(fh))
            with open(self.stats, "r", encoding="utf-8") as fh:
                ensemble = json.load(fh)["ensemble"]
        except (OSError, ValueError, KeyError) as exc:
            return n_commands + self.n_traces, n_commands + self.n_traces, [
                f"unreadable output: {exc}"]
        fitted = []
        for entry in self.truth["entries"]:
            label = entry["file"][:-4]
            rep = docs.get(label)
            truth = abs(entry["a_ple_mhz"])
            got = abs(rep["params"]["a_ple"]) if rep else float("nan")
            fitted.append(got)
            if rep is None or not rep["converged"] or not abs(got / truth - 1.0) <= self.tolerance:
                failed += 1
                msgs.append(f"{label}: |a_ple| {got:.3f} vs truth {truth:.3f}")
        if ensemble["n"] != self.n_traces or not _close(ensemble["mean"], float(np.mean(fitted)),
                                                        0.0, CSV_REL_TOL):
            if codes[-1] == 0:
                failed += 1
            msgs.append(f"stats: n={ensemble['n']} mean={ensemble['mean']!r}")
        return n_commands + self.n_traces, failed, msgs


class ForwardCli:
    """Forward CLI sweeps written to files; no field row or strain point repeats.

    ``sweep-field 73Ge`` (31 rows x 2401 points), ``sweep-strain 117Sn
    --alphas 0:255:1`` (256 points at 8x8) and one ``simulate
    --diagram-out``, each command one timed part.  Operation ``i`` draws
    its field direction, line width, simulate field and 117Sn transverse
    strain beta from ``(seed, i)``, so no table is computed twice across
    operations either (save the zero-field row); the amount of work does
    not depend on the draw.
    """

    name = "forward_cli"
    isotopes = ("73Ge", "117Sn")
    map_stride = 40

    def __init__(self, seed, work_dir, use_goldens=True):
        self.seed = int(seed)
        self.dir = Path(work_dir)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.emitter_file = self.dir / "sn117.json"
        self.out = {k: self.dir / f for k, f in
                    (("map", "map.csv"), ("levels", "levels.csv"), ("spectrum", "sim.csv"),
                     ("diagram", "diagram.json"))}
        use_goldens = use_goldens and self.seed == DEFAULT_SEED
        self.golden = load_golden(self.name) if use_goldens else None

    def commands(self, i):
        """The argv of operation i's three commands and its 117Sn beta."""
        rng = np.random.Generator(np.random.PCG64([self.seed, i]))
        theta = math.radians(rng.uniform(20.0, 45.0))
        phi = math.radians(rng.uniform(0.0, 90.0))
        direction = (math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi),
                     math.cos(theta))
        fwhm = float(rng.uniform(20.0, 35.0))
        b_sim = float(rng.uniform(0.02, 0.15))
        beta = float(rng.uniform(0.0, 10.0))
        dir_s = ",".join(repr(c) for c in direction)
        b_s = ",".join(repr(b_sim * c) for c in direction)
        argv = (
            ["sweep-field", "73Ge", "--direction", dir_s, "--b-range", "0:0.15:0.005",
             "--fwhm", repr(fwhm), "--grid", "-300:300:0.25", "--out", str(self.out["map"])],
            ["sweep-strain", str(self.emitter_file), "--alphas", "0:255:1",
             "--out", str(self.out["levels"])],
            ["simulate", "73Ge", "--b", b_s, "--fwhm", repr(fwhm), "--grid", "-300:300:0.25",
             "--out", str(self.out["spectrum"]), "--diagram-out", str(self.out["diagram"])],
        )
        return argv, beta

    def prepare(self, i):
        argv, beta = self.commands(i)
        dataio.write_json(self.emitter_file, {"isotope": "117Sn", "strain_beta_ghz": beta})
        return argv

    def op(self, i, argv, timed=untimed):
        return tuple(timed(a[0], cli.run_cli, a) for a in argv)

    # -- outputs ---------------------------------------------------------------

    def _read_csv(self, key):
        """Data rows of a CSV output as a float array (header skipped)."""
        with open(self.out[key], "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        return np.array([[float(c) for c in ln.split(",")] for ln in lines[1:]])

    def _diagram(self):
        with open(self.out["diagram"], "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        lines = doc["lines"]
        table = spectrum.TransitionTable(
            freq_mhz=np.array([ln["freq_mhz"] for ln in lines]),
            intensity=np.array([ln["intensity"] for ln in lines]),
            gnd_index=np.array([ln["gnd_index"] for ln in lines], dtype=int),
            exc_index=np.array([ln["exc_index"] for ln in lines], dtype=int),
            jsq_gnd=np.array([ln["jsq_gnd"] for ln in lines]),
            jsq_exc=np.array([ln["jsq_exc"] for ln in lines]),
        )
        freq, inten = spectrum.merge_lines(table)
        return doc, freq, inten

    def outputs(self):
        """Parsed outputs in the form the goldens store."""
        grid = self._read_csv("map")
        levels = self._read_csv("levels")
        doc, freq, inten = self._diagram()
        n_grid = int(np.sum(grid[:, 0] == grid[0, 0]))
        rows = grid[:, 2].reshape(-1, n_grid)
        return {
            "map_shape": list(rows.shape),
            "map_b_tesla": [float(v) for v in grid[::n_grid, 0]],
            "map_sample": [[float(v) for v in r[:: self.map_stride]] for r in rows],
            "levels": [[float(v) for v in row] for row in levels],
            "gnd_levels_mhz": doc["gnd_levels_mhz"],
            "exc_levels_mhz": doc["exc_levels_mhz"],
            "diagram_freq_mhz": [float(v) for v in freq],
            "diagram_intensity": [float(v) for v in inten],
        }

    def _check_truth(self, got):
        """Checks that hold for every seed."""
        msgs = []
        if got["map_shape"] != [31, 2401]:
            msgs.append(f"map shape {got['map_shape']}")
        if not np.allclose(got["map_b_tesla"], np.arange(31) * 0.005, rtol=0, atol=1e-12):
            msgs.append("map field column differs from --b-range")
        levels = np.array(got["levels"])
        if levels.shape != (256 * 4, 4):
            msgs.append(f"levels shape {levels.shape}")
        else:
            # Levels are relative to their mean at each strain point.
            sums = levels[:, 2].reshape(256, 4).sum(axis=1)
            scale = np.abs(levels[:, 2]).max()
            if np.abs(sums).max() > 1e-7 * scale:
                msgs.append(f"levels do not sum to zero: {np.abs(sums).max():.3g}")
        for key in ("gnd_levels_mhz", "exc_levels_mhz"):
            if abs(sum(got[key])) > 1e-7 * max(abs(v) for v in got[key]):
                msgs.append(f"{key} do not sum to zero")
        return msgs

    def _check_golden(self, got):
        msgs = []
        want = self.golden
        if got["map_shape"] != want["map_shape"]:
            return [f"map shape {got['map_shape']} != golden {want['map_shape']}"]
        for r, (gr, wr) in enumerate(zip(got["map_sample"], want["map_sample"])):
            bad = [k for k, (g, w) in enumerate(zip(gr, wr))
                   if not _close(g, w, INTENSITY_TOL, CSV_REL_TOL)]
            if bad:
                msgs.append(f"map row {r}: {len(bad)} sampled values differ from golden")
        if len(got["levels"]) != len(want["levels"]):
            msgs.append("levels: row count differs from golden")
        else:
            for g_row, w_row in zip(got["levels"], want["levels"]):
                if not all(_close(g, w, FREQ_TOL_MHZ, CSV_REL_TOL) for g, w in zip(g_row, w_row)):
                    msgs.append(f"levels: row {g_row} != golden {w_row}")
                    break
        for key in ("gnd_levels_mhz", "exc_levels_mhz", "diagram_freq_mhz"):
            if len(got[key]) != len(want[key]) or not all(
                    _close(g, w, FREQ_TOL_MHZ) for g, w in zip(got[key], want[key])):
                msgs.append(f"{key} differ from golden")
        if len(got["diagram_intensity"]) != len(want["diagram_intensity"]) or not all(
                _close(g, w, INTENSITY_TOL)
                for g, w in zip(got["diagram_intensity"], want["diagram_intensity"])):
            msgs.append("diagram_intensity differ from golden")
        return msgs

    def check(self, i, codes):
        """One failure per command whose exit code or output is wrong.

        Output messages start with the file they concern: map (from
        sweep-field), levels (sweep-strain), or the simulate outputs.
        Goldens are compared for operation 0 only.
        """
        names = ("sweep-field", "sweep-strain", "simulate")
        bad = {k for k, c in enumerate(codes) if c != 0}
        msgs = [f"{names[k]} exited {codes[k]}" for k in sorted(bad)]
        if bad:
            return len(codes), len(bad), msgs
        got = self.outputs()
        out_msgs = self._check_truth(got)
        if self.golden is not None and i == 0:
            out_msgs += self._check_golden(got)
        for m in out_msgs:
            bad.add(0 if m.startswith("map") else 1 if m.startswith("levels") else 2)
        return len(codes), len(bad), msgs + out_msgs


WORKLOADS = {cls.name: cls for cls in (GeMapFit, SnEnsembleCli, ForwardCli)}
