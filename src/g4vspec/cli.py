"""Command-line interface.

Subcommands: simulate, sweep-strain, sweep-field, aple, fit, fit-pl,
stats, synth.  Exit code 0 on success, 1 on validation errors, 2 when a
fit does not converge.  Every command is deterministic given its
arguments, input files and seed.
"""
import argparse
import functools
import json
import re
import sys

import numpy as np

from . import analysis, dataio
from .hamiltonian import a_parallel, a_perp, a_ple, registry_lookup
from .spectrum import _diagram, _solve_transitions, sweep_field, sweep_strain, synth_spectrum

__all__ = ["run_cli", "main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; the CLI contract wants usage + 1.
    # Values like '-200:200:0.5' must parse as arguments, not flags.
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d")

    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}\n{self.format_usage()}")


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built once per process.  Reuse is safe:
    every parse_args call fills a fresh namespace and the 'append' action
    copies its default list before appending."""
    parser = _Parser(prog="g4vspec", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_emitter(p):
        p.add_argument("emitter", help="registry label (e.g. 117Sn) or emitter JSON file")

    p = sub.add_parser("simulate", help="synthesize one spectrum to CSV")
    add_emitter(p)
    p.add_argument("--b", default="0", help="field, Tesla: 'bz' or 'bx,by,bz'")
    p.add_argument("--fwhm", type=float, required=True, help="Lorentzian FWHM, MHz")
    p.add_argument("--grid", required=True, help="frequency grid 'min:max:step', MHz")
    p.add_argument("--alpha", type=float, default=None, help="strain alpha override, GHz")
    p.add_argument("--beta", type=float, default=None, help="strain beta override, GHz")
    p.add_argument("--out", required=True)
    p.add_argument("--diagram-out", default=None,
                   help="also write a transition-diagram JSON here")

    p = sub.add_parser("sweep-strain", help="lower-branch levels vs strain to CSV")
    add_emitter(p)
    p.add_argument("--manifold", choices=("gnd", "exc"), default="gnd")
    p.add_argument("--alphas", required=True, help="strain grid 'min:max:step', GHz")
    p.add_argument("--out", required=True)

    p = sub.add_parser("sweep-field", help="spectral map vs field magnitude to CSV")
    add_emitter(p)
    p.add_argument("--direction", default="0,0,1", help="unit field direction 'x,y,z'")
    p.add_argument("--b-range", required=True, help="field magnitudes 'min:max:step', Tesla")
    p.add_argument("--fwhm", type=float, required=True)
    p.add_argument("--grid", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("aple", help="print the optical hyperfine spacing")
    add_emitter(p)

    p = sub.add_parser("fit", help="fit a trace, a field map, or a batch of traces")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--trace", default=None, help="spectrum CSV (freq_mhz,intensity)")
    source.add_argument("--map", dest="map_path", default=None,
                        help="field-map CSV (b_tesla,freq_mhz,intensity)")
    source.add_argument("--batch", default=None,
                        help="glob of spectrum CSVs; writes a report array and, with "
                             "--summary-out, a per-emitter CSV summary")
    p.add_argument("--model", choices=("single", "triplet", "full"), required=True)
    p.add_argument("--emitter", default=None, help="required for --model full")
    p.add_argument("--direction", default="0,0,1", help="field direction for --map")
    p.add_argument("--free", default="a_ple_scale,fwhm,amplitude",
                   help="full model: comma list from " + ",".join(analysis.FULL_MODEL_FREE))
    p.add_argument("--init", default=None, help="JSON dict of initial guesses")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--summary-out", default=None, help="batch summary CSV path")
    p.add_argument("--out", required=True)

    p = sub.add_parser("fit-pl", help="Gaussian fits of traces or raw centers + KDE CSV")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--values", default=None, help="CSV of center values (single column)")
    source.add_argument("--traces", nargs="*", default=None, help="spectrum CSVs to fit")
    p.add_argument("--bandwidth", type=float, required=True, help="KDE bandwidth")
    p.add_argument("--kde-out", required=True)
    p.add_argument("--out", default=None, help="report JSON")

    p = sub.add_parser("stats", help="ensemble statistics, contingency test, model-vs-"
                                     "measured hyperfine comparison")
    p.add_argument("--values", default=None, help="CSV of values")
    p.add_argument("--column", default=None, help="column name in --values")
    p.add_argument("--bin-width", type=float, default=10.0)
    p.add_argument("--counts", default=None,
                   help="2x2 contingency counts 'a,b,c,d' = (with/without) x 2 groups")
    p.add_argument("--aple-exp", action="append", default=[],
                   metavar="LABEL=MHZ",
                   help="measured spacing to compare, repeatable; the discrepancy is "
                        "|model - measured| in percent of the larger magnitude")
    p.add_argument("--out", required=True)

    p = sub.add_parser("synth", help="seeded synthetic dataset (traces + truth table)")
    add_emitter(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise", type=float, default=0.0, help="sigma as fraction of max signal")
    p.add_argument("--fwhm", type=float, required=True)
    p.add_argument("--grid", required=True)
    p.add_argument("--b", default="0")
    p.add_argument("--aple-scale", type=float, default=1.0)
    p.add_argument("--jitter-aple", type=float, default=0.0, help="s.d. of |a_ple| jitter, MHz")
    p.add_argument("--jitter-alpha", type=float, default=0.0, help="s.d. of alpha jitter, GHz")
    p.add_argument("--jitter-offset", type=float, default=0.0, help="s.d. of offset, MHz")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--truth", required=True)
    return parser


def _cmd_simulate(args) -> int:
    emitter = dataio.load_emitter(args.emitter)
    # One solve serves both the spectrum and the diagram.
    solved = _solve_transitions(emitter, [dataio.parse_field(args.b)], args.alpha, args.beta)
    [table], _ = solved
    trace = synth_spectrum(table, args.fwhm, dataio.parse_grid(args.grid))
    dataio.write_spectrum_csv(args.out, trace)
    if args.diagram_out:
        dataio.write_json(args.diagram_out, _diagram(solved))
    print(f"wrote {args.out} ({len(trace.freq_mhz)} points, {len(table)} lines)")
    return 0


def _cmd_sweep_strain(args) -> int:
    emitter = dataio.load_emitter(args.emitter)
    sweep = sweep_strain(emitter, args.manifold, dataio.parse_grid(args.alphas))
    dataio.write_levels_csv(args.out, sweep)
    print(f"wrote {args.out} ({sweep.levels.shape[0]} strain points, "
          f"{sweep.levels.shape[1]} levels)")
    return 0


def _cmd_sweep_field(args) -> int:
    emitter = dataio.load_emitter(args.emitter)
    traces = sweep_field(emitter, dataio.parse_direction(args.direction),
                         dataio.parse_grid(args.b_range),
                         args.fwhm, dataio.parse_grid(args.grid))
    dataio.write_map_csv(args.out, traces)
    print(f"wrote {args.out} ({len(traces)} field rows)")
    return 0


def _cmd_aple(args) -> int:
    emitter = dataio.load_emitter(args.emitter)
    print(dataio.fmt(a_ple(emitter)))
    for name in ("gnd", "exc"):
        p = emitter.manifold(name)
        print(f"{name}: A_par = {dataio.fmt(a_parallel(p))} MHz, "
              f"A_perp = {dataio.fmt(a_perp(p))} MHz")
    return 0


def _parse_init(spec):
    """The --init JSON, or None; analysis checks its names and values."""
    if not spec:
        return None
    try:
        return json.loads(spec)
    except json.JSONDecodeError as exc:
        raise ValueError(f"--init is not valid JSON: {exc}") from None


def _fit_files(paths, fit):
    """fit(traces) over the traces of paths, in their order; an error of one
    trace's fit names its file."""
    traces = [dataio.ingest_csv(path) for path in paths]
    try:
        return fit(traces)
    except analysis.TraceError as exc:
        raise ValueError(f"{paths[exc.index]}: {exc}") from None


def _cmd_fit_batch(args) -> int:
    import glob
    import os

    if args.model not in ("single", "triplet"):
        raise ValueError("--batch supports --model single or triplet")
    paths = sorted(glob.glob(args.batch))
    if not paths:
        raise ValueError(f"--batch matched no files: {args.batch!r}")
    labels = [os.path.splitext(os.path.basename(path))[0] for path in paths]
    for path, label in zip(paths, labels):
        # The summary CSV is unquoted: such a label would shift its row.
        if args.summary_out and ("," in label or label.splitlines() != [label]):
            raise ValueError(f"{path}: --summary-out cannot label a row by a file name "
                             "holding a comma or a line break")
    model = "triplet211" if args.model == "triplet" else "single"
    init = _parse_init(args.init)
    fits = _fit_files(paths, lambda traces: analysis.fit_lorentzians(
        traces, model=model, init=init, seed=args.seed))
    reports = []
    summary = []  # one row per trace
    for label, res in zip(labels, fits):
        reports.append({"label": label, "report": res.as_report()})
        summary.append((label, args.model, abs(res.params.get("a_ple", float("nan"))),
                        res.params.get("delta", float("nan")), res.params["fwhm"],
                        res.residual_rms))
    dataio.write_json(args.out, reports)
    if args.summary_out:
        dataio._write_csv(
            args.summary_out,
            ("label", "model", "a_ple_mhz", "delta_mhz", "fwhm_mhz", "residual_rms"),
            zip(*summary), {"label": "%s", "model": "%s"},
        )
    print(f"wrote {args.out} ({len(reports)} fits)")
    return 0 if all(res.converged for res in fits) else 2


def _cmd_fit(args) -> int:
    if args.batch:
        return _cmd_fit_batch(args)
    init = _parse_init(args.init)
    if args.model in ("single", "triplet"):
        if not args.trace:
            raise ValueError(f"--model {args.model} needs --trace")
        model = "triplet211" if args.model == "triplet" else "single"
        result = _fit_files([args.trace], lambda traces: analysis.fit_lorentzians(
            traces[0], model=model, init=init, seed=args.seed))
    else:
        if not args.emitter:
            raise ValueError("--model full needs --emitter")
        emitter = dataio.load_emitter(args.emitter)
        free = tuple(s for s in args.free.split(",") if s)

        def fit(data):
            return analysis.fit_full_model(data, free, emitter, init=init, seed=args.seed)

        if args.map_path:
            traces = dataio.read_map_csv(args.map_path)
            direction = dataio.parse_direction(args.direction)
            for t in traces:
                t.meta["b_direction"] = tuple(direction)
            try:
                result = fit(traces)
            except analysis.TraceError as exc:  # its index is a row of the map
                raise ValueError(f"{args.map_path}: {exc}") from None
        elif args.trace:
            result = _fit_files([args.trace], lambda traces: fit(traces[0]))
        else:
            raise ValueError("--model full needs --trace or --map")
    dataio.write_json(args.out, result.as_report())
    print(f"wrote {args.out} (converged={result.converged}, "
          f"rms={dataio.fmt(result.residual_rms)})")
    return 0 if result.converged else 2


def _cmd_fit_pl(args) -> int:
    fits = []
    if args.values:
        centers = dataio.read_values_csv(args.values)
    elif args.traces:
        fits = _fit_files(args.traces, analysis.fit_gaussian)
        centers = np.array([f.params["center"] for f in fits])
    else:
        raise ValueError("fit-pl needs --values or --traces")
    density = analysis.kde(centers, args.bandwidth)
    if args.out:  # refused before anything is written
        n, mean, sem = analysis._mean_sem(centers)
    dataio._write_csv(args.kde_out, ("value", "density"), (density.freq_mhz, density.signal))
    if args.out:
        payload = {
            "schema_version": "1",
            "n": n,
            "mean": mean,
            "std_err_of_mean": sem,
            "fits": [f.as_report() for f in fits],
        }
        dataio.write_json(args.out, payload)
    print(f"wrote {args.kde_out} ({len(centers)} centers)")
    return 0 if all(f.converged for f in fits) else 2


def _cmd_stats(args) -> int:
    payload = {"schema_version": "1"}
    if args.values:
        values = dataio.read_values_csv(args.values, column=args.column)
        stats = analysis.ensemble_stats(values, bin_width=args.bin_width)
        payload["ensemble"] = {
            "n": stats.n,
            "mean": stats.mean,
            "std_err_of_mean": stats.std_err_of_mean,
            "bin_edges": [float(e) for e in stats.bin_edges],
            "counts": [int(c) for c in stats.counts],
        }
    if args.counts:
        try:
            a, b, c, d = map(int, args.counts.split(","))
        except ValueError:
            raise ValueError("--counts needs four integers 'a,b,c,d'") from None
        test = analysis.chi2_independence(((a, b), (c, d)))
        payload["chi2"] = {"chi2": test["chi2"], "p_value": test["p_value"],
                           "dof": test["dof"], "correction": "none"}
    if args.aple_exp:
        rows = []
        for item in args.aple_exp:
            label, _, val = item.partition("=")
            try:
                measured = float(val)
            except ValueError:
                measured = np.nan
            if not np.isfinite(measured):
                raise ValueError(f"--aple-exp needs LABEL=MHZ with a finite MHZ, got {item!r}")
            model = a_ple(registry_lookup(label))
            big = max(abs(model), abs(measured))
            discrepancy = 100.0 * (1.0 - min(abs(model), abs(measured)) / big) if big else 0.0
            rows.append({
                "isotope": label,
                "a_ple_model_mhz": model,
                "a_ple_measured_mhz": measured,
                "discrepancy_pct": discrepancy,
            })
            print(f"{label}: model {dataio.fmt(model)} MHz, measured {dataio.fmt(measured)} "
                  f"MHz, discrepancy {discrepancy:.1f}%")
        payload["aple_comparison"] = rows
    if len(payload) == 1:
        raise ValueError("stats needs at least one of --values, --counts, --aple-exp")
    dataio.write_json(args.out, payload)
    print(f"wrote {args.out}")
    return 0


def _cmd_synth(args) -> int:
    emitter = dataio.load_emitter(args.emitter)
    truth = dataio.synth_dataset(
        emitter,
        args.out_dir,
        n_emitters=args.n,
        seed=args.seed,
        noise_sigma=args.noise,
        fwhm_mhz=args.fwhm,
        grid=dataio.parse_grid(args.grid),
        truth_path=args.truth,
        b=dataio.parse_field(args.b),
        a_ple_scale=args.aple_scale,
        jitter_aple_mhz=args.jitter_aple,
        jitter_alpha_ghz=args.jitter_alpha,
        jitter_offset_mhz=args.jitter_offset,
    )
    print(f"wrote {len(truth['entries'])} traces to {args.out_dir} and {args.truth}")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "sweep-strain": _cmd_sweep_strain,
    "sweep-field": _cmd_sweep_field,
    "aple": _cmd_aple,
    "fit": _cmd_fit,
    "fit-pl": _cmd_fit_pl,
    "stats": _cmd_stats,
    "synth": _cmd_synth,
}


def run_cli(argv) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
