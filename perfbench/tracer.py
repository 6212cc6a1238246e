"""Per-layer tracing from outside the package.

Each traced function is wrapped by identity: every attribute of every
loaded ``g4vspec.*`` module that is bound to the function object (for
example ``spectrum.eigh``, which ``spectrum`` imported by name from
``spinops``) is replaced by one wrapper, and restored on exit.  The
wrapper keeps a span stack so that a span's self time is its duration
minus the time covered by its traced children.  A function that no
longer exists is reported with zero calls.
"""
import sys
import time

# (module, function, records a span).  The LM core is wrapped only to
# count model evaluations; its time stays with the fitter that calls it.
TARGETS = (
    ("spinops", "kron", True),
    ("spinops", "eigh", True),
    ("hamiltonian", "build_hamiltonian", True),
    ("hamiltonian", "jsq_operator", True),
    ("spectrum", "transitions", True),
    ("spectrum", "solve_manifold", True),
    ("spectrum", "synth_spectrum", True),
    ("kernels", "lorentzian_sum", True),
    ("kernels", "gaussian_sum", True),
    ("analysis", "fit_full_model", True),
    ("analysis", "fit_lorentzians", True),
    ("analysis", "_levenberg_marquardt", False),
    ("dataio", "validate_fit_report", True),
    ("dataio", "ingest_csv", True),
    ("dataio", "write_map_csv", True),
    ("dataio", "write_levels_csv", True),
    ("dataio", "write_text", True),
    ("cli", "run_cli", True),
)

_COUPLINGS = ("a_fc_mhz", "a_dd_mhz", "quad_q_mhz", "ioc_upsilon_mhz")


class Stat:
    __slots__ = ("calls", "self_s", "durations")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.durations = []


class Tracer:
    """Context manager that installs the wrappers and collects counters.

    ``begin_op()`` marks the start of one workload operation; per-layer
    metrics are reported per operation.
    """

    def __init__(self, package="g4vspec", targets=TARGETS, clock=time.perf_counter):
        self.package = package
        self.targets = targets
        self.clock = clock
        self.stats = {f"{m}.{f}": Stat() for m, f, _ in targets}
        self.stack = []
        self.ops = 0
        self._patched = []
        # Extra counters measured at the layer boundaries.
        self.distinct_tables = 0
        self._op_keys = set()
        self.bare_solves = 0
        self.line_points = {"kernels.lorentzian_sum": 0, "kernels.gaussian_sum": 0}
        self.bytes_written = 0
        self.lm_iterations = 0
        self.model_evals = 0
        self.full_fits = 0

    # -- installation ------------------------------------------------------

    def _modules(self):
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == self.package or name.startswith(self.package + "."))]

    def __enter__(self):
        modules = self._modules()
        for mod_name, fn_name, span in self.targets:
            owner = sys.modules.get(f"{self.package}.{mod_name}")
            fn = getattr(owner, fn_name, None) if owner is not None else None
            if not callable(fn):
                continue
            name = f"{mod_name}.{fn_name}"
            wrapper = self._wrap(name, fn, span)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._patched.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()
        return False

    def begin_op(self):
        self.ops += 1
        self._op_keys = set()

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name, fn, span):
        stat = self.stats[name]
        before = getattr(self, "_before_" + name.replace(".", "_"), None)
        after = getattr(self, "_after_" + name.replace(".", "_"), None)
        stack = self.stack
        clock = self.clock

        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            if not span:
                stat.calls += 1
                out = fn(*args, **kwargs)
                if after is not None:
                    after(args, kwargs, out)
                return out
            frame = [clock(), 0.0, name]
            stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = clock() - frame[0]
                stack.pop()
                stat.calls += 1
                stat.self_s += dur - frame[1]
                stat.durations.append(dur)
                if stack:
                    stack[-1][1] += dur
            if after is not None:
                after(args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _before_spectrum_transitions(self, args, kwargs):
        emitter = args[0] if args else kwargs.get("emitter")
        b = args[1] if len(args) > 1 else kwargs.get("b", (0.0, 0.0, 0.0))
        alpha = kwargs.get("alpha_ghz")
        beta = kwargs.get("beta_ghz")
        key = (
            emitter,
            tuple(float(c) for c in b),
            float(emitter.strain_alpha_ghz if alpha is None else alpha),
            float(emitter.strain_beta_ghz if beta is None else beta),
        )
        if key not in self._op_keys:
            self._op_keys.add(key)
            self.distinct_tables += 1
        return args, kwargs

    def _before_spectrum_solve_manifold(self, args, kwargs):
        emitter = args[0] if args else kwargs.get("emitter")
        if all(getattr(getattr(emitter, m), c, 0.0) == 0.0
               for m in ("gnd", "exc") for c in _COUPLINGS):
            self.bare_solves += 1
        return args, kwargs

    def _line_points(self, name, args, kwargs):
        centers = args[0] if args else kwargs["centers"]
        grid = args[3] if len(args) > 3 else kwargs["grid"]
        self.line_points[name] += len(centers) * len(grid)
        return args, kwargs

    def _before_kernels_lorentzian_sum(self, args, kwargs):
        return self._line_points("kernels.lorentzian_sum", args, kwargs)

    def _before_kernels_gaussian_sum(self, args, kwargs):
        return self._line_points("kernels.gaussian_sum", args, kwargs)

    def _before_dataio_write_text(self, args, kwargs):
        text = args[1] if len(args) > 1 else kwargs["text"]
        self.bytes_written += len(text.encode("utf-8"))
        return args, kwargs

    def _before_analysis__levenberg_marquardt(self, args, kwargs):
        # Count model evaluations only for the full-model fitter, which is
        # then the innermost span.
        if not self.stack or self.stack[-1][2] != "analysis.fit_full_model":
            return args, kwargs
        residual_fn = args[0]

        def counted(p):
            self.model_evals += 1
            return residual_fn(p)

        return (counted,) + tuple(args[1:]), kwargs

    def _after_analysis_fit_full_model(self, args, kwargs, result):
        self.full_fits += 1
        self.lm_iterations += int(getattr(result, "n_iterations", 0))

    # -- report ------------------------------------------------------------

    def metrics(self):
        """Per-layer metrics; counts and self times are per workload operation."""
        ops = max(self.ops, 1)
        out = {}

        def put(name, value, unit):
            out[name] = {"value": float(value), "unit": unit}

        def calls_self(name, calls=True):
            stat = self.stats[name]
            if calls:
                put(f"{name}.calls", stat.calls / ops, "count")
            put(f"{name}.self_s", stat.self_s / ops, "s")

        def frac(num, den):
            return num / den if den else 0.0

        for name in ("hamiltonian.build_hamiltonian", "hamiltonian.jsq_operator",
                     "spinops.kron", "spinops.eigh", "spectrum.transitions",
                     "spectrum.solve_manifold", "spectrum.synth_spectrum",
                     "kernels.lorentzian_sum", "kernels.gaussian_sum",
                     "analysis.fit_full_model", "analysis.fit_lorentzians",
                     "dataio.validate_fit_report", "dataio.ingest_csv",
                     "dataio.write_text", "cli.run_cli"):
            calls_self(name)
        calls_self("dataio.write_map_csv", calls=False)
        calls_self("dataio.write_levels_csv", calls=False)
        put("spectrum.transitions.distinct_frac",
            frac(self.distinct_tables, self.stats["spectrum.transitions"].calls), "ratio")
        put("spectrum.solve_manifold.bare_frac",
            frac(self.bare_solves, self.stats["spectrum.solve_manifold"].calls), "ratio")
        for name, points in self.line_points.items():
            put(f"{name}.line_points", points / ops, "count")
        put("analysis.lm_iterations", frac(self.lm_iterations, self.full_fits), "count")
        put("analysis.model_evals_per_fit", frac(self.model_evals, self.full_fits), "count")
        durs = sorted(self.stats["analysis.fit_lorentzians"].durations)
        put("analysis.fit_lorentzians.ms_p50", 1e3 * _quantile(durs, 0.50), "ms")
        put("analysis.fit_lorentzians.ms_p95", 1e3 * _quantile(durs, 0.95), "ms")
        put("dataio.write_text.bytes", self.bytes_written / ops, "B")
        return out


def _quantile(sorted_values, q):
    """Nearest-rank quantile; 0 for an empty sample."""
    if not sorted_values:
        return 0.0
    k = min(len(sorted_values) - 1, max(0, int(round(q * len(sorted_values))) - 1))
    return sorted_values[k]
