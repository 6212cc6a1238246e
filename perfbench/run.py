"""Layered end-to-end benchmark of g4vspec.

    python3 perfbench/run.py --workload ge_map_fit --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout.  The package is imported from
``src/`` of that checkout (it is not installed), and the run fails if
``g4vspec`` resolves anywhere else.  One run builds the workload's inputs
from ``--seed``, runs one untimed warm-up operation, then repeats the
operation for ``--seconds`` and checks every output.  The last line of
standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end ones (set-up time, the time of one
operation in units of a fixed reference loop, peak RSS); with
``--trace 1`` untraced and traced operations alternate, and the
metrics are the per-layer ones.  The exit code is 0
only when every gate passed.  ``--workload all`` runs the three
workloads one after another, each in its own process.
"""
import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

# Single-threaded BLAS on both commits: small matrices, a shared 2-core box.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# Set-up samples are spread evenly over the measured seconds, between
# operations, so that their median spans the machine's slow and quiet phases.
SETUP_REPEATS = 9
MIN_OPS = 3
# The keys of workloads.WORKLOADS; that module imports NumPy, which must
# come after the thread settings.
WORKLOAD_NAMES = ("ge_map_fit", "sn_ensemble_cli", "forward_cli")

# Set-up as a user pays it: a fresh interpreter importing the package and
# the CLI, then one cold transition table per isotope the workload uses.
_SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import g4vspec, g4vspec.cli
for label in sys.argv[2:]:
    g4vspec.transitions(g4vspec.registry_lookup(label))
print(time.perf_counter() - t0)
print(g4vspec.__file__)
"""


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _same_file(a, b):
    return Path(a).resolve() == Path(b).resolve()


def setup_sample(isotopes):
    """Set-up seconds of one fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-s", "-c", _SETUP_CODE, str(SRC), *isotopes],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2:
        raise BenchError(f"set-up interpreter failed:\n{proc.stderr}")
    if not _same_file(lines[1], SRC / "g4vspec" / "__init__.py"):
        raise BenchError(f"set-up interpreter imported g4vspec from {lines[1]}")
    return float(lines[0])


def _openblas_threads(np):
    """Thread count reported by the OpenBLAS that NumPy loaded, if any."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def run_metadata(args, g4vspec, np):
    try:
        blas = dict(np.__config__.CONFIG["Build Dependencies"]["blas"])
    except (AttributeError, KeyError, TypeError):
        blas = {}
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "g4vspec_file": g4vspec.__file__,
        "kernel_backend": g4vspec.KERNEL_BACKEND,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": _openblas_threads(np), "threads_env": BLAS_THREADS},
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "jsonschema": metadata.version("jsonschema"),
    }


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def add(self, attempted, failed, messages):
        self.attempted += attempted
        self.failed += failed
        self.messages += messages


def reference_loop(np):
    """The benchmark's yardstick: fixed interpreter and small linear-algebra
    work, like the package's own mix, taking about 12 ms with one BLAS
    thread on a quiet machine."""
    mat = np.random.default_rng(0).random((40, 40))
    mat = mat + mat.T
    small = np.eye(4)

    def run():
        acc = 0
        for k in range(80000):
            acc += k * k
        for _ in range(20):
            np.linalg.eigh(mat)
        for _ in range(100):
            np.kron(mat[:10, :10], small)
        return acc

    return run


class PartTimes:
    """The ``timed`` argument of a workload's ``op``: times one part and
    keeps the time under ``key``.

    With a reference loop, the reference runs before and after every part
    and what is kept is the part's time over the mean of those two
    reference times, so that the machine's changing speed cancels.
    """

    def __init__(self, reference=None):
        self.samples = {}
        self.reference = reference
        self.reference_s = []
        self._last_ref = None

    def _time_reference(self):
        t0 = time.perf_counter()
        self.reference()
        self.reference_s.append(time.perf_counter() - t0)
        return self.reference_s[-1]

    def begin_op(self):
        self._last_ref = None

    def __call__(self, key, fn, *args, **kwargs):
        if self.reference is not None and self._last_ref is None:
            self._last_ref = self._time_reference()
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        elapsed = time.perf_counter() - t0
        if self.reference is not None:
            before, self._last_ref = self._last_ref, self._time_reference()
            elapsed /= 0.5 * (before + self._last_ref)
        self.samples.setdefault(key, []).append(elapsed)
        return out


def timed_op(workload, i, tally, parts, tracer=None):
    """Run operation i with its parts timed into ``parts``, check its
    output; return the operation's wall time.

    With a tracer, the operation (not its check) runs traced.
    """
    data = workload.prepare(i)
    parts.begin_op()
    with tracer if tracer is not None else contextlib.nullcontext():
        if tracer is not None:
            tracer.begin_op()
        t0 = time.perf_counter()
        out = workload.op(i, data, parts)
        elapsed = time.perf_counter() - t0
    tally.add(*workload.check(i, out))
    return elapsed


def measure(args, workload, tally, reference, first_setup_s):
    """Warm-up plus the measured operations; returns (metrics, op times, parts).

    ``setup_s`` is the median of ``first_setup_s``, taken before the
    workload was built, and of samples taken between operations.
    ``op_ref`` is the sum over the operation's parts of the median of
    each part's time in reference-loop units.
    A traced run alternates untraced and traced operations, so both see
    the same machine conditions and the ratio of their median wall times
    gives the overhead.
    """
    timed_op(workload, 0, tally, PartTimes(reference))
    start = time.perf_counter()
    deadline = start + args.seconds
    i = 1
    if not args.trace:
        parts = PartTimes(reference)
        times, setup = [], [first_setup_s]
        while len(times) < MIN_OPS or time.perf_counter() < deadline:
            times.append(timed_op(workload, i, tally, parts))
            i += 1
            due = start + len(setup) * args.seconds / SETUP_REPEATS
            if len(setup) < SETUP_REPEATS and time.perf_counter() >= due:
                setup.append(setup_sample(workload.isotopes))
        while len(setup) < SETUP_REPEATS:
            setup.append(setup_sample(workload.isotopes))
        op_ref = sum(statistics.median(v) for v in parts.samples.values())
        return ({"op_ref": (op_ref, "ref"), "setup_s": (statistics.median(setup), "s")},
                times, parts)
    parts = PartTimes()
    tracer = Tracer()
    base, traced = [], []
    while len(traced) < MIN_OPS or time.perf_counter() < deadline:
        base.append(timed_op(workload, i, tally, parts))
        traced.append(timed_op(workload, i + 1, tally, PartTimes(), tracer))
        i += 2
    layers = tracer.metrics()
    layers["trace.overhead_frac"] = {
        "value": statistics.median(traced) / statistics.median(base) - 1.0, "unit": "ratio"}
    return layers, base + traced, parts


def run_all(args):
    """Run every workload, each in its own process; return the worst exit code."""
    codes = []
    for name in WORKLOAD_NAMES:
        argv = ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        codes.append(subprocess.run([sys.executable, __file__, *argv], cwd=ROOT).returncode)
    return max(codes)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    if not (SRC / "g4vspec" / "__init__.py").is_file():
        print(f"error: no g4vspec sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    import numpy as np

    import g4vspec

    if not _same_file(g4vspec.__file__, SRC / "g4vspec" / "__init__.py"):
        print(f"error: g4vspec imported from {g4vspec.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    try:
        setup_s = None if args.trace else setup_sample(WORKLOADS[args.workload].isotopes)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    WORK_ROOT.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    tally = Tally()
    try:
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            workload = WORKLOADS[args.workload](args.seed, work_dir)
            metrics, times, parts = measure(args, workload, tally, reference_loop(np), setup_s)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()

    if not args.trace:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = (rss_kib / 1024.0, "MB")
        metrics = {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}
    meta = run_metadata(args, g4vspec, np)
    meta["measured_ops"] = len(times)
    meta["op_wall_s_quartiles"] = statistics.quantiles(times, n=4)
    if parts.reference_s:
        meta["reference_s_quartiles"] = statistics.quantiles(parts.reference_s, n=4)
    meta["timed_parts"] = len(parts.samples)
    meta["part_repeats"] = [min(map(len, parts.samples.values())),
                            max(map(len, parts.samples.values()))]
    for msg in tally.messages[:20]:
        print(f"gate failed: {msg}", file=sys.stderr)
    correct = tally.failed == 0
    print(json.dumps({"meta": meta}))
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
