"""Tests of the benchmark itself: tracing, golden gates, generators."""
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def fake_package(monkeypatch):
    """Package 'fakepkg' whose module b imports a.inner by name."""
    now = [0.0]
    a = types.ModuleType("fakepkg.a")
    b = types.ModuleType("fakepkg.b")

    def inner():
        now[0] += 2.0

    def outer():
        now[0] += 1.0
        b.inner()
        now[0] += 3.0

    a.inner = inner
    b.inner = inner
    b.outer = outer
    pkg = types.ModuleType("fakepkg")
    for name, mod in (("fakepkg", pkg), ("fakepkg.a", a), ("fakepkg.b", b)):
        monkeypatch.setitem(sys.modules, name, mod)
    targets = (("a", "inner", True), ("b", "outer", True), ("a", "removed", True))
    return a, b, targets, (lambda: now[0])


def test_self_time_of_nested_call(fake_package):
    a, b, targets, clock = fake_package
    with tracer_mod.Tracer(package="fakepkg", targets=targets, clock=clock) as tr:
        tr.begin_op()
        b.outer()
        b.outer()
    assert tr.stats["b.outer"].calls == 2
    assert tr.stats["a.inner"].calls == 2
    assert tr.stats["b.outer"].self_s == pytest.approx(8.0)
    assert tr.stats["a.inner"].self_s == pytest.approx(4.0)
    assert tr.stats["a.removed"].calls == 0


def test_attributes_bound_by_name_are_wrapped_and_restored(fake_package):
    a, b, targets, clock = fake_package
    original = a.inner
    with tracer_mod.Tracer(package="fakepkg", targets=targets, clock=clock):
        assert a.inner is b.inner
        assert a.inner is not original
    assert a.inner is original and b.inner is original


def test_real_package_restored_after_traced_run():
    import g4vspec
    from g4vspec import spectrum, spinops

    mods = {n: m for n, m in sys.modules.items()
            if n == "g4vspec" or n.startswith("g4vspec.")}
    before = {n: dict(vars(m)) for n, m in mods.items()}
    emitter = g4vspec.registry_lookup("117Sn")
    with tracer_mod.Tracer() as tr:
        assert spectrum.eigh is spinops.eigh is not before["g4vspec.spinops"]["eigh"]
        tr.begin_op()
        g4vspec.transitions(emitter)
        g4vspec.transitions(emitter)
    for name, mod in mods.items():
        now = vars(mod)
        assert all(now[k] is v for k, v in before[name].items() if k in now), name
    metrics = tr.metrics()
    assert metrics["spectrum.transitions.calls"]["value"] == 2
    assert metrics["spectrum.transitions.distinct_frac"]["value"] == 0.5
    assert metrics["spectrum.solve_manifold.bare_frac"]["value"] == 0.5
    assert metrics["spinops.eigh.calls"]["value"] == 8


def _fake_fit(params, converged=True):
    return types.SimpleNamespace(params=dict(params), converged=converged, n_iterations=5)


def test_corrupted_ge_golden_fails_the_fit():
    wl = workloads.GeMapFit(workloads.DEFAULT_SEED)
    golden = wl.golden[0]
    assert wl.check(0, _fake_fit(golden))[1] == 0
    wl.golden[0] = dict(golden, fwhm=golden["fwhm"] * (1 + 1e-5))
    attempted, failed, msgs = wl.check(0, _fake_fit(golden))
    assert (attempted, failed) == (1, 1) and "golden" in msgs[0]


def test_corrupted_forward_golden_fails_the_command(tmp_path):
    good = workloads.ForwardCli(workloads.DEFAULT_SEED, tmp_path / "good")
    codes = good.op(0, good.prepare(0))
    assert good.check(0, codes) == (3, 0, [])
    bad = workloads.ForwardCli(workloads.DEFAULT_SEED, tmp_path / "bad")
    bad.golden["diagram_intensity"][0] += 1e-9
    attempted, failed, msgs = bad.check(0, bad.op(0, bad.prepare(0)))
    assert (attempted, failed) == (3, 1) and "diagram_intensity" in msgs[0]
    # Later operations draw other inputs; only their truth gates apply.
    assert bad.check(1, bad.op(1, bad.prepare(1))) == (3, 0, [])


def test_generators_are_deterministic(tmp_path):
    ge1, ge2, ge3 = (workloads.GeMapFit(s, use_goldens=False) for s in (5, 5, 6))
    for t1, t2, t3 in zip(ge1.dataset(2), ge2.dataset(2), ge3.dataset(2)):
        assert np.array_equal(t1.signal, t2.signal)
        assert not np.array_equal(t1.signal, t3.signal)

    sn1 = workloads.SnEnsembleCli(5, tmp_path / "sn1", n_traces=4)
    sn2 = workloads.SnEnsembleCli(5, tmp_path / "sn2", n_traces=4)
    assert sn1.truth == sn2.truth
    for entry in sn1.truth["entries"]:
        f = Path("data") / entry["file"]
        assert (sn1.dir / f).read_bytes() == (sn2.dir / f).read_bytes()

    fw1 = workloads.ForwardCli(5, tmp_path / "fw1", use_goldens=False)
    fw2 = workloads.ForwardCli(5, tmp_path / "fw2", use_goldens=False)
    fw3 = workloads.ForwardCli(6, tmp_path / "fw3", use_goldens=False)

    def argv(fw, i):
        return json.dumps(fw.prepare(i)).replace(str(fw.dir), "")

    assert argv(fw1, 2) == argv(fw2, 2) != argv(fw3, 2)
    assert fw1.emitter_file.read_bytes() == fw2.emitter_file.read_bytes()
    assert argv(fw1, 3) != argv(fw2, 2)


def test_sn_gate_counts_each_wrong_trace(tmp_path):
    wl = workloads.SnEnsembleCli(5, tmp_path, n_traces=3)
    codes = wl.op(0, None)
    assert wl.check(0, codes) == (5, 0, [])
    entry = wl.truth["entries"][1]
    wl.truth["entries"][1] = dict(entry, a_ple_mhz=entry["a_ple_mhz"] * 1.05)
    attempted, failed, _ = wl.check(0, codes)
    assert (attempted, failed) == (5, 1)


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "forward_cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_parts_are_timed_in_reference_units():
    import run

    clock = [0.0]

    def advance(dt):
        clock[0] += dt

    parts = run.PartTimes(reference=lambda: advance(0.5))
    real_clock, run.time.perf_counter = run.time.perf_counter, lambda: clock[0]
    try:
        parts.begin_op()
        parts("a", advance, 2.0)
        parts("b", advance, 1.0)
        parts.begin_op()
        parts("a", advance, 3.0)
    finally:
        run.time.perf_counter = real_clock
    assert parts.samples == {"a": [4.0, 6.0], "b": [2.0]}
    # One reference before each operation's first part and one after every part.
    assert parts.reference_s == [0.5] * 5


def test_sn_batches_cover_the_ensemble(tmp_path):
    wl = workloads.SnEnsembleCli(5, tmp_path, n_traces=12)
    assert len(wl.batches) == 2
    parts = {}
    codes = wl.op(0, None, lambda key, fn, *a: parts.setdefault(key, fn(*a)))
    assert len(parts) == 3 and codes == [0, 0, 0]
    assert wl.check(0, codes) == (15, 0, [])
