"""tests/data/output_digests.py, which prints a digest of every output file
of the benchmark workloads so that two source trees can be compared by
`diff`: it prints the same lines on every run, and it lists every output
file each workload writes."""
import hashlib
import importlib.util
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"


def _tool():
    spec = importlib.util.spec_from_file_location("output_digests", DATA / "output_digests.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_output_digests_are_repeatable_and_list_every_output(tmp_path, capsys):
    tool = _tool()
    runs = []
    for _ in range(2):
        assert tool.main(["--ops", "1", "--traces", "12"]) == 0
        runs.append(capsys.readouterr().out.splitlines())
    assert runs[0] == runs[1]
    rows = [line.split(" ") for line in runs[0]]
    assert all(len(row) == 4 and len(bytes.fromhex(row[3])) == hashlib.sha256().digest_size
               for row in rows)

    forward = tool.workloads.ForwardCli(1, tmp_path / "forward")
    ensemble = tool.workloads.SnEnsembleCli(1, tmp_path / "ensemble", n_traces=12)
    batches = [name for _, report, summary in ensemble.batches
               for name in (report.name, summary.name)]
    assert len(batches) == 4  # emitter_000? and emitter_001?
    want = ([("forward_cli", "0", name) for name in sorted(p.name for p in forward.out.values())]
            + [("sn_ensemble_cli", "0", name)
               for name in sorted(batches + [ensemble.summary.name, ensemble.stats.name])]
            + [("ge_map_fit", "0", "fit_0000.json")])
    assert [tuple(row[:3]) for row in rows] == want
