"""Print the SHA-256 of every output file the benchmark workloads write.

    PYTHONPATH=src python tests/data/output_digests.py [--ops N] [--traces K] [--seed S]

One line ``<workload> <operation> <file> <sha256>`` per output, in a fixed
order:

- every file of the first N ``forward_cli`` operations;
- every report, summary and stats file of one ``sn_ensemble_cli``
  operation over K traces;
- the JSON report of each of N ``ge_map_fit`` fits.

The workloads are those of ``perfbench/workloads.py``, imported and not
changed; every file is written in a temporary directory.  Run the script
on two source trees and ``diff`` what they print: a change that keeps
every output byte prints the same lines.
"""
import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "perfbench"))

import workloads  # noqa: E402
from g4vspec import dataio  # noqa: E402


def _files(root, inputs):
    """(name relative to root, sha256) of each file under root that is not
    below one of inputs, in name order."""
    return [(path.relative_to(root).as_posix(), hashlib.sha256(path.read_bytes()).hexdigest())
            for path in sorted(root.rglob("*"))
            if path.is_file() and not any(path.is_relative_to(p) for p in inputs)]


def digests(ops, traces, seed):
    """The output lines, as (workload, operation, file, sha256) tuples."""
    out = []
    # The commands' own "wrote <path>" lines name the temporary directory.
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        root = Path(tmp) / "forward_cli"
        forward = workloads.ForwardCli(seed, root, use_goldens=False)
        for i in range(ops):
            forward.op(i, forward.prepare(i))
            for name, digest in _files(root, [forward.emitter_file]):
                out.append((forward.name, i, name, digest))
                (root / name).unlink()  # a command that fails leaves no stale file

        root = Path(tmp) / "sn_ensemble_cli"
        ensemble = workloads.SnEnsembleCli(seed, root, n_traces=traces)
        ensemble.op(0, ensemble.prepare(0))
        out += [(ensemble.name, 0, name, digest)
                for name, digest in _files(root, [root / "data", root / "truth.json"])]

        root = Path(tmp) / "ge_map_fit"
        root.mkdir()
        fits = workloads.GeMapFit(seed, use_goldens=False)
        for i in range(ops):
            dataio.write_json(root / f"fit_{i:04d}.json", fits.op(i, fits.prepare(i)).as_report())
        out += [(fits.name, int(name[4:-5]), name, digest) for name, digest in _files(root, [])]
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--ops", type=int, default=4,
                        help="forward_cli operations and ge_map_fit fits (default 4)")
    parser.add_argument("--traces", type=int, default=200,
                        help="traces of the sn_ensemble_cli operation (default 200)")
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    args = parser.parse_args(argv)
    for line in digests(args.ops, args.traces, args.seed):
        print(*line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
