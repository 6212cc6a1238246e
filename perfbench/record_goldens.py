"""Record the goldens that the benchmark checks for the default seed.

    python3 perfbench/record_goldens.py

Writes ``perfbench/goldens/ge_map_fit.json`` (the estimates of the first
fits) and ``perfbench/goldens/forward_cli.json`` (sampled map values,
all strain levels and the merged diagram lines).  Re-record only in a
change that is meant to alter these numbers, and say so in that change.
"""
import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
N_GE_FITS = 40


def main():
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(HERE.parent / "src"))
    from workloads import DEFAULT_SEED, GOLDEN_DIR, ForwardCli, GeMapFit

    GOLDEN_DIR.mkdir(exist_ok=True)
    ge = GeMapFit(DEFAULT_SEED, use_goldens=False)
    fits = [ge.record(ge.op(i, ge.prepare(i))) for i in range(N_GE_FITS)]
    with open(GOLDEN_DIR / "ge_map_fit.json", "w", encoding="utf-8") as fh:
        json.dump({"seed": DEFAULT_SEED, "fits": fits}, fh, indent=1)
        fh.write("\n")

    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        fw = ForwardCli(DEFAULT_SEED, tmp, use_goldens=False)
        codes = fw.op(0, fw.prepare(0))
        if any(codes):
            raise SystemExit(f"forward_cli commands exited {codes}")
        golden = fw.outputs()
    with open(GOLDEN_DIR / "forward_cli.json", "w", encoding="utf-8") as fh:
        json.dump({"seed": DEFAULT_SEED, "map_stride": ForwardCli.map_stride, **golden}, fh)
        fh.write("\n")


if __name__ == "__main__":
    main()
