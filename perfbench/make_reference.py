"""Regenerate the benchmark's reference outputs from the code in this checkout.

Run from the root of a checkout:

    python3 perfbench/make_reference.py [--size full|tiny]

Writes perfbench/reference/<size>/: the CSVs of one cli_default and one
grid_sweep operation, and random_seeds.json with the outcome of every
(placement seed, waist, lens) point of the random_seeds pool. Regenerate only
when a change to the program is meant to change its outputs, and record the
largest relative difference it caused.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(Path.cwd() / "src"))
    from workloads import WORKLOADS

    ref_dir = HERE / "reference" / args.size
    tmp = Path.cwd() / ".perfbench_tmp" / f"reference-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        for name, cls in WORKLOADS.items():
            shutil.rmtree(ref_dir / name, ignore_errors=True)
            ref_dir.mkdir(parents=True, exist_ok=True)
            cls(args.size, 0, ref_dir, tmp).write_reference(ref_dir)
            print(f"wrote {name} reference to {ref_dir}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
