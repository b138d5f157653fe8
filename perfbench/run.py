"""Run one workload of the benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload closed_form_mix --seed 1 --seconds 10 --trace 0

The package is imported from ``src/`` of the current directory; the run
stops with exit code 2 if it is not there. Lines starting with ``#`` are
the human-readable report; the last line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``. The full report and, for a traced run, the spans are also
written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

# One compute thread for the benchmark and every process it starts; this
# must happen before numpy is first imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

WORKLOADS = ("closed_form_mix", "oracle_verify", "cli_batch")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "relaxed_polar" / "__init__.py").is_file():
        print(f"error: no package at {src / 'relaxed_polar'}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(Path(__file__).resolve().parent.parent)]

    from perfbench import harness  # imports numpy and the package

    return harness.main(args, root)


if __name__ == "__main__":
    sys.exit(main())
