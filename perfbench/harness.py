"""Set-up time, memory, machine facts and the printed result of one run."""

from __future__ import annotations

import importlib.metadata
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import relaxed_polar

from . import workloads
from .gauge import CHILD_REFERENCE_NS
from .workloads import CHILD

SETUP_RUNS = 9
OUT_DIR = ".perfbench_out"


def measure_setup_s(root: Path, runs: int = SETUP_RUNS) -> tuple[float, dict]:
    """Median time of a fresh interpreter running ``import relaxed_polar``.

    Each interpreter times the speed kernel of ``child.py`` before and
    after the import; the wall time, less the kernel, is scaled by it.
    One untimed import first writes the bytecode caches, as the first use
    after installing would.
    """
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    cmd = [sys.executable, str(CHILD), "import", "relaxed_polar"]
    subprocess.run(cmd, cwd=root, env=env, check=True, timeout=120, capture_output=True)
    raw, scaled = [], []
    for _ in range(runs):
        t0 = time.perf_counter_ns()
        p = subprocess.run(cmd, cwd=root, env=env, check=True, timeout=120,
                           capture_output=True, text=True)
        wall = time.perf_counter_ns() - t0
        before, after = workloads.child_kernel_ns(p.stderr)
        raw.append((wall - before - after) * 1e-9)
        scaled.append(raw[-1] * CHILD_REFERENCE_NS / ((before + after) / 2.0))
    return float(np.median(scaled)), {"scaled_s": scaled, "raw_s": raw}


def peak_rss_mb(workload: str) -> float:
    """Peak resident memory of the process doing the workload's work.

    That is this process, except for ``cli_batch``, whose work runs in
    child processes: there it is the largest child's peak.
    """
    who = resource.RUSAGE_CHILDREN if workload == "cli_batch" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def _version(dist: str) -> str:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return "not installed"


def machine_info() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": _version("scipy"),
        "thread_vars": {k: os.environ.get(k) for k in sorted(os.environ) if k.endswith("_THREADS")},
    }


def main(args, root: Path) -> int:
    pkg = Path(relaxed_polar.__file__).resolve()
    if not pkg.is_relative_to((root / "src").resolve()):
        print(f"error: relaxed_polar was imported from {pkg}, not from this checkout",
              file=sys.stderr)
        return 2
    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    if args.trace:
        res = workloads.run_traced(args.workload, args.seed, args.seconds, root, out_dir)
        setup = None
    else:
        setup_s, setup = measure_setup_s(root)
        res = workloads.run_timed(args.workload, args.seed, args.seconds, root, out_dir,
                                  setup_s, peak_rss_mb)
    t = res.tally
    result = {
        "correct": t.wrong == 0,
        "attempted": t.attempted,
        "failed": t.failed,
        "metrics": res.metrics,
    }
    full = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "machine": machine_info(), "setup": setup,
            "report": res.report, **result}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(full, indent=1, default=str))
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}")
    print(f"# machine {json.dumps(full['machine'])}")
    for key, val in res.report.items():
        print(f"# {key}: {json.dumps(val, default=str)}")
    for key, m in res.metrics.items():
        print(f"# {key} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0
