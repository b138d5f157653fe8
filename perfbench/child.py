"""Run a module as ``__main__``, or import one, between two timings of a kernel.

Usage::

    python perfbench/child.py run relaxed_polar.cli ARGS...   # as python -m would
    python perfbench/child.py import relaxed_polar

The kernel is pure Python, so timing it first imports nothing the measured
work would import. Its two times go to the last line of standard error as
``perfbench-kernel-ns <before> <after>``; the parent scales the process's
wall time by them, because a kernel timed in the parent process tracks the
speed of a child process badly. The exit code is the module's.
"""

import os
import runpy
import sys
import time

KERNEL_TAG = "perfbench-kernel-ns"


def kernel() -> float:
    acc = 0.0
    for i in range(20000):
        acc += (i % 7) * 0.5 - (i & 3)
    return acc


def timed_kernel() -> int:
    t0 = time.perf_counter_ns()
    kernel()
    return time.perf_counter_ns() - t0


def main() -> int:
    mode, module, args = sys.argv[1], sys.argv[2], sys.argv[3:]
    # as with python -m, the working directory leads the path, not this file's
    sys.path[0] = os.getcwd()
    before = timed_kernel()
    code = 0
    if mode == "import":
        __import__(module)
    else:
        sys.argv = [module, *args]
        try:
            runpy.run_module(module, run_name="__main__", alter_sys=True)
        except SystemExit as exc:
            code = exc.code
    after = timed_kernel()
    sys.stdout.flush()
    sys.stderr.write(f"\n{KERNEL_TAG} {before} {after}\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
