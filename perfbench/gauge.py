"""Speed gauge: a fixed reference kernel timed between the measured operations.

A shared virtual machine can change speed by a factor of two within
seconds (one 2-vCPU machine ran the same 3x3 SVD in 8.6 us and, seconds
later, in 16 us), which would swamp the differences the benchmark is
meant to resolve. So a timed run also times
a fixed kernel of the benchmark's own, interleaved with the operations,
and scales each operation's time by ``REFERENCE_NS / t_ref``, where
``t_ref`` is the kernel's time just before and after it. A time read on
a host that runs at reference speed is left unchanged; a host slowdown
lengthens the operation and the kernel alike and cancels. The kernel
mixes interpreter work and small numpy calls, as the package does. The
raw times are reported beside the scaled ones.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

# Kernel times on the host the baseline was recorded on, at its typical speed:
# this module's kernel in the benchmark process, and ``child.kernel`` in a
# freshly started child process.
REFERENCE_NS = 1.7e6
CHILD_REFERENCE_NS = 3.0e6
_REPS = 64
_A = np.array([[1.3, 0.2, -0.4], [0.1, 0.9, 0.3], [-0.2, 0.5, 1.1]])
_EYE = np.eye(3)


def reference_kernel() -> float:
    acc = 0.0
    for k in range(_REPS):
        u, s, vt = np.linalg.svd(_A)
        x = (u @ vt).T @ _A - _EYE
        acc += float(np.sum(x * x)) + sum(0.5 * i for i in range(k % 8))
    return acc


class Gauge:
    """Times the reference kernel whenever ``every_ns`` of measured work has passed.

    Window ``k`` is the stretch between tick ``k`` and tick ``k + 1``;
    call ``tick`` once before the first operation and once after the last.
    """

    def __init__(self, every_ns: float = 0.0):
        self.every_ns = every_ns
        self.ref_ns = array("q")
        self.opened_ns = array("q")  # clock reading at which each window opens
        self._since = 0

    def tick(self):
        t0 = time.perf_counter_ns()
        reference_kernel()
        t1 = time.perf_counter_ns()
        self.ref_ns.append(t1 - t0)
        self.opened_ns.append(t1)
        self._since = 0

    @property
    def window(self) -> int:
        return len(self.ref_ns) - 1

    def measured(self, dt_ns: int):
        """Note ``dt_ns`` of measured work; tick if a window is full."""
        self._since += dt_ns
        if self._since >= self.every_ns:
            self.tick()

    def factors(self) -> np.ndarray:
        """Scale factor of each window, from the ticks that bound it."""
        ref = np.asarray(self.ref_ns, dtype=float)
        return REFERENCE_NS / ((ref[:-1] + ref[1:]) / 2.0)

    def factors_at(self, t_ns) -> np.ndarray:
        """Scale factor of the window each clock reading in ``t_ns`` falls in.

        Readings before the first window or after the last take the
        nearest window's factor; with fewer than two ticks there is no
        window and the factor is 1.
        """
        t_ns = np.asarray(t_ns, dtype=float)
        f = self.factors()
        if not f.size:
            return np.ones(t_ns.shape)
        win = np.searchsorted(np.asarray(self.opened_ns, dtype=float), t_ns, side="right") - 1
        return f[np.clip(win, 0, f.size - 1)]
