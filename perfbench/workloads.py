"""The three workloads, each a closed loop with one caller.

``closed_form_mix``  one matrix at a time through the closed forms, as a
                     finite-element material-point loop calls them.
``oracle_verify``    the descent oracle checking the closed forms.
``cli_batch``        the ``rpolar`` command line run as a process.

A timed run measures the end-to-end metrics with tracing off. A traced
run repeats the workload with spans around the benchmark's calls into
each layer, then runs the other two workloads at a small fixed size
("probes") so that every layer metric has a value. Every operation is
checked after its clock stops, with span recording paused.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import re
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import relaxed_polar as rp
from relaxed_polar import cli

from . import check, gen, layers
from .child import KERNEL_TAG
from .gauge import CHILD_REFERENCE_NS, Gauge, reference_kernel
from .spans import NullTracer, Tracer, wrapped

NULL = NullTracer()

ORACLE_SEED = 2017
ORACLE_SAMPLES = 16
ORACLE_TOL_GRAD = 1e-9
WARMUP_SOLVES = 300
# closed_form_mix times the speed gauge after every 50 ms of solves
SOLVE_GAUGE_EVERY_NS = 50e6
# Probes: small fixed runs of a workload inside another workload's traced run.
PROBE_SOLVES = 100
PROBE_VERIFIES = 4
PROBE_VERIFY_SAMPLES = 4
PROBE_CLI = dict(iso_count=12, sweep_count=200, census_dim=6)
# The untraced replay that measures tracing overhead lasts at most this
# share of the run.
OVERHEAD_REPLAY_SHARE = 0.5
SUBPROCESS_TIMEOUT_S = 150
CHILD = Path(__file__).with_name("child.py")


def _reason(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _reason_key(reason: str) -> str:
    """A reason with its numbers masked, so that like failures count together."""
    return re.sub(r"[-+]?\d[\d.eE+-]*", "#", reason)[:100]


# Per timed call: its operation, its time, the gauge window it ran in, the
# CLI command it was (or -1) and the speed kernel time its child reported.
UNIT_COLUMNS = (("op", np.int32), ("ns", np.int64), ("win", np.int32), ("part", np.int8),
                ("child_ref", np.float32))
# Timed calls per second of run that a timed run preallocates room for:
# about 6 times what closed_form_mix makes at the parent commit.
UNITS_PER_S = {"closed_form_mix": 40_000, "oracle_verify": 1_000, "cli_batch": 100}


class Tally:
    """What a run attempted and what failed, with the time of every timed call.

    A timed call ("unit") belongs to one operation; an operation is one
    unit, except in ``cli_batch``, where it is a batch of four commands.
    With a ``gauge``, the gauge's kernel is timed between the units. The
    units are kept in columns allocated (and written) up front, so the
    benchmark's own memory, part of ``peak_rss_mb``, does not grow with
    the number of operations a faster program fits into a run.
    """

    def __init__(self, gauge: Gauge | None = None, capacity: int = 1024):
        self.gauge = gauge
        self.attempted = self.failed = self.wrong = self.ops = 0
        self.measured_ns = 0
        self.units = 0
        self.cols = {name: np.full(capacity, 0, dtype) for name, dtype in UNIT_COLUMNS}
        self.raised: set[int] = set()
        self.reasons: Counter = Counter()
        # operations solved off the clock (``gen.known_rejected``), and how
        # many of them the package rejected
        self.untimed: set[int] = set()
        self.rejected = 0
        self.rejected_reasons: Counter = Counter()
        self.shares: dict[str, Counter] = {}
        # per input property: the code of each operation's value, and the values
        self.prop_codes: dict[str, np.ndarray] = {}
        self.prop_values: dict[str, list[str]] = {}

    def fail(self, reason: str, wrong: bool):
        """Count a failure; ``wrong`` marks a returned result that is incorrect."""
        self.failed += 1
        self.wrong += int(wrong)
        self.reasons[_reason_key(reason)] += 1

    def note(self, op: int, props: dict):
        """Count the input properties of operation ``op``."""
        for key, val in props.items():
            val = str(val)
            self.shares.setdefault(key, Counter())[val] += 1
            values = self.prop_values.setdefault(key, [])
            if val not in values:
                values.append(val)
            codes = self.prop_codes.get(key)
            if codes is None:
                codes = np.full(len(self.cols["ns"]), -1, np.int8)
            if op >= len(codes):
                codes = np.concatenate([codes, np.full(len(codes), -1, np.int8)])
            codes[op] = values.index(val)
            self.prop_codes[key] = codes

    def share_table(self) -> dict[str, dict[str, float]]:
        """Share of the run's operations with each value of each input property."""
        return {key: {v: round(c / self.ops, 4) for v, c in sorted(cnt.items())}
                for key, cnt in self.shares.items()}

    def with_value(self, key: str, values) -> np.ndarray:
        """Which operations have property ``key`` equal to one of ``values``."""
        codes = self.prop_codes[key][: self.ops]
        known = self.prop_values[key]
        return np.isin(codes, [known.index(v) for v in values if v in known])

    def p50_ms_by_property(self, per_op: np.ndarray, ok: np.ndarray) -> dict:
        """For each value of each input property: the operations that returned
        and their median time in ms, so a run can be re-weighted to another mix."""
        out = {}
        for key, values in self.prop_values.items():
            out[key] = {}
            for v in values:
                sel = ok & self.with_value(key, [v])
                out[key][v] = [int(sel.sum()),
                               float(np.median(per_op[sel])) * 1e-6 if sel.any() else None]
        return out

    def timed(self, op: int, fn, tr=NULL, span: str = "op", part: int = -1):
        """Call ``fn()`` under the clock, in span ``span``, as a unit of operation ``op``.

        Returns ``(True, result)``, or ``(False, None)`` when it raised; a
        raise is counted as a failure and the run goes on.
        """
        win = self.gauge.window if self.gauge else -1
        t0 = time.perf_counter_ns()
        try:
            with tr.span(span):
                out, ok = fn(), True
        except Exception as exc:  # the loop is a boundary that must keep running
            out, ok = exc, False
        dt = time.perf_counter_ns() - t0
        self.attempted += 1
        self.measured_ns += dt
        if self.units == len(self.cols["ns"]):
            self.cols = {k: np.concatenate([a, np.zeros_like(a)]) for k, a in self.cols.items()}
        for name, v in (("op", op), ("ns", dt), ("win", win), ("part", part),
                        ("child_ref", CHILD_REFERENCE_NS)):
            self.cols[name][self.units] = v
        self.units += 1
        if self.gauge:
            self.gauge.measured(dt)
        if not ok:
            self.raised.add(op)
            self.fail(_reason(out), wrong=False)
            return False, None
        return True, out

    def untimed_call(self, op: int, fn):
        """Call ``fn()`` off the clock for an input the package is known to reject.

        A raise is counted in ``rejected``, not as a failure, and returns
        ``(False, None)``. A result is returned as ``(True, result)`` and
        its call counted as attempted, so a wrong result is a failure.
        """
        self.untimed.add(op)
        try:
            out = fn()
        except Exception as exc:  # the known defect; the loop goes on
            self.rejected += 1
            self.rejected_reasons[_reason_key(_reason(exc))] += 1
            return False, None
        self.attempted += 1
        return True, out

    def child_kernel(self, before_ns: int, after_ns: int):
        """Take the kernel times a child process reported for the last unit.

        They are not the unit's work, so they leave its time; their mean
        is the speed reference of the unit.
        """
        if not before_ns:  # the child died before it reported
            return
        self.cols["ns"][self.units - 1] -= before_ns + after_ns
        self.measured_ns -= before_ns + after_ns
        self.cols["child_ref"][self.units - 1] = (before_ns + after_ns) / 2.0

    def col(self, name: str) -> np.ndarray:
        return self.cols[name][: self.units]

    def unit_times_ns(self, scaled: bool = False) -> np.ndarray:
        """Time of each unit, raw or speed-scaled.

        A unit run in a child process is scaled by the kernel times the
        child reported, any other unit by this process's gauge.
        """
        t = self.col("ns").astype(float)
        if scaled:
            f = CHILD_REFERENCE_NS / self.col("child_ref").astype(float)
            if self.gauge:
                f = np.where(self.col("part") >= 0, f, self.gauge.factors()[self.col("win")])
            t = t * f
        return t

    def op_times_ns(self, scaled: bool = False):
        """Time per unit and per operation, raw or speed-scaled, and which ops returned."""
        t = self.unit_times_ns(scaled)
        per_op = np.bincount(self.col("op"), weights=t, minlength=self.ops)
        ok = np.ones(self.ops, dtype=bool)
        ok[sorted(self.raised | self.untimed)] = False
        return t, per_op, ok

    def merge_counts(self, other: "Tally"):
        self.attempted += other.attempted
        self.failed += other.failed
        self.wrong += other.wrong
        self.reasons.update(other.reasons)
        self.rejected += other.rejected
        self.rejected_reasons.update(other.rejected_reasons)


def _until(tally: Tally, seconds: float | None, count: int | None, i: int) -> bool:
    """Whether to start operation ``i``: fewer than ``count`` operations done
    and less than ``seconds`` measured, where either may be None (no limit)."""
    return ((count is None or i < count)
            and (seconds is None or tally.measured_ns < seconds * 1e9))


# ----------------------------------------------------------------------------
# closed_form_mix


def _rotation_2d(a: float) -> np.ndarray:
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, -s], [s, c]])


def solve_op(inp: gen.Input, tr=NULL):
    """The solve a material-point loop makes: F, reduced energy, minimizers.

    Returns the reduced energy and the minimizers, which are branch angles
    in 2D and rotation matrices otherwise.
    """
    W = rp.CosseratWeights(inp.mu, inp.muc)
    with tr.span("energy.DeformationGradient"):
        F = rp.DeformationGradient(inp.matrix)
    with tr.span("energy.reduced_energy"):
        wred = rp.reduced_energy(W, F)
    if F.dim == 2:
        with tr.span("planar.optimal_angles"):
            return wred, rp.optimal_angles(W, F).branch_angles
    if F.dim == 3:
        with tr.span("spatial.rpolar_3d"):
            return wred, rp.rpolar_3d(W, F).minimizers
    with tr.span("energy.reduce_parameters"):
        _, _, ft = rp.reduce_parameters(W, F)
    if W.is_classical:
        return wred, (F.polar.rotation,)
    with tr.span("ndim.global_minimizers_nd"):
        gm = rp.global_minimizers_nd(ft.singular_values)
    with tr.span("energy.absolute_rotation"):
        return wred, [rp.absolute_rotation(rh, F) for rh in gm.rotations]


def check_solve_op(inp: gen.Input, out) -> str | None:
    wred, mins = out
    if inp.dim == 2:
        mins = [_rotation_2d(a) for a in mins]
    return check.check_solve(inp.mu, inp.muc, inp.matrix, wred, mins)


def solve_loop(tally, seed, seconds, tr=NULL, tag=gen.TAG_SOLVE, count=None):
    stream = gen.SolveStream(seed, tag)
    i = 0
    while _until(tally, seconds, count, i):
        inp = stream[i]
        tr.op = i
        rejected = tally.rejected
        if gen.known_rejected(inp):
            with tr.paused():
                ok, out = tally.untimed_call(i, lambda: solve_op(inp))
        else:
            ok, out = tally.timed(i, lambda: solve_op(inp, tr), tr, "op.solve")
        tr.value("energy.DeformationGradient.rejected", float(tally.rejected > rejected))
        if ok:
            with tr.paused():
                reason = check_solve_op(inp, out)
            if reason:
                tally.fail(reason, wrong=True)
        tally.note(i, inp.props)
        i += 1
        tally.ops = i


# ----------------------------------------------------------------------------
# oracle_verify


def oracle_config(samples: int = ORACLE_SAMPLES):
    return rp.OracleConfig(seed=ORACLE_SEED, samples=samples, tol_grad=ORACLE_TOL_GRAD)


def verify_op(inp: gen.Input, cfg, tr=NULL):
    """Closed form and the oracle's unbiased minimum for one instance."""
    W = rp.CosseratWeights(inp.mu, inp.muc)
    with tr.span("energy.DeformationGradient"):
        F = rp.DeformationGradient(inp.matrix)
    with tr.span("energy.reduced_energy"):
        wred = rp.reduced_energy(W, F)
    with tr.span("oracle.global_minimize"):
        res = rp.global_minimize(W, F, cfg, warm_starts=False)
    return W, F, wred, res


def check_verify_op(inp: gen.Input, out) -> str | None:
    _, _, wred, res = out
    reason = check.check_oracle(wred, res.best_energy) or check.rotation_defect(
        res.best_rotation
    )
    if reason:
        return reason
    e = check.energy_ref(inp.mu, inp.muc, res.best_rotation, inp.matrix)
    if not abs(e - res.best_energy) <= check.ORACLE_RTOL * (1.0 + abs(wred)):
        return f"oracle best_energy {res.best_energy!r} is not the energy {e!r} of its rotation"
    return None


def replay_descents(W, F, cfg, res, tr):
    """Re-run the oracle's restarts to learn how each descent ended.

    The starts are the Haar samples ``(cfg.seed, i)`` that
    ``global_minimize`` draws; each replayed descent records its energy
    trace, so its step count and the reason it ended are known. Only
    those values are recorded: the descent times are the spans of the
    oracle's own calls, so run this with span recording paused.
    """
    for i in range(cfg.samples):
        r0 = rp.haar_sample(F.dim, np.random.default_rng((cfg.seed, i)))
        trace: list = []
        _, _, gn = rp.riemannian_descent(W, F, r0, cfg, energy_trace=trace)
        iters = len(trace) - 1
        tr.value("oracle.descent.iters", iters)
        end = "tol" if gn <= cfg.tol_grad else "cap" if iters >= cfg.max_iters else "stall"
        for kind in ("tol", "stall", "cap"):
            tr.value(f"oracle.descent.end_{kind}", float(end == kind))
    tr.value("oracle.restarts_converged", res.restarts_converged / cfg.samples)


def verify_loop(tally, seed, seconds, tr=NULL, tag=gen.TAG_ORACLE, count=None,
                samples=ORACLE_SAMPLES, replay=False):
    cfg = oracle_config(samples)
    i = 0
    # a timed run ends on a whole pass over the spectrum pool, so that
    # every run verifies the same mix of spectra
    while _until(tally, seconds, count, i) or (count is None and i % gen.ORACLE_POOL):
        inp = gen.oracle_input(seed, i, tag)
        tr.op = i
        ok, out = tally.timed(i, lambda: verify_op(inp, cfg, tr), tr, "op.verify")
        if ok:
            with tr.paused():
                reason = check_verify_op(inp, out)
                if replay:
                    W, F, _, res = out
                    replay_descents(W, F, cfg, res, tr)
            if reason:
                tally.fail(reason, wrong=True)
        tally.note(i, inp.props)
        i += 1
        tally.ops = i


# ----------------------------------------------------------------------------
# cli_batch


class CliRunner:
    """Runs ``relaxed_polar.cli`` as ``__main__`` in a child process, one command at a time.

    The child is ``perfbench/child.py``, which runs the module as
    ``python -m`` would, between two timings of its speed kernel.
    """

    def __init__(self, root: Path, out_dir: Path):
        self.root = root
        self.out_dir = out_dir
        out_dir.mkdir(parents=True, exist_ok=True)
        path = [str(root / "src")]
        if os.environ.get("PYTHONPATH"):
            path.append(os.environ["PYTHONPATH"])
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))

    def run(self, argv: list[str]):
        """Run one command to completion.

        Returns the exit code, the standard output and the child's two
        kernel times (0 when the child died before reporting them).
        """
        p = subprocess.run(
            [sys.executable, str(CHILD), "run", "relaxed_polar.cli", *argv],
            cwd=self.root, env=self.env, capture_output=True, text=True,
            timeout=SUBPROCESS_TIMEOUT_S,
        )
        return (p.returncode, p.stdout, *child_kernel_ns(p.stderr))


def child_kernel_ns(stderr: str) -> tuple[int, int]:
    """The two kernel times ``child.py`` wrote last to standard error."""
    for line in reversed(stderr.splitlines()):
        if line.startswith(KERNEL_TAG):
            before, after = line.split()[1:3]
            return int(before), int(after)
    return 0, 0


def cli_batch_op(i: int, batch: gen.CliBatch, tally: Tally, runner: CliRunner, tr=NULL):
    """Run the four commands of a batch; check each after its clock stops."""
    for part, name in enumerate(gen.CLI_COMMANDS):
        argv = batch.argv(name, str(runner.out_dir))
        ok, out = tally.timed(i, lambda: runner.run(argv), tr, f"cli.{name}.wall", part)
        if not ok:
            continue
        rc, stdout, before, after = out
        tally.child_kernel(before, after)
        try:
            with tr.paused():
                reason = check.check_cli(name, batch, rc, stdout, runner.out_dir)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            reason = f"{name} output unreadable: {_reason(exc)}"
        if reason:
            tally.fail(reason, wrong=rc == 0)


def cli_inprocess(batch: gen.CliBatch, tally: Tally, runner: CliRunner, tr):
    """In-process ``cli.main`` for iso-grid and solve, and the census enumeration.

    Subprocess wall time minus the in-process time is interpreter start
    plus import; the in-process iso-grid minus its ``wred_3d_values``
    spans is formatting plus CSV writing. The tally's gauge, which the
    spans are scaled by, is timed before and after.
    """
    tally.gauge.tick()
    for name in ("iso_grid", "solve"):
        tally.attempted += 1
        with contextlib.redirect_stdout(io.StringIO()):
            with tr.span(f"cli.{name}.inproc"):
                rc = cli.main(batch.argv(name, str(runner.out_dir)))
        if rc != 0:
            tally.fail(f"in-process {name} exited with code {rc}", wrong=False)
    tr.value("cli.iso_grid.bytes", os.path.getsize(runner.out_dir / "iso.csv"))
    with tr.span("ndim.enumerate_critical_partitions"):
        parts = rp.enumerate_critical_partitions(batch.census_nus)
    tr.value("ndim.census.partitions", len(parts))
    tally.gauge.tick()


def record_cli_walls(tally: Tally, tr):
    """Record the speed-scaled time of each CLI process, less its kernel,
    as value ``cli.<command>.wall``."""
    units = tally.unit_times_ns(scaled=True)
    parts = tally.col("part")
    for k, name in enumerate(gen.CLI_COMMANDS):
        for v in units[parts == k]:
            tr.value(f"cli.{name}.wall", float(v))


def cli_loop(tally, seed, seconds, runner, tr=NULL, count=None, sizes=None,
             inprocess=False):
    i = 0
    while _until(tally, seconds, count, i):
        batch = gen.cli_batch(seed, i, **(sizes or {}))
        tr.op = i
        with tr.span("op.cli_batch"):
            cli_batch_op(i, batch, tally, runner, tr)
        i += 1
        tally.ops = i
        if inprocess:
            cli_inprocess(batch, tally, runner, tr)


# ----------------------------------------------------------------------------
# runs


def _loop(workload, tally, seed, seconds, runner, tr=NULL, traced=False, count=None):
    if tally.gauge:
        tally.gauge.tick()
    if workload == "closed_form_mix":
        solve_loop(tally, seed, seconds, tr, count=count)
    elif workload == "oracle_verify":
        verify_loop(tally, seed, seconds, tr, count=count, replay=traced)
    else:
        cli_loop(tally, seed, seconds, runner, tr, count=count, inprocess=traced)
    if tally.gauge:
        tally.gauge.tick()


def _gauge(workload: str) -> Gauge | None:
    """A speed gauge for the in-process workloads.

    ``cli_batch`` work runs in child processes, which a kernel timed in
    this process tracks badly (correlation 0.2 to 0.4 with the command's
    time, against about 0.8 for a kernel timed in the child), so each
    child times its own kernel instead.
    """
    if workload == "cli_batch":
        return None
    return Gauge(SOLVE_GAUGE_EVERY_NS if workload == "closed_form_mix" else 0.0)


def warm_up(workload: str, seed: int, runner: CliRunner):
    """Run a little of the workload untimed so imports and lazy set-up are done."""
    if workload == "closed_form_mix":
        solve_loop(Tally(), seed, None, tag=gen.TAG_WARM, count=WARMUP_SOLVES)
    elif workload == "oracle_verify":
        verify_loop(Tally(), seed, None, tag=gen.TAG_WARM, count=len(gen.ORACLE_DIMS),
                    samples=2)
    else:
        runner.run(["ndim", "2.5", "1.5", "0.5"])
    for _ in range(3):
        reference_kernel()


@dataclass
class RunResult:
    tally: Tally
    metrics: dict
    report: dict


def _report_counts(tally: Tally) -> dict:
    return {
        "ops": tally.ops,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "wrong": tally.wrong,
        "failed_frac": tally.failed / max(tally.attempted, 1),
        "failure_reasons": dict(tally.reasons.most_common()),
        "known_rejected": tally.rejected,
        "known_rejected_reasons": dict(tally.rejected_reasons.most_common()),
    }


def _named_figures(workload: str, tally: Tally, scaled: bool) -> dict:
    """The figures named for each workload, from raw or from speed-scaled times."""
    units, per_op, ok = tally.op_times_ns(scaled)
    done = per_op[ok]
    rate = ok.sum() / (per_op.sum() * 1e-9)
    if workload == "closed_form_mix":
        return {"solves_per_s": (rate, "1/s"),
                "solve_p50_us": (float(np.median(done)) * 1e-3, "us"),
                "solve_p99_us": (float(np.percentile(done, 99)) * 1e-3, "us")}
    if workload == "oracle_verify":
        out = {"verifies_per_s": (rate, "1/s"),
               "verify_p50_s": (float(np.median(done)) * 1e-9, "s")}
        if done.size >= 100:  # at least ten samples beyond the 90th percentile
            out["verify_p90_s"] = (float(np.percentile(done, 90)) * 1e-9, "s")
        return out
    parts = tally.col("part")
    out = {"batches_per_s": (rate, "1/s"),
           "batch_p50_s": (float(np.median(done)) * 1e-9, "s")}
    for k, key in enumerate(("iso_grid_s", "solve_cli_s", "census_s", "sweep_s")):
        out[key] = (float(np.median(units[parts == k])) * 1e-9, "s")
    return out


def run_timed(workload, seed, seconds, root, out_dir, setup_s, peak_rss) -> RunResult:
    """End-to-end metrics of one run, with tracing off."""
    runner = CliRunner(root, out_dir / "cli")
    warm_up(workload, seed, runner)
    tally = Tally(_gauge(workload), int(seconds * UNITS_PER_S[workload]) + 1024)
    _loop(workload, tally, seed, seconds, runner)
    _, per_op, ok = tally.op_times_ns(scaled=True)
    metrics = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": peak_rss(workload), "unit": "MB"},
        "ops_per_s": {"value": ok.sum() / (per_op.sum() * 1e-9), "unit": "1/s"},
        "op_p50_ms": {"value": float(np.median(per_op[ok])) * 1e-6, "unit": "ms"},
    }
    report = _report_counts(tally)
    report["latency_samples"] = int(ok.sum())
    report["scaled"] = _named_figures(workload, tally, True)
    report["raw"] = _named_figures(workload, tally, False)
    ref = (np.asarray(tally.gauge.ref_ns, dtype=float) if tally.gauge
           else tally.col("child_ref").astype(float)) * 1e-6
    report["kernel_ms"] = {"samples": len(ref), "p50": float(np.median(ref)),
                           "min": float(ref.min()), "max": float(ref.max())}
    if tally.shares:
        report["input_shares"] = tally.share_table()
        report["op_p50_ms_by_input"] = tally.p50_ms_by_property(per_op, ok)
        generic = ok.copy()
        for key, values in gen.COVERAGE_ONLY.items():
            if key in tally.prop_values:
                generic &= ~tally.with_value(key, values)
        if generic.any() and not generic.all():
            report["op_p50_ms_generic_inputs"] = [int(generic.sum()),
                                                  float(np.median(per_op[generic])) * 1e-6]
    return RunResult(tally, metrics, report)


def run_traced(workload, seed, seconds, root, out_dir) -> RunResult:
    runner = CliRunner(root, out_dir / "cli")
    warm_up(workload, seed, runner)
    # cli_batch has no gauge of its own; this one, timed only around the
    # in-process work, scales its spans
    tally = Tally(_gauge(workload) or Gauge(math.inf))
    tr = Tracer(tally.gauge)
    with wrapped(tr, layers.INTERNAL_CALLS):
        _loop(workload, tally, seed, seconds, runner, tr, traced=True)
    record_cli_walls(tally, tr)

    # tracing overhead: the first operations again, untraced, both timed
    # the way the end-to-end metrics are
    replay = Tally(_gauge(workload))
    _loop(workload, replay, seed, OVERHEAD_REPLAY_SHARE * seconds, runner, count=tally.ops)
    k = replay.ops
    traced_s = tally.op_times_ns(scaled=True)[1][:k].sum() * 1e-9
    untraced_s = replay.op_times_ns(scaled=True)[1].sum() * 1e-9
    overhead = 100.0 * (traced_s - untraced_s) / untraced_s

    probes = Tally(Gauge(SOLVE_GAUGE_EVERY_NS))
    probe = Tracer(probes.gauge)
    probes.gauge.tick()
    with wrapped(probe, layers.INTERNAL_CALLS):
        if workload != "closed_form_mix":
            solve_loop(probes, seed, None, probe, tag=gen.TAG_PROBE, count=PROBE_SOLVES)
        if workload != "oracle_verify":
            verify_loop(probes, seed, None, probe, tag=gen.TAG_PROBE, count=PROBE_VERIFIES,
                        samples=PROBE_VERIFY_SAMPLES, replay=True)
        if workload != "cli_batch":
            cli_loop(probes, seed, None, runner, probe, count=1, sizes=PROBE_CLI,
                     inprocess=True)
        layers.probe_skew_exp(seed, probe)
    probes.gauge.tick()
    record_cli_walls(probes, probe)

    metrics, probed, missing = layers.layer_metrics(tr, tally.ops, probe)
    metrics["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
    tally.merge_counts(probes)
    report = _report_counts(tally)
    report.update(
        trace_overhead={"replayed_ops": k, "traced_s": traced_s, "untraced_s": untraced_s,
                        "pct": overhead},
        probed_metrics=probed,
        missing_metrics=missing,
        spans=len(tr),
    )
    tr.dump(out_dir / f"spans-{workload}-seed{seed}.npz")
    probe.dump(out_dir / f"spans-{workload}-seed{seed}-probes.npz")
    return RunResult(tally, metrics, report)
