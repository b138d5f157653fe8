"""Tests of the benchmark itself: seeded inputs, checkers and spans.

Run from the repository root with ``python -m pytest perfbench``.
"""

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import relaxed_polar as rp  # noqa: E402
from perfbench import check, gen, layers, workloads  # noqa: E402
from perfbench.gauge import REFERENCE_NS, Gauge  # noqa: E402
from perfbench.spans import Tracer, wrapped  # noqa: E402


def _same_inputs(a, b):
    return (a.index, a.mu, a.muc, a.props) == (b.index, b.mu, b.muc, b.props) and (
        np.array_equal(a.matrix, b.matrix)
    )


class TestGenerators:
    def test_solve_stream_deterministic(self):
        a, b = gen.SolveStream(7), gen.SolveStream(7)
        idx = [0, 5, 255, 256, 700, 3]
        assert all(_same_inputs(a[i], b[i]) for i in idx)
        assert not np.array_equal(gen.SolveStream(8)[5].matrix, a[5].matrix)

    def test_oracle_and_cli_deterministic(self):
        for i in (0, 1, 33):
            assert _same_inputs(gen.oracle_input(3, i), gen.oracle_input(3, i))
        x, y = gen.cli_batch(3, 2), gen.cli_batch(3, 2)
        for name in gen.CLI_COMMANDS:
            assert x.argv(name, "out") == y.argv(name, "out")
        assert gen.cli_batch(4, 2).argv("solve", "o") != x.argv("solve", "o")

    def test_solve_inputs_have_their_properties(self):
        stream = gen.SolveStream(1)
        for i in range(400):
            inp = stream[i]
            p = inp.props
            assert inp.dim == p["dim"] == gen.DIM_PATTERN[i % len(gen.DIM_PATTERN)]
            nus = np.linalg.svd(inp.matrix / float(p["scale"]), compute_uv=False)
            assert np.linalg.det(inp.matrix / float(p["scale"])) > 0.0
            if p["regime"] == "classical":
                assert inp.muc >= inp.mu
            else:
                assert inp.muc < inp.mu and (inp.muc == 0.0) == (p["regime"] == "muc0")
            rho = 2.0 * inp.mu / (inp.mu - inp.muc) if inp.muc < inp.mu else 2.0
            rel = (nus[0] + nus[1] - rho) / rho
            if p["side"] == "boundary":
                assert abs(rel) <= 1e-12
            else:
                assert (rel < 0.0) == (p["side"] == "classical") and abs(rel) > 0.04
            gaps = -np.diff(nus) / nus[0]
            assert (gaps.min() <= 1e-10) == p["repeated"]

    def test_shares_sum_to_one(self):
        stream = gen.SolveStream(2)
        tally = workloads.Tally()
        for i in range(300):
            tally.note(i, stream[i].props)
        tally.ops = 300
        shares = tally.share_table()
        assert set(shares) == {"dim", "regime", "side", "repeated", "scale"}
        for dist in shares.values():
            assert sum(dist.values()) == pytest.approx(1.0, abs=1e-3)
        assert shares["dim"]["3"] == pytest.approx(0.45, abs=0.01)

    def test_known_rejected_inputs_are_solved_off_the_clock(self):
        stream = gen.SolveStream(1)
        known = [i for i in range(2000) if gen.known_rejected(stream[i])]
        assert known and all(stream[i].dim >= 3 for i in known)
        tally = workloads.Tally()
        workloads.solve_loop(tally, 1, None, count=known[0] + 1)
        assert tally.failed == tally.wrong == 0
        assert tally.rejected == 1 and tally.untimed == {known[0]}
        assert tally.attempted == tally.units == known[0]
        _, per_op, ok = tally.op_times_ns()
        assert not ok[known[0]] and ok[: known[0]].all()

    def test_census_spectrum_keeps_clear_of_thresholds(self):
        # a constant partition count keeps the census cost independent of the seed
        for seed in range(20):
            nus = gen.cli_batch(seed, 0).census_nus
            assert np.all(np.diff(nus) < 0.0)
            for a, b in itertools.combinations(nus, 2):
                assert abs(a + b - 2.0) > 0.08 and abs(abs(a - b) - 2.0) > 0.08


def _solved_3d(seed=5):
    rng = np.random.default_rng(seed)
    m = gen.haar_rotation(3, rng) @ np.diag([2.9, 1.7, 0.6]) @ gen.haar_rotation(3, rng).T
    W = rp.CosseratWeights(1.0, 0.2)
    F = rp.DeformationGradient(m)
    return W, m, rp.reduced_energy(W, F), rp.rpolar_3d(W, F).minimizers


class TestCheckers:
    def test_reference_energy_matches_library(self):
        stream = gen.SolveStream(4)
        for i in range(200):
            inp = stream[i]
            if inp.props["scale"] != "1":
                continue
            W = rp.CosseratWeights(inp.mu, inp.muc)
            F = rp.DeformationGradient(inp.matrix)
            ref = check.wred_ref(inp.mu, inp.muc, F.singular_values)
            assert ref == pytest.approx(rp.reduced_energy(W, F), rel=1e-11, abs=1e-11)

    def test_accepts_closed_form_minimizers(self):
        W, m, wred, mins = _solved_3d()
        assert len(mins) == 2
        assert check.check_solve(W.mu, W.muc, m, wred, mins) is None

    def test_flags_minimizer_perturbed_by_small_rotation(self):
        W, m, wred, mins = _solved_3d()
        a = np.array([[0.0, -1.0, 0.3], [1.0, 0.0, -0.5], [-0.3, 0.5, 0.0]]) * 1e-3
        bad = [mins[0] @ rp.skew_exp(a), mins[1]]
        assert check.rotation_defect(bad[0]) is None
        assert "minimizer energy" in check.check_solve(W.mu, W.muc, m, wred, bad)

    def test_flags_wrong_reduced_energy_and_non_rotation(self):
        W, m, wred, mins = _solved_3d()
        assert "reduced energy" in check.check_solve(W.mu, W.muc, m, wred * (1 + 1e-6), mins)
        assert "det" in check.check_solve(W.mu, W.muc, m, wred, [-mins[0]])

    def test_flags_wrong_oracle_energy(self):
        assert check.check_oracle(4.2, 4.2 + 1e-14) is None
        assert "closed form" in check.check_oracle(4.2, 4.2 - 1e-6)
        assert "oracle minimum" in check.check_oracle(4.2, 4.2 + 1e-6)

    def test_flags_nonzero_cli_exit(self, tmp_path):
        batch = gen.cli_batch(1, 0)
        for name in gen.CLI_COMMANDS:
            assert "exited with code 3" in check.check_cli(name, batch, 3, "", tmp_path)

    def test_cli_outputs_pass_and_compare_flags_by_truth_value(self, tmp_path):
        batch = gen.cli_batch(1, 0, iso_count=6, sweep_count=50, census_dim=5)
        env_path = str(ROOT / "src")
        for name in gen.CLI_COMMANDS:
            p = subprocess.run(
                [sys.executable, "-m", "relaxed_polar.cli", *batch.argv(name, str(tmp_path))],
                env={"PYTHONPATH": env_path, "PATH": ""}, capture_output=True, text=True,
                timeout=120,
            )
            assert check.check_cli(name, batch, p.returncode, p.stdout, tmp_path) is None
            if name == "census":
                as_bool = p.stdout.replace('"degenerate": 0', '"degenerate": false')
                assert check.check_cli(name, batch, 0, as_bool, tmp_path) is None


class TestSpans:
    def test_self_time_excludes_children(self):
        tr = Tracer()
        with tr.span("outer"):
            with tr.span("inner"):
                pass
            with tr.span("inner"):
                pass
        total = tr.durations_ns("outer")[0]
        inner = tr.durations_ns("inner").sum()
        assert tr.self_times_ns("outer")[0] == total - inner
        assert list(tr.parent) == [-1, 0, 0]

    def test_paused_records_values_but_no_spans(self):
        tr = Tracer()
        with tr.span("op"):
            with tr.paused():
                with tr.span("check"):
                    tr.value("v", 1.0)
            with tr.span("inner"):
                pass
        assert tr.names == ["op", "inner"] and tr.values == {"v": [1.0]}

    def test_last_child_is_taken_per_parent(self):
        tr = Tracer()
        for _ in range(2):
            with tr.span("outer"):
                for _ in range(3):
                    with tr.span("step"):
                        pass
        last = tr.last_child_durations_ns("step")
        assert len(last) == 2
        assert set(last) == {tr.durations_ns("step")[2], tr.durations_ns("step")[5]}

    def test_spans_take_the_factor_of_their_gauge_window(self):
        g = Gauge()
        g.ref_ns.extend([int(REFERENCE_NS), int(REFERENCE_NS), int(REFERENCE_NS / 3)])
        g.opened_ns.extend([100, 200, 300])
        assert g.factors() == pytest.approx([1.0, 1.5])
        assert g.factors_at([50, 150, 250, 400]) == pytest.approx([1.0, 1.0, 1.5, 1.5])
        tr = Tracer(g)
        tr.index("s")
        tr.name.extend([0, 0])
        tr.parent.extend([-1, -1])
        tr.op_id.extend([0, 1])
        tr.start.extend([150, 250])
        tr.end.extend([160, 260])
        assert tr.durations_ns("s") == pytest.approx([10.0, 15.0])

    def test_oracle_descents_are_the_programs_own_calls(self):
        inp = gen.oracle_input(1, 0)
        tr = Tracer()
        cfg = workloads.oracle_config(samples=3)
        with wrapped(tr, layers.INTERNAL_CALLS):
            workloads.verify_op(inp, cfg, tr)
        # three restarts and the polish from the winner
        assert len(tr.durations_ns("oracle.riemannian_descent")) == 4
        assert len(tr.last_child_durations_ns("oracle.riemannian_descent")) == 1

    def test_wrapped_records_and_restores(self):
        tr = Tracer()
        original = rp.spatial.wred_3d_values
        with wrapped(tr, [(rp.spatial, "wred_3d_values", "w"), (rp.spatial, "absent", "x")]):
            rp.wred_3d(rp.CosseratWeights(1.0, 0.0), rp.DeformationGradient(np.eye(3) * 2))
        assert rp.spatial.wred_3d_values is original
        assert len(tr.durations_ns("w")) == 1


@pytest.mark.parametrize("argv, code", [(["ndim", "2.5", "0.5"], 0), (["ndim", "-1"], 3)])
def test_child_runs_the_cli_and_reports_its_kernel(argv, code):
    p = subprocess.run(
        [sys.executable, str(workloads.CHILD), "run", "relaxed_polar.cli", *argv],
        cwd=ROOT, env={"PYTHONPATH": str(ROOT / "src"), "PATH": ""},
        capture_output=True, text=True, timeout=120,
    )
    assert p.returncode == code
    assert ('"wred"' in p.stdout) == (code == 0)
    before, after = workloads.child_kernel_ns(p.stderr)
    assert before > 0 and after > 0


def test_benchmark_json_lists_the_layer_metrics_the_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    made = [(m[0], m[1]) for m in layers.LAYER_METRICS] + [("trace.overhead_pct", "%")]
    assert listed == made


def test_run_refuses_a_directory_without_the_package(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli_batch", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert p.returncode != 0 and p.stdout == ""
