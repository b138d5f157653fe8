"""The rpolar command line, run in process: outputs against the library, exit codes."""

import csv
import importlib
import json
import sys

import numpy as np
import pytest

from relaxed_polar import (
    CosseratWeights,
    DeformationGradient,
    absolute_rotation,
    cli,
    critical_value,
    enumerate_critical_partitions,
    global_minimizers_nd,
    haar_sample,
    optimal_angles,
    reduced_energy,
    relative_rotation,
    rpolar_3d,
)
from relaxed_polar import solve as solve_set
from relaxed_polar.ndim import critical_values
from relaxed_polar.spatial import mean_planar_stretch, wred_3d_values

from conftest import rotation_2d

# the package exports a function named energy, so fetch the module itself
energy_module = importlib.import_module("relaxed_polar.energy")


def run(argv, capsys):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def solve(matrix, mu, muc, capsys):
    code, out, _ = run(
        ["solve", "--matrix", json.dumps(matrix), "--mu", repr(mu), "--muc", repr(muc)], capsys
    )
    assert code == cli.EXIT_OK
    return json.loads(out), out


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def assert_rotations_equal(reported, expected):
    assert len(reported) == len(expected)
    for r, e in zip(reported, expected):
        np.testing.assert_array_equal(np.array(r), e)


class TestSolve:
    def test_planar_bifurcated(self, capsys):
        m = [[3.0, 0.2], [0.1, 0.5]]
        W, F = CosseratWeights(2.0, 0.5), DeformationGradient(m)
        rep, _ = solve(m, 2.0, 0.5, capsys)
        sol = optimal_angles(W, F)
        assert rep["dim"] == 2 and rep["regime"] == "non-classical"
        assert rep["domain"] == "non-classical" and rep["branch_labels"] == ["+", "-"]
        assert rep["reduced_energy"] == reduced_energy(W, F)
        assert rep["branch_angles"] == list(sol.branch_angles)
        assert rep["relative_angles"] == list(sol.relative_angles)
        assert rep["polar_angle"] == sol.polar_angle
        assert rep["k"] == 1 and rep["degenerate"] is False
        assert_rotations_equal(rep["minimizers"], solve_set(W, F).minimizers)
        for r, a in zip(rep["minimizers"], rep["branch_angles"]):
            np.testing.assert_allclose(r, rotation_2d(a), rtol=0, atol=1e-15)

    def test_relative_angles_are_those_of_relative_rotation(self, capsys):
        rng = np.random.default_rng(6)
        m5 = haar_sample(5, rng) @ np.diag([3.0, 2.5, 2.0, 1.5, 0.5]) @ haar_sample(5, rng).T
        for m, (mu, muc), k in [
            ([[3.0, 0.2], [0.1, 0.5]], (1.0, 0.0), 1),
            ([[3.0, 0.2], [0.1, 0.5]], (2.0, 0.5), 1),
            ([[2.0, 0.3, 0.1], [0.0, 1.5, 0.2], [0.1, 0.0, 0.4]], (1.7, 0.3), 1),
            (m5.tolist(), (1.0, 0.0), 2),
        ]:
            rep, _ = solve(m, mu, muc, capsys)
            F = DeformationGradient(m)
            assert rep["k"] == k and len(rep["relative_angles"]) == 2**k
            for r, angles in zip(rep["minimizers"], rep["relative_angles"]):
                rhat = relative_rotation(np.array(r), F)
                for p, a in enumerate([angles] if k == 1 else angles):
                    got = np.arctan2(rhat[2 * p + 1, 2 * p], rhat[2 * p, 2 * p])
                    assert got == pytest.approx(a, abs=1e-12)

    def test_planar_boundary_band(self, capsys):
        # tr U = rho = 2 at weights (1, 0), and just either side of it inside
        # the band; above rho the set already bifurcates
        for nu1, labels in [
            (1.5, ["polar"]),
            (1.5 * (1.0 - 5e-13), ["polar"]),
            (1.5 * (1.0 + 5e-13), ["+", "-"]),
        ]:
            rep, _ = solve([[nu1, 0.0], [0.0, 0.5]], 1.0, 0.0, capsys)
            assert rep["domain"] == "boundary" and rep["branch_labels"] == labels
        rep, _ = solve([[1.5 * (1.0 - 1e-10), 0.0], [0.0, 0.5]], 1.0, 0.0, capsys)
        assert rep["domain"] == "classical"
        rep, _ = solve([[1.5 * (1.0 + 1e-10), 0.0], [0.0, 0.5]], 1.0, 0.0, capsys)
        assert rep["domain"] == "non-classical"

    def test_spatial(self, capsys):
        m = [[2.0, 0.3, 0.1], [0.0, 1.5, 0.2], [0.1, 0.0, 0.4]]
        W, F = CosseratWeights(1.7, 0.3), DeformationGradient(m)
        rep, _ = solve(m, 1.7, 0.3, capsys)
        sol = rpolar_3d(W, F)
        assert rep["domain"] == sol.domain.value == "non-classical"
        assert rep["reduced_energy"] == reduced_energy(W, F)
        assert rep["relative_angles"] == list(sol.relative_angles)
        u = mean_planar_stretch(W, F)
        assert rep["u_mmp"] == u and rep["s_mmp"] == u - 1.0
        np.testing.assert_array_equal(rep["axis"], F.polar.frame[:, 2])
        assert_rotations_equal(rep["minimizers"], sol.minimizers)

    def test_degenerate_is_a_json_bool(self, capsys):
        rep, out = solve([[2.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 0.5]], 1.0, 0.0, capsys)
        assert rep["degenerate"] is True and '"degenerate": true' in out
        rep, out = solve([[3.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.5]], 1.0, 0.0, capsys)
        assert rep["degenerate"] is False and '"degenerate": false' in out

    def test_general_dimension(self, capsys):
        m = [[1.5, 0.2, 0.0, 0.1], [0.0, 1.2, 0.3, 0.0], [0.0, 0.0, 0.9, 0.2], [0.1, 0.0, 0.0, 0.7]]
        W, F = CosseratWeights(1.0, 0.0), DeformationGradient(m)
        rep, _ = solve(m, 1.0, 0.0, capsys)
        gm = global_minimizers_nd(F.singular_values)
        assert rep["k"] == gm.k == 1 and rep["domain"] == "non-classical"
        assert rep["branch_labels"] == ["+", "-"]
        assert rep["reduced_energy"] == reduced_energy(W, F)
        assert rep["partition"] == [{"indices": [1, 2], "sign": 1}, {"indices": [3], "sign": 1},
                                    {"indices": [4], "sign": 1}]
        assert_rotations_equal(rep["minimizers"], solve_set(W, F).minimizers)
        for r, rh in zip(rep["minimizers"], gm.rotations):
            np.testing.assert_allclose(r, absolute_rotation(rh, F), rtol=0, atol=1e-14)

    def test_solve_never_rescales(self, capsys, monkeypatch):
        # the CLI takes k, the angles and the minimizers from F itself; rescale is
        # for reduce_parameters, and the constructor tests pin that it decomposes nothing
        calls = []
        original = energy_module.rescale

        def counted(W, F):
            calls.append(F.dim)
            return original(W, F)

        monkeypatch.setattr(energy_module, "rescale", counted)
        m4 = [[1.5, 0.2, 0.0, 0.1], [0.0, 1.2, 0.3, 0.0], [0.0, 0.0, 0.9, 0.2], [0.1, 0.0, 0.0, 0.7]]
        solve(m4, 1.0, 0.5, capsys)
        solve([[2.0, 0.3, 0.1], [0.0, 1.5, 0.2], [0.1, 0.0, 0.4]], 1.0, 0.5, capsys)
        assert calls == []

    def test_planar_solve_runs_the_pairing_rule_once(self, capsys, monkeypatch):
        # every module that binds the name counts into one list
        calls = []
        original = energy_module.reduced_energy_values

        def counted(W, nus):
            calls.append(len(nus))
            return original(W, nus)

        for name, module in list(sys.modules.items()):
            if name.startswith("relaxed_polar") and hasattr(module, "reduced_energy_values"):
                monkeypatch.setattr(module, "reduced_energy_values", counted)
        for matrix in ([[2.0, 0.3], [0.1, 1.5]], [[0.9, 0.1], [0.0, 0.6]]):
            calls.clear()
            solve(matrix, 1.0, 0.0, capsys)
            assert calls == [2]

    def test_classical_weights_give_the_polar_factor(self, capsys):
        m = [[2.0, 0.3, 0.1], [0.0, 1.5, 0.2], [0.1, 0.0, 0.4]]
        F = DeformationGradient(m)
        rep, _ = solve(m, 1.0, 2.0, capsys)
        assert rep["regime"] == "classical" and rep["domain"] == "classical"
        assert_rotations_equal(rep["minimizers"], [F.polar.rotation])

    def test_verify_reports_the_oracle(self, capsys):
        ends = ("restarts_converged", "restarts_stalled", "restarts_capped")
        for muc in ("0.0", "0.5", "2.0"):
            code, out, _ = run(
                ["solve", "--shear", "2.0", "--muc", muc, "--verify", "--samples", "3", "--seed", "5"],
                capsys,
            )
            assert code == cli.EXIT_OK
            rep = json.loads(out)
            assert set(rep["oracle"]) == {"best_energy", "gap", "grad_norm", *ends}
            assert rep["oracle"]["gap"] == rep["oracle"]["best_energy"] - rep["reduced_energy"]
            assert rep["oracle"]["gap"] >= -1e-9
            # every start ends one way: the samples, the polar factor and, for
            # non-classical weights, up to 8 closed-form minimizers
            classical = rep["regime"] == "classical"
            warm = 1 + (0 if classical else min(len(rep["minimizers"]), 8))
            assert sum(rep["oracle"][e] for e in ends) == 3 + warm

    def test_verify_in_odd_dimension_at_large_scale(self, capsys):
        # the oracle's descent steps stay rotations in odd n at any scale
        matrix = "[[1e10, 0, 0], [0, 7.5e9, 0], [0, 0, 5e9]]"
        code, out, _ = run(["solve", "--matrix", matrix, "--verify", "--samples", "16"], capsys)
        assert code == cli.EXIT_OK
        rep = json.loads(out)
        assert abs(rep["oracle"]["gap"]) <= 1e-9 * (1.0 + rep["reduced_energy"])


def test_sweep_planar(tmp_path, capsys):
    # 500 rows per weight pair, so a last-bit divergence at a 0.1% rate shows
    out = tmp_path / "sweep.csv"
    for (lo, hi, count), (mu, muc) in [
        ((0.5, 6.0, 12), (1.7, 0.3)),
        ((0.5, 6.0, 500), (1.0, 0.0)),
        ((0.3, 9.0, 500), (1.7, 0.3)),
        ((0.5, 6.0, 500), (3.3, 0.0)),
        ((0.5, 6.0, 500), (1.0, 2.0)),
    ]:
        code, _, _ = run(
            ["sweep-planar", "--range", repr(lo), repr(hi), str(count), "--nu2", "0.25",
             "--mu", repr(mu), "--muc", repr(muc), "--out", str(out)], capsys
        )
        assert code == cli.EXIT_OK
        header, rows = read_csv(out)
        assert header == ["tr_U", "beta_plus", "beta_minus", "wred", "bifurcated"]
        assert len(rows) == count
        W = CosseratWeights(mu, muc)
        for tr_u, row in zip(np.linspace(lo, hi, count), rows):
            sol = optimal_angles(W, DeformationGradient(np.diag([tr_u - 0.25, 0.25])))
            betas = sol.relative_angles if sol.bifurcated else (0.0, 0.0)
            assert row == [cli.fmt(tr_u), *map(cli.fmt, betas), cli.fmt(sol.reduced_energy),
                           "true" if sol.bifurcated else "false"]
        flags = [r[4] for r in rows]
        assert flags[0] == "false" and ("true" in flags) == (not W.is_classical)


def test_scatter_mc(tmp_path, capsys):
    out = tmp_path / "mc.csv"
    code, _, _ = run(
        ["scatter-mc", "--range", "2.5", "5", "2", "--samples", "2", "--seed", "7",
         "--mu", "1.0", "--muc", "0.0", "--out", str(out)], capsys
    )
    assert code == cli.EXIT_OK
    header, rows = read_csv(out)
    assert header == ["nu1_plus_nu2", "beta_mc", "beta_predicted", "weights_mu",
                      "weights_muc", "seed"]
    assert len(rows) == 2
    W = CosseratWeights(1.0, 0.0)
    for i, (s, row) in enumerate(zip((2.5, 5.0), rows)):
        beta_mc, beta_pred = float(row[1]), float(row[2])
        assert row[0] == cli.fmt(s) and row[3:] == ["1.0", "0.0", "7"]
        # the row's F, drawn as scatter-mc draws it
        rng = np.random.default_rng((7, 0xA0, i))
        split = rng.uniform(0.55, 0.75)
        q1, q2 = haar_sample(3, rng), haar_sample(3, rng)
        F = DeformationGradient(q1 @ np.diag([s * split, s * (1.0 - split), 0.1]) @ q2.T)
        mset = solve_set(W, F)
        assert mset.k == 1 and beta_pred == np.copysign(mset.angles[0], beta_mc)


def test_iso_grid(tmp_path, capsys):
    # the 37^3 grid has rows whose wred differs in the last digit if the
    # array and the per-row rule square differently
    out = tmp_path / "iso.csv"
    w10 = CosseratWeights(1.0, 0.0)
    for lo, hi, count in [("0.5", "2.5", 3), ("0.05", "3.5", 37)]:
        code, _, _ = run(["iso-grid", "--grid", lo, hi, str(count), "--out", str(out)], capsys)
        assert code == cli.EXIT_OK
        header, rows = read_csv(out)
        assert header == ["nu1", "nu2", "nu3", "wred"]
        axis = np.linspace(float(lo), float(hi), count)
        expected = [
            [*map(cli.fmt, (a, b, c)), cli.fmt(wred_3d_values(w10, (a, b, c)))]
            for a in axis for b in axis for c in axis
        ]
        assert rows == expected


def write_iso_grid_per_row(path, lo, hi, count):
    """iso-grid's CSV as the command wrote it before it formatted each
    distinct value once: one repr and one write per row."""
    axis = np.linspace(lo, hi, count)
    grid = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1)
    with np.errstate(over="ignore"):
        wred = energy_module.reduced_energy_stack(CosseratWeights(1.0, 0.0), grid)[1].tolist()
    labels = [cli.fmt(v) for v in axis]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("nu1,nu2,nu3,wred\n")
        for a, plane in zip(labels, wred):
            for b, line in zip(labels, plane):
                for c, w in zip(labels, line):
                    fh.write(",".join([a, b, c, repr(w)]) + "\n")


def test_iso_grid_is_byte_identical_to_the_per_row_writer(tmp_path, capsys):
    rng = np.random.default_rng(2302)
    lo = float(rng.uniform(0.05, 0.2))
    grids = [
        (lo, lo + float(rng.uniform(2.5, 3.5)), 17),
        (0.5, 1.5, 5),  # holds (1, 1, 1), whose wred is exactly 0.0
        (1e200, 1e201, 3),  # every wred overflows and reads inf
    ]
    for lo, hi, count in grids:
        out, ref = tmp_path / "iso.csv", tmp_path / "ref.csv"
        code, _, err = run(
            ["iso-grid", "--grid", repr(lo), repr(hi), str(count), "--out", str(out)], capsys
        )
        assert (code, err) == (cli.EXIT_OK, "")
        write_iso_grid_per_row(ref, lo, hi, count)
        assert out.read_bytes() == ref.read_bytes()


def test_ndim_with_census(capsys):
    code, out, _ = run(["ndim", "0.5", "3", "1", "1", "--census"], capsys)
    assert code == cli.EXIT_OK
    rep = json.loads(out)
    nus = np.array([3.0, 1.0, 1.0, 0.5])
    gm = global_minimizers_nd(nus)
    assert rep["nus_sorted"] == nus.tolist()
    assert rep["k"] == gm.k and rep["wred"] == gm.reduced_energy
    assert rep["num_minimizers"] == 2**gm.k
    assert rep["degenerate"] is True and '"degenerate": true' in out
    assert rep["partition"] == [
        {"indices": [i + 1 for i in b], "sign": s}
        for b, s in zip(gm.partition.blocks, gm.partition.signs)
    ]
    parts = enumerate_critical_partitions(nus)
    assert [c["value"] for c in rep["census"]] == [critical_value(p, nus) for p in parts]
    # the eight-value spectrum the benchmark's census jitters: every entry exact
    nus = np.array([4.47, 3.56, 3.31, 2.88, 2.16, 1.69, 1.07, 0.62])
    code, out, _ = run(["ndim", "--census", *map(repr, nus.tolist())], capsys)
    assert code == cli.EXIT_OK
    census = json.loads(out)["census"]
    parts = enumerate_critical_partitions(nus)
    assert len(census) == len(parts) > 5000
    for entry, p in zip(census, parts):
        assert entry["partition"] == [
            {"indices": [i + 1 for i in b], "sign": s} for b, s in zip(p.blocks, p.signs)
        ]
        assert entry["value"] == critical_value(p, nus)


def reference_ndim_census_stdout(nus) -> str:
    """``ndim --census`` stdout as the command built it before its census was
    encoded block by block: one ``json.dumps`` of the whole report."""
    nus = sorted(nus, reverse=True)
    mset = energy_module.solve_values(CosseratWeights(1.0, 0.0), nus)
    report = {
        "nus_sorted": nus,
        "k": mset.k,
        "partition": cli._canonical_partition(mset.k, len(nus)),
        "wred": mset.reduced_energy,
        "num_minimizers": 2**mset.k,
        "degenerate": mset.degenerate,
    }
    parts = enumerate_critical_partitions(nus)
    report["census"] = [
        {"partition": cli._partition_1based(p.blocks, p.signs), "value": v}
        for p, v in zip(parts, critical_values(parts, nus))
    ]
    return json.dumps(report) + "\n"


def census_spectra():
    rng = np.random.default_rng(2301)
    yield [4.47, 3.56, 3.31, 2.88, 2.16, 1.69, 1.07, 0.62]  # the benchmark's base
    for n in range(1, 9):
        yield rng.uniform(0.05, 4.5, n).tolist()  # any order: the command sorts
    yield [2.25, 1.5, 0.5, 0.25]  # 1.5 + 0.5 == 2.0 exactly: a pair on the boundary
    yield [3.5, 1.5, 0.75]  # 3.5 - 1.5 == 2.0 exactly: no reflection pair yet


def test_ndim_census_is_byte_identical_to_one_dumps(capsys):
    for nus in census_spectra():
        code, out, err = run(["ndim", "--census", *map(repr, nus)], capsys)
        assert (code, err) == (cli.EXIT_OK, "")
        assert out == reference_ndim_census_stdout(nus)


@pytest.mark.parametrize(
    "nus, field", [(["1e200", "1e199", "3"], "wred"), (["1.5e154", "1e154", "3"], "census")]
)
def test_an_overflowing_census_names_the_first_field_that_overflows(nus, field, capsys):
    # 1e200 overflows wred and the census; at 1.5e154 only the census's
    # reflection-pair values (nu_1 + nu_2)^2 / 2 do
    code, out, err = run(["ndim", "--census", *nus], capsys)
    assert (code, out) == (cli.EXIT_DOMAIN, "")
    assert err == f"error: {field} overflows float64: the input scale is too large\n"


@pytest.mark.parametrize(
    "nus", [(3.0, 3.0 * (1 - 1e-12), 0.5, 0.4), (3.0, 1.0, 0.5, 0.5), (2.5, 0.7, 0.7)]
)
def test_ndim_degenerate_is_that_of_solve(nus, capsys):
    code, out, _ = run(["ndim", *map(repr, nus)], capsys)
    assert code == cli.EXIT_OK
    flag = solve_set(CosseratWeights(1.0, 0.0), DeformationGradient(np.diag(nus))).degenerate
    assert json.loads(out)["degenerate"] is flag
    rep, _ = solve(np.diag(nus).tolist(), 1.0, 0.0, capsys)
    assert rep["degenerate"] is flag


@pytest.mark.parametrize(
    "argv, code",
    [
        (["ndim", "2.5", "0.5"], cli.EXIT_OK),
        (["solve", "--matrix", "[[1, 2]"], cli.EXIT_PARSE),
        (["solve", "--matrix", "[[1, 0], [0, -1]]"], cli.EXIT_PARSE),
        (["solve"], cli.EXIT_PARSE),
        (["solve", "--shear", "1", "--mu", "-1"], cli.EXIT_DOMAIN),
        (["ndim", "-1", "2"], cli.EXIT_DOMAIN),
        (["iso-grid", "--grid", "2", "1", "3", "--out", "unused.csv"], cli.EXIT_DOMAIN),
        (["ndim", "0", "2"], cli.EXIT_DOMAIN),
        (["ndim", "nan", "2"], cli.EXIT_DOMAIN),
        (["iso-grid", "--grid", "0.1", "inf", "3", "--out", "unused.csv"], cli.EXIT_DOMAIN),
        (["iso-grid", "--grid", "0", "1", "3", "--out", "unused.csv"], cli.EXIT_DOMAIN),
        (["iso-grid", "--grid", "0.5", "1", "inf", "--out", "unused.csv"], cli.EXIT_DOMAIN),
        (["sweep-planar", "--range", "1", "inf", "3", "--out", "unused.csv"], cli.EXIT_DOMAIN),
        (["sweep-planar", "--range", "nan", "5", "3", "--out", "unused.csv"], cli.EXIT_DOMAIN),
        (["sweep-planar", "--range", "1", "5", "2.9", "--out", "unused.csv"], cli.EXIT_DOMAIN),
        (["sweep-planar", "--range", "1", "5", "1", "--out", "unused.csv"], cli.EXIT_DOMAIN),
        (["sweep-planar", "--range", "1", "5", "inf", "--out", "unused.csv"], cli.EXIT_DOMAIN),
        (["scatter-mc", "--range", "2.5", "inf", "2", "--out", "unused.csv"], cli.EXIT_DOMAIN),
        (["scatter-mc", "--range", "2.5", "5", "2.5", "--out", "unused.csv"], cli.EXIT_DOMAIN),
        # negative numbers with an exponent are values, not unknown options
        (["solve", "--shear", "-1e-3"], cli.EXIT_OK),
        (["ndim", "2.5", "-1e-3"], cli.EXIT_DOMAIN),
        (["solve", "--shear", "1", "--mu", "-1e-3"], cli.EXIT_DOMAIN),
        (["sweep-planar", "--range", "-1e308", "1e308", "3", "--out", "unused.csv"], cli.EXIT_DOMAIN),
    ],
)
def test_exit_codes(argv, code, capsys):
    assert run(argv, capsys)[0] == code


def test_negative_exponent_reads_as_with_equals(capsys):
    code, out, _ = run(["solve", "--shear", "-1e-3"], capsys)
    assert code == cli.EXIT_OK
    assert out == run(["solve", "--shear=-1e-3"], capsys)[1]


OVERFLOWING = [
    (["ndim", "1e200", "1"], "wred overflows float64"),
    (
        ["solve", "--matrix", "[[1e200, 0], [0, 1e200]]", "--muc", "2"],
        "reduced_energy overflows float64",
    ),
    (
        ["solve", "--matrix", "[[1e200, 0], [0, 1e200]]", "--muc", "2", "--verify", "--samples", "4"],
        "reduced_energy overflows float64",
    ),
    # the report fits in float64, but the oracle's squared gradient norm would not
    (
        ["solve", "--matrix", "[[9e153, 0], [0, 9e153]]", "--muc", "2", "--verify", "--samples", "4"],
        "input scale ||F|| = 1.27279e+154",
    ),
    (
        ["solve", "--matrix", "[[1e77, 0], [0, 1e77]]", "--verify", "--samples", "4"],
        "input scale ||F|| = 1.41421e+77",
    ),
    # a small F whose weights overflow the same scale
    (
        ["solve", "--matrix", "[[2, 0], [0, 1]]", "--mu", "1e300", "--verify", "--samples", "4"],
        "input scale ||F|| = 2.23607, max(mu, muc) = 1e+300",
    ),
]


@pytest.mark.parametrize(
    "argv, error", OVERFLOWING, ids=[f"argv{i}" for i in range(len(OVERFLOWING))]
)
def test_an_overflowing_report_is_an_error_not_infinity(argv, error, capsys):
    # JSON has no Infinity: an energy that overflows ends the run, with nothing
    # printed, and the error names the field, or the scale the oracle refuses
    code, out, err = run(argv, capsys)
    assert code == cli.EXIT_DOMAIN
    assert out == ""
    assert err.startswith(f"error: {error}")


@pytest.mark.parametrize(
    "argv",
    [
        ["iso-grid", "--grid", "1e200", "1e201", "3", "--out", "{out}"],
        ["sweep-planar", "--range", "1e200", "1e201", "3", "--out", "{out}"],
    ],
)
def test_an_overflowing_csv_row_reads_inf_without_a_warning(argv, tmp_path, capsys):
    # the test configuration turns a numpy RuntimeWarning into an error
    out = tmp_path / "rows.csv"
    code, _, err = run([a.format(out=out) for a in argv], capsys)
    assert code == cli.EXIT_OK
    assert err == ""
    header, rows = read_csv(out)
    assert {row[header.index("wred")] for row in rows} == {"inf"}


@pytest.mark.parametrize(
    "argv",
    [
        ["iso-grid", "--grid", "0.5", "1", "2", "--out", "{missing}/iso.csv"],
        ["sweep-planar", "--range", "1", "3", "2", "--out", "{missing}/sweep.csv"],
    ],
)
def test_unwritable_output_exits_4(argv, tmp_path, capsys):
    argv = [a.format(missing=tmp_path / "missing") for a in argv]
    code, _, err = run(argv, capsys)
    assert code == cli.EXIT_IO and err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--shear", "1", "--verify", "--threads", "2"],
        ["scatter-mc", "--range", "2.5", "5", "2", "--threads", "2", "--out", "x.csv"],
        ["iso-grid", "--levels", "0.1", "--grid", "0.5", "1", "2", "--out", "x.csv"],
        ["solve", "--no-such-flag"],
    ],
)
def test_unknown_flags_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == cli.EXIT_PARSE
