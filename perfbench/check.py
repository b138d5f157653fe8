"""Correctness checks on what the package returned.

Each check returns ``None`` when the output is right and a one-line reason
when it is not. The checks run outside every timed region. Energies and
reduced energies are recomputed here from the definitions, independently
of the package; the CLI outputs are also compared with the library's
public functions called in-process. The tolerances are fixed here and are not to be
widened to make a run pass.
"""

from __future__ import annotations

import csv
import json

import numpy as np

import relaxed_polar as rp

# |E(R) - Wred| for a returned minimizer, relative to max(mu, muc)(1 + |F|^2).
SOLVE_RTOL = 1e-9
# |best_energy - Wred| for the oracle, relative to 1 + |Wred|.
ORACLE_RTOL = 1e-8
# Values the CLI prints against the same values from the library.
CLI_RTOL = 1e-12
# Orthogonality and determinant residuals of a returned rotation.
ROTATION_TOL = 1e-12


def energy_ref(mu: float, muc: float, r, f) -> float:
    """mu |sym(R^T F - 1)|^2 + muc |skew(R^T F - 1)|^2, from the definition."""
    x = np.asarray(r).T @ np.asarray(f) - np.eye(len(f))
    s = (x + x.T) / 2.0
    k = (x - x.T) / 2.0
    return float(mu * np.sum(s * s) + muc * np.sum(k * k))


def wred_ref(mu: float, muc: float, nus) -> float:
    """Reduced energy from descending singular values, from the paper's rule.

    Classical weights give mu |U - 1|^2. Otherwise consecutive descending
    pairs with nu_i + nu_j > rho are bifurcated and contribute
    mu/2 (nu_i - nu_j)^2 + mu/2 (rho - 2)^2 + muc/2 ((nu_i + nu_j)^2 - rho^2);
    the other values contribute mu (nu - 1)^2 each.
    """
    d = np.sort(np.asarray(nus, dtype=float))[::-1]
    if muc >= mu:
        return float(mu * np.sum((d - 1.0) ** 2))
    rho = 2.0 * mu / (mu - muc)
    total, i = 0.0, 0
    while i + 1 < len(d) and d[i] + d[i + 1] > rho:
        s = d[i] + d[i + 1]
        total += 0.5 * mu * (d[i] - d[i + 1]) ** 2 + 0.5 * mu * (rho - 2.0) ** 2
        total += 0.5 * muc * (s * s - rho * rho)
        i += 2
    return total + float(mu * np.sum((d[i:] - 1.0) ** 2))


def rotation_defect(r) -> str | None:
    """Reason why ``r`` is not a rotation, or None."""
    a = np.asarray(r, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or not np.all(np.isfinite(a)):
        return "minimizer is not a finite square matrix"
    n = len(a)
    tol = ROTATION_TOL * max(1.0, np.sqrt(n))
    if np.linalg.norm(a.T @ a - np.eye(n)) > tol:
        return "minimizer is not orthogonal"
    if abs(np.linalg.det(a) - 1.0) > tol:
        return "minimizer has det != 1"
    return None


def check_solve(mu: float, muc: float, matrix, wred: float, minimizers) -> str | None:
    """A closed-form solve: rotations attaining the reduced energy."""
    f = np.asarray(matrix, dtype=float)
    scale = max(mu, muc) * (1.0 + float(np.sum(f * f)))
    tol = SOLVE_RTOL * scale
    ref = wred_ref(mu, muc, np.linalg.svd(f, compute_uv=False))
    if not abs(wred - ref) <= tol:
        return f"reduced energy {wred!r} differs from the reference {ref!r}"
    if len(minimizers) == 0:
        return "empty minimizer set"
    for r in minimizers:
        reason = rotation_defect(r)
        if reason:
            return reason
        e = energy_ref(mu, muc, r, f)
        if not abs(e - wred) <= tol:
            return f"minimizer energy {e!r} differs from the reduced energy {wred!r}"
    return None


def check_oracle(wred: float, best_energy: float) -> str | None:
    """An oracle verification: the oracle's minimum equals the closed form.

    An oracle minimum below the closed form means the closed form is not
    the minimum; one above it means the oracle missed the minimum.
    """
    tol = ORACLE_RTOL * (1.0 + abs(wred))
    if best_energy < wred - tol:
        return f"closed form {wred!r} lies above the oracle minimum {best_energy!r}"
    if best_energy > wred + tol:
        return f"oracle minimum {best_energy!r} lies above the closed form {wred!r}"
    return None


def _close(a: float, b: float, rtol: float = CLI_RTOL) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


def _read_csv(path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def check_iso_grid(batch, out_path) -> str | None:
    """iso-grid: one row per grid point, wred of the (1, 0) weights."""
    header, rows = _read_csv(out_path)
    lo, hi, count = batch.iso
    if header != ["nu1", "nu2", "nu3", "wred"]:
        return f"iso-grid header {header}"
    if len(rows) != count**3:
        return f"iso-grid has {len(rows)} rows, expected {count**3}"
    vals = np.array(rows, dtype=float)
    axis = np.linspace(lo, hi, count)
    grid = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), -1).reshape(-1, 3)
    if not np.array_equal(vals[:, :3], grid):
        return "iso-grid points differ from the requested grid"
    d = -np.sort(-grid, axis=1)
    pair = d[:, 0] + d[:, 1] > 2.0
    ref = np.where(pair, 0.5 * (d[:, 0] - d[:, 1]) ** 2 + (d[:, 2] - 1.0) ** 2,
                   np.sum((d - 1.0) ** 2, axis=1))
    if not np.all(np.abs(vals[:, 3] - ref) <= CLI_RTOL * np.maximum(1.0, np.abs(ref))):
        return "iso-grid wred differs from the reference"
    w10 = rp.CosseratWeights(1.0, 0.0)
    for k in range(0, len(rows), max(1, len(rows) // 64)):
        lib = rp.reduced_energy(w10, rp.DeformationGradient(np.diag(d[k])))
        if not _close(vals[k, 3], lib, 1e-10):
            return f"iso-grid row {k} wred {vals[k, 3]!r} differs from the library {lib!r}"
    return None


def check_sweep(batch, out_path) -> str | None:
    """sweep-planar: wred and the bifurcation flag along tr U."""
    header, rows = _read_csv(out_path)
    lo, hi, count = batch.sweep
    if header != ["tr_U", "beta_plus", "beta_minus", "wred", "bifurcated"]:
        return f"sweep header {header}"
    if len(rows) != count:
        return f"sweep has {len(rows)} rows, expected {count}"
    mu, muc = batch.sweep_weights
    W = rp.CosseratWeights(mu, muc)
    rho = W.singular_radius
    nu2 = batch.sweep_nu2
    for k, (tr, row) in enumerate(zip(np.linspace(lo, hi, count), rows)):
        if float(row[0]) != tr:
            return f"sweep row {k} has tr_U {row[0]}, expected {tr!r}"
        if not _close(float(row[3]), wred_ref(mu, muc, (tr - nu2, nu2)), 1e-10):
            return f"sweep row {k} wred differs from the reference"
        flag = row[4].strip().lower() in ("true", "1")
        # within rounding of rho the SVD of diag(tr - nu2, nu2) decides
        if flag != bool(tr > rho) and abs(tr - rho) > 1e-9 * rho:
            return f"sweep row {k} bifurcated={row[4]} at tr_U={tr!r}, rho={rho!r}"
    for k in range(0, count, max(1, count // 32)):
        tr = float(rows[k][0])
        sol = rp.optimal_angles(W, rp.DeformationGradient(np.diag([tr - nu2, nu2])))
        if not _close(float(rows[k][3]), sol.reduced_energy):
            return f"sweep row {k} wred differs from the library {sol.reduced_energy!r}"
    return None


def check_solve_report(batch, stdout: str) -> str | None:
    """solve: reduced energy, minimizers and flags of a 3D report."""
    rep = json.loads(stdout)
    mu, muc = batch.solve_weights
    W = rp.CosseratWeights(mu, muc)
    F = rp.DeformationGradient(batch.solve_matrix)
    lib = rp.rpolar_3d(W, F)
    if not _close(rep["reduced_energy"], rp.reduced_energy(W, F)):
        return f"solve reduced_energy {rep['reduced_energy']!r} differs from the library"
    mins = [np.array(m) for m in rep["minimizers"]]
    if len(mins) != len(lib.minimizers):
        return f"solve reports {len(mins)} minimizers, the library {len(lib.minimizers)}"
    for a, b in zip(mins, lib.minimizers):
        if np.linalg.norm(a - b) > 1e-9:
            return "solve minimizer differs from the library"
    if bool(rep.get("degenerate")) != bool(lib.degenerate):
        return f"solve degenerate={rep.get('degenerate')!r}, library {lib.degenerate}"
    return check_solve(mu, muc, batch.solve_matrix, rep["reduced_energy"], mins)


def check_census(batch, stdout: str) -> str | None:
    """ndim --census: global minimum, pair count and the critical census."""
    rep = json.loads(stdout)
    nus = np.asarray(batch.census_nus)
    gm = rp.global_minimizers_nd(nus, with_rotations=False)
    if not _close(rep["wred"], gm.reduced_energy) or not _close(
        rep["wred"], wred_ref(1.0, 0.0, nus)
    ):
        return f"ndim wred {rep['wred']!r} differs from the library {gm.reduced_energy!r}"
    if rep["k"] != gm.k or rep["num_minimizers"] != 2**gm.k:
        return f"ndim k={rep['k']}, library k={gm.k}"
    if bool(rep["degenerate"]) != bool(gm.degenerate):
        return f"ndim degenerate={rep['degenerate']!r}, library {gm.degenerate}"
    parts = rp.enumerate_critical_partitions(nus)
    census = rep["census"]
    if len(census) != len(parts):
        return f"census lists {len(census)} partitions, the library {len(parts)}"
    for entry, p in zip(census, parts):
        if not _close(entry["value"], rp.critical_value(p, nus)):
            return "census value differs from the library"
    return None


def check_cli(name: str, batch, returncode: int, stdout: str, out_dir) -> str | None:
    """One CLI command: exit code 0 and an output that matches the library."""
    if returncode != 0:
        return f"{name} exited with code {returncode}"
    if name == "iso_grid":
        return check_iso_grid(batch, f"{out_dir}/iso.csv")
    if name == "sweep":
        return check_sweep(batch, f"{out_dir}/sweep.csv")
    if name == "solve":
        return check_solve_report(batch, stdout)
    if name == "census":
        return check_census(batch, stdout)
    raise KeyError(name)
