"""Command-line front-end.

Subcommands::

    rpolar solve        minimizer set for a user-supplied matrix (JSON report)
    rpolar sweep-planar pitchfork branch data over tr U (CSV)
    rpolar scatter-mc   Monte-Carlo relative angles vs prediction (CSV)
    rpolar iso-grid     reduced-energy samples over a singular-value grid (CSV)
    rpolar ndim         minimizer set data at weights (1, 0) for singular values (JSON)

The solve report gives, in every dimension: ``reduced_energy``; the
minimizer set of :func:`~relaxed_polar.energy.solve` as ``minimizers``
with one ``branch_labels`` entry each ("polar" for the polar factor
alone, else one "+" or "-" per branching pair); ``relative_angles``, the
angles of each minimizer's ``relative_rotation`` Q^T R^T polar(F) Q (one
number per minimizer with at most one pair, a list of k pair angles with
more), "+" first; ``domain``, which compares nu_1 + nu_2 with rho and
reads "boundary" within ``BOUNDARY_RTOL`` on either side; ``degenerate``
for repeated singular values (the rule of ``MinimizerSet``: a gap of at
most ``DEGENERACY_RTOL`` nu_1 at a branching pair); ``k``, the number of
branching pairs; and ``partition``, the canonical blocks (1-based). 2D
adds ``polar_angle`` and the minimizers' absolute angles
``branch_angles``; 3D adds the rotation ``axis`` q3, ``u_mmp`` and
``s_mmp``. The ndim report is ``solve_values`` at weights (1, 0) on the
sorted values, so its ``k``, ``wred`` and ``degenerate`` agree with
``solve`` on the diagonal matrix.

Matrices are accepted as JSON rows (``[[...],[...]]``) or whitespace
separated lines, inline via ``--matrix`` or from a file. All numbers are
serialized with full round-trip precision so downstream checks are exact.
JSON has no infinity: a report field that overflows float64 at extreme
input scales ends the run with exit 3 and an error naming the field. CSV
rows keep such a value and read ``inf``, without a warning.
iso-grid, sweep-planar and the ndim census compute their columns as
arrays; every row is bit-identical to a per-row library call. Each
distinct iso-grid value and census (block, sign) entry is formatted once,
and the output is byte-identical to formatting every row on its own. Range
options (MIN MAX COUNT) need finite MIN < MAX and a whole COUNT >= 2.
scatter-mc's ``beta_predicted`` is ``solve``'s pair angle on the row's
own F, signed like ``beta_mc`` (0.0 when F does not branch).
Each subcommand imports only the modules it calls: the oracle only for
``solve --verify`` and scatter-mc, ``ndim`` only for the census.
Exit codes: 0 success, 2 parse error, 3 invalid weights/domain input (also
an input scale too large for the oracle of ``--verify`` and scatter-mc,
about ||F|| > 5e76 at unit weights), 4 unwritable output.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import re
import sys

import numpy as np

from .energy import (
    CosseratWeights,
    DeformationGradient,
    canonical_blocks,
    pair_block,
    reduced_energy_stack,
    relative_rotation,
    solve,
    solve_values,
)
from .errors import MatrixParseError

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_IO = 4

DEFAULT_SEED = 161803
# argparse reads only -N and -N.N as negative numbers, and -1e-3 as an unknown option
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def fmt(x: float) -> str:
    """Shortest decimal string that round-trips the double exactly."""
    return repr(float(x))


def _json_default(obj):
    """``json.dumps`` hook for numpy arrays and scalars (np.float64 is a float)."""
    if isinstance(obj, (np.ndarray, np.bool_, np.integer)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _dumps(report: dict) -> str:
    """The report as one JSON line. JSON has no infinity, so a field that
    overflowed float64 raises a ``ValueError`` that names it."""
    try:
        return json.dumps(report, default=_json_default, allow_nan=False)
    except ValueError:
        for field, value in report.items():
            try:
                json.dumps(value, default=_json_default, allow_nan=False)
            except ValueError:
                raise ValueError(f"{field} overflows float64: the input scale is too large") from None
        raise


def parse_matrix_text(text: str) -> list[list[float]]:
    """Parse JSON rows or whitespace CSV into a list of rows."""
    stripped = text.strip()
    if not stripped:
        raise MatrixParseError("empty matrix input")
    rows = None
    if stripped.startswith("["):
        try:
            rows = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise MatrixParseError(f"invalid JSON matrix: {exc}") from exc
    else:
        rows = []
        for line in stripped.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                rows.append([float(tok) for tok in line.replace(",", " ").split()])
            except ValueError as exc:
                raise MatrixParseError(f"invalid matrix line {line!r}") from exc
    if not isinstance(rows, list) or not rows or not all(isinstance(r, list) for r in rows):
        raise MatrixParseError("matrix must be an array of rows")
    return rows


def load_gradient(args) -> DeformationGradient:
    if getattr(args, "shear", None) is not None:
        from .planar import simple_shear

        return simple_shear(args.shear)
    if args.matrix is not None:
        rows = parse_matrix_text(args.matrix)
    elif args.file is not None:
        try:
            with open(args.file, "r", encoding="utf-8") as fh:
                rows = parse_matrix_text(fh.read())
        except OSError as exc:
            raise MatrixParseError(f"cannot read {args.file}: {exc}") from exc
    else:
        raise MatrixParseError("no matrix given (use --matrix, --file or --shear)")
    try:
        return DeformationGradient(rows)
    except ValueError as exc:
        raise MatrixParseError(str(exc)) from exc


def _weights(args) -> CosseratWeights:
    return CosseratWeights(args.mu, args.muc)


def _write_csv(path: str, header: list[str], lines):
    """Write the header and the rows, each a line of comma-joined text, in one call."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join([",".join(header), *lines]) + "\n")


def _solve_report(W: CosseratWeights, F: DeformationGradient) -> dict:
    mset = solve(W, F)
    n = F.dim
    report: dict = {
        "dim": n,
        "mu": W.mu,
        "muc": W.muc,
        "regime": W.regime.value,
        "singular_values": F.singular_values,
        "polar": F.polar.rotation,
        "reduced_energy": mset.reduced_energy,
        "domain": mset.domain.value,
        "minimizers": list(mset.minimizers),
        "branch_labels": [
            "".join("+" if s > 0 else "-" for s in signs) or "polar" for signs in mset.signs
        ],
        "relative_angles": mset.relative_angles,
    }
    if n == 2:
        from . import planar

        ap = planar.polar_angle(F)
        report["branch_angles"] = planar._branch_angles(ap, mset.relative_angles, mset.k)
        report["polar_angle"] = ap
    elif n == 3:
        from .spatial import mean_planar_stretch

        u = mean_planar_stretch(W, F)
        report["axis"] = F.polar.frame[:, 2]
        report["u_mmp"] = u
        report["s_mmp"] = u - 1.0
    report["degenerate"] = mset.degenerate
    report["partition"] = _canonical_partition(mset.k, n)
    report["k"] = mset.k
    return report


def _partition_1based(blocks, signs) -> list[dict]:
    return [{"indices": [i + 1 for i in b], "sign": s} for b, s in zip(blocks, signs)]


def _canonical_partition(k: int, n: int) -> list[dict]:
    """The n - k canonical blocks of k pairs among n values, 1-based, every sign +1."""
    return _partition_1based(canonical_blocks(k, n), [1] * (n - k))


def cmd_solve(args) -> int:
    W = _weights(args)
    F = load_gradient(args)
    report = _solve_report(W, F)
    if args.verify:
        from . import oracle

        _dumps(report)  # an overflowing field ends the run before the oracle sees it
        cfg = oracle.OracleConfig(seed=args.seed, samples=args.samples, tol_grad=1e-9)
        res = oracle.global_minimize(W, F, cfg)
        report["oracle"] = {
            "best_energy": res.best_energy,
            "gap": res.best_energy - report["reduced_energy"],
            "grad_norm": res.grad_norm_at_best,
            "restarts_converged": res.restarts_converged,
            "restarts_stalled": res.restarts_stalled,
            "restarts_capped": res.restarts_capped,
        }
    print(_dumps(report))
    return EXIT_OK


def _axis(option: str, lo: float, hi: float, count: float) -> np.ndarray:
    """The COUNT evenly spaced points MIN..MAX of a range option."""
    # hi - lo is finite exactly when both bounds are and their span is
    if not (lo < hi and np.isfinite(hi - lo) and count >= 2 and count.is_integer()):
        raise ValueError(f"{option} needs finite MIN < MAX and a whole COUNT >= 2")
    return np.linspace(lo, hi, int(count))


def cmd_sweep_planar(args) -> int:
    W = _weights(args)
    tr_u = _axis("--range", *args.range)
    nu2 = args.nu2
    if nu2 <= 0.0 or tr_u[0] <= nu2:
        raise ValueError("fixed singular value must be positive and below the range")
    # diag(tr_u - nu2, nu2) has those two entries as its singular values
    nus = np.stack([tr_u - nu2, np.full_like(tr_u, nu2)], axis=-1)
    k, wred = reduced_energy_stack(W, nus)
    bifurcated = k > 0
    beta = np.zeros_like(tr_u)
    if bifurcated.any():  # classical weights never branch and have no singular radius
        beta[bifurcated] = pair_block(nus[bifurcated].sum(axis=-1), W.singular_radius)[2]
    columns = (tr_u, beta, np.where(bifurcated, -beta, 0.0), wred)
    rows = (
        ",".join([*map(repr, values), "true" if f else "false"])
        for *values, f in zip(*(c.tolist() for c in columns), bifurcated.tolist())
    )
    _write_csv(args.out, ["tr_U", "beta_plus", "beta_minus", "wred", "bifurcated"], rows)
    return EXIT_OK


def _z_angle(rhat: np.ndarray) -> float:
    """Signed in-plane angle of a (near) block rotation about e3."""
    return float(np.arctan2(rhat[1, 0] - rhat[0, 1], rhat[0, 0] + rhat[1, 1]))


def cmd_scatter_mc(args) -> int:
    from . import oracle

    W = _weights(args)
    sums = _axis("--range", *args.range)
    nu3 = args.nu3
    if nu3 <= 0.0:
        raise ValueError("nu3 must be positive")
    rows = []
    for i, s in enumerate(sums):
        rng = np.random.default_rng((args.seed, 0xA0, i))
        split = rng.uniform(0.55, 0.75)
        nu1, nu2 = s * split, s * (1.0 - split)
        if nu3 >= nu2:
            raise ValueError(
                f"nu3={nu3:g} must stay below the smaller in-plane value {nu2:g}"
            )
        q1 = oracle.haar_sample(3, rng)
        q2 = oracle.haar_sample(3, rng)
        F = DeformationGradient(q1 @ np.diag([nu1, nu2, nu3]) @ q2.T)
        cfg = oracle.OracleConfig(
            seed=int(rng.integers(2**32)), samples=args.samples, tol_grad=1e-9
        )
        res = oracle.global_minimize(W, F, cfg, warm_starts=False)
        beta_mc = _z_angle(relative_rotation(res.best_rotation, F))
        mset = solve(W, F)
        beta_pred = float(np.copysign(mset.angles[0], beta_mc)) if mset.k else 0.0
        rows.append(
            ",".join([fmt(s), fmt(beta_mc), fmt(beta_pred), fmt(W.mu), fmt(W.muc), str(args.seed)])
        )
    _write_csv(
        args.out,
        ["nu1_plus_nu2", "beta_mc", "beta_predicted", "weights_mu", "weights_muc", "seed"],
        rows,
    )
    return EXIT_OK


def cmd_iso_grid(args) -> int:
    axis = _axis("--grid", *args.grid)
    if not axis[0] > 0.0:
        raise ValueError("--grid needs MIN > 0")
    grid = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1)
    wred = reduced_energy_stack(CosseratWeights(1.0, 0.0), grid)[1]
    # each distinct value is formatted once; wred >= +0 is never NaN, so
    # np.unique merging -0.0 with 0.0 changes no row
    values, index = np.unique(wred, return_inverse=True)
    texts = list(map(repr, values.tolist()))
    labels = [fmt(v) + "," for v in axis]
    prefixes = [ab + c for ab in [a + b for a in labels for b in labels] for c in labels]
    rows = [p + texts[i] for p, i in zip(prefixes, index.ravel().tolist())]
    _write_csv(args.out, ["nu1", "nu2", "nu3", "wred"], rows)
    return EXIT_OK


def cmd_ndim(args) -> int:
    nus = sorted((float(v) for v in args.nus), reverse=True)
    mset = solve_values(CosseratWeights(1.0, 0.0), nus)
    report = {
        "nus_sorted": nus,
        "k": mset.k,
        "partition": _canonical_partition(mset.k, len(nus)),
        "wred": mset.reduced_energy,
        "num_minimizers": 2**mset.k,
        "degenerate": mset.degenerate,
    }
    parts = None
    if args.census:
        from .ndim import enumerate_critical_partitions

        parts = enumerate_critical_partitions(nus)
    out = _dumps(report)  # an overflowing wred is named before the census
    if parts is not None:
        out = out[:-1] + ', "census": [' + ", ".join(_census_entries(parts, nus)) + "]}"
    print(out)
    return EXIT_OK


def _census_entries(parts, nus: list[float]) -> list[str]:
    """The census entries of the enumerator's partitions as ``json.dumps``
    writes them; each of the 2n + n(n - 1) possible (block, sign) entries
    is encoded once."""
    from .ndim import _block_sums

    values = _block_sums(parts, nus)  # the enumerator's partitions are admissible
    if not all(map(math.isfinite, values)):
        raise ValueError("census overflows float64: the input scale is too large")
    n = len(nus)
    blocks = [(i,) for i in range(n)] + list(itertools.combinations(range(n), 2))
    encoded = {
        (b, s): json.dumps(_partition_1based([b], [s])[0]) for b in blocks for s in (-1, 1)
    }.__getitem__
    return [
        '{"partition": [' + ", ".join(map(encoded, zip(p.blocks, p.signs))) + '], "value": '
        + float.__repr__(v) + "}"
        for p, v in zip(parts, values)
    ]


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="rpolar",
        description="Optimal Cosserat rotations: closed forms and Monte-Carlo checks",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add_weights(p):
        p.add_argument("--mu", type=float, default=1.0, help="shear weight mu > 0")
        p.add_argument("--muc", type=float, default=0.0, help="couple modulus muc >= 0")

    def add_oracle(p):
        p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="RNG seed")
        p.add_argument("--samples", type=int, default=200, help="oracle restarts")

    p = sub.add_parser("solve", help="minimizer set for one matrix")
    src = p.add_mutually_exclusive_group()
    src.add_argument("--matrix", help="inline matrix (JSON rows or whitespace CSV)")
    src.add_argument("--file", help="matrix file path")
    src.add_argument("--shear", type=float, help="planar simple shear of this amount")
    add_weights(p)
    p.add_argument("--verify", action="store_true", help="append oracle best energy")
    add_oracle(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("sweep-planar", help="pitchfork sweep over tr U (CSV)")
    add_weights(p)
    p.add_argument("--range", nargs=3, type=float, required=True, metavar=("MIN", "MAX", "COUNT"))
    p.add_argument("--nu2", type=float, default=0.25, help="fixed second singular value")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_sweep_planar)

    p = sub.add_parser("scatter-mc", help="Monte-Carlo relative angles (CSV)")
    add_weights(p)
    p.add_argument("--range", nargs=3, type=float, required=True, metavar=("MIN", "MAX", "COUNT"))
    p.add_argument("--nu3", type=float, default=0.1, help="fixed smallest singular value")
    add_oracle(p)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_scatter_mc)

    p = sub.add_parser("iso-grid", help="reduced-energy grid samples (CSV)")
    p.add_argument("--grid", nargs=3, type=float, required=True, metavar=("MIN", "MAX", "COUNT"))
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_iso_grid)

    p = sub.add_parser("ndim", help="global minimum for a singular-value list")
    p.add_argument("nus", nargs="+", type=float, help="singular values (any order)")
    p.add_argument("--census", action="store_true", help="include the full critical census")
    p.set_defaults(func=cmd_ndim)

    for p in (top, *sub.choices.values()):
        p._negative_number_matcher = _NEGATIVE_NUMBER
    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MatrixParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


def entry():  # pragma: no cover - console-script shim
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
