"""Seeded input generators for the three workloads.

Inputs depend only on the workload seed and the operation index, through
``numpy.random.default_rng((seed, tag, index))`` (for solves, one stream per
block of indices), and never on code of the package under test, so the
parent and the child of a change see the same inputs. Each input carries
the properties the solvers branch on, so a run can report the share of
each property it exercised.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

# Operation streams; a different tag keeps warm-up inputs apart from
# measured ones.
TAG_SOLVE, TAG_ORACLE, TAG_CLI, TAG_WARM, TAG_PROBE = 11, 12, 13, 14, 15

# The closed_form_mix shares are chosen for coverage, not measured: nothing
# records what a finite-element material-point loop feeds the solver. Each
# share gives a branch of the closed forms enough solves per run for a
# stable median, and the run reports the median time per property value
# (``op_p50_ms_by_input``), so a claim about another mix can re-weight it.
#
# Dimension of operation i is DIM_PATTERN[i % 20]: 30% 2D and 45% 3D, the
# dimensions of plane-strain and solid elements, with 3D the larger as the
# paper's main case; 5% each for n = 4..8, which no element uses but which
# gives the n-dimensional path some 5000 solves per n in a 15 s run. The
# pattern gives every run the same dimension mix whatever its length.
DIM_PATTERN = (2, 3, 2, 3, 4, 2, 3, 5, 3, 6, 2, 3, 7, 3, 8, 2, 3, 2, 3, 3)

SOLVE_BLOCK = 256
# A third each: the three code paths (polar factor, muc = 0, and the
# rescaled 0 < muc < mu), weighted alike for want of usage data.
REGIMES = ("classical", "muc0", "partial")
# Top pair of singular values below rho or above it, the two branches of
# every closed form, 40% each; 20% inside the classification band, a branch
# of its own that a real deformation almost never reaches but where a
# misclassification would show.
SIDES = ("classical", "non-classical", "boundary")
SIDE_P = (0.4, 0.4, 0.2)
# Repeated singular values give degenerate minimizer sets (more minimizers,
# another branch); as rare as the band in real use, 20% for coverage.
REPEATED_P = 0.2
# 1e+110 and 1e-110 scaling exercises overflow and underflow handling,
# 2% each; the 1e-110 inputs with n >= 3 are the known rejections of
# ``known_rejected``.
EXTREME_P = 0.04
# Property values present for coverage only; the run also reports the
# median solve over inputs with none of them (``op_p50_ms_generic_inputs``).
COVERAGE_ONLY = {"side": ("boundary",), "repeated": ("True",), "scale": ("1e+110", "1e-110")}
# Relative gap between consecutive singular values that are not repeated.
SPECTRUM_GAP = 0.15
# Half-width of the boundary band, relative to rho. It lies well inside the
# package's 1e-12 classification band (spatial.BOUNDARY_RTOL), so the
# rounding of the matrix product and the SVD does not move a value out.
BOUNDARY_HALF_WIDTH = 0.4e-12

ORACLE_DIMS = (2, 3, 4, 5)
ORACLE_POOL = 32
ORACLE_POOL_SEED = 1701
CLI_ISO_COUNT = 40
CLI_SWEEP_COUNT = 2000
# Census spectrum for n = 8. Every pair sum and difference of these values
# stays at least 0.13 away from 2, the admissibility threshold, and the
# jitter moves it by at most 0.04, so every seed enumerates the same 5983
# critical partitions and the census costs the same.
CENSUS_BASE = (4.47, 3.56, 3.31, 2.88, 2.16, 1.69, 1.07, 0.62)
CENSUS_JITTER = 0.02


def haar_rotation(n: int, rng: np.random.Generator, count: int | None = None) -> np.ndarray:
    """Haar-uniform rotation (or a stack of ``count``) from the QR factors of
    Gaussian matrices."""
    g = rng.standard_normal((n, n) if count is None else (count, n, n))
    q, r = np.linalg.qr(g)
    q = q * np.where(np.diagonal(r, axis1=-2, axis2=-1) < 0.0, -1.0, 1.0)[..., None, :]
    q[..., :, -1] *= np.where(np.linalg.det(q) < 0.0, -1.0, 1.0)[..., None]
    return q


def _weights(regime: str, rng: np.random.Generator) -> tuple[float, float]:
    mu = float(rng.uniform(0.5, 2.0))
    if regime == "classical":
        return mu, mu * float(rng.uniform(1.0, 2.0))
    if regime == "muc0":
        return mu, 0.0
    return mu, mu * float(rng.uniform(0.05, 0.6))


def _rho(mu: float, muc: float) -> float:
    """Bifurcation threshold on nu1 + nu2; 2 (the (1, 0) value) for classical weights."""
    return 2.0 * mu / (mu - muc) if muc < mu else 2.0


def _spectrum(n, rho, side, repeated, rng):
    """Descending singular values whose top pair sum sits on ``side`` of rho."""
    if side == "classical":
        s12 = rho * float(rng.uniform(0.55, 0.95))
    elif side == "non-classical":
        s12 = rho * float(rng.uniform(1.05, 2.0))
    else:
        s12 = rho * (1.0 + float(rng.uniform(-1.0, 1.0)) * BOUNDARY_HALF_WIDTH)
    split = 0.5 if repeated == "top" else float(rng.uniform(0.5 + SPECTRUM_GAP / 2, 0.75))
    nu1 = s12 * split
    nu2 = s12 - nu1
    rest = nu2 * np.cumprod(rng.uniform(0.45, 1.0 - SPECTRUM_GAP, n - 2))
    if repeated == "lower":
        rest[0] = nu2
    return np.concatenate(([nu1, nu2], rest))


@dataclass(frozen=True)
class Input:
    """Weights (mu, muc), a deformation gradient and the properties it has."""

    index: int
    mu: float
    muc: float
    matrix: np.ndarray
    props: dict = field(compare=False)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def known_rejected(inp: Input) -> bool:
    """Whether ``inp`` is one the package is known to reject.

    ``DeformationGradient`` rejects every 1e-110-scaled matrix with
    n >= 3 ("det > 0, got det=0"): ``np.linalg.det`` underflows to 0
    (ROADMAP item 4). A workload must have no failing operation, so
    these inputs stay in the stream but are solved off the clock and
    counted apart from the failures, as rejections of a known defect.
    """
    return inp.props["scale"] == "1e-110" and inp.dim >= 3


def solve_inputs(seed: int, block: int, tag: int = TAG_SOLVE) -> list[Input]:
    """Inputs ``block * SOLVE_BLOCK`` up to the next block of the
    ``closed_form_mix`` stream of ``seed``; drawn a block at a time so
    that making inputs costs little next to solving them."""
    rng = np.random.default_rng((seed, tag, block))
    first = block * SOLVE_BLOCK
    dims = [DIM_PATTERN[(first + k) % len(DIM_PATTERN)] for k in range(SOLVE_BLOCK)]
    regimes = rng.integers(len(REGIMES), size=SOLVE_BLOCK)
    sides = rng.choice(len(SIDES), p=SIDE_P, size=SOLVE_BLOCK)
    repeats = rng.random(SOLVE_BLOCK) < REPEATED_P
    lower = rng.random(SOLVE_BLOCK) < 0.5
    extreme = rng.random(SOLVE_BLOCK) < EXTREME_P
    big = rng.random(SOLVE_BLOCK) < 0.5
    frames = {n: iter(haar_rotation(n, rng, 2 * dims.count(n))) for n in set(dims)}
    out = []
    for k, n in enumerate(dims):
        regime, side = REGIMES[regimes[k]], SIDES[sides[k]]
        mu, muc = _weights(regime, rng)
        repeated = "none"
        if repeats[k]:
            repeated = "top" if n == 2 or not lower[k] else "lower"
        nus = _spectrum(n, _rho(mu, muc), side, repeated, rng)
        m = next(frames[n]) @ np.diag(nus) @ next(frames[n]).T
        scale = "1"
        if extreme[k]:
            scale = "1e+110" if big[k] else "1e-110"
            m = m * float(scale)
        props = {
            "dim": n,
            "regime": regime,
            "side": side,
            "repeated": repeated != "none",
            "scale": scale,
        }
        out.append(Input(first + k, mu, muc, m, props))
    return out


class SolveStream:
    """Inputs 0, 1, 2, ... of a ``closed_form_mix`` stream, made block by block."""

    def __init__(self, seed: int, tag: int = TAG_SOLVE):
        self.seed, self.tag = seed, tag
        self._block, self._inputs = -1, []

    def __getitem__(self, index: int) -> Input:
        block = index // SOLVE_BLOCK
        if block != self._block:
            self._block, self._inputs = block, solve_inputs(self.seed, block, self.tag)
        return self._inputs[index % SOLVE_BLOCK]


def _oracle_spectrum(j: int):
    """Weights and singular values of entry ``j`` of the fixed oracle pool."""
    rng = np.random.default_rng((ORACLE_POOL_SEED, TAG_ORACLE, j))
    family = j % (4 * len(ORACLE_DIMS))
    n = ORACLE_DIMS[family % len(ORACLE_DIMS)]
    regime = ("muc0", "partial")[(family // len(ORACLE_DIMS)) % 2]
    side = ("classical", "non-classical")[family // (2 * len(ORACLE_DIMS))]
    mu, muc = _weights(regime, rng)
    nus = _spectrum(n, _rho(mu, muc), side, "none", rng)
    return mu, muc, nus, {"dim": n, "regime": regime, "side": side}


def oracle_input(seed: int, index: int, tag: int = TAG_ORACLE) -> Input:
    """Input ``index`` of the ``oracle_verify`` stream of ``seed``.

    The weights and singular values cycle through a fixed pool of
    ``ORACLE_POOL`` entries: two for each of n = 2..5, muc = 0 or
    0 < muc < mu, and nu1 + nu2 below or above rho. The seed draws the
    left and right frames. A descent takes 15 to 400 steps, set by the
    spectrum far more than by the frames (two spectra a few percent apart
    took 19 and 140), so spectra drawn from the seed would let the seed,
    not the code, decide what a run costs; the pool gives every run the
    same mix of easy and hard cases.
    """
    rng = np.random.default_rng((seed, tag, index))
    mu, muc, nus, props = _oracle_spectrum(index % ORACLE_POOL)
    n = len(nus)
    m = haar_rotation(n, rng) @ np.diag(nus) @ haar_rotation(n, rng).T
    return Input(index, mu, muc, m, props)


def fmt(x: float) -> str:
    """Round-trip decimal text of a double, as passed on a command line."""
    return repr(float(x))


@dataclass(frozen=True)
class CliBatch:
    """Arguments of one four-command CLI batch and the inputs behind them."""

    index: int
    iso: tuple[float, float, int]
    solve_matrix: np.ndarray
    solve_weights: tuple[float, float]
    census_nus: np.ndarray
    sweep: tuple[float, float, int]
    sweep_nu2: float
    sweep_weights: tuple[float, float]

    def argv(self, name: str, out_dir: str) -> list[str]:
        """Command-line arguments of command ``name`` of this batch."""
        if name == "iso_grid":
            lo, hi, count = self.iso
            return ["iso-grid", "--grid", fmt(lo), fmt(hi), str(count),
                    "--out", f"{out_dir}/iso.csv"]
        if name == "solve":
            mu, muc = self.solve_weights
            return ["solve", "--matrix", json.dumps(self.solve_matrix.tolist()),
                    "--mu", fmt(mu), "--muc", fmt(muc)]
        if name == "census":
            return ["ndim", "--census", *map(fmt, self.census_nus)]
        if name == "sweep":
            lo, hi, count = self.sweep
            mu, muc = self.sweep_weights
            return ["sweep-planar", "--range", fmt(lo), fmt(hi), str(count),
                    "--nu2", fmt(self.sweep_nu2), "--mu", fmt(mu), "--muc", fmt(muc),
                    "--out", f"{out_dir}/sweep.csv"]
        raise KeyError(name)


CLI_COMMANDS = ("iso_grid", "solve", "census", "sweep")


def cli_batch(seed: int, index: int, *, iso_count: int = CLI_ISO_COUNT,
              sweep_count: int = CLI_SWEEP_COUNT, census_dim: int = 8,
              tag: int = TAG_CLI) -> CliBatch:
    """Batch ``index`` of the ``cli_batch`` stream of ``seed``."""
    rng = np.random.default_rng((seed, tag, index))
    iso = (float(rng.uniform(0.05, 0.2)), float(rng.uniform(2.5, 3.5)), iso_count)
    mu, muc = _weights("partial", rng)
    side = "classical" if rng.random() < 0.5 else "non-classical"
    nus = _spectrum(3, _rho(mu, muc), side, "none", rng)
    solve_matrix = haar_rotation(3, rng) @ np.diag(nus) @ haar_rotation(3, rng).T
    base = np.array(CENSUS_BASE[:census_dim])
    census = np.sort(base + rng.uniform(-CENSUS_JITTER, CENSUS_JITTER, census_dim))[::-1]
    sweep = (float(rng.uniform(0.6, 1.0)), float(rng.uniform(5.0, 7.0)), sweep_count)
    sweep_nu2 = float(rng.uniform(0.1, 0.4))
    sweep_weights = _weights("partial", rng)
    return CliBatch(index, iso, solve_matrix, (mu, muc), census, sweep, sweep_nu2,
                    sweep_weights)
