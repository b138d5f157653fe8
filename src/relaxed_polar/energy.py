"""The weighted Cosserat shear-stretch energy and its parameter reduction.

The energy of a rotation R against a deformation gradient F is

    W(R; F) = mu * ||sym(R^T F - 1)||^2 + muc * ||skew(R^T F - 1)||^2

with shear weight mu > 0 and Cosserat couple modulus muc >= 0. Two weight
regimes exist: for muc >= mu ("classical") the polar factor is the unique
minimizer; for mu > muc ("non-classical") the whole family reduces to the
limit case (1, 0) evaluated on a rescaled deformation gradient, and the
minimizers can deviate from the polar factor. :func:`solve` gives the
minimizer set of F in every dimension from one pairing rule, and
:func:`solve_values` the same set from singular values alone, as relative
rotations; either set builds its rotations only when they are read.
F's one SVD gives its singular values, and :class:`PolarData` from which
:func:`absolute_rotation` builds every rotation of F; :func:`dist_sq_so_n`
reads F's distance to the rotation group off the singular values.
"""

from __future__ import annotations

import enum
import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import matcore
from .errors import DimensionMismatch, RegimeError

# relative width of the band classified as the bifurcation boundary
BOUNDARY_RTOL = 1e-12
# relative gap under which singular values count as repeated
DEGENERACY_RTOL = 1e-10
# machine epsilon, the unit of the constructor's rank rule
_EPS = sys.float_info.epsilon


class Regime(enum.Enum):
    CLASSICAL = "classical"
    NON_CLASSICAL = "non-classical"


class Domain(enum.Enum):
    CLASSICAL = "classical"
    BOUNDARY = "boundary"
    NON_CLASSICAL = "non-classical"


@dataclass(frozen=True)
class CosseratWeights:
    """Weight pair (mu, muc) with the derived non-classical constants.

    ``singular_radius`` rho = 2 mu / (mu - muc) is the bifurcation
    threshold on nu_1 + nu_2 (tr U in 2D), ``scaling`` lam = mu / (mu - muc)
    rescales F to the (1, 0) limit case, and ``zeta`` = rho - 2 enters the
    classical-neighborhood criterion. All three exist only for mu > muc;
    the boundary mu = muc belongs to the classical regime and must never
    evaluate them.
    """

    mu: float
    muc: float

    def __post_init__(self):
        if not (math.isfinite(self.mu) and math.isfinite(self.muc)):
            raise ValueError("weights must be finite")
        if self.mu <= 0.0:
            raise ValueError("shear weight mu must be positive")
        if self.muc < 0.0:
            raise ValueError("couple modulus muc must be non-negative")
        # computed once; the fields alone set ==, hash and repr
        object.__setattr__(self, "_classical", self.muc >= self.mu)
        if not self._classical:
            object.__setattr__(self, "_lam", self.mu / (self.mu - self.muc))
            object.__setattr__(self, "_rho", 2.0 * self._lam)  # not (2 mu) / ..., which overflows for mu > ~9e307

    @property
    def is_classical(self) -> bool:
        return self._classical

    @property
    def regime(self) -> Regime:
        return Regime.CLASSICAL if self.is_classical else Regime.NON_CLASSICAL

    def _require_non_classical(self):
        if self._classical:
            raise RegimeError(
                f"quantity undefined for classical weights (mu={self.mu}, muc={self.muc})"
            )

    @property
    def singular_radius(self) -> float:
        self._require_non_classical()
        return self._rho

    @property
    def scaling(self) -> float:
        self._require_non_classical()
        return self._lam

    @property
    def zeta(self) -> float:
        self._require_non_classical()
        return 2.0 * (self.muc / (self.mu - self.muc))


@dataclass(frozen=True)
class PolarData:
    """The polar factor ``rotation`` of F and the spectral ``frame`` Q, a
    rotation, of its stretch Q diag(nu) Q^T, nu = ``F.singular_values``."""

    rotation: np.ndarray
    frame: np.ndarray


def _det(a) -> float:
    """Cofactor determinant of a 1 x 1, 2 x 2 or 3 x 3 nested list, in floats."""
    if len(a) < 3:
        return a[0][0] if len(a) == 1 else a[0][0] * a[1][1] - a[0][1] * a[1][0]
    (p, q, r), (s, t, u), (v, w, x) = a
    return p * (t * x - u * w) - q * (s * x - u * v) + r * (s * w - t * v)


class DeformationGradient:
    """An n x n matrix with positive determinant plus cached decompositions.

    The polar factor U V^T, the descending singular values and the det-+1
    frame all come from one SVD, taken at construction: every downstream
    formula consumes them, and a fixed decomposition keeps branch labels
    and set comparisons reproducible. A matrix is accepted when it is
    finite and square, nu_min > n eps nu_max (numerically nonsingular) and
    det(U V^T) = +1; anything else is a hard constructor error rather than
    a silent NaN path. The sign comes from the orthogonal factors, so it
    cannot underflow or overflow at any scale.
    """

    __slots__ = ("_matrix", "_values", "_polar")

    def __init__(self, matrix):
        m = np.array(matrix, dtype=float)
        left, values, right = matcore.svd_ordered(m)
        rotation = left @ right.T
        if len(values) > 3:
            det_left, det_right = np.linalg.det(np.array((left, right.T)))
        else:
            det_left, det_right = _det(left.tolist()), _det(right.tolist())
        frame = right.copy()
        if det_right < 0.0:
            frame[:, -1] = -frame[:, -1]
        # the rank rule in _set goes first: a singular matrix has no orientation
        self._set(m, values, rotation, frame)
        if det_left * det_right < 0.0:
            raise ValueError("deformation gradient must have det > 0, got det < 0")

    def _set(self, matrix, values, rotation, frame):
        if not values[-1] > len(values) * _EPS * values[0]:
            raise ValueError(
                f"deformation gradient must be nonsingular, got singular values "
                f"{values[0]:g} to {values[-1]:g}"
            )
        for a in (matrix, values, rotation, frame):
            a.setflags(write=False)
        self._matrix = matrix
        self._values = values
        self._polar = PolarData(rotation=rotation, frame=frame)

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def dim(self) -> int:
        return self._matrix.shape[0]

    @property
    def singular_values(self) -> np.ndarray:
        """Singular values in descending order (all positive)."""
        return self._values

    @property
    def polar(self) -> PolarData:
        return self._polar

    def __repr__(self):
        return f"DeformationGradient(dim={self.dim}, nu={np.array2string(self._values, precision=4)})"


def energy(W: CosseratWeights, R, F: DeformationGradient) -> float:
    """The shear-stretch energy mu ||sym X||^2 + muc ||skew X||^2, X = R^T F - 1.

    Evaluated from the definition. A non-finite R raises ``ValueError``
    before the product, where inf * 0 would warn, and so does an X that
    overflows, without a warning.
    """
    r = np.asarray(R, dtype=float)
    if r.shape != (F.dim, F.dim):
        raise DimensionMismatch(f"rotation shape {r.shape} does not match dim {F.dim}")
    if not np.isfinite(r).all():
        raise ValueError("matrix entries must be finite")
    with np.errstate(over="ignore", invalid="ignore"):
        x = r.T @ F.matrix - np.eye(F.dim)
    if not np.isfinite(x).all():
        raise ValueError("matrix entries must be finite")
    s, a = (x + x.T) / 2.0, (x - x.T) / 2.0
    return W.mu * float(np.sum(s * s)) + W.muc * float(np.sum(a * a))


def rescale(W: CosseratWeights, F: DeformationGradient) -> DeformationGradient:
    """Rescaled gradient F / lam reducing non-classical weights to (1, 0).

    Decomposes nothing: the matrix and singular values of F are divided by
    lam, and the rotation and frame of F are shared. For muc = 0 the
    rescaling is a no-op and F itself is returned.
    """
    W._require_non_classical()
    if W.muc == 0.0:
        return F
    lam = W.scaling
    ft = DeformationGradient.__new__(DeformationGradient)
    ft._set(F.matrix / lam, F.singular_values / lam, F.polar.rotation, F.polar.frame)
    return ft


_W10 = CosseratWeights(1.0, 0.0)
_W11 = CosseratWeights(1.0, 1.0)


def reduce_parameters(
    W: CosseratWeights, F: DeformationGradient
) -> tuple[Regime, CosseratWeights, DeformationGradient]:
    """Map (W, F) to the canonical limit case with the same minimizers.

    Classical weights reduce to (1, 1) on F unchanged; non-classical
    weights reduce to (1, 0) on the rescaled gradient. Each canonical
    weight pair is one shared frozen instance, not built per call.
    """
    if W.is_classical:
        return Regime.CLASSICAL, _W11, F
    return Regime.NON_CLASSICAL, _W10, rescale(W, F)


def relative_rotation(R, F: DeformationGradient) -> np.ndarray:
    """Rotation acting relative to the polar factor in the principal frame.

    Rhat = Q^T R^T polar(F) Q with Q the cached spectral frame of the
    stretch. The absolute rotation is recovered as
    R = polar(F) @ Q @ Rhat.T @ Q.T.
    """
    r = np.asarray(R, dtype=float)
    if r.shape != (F.dim, F.dim):
        raise DimensionMismatch(f"rotation shape {r.shape} does not match dim {F.dim}")
    q = F.polar.frame
    return q.T @ r.T @ F.polar.rotation @ q


def absolute_rotation(Rhat, F: DeformationGradient) -> np.ndarray:
    """Inverse of :func:`relative_rotation`, polar(F) Q Rhat^T Q^T, for one
    (n, n) Rhat or slice by slice for a stack (..., n, n)."""
    rh = np.asarray(Rhat, dtype=float)
    if rh.shape[-2:] != (F.dim, F.dim):
        raise DimensionMismatch(f"rotation shape {rh.shape} does not match dim {F.dim}")
    q = F.polar.frame
    return F.polar.rotation @ q @ rh.swapaxes(-1, -2) @ q.T


def nonclassical_pair_energy(W: CosseratWeights, nu_i: float, nu_j: float) -> float:
    """Energy contribution of one bifurcated 2x2 block at its optimal angle.

    For mu > muc and nu_i + nu_j >= rho, the in-plane rotation with
    cos(beta) = rho / (nu_i + nu_j) contributes

        mu/2 (nu_i - nu_j)^2 + mu/2 (rho - 2)^2 + muc/2 ((nu_i + nu_j)^2 - rho^2).

    At nu_i + nu_j = rho this matches the classical per-pair value
    mu [(nu_i - 1)^2 + (nu_j - 1)^2], so the reduced energy is continuous
    across the bifurcation. Squares are products; arrays work elementwise.
    """
    rho = W.singular_radius
    s, t, r = nu_i + nu_j, nu_i - nu_j, rho - 2.0
    total = 0.5 * W.mu * (t * t) + 0.5 * W.mu * (r * r)
    if W.muc:  # s * s overflows above ~1e154, and 0 * inf would be nan
        total += 0.5 * W.muc * (s * s - rho * rho)
    return total


def reduced_energy_values(W: CosseratWeights, nus) -> tuple[int, float]:
    """Pair count k and minimum energy over rotations, from singular values.

    The values may come in any order. With d the values in descending
    order, non-classical weights pair d[2i], d[2i+1] for i < k, where k is
    the longest prefix whose pair sums all exceed the singular radius rho;
    each pair contributes :func:`nonclassical_pair_energy`. Every value
    left over contributes mu (d - 1)^2, and classical weights give k = 0.
    Terms are added left to right and squares are products (x * x), so
    :func:`reduced_energy_stack` gives the same bits. This one rule covers
    every dimension: the planar and spatial closed forms are its n = 2 and
    n = 3 cases.
    """
    d = sorted(map(float, nus), reverse=True)
    k = 0
    total = 0.0
    if not W.is_classical:
        rho = W.singular_radius
        while 2 * k + 1 < len(d) and d[2 * k] + d[2 * k + 1] > rho:
            total += nonclassical_pair_energy(W, d[2 * k], d[2 * k + 1])
            k += 1
    for v in d[2 * k :]:
        total += W.mu * ((v - 1.0) * (v - 1.0))
    return k, total


def reduced_energy_stack(W: CosseratWeights, nus) -> tuple[np.ndarray, np.ndarray]:
    """:func:`reduced_energy_values` over the last axis of a (..., n) stack.

    Each row is sorted in descending order; pair position p stays paired
    while every pair sum up to p exceeds rho. The terms are the same
    products added in the same order, so every row of (k, value) is
    bit-identical to the scalar rule.
    """
    d = np.sort(np.asarray(nus, dtype=float), axis=-1)[..., ::-1]
    single = W.mu * ((d - 1.0) * (d - 1.0))
    active = np.full(d.shape[:-1], not W.is_classical)
    k = np.zeros(d.shape[:-1], dtype=int)
    total = np.zeros(d.shape[:-1])
    for p in range(0, d.shape[-1] - 1, 2):
        rest = total + single[..., p] + single[..., p + 1]
        if active.any():
            a, b = d[..., p], d[..., p + 1]
            active &= a + b > W.singular_radius
            rest = np.where(active, total + nonclassical_pair_energy(W, a, b), rest)
        total = rest
        k += active
    if d.shape[-1] % 2:
        total = total + single[..., -1]
    return k, total


def reduced_energy(W: CosseratWeights, F: DeformationGradient) -> float:
    """Minimum of the shear-stretch energy over all rotations.

    For classical weights the minimum is mu ||U - 1||^2 (the skew part
    vanishes at the polar factor).
    """
    return reduced_energy_values(W, F.singular_values.tolist())[1]


def dist_sq_so_n(F: DeformationGradient) -> float:
    """Squared Euclidean (Frobenius) distance of F to the rotation group.

    Equals sum_i (nu_i - 1)^2 in the singular values of F, the minimum of
    ||R^T F - 1||^2 over rotations, attained at the polar factor.
    """
    return float(np.sum((F.singular_values - 1.0) ** 2))


def pair_block(s, rho):
    """(cos, sine, angle) of the block turning a pair with sum s >= rho.

    c = rho / s and sine^2 = ((s - rho) / s) (1 + c), with s - rho exact for
    rho <= s <= 2 rho (Sterbenz): next to the band this keeps the digits that
    sqrt(1 - c^2) and arccos(c) lose, about log10(rho / (s - rho)) of them.
    fmin maps s = inf to (0, 1, pi/2). Elementwise on scalars and arrays, on
    numpy for one pair too: ``math.atan2`` can differ in the last bit from
    the ``np.arctan2`` that sweep-planar's array rows take.
    """
    c = rho / s
    sine = np.sqrt(np.fmin((s - rho) / s, 1.0) * (1.0 + c))
    return c, sine, np.arctan2(sine, c)


def pair_rotations(n: int, blocks, signs) -> np.ndarray:
    """Stack of rotations (m, n, n), one per sign tuple in ``signs``.

    Rotation j turns each plane (2p, 2p + 1) by signs[j][p] times the angle
    of ``blocks[p]``, a :func:`pair_block` triple (c, sine, angle), and
    leaves the rest fixed. Block p is [[c, -t], [t, c]] with
    t = signs[j][p] * sine, so no angle is read; each rotation is a copy of
    one identity with the cosines, with its sines set.
    """
    pos = range(0, n * n, 2 * n + 2)  # flat index of entry (2p, 2p) of pair p
    base = [0.0] * (n * n)
    base[:: n + 1] = [1.0] * n
    for i, (c, _, _) in zip(pos, blocks):
        base[i] = base[i + n + 1] = c
    flat: list[float] = []
    for sign_tuple in signs:
        r = base.copy()
        for i, (_, sine, _), sign in zip(pos, blocks, sign_tuple):
            r[i + 1] = -sign * sine
            r[i + n] = sign * sine
        flat += r
    return np.fromiter(flat, float, len(flat)).reshape(-1, n, n)


@dataclass(frozen=True, init=False)
class MinimizerSet:
    """All energy-minimizing rotations for one (weights, values) instance.

    The first ``k`` pairs of descending singular values branch, pair p by
    ``angles[p]``, its :func:`pair_block` angle, in the plane of the
    spectral frame columns q_2p, q_2p+1. There are 2^k ``minimizers``, one
    per sign tuple of :attr:`signs`, ordered as
    ``itertools.product((1, -1), repeat=k)`` with pair 0 most significant:
    minimizer sigma has the relative rotation that turns plane p by
    sigma_p * angles[p]. ``minimizers`` is built on first read and kept;
    no other field builds a rotation. From :func:`solve` they are rotations
    of F (the polar factor alone for k = 0), from :func:`solve_values` the
    relative rotations themselves (the identity for k = 0).

    ``domain`` labels nu_1 + nu_2 against rho, with a band of
    ``BOUNDARY_RTOL`` on both sides; it does not decide k. ``degenerate``
    flags repeated singular values, for which the set is a representative
    sample from the cached frame rather than exhaustive: for classical
    weights nu_1 - nu_n <= ``DEGENERACY_RTOL`` nu_1; otherwise a branching
    pair whose own gap, or whose gap to the next value, is that small.
    Frozen to callers, compared and printed by these five fields; the
    constructor fills them and what ``minimizers`` reads in one dict update.
    """

    domain: Domain
    k: int
    angles: tuple[float, ...]
    reduced_energy: float
    degenerate: bool

    def __init__(self, domain, k, angles, reduced_energy, degenerate, blocks, dim, gradient):
        vars(self).update(domain=domain, k=k, angles=angles, reduced_energy=reduced_energy,
                          degenerate=degenerate, _blocks=blocks, _dim=dim, _gradient=gradient, _minimizers=None)

    @property
    def minimizers(self) -> tuple[np.ndarray, ...]:
        """The 2^k rotations, in the order of :attr:`signs`; built on first read."""
        if self._minimizers is None:
            F = self._gradient
            if F is not None and not self.k:
                rotations = (F.polar.rotation.copy(),)
            else:
                rel = pair_rotations(self._dim, self._blocks, self.signs)
                rotations = tuple(rel if F is None else absolute_rotation(rel, F))
            vars(self)["_minimizers"] = rotations
        return self._minimizers

    @property
    def signs(self) -> list[tuple[int, ...]]:
        """Sign tuple sigma of each minimizer, in the order of ``minimizers``."""
        return list(itertools.product((1, -1), repeat=self.k))

    @property
    def relative_angles(self) -> tuple:
        """Per minimizer, the angle of its relative rotation, +beta first.

        One number per minimizer for k <= 1 ((0.0,) for the polar factor
        alone), else the tuple sigma_p beta_p of its k pair angles.
        """
        if self.k <= 1:
            return (self.angles[0], -self.angles[0]) if self.k else (0.0,)
        return tuple(tuple(s * b for s, b in zip(signs, self.angles)) for signs in self.signs)


def canonical_blocks(k: int, n: int) -> tuple[tuple[int, ...], ...]:
    """Blocks of the canonical minimum: pairs (2p, 2p + 1) for p < k, then singletons."""
    return tuple((2 * p, 2 * p + 1) for p in range(k)) + tuple((i,) for i in range(2 * k, n))


def _minimizer_set(W: CosseratWeights, d: list[float], F=None) -> MinimizerSet:
    """The set of descending values d; its minimizers are rotations of F if given.

    Pair p has the :func:`pair_block` of (d[2p] + d[2p+1], rho) in floats.
    """
    k, value = reduced_energy_values(W, d)
    gap = DEGENERACY_RTOL * d[0]
    if W.is_classical:
        return MinimizerSet(Domain.CLASSICAL, 0, (), value, d[0] - d[-1] <= gap, [], len(d), F)
    rho = W.singular_radius
    s = d[0] + d[1] if len(d) > 1 else 0.0  # a lone value has no pair: classical
    if abs(s - rho) <= BOUNDARY_RTOL * rho:
        domain = Domain.BOUNDARY
    else:
        domain = Domain.CLASSICAL if s < rho else Domain.NON_CLASSICAL
    if not k:
        return MinimizerSet(domain, 0, (), value, False, [], len(d), F)
    blocks = [pair_block(d[2 * p] + d[2 * p + 1], rho) for p in range(k)]
    blocks = [(c, float(sine), float(b)) for c, sine, b in blocks]  # keeps np.array fast
    # a branching pair's own gap and its gap to the next value
    degenerate = any([d[i] - d[i + 1] <= gap for i in range(min(2 * k, len(d) - 1))])
    angles = tuple([b[2] for b in blocks])
    return MinimizerSet(domain, k, angles, value, degenerate, blocks, len(d), F)


def solve(W: CosseratWeights, F: DeformationGradient) -> MinimizerSet:
    """The minimizer set of F, its reduced energy and labels, in any dimension.

    :func:`solve_values` on F's singular values, with minimizer sigma the
    :func:`absolute_rotation` of its relative rotation, the
    :func:`pair_rotations` by +sigma_p beta_p.
    """
    return _minimizer_set(W, F.singular_values.tolist(), F)


def solve_values(W: CosseratWeights, nus) -> MinimizerSet:
    """The minimizer set of diag(nus) as relative rotations, from the values.

    The values may come in any order and must be positive and finite.
    Minimizer sigma turns plane (2p, 2p + 1) by sigma_p beta_p (the identity
    for k = 0); every other field is that of :func:`solve` on any F with
    these singular values.
    """
    d = sorted(map(float, nus), reverse=True)
    if not d or not all(0.0 < v < math.inf for v in d):
        raise ValueError("diagonal entries must be positive and finite")
    return _minimizer_set(W, d)
