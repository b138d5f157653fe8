"""Critical points of the (1, 0) energy in general dimension.

Critical rotations for W(R; D) = ||sym(R D - 1)||^2 with descending
positive diagonal D are block-diagonal after an orthogonal change of
basis: they are labeled by partitions of the index set into blocks of
size one or two together with a sign (the block determinant). A 2-block
{i, j} exists with sign +1 when nu_i + nu_j > 2 (an in-plane rotation
with cos(beta) = 2 / (nu_i + nu_j)) and with sign -1 when
|nu_i - nu_j| > 2 (an in-plane reflection pair). Singleton blocks carry
+1 or -1 directly. The critical value decouples over blocks:

    sum_{singleton +} (nu_i - 1)^2  +  sum_{singleton -} (nu_i + 1)^2
  + sum_{pair +} (nu_i - nu_j)^2 / 2  +  sum_{pair -} (nu_i + nu_j)^2 / 2

Only sign patterns with an even number of -1 blocks are realizable
inside the rotation group (odd patterns have overall determinant -1).

Indices here are 0-based; command-line reports translate to 1-based.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .energy import _W10, _minimizer_set, canonical_blocks, pair_block, reduced_energy_values
from .errors import InadmissiblePartition, OrientationError, TooLarge

ENUMERATION_MAX_DIM = 10


def _as_descending(nus) -> list[float]:
    """``nus``, a non-empty 1-d sequence or array of positive, finite,
    descending values, as a list of floats; otherwise ``ValueError``."""
    try:
        d = [float(v) for v in (nus.tolist() if isinstance(nus, np.ndarray) else nus)]
    except TypeError:  # a scalar, or a row that float() refuses
        d = []
    if not d:
        raise ValueError("expected a 1-d array of diagonal entries")
    if not all(0.0 < v < math.inf for v in d):
        raise ValueError("diagonal entries must be positive and finite")
    if any(a < b for a, b in zip(d, d[1:])):
        raise ValueError("diagonal entries must be sorted in descending order")
    return d


@dataclass(frozen=True)
class CriticalPartition:
    """Blocks of size one or two covering {0..n-1}, plus a sign per block."""

    blocks: tuple[tuple[int, ...], ...]
    signs: tuple[int, ...]

    def __post_init__(self):
        if not self.blocks:
            raise ValueError("a partition needs at least one block")
        if len(self.blocks) != len(self.signs):
            raise ValueError("one sign per block required")
        labeled = sorted(zip([tuple(sorted(b)) for b in self.blocks], self.signs))
        blocks, signs = zip(*labeled)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "signs", tuple(map(int, signs)))
        for b, s in labeled:
            if len(b) not in (1, 2) or len(b) == 2 and b[0] == b[1]:
                raise ValueError(f"blocks must have one or two distinct indices, got {b}")
            if s not in (-1, 1):  # before int(), which would truncate 1.5 to 1
                raise ValueError("signs must be +1 or -1")
        try:
            flat = sorted(map(operator.index, itertools.chain.from_iterable(blocks)))
        except TypeError:
            raise ValueError("block indices must be integers") from None
        if flat != list(range(len(flat))):
            if len(set(flat)) != len(flat):
                raise ValueError("blocks must be disjoint, got an index in two blocks")
            raise ValueError("blocks must partition a contiguous index range from 0")

    @classmethod
    def _canonical(cls, blocks, signs) -> CriticalPartition:
        """A partition whose blocks are already sorted tuples of ints in
        ascending order, each with its sign: built without validation."""
        p = object.__new__(cls)
        object.__setattr__(p, "blocks", blocks)
        object.__setattr__(p, "signs", signs)
        return p

    @property
    def dim(self) -> int:
        return 1 + max(max(b) for b in self.blocks)

    def overall_det(self) -> int:
        return _det(self.signs)


def _det(signs) -> int:
    """Determinant of a block sign pattern: -1 for an odd count of -1 blocks."""
    return -1 if signs.count(-1) % 2 else 1


def _pair_signs(a: float, b: float) -> tuple[int, ...]:
    """Signs with which entries a, b may form a 2-block, in ascending order.

    +1 needs a + b > 2 and -1 needs |a - b| > 2; for positive entries the
    second implies the first.
    """
    if not a + b > 2.0:
        return ()
    return (-1, 1) if abs(a - b) > 2.0 else (1,)


def _check_admissible(p: CriticalPartition, d):
    if p.dim != len(d):
        raise InadmissiblePartition(
            f"partition covers {p.dim} indices, diagonal has {len(d)}"
        )
    for b, s in zip(p.blocks, p.signs):
        if len(b) == 2 and s not in _pair_signs(d[b[0]], d[b[1]]):
            i, j = b
            if s == 1:
                need, got = "nu_i + nu_j > 2", d[i] + d[j]
            else:
                need, got = "|nu_i - nu_j| > 2", abs(d[i] - d[j])
            raise InadmissiblePartition(f"pair {b} with sign {s:+d} needs {need}, got {got:g}")


def _matchings(indices: tuple[int, ...], d):
    """All partitions of ``indices`` into singletons and admissible pairs, in
    ascending order: ``head`` pairs with j only if d[head], d[j] have signs."""
    if not indices:
        yield ()
        return
    head, rest = indices[0], indices[1:]
    for tail in _matchings(rest, d):
        yield ((head,),) + tail
    for k, j in enumerate(rest):
        if _pair_signs(d[head], d[j]):
            for tail in _matchings(rest[:k] + rest[k + 1 :], d):
                yield ((head, j),) + tail


def enumerate_critical_partitions(
    nus, *, require_rotation: bool = True
) -> list[CriticalPartition]:
    """Exhaustive list of admissible labeled partitions for the diagonal.

    With ``require_rotation`` (the default) only sign patterns with even
    count of -1 blocks are kept, i.e. those realizable by an actual
    rotation; the relaxed mode also lists the det -1 patterns. Guarded to
    n <= 10 because the matching count grows like the involution numbers.
    Only admissible matchings are built, and they and their sign choices
    come in ascending order: the list is sorted. Each partition is built
    canonical and is not re-validated; :func:`critical_values` still
    validates the partitions that callers build.
    """
    d = _as_descending(nus)
    n = len(d)
    if n > ENUMERATION_MAX_DIM:
        raise TooLarge(f"exhaustive enumeration guarded to n <= {ENUMERATION_MAX_DIM}")
    out: list[CriticalPartition] = []
    for blocks in _matchings(tuple(range(n)), d):
        choices = [(-1, 1) if len(b) == 1 else _pair_signs(d[b[0]], d[b[1]]) for b in blocks]
        for signs in itertools.product(*choices):
            if require_rotation and _det(signs) != 1:
                continue
            out.append(CriticalPartition._canonical(blocks, signs))
    return out


def critical_values(parts, nus) -> list[float]:
    """Energies of the critical rotations labeled by the partitions.

    The diagonal is validated once and each partition checked for
    admissibility; squares are products of floats, so a canonical
    partition's value is bit-identical to the pairing rule's
    :func:`~relaxed_polar.energy.reduced_energy_values` at (1, 0).
    """
    d = _as_descending(nus)
    for p in parts:
        _check_admissible(p, d)
    return _block_sums(parts, d)


def _block_sums(parts, d: list[float]) -> list[float]:
    """The critical values of admissible partitions of the descending list d."""
    out = []
    for p in parts:
        total = 0.0
        for b, s in zip(p.blocks, p.signs):  # (nu_i - s)^2 or (nu_i - s nu_j)^2 / 2
            x = d[b[0]] - s * (d[b[1]] if len(b) == 2 else 1.0)
            total += x * x if len(b) == 1 else 0.5 * (x * x)
        out.append(total)
    return out


def critical_value(p: CriticalPartition, nus) -> float:
    """Energy of the critical rotation labeled by the partition."""
    return critical_values([p], nus)[0]


def realize_rotation(p: CriticalPartition, nus) -> np.ndarray:
    """A block-diagonal rotation realizing the partition's critical value.

    For +1 pairs the +angle branch is taken (the -angle twin has the same
    energy). Raises ``OrientationError`` when the sign pattern has odd
    -1 count and therefore overall determinant -1.
    """
    d = _as_descending(nus)
    _check_admissible(p, d)
    if p.overall_det() != 1:
        raise OrientationError("sign pattern has overall determinant -1")
    n = len(d)
    r = np.zeros((n, n))
    for b, s in zip(p.blocks, p.signs):
        if len(b) == 1:
            (i,) = b
            r[i, i] = float(s)
        else:  # cos = 2 / (nu_i + s nu_j); a -1 pair is a reflection block
            i, j = b
            c, sn, _ = pair_block(d[i] + s * d[j], 2.0)
            r[i, i], r[i, j], r[j, i], r[j, j] = c, -s * sn, sn, s * c
    return r


def traversal_path(start: CriticalPartition, nus) -> list[CriticalPartition]:
    """Energy-decreasing walk from a critical point to the global minimum.

    The strategy has four stages, each of which never increases the
    critical value:

    1. flip every block sign to +1;
    2. disentangle nested or crossing pairs into consecutive pairs
       (dropping a pair that becomes inadmissible);
    3. shift the pairs onto the lowest indices, re-pairing consecutively;
    4. merge adjacent singletons into pairs up to the pairing rule's k.

    Returns the list of visited partitions, starting with ``start`` and
    ending at the canonical global minimizer.
    """
    d = _as_descending(nus)
    _check_admissible(start, d)
    path = [start]

    def push(blocks: list[tuple[int, ...]], signs: list[int]):
        path.append(CriticalPartition(blocks=tuple(blocks), signs=tuple(signs)))

    blocks = list(start.blocks)
    signs = list(start.signs)

    # stage 1: positive signs everywhere (a -1 pair always readmits as +1
    # because |nu_i - nu_j| > 2 forces nu_i + nu_j > 2)
    for k in range(len(signs)):
        if signs[k] == -1:
            signs[k] = 1
            push(blocks, signs)

    # stage 2: disentangle overlapping pairs
    def find_overlap():
        pairs = [b for b in blocks if len(b) == 2]
        for a, b in itertools.combinations(pairs, 2):
            lo, hi = (a, b) if a[0] < b[0] else (b, a)
            if lo[0] < hi[0] < lo[1]:  # nested or crossing
                return lo, hi
        return None

    while (hit := find_overlap()) is not None:
        lo, hi = hit
        idx = sorted(lo + hi)
        blocks = [b for b in blocks if b not in (lo, hi)]
        blocks.append((idx[0], idx[1]))
        if _pair_signs(d[idx[2]], d[idx[3]]):
            blocks.append((idx[2], idx[3]))
        else:
            blocks.append((idx[2],))
            blocks.append((idx[3],))
        signs = [1] * len(blocks)
        push(blocks, signs)

    # stage 3: collect pairs at the lowest indices, consecutively paired
    m = sum(1 for b in blocks if len(b) == 2)
    if m:
        lowest = [(2 * p, 2 * p + 1) for p in range(m)]
        if sorted(b for b in blocks if len(b) == 2) != lowest:
            blocks = list(lowest) + [(i,) for i in range(2 * m, len(d))]
            signs = [1] * len(blocks)
            push(blocks, signs)

    # stage 4: extend the pair prefix to the pairing rule's k (stage 3 leaves m <= k)
    k = reduced_energy_values(_W10, d)[0]
    while m < k:
        blocks = [b for b in blocks if b not in ((2 * m,), (2 * m + 1,))]
        blocks.append((2 * m, 2 * m + 1))
        signs = [1] * len(blocks)
        m += 1
        push(blocks, signs)

    return path


@dataclass(frozen=True)
class GlobalMinimizers:
    """Canonical minimum partition, its 2^k rotations, and the energy.

    A view of :func:`~relaxed_polar.energy.solve_values` at (1, 0): its
    minimizers (``rotations``, empty unless asked for), energy, k and
    ``degenerate`` (the rotations are then a representative sample of a
    non-isolated minimizer family). ``boundary_tie`` flags an exactly-2
    pair sum just past the prefix, in which case merging that pair would
    tie the minimum value and the singleton form is reported as canonical.
    """

    partition: CriticalPartition
    rotations: tuple[np.ndarray, ...]
    reduced_energy: float
    k: int
    degenerate: bool
    boundary_tie: bool


def global_minimizers_nd(nus, *, with_rotations: bool = True) -> GlobalMinimizers:
    """All global minimizers of the (1, 0) energy over rotations.

    The canonical partition pairs the descending entries consecutively
    while the pair sum strictly exceeds 2; each pair contributes a +/-
    angle choice, for 2^k minimizers total, in the sign order of
    ``MinimizerSet`` (all + first). The entries must be descending; the
    set is that of :func:`~relaxed_polar.energy.solve_values` on them.
    Pass ``with_rotations=False`` to skip materializing the rotations (k
    grows with n and the list is exponential in k).
    """
    d = _as_descending(nus)
    n = len(d)
    mset = _minimizer_set(_W10, d)
    k = mset.k
    blocks = canonical_blocks(k, n)
    return GlobalMinimizers(
        partition=CriticalPartition._canonical(blocks, (1,) * len(blocks)),
        rotations=mset.minimizers if with_rotations else (),
        reduced_energy=mset.reduced_energy,
        k=k,
        degenerate=mset.degenerate,
        boundary_tie=2 * k + 1 < n and d[2 * k] + d[2 * k + 1] == 2.0,
    )
