import itertools

import numpy as np
import pytest

from relaxed_polar import (
    CosseratWeights,
    DeformationGradient,
    energy,
    matcore,
    relative_rotation,
    solve,
)
from relaxed_polar.energy import pair_rotations, reduced_energy_values
from relaxed_polar.errors import InadmissiblePartition, OrientationError, TooLarge
from relaxed_polar.ndim import (
    CriticalPartition,
    critical_value,
    critical_values,
    enumerate_critical_partitions,
    global_minimizers_nd,
    realize_rotation,
    traversal_path,
)

from conftest import random_singular_values

W10 = CosseratWeights(1.0, 0.0)


def value_of(blocks, signs, nus):
    return critical_value(CriticalPartition(blocks=blocks, signs=signs), nus)


def contains_nested_overlap(p):
    pairs = [b for b in p.blocks if len(b) == 2]
    for a in pairs:
        for b in pairs:
            if a != b and a[0] < b[0] and b[1] < a[1]:
                return True
    return False


class TestPartitionType:
    def test_structural_validation(self):
        with pytest.raises(ValueError):
            CriticalPartition(blocks=((0, 1), (1,)), signs=(1, 1))  # overlap
        with pytest.raises(ValueError):
            CriticalPartition(blocks=((0, 1), (0, 1)), signs=(1, 1))  # duplicate block
        with pytest.raises(ValueError):
            CriticalPartition(blocks=((0,), (2,)), signs=(1, 1))  # gap
        with pytest.raises(ValueError):
            CriticalPartition(blocks=((0, 1, 2),), signs=(1,))  # size 3
        with pytest.raises(ValueError):
            CriticalPartition(blocks=((0,),), signs=(2,))  # bad sign
        with pytest.raises(ValueError):
            CriticalPartition(blocks=((0,), (1,)), signs=(1,))  # too few signs
        with pytest.raises(ValueError):
            CriticalPartition(blocks=((0,),), signs=(1, -1))  # too many signs
        with pytest.raises(ValueError, match="at least one block"):
            CriticalPartition(blocks=(), signs=())  # empty
        for signs in [(1.5,), (-1.9,), (0.5,), (0,)]:  # not exactly +1 or -1
            with pytest.raises(ValueError, match="signs must be"):
                CriticalPartition(blocks=((0,),), signs=signs)
        for blocks in [((0.0,), (1,)), ((0, 1.0),), ((0,), (1.5,))]:  # non-integer index
            with pytest.raises(ValueError, match="integers"):
                CriticalPartition(blocks=blocks, signs=(1,) * len(blocks))

    def test_canonical_ordering(self):
        p = CriticalPartition(blocks=((2,), (1, 0)), signs=(-1, 1))
        assert p.blocks == ((0, 1), (2,))
        assert p.signs == (1, -1)


class TestEnumerate:
    def test_one_dimensional(self):
        got = enumerate_critical_partitions(np.array([3.0]))
        assert len(got) == 1
        assert got[0].signs == (1,)
        relaxed = enumerate_critical_partitions(np.array([3.0]), require_rotation=False)
        assert len(relaxed) == 2
        assert sorted(p.signs[0] for p in relaxed) == [-1, 1]

    def test_two_dimensional_census(self):
        nus = np.array([3.0, 1.0])
        got = enumerate_critical_partitions(nus)
        # singletons ++ and --, plus the +1 pair; a lone -1 pair has
        # det -1 and is never in the rotation-only census (it would also
        # need |nu_1 - nu_2| > 2, which fails at exactly 2)
        assert len(got) == 3
        values = sorted(critical_value(p, nus) for p in got)
        assert values == pytest.approx([2.0, 4.0, 20.0], abs=1e-14)

    def test_guard(self):
        with pytest.raises(TooLarge):
            enumerate_critical_partitions(np.linspace(20.0, 1.0, 11))

    def test_admissibility_filters_pairs(self):
        nus = np.array([5.0, 1.0])

        def pair_signs(parts):
            return sorted(
                p.signs[0] for p in parts if len(p.blocks) == 1 and len(p.blocks[0]) == 2
            )

        # now |5 - 1| = 4 > 2 admits the reflection pair as well
        relaxed = enumerate_critical_partitions(nus, require_rotation=False)
        assert pair_signs(relaxed) == [-1, 1]
        # the lone reflection pair has det -1, so the rotation-only census drops it
        assert pair_signs(enumerate_critical_partitions(nus)) == [1]

    @pytest.mark.parametrize("require_rotation", [True, False])
    def test_census_comes_out_sorted(self, require_rotation):
        rng = np.random.default_rng(80)
        for n in range(1, 9):
            for _ in range(2 if n < 8 else 1):
                nus = np.sort(rng.uniform(0.1, 6.0, n))[::-1]
                parts = enumerate_critical_partitions(nus, require_rotation=require_rotation)
                assert parts == sorted(parts, key=lambda p: (p.blocks, p.signs))
                assert len(set(parts)) == len(parts)


class TestCriticalValue:
    def test_all_plus_singletons_is_polar_value(self):
        nus = np.array([4.0, 2.0, 0.5])
        blocks = ((0,), (1,), (2,))
        assert value_of(blocks, (1, 1, 1), nus) == pytest.approx(
            np.sum((nus - 1.0) ** 2), abs=1e-14
        )

    def test_paired_example(self):
        nus = np.array([4.0, 2.0, 0.5])
        assert value_of(((0, 1), (2,)), (1, 1), nus) == pytest.approx(2.25, abs=1e-14)

    def test_reflection_pair_example(self):
        nus = np.array([5.0, 1.0])
        assert value_of(((0, 1),), (-1,), nus) == pytest.approx(18.0, abs=1e-14)

    def test_inadmissible_raises(self):
        nus = np.array([1.0, 0.5])
        with pytest.raises(InadmissiblePartition):
            value_of(((0, 1),), (1,), nus)
        with pytest.raises(InadmissiblePartition):
            value_of(((0, 1),), (-1,), np.array([3.0, 1.5]))

    def test_inadmissible_messages(self):
        with pytest.raises(InadmissiblePartition, match=r"^pair \(0, 1\) with sign \+1 needs "
                           r"nu_i \+ nu_j > 2, got 1\.5$"):
            value_of(((0, 1),), (1,), np.array([1.0, 0.5]))
        with pytest.raises(InadmissiblePartition, match=r"^pair \(0, 1\) with sign -1 needs "
                           r"\|nu_i - nu_j\| > 2, got 1\.5$"):
            value_of(((0, 1),), (-1,), np.array([3.0, 1.5]))
        with pytest.raises(InadmissiblePartition, match=r"^pair \(1, 2\) with sign -1 needs "
                           r"\|nu_i - nu_j\| > 2, got 0\.5$"):
            realize_rotation(CriticalPartition(((0,), (1, 2)), (-1, -1)), [3.0, 1.0, 0.5])


class TestRealizeRotation:
    def test_identity(self):
        nus = np.array([4.0, 2.0, 0.5])
        r = realize_rotation(
            CriticalPartition(blocks=((0,), (1,), (2,)), signs=(1, 1, 1)), nus
        )
        assert np.array_equal(r, np.eye(3))

    def test_block_matches_spatial_form(self):
        nus = np.array([4.0, 2.0, 0.5])
        r = realize_rotation(CriticalPartition(blocks=((0, 1), (2,)), signs=(1, 1)), nus)
        F = DeformationGradient(np.diag(nus))
        plus = relative_rotation(solve(W10, F).minimizers[0], F)
        assert np.allclose(r, plus, atol=1e-14)

    def test_orientation_guard(self):
        nus = np.array([4.0, 2.0, 0.5])
        with pytest.raises(OrientationError):
            realize_rotation(
                CriticalPartition(blocks=((0,), (1,), (2,)), signs=(1, 1, -1)), nus
            )

    def test_energy_matches_value_on_random_partitions(self):
        rng = np.random.default_rng(70)
        checked = 0
        while checked < 50:
            nus = np.sort(rng.uniform(0.2, 6.0, 5))[::-1]
            parts = enumerate_critical_partitions(nus)
            p = parts[int(rng.integers(len(parts)))]
            r = realize_rotation(p, nus)
            assert matcore.is_rotation(r, tol=1e-12)
            F = DeformationGradient(np.diag(nus))
            assert energy(W10, r, F) == pytest.approx(
                critical_value(p, nus), rel=1e-10, abs=1e-10
            )
            checked += 1


class TestTraversal:
    def test_from_singletons(self):
        nus = np.array([4.0, 2.0, 0.5])
        start = CriticalPartition(blocks=((0,), (1,), (2,)), signs=(1, 1, 1))
        final = traversal_path(start, nus)[-1]
        assert final.blocks == ((0, 1), (2,))
        assert final.signs == (1, 1)

    def test_sign_flip_strictly_decreases(self):
        nus = np.array([4.0, 2.0, 0.5])
        start = CriticalPartition(blocks=((0,), (1,), (2,)), signs=(-1, -1, 1))
        path = traversal_path(start, nus)
        v0 = critical_value(path[0], nus)
        v1 = critical_value(path[1], nus)
        assert v1 < v0

    def test_overlap_disentangled(self):
        nus = np.array([3.0, 2.5, 1.5, 1.2])
        start = CriticalPartition(blocks=((0, 3), (1, 2)), signs=(1, 1))
        final = traversal_path(start, nus)[-1]
        assert final.blocks == ((0, 1), (2, 3))
        # matches the exhaustive optimum
        parts = enumerate_critical_partitions(nus)
        best = min(critical_value(p, nus) for p in parts)
        assert critical_value(final, nus) == pytest.approx(best, abs=1e-14)

    def test_monotone_along_every_trace(self):
        rng = np.random.default_rng(71)
        for _ in range(40):
            n = int(rng.integers(2, 7))
            nus = np.sort(rng.uniform(0.2, 6.0, n))[::-1]
            parts = enumerate_critical_partitions(nus)
            start = parts[int(rng.integers(len(parts)))]
            path = traversal_path(start, nus)
            values = [critical_value(p, nus) for p in path]
            assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
            assert values[-1] == pytest.approx(reduced_energy_values(W10, nus)[1], abs=1e-12)

    def test_paths_match_the_reference_walk(self):
        rng = np.random.default_rng(81)
        starts = 0
        for n, spectra in [(2, 30), (3, 30), (4, 20), (5, 12), (6, 10), (7, 3), (8, 1)]:
            for _ in range(spectra):
                nus = np.sort(rng.uniform(0.1, 5.0, n))[::-1]
                parts = enumerate_critical_partitions(nus, require_rotation=False)
                final = global_minimizers_nd(nus, with_rotations=False).partition
                for i in rng.choice(len(parts), size=min(len(parts), 60), replace=False):
                    path = traversal_path(parts[i], nus)
                    assert path == reference_traversal_path(parts[i], nus)
                    assert path[-1] == final
                    starts += 1
        assert starts >= 2000


def reference_traversal_path(start, d):
    """Reference: the walk traversal_path took before it read the pairing rule.

    Its own pair test d_i + d_j > 2 in stage 2 and a stage 4 that merges
    while the next pair sum exceeds 2.
    """
    path = [start]

    def push(blocks, signs):
        path.append(CriticalPartition(blocks=tuple(blocks), signs=tuple(signs)))

    blocks = list(start.blocks)
    signs = list(start.signs)
    for k in range(len(signs)):
        if signs[k] == -1:
            signs[k] = 1
            push(blocks, signs)

    def find_overlap():
        pairs = [b for b in blocks if len(b) == 2]
        for a, b in itertools.combinations(pairs, 2):
            lo, hi = (a, b) if a[0] < b[0] else (b, a)
            if lo[0] < hi[0] < lo[1]:
                return lo, hi
        return None

    while (hit := find_overlap()) is not None:
        lo, hi = hit
        idx = sorted(lo + hi)
        blocks = [b for b in blocks if b not in (lo, hi)]
        blocks.append((idx[0], idx[1]))
        if d[idx[2]] + d[idx[3]] > 2.0:
            blocks.append((idx[2], idx[3]))
        else:
            blocks.append((idx[2],))
            blocks.append((idx[3],))
        signs = [1] * len(blocks)
        push(blocks, signs)

    m = sum(1 for b in blocks if len(b) == 2)
    if m:
        lowest = [(2 * p, 2 * p + 1) for p in range(m)]
        if sorted(b for b in blocks if len(b) == 2) != lowest:
            blocks = list(lowest) + [(i,) for i in range(2 * m, len(d))]
            signs = [1] * len(blocks)
            push(blocks, signs)

    while 2 * m + 1 < len(d) and d[2 * m] + d[2 * m + 1] > 2.0:
        blocks = [b for b in blocks if b not in ((2 * m,), (2 * m + 1,))]
        blocks.append((2 * m, 2 * m + 1))
        signs = [1] * len(blocks)
        m += 1
        push(blocks, signs)
    return path


class TestGlobalMinimizers:
    def test_four_dimensional_example(self):
        gm = global_minimizers_nd(np.array([3.0, 2.5, 1.5, 0.6]))
        assert gm.k == 2
        assert gm.reduced_energy == pytest.approx(0.53, abs=1e-14)
        assert len(gm.rotations) == 4

    def test_compressive_example(self):
        gm = global_minimizers_nd(np.array([0.5, 0.4, 0.3]))
        assert gm.k == 0
        assert gm.reduced_energy == pytest.approx(1.10, abs=1e-14)
        assert len(gm.rotations) == 1
        assert np.array_equal(gm.rotations[0], np.eye(3))

    def test_all_rotations_achieve_the_minimum(self):
        rng = np.random.default_rng(72)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            nus = random_singular_values(n, rng, lo=0.3, hi=4.0, min_rel_gap=0.01)
            gm = global_minimizers_nd(nus)
            F = DeformationGradient(np.diag(nus))
            for r in gm.rotations:
                assert energy(W10, r, F) == pytest.approx(
                    gm.reduced_energy, rel=1e-10, abs=1e-10
                )
            # pairwise distinct
            for i in range(len(gm.rotations)):
                for j in range(i + 1, len(gm.rotations)):
                    assert np.linalg.norm(gm.rotations[i] - gm.rotations[j]) > 1e-4

    def test_consistency_with_planar(self):
        rng = np.random.default_rng(73)
        from relaxed_polar.planar import optimal_angles, rotation_2d

        for _ in range(20):
            nus = random_singular_values(2, rng, lo=0.3, hi=4.0, min_rel_gap=0.01)
            gm = global_minimizers_nd(nus)
            F = DeformationGradient(np.diag(nus))
            sol = optimal_angles(W10, F)
            assert gm.reduced_energy == pytest.approx(sol.reduced_energy, abs=1e-12)
            closed = [rotation_2d(a) for a in sol.branch_angles]
            assert len(closed) == len(gm.rotations)
            for r in gm.rotations:
                assert any(np.linalg.norm(r - c) <= 1e-10 for c in closed)

    def test_consistency_with_spatial(self):
        rng = np.random.default_rng(74)
        from relaxed_polar.spatial import rpolar_3d

        for _ in range(20):
            nus = random_singular_values(3, rng, lo=0.3, hi=4.0, min_rel_gap=0.01)
            gm = global_minimizers_nd(nus)
            F = DeformationGradient(np.diag(nus))
            sol = rpolar_3d(W10, F)
            assert gm.reduced_energy == pytest.approx(sol.reduced_energy, abs=1e-12)
            assert len(sol.minimizers) == len(gm.rotations)
            for r in gm.rotations:
                assert any(np.linalg.norm(r - m) <= 1e-10 for m in sol.minimizers)

    def test_boundary_pair_stays_singleton(self):
        gm = global_minimizers_nd(np.array([1.5, 0.5, 0.4]))
        assert gm.k == 0
        assert gm.boundary_tie
        # merging would tie: the comparison saving is exactly zero
        merged = critical_value(
            CriticalPartition(blocks=((0,), (1,), (2,)), signs=(1, 1, 1)),
            np.array([1.5, 0.5, 0.4]),
        )
        assert gm.reduced_energy == pytest.approx(merged, abs=1e-15)


def reference_global_minimizers(d):
    """Reference: the formula global_minimizers_nd used before it read solve's core.

    Its own pair blocks on the numpy diagonal, cosine 2 / s and sine
    sqrt(((s - 2) / s) (1 + c)) for s = d_2p + d_2p+1, and its own boundary
    tie; k and the value come from the pairing rule.
    """
    k, wred = reduced_energy_values(W10, d)
    n = len(d)
    pair_blocks = []
    for s in (d[2 * p] + d[2 * p + 1] for p in range(k)):
        c = 2.0 / s
        pair_blocks.append((c, np.sqrt(np.fmin((s - 2.0) / s, 1.0) * (1.0 + c)), None))
    rotations = pair_rotations(n, pair_blocks, itertools.product((1, -1), repeat=k))
    boundary_tie = bool(2 * k + 1 < n and d[2 * k] + d[2 * k + 1] == 2.0)
    blocks = tuple((2 * p, 2 * p + 1) for p in range(k)) + tuple((i,) for i in range(2 * k, n))
    return k, wred, blocks, boundary_tie, rotations


def spectra_with_repeats(rng, count, max_n=8):
    """Descending diagonals, n = 1..max_n in turn, a fifth with an exact repeat."""
    for t in range(count):
        n = 1 + t % max_n
        d = np.sort(rng.uniform(0.1, 4.0, n))[::-1]
        if n > 1 and t % 5 == 0:
            j = int(rng.integers(n - 1))
            d[j + 1] = d[j]
        yield d


class TestOneBranchRule:
    def test_global_minimizers_match_the_reference_formula_bitwise(self):
        rng = np.random.default_rng(91)
        for d in spectra_with_repeats(rng, 800):
            k, wred, blocks, tie, rotations = reference_global_minimizers(d)
            gm = global_minimizers_nd(d)
            assert (gm.k, gm.reduced_energy, gm.boundary_tie) == (k, wred, tie)
            assert gm.partition.blocks == blocks and set(gm.partition.signs) == {1}
            assert len(gm.rotations) == len(rotations) == 2**k
            for r, e in zip(gm.rotations, rotations):
                assert r.tobytes() == e.tobytes()

    @pytest.mark.parametrize(
        "nus, expected",
        [((3.0, 3.0 * (1 - 1e-12), 0.5, 0.4), True), ((3.0, 1.0, 0.5, 0.5), False)],
    )
    def test_degenerate_is_the_minimizer_set_rule(self, nus, expected):
        gm = global_minimizers_nd(np.array(nus))
        assert gm.degenerate is solve(W10, DeformationGradient(np.diag(nus))).degenerate
        assert gm.degenerate is expected

    def test_degenerate_agrees_with_solve_on_repeats(self):
        rng = np.random.default_rng(92)
        flags = []
        for d in spectra_with_repeats(rng, 400, max_n=6):
            gm = global_minimizers_nd(d, with_rotations=False)
            assert gm.degenerate is solve(W10, DeformationGradient(np.diag(d))).degenerate
            flags.append(gm.degenerate)
        assert True in flags and False in flags


class TestStructuralLemmas:
    def test_savings_identity(self):
        rng = np.random.default_rng(75)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            nus = np.sort(rng.uniform(0.2, 6.0, n))[::-1]
            for p in enumerate_critical_partitions(nus):
                if any(s != 1 for s in p.signs):
                    continue
                direct = critical_value(p, nus)
                baseline = float(np.sum((nus - 1.0) ** 2))
                savings = sum(
                    0.5 * (nus[b[0]] + nus[b[1]] - 2.0) ** 2
                    for b in p.blocks
                    if len(b) == 2
                )
                assert direct == pytest.approx(baseline - savings, rel=1e-12, abs=1e-12)

    def test_comparison_lemma(self):
        rng = np.random.default_rng(76)
        for _ in range(50):
            nus = np.sort(rng.uniform(0.5, 6.0, 4))[::-1]
            i, j = sorted(rng.choice(4, size=2, replace=False))
            if nus[i] + nus[j] <= 2.0:
                continue
            others = [x for x in range(4) if x not in (i, j)]
            split_blocks = tuple(sorted([(i,), (j,)] + [(o,) for o in others]))
            merged_blocks = tuple(sorted([(i, j)] + [(o,) for o in others]))
            split = value_of(split_blocks, (1,) * 4, nus)
            merged = value_of(merged_blocks, (1,) * 3, nus)
            assert merged - split == pytest.approx(
                -0.5 * (nus[i] + nus[j] - 2.0) ** 2, rel=1e-12, abs=1e-12
            )

    def test_global_min_never_contains_nested_overlap(self):
        rng = np.random.default_rng(77)
        for n in (4, 5, 6):
            for _ in range(8):
                nus = np.sort(rng.uniform(0.5, 6.0, n))[::-1]
                parts = enumerate_critical_partitions(nus)
                values = [critical_value(p, nus) for p in parts]
                best = min(values)
                for p, v in zip(parts, values):
                    if v <= best + 1e-12 and contains_nested_overlap(p):
                        raise AssertionError(f"overlapping global minimum {p}")

    def test_exhaustive_optimality_small_dims(self):
        rng = np.random.default_rng(78)
        for n in range(1, 7):
            for _ in range(8):
                nus = np.sort(rng.uniform(0.2, 6.0, n))[::-1]
                parts = enumerate_critical_partitions(nus)
                best = min(critical_value(p, nus) for p in parts)
                k, wred = reduced_energy_values(W10, nus)
                assert best == wred  # bit-identical accumulation order

    def test_critical_values_square_by_product(self):
        # np.square is the correctly rounded x * x, so no value may depend on libm pow;
        # the canonical partition's value must equal the pairing rule's value bit for bit
        rng = np.random.default_rng(79)
        for n in range(1, 7):
            for _ in range(30):
                nus = np.sort(rng.uniform(0.05, 6.0, n))[::-1]
                parts = enumerate_critical_partitions(nus, require_rotation=False)
                for p, v in zip(parts, critical_values(parts, nus)):
                    expected = 0.0
                    for b, s in zip(p.blocks, p.signs):
                        if len(b) == 1:
                            expected += float(np.square(nus[b[0]] - s))
                        else:
                            expected += 0.5 * float(np.square(nus[b[0]] - s * nus[b[1]]))
                    assert v == expected
                canonical = global_minimizers_nd(nus, with_rotations=False).partition
                assert critical_value(canonical, nus) == reduced_energy_values(W10, nus)[1]

    def test_critical_values_checks_every_partition(self):
        nus = np.array([3.0, 1.0, 0.5])
        good = CriticalPartition(blocks=((0, 1), (2,)), signs=(1, 1))
        bad = CriticalPartition(blocks=((0,), (1, 2)), signs=(1, 1))  # 1.0 + 0.5 <= 2
        assert critical_values([good], nus) == [critical_value(good, nus)]
        with pytest.raises(InadmissiblePartition):
            critical_values([good, bad], nus)
        with pytest.raises(ValueError):
            critical_values([good], [1.0, 3.0, 0.5])  # not descending
