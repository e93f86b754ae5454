"""Tests for transform-legality verification and the rec-MII bound.

Covers the four predicates (permutation, unroll, pipeline II, bank
conflicts), the checked transform entry points that consult them, and the
recurrence-MII derivation the QoR estimator clamps with.
"""

import pytest

from repro.analysis import (
    TransformLegalityError,
    legal_permutation,
    legal_pipeline_ii,
    legal_unroll,
    partition_bank_conflicts,
    pipeline_rec_mii,
)
from repro.dialects.affine import AffineLoadOp
from repro.frontend.cpp import KernelBuilder
from repro.ir import verify
from repro.transforms import partition_for_accesses
from repro.transforms.loop_transforms import (
    annotate_unroll,
    loop_bands_of,
    permute_band,
    pipeline_loop,
    unroll_loop,
)


def _band(module):
    return loop_bands_of(module.functions[0])[0]


def gemm_module(m=8, n=16, k=4):
    kb = KernelBuilder("gemm")
    kb.add_input("A", (m, k))
    kb.add_input("B", (k, n))
    kb.add_inout("C", (m, n))
    with kb.loop_nest(("i", "j", "k"), (m, n, k)) as (i, j, kk):
        kb.store(
            "C",
            [i, j],
            kb.load("C", [i, j]) + kb.load("A", [i, kk]) * kb.load("B", [kk, j]),
        )
    return kb.finish()


def skewed_stencil_module(n=8):
    """A[i][j] = A[i-1][j+1] + 1 — distance (1, -1), interchange-hostile."""
    kb = KernelBuilder("skew")
    kb.add_inout("A", (n + 1, n + 1))
    with kb.loop_nest(("i", "j"), (n, n)) as (i, j):
        kb.store("A", [i, j], kb.load("A", [i - 1, j + 1]) + 1.0)
    return kb.finish()


def recurrence_module(distance=1, trip=16):
    kb = KernelBuilder("rec")
    kb.add_input("B", (trip,))
    kb.add_inout("A", (trip,))
    with kb.loop("i", trip) as i:
        kb.store("A", [i], kb.load("A", [i - distance]) + kb.load("B", [i]))
    return kb.finish()


# ---------------------------------------------------------------------------
# Permutation
# ---------------------------------------------------------------------------


class TestPermutation:
    def test_parallel_levels_interchange(self):
        band = _band(gemm_module())
        assert legal_permutation(band, [1, 0, 2])

    def test_skewed_stencil_rejects_interchange(self):
        band = _band(skewed_stencil_module())
        result = legal_permutation(band, [1, 0])
        assert not result
        assert result.dependences
        with pytest.raises(TransformLegalityError):
            result.raise_if_illegal()

    def test_identity_is_always_legal(self):
        band = _band(skewed_stencil_module())
        assert legal_permutation(band, [0, 1])

    def test_non_permutation_rejected(self):
        band = _band(gemm_module())
        assert not legal_permutation(band, [0, 0, 2])

    def test_permute_band_swaps_bounds_and_uses(self):
        module = gemm_module(m=8, n=16, k=4)
        band = _band(module)
        trips = [loop.trip_count for loop in band]
        permuted = permute_band(band, [1, 0, 2])
        assert [loop.trip_count for loop in permuted] == [
            trips[1],
            trips[0],
            trips[2],
        ]
        assert [l.induction_variable.name_hint for l in permuted] == [
            "j",
            "i",
            "k",
        ]
        assert verify(module) == []
        # The permuted nest means the same computation: swapping back is
        # still legal (a (0,0,+) vector survives any reordering).
        assert legal_permutation(permuted, [1, 0, 2])

    def test_reduction_block_moves_outward(self):
        # Moving the carried k level outermost keeps the relative order of
        # all possibly-nonzero levels (k alone), so every dependence —
        # including the (=, =, >=0) WAR — survives the permutation.
        band = _band(gemm_module())
        assert legal_permutation(band, [2, 0, 1])

    def test_permute_band_illegal_leaves_ir_untouched(self):
        module = skewed_stencil_module()
        band = _band(module)
        trips = [loop.trip_count for loop in band]
        with pytest.raises(TransformLegalityError):
            permute_band(band, [1, 0])
        assert [loop.trip_count for loop in band] == trips
        assert verify(module) == []

    def test_permute_band_roundtrip_restores_structure(self):
        module = gemm_module()
        band = _band(module)
        before = [loop.trip_count for loop in band]
        permute_band(band, [1, 0, 2])
        permute_band(band, [1, 0, 2])
        assert [loop.trip_count for loop in band] == before
        assert verify(module) == []


# ---------------------------------------------------------------------------
# Unroll
# ---------------------------------------------------------------------------


class TestUnroll:
    def test_distance_two_allows_factor_two(self):
        loop = _band(recurrence_module(distance=2))[0]
        assert legal_unroll(loop, 2)

    def test_distance_two_rejects_factor_four(self):
        loop = _band(recurrence_module(distance=2))[0]
        result = legal_unroll(loop, 4)
        assert not result
        assert result.dependences[0].min_distance_at(0) == 2

    def test_parallel_loop_unrolls_freely(self):
        kb = KernelBuilder("scale")
        kb.add_input("A", (16,))
        kb.add_output("B", (16,))
        with kb.loop("i", 16) as i:
            kb.store("B", [i], kb.load("A", [i]) * 2.0)
        loop = _band(kb.finish())[0]
        assert legal_unroll(loop, 16)

    def test_checked_transforms_raise(self):
        loop = _band(recurrence_module(distance=1))[0]
        with pytest.raises(TransformLegalityError):
            annotate_unroll(loop, 4, check=True)
        assert loop.unroll_factor == 1  # rejected before mutation
        with pytest.raises(TransformLegalityError):
            unroll_loop(loop, 4, literal=True, check=True)
        assert loop.step == 1

    def test_unchecked_default_still_permissive(self):
        loop = _band(recurrence_module(distance=1))[0]
        annotate_unroll(loop, 4)  # directive-only, linted later
        assert loop.unroll_factor == 4


# ---------------------------------------------------------------------------
# Pipelining and rec-MII
# ---------------------------------------------------------------------------


class TestPipeline:
    def test_rec_mii_of_unit_recurrence(self):
        loop = _band(recurrence_module(distance=1))[0]
        # addf (2 cycles) + store-to-load forwarding (1) recurs every
        # iteration: II >= 3.
        assert pipeline_rec_mii(loop) == 3

    def test_rec_mii_divides_by_distance(self):
        near = pipeline_rec_mii(_band(recurrence_module(distance=1))[0])
        far = pipeline_rec_mii(_band(recurrence_module(distance=4))[0])
        assert far < near
        assert far == 1

    def test_rec_mii_of_parallel_loop_is_one(self):
        kb = KernelBuilder("scale")
        kb.add_input("A", (16,))
        kb.add_output("B", (16,))
        with kb.loop("i", 16) as i:
            kb.store("B", [i], kb.load("A", [i]) * 2.0)
        assert pipeline_rec_mii(_band(kb.finish())[0]) == 1

    def test_legal_pipeline_reports_min_ii(self):
        loop = _band(recurrence_module(distance=1))[0]
        result = legal_pipeline_ii(loop, 1)
        assert not result
        assert result.min_ii == 3
        assert result.dependences  # the binding recurrence travels along
        assert legal_pipeline_ii(loop, 3)

    def test_checked_pipeline_raises_below_bound(self):
        loop = _band(recurrence_module(distance=1))[0]
        with pytest.raises(TransformLegalityError):
            pipeline_loop(loop, target_ii=1, check=True)
        assert not loop.is_pipelined
        pipeline_loop(loop, target_ii=3, check=True)
        assert loop.is_pipelined and loop.target_ii == 3

    def test_rec_mii_is_not_stale_after_equal_bound_permutation(self):
        """``permute_band`` over loops of equal bounds changes neither the
        innermost loop's bounds nor its op count, only which IV its accesses
        use: the per-loop rec-MII cache must notice."""
        from repro.workloads import as_module

        func = as_module("2mm@n=8").functions[0]
        band = next(band for band in loop_bands_of(func) if len(band) == 3)
        assert pipeline_rec_mii(band[-1]) == 3  # the reduction, innermost
        permute_band(band, [2, 0, 1])  # reduction outward
        assert pipeline_rec_mii(band[-1]) == 1
        assert legal_pipeline_ii(band[-1], 1)
        del band[-1]._rec_mii_cache
        assert pipeline_rec_mii(band[-1]) == 1  # what a fresh analysis says


# ---------------------------------------------------------------------------
# Bank conflicts
# ---------------------------------------------------------------------------


def _stride2_module(unroll=4):
    kb = KernelBuilder("stride2")
    kb.add_input("A", (32,))
    kb.add_output("B", (16,))
    with kb.loop("i", 16) as i:
        kb.store("B", [i], kb.load("A", [i * 2]) + 1.0)
    module = kb.finish()
    loop = _band(module)[0]
    loop.set_unroll_factor(unroll)
    buffer = module.functions[0].arguments[0]
    loads = [op for op in module.walk() if isinstance(op, AffineLoadOp)]
    return buffer, loads


class TestBankConflicts:
    def test_stride_two_collides_in_two_banks(self):
        buffer, loads = _stride2_module(unroll=4)
        # Factor 2 puts all four same-cycle even addresses in bank 0.
        conflicts = partition_bank_conflicts(buffer, loads, factors=[2])
        assert len(conflicts) == 1
        assert conflicts[0].hits == 4
        assert "bank 0" in conflicts[0].describe()

    def test_wide_enough_factor_resolves(self):
        buffer, loads = _stride2_module(unroll=4)
        assert not partition_bank_conflicts(buffer, loads, factors=[8])

    def test_strict_partition_raises_on_residual_conflict(self):
        kb = KernelBuilder("clash")
        kb.add_input("A", (16,))
        kb.add_output("B", (8,))
        with kb.loop("i", 8) as i:
            # Three streams with identical variable part and bases 0/4/8:
            # demand clamps the factor to 4, where all bases share bank 0.
            total = (
                kb.load("A", [i * 2])
                + kb.load("A", [i * 2 + 4])
                + kb.load("A", [i * 2 + 8])
            )
            kb.store("B", [i], total)
        module = kb.finish()
        _band(module)[0].set_unroll_factor(2)
        buffer = module.functions[0].arguments[0]
        loads = [op for op in module.walk() if isinstance(op, AffineLoadOp)]
        partition = partition_for_accesses(buffer, loads)  # lenient: chooses 4
        assert partition.factors[0] == 4
        with pytest.raises(TransformLegalityError):
            partition_for_accesses(buffer, loads, strict=True)
