"""Tests for affine maps/expressions and the basic dialects
(arith, memref, affine, hls directives)."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dialects.affine import (
    AffineForOp,
    AffineLoadOp,
    AffineStoreOp,
    get_perfectly_nested_band,
)
from repro.dialects.affine_map import AffineConstantExpr, AffineMap, constant, dim
from repro.dialects.arith import COMPUTE_OP_NAMES, AddFOp, MulFOp, is_multiply_accumulate
from repro.dialects.hls import ArrayPartition, PartitionKind, partition_of, set_partition
from repro.dialects.memref import AllocOp, CopyOp
from repro.ir import Builder, ConstantOp, FuncOp, MemRefType, f32, index


# ---------------------------------------------------------------------------
# Affine expressions and maps
# ---------------------------------------------------------------------------


class TestAffineExpr:
    def test_dim_evaluation(self):
        assert dim(0).evaluate([7]) == 7

    def test_arithmetic_evaluation(self):
        expr = dim(0) * 2 + dim(1) - 1
        assert expr.evaluate([3, 4]) == 9

    def test_floordiv_mod(self):
        expr = dim(0) // 4
        assert expr.evaluate([11]) == 2
        assert (dim(0) % 4).evaluate([11]) == 3

    @pytest.mark.parametrize(
        "build",
        [
            lambda: dim(0) * 1.5,
            lambda: dim(0) + 2.9,
            lambda: constant(2.5),
            lambda: constant(Fraction(1, 2)),
        ],
        ids=["mul-float", "add-float", "constant-float", "constant-fraction"],
    )
    def test_non_int_constants_are_refused(self, build):
        with pytest.raises(TypeError, match="affine constant must be an int"):
            build()

    def test_constant_folding(self):
        expr = constant(2) * constant(3) + constant(1)
        assert isinstance(expr, AffineConstantExpr)
        assert expr.value == 7

    def test_identity_simplifications(self):
        d = dim(0)
        assert (d + 0) is d
        assert (d * 1) is d
        assert isinstance(d * 0, AffineConstantExpr)

    def test_used_dims(self):
        expr = dim(2) * 3 + dim(0)
        assert expr.used_dims() == (0, 2)

    @given(
        st.integers(-50, 50),
        st.integers(-50, 50),
        st.integers(-10, 10),
        st.integers(1, 9),
    )
    @settings(max_examples=60, deadline=None)
    def test_linear_expression_matches_python(self, x, y, coeff, divisor):
        expr = dim(0) * coeff + dim(1)
        assert expr.evaluate([x, y]) == coeff * x + y
        assert (dim(0) % divisor).evaluate([abs(x)]) == abs(x) % divisor


class TestAffineMap:
    def test_identity_map(self):
        amap = AffineMap(3, [dim(0), dim(1), dim(2)])
        assert amap.evaluate([1, 2, 3]) == (1, 2, 3)

    def test_permutation_map(self):
        amap = AffineMap(3, [dim(2), dim(0), dim(1)])
        assert amap.evaluate([10, 20, 30]) == (30, 10, 20)

    def test_result_strides_and_positions(self):
        amap = AffineMap(2, [dim(0) * 2, dim(1)])
        assert amap.single_dim_strides() == [(0, 2), (1, 1)]

    def test_result_position_none_for_multi_dim(self):
        amap = AffineMap(2, [dim(0) + dim(1)])
        assert amap.single_dim_strides() == [None]

    def test_evaluate_wrong_arity(self):
        with pytest.raises(ValueError):
            AffineMap(2, [dim(0), dim(1)]).evaluate([1])

    @given(st.lists(st.integers(0, 4), min_size=1, max_size=5))
    @settings(max_examples=50, deadline=None)
    def test_constant_map_roundtrip(self, values):
        amap = AffineMap(0, values)
        assert list(amap.evaluate([])) == values

    @given(
        st.permutations(list(range(4))),
        st.lists(st.integers(-20, 20), min_size=4, max_size=4),
    )
    @settings(max_examples=50, deadline=None)
    def test_permutation_property(self, order, values):
        amap = AffineMap(4, [dim(i) for i in order])
        result = amap.evaluate(values)
        assert sorted(result) == sorted(values)


# ---------------------------------------------------------------------------
# arith dialect
# ---------------------------------------------------------------------------


class TestArith:
    def test_binary_op_types(self):
        a = ConstantOp.create(1.0, f32)
        b = ConstantOp.create(2.0, f32)
        add = AddFOp.create(a.result(), b.result())
        assert add.result().type == f32
        assert add.operands == [a.result(), b.result()]

    def test_compute_op_classification(self):
        a = ConstantOp.create(1.0, f32)
        mul = MulFOp.create(a.result(), a.result())
        add = AddFOp.create(a.result(), a.result())
        assert mul.name in COMPUTE_OP_NAMES and add.name in COMPUTE_OP_NAMES
        assert is_multiply_accumulate(mul)
        assert not is_multiply_accumulate(add)
        assert a.name not in COMPUTE_OP_NAMES


# ---------------------------------------------------------------------------
# memref dialect
# ---------------------------------------------------------------------------


class TestMemRef:
    def test_alloc_and_load_store(self):
        alloc = AllocOp.create(MemRefType((4, 4), f32), name_hint="buf")
        idx = ConstantOp.create(0, index)
        load = AffineLoadOp.create(alloc.result(), [idx.result(), idx.result()])
        store = AffineStoreOp.create(load.result(), alloc.result(), [idx.result(), idx.result()])
        assert load.result().type == f32
        assert store.memref is alloc.result()
        assert alloc.result().name_hint == "buf"

    def test_copy_op_accessors(self):
        a = AllocOp.create(MemRefType((4,), f32))
        b = AllocOp.create(MemRefType((4,), f32))
        copy = CopyOp.create(a.result(), b.result())
        assert copy.source is a.result()
        assert copy.target is b.result()

# ---------------------------------------------------------------------------
# affine dialect and loop utilities
# ---------------------------------------------------------------------------


def build_nest(bounds, steps=None):
    """Build a perfect nest and return (outermost, [loops])."""
    steps = steps or [1] * len(bounds)
    loops = []
    parent_builder = None
    outer = None
    for bound, step in zip(bounds, steps):
        loop = AffineForOp.create(0, bound, step)
        if parent_builder is None:
            outer = loop
        else:
            parent_builder.insert(loop)
        loops.append(loop)
        parent_builder = Builder.at_end(loop.body)
    return outer, loops


class TestAffineDialect:
    def test_trip_count(self):
        loop = AffineForOp.create(0, 17, 4)
        assert loop.trip_count == 5

    @pytest.mark.parametrize(
        "bounds", [(0, 2**60 + 1, 1), (3, 2**55 + 2, 3), (-(2**54), 2**54 + 1, 7), (5, 5, 1)]
    )
    def test_trip_count_is_exact_past_float_precision(self, bounds):
        # The interpreter runs ``range(lb, ub, step)``; a float quotient
        # rounded 2**60 + 1 iterations down to 2**60.
        assert AffineForOp.create(*bounds).trip_count == len(range(*bounds))

    def test_negative_step_rejected(self):
        with pytest.raises(ValueError):
            AffineForOp.create(0, 4, 0)

    def test_directive_accessors(self):
        loop = AffineForOp.create(0, 8)
        assert not loop.is_pipelined
        loop.set_pipeline(True, target_ii=2)
        loop.set_unroll_factor(4)
        loop.set_parallel(True)
        assert loop.is_pipelined and loop.target_ii == 2
        assert loop.unroll_factor == 4
        assert loop.is_parallel

    def test_set_bounds(self):
        loop = AffineForOp.create(0, 8)
        loop.set_bounds(0, 32, 2)
        assert loop.trip_count == 16

    def test_enclosing_loops_and_band(self):
        outer, loops = build_nest([4, 8, 16])
        body_op = Builder.at_end(loops[-1].body).insert(ConstantOp.create(1.0, f32))
        enclosing, op = [], body_op
        while (op := op.parent_op) is not None:
            enclosing.insert(0, op)
        assert enclosing == loops
        assert get_perfectly_nested_band(outer) == loops

    def test_imperfect_nest_band_stops(self):
        outer, loops = build_nest([4, 8])
        # Add a second op next to the inner loop -> band of length 1.
        Builder.at_end(outer.body).insert(ConstantOp.create(1.0, f32))
        assert get_perfectly_nested_band(outer) == [outer]

    def test_load_store_access_maps(self):
        memref_ty = MemRefType((32, 16), f32)
        func = FuncOp.create("f", input_types=[memref_ty])
        outer, loops = build_nest([32, 16])
        Builder.at_end(func.entry_block).insert(outer)
        amap = AffineMap(2, [dim(0) * 2, dim(1)])
        load = AffineLoadOp.create(
            func.arguments[0],
            [loops[0].induction_variable, loops[1].induction_variable],
            amap,
        )
        assert load.driving_loops() == [(loops[0], 2), (loops[1], 1)]

    def test_load_map_arity_mismatch_fails_verify(self):
        memref_ty = MemRefType((8,), f32)
        func = FuncOp.create("f", input_types=[memref_ty])
        loop = AffineForOp.create(0, 8)
        load = AffineLoadOp.create(
            func.arguments[0],
            [loop.induction_variable],
            AffineMap(2, [dim(0), dim(1)]),
        )
        with pytest.raises(ValueError):
            load.verify()

# ---------------------------------------------------------------------------
# HLS directive dialect
# ---------------------------------------------------------------------------


class TestHlsDirectives:
    def test_array_partition_banks(self):
        partition = ArrayPartition(["cyclic", "block"], [4, 2])
        assert partition.banks == 8
        assert partition.rank == 2

    def test_array_partition_validation(self):
        with pytest.raises(ValueError):
            ArrayPartition(["cyclic"], [4, 2])
        with pytest.raises(ValueError):
            ArrayPartition(["bogus"], [1])
        with pytest.raises(ValueError):
            ArrayPartition(["cyclic"], [0])

    def test_partition_none_and_with_dim(self):
        partition = ArrayPartition.none(3)
        assert partition.banks == 1
        updated = ArrayPartition(["none", PartitionKind.CYCLIC, "none"], [1, 8, 1])
        assert updated.factors == (1, 8, 1) and updated.banks == 8

    def test_value_partition_annotation(self):
        alloc = AllocOp.create(MemRefType((16, 16), f32))
        assert partition_of(alloc.result()) is None
        set_partition(alloc.result(), ArrayPartition(["cyclic", "none"], [4, 1]))
        assert partition_of(alloc.result()).banks == 4

    @given(st.lists(st.integers(1, 16), min_size=1, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_banks_is_product_of_factors(self, factors):
        kinds = [PartitionKind.CYCLIC if f > 1 else PartitionKind.NONE for f in factors]
        partition = ArrayPartition(kinds, factors)
        expected = 1
        for factor in factors:
            expected *= factor
        assert partition.banks == expected
