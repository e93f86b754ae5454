"""Tests of the reference IR interpreter (:mod:`repro.ir.interp`).

Covers seeding determinism, the memory model (stores, out-of-bounds
accounting, copies, subviews via the zoo), control flow, streams, the
static cost estimate / budget refusal, and :func:`diff_results` semantics.
The translation-validation layer built on top lives in ``test_tv.py``.
"""

import cProfile
import hashlib
import json
import math
import pathlib
import pstats
import types

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.analysis.tv.__main__ import _shrunk
from repro.compiler import Compiler, SnapshotObserver
from repro.compiler.driver import DEFAULT_PIPELINE
from repro.dialects.affine import (
    AffineApplyOp,
    AffineForOp,
    AffineIfOp,
    AffineLoadOp,
    AffineStoreOp,
    AffineYieldOp,
)
from repro.dialects.affine_map import AffineMap, constant, dim, symbol
from repro.dialects.arith import (
    AddFOp,
    AddIOp,
    CastOp,
    CmpOp,
    DivFOp,
    DivIOp,
    ExpOp,
    MACOp,
    MaxFOp,
    MaxIOp,
    MinFOp,
    MinIOp,
    MulFOp,
    MulIOp,
    NegFOp,
    SelectOp,
    SqrtOp,
    SubFOp,
    SubIOp,
)
from repro.dialects.dataflow import (
    DispatchOp,
    NodeOp,
    ScheduleOp,
    StreamOp,
    StreamReadOp,
    StreamWriteOp,
    TaskOp,
    YieldOp as HidaYieldOp,
)
from repro.dialects.memref import (
    AllocOp,
    CopyOp,
    DeallocOp,
    LoadOp,
    StoreOp,
    SubViewOp,
)
from repro.dialects.scf import (
    ForOp as ScfForOp,
    IfOp as ScfIfOp,
    WhileOp as ScfWhileOp,
    YieldOp as ScfYieldOp,
)
from repro.dialects import linalg
from repro.frontend.nn import Linear, Sequential, trace
from repro.ir import (
    Builder,
    FuncOp,
    MemRefType,
    ModuleOp,
    ReturnOp,
    UnrealizedCastOp,
    f32,
    f64,
    i1,
    i32,
    index,
)
from repro.ir import interp
from repro.ir.core import Operation
from repro.ir.interp import (
    DEFAULT_MAX_OPS,
    ExecutionResult,
    InterpreterBudgetError,
    InterpreterError,
    UnsupportedOpError,
    diff_results,
    estimate_cost,
    interpret_module,
    seed_value,
)
from repro.ir.parser import parse_op
from repro.ir.printer import print_op
from repro.workloads import as_module, get_workload, iter_workloads

SIZE = 16


def _empty_design(arg_shapes=((SIZE,),)):
    """A module with one top function over f64 memref arguments."""
    module = ModuleOp.create()
    func = FuncOp.create(
        "main",
        [MemRefType(shape, f64) for shape in arg_shapes],
        top=True,
    )
    module.body.append(func)
    return module, func, Builder.at_end(func.entry_block)


def _finish(builder):
    builder.insert(ReturnOp.create())


class TestSeeding:
    def test_seed_value_is_deterministic_and_small(self):
        values = [seed_value(slot, i) for slot in range(4) for i in range(32)]
        assert values == [seed_value(s, i) for s in range(4) for i in range(32)]
        assert all(1 <= v <= 11 for v in values)

    def test_seed_parameter_changes_inputs(self):
        assert [seed_value(0, i, seed=0) for i in range(8)] != [
            seed_value(0, i, seed=1) for i in range(8)
        ]

    def test_untouched_arguments_hold_their_seeds(self):
        module, _, builder = _empty_design()
        _finish(builder)
        result = interpret_module(module)
        assert result.output_map["arg0"] == tuple(
            float(seed_value(0, i)) for i in range(SIZE)
        )


class TestMemoryAndControlFlow:
    def test_store_through_affine_apply(self):
        module, func, builder = _empty_design()
        # index = d0 * 2 + 1 applied to 3 -> cell 7
        index = builder.insert(
            AffineApplyOp.create(
                AffineMap(1, 0, [dim(0) * 2 + 1]), [builder.index_constant(3)]
            )
        )
        marker = builder.constant(99.0, f64)
        builder.insert(StoreOp.create(marker, func.arguments[0], [index.result()]))
        _finish(builder)
        cells = interpret_module(module).output_map["arg0"]
        assert cells[7] == 99.0
        assert cells[0] == float(seed_value(0, 0))

    def test_affine_loop_writes_every_cell(self):
        module, func, builder = _empty_design()
        loop = builder.insert(AffineForOp.create(0, SIZE))
        with builder.at_end_of(loop.body):
            marker = builder.constant(42.0, f64)
            builder.insert(
                AffineStoreOp.create(
                    marker, func.arguments[0], [loop.induction_variable]
                )
            )
        _finish(builder)
        result = interpret_module(module)
        assert result.output_map["arg0"] == (42.0,) * SIZE
        assert result.ops_executed > SIZE  # loop body charged per iteration

    def test_out_of_bounds_write_is_dropped_and_counted(self):
        module, func, builder = _empty_design()
        marker = builder.constant(1.0, f64)
        builder.insert(
            StoreOp.create(
                marker, func.arguments[0], [builder.index_constant(SIZE + 5)]
            )
        )
        _finish(builder)
        result = interpret_module(module)
        assert result.oob_writes == 1
        assert result.output_map["arg0"] == tuple(
            float(seed_value(0, i)) for i in range(SIZE)
        )

    def test_stream_underflow_reads_zero(self):
        module, _, builder = _empty_design()
        stream = builder.insert(StreamOp.create(f32, depth=4))
        value = builder.constant(5.0, f32)
        builder.insert(StreamWriteOp.create(stream.result(), value))
        builder.insert(StreamReadOp.create(stream.result()))
        builder.insert(StreamReadOp.create(stream.result()))  # empty now
        _finish(builder)
        result = interpret_module(module)
        assert result.stream_underflows == 1

    def test_unsupported_op_raises(self):
        module, _, builder = _empty_design()
        builder.insert(Operation(name="test.mystery"))
        _finish(builder)
        with pytest.raises(UnsupportedOpError, match="test.mystery"):
            interpret_module(module)


class TestBudget:
    def test_static_estimate_scales_with_trip_count(self):
        def loop_with_body(trip):
            module, func, builder = _empty_design()
            loop = builder.insert(AffineForOp.create(0, trip))
            with builder.at_end_of(loop.body):
                marker = builder.constant(1.0, f64)
                builder.insert(
                    AffineStoreOp.create(
                        marker, func.arguments[0], [builder.index_constant(0)]
                    )
                )
            _finish(builder)
            return loop

        assert estimate_cost(loop_with_body(4096)) > estimate_cost(
            loop_with_body(4)
        )

    def test_budget_refusal_reports_cost(self):
        module = as_module(get_workload("2mm").at(n=8))
        with pytest.raises(InterpreterBudgetError) as info:
            interpret_module(module, max_ops=10)
        assert info.value.cost > info.value.max_ops == 10

    def test_default_budget_admits_the_zoo_kernel(self):
        module = as_module(get_workload("2mm").at(n=8))
        result = interpret_module(module, max_ops=DEFAULT_MAX_OPS)
        assert result.ops_executed > 0


class TestWorkloads:
    def test_execution_is_deterministic(self):
        handle = get_workload("2mm").at(n=8)
        first = interpret_module(as_module(handle))
        second = interpret_module(as_module(handle))
        assert first.outputs == second.outputs
        assert first.ops_executed == second.ops_executed

    def test_seed_changes_outputs(self):
        handle = get_workload("2mm").at(n=8)
        base = interpret_module(as_module(handle), seed=0)
        other = interpret_module(as_module(handle), seed=3)
        assert base.outputs != other.outputs

    def test_linalg_modules_lower_into_a_clone(self):
        module = trace(Sequential(Linear(4, 4)), (1, 4))
        assert any(isinstance(op, linalg.LinalgOp) for op in module.walk())
        result = interpret_module(module)
        assert result.ops_executed > 0
        # The original module is untouched: lowering happened in a clone.
        assert any(isinstance(op, linalg.LinalgOp) for op in module.walk())


class TestDiffResults:
    def _result(self, cells):
        return ExecutionResult(outputs=(("arg0", tuple(cells)),))

    def test_bitwise_equality_is_the_default(self):
        left = self._result([1.0, 2.0])
        right = self._result([1.0, 2.0 + 1e-12])
        assert diff_results(left, left) == []
        assert diff_results(left, right)  # any difference is a mismatch

    def test_relative_tolerance_admits_tiny_drift(self):
        left = self._result([1.0, 2.0])
        right = self._result([1.0, 2.0 + 1e-12])
        assert diff_results(left, right, tolerance=1e-9) == []
        far = self._result([1.0, 2.5])
        assert diff_results(left, far, tolerance=1e-9)

    def test_shape_and_presence_mismatches_are_named(self):
        left = self._result([1.0, 2.0])
        short = self._result([1.0])
        assert any("element(s)" in m for m in diff_results(left, short))
        other = ExecutionResult(outputs=(("arg1", (1.0,)),))
        assert any(
            "present on one side only" in m for m in diff_results(left, other)
        )

    def test_mismatch_names_the_first_differing_element(self):
        left = self._result([1.0, 2.0, 3.0])
        right = self._result([1.0, 9.0, 8.0])
        messages = diff_results(left, right)
        assert messages == ["arg0[1]: 2.0 != 9.0"]


# ---------------------------------------------------------------------------
# Op surface: one hand-built module per op kind the zoo never executes
# ---------------------------------------------------------------------------


def _run(build, arg_types=None, **interpret_kwargs):
    """Interpret ``main(args) { build(builder, args); return <its values> }``."""
    module = ModuleOp.create()
    func = FuncOp.create(
        "main", arg_types or [MemRefType((SIZE,), f64)], top=True
    )
    module.body.append(func)
    builder = Builder.at_end(func.entry_block)
    values = build(builder, func.arguments)
    builder.insert(ReturnOp.create(list(values or ())))
    return interpret_module(module, **interpret_kwargs)


def _exactly(actual, expected):
    """Equal values *and* equal Python types (``3`` is not ``3.0`` here)."""
    assert tuple(actual) == tuple(expected)
    assert [type(v) for v in actual] == [type(v) for v in expected]


def _seeds(slot, count=SIZE, as_type=float):
    return [as_type(seed_value(slot, i)) for i in range(count)]


class TestOpSurface:
    """Hand-computed outputs and counters for every op kind outside the zoo.

    ``ops_executed`` expectations count one per executed op (constants,
    region ops and the final return included; yields never).
    """

    # ------------------------------------------------------------ affine.if
    def _affine_if(self, condition, with_else):
        def build(b, args):
            one, two = b.constant(1.0, f64), b.constant(2.0, f64)
            loop = b.insert(AffineForOp.create(0, 4))
            iv = loop.induction_variable
            with b.at_end_of(loop.body):
                branch = b.insert(
                    AffineIfOp.create(condition, [iv], with_else=with_else)
                )
                with b.at_end_of(branch.then_block):
                    b.insert(AffineStoreOp.create(one, args[0], [iv]))
                    b.insert(AffineYieldOp.create())
                    # Anything after the first yield is never reached.
                    b.insert(AffineStoreOp.create(two, args[0], [iv]))
                if with_else:
                    with b.at_end_of(branch.else_block):
                        b.insert(AffineStoreOp.create(two, args[0], [iv]))
                b.insert(AffineYieldOp.create())

        return _run(build)

    def test_affine_if_takes_then_and_else(self):
        result = self._affine_if(AffineMap(1, 0, [dim(0) - 2]), with_else=True)
        assert result.output_map["arg0"][:5] == (2.0, 2.0, 1.0, 1.0, _seeds(0)[4])
        # 2 constants + for + 4 x (if + one store) + return
        assert result.ops_executed == 2 + 1 + 4 * 2 + 1

    def test_affine_if_without_else_skips(self):
        result = self._affine_if(AffineMap(1, 0, [dim(0) - 2]), with_else=False)
        seeds = _seeds(0)
        assert result.output_map["arg0"][:4] == (seeds[0], seeds[1], 1.0, 1.0)
        # the store runs on two of the four iterations only
        assert result.ops_executed == 2 + 1 + (4 + 2) + 1

    def test_affine_if_needs_every_condition_row_non_negative(self):
        # d0 - 1 >= 0 and 2 - d0 >= 0  <=>  d0 in {1, 2}
        condition = AffineMap(1, 0, [dim(0) - 1, 2 - dim(0)])
        result = self._affine_if(condition, with_else=True)
        assert result.output_map["arg0"][:4] == (2.0, 1.0, 1.0, 2.0)

    # -------------------------------------------------------------- scf.for
    def test_scf_for_walks_lb_to_ub_by_step(self):
        def build(b, args):
            lb, ub, step = (b.index_constant(v) for v in (1, 7, 2))
            marker = b.constant(5.0, f64)
            loop = b.insert(ScfForOp.create(lb, ub, step))
            with b.at_end_of(loop.body):
                b.insert(
                    StoreOp.create(marker, args[0], [loop.induction_variable])
                )
                b.insert(ScfYieldOp.create())

        result = _run(build)
        seeds = _seeds(0)
        assert result.output_map["arg0"][:7] == (
            seeds[0], 5.0, seeds[2], 5.0, seeds[4], 5.0, seeds[6],
        )
        assert result.ops_executed == 4 + 1 + 3 + 1
        assert (result.oob_reads, result.oob_writes) == (0, 0)

    def test_scf_for_threads_iter_args(self):
        def build(b, args):
            lb, ub, step = (b.index_constant(v) for v in (0, 3, 1))
            init, two = b.constant(0.5, f64), b.constant(2.0, f64)
            loop = b.insert(ScfForOp.create(lb, ub, step, iter_args=[init]))
            with b.at_end_of(loop.body):
                acc = b.insert(AddFOp.create(loop.iter_args[0], two))
                b.insert(ScfYieldOp.create([acc.result()]))
            empty = b.insert(ScfForOp.create(ub, lb, step, iter_args=[init]))
            with b.at_end_of(empty.body):
                b.insert(ScfYieldOp.create([two]))
            return [loop.result(), empty.result()]

        result = _run(build)
        # 0.5 + 2 + 2 + 2; the zero-trip loop forwards its init unchanged
        _exactly(result.returned, (6.5, 0.5))
        assert result.ops_executed == 5 + (1 + 3) + 1 + 1

    def test_scf_for_rejects_non_positive_step(self):
        def build(b, args):
            zero = b.index_constant(0)
            b.insert(ScfForOp.create(zero, zero, zero))

        with pytest.raises(InterpreterError, match="step must be positive, got 0"):
            _run(build)

    # --------------------------------------------------------------- scf.if
    def test_scf_if_yields_results_from_the_taken_branch(self):
        def build(b, args):
            picks = []
            for flag in (1, 0):
                condition = b.constant(flag, i1)
                branch = b.insert(
                    ScfIfOp.create(condition, [f64], with_else=True)
                )
                with b.at_end_of(branch.then_block):
                    b.insert(ScfYieldOp.create([b.constant(3.0, f64)]))
                with b.at_end_of(branch.else_block):
                    b.insert(ScfYieldOp.create([b.constant(4.0, f64)]))
                picks.append(branch.result())
            return picks

        result = _run(build)
        _exactly(result.returned, (3.0, 4.0))
        # per if: condition + if + the taken branch's one constant
        assert result.ops_executed == 2 * 3 + 1

    def test_scf_if_without_else_yields_typed_zeros(self):
        def build(b, args):
            condition = b.constant(0, i1)
            branch = b.insert(ScfIfOp.create(condition, [f64, index]))
            with b.at_end_of(branch.then_block):
                b.insert(
                    ScfYieldOp.create([b.constant(3.0, f64), b.index_constant(9)])
                )
            return list(branch.results)

        result = _run(build)
        _exactly(result.returned, (0.0, 0))
        assert result.ops_executed == 1 + 1 + 1

    # ------------------------------------------------------------ scf.while
    def test_scf_while_counts_up_through_forwarded_values(self):
        def build(b, args):
            zero, three, one = (b.index_constant(v) for v in (0, 3, 1))
            loop = b.insert(ScfWhileOp.create([zero]))
            cond_block = loop.regions[0].entry_block
            body_block = loop.regions[1].entry_block
            with b.at_end_of(cond_block):
                x = cond_block.arguments[0]
                flag = b.insert(CmpOp.create("lt", x, three))
                b.insert(ScfYieldOp.create([flag.result(), x]))
            with b.at_end_of(body_block):
                x = body_block.arguments[0]
                b.insert(StoreOp.create(b.constant(8.0, f64), args[0], [x]))
                nxt = b.insert(AddIOp.create(x, one))
                b.insert(ScfYieldOp.create([nxt.result()]))
            return [loop.result()]

        result = _run(build)
        _exactly(result.returned, (3,))
        assert result.output_map["arg0"][:4] == (8.0, 8.0, 8.0, _seeds(0)[3])
        # 3 constants + while + 4 condition passes (cmp) + 3 bodies
        # (constant, store, addi) + return
        assert result.ops_executed == 3 + 1 + 4 * 1 + 3 * 3 + 1

    def test_scf_while_flag_only_condition_forwards_current_values(self):
        def build(b, args):
            start, limit, one = (b.index_constant(v) for v in (5, 7, 1))
            loop = b.insert(ScfWhileOp.create([start]))
            cond_block = loop.regions[0].entry_block
            body_block = loop.regions[1].entry_block
            with b.at_end_of(cond_block):
                flag = b.insert(CmpOp.create("ne", cond_block.arguments[0], limit))
                b.insert(ScfYieldOp.create([flag.result()]))
            with b.at_end_of(body_block):
                nxt = b.insert(AddIOp.create(body_block.arguments[0], one))
                b.insert(ScfYieldOp.create([nxt.result()]))
            return [loop.result()]

        _exactly(_run(build).returned, (7,))

    def test_scf_while_condition_must_yield(self):
        def build(b, args):
            b.insert(ScfWhileOp.create([b.index_constant(0)]))

        with pytest.raises(InterpreterError, match="condition region must yield"):
            _run(build)

    # --------------------------------------------------------------- memref
    def test_memref_load_in_and_out_of_bounds(self):
        def build(b, args):
            loads = [
                b.insert(LoadOp.create(memref, [b.index_constant(at)]))
                for memref, at in (
                    (args[0], 3), (args[0], SIZE), (args[0], -1),
                    (args[1], 2), (args[1], 4),
                )
            ]
            # rank-mismatched subscripts are out of bounds too
            loads.append(b.insert(LoadOp.create(args[0], [])))
            return [load.result() for load in loads]

        result = _run(build, [MemRefType((SIZE,), f64), MemRefType((4,), i32)])
        _exactly(
            result.returned,
            (float(seed_value(0, 3)), 0.0, 0.0, seed_value(1, 2), 0, 0.0),
        )
        assert result.oob_reads == 4
        assert result.oob_writes == 0
        assert result.ops_executed == 5 + 6 + 1

    def test_memref_copy_charges_one_op_per_element(self):
        def build(b, args):
            b.insert(CopyOp.create(args[0], args[1]))

        same = _run(build, [MemRefType((SIZE,), f64)] * 2)
        assert same.output_map["arg1"] == tuple(_seeds(0))
        assert same.ops_executed == 1 + (SIZE - 1) + 1
        # mismatched shapes copy the overlapping row-major prefix
        narrow = _run(build, [MemRefType((2, 3), f64), MemRefType((4,), f64)])
        assert narrow.output_map["arg1"] == tuple(_seeds(0, 4))
        assert narrow.output_map["arg0"] == tuple(_seeds(0, 6))
        assert narrow.ops_executed == 1 + 3 + 1

    def test_memref_copy_counts_cells_past_storage(self):
        """A (4,) view at offset 2 of a 4-cell buffer: its last two cells
        are past the storage, so a copy drops those writes or reads typed
        zeros there, and counts each."""

        def copy(into_view):
            def build(b, args):
                view = b.insert(SubViewOp.create(args[0], (2,), (4,), (1,))).result()
                b.insert(CopyOp.create(*((args[1], view) if into_view else (view, args[1]))))

            return _run(build, [MemRefType((4,), f64)] * 2)

        into = copy(into_view=True)
        _exactly(into.output_map["arg0"], _seeds(0, 2) + _seeds(1, 2))
        assert (into.oob_reads, into.oob_writes) == (0, 2)
        out_of = copy(into_view=False)
        _exactly(out_of.output_map["arg1"], (7.0, 10.0, 0.0, 0.0))
        assert (out_of.oob_reads, out_of.oob_writes) == (2, 0)
        # subview + copy (one op per element) + return, either way
        assert into.ops_executed == out_of.ops_executed == 1 + 4 + 1

    def test_memref_subview_applies_offset_and_stride(self):
        def build(b, args):
            # view[i][j] = parent[1 + i][2 * j]
            view = b.insert(SubViewOp.create(args[0], (1, 0), (2, 2), (1, 2)))
            at = {v: b.index_constant(v) for v in (0, 1, 2)}
            b.insert(
                StoreOp.create(b.constant(7.0, f64), view.result(), [at[1], at[1]])
            )
            inside = b.insert(LoadOp.create(view.result(), [at[0], at[1]]))
            # parent[3][0] exists, but row 2 is outside the 2x2 view
            outside = b.insert(LoadOp.create(view.result(), [at[2], at[0]]))
            return [inside.result(), outside.result()]

        result = _run(build, [MemRefType((4, 4), f64)])
        cells = list(_seeds(0))
        cells[2 * 4 + 2] = 7.0
        assert result.output_map["arg0"] == tuple(cells)
        _exactly(result.returned, (float(seed_value(0, 1 * 4 + 2)), 0.0))
        assert (result.oob_reads, result.oob_writes) == (1, 0)

    def test_alloc_is_zeroed_and_dealloc_is_a_charged_no_op(self):
        def build(b, args):
            scratch = b.insert(AllocOp.create(MemRefType((2, 2), f64)))
            counts = b.insert(AllocOp.create(MemRefType((3,), i32)))
            b.insert(DeallocOp.create(scratch.result()))
            return [scratch.result(), counts.result()]

        result = _run(build)
        _exactly(result.returned[0], (0.0, 0.0, 0.0, 0.0))
        _exactly(result.returned[1], (0, 0, 0))
        assert result.ops_executed == 3 + 1

    # ---------------------------------------------------------------- casts
    def test_cast_truncates_toward_zero_and_widens_to_float(self):
        def build(b, args):
            return [
                b.insert(CastOp.create(b.constant(value, source), target)).result()
                for value, source, target in (
                    (-2.7, f64, i32), (2.7, f64, index), (3, i32, f64), (-4, index, f32),
                )
            ]

        result = _run(build)
        _exactly(result.returned, (-2, 2, 3.0, -4.0))
        assert result.ops_executed == 4 + 4 + 1

    def test_unrealized_cast_forwards_the_value_unchanged(self):
        def build(b, args):
            five = b.index_constant(5)
            return [b.insert(UnrealizedCastOp.create(five, f64)).result()]

        _exactly(_run(build).returned, (5,))

    # ---------------------------------------------------------------- arith
    def test_cmp_predicates(self):
        table = {  # predicate -> results on (2, 3) and (3, 3)
            "eq": (0, 1), "ne": (1, 0), "lt": (1, 0),
            "le": (1, 1), "gt": (0, 0), "ge": (0, 1),
        }

        def build(b, args):
            two, three = b.index_constant(2), b.index_constant(3)
            return [
                b.insert(CmpOp.create(predicate, lhs, three)).result()
                for predicate in table
                for lhs in (two, three)
            ]

        result = _run(build)
        _exactly(result.returned, [bit for bits in table.values() for bit in bits])
        assert result.ops_executed == 2 + 12 + 1

    def test_unknown_cmp_predicate_is_unsupported(self):
        def build(b, args):
            one = b.index_constant(1)
            b.insert(CmpOp.create("ult", one, one))

        with pytest.raises(UnsupportedOpError, match="unknown cmp predicate 'ult'"):
            _run(build)

    def test_select_mac_and_unary_float_ops(self):
        def build(b, args):
            yes, no = b.constant(1, i1), b.constant(0, i1)
            two, three, four = (b.constant(v, f64) for v in (2.0, 3.0, 4.0))
            return [
                op.result()
                for op in (
                    b.insert(SelectOp.create(yes, two, three)),
                    b.insert(SelectOp.create(no, two, three)),
                    b.insert(MACOp.create(two, three, four)),  # 4 + 2 * 3
                    b.insert(NegFOp.create(two)),
                    b.insert(ExpOp.create(b.constant(0.0, f64))),
                    b.insert(ExpOp.create(b.constant(1.0, f64))),
                    b.insert(SqrtOp.create(b.constant(9.0, f64))),
                )
            ]

        result = _run(build)
        _exactly(result.returned, (2.0, 3.0, 10.0, -2.0, 1.0, math.e, 3.0))

    def test_integer_arithmetic(self):
        def build(b, args):
            seven, minus_two = b.index_constant(7), b.index_constant(-2)
            return [
                b.insert(kind.create(seven, minus_two)).result()
                for kind in (AddIOp, SubIOp, MulIOp, MaxIOp, MinIOp)
            ]

        result = _run(build)
        _exactly(result.returned, (5, 9, -14, 7, -2))
        assert result.ops_executed == 2 + 5 + 1

    def test_float_min_max_and_division(self):
        def build(b, args):
            seven, minus_two = b.constant(7.0, f64), b.constant(-2.0, f64)
            return [
                b.insert(kind.create(seven, minus_two)).result()
                for kind in (MaxFOp, MinFOp, DivFOp, SubFOp, MulFOp)
            ]

        _exactly(_run(build).returned, (7.0, -2.0, -3.5, 9.0, -14.0))

    def test_integer_division_truncates_toward_zero(self):
        def build(b, args):
            return [
                b.insert(
                    DivIOp.create(b.index_constant(lhs), b.index_constant(rhs))
                ).result()
                for lhs, rhs in ((7, 2), (-7, 2), (7, -2), (-7, -2), (0, 5))
            ]

        _exactly(_run(build).returned, (3, -3, -3, 3, 0))

    @pytest.mark.parametrize(
        "kind, lhs, rhs, type_, message",
        [
            (DivIOp, 1, 0, index, "integer division by zero"),
            (DivFOp, 1.0, 0.0, f64, "float division by zero"),
        ],
    )
    def test_division_by_zero_is_an_interpreter_error(
        self, kind, lhs, rhs, type_, message
    ):
        def build(b, args):
            b.insert(kind.create(b.constant(lhs, type_), b.constant(rhs, type_)))

        with pytest.raises(InterpreterError, match=message):
            _run(build)

    def test_sqrt_of_a_negative_is_an_interpreter_error(self):
        def build(b, args):
            b.insert(SqrtOp.create(b.constant(-4.0, f64)))

        with pytest.raises(InterpreterError, match=r"sqrt of negative value -4\.0"):
            _run(build)

    # ------------------------------------------------------------- dataflow
    def test_task_results_come_from_its_terminator(self):
        def build(b, args):
            dispatch = b.insert(DispatchOp.create())
            with b.at_end_of(dispatch.body):
                task = b.insert(TaskOp.create([f64]))
                with b.at_end_of(task.body):
                    b.insert(HidaYieldOp.create([b.constant(3.0, f64)]))
                b.insert(HidaYieldOp.create())
            return [task.result()]

        result = _run(build)
        _exactly(result.returned, (3.0,))
        assert result.ops_executed == 1 + 1 + 1 + 1

    def test_isolated_regions_bind_operands_to_block_arguments(self):
        def build(b, args):
            schedule = b.insert(ScheduleOp.create([args[0]]))
            with b.at_end_of(schedule.body):
                node = b.insert(NodeOp.create(outputs=[schedule.body.arguments[0]]))
                with b.at_end_of(node.body):
                    b.insert(
                        StoreOp.create(
                            b.constant(9.0, f64),
                            node.body.arguments[0],
                            [b.index_constant(1)],
                        )
                    )

        result = _run(build)
        # memory is shared by reference through both isolation boundaries
        assert result.output_map["arg0"][:3] == (_seeds(0)[0], 9.0, _seeds(0)[2])
        assert result.ops_executed == 1 + 1 + 3 + 1

    # ------------------------------------------------------------ functions
    @pytest.mark.parametrize(
        "nested",
        [lambda: ModuleOp.create("inner"), lambda: FuncOp.create("inner")],
        ids=["module", "func"],
    )
    def test_nested_module_or_function_cannot_execute(self, nested):
        def build(b, args):
            b.insert(nested())

        with pytest.raises(InterpreterError, match="cannot be executed as a nested op"):
            _run(build)


# ---------------------------------------------------------------------------
# Golden executions: recorded with the if/elif interpreter this one replaced
# ---------------------------------------------------------------------------

_GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "data" / "interp_golden.json").read_text()
)


class TestGoldenExecutions:
    @pytest.mark.parametrize(
        "handle",
        _shrunk(iter_workloads(kind="kernel")),  # every kernel at n=8, tsteps=2
        ids=lambda handle: handle.definition.name,
    )
    def test_every_stage_boundary_replays_the_recorded_execution(self, handle):
        snapshots = SnapshotObserver()
        Compiler.from_spec(DEFAULT_PIPELINE, observers=[snapshots]).run(
            workload=handle
        )
        boundaries = [("frontend", print_op(as_module(handle)))]
        boundaries += snapshots.snapshots
        assert [stage for stage, _ in boundaries[1:]] == DEFAULT_PIPELINE.split(",")
        replayed = {}
        for stage, text in boundaries:
            for seed in (0, 1):
                result = interpret_module(parse_op(text), seed=seed)
                digest = hashlib.sha256(
                    repr((result.outputs, result.returned)).encode()
                ).hexdigest()
                replayed[f"{handle.definition.name}/{stage}/seed{seed}"] = [
                    digest,
                    result.ops_executed,
                    result.oob_reads,
                    result.oob_writes,
                    result.stream_underflows,
                ]
        recorded = {
            key: row
            for key, row in _GOLDEN["executions"].items()
            if key.split("/")[0] == handle.definition.name
        }
        assert replayed == recorded

    def test_models_are_refused_at_the_recorded_cost(self):
        costs = {}
        for handle in iter_workloads(kind="model"):
            with pytest.raises(InterpreterBudgetError) as refusal:
                interpret_module(as_module(handle))
            assert refusal.value.max_ops == DEFAULT_MAX_OPS
            costs[handle.definition.name] = refusal.value.cost
        assert costs == _GOLDEN["refusals"]
        assert len(_GOLDEN["executions"]) == 12 * 10 * 2


# ---------------------------------------------------------------------------
# Unhappy paths stay InterpreterErrors; budget edges
# ---------------------------------------------------------------------------


class TestUnhappyPaths:
    """``IRSnapshotCache.store`` and the validate stage catch only
    :class:`InterpreterError`: anything else escaping kills a sweep."""

    def test_exp_overflow_is_an_interpreter_error(self):
        def build(b, args):
            b.insert(ExpOp.create(b.constant(1000.0, f64)))

        with pytest.raises(InterpreterError, match="exp overflow"):
            _run(build)

    def test_isolated_region_cannot_use_a_value_from_above(self):
        def build(b, args):
            outside = b.constant(9.0, f64)
            node = b.insert(NodeOp.create(outputs=[args[0]]))
            with b.at_end_of(node.body):
                b.insert(
                    StoreOp.create(
                        outside, node.body.arguments[0], [b.index_constant(0)]
                    )
                )

        with pytest.raises(InterpreterError, match="memref.store uses a value"):
            _run(build)


class TestBudgetEdges:
    def _unknown_trip_loop(self, trips):
        """An scf.for whose upper bound is computed, so the static estimate
        assumes 64 trips whatever ``trips`` is."""
        module, func, b = _empty_design()
        zero, one = b.index_constant(0), b.index_constant(1)
        upper = b.insert(AddIOp.create(b.index_constant(trips), zero))
        loop = b.insert(ScfForOp.create(zero, upper.result(), one))
        with b.at_end_of(loop.body):
            b.insert(StoreOp.create(b.constant(1.0, f64), func.arguments[0], [zero]))
            b.insert(ScfYieldOp.create())
        _finish(b)
        return module

    def test_dynamic_overrun_aborts_past_four_times_the_budget(self):
        module = self._unknown_trip_loop(trips=1_000_000)
        budget = estimate_cost(module)
        assert budget == estimate_cost(self._unknown_trip_loop(trips=3))
        with pytest.raises(InterpreterBudgetError) as overrun:
            interpret_module(module, max_ops=budget)
        assert "dynamic op count exceeded" in str(overrun.value)
        assert overrun.value.max_ops == budget
        assert budget * 4 < overrun.value.cost < budget * 5
        # Within the slack the same loop completes: 2 ops per trip.
        result = interpret_module(self._unknown_trip_loop(trips=100), max_ops=budget)
        assert result.ops_executed == 3 + 1 + 1 + 100 * 2 + 1

    def test_static_refusal_threshold_is_exclusive(self):
        module = as_module(get_workload("2mm").at(n=8))
        cost = estimate_cost(module)
        assert interpret_module(module, max_ops=cost).ops_executed > 0
        with pytest.raises(InterpreterBudgetError) as refusal:
            interpret_module(module, max_ops=cost - 1)
        assert (refusal.value.cost, refusal.value.max_ops) == (cost, cost - 1)
        assert "estimated interpretation cost" in str(refusal.value)


# ---------------------------------------------------------------------------
# The entry: one walk prices the module as estimate_cost does
# ---------------------------------------------------------------------------

#: The kernels of the benchmark's ``validate`` workload.
_VALIDATE_KERNELS = [
    ("2mm", {"n": 8}),
    ("3mm", {"n": 8}),
    ("atax", {"n": 8}),
    ("bicg", {"n": 8}),
    ("mvt", {"n": 8}),
    ("gesummv", {"n": 8}),
    ("symm", {"n": 8}),
    ("syr2k", {"n": 8}),
    ("jacobi-2d", {"n": 8, "tsteps": 2}),
    ("seidel-2d", {"n": 8, "tsteps": 2}),
    ("correlation", {"n": 8}),
]


def _reference_entry_cost(module):
    """What the interpreter's entry charged before it walked once: the
    budget cost of an affine-lowered clone if any linalg op remains, else
    of the module, each by a separate walk."""
    from repro.transforms.linalg_to_affine import lower_linalg_to_affine

    if any(isinstance(op, linalg.LinalgOp) for op in module.walk()):
        module = module.clone()
        lower_linalg_to_affine(module)
    return estimate_cost(module)


def _boundaries(handle):
    """The frontend module and the module after every default-pipeline stage."""
    snapshots = SnapshotObserver()
    Compiler.from_spec(DEFAULT_PIPELINE, observers=[snapshots]).run_stages(workload=handle)
    return [as_module(handle)] + [parse_op(text) for _, text in snapshots.snapshots]


class TestEntry:
    @pytest.mark.parametrize(
        "name, params", _VALIDATE_KERNELS + [("lenet", {})], ids=lambda v: str(v)
    )
    def test_one_walk_prices_and_refuses_as_before(self, name, params):
        """At every default-pipeline boundary the walk's cost is
        ``estimate_cost``'s, and a budget one below what the entry charged
        before is refused with that cost."""
        for module in _boundaries(get_workload(name).at(**params)):
            has_linalg = any(isinstance(op, linalg.LinalgOp) for op in module.walk())
            assert interp._entry_walk(module) == (estimate_cost(module), has_linalg)
            cost = _reference_entry_cost(module)
            with pytest.raises(InterpreterBudgetError) as refusal:
                interpret_module(module, max_ops=cost - 1)
            assert (refusal.value.cost, refusal.value.max_ops) == (cost, cost - 1)
            if cost <= DEFAULT_MAX_OPS:
                assert interpret_module(module, max_ops=cost).ops_executed > 0
            else:
                with pytest.raises(InterpreterBudgetError) as refusal:
                    interpret_module(module)
                assert refusal.value.cost == cost

    def test_the_walk_prices_every_op_kind(self):
        """scf loops (constant and computed bounds), scf.while, a copy, a
        zero-trip affine loop holding linalg, and dataflow regions."""
        module = TestBudgetEdges()._unknown_trip_loop(trips=3)
        assert interp._entry_walk(module) == (estimate_cost(module), False)
        for handle in iter_workloads(kind="model"):
            module = as_module(handle)
            assert interp._entry_walk(module) == (estimate_cost(module), True)
        module, func, b = _empty_design()
        loop = b.insert(AffineForOp.create(0, 0))
        with b.at_end_of(loop.body):
            b.insert(linalg.FillOp.create((2,), 0.0))
        _finish(b)
        assert interp._entry_walk(module) == (estimate_cost(module), True)

    def test_an_execution_walks_the_module_once(self):
        """Neither ``estimate_cost`` nor a generic ``walk`` runs, and every op
        is lowered by one table lookup."""
        module = as_module(get_workload("2mm").at(n=8))
        profiler = cProfile.Profile()
        profiler.runcall(interpret_module, module)
        stats = pstats.Stats(profiler).stats.items()
        called = {function: calls for (_, _, function), (_, calls, *_) in stats}
        assert "estimate_cost" not in called and "walk" not in called
        assert called["_entry_walk"] == 1
        # A class is resolved on first sight only: at most once per class.
        assert called.get("_dispatch", 0) <= len({type(op) for op in module.walk()})


# ---------------------------------------------------------------------------
# Property: lowered subscripts == AffineMap.evaluate
# ---------------------------------------------------------------------------

_NUM_DIMS, _NUM_SYMBOLS = 3, 2
_leaves = st.one_of(
    st.builds(dim, st.integers(0, _NUM_DIMS - 1)),
    st.builds(symbol, st.integers(0, _NUM_SYMBOLS - 1)),
    st.builds(constant, st.integers(-9, 9)),
)
_divisors = st.integers(1, 7)
_exprs = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.builds(lambda a, b: a + b, inner, inner),
        st.builds(lambda a, k: a * k, inner, st.integers(-4, 4)),
        st.builds(lambda a, k: a // k, inner, _divisors),
        st.builds(lambda a, k: a.ceildiv(k), inner, _divisors),
        st.builds(lambda a, k: a % k, inner, _divisors),
    ),
    max_leaves=6,
)


@settings(max_examples=300, deadline=None)
@given(
    results=st.lists(_exprs, min_size=1, max_size=3),
    operands=st.lists(
        st.integers(-64, 64),
        min_size=_NUM_DIMS + _NUM_SYMBOLS,
        max_size=_NUM_DIMS + _NUM_SYMBOLS,
    ),
)
@example(results=[dim(2), dim(0)], operands=[1, 2, 3, 4, 5])  # slot picks
@example(results=[dim(0) * 4 + symbol(1) - 3], operands=[7, 0, 0, 0, -5])
@example(results=[dim(1), (dim(0) + 1) // 2], operands=[-3, 9, 0, 0, 0])
def test_lowered_subscripts_equal_affine_map_evaluate(results, operands):
    affine_map = AffineMap(_NUM_DIMS, _NUM_SYMBOLS, results)
    # Operand k lives in frame slot 2k + 1; the even slots are decoys.
    slots = [2 * k + 1 for k in range(len(operands))]
    frame = [1000] * (2 * len(operands) + 1)
    for slot, value in zip(slots, operands):
        frame[slot] = value
    expected = affine_map.evaluate(operands[:_NUM_DIMS], operands[_NUM_DIMS:])
    rows = interp._decode(affine_map, slots)
    lowered = interp._lower_subscripts(affine_map, slots, rows)(frame)
    _exactly(lowered, [int(value) for value in expected])


# ---------------------------------------------------------------------------
# Property: one load/store == the address arithmetic it must keep
# ---------------------------------------------------------------------------


def _reference_address(self, indices):
    """Flat cell address of ``indices``; None when out of bounds."""
    shape, strides = self.shape, self.strides
    if len(indices) != len(shape):
        return None
    if len(shape) == 2:  # unrolled: most zoo buffers are matrices
        row, column = indices
        if not (0 <= row < shape[0] and 0 <= column < shape[1]):
            return None
        address = self.offset + row * strides[0] + column * strides[1]
    else:
        address = self.offset
        for index, extent, stride in zip(indices, shape, strides):
            if not 0 <= index < extent:
                return None
            address += index * stride
    return address if 0 <= address < len(self.cells) else None


_ACCESS_KINDS = ("affine.load", "affine.store", "memref.load", "memref.store")


def _row_major(shape):
    strides, step = [], 1
    for extent in reversed(shape):
        strides.insert(0, step)
        step *= extent
    return strides


def _access_expr(num_dims):
    """One subscript: a pick, ``c + k*d``, multi-term, ``floordiv``/``mod``
    or a constant (single-term rows with ``k == 0`` are constants too)."""
    constants = st.builds(constant, st.integers(-1, 3))
    if not num_dims:
        return constants
    dims = st.builds(dim, st.integers(0, num_dims - 1))
    return st.one_of(
        dims,
        st.builds(lambda d, k, c: d * k + c, dims, st.integers(-2, 2), st.integers(-2, 2)),
        st.builds(lambda a, b, k: a + b * k, dims, dims, st.integers(1, 3)),
        st.builds(lambda d, q: d // q, dims, st.integers(1, 3)),
        st.builds(lambda d, q: d % q, dims, st.integers(1, 3)),
        constants,
    )


@st.composite
def _access_cases(draw):
    rank = draw(st.integers(0, 3))
    extents = st.lists(st.integers(1, 4), min_size=rank, max_size=rank)
    case = {
        "kind": draw(st.sampled_from(_ACCESS_KINDS)),
        "float": draw(st.booleans()),
        "parent": draw(extents),
        "subview": None,
    }
    if draw(st.booleans()):  # per-dimension bounds hold; cells may run past storage
        small = st.lists(st.integers(0, 3), min_size=rank, max_size=rank)
        strides = st.lists(st.integers(1, 2), min_size=rank, max_size=rank)
        case["subview"] = (draw(small), draw(extents), draw(strides))
    count = draw(st.one_of(st.just(rank), st.integers(0, 4)))  # or the wrong rank
    values = st.integers(-2, 6)
    if case["kind"].startswith("memref."):
        case["operands"] = draw(st.lists(values, min_size=count, max_size=count))
        return case
    form = draw(st.sampled_from(["permutation", "expressions"]))
    if form == "permutation":  # identity included
        case["map"] = AffineMap(count, 0, [dim(p) for p in draw(st.permutations(range(count)))])
    else:
        num_dims = draw(st.integers(0, 3))
        results = draw(st.lists(_access_expr(num_dims), min_size=count, max_size=count))
        case["map"] = AffineMap(num_dims, 0, results)
    num_dims = case["map"].num_dims
    case["operands"] = draw(st.lists(values, min_size=num_dims, max_size=num_dims))
    return case


def _expected_access(case):
    """``(cells, returned, oob_reads, oob_writes)`` by ``_reference_address``."""
    convert = float if case["float"] else int
    count = math.prod(case["parent"])
    cells = [convert(seed_value(0, i)) for i in range(count)]
    shape, strides, offset = case["parent"], _row_major(case["parent"]), 0
    if case["subview"] is not None:
        offsets, shape, steps = case["subview"]
        offset = sum(o * s for o, s in zip(offsets, strides))
        strides = [p * s for p, s in zip(strides, steps)]
    view = types.SimpleNamespace(cells=cells, shape=shape, strides=strides, offset=offset)
    if "map" in case:
        subscripts = [int(v) for v in case["map"].evaluate(case["operands"], ())]
    else:
        subscripts = list(case["operands"])
    address = _reference_address(view, subscripts)
    missed = int(address is None)
    if case["kind"].endswith("load"):
        value = convert(0) if address is None else cells[address]
        return cells, (value,), missed, 0
    if address is not None:
        cells[address] = convert(99)
    return cells, (), 0, missed


@settings(max_examples=400, deadline=None)
@given(case=_access_cases())
@example(case={  # jacobi-2d's stencil row: i - 1 on a row-major matrix
    "kind": "affine.load", "float": True, "parent": [4, 4], "subview": None,
    "map": AffineMap(2, 0, [dim(0) - 1, dim(1)]), "operands": [0, 2],
})
@example(case={  # a 4-wide view at offset 2 of 4 cells: its tail is past storage
    "kind": "memref.store", "float": True, "parent": [4], "subview": ([2], [4], [1]),
    "operands": [3],
})
@example(case={  # one past a view's extent is still inside its parent's storage
    "kind": "memref.load", "float": True, "parent": [4], "subview": ([0], [2], [1]),
    "operands": [2],
})
@example(case={  # the same in the middle dimension of a rank-3 view
    "kind": "affine.load", "float": False, "parent": [2, 3, 2], "subview": ([0, 0, 0], [2, 1, 2], [1, 1, 1]),
    "map": AffineMap(3, 0, [dim(0), dim(1), dim(2)]), "operands": [0, 1, 0],
})
@example(case={  # rank 3, multi-term and mod rows
    "kind": "affine.store", "float": False, "parent": [2, 3, 2], "subview": None,
    "map": AffineMap(2, 0, [dim(0), dim(0) + dim(1) * 2, dim(1) % 2]), "operands": [1, 1],
})
def test_one_access_matches_the_reference_address(case):
    module = ModuleOp.create()
    element = f64 if case["float"] else i32
    func = FuncOp.create("main", [MemRefType(tuple(case["parent"]), element)], top=True)
    module.body.append(func)
    b = Builder.at_end(func.entry_block)
    memory = func.arguments[0]
    if case["subview"] is not None:
        memory = b.insert(SubViewOp.create(memory, *case["subview"])).result()
    operands = [b.index_constant(v) for v in case["operands"]]
    returned = []
    if case["kind"] == "affine.load":
        returned = [b.insert(AffineLoadOp.create(memory, operands, case["map"])).result()]
    elif case["kind"] == "memref.load":
        returned = [b.insert(LoadOp.create(memory, operands)).result()]
    else:
        marker = b.constant(99.0 if case["float"] else 99, element)
        if case["kind"] == "affine.store":
            b.insert(AffineStoreOp.create(marker, memory, operands, case["map"]))
        else:
            b.insert(StoreOp.create(marker, memory, operands))
    b.insert(ReturnOp.create(returned))
    result = interpret_module(module)
    cells, values, oob_reads, oob_writes = _expected_access(case)
    _exactly(result.output_map["arg0"], cells)
    _exactly(result.returned, values)
    assert (result.oob_reads, result.oob_writes) == (oob_reads, oob_writes)
    assert result.ops_executed == len(list(func.entry_block.operations))


# ---------------------------------------------------------------------------
# Counted, not timed: a rank-1/2 single-term access is one call
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "name, params, calls_per_op",
    [
        ("2mm", {"n": 8}, 2.0),
        ("gesummv", {"n": 8}, 3.5),
        ("jacobi-2d", {"n": 8, "tsteps": 2}, 4.5),
    ],
)
def test_frontend_accesses_never_take_the_general_path(name, params, calls_per_op):
    module = as_module(get_workload(name).at(**params))
    profile = cProfile.Profile()
    result = profile.runcall(interpret_module, module)
    stats = pstats.Stats(profile)
    general = sum(
        row[1] for (_, _, function), row in stats.stats.items() if function == "_address"
    )
    assert general == 0
    assert stats.total_calls <= calls_per_op * result.ops_executed
