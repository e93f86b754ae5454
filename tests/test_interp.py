"""Tests of the reference IR interpreter (:mod:`repro.ir.interp`).

Covers seeding determinism, the memory model (stores, out-of-bounds
accounting, copies), loops, streams, the static cost estimate / budget
refusal, and :func:`diff_results` semantics.
The translation-validation layer built on top lives in ``test_tv.py``.
"""

import cProfile
import hashlib
import json
import math
import operator
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
    AffineLoadOp,
    AffineStoreOp,
)
from repro.dialects.affine_map import (
    AffineBinaryExpr,
    AffineMap,
    AffineSymbolExpr,
    constant,
    dim,
)
from repro.dialects.arith import (
    AddFOp,
    DivFOp,
    MaxFOp,
    MulFOp,
    SqrtOp,
    SubFOp,
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
from repro.dialects.memref import AllocOp, CopyOp
from repro.dialects import linalg
from repro.frontend.nn import Linear, Sequential, trace
from repro.ir import (
    Builder,
    ConstantOp,
    FuncOp,
    IndexType,
    MemRefType,
    ModuleOp,
    ReturnOp,
    f32,
    f64,
    i8,
    i32,
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
        three = builder.insert(ConstantOp.create(3, IndexType())).result()
        index = builder.insert(AffineApplyOp.create(AffineMap(1, 0, [dim(0) * 2 + 1]), [three]))
        marker = builder.insert(ConstantOp.create(99.0, f64)).result()
        builder.insert(AffineStoreOp.create(marker, func.arguments[0], [index.result()]))
        _finish(builder)
        cells = interpret_module(module).output_map["arg0"]
        assert cells[7] == 99.0
        assert cells[0] == float(seed_value(0, 0))

    def test_affine_loop_writes_every_cell(self):
        module, func, builder = _empty_design()
        loop = builder.insert(AffineForOp.create(0, SIZE))
        in_loop = Builder.at_end(loop.body)
        marker = in_loop.insert(ConstantOp.create(42.0, f64)).result()
        in_loop.insert(
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
        marker = builder.insert(ConstantOp.create(1.0, f64)).result()
        past_end = builder.insert(ConstantOp.create(SIZE + 5, IndexType())).result()
        builder.insert(AffineStoreOp.create(marker, func.arguments[0], [past_end]))
        _finish(builder)
        result = interpret_module(module)
        assert result.oob_writes == 1
        assert result.output_map["arg0"] == tuple(
            float(seed_value(0, i)) for i in range(SIZE)
        )

    def test_stream_underflow_reads_zero(self):
        module, _, builder = _empty_design()
        stream = builder.insert(StreamOp.create(f32, depth=4))
        value = builder.insert(ConstantOp.create(5.0, f32)).result()
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
            in_loop = Builder.at_end(loop.body)
            marker = in_loop.insert(ConstantOp.create(1.0, f64)).result()
            zero = in_loop.insert(ConstantOp.create(0, IndexType())).result()
            in_loop.insert(AffineStoreOp.create(marker, func.arguments[0], [zero]))
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

    # --------------------------------------------------------------- memref
    def test_memref_load_in_and_out_of_bounds(self):
        def build(b, args):
            loads = [
                b.insert(
                    AffineLoadOp.create(
                        memref, [b.insert(ConstantOp.create(at, IndexType())).result()]
                    )
                )
                for memref, at in (
                    (args[0], 3), (args[0], SIZE), (args[0], -1),
                    (args[1], 2), (args[1], 4),
                )
            ]
            # rank-mismatched subscripts are out of bounds too
            loads.append(b.insert(AffineLoadOp.create(args[0], [])))
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

    def test_memref_copy_between_unequal_allocations_copies_the_prefix(self):
        """A copy between whole buffers moves the shorter one's length of
        row-major cells, so it never reads or writes out of bounds."""

        def build(b, args):
            wide = b.insert(AllocOp.create(MemRefType((6,), f64))).result()
            narrow = b.insert(AllocOp.create(MemRefType((2,), f64))).result()
            b.insert(CopyOp.create(args[0], wide))  # 4 cells into 6
            b.insert(CopyOp.create(wide, narrow))  # 6 cells into 2
            return [wide, narrow]

        result = _run(build, [MemRefType((4,), f64)])
        _exactly(result.returned[0], _seeds(0, 4) + [0.0, 0.0])
        _exactly(result.returned[1], _seeds(0, 2))
        assert (result.oob_reads, result.oob_writes) == (0, 0)
        # two allocs + each copy one op per target element + return
        assert result.ops_executed == 2 + 6 + 2 + 1

    def test_alloc_is_zeroed(self):
        def build(b, args):
            scratch = b.insert(AllocOp.create(MemRefType((2, 2), f64)))
            counts = b.insert(AllocOp.create(MemRefType((3,), i32)))
            return [scratch.result(), counts.result()]

        result = _run(build)
        _exactly(result.returned[0], (0.0, 0.0, 0.0, 0.0))
        _exactly(result.returned[1], (0, 0, 0))
        assert result.ops_executed == 2 + 1

    # ---------------------------------------------------------------- arith
    def test_sqrt(self):
        def build(b, args):
            nine = b.insert(ConstantOp.create(9.0, f64)).result()
            return [b.insert(SqrtOp.create(nine)).result()]

        _exactly(_run(build).returned, (3.0,))

    def test_float_max_and_division(self):
        def build(b, args):
            seven = b.insert(ConstantOp.create(7.0, f64)).result()
            minus_two = b.insert(ConstantOp.create(-2.0, f64)).result()
            return [
                b.insert(kind.create(seven, minus_two)).result()
                for kind in (MaxFOp, DivFOp, SubFOp, MulFOp)
            ]

        _exactly(_run(build).returned, (7.0, -3.5, 9.0, -14.0))

    def test_float_division_by_zero_is_an_interpreter_error(self):
        def build(b, args):
            one = b.insert(ConstantOp.create(1.0, f64)).result()
            zero = b.insert(ConstantOp.create(0.0, f64)).result()
            b.insert(DivFOp.create(one, zero))

        with pytest.raises(InterpreterError, match="float division by zero"):
            _run(build)

    def test_sqrt_of_a_negative_is_an_interpreter_error(self):
        def build(b, args):
            b.insert(SqrtOp.create(b.insert(ConstantOp.create(-4.0, f64)).result()))

        with pytest.raises(InterpreterError, match=r"sqrt of negative value -4\.0"):
            _run(build)

    # ------------------------------------------------------------- dataflow
    def test_task_results_come_from_its_terminator(self):
        def build(b, args):
            dispatch = b.insert(DispatchOp.create())
            in_dispatch = Builder.at_end(dispatch.body)
            task = in_dispatch.insert(TaskOp.create([f64]))
            in_task = Builder.at_end(task.body)
            three = in_task.insert(ConstantOp.create(3.0, f64)).result()
            in_task.insert(HidaYieldOp.create([three]))
            in_dispatch.insert(HidaYieldOp.create())
            return [task.result()]

        result = _run(build)
        _exactly(result.returned, (3.0,))
        assert result.ops_executed == 1 + 1 + 1 + 1

    def test_isolated_regions_bind_operands_to_block_arguments(self):
        def build(b, args):
            schedule = b.insert(ScheduleOp.create([args[0]]))
            in_schedule = Builder.at_end(schedule.body)
            node = in_schedule.insert(NodeOp.create(outputs=[schedule.body.arguments[0]]))
            in_node = Builder.at_end(node.body)
            in_node.insert(
                AffineStoreOp.create(
                    in_node.insert(ConstantOp.create(9.0, f64)).result(),
                    node.body.arguments[0],
                    [in_node.insert(ConstantOp.create(1, IndexType())).result()],
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
            module = parse_op(text)
            for seed in (0, 1):
                result = interpret_module(module, seed=seed)
                assert result.ops_executed <= estimate_cost(module)
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

    def test_isolated_region_cannot_use_a_value_from_above(self):
        def build(b, args):
            outside = b.insert(ConstantOp.create(9.0, f64)).result()
            node = b.insert(NodeOp.create(outputs=[args[0]]))
            in_node = Builder.at_end(node.body)
            zero = in_node.insert(ConstantOp.create(0, IndexType())).result()
            in_node.insert(AffineStoreOp.create(outside, node.body.arguments[0], [zero]))

        with pytest.raises(InterpreterError, match="affine.store uses a value"):
            _run(build)


def _copy_loop(trips, width):
    """A loop copying a 1-cell buffer into a ``width``-cell one ``trips``
    times: each copy writes ``width`` cells."""
    module, func, b = _empty_design(arg_shapes=((1,), (width,)))
    loop = b.insert(AffineForOp.create(0, trips))
    in_loop = Builder.at_end(loop.body)
    in_loop.insert(CopyOp.create(*func.arguments))
    _finish(b)
    return module


class TestBudgetEdges:
    def test_a_copy_is_priced_by_the_cells_it_writes(self):
        """The estimate charges a copy its target's cells, as the run does,
        so the static budget alone bounds the run."""
        module = _copy_loop(trips=1000, width=16)
        budget = estimate_cost(module)
        assert budget > estimate_cost(_copy_loop(trips=1000, width=1))
        result = interpret_module(module, max_ops=budget)
        assert result.ops_executed == 2 + 1000 * 16  # loop and return; 16 per trip
        with pytest.raises(InterpreterBudgetError) as refusal:
            interpret_module(module, max_ops=budget - 1)
        assert (refusal.value.cost, refusal.value.max_ops) == (budget, budget - 1)

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
        """A copy in an affine loop, the models' linalg ops, and a zero-trip
        affine loop holding linalg."""
        module = _copy_loop(trips=3, width=4)
        assert interp._entry_walk(module) == (estimate_cost(module), False)
        for handle in iter_workloads(kind="model"):
            module = as_module(handle)
            assert interp._entry_walk(module) == (estimate_cost(module), True)
        module, func, b = _empty_design()
        loop = b.insert(AffineForOp.create(0, 0))
        in_loop = Builder.at_end(loop.body)
        in_loop.insert(linalg.FillOp.create((2,), 0.0))
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
    st.builds(AffineSymbolExpr, st.integers(0, _NUM_SYMBOLS - 1)),
    st.builds(constant, st.integers(-9, 9)),
)
_divisors = st.integers(1, 7)
_exprs = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.builds(lambda a, b: a + b, inner, inner),
        st.builds(lambda a, k: a * k, inner, st.integers(-4, 4)),
        st.builds(lambda a, k: a // k, inner, _divisors),
        st.builds(lambda a, k: AffineBinaryExpr("ceildiv", a, constant(k)), inner, _divisors),
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
@example(results=[dim(0) * 4 + AffineSymbolExpr(1) - 3], operands=[7, 0, 0, 0, -5])
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
        return row * strides[0] + column * strides[1]
    address = 0
    for index, extent, stride in zip(indices, shape, strides):
        if not 0 <= index < extent:
            return None
        address += index * stride
    return address


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
        "kind": draw(st.sampled_from(("affine.load", "affine.store"))),
        "float": draw(st.booleans()),
        "shape": draw(extents),
    }
    count = draw(st.one_of(st.just(rank), st.integers(0, 4)))  # or the wrong rank
    values = st.integers(-2, 6)
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
    cells = [convert(seed_value(0, i)) for i in range(math.prod(case["shape"]))]
    buffer = types.SimpleNamespace(shape=case["shape"], strides=_row_major(case["shape"]))
    subscripts = [int(v) for v in case["map"].evaluate(case["operands"], ())]
    address = _reference_address(buffer, subscripts)
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
    "kind": "affine.load", "float": True, "shape": [4, 4],
    "map": AffineMap(2, 0, [dim(0) - 1, dim(1)]), "operands": [0, 2],
})
@example(case={  # one past the middle extent of a rank-3 buffer is inside its storage
    "kind": "affine.load", "float": False, "shape": [2, 1, 2],
    "map": AffineMap(3, 0, [dim(0), dim(1), dim(2)]), "operands": [0, 1, 0],
})
@example(case={  # rank 3, multi-term and mod rows
    "kind": "affine.store", "float": False, "shape": [2, 3, 2],
    "map": AffineMap(2, 0, [dim(0), dim(0) + dim(1) * 2, dim(1) % 2]), "operands": [1, 1],
})
def test_one_access_matches_the_reference_address(case):
    module = ModuleOp.create()
    element = f64 if case["float"] else i32
    func = FuncOp.create("main", [MemRefType(tuple(case["shape"]), element)], top=True)
    module.body.append(func)
    b = Builder.at_end(func.entry_block)
    memory = func.arguments[0]
    operands = [b.insert(ConstantOp.create(v, IndexType())).result() for v in case["operands"]]
    returned = []
    if case["kind"] == "affine.load":
        returned = [b.insert(AffineLoadOp.create(memory, operands, case["map"])).result()]
    else:
        marker = b.insert(ConstantOp.create(99.0 if case["float"] else 99, element)).result()
        b.insert(AffineStoreOp.create(marker, memory, operands, case["map"]))
    b.insert(ReturnOp.create(returned))
    result = interpret_module(module)
    cells, values, oob_reads, oob_writes = _expected_access(case)
    _exactly(result.output_map["arg0"], cells)
    _exactly(result.returned, values)
    assert (result.oob_reads, result.oob_writes) == (oob_reads, oob_writes)
    assert result.ops_executed == len(list(func.entry_block.operations))


# ---------------------------------------------------------------------------
# Property: accesses in constant-bound nests, proven in range or checked
# ---------------------------------------------------------------------------


@st.composite
def _nest_cases(draw):
    """A 1-3 deep ``affine.for`` nest (empty loops included) around one load
    or store of a rank-1-3 buffer, each subscript ``c + sum(k * iv)`` over a
    drawn operand list (repeated IVs, negative ``k``, some out of range).
    ``static`` set: the nest runs in a ``hida.node`` whose block argument is
    typed with that shape, not the operand's."""
    depth, rank = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    loops = []
    for _ in range(depth):
        low = draw(st.integers(-1, 2))
        loops.append((low, low + draw(st.integers(-1, 4)), draw(st.integers(1, 3))))
    shape = draw(st.lists(st.integers(1, 4), min_size=rank, max_size=rank))
    operands = draw(st.lists(st.integers(0, depth - 1), min_size=1, max_size=3))
    term = st.tuples(st.integers(0, len(operands) - 1), st.integers(-2, 2))
    rows = draw(st.lists(
        st.tuples(st.integers(-1, 2), st.lists(term, max_size=3)), min_size=rank, max_size=rank
    ))
    static = None
    if draw(st.booleans()):
        static = draw(st.lists(st.integers(1, 5), min_size=rank, max_size=rank))
    return {
        "kind": draw(st.sampled_from(("affine.load", "affine.store"))),
        "float": draw(st.booleans()),
        "loops": loops,
        "shape": shape,
        "operands": operands,
        "rows": rows,
        "static": static,
    }


def _build_nest(case):
    """``main(arg0, arg1: memref<1>)``: a load stores its value to ``arg1[0]``,
    which is loaded and returned after the nest; a store writes 99."""
    element = f64 if case["float"] else i32
    module = ModuleOp.create()
    func = FuncOp.create(
        "main",
        [MemRefType(tuple(case["shape"]), element), MemRefType((1,), element)],
        top=True,
    )
    module.body.append(func)
    b = Builder.at_end(func.entry_block)
    memory, last = func.arguments
    cell = AffineMap(0, 0, [constant(0)])
    if case["static"] is not None:
        node = b.insert(NodeOp.create(inouts=[memory, last]))
        memory, last = node.body.arguments
        memory.type = MemRefType(tuple(case["static"]), element)
        b = Builder.at_end(node.body)
    marker = b.insert(ConstantOp.create(99.0 if case["float"] else 99, element)).result()
    ivs = []
    for low, high, step in case["loops"]:
        loop = b.insert(AffineForOp.create(low, high, step))
        ivs.append(loop.induction_variable)
        b = Builder.at_end(loop.body)
    exprs = []
    for const, terms in case["rows"]:
        expr = constant(const)
        for position, k in terms:
            expr = expr + dim(position) * k
        exprs.append(expr)
    access_map = AffineMap(len(case["operands"]), 0, exprs)
    operands = [ivs[i] for i in case["operands"]]
    if case["kind"] == "affine.load":
        value = b.insert(AffineLoadOp.create(memory, operands, access_map)).result()
        b.insert(AffineStoreOp.create(value, last, [], cell))
    else:
        b.insert(AffineStoreOp.create(marker, memory, operands, access_map))
    b = Builder.at_end(func.entry_block)
    returned = []
    if case["kind"] == "affine.load":
        returned = [b.insert(AffineLoadOp.create(func.arguments[1], [], cell)).result()]
    b.insert(ReturnOp.create(returned))
    return module


def _expected_nest(case):
    """``(arg0, arg1, returned, oob_reads, oob_writes, ops_executed)``: the
    nest run in Python, each access addressed by ``_reference_address`` over
    the operand's shape, each block charged its op count per entry."""
    convert = float if case["float"] else int
    load = case["kind"] == "affine.load"
    cells = [convert(seed_value(0, i)) for i in range(math.prod(case["shape"]))]
    last = [convert(seed_value(1, 0))]
    buffer = types.SimpleNamespace(shape=case["shape"], strides=_row_major(case["shape"]))
    counts = {"reads": 0, "writes": 0}
    loops, innermost = case["loops"], 2 if load else 1
    # Entry block: the node or (marker, outer loop); the final load; return.
    ops = (1 if case["static"] is not None else 2) + int(load) + 1
    if case["static"] is not None:
        ops += 2  # the node's body: marker and outer loop
    stack = [(0, [])]
    while stack:
        level, ivs = stack.pop()
        if level == len(loops):
            values = [ivs[i] for i in case["operands"]]
            subscripts = [
                const + sum(k * values[p] for p, k in terms) for const, terms in case["rows"]
            ]
            address = _reference_address(buffer, subscripts)
            if load:
                counts["reads"] += address is None
                last[0] = convert(0) if address is None else cells[address]
            elif address is None:
                counts["writes"] += 1
            else:
                cells[address] = convert(99)
            continue
        trips = list(range(*loops[level]))
        ops += len(trips) * (innermost if level == len(loops) - 1 else 1)
        stack.extend((level + 1, ivs + [value]) for value in reversed(trips))
    returned = (last[0],) if load else ()
    return cells, last, returned, counts["reads"], counts["writes"], ops


@settings(max_examples=400, deadline=None)
@given(case=_nest_cases())
@example(case={  # proven: a 3x4 buffer walked row-major, one loop per dimension
    "kind": "affine.load", "float": True, "loops": [(0, 3, 1), (0, 4, 1)], "shape": [3, 4],
    "operands": [0, 1], "rows": [(0, [(0, 1)]), (0, [(1, 1)])], "static": None,
})
@example(case={  # proven: a negative coefficient and a repeated IV, A[3 - i][i + i]
    "kind": "affine.store", "float": False, "loops": [(0, 2, 1)], "shape": [4, 4],
    "operands": [0, 0], "rows": [(3, [(0, -1)]), (0, [(0, 1), (1, 1)])], "static": None,
})
@example(case={  # a negative coefficient that leaves the buffer: A[1 - i], i in 0..2
    "kind": "affine.load", "float": False, "loops": [(0, 3, 1)], "shape": [2],
    "operands": [0], "rows": [(1, [(0, -1)])], "static": None,
})
@example(case={  # in range of the node's static 4x4, past the operand's 2x2 buffer
    "kind": "affine.load", "float": True, "loops": [(0, 4, 1), (0, 4, 2)], "shape": [2, 2],
    "operands": [0, 1], "rows": [(0, [(0, 1)]), (0, [(1, 1)])], "static": [4, 4],
})
@example(case={  # an empty loop around an access that would leave the buffer
    "kind": "affine.store", "float": True, "loops": [(2, 1, 1)], "shape": [2],
    "operands": [0], "rows": [(5, [(0, 2)])], "static": None,
})
def test_nested_accesses_match_the_reference_address(case):
    module = _build_nest(case)
    result = interpret_module(module)
    cells, last, returned, oob_reads, oob_writes, ops = _expected_nest(case)
    _exactly(result.output_map["arg0"], cells)
    _exactly(result.output_map["arg1"], last)
    _exactly(result.returned, returned)
    assert (result.oob_reads, result.oob_writes) == (oob_reads, oob_writes)
    assert result.ops_executed == ops
    assert result.ops_executed <= estimate_cost(module)


# ---------------------------------------------------------------------------
# Property: inline arithmetic == the builtin it computes; seeded buffers
# ---------------------------------------------------------------------------


def _builtin(kind, x, y):
    """What ``kind`` computes in Python builtins: its value, or the class of
    the exception it raises."""
    if (kind is DivFOp and y == 0) or (kind is SqrtOp and x < 0):
        return InterpreterError
    function = {
        AddFOp: operator.add, SubFOp: operator.sub, MulFOp: operator.mul, MaxFOp: max,
        DivFOp: operator.truediv, SqrtOp: math.sqrt,
    }[kind]
    try:
        return function(x) if kind is SqrtOp else function(x, y)
    except OverflowError:  # a float overflow, or an int too large for a float
        return OverflowError


_scalars = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 1.0, -1.0]),
    st.integers(-10**6, 10**6),
    st.sampled_from([0, 1, -1, 10**400]),
)


@settings(max_examples=600, deadline=None)
@given(
    kind=st.sampled_from([AddFOp, SubFOp, MulFOp, MaxFOp, DivFOp, SqrtOp]),
    x=_scalars,
    y=_scalars,
)
@example(kind=MaxFOp, x=0.0, y=-0.0)
@example(kind=MaxFOp, x=math.nan, y=1.0)
def test_arith_steps_equal_the_builtins_bitwise(kind, x, y):
    """Compared by ``repr``, so -0.0 vs 0.0 and NaN count; ints stay ints."""

    def build(b, args):
        operands = [
            b.insert(ConstantOp.create(v, f64 if isinstance(v, float) else i32)).result()
            for v in (x, y)
        ]
        unary = kind is SqrtOp
        return [b.insert(kind.create(*operands[: 1 if unary else 2])).result()]

    expected = _builtin(kind, x, y)
    if expected in (InterpreterError, OverflowError):
        with pytest.raises(expected):
            _run(build)
    else:
        assert repr(_run(build).returned) == repr((expected,))


@settings(max_examples=200, deadline=None)
@given(
    shape=st.lists(st.integers(0, 13), min_size=0, max_size=3),
    element=st.sampled_from([f32, f64, i32, i8]),
    slot=st.integers(0, 2000),
    seed=st.integers(-50, 50),
)
def test_allocate_holds_seed_value(shape, element, slot, seed):
    memory_type = MemRefType(tuple(shape), element)
    convert = float if element in (f32, f64) else int
    expected = [convert(seed_value(slot, i, seed)) for i in range(math.prod(shape))]
    _exactly(interp.MemoryRef.allocate(memory_type, slot, seed).cells, expected)


# ---------------------------------------------------------------------------
# Counted, not timed: an access is one call, proven in range at lowering
# ---------------------------------------------------------------------------


def _interp_calls(module):
    """``(result, {interp.py function name: calls}, all calls)`` of one execution."""
    profile = cProfile.Profile()
    result = profile.runcall(interpret_module, module)
    stats, calls = pstats.Stats(profile), {}
    for (filename, _, function), row in stats.stats.items():
        if filename.endswith("interp.py"):
            calls[function] = calls.get(function, 0) + row[1]
    return result, calls, stats.total_calls


@pytest.mark.parametrize(
    "name, params, calls_per_op",
    [
        ("2mm", {"n": 8}, 1.3),
        ("gesummv", {"n": 8}, 1.9),
        ("jacobi-2d", {"n": 8, "tsteps": 2}, 3.0),
    ],
)
def test_frontend_accesses_never_take_the_general_path(name, params, calls_per_op):
    module = as_module(get_workload(name).at(**params))
    result, calls, total_calls = _interp_calls(module)
    assert calls.get("_address", 0) == 0
    assert total_calls <= calls_per_op * result.ops_executed


def _dynamic_accesses(module):
    """Loads and stores executed: each access times its loops' trip counts."""
    count = 0
    for op in module.walk():
        if isinstance(op, (AffineLoadOp, AffineStoreOp)):
            trips, parent = 1, op.parent_op
            while parent is not None:
                if isinstance(parent, AffineForOp):
                    trips *= parent.trip_count
                parent = parent.parent_op
            count += trips
    return count


@pytest.mark.parametrize(
    "handle",
    _shrunk(iter_workloads(kind="kernel")),
    ids=lambda handle: handle.definition.name,
)
def test_kernel_accesses_are_proven_in_range(handle):
    """In the frontend and the final ``DEFAULT_PIPELINE`` module of every
    kernel, each dynamic access takes the proven step and none the checked
    one: no kernel reads or writes out of bounds."""
    boundaries = _boundaries(handle)
    for module in (boundaries[0], boundaries[-1]):
        result, calls, _ = _interp_calls(module)
        assert calls.get("checked", 0) == 0
        assert calls.get("proven", 0) == _dynamic_accesses(module) > 0
        assert (result.oob_reads, result.oob_writes) == (0, 0)
