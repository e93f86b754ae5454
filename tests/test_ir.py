"""Tests for the IR kernel: values, operations, regions, builder, printer,
verifier and the pass infrastructure."""

import ast
import gc
import pathlib
import sys
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.driver import DEFAULT_PIPELINE, Compiler, PipelineObserver
from repro.compiler.stages import CompilationState
from repro.estimation.platform import get_platform
from repro.workloads import get_workload, iter_workloads, list_workloads
from repro.ir.core import _OPERATION_REGISTRY
from repro.ir import (
    Block,
    Builder,
    ConstantOp,
    FuncOp,
    FunctionType,
    InsertionPoint,
    IndexType,
    IRError,
    IntegerType,
    MemRefType,
    ModuleOp,
    Region,
    ReturnOp,
    TensorType,
    VerificationError,
    create_operation,
    f32,
    i32,
    print_op,
    verify,
)
from repro.dialects.arith import AddFOp
from repro.dialects.affine import AffineForOp, AffineLoadOp, AffineStoreOp
from repro.analysis.recurrence import pipeline_rec_mii
from ir_strategies import _op_trees


def build_simple_func(name="foo", shape=(8, 8)):
    module = ModuleOp.create("m")
    func = FuncOp.create(
        name,
        input_types=[MemRefType(shape, f32), MemRefType(shape, f32)],
        top=True,
    )
    module.append(func)
    return module, func


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


class TestTypes:
    def test_integer_type_str_and_width(self):
        assert str(IntegerType(8)) == "i8"
        assert IntegerType(8).bitwidth == 8

    def test_integer_type_rejects_nonpositive_width(self):
        with pytest.raises(ValueError):
            IntegerType(0)

    def test_tensor_type_shape_and_elements(self):
        ty = TensorType((2, 3, 4), f32)
        assert ty.num_elements == 24

    def test_memref_type_memory_space(self):
        assert MemRefType((4, 4), f32).is_on_chip
        assert not MemRefType((4, 4), f32, "dram").is_on_chip

    def test_types_are_hashable_value_objects(self):
        assert MemRefType((4,), f32) == MemRefType((4,), f32)
        assert len({MemRefType((4,), f32), MemRefType((4,), f32)}) == 1

    def test_function_type_str(self):
        ty = FunctionType([i32], [f32])
        assert "i32" in str(ty) and "f32" in str(ty)

    def test_negative_shape_rejected(self):
        with pytest.raises(ValueError):
            TensorType((-1, 4), f32)


# ---------------------------------------------------------------------------
# Operations, values and use lists
# ---------------------------------------------------------------------------


class TestOperations:
    def test_create_operation_uses_registry(self):
        op = create_operation("arith.constant", attributes={"value": 1})
        assert isinstance(op, ConstantOp)

    def test_results_track_uses(self):
        const = ConstantOp.create(1.0, f32)
        add = AddFOp.create(const.result(), const.result())
        assert len(const.result()._uses) == 2
        assert add in const.result().users

    def test_replace_all_uses_with(self):
        a = ConstantOp.create(1.0, f32)
        b = ConstantOp.create(2.0, f32)
        add = AddFOp.create(a.result(), a.result())
        a.result().replace_all_uses_with(b.result())
        assert add.operand(0) is b.result()
        assert not a.result().has_uses

    def test_replace_uses_if_predicate(self):
        a = ConstantOp.create(1.0, f32)
        b = ConstantOp.create(2.0, f32)
        add1 = AddFOp.create(a.result(), a.result())
        add2 = AddFOp.create(a.result(), a.result())
        a.result().replace_uses_if(b.result(), lambda user: user is add1)
        assert add1.operand(0) is b.result()
        assert add2.operand(0) is a.result()

    def test_erase_with_uses_raises(self):
        a = ConstantOp.create(1.0, f32)
        AddFOp.create(a.result(), a.result())
        with pytest.raises(IRError):
            a.erase()

    def test_erase_without_uses(self):
        module, func = build_simple_func()
        builder = Builder.at_end(func.entry_block)
        const = builder.insert(ConstantOp.create(1.0, f32))
        const.erase()
        assert const not in func.entry_block.operations

    def test_set_operand_updates_use_lists(self):
        a = ConstantOp.create(1.0, f32)
        b = ConstantOp.create(2.0, f32)
        add = AddFOp.create(a.result(), a.result())
        add.set_operand(1, b.result())
        assert len(a.result()._uses) == 1
        assert len(b.result()._uses) == 1

    def test_move_before_and_after(self):
        module, func = build_simple_func()
        builder = Builder.at_end(func.entry_block)
        a = builder.insert(ConstantOp.create(1.0, f32))
        b = builder.insert(ConstantOp.create(2.0, f32))
        InsertionPoint.before(a).insert(b)  # inserting detaches first
        assert func.entry_block.operations == [b, a]
        func.entry_block.append(b)
        assert func.entry_block.operations == [a, b]

    def test_attributes_accessors(self):
        op = ConstantOp.create(5, i32)
        op.set_attr("note", "hello")
        assert op.get_attr("note") == "hello"
        assert op.has_attr("note")
        assert op.get_attr("missing", 7) == 7

    def test_is_ancestor_of(self):
        loop = AffineForOp.create(0, 4)
        inner = Builder.at_end(loop.body).insert(ConstantOp.create(1.0, f32))
        assert loop.is_ancestor_of(inner)
        assert loop.is_ancestor_of(loop)
        assert not inner.is_ancestor_of(loop)

    def test_walk_orders(self):
        loop = AffineForOp.create(0, 4)
        builder = Builder.at_end(loop.body)
        inner = builder.insert(AffineForOp.create(0, 2))
        pre = list(loop.walk(order="pre"))
        post = list(loop.walk(order="post"))
        assert pre[0] is loop
        assert post[-1] is loop
        assert inner in pre and inner in post

    def test_walk_ops_filters_by_class(self):
        loop = AffineForOp.create(0, 4)
        Builder.at_end(loop.body).insert(AffineForOp.create(0, 2))
        assert len(loop.walk_ops(AffineForOp)) == 2

    def test_clone_remaps_nested_values(self):
        module, func = build_simple_func()
        builder = Builder.at_end(func.entry_block)
        loop = builder.insert(AffineForOp.create(0, 8, name_hint="i"))
        in_loop = Builder.at_end(loop.body)
        load = in_loop.insert(
            AffineLoadOp.create(func.arguments[0], [loop.induction_variable])
        )
        in_loop.insert(
            AffineStoreOp.create(
                load.result(), func.arguments[1], [loop.induction_variable]
            )
        )
        clone = loop.clone()
        cloned_load = [op for op in clone.walk() if isinstance(op, AffineLoadOp)][0]
        assert cloned_load is not load
        # The cloned load must index with the *cloned* loop's IV.
        assert cloned_load.operands[1] is clone.induction_variable

    def test_clone_preserves_attributes_independently(self):
        loop = AffineForOp.create(0, 8)
        loop.set_unroll_factor(4)
        clone = loop.clone()
        clone.set_unroll_factor(2)
        assert loop.unroll_factor == 4
        assert clone.unroll_factor == 2

    def test_block_argument_management(self):
        block = Block(arg_types=[f32])
        arg = block.add_argument(i32, name_hint="x")
        assert arg.index == 1
        assert len(block.arguments) == 2

    def test_region_entry_block_autocreated(self):
        region = Region()
        assert region.empty
        entry = region.entry_block
        assert not region.empty
        assert region.entry_block is entry


def _copy_nest(func):
    """Append a two-deep loop nest copying ``func``'s first argument into its
    second, then one load of the first argument; returns ``(outer loop, that
    load)``."""
    src, dst = func.arguments
    builder = Builder.at_end(func.entry_block)
    outer = builder.insert(AffineForOp.create(0, 8, name_hint="i"))
    in_outer = Builder.at_end(outer.body)
    inner = in_outer.insert(AffineForOp.create(0, 8, name_hint="j"))
    in_inner = Builder.at_end(inner.body)
    ivs = [outer.induction_variable, inner.induction_variable]
    load = in_inner.insert(AffineLoadOp.create(src, ivs))
    value = in_inner.insert(AddFOp.create(load.result(), load.result()))
    in_inner.insert(AffineStoreOp.create(value.result(), dst, ivs))
    zero = builder.insert(ConstantOp.create(0, IndexType())).result()
    after = builder.insert(AffineLoadOp.create(src, [zero, zero]))
    return outer, after


def _nested_structure(root):
    """Every op strictly inside ``root``, and every block and region of the
    subtree."""
    ops = [op for op in root.walk() if op is not root]
    regions = [region for op in root.walk() for region in op.regions]
    blocks = [block for region in regions for block in region.blocks]
    return ops, blocks, regions


def _block_dies_by_refcount(discard):
    """With the collector off, build a module holding a loop nest, derive
    the outer loop's rec-MII (the dependence analysis must keep no
    reference into the nest), ``discard(module, outer loop)`` and delete
    every name: does the inner loop's block die?"""
    enabled = gc.isenabled()
    gc.disable()
    try:
        module, func = build_simple_func()
        outer, after = _copy_nest(func)
        pipeline_rec_mii(outer)
        block = weakref.ref(outer.body.operations[0].body)
        discard(module, outer)
        del module, func, outer, after
        return block() is None
    finally:
        if enabled:
            gc.enable()


class TestDropAllReferences:
    def test_outside_values_lose_exactly_the_subtrees_uses(self):
        module, func = build_simple_func()
        src, dst = func.arguments
        outer, after = _copy_nest(func)
        assert src.uses == [(outer.walk_ops(AffineLoadOp)[0], 0), (after, 0)]
        outer.drop_all_references()
        assert src.uses == [(after, 0)]
        assert dst.uses == []
        assert after.operands[0] is src

    def test_every_nested_op_block_and_region_ends_empty_and_unlinked(self):
        module, func = build_simple_func()
        outer, _ = _copy_nest(func)
        ops, blocks, regions = _nested_structure(outer)
        assert len(ops) == 4 and len(blocks) == len(regions) == 2
        outer.drop_all_references()
        for op in [outer, *ops]:
            assert (op.operands, op.results, op.regions) == ([], [], []), op.name
        assert all(op.parent is None for op in ops)
        assert outer.parent is func.entry_block
        for block in blocks:
            assert (block.operations, block.arguments, block.parent) == ([], [], None)
        for region in regions:
            assert (region.blocks, region.parent) == ([], None)

    def test_a_dropped_subtree_frees_by_refcount(self):
        assert _block_dies_by_refcount(lambda module, loop: module.drop_all_references())

    def test_an_erased_op_frees_by_refcount(self):
        assert _block_dies_by_refcount(lambda module, loop: loop.erase())

    def test_erase_with_live_uses_raises_and_leaves_the_op_intact(self):
        module, func = build_simple_func()
        builder = Builder.at_end(func.entry_block)
        const = builder.insert(ConstantOp.create(1.0, f32))
        add = builder.insert(AddFOp.create(const.result(), const.result()))
        outer, _ = _copy_nest(func)
        store = outer.walk_ops(AffineStoreOp)[0]
        store.set_operand(0, add.result())
        text = print_op(module)
        for op in (const, outer.walk_ops(AffineLoadOp)[0]):
            parent, results = op.parent, op.results
            with pytest.raises(IRError):
                op.erase()
            assert op.parent is parent and op in parent.operations
            assert op.results == results and results[0].has_uses
        with pytest.raises(IRError):
            add.erase()
        assert print_op(module) == text
        verify(module)


# ---------------------------------------------------------------------------
# Builder
# ---------------------------------------------------------------------------


class TestBuilder:
    def test_insertion_point_before_after(self):
        module, func = build_simple_func()
        builder = Builder.at_end(func.entry_block)
        a = builder.insert(ConstantOp.create(1.0, f32))
        c = builder.insert(ConstantOp.create(3.0, f32))
        b = InsertionPoint.before(c).insert(ConstantOp.create(2.0, f32))
        ops = func.entry_block.operations
        assert ops.index(a) < ops.index(b) < ops.index(c)

    def test_builder_nested_context(self):
        module, func = build_simple_func()
        builder = Builder.at_end(func.entry_block)
        loop = builder.insert(AffineForOp.create(0, 4))
        in_loop = Builder.at_end(loop.body)
        in_loop.insert(ConstantOp.create(1.0, f32))
        after = builder.insert(ConstantOp.create(2.0, f32))
        assert after.parent is func.entry_block
        assert len(loop.body.operations) == 1

    def test_builder_without_ip_raises(self):
        with pytest.raises(ValueError):
            Builder().insert(ConstantOp.create(1.0, f32))


# ---------------------------------------------------------------------------
# Module / function ops
# ---------------------------------------------------------------------------


class TestBuiltinOps:
    def test_duplicate_function_names_fail_verification(self):
        module, _ = build_simple_func("dup")
        module.append(FuncOp.create("dup"))
        from repro.ir.verifier import VerificationError

        with pytest.raises(VerificationError):
            verify(module)

    def test_func_top_attribute(self):
        _, func = build_simple_func()
        assert func.is_top
        other = FuncOp.create("helper")
        assert not other.is_top

    def test_func_arguments_match_type(self):
        _, func = build_simple_func()
        assert len(func.arguments) == len(func.function_type.inputs)


# ---------------------------------------------------------------------------
# Printer
# ---------------------------------------------------------------------------


class TestPrinter:
    def test_print_contains_op_names_and_attrs(self):
        module, func = build_simple_func()
        builder = Builder.at_end(func.entry_block)
        loop = builder.insert(AffineForOp.create(0, 16, name_hint="i"))
        loop.set_pipeline(True)
        text = print_op(module)
        assert "affine.for" in text
        assert "func.func" in text
        assert "pipeline = true" in text
        assert "upper_bound = 16" in text

    def test_print_stable_value_names(self):
        module, func = build_simple_func()
        builder = Builder.at_end(func.entry_block)
        builder.insert(ConstantOp.create(1.0, f32))
        text1 = print_op(module)
        text2 = print_op(module)
        assert text1 == text2


# ---------------------------------------------------------------------------
# Verifier
# ---------------------------------------------------------------------------


class TestVerifier:
    def test_valid_ir_verifies(self):
        module, func = build_simple_func()
        builder = Builder.at_end(func.entry_block)
        loop = builder.insert(AffineForOp.create(0, 8))
        in_loop = Builder.at_end(loop.body)
        load = in_loop.insert(
            AffineLoadOp.create(func.arguments[0], [loop.induction_variable])
        )
        in_loop.insert(
            AffineStoreOp.create(
                load.result(), func.arguments[1], [loop.induction_variable]
            )
        )
        builder.insert(ReturnOp.create())
        assert verify(module) == []

    def test_use_before_def_detected(self):
        module, func = build_simple_func()
        builder = Builder.at_end(func.entry_block)
        a = builder.insert(ConstantOp.create(1.0, f32))
        add = builder.insert(AddFOp.create(a.result(), a.result()))
        # Move the definition after the use.
        a.detach()
        func.entry_block.append(a)
        errors = verify(module, raise_on_error=False)
        assert errors
        with pytest.raises(VerificationError):
            verify(module)

    def test_value_from_sibling_region_detected(self):
        module, func = build_simple_func()
        builder = Builder.at_end(func.entry_block)
        loop1 = builder.insert(AffineForOp.create(0, 4))
        loop2 = builder.insert(AffineForOp.create(0, 4))
        inner = Builder.at_end(loop1.body).insert(ConstantOp.create(1.0, f32))
        Builder.at_end(loop2.body).insert(AddFOp.create(inner.result(), inner.result()))
        errors = verify(module, raise_on_error=False)
        assert any("not visible" in e for e in errors)


# ---------------------------------------------------------------------------
# Traversal net: the walk against the recursive generator it replaced
# ---------------------------------------------------------------------------


def _reference_walk(root, order="post"):
    """The recursive walk of ``Operation.walk`` as it stood before PR 23,
    verbatim: the reference the explicit-stack walk is held to."""

    def _walk(op):
        if order == "pre":
            yield op
        for region in op.regions:
            for block in region.blocks:
                for child in list(block.operations):
                    yield from _walk(child)
        if order == "post":
            yield op

    return _walk(root)


def _assert_same_walk(root, context=""):
    for order in ("pre", "post"):
        expected = list(_reference_walk(root, order))
        got = list(root.walk(order=order))
        assert len(got) == len(expected), (context, order)
        assert all(a is b for a, b in zip(got, expected)), (context, order)
        seen = []
        assert next(root.walk(seen.append, order=order), None) is None
        assert len(seen) == len(expected) and all(a is b for a, b in zip(seen, expected))


def _nest(depth, leaves=2):
    """``depth`` nested loops with ``leaves`` constants on each side of every
    inner loop; returns the outermost loop."""
    root = AffineForOp.create(0, 2)
    loop = root
    for _ in range(depth - 1):
        builder = Builder.at_end(loop.body)
        for _ in range(leaves):
            builder.insert(ConstantOp.create(1.0, f32))
        inner = builder.insert(AffineForOp.create(0, 2))
        for _ in range(leaves):
            builder.insert(ConstantOp.create(2.0, f32))
        loop = inner
    Builder.at_end(loop.body).insert(ConstantOp.create(3.0, f32))
    return root


class TestWalkMatchesReference:
    @pytest.mark.parametrize("workload", list_workloads())
    def test_every_zoo_module_after_every_default_stage(self, workload):
        compiler = Compiler.from_spec(DEFAULT_PIPELINE, platform="zu3eg")
        state = CompilationState(
            module=get_workload(workload).build_module(), platform=get_platform("zu3eg")
        )
        _assert_same_walk(state.module, "frontend")
        for stage in compiler.stages:
            stage.run(state)
            _assert_same_walk(state.module, stage.name)
        assert list(state.module.nested_values()) == [
            value
            for op in _reference_walk(state.module, "pre")
            for value in [*op.results, *(a for r in op.regions for b in r.blocks for a in b.arguments)]
        ]
        func = state.module.functions[0]
        assert func.walk_ops(AffineForOp) == [
            op for op in _reference_walk(func) if isinstance(op, AffineForOp)
        ]

    @settings(max_examples=200, deadline=None)
    @given(op=_op_trees())
    def test_generated_op_trees(self, op):
        # Empty regions, empty blocks, multi-block and multi-region bodies.
        _assert_same_walk(op)

    def test_detached_root_and_leaf(self):
        leaf = ConstantOp.create(1.0, f32)
        assert leaf.parent is None
        _assert_same_walk(leaf)
        assert list(leaf.walk()) == [leaf]
        _assert_same_walk(_nest(5))
        empty = create_operation("test.empty", num_regions=2)
        _assert_same_walk(empty)
        assert list(empty.walk(order="pre")) == [empty]

    # The snapshot rule: a block's op list is copied when the walk enters the
    # block.  What is erased or inserted after that does not change what this
    # walk yields from that block; blocks not yet entered see the change.

    @pytest.mark.parametrize("order", ["pre", "post"])
    def test_erase_during_walk_still_yields_the_erased_op(self, order):
        def run(walk):
            root = _nest(4)
            names = []
            for op in walk(root, order):
                names.append(op.name)
                later = op.parent.operations if op.parent is not None else []
                if op.name == "arith.constant" and later and later[-1] is not op:
                    later[-1].erase()  # a later sibling of the same block
            return names

        assert run(lambda root, order: root.walk(order=order)) == run(_reference_walk)

    @pytest.mark.parametrize("order", ["pre", "post"])
    def test_insert_during_walk_is_seen_only_in_blocks_not_yet_entered(self, order):
        def run(walk):
            root = _nest(3)
            inner = root.body.operations[2]
            seen, late = [], None
            for op in walk(root, order):
                seen.append(op)
                if late is None and op is not root:
                    # A child is out, so root's block is entered: not yielded.
                    late = Builder.at_end(root.body).insert(ConstantOp.create(7.0, f32))
                    # The inner loop's block is not entered yet: yielded.
                    early = Builder.at_start(inner.body).insert(ConstantOp.create(8.0, f32))
            return seen, late, early, root

        seen, late, early, root = run(lambda root, order: root.walk(order=order))
        reference, ref_late, ref_early, ref_root = run(_reference_walk)
        assert [op.name for op in seen] == [op.name for op in reference]
        assert not any(op is late for op in seen) and any(op is early for op in seen)
        assert [op is root for op in seen] == [op is ref_root for op in reference]
        assert [op is early for op in seen] == [op is ref_early for op in reference]

    def test_preorder_sees_regions_added_to_the_op_it_just_yielded(self):
        def run(walk):
            root = create_operation("test.root", num_regions=1)
            root.body.append(create_operation("test.child"))
            names = []
            for op in walk(root, "pre"):
                names.append(op.name)
                if op.name == "test.child":
                    op.add_region().entry_block.append(create_operation("test.grandchild"))
            return names

        expected = ["test.root", "test.child", "test.grandchild"]
        assert run(_reference_walk) == expected
        assert run(lambda root, order: root.walk(order=order)) == expected

    def test_second_block_is_snapshotted_when_entered_not_before(self):
        def run(walk):
            root = create_operation("test.root", num_regions=1)
            first, second = Block(), Block()
            root.regions[0].append_block(first)
            root.regions[0].append_block(second)
            first.append(create_operation("test.a"))
            second.append(create_operation("test.b"))
            names = []
            for op in walk(root, "post"):
                names.append(op.name)
                if op.name == "test.a":
                    second.append(create_operation("test.c"))
                    first.append(create_operation("test.never"))
            return names

        expected = ["test.a", "test.b", "test.c", "test.root"]
        assert run(_reference_walk) == expected
        assert run(lambda root, order: root.walk(order=order)) == expected


class TestWalkContract:
    @pytest.mark.parametrize("order", ["preorder", "POST", "", None])
    def test_unknown_order_is_rejected_by_name(self, order):
        loop = _nest(2)
        with pytest.raises(ValueError, match="'pre' or 'post'"):
            loop.walk(order=order)  # at the call, before anything is consumed
        with pytest.raises(ValueError, match=repr(order)):
            loop.walk(lambda op: None, order=order)

    def test_walk_resumes_are_linear(self):
        """Timing-free guard for the flat walk: a 12-deep nest of N ops is
        walked in at most 2 N + 16 Python-level calls (generator resumes
        included), where the recursive walk made about depth x N."""
        root = _nest(12, leaves=6)
        for order in ("pre", "post"):
            n_ops = len(list(root.walk(order=order)))
            assert n_ops == 12 + 11 * 12 + 1
            calls = 0

            def count(frame, event, arg):
                nonlocal calls
                calls += event == "call"

            sys.setprofile(count)
            try:
                for _ in root.walk(order=order):
                    pass
            finally:
                sys.setprofile(None)
            assert calls <= 2 * n_ops + 16, (order, calls, n_ops)
            assert sum(1 for _ in _reference_walk(root, order)) == n_ops

    def test_users_keep_first_use_order_without_duplicates(self):
        a = ConstantOp.create(1.0, f32)
        b = ConstantOp.create(2.0, f32)
        first = AddFOp.create(a.result(), a.result())
        second = AddFOp.create(b.result(), a.result())
        third = AddFOp.create(a.result(), b.result())
        assert a.result().users == [first, second, third]
        assert b.result().users == [second, third]
        many = [AddFOp.create(a.result(), a.result()) for _ in range(300)]
        assert a.result().users == [first, second, third, *many]
        assert len(a.result()._uses) == 4 + 2 * 300

    def test_repr_counts_direct_children_only(self):
        root = _nest(4)
        assert repr(root) == "<affine.for operands=0 results=0 children=5>"
        assert repr(ConstantOp.create(1.0, f32)) == (
            "<arith.constant operands=0 results=1 children=0>"
        )


# ---------------------------------------------------------------------------
# Op surface: every registered kind is one the compiler builds
# ---------------------------------------------------------------------------

#: Registered kinds that no registered workload's default compile holds at
#: any stage boundary, each with the ``src/`` function that constructs it.
_BUILT_OFF_THE_DEFAULT_COMPILE = {
    "affine.apply": "transforms.loop_transforms.unroll_loop (literal unroll)",
    # hida.dataflow_opt.balance_data_paths, when a path needs a soft FIFO:
    "hida.stream": "balance_data_paths",
    "hida.stream_read": "balance_data_paths",
    "hida.stream_write": "balance_data_paths",
    "memref.copy": "hida.dataflow_opt.eliminate_multiple_producers",
}


class _OpNames(PipelineObserver):
    """The op names of the module at every boundary of a compile."""

    def __init__(self):
        self.names = set()

    def _collect(self, module):
        self.names.update(op.name for op in module.walk())

    def on_pipeline_start(self, compiler, module):
        self._collect(module)

    def on_stage_end(self, stage, state, seconds):
        self._collect(state.module)


def test_every_registered_op_kind_is_built_by_a_compile_or_allowlisted():
    """A kind nothing builds only grows the interpreter and emitter; and an
    allowlisted kind a compile starts to build leaves the allowlist."""
    observer = _OpNames()
    for handle in iter_workloads():
        Compiler.from_spec(DEFAULT_PIPELINE, observers=[observer]).run(workload=handle)
    unseen = set(_OPERATION_REGISTRY) - observer.names
    built_by_nothing = sorted(unseen - set(_BUILT_OFF_THE_DEFAULT_COMPILE))
    assert not built_by_nothing, f"registered, never built: {built_by_nothing}"
    assert sorted(set(_BUILT_OFF_THE_DEFAULT_COMPILE) - unseen) == []


# ---------------------------------------------------------------------------
# Block order: placement by position or anchor, and the position map
# ---------------------------------------------------------------------------


def _constants(count):
    return [ConstantOp.create(float(i), f32) for i in range(count)]


class TestBlockPlacement:
    def test_insert_at_a_later_position_of_the_same_block_lands_there(self):
        block = Block()
        a, b, c = _constants(3)
        for op in (a, b, c):
            block.append(op)
        block.insert(block.index_of(c), a)
        assert block.operations == [b, a, c]

    def test_anchored_placement_moves_within_a_block(self):
        block = Block()
        a, b, c, d = _constants(4)
        for op in (a, b, c, d):
            block.append(op)
        block.insert_before(d, a)
        assert block.operations == [b, c, a, d]
        block.insert_after(b, d)
        assert block.operations == [b, d, c, a]
        block.insert_after(a, b)
        assert block.operations == [d, c, a, b]
        assert [block.index_of(op) for op in (a, b, c, d)] == [2, 3, 1, 0]

    def test_replace_and_splice(self):
        block, other = Block(), Block()
        a, b, c, d, e = _constants(5)
        for op in (a, b, c):
            block.append(op)
        other.append(d)
        block.replace(b, e)
        assert block.operations == [a, e, c] and b.parent is None
        other.splice([c, a], before=d)
        assert other.operations == [c, a, d] and block.operations == [e]
        assert all(op.parent is other for op in (c, a, d))


def _vouched_positions(block):
    """The positions the block's map vouches for, read without a lookup."""
    positions = block._positions or {}
    vouched = {}
    for op, coord in positions.items():
        if coord < block._lo:
            vouched[op] = coord
        elif coord >= block._hi:
            vouched[op] = coord + block._shift
    return vouched


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_block_edits_match_a_list_model(data):
    """Random anchored inserts, positional inserts, appends, replaces,
    detaches, erases, splices and order queries over two blocks of one
    function, against plain lists: after every step the order, the parent
    links, every position the map vouches for and the verifier agree."""
    module = ModuleOp.create()
    func = FuncOp.create("f")
    Builder.at_end(module.body).insert(func)
    loop = Builder.at_end(func.entry_block).insert(AffineForOp.create(0, 4))
    blocks = [func.entry_block, loop.body]
    model = {id(func.entry_block): [loop], id(loop.body): []}
    free = _constants(6)

    def placed():
        return [op for block in blocks for op in model[id(block)] if op is not loop]

    for _ in range(data.draw(st.integers(1, 25))):
        kind = data.draw(
            st.sampled_from(
                ["append", "insert", "before", "after", "replace", "detach", "erase",
                 "splice", "index", "order"]
            )
        )
        block = data.draw(st.sampled_from(blocks))
        ops = model[id(block)]
        movable = placed() + free
        if kind in ("append", "insert", "before", "after") and movable:
            op = data.draw(st.sampled_from(movable))
            anchors = [o for o in ops if o is not op]
            if kind in ("before", "after") and not anchors:
                continue
            if kind == "append":
                block.append(op)
            elif kind == "insert":
                # A position in the block as it is, counting ``op`` if it is here.
                position = data.draw(st.integers(0, len(ops)))
                moves_up = op in ops and ops.index(op) < position
                position_after = position - moves_up
                block.insert(position, op)
            else:
                anchor = data.draw(st.sampled_from(anchors))
                if kind == "before":
                    block.insert_before(anchor, op)
                else:
                    block.insert_after(anchor, op)
            for owner in model.values():
                if op in owner:
                    owner.remove(op)
            if op in free:
                free.remove(op)
            if kind == "append":
                ops.append(op)
            elif kind == "insert":
                ops.insert(position_after, op)
            else:
                ops.insert(ops.index(anchor) + (kind == "after"), op)
        elif kind == "replace" and [o for o in ops if o is not loop] and free:
            old = data.draw(st.sampled_from([o for o in ops if o is not loop]))
            new = free.pop(data.draw(st.integers(0, len(free) - 1)))
            block.replace(old, new)
            ops[ops.index(old)] = new
            free.append(old)
        elif kind in ("detach", "erase") and [o for o in ops if o is not loop]:
            op = data.draw(st.sampled_from([o for o in ops if o is not loop]))
            ops.remove(op)
            if kind == "detach":
                op.detach()
                free.append(op)
            else:
                op.erase()
        elif kind == "splice" and movable:
            run = data.draw(st.lists(st.sampled_from(movable), min_size=1, max_size=4, unique=True))
            anchors = [o for o in ops if o not in run]
            anchor = data.draw(st.sampled_from([None] + anchors))
            for owner in model.values():
                owner[:] = [o for o in owner if o not in run]
            free[:] = [o for o in free if o not in run]
            block.splice(run, before=anchor)
            at = len(ops) if anchor is None else ops.index(anchor)
            ops[at:at] = run
        elif kind == "index" and ops:
            op = data.draw(st.sampled_from(ops))
            assert block.index_of(op) == ops.index(op)
        elif kind == "order" and ops:
            asked = data.draw(st.lists(st.sampled_from(ops), unique=True))
            assert block.in_order(asked) == sorted(asked, key=ops.index)
        if len(free) < 3:
            free += _constants(2)
        for each in blocks:
            listed = model[id(each)]
            assert each.operations == listed
            assert all(op.parent is each for op in listed)
            vouched = _vouched_positions(each)
            assert all(listed[position] is op for op, position in vouched.items())
        assert all(op.parent is None for op in free)
        assert verify(module, raise_on_error=False) == []


def test_the_ir_layer_imports_no_transform():
    """The IR and its oracle sit below the passes they judge: no module under
    ``src/repro/ir/`` imports ``repro.transforms``, not even in a function."""
    root = pathlib.Path(__file__).parent.parent / "src" / "repro"
    found = []
    for path in sorted((root / "ir").rglob("*.py")):
        package = ["repro", *path.relative_to(root).parent.parts]
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                parent = package[: len(package) + 1 - node.level] if node.level else []
                base = ".".join([*parent, *filter(None, [node.module])])
                names = [base] + [f"{base}.{alias.name}" for alias in node.names]
            else:
                continue
            if any(name.split(".")[:2] == ["repro", "transforms"] for name in names):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
