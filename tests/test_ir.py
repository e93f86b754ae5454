"""Tests for the IR kernel: values, operations, regions, builder, printer,
verifier and the pass infrastructure."""

import sys

import pytest
from hypothesis import given, settings

from repro.compiler.driver import DEFAULT_PIPELINE, Compiler
from repro.compiler.stages import CompilationState
from repro.estimation.platform import get_platform
from repro.workloads import get_workload, list_workloads
from repro.ir import (
    Block,
    Builder,
    ConstantOp,
    FuncOp,
    FunctionType,
    InsertionPoint,
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
    index,
    print_op,
    registered_operations,
    verify,
)
from repro.dialects.arith import AddFOp
from repro.dialects.affine import AffineForOp, AffineLoadOp, AffineStoreOp
from test_ir_parser import _op_trees


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
        assert ty.rank == 3
        assert ty.num_elements == 24
        assert ty.bitwidth == 24 * 32

    def test_memref_type_memory_space(self):
        on_chip = MemRefType((4, 4), f32)
        off_chip = on_chip.with_memory_space("dram")
        assert on_chip.is_on_chip
        assert not off_chip.is_on_chip
        assert off_chip.shape == on_chip.shape

    def test_memref_with_shape(self):
        ty = MemRefType((4, 4), f32).with_shape((2, 8))
        assert ty.shape == (2, 8)

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
        assert "arith.constant" in registered_operations()

    def test_results_track_uses(self):
        const = ConstantOp.create(1.0, f32)
        add = AddFOp.create(const.result(), const.result())
        assert const.result().num_uses == 2
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
        assert a.result().num_uses == 1
        assert b.result().num_uses == 1

    def test_attributes_accessors(self):
        op = ConstantOp.create(5, i32)
        op.set_attr("note", "hello")
        assert op.get_attr("note") == "hello"
        assert op.has_attr("note")
        op.remove_attr("note")
        assert not op.has_attr("note")
        assert op.get_attr("missing", 7) == 7

    def test_move_before_and_after(self):
        module, func = build_simple_func()
        builder = Builder.at_end(func.entry_block)
        a = builder.insert(ConstantOp.create(1.0, f32))
        b = builder.insert(ConstantOp.create(2.0, f32))
        b.move_before(a)
        ops = func.entry_block.operations
        assert ops.index(b) < ops.index(a)
        b.move_after(a)
        ops = func.entry_block.operations
        assert ops.index(b) > ops.index(a)

    def test_is_before_in_block(self):
        module, func = build_simple_func()
        builder = Builder.at_end(func.entry_block)
        a = builder.insert(ConstantOp.create(1.0, f32))
        b = builder.insert(ConstantOp.create(2.0, f32))
        assert a.is_before_in_block(b)
        assert not b.is_before_in_block(a)

    def test_is_ancestor_of(self):
        loop = AffineForOp.create(0, 4)
        inner = Builder.at_end(loop.body).insert(ConstantOp.create(1.0, f32))
        assert loop.is_ancestor_of(inner)
        assert loop.is_ancestor_of(loop)
        assert loop.is_proper_ancestor_of(inner)
        assert not loop.is_proper_ancestor_of(loop)

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
        with builder.at_end_of(loop.body):
            load = builder.insert(
                AffineLoadOp.create(func.arguments[0], [loop.induction_variable])
            )
            builder.insert(
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
        with pytest.raises(IRError):
            AddFOp.create(arg, arg)  # create a use
            block.erase_argument(1)

    def test_region_entry_block_autocreated(self):
        region = Region()
        assert region.empty
        entry = region.entry_block
        assert not region.empty
        assert region.entry_block is entry


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

    def test_builder_constant_helpers(self):
        module, func = build_simple_func()
        builder = Builder.at_end(func.entry_block)
        value = builder.index_constant(5)
        assert value.type == index
        assert value.defining_op.value == 5

    def test_builder_nested_context(self):
        module, func = build_simple_func()
        builder = Builder.at_end(func.entry_block)
        loop = builder.insert(AffineForOp.create(0, 4))
        with builder.at_end_of(loop.body):
            builder.insert(ConstantOp.create(1.0, f32))
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
    def test_module_lookup(self):
        module, func = build_simple_func("bar")
        assert module.lookup("bar") is func
        assert module.lookup("missing") is None

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
        with builder.at_end_of(loop.body):
            load = builder.insert(
                AffineLoadOp.create(func.arguments[0], [loop.induction_variable])
            )
            builder.insert(
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
        a.move_after(add)
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
        for region in root.regions:
            expected = [
                op
                for block in region.blocks
                for child in block.operations
                for op in _reference_walk(child, order)
            ]
            got = list(region.walk(order=order))
            assert len(got) == len(expected), (context, order)
            assert all(a is b for a, b in zip(got, expected)), (context, order)


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
        for walk in (loop.walk, loop.regions[0].walk):
            with pytest.raises(ValueError, match="'pre' or 'post'"):
                walk(order=order)  # at the call, before anything is consumed
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
        assert a.result().num_uses == 4 + 2 * 300

    def test_repr_counts_direct_children_only(self):
        root = _nest(4)
        assert repr(root) == "<affine.for operands=0 results=0 children=5>"
        assert repr(ConstantOp.create(1.0, f32)) == (
            "<arith.constant operands=0 results=1 children=0>"
        )
