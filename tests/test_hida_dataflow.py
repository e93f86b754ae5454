"""Tests for HIDA-OPT: Functional construction (Alg. 1), task fusion (Alg. 2),
Structural lowering, multi-producer elimination (Alg. 3) and data-path
balancing."""

import pytest

from repro.dialects.affine import AffineForOp
from repro.dialects.dataflow import (
    BufferOp,
    DispatchOp,
    MemoryEffect,
    NodeOp,
    ScheduleOp,
    StreamOp,
    TaskOp,
    get_producers,
)
from repro.dialects.memref import AllocOp, CopyOp
from repro.frontend.cpp import build_listing1
from repro.frontend.nn import Sequential, Conv2d, ReLU, BatchNorm2d, trace
from repro.hida import (
    analyze_memory_effects,
    balance_data_paths,
    construct_functional_dataflow,
    convert_allocs_to_buffers,
    eliminate_multiple_producers,
    fuse_dataflow_tasks,
    fuse_tasks,
    lower_to_structural_dataflow,
    node_depths,
    task_intensity,
    wrap_ops_in_task,
)
from repro.hida.functional import (
    ElementwiseFusionPattern,
    InitializationFusionPattern,
    default_fusion_patterns,
)
from repro.ir import Builder, MemRefType, f32, verify
from repro.transforms import lower_linalg_to_affine
from repro.workloads import as_module


# ---------------------------------------------------------------------------
# Algorithm 1: functional dataflow construction
# ---------------------------------------------------------------------------


class TestFunctionalConstruction:
    def test_listing1_builds_three_tasks(self):
        module = build_listing1()
        created = construct_functional_dataflow(module)
        assert created == 1
        dispatch = module.walk_ops(DispatchOp)[0]
        assert len(dispatch.tasks) == 3
        assert verify(module) == []

    def test_single_band_kernel_not_dispatched(self):
        module = as_module("symm")
        created = construct_functional_dataflow(module)
        assert created == 0
        assert not module.walk_ops(DispatchOp)

    def test_dnn_model_dispatch_and_tasks(self):
        module = as_module("lenet")
        construct_functional_dataflow(module)
        dispatch = module.walk_ops(DispatchOp)[0]
        # One task per compute layer (weights excluded).
        assert len(dispatch.tasks) == 10
        assert verify(module) == []

    def test_weights_stay_outside_tasks(self):
        module = as_module("lenet")
        construct_functional_dataflow(module)
        for task in module.walk_ops(TaskOp):
            assert not any(op.name == "linalg.fill" for op in task.body.operations)

    def test_idempotent(self):
        module = build_listing1()
        construct_functional_dataflow(module)
        created_again = construct_functional_dataflow(module)
        assert created_again == 0

    def test_wrap_ops_in_task_yields_escaping_values(self):
        module = as_module("lenet")
        func = module.functions[0]
        conv = [op for op in func.entry_block.operations if op.name == "linalg.conv2d"][0]
        task = wrap_ops_in_task([conv], label="conv")
        assert task.num_results == 1
        assert task.yield_op.operand(0) is conv.result()
        # The original consumer now uses the task result.
        assert any(isinstance(u, Operation := type(u)) for u in task.results[0].users)
        assert verify(module) == []

    def test_wrap_ops_requires_same_block(self):
        module = build_listing1()
        func = module.functions[0]
        top_level_op = func.entry_block.operations[0]
        inner_loop = [op for op in module.walk() if isinstance(op, AffineForOp)][0]
        nested_op = inner_loop.body.operations[0]
        with pytest.raises(ValueError):
            wrap_ops_in_task([top_level_op, nested_op])


# ---------------------------------------------------------------------------
# Algorithm 2: task fusion
# ---------------------------------------------------------------------------


class TestTaskFusion:
    def test_elementwise_pattern_matches_relu_after_conv(self):
        module = trace(Sequential(Conv2d(1, 4, 3), ReLU()), (1, 1, 8, 8))
        construct_functional_dataflow(module)
        dispatch = module.walk_ops(DispatchOp)[0]
        relu_task = dispatch.tasks[1]
        partner = ElementwiseFusionPattern().match(relu_task)
        assert partner is dispatch.tasks[0]

    def test_fusion_reduces_task_count(self):
        module = trace(
            Sequential(Conv2d(1, 4, 3), BatchNorm2d(4), ReLU()), (1, 1, 8, 8)
        )
        construct_functional_dataflow(module)
        fusions = fuse_dataflow_tasks(module)
        assert fusions >= 2
        dispatch = module.walk_ops(DispatchOp)[0]
        assert len(dispatch.tasks) == 1
        assert verify(module) == []

    def test_fusion_keeps_listing1_stages_separate(self):
        module = build_listing1()
        construct_functional_dataflow(module)
        fuse_dataflow_tasks(module)
        dispatch = module.walk_ops(DispatchOp)[0]
        # Load stages move real data (not constants) so they stay separate.
        assert len(dispatch.tasks) == 3

    def test_init_pattern_fuses_zero_initialization(self):
        module = as_module("3mm")
        construct_functional_dataflow(module)
        dispatch = module.walk_ops(DispatchOp)[0]
        tasks_before = len(dispatch.tasks)
        fuse_dataflow_tasks(module, patterns=[InitializationFusionPattern()], balance=False)
        assert len(dispatch.tasks) < tasks_before
        assert verify(module) == []

    def test_fuse_tasks_preserves_external_uses(self):
        module = trace(Sequential(Conv2d(1, 4, 3), ReLU()), (1, 1, 8, 8))
        construct_functional_dataflow(module)
        dispatch = module.walk_ops(DispatchOp)[0]
        first, second = dispatch.tasks
        fused = fuse_tasks(first, second)
        assert fused.num_results == 1  # relu output still consumed by the yield
        assert verify(module) == []

    def test_task_intensity_of_lenet_layers(self):
        module = as_module("lenet")
        construct_functional_dataflow(module)
        dispatch = module.walk_ops(DispatchOp)[0]
        intensities = [task_intensity(t) for t in dispatch.tasks]
        # Conv2 (240k MACs) is the most intense layer.
        assert max(intensities) == 240_000

    def test_default_patterns_present(self):
        patterns = default_fusion_patterns()
        names = {p.name for p in patterns}
        assert "elementwise-fusion" in names and "init-fusion" in names


# ---------------------------------------------------------------------------
# Structural lowering
# ---------------------------------------------------------------------------


def lower_listing1():
    module = build_listing1()
    construct_functional_dataflow(module)
    schedules = lower_to_structural_dataflow(module)
    return module, schedules


class TestStructuralLowering:
    def test_allocs_become_buffers(self):
        module = build_listing1()
        func = module.functions[0]
        converted = convert_allocs_to_buffers(func)
        assert converted == 2
        assert not func.walk_ops(AllocOp)
        buffers = func.walk_ops(BufferOp)
        assert all(b.depth == 2 for b in buffers)

    def test_memory_effect_analysis(self):
        module = build_listing1()
        construct_functional_dataflow(module)
        dispatch = module.walk_ops(DispatchOp)[0]
        compute_task = [t for t in dispatch.tasks if len(t.walk_ops(AffineForOp)) == 3][0]
        values, effects = analyze_memory_effects(compute_task)
        kinds = sorted(effects.values())
        assert MemoryEffect.WRITE in kinds  # C_out
        assert kinds.count(MemoryEffect.READ) == 2  # A and B buffers

    def test_lowering_produces_schedule_with_nodes(self):
        module, schedules = lower_listing1()
        assert len(schedules) == 1
        schedule = schedules[0]
        assert len(schedule.nodes) == 3
        assert len(schedule.buffers) == 2  # A and B moved inside
        assert verify(module) == []

    def test_nodes_are_isolated(self):
        module, schedules = lower_listing1()
        for node in schedules[0].nodes:
            for op in node.walk():
                for operand in op.operands:
                    defining = operand.defining_op
                    if defining is None:
                        continue
                    assert node.is_ancestor_of(defining) or isinstance(
                        defining, BufferOp
                    ) is False or node.uses_value(operand)

    def test_schedule_operands_are_function_level_values(self):
        module, schedules = lower_listing1()
        schedule = schedules[0]
        func = module.functions[0]
        for operand in schedule.operands:
            assert operand in list(func.arguments) or operand.defining_op is not None

    def test_no_tasks_or_dispatches_remain(self):
        module, _ = lower_listing1()
        assert not module.walk_ops(TaskOp)
        assert not module.walk_ops(DispatchOp)

    def test_dnn_end_to_end_lowering(self):
        module = as_module("lenet")
        construct_functional_dataflow(module)
        fuse_dataflow_tasks(module)
        lower_linalg_to_affine(module)
        schedules = lower_to_structural_dataflow(module)
        assert schedules and schedules[0].nodes
        assert verify(module) == []


# ---------------------------------------------------------------------------
# Algorithm 3: multi-producer elimination
# ---------------------------------------------------------------------------


def build_multi_producer_schedule(external=False):
    """Two producers writing the same buffer, one consumer reading it."""
    func = FuncArgsHelper.make_func(external)
    schedule = func[1]
    return func[0], schedule, func[2]


class FuncArgsHelper:
    @staticmethod
    def make_func(external):
        from repro.ir import FuncOp

        dram = MemRefType((8,), f32, "dram")
        func = FuncOp.create("f", input_types=[dram, dram])
        builder = Builder.at_end(func.entry_block)
        if external:
            shared = func.arguments[0]
            schedule = ScheduleOp.create(operands=[shared, func.arguments[1]])
            builder.insert(schedule)
            sbuilder = Builder.at_end(schedule.body)
            target = schedule.body.arguments[0]
            out = schedule.body.arguments[1]
        else:
            schedule = ScheduleOp.create(operands=[func.arguments[1]])
            builder.insert(schedule)
            sbuilder = Builder.at_end(schedule.body)
            buffer = sbuilder.insert(BufferOp.create(MemRefType((8,), f32), name_hint="shared"))
            target = buffer.result()
            out = schedule.body.arguments[0]
        p1 = sbuilder.insert(NodeOp.create(outputs=[target], label="p1"))
        p2 = sbuilder.insert(NodeOp.create(inouts=[target], label="p2"))
        consumer = sbuilder.insert(
            NodeOp.create(inputs=[target], outputs=[out], label="c")
        )
        return func, schedule, (p1, p2, consumer, target)


class TestMultiProducerElimination:
    def test_internal_buffer_duplication(self):
        _, schedule, (p1, p2, consumer, buffer) = build_multi_producer_schedule()
        eliminated = eliminate_multiple_producers(schedule)
        assert eliminated == 1
        # The original buffer now has exactly one producer.
        assert len(get_producers(buffer)) == 1
        # A duplicate buffer was created and the consumer reads from it.
        assert len(schedule.buffers) == 2
        duplicate = [b for b in schedule.buffers if b.result() is not buffer][0]
        assert consumer.reads(duplicate.result())

    def test_reading_producer_gets_copy(self):
        _, schedule, (p1, p2, consumer, buffer) = build_multi_producer_schedule()
        eliminate_multiple_producers(schedule)
        # p2 read-modified the buffer, so it must start with an explicit copy.
        copies = [op for op in p2.walk() if isinstance(op, CopyOp)]
        assert len(copies) == 1

    def test_external_buffer_producers_merged(self):
        _, schedule, (p1, p2, consumer, buffer) = build_multi_producer_schedule(external=True)
        nodes_before = len(schedule.nodes)
        eliminated = eliminate_multiple_producers(schedule)
        assert eliminated == 1
        assert len(schedule.nodes) == nodes_before - 1
        merged = schedule.nodes[0]
        assert "+" in merged.label

    def test_single_producer_untouched(self):
        module, schedules = lower_listing1()
        assert eliminate_multiple_producers(schedules[0]) == 0


# ---------------------------------------------------------------------------
# Data-path balancing
# ---------------------------------------------------------------------------


def build_shortcut_schedule(big_buffer=False):
    """Node0 -> Node1 -> Node2 with a shortcut Node0 -> Node2 (Figure 8)."""
    from repro.ir import FuncOp

    shape = (1024, 1024) if big_buffer else (8, 8)
    dram = MemRefType((8,), f32, "dram")
    func = FuncOp.create("f", input_types=[dram, dram])
    schedule = ScheduleOp.create(operands=list(func.arguments))
    Builder.at_end(func.entry_block).insert(schedule)
    builder = Builder.at_end(schedule.body)
    buf1 = builder.insert(BufferOp.create(MemRefType((8, 8), f32), name_hint="buf1"))
    buf3 = builder.insert(BufferOp.create(MemRefType(shape, f32), name_hint="buf3"))
    node0 = builder.insert(
        NodeOp.create(
            inputs=[schedule.body.arguments[0]],
            outputs=[buf1.result(), buf3.result()],
            label="node0",
        )
    )
    node1 = builder.insert(
        NodeOp.create(inputs=[buf1.result()], outputs=[], label="node1")
    )
    buf2 = builder.insert(BufferOp.create(MemRefType((8, 8), f32), name_hint="buf2"))
    node1.add_operand_with_argument(buf2.result(), MemoryEffect.WRITE)
    node2 = builder.insert(
        NodeOp.create(
            inputs=[buf2.result(), buf3.result()],
            outputs=[schedule.body.arguments[1]],
            label="node2",
        )
    )
    return schedule, (node0, node1, node2), (buf1, buf2, buf3)


class TestDataPathBalancing:
    def test_node_depths(self):
        schedule, (node0, node1, node2), _ = build_shortcut_schedule()
        depths = node_depths(schedule)
        assert depths[id(node0)] == 0
        assert depths[id(node1)] == 1
        assert depths[id(node2)] == 2

    def test_shortcut_buffer_deepened_on_chip(self):
        schedule, _, (buf1, buf2, buf3) = build_shortcut_schedule()
        report = balance_data_paths(schedule)
        assert report.buffers_deepened == 1
        assert buf3.depth == 3
        assert buf3.get_attr("balanced")
        assert buf1.depth == 1  # untouched (created with the default depth)

    def test_large_shortcut_buffer_spills_to_soft_fifo_with_tokens(self):
        schedule, (node0, _, node2), (_, _, buf3) = build_shortcut_schedule(big_buffer=True)
        report = balance_data_paths(schedule, on_chip_bit_budget=1024)
        assert report.soft_fifos == 1
        assert report.token_streams >= 1
        assert buf3.is_external
        streams = [op for op in schedule.body.operations if isinstance(op, StreamOp)]
        assert streams and streams[0].is_token
        # Producer writes the token, consumer reads it.
        assert any(op.name == "hida.stream_write" for op in node0.walk())
        assert any(op.name == "hida.stream_read" for op in node2.walk())

    def test_balanced_schedule_not_modified(self):
        module, schedules = lower_listing1()
        report = balance_data_paths(schedules[0])
        assert report.total_actions == 0

    def test_resnet_shortcuts_trigger_balancing(self):
        from repro.compiler import Compiler, default_stages

        result = Compiler(default_stages(parallelize={"factor": 8})).run(
            workload="resnet18"
        )
        assert result.balance_report.buffers_deepened + result.balance_report.soft_fifos > 0


from repro.ir.core import Operation  # noqa: E402  (used in an assertion above)
