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
    YieldOp,
    get_producers,
)
from repro.dialects.arith import AddFOp
from repro.dialects.memref import AllocOp, CopyOp
from repro.frontend.cpp import build_listing1
from repro.frontend.nn import Sequential, Conv2d, ReLU, BatchNorm2d, trace
from repro.hida import (
    BalanceReport,
    balance_data_paths,
    construct_functional_dataflow,
    eliminate_multiple_producers,
    fuse_dataflow_tasks,
    fuse_tasks,
    lower_to_structural_dataflow,
    task_intensity,
    wrap_ops_in_task,
)
from repro.estimation.dataflow_sim import build_channels, channel_depths
from repro.hida.functional import FUSION_PATTERNS
from repro.hida.structural import _allocs_to_buffers, _memory_effects, _walk_to_nodes
from repro.ir import Builder, ConstantOp, MemRefType, f32, verify
from repro.transforms import lower_linalg_to_affine
from repro.transforms.canonicalize import simplify_dispatch_hierarchy
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

    def test_a_task_holding_only_a_task_is_flattened(self):
        dispatch = DispatchOp.create([f32])
        outer = Builder.at_end(dispatch.body).insert(TaskOp.create([f32], label="outer"))
        inner = Builder.at_end(outer.body).insert(TaskOp.create([f32], label="inner"))
        body = Builder.at_end(inner.body)
        one = body.insert(ConstantOp.create(1.0, f32))
        add = body.insert(AddFOp.create(one.result(), one.result()))
        body.insert(YieldOp.create([add.result()]))
        Builder.at_end(outer.body).insert(YieldOp.create([inner.result()]))
        Builder.at_end(dispatch.body).insert(YieldOp.create([outer.result()]))
        simplify_dispatch_hierarchy(dispatch)
        assert outer.body.operations == [one, add, outer.yield_op]
        assert outer.yield_op.operands == [add.result()]
        assert verify(dispatch, raise_on_error=False) == []


# ---------------------------------------------------------------------------
# Algorithm 2: task fusion
# ---------------------------------------------------------------------------


class TestTaskFusion:
    def test_elementwise_pattern_matches_relu_after_conv(self):
        module = trace(Sequential(Conv2d(1, 4, 3), ReLU()), (1, 1, 8, 8))
        construct_functional_dataflow(module)
        dispatch = module.walk_ops(DispatchOp)[0]
        relu_task = dispatch.tasks[1]
        partner = FUSION_PATTERNS["elementwise"](relu_task)
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
        fuse_dataflow_tasks(module, patterns=["init"], balance=False)
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
        assert list(FUSION_PATTERNS) == ["elementwise", "init"]


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
        converted = _allocs_to_buffers(func.walk_ops(AllocOp), 2)
        assert converted == 2
        assert not func.walk_ops(AllocOp)
        buffers = func.walk_ops(BufferOp)
        assert all(b.depth == 2 for b in buffers)

    def test_memory_effect_analysis(self):
        module = build_listing1()
        construct_functional_dataflow(module)
        dispatch = module.walk_ops(DispatchOp)[0]
        compute_task = [t for t in dispatch.tasks if len(t.walk_ops(AffineForOp)) == 3][0]
        values, effects = _memory_effects(_walk_to_nodes(compute_task))
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
                    ) is False or operand in node.operands

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


def test_node_users_outside_the_block_follow_in_use_order():
    """``get_node_users`` puts the first user's block in program order, then
    the users elsewhere in the order they took the buffer on."""
    from repro.dialects.dataflow import get_node_users
    from repro.ir import FuncOp

    func = FuncOp.create("f")
    schedule = Builder.at_end(func.entry_block).insert(ScheduleOp.create())
    buffer = Builder.at_end(schedule.body).insert(BufferOp.create(MemRefType((8,), f32)))
    value = buffer.result()
    # Use order: second, first, outer_late, outer_early.
    second = NodeOp.create(inputs=[value], label="second")
    first = NodeOp.create(inputs=[value], label="first")
    outer_late = NodeOp.create(inputs=[value], label="outer_late")
    outer_early = NodeOp.create(inputs=[value], label="outer_early")
    Builder.at_end(schedule.body).insert(first)
    Builder.at_end(schedule.body).insert(second)
    Builder.at_end(func.entry_block).insert(outer_early)
    Builder.at_end(func.entry_block).insert(outer_late)
    assert get_node_users(value) == [first, second, outer_late, outer_early]


def three_producer_schedule():
    """``(func, schedule, nodes)``: nodes p1 c1 p2 c2 p3 c3 over one buffer
    ``shared`` in one schedule, p3 reading and writing it."""
    from repro.ir import FuncOp

    func = FuncOp.create("f", input_types=[MemRefType((8,), f32, "dram")])
    schedule = ScheduleOp.create(operands=list(func.arguments))
    Builder.at_end(func.entry_block).insert(schedule)
    builder = Builder.at_end(schedule.body)
    shared = builder.insert(BufferOp.create(MemRefType((8,), f32), name_hint="shared"))
    target = shared.result()
    nodes = []
    for producer in (
        NodeOp.create(outputs=[target], label="p1"),
        NodeOp.create(inputs=[target], label="c1"),
        NodeOp.create(outputs=[target], label="p2"),
        NodeOp.create(inputs=[target], label="c2"),
        NodeOp.create(inouts=[target], label="p3"),
        NodeOp.create(inputs=[target], label="c3"),
    ):
        nodes.append(builder.insert(producer))
    return func, schedule, nodes


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

    def test_three_producers_get_a_version_each(self):
        """p1 c1 p2 c2 p3 c3 over one buffer: p2 and p3 each write their own
        duplicate, each consumer reads the version written just before it,
        and p3, which also reads, copies in the version p2 wrote."""
        func, schedule, nodes = three_producer_schedule()
        p1, c1, p2, c2, p3, c3 = nodes
        assert eliminate_multiple_producers(schedule) == 2
        versions = [buffer.result() for buffer in schedule.buffers]
        assert [value.name_hint for value in versions] == ["shared", "shared_dup", "shared_dup"]
        first, second, third = versions
        assert [get_producers(value) for value in versions] == [[p1], [p2], [p3]]
        assert [c.reads(value) for c, value in zip((c1, c2, c3), versions)] == [True] * 3
        assert p3.reads(second) and not p2.reads(first)
        (copy,) = [op for op in p3.body.operations if isinstance(op, CopyOp)]
        assert copy.source is p3.block_argument_for(second)
        assert copy.target is p3.block_argument_for(third)
        assert all(value.has_uses for value in versions)
        assert verify(func) == []


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
        schedule, shortcut_nodes, _ = build_shortcut_schedule()
        nodes, channels = build_channels(schedule)
        assert nodes == list(shortcut_nodes)
        assert channel_depths(len(nodes), channels) == [0, 1, 2]

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
        assert report == BalanceReport()

    def test_resnet_shortcuts_trigger_balancing(self):
        from repro.compiler import Compiler, default_stages

        result = Compiler(default_stages(parallelize={"factor": 8})).run(
            workload="resnet18"
        )
        assert result.balance_report.buffers_deepened + result.balance_report.soft_fifos > 0

    @pytest.mark.parametrize(
        "budget, note",
        [
            (None, "deepened 8 buffer(s) on chip"),
            (1024, "spilled 8 buffer(s) to soft FIFO(s) with 17 token stream(s)"),
        ],
        ids=["on-chip", "spill-only"],
    )
    def test_balance_note_names_what_it_did(self, budget, note):
        from repro.compiler import Compiler

        balance = "balance" if budget is None else f"balance{{budget={budget}}}"
        state = Compiler.from_spec(
            "construct-dataflow,fuse-tasks,lower-linalg,lower-structural,"
            f"eliminate-multi-producers,{balance}",
            platform="zu3eg",
        ).run_stages(workload="resnet18")
        assert [d.message for d in state.diagnostics if d.stage == "balance"] == [note]


from repro.ir.core import Operation  # noqa: E402  (used in an assertion above)


# ---------------------------------------------------------------------------
# Work counts: each task is matched and measured once, each node read once
# ---------------------------------------------------------------------------


def _mobilenet_dataflow():
    module = as_module("mobilenet")
    construct_functional_dataflow(module)
    return module, sum(len(d.tasks) for d in module.walk_ops(DispatchOp))


def _counting(counts, name, function):
    def counted(*args):
        counts[name] += 1
        return function(*args)

    return counted


class TestWorkCounts:
    def test_each_pattern_matches_a_task_at_most_once(self, monkeypatch):
        module, tasks = _mobilenet_dataflow()
        counts = dict.fromkeys(FUSION_PATTERNS, 0)
        for name, match in list(FUSION_PATTERNS.items()):
            monkeypatch.setitem(FUSION_PATTERNS, name, _counting(counts, name, match))
        fusions = fuse_dataflow_tasks(module)
        assert (tasks, fusions) == (84, 66)
        assert all(0 < count <= tasks + fusions for count in counts.values()), counts

    def test_each_task_is_measured_once(self, monkeypatch):
        import repro.hida.functional as functional

        module, tasks = _mobilenet_dataflow()
        counts = {"task_intensity": 0}
        monkeypatch.setattr(
            functional,
            "task_intensity",
            _counting(counts, "task_intensity", functional.task_intensity),
        )
        fusions = fuse_dataflow_tasks(module)
        assert 0 < counts["task_intensity"] <= tasks + fusions

    def test_building_a_schedule_reads_no_node_body(self, monkeypatch):
        from repro.hida import convert_dispatch_to_schedule, convert_task_to_node

        module, _ = _mobilenet_dataflow()
        fuse_dataflow_tasks(module)
        lower_linalg_to_affine(module)
        (func,) = module.functions
        _allocs_to_buffers(func.walk_ops(AllocOp), 2)
        dispatches = func.walk_ops(DispatchOp)
        for dispatch in dispatches:
            for task in dispatch.tasks:
                convert_task_to_node(task)
        walked = []
        walk = Operation.walk

        def recording_walk(op, *args, **kwargs):
            ops = list(walk(op, *args, **kwargs))
            walked.extend(ops)
            return iter(ops)

        monkeypatch.setattr(Operation, "walk", recording_walk)
        schedules = [convert_dispatch_to_schedule(d) for d in dispatches]
        monkeypatch.undo()
        assert schedules and all(schedule.nodes for schedule in schedules)

        def in_node_body(op):
            parent = op.parent_op
            while parent is not None:
                if isinstance(parent, NodeOp):
                    return True
                parent = parent.parent_op
            return False

        assert [op.name for op in walked if in_node_body(op)] == []
        assert verify(module) == []


# ---------------------------------------------------------------------------
# Work counts over depth: block edits and order queries cost what they touch
# ---------------------------------------------------------------------------


def conv_relu_chain(layers):
    """A chain of ``layers`` Conv2d(8, 8, 3, padding=1) + ReLU pairs at
    1x8x16x16, i8: a design whose depth grows while its layers stay alike.
    Deliberately not a registered workload (it would join the zoo)."""
    from repro.ir.types import i8

    modules = []
    for _ in range(layers):
        modules += [Conv2d(8, 8, 3, padding=1), ReLU()]
    return trace(Sequential(*modules), (1, 8, 16, 16), name="chain", element_type=i8)


class _CountedOps(list):
    """A block's op list that counts the entries its searches scan and its
    edits shift: ``index`` scans up to the op, ``remove`` scans up to it
    and shifts the rest, a positional insert or delete shifts what follows,
    and a slice assignment scans the slice it replaces and shifts the tail
    and the new entries into place."""

    scanned = shifted = 0

    def index(self, op, *bounds):
        position = list.index(self, op, *bounds)
        _CountedOps.scanned += position + 1
        return position

    def remove(self, op):
        position = list.index(self, op)
        _CountedOps.scanned += position + 1
        _CountedOps.shifted += len(self) - position - 1
        list.remove(self, op)

    def insert(self, position, op):
        _CountedOps.shifted += len(self) - min(max(position, 0), len(self))
        list.insert(self, position, op)

    def pop(self, position=-1):
        _CountedOps.shifted += len(self) - position % len(self) - 1
        return list.pop(self, position)

    def __delitem__(self, key):
        start, stop, _ = key.indices(len(self)) if isinstance(key, slice) else (key, key + 1, 1)
        _CountedOps.shifted += len(self) - stop
        list.__delitem__(self, key)

    def __setitem__(self, key, value):
        if isinstance(key, slice):
            value = list(value)
            start, stop, _ = key.indices(len(self))
            _CountedOps.scanned += stop - start
            _CountedOps.shifted += len(value)
            if len(value) != stop - start:
                _CountedOps.shifted += len(self) - stop
        list.__setitem__(self, key, value)


def _stage_work(layers, monkeypatch):
    """``stage -> (entries scanned, entries shifted)`` of one default-pipeline
    compile of the chain; building a position map scans its whole block."""
    from repro.compiler import Compiler, default_stages
    from repro.compiler.driver import PipelineObserver
    from repro.ir.core import Block

    init, renumber = Block.__init__, Block._renumber

    def counted_init(block, *args, **kwargs):
        init(block, *args, **kwargs)
        block._operations = _CountedOps()

    def counted_renumber(block):
        _CountedOps.scanned += len(block._operations)
        return renumber(block)

    monkeypatch.setattr(Block, "__init__", counted_init)
    monkeypatch.setattr(Block, "_renumber", counted_renumber)
    module = conv_relu_chain(layers)
    work = {}

    class Counter(PipelineObserver):
        def on_stage_start(self, stage, state):
            _CountedOps.scanned = _CountedOps.shifted = 0

        def on_stage_end(self, stage, state, seconds):
            work[stage.name] = (_CountedOps.scanned, _CountedOps.shifted)

    Compiler(default_stages(), observers=[Counter()]).run(module)
    monkeypatch.undo()
    return work


class TestDepthWorkCounts:
    def test_block_work_grows_linearly_with_depth(self, monkeypatch):
        """8x the layers costs at most 10x the op-list work.  lower-linalg is
        held to its scans only: it inserts every buffer at the top of the
        function, one at a time, and each insert shifts the function's ops."""
        shallow = _stage_work(64, monkeypatch)
        deep = _stage_work(512, monkeypatch)
        assert shallow.keys() == deep.keys()
        table = str({name: (shallow[name], deep[name]) for name in deep})
        scanned = sum(deep[name][0] for name in deep) / sum(shallow[name][0] for name in deep)
        assert scanned <= 10, table
        rest = [name for name in deep if name != "lower-linalg"]
        work = sum(map(sum, (deep[name] for name in rest))) / sum(
            map(sum, (shallow[name] for name in rest))
        )
        assert work <= 10, table
