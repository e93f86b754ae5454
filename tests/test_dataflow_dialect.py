"""Tests for the HIDA-IR dataflow dialect (Functional and Structural ops)."""

import pytest

from repro.dialects.dataflow import (
    BufferLayout,
    BufferOp,
    DispatchOp,
    MemoryEffect,
    NodeOp,
    ScheduleOp,
    StreamOp,
    StreamReadOp,
    StreamWriteOp,
    TaskOp,
    YieldOp,
    get_consumers,
    get_node_users,
    get_producers,
)
from repro.dialects.hls import ArrayPartition
from repro.ir import Builder, ConstantOp, FuncOp, MemRefType, ModuleOp, TensorType, f32, i1, verify


def make_buffer(shape=(8, 8), **kwargs):
    return BufferOp.create(MemRefType(shape, f32), **kwargs)


class TestFunctionalOps:
    def test_task_yields_and_results_match(self):
        task = TaskOp.create(result_types=[TensorType((4,), f32)], label="t0")
        const = Builder.at_end(task.body).insert(
            ConstantOp.create(0.0, TensorType((4,), f32))
        )
        task.body.append(YieldOp.create([const.result()]))
        task.verify()
        assert task.label == "t0"
        assert task.yield_op is not None
        assert task.payload_ops() == [const]

    def test_task_result_mismatch_fails(self):
        task = TaskOp.create(result_types=[TensorType((4,), f32)])
        task.body.append(YieldOp.create([]))
        with pytest.raises(ValueError):
            task.verify()

    def test_dispatch_lists_tasks(self):
        dispatch = DispatchOp.create()
        builder = Builder.at_end(dispatch.body)
        t1 = builder.insert(TaskOp.create(label="a"))
        t2 = builder.insert(TaskOp.create(label="b"))
        assert dispatch.tasks == [t1, t2]


class TestBufferLayout:
    def test_default_layout(self):
        layout = BufferLayout.default(3)
        assert layout.tile_factors == (1, 1, 1)
        assert layout.vector_factors == (1, 1, 1)

    def test_layout_validation(self):
        with pytest.raises(ValueError):
            BufferLayout([2, 2], [1])
        with pytest.raises(ValueError):
            BufferLayout([0, 1])


class TestBufferAndStream:
    def test_buffer_attributes(self):
        buffer = make_buffer(depth=3, memory_kind="bram_s2p", name_hint="buf0")
        assert buffer.depth == 3
        assert buffer.memory_kind == "bram_s2p"
        assert not buffer.is_external
        assert buffer.result().name_hint == "buf0"
        buffer.set_depth(2)
        buffer.set_memory_kind("dram")
        assert buffer.is_external

    def test_buffer_partition_rank_checked(self):
        buffer = make_buffer()
        buffer.set_partition(ArrayPartition(["cyclic"], [2]))
        with pytest.raises(ValueError):
            buffer.verify()

    def test_buffer_invalid_depth(self):
        buffer = make_buffer()
        buffer.set_depth(0)
        with pytest.raises(ValueError):
            buffer.verify()

    def test_stream_token_detection(self):
        token = StreamOp.create(i1, depth=4)
        data = StreamOp.create(f32, depth=2)
        assert token.is_token
        assert not data.is_token
        assert token.depth == 4

    def test_stream_read_write(self):
        stream = StreamOp.create(f32, depth=2)
        value = ConstantOp.create(1.0, f32)
        write = StreamWriteOp.create(stream.result(), value.result())
        read = StreamReadOp.create(stream.result())
        assert read.result().type == f32
        assert write.stream is stream.result()


class TestNodeAndSchedule:
    def build_schedule_with_nodes(self):
        """Two nodes communicating through one buffer inside a schedule."""
        func = FuncOp.create(
            "f",
            input_types=[MemRefType((8,), f32, "dram"), MemRefType((8,), f32, "dram")],
        )
        schedule = ScheduleOp.create(operands=list(func.arguments), label="s")
        Builder.at_end(func.entry_block).insert(schedule)
        builder = Builder.at_end(schedule.body)
        buffer = builder.insert(make_buffer((8,), name_hint="mid"))
        producer = builder.insert(
            NodeOp.create(
                inputs=[schedule.body.arguments[0]],
                outputs=[buffer.result()],
                label="producer",
            )
        )
        consumer = builder.insert(
            NodeOp.create(
                inputs=[buffer.result()],
                outputs=[schedule.body.arguments[1]],
                label="consumer",
            )
        )
        return func, schedule, buffer, producer, consumer

    def test_node_effect_grouping(self):
        _, _, buffer, producer, consumer = self.build_schedule_with_nodes()
        assert producer.outputs == [buffer.result()]
        assert consumer.inputs == [buffer.result()]
        assert producer.writes(buffer.result())
        assert not producer.reads(buffer.result())
        assert consumer.reads(buffer.result())
        assert producer.effects == [MemoryEffect.READ, MemoryEffect.WRITE]

    def test_node_block_arguments_match_operands(self):
        _, _, buffer, producer, _ = self.build_schedule_with_nodes()
        assert len(producer.body.arguments) == producer.num_operands
        arg = producer.block_argument_for(buffer.result())
        assert arg.type == buffer.result().type

    def test_node_add_operand_with_argument(self):
        _, _, buffer, producer, _ = self.build_schedule_with_nodes()
        extra = make_buffer((8,))
        arg = producer.add_operand_with_argument(extra.result(), MemoryEffect.READ)
        assert producer.num_operands == 3
        assert producer.effects[-1] == MemoryEffect.READ
        assert arg is producer.body.arguments[-1]

    def test_node_replace_operand(self):
        _, _, buffer, producer, consumer = self.build_schedule_with_nodes()
        other = make_buffer((8,))
        consumer.replace_operand(buffer.result(), other.result())
        assert consumer.inputs == [other.result()]

    def test_node_effect_validation(self):
        node = NodeOp.create()
        node.set_attr("effects", ["bogus"])
        with pytest.raises(ValueError):
            node.verify()

    def test_schedule_accessors(self):
        _, schedule, buffer, producer, consumer = self.build_schedule_with_nodes()
        assert schedule.nodes == [producer, consumer]
        assert schedule.buffers == [buffer]
        assert schedule.label == "s"

    def test_producers_and_consumers(self):
        _, _, buffer, producer, consumer = self.build_schedule_with_nodes()
        assert get_producers(buffer.result()) == [producer]
        assert get_consumers(buffer.result()) == [consumer]
        assert get_node_users(buffer.result()) == [producer, consumer]

    def test_external_buffer_detection(self):
        # A schedule is isolated: the buffers allocated outside it are its
        # memref block arguments, which multi-producer elimination fuses over.
        from repro.hida.dataflow_opt import _external_buffer_values

        _, schedule, buffer, _, _ = self.build_schedule_with_nodes()
        assert _external_buffer_values(schedule) == list(schedule.body.arguments)
        assert buffer.result() not in _external_buffer_values(schedule)

    def test_schedule_verifies_inside_module(self):
        func, schedule, *_ = self.build_schedule_with_nodes()
        module = ModuleOp.create("m")
        module.append(func)
        from repro.ir.builtin import ReturnOp

        Builder.at_end(func.entry_block).insert(ReturnOp.create())
        assert verify(module) == []

    def test_isolation_violation_detected(self):
        """A node referencing a value defined outside (not via operands) fails."""
        func = FuncOp.create("f", input_types=[MemRefType((4,), f32)])
        outside = Builder.at_end(func.entry_block).insert(ConstantOp.create(1.0, f32))
        node = NodeOp.create(label="bad")
        Builder.at_end(func.entry_block).insert(node)
        # Illegally reference the outside constant from inside the node.
        from repro.dialects.arith import AddFOp

        Builder.at_end(node.body).insert(AddFOp.create(outside.result(), outside.result()))
        module = ModuleOp.create("m")
        module.append(func)
        errors = verify(module, raise_on_error=False)
        assert any("isolated" in e or "not visible" in e for e in errors)
