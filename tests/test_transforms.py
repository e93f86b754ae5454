"""Tests for generic transforms: linalg-to-affine lowering, loop transforms,
array partitioning and canonicalization."""

import hashlib
import json
import pathlib
import sys

import pytest

from repro.compiler import Compiler
from repro.dialects import linalg
from repro.dialects.affine import AffineForOp, AffineLoadOp, AffineStoreOp
from repro.dialects.dataflow import TaskOp
from repro.dialects.memref import AllocOp, GetGlobalOp
from repro.frontend.cpp import KernelBuilder, build_listing1
from repro.frontend.nn import Sequential, Conv2d, ReLU, Linear, MaxPool2d, Flatten, trace
from repro.hida.functional import construct_functional_dataflow
from repro.ir import Builder, ConstantOp, FuncOp, MemRefType, ModuleOp, f32, print_op, verify
from repro.transforms import (
    eliminate_dead_code,
    lower_linalg_to_affine,
    partition_buffers_in,
    partition_for_accesses,
    tile_loop,
    unroll_loop,
)
from repro.workloads import as_module, iter_workloads
from repro.transforms.loop_transforms import (
    annotate_unroll,
    innermost_loops_of,
    loop_bands_of,
    normalize_band_unroll,
    pipeline_innermost_loops,
    pipeline_loop,
    tile_band,
)


# ---------------------------------------------------------------------------
# linalg -> affine lowering
# ---------------------------------------------------------------------------


class TestLinalgLowering:
    def lower(self, model, shape):
        module = trace(model, shape)
        lower_linalg_to_affine(module)
        return module

    def test_no_linalg_ops_remain(self):
        module = self.lower(Sequential(Conv2d(1, 4, 3, padding=1), ReLU()), (1, 1, 8, 8))
        assert not any(isinstance(op, linalg.LinalgOp) for op in module.walk())
        assert verify(module) == []

    def test_conv_becomes_seven_deep_nest(self):
        module = self.lower(Sequential(Conv2d(1, 4, 3, padding=1)), (1, 1, 8, 8))
        bands = loop_bands_of(module.functions[0])
        conv_band = max(bands, key=len)
        assert len(conv_band) == 7

    def test_weights_become_external_globals(self):
        module = self.lower(Sequential(Conv2d(1, 4, 3)), (1, 1, 8, 8))
        globals_ = [op for op in module.walk() if isinstance(op, GetGlobalOp)]
        assert globals_  # conv weight + bias
        assert all(not g.result().type.is_on_chip for g in globals_)

    def test_intermediate_buffers_allocated_on_chip(self):
        module = self.lower(Sequential(Conv2d(1, 4, 3), ReLU()), (1, 1, 8, 8))
        allocs = [op for op in module.walk() if isinstance(op, AllocOp)]
        assert len(allocs) == 2  # conv output + relu output
        assert all(a.result().type.is_on_chip for a in allocs)

    def test_function_signature_bufferized(self):
        module = self.lower(Sequential(Conv2d(1, 4, 3)), (1, 1, 8, 8))
        func = module.functions[0]
        assert all(isinstance(arg.type, MemRefType) for arg in func.arguments)

    def test_linear_and_flatten_lowering(self):
        model = Sequential(Conv2d(1, 2, 3, padding=1), MaxPool2d(2), Flatten(), Linear(2 * 4 * 4, 10))
        module = self.lower(model, (1, 1, 8, 8))
        assert verify(module) == []
        stores = [op for op in module.walk() if isinstance(op, AffineStoreOp)]
        assert stores

    def test_spatial_loops_marked_parallel(self):
        module = self.lower(Sequential(Conv2d(1, 4, 3, padding=1)), (1, 1, 8, 8))
        bands = loop_bands_of(module.functions[0])
        conv_band = max(bands, key=len)
        # First four loops (n, oc, oh, ow) are parallel, reduction loops not.
        assert all(loop.is_parallel for loop in conv_band[:4])
        assert not any(loop.get_attr("parallel", False) for loop in conv_band[4:])

    def test_lowering_inside_tasks_preserves_task_structure(self):
        module = trace(Sequential(Conv2d(1, 4, 3), ReLU()), (1, 1, 8, 8))
        construct_functional_dataflow(module)
        lower_linalg_to_affine(module)
        tasks = [op for op in module.walk() if isinstance(op, TaskOp)]
        assert tasks
        # Each task now contains affine loops instead of linalg ops.
        assert any(
            isinstance(op, AffineForOp)
            for task in tasks
            for op in task.body.operations
        )

    def test_residual_add_lowering(self):
        module = as_module("resnet18")
        lower_linalg_to_affine(module)
        assert verify(module) == []

    def test_depthwise_lowering(self):
        module = as_module("mobilenet")
        lower_linalg_to_affine(module)
        assert not any(isinstance(op, linalg.LinalgOp) for op in module.walk())


# ---------------------------------------------------------------------------
# Loop transforms
# ---------------------------------------------------------------------------


def single_loop_module(trip=16):
    kb = KernelBuilder("k")
    kb.add_input("A", (trip,))
    kb.add_output("B", (trip,))
    with kb.loop("i", trip) as i:
        kb.store("B", [i], kb.load("A", [i]) * 2.0)
    module = kb.finish()
    loop = [op for op in module.walk() if isinstance(op, AffineForOp)][0]
    return module, loop


class TestLoopTransforms:
    def test_annotate_unroll_clamps_to_trip_count(self):
        _, loop = single_loop_module(trip=8)
        annotate_unroll(loop, 32)
        assert loop.unroll_factor == 8

    def test_literal_unroll_replicates_body(self):
        module, loop = single_loop_module(trip=16)
        body_before = len(loop.body.operations)
        unroll_loop(loop, 4, literal=True)
        assert loop.step == 4
        assert len(loop.body.operations) > body_before
        assert verify(module) == []

    def test_directive_unroll_keeps_body(self):
        module, loop = single_loop_module(trip=16)
        body_before = len(loop.body.operations)
        unroll_loop(loop, 4, literal=False)
        assert loop.unroll_factor == 4
        assert len(loop.body.operations) == body_before

    def test_pipeline_directives(self):
        module, loop = single_loop_module()
        pipeline_loop(loop, target_ii=2)
        assert loop.is_pipelined and loop.target_ii == 2

    def test_pipeline_innermost_loops_count(self):
        module = as_module("mvt")
        count = pipeline_innermost_loops(module.functions[0])
        assert count == 2

    def test_tile_loop_creates_point_loop(self):
        module, loop = single_loop_module(trip=16)
        point = tile_loop(loop, 4)
        assert point is not None
        assert point.get_attr("point_loop")
        assert loop.step == 4
        assert point.trip_count == 4
        assert verify(module) == []

    def test_tile_loop_noop_when_tile_covers_trip(self):
        module, loop = single_loop_module(trip=8)
        assert tile_loop(loop, 8) is None
        assert tile_loop(loop, 16) is None

    def test_tile_loop_rejects_bad_size(self):
        _, loop = single_loop_module()
        with pytest.raises(ValueError):
            tile_loop(loop, 0)

    def test_tile_band(self):
        module = as_module("symm")
        band = loop_bands_of(module.functions[0])[0]
        points = tile_band(band, [8, 8, 8])
        assert len(points) == 3
        assert verify(module) == []

    def test_normalize_band_unroll(self):
        module = as_module("symm")
        band = loop_bands_of(module.functions[0])[0]
        applied = normalize_band_unroll(band, [4, 1000, 2])
        assert applied[0] == 4
        assert applied[1] <= band[1].trip_count

    def test_innermost_loops_of(self):
        module = as_module("3mm")
        inner = innermost_loops_of(module.functions[0])
        assert len(inner) == len(loop_bands_of(module.functions[0]))


# ---------------------------------------------------------------------------
# Array partitioning
# ---------------------------------------------------------------------------


class TestArrayPartition:
    def test_partition_follows_unroll_and_stride(self):
        module = build_listing1()
        func = module.functions[0]
        bands = loop_bands_of(func)
        node2_band = [b for b in bands if len(b) == 3][0]
        # Unroll i by 4, j by 8 (Table 5 IA+CA factors).
        node2_band[0].set_unroll_factor(4)
        node2_band[1].set_unroll_factor(8)
        allocs = {op.result().name_hint: op for op in func.walk_ops(AllocOp)}
        loads_a = [
            op
            for op in node2_band[0].walk()
            if isinstance(op, AffineLoadOp) and op.memref is allocs["A"].result()
        ]
        partition = partition_for_accesses(allocs["A"].result(), loads_a)
        # A is read as A[i*2][k]: stride 2 on the unrolled-by-4 loop -> 8 banks.
        assert partition.factors[0] == 8
        assert partition.factors[1] == 1

    def test_partition_buffers_in_attaches_annotations(self):
        module = build_listing1()
        func = module.functions[0]
        bands = loop_bands_of(func)
        for band in bands:
            for loop in band:
                loop.set_unroll_factor(2)
        chosen = partition_buffers_in(func)
        assert chosen
        assert all(p.banks >= 1 for p in chosen.values())

    def test_partition_clamped_to_dimension_size(self):
        kb = KernelBuilder("small")
        kb.add_input("A", (4,))
        kb.add_output("B", (4,))
        with kb.loop("i", 4) as i:
            kb.store("B", [i], kb.load("A", [i]))
        module = kb.finish()
        loop = [op for op in module.walk() if isinstance(op, AffineForOp)][0]
        loop.set_unroll_factor(4)
        load = [op for op in module.walk() if isinstance(op, AffineLoadOp)][0]
        partition = partition_for_accesses(module.functions[0].arguments[0], [load])
        assert partition.factors[0] <= 4


# ---------------------------------------------------------------------------
# Canonicalization
# ---------------------------------------------------------------------------


class TestCanonicalize:
    def test_dead_code_elimination(self):
        module, func = ModuleOp.create("m"), FuncOp.create("f")
        module.append(func)
        builder = Builder.at_end(func.entry_block)
        dead = builder.insert(ConstantOp.create(1.0, f32))
        erased = eliminate_dead_code(module)
        assert erased >= 1
        assert dead not in func.entry_block.operations

    def test_dce_preserves_side_effects(self):
        module = as_module("symm")
        stores_before = len([op for op in module.walk() if isinstance(op, AffineStoreOp)])
        eliminate_dead_code(module)
        stores_after = len([op for op in module.walk() if isinstance(op, AffineStoreOp)])
        assert stores_before == stores_after

    def test_dce_preserves_loops_with_stores(self):
        module = as_module("2mm")
        loops_before = len([op for op in module.walk() if isinstance(op, AffineForOp)])
        eliminate_dead_code(module)
        loops_after = len([op for op in module.walk() if isinstance(op, AffineForOp)])
        assert loops_before == loops_after

    def test_dce_keeps_an_op_whose_only_effect_is_nested_two_levels_down(self):
        module = as_module("2mm")
        for loop in [op for op in module.walk() if isinstance(op, AffineForOp)]:
            assert not any(result.has_uses for result in loop.results)
        before = print_op(module)
        assert eliminate_dead_code(module) == 0
        assert print_op(module) == before

    def test_dce_erases_a_dead_loop_nest_inside_out_in_one_sweep(self):
        module, func = ModuleOp.create("m"), FuncOp.create("f", input_types=[MemRefType((4,), f32)])
        module.append(func)
        builder = Builder.at_end(func.entry_block)
        dead_outer = builder.insert(AffineForOp.create(0, 4))
        dead_inner = Builder.at_end(dead_outer.body).insert(AffineForOp.create(0, 4))
        Builder.at_end(dead_inner.body).insert(ConstantOp.create(1.0, f32))
        live_outer = builder.insert(AffineForOp.create(0, 4))
        live_inner = Builder.at_end(live_outer.body).insert(AffineForOp.create(0, 4))
        body = Builder.at_end(live_inner.body)
        body.insert(ConstantOp.create(2.0, f32))  # dead, next to a store
        kept = body.insert(ConstantOp.create(3.0, f32))
        body.insert(
            AffineStoreOp.create(kept.result(), func.arguments[0], [live_inner.induction_variable])
        )
        # Post-order reaches the constant, then the inner loop, then the outer.
        assert eliminate_dead_code(module, max_iterations=1) == 4
        assert func.entry_block.operations == [live_outer]
        assert [op.name for op in live_inner.body.operations] == ["arith.constant", "affine.store"]


# ``tests/data/dce_golden.json`` holds what the pre-PR-23 ``eliminate_dead_code``
# (one subtree walk per candidate op) erased from every NN model right after
# ``lower_linalg_to_affine``: the count, and a digest of the printed result.
# Regenerate only on purpose: ``PYTHONPATH=src python tests/test_transforms.py --regen``.

_DCE_GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "dce_golden.json"
_MODELS = [handle.workload_id for handle in iter_workloads() if handle.kind == "model"]


def _dce_row(workload):
    state = Compiler.from_spec("construct-dataflow,fuse-tasks", platform="zu3eg").run_stages(
        workload=workload
    )
    lower_linalg_to_affine(state.module)
    erased = eliminate_dead_code(state.module)
    text = print_op(state.module)
    return {
        "erased": erased,
        "lines": text.count("\n") + 1,
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
    }


@pytest.mark.parametrize("workload", _MODELS)
def test_dce_golden(workload):
    assert len(_MODELS) >= 6
    golden = json.loads(_DCE_GOLDEN_PATH.read_text())[workload]
    assert golden["erased"] > 0
    assert _dce_row(workload) == golden


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_transforms.py --regen")
    rows = {workload: _dce_row(workload) for workload in _MODELS}
    _DCE_GOLDEN_PATH.write_text(json.dumps(rows, indent=1) + "\n")
    print(f"wrote {_DCE_GOLDEN_PATH}")
