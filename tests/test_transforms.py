"""Tests for generic transforms: linalg-to-affine lowering, loop transforms,
array partitioning and canonicalization."""

import hashlib
import itertools
import json
import pathlib
import random
import sys
from typing import List, Sequence

import pytest

from repro.compiler import Compiler
from repro.dialects import linalg
from repro.dialects.affine import (
    AffineForOp,
    AffineLoadOp,
    AffineStoreOp,
    get_perfectly_nested_band,
)
from repro.dialects.dataflow import TaskOp
from repro.dialects.memref import AllocOp, GetGlobalOp
from repro.frontend.cpp import KernelBuilder, build_listing1
from repro.frontend.nn import Sequential, Conv2d, ReLU, Linear, MaxPool2d, Flatten, trace
from repro.hida.functional import construct_functional_dataflow
from repro.ir import Builder, ConstantOp, FuncOp, MemRefType, ModuleOp, f32, print_op, verify
from repro.ir.core import Value
from repro.transforms import (
    eliminate_dead_code,
    lower_linalg_to_affine,
    partition_buffers_in,
    partition_for_accesses,
    unroll_loop,
)
from repro.workloads import as_module, iter_workloads
from repro.transforms.loop_transforms import (
    annotate_unroll,
    innermost_loops_of,
    loop_bands_of,
    permute_band,
    pipeline_innermost_loops,
    pipeline_loop,
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

    def test_innermost_loops_of(self):
        module = as_module("3mm")
        inner = innermost_loops_of(module.functions[0])
        assert len(inner) == len(loop_bands_of(module.functions[0]))


# ---------------------------------------------------------------------------
# permute_band against the two-phase reference
# ---------------------------------------------------------------------------


def _reference_permute_band(
    band: Sequence[AffineForOp], permutation: Sequence[int], check: bool = True
) -> List[AffineForOp]:
    """Reorder a perfect band so new level ``j`` is old level ``permutation[j]``.

    The loops stay in place structurally; their bounds, steps, directive
    attributes and induction-variable uses are exchanged (two-phase swap, so
    cyclic permutations work).  Returns the band in its new level order,
    i.e. ``band`` itself — the outermost op is still the outermost op.

    ``check=True`` (default) verifies legality first: a permutation that
    could reverse a dependence raises ``TransformLegalityError``.
    """
    loops = list(band)
    order = [int(i) for i in permutation]
    if sorted(order) != list(range(len(loops))):
        raise ValueError(
            f"{order} is not a permutation of 0..{len(loops) - 1}"
        )
    if check:
        from repro.analysis.legality import legal_permutation

        legal_permutation(loops, order).raise_if_illegal()
    if order == list(range(len(loops))):
        return loops

    bounds = [(l.lower_bound, l.upper_bound, l.step) for l in loops]
    attrs = [dict(l.attributes) for l in loops]
    hints = [l.induction_variable.name_hint for l in loops]
    # Phase 1: route every old IV's uses through a placeholder so swaps
    # cannot collide (IVs are block arguments and stay physically in place).
    placeholders: List[Value] = []
    for loop in loops:
        placeholder = loop.body.add_argument(loop.induction_variable.type)
        loop.induction_variable.replace_uses_if(placeholder, lambda _user: True)
        placeholders.append(placeholder)
    # Phase 2: old level p moves to new level order.index(p): its iteration
    # values are now produced by the loop at that new position.
    for new_level, old_level in enumerate(order):
        lb, ub, step = bounds[old_level]
        loops[new_level].set_bounds(lb, ub, step)
        loops[new_level].attributes.clear()
        loops[new_level].attributes.update(attrs[old_level])
        loops[new_level].induction_variable.name_hint = hints[old_level]
        placeholders[old_level].replace_uses_if(
            loops[new_level].induction_variable, lambda _user: True
        )
    for loop in loops:
        loop.body.arguments.pop()  # the placeholder, unused again
    return loops


#: The stages before ``parallelize``: the bands its permutations act on.
_BAND_PIPELINE = (
    "construct-dataflow,fuse-tasks,lower-linalg,lower-structural,"
    "eliminate-multi-producers,balance,tile"
)


def _distinct_zoo_bands():
    """The zoo's bands of two or more loops, one per distinct printed band."""
    bands = {}
    for handle in iter_workloads():
        state = Compiler.from_spec(_BAND_PIPELINE, platform="zu3eg").run_stages(
            workload=handle.workload_id
        )
        tops = [node for schedule in state.schedules for node in schedule.nodes]
        for top in tops or state.module.functions:
            for band in loop_bands_of(top):
                if len(band) >= 2:
                    bands.setdefault(print_op(band[0]), band)
    return list(bands.values())


def _permutations(depth):
    """Every permutation of a band up to four loops deep.  A deeper band
    (six or seven loops: 720 or 5,040 orders) gets the reversal, every
    rotation, every adjacent swap and eight seeded random orders."""
    if depth <= 4:
        return list(itertools.permutations(range(depth)))
    identity = list(range(depth))
    orders = [identity[::-1]]
    orders += [identity[k:] + identity[:k] for k in range(1, depth)]
    for k in range(depth - 1):
        swapped = list(identity)
        swapped[k], swapped[k + 1] = swapped[k + 1], swapped[k]
        orders.append(swapped)
    rng = random.Random(depth)
    orders += [rng.sample(identity, depth) for _ in range(8)]
    return orders


def _permuted(band, order, permute):
    """``(printed band, per level the (walk position, operand index) of each
    IV use in use-list order)`` after ``permute`` on a clone of ``band``."""
    root = band[0].clone()
    loops = permute(get_perfectly_nested_band(root), order, check=False)
    position = {id(op): index for index, op in enumerate(root.walk())}
    uses = [
        [(position[id(user)], index) for user, index in loop.induction_variable.uses]
        for loop in loops
    ]
    return print_op(root), uses


def test_permute_band_matches_the_two_phase_reference():
    bands = _distinct_zoo_bands()
    assert {len(band) for band in bands} == {2, 3, 4, 6, 7}
    checked = 0
    for band in bands:
        for order in _permutations(len(band)):
            expected = _permuted(band, order, _reference_permute_band)
            assert _permuted(band, order, permute_band) == expected, (print_op(band[0]), order)
            checked += 1
    # Every order of one six-loop band too (the rotations above already
    # cover seven-loop cycles).
    six = next(band for band in bands if len(band) == 6)
    for order in itertools.permutations(range(6)):
        assert _permuted(six, order, permute_band) == _permuted(
            six, order, _reference_permute_band
        ), order
    assert checked > 2_000


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
