"""The compile path leaves no reference cycles of its own closures or IR.

A recursive closure refers to itself through its cell, so the function, its
cells and everything they hold (a band's access walk, an unroll search's
state) outlive the call until the cycle collector finds them.  Here the zoo
and one DSE prefix group compile with the collector off; one collection with
``DEBUG_SAVEALL`` then keeps everything that was only reachable from a cycle
in ``gc.garbage``, and none of it may be a function of ``repro`` or a cell
of one.

The IR links an op to its results and a block to its parent, so IR is a
cycle until :meth:`Operation.drop_all_references
<repro.ir.core.Operation.drop_all_references>` unlinks it.  A DSE prefix
group drops every module it discards, and an erased op drops itself, so
neither leaves an op, block, region or value to the collector; nor does a
zoo compile whose returned modules are dropped (which covers the ops the
passes erase).

A compile whose state is kept alive leaves the collector nothing at all:
every object a stage makes and drops is freed by reference counting, so a
collection right after the compile finds no unreachable object.  That holds
for the default pipeline and the four Figure-11 ablation pipelines over the
zoo, and for a deep conv+ReLU chain.
"""

import collections
import gc
import types

import pytest

from repro.baselines.ablation import ABLATION_MODES, ablation_pipeline_spec
from repro.compiler import Compiler, default_stages
from repro.dse import build_space, explore
from repro.ir.core import Block, Operation, Region, Value
from repro.workloads import list_workloads

from test_hida_dataflow import conv_relu_chain


def _garbage_of(work):
    """Everything ``work()`` left for the cycle collector."""
    enabled, debug, kept = gc.isenabled(), gc.get_debug(), len(gc.garbage)
    gc.collect()
    gc.disable()
    try:
        work()
        gc.set_debug(debug | gc.DEBUG_SAVEALL)
        gc.collect()
        return gc.garbage[kept:]
    finally:
        gc.set_debug(debug)
        del gc.garbage[kept:]
        if enabled:
            gc.enable()


def _is_repro_function(obj):
    return isinstance(obj, types.FunctionType) and obj.__module__.startswith("repro.")


def _repro_closures(garbage):
    """``qualname -> count`` of the ``repro`` functions in ``garbage``, and
    how many of its cells belong to one or hold one."""
    functions = [obj for obj in garbage if _is_repro_function(obj)]
    owned = {id(cell) for function in functions for cell in function.__closure__ or ()}
    cells = sum(
        isinstance(obj, types.CellType)
        and (id(obj) in owned or _is_repro_function(getattr(obj, "cell_contents", None)))
        for obj in garbage
    )
    return collections.Counter(function.__qualname__ for function in functions), cells


def _ir_objects(garbage):
    """``class name -> count`` of the IR objects in ``garbage``."""
    return collections.Counter(
        type(obj).__name__
        for obj in garbage
        if isinstance(obj, (Operation, Block, Region, Value))
    )


def _zoo_results():
    for name in list_workloads(kind="model"):
        yield Compiler(default_stages(parallelize={"factor": 64}), platform="vu9p-slr").run(
            workload=name
        )
    for name in list_workloads(kind="kernel"):
        yield Compiler(default_stages(), platform="zu3eg").run(workload=name)


def _compile_zoo():
    for _ in _zoo_results():
        pass


def _compile_zoo_and_drop():
    for result in _zoo_results():
        result.module.drop_all_references()


def _explore_one_group():
    points = build_space("full", suite=("2mm",)).sample(8, 2024).points
    explore(points, workers=1, use_cache=False, fidelity="simulate", promote_top=0.25)


def test_the_zoo_compile_frees_its_closures_by_refcount():
    found, cells = _repro_closures(_garbage_of(_compile_zoo))
    assert (found, cells) == ({}, 0)


def test_a_dse_prefix_group_frees_its_closures_by_refcount():
    found, cells = _repro_closures(_garbage_of(_explore_one_group))
    assert (found, cells) == ({}, 0)


def test_a_dse_prefix_group_leaves_no_ir_to_the_collector():
    assert _ir_objects(_garbage_of(_explore_one_group)) == {}


def test_a_dropped_zoo_compile_leaves_no_ir_to_the_collector():
    assert _ir_objects(_garbage_of(_compile_zoo_and_drop)) == {}


def _unreachable_after(compile_one):
    """How many unreachable objects a collection finds right after
    ``compile_one()``, run with the collector off, while the state it
    returns is still alive."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        state = compile_one()
        found = gc.collect()
        del state
        return found
    finally:
        if enabled:
            gc.enable()


def _unreachable_per_workload(compiler):
    return {
        name: _unreachable_after(lambda: compiler.run(workload=name))
        for name in list_workloads()
    }


def test_a_held_default_compile_leaves_the_collector_nothing():
    found = _unreachable_per_workload(Compiler(default_stages()))
    assert len(found) == 19
    assert found == dict.fromkeys(found, 0)


@pytest.mark.parametrize("mode", list(ABLATION_MODES))
def test_a_held_ablation_compile_leaves_the_collector_nothing(mode):
    found = _unreachable_per_workload(Compiler.from_spec(ablation_pipeline_spec(mode, 64)))
    assert found == dict.fromkeys(found, 0)


def test_a_held_deep_chain_compile_leaves_the_collector_nothing():
    compiler = Compiler(default_stages())
    assert _unreachable_after(lambda: compiler.run(conv_relu_chain(64))) == 0
